//! Random package selection — the first half of a simulated request.
//!
//! The paper generates each simulated job by "randomly \[making\] an
//! initial selection of up to 100 packages" and then expanding it with
//! the dependency closure (or, for the Fig. 7 control, re-drawing the
//! same *count* of packages uniformly at random with no closure).

use crate::Repository;
use landlord_core::bitset::BitSet;
use landlord_core::spec::{PackageId, Spec};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the initial selection is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SelectionScheme {
    /// Uniform over the whole universe (the paper's scheme: "the
    /// initial selection of packages, however, is simply uniformly
    /// random").
    #[default]
    UniformRandom,
    /// Weighted by package fan-in, approximating popularity-driven
    /// request mixes (an extension beyond the paper, used in ablations).
    PopularityWeighted,
}

impl SelectionScheme {
    /// Stable token for CLI parsing.
    pub fn token(self) -> &'static str {
        match self {
            SelectionScheme::UniformRandom => "uniform",
            SelectionScheme::PopularityWeighted => "popularity",
        }
    }

    /// Parse a CLI token.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "uniform" => SelectionScheme::UniformRandom,
            "popularity" => SelectionScheme::PopularityWeighted,
            _ => return None,
        })
    }
}

/// Draws selections from one repository; precomputes popularity weights
/// once so repeated sampling stays cheap.
#[derive(Debug, Clone)]
pub struct Sampler {
    universe: usize,
    /// Cumulative fan-in weights for popularity sampling.
    cumulative: Vec<u64>,
}

impl Sampler {
    /// Build a sampler for a repository.
    pub fn new(repo: &Repository) -> Self {
        let mut acc = 0u64;
        let cumulative = repo
            .graph()
            .fan_in()
            .into_iter()
            .map(|fan_in| {
                // fan-in + 1 so every package stays reachable.
                acc += u64::from(fan_in) + 1;
                acc
            })
            .collect();
        Sampler {
            universe: repo.package_count(),
            cumulative,
        }
    }

    /// Number of packages in the universe.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Draw `k` distinct package ids per `scheme`. `k` is clamped to
    /// the universe size. The result is unsorted.
    pub fn sample_distinct(
        &self,
        rng: &mut StdRng,
        scheme: SelectionScheme,
        k: usize,
    ) -> Vec<PackageId> {
        let k = k.min(self.universe);
        let mut chosen = Vec::with_capacity(k);
        let mut seen = BitSet::new(self.universe);
        let mut guard = 0usize;
        while chosen.len() < k && guard < k * 64 + 64 {
            guard += 1;
            let id = match scheme {
                SelectionScheme::UniformRandom => rng.gen_range(0..self.universe) as u32,
                SelectionScheme::PopularityWeighted => {
                    // k > 0 implies a non-empty universe with positive
                    // total weight; bail out instead of panicking if not.
                    let total = self.cumulative.last().copied().unwrap_or(0);
                    if total == 0 {
                        break;
                    }
                    let ticket = rng.gen_range(0..total);
                    self.cumulative.partition_point(|&c| c <= ticket) as u32
                }
            };
            if seen.insert(id as usize) {
                chosen.push(PackageId(id));
            }
        }
        // Rejection sampling can stall only when k approaches the
        // universe; finish deterministically in that case.
        if chosen.len() < k {
            for id in 0..self.universe as u32 {
                if chosen.len() >= k {
                    break;
                }
                if seen.insert(id as usize) {
                    chosen.push(PackageId(id));
                }
            }
        }
        chosen
    }

    /// Draw a selection of uniformly random *size* in `1..=max_size`,
    /// then `k` distinct ids — the paper's "initial selection of up to
    /// 100 packages".
    pub fn sample_request_seeds(
        &self,
        rng: &mut StdRng,
        scheme: SelectionScheme,
        max_size: usize,
    ) -> Vec<PackageId> {
        let k = rng.gen_range(1..=max_size.max(1));
        self.sample_distinct(rng, scheme, k)
    }

    /// The paper's Fig. 7 control: draw a spec of exactly `n` packages
    /// uniformly at random with *no* dependency closure, matching the
    /// package count of a closure-generated image.
    pub fn sample_random_image(&self, rng: &mut StdRng, n: usize) -> Spec {
        Spec::from_ids(self.sample_distinct(rng, SelectionScheme::UniformRandom, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::RepoConfig;
    use rand::SeedableRng;

    fn repo() -> Repository {
        Repository::generate(&RepoConfig::small_for_tests(11))
    }

    #[test]
    fn sample_distinct_has_no_duplicates() {
        let r = repo();
        let s = Sampler::new(&r);
        let mut rng = StdRng::seed_from_u64(0);
        for scheme in [
            SelectionScheme::UniformRandom,
            SelectionScheme::PopularityWeighted,
        ] {
            let sel = s.sample_distinct(&mut rng, scheme, 50);
            assert_eq!(sel.len(), 50);
            let set: std::collections::HashSet<_> = sel.iter().collect();
            assert_eq!(set.len(), 50, "{scheme:?} produced duplicates");
        }
    }

    #[test]
    fn sample_clamps_to_universe() {
        let r = repo();
        let s = Sampler::new(&r);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = s.sample_distinct(&mut rng, SelectionScheme::UniformRandom, 10_000_000);
        assert_eq!(sel.len(), r.package_count());
    }

    #[test]
    fn request_seeds_size_in_range() {
        let r = repo();
        let s = Sampler::new(&r);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let sel = s.sample_request_seeds(&mut rng, SelectionScheme::UniformRandom, 100);
            assert!((1..=100).contains(&sel.len()), "got {}", sel.len());
        }
    }

    #[test]
    fn random_image_has_exact_size_and_no_closure() {
        let r = repo();
        let s = Sampler::new(&r);
        let mut rng = StdRng::seed_from_u64(3);
        let spec = s.sample_random_image(&mut rng, 40);
        assert_eq!(spec.len(), 40);
    }

    #[test]
    fn popularity_prefers_high_fanin() {
        let r = repo();
        let s = Sampler::new(&r);
        let mut rng = StdRng::seed_from_u64(4);
        // Universal core packages (low ids, layer 0) have huge fan-in;
        // they should appear far more often under popularity weighting.
        let mut uniform_core = 0usize;
        let mut pop_core = 0usize;
        for _ in 0..300 {
            let u = s.sample_distinct(&mut rng, SelectionScheme::UniformRandom, 10);
            let p = s.sample_distinct(&mut rng, SelectionScheme::PopularityWeighted, 10);
            uniform_core += u.iter().filter(|p| p.0 < 8).count();
            pop_core += p.iter().filter(|p| p.0 < 8).count();
        }
        assert!(
            pop_core > uniform_core * 2,
            "popularity {pop_core} vs uniform {uniform_core}"
        );
    }

    #[test]
    fn scheme_tokens_round_trip() {
        for s in [
            SelectionScheme::UniformRandom,
            SelectionScheme::PopularityWeighted,
        ] {
            assert_eq!(SelectionScheme::parse(s.token()), Some(s));
        }
        assert_eq!(SelectionScheme::parse("bogus"), None);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let r = repo();
        let s = Sampler::new(&r);
        let a = s.sample_distinct(
            &mut StdRng::seed_from_u64(9),
            SelectionScheme::UniformRandom,
            20,
        );
        let b = s.sample_distinct(
            &mut StdRng::seed_from_u64(9),
            SelectionScheme::UniformRandom,
            20,
        );
        assert_eq!(a, b);
    }
}
