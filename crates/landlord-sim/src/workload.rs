//! Simulated HTC job streams.
//!
//! §VI, "Simulating HTC Jobs": each simulated request starts from "a
//! random selection of up to 100 packages"; the dependency-closure
//! scheme then "recursively include\[s\] dependencies of requested
//! software", while the uniform-random control draws the same *number*
//! of packages with no structure (Fig. 7). A stream consists of some
//! number of unique jobs, each repeated several times, shuffled.

use landlord_core::spec::Spec;
use landlord_repo::sampler::{Sampler, SelectionScheme};
use landlord_repo::{ClosureComputer, Repository};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How a unique job's specification is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WorkloadScheme {
    /// Selection + dependency closure (the paper's realistic scheme).
    #[default]
    DependencyClosure,
    /// Same package *count* as a closure image, drawn uniformly with no
    /// dependency structure — the Fig. 7 control: "we considered only
    /// the total number of software packages in the resulting image,
    /// and then chose the same number of packages uniformly randomly
    /// from the entire repository".
    UniformRandom,
}

impl WorkloadScheme {
    /// Stable token for CLI parsing.
    pub fn token(self) -> &'static str {
        match self {
            WorkloadScheme::DependencyClosure => "deps",
            WorkloadScheme::UniformRandom => "random",
        }
    }

    /// Parse a CLI token.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "deps" => WorkloadScheme::DependencyClosure,
            "random" => WorkloadScheme::UniformRandom,
            _ => return None,
        })
    }
}

/// Parameters of a job stream.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of distinct job specifications.
    pub unique_jobs: usize,
    /// Times each unique job appears in the stream.
    pub repeats: usize,
    /// Upper bound on the initial random selection ("up to 100").
    pub max_initial_selection: usize,
    /// Image generation scheme.
    pub scheme: WorkloadScheme,
    /// Stream RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        // The paper's standard stream: 500 unique jobs × 5 repeats.
        WorkloadConfig {
            unique_jobs: 500,
            repeats: 5,
            max_initial_selection: 100,
            scheme: WorkloadScheme::DependencyClosure,
            seed: 0,
        }
    }
}

impl WorkloadConfig {
    /// Total requests in the stream.
    pub fn total_requests(&self) -> usize {
        self.unique_jobs * self.repeats
    }
}

/// Generate the unique job specifications (no repetition).
pub fn unique_specs(repo: &Repository, config: &WorkloadConfig) -> Vec<Spec> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // The random-control redraw uses its own RNG stream so that job k's
    // closure (and hence the matched image size) is identical across
    // both schemes for the same seed — the Fig. 7 comparison is then
    // size-for-size fair.
    let mut redraw_rng = StdRng::seed_from_u64(config.seed ^ 0xd1_ce0f_u64);
    let sampler = Sampler::new(repo);
    let mut computer = ClosureComputer::new(repo.package_count());
    (0..config.unique_jobs)
        .map(|_| {
            let seeds = sampler.sample_request_seeds(
                &mut rng,
                SelectionScheme::UniformRandom,
                config.max_initial_selection,
            );
            let closure = computer.closure(repo.graph(), &seeds);
            match config.scheme {
                WorkloadScheme::DependencyClosure => closure,
                // Match the closure's package count, structure-free.
                WorkloadScheme::UniformRandom => {
                    sampler.sample_random_image(&mut redraw_rng, closure.len())
                }
            }
        })
        .collect()
}

/// Generate the full shuffled stream: each unique spec repeated
/// `repeats` times, order randomized.
pub fn generate_stream(repo: &Repository, config: &WorkloadConfig) -> Vec<Spec> {
    let uniques = unique_specs(repo, config);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5487_ff1e_u64.rotate_left(1));
    let mut stream = Vec::with_capacity(config.total_requests());
    for spec in &uniques {
        for _ in 0..config.repeats {
            stream.push(spec.clone());
        }
    }
    stream.shuffle(&mut rng);
    stream
}

/// How many distinct id allocations a stream holds: one per unique
/// spec when repeats share storage, one per request when they copy.
#[cfg(test)]
fn distinct_allocations(stream: &[Spec]) -> usize {
    let ptrs: std::collections::HashSet<*const landlord_core::spec::PackageId> =
        stream.iter().map(|s| s.ids().as_ptr()).collect();
    ptrs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use landlord_repo::RepoConfig;

    fn repo() -> Repository {
        Repository::generate(&RepoConfig::small_for_tests(77))
    }

    fn config(scheme: WorkloadScheme) -> WorkloadConfig {
        WorkloadConfig {
            unique_jobs: 20,
            repeats: 3,
            max_initial_selection: 10,
            scheme,
            seed: 4,
        }
    }

    #[test]
    fn stream_has_expected_length_and_multiplicity() {
        let r = repo();
        let cfg = config(WorkloadScheme::DependencyClosure);
        let stream = generate_stream(&r, &cfg);
        assert_eq!(stream.len(), 60);
        // Each unique spec appears exactly `repeats` times.
        let uniques = unique_specs(&r, &cfg);
        for u in &uniques {
            let n = stream.iter().filter(|s| *s == u).count();
            assert!(
                n >= cfg.repeats,
                "spec appeared {n} < {} times",
                cfg.repeats
            );
        }
    }

    #[test]
    fn deps_scheme_specs_are_closed() {
        let r = repo();
        for spec in unique_specs(&r, &config(WorkloadScheme::DependencyClosure)) {
            for p in spec.iter() {
                for &d in r.graph().deps(p) {
                    assert!(spec.contains(d), "stream spec not dependency-closed");
                }
            }
        }
    }

    #[test]
    fn random_scheme_matches_closure_sizes_but_not_structure() {
        let r = repo();
        let deps = unique_specs(&r, &config(WorkloadScheme::DependencyClosure));
        let random = unique_specs(&r, &config(WorkloadScheme::UniformRandom));
        assert_eq!(deps.len(), random.len());
        // Sizes pair up exactly (same rng stream for selection sizes).
        for (d, x) in deps.iter().zip(random.iter()) {
            assert_eq!(d.len(), x.len(), "random image must match closure size");
        }
        // But random specs are (almost surely) not dependency-closed.
        let mut violations = 0;
        for spec in &random {
            for p in spec.iter() {
                for &d in r.graph().deps(p) {
                    if !spec.contains(d) {
                        violations += 1;
                    }
                }
            }
        }
        assert!(violations > 0, "uniform-random specs should break closure");
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let r = repo();
        let cfg = config(WorkloadScheme::DependencyClosure);
        assert_eq!(generate_stream(&r, &cfg), generate_stream(&r, &cfg));
        let other = WorkloadConfig { seed: 5, ..cfg };
        assert_ne!(generate_stream(&r, &cfg), generate_stream(&r, &other));
    }

    #[test]
    fn stream_repeats_share_storage() {
        let r = repo();
        let cfg = config(WorkloadScheme::DependencyClosure);
        let stream = generate_stream(&r, &cfg);
        assert_eq!(distinct_allocations(&stream), cfg.unique_jobs);
    }

    #[test]
    fn shuffle_actually_interleaves() {
        let r = repo();
        let cfg = config(WorkloadScheme::DependencyClosure);
        let stream = generate_stream(&r, &cfg);
        // If unshuffled, every run of `repeats` identical specs would be
        // adjacent; count adjacency breaks to confirm interleaving.
        let breaks = stream.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            breaks > stream.len() / 2,
            "stream looks unshuffled: {breaks} breaks"
        );
    }

    #[test]
    fn scheme_tokens_round_trip() {
        for s in [
            WorkloadScheme::DependencyClosure,
            WorkloadScheme::UniformRandom,
        ] {
            assert_eq!(WorkloadScheme::parse(s.token()), Some(s));
        }
        assert_eq!(WorkloadScheme::parse("?"), None);
    }
}

/// Multi-user workload structure (extension past the paper's uniform
/// selections).
///
/// §I: jobs are "generated automatically by submission systems on
/// behalf of multiple users", and "each computing site has a different
/// set of users and projects". Each simulated user owns a *project
/// pool* of packages; that user's jobs select only from their pool, so
/// jobs from one user overlap heavily while jobs from different users
/// overlap mainly through shared frameworks — exactly the structure a
/// real site's stream has and the uniform scheme lacks.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UserMixConfig {
    /// Number of users submitting jobs.
    pub users: usize,
    /// Packages in each user's project pool.
    pub pool_size: usize,
    /// Distinct jobs across all users.
    pub unique_jobs: usize,
    /// Repeats per unique job.
    pub repeats: usize,
    /// Max seeds drawn from the owner's pool per job.
    pub max_initial_selection: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Generate the unique jobs of a user-structured stream. Jobs are
/// assigned to users round-robin; each job selects 1..=max seeds from
/// its owner's pool and expands the dependency closure.
pub fn user_mix_unique_specs(repo: &Repository, config: &UserMixConfig) -> Vec<Spec> {
    assert!(config.users > 0, "need at least one user");
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0be5);
    let sampler = Sampler::new(repo);
    let mut computer = ClosureComputer::new(repo.package_count());

    // Each user's pool: a contiguous interest area plus random extras,
    // drawn once.
    let pools: Vec<Vec<landlord_core::spec::PackageId>> = (0..config.users)
        .map(|_| {
            sampler.sample_distinct(
                &mut rng,
                SelectionScheme::UniformRandom,
                config.pool_size.max(1),
            )
        })
        .collect();

    (0..config.unique_jobs)
        .map(|job| {
            let pool = &pools[job % config.users];
            let k = rng.gen_range(1..=config.max_initial_selection.min(pool.len()).max(1));
            let mut seeds = Vec::with_capacity(k);
            let mut taken = std::collections::HashSet::new();
            while seeds.len() < k {
                let idx = rng.gen_range(0..pool.len());
                if taken.insert(idx) {
                    seeds.push(pool[idx]);
                }
            }
            computer.closure(repo.graph(), &seeds)
        })
        .collect()
}

/// Full shuffled user-mix stream (repeats + shuffle, like
/// [`generate_stream`]).
pub fn generate_user_mix_stream(repo: &Repository, config: &UserMixConfig) -> Vec<Spec> {
    let uniques = user_mix_unique_specs(repo, config);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5487_ff1e);
    let mut stream = Vec::with_capacity(config.unique_jobs * config.repeats);
    for spec in &uniques {
        for _ in 0..config.repeats {
            stream.push(spec.clone());
        }
    }
    stream.shuffle(&mut rng);
    stream
}

#[cfg(test)]
mod user_mix_tests {
    use super::*;
    use landlord_core::jaccard::jaccard_distance;
    use landlord_repo::RepoConfig;

    fn repo() -> Repository {
        Repository::generate(&RepoConfig::small_for_tests(88))
    }

    fn config(users: usize) -> UserMixConfig {
        UserMixConfig {
            users,
            pool_size: 12,
            unique_jobs: 24,
            repeats: 2,
            max_initial_selection: 5,
            seed: 6,
        }
    }

    #[test]
    fn stream_shape() {
        let r = repo();
        let stream = generate_user_mix_stream(&r, &config(4));
        assert_eq!(stream.len(), 48);
        for spec in &stream {
            for p in spec.iter() {
                for &d in r.graph().deps(p) {
                    assert!(spec.contains(d), "user-mix specs must be closed");
                }
            }
        }
    }

    #[test]
    fn same_user_jobs_are_closer_than_cross_user() {
        let r = repo();
        // Two users, many jobs: jobs 0,2,4.. belong to user 0.
        let uniques = user_mix_unique_specs(&r, &config(2));
        let mut same = Vec::new();
        let mut cross = Vec::new();
        for i in 0..uniques.len() {
            for j in (i + 1)..uniques.len() {
                let d = jaccard_distance(&uniques[i], &uniques[j]);
                if i % 2 == j % 2 {
                    same.push(d);
                } else {
                    cross.push(d);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&same) < mean(&cross),
            "same-user mean distance {} should beat cross-user {}",
            mean(&same),
            mean(&cross)
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let r = repo();
        let a = user_mix_unique_specs(&r, &config(3));
        let b = user_mix_unique_specs(&r, &config(3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_rejected() {
        let r = repo();
        let _ = user_mix_unique_specs(
            &r,
            &UserMixConfig {
                users: 0,
                ..config(1)
            },
        );
    }
}

/// Generate a stream whose *repeat counts* follow a Zipf distribution
/// instead of the paper's uniform "each job repeated five times": job
/// rank `k` (0-based) receives weight `1/(k+1)^exponent`, scaled so the
/// stream totals `config.total_requests()` requests (±rounding, min 1
/// per job). Real HTC streams are popularity-skewed — a few pilot-job
/// templates dominate — which gives LANDLORD more hit opportunities
/// than the paper's uniform repetition.
pub fn generate_zipf_stream(
    repo: &Repository,
    config: &WorkloadConfig,
    exponent: f64,
) -> Vec<Spec> {
    assert!(exponent >= 0.0, "Zipf exponent must be non-negative");
    let uniques = unique_specs(repo, config);
    let weights: Vec<f64> = (0..uniques.len())
        .map(|k| 1.0 / ((k + 1) as f64).powf(exponent))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let target = config.total_requests() as f64;

    let mut stream = Vec::with_capacity(config.total_requests());
    for (spec, w) in uniques.iter().zip(&weights) {
        let copies = ((w / total_weight) * target).round().max(1.0) as usize;
        for _ in 0..copies {
            stream.push(spec.clone());
        }
    }
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x21bf);
    stream.shuffle(&mut rng);
    stream
}

#[cfg(test)]
mod zipf_tests {
    use super::*;
    use landlord_repo::RepoConfig;

    fn repo() -> Repository {
        Repository::generate(&RepoConfig::small_for_tests(77))
    }

    fn config() -> WorkloadConfig {
        WorkloadConfig {
            unique_jobs: 30,
            repeats: 4,
            max_initial_selection: 6,
            scheme: WorkloadScheme::DependencyClosure,
            seed: 11,
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let r = repo();
        let stream = generate_zipf_stream(&r, &config(), 0.0);
        // Equal weights: every job gets exactly `repeats` copies.
        assert_eq!(stream.len(), 120);
        let uniques = unique_specs(&r, &config());
        for u in &uniques {
            assert_eq!(stream.iter().filter(|s| *s == u).count(), 4);
        }
    }

    #[test]
    fn zipf_repeats_share_storage() {
        let r = repo();
        let cfg = config();
        let stream = generate_zipf_stream(&r, &cfg, 1.2);
        assert!(stream.len() > cfg.unique_jobs);
        assert_eq!(distinct_allocations(&stream), cfg.unique_jobs);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let r = repo();
        let cfg = config();
        let stream = generate_zipf_stream(&r, &cfg, 1.2);
        let uniques = unique_specs(&r, &cfg);
        let count = |u: &Spec| stream.iter().filter(|s| *s == u).count();
        // Rank 0 dominates; the tail still appears at least once.
        assert!(count(&uniques[0]) > count(&uniques[uniques.len() - 1]) * 3);
        for u in &uniques {
            assert!(count(u) >= 1, "tail job dropped from the stream");
        }
        // Volume within 25% of the uniform stream's.
        let target = cfg.total_requests() as f64;
        assert!((stream.len() as f64 - target).abs() / target < 0.25);
    }

    #[test]
    fn zipf_stream_raises_hit_rate() {
        use landlord_core::cache::{CacheConfig, ImageCache};
        use std::sync::Arc;
        let r = repo();
        let cfg = config();
        let cache_cfg = CacheConfig {
            alpha: 0.8,
            limit_bytes: r.total_bytes() / 2,
            ..Default::default()
        };

        let run = |stream: &[Spec]| {
            let mut c = ImageCache::new(cache_cfg, Arc::new(r.size_table()));
            for s in stream {
                c.request(s);
            }
            c.check_invariants();
            c.stats().hits as f64 / c.stats().requests as f64
        };
        let uniform = run(&generate_stream(&r, &cfg));
        let zipf = run(&generate_zipf_stream(&r, &cfg, 1.5));
        assert!(
            zipf > uniform,
            "popularity skew should raise hit rate: zipf {zipf:.3} vs uniform {uniform:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_exponent_rejected() {
        let r = repo();
        let _ = generate_zipf_stream(&r, &config(), -1.0);
    }
}
