//! Repository structure statistics and the Fig. 3 closure-growth curve.
//!
//! The paper characterizes the SFT repository before simulating against
//! it (§VI, "Characterizing Package Dependencies"): for each fixed
//! specification size it samples random selections, expands the
//! dependency closure, and reports the median package count and bytes —
//! Fig. 3. [`closure_growth`] reproduces that procedure against any
//! repository.

use crate::sampler::{Sampler, SelectionScheme};
use crate::Repository;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Summary statistics of a repository's dependency structure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepoStats {
    /// Packages in the universe.
    pub package_count: usize,
    /// Dependency edges.
    pub edge_count: usize,
    /// Total bytes.
    pub total_bytes: u64,
    /// Longest dependency chain in the graph.
    pub max_depth: u32,
    /// Mean direct dependencies per package.
    pub mean_fan_out: f64,
    /// Largest fan-in (most-depended-upon package).
    pub max_fan_in: usize,
    /// Median package size in bytes.
    pub median_package_bytes: u64,
}

/// Compute [`RepoStats`].
pub fn repo_stats(repo: &Repository) -> RepoStats {
    let graph = repo.graph();
    let n = repo.package_count();
    let max_fan_in = graph.fan_in().into_iter().max().unwrap_or(0) as usize;
    // Generated repositories are DAGs; a cyclic graph degrades to
    // depth 0 rather than panicking.
    let depths = graph.depths().unwrap_or_default();
    let mut sizes: Vec<u64> = repo.packages().iter().map(|p| p.bytes).collect();
    RepoStats {
        package_count: n,
        edge_count: graph.edge_count(),
        total_bytes: repo.total_bytes(),
        max_depth: depths.iter().copied().max().unwrap_or(0),
        mean_fan_out: graph.edge_count() as f64 / n.max(1) as f64,
        max_fan_in,
        median_package_bytes: median_u64(&mut sizes),
    }
}

/// One row of the Fig. 3 curve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GrowthRow {
    /// Requested selection size (packages) — the x axis.
    pub spec_size: usize,
    /// Median bytes of just the selection ("Spec. Size" line).
    pub selection_bytes: u64,
    /// Median package count after closure ("Image Count" line).
    pub image_packages: usize,
    /// Median bytes after closure ("Image Size" line).
    pub image_bytes: u64,
}

/// Reproduce Fig. 3: for each `spec_size`, draw `samples` uniform
/// selections, expand the dependency closure, and report medians.
pub fn closure_growth(
    repo: &Repository,
    spec_sizes: &[usize],
    samples: usize,
    seed: u64,
) -> Vec<GrowthRow> {
    let sampler = Sampler::new(repo);
    let mut computer = crate::graph::ClosureComputer::new(repo.package_count());
    let mut rng = StdRng::seed_from_u64(seed);
    spec_sizes
        .iter()
        .map(|&spec_size| {
            let mut sel_bytes = Vec::with_capacity(samples);
            let mut img_pkgs = Vec::with_capacity(samples);
            let mut img_bytes = Vec::with_capacity(samples);
            for _ in 0..samples {
                let seeds =
                    sampler.sample_distinct(&mut rng, SelectionScheme::UniformRandom, spec_size);
                sel_bytes.push(repo.selection_bytes(&seeds));
                let closure = computer.closure_ids(repo.graph(), &seeds);
                img_pkgs.push(closure.len() as u64);
                img_bytes.push(repo.selection_bytes(&closure));
            }
            GrowthRow {
                spec_size,
                selection_bytes: median_u64(&mut sel_bytes),
                image_packages: median_u64(&mut img_pkgs) as usize,
                image_bytes: median_u64(&mut img_bytes),
            }
        })
        .collect()
}

/// Median of a slice (mutates order). Returns 0 for an empty slice.
pub fn median_u64(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mid = values.len() / 2;
    let (_, m, _) = values.select_nth_unstable(mid);
    *m
}

/// Median of `f64` values (mutates order). Returns 0 for empty input.
pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mid = values.len() / 2;
    let (_, m, _) = values.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    *m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::RepoConfig;

    #[test]
    fn median_helpers() {
        assert_eq!(median_u64(&mut []), 0);
        assert_eq!(median_u64(&mut [5]), 5);
        assert_eq!(median_u64(&mut [3, 1, 2]), 2);
        assert_eq!(median_u64(&mut [4, 1, 3, 2]), 3); // upper median
        assert_eq!(median_f64(&mut []), 0.0);
        assert_eq!(median_f64(&mut [2.0, 1.0, 3.0]), 2.0);
    }

    #[test]
    fn repo_stats_sanity() {
        let repo = Repository::generate(&RepoConfig::small_for_tests(20));
        let s = repo_stats(&repo);
        assert_eq!(s.package_count, repo.package_count());
        assert!(s.edge_count > 0);
        assert!(s.max_depth >= 2, "layered universe must have chains");
        assert!(s.max_fan_in > 5, "universal core must have high fan-in");
        assert!(s.mean_fan_out > 0.5);
        assert!(s.median_package_bytes > 0);
    }

    #[test]
    fn growth_curve_shape_matches_paper() {
        // Fig. 3's qualitative claims: image size well above selection
        // size for small selections; growth decelerates (sub-linear)
        // at larger selections.
        let repo = Repository::generate(&RepoConfig::small_for_tests(21));
        let rows = closure_growth(&repo, &[5, 20, 80], 20, 7);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.image_packages >= r.spec_size, "closure can't shrink");
            assert!(r.image_bytes >= r.selection_bytes);
        }
        // Expansion factor decreases with selection size (saturation).
        let f0 = rows[0].image_packages as f64 / rows[0].spec_size as f64;
        let f2 = rows[2].image_packages as f64 / rows[2].spec_size as f64;
        assert!(f0 > f2, "expansion must decelerate: {f0} vs {f2}");
        // Small selections expand noticeably.
        assert!(f0 >= 2.0, "small-selection expansion only {f0}x");
    }

    #[test]
    fn growth_is_deterministic() {
        let repo = Repository::generate(&RepoConfig::small_for_tests(22));
        let a = closure_growth(&repo, &[10], 10, 3);
        let b = closure_growth(&repo, &[10], 10, 3);
        assert_eq!(a[0].image_packages, b[0].image_packages);
        assert_eq!(a[0].image_bytes, b[0].image_bytes);
    }
}

#[cfg(test)]
mod calibration {
    use super::*;
    use crate::generator::RepoConfig;

    /// Paper-scale calibration, run explicitly:
    /// `cargo test -p landlord-repo --release -- --ignored calibration`
    #[test]
    #[ignore = "paper-scale; run in release"]
    fn sft_like_matches_fig3() {
        let repo = Repository::generate(&RepoConfig::sft_like(1));
        eprintln!(
            "packages={} edges={} total={:.1} GB",
            repo.package_count(),
            repo.graph().edge_count(),
            repo.total_bytes() as f64 / 1e9
        );
        let rows = closure_growth(&repo, &[10, 50, 100, 300, 600, 1000], 20, 5);
        for r in &rows {
            eprintln!(
                "spec={:4} -> img_pkgs={:5} ({:4.1}x) sel={:6.1} GB img={:6.1} GB",
                r.spec_size,
                r.image_packages,
                r.image_packages as f64 / r.spec_size as f64,
                r.selection_bytes as f64 / 1e9,
                r.image_bytes as f64 / 1e9,
            );
        }
        // Fig. 3 anchors: ~5x expansion below 100 packages; saturating
        // growth after; image at 1000 well below the full repo.
        let at100 = rows.iter().find(|r| r.spec_size == 100).unwrap();
        let f100 = at100.image_packages as f64 / 100.0;
        assert!((3.0..=9.0).contains(&f100), "100-pkg expansion {f100}x");
        let at1000 = rows.iter().find(|r| r.spec_size == 1000).unwrap();
        let f1000 = at1000.image_packages as f64 / 1000.0;
        assert!(f1000 < f100, "expansion must decelerate");
        assert!(
            at1000.image_packages < repo.package_count() / 2,
            "1000-pkg image {} too close to the whole repo",
            at1000.image_packages
        );
    }
}

/// A log-scale histogram over non-negative integer observations:
/// bucket `k` counts values in `[2^k, 2^(k+1))` (bucket 0 counts 0 and 1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let bucket = if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `(lower_bound, count)` per non-empty bucket, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (if k == 0 { 0 } else { 1u64 << k }, c))
            .collect()
    }
}

/// Fan-in histogram: how many packages are depended upon by 0, 1, 2–3,
/// 4–7, … other packages. Real package ecosystems are heavy-tailed
/// ("a number of core components are transitive dependencies of a
/// large number of packages"); this quantifies our generator's tail.
pub fn fan_in_histogram(repo: &Repository) -> LogHistogram {
    let mut hist = LogHistogram::new();
    for fan_in in repo.graph().fan_in() {
        hist.record(u64::from(fan_in));
    }
    hist
}

/// Dependency-depth histogram (longest chain below each package).
pub fn depth_histogram(repo: &Repository) -> LogHistogram {
    // Cyclic graphs (impossible for generated repos) yield an empty
    // histogram rather than a panic.
    let depths = repo.graph().depths().unwrap_or_default();
    let mut hist = LogHistogram::new();
    for d in depths {
        hist.record(d as u64);
    }
    hist
}

/// The `n` most depended-upon packages, as `(id, fan_in)` descending.
pub fn top_fan_in(repo: &Repository, n: usize) -> Vec<(landlord_core::spec::PackageId, usize)> {
    let mut all: Vec<(landlord_core::spec::PackageId, usize)> = (0u32..)
        .zip(repo.graph().fan_in())
        .map(|(i, fan_in)| (landlord_core::spec::PackageId(i), fan_in as usize))
        .collect();
    all.sort_by_key(|&(p, fan_in)| (std::cmp::Reverse(fan_in), p));
    all.truncate(n);
    all
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use crate::generator::RepoConfig;

    #[test]
    fn log_histogram_bucketing() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1000);
        let buckets = h.buckets();
        // Bucket 0 (values 0..=1): two entries; bucket at 2: {2,3}; at 4:
        // {4,7}; at 8: {8}; one deep bucket for 1000.
        assert_eq!(buckets[0], (0, 2));
        assert_eq!(buckets[1], (2, 2));
        assert_eq!(buckets[2], (4, 2));
        assert_eq!(buckets[3], (8, 1));
        assert_eq!(buckets.last().unwrap().1, 1);
        assert!(buckets.last().unwrap().0 <= 1000);
    }

    #[test]
    fn fan_in_is_heavy_tailed() {
        let repo = Repository::generate(&RepoConfig::small_for_tests(64));
        let hist = fan_in_histogram(&repo);
        assert_eq!(hist.count() as usize, repo.package_count());
        // The universal core produces a far-right outlier bucket.
        assert!(hist.max() > 20, "max fan-in only {}", hist.max());
        let buckets = hist.buckets();
        // Most packages sit in the low buckets.
        let low: u64 = buckets
            .iter()
            .filter(|(lb, _)| *lb <= 2)
            .map(|(_, c)| c)
            .sum();
        assert!(
            low * 2 > hist.count(),
            "fan-in not concentrated at the low end"
        );
    }

    #[test]
    fn top_fan_in_finds_the_core() {
        let repo = Repository::generate(&RepoConfig::small_for_tests(64));
        let top = top_fan_in(&repo, 5);
        assert_eq!(top.len(), 5);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1), "descending order");
        // The most-depended-upon package is universal core (layer 0).
        // (Preferential attachment legitimately lifts some libraries
        // into the top-5 on small universes, so only the leader is a
        // structural guarantee.)
        assert_eq!(
            repo.meta(top[0].0).layer,
            0,
            "top package must be base layer"
        );
    }

    #[test]
    fn depth_histogram_spans_layers() {
        let repo = Repository::generate(&RepoConfig::small_for_tests(64));
        let hist = depth_histogram(&repo);
        assert_eq!(hist.count() as usize, repo.package_count());
        assert!(hist.max() >= 2, "layered universe must have chains");
    }
}
