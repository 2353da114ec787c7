//! Shared fixtures for the benchmark suite.
//!
//! Benchmarks operate on a mid-size deterministic universe — big enough
//! that set operations and closures have realistic shapes, small enough
//! that `cargo bench` completes in minutes.

use landlord_core::spec::{PackageId, Spec};
use landlord_repo::{RepoConfig, Repository};
use landlord_sim::workload::{self, WorkloadConfig, WorkloadScheme};

/// The benchmark universe: 2,000 packages, 50 GB.
pub fn bench_repo() -> Repository {
    Repository::generate(&RepoConfig {
        package_count: 2000,
        total_bytes: 50_000_000_000,
        ..RepoConfig::sft_like(0xbe9c)
    })
}

/// A universe shaped like the `hot_sharded` benchmark's: 4,000
/// packages, two universal core products attached with probability 0.3.
pub fn hot_repo() -> Repository {
    Repository::generate(&RepoConfig {
        package_count: 4000,
        universal_core_products: 2,
        core_attach_probability: 0.3,
        ..RepoConfig::sft_like(0xbe9c)
    })
}

/// A small job stream over the benchmark universe.
pub fn bench_stream(repo: &Repository, unique_jobs: usize, repeats: usize) -> Vec<Spec> {
    workload::generate_stream(
        repo,
        &WorkloadConfig {
            unique_jobs,
            repeats,
            max_initial_selection: 20,
            scheme: WorkloadScheme::DependencyClosure,
            seed: 0xbe9c,
        },
    )
}

/// Two overlapping specs of roughly `n` members each for set-op
/// micro-benchmarks (50% overlap).
pub fn overlapping_specs(n: u32) -> (Spec, Spec) {
    let a = Spec::from_ids((0..n).map(PackageId));
    let b = Spec::from_ids((n / 2..n + n / 2).map(PackageId));
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let r1 = bench_repo();
        let r2 = bench_repo();
        assert_eq!(r1.total_bytes(), r2.total_bytes());
        let s1 = bench_stream(&r1, 5, 2);
        let s2 = bench_stream(&r2, 5, 2);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 10);
    }

    #[test]
    fn overlap_is_half() {
        let (a, b) = overlapping_specs(100);
        assert_eq!(a.len(), 100);
        assert_eq!(b.len(), 100);
        assert_eq!(a.intersection_len(&b), 50);
    }
}
