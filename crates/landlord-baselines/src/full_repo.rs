//! The single all-purpose image baseline.
//!
//! §III, "Imperfect Solution: Full-repo Images": put the whole software
//! repository in one image. Every request hits, cache efficiency is a
//! perfect 100% (no duplication exists in one image) — and container
//! efficiency is abysmal because "a given job does not need all of the
//! repository simultaneously, so it is wasteful to transfer unneeded
//! data". Updates are brutal too: the paper cites ~24 hours to build
//! and scale a full-repo image onto NERSC nodes.

use landlord_core::cache::{CacheStats, Ledger};
use landlord_core::metrics::ContainerEfficiency;
use landlord_core::policy::{BuildPlan, CachePolicy, PlannedBuild, Served, ServedOp};
use landlord_core::sizes::SizeModel;
use landlord_core::spec::Spec;
use std::sync::Arc;

/// Serve every job from one image containing the entire repository.
/// `inserts` in the stats counts image (re)builds; everything else is
/// the shared [`Ledger`] bookkeeping.
pub struct FullRepoStrategy {
    sizes: Arc<dyn SizeModel>,
    repo_bytes: u64,
    ledger: Ledger,
}

impl FullRepoStrategy {
    /// Build the all-purpose image (counted as the initial write).
    pub fn new(sizes: Arc<dyn SizeModel>, repo_bytes: u64) -> Self {
        let mut ledger = Ledger::new();
        ledger.count_insert();
        ledger.write(repo_bytes);
        ledger.admit(repo_bytes);
        ledger.add_unique(repo_bytes);
        FullRepoStrategy {
            sizes,
            repo_bytes,
            ledger,
        }
    }

    /// A repository update forces a full image rebuild and re-transfer.
    pub fn rebuild(&mut self) {
        self.ledger.count_insert();
        self.ledger.write(self.repo_bytes);
    }

    /// The cache holds exactly the repository.
    pub fn total_bytes(&self) -> u64 {
        self.repo_bytes
    }
}

impl CachePolicy for FullRepoStrategy {
    fn name(&self) -> &'static str {
        "full-repo"
    }

    /// Serve a request; always a hit against the full image.
    fn request(&mut self, spec: &Spec) -> Served {
        let requested = self.sizes.spec_bytes(spec);
        self.ledger.begin_request(requested);
        self.ledger.serve(requested, self.repo_bytes.max(requested));
        self.ledger.count_hit();
        Served {
            op: ServedOp::Hit,
            image: 0,
            image_bytes: self.repo_bytes,
            // Each rebuild republishes the image under a new revision.
            revision: self.ledger.stats().inserts - 1,
        }
    }

    fn plan_build(&self, _spec: &Spec) -> PlannedBuild {
        BuildPlan::Hit.into()
    }

    fn spec_bytes(&self, spec: &Spec) -> u64 {
        self.sizes.spec_bytes(spec)
    }

    fn stats(&self) -> CacheStats {
        self.ledger.stats()
    }

    fn container_efficiency_pct(&self) -> f64 {
        self.ledger.container_efficiency_pct()
    }

    fn container_eff(&self) -> ContainerEfficiency {
        self.ledger.container_eff()
    }

    fn len(&self) -> usize {
        1
    }

    fn limit_bytes(&self) -> u64 {
        self.repo_bytes
    }

    fn check_invariants(&self) {
        let s = self.ledger.stats();
        assert_eq!(s.requests, s.hits, "every request hits the one image");
        assert_eq!(s.total_bytes, self.repo_bytes);
        assert_eq!(s.unique_bytes, self.repo_bytes);
        assert_eq!(s.image_count, 1);
        assert_eq!(s.bytes_written, s.inserts * self.repo_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use landlord_core::sizes::UniformSizes;
    use landlord_core::spec::PackageId;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    #[test]
    fn every_request_is_served() {
        let mut s = FullRepoStrategy::new(Arc::new(UniformSizes::new(1)), 1000);
        assert_eq!(s.request(&spec(&[1, 2, 3])).op, ServedOp::Hit);
        assert_eq!(s.request(&spec(&[500])).op, ServedOp::Hit);
        assert_eq!(s.stats().requests, 2);
        assert_eq!(s.cache_efficiency_pct(), 100.0);
        s.check_invariants();
    }

    #[test]
    fn container_efficiency_is_tiny() {
        let mut s = FullRepoStrategy::new(Arc::new(UniformSizes::new(1)), 1000);
        s.request(&spec(&[1, 2, 3])); // 3 of 1000 bytes used
        let eff = s.container_efficiency_pct();
        assert!((eff - 0.3).abs() < 1e-9, "got {eff}");
    }

    #[test]
    fn initial_build_counts_as_write() {
        let s = FullRepoStrategy::new(Arc::new(UniformSizes::new(1)), 777);
        assert_eq!(s.stats().bytes_written, 777);
        assert_eq!(s.stats().inserts, 1);
        assert_eq!(s.total_bytes(), 777);
        s.check_invariants();
    }

    #[test]
    fn rebuild_rewrites_everything() {
        let mut s = FullRepoStrategy::new(Arc::new(UniformSizes::new(1)), 500);
        s.rebuild();
        s.rebuild();
        assert_eq!(s.stats().bytes_written, 1500);
        assert_eq!(s.stats().inserts, 3);
        let before = s.request(&spec(&[1])).revision;
        s.rebuild();
        assert!(s.request(&spec(&[1])).revision > before);
        s.check_invariants();
    }
}
