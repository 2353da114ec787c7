//! The no-merge baseline: one image per distinct requirement set.
//!
//! "Simply caching requests with no merging, can also be viable. …
//! At large scale, however, the overall system efficiency suffers"
//! (§VI, Limits on Cache Utilization). This is an independent
//! implementation of that strategy — deliberately *not* built on
//! [`landlord_core::cache::ImageCache`] — so the integration tests can
//! cross-validate that LANDLORD at α = 0 degenerates to exactly this
//! behavior. Accounting lives in the shared
//! [`landlord_core::cache::Ledger`]; only the LRU mechanics are local.

use landlord_core::cache::{CacheStats, Ledger, PackageRefs};
use landlord_core::metrics::ContainerEfficiency;
use landlord_core::policy::{BuildPlan, CachePolicy, PlannedBuild, Served, ServedOp};
use landlord_core::sizes::SizeModel;
use landlord_core::spec::Spec;
use landlord_obs::{Counter, Histogram, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::Arc;

/// Pre-resolved handles for the baseline's own metrics, so sweeps that
/// compare policies under one registry see the baseline's behaviour
/// next to LANDLORD's `core.*` series.
struct PerJobObs {
    evictions: Arc<Counter>,
    hit_scan: Arc<Histogram>,
}

/// A byte-bounded LRU image cache without merging.
pub struct PerJobCache {
    limit_bytes: u64,
    sizes: Arc<dyn SizeModel>,
    /// Front = least recently used.
    images: VecDeque<(u64, Spec, u64)>,
    next_id: u64,
    refcounts: PackageRefs,
    ledger: Ledger,
    obs: Option<PerJobObs>,
}

impl PerJobCache {
    /// Create with a byte limit and size model.
    pub fn new(limit_bytes: u64, sizes: Arc<dyn SizeModel>) -> Self {
        PerJobCache {
            limit_bytes,
            sizes,
            images: VecDeque::new(),
            next_id: 0,
            refcounts: PackageRefs::new(),
            ledger: Ledger::new(),
            obs: None,
        }
    }

    /// Index of the smallest satisfying image, if any (pure).
    fn find_hit(&self, spec: &Spec) -> Option<usize> {
        self.images
            .iter()
            .enumerate()
            .filter(|(_, (_, cached, _))| spec.is_subset(cached))
            .min_by_key(|(_, (_, _, bytes))| *bytes)
            .map(|(i, _)| i)
    }
}

impl CachePolicy for PerJobCache {
    fn name(&self) -> &'static str {
        "per-job"
    }

    /// Reuse the smallest satisfying image or insert a fresh one, then
    /// evict LRU down to the byte limit (never the image just inserted).
    fn request(&mut self, spec: &Spec) -> Served {
        let requested = self.sizes.spec_bytes(spec);
        self.ledger.begin_request(requested);

        if let Some(obs) = &self.obs {
            obs.hit_scan.record(self.images.len() as u64);
        }
        if let Some(i) = self.find_hit(spec) {
            let (id, cached, bytes) = self.images.remove(i).expect("index valid");
            self.ledger.serve(requested, bytes);
            self.ledger.count_hit();
            self.images.push_back((id, cached, bytes)); // most recently used
            return Served {
                op: ServedOp::Hit,
                image: id,
                image_bytes: bytes,
                revision: 0,
            };
        }

        self.ledger.serve(requested, requested);
        self.ledger.count_insert();
        self.ledger.write(requested);
        self.ledger.admit(requested);
        self.refcounts
            .add_spec(spec, self.sizes.as_ref(), &mut self.ledger);
        let id = self.next_id;
        self.next_id += 1;
        self.images.push_back((id, spec.clone(), requested));
        while self.ledger.stats().total_bytes > self.limit_bytes && self.images.len() > 1 {
            let (_, victim, freed) = self.images.pop_front().expect("len > 1");
            self.ledger.drop_image(freed);
            self.ledger.count_delete();
            self.refcounts
                .release_spec(&victim, self.sizes.as_ref(), &mut self.ledger);
            if let Some(obs) = &self.obs {
                obs.evictions.inc();
            }
        }
        Served {
            op: ServedOp::Inserted,
            image: id,
            image_bytes: requested,
            revision: 0,
        }
    }

    fn plan_build(&self, spec: &Spec) -> PlannedBuild {
        match self.find_hit(spec) {
            Some(_) => BuildPlan::Hit,
            None => BuildPlan::Insert {
                bytes: self.sizes.spec_bytes(spec),
            },
        }
        .into()
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
        self.images.len()
    }

    fn limit_bytes(&self) -> u64 {
        self.limit_bytes
    }

    /// Assert internal bookkeeping consistency; panics on violation.
    /// Mirrors `ImageCache::check_invariants` so baseline tests get the
    /// same paranoid treatment.
    fn check_invariants(&self) {
        let s = self.ledger.stats();
        let sum: u64 = self.images.iter().map(|(_, _, b)| *b).sum();
        assert_eq!(s.total_bytes, sum, "total_bytes tracks cached images");
        assert_eq!(s.image_count, self.images.len() as u64);
        assert!(
            s.total_bytes <= self.limit_bytes || self.images.len() == 1,
            "over the byte limit with more than one image"
        );
        assert_eq!(
            s.requests,
            s.hits + s.inserts,
            "every request either hits or inserts"
        );
        let mut all = Spec::empty();
        for (_, spec, bytes) in &self.images {
            assert_eq!(
                *bytes,
                self.sizes.spec_bytes(spec),
                "image size matches the size model"
            );
            all = all.union(spec);
        }
        assert_eq!(
            s.unique_bytes,
            self.sizes.spec_bytes(&all),
            "refcounted unique bytes match a fresh scan"
        );
    }

    fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.obs = Some(PerJobObs {
            evictions: registry.counter("perjob.evictions"),
            hit_scan: registry.histogram("perjob.hit_scan"),
        });
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

    fn cache(limit: u64) -> PerJobCache {
        PerJobCache::new(limit, Arc::new(UniformSizes::new(1)))
    }

    fn hit(c: &mut PerJobCache, ids: &[u32]) -> bool {
        c.request(&spec(ids)).op == ServedOp::Hit
    }

    #[test]
    fn insert_then_hit() {
        let mut c = cache(100);
        assert!(!hit(&mut c, &[1, 2]));
        assert!(hit(&mut c, &[1, 2]));
        assert!(hit(&mut c, &[1]), "subset should hit");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().inserts, 1);
        assert_eq!(c.len(), 1);
        c.check_invariants();
    }

    #[test]
    fn never_merges() {
        let mut c = cache(100);
        c.request(&spec(&[1, 2, 3]));
        c.request(&spec(&[1, 2, 4]));
        assert_eq!(c.len(), 2, "close specs stay separate images");
        assert_eq!(c.stats().unique_bytes, 4); // {1,2,3,4}
        assert_eq!(c.stats().total_bytes, 6);
        c.check_invariants();
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(6);
        c.request(&spec(&[1, 2, 3])); // A
        c.request(&spec(&[4, 5, 6])); // B
        c.request(&spec(&[1, 2, 3])); // touch A
        c.request(&spec(&[7, 8, 9])); // evicts B
        assert!(hit(&mut c, &[1, 2, 3]), "A must have survived");
        assert_eq!(c.stats().deletes, 1);
        c.check_invariants();
    }

    #[test]
    fn container_efficiency_stays_perfect_without_supersets() {
        let mut c = cache(1000);
        c.request(&spec(&[1, 2]));
        c.request(&spec(&[3, 4, 5]));
        c.request(&spec(&[1, 2]));
        assert_eq!(c.container_efficiency_pct(), 100.0);
        c.check_invariants();
    }

    #[test]
    fn oversized_request_is_kept_alone() {
        let mut c = cache(2);
        c.request(&spec(&[1, 2, 3, 4]));
        assert_eq!(c.len(), 1);
        assert!(c.stats().total_bytes > 2);
        c.check_invariants();
    }

    #[test]
    fn requested_bytes_accumulate() {
        let mut c = cache(100);
        c.request(&spec(&[1, 2]));
        c.request(&spec(&[1, 2]));
        assert_eq!(c.stats().bytes_requested, 4);
        assert_eq!(c.stats().bytes_written, 2, "hit writes nothing");
        c.check_invariants();
    }

    #[test]
    fn attached_metrics_track_evictions_and_scans() {
        use landlord_obs::LogicalClock;

        let mut c = cache(6);
        let reg = MetricsRegistry::new(Arc::new(LogicalClock::new()));
        c.attach_metrics(&reg);
        c.request(&spec(&[1, 2, 3]));
        c.request(&spec(&[4, 5, 6]));
        c.request(&spec(&[7, 8, 9])); // evicts the LRU image
        let snap = reg.snapshot();
        assert_eq!(snap.counters["perjob.evictions"], c.stats().deletes);
        assert_eq!(snap.histograms["perjob.hit_scan"].count, 3);
        c.check_invariants();
    }

    #[test]
    fn plan_build_predicts_request() {
        let mut c = cache(100);
        assert_eq!(
            c.plan_build(&spec(&[1, 2])).build,
            BuildPlan::Insert { bytes: 2 }
        );
        c.request(&spec(&[1, 2]));
        assert_eq!(c.plan_build(&spec(&[1])).build, BuildPlan::Hit);
        assert_eq!(
            c.plan_build(&spec(&[3])).build,
            BuildPlan::Insert { bytes: 1 }
        );
        c.check_invariants();
    }
}
