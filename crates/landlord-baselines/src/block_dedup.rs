//! Post-hoc block deduplication across a collection of images.
//!
//! §III, "Imperfect Solution: Block Deduplication": "It is not
//! difficult to identify duplicated files or blocks within container
//! images. However, we lack a means to combine the extraneous copies;
//! each container image by design contains complete copies of all
//! data." This module quantifies the *identifiable* duplication across
//! a set of image specs — the savings a privileged, dedup-capable
//! filesystem would get, and exactly the storage a guest user is stuck
//! paying for. [`DedupStore`] turns the same model into a drivable
//! [`CachePolicy`]: exact-match reuse, unbounded storage, and a
//! unique-bytes counter showing what dedup *could* reclaim.

use landlord_core::cache::{CacheStats, Ledger, PackageRefs};
use landlord_core::metrics::ContainerEfficiency;
use landlord_core::policy::{BuildPlan, CachePolicy, PlannedBuild, Served, ServedOp};
use landlord_core::sizes::SizeModel;
use landlord_core::spec::{PackageId, Spec};
use landlord_store::dedup::DedupReport;
use std::collections::HashMap;
use std::sync::Arc;

/// Package-granularity dedup across image specs: logical bytes stored
/// vs bytes if every distinct package were stored once.
pub fn package_dedup(images: &[Spec], sizes: &dyn SizeModel) -> DedupReport {
    let mut seen: HashMap<PackageId, ()> = HashMap::new();
    let mut total_bytes = 0u64;
    let mut unique_bytes = 0u64;
    let mut total_units = 0u64;
    for spec in images {
        for p in spec.iter() {
            total_units += 1;
            let b = sizes.package_size(p);
            total_bytes += b;
            if seen.insert(p, ()).is_none() {
                unique_bytes += b;
            }
        }
    }
    DedupReport {
        total_bytes,
        unique_bytes,
        total_units,
        unique_units: seen.len() as u64,
    }
}

/// The reclaimable fraction (1 − unique/total) in percent — what a
/// block-dedup filesystem would save, and what image-level isolation
/// forfeits.
pub fn reclaimable_pct(report: &DedupReport) -> f64 {
    100.0 - report.efficiency_pct()
}

/// An unbounded store of complete images with exact-match reuse only —
/// the strategy a dedup-capable registry enables: never rebuild an
/// image you already have, but never share bytes across images either.
/// Its `cache_efficiency_pct` (unique/total) is precisely the
/// duplication a block-dedup filesystem could collapse.
pub struct DedupStore {
    sizes: Arc<dyn SizeModel>,
    /// Exact spec → (image id, bytes).
    images: HashMap<Spec, (u64, u64)>,
    refcounts: PackageRefs,
    next_id: u64,
    ledger: Ledger,
}

impl DedupStore {
    /// An empty store.
    pub fn new(sizes: Arc<dyn SizeModel>) -> Self {
        DedupStore {
            sizes,
            images: HashMap::new(),
            refcounts: PackageRefs::new(),
            next_id: 0,
            ledger: Ledger::new(),
        }
    }
}

impl CachePolicy for DedupStore {
    fn name(&self) -> &'static str {
        "block-dedup"
    }

    fn request(&mut self, spec: &Spec) -> Served {
        let requested = self.sizes.spec_bytes(spec);
        self.ledger.begin_request(requested);
        self.ledger.serve(requested, requested);
        if let Some(&(id, bytes)) = self.images.get(spec) {
            self.ledger.count_hit();
            return Served {
                op: ServedOp::Hit,
                image: id,
                image_bytes: bytes,
                revision: 0,
            };
        }
        self.ledger.count_insert();
        self.ledger.write(requested);
        self.ledger.admit(requested);
        self.refcounts
            .add_spec(spec, self.sizes.as_ref(), &mut self.ledger);
        let id = self.next_id;
        self.next_id += 1;
        self.images.insert(spec.clone(), (id, requested));
        Served {
            op: ServedOp::Inserted,
            image: id,
            image_bytes: requested,
            revision: 0,
        }
    }

    fn plan_build(&self, spec: &Spec) -> PlannedBuild {
        if self.images.contains_key(spec) {
            BuildPlan::Hit.into()
        } else {
            BuildPlan::Insert {
                bytes: self.sizes.spec_bytes(spec),
            }
            .into()
        }
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
        u64::MAX
    }

    fn check_invariants(&self) {
        let s = self.ledger.stats();
        assert_eq!(s.requests, s.hits + s.inserts);
        assert_eq!(s.image_count, self.images.len() as u64);
        let specs: Vec<Spec> = self.images.keys().cloned().collect();
        let report = package_dedup(&specs, self.sizes.as_ref());
        assert_eq!(s.total_bytes, report.total_bytes);
        assert_eq!(
            s.unique_bytes, report.unique_bytes,
            "refcounted unique bytes match the dedup scan"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use landlord_core::sizes::UniformSizes;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    #[test]
    fn disjoint_images_have_no_duplication() {
        let images = [spec(&[1, 2]), spec(&[3, 4])];
        let r = package_dedup(&images, &UniformSizes::new(10));
        assert_eq!(r.total_bytes, 40);
        assert_eq!(r.unique_bytes, 40);
        assert_eq!(reclaimable_pct(&r), 0.0);
    }

    #[test]
    fn identical_images_dedup_to_one() {
        let images = [spec(&[1, 2, 3]), spec(&[1, 2, 3]), spec(&[1, 2, 3])];
        let r = package_dedup(&images, &UniformSizes::new(5));
        assert_eq!(r.total_bytes, 45);
        assert_eq!(r.unique_bytes, 15);
        assert!((r.dedup_ratio() - 3.0).abs() < 1e-12);
        assert!((reclaimable_pct(&r) - 66.6667).abs() < 0.01);
    }

    #[test]
    fn partial_overlap() {
        let images = [spec(&[1, 2]), spec(&[2, 3])];
        let r = package_dedup(&images, &UniformSizes::new(1));
        assert_eq!(r.total_units, 4);
        assert_eq!(r.unique_units, 3);
        assert_eq!(r.unique_bytes, 3);
    }

    #[test]
    fn empty_collection() {
        let r = package_dedup(&[], &UniformSizes::new(1));
        assert_eq!(r.total_bytes, 0);
        assert_eq!(reclaimable_pct(&r), 0.0);
    }

    #[test]
    fn store_reuses_exact_matches_only() {
        let mut s = DedupStore::new(Arc::new(UniformSizes::new(1)));
        assert_eq!(s.request(&spec(&[1, 2, 3])).op, ServedOp::Inserted);
        assert_eq!(s.request(&spec(&[1, 2, 3])).op, ServedOp::Hit);
        // Unlike per-job, a subset does NOT hit: dedup has no notion of
        // serving from a superset image.
        assert_eq!(s.request(&spec(&[1, 2])).op, ServedOp::Inserted);
        assert_eq!(s.len(), 2);
        let st = s.stats();
        assert_eq!((st.hits, st.inserts), (1, 2));
        assert_eq!(st.total_bytes, 5, "both images stored in full");
        assert_eq!(st.unique_bytes, 3, "dedup would collapse to {{1,2,3}}");
        assert_eq!(s.plan_build(&spec(&[1, 2])).build, BuildPlan::Hit);
        assert_eq!(
            s.plan_build(&spec(&[9])).build,
            BuildPlan::Insert { bytes: 1 }
        );
        s.check_invariants();
    }

    #[test]
    fn store_container_efficiency_is_perfect() {
        // Every image is exactly what the job asked for.
        let mut s = DedupStore::new(Arc::new(UniformSizes::new(2)));
        s.request(&spec(&[1, 2]));
        s.request(&spec(&[1, 2, 3]));
        s.request(&spec(&[1, 2]));
        assert_eq!(s.container_efficiency_pct(), 100.0);
        s.check_invariants();
    }
}
