//! MinHash/LSH merge-candidate pre-filtering as a driver over the
//! engine: the paper's constant-time approximation for very large
//! specification collections (§V), run by the `ablation-candidates`
//! experiment.
//!
//! [`LshCache`] keeps, beside an [`ImageCache`], the MinHash signature
//! of every resident image in a banded [`LshIndex`]. A request that no
//! image satisfies is planned by [`plan_over`] over only the resident
//! images the index proposes, and the engine applies the plan. Every
//! proposal is confirmed with the exact distance, so LSH can miss a
//! merge the engine's exact count would find but never make one it
//! would reject.
//!
//! The index mirrors the cache after every mutation: the signatures of
//! images no longer resident are dropped (image ids are never reused),
//! a merged image's signature absorbs the request's, and every other
//! resident image without one — a fresh insert or a split piece — is
//! hashed.

use crate::minhash::{LshIndex, LshShape, MinHasher, Signature};
use landlord_core::cache::{plan_over, CacheConfig, CacheStats, ImageCache, Plan, PlannedOp};
use landlord_core::conflict::NoConflicts;
use landlord_core::image::ImageId;
use landlord_core::metrics::ContainerEfficiency;
use landlord_core::policy::{CachePolicy, PlannedBuild, Served, ServedOp};
use landlord_core::sizes::SizeModel;
use landlord_core::spec::Spec;
use landlord_core::util::FxHashMap;
use landlord_obs::MetricsRegistry;
use std::sync::Arc;

/// The seed of the MinHash hash family.
const MINHASH_SEED: u64 = 0x1a4d_10bd_2020_0048;

/// An [`ImageCache`] whose merge candidates come from a MinHash/LSH
/// index (CVMFS no-conflict semantics).
pub struct LshCache {
    cache: ImageCache,
    sizes: Arc<dyn SizeModel>,
    hasher: MinHasher,
    index: LshIndex,
    /// The signature of each resident image, by image id.
    signatures: FxHashMap<u64, Signature>,
}

impl LshCache {
    /// A cache built from `config`, indexing `bands × rows` MinHash
    /// slots per image.
    pub fn new(config: CacheConfig, sizes: Arc<dyn SizeModel>, shape: LshShape) -> Self {
        LshCache {
            cache: ImageCache::new(config, Arc::clone(&sizes)),
            sizes,
            hasher: MinHasher::new(shape.bands * shape.rows, MINHASH_SEED),
            index: LshIndex::new(shape),
            signatures: FxHashMap::default(),
        }
    }

    /// Decide what serving `spec` would do, on a settled cache: the
    /// engine's hit, else Algorithm 1 over the index's proposals.
    pub fn plan(&self, spec: &Spec) -> Plan {
        let op = match self.cache.find_satisfying(spec) {
            Some(img) => PlannedOp::Hit { image: img.id },
            None => {
                let config = self.cache.config();
                let proposals: Vec<(u64, &Spec, u64)> = self
                    .index
                    .candidates(&self.hasher.signature(spec))
                    .into_iter()
                    .filter_map(|id| self.cache.get(ImageId(id)))
                    .map(|img| (img.id.0, &img.spec, img.bytes))
                    .collect();
                plan_over(
                    &proposals,
                    spec,
                    config.alpha,
                    config.merge_order,
                    config.metric,
                    self.sizes.as_ref(),
                    &NoConflicts,
                )
            }
        };
        Plan {
            op,
            requested_bytes: self.sizes.spec_bytes(spec),
        }
    }

    /// Bring the index in line with the cache; `merged` is the image
    /// that just absorbed a request, with the request.
    fn sync(&mut self, merged: Option<(u64, &Spec)>) {
        let cache = &self.cache;
        let gone: Vec<u64> = self
            .signatures
            .keys()
            .copied()
            .filter(|&id| cache.get(ImageId(id)).is_none())
            .collect();
        for id in gone {
            self.index.remove(id);
            self.signatures.remove(&id);
        }
        // The MinHash of a union is the slot-wise minimum of its
        // parts', so a merged image is never rehashed.
        if let Some((id, request)) = merged {
            if let Some(old) = self.signatures.get(&id) {
                let sig = old.union(&self.hasher.signature(request));
                self.index.insert(id, &sig);
                self.signatures.insert(id, sig);
            }
        }
        for img in cache.images() {
            if !self.signatures.contains_key(&img.id.0) {
                let sig = self.hasher.signature(&img.spec);
                self.index.insert(img.id.0, &sig);
                self.signatures.insert(img.id.0, sig);
            }
        }
    }

    /// Mirror the cache after serving `spec` as `served`.
    fn sync_served(&mut self, spec: &Spec, served: Served) -> Served {
        let merged = (served.op == ServedOp::Merged).then_some((served.image, spec));
        self.sync(merged);
        served
    }
}

impl CachePolicy for LshCache {
    fn name(&self) -> &'static str {
        "landlord-lsh"
    }

    fn settle(&mut self) {
        self.cache.settle();
        self.sync(None);
    }

    fn request(&mut self, spec: &Spec) -> Served {
        CachePolicy::settle(self);
        let planned = self.plan_build(spec);
        self.apply_build(spec, &planned)
    }

    fn insert_fresh(&mut self, spec: &Spec) -> Served {
        let served = CachePolicy::insert_fresh(&mut self.cache, spec);
        self.sync_served(spec, served)
    }

    fn plan_build(&self, spec: &Spec) -> PlannedBuild {
        self.cache.build_for(spec, self.plan(spec))
    }

    fn apply_build(&mut self, spec: &Spec, planned: &PlannedBuild) -> Served {
        let served = self.cache.apply_build(spec, planned);
        self.sync_served(spec, served)
    }

    fn spec_bytes(&self, spec: &Spec) -> u64 {
        self.sizes.spec_bytes(spec)
    }

    fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn container_efficiency_pct(&self) -> f64 {
        self.cache.container_efficiency_pct()
    }

    fn container_eff(&self) -> ContainerEfficiency {
        self.cache.container_eff()
    }

    fn len(&self) -> usize {
        self.cache.len()
    }

    fn limit_bytes(&self) -> u64 {
        self.cache.config().limit_bytes
    }

    /// The engine's invariants, then the index's: it holds exactly the
    /// resident images, each under a signature equal to a fresh hash of
    /// its spec, and each image is its own candidate.
    fn check_invariants(&self) {
        self.cache.check_invariants();
        assert_eq!(self.index.len(), self.cache.len(), "lsh key count");
        assert_eq!(self.signatures.len(), self.cache.len(), "signature count");
        for img in self.cache.images() {
            let fresh = self.hasher.signature(&img.spec);
            assert_eq!(
                self.signatures.get(&img.id.0),
                Some(&fresh),
                "stale or missing signature for image {}",
                img.id
            );
            assert!(
                self.index.candidates(&fresh).contains(&img.id.0),
                "image {} is not its own lsh candidate",
                img.id
            );
        }
    }

    fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.cache.attach_metrics(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use landlord_core::sizes::UniformSizes;
    use landlord_core::spec::PackageId;
    use proptest::prelude::*;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    fn lsh(alpha: f64, limit_bytes: u64) -> LshCache {
        let config = CacheConfig {
            alpha,
            limit_bytes,
            ..CacheConfig::default()
        };
        let shape = LshShape { bands: 32, rows: 4 };
        LshCache::new(config, Arc::new(UniformSizes::new(1)), shape)
    }

    #[test]
    fn minhash_lsh_strategy_still_merges_near_pairs() {
        let mut c = lsh(0.8, u64::MAX);
        let base: Vec<u32> = (0..100).collect();
        c.request(&spec(&base));
        let mut close = base.clone();
        close[0] = 1000; // 99/101 similar
        let out = c.request(&spec(&close));
        assert_eq!(out.op, ServedOp::Merged, "LSH must find near-duplicates");
        c.check_invariants();
    }

    #[test]
    fn minhash_lsh_never_merges_what_exact_rejects() {
        let mut c = lsh(0.3, u64::MAX);
        c.request(&spec(&[1, 2, 3, 4]));
        // Exact distance 0.6 ≥ 0.3 → must insert even if LSH proposes it.
        let out = c.request(&spec(&[1, 2, 9, 10]));
        assert_eq!(out.op, ServedOp::Inserted);
        c.check_invariants();
    }

    #[test]
    fn lsh_finds_near_duplicates_and_forgets_removed_keys() {
        let mut c = lsh(0.8, u64::MAX);
        let base: Vec<u32> = (0..100).collect();
        let first = c.request(&spec(&base)).image;
        let mut close = base.clone();
        close[0] = 1000;
        let close = spec(&close);
        assert!(matches!(
            c.plan(&close).op,
            PlannedOp::Merge { image, .. } if image.0 == first
        ));
        // Once removed, the first image is no candidate.
        c.cache.remove_image(ImageId(first));
        c.sync(None);
        assert!(c.signatures.is_empty() && c.index.is_empty());
        assert_eq!(c.plan(&close).op, PlannedOp::Insert);
        c.check_invariants();
    }

    #[test]
    fn merge_unions_signatures() {
        let mut c = lsh(0.9, u64::MAX);
        let a: Vec<u32> = (0..60).collect();
        let b: Vec<u32> = (10..70).collect();
        let id = c.request(&spec(&a)).image;
        assert_eq!(c.request(&spec(&b)).op, ServedOp::Merged);
        // The merged signature equals a fresh hash of the union.
        let union: Vec<u32> = (0..70).collect();
        let fresh = c.hasher.signature(&spec(&union));
        assert_eq!(c.signatures.get(&id), Some(&fresh));
    }

    /// Splits, evictions and degraded inserts keep the index equal to a
    /// fresh hash of the resident images, and every plan is
    /// `plan_over`'s over the index's proposals.
    #[test]
    fn index_tracks_splits_and_evictions() {
        let config = CacheConfig {
            alpha: 0.9,
            limit_bytes: 40,
            split_threshold: Some(3),
            ..CacheConfig::default()
        };
        let shape = LshShape { bands: 8, rows: 2 };
        let mut c = LshCache::new(config, Arc::new(UniformSizes::new(1)), shape);
        for i in 0..60u32 {
            let s = spec(&[i % 7, i % 5 + 7, i % 3 + 12, i % 11 + 15]);
            if i % 9 == 0 {
                c.insert_fresh(&s);
            } else {
                c.request(&s);
            }
            c.check_invariants();
        }
        assert!(c.stats().splits > 0 && c.stats().deletes > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// LSH only drops candidates: the request is never merged into
        /// an image farther than α, and the index stays in step.
        #[test]
        fn lsh_merges_only_within_alpha(
            alpha in 0.0f64..=1.0,
            limit in 4u64..80,
            stream in proptest::collection::vec(
                proptest::collection::vec(0u32..60, 1..12).prop_map(|v| spec(&v)),
                1..40,
            ),
        ) {
            let mut c = lsh(alpha, limit);
            for s in &stream {
                CachePolicy::settle(&mut c);
                if let PlannedOp::Merge { image, distance } = c.plan(s).op {
                    let img = c.cache.get(image).expect("resident");
                    let exact = landlord_core::jaccard::jaccard_distance(s, &img.spec);
                    prop_assert!(distance < alpha);
                    prop_assert_eq!(distance.to_bits(), exact.to_bits());
                }
                c.request(s);
            }
            c.check_invariants();
        }
    }
}
