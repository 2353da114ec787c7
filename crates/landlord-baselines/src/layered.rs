//! Docker-style additive layer chains — Fig. 1's "refining via layers".
//!
//! §III, "Imperfect Solution: Layering": layered images are built by
//! appending; "since changes to layered images are strictly additive,
//! old content can be masked but not removed", and functionally
//! equivalent layers reached through different histories are not
//! recognized as shareable. This module models exactly that: a
//! [`LayerChain`] is a sequence of add/mask steps over package sets;
//! storage cost is the sum of *all* layers, live or masked, while the
//! *effective* set is what the top of the chain exposes.

use landlord_core::cache::{CacheStats, Ledger};
use landlord_core::metrics::ContainerEfficiency;
use landlord_core::policy::{BuildPlan, CachePolicy, PlannedBuild, Served, ServedOp};
use landlord_core::sizes::SizeModel;
use landlord_core::spec::Spec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One layer: packages added, packages masked (hidden but still
/// stored — whiteouts in Docker terms).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Layer {
    /// Packages this layer adds.
    pub added: Spec,
    /// Packages this layer masks from view.
    pub masked: Spec,
    /// Stored bytes of this layer (the added packages).
    pub bytes: u64,
}

/// A linear chain of layers, refined over time to serve a sequence of
/// job requirements.
pub struct LayerChain {
    sizes: Arc<dyn SizeModel>,
    layers: Vec<Layer>,
    ledger: Ledger,
}

impl LayerChain {
    /// An empty chain.
    pub fn new(sizes: Arc<dyn SizeModel>) -> Self {
        LayerChain {
            sizes,
            layers: Vec::new(),
            ledger: Ledger::new(),
        }
    }

    /// Number of layers. (The [`CachePolicy`] view counts the chain as
    /// one image; this counts its history.)
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the chain has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers, bottom first.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The package set currently visible at the top of the chain.
    pub fn effective(&self) -> Spec {
        let mut visible = Spec::empty();
        for layer in &self.layers {
            visible = visible.difference(&layer.masked).union(&layer.added);
        }
        visible
    }

    /// Total stored bytes — *every* layer, masked content included.
    /// This is the quantity Fig. 1 shows ballooning: "although item C
    /// is hidden in the lower layer, it still exists in a previous
    /// layer and must be transferred and stored."
    pub fn stored_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.bytes).sum()
    }

    /// Bytes of the currently visible set only.
    pub fn effective_bytes(&self) -> u64 {
        self.sizes.spec_bytes(&self.effective())
    }

    /// Refine the chain so its top exposes exactly `requirements`:
    /// append one layer adding the missing packages and masking the
    /// now-unwanted ones. Returns the bytes added to storage.
    pub fn refine_to(&mut self, requirements: &Spec) -> u64 {
        let visible = self.effective();
        let added = requirements.difference(&visible);
        let masked = visible.difference(requirements);
        if added.is_empty() && masked.is_empty() {
            return 0; // already exact; Docker would reuse the tag
        }
        let bytes = self.sizes.spec_bytes(&added);
        self.layers.push(Layer {
            added,
            masked,
            bytes,
        });
        bytes
    }

    /// Storage wasted on masked (dead) content: stored minus visible
    /// bytes, counting duplicated adds too.
    pub fn dead_bytes(&self) -> u64 {
        self.stored_bytes().saturating_sub(self.effective_bytes())
    }
}

impl CachePolicy for LayerChain {
    fn name(&self) -> &'static str {
        "layered"
    }

    /// Serve a request by refining the chain to it. An exact top-of-
    /// chain match is a hit (tag reuse); anything else appends a layer
    /// and counts as a merge — the whole chain must be transferred, so
    /// container efficiency is requested over *stored* bytes.
    fn request(&mut self, spec: &Spec) -> Served {
        let requested = self.sizes.spec_bytes(spec);
        self.ledger.begin_request(requested);
        let before = self.layers.len();
        let added = self.refine_to(spec);
        if self.layers.len() == before {
            self.ledger.count_hit();
        } else {
            self.ledger.count_merge();
            self.ledger.write(added);
        }
        let stored = self.stored_bytes();
        self.ledger.serve(requested, stored.max(requested));
        Served {
            op: if self.layers.len() == before {
                ServedOp::Hit
            } else {
                ServedOp::Merged
            },
            image: 0,
            image_bytes: stored,
            revision: self.layers.len() as u64,
        }
    }

    fn plan_build(&self, spec: &Spec) -> PlannedBuild {
        let visible = self.effective();
        let added = spec.difference(&visible);
        let masked = visible.difference(spec);
        if added.is_empty() && masked.is_empty() {
            BuildPlan::Hit.into()
        } else {
            // Appending rewrites the shared chain's top.
            BuildPlan::Rewrite {
                bytes: self.sizes.spec_bytes(&added),
            }
            .into()
        }
    }

    fn spec_bytes(&self, spec: &Spec) -> u64 {
        self.sizes.spec_bytes(spec)
    }

    /// Chain totals override the ledger's current-state fields: total
    /// is all stored layers, unique is the visible set, and the chain
    /// is one image.
    fn stats(&self) -> CacheStats {
        CacheStats {
            total_bytes: self.stored_bytes(),
            unique_bytes: self.effective_bytes(),
            image_count: if self.layers.is_empty() { 0 } else { 1 },
            ..self.ledger.stats()
        }
    }

    fn container_efficiency_pct(&self) -> f64 {
        self.ledger.container_efficiency_pct()
    }

    fn container_eff(&self) -> ContainerEfficiency {
        self.ledger.container_eff()
    }

    fn len(&self) -> usize {
        usize::from(!self.layers.is_empty())
    }

    fn limit_bytes(&self) -> u64 {
        u64::MAX
    }

    fn check_invariants(&self) {
        let s = self.stats();
        assert_eq!(
            s.requests,
            s.hits + s.merges,
            "every request hits or refines"
        );
        assert_eq!(
            s.total_bytes,
            self.layers.iter().map(|l| l.bytes).sum::<u64>()
        );
        assert!(
            s.unique_bytes <= s.total_bytes,
            "visible set never exceeds stored layers"
        );
        for layer in &self.layers {
            assert_eq!(layer.bytes, self.sizes.spec_bytes(&layer.added));
        }
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

    fn chain() -> LayerChain {
        LayerChain::new(Arc::new(UniformSizes::new(1)))
    }

    #[test]
    fn single_refinement_adds_everything() {
        let mut c = chain();
        let added = c.refine_to(&spec(&[1, 2, 3]));
        assert_eq!(added, 3);
        assert_eq!(c.effective(), spec(&[1, 2, 3]));
        assert_eq!(c.stored_bytes(), 3);
        assert_eq!(c.dead_bytes(), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn masked_content_still_stored() {
        // Fig. 1's jobs: {A,B,C} then {A,B,D} — C is masked, not freed.
        let mut c = chain();
        c.refine_to(&spec(&[1, 2, 3])); // A,B,C
        c.refine_to(&spec(&[1, 2, 4])); // A,B,D
        assert_eq!(c.effective(), spec(&[1, 2, 4]));
        assert_eq!(c.stored_bytes(), 4, "C still stored, D added");
        assert_eq!(c.effective_bytes(), 3);
        assert_eq!(c.dead_bytes(), 1);
    }

    #[test]
    fn fig1_sequence_wastes_versus_composition() {
        // Fig. 1's three jobs: {A,B,C}, {A,B,D}, {A,B,C}.
        let mut c = chain();
        c.refine_to(&spec(&[1, 2, 3]));
        c.refine_to(&spec(&[1, 2, 4]));
        c.refine_to(&spec(&[1, 2, 3])); // identical to job 1, but the
                                        // chain can't see that: C is re-added.
        assert_eq!(c.stored_bytes(), 5, "A,B,C + D + C again");
        // Composition (LANDLORD) would store the union {A,B,C,D} = 4.
        assert!(c.stored_bytes() > 4);
        assert_eq!(c.effective(), spec(&[1, 2, 3]));
    }

    #[test]
    fn exact_match_reuses_without_new_layer() {
        let mut c = chain();
        c.refine_to(&spec(&[1, 2]));
        let added = c.refine_to(&spec(&[1, 2]));
        assert_eq!(added, 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn empty_requirements_mask_all() {
        let mut c = chain();
        c.refine_to(&spec(&[1, 2]));
        c.refine_to(&Spec::empty());
        assert!(c.effective().is_empty());
        assert_eq!(c.stored_bytes(), 2, "masking frees nothing");
        assert_eq!(c.dead_bytes(), 2);
    }

    #[test]
    fn monotone_storage_growth() {
        let mut c = chain();
        let mut last = 0;
        for reqs in [&[1u32, 2][..], &[2, 3], &[3, 4], &[1, 2]] {
            c.refine_to(&spec(reqs));
            assert!(c.stored_bytes() >= last, "layer storage can only grow");
            last = c.stored_bytes();
        }
    }

    #[test]
    fn policy_requests_track_the_chain() {
        let mut c = chain();
        let a = c.request(&spec(&[1, 2, 3]));
        assert_eq!(a.op, ServedOp::Merged);
        let b = c.request(&spec(&[1, 2, 3]));
        assert_eq!(b.op, ServedOp::Hit, "exact top-of-chain match reuses");
        assert_eq!(b.revision, a.revision, "no new layer on a hit");
        let d = c.request(&spec(&[1, 2, 4]));
        assert_eq!(d.op, ServedOp::Merged);
        assert!(d.revision > b.revision);
        let s = c.stats();
        assert_eq!((s.hits, s.merges, s.bytes_written), (1, 2, 4));
        assert_eq!(c.plan_build(&spec(&[1, 2, 4])).build, BuildPlan::Hit);
        assert_eq!(
            c.plan_build(&spec(&[1, 2, 5])).build,
            BuildPlan::Rewrite { bytes: 1 }
        );
        c.check_invariants();
    }
}
