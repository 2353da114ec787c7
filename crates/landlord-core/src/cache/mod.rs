//! The LANDLORD image cache — the paper's Algorithm 1 plus byte-bounded
//! eviction and full operation accounting — structured as a
//! transactional **plan → apply** policy engine.
//!
//! For each submitted specification `s` the cache:
//!
//! 1. **Hit** — if any cached image `i` satisfies `s ⊆ i`, reuse it.
//!    (We pick the *smallest* satisfying image, which maximizes
//!    container efficiency; Algorithm 1 as printed returns the first
//!    match, which is iteration-order dependent.)
//! 2. **Merge** — otherwise, consider images `j` with Jaccard distance
//!    `d_j(s, j) < α`, ordered by the configured
//!    [`crate::policy::MergeOrder`] (nearest-first by
//!    default, the paper's "selection can be sorted by dj()"). The first
//!    candidate that does not conflict with `s` is replaced in place by
//!    `merge(s, j)` — the union image — and the whole merged image is
//!    rewritten (the dominant I/O cost the paper measures in Fig. 4c).
//! 3. **Insert** — otherwise a fresh image for exactly `s` is created.
//!
//! After a merge or insert, least-valuable images are evicted until the
//! total cached bytes drop back under the limit ("inserts and deletes
//! are filling and emptying the cache such that it remains close to its
//! storage limit", §VI).
//!
//! # Module map
//!
//! | module | role |
//! |---|---|
//! | [`mod@self`] | engine struct, slot slab, lifecycle, `settle`/`request` composition |
//! | `config` | [`CacheConfig`], [`CacheStats`] |
//! | `plan` | pure decision side: [`ImageCache::plan`] → [`Plan`] |
//! | `apply` | sole mutator: [`ImageCache::apply`] executes a [`Plan`] |
//! | `evictor` | [`Evictor`] seam, keyed by slot: LRU list, ordered indexes, S3-FIFO queues, sampled LHD |
//! | `postings` | slot allocator; package → resident-slot bitmaps: hit test, overlap counts, merge deltas, unique bytes |
//! | `ledger` | [`Ledger`]: accounting shared with every baseline |
//!
//! Inside the engine an image is known by its *slot*: the dense `u32`
//! the posting table gives each resident image and reuses once it
//! leaves. Residents sit in a slab indexed by slot; the one map keyed
//! by image id (`slots`) resolves an [`ImageId`] at the boundary —
//! [`ImageCache::get`], a plan's target in [`ImageCache::apply`], a
//! victim the evictor names. The planner, the evictor callbacks and
//! the posting table work on slots alone. Events, snapshots and the
//! public API keep [`ImageId`].
//!
//! `request()` is literally `settle(); apply(spec, &plan(spec))`: the
//! pure planner decides, the applier mutates, and any other consumer
//! (fault injection, the persistent store) can hold the [`Plan`] in
//! between.
//!
//! The cache maintains, incrementally, the quantities behind the paper's
//! metrics: total cached bytes, *unique* cached bytes (each distinct
//! package counted once — the numerator of cache efficiency), cumulative
//! bytes written (actual I/O) and cumulative bytes requested.

mod apply;
mod config;
mod evictor;
mod flight;
mod ledger;
pub mod observe;
mod plan;
mod postings;
#[cfg(test)]
mod proptests;
mod sharded;
#[cfg(test)]
mod tests;

pub use apply::Outcome;
pub use config::{CacheConfig, CacheStats};
pub use evictor::{make_evictor, Evictor, EvictorCounters};
pub use flight::{Flight, LeaderGuard, SingleFlight, Ticket};
pub use ledger::{Ledger, PackageRefs};
pub use plan::{plan_over, plan_over_with_peek, Plan, PlannedOp};
pub use sharded::{shard_limit_bytes, ShardedImageCache};

use postings::Postings;

use crate::conflict::{ConflictPolicy, NoConflicts};
use crate::events::{CacheEvent, EventSink};
use crate::image::{Image, ImageId};
use crate::metrics::ContainerEfficiency;
use crate::policy::{BuildPlan, CachePolicy, PlannedBuild, Served, ServedOp};
use crate::sizes::SizeModel;
use crate::spec::{PackageId, Spec};
use crate::util::FxHashMap;
use landlord_obs::MetricsRegistry;
use std::sync::Arc;

/// A byte-bounded container image cache implementing LANDLORD's online
/// management algorithm. See the module docs for the full flow.
pub struct ImageCache {
    config: CacheConfig,
    sizes: Arc<dyn SizeModel>,
    conflicts: Arc<dyn ConflictPolicy>,
    /// The resident images by posting slot; `None` for a free slot.
    /// The sorted `Spec` of each stays the canonical set
    /// (serialization, iteration, union); the posting table's rows
    /// answer which images hold a package and how much of a request
    /// each holds. [`ImageCache::check_invariants`] holds the two equal.
    residents: Vec<Option<Image>>,
    /// Image id → slot: the only map keyed by image id.
    slots: FxHashMap<u64, u32>,
    clock: u64,
    next_id: u64,
    ledger: Ledger,
    /// Package → bitmap over the resident images' slots: the hit test,
    /// every image's overlap with a request, a merge's delta, and which
    /// packages count toward unique bytes (see `postings`).
    postings: Postings,
    evictor: Box<dyn Evictor>,
    /// Evictor counter values already flushed to the metrics registry;
    /// [`ImageCache::apply`] records only the delta since this
    /// snapshot, so counters stay exact across stateful selections.
    evictor_reported: evictor::EvictorCounters,
    sink: Option<Box<dyn EventSink + Send>>,
    /// Pre-resolved metric handles; `None` until
    /// [`ImageCache::attach_metrics`] is called (the default — an
    /// unobserved cache pays one branch per instrumented site).
    obs: Option<observe::CoreObs>,
    /// Image flagged by the last merge for bloat splitting; processed
    /// lazily by [`ImageCache::settle`] at the start of the next
    /// request so the merge's own outcome keeps pointing at a live
    /// image.
    pending_split: Option<ImageId>,
}

impl ImageCache {
    /// Create a cache with the CVMFS-style no-conflict policy.
    pub fn new(config: CacheConfig, sizes: Arc<dyn SizeModel>) -> Self {
        Self::with_conflicts(config, sizes, Arc::new(NoConflicts))
    }

    /// Create a cache with an explicit conflict policy.
    pub fn with_conflicts(
        config: CacheConfig,
        sizes: Arc<dyn SizeModel>,
        conflicts: Arc<dyn ConflictPolicy>,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.alpha),
            "alpha must be in [0,1], got {}",
            config.alpha
        );
        ImageCache {
            config,
            sizes,
            conflicts,
            residents: Vec::new(),
            slots: FxHashMap::default(),
            clock: 0,
            next_id: 0,
            ledger: Ledger::new(),
            postings: Postings::default(),
            evictor: evictor::make_evictor(&config),
            evictor_reported: evictor::EvictorCounters::default(),
            sink: None,
            obs: None,
            pending_split: None,
        }
    }

    /// Reassemble a cache from checkpointed state (see
    /// [`crate::snapshot`]). Monotonic counters come from the snapshot;
    /// all current-state accounting (totals, unique bytes, indexes) is
    /// recomputed from the images so it can never be inconsistent.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: CacheConfig,
        sizes: Arc<dyn SizeModel>,
        conflicts: Arc<dyn ConflictPolicy>,
        images: Vec<Image>,
        clock: u64,
        next_id: u64,
        stats: CacheStats,
        container_eff: ContainerEfficiency,
    ) -> Self {
        let mut cache = ImageCache::with_conflicts(config, sizes, conflicts);
        cache.clock = clock;
        cache.next_id = next_id;
        cache.ledger = Ledger::from_state(stats, container_eff);
        cache.ledger.reset_current();
        for img in images {
            cache.admit_image(img);
        }
        cache
    }

    /// Make `image` resident: give it a posting slot and set its
    /// packages' bits, count its bytes and the unique bytes it brings,
    /// register it with the evictor, and store it in the slab at its
    /// slot. The one admission path of insert, split pieces and
    /// checkpoint restore.
    fn admit_image(&mut self, image: Image) {
        let (slot, unique) =
            self.postings
                .admit(image.id.0, image.bytes, &image.spec, self.sizes.as_ref());
        self.ledger.add_unique(unique);
        self.ledger.admit(image.bytes);
        self.evictor.on_insert(slot, &image);
        self.slots.insert(image.id.0, slot);
        let at = slot as usize;
        if at == self.residents.len() {
            self.residents.push(Some(image));
        } else {
            self.residents[at] = Some(image);
        }
    }

    /// The slot of image `id`, if it is resident.
    fn slot_of(&self, id: ImageId) -> Option<u32> {
        self.slots.get(&id.0).copied()
    }

    /// The resident image in `slot`; `None` for a free slot.
    fn resident(&self, slot: u32) -> Option<&Image> {
        self.residents.get(slot as usize)?.as_ref()
    }

    /// The resident images with their slots, in slot order.
    fn residents_by_slot(&self) -> impl Iterator<Item = (u32, &Image)> {
        (0u32..)
            .zip(&self.residents)
            .filter_map(|(slot, img)| Some((slot, img.as_ref()?)))
    }

    /// Current logical clock (for checkpointing).
    pub(crate) fn clock_value(&self) -> u64 {
        self.clock
    }

    /// Next image id to allocate (for checkpointing).
    pub(crate) fn next_id_value(&self) -> u64 {
        self.next_id
    }

    /// The container-efficiency accumulator (for checkpointing).
    pub(crate) fn container_eff_state(&self) -> ContainerEfficiency {
        self.ledger.container_eff()
    }

    /// Image awaiting a bloat split, if any (for checkpointing).
    pub(crate) fn pending_split_value(&self) -> Option<ImageId> {
        self.pending_split
    }

    /// Restore a pending split (checkpoint restore only).
    pub(crate) fn set_pending_split(&mut self, pending: Option<ImageId>) {
        self.pending_split = pending;
    }

    /// Attach an event sink receiving every cache operation.
    pub fn set_sink(&mut self, sink: Box<dyn EventSink + Send>) {
        self.sink = Some(sink);
    }

    /// Detach and return the current event sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn EventSink + Send>> {
        self.sink.take()
    }

    /// Attach a metrics registry; the cache resolves its metric
    /// handles once and records plan/apply timings, candidate-scan and
    /// eviction-chain lengths, and resident-image counts from then on.
    /// Several caches may share one registry — all counters and
    /// histograms are shared atomics, so their contributions fold
    /// exactly (see `landlord_obs`).
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.obs = Some(observe::CoreObs::new(registry));
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Snapshot of all counters and totals.
    pub fn stats(&self) -> CacheStats {
        self.ledger.stats()
    }

    /// Mean container efficiency over all requests so far (percent).
    pub fn container_efficiency_pct(&self) -> f64 {
        self.ledger.container_efficiency_pct()
    }

    /// The raw container-efficiency accumulator (exact parallel folding
    /// and clamp accounting; see [`ContainerEfficiency::merge`]).
    pub fn container_eff(&self) -> ContainerEfficiency {
        self.ledger.container_eff()
    }

    /// Cache efficiency right now (percent).
    pub fn cache_efficiency_pct(&self) -> f64 {
        self.ledger.cache_efficiency_pct()
    }

    /// Number of cached images.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no images are cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Look up an image by id.
    pub fn get(&self, id: ImageId) -> Option<&Image> {
        self.resident(self.slot_of(id)?)
    }

    /// Iterate over cached images in unspecified order.
    pub fn images(&self) -> impl Iterator<Item = &Image> {
        self.residents.iter().flatten()
    }

    /// The next eviction victim under the configured policy (with no
    /// image protected), without committing any selection state. For
    /// LRU this reads the head of the recency list, O(1) (a scan right
    /// after a restore, until the next selection sorts the list). The
    /// sampled policies replay their next K draws on a copy of the
    /// stream state, O(K); S3-FIFO previews on a clone of its queues.
    /// Either way the answer matches the next real selection. `None` on
    /// an empty cache.
    pub fn peek_victim(&self) -> Option<ImageId> {
        self.evictor.peek_victim(None)
    }

    /// Apply any deferred maintenance (currently: a pending bloat
    /// split) so that [`ImageCache::plan`] is exact. Called implicitly
    /// by [`ImageCache::request`] and [`ImageCache::insert_fresh`];
    /// callers driving the plan → apply pipeline themselves must call
    /// it before planning.
    pub fn settle(&mut self) {
        if let Some(id) = self.pending_split.take() {
            self.split_image(id);
        }
    }

    /// Process one job request (Algorithm 1): settle, plan, apply.
    /// Exactly one of hit/merge/insert happens, possibly followed by
    /// evictions.
    pub fn request(&mut self, spec: &Spec) -> Outcome {
        self.settle();
        let plan = self.plan(spec);
        self.apply(spec, &plan)
    }

    /// Degraded-path request: serve `spec` with a fresh image even when
    /// a hit or merge candidate exists.
    ///
    /// This is the graceful-degradation fallback when a *merge* build
    /// keeps failing (the candidate rewrite touches far more bytes than
    /// the job needs): the job still launches, from a minimal per-job
    /// image, and the shared image is left untouched. Accounted exactly
    /// like an insert.
    pub fn insert_fresh(&mut self, spec: &Spec) -> Outcome {
        self.settle();
        let forced = Plan {
            op: PlannedOp::Insert,
            requested_bytes: self.sizes.spec_bytes(spec),
        };
        self.apply(spec, &forced)
    }

    /// Remove the image in `slot` from all structures without deciding
    /// *why* — shared by eviction (counted as a delete) and splitting
    /// (not).
    fn detach(&mut self, slot: u32) -> Option<Image> {
        let img = self.residents.get_mut(slot as usize)?.take()?;
        self.slots.remove(&img.id.0);
        let freed = self.postings.release(slot, &img.spec, self.sizes.as_ref());
        self.ledger.sub_unique(freed);
        self.ledger.drop_image(img.bytes);
        self.evictor.on_remove(slot, &img);
        if self.pending_split == Some(img.id) {
            self.pending_split = None;
        }
        Some(img)
    }

    /// Remove one image and clear its packages' bits.
    pub(super) fn evict(&mut self, id: ImageId) {
        let Some(slot) = self.slot_of(id) else { return };
        if let Some(Some(img)) = self.residents.get(slot as usize) {
            self.evictor.note_eviction(slot, img);
        }
        let Some(img) = self.detach(slot) else { return };
        self.ledger.count_delete();
        if let Some(obs) = &self.obs {
            obs.evictions.inc();
        }
        self.emit(CacheEvent::Evict {
            image: id,
            bytes: img.bytes,
        });
    }

    /// Split a bloated image back into its constituent request specs.
    ///
    /// Every constituent becomes a fresh image (each written in full —
    /// splitting costs I/O just like merging does). Returns the new
    /// image ids; empty when the image is unknown or has a single
    /// constituent (nothing to split).
    pub fn split_image(&mut self, id: ImageId) -> Vec<ImageId> {
        let Some(slot) = self.slot_of(id) else {
            return Vec::new();
        };
        if self
            .resident(slot)
            .is_none_or(|img| img.constituents.len() <= 1)
        {
            return Vec::new();
        }
        let Some(img) = self.detach(slot) else {
            return Vec::new();
        };
        self.clock += 1;
        let now = self.clock;
        let mut pieces = Vec::with_capacity(img.constituents.len());
        for constituent in &img.constituents {
            let piece_id = ImageId(self.next_id);
            self.next_id += 1;
            let bytes = self.sizes.spec_bytes(constituent);
            self.ledger.write(bytes);
            self.admit_image(Image::new(piece_id, constituent.clone(), bytes, now));
            pieces.push(piece_id);
        }
        self.ledger.count_split();
        self.emit(CacheEvent::Split {
            image: id,
            pieces: u32::try_from(pieces.len()).unwrap_or(u32::MAX),
        });
        // Splitting duplicates shared packages across pieces, so the
        // total can exceed the limit even though the union fit.
        if let Some(&keep) = pieces.first() {
            self.evict_to_limit(keep);
        }
        pieces
    }

    /// Drop a specific image (administrative delete, not counted as an
    /// eviction by the byte limit but recorded in `deletes`).
    pub fn remove_image(&mut self, id: ImageId) -> bool {
        if self.slots.contains_key(&id.0) {
            self.evict(id);
            true
        } else {
            false
        }
    }

    pub(super) fn emit(&mut self, event: CacheEvent) {
        if let Some(sink) = &mut self.sink {
            sink.on_event(&event);
        }
    }

    /// Recompute all derived state from scratch and compare with the
    /// incrementally maintained values. Used by the property tests;
    /// cheap enough to call in integration tests too.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on any inconsistency.
    pub fn check_invariants(&self) {
        let stats = self.ledger.stats();
        let mut total = 0u64;
        let mut refcounts: Vec<u32> = Vec::new();
        for img in self.images() {
            assert_eq!(
                img.bytes,
                self.sizes.spec_bytes(&img.spec),
                "image {} bytes out of sync with spec",
                img.id
            );
            let union = img
                .constituents
                .iter()
                .fold(Spec::empty(), |acc, c| acc.union(c));
            assert_eq!(
                union, img.spec,
                "image {} constituents do not union to its spec",
                img.id
            );
            total += img.bytes;
            for p in img.spec.iter() {
                if refcounts.len() <= p.index() {
                    refcounts.resize(p.index() + 1, 0);
                }
                refcounts[p.index()] += 1;
            }
        }
        assert_eq!(stats.total_bytes, total, "total_bytes out of sync");
        assert_eq!(stats.image_count, self.len() as u64, "image_count");
        // Unique bytes re-summed from the images' specs, each package
        // held by some image counted once.
        let unique: u64 = (0..refcounts.len())
            .filter(|&p| refcounts[p] > 0)
            .map(|p| self.sizes.package_size(PackageId::from_index(p)))
            .sum();
        assert_eq!(stats.unique_bytes, unique, "unique_bytes out of sync");
        assert!(stats.unique_bytes <= stats.total_bytes.max(1));
        assert_eq!(
            stats.requests,
            stats.hits + stats.merges + stats.inserts,
            "every request is exactly one of hit/merge/insert"
        );
        // Eviction runs until the total fits or a single (protected)
        // image remains; therefore any multi-image state respects the
        // limit exactly.
        if self.len() > 1 {
            assert!(
                stats.total_bytes <= self.config.limit_bytes,
                "multi-image cache over limit: {} > {}",
                stats.total_bytes,
                self.config.limit_bytes
            );
        }

        // Recency-order consistency: the logical clock bounds every
        // image's last touch, ids stay below the allocator watermark,
        // and nothing is cached that was never used. Together these
        // guarantee the LRU victim index's (last_used, id) order is a
        // faithful recency order.
        for img in self.images() {
            assert!(
                img.last_used <= self.clock,
                "image {} touched at {} but clock is {}",
                img.id,
                img.last_used,
                self.clock
            );
            assert!(
                img.id.0 < self.next_id,
                "image {} at or above next_id",
                img.id
            );
            assert!(img.use_count >= 1, "image {} cached but never used", img.id);
        }

        // The id map names exactly the slab's images, each at its slot.
        let by_slot: Vec<(u32, &Image)> = self.residents_by_slot().collect();
        assert_eq!(self.slots.len(), by_slot.len(), "id map size");
        for &(slot, img) in &by_slot {
            assert_eq!(
                self.slot_of(img.id),
                Some(slot),
                "id map disagrees with the slab for image {}",
                img.id
            );
        }

        // Seam agreement: the victim index mirrors the slab exactly and
        // verifies itself against a brute-force recomputation where
        // possible.
        self.evictor.check(&by_slot);
        // The posting table equals one recomputed from the images, and
        // each occupied slot's record (bytes, id, package count) is its
        // image's; so a row is nonzero exactly when a package counts
        // toward the unique bytes checked above.
        self.postings.check(
            by_slot
                .iter()
                .map(|&(slot, img)| (img.id.0, img.bytes, slot, &img.spec)),
        );

        // Superset-lookup agreement: every image's own spec must hit,
        // and the posting table's answer must match a brute-force scan
        // with the sorted-slice subset test.
        for img in self.images() {
            let hit = self.find_satisfying(&img.spec).map(|h| h.id);
            let brute = self
                .images()
                .filter(|c| img.spec.len() <= c.spec.len() && img.spec.is_subset(&c.spec))
                .min_by_key(|c| (c.bytes, c.id))
                .map(|c| c.id);
            assert!(brute.is_some(), "image {} does not satisfy itself", img.id);
            assert_eq!(
                hit, brute,
                "find_satisfying disagrees with brute-force scan"
            );
        }
    }

    /// What applying `plan` for `spec` requires of storage, with the
    /// plan attached for [`CachePolicy::apply_build`]: the
    /// [`CachePolicy::plan_build`] of a plan made elsewhere than
    /// [`ImageCache::plan`].
    ///
    /// A merge rewrites the image at its bytes plus those of the
    /// packages it lacks, read from the posting table exactly as
    /// [`ImageCache::apply`] grows it; no union is built.
    pub fn build_for(&self, spec: &Spec, plan: Plan) -> PlannedBuild {
        let build = match plan.op {
            PlannedOp::Hit { .. } => BuildPlan::Hit,
            PlannedOp::Merge { image, .. } => BuildPlan::Rewrite {
                bytes: self
                    .slot_of(image)
                    .and_then(|slot| {
                        let img = self.resident(slot)?;
                        let added = self.postings.missing(slot, spec);
                        Some(img.bytes.saturating_add(self.sizes.ids_bytes(&added)))
                    })
                    .unwrap_or(plan.requested_bytes),
            },
            PlannedOp::Insert => BuildPlan::Insert {
                bytes: plan.requested_bytes,
            },
        };
        PlannedBuild {
            build,
            plan: Some(plan),
        }
    }

    fn serve_outcome(&self, out: Outcome) -> Served {
        let image = out.image();
        Served {
            op: match out {
                Outcome::Hit { .. } => ServedOp::Hit,
                Outcome::Merged { .. } => ServedOp::Merged,
                Outcome::Inserted { .. } => ServedOp::Inserted,
            },
            image: image.0,
            image_bytes: out.image_bytes(),
            revision: self.get(image).map(|img| img.merge_count).unwrap_or(0),
        }
    }
}

impl CachePolicy for ImageCache {
    fn name(&self) -> &'static str {
        "landlord"
    }

    fn settle(&mut self) {
        ImageCache::settle(self);
    }

    fn request(&mut self, spec: &Spec) -> Served {
        let out = ImageCache::request(self, spec);
        self.serve_outcome(out)
    }

    fn insert_fresh(&mut self, spec: &Spec) -> Served {
        let out = ImageCache::insert_fresh(self, spec);
        self.serve_outcome(out)
    }

    fn plan_build(&self, spec: &Spec) -> PlannedBuild {
        self.build_for(spec, ImageCache::plan(self, spec))
    }

    fn apply_build(&mut self, spec: &Spec, planned: &PlannedBuild) -> Served {
        let out = match &planned.plan {
            Some(plan) => ImageCache::apply(self, spec, plan),
            None => ImageCache::request(self, spec),
        };
        self.serve_outcome(out)
    }

    fn spec_bytes(&self, spec: &Spec) -> u64 {
        self.sizes.spec_bytes(spec)
    }

    fn stats(&self) -> CacheStats {
        ImageCache::stats(self)
    }

    fn container_efficiency_pct(&self) -> f64 {
        ImageCache::container_efficiency_pct(self)
    }

    fn container_eff(&self) -> ContainerEfficiency {
        ImageCache::container_eff(self)
    }

    fn len(&self) -> usize {
        ImageCache::len(self)
    }

    fn limit_bytes(&self) -> u64 {
        self.config.limit_bytes
    }

    fn check_invariants(&self) {
        ImageCache::check_invariants(self);
    }

    fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        ImageCache::attach_metrics(self, registry);
    }
}

impl std::fmt::Debug for ImageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageCache")
            .field("alpha", &self.config.alpha)
            .field("limit_bytes", &self.config.limit_bytes)
            .field("images", &self.len())
            .field("stats", &self.ledger.stats())
            .finish()
    }
}
