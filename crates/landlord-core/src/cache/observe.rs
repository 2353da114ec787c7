//! Cached metric handles for the cache's hot paths.
//!
//! [`super::ImageCache::attach_metrics`] resolves every metric the
//! cache records into `Arc` handles once, so the per-request cost of
//! instrumentation is a handful of relaxed atomic ops — no name
//! lookups, no locks. A cache with no registry attached pays one
//! `Option` check per site.
//!
//! All metrics recorded here are driven by the registry's
//! [`Clock`]: under a
//! [`LogicalClock`](landlord_obs::LogicalClock) the whole registry is
//! deterministic (counters and histogram bucket counts are exact
//! functions of the request stream), which is what the CLI's
//! `--metrics-json` byte-stability contract relies on.

use landlord_obs::{Clock, Counter, Gauge, Histogram, MetricsRegistry, SpanGuard};
use std::sync::Arc;

/// Metric names recorded by [`super::ImageCache`] and the sharded
/// frontend. Kept in one place so tests and downstream consumers can
/// reference them without string drift.
pub mod names {
    /// Span histogram: ticks spent in `plan`/`plan_with_peek`.
    pub const PLAN_TICKS: &str = "core.plan_ticks";
    /// Span histogram: ticks spent in `apply`.
    pub const APPLY_TICKS: &str = "core.apply_ticks";
    /// Histogram: merge candidates scored against α per planning pass
    /// — under the exact strategy the slots read out of the posting
    /// table's count, those whose overlap with the request is large
    /// enough to be within α; under MinHash/LSH the index's live
    /// proposals. No other image's distance is computed.
    pub const CANDIDATE_SCAN: &str = "core.candidate_scan";
    /// Histogram: evictions performed per `evict_to_limit` call.
    pub const EVICT_CHAIN: &str = "core.evict_chain";
    /// Counter: total images evicted.
    pub const EVICTIONS: &str = "core.evictions";
    /// Gauge: high-water mark of resident image count (gauges fold by
    /// max, so the peak is deterministic under any shard
    /// interleaving).
    pub const RESIDENT_IMAGES: &str = "core.resident_images_peak";
    /// Counter: S3-FIFO inserts re-admitted straight to the main queue
    /// because their identity was found in the ghost queue.
    pub const EVICT_GHOST_HITS: &str = "core.evict_ghost_hits";
    /// Counter: individual candidate draws performed by sampled victim
    /// selection (LHD).
    pub const EVICT_SAMPLE_DRAWS: &str = "core.evict_sample_draws";
    /// Histogram: ticks a sharded request waited to acquire its
    /// shard's lock.
    pub const SHARD_LOCK_WAIT: &str = "sharded.lock_wait_ticks";
    /// Histogram: ticks a sharded request held its shard's lock.
    pub const SHARD_LOCK_HOLD: &str = "sharded.lock_hold_ticks";
    /// Counter: sharded requests whose package-summary peek proved a
    /// miss, skipping the hit test.
    pub const SHARD_PEEK_SKIP: &str = "sharded.peek_skip";
    /// Counter: sharded requests whose peek could not rule out a hit.
    pub const SHARD_PEEK_POSSIBLE: &str = "sharded.peek_possible";
    /// Counter: package-summary rebuilds forced by evictions, once per
    /// shard lock hold that evicted (stale bits cleared eagerly at the
    /// end of the hold rather than waiting for the periodic rebuild).
    pub const SHARD_BLOOM_STALE_REBUILDS: &str = "sharded.bloom_stale_rebuilds";
    /// Counter: requests served from another request's in-flight build
    /// via single-flight coalescing instead of planning independently.
    pub const SHARD_FLIGHT_COALESCED: &str = "sharded.flight_coalesced";
}

/// Pre-resolved handles for everything [`super::ImageCache`] records.
pub(super) struct CoreObs {
    clock: Arc<dyn Clock>,
    plan_ticks: Arc<Histogram>,
    apply_ticks: Arc<Histogram>,
    pub(super) candidate_scan: Arc<Histogram>,
    pub(super) evict_chain: Arc<Histogram>,
    pub(super) evictions: Arc<Counter>,
    pub(super) resident_images: Arc<Gauge>,
    pub(super) evict_ghost_hits: Arc<Counter>,
    pub(super) evict_sample_draws: Arc<Counter>,
}

impl CoreObs {
    pub(super) fn new(registry: &MetricsRegistry) -> Self {
        Self {
            clock: Arc::clone(registry.clock()),
            plan_ticks: registry.histogram(names::PLAN_TICKS),
            apply_ticks: registry.histogram(names::APPLY_TICKS),
            candidate_scan: registry.histogram(names::CANDIDATE_SCAN),
            evict_chain: registry.histogram(names::EVICT_CHAIN),
            evictions: registry.counter(names::EVICTIONS),
            resident_images: registry.gauge(names::RESIDENT_IMAGES),
            evict_ghost_hits: registry.counter(names::EVICT_GHOST_HITS),
            evict_sample_draws: registry.counter(names::EVICT_SAMPLE_DRAWS),
        }
    }

    /// Time a planning pass (ends when the guard drops).
    pub(super) fn plan_span(&self) -> SpanGuard {
        SpanGuard::start(Arc::clone(&self.plan_ticks), Arc::clone(&self.clock))
    }

    /// Time an apply pass (ends when the guard drops).
    pub(super) fn apply_span(&self) -> SpanGuard {
        SpanGuard::start(Arc::clone(&self.apply_ticks), Arc::clone(&self.clock))
    }
}

impl std::fmt::Debug for CoreObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreObs").finish_non_exhaustive()
    }
}
