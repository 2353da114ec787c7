//! A sharded concurrent frontend over N independent [`ImageCache`]s.
//!
//! §V's site-wide deployment serves many submitters at once, but
//! Algorithm 1 is a read-modify-write over the whole image collection,
//! so one engine behind one lock serializes every request (a 1-shard
//! [`ShardedImageCache`] is exactly that coarse mutex).
//! [`ShardedImageCache`] recovers concurrency the way distributed HTC
//! sites scale shared state: partition it.
//!
//! * **Routing** — each spec is owned by exactly one shard, chosen by a
//!   one-slot MinHash of its package set (the minimum of a seeded
//!   [`mix2`] over the member ids, mod N). This is
//!   similarity-sensitive: specs sharing their minimum
//!   package land on the same shard, so the near neighbours Algorithm 1
//!   wants to merge tend to colocate. Routing is a pure function of the
//!   spec — no spec can map to two shards, which
//!   [`ShardedImageCache::check_invariants`] re-verifies from every
//!   cached image's constituents.
//! * **Budget partition** — the global byte limit is split across
//!   shards so the per-shard limits sum to it *exactly* (the first
//!   `limit % N` shards get one extra byte).
//! * **Superset peek** — each shard publishes a 256-bit package-set
//!   summary (a tiny Bloom filter over live package ids, maintained in
//!   atomics). A reader can ask, without any lock, whether a shard
//!   could possibly hold a superset of a spec; a clear bit for any
//!   member proves it cannot. The owning shard re-reads its own summary
//!   under its lock (where it is authoritative, not advisory) and feeds
//!   the answer to [`ImageCache::plan_with_peek`], skipping the hit
//!   test for specs that introduce any new package. Because 256
//!   bits saturate at a few hundred distinct packages, the under-lock
//!   path layers an [`XorFilter`] (rebuilt from the live images at each
//!   summary rebuild, with an exact overlay for ids noted since) that
//!   keeps a fixed ≈0.39% false-positive rate at millions of packages.
//!   Bits cannot be cleared one package at a time, so once per lock
//!   hold that evicted, the summary is rebuilt from the live images
//!   before the lock is released.
//! * **Batching** — [`ShardedImageCache::request_many`] groups a batch
//!   by owning shard and takes each shard lock once per batch instead
//!   of once per request, preserving per-shard arrival order; the
//!   summary upkeep also runs once per shard per batch.
//! * **Metric folding** — counters stay shard-local and are folded on
//!   read with [`CacheStats::merge`] /
//!   [`crate::metrics::ContainerEfficiency::merge`], which are exact
//!   (sums, not averages of averages). The folded `unique_bytes` counts
//!   a package once *per shard holding it*; cross-shard duplication is
//!   the price of lock-free partitioning and is documented rather than
//!   hidden.
//!
//! Because every request is served entirely by its owning shard, a
//! multi-threaded replay is *deterministic*: whatever the interleaving,
//! each shard observes its own requests in submission order, so global
//! folded counters equal a single-threaded replay partitioned by shard
//! ownership. The `sharded_stress` proptest pins this down.

use super::flight::{SingleFlight, Ticket};
use super::observe::names;
use super::{CacheConfig, CacheStats, ImageCache, Outcome};
use crate::conflict::{ConflictPolicy, NoConflicts};
use crate::filter::XorFilter;
use crate::metrics::ContainerEfficiency;
use crate::sizes::SizeModel;
use crate::spec::{PackageId, Spec};
use crate::util::{mix2, mix64};
use landlord_obs::{Clock, Counter, Histogram, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::borrow::Borrow;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Words in a shard's package-set summary (256 bits total).
const SUMMARY_WORDS: usize = 4;

/// Noted (non-hit) requests between periodic summary rebuilds. Hits
/// are not noted (see [`PackageSummary::note_spec`]), so they do not
/// count towards it. The summary cannot *clear* liveness incrementally
/// (bits are shared), so any lock hold that evicted forces an
/// immediate rebuild at its end (see
/// [`PackageSummary::rebuild_after_evictions`]); this periodic rebuild
/// remains as a backstop for holds that did not evict, and also
/// refreshes the precise layer's static filter before its `fresh`
/// overlay grows.
const SUMMARY_REBUILD_EVERY: u64 = 128;

/// Seed of the routing hash. Fixed, so a spec's shard depends on
/// nothing but its packages and the shard count.
const ROUTE_SEED: u64 = mix2(0x1a4d_10bd_2020_0048, 0x51a2_d3e4_0000_0005);

/// The precise complement to the 256-bit bloom: an [`XorFilter`] over
/// the package ids live at the last rebuild, plus the exact set of ids
/// noted since. At millions of distinct packages the 256-bit bloom
/// saturates (every bit set, every peek "possible"); the xor layer
/// keeps a fixed ≈0.39% false-positive rate at ~10 bits per key, so
/// the peek keeps pruning hit scans at any scale.
///
/// Consulted only under the shard lock (the lock-free cross-shard peek
/// stays bloom-only), so an `RwLock` here costs nothing extra.
struct PreciseLayer {
    /// Static filter over the ids live at the last summary rebuild.
    filter: XorFilter,
    /// Ids noted since the rebuild that the static filter may not
    /// cover; bounded by `SUMMARY_REBUILD_EVERY` noted specs.
    fresh: HashSet<u64>,
}

/// A lock-free 256-bit summary of the package ids live in one shard.
///
/// Writers (inserts, merges, rebuilds) only run under the shard lock;
/// readers may run anywhere. A clear bit proves the package is absent
/// from every live image of the shard; a set bit proves nothing (hash
/// collisions and evicted packages leave false positives). The
/// under-lock path additionally consults a [`PreciseLayer`] that keeps
/// pruning after the tiny bloom saturates.
struct PackageSummary {
    bits: [AtomicU64; SUMMARY_WORDS],
    /// Non-hit requests noted since the last rebuild.
    notes: AtomicU64,
    /// Lock holds whose evictions forced a rebuild (stale bits cleared
    /// eagerly, once per hold that evicted).
    stale_rebuilds: AtomicU64,
    /// Built at the first rebuild; `None` until then (peeks fall back
    /// to bloom-only, which is exact for young shards anyway).
    precise: RwLock<Option<PreciseLayer>>,
}

impl PackageSummary {
    fn new() -> Self {
        PackageSummary {
            bits: std::array::from_fn(|_| AtomicU64::new(0)),
            notes: AtomicU64::new(0),
            stale_rebuilds: AtomicU64::new(0),
            precise: RwLock::new(None),
        }
    }

    fn slot(package: PackageId) -> (usize, u64) {
        let h = mix64(u64::from(package.0));
        let idx = (h & 255) as usize;
        (idx >> 6, 1u64 << (idx & 63))
    }

    /// Could this shard hold a superset of `spec`? `false` is a proof
    /// of absence; `true` is only a possibility. The empty spec is a
    /// subset of anything, so it is always "possible".
    fn may_contain_superset(&self, spec: &Spec) -> bool {
        spec.iter().all(|p| {
            let (word, mask) = Self::slot(p);
            self.bits[word].load(Ordering::Relaxed) & mask == mask // sync: bloom probe tolerates stale bits; a false positive only costs a shard scan
        })
    }

    /// The authoritative peek used under the shard lock: the bloom
    /// first (free), then the precise layer for specs the saturated
    /// bloom can no longer rule out. `false` is still a proof of
    /// absence — the xor filter has no false negatives over its build
    /// set, and everything noted since the build is in `fresh`.
    fn may_contain_superset_precise(&self, spec: &Spec) -> bool {
        if !self.may_contain_superset(spec) {
            return false;
        }
        match self.precise.read().as_ref() {
            None => true,
            Some(layer) => spec.iter().all(|p| {
                let key = u64::from(p.0);
                layer.filter.contains(key) || layer.fresh.contains(&key)
            }),
        }
    }

    /// Record that `spec`'s packages are (now) live in this shard.
    /// Called under the shard lock after every merge or insert — only
    /// those make packages live. A hit is not noted: its image already
    /// holds every package of the spec, and every package of a live
    /// image is in the bloom and in `filter ∪ fresh` already, so a note
    /// would move nothing but the rebuild counter.
    fn note_spec(&self, spec: &Spec) {
        for p in spec.iter() {
            let (word, mask) = Self::slot(p);
            // sync: racy pre-check; worst case is a redundant fetch_or
            if self.bits[word].load(Ordering::Relaxed) & mask != mask {
                self.bits[word].fetch_or(mask, Ordering::Relaxed); // sync: idempotent bit-set; readers tolerate stale views by design
            }
        }
        if let Some(layer) = self.precise.write().as_mut() {
            for p in spec.iter() {
                let key = u64::from(p.0);
                // Only ids the static filter cannot vouch for need the
                // exact overlay; keeps `fresh` small between rebuilds.
                if !layer.filter.contains(key) {
                    layer.fresh.insert(key);
                }
            }
        }
        self.notes.fetch_add(1, Ordering::Relaxed); // sync: rebuild heuristic counter; publishes no data
    }

    /// Re-derive the summary from the live images, dropping bits whose
    /// packages were evicted. Must run under the shard lock.
    fn rebuild_from(&self, cache: &ImageCache) {
        let mut fresh = [0u64; SUMMARY_WORDS];
        let mut live: Vec<u64> = Vec::new();
        for img in cache.images() {
            for p in img.spec.iter() {
                let (word, mask) = Self::slot(p);
                fresh[word] |= mask;
                live.push(u64::from(p.0));
            }
        }
        for (word, value) in fresh.iter().enumerate() {
            self.bits[word].store(*value, Ordering::Relaxed); // sync: runs under the shard lock, whose release publishes the bits
        }
        *self.precise.write() = Some(PreciseLayer {
            filter: XorFilter::build(&live),
            fresh: HashSet::new(),
        });
        self.notes.store(0, Ordering::Relaxed); // sync: runs under the shard lock, which orders the reset
    }

    /// Rebuild when enough requests have accumulated.
    fn maybe_rebuild(&self, cache: &ImageCache) {
        // sync: heuristic threshold; staleness only delays a rebuild
        if self.notes.load(Ordering::Relaxed) >= SUMMARY_REBUILD_EVERY {
            self.rebuild_from(cache);
        }
    }

    /// Rebuild immediately because the lock hold now ending evicted
    /// images (once per hold, however many of its requests evicted):
    /// their packages' bits (and precise-layer entries) would otherwise
    /// linger as false "possible" answers until the periodic rebuild —
    /// long-running shards accumulated stale bits until the peek
    /// stopped pruning at all. Must run under the shard lock.
    fn rebuild_after_evictions(&self, cache: &ImageCache) {
        self.stale_rebuilds.fetch_add(1, Ordering::Relaxed); // sync: monotonic stat counter, folded on read
        self.rebuild_from(cache);
    }
}

struct Shard {
    cache: Mutex<ImageCache>,
    summary: PackageSummary,
    /// Open single-flight builds on this shard (see
    /// [`ShardedImageCache::request_single_flight`]).
    flights: SingleFlight,
    /// Requests served from another request's in-flight build.
    coalesce_hits: AtomicU64,
}

/// Pre-resolved handles for the frontend's own metrics (lock
/// contention and peek effectiveness). Shard-*interior* metrics live on
/// each shard's [`ImageCache`] and share the same registry, so the
/// whole picture folds into one snapshot.
struct ShardObs {
    clock: Arc<dyn Clock>,
    lock_wait: Arc<Histogram>,
    lock_hold: Arc<Histogram>,
    peek_skip: Arc<Counter>,
    peek_possible: Arc<Counter>,
    stale_rebuilds: Arc<Counter>,
    flight_coalesced: Arc<Counter>,
}

impl ShardObs {
    fn new(registry: &MetricsRegistry) -> Self {
        ShardObs {
            clock: Arc::clone(registry.clock()),
            lock_wait: registry.histogram(names::SHARD_LOCK_WAIT),
            lock_hold: registry.histogram(names::SHARD_LOCK_HOLD),
            peek_skip: registry.counter(names::SHARD_PEEK_SKIP),
            peek_possible: registry.counter(names::SHARD_PEEK_POSSIBLE),
            stale_rebuilds: registry.counter(names::SHARD_BLOOM_STALE_REBUILDS),
            flight_coalesced: registry.counter(names::SHARD_FLIGHT_COALESCED),
        }
    }
}

struct Inner {
    shards: Box<[Shard]>,
    limit_bytes: u64,
    /// Set once by [`ShardedImageCache::attach_metrics`]; read
    /// lock-free on every request thereafter.
    obs: OnceLock<ShardObs>,
}

/// A clonable, thread-safe, sharded LANDLORD cache. See the module docs
/// for the partitioning model.
#[derive(Clone)]
pub struct ShardedImageCache {
    inner: Arc<Inner>,
}

/// The byte budget of shard `index` out of `shards` under global
/// `limit`: an exact partition (the budgets sum to `limit`).
pub fn shard_limit_bytes(limit: u64, shards: u64, index: u64) -> u64 {
    limit / shards + u64::from(index < limit % shards)
}

impl ShardedImageCache {
    /// Create a sharded cache with `shards` independent shards (CVMFS
    /// no-conflict semantics). `config.limit_bytes` is the *global*
    /// budget, partitioned exactly across shards.
    pub fn new(shards: usize, config: CacheConfig, sizes: Arc<dyn SizeModel>) -> Self {
        Self::with_conflicts(shards, config, sizes, Arc::new(NoConflicts))
    }

    /// Create with an explicit conflict policy.
    pub fn with_conflicts(
        shards: usize,
        config: CacheConfig,
        sizes: Arc<dyn SizeModel>,
        conflicts: Arc<dyn ConflictPolicy>,
    ) -> Self {
        assert!(shards >= 1, "a sharded cache needs at least one shard");
        let n = shards as u64;
        let built: Vec<Shard> = (0..n)
            .map(|i| {
                let shard_config = CacheConfig {
                    limit_bytes: shard_limit_bytes(config.limit_bytes, n, i),
                    ..config
                };
                Shard {
                    cache: Mutex::new(ImageCache::with_conflicts(
                        shard_config,
                        Arc::clone(&sizes),
                        Arc::clone(&conflicts),
                    )),
                    summary: PackageSummary::new(),
                    flights: SingleFlight::new(),
                    coalesce_hits: AtomicU64::new(0),
                }
            })
            .collect();
        ShardedImageCache {
            inner: Arc::new(Inner {
                shards: built.into_boxed_slice(),
                limit_bytes: config.limit_bytes,
                obs: OnceLock::new(),
            }),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The global byte budget (the shard budgets partition it exactly).
    pub fn limit_bytes(&self) -> u64 {
        self.inner.limit_bytes
    }

    /// The shard owning `spec`: the minimum of a seeded hash over its
    /// package ids, mod the shard count (a one-slot MinHash, so similar
    /// specs colocate). The empty spec is owned by shard 0. Pure —
    /// the same spec always routes to the same shard.
    pub fn route(&self, spec: &Spec) -> usize {
        let n = self.inner.shards.len() as u64;
        if n == 1 || spec.is_empty() {
            return 0;
        }
        let mut best = u64::MAX;
        for p in spec.iter() {
            best = best.min(mix2(ROUTE_SEED, u64::from(p.0)));
        }
        (best % n) as usize
    }

    /// Lock-free cross-shard peek: could *any* shard hold an image
    /// satisfying `spec`? `false` proves a global miss without taking a
    /// single lock (modulo summary staleness — a freshly noted spec is
    /// visible only after its writer's critical section). `true` means
    /// only "possibly"; the owning shard's `plan()` remains the
    /// authority.
    pub fn peek_any_superset(&self, spec: &Spec) -> bool {
        self.inner
            .shards
            .iter()
            .any(|s| s.summary.may_contain_superset(spec))
    }

    /// Attach a metrics registry to the frontend and every shard. The
    /// frontend records lock wait/hold times and bloom-peek outcomes;
    /// each shard's [`ImageCache`] records its own plan/apply/eviction
    /// metrics into the *same* registry, where shard contributions fold
    /// exactly (shared atomic counters and histogram buckets). Only the
    /// first call attaches the frontend handles; later calls still
    /// (re-)attach the shards.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        // A lost race here is harmless: the loser's handles resolve to
        // the very same registry entries.
        let _ = self.inner.obs.set(ShardObs::new(registry));
        for shard in self.inner.shards.iter() {
            shard.cache.lock().attach_metrics(registry);
        }
    }

    /// Serve one request under the owning shard's lock: settle, consult
    /// the (now authoritative) summary, plan with the peek, apply, and,
    /// unless it hit, note the spec's packages as live. Returns the
    /// outcome and whether the apply evicted anything; the summary
    /// upkeep that eviction calls for is left to the end of the lock
    /// hold (see [`ShardedImageCache::hold`]).
    fn serve_locked(
        shard: &Shard,
        cache: &mut ImageCache,
        spec: &Spec,
        obs: Option<&ShardObs>,
    ) -> (Outcome, bool) {
        let deletes_before = cache.stats().deletes;
        cache.settle();
        let superset_possible = shard.summary.may_contain_superset_precise(spec);
        if let Some(o) = obs {
            if superset_possible {
                o.peek_possible.inc();
            } else {
                o.peek_skip.inc();
            }
        }
        let plan = cache.plan_with_peek(spec, superset_possible);
        let outcome = cache.apply(spec, &plan);
        if !matches!(outcome, Outcome::Hit { .. }) {
            shard.summary.note_spec(spec);
        }
        (outcome, cache.stats().deletes > deletes_before)
    }

    /// One hold of `shard`'s lock: lock it (recording wait/hold times
    /// when metrics are attached), let `requests` run any number of
    /// requests through [`ShardedImageCache::serve_locked`], then do the
    /// summary upkeep once before the lock is released — an immediate
    /// rebuild if any request in the hold evicted, otherwise the
    /// periodic one. Between a hold's requests the summary may keep
    /// evicted packages' bits; a stale bit only turns a peek "skip" into
    /// "possible" (one extra exact hit scan), never into a false miss,
    /// so every decision is the same as with a rebuild per request.
    fn hold<R>(
        &self,
        shard: &Shard,
        requests: impl FnOnce(&mut dyn FnMut(&Spec) -> Outcome) -> R,
    ) -> R {
        let obs = self.inner.obs.get();
        let wait_start = obs.map(|o| o.clock.now_ticks());
        let mut cache = shard.cache.lock();
        let hold_start = obs.map(|o| {
            let now = o.clock.now_ticks();
            if let Some(start) = wait_start {
                o.lock_wait.record(now.saturating_sub(start));
            }
            now
        });
        let mut evicted = false;
        let result = requests(&mut |spec: &Spec| {
            let (outcome, spec_evicted) = Self::serve_locked(shard, &mut cache, spec, obs);
            evicted |= spec_evicted;
            outcome
        });
        if evicted {
            shard.summary.rebuild_after_evictions(&cache);
            if let Some(o) = obs {
                o.stale_rebuilds.inc();
            }
        } else {
            shard.summary.maybe_rebuild(&cache);
        }
        if let (Some(o), Some(start)) = (obs, hold_start) {
            o.lock_hold
                .record(o.clock.now_ticks().saturating_sub(start));
        }
        result
    }

    /// Process one job request (Algorithm 1) on the owning shard.
    pub fn request(&self, spec: &Spec) -> Outcome {
        let shard = &self.inner.shards[self.route(spec)];
        self.hold(shard, |serve| serve(spec))
    }

    /// Process one request with single-flight coalescing: if another
    /// thread is already planning an identical or superset spec on the
    /// owning shard, park until that leader publishes its [`Outcome`]
    /// and return it instead of planning independently. Returns the
    /// outcome plus whether this request coalesced onto another
    /// request's flight.
    ///
    /// Coalesced requests never touch the shard cache, so `stats()`
    /// counts only leaders; coalesces are reported by
    /// [`ShardedImageCache::coalesce_hits`] and the
    /// `sharded.flight_coalesced` metric. Coalescing is inherently
    /// schedule-dependent — deterministic replays use
    /// [`ShardedImageCache::request`], which never coalesces.
    pub fn request_single_flight(&self, spec: &Spec) -> (Outcome, bool) {
        let shard = &self.inner.shards[self.route(spec)];
        loop {
            match shard.flights.begin(spec) {
                Ticket::Waiter(flight) => {
                    if let Some(outcome) = flight.wait() {
                        shard.coalesce_hits.fetch_add(1, Ordering::Relaxed); // sync: monotonic stat counter, folded on read
                        if let Some(o) = self.inner.obs.get() {
                            o.flight_coalesced.inc();
                        }
                        return (outcome, true);
                    }
                    // The leader abandoned its flight (panicked or
                    // bailed); retry — usually as the new leader.
                }
                Ticket::Leader(guard) => {
                    let outcome = self.hold(shard, |serve| serve(spec));
                    guard.complete(outcome);
                    return (outcome, false);
                }
            }
        }
    }

    /// Total requests served from another request's in-flight build by
    /// [`ShardedImageCache::request_single_flight`], folded across
    /// shards.
    pub fn coalesce_hits(&self) -> u64 {
        self.inner
            .shards
            .iter()
            // sync: monotonic stat counters; a racing fold may lag, never overcount
            .map(|s| s.coalesce_hits.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }

    /// Total summary rebuilds forced by evictions — one per lock hold
    /// that evicted, not one per evicting request — folded across
    /// shards.
    pub fn bloom_stale_rebuilds(&self) -> u64 {
        self.inner
            .shards
            .iter()
            // sync: monotonic stat counters; a racing fold may lag, never overcount
            .map(|s| s.summary.stale_rebuilds.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }

    /// Process a batch of requests (owned or borrowed specs), taking
    /// each shard lock once.
    ///
    /// Requests are grouped by owning shard and served in submission
    /// order within each shard — the order every counter depends on —
    /// so the outcomes (returned in input order) are identical to
    /// calling [`ShardedImageCache::request`] per spec. Each shard the
    /// batch touches costs one lock hold and one summary upkeep, however
    /// many of its requests evict. The lock is held for the shard's
    /// whole share of the batch, so a caller sharing the cache with live
    /// traffic should pass small batches; a warm-up replay with the
    /// cache to itself can pass its whole stream.
    pub fn request_many<S: Borrow<Spec>>(&self, specs: &[S]) -> Vec<Outcome> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shard_count()];
        for (i, spec) in specs.iter().enumerate() {
            by_shard[self.route(spec.borrow())].push(i);
        }
        let mut outcomes: Vec<Option<Outcome>> = vec![None; specs.len()];
        for (shard_index, owned) in by_shard.iter().enumerate() {
            if owned.is_empty() {
                continue;
            }
            self.hold(&self.inner.shards[shard_index], |serve| {
                for &i in owned {
                    outcomes[i] = Some(serve(specs[i].borrow()));
                }
            });
        }
        outcomes.into_iter().flatten().collect()
    }

    /// Folded counter snapshot across all shards (exact sums; see the
    /// module docs for the `unique_bytes` caveat). Shards are sampled
    /// one at a time, so under concurrent writers the snapshot is a
    /// consistent *per-shard* composite, not a global instant.
    pub fn stats(&self) -> CacheStats {
        let mut folded = CacheStats::default();
        for shard in self.inner.shards.iter() {
            let cache = shard.cache.lock();
            let shard_stats = cache.stats();
            folded.merge(&shard_stats);
        }
        folded
    }

    /// Folded container-efficiency accumulator (exact — identical to
    /// recording every request into one accumulator).
    pub fn container_eff(&self) -> ContainerEfficiency {
        let mut folded = ContainerEfficiency::new();
        for shard in self.inner.shards.iter() {
            let cache = shard.cache.lock();
            let shard_eff = cache.container_eff();
            folded.merge(&shard_eff);
        }
        folded
    }

    /// Mean container efficiency over all requests so far (percent).
    pub fn container_efficiency_pct(&self) -> f64 {
        self.container_eff().mean_pct()
    }

    /// Cache efficiency of the folded totals (percent). Uniqueness is
    /// per shard: a package cached by two shards counts twice.
    pub fn cache_efficiency_pct(&self) -> f64 {
        self.stats().cache_efficiency_pct()
    }

    /// Total cached images across shards.
    pub fn len(&self) -> usize {
        let mut total = 0;
        for shard in self.inner.shards.iter() {
            total += shard.cache.lock().len();
        }
        total
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run a closure with exclusive access to one shard's cache
    /// (snapshots, invariant checks, administrative surgery).
    pub fn with_shard<R>(&self, index: usize, f: impl FnOnce(&mut ImageCache) -> R) -> R {
        let mut cache = self.inner.shards[index].cache.lock();
        f(&mut cache)
    }

    /// Re-verify every per-shard invariant plus the cross-shard ones:
    ///
    /// * each shard's own [`ImageCache::check_invariants`] holds;
    /// * the per-shard byte budgets partition the global budget exactly;
    /// * routing is consistent — every constituent spec of every cached
    ///   image routes to the shard caching it (no spec maps to two
    ///   shards, and none migrated);
    /// * each shard's summary covers every live package (the peek can
    ///   produce false positives but never a false miss).
    ///
    /// # Panics
    ///
    /// Panics (with a description) on any inconsistency.
    pub fn check_invariants(&self) {
        let mut limit_sum: u128 = 0;
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let cache = shard.cache.lock();
            cache.check_invariants();
            limit_sum += u128::from(cache.config().limit_bytes);
            for img in cache.images() {
                for constituent in &img.constituents {
                    if constituent.is_empty() {
                        continue;
                    }
                    assert_eq!(
                        self.route(constituent),
                        i,
                        "image {} holds a constituent owned by shard {}, cached in shard {i}",
                        img.id,
                        self.route(constituent)
                    );
                }
                assert!(
                    shard.summary.may_contain_superset(&img.spec),
                    "summary of shard {i} misses live packages of image {}",
                    img.id
                );
                assert!(
                    shard.summary.may_contain_superset_precise(&img.spec),
                    "precise layer of shard {i} misses live packages of image {}",
                    img.id
                );
            }
        }
        assert_eq!(
            limit_sum,
            u128::from(self.inner.limit_bytes),
            "shard byte budgets do not partition the global budget"
        );
    }
}

impl std::fmt::Debug for ShardedImageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedImageCache")
            .field("shards", &self.shard_count())
            .field("limit_bytes", &self.inner.limit_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::UniformSizes;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    fn sharded(shards: usize, alpha: f64, limit: u64) -> ShardedImageCache {
        let cfg = CacheConfig {
            alpha,
            limit_bytes: limit,
            ..CacheConfig::default()
        };
        ShardedImageCache::new(shards, cfg, Arc::new(UniformSizes::new(1)))
    }

    /// A deterministic stream of overlapping specs exercising hits,
    /// merges and evictions.
    fn stream(n: u32) -> Vec<Spec> {
        (0..n)
            .map(|i| {
                let base = (i % 23) * 6;
                spec(&[base, base + 1, base + 2, (i * 13) % 140])
            })
            .collect()
    }

    #[test]
    fn routing_is_pure_and_in_range() {
        let cache = sharded(8, 0.7, 1_000);
        for s in stream(200) {
            let first = cache.route(&s);
            assert!(first < 8);
            assert_eq!(cache.route(&s), first, "routing must be deterministic");
        }
        assert_eq!(cache.route(&Spec::empty()), 0);
    }

    #[test]
    fn budgets_partition_global_limit_exactly() {
        for (limit, shards) in [(0u64, 3usize), (7, 8), (1_000, 8), (u64::MAX, 6), (13, 1)] {
            let cache = sharded(shards, 0.5, limit);
            let mut sum: u128 = 0;
            for i in 0..shards {
                sum += u128::from(cache.with_shard(i, |c| c.config().limit_bytes));
            }
            assert_eq!(sum, u128::from(limit), "limit {limit} over {shards} shards");
            for i in 0..shards {
                let expected = shard_limit_bytes(limit, shards as u64, i as u64);
                assert_eq!(cache.with_shard(i, |c| c.config().limit_bytes), expected);
            }
        }
    }

    #[test]
    fn single_shard_matches_plain_image_cache() {
        let cfg = CacheConfig {
            alpha: 0.7,
            limit_bytes: 400,
            ..CacheConfig::default()
        };
        let sharded = ShardedImageCache::new(1, cfg, Arc::new(UniformSizes::new(1)));
        let mut plain = ImageCache::new(cfg, Arc::new(UniformSizes::new(1)));
        for s in stream(300) {
            let a = sharded.request(&s);
            let b = plain.request(&s);
            assert_eq!(a, b, "one shard must reproduce the unsharded cache");
        }
        assert_eq!(sharded.stats(), plain.stats());
        sharded.check_invariants();
        plain.check_invariants();
    }

    #[test]
    fn request_many_matches_one_by_one() {
        // A budget small enough that batches evict, so stale summary
        // bits within a hold are actually exercised.
        let batched = sharded(4, 0.7, 120);
        let sequential = sharded(4, 0.7, 120);
        let jobs = stream(400);
        let mut expected = Vec::new();
        for s in &jobs {
            expected.push(sequential.request(s));
        }
        for chunk in jobs.chunks(37) {
            let got = batched.request_many(chunk);
            batched.check_invariants();
            assert_eq!(got.len(), chunk.len());
            for outcome in got {
                assert_eq!(outcome, expected.remove(0));
            }
        }
        assert!(
            batched.stats().deletes > 0,
            "test premise: batches must evict"
        );
        assert_eq!(batched.stats(), sequential.stats());
        let (got, want) = (batched.container_eff(), sequential.container_eff());
        assert_eq!(got.samples(), want.samples());
        assert_eq!(got.clamped_samples(), want.clamped_samples());
        assert_eq!(got.mean_pct().to_bits(), want.mean_pct().to_bits());
        batched.check_invariants();
        sequential.check_invariants();
    }

    /// `bloom_stale_rebuilds` counts lock holds, not requests: one batch
    /// whose requests evict several times rebuilds once, while the same
    /// requests one by one rebuild after each evicting request.
    #[test]
    fn stale_rebuilds_count_holds_not_requests() {
        // One shard holding exactly one 3-package image, alpha 0 so
        // disjoint specs never merge: every request after the first
        // evicts its predecessor.
        let jobs: Vec<Spec> = (0..5u32)
            .map(|i| spec(&[i * 10, i * 10 + 1, i * 10 + 2]))
            .collect();
        let batched = sharded(1, 0.0, 3);
        batched.request_many(&jobs);
        batched.check_invariants();
        assert_eq!(batched.stats().deletes, 4, "test premise: four evictions");
        assert_eq!(batched.bloom_stale_rebuilds(), 1);

        let sequential = sharded(1, 0.0, 3);
        for s in &jobs {
            sequential.request(s);
        }
        assert_eq!(sequential.stats(), batched.stats());
        assert_eq!(sequential.bloom_stale_rebuilds(), 4);
    }

    #[test]
    fn folded_stats_are_exact_sums() {
        let cache = sharded(8, 0.6, 500);
        for s in stream(500) {
            cache.request(&s);
        }
        let folded = cache.stats();
        let mut manual = CacheStats::default();
        for i in 0..cache.shard_count() {
            let shard_stats = cache.with_shard(i, |c| c.stats());
            manual.merge(&shard_stats);
        }
        assert_eq!(folded, manual);
        assert_eq!(folded.requests, 500);
        assert_eq!(
            folded.requests,
            folded.hits + folded.merges + folded.inserts
        );
        let samples = cache.container_eff().samples();
        assert_eq!(samples, 500);
        cache.check_invariants();
    }

    #[test]
    fn peek_never_claims_a_false_miss() {
        let cache = sharded(8, 0.0, u64::MAX);
        let jobs = stream(300);
        for s in &jobs {
            cache.request(s);
        }
        // Every cached spec must still be "possible" everywhere it is
        // cached; and a peek miss must mean a true global miss.
        for s in &jobs {
            assert!(
                cache.peek_any_superset(s),
                "spec served earlier peeked as a guaranteed miss"
            );
        }
        for probe in (0..200).map(|i| spec(&[1000 + i, 2000 + i])) {
            if !cache.peek_any_superset(&probe) {
                for i in 0..cache.shard_count() {
                    let hit = cache.with_shard(i, |c| c.find_satisfying(&probe).map(|h| h.id));
                    assert_eq!(hit, None, "peek miss but shard {i} satisfies the probe");
                }
            }
        }
        cache.check_invariants();
    }

    #[test]
    fn concurrent_submitters_fold_to_exact_totals() {
        const THREADS: u32 = 8;
        const PER_THREAD: u32 = 250;
        let cache = sharded(8, 0.7, 700);
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let base = (i % 20) * 8;
                    let ids = [base, base + 1, base + 2, (t * 7 + i) % 160];
                    cache.request(&Spec::from_ids(ids.map(PackageId)));
                }
            }));
        }
        for h in handles {
            h.join().expect("submitter panicked");
        }
        let s = cache.stats();
        assert_eq!(s.requests, u64::from(THREADS * PER_THREAD));
        assert_eq!(s.requests, s.hits + s.merges + s.inserts);
        assert_eq!(cache.container_eff().samples(), s.requests);
        cache.check_invariants();
    }

    #[test]
    fn precise_layer_keeps_pruning_after_bloom_saturates() {
        // One shard, unbounded budget, disjoint specs: a few thousand
        // distinct packages set every bloom bit, so only the xor layer
        // can still prove absence.
        let cache = sharded(1, 0.0, u64::MAX);
        for i in 0..2000u32 {
            cache.request(&spec(&[i * 3, i * 3 + 1, i * 3 + 2]));
        }
        cache.check_invariants();
        let summary = &cache.inner.shards[0].summary;
        assert!(
            summary
                .bits
                .iter()
                .all(|w| w.load(Ordering::Relaxed) == u64::MAX),
            "test premise: the 256-bit bloom should be saturated"
        );
        // Served specs must still peek as possible (no false miss)...
        for i in (0..2000u32).step_by(97) {
            let s = spec(&[i * 3, i * 3 + 1, i * 3 + 2]);
            assert!(summary.may_contain_superset_precise(&s));
        }
        // ...while probes of absent packages are overwhelmingly pruned
        // despite the saturated bloom claiming "possible" for all.
        let probes = 1000u32;
        let pruned = (0..probes)
            .filter(|&i| !summary.may_contain_superset_precise(&spec(&[1_000_000 + i])))
            .count();
        assert!(
            pruned as f64 / f64::from(probes) > 0.95,
            "xor layer pruned only {pruned}/{probes} absent probes"
        );
    }

    #[test]
    fn summary_rebuild_tightens_after_evictions() {
        // A tiny budget forces constant eviction; after enough requests
        // to trigger rebuilds, the summary must still cover live images
        // (checked by check_invariants) while remaining useful.
        let cache = sharded(2, 0.0, 16);
        for s in stream(600) {
            cache.request(&s);
        }
        cache.check_invariants();
        assert!(cache.stats().deletes > 0, "tiny budget must evict");
        assert!(
            cache.bloom_stale_rebuilds() > 0,
            "evictions must force eager summary rebuilds"
        );
    }

    /// Regression (PR 10): the bloom was add-only — evicting a shard's
    /// only superset image left its bits set, so the peek kept
    /// answering "possible" for specs the shard provably could not
    /// satisfy. Evictions must now rebuild the summary on the spot and
    /// the peek must go cold.
    #[test]
    fn evicting_the_only_superset_image_cools_the_peek() {
        // One shard, a budget holding exactly one 3-package image,
        // alpha 0 so disjoint specs never merge.
        let cache = sharded(1, 0.0, 3);
        let first = spec(&[1, 2, 3]);
        let second = spec(&[50, 51, 52]); // disjoint: inserting it evicts `first`
        cache.request(&first);
        assert!(
            cache.peek_any_superset(&first),
            "freshly inserted spec must peek as possible"
        );
        cache.request(&second);
        cache.check_invariants();
        assert_eq!(
            cache.stats().deletes,
            1,
            "test premise: the second insert must evict the first image"
        );
        assert_eq!(
            cache.with_shard(0, |c| c.find_satisfying(&first).map(|h| h.id)),
            None
        );
        assert!(
            !cache.peek_any_superset(&first),
            "evicted spec still peeks as possible: stale bloom bits were never cleared"
        );
        let summary = &cache.inner.shards[0].summary;
        assert!(!summary.may_contain_superset(&first));
        assert!(!summary.may_contain_superset_precise(&first));
        assert!(
            summary.may_contain_superset_precise(&second),
            "the live image must stay visible after the rebuild"
        );
        assert_eq!(cache.bloom_stale_rebuilds(), 1);
    }

    /// The batch form of `evicting_the_only_superset_image_cools_the_peek`:
    /// one `request_many` call that evicts the only image holding some
    /// packages must leave them peeking as absent, i.e. the summary is
    /// rebuilt when the hold ends.
    #[test]
    fn batch_evicting_the_only_superset_image_cools_the_peek() {
        let cache = sharded(1, 0.0, 3);
        let first = spec(&[1, 2, 3]);
        let second = spec(&[50, 51, 52]); // disjoint: inserting it evicts `first`
        cache.request_many(&[first.clone(), second.clone()]);
        cache.check_invariants();
        assert_eq!(
            cache.stats().deletes,
            1,
            "test premise: the batch must evict the first image"
        );
        assert!(
            !cache.peek_any_superset(&first),
            "evicted spec still peeks as possible after the batch"
        );
        let summary = &cache.inner.shards[0].summary;
        assert!(!summary.may_contain_superset_precise(&first));
        assert!(summary.may_contain_superset_precise(&second));
        assert_eq!(cache.bloom_stale_rebuilds(), 1);
    }

    #[test]
    fn single_flight_leader_serves_and_solo_requests_never_coalesce() {
        let cache = sharded(4, 0.7, 600);
        let plain = sharded(4, 0.7, 600);
        for s in stream(300) {
            let (outcome, coalesced) = cache.request_single_flight(&s);
            assert!(!coalesced, "a lone thread can never coalesce");
            assert_eq!(outcome, plain.request(&s));
        }
        assert_eq!(cache.stats(), plain.stats());
        assert_eq!(cache.coalesce_hits(), 0);
        for shard in cache.inner.shards.iter() {
            assert_eq!(shard.flights.inflight_len(), 0, "flights must drain");
        }
        cache.check_invariants();
    }

    #[test]
    fn concurrent_identical_specs_coalesce_under_single_flight() {
        use landlord_obs::LogicalClock;

        const THREADS: u32 = 8;
        const ROUNDS: u32 = 200;
        let cache = sharded(4, 0.7, 10_000);
        let registry = MetricsRegistry::new(Arc::new(LogicalClock::new()));
        cache.attach_metrics(&registry);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let cache = cache.clone();
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    // Every thread asks for the same hot spec at the
                    // same moment: at most one leader per round per
                    // shard, everyone else coalesces or hits.
                    barrier.wait();
                    let base = (i % 10) * 4;
                    let s = Spec::from_ids([base, base + 1, base + 2].map(PackageId));
                    cache.request_single_flight(&s);
                }
            }));
        }
        for h in handles {
            h.join().expect("submitter panicked");
        }
        let stats = cache.stats();
        let coalesced = cache.coalesce_hits();
        assert_eq!(
            stats.requests + coalesced,
            u64::from(THREADS * ROUNDS),
            "every request is either served by the cache or coalesced"
        );
        assert_eq!(
            registry
                .snapshot()
                .counters
                .get(names::SHARD_FLIGHT_COALESCED)
                .copied()
                .unwrap_or(0),
            coalesced,
            "metric and internal counter must agree"
        );
        cache.check_invariants();
    }

    #[test]
    fn attached_metrics_count_peeks_and_core_ops() {
        use landlord_obs::LogicalClock;

        let cache = sharded(4, 0.7, 200);
        let registry = MetricsRegistry::new(Arc::new(LogicalClock::new()));
        cache.attach_metrics(&registry);
        let jobs = stream(300);
        for s in &jobs {
            cache.request(s);
        }
        cache.check_invariants();
        let snap = registry.snapshot();
        // Every request resolved its peek one way or the other.
        let skips = snap
            .counters
            .get(names::SHARD_PEEK_SKIP)
            .copied()
            .unwrap_or(0);
        let possible = snap
            .counters
            .get(names::SHARD_PEEK_POSSIBLE)
            .copied()
            .unwrap_or(0);
        assert_eq!(skips + possible, jobs.len() as u64);
        // Shard-interior instrumentation flows into the same registry.
        assert_eq!(snap.histograms[names::APPLY_TICKS].count, jobs.len() as u64);
        assert_eq!(
            snap.histograms[names::SHARD_LOCK_WAIT].count,
            jobs.len() as u64
        );
        assert_eq!(
            snap.counters.get(names::EVICTIONS).copied().unwrap_or(0),
            cache.stats().deletes
        );
    }

    /// The observability analogue of the `sharded_stress` counter-fold
    /// property: a sharded run with one shared registry produces
    /// exactly the same `core.*` metrics as per-shard plain caches,
    /// each with its own registry, replaying their route-partitioned
    /// subsequences and merging the registries afterwards.
    #[test]
    fn shared_registry_equals_partitioned_registries_merged() {
        use landlord_obs::LogicalClock;

        let shards = 4usize;
        let limit = 300u64;
        let jobs = stream(400);

        let sharded = sharded(shards, 0.7, limit);
        let shared = MetricsRegistry::new(Arc::new(LogicalClock::new()));
        sharded.attach_metrics(&shared);
        for s in &jobs {
            sharded.request(s);
        }
        sharded.check_invariants();

        let folded = MetricsRegistry::new(Arc::new(LogicalClock::new()));
        for index in 0..shards {
            let cfg = CacheConfig {
                alpha: 0.7,
                limit_bytes: shard_limit_bytes(limit, shards as u64, index as u64),
                ..CacheConfig::default()
            };
            let mut plain = ImageCache::new(cfg, Arc::new(UniformSizes::new(1)));
            let own = MetricsRegistry::new(Arc::new(LogicalClock::new()));
            plain.attach_metrics(&own);
            for s in jobs.iter().filter(|s| sharded.route(s) == index) {
                plain.request(s);
            }
            plain.check_invariants();
            folded.merge(&own);
        }

        let shared_snap = shared.snapshot();
        let folded_snap = folded.snapshot();
        // Compare the shard-interior (core.*) subset; the sharded.*
        // frontend metrics exist only on the sharded side.
        for (name, hist) in &folded_snap.histograms {
            assert_eq!(
                shared_snap.histograms.get(name),
                Some(hist),
                "histogram {name} diverged between shared and folded registries"
            );
        }
        assert_eq!(
            folded_snap.counters.get(names::EVICTIONS),
            shared_snap.counters.get(names::EVICTIONS)
        );
        assert_eq!(
            folded_snap.gauges.get(names::RESIDENT_IMAGES),
            shared_snap.gauges.get(names::RESIDENT_IMAGES)
        );
    }
}
