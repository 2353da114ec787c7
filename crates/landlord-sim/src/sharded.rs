//! Multi-threaded trace replay against the sharded cache frontend.
//!
//! The paper's site-wide deployment (§V) is many submitters hammering
//! one shared cache. This driver replays a prepared stream with `M`
//! worker threads against a [`ShardedImageCache`] — and stays
//! **deterministic**: each shard is assigned to exactly one worker
//! (`shard % threads`, by the same pure routing the cache itself uses),
//! and every worker hands its shards' requests, in stream order, to one
//! [`ShardedImageCache::request_many`] call. That call serves each
//! shard's whole run in one lock hold, so each shard observes exactly
//! the subsequence — in exactly the order — it would observe under a
//! single-threaded replay, with one hold and at most one summary
//! rebuild per shard whatever the thread count. The folded counters
//! are therefore independent of the thread count; the
//! `sharded_stress` proptest pins this equality down.

use crate::simulator::RunResult;
use landlord_core::cache::{CacheConfig, ShardedImageCache};
use landlord_core::sizes::SizeModel;
use landlord_core::spec::Spec;
use std::sync::Arc;

/// Replay `stream` against a fresh [`ShardedImageCache`] with `shards`
/// shards and `threads` worker threads. Deterministic in the stream and
/// config regardless of `threads` (see the module docs).
///
/// An optional metrics `registry` is attached before the replay. The
/// `core.*` metrics recorded into it fold exactly: at a fixed stream
/// and config they are independent of both the thread count and
/// whether shards share one registry or record into private registries
/// merged afterwards.
///
/// The time series is not sampled (there is no global request order to
/// sample along); `series` comes back empty.
pub fn simulate_stream_sharded_observed(
    stream: &[Spec],
    cache_config: CacheConfig,
    sizes: Arc<dyn SizeModel>,
    shards: usize,
    threads: usize,
    registry: Option<&landlord_obs::MetricsRegistry>,
) -> RunResult {
    let cache = ShardedImageCache::new(shards.max(1), cache_config, sizes);
    if let Some(registry) = registry {
        cache.attach_metrics(registry);
    }
    replay_sharded(&cache, stream, threads.max(1));
    RunResult {
        final_stats: cache.stats(),
        container_eff_pct: cache.container_efficiency_pct(),
        cache_eff_pct: cache.cache_efficiency_pct(),
        series: Vec::new(),
        faults: None,
    }
}

/// Drive one prepared stream into an existing sharded cache with
/// `threads` workers, shard-affine and in per-shard stream order: one
/// lock hold per shard for the whole replay.
pub fn replay_sharded(cache: &ShardedImageCache, stream: &[Spec], threads: usize) {
    let threads = threads.max(1).min(cache.shard_count());
    let mut by_worker: Vec<Vec<&Spec>> = vec![Vec::new(); threads];
    for spec in stream {
        by_worker[cache.route(spec) % threads].push(spec);
    }
    std::thread::scope(|scope| {
        for specs in &by_worker {
            scope.spawn(move || cache.request_many(specs));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, WorkloadConfig, WorkloadScheme};
    use landlord_core::cache::{shard_limit_bytes, CacheStats, ImageCache};
    use landlord_core::metrics::ContainerEfficiency;
    use landlord_repo::{RepoConfig, Repository};

    fn repo() -> Repository {
        Repository::generate(&RepoConfig::small_for_tests(31))
    }

    fn stream() -> Vec<Spec> {
        stream_with_repeats(3)
    }

    fn stream_with_repeats(repeats: usize) -> Vec<Spec> {
        let w = WorkloadConfig {
            unique_jobs: 60,
            repeats,
            max_initial_selection: 8,
            scheme: WorkloadScheme::DependencyClosure,
            seed: 5,
        };
        workload::generate_stream(&repo(), &w)
    }

    fn cfg(limit: u64) -> CacheConfig {
        CacheConfig {
            alpha: 0.7,
            limit_bytes: limit,
            ..CacheConfig::default()
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let r = repo();
        let jobs = stream();
        let sizes: Arc<dyn SizeModel> = Arc::new(r.size_table());
        let config = cfg(r.total_bytes() / 2);
        let baseline =
            simulate_stream_sharded_observed(&jobs, config, Arc::clone(&sizes), 8, 1, None);
        for threads in [2, 4, 8] {
            let run = simulate_stream_sharded_observed(
                &jobs,
                config,
                Arc::clone(&sizes),
                8,
                threads,
                None,
            );
            assert_eq!(
                run.final_stats, baseline.final_stats,
                "{threads} threads diverged from single-threaded replay"
            );
            assert_eq!(run.container_eff_pct, baseline.container_eff_pct);
        }
    }

    #[test]
    fn folded_counters_equal_partitioned_single_threaded_replay() {
        let r = repo();
        let jobs = stream();
        let sizes: Arc<dyn SizeModel> = Arc::new(r.size_table());
        let shards = 4usize;
        let config = cfg(r.total_bytes() / 3);

        let sharded = ShardedImageCache::new(shards, config, Arc::clone(&sizes));
        replay_sharded(&sharded, &jobs, 4);
        sharded.check_invariants();

        // Reference: one plain ImageCache per shard, fed exactly the
        // subsequence the router assigns, with the partitioned budget.
        let mut folded = CacheStats::default();
        let mut eff = ContainerEfficiency::new();
        for shard in 0..shards {
            let shard_config = CacheConfig {
                limit_bytes: shard_limit_bytes(config.limit_bytes, shards as u64, shard as u64),
                ..config
            };
            let mut reference = ImageCache::new(shard_config, Arc::clone(&sizes));
            for spec in jobs.iter().filter(|s| sharded.route(s) == shard) {
                reference.request(spec);
            }
            reference.check_invariants();
            let shard_stats = reference.stats();
            folded.merge(&shard_stats);
            let shard_eff = reference.container_eff();
            eff.merge(&shard_eff);
        }
        assert_eq!(sharded.stats(), folded);
        assert_eq!(
            sharded.container_eff().samples(),
            eff.samples(),
            "container-efficiency sample counts diverged"
        );
        assert!(
            (sharded.container_efficiency_pct() - eff.mean_pct()).abs() < 1e-9,
            "container-efficiency means diverged"
        );
    }

    /// The metrics analogue of the counter-fold property above, under
    /// real concurrency: a 4-thread sharded replay recording into one
    /// shared registry produces exactly the same deterministic `core.*`
    /// metrics as per-shard single-threaded replays recording into
    /// private registries merged afterwards.
    #[test]
    fn concurrent_metrics_fold_equals_partitioned_registries() {
        use landlord_obs::{LogicalClock, MetricsRegistry};

        let r = repo();
        let jobs = stream();
        let sizes: Arc<dyn SizeModel> = Arc::new(r.size_table());
        let shards = 4usize;
        let config = cfg(r.total_bytes() / 3);

        let sharded = ShardedImageCache::new(shards, config, Arc::clone(&sizes));
        let shared = MetricsRegistry::new(Arc::new(LogicalClock::new()));
        sharded.attach_metrics(&shared);
        replay_sharded(&sharded, &jobs, 4);
        sharded.check_invariants();

        let folded = MetricsRegistry::new(Arc::new(LogicalClock::new()));
        for shard in 0..shards {
            let shard_config = CacheConfig {
                limit_bytes: shard_limit_bytes(config.limit_bytes, shards as u64, shard as u64),
                ..config
            };
            let mut reference = ImageCache::new(shard_config, Arc::clone(&sizes));
            let own = MetricsRegistry::new(Arc::new(LogicalClock::new()));
            reference.attach_metrics(&own);
            for spec in jobs.iter().filter(|s| sharded.route(s) == shard) {
                reference.request(spec);
            }
            reference.check_invariants();
            folded.merge(&own);
        }

        let shared_snap = shared.snapshot();
        let folded_snap = folded.snapshot();
        for (name, hist) in &folded_snap.histograms {
            assert_eq!(
                shared_snap.histograms.get(name),
                Some(hist),
                "histogram {name} diverged under concurrency"
            );
        }
        for (name, value) in &folded_snap.counters {
            assert_eq!(
                shared_snap.counters.get(name),
                Some(value),
                "counter {name} diverged under concurrency"
            );
        }
        for (name, value) in &folded_snap.gauges {
            assert_eq!(
                shared_snap.gauges.get(name),
                Some(value),
                "gauge {name} diverged under concurrency"
            );
        }
    }

    /// The stateful eviction policies (S3-FIFO's queue rotation,
    /// sampled LHD's seeded draws) through the sharded frontend:
    /// thread-count independence AND exact equality with per-shard
    /// plain-cache replays. Each shard owns an independent evictor
    /// built from the same config (including `eviction_seed`), so the
    /// fold must be exact — an α=0 eviction-heavy config makes victim
    /// selection constant, not incidental.
    #[test]
    fn stateful_eviction_policies_fold_exactly_and_ignore_thread_count() {
        use landlord_core::policy::EvictionPolicy;

        let r = repo();
        let jobs = stream();
        let sizes: Arc<dyn SizeModel> = Arc::new(r.size_table());
        let shards = 4usize;
        for eviction in [EvictionPolicy::S3Fifo, EvictionPolicy::LhdSample] {
            let config = CacheConfig {
                alpha: 0.0,
                limit_bytes: r.total_bytes() / 3,
                eviction,
                eviction_seed: 42,
                ..CacheConfig::default()
            };

            let baseline = simulate_stream_sharded_observed(
                &jobs,
                config,
                Arc::clone(&sizes),
                shards,
                1,
                None,
            );
            for threads in [2, 4] {
                let run = simulate_stream_sharded_observed(
                    &jobs,
                    config,
                    Arc::clone(&sizes),
                    shards,
                    threads,
                    None,
                );
                assert_eq!(
                    run.final_stats, baseline.final_stats,
                    "{eviction:?}: {threads} threads diverged from single-threaded replay"
                );
            }

            let sharded = ShardedImageCache::new(shards, config, Arc::clone(&sizes));
            replay_sharded(&sharded, &jobs, 4);
            sharded.check_invariants();
            let mut folded = CacheStats::default();
            for shard in 0..shards {
                let shard_config = CacheConfig {
                    limit_bytes: shard_limit_bytes(config.limit_bytes, shards as u64, shard as u64),
                    ..config
                };
                let mut reference = ImageCache::new(shard_config, Arc::clone(&sizes));
                for spec in jobs.iter().filter(|s| sharded.route(s) == shard) {
                    reference.request(spec);
                }
                reference.check_invariants();
                folded.merge(&reference.stats());
            }
            assert_eq!(
                sharded.stats(),
                folded,
                "{eviction:?}: sharded fold diverged from partitioned plain caches"
            );
            assert!(
                folded.deletes > 0,
                "{eviction:?}: scenario exercised no evictions; tighten the limit"
            );
        }
    }

    /// A replay holds each shard's lock once, whatever the thread
    /// count: one `sharded.lock_hold_ticks` observation per shard that
    /// received requests, and at most one eviction-forced summary
    /// rebuild per shard.
    #[test]
    fn replay_holds_each_shard_once_at_any_thread_count() {
        use landlord_core::cache::observe::names;
        use landlord_obs::{LogicalClock, MetricsRegistry};
        use std::collections::BTreeSet;

        let r = repo();
        // 1,200 requests: well over a hundred per busy shard, so a
        // replay that split a shard's run into several holds shows.
        let jobs = stream_with_repeats(20);
        let sizes: Arc<dyn SizeModel> = Arc::new(r.size_table());
        let shards = 8usize;
        let config = cfg(r.total_bytes() / 3);
        let router = ShardedImageCache::new(shards, config, Arc::clone(&sizes));
        let busy: BTreeSet<usize> = jobs.iter().map(|s| router.route(s)).collect();
        assert!(busy.len() > 1, "the stream must spread over several shards");
        for threads in [1, 2, 3, 8] {
            let registry = MetricsRegistry::new(Arc::new(LogicalClock::new()));
            simulate_stream_sharded_observed(
                &jobs,
                config,
                Arc::clone(&sizes),
                shards,
                threads,
                Some(&registry),
            );
            let snap = registry.snapshot();
            assert_eq!(
                snap.histograms[names::SHARD_LOCK_HOLD].count,
                busy.len() as u64,
                "{threads} threads: one hold per busy shard"
            );
            let rebuilds = snap.counters[names::SHARD_BLOOM_STALE_REBUILDS];
            assert!(
                (1..=shards as u64).contains(&rebuilds),
                "{threads} threads: {rebuilds} eviction rebuilds for {shards} shards"
            );
        }
    }

    #[test]
    fn more_threads_than_shards_is_clamped_not_wrong() {
        let r = repo();
        let jobs = stream();
        let sizes: Arc<dyn SizeModel> = Arc::new(r.size_table());
        let config = cfg(r.total_bytes());
        let narrow =
            simulate_stream_sharded_observed(&jobs, config, Arc::clone(&sizes), 2, 16, None);
        let wide = simulate_stream_sharded_observed(&jobs, config, Arc::clone(&sizes), 2, 2, None);
        assert_eq!(narrow.final_stats, wide.final_stats);
        assert_eq!(narrow.final_stats.requests as usize, jobs.len());
    }
}
