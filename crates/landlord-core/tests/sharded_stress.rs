//! Concurrent stress of [`ShardedImageCache`]: under any thread
//! interleaving, the folded global counters must equal a
//! single-threaded replay of the same stream partitioned by shard
//! ownership — exactly, not approximately.
//!
//! Run with `cargo test --features paranoid` to additionally re-verify
//! every per-shard invariant after *each* request (debug builds): the
//! sharded `request` goes through `ImageCache::apply`, whose paranoid
//! hook fires inside the owning shard's lock. The CI step pins this
//! with `--test-threads=8` so the stress cases themselves interleave.

use landlord_core::cache::{
    shard_limit_bytes, CacheConfig, CacheStats, ImageCache, ShardedImageCache,
};
use landlord_core::metrics::ContainerEfficiency;
use landlord_core::sizes::UniformSizes;
use landlord_core::spec::{PackageId, Spec};
use proptest::prelude::*;
use std::sync::Arc;

const UNIVERSE: u32 = 80;
const THREADS: usize = 4;

fn arb_stream() -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec(
        proptest::collection::vec(0..UNIVERSE, 1..10)
            .prop_map(|v| Spec::from_ids(v.into_iter().map(PackageId))),
        8..40,
    )
}

fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (0.0f64..=1.0, 8u64..120).prop_map(|(alpha, limit)| CacheConfig {
        alpha,
        limit_bytes: limit,
        ..CacheConfig::default()
    })
}

/// Single-threaded reference: replay `stream`'s per-shard subsequences
/// (in stream order) into one plain [`ImageCache`] per shard with the
/// partitioned budget, and fold the results.
fn partitioned_replay(
    router: &ShardedImageCache,
    cfg: CacheConfig,
    shards: usize,
    stream: &[Spec],
) -> (CacheStats, ContainerEfficiency) {
    let mut folded = CacheStats::default();
    let mut eff = ContainerEfficiency::new();
    for shard in 0..shards {
        let shard_cfg = CacheConfig {
            limit_bytes: shard_limit_bytes(cfg.limit_bytes, shards as u64, shard as u64),
            ..cfg
        };
        let mut reference = ImageCache::new(shard_cfg, Arc::new(UniformSizes::new(1)));
        for spec in stream.iter().filter(|s| router.route(s) == shard) {
            reference.request(spec);
        }
        reference.check_invariants();
        let stats = reference.stats();
        folded.merge(&stats);
        let shard_eff = reference.container_eff();
        eff.merge(&shard_eff);
    }
    (folded, eff)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Global hit/merge/insert/delete counters of a concurrent sharded
    /// replay equal the single-threaded partitioned replay exactly.
    #[test]
    fn sharded_stress_counters_match_partitioned_replay(
        cfg in arb_config(),
        shards in 1usize..=8,
        stream in arb_stream(),
    ) {
        let cache = ShardedImageCache::new(shards, cfg, Arc::new(UniformSizes::new(1)));

        // Shard-affine workers, per-shard stream order: worker w owns
        // the shards j with j % THREADS == w.
        let mut by_shard: Vec<Vec<&Spec>> = vec![Vec::new(); shards];
        for spec in &stream {
            by_shard[cache.route(spec)].push(spec);
        }
        std::thread::scope(|scope| {
            for worker in 0..THREADS.min(shards) {
                let cache = cache.clone();
                let by_shard = &by_shard;
                scope.spawn(move || {
                    for (shard, owned) in by_shard.iter().enumerate() {
                        if shard % THREADS.min(shards) != worker {
                            continue;
                        }
                        for spec in owned {
                            cache.request(spec);
                        }
                    }
                });
            }
        });
        cache.check_invariants();

        let (expected_stats, expected_eff) = partitioned_replay(&cache, cfg, shards, &stream);
        prop_assert_eq!(cache.stats(), expected_stats);
        let eff = cache.container_eff();
        prop_assert_eq!(eff.samples(), expected_eff.samples());
        prop_assert_eq!(eff.clamped_samples(), expected_eff.clamped_samples());
        prop_assert!((eff.mean_pct() - expected_eff.mean_pct()).abs() < 1e-9);
        let s = cache.stats();
        prop_assert_eq!(s.requests as usize, stream.len());
        prop_assert_eq!(s.requests, s.hits + s.merges + s.inserts);
    }

    /// The batched entry point under chaotic interleaving (every worker
    /// hammers the whole stream in chunks) still conserves counters:
    /// requests partition into hits, merges and inserts, and the folded
    /// accumulators agree with themselves across read paths.
    #[test]
    fn sharded_stress_chaotic_batches_conserve_counters(
        cfg in arb_config(),
        shards in 1usize..=8,
        stream in arb_stream(),
    ) {
        let cache = ShardedImageCache::new(shards, cfg, Arc::new(UniformSizes::new(1)));
        std::thread::scope(|scope| {
            for worker in 0..THREADS {
                let cache = cache.clone();
                let stream = &stream;
                scope.spawn(move || {
                    // Workers deliberately overlap: same specs, different
                    // chunkings — a worst case the determinism contract
                    // does not cover, but conservation must survive.
                    for chunk in stream.chunks(worker + 1) {
                        cache.request_many(chunk);
                    }
                });
            }
        });
        cache.check_invariants();
        let s = cache.stats();
        prop_assert_eq!(s.requests, (THREADS as u64) * stream.len() as u64);
        prop_assert_eq!(s.requests, s.hits + s.merges + s.inserts);
        prop_assert_eq!(cache.container_eff().samples(), s.requests);
    }
}
