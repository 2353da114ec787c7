//! Concurrent stress of [`ShardedImageCache`] (one shard, i.e. one
//! coarse lock, and four) under randomized request streams, re-checking
//! the full extended invariant set afterwards.
//!
//! Run with `cargo test --features paranoid` to additionally re-verify
//! every invariant after *each* request (debug builds): every sharded
//! request is applied by its shard's `ImageCache`, whose paranoid hook
//! fires inside the shard lock, so any transiently broken state is
//! caught at the exact mutation that introduced it.

use landlord_core::cache::{CacheConfig, ShardedImageCache};
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

proptest! {
    // Threads multiply the per-case cost; 48 cases × 4 threads still
    // stresses every (alpha, limit) region.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn concurrent_streams_uphold_extended_invariants(
        cfg in arb_config(),
        streams in proptest::collection::vec(arb_stream(), THREADS..=THREADS),
    ) {
        for shards in [1, 4] {
            let cache = ShardedImageCache::new(shards, cfg, Arc::new(UniformSizes::new(1)));

            let handles: Vec<_> = streams
                .iter()
                .cloned()
                .map(|stream| {
                    let cache = cache.clone();
                    std::thread::spawn(move || {
                        for spec in &stream {
                            cache.request(spec);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("stress thread panicked");
            }

            // The extended check re-derives, per shard, LRU recency
            // order, the posting table, and superset-lookup
            // consistency from scratch, plus routing, the peek summaries
            // and the byte-budget partition across shards.
            cache.check_invariants();

            let s = cache.stats();
            prop_assert_eq!(s.requests, s.hits + s.merges + s.inserts);
            prop_assert!(s.unique_bytes <= s.total_bytes);
        }
    }

    #[test]
    fn sequential_restore_roundtrip_upholds_invariants(
        cfg in arb_config(),
        stream in arb_stream(),
    ) {
        use landlord_core::cache::ImageCache;
        use landlord_core::conflict::NoConflicts;

        let mut cache = ImageCache::new(cfg, Arc::new(UniformSizes::new(1)));
        for spec in &stream {
            cache.request(spec);
        }
        cache.check_invariants();

        let mut restored = ImageCache::restore(
            cache.snapshot(),
            Arc::new(UniformSizes::new(1)),
            Arc::new(NoConflicts),
        )
        .expect("snapshot of a consistent cache restores");
        restored.check_invariants();
        for spec in stream.iter().rev() {
            restored.request(spec);
        }
        restored.check_invariants();
    }
}
