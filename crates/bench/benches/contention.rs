//! Contention benchmark: one coarse lock (a 1-shard
//! [`ShardedImageCache`], one request per lock hold) vs the 8-shard
//! frontend with batched submits, under multi-submitter load.
//!
//! Both variants replay the same prepared stream of distinct 4-package
//! specs (the `victim_selection_10k` workload shape: alpha 0, unlimited
//! budget, so every request inserts and the ledger keeps growing). The
//! coarse cache serializes everything behind one mutex *and* scans one
//! ever-growing ledger; the sharded cache partitions both the lock and
//! the ledger, so each request scans ~1/N of the images. On a
//! single-core host the win is algorithmic (shorter scans), not
//! parallelism; with real cores the lock split stacks on top.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use landlord_core::cache::{CacheConfig, ShardedImageCache};
use landlord_core::sizes::UniformSizes;
use landlord_core::spec::{PackageId, Spec};
use std::sync::Arc;

const STREAM_LEN: u32 = 10_000;
const SHARDS: usize = 8;

fn stream() -> Vec<Spec> {
    (0..STREAM_LEN)
        .map(|i| Spec::from_ids((i * 4..i * 4 + 4).map(PackageId)))
        .collect()
}

fn config() -> CacheConfig {
    CacheConfig {
        alpha: 0.0,
        limit_bytes: u64::MAX,
        ..CacheConfig::default()
    }
}

/// Split the stream round-robin into `threads` slices and replay each
/// slice from its own thread against one shard, one request per lock
/// hold.
fn run_coarse(jobs: &[Spec], threads: usize) -> u64 {
    let cache = ShardedImageCache::new(1, config(), Arc::new(UniformSizes::new(1_000_000)));
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let cache = cache.clone();
            scope.spawn(move || {
                for spec in jobs.iter().skip(worker).step_by(threads) {
                    black_box(cache.request(spec));
                }
            });
        }
    });
    cache.stats().requests
}

/// Same split, but against the sharded frontend with batched submits.
fn run_sharded(jobs: &[Spec], threads: usize) -> u64 {
    let cache = ShardedImageCache::new(SHARDS, config(), Arc::new(UniformSizes::new(1_000_000)));
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let cache = cache.clone();
            scope.spawn(move || {
                let mine: Vec<Spec> = jobs.iter().skip(worker).step_by(threads).cloned().collect();
                for chunk in mine.chunks(64) {
                    black_box(cache.request_many(chunk));
                }
            });
        }
    });
    cache.stats().requests
}

fn contention(c: &mut Criterion) {
    let jobs = stream();
    let mut group = c.benchmark_group("contention_10k_inserts");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(STREAM_LEN)));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded_1", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    let served = run_coarse(&jobs, threads);
                    assert_eq!(served, u64::from(STREAM_LEN));
                    served
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sharded_8", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    let served = run_sharded(&jobs, threads);
                    assert_eq!(served, u64::from(STREAM_LEN));
                    served
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = contention
}
criterion_main!(benches);
