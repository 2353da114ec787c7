//! Ablation benchmarks for the design choices called out in
//! DESIGN.md §5: how each policy knob affects the *cost* of running the
//! cache (the quality effects are measured by `landlord experiment
//! ablation-*`; these measure wall-clock).

use bench::{bench_repo, bench_stream};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use landlord_core::cache::{CacheConfig, ImageCache};
use landlord_core::policy::{CachePolicy, EvictionPolicy, MergeOrder};
use landlord_sim::lsh::LshCache;
use landlord_sim::minhash::LshShape;
use std::hint::black_box;
use std::sync::Arc;

fn run_stream(
    repo: &landlord_repo::Repository,
    stream: &[landlord_core::spec::Spec],
    cfg: CacheConfig,
) -> landlord_core::cache::CacheStats {
    let mut cache = ImageCache::new(cfg, Arc::new(repo.size_table()));
    for spec in stream {
        black_box(cache.request(spec));
    }
    cache.stats()
}

fn candidate_strategy(c: &mut Criterion) {
    let repo = bench_repo();
    let stream = bench_stream(&repo, 150, 2);
    let mut group = c.benchmark_group("ablation_candidates");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);
    let cfg = CacheConfig {
        alpha: 0.8,
        limit_bytes: repo.total_bytes() / 2,
        ..CacheConfig::default()
    };
    group.bench_function(BenchmarkId::from_parameter("exact"), |bench| {
        bench.iter(|| black_box(run_stream(&repo, &stream, cfg)))
    });
    for shape in [
        LshShape { bands: 32, rows: 4 },
        LshShape { bands: 16, rows: 8 },
    ] {
        let name = format!("lsh_{}x{}", shape.bands, shape.rows);
        group.bench_function(BenchmarkId::from_parameter(name), |bench| {
            bench.iter(|| {
                let sizes = Arc::new(repo.size_table());
                let mut lsh = LshCache::new(cfg, sizes, shape);
                for spec in &stream {
                    black_box(lsh.request(spec));
                }
                lsh.stats()
            })
        });
    }
    group.finish();
}

fn eviction_policy(c: &mut Criterion) {
    let repo = bench_repo();
    let stream = bench_stream(&repo, 150, 2);
    let mut group = c.benchmark_group("ablation_eviction");
    group.sample_size(10);
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::Lfu,
        EvictionPolicy::LargestFirst,
        EvictionPolicy::CostDensity,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.token()),
            &policy,
            |bench, &policy| {
                let cfg = CacheConfig {
                    alpha: 0.8,
                    limit_bytes: repo.total_bytes() / 4, // pressure → evictions
                    eviction: policy,
                    ..CacheConfig::default()
                };
                bench.iter(|| black_box(run_stream(&repo, &stream, cfg)))
            },
        );
    }
    group.finish();
}

fn merge_order(c: &mut Criterion) {
    let repo = bench_repo();
    let stream = bench_stream(&repo, 150, 2);
    let mut group = c.benchmark_group("ablation_merge_order");
    group.sample_size(10);
    for order in [
        MergeOrder::NearestFirst,
        MergeOrder::ArrivalOrder,
        MergeOrder::LargestFirst,
        MergeOrder::SmallestFirst,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(order.token()),
            &order,
            |bench, &order| {
                let cfg = CacheConfig {
                    alpha: 0.8,
                    limit_bytes: repo.total_bytes() / 2,
                    merge_order: order,
                    ..CacheConfig::default()
                };
                bench.iter(|| black_box(run_stream(&repo, &stream, cfg)))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = candidate_strategy, eviction_policy, merge_order
}
criterion_main!(benches);
