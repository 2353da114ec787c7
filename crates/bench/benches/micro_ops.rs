//! Micro-benchmarks of LANDLORD's hot operations: the set algebra and
//! similarity machinery every simulated request exercises thousands of
//! times, plus end-to-end cache request throughput and image builds.

use bench::{bench_repo, bench_stream, hot_repo, overlapping_specs};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use landlord_core::cache::{CacheConfig, ImageCache};
use landlord_core::jaccard::jaccard_distance;
use landlord_core::minhash::{LshIndex, LshShape, MinHasher};
use landlord_core::policy::{CandidateStrategy, DistanceMetric};
use landlord_core::spec::{PackageId, Spec};
use landlord_repo::{ClosureComputer, Repository};
use landlord_shrinkwrap::filetree::FileTreeConfig;
use landlord_shrinkwrap::Shrinkwrap;
use landlord_sim::workload::{self, WorkloadConfig, WorkloadScheme};
use landlord_store::MemStore;
use std::hint::black_box;
use std::sync::Arc;

fn set_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_ops");
    for n in [100u32, 1000, 5000] {
        let (a, b) = overlapping_specs(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("jaccard_exact", n), &n, |bench, _| {
            bench.iter(|| black_box(jaccard_distance(black_box(&a), black_box(&b))))
        });
        group.bench_with_input(BenchmarkId::new("union", n), &n, |bench, _| {
            bench.iter(|| black_box(a.union(black_box(&b))))
        });
        group.bench_with_input(BenchmarkId::new("is_subset", n), &n, |bench, _| {
            bench.iter(|| black_box(a.is_subset(black_box(&b))))
        });
    }
    group.finish();
}

fn minhash_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("minhash");
    let (a, b) = overlapping_specs(1000);
    for k in [64usize, 128, 256] {
        let hasher = MinHasher::new(k, 7);
        group.bench_with_input(BenchmarkId::new("signature", k), &k, |bench, _| {
            bench.iter(|| black_box(hasher.signature(black_box(&a))))
        });
        let sa = hasher.signature(&a);
        let sb = hasher.signature(&b);
        group.bench_with_input(BenchmarkId::new("estimate", k), &k, |bench, _| {
            bench.iter(|| black_box(sa.estimate_distance(black_box(&sb))))
        });
    }
    // LSH candidate lookup over 200 indexed signatures.
    let hasher = MinHasher::new(128, 7);
    let mut index = LshIndex::new(LshShape { bands: 32, rows: 4 });
    for key in 0..200u64 {
        let spec = landlord_core::spec::Spec::from_ids(
            (key as u32 * 37..key as u32 * 37 + 500).map(PackageId),
        );
        index.insert(key, &hasher.signature(&spec));
    }
    let probe = hasher.signature(&a);
    group.bench_function("lsh_candidates_200", |bench| {
        bench.iter(|| black_box(index.candidates(black_box(&probe))))
    });
    group.finish();
}

fn closures(c: &mut Criterion) {
    let repo = bench_repo();
    let mut computer = ClosureComputer::new(repo.package_count());
    let top = u32::try_from(repo.package_count()).unwrap_or(u32::MAX);
    let seeds: Vec<PackageId> = (0..20).map(|i| PackageId(top - 1 - i * 7)).collect();
    c.bench_function("closure_20_seeds", |bench| {
        bench.iter(|| black_box(computer.closure_ids(repo.graph(), black_box(&seeds))))
    });
}

fn cache_requests(c: &mut Criterion) {
    let repo = bench_repo();
    let stream = bench_stream(&repo, 100, 3);
    let mut group = c.benchmark_group("cache_request_stream");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);
    for alpha in [0.0f64, 0.8] {
        group.bench_with_input(
            BenchmarkId::new("alpha", format!("{alpha:.1}")),
            &alpha,
            |bench, &alpha| {
                bench.iter(|| {
                    let cfg = CacheConfig {
                        alpha,
                        limit_bytes: repo.total_bytes() / 2,
                        ..CacheConfig::default()
                    };
                    let mut cache = ImageCache::new(cfg, Arc::new(repo.size_table()));
                    for spec in &stream {
                        black_box(cache.request(spec));
                    }
                    black_box(cache.stats())
                })
            },
        );
    }
    group.finish();
}

/// Victim selection at 10k cached images, per eviction policy. The
/// evictors maintain ordered structures (recency list, frequency
/// buckets, priority heaps), so `peek_victim` must not degrade into the
/// old O(n) `min_by_key` scan as the cache grows.
fn victim_selection(c: &mut Criterion) {
    use landlord_core::policy::EvictionPolicy;
    use landlord_core::sizes::UniformSizes;
    let mut group = c.benchmark_group("victim_selection_10k");
    for policy in EvictionPolicy::ALL {
        let cfg = CacheConfig {
            alpha: 0.0,
            limit_bytes: u64::MAX,
            eviction: policy,
            ..CacheConfig::default()
        };
        let mut cache = ImageCache::new(cfg, Arc::new(UniformSizes::new(1_000_000)));
        for i in 0..10_000u32 {
            let spec = landlord_core::spec::Spec::from_ids((i * 4..i * 4 + 4).map(PackageId));
            cache.request(&spec);
        }
        assert_eq!(cache.len(), 10_000);
        group.bench_function(policy.token(), |bench| {
            bench.iter(|| black_box(cache.peek_victim()))
        });
    }
    group.finish();
}

/// The hit/touch path at 10k cached images, per eviction policy. Plans
/// are precomputed outside the timed loop so the measurement isolates
/// `apply` — i.e. the evictor's re-rank on a hit. Ordered-index
/// policies pay an O(log n) BTreeSet remove + re-insert per touch;
/// S3-FIFO and sampled LHD update per-image metadata in O(1).
fn touch_path(c: &mut Criterion) {
    use landlord_core::policy::EvictionPolicy;
    use landlord_core::sizes::UniformSizes;
    let mut group = c.benchmark_group("touch_path_10k");
    for policy in EvictionPolicy::ALL {
        let cfg = CacheConfig {
            alpha: 0.0,
            limit_bytes: u64::MAX,
            eviction: policy,
            ..CacheConfig::default()
        };
        let mut cache = ImageCache::new(cfg, Arc::new(UniformSizes::new(1_000_000)));
        let specs: Vec<landlord_core::spec::Spec> = (0..10_000u32)
            .map(|i| landlord_core::spec::Spec::from_ids((i * 4..i * 4 + 4).map(PackageId)))
            .collect();
        for spec in &specs {
            cache.request(spec);
        }
        assert_eq!(cache.len(), 10_000);
        cache.settle();
        // 64 strided hit plans; a hit never changes membership, so the
        // plans stay valid across repeated applies.
        let hits: Vec<(usize, landlord_core::cache::Plan)> = (0..64usize)
            .map(|k| {
                let idx = k * 151;
                (idx, cache.plan(&specs[idx]))
            })
            .collect();
        let mut next = 0usize;
        group.bench_function(policy.token(), |bench| {
            bench.iter(|| {
                next = (next + 1) % hits.len();
                let (idx, plan) = &hits[next];
                black_box(cache.apply(&specs[*idx], plan))
            })
        });
    }
    group.finish();
}

/// The LSH shape the `ablation-candidates` experiment runs.
const LSH_32X4: CandidateStrategy = CandidateStrategy::MinHashLsh { bands: 32, rows: 4 };

/// Resident images from `uniques` (admitted with `insert_fresh`, so
/// none merges) under `cfg`, plus up to 64 misses: unions of
/// neighbouring specs that no single image holds, so each plans a full
/// merge-candidate search.
fn resident_cache(
    repo: &Repository,
    uniques: &[Spec],
    cfg: CacheConfig,
) -> (ImageCache, Vec<Spec>) {
    let mut cache = ImageCache::new(cfg, Arc::new(repo.size_table()));
    for spec in uniques {
        cache.insert_fresh(spec);
    }
    cache.settle();
    let misses: Vec<Spec> = uniques
        .windows(2)
        .map(|w| w[0].union(&w[1]))
        .filter(|s| cache.find_satisfying(s).is_none())
        .take(64)
        .collect();
    assert!(
        !misses.is_empty(),
        "no missing spec at {} images",
        uniques.len()
    );
    (cache, misses)
}

/// Plan and evict cost against the number of resident images: the
/// hit test, a miss's merge-candidate search (α = 0.75) under the exact
/// strategy with the package-count metric, with the byte metric
/// (`_bytes`) and under MinHash/LSH 32×4 (`_lsh`), and an insert that
/// evicts one image, at 1e2 … 1e5 images whose specs are dependency
/// closures over the 2,000-package benchmark universe; then hit and
/// the three misses at 1e2 … 1e4 images shaped like the `hot_sharded`
/// benchmark's (α = 0.2). Images are admitted with `insert_fresh` and
/// no byte limit, so none merges and all `n` stay resident.
fn plan_scaling(c: &mut Criterion) {
    let repo = bench_repo();
    let mut group = c.benchmark_group("plan_scaling");
    for n in [100usize, 1_000, 10_000, 100_000] {
        let uniques = workload::unique_specs(
            &repo,
            &WorkloadConfig {
                unique_jobs: n,
                repeats: 1,
                max_initial_selection: 20,
                scheme: WorkloadScheme::DependencyClosure,
                seed: 0x5ca1e,
            },
        );
        let exact = CacheConfig {
            alpha: 0.75,
            limit_bytes: u64::MAX,
            ..CacheConfig::default()
        };
        let (cache, misses) = resident_cache(&repo, &uniques, exact);
        let (by_bytes, _) = resident_cache(
            &repo,
            &uniques,
            CacheConfig {
                metric: DistanceMetric::Bytes,
                ..exact
            },
        );
        let (lsh, _) = resident_cache(
            &repo,
            &uniques,
            CacheConfig {
                candidates: LSH_32X4,
                ..exact
            },
        );
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("hit", n), &n, |bench, _| {
            bench.iter(|| {
                next = (next + 1) % uniques.len();
                black_box(cache.plan(&uniques[next]))
            })
        });
        group.bench_with_input(BenchmarkId::new("miss", n), &n, |bench, _| {
            bench.iter(|| {
                next = (next + 1) % misses.len();
                black_box(cache.plan(&misses[next]))
            })
        });
        group.bench_with_input(BenchmarkId::new("miss_bytes", n), &n, |bench, _| {
            bench.iter(|| {
                next = (next + 1) % misses.len();
                black_box(by_bytes.plan(&misses[next]))
            })
        });
        group.bench_with_input(BenchmarkId::new("miss_lsh", n), &n, |bench, _| {
            bench.iter(|| {
                next = (next + 1) % misses.len();
                black_box(lsh.plan(&misses[next]))
            })
        });
        // Evict: at the byte limit, each fresh insert evicts the LRU
        // image, so the resident count stays near `n`.
        let mut full = ImageCache::new(
            CacheConfig {
                limit_bytes: cache.stats().total_bytes,
                ..*cache.config()
            },
            Arc::new(repo.size_table()),
        );
        for spec in &uniques {
            full.insert_fresh(spec);
        }
        group.bench_with_input(BenchmarkId::new("evict", n), &n, |bench, _| {
            bench.iter(|| {
                next = (next + 1) % uniques.len();
                black_box(full.insert_fresh(&uniques[next]))
            })
        });
    }
    // `hot_sharded`-shaped rows: closures of one or two seed packages
    // over a 4,000-package universe, α = 0.2.
    let hot = hot_repo();
    for n in [100usize, 1_000, 10_000] {
        let uniques = workload::unique_specs(
            &hot,
            &WorkloadConfig {
                unique_jobs: n,
                repeats: 1,
                max_initial_selection: 2,
                scheme: WorkloadScheme::DependencyClosure,
                seed: 0x5ca1e,
            },
        );
        let exact = CacheConfig {
            alpha: 0.2,
            limit_bytes: u64::MAX,
            ..CacheConfig::default()
        };
        let (cache, misses) = resident_cache(&hot, &uniques, exact);
        let (by_bytes, _) = resident_cache(
            &hot,
            &uniques,
            CacheConfig {
                metric: DistanceMetric::Bytes,
                ..exact
            },
        );
        let (lsh, _) = resident_cache(
            &hot,
            &uniques,
            CacheConfig {
                candidates: LSH_32X4,
                ..exact
            },
        );
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("hot_hit", n), &n, |bench, _| {
            bench.iter(|| {
                next = (next + 1) % uniques.len();
                black_box(cache.plan(&uniques[next]))
            })
        });
        group.bench_with_input(BenchmarkId::new("hot_miss", n), &n, |bench, _| {
            bench.iter(|| {
                next = (next + 1) % misses.len();
                black_box(cache.plan(&misses[next]))
            })
        });
        group.bench_with_input(BenchmarkId::new("hot_miss_bytes", n), &n, |bench, _| {
            bench.iter(|| {
                next = (next + 1) % misses.len();
                black_box(by_bytes.plan(&misses[next]))
            })
        });
        group.bench_with_input(BenchmarkId::new("hot_miss_lsh", n), &n, |bench, _| {
            bench.iter(|| {
                next = (next + 1) % misses.len();
                black_box(lsh.plan(&misses[next]))
            })
        });
    }
    group.finish();
}

fn spec_inference(c: &mut Criterion) {
    let python_src = r#"
import numpy as np, uproot
from ROOT import TFile
from awkward.highlevel import Array
def f():
    import tensorflow
"#;
    c.bench_function("python_import_scan", |bench| {
        bench.iter(|| black_box(landlord_specgen::python::scan(black_box(python_src))))
    });

    let repo = bench_repo();
    let resolver = landlord_specgen::resolve::Resolver::new(&repo);
    let reqs: Vec<landlord_specgen::Requirement> = repo
        .packages()
        .iter()
        .step_by(97)
        .map(|m| landlord_specgen::Requirement::pinned(m.name.clone(), m.version.clone()))
        .collect();
    let resolve_name = format!("resolve_{}_requirements", reqs.len());
    c.bench_function(&resolve_name, |bench| {
        bench.iter(|| black_box(resolver.resolve(black_box(&reqs))))
    });
}

fn image_build(c: &mut Criterion) {
    let repo = bench_repo();
    let store = MemStore::new();
    let sw = Shrinkwrap::new(&repo, &store, FileTreeConfig::miniature());
    let top = u32::try_from(repo.package_count()).unwrap_or(u32::MAX);
    let spec = repo.closure_spec(&[PackageId(top - 1)]);
    let mut group = c.benchmark_group("shrinkwrap");
    group.sample_size(20);
    let build_name = format!("build_{}_pkgs", spec.len());
    group.bench_function(&build_name, |bench| {
        bench.iter(|| {
            let mut out = Vec::new();
            black_box(sw.build(black_box(&spec), &mut out).unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = set_ops, minhash_ops, closures, cache_requests, victim_selection, touch_path, plan_scaling, spec_inference, image_build
}
criterion_main!(benches);
