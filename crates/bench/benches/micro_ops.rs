//! Micro-benchmarks of LANDLORD's hot operations: the set algebra and
//! similarity machinery every simulated request exercises thousands of
//! times, plus end-to-end cache request throughput and image builds.

use bench::{bench_repo, bench_stream, hot_repo, overlapping_specs};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use landlord_core::cache::{CacheConfig, ImageCache, Plan, PlannedOp};
use landlord_core::jaccard::jaccard_distance;
use landlord_core::policy::DistanceMetric;
use landlord_core::sizes::SizeModel;
use landlord_core::spec::{PackageId, Spec};
use landlord_repo::sampler::{Sampler, SelectionScheme};
use landlord_repo::{ClosureComputer, RepoConfig, Repository};
use landlord_shrinkwrap::filetree::FileTreeConfig;
use landlord_shrinkwrap::Shrinkwrap;
use landlord_sim::minhash::{LshIndex, LshShape, MinHasher};
use landlord_sim::workload::{self, WorkloadConfig, WorkloadScheme};
use landlord_store::MemStore;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
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
    // `paper`'s mean merge: a 662-package image ∪ the 188 packages a
    // request adds, disjoint from it and scattered through the
    // 9,660-package universe, so the two interleave at random. The
    // row cycles through 16 such pairs: on one pair repeated, a
    // branch predictor learns the interleaving.
    let mut rng = StdRng::seed_from_u64(0xbe9c);
    let merges: Vec<(Spec, Spec)> = (0..16)
        .map(|_| {
            let mut ids: Vec<u32> = (0..9660).collect();
            ids.shuffle(&mut rng);
            let spec = |ids: &[u32]| Spec::from_ids(ids.iter().map(|&i| PackageId(i)));
            (spec(&ids[..662]), spec(&ids[662..850]))
        })
        .collect();
    let mut next = 0usize;
    group.throughput(Throughput::Elements(850));
    group.bench_function("union_delta", |bench| {
        bench.iter(|| {
            next = (next + 1) % merges.len();
            let (image, delta) = &merges[next];
            black_box(image.union(black_box(delta)))
        })
    });
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
    // Resolve steps, 64 selections per iteration: the `paper`
    // workload's uniform selections of up to 100 seeds on the full
    // 9,660-package universe, and the `hot_sharded` workload's 1–2-seed
    // selections on its 4,000-package universe.
    let sft = Repository::generate(&RepoConfig::sft_like(0x5f7_c0de));
    let hot = hot_repo();
    let mut group = c.benchmark_group("closure");
    group.throughput(Throughput::Elements(64));
    for (name, repo, max_seeds) in [("paper_selections", &sft, 100), ("hot_selections", &hot, 2)] {
        let sampler = Sampler::new(repo);
        let mut rng = StdRng::seed_from_u64(0x5e1ec7);
        let selections: Vec<Vec<PackageId>> = (0..64)
            .map(|_| {
                sampler.sample_request_seeds(&mut rng, SelectionScheme::UniformRandom, max_seeds)
            })
            .collect();
        let mut computer = ClosureComputer::new(repo.package_count());
        group.bench_function(name, |bench| {
            bench.iter(|| {
                for seeds in &selections {
                    black_box(computer.closure(repo.graph(), black_box(seeds)));
                }
            })
        });
    }
    // The closure table's one-time build: the first closure on a
    // graph that has never resolved one (a clone of the SFT-like graph
    // made before any closure, so the clone is in the time too).
    let fresh = Repository::generate(&RepoConfig::sft_like(0x5f7_c0de));
    let mut computer = ClosureComputer::new(fresh.package_count());
    group.throughput(Throughput::Elements(1));
    group.bench_function("table_build", |bench| {
        bench.iter(|| {
            let graph = fresh.graph().clone();
            black_box(computer.closure_ids(&graph, &[PackageId(0)]))
        })
    });
    group.finish();
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

/// Victim selection at 10k cached images, per eviction policy. LRU
/// reads the head of its recency list, O(1); the sampled policies
/// replay K draws on a copy of their stream state, O(K); S3-FIFO
/// selects on a clone of its whole state, O(n).
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

/// The hit/touch path at 10k cached images and at 512 (one shard of the
/// `hot_sharded` benchmark), per eviction policy. Plans are precomputed
/// outside the timed loop, so each policy's row isolates `apply` — the
/// slot lookup and the evictor's update on a hit. LRU relinks one node
/// of its list; S3-FIFO and the sampled policies rewrite one slot's
/// metadata; all O(1). The `lru_plan_apply` row times
/// the whole hit, `plan` and `apply` together.
fn touch_path(c: &mut Criterion) {
    for (label, n) in [("10k", 10_000u32), ("512", 512)] {
        touch_rows(c, label, n);
    }
}

fn touch_rows(c: &mut Criterion, label: &str, n: u32) {
    use landlord_core::policy::EvictionPolicy;
    use landlord_core::sizes::UniformSizes;
    let mut group = c.benchmark_group(&format!("touch_path_{label}"));
    let specs: Vec<landlord_core::spec::Spec> = (0..n)
        .map(|i| landlord_core::spec::Spec::from_ids((i * 4..i * 4 + 4).map(PackageId)))
        .collect();
    // 64 strided hits; a hit never changes membership, so plans made
    // once stay valid across repeated applies.
    let picks: Vec<usize> = (0..64usize).map(|k| k * 151 % specs.len()).collect();
    for policy in EvictionPolicy::ALL {
        let cfg = CacheConfig {
            alpha: 0.0,
            limit_bytes: u64::MAX,
            eviction: policy,
            ..CacheConfig::default()
        };
        let mut cache = ImageCache::new(cfg, Arc::new(UniformSizes::new(1_000_000)));
        for spec in &specs {
            cache.request(spec);
        }
        assert_eq!(cache.len(), specs.len());
        cache.settle();
        let hits: Vec<(usize, landlord_core::cache::Plan)> = picks
            .iter()
            .map(|&idx| (idx, cache.plan(&specs[idx])))
            .collect();
        let mut next = 0usize;
        group.bench_function(policy.token(), |bench| {
            bench.iter(|| {
                next = (next + 1) % hits.len();
                let (idx, plan) = &hits[next];
                black_box(cache.apply(&specs[*idx], plan))
            })
        });
        if policy == EvictionPolicy::Lru {
            group.bench_function("lru_plan_apply", |bench| {
                bench.iter(|| {
                    next = (next + 1) % picks.len();
                    let spec = &specs[picks[next]];
                    let plan = cache.plan(spec);
                    black_box(cache.apply(spec, &plan))
                })
            });
        }
    }
    group.finish();
}

/// Applying a merge (Algorithm 1's "replace j with merge(s, j)") at the
/// shape of the `paper` benchmark: requests of 300–500 packages merged
/// into images of 1,000 packages or more. The pairs are the first 16
/// such merges of an α = 0.75 run over a paper-shaped stream on the
/// full SFT-like repository. Each input is a fresh cache holding only
/// the pair's image, built untimed, and the merge plan is made once,
/// so the `merge_apply` row times `apply` of one merge alone.
///
/// The `evict_apply` row applies the same merge to a cache that also
/// holds the next pair's image, of 1,000 packages or more, under a
/// byte limit one byte short of both images after the merge: the apply
/// merges, then evicts that image, as 15 % of `paper`'s requests do.
fn merge_apply(c: &mut Criterion) {
    let repo = Repository::generate(&RepoConfig::sft_like(0xbe9c));
    let stream = workload::generate_stream(
        &repo,
        &WorkloadConfig {
            unique_jobs: 500,
            repeats: 5,
            max_initial_selection: 100,
            scheme: WorkloadScheme::DependencyClosure,
            seed: 1,
        },
    );
    let cfg = CacheConfig {
        alpha: 0.75,
        limit_bytes: 2 * repo.total_bytes(),
        ..CacheConfig::default()
    };
    let sizes = Arc::new(repo.size_table());
    let mut replay = ImageCache::new(cfg, sizes.clone());
    let mut pairs: Vec<(Spec, Spec)> = Vec::new();
    for spec in &stream {
        replay.settle();
        let plan = replay.plan(spec);
        if let PlannedOp::Merge { image, .. } = plan.op {
            let held = &replay.get(image).expect("planned target is resident").spec;
            if held.len() >= 1_000 && (300..=500).contains(&spec.len()) {
                pairs.push((held.clone(), spec.clone()));
            }
        }
        if pairs.len() == 16 {
            break;
        }
        replay.apply(spec, &plan);
    }
    assert_eq!(pairs.len(), 16, "too few paper-shaped merges");
    let fresh = |image: &Spec| {
        let mut cache = ImageCache::new(cfg, sizes.clone());
        cache.insert_fresh(image);
        cache.settle();
        cache
    };
    let merges: Vec<(Spec, Spec, Plan)> = pairs
        .into_iter()
        .map(|(image, request)| {
            let plan = fresh(&image).plan(&request);
            assert!(matches!(plan.op, PlannedOp::Merge { .. }));
            (image, request, plan)
        })
        .collect();
    let mut next = 0usize;
    c.bench_function("merge_apply", |bench| {
        bench.iter_batched(
            || {
                next = (next + 1) % merges.len();
                let (image, request, plan) = &merges[next];
                (fresh(image), request, plan)
            },
            |(mut cache, request, plan)| {
                let outcome = cache.apply(request, plan);
                (cache, outcome)
            },
            BatchSize::LargeInput,
        )
    });
    // The merge target is admitted first, so it keeps the id the plan
    // names; the victim is the only other image, and the target is
    // protected.
    let with_victim = |at: usize| {
        let (image, request, _) = &merges[at];
        let (victim, ..) = &merges[(at + 1) % merges.len()];
        let merged = sizes.spec_bytes(&image.union(request));
        let limit_bytes = merged + sizes.spec_bytes(victim) - 1;
        let mut cache = ImageCache::new(CacheConfig { limit_bytes, ..cfg }, sizes.clone());
        cache.insert_fresh(image);
        cache.insert_fresh(victim);
        cache.settle();
        cache
    };
    for (at, (_, request, plan)) in merges.iter().enumerate() {
        let mut cache = with_victim(at);
        assert_eq!(cache.len(), 2, "both images fit before the merge");
        cache.apply(request, plan);
        assert_eq!(
            (cache.len(), cache.stats().deletes),
            (1, 1),
            "the merge evicts one image"
        );
    }
    c.bench_function("evict_apply", |bench| {
        bench.iter_batched(
            || {
                next = (next + 1) % merges.len();
                let (_, request, plan) = &merges[next];
                (with_victim(next), request, plan)
            },
            |(mut cache, request, plan)| {
                let outcome = cache.apply(request, plan);
                (cache, outcome)
            },
            BatchSize::LargeInput,
        )
    });
}

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
/// hit test, a miss's merge-candidate search (α = 0.75) with the
/// package-count metric and with the byte metric (`_bytes`), and an
/// insert that evicts one image, at 1e2 … 1e5 images whose specs are dependency
/// closures over the 2,000-package benchmark universe; then hit and
/// the two misses at 1e2 … 1e4 images shaped like the `hot_sharded`
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
    targets = set_ops, minhash_ops, closures, cache_requests, victim_selection, touch_path, merge_apply, plan_scaling, spec_inference, image_build
}
criterion_main!(benches);
