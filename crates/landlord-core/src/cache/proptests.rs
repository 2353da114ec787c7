use super::*;
use crate::conflict::NoConflicts;
use crate::jaccard::{jaccard_distance, weighted_jaccard_distance};
use crate::policy::{CandidateStrategy, DistanceMetric, EvictionPolicy, MergeOrder};
use crate::sizes::{SizeModel, TableSizes};
use proptest::prelude::*;

/// Request package ids come from three clusters of 20, each straddling
/// a 64-bit word boundary: 54..74, 118..138 and 182..202. Specs thus
/// span up to four bitmap words, and the planner's bitmap kernels meet
/// multi-word sets and ids on both sides of every boundary, while the
/// 60 ids keep the overlap (hits and merges) of a small universe.
const CLUSTER: u32 = 20;

/// One past the largest request id; the size tables cover `0..UNIVERSE`.
const UNIVERSE: u32 = 3 * 64 + 10;

fn arb_id() -> impl Strategy<Value = PackageId> {
    (0..3 * CLUSTER).prop_map(|i| PackageId((i / CLUSTER + 1) * 64 - 10 + i % CLUSTER))
}

fn arb_stream() -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec(
        proptest::collection::vec(arb_id(), 1..12).prop_map(Spec::from_ids),
        1..60,
    )
}

fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (
        0.0f64..=1.0,
        1u64..200,
        prop_oneof![
            Just(EvictionPolicy::Lru),
            Just(EvictionPolicy::Lfu),
            Just(EvictionPolicy::LargestFirst),
            Just(EvictionPolicy::CostDensity),
            Just(EvictionPolicy::Gdsf),
            Just(EvictionPolicy::S3Fifo),
            Just(EvictionPolicy::LhdSample),
        ],
        prop_oneof![
            Just(MergeOrder::NearestFirst),
            Just(MergeOrder::ArrivalOrder),
            Just(MergeOrder::LargestFirst),
            Just(MergeOrder::SmallestFirst),
        ],
        prop_oneof![
            Just(CandidateStrategy::ExactScan),
            Just(CandidateStrategy::MinHashLsh { bands: 8, rows: 4 }),
        ],
    )
        .prop_map(
            |(alpha, limit, eviction, merge_order, candidates)| CacheConfig {
                alpha,
                limit_bytes: limit,
                eviction,
                merge_order,
                candidates,
                minhash_seed: 42,
                eviction_seed: limit, // arbitrary but shrinkable

                // Exercise the byte-weighted metric in half the cases
                // and auto-splitting in a third.
                metric: if limit % 2 == 0 {
                    DistanceMetric::Bytes
                } else {
                    DistanceMetric::PackageCount
                },
                split_threshold: if limit % 3 == 0 { Some(3) } else { None },
            },
        )
}

fn size_table() -> Vec<u64> {
    (0..UNIVERSE as u64).map(|i| 1 + i % 7).collect()
}

/// Specs for the kernel property: ids up to 300 (five words), with the
/// word-boundary ids 63, 64, 127 and 128 drawn often, and empty specs.
fn arb_kernel_spec() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(
        prop_oneof![
            Just(63u32),
            Just(64u32),
            Just(127u32),
            Just(128u32),
            0u32..300,
        ],
        0..40,
    )
    .prop_map(|v| Spec::from_ids(v.into_iter().map(PackageId)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_under_arbitrary_streams(
        cfg in arb_config(),
        stream in arb_stream(),
    ) {
        let mut cache = ImageCache::new(cfg, Arc::new(TableSizes::new(size_table())));
        for s in &stream {
            let out = cache.request(s);
            // Whatever happened, the serving image satisfies the spec.
            let img = cache.get(out.image()).expect("serving image cached");
            prop_assert!(s.is_subset(&img.spec));
        }
        cache.check_invariants();
        let st = cache.stats();
        prop_assert_eq!(st.requests as usize, stream.len());
        prop_assert!(st.bytes_written >= st.total_bytes,
            "everything cached was written at least once");
    }

    /// The refactor-parity property: `request()` is *defined* as
    /// settle → plan → apply, and driving the pipeline by hand must be
    /// indistinguishable from calling `request()` — same outcomes, same
    /// counters, same images — under every config knob.
    #[test]
    fn apply_of_plan_equals_request(
        cfg in arb_config(),
        stream in arb_stream(),
    ) {
        let sizes = Arc::new(TableSizes::new(size_table()));
        let mut via_request = ImageCache::new(cfg, Arc::clone(&sizes) as Arc<dyn crate::sizes::SizeModel>);
        let mut via_pipeline = ImageCache::new(cfg, sizes);
        for s in &stream {
            let a = via_request.request(s);
            via_pipeline.settle();
            let plan = via_pipeline.plan(s);
            let b = via_pipeline.apply(s, &plan);
            prop_assert_eq!(a, b, "outcome diverged");
        }
        prop_assert_eq!(via_request.stats(), via_pipeline.stats());
        prop_assert_eq!(via_request.len(), via_pipeline.len());
        prop_assert!(
            (via_request.container_efficiency_pct()
                - via_pipeline.container_efficiency_pct()).abs() < 1e-12
        );
        via_request.check_invariants();
        via_pipeline.check_invariants();
    }

    /// The slice-based planner used by external stores agrees with the
    /// engine's planner, decision for decision (exact-scan configs).
    #[test]
    fn plan_over_matches_engine_plan(
        cfg in arb_config(),
        stream in arb_stream(),
    ) {
        let cfg = CacheConfig { candidates: CandidateStrategy::ExactScan, ..cfg };
        let sizes = Arc::new(TableSizes::new(size_table()));
        let mut cache = ImageCache::new(cfg, Arc::clone(&sizes) as Arc<dyn crate::sizes::SizeModel>);
        for s in &stream {
            cache.settle();
            {
                let entries: Vec<(u64, &Spec, u64)> = cache
                    .images()
                    .map(|img| (img.id.0, &img.spec, img.bytes))
                    .collect();
                let free = plan_over(
                    &entries,
                    s,
                    cfg.alpha,
                    cfg.merge_order,
                    cfg.metric,
                    sizes.as_ref(),
                    &NoConflicts,
                );
                prop_assert_eq!(cache.plan(s).op, free);
            }
            cache.request(s);
        }
        cache.check_invariants();
    }

    /// The bitmap kernels the planner uses agree with the sorted-slice
    /// ones: subset test, intersection size, and both distances to the
    /// bit. Request ids above the image's last word are covered by the
    /// draws (an image's bitmap ends at its own largest id).
    #[test]
    fn bitmap_kernels_match_sorted_kernels(
        image in arb_kernel_spec(),
        request in arb_kernel_spec(),
    ) {
        let sizes = TableSizes::new((0..300u64).map(|i| 1 + i % 7).collect());
        let resident = Resident::new(Image::new(ImageId(0), image.clone(), sizes.spec_bytes(&image), 1));
        let words = request.sparse_bits();
        prop_assert_eq!(resident.members.covers(&words), request.is_subset(&image));
        prop_assert_eq!(
            resident.members.intersection_count(&words),
            request.intersection_len(&image)
        );
        let requested_bytes = sizes.spec_bytes(&request);
        let count = resident.distance(
            DistanceMetric::PackageCount, request.len(), &words, requested_bytes, &sizes,
        );
        prop_assert_eq!(count.to_bits(), jaccard_distance(&request, &image).to_bits());
        let bytes = resident.distance(
            DistanceMetric::Bytes, request.len(), &words, requested_bytes, &sizes,
        );
        prop_assert_eq!(
            bytes.to_bits(),
            weighted_jaccard_distance(&request, &image, &sizes).to_bits()
        );
    }

    /// A cache restored from its snapshot (serialized and read back)
    /// plans exactly like the live cache: `from_parts` rebuilds every
    /// bitmap, so each request of the stream gets the same plan from
    /// both, and keeps getting it while both serve the rest of the
    /// stream. LRU eviction, whose order restore rebuilds exactly,
    /// keeps the two caches in step.
    #[test]
    fn restored_cache_plans_like_live_cache(
        cfg in arb_config(),
        stream in arb_stream(),
        cut in 0usize..60,
    ) {
        let cfg = CacheConfig { eviction: EvictionPolicy::Lru, ..cfg };
        let sizes: Arc<dyn SizeModel> = Arc::new(TableSizes::new(size_table()));
        let mut live = ImageCache::new(cfg, Arc::clone(&sizes));
        let cut = cut.min(stream.len());
        for s in &stream[..cut] {
            live.request(s);
        }
        let json = serde_json::to_string(&live.snapshot()).expect("snapshot serializes");
        let snapshot = serde_json::from_str(&json).expect("snapshot reads back");
        let mut restored = ImageCache::restore(snapshot, sizes, Arc::new(NoConflicts))
            .expect("snapshot restores");
        live.settle();
        restored.settle();
        for s in &stream {
            prop_assert_eq!(restored.plan(s), live.plan(s));
        }
        for s in &stream[cut..] {
            live.settle();
            restored.settle();
            prop_assert_eq!(restored.plan(s), live.plan(s));
            prop_assert_eq!(restored.request(s), live.request(s));
        }
        prop_assert_eq!(restored.stats(), live.stats());
        live.check_invariants();
        restored.check_invariants();
    }

    #[test]
    fn alpha_zero_degenerates_to_plain_lru(stream in arb_stream()) {
        let cfg = CacheConfig { alpha: 0.0, limit_bytes: 64, ..CacheConfig::default() };
        let sizes: Vec<u64> = vec![1; UNIVERSE as usize];
        let mut cache = ImageCache::new(cfg, Arc::new(TableSizes::new(sizes)));
        let mut any_subset_hit = false;
        for s in &stream {
            let out = cache.request(s);
            if matches!(out, Outcome::Hit { .. }) && out.image_bytes() != cache.sizes.spec_bytes(s) {
                any_subset_hit = true;
            }
        }
        prop_assert_eq!(cache.stats().merges, 0);
        cache.check_invariants();
        // Without merging, every created image is exactly what some
        // job asked for; container efficiency only dips below 100%
        // when a request hits a strict-superset image.
        if !any_subset_hit {
            prop_assert!((cache.container_efficiency_pct() - 100.0).abs() < 1e-9);
        }
    }

    /// Differential evictor test: drive every evictor (ordered-index,
    /// queue-rotating, sampled) through random insert/touch/remove/
    /// evict sequences. All seven must keep `check()` consistency at
    /// every step; the five legacy policies must additionally agree,
    /// victim for victim, with a naive O(n) `min_by_key` reference
    /// scan over stored keys — the pre-seam selection semantics.
    #[test]
    fn evictors_agree_with_naive_reference_scan(
        ops in proptest::collection::vec((0u8..4, 0u64..50, 1u64..60), 1..120),
    ) {
        for policy in EvictionPolicy::ALL {
            let cfg = CacheConfig {
                eviction: policy,
                limit_bytes: 500,
                eviction_seed: 9,
                ..CacheConfig::default()
            };
            let mut e = evictor::make_evictor(&cfg);
            let mut images: FxHashMap<u64, Image> = FxHashMap::default();
            // Reference model: stored (priority, last_used) per image
            // plus the GDSF inflation value, mirroring the stored-key
            // semantics of the pre-seam O(n) scans.
            let mut stored: FxHashMap<u64, (f64, u64)> = FxHashMap::default();
            let mut inflation = 0.0f64;
            let legacy = !matches!(
                policy,
                EvictionPolicy::S3Fifo | EvictionPolicy::LhdSample
            );
            let mut clock = 0u64;
            let mut next_id = 0u64;

            let key_of = |img: &Image, inflation: f64| -> (f64, u64) {
                match policy {
                    EvictionPolicy::Lru => (0.0, img.last_used),
                    EvictionPolicy::Lfu => (img.use_count as f64, img.last_used),
                    EvictionPolicy::LargestFirst => (-(img.bytes as f64), 0),
                    EvictionPolicy::CostDensity => (
                        img.use_count as f64 / img.bytes.max(1) as f64,
                        img.last_used,
                    ),
                    EvictionPolicy::Gdsf => (
                        inflation + img.use_count as f64 / img.bytes.max(1) as f64,
                        img.last_used,
                    ),
                    _ => (0.0, 0),
                }
            };

            for &(kind, pick, bytes) in &ops {
                clock += 1;
                match kind {
                    0 => {
                        // Insert a fresh image.
                        let id = next_id;
                        next_id += 1;
                        let img = Image::new(
                            ImageId(id),
                            Spec::from_ids([PackageId((id % 60) as u32)]),
                            bytes,
                            clock,
                        );
                        stored.insert(id, key_of(&img, inflation));
                        e.on_insert(&img);
                        images.insert(id, img);
                    }
                    1 if !images.is_empty() => {
                        // Touch a live image (hit semantics).
                        let ids: Vec<u64> = {
                            let mut v: Vec<u64> = images.keys().copied().collect();
                            v.sort_unstable();
                            v
                        };
                        let id = ids[(pick as usize) % ids.len()];
                        let img = images.get_mut(&id).expect("picked live id");
                        img.last_used = clock;
                        img.use_count += 1;
                        if pick % 4 == 0 {
                            img.bytes += 1; // merge grew the image
                        }
                        let snapshot = img.clone();
                        stored.insert(id, key_of(&snapshot, inflation));
                        e.on_touch(&snapshot);
                    }
                    2 if !images.is_empty() => {
                        // Administrative removal (split path): no
                        // note_eviction, straight detach.
                        let ids: Vec<u64> = {
                            let mut v: Vec<u64> = images.keys().copied().collect();
                            v.sort_unstable();
                            v
                        };
                        let id = ids[(pick as usize) % ids.len()];
                        let img = images.remove(&id).expect("picked live id");
                        stored.remove(&id);
                        e.on_remove(&img);
                    }
                    3 if !images.is_empty() => {
                        // Byte-limit eviction through the seam.
                        let peeked = e.peek_victim(None);
                        let victim = e.select_victim(None);
                        prop_assert_eq!(victim, peeked, "{:?}: peek must preview select", policy);
                        let victim = victim.expect("nonempty cache yields a victim");
                        if legacy {
                            let reference = images
                                .values()
                                .map(|img| {
                                    let &(pri, lu) = stored.get(&img.id.0).expect("stored key");
                                    ((evictor::OrdF64(pri), lu, img.id.0), img.id)
                                })
                                .min()
                                .map(|(_, id)| id);
                            prop_assert_eq!(
                                Some(victim), reference,
                                "{:?}: victim disagrees with naive scan", policy
                            );
                        }
                        prop_assert!(
                            images.contains_key(&victim.0),
                            "{:?}: selected victim {} is not live", policy, victim
                        );
                        if policy == EvictionPolicy::Gdsf {
                            let &(pri, _) = stored.get(&victim.0).expect("victim stored");
                            if pri > inflation {
                                inflation = pri;
                            }
                        }
                        let img = images.remove(&victim.0).expect("victim is live");
                        stored.remove(&victim.0);
                        e.note_eviction(&img);
                        e.on_remove(&img);
                    }
                    _ => {}
                }
                e.check(&images.values().collect::<Vec<_>>());
                prop_assert_eq!(e.len(), images.len());
            }
        }
    }

    #[test]
    fn hits_never_write(stream in arb_stream()) {
        let cfg = CacheConfig { alpha: 0.7, limit_bytes: u64::MAX, ..CacheConfig::default() };
        let sizes: Vec<u64> = vec![2; UNIVERSE as usize];
        let mut cache = ImageCache::new(cfg, Arc::new(TableSizes::new(sizes)));
        let mut last_written = 0;
        for s in &stream {
            let out = cache.request(s);
            let written = cache.stats().bytes_written;
            if matches!(out, Outcome::Hit { .. }) {
                prop_assert_eq!(written, last_written, "hit must not write");
            } else {
                prop_assert!(written > last_written || s.is_empty());
            }
            last_written = written;
        }
        cache.check_invariants();
    }
}
