use super::*;
use crate::conflict::{NoConflicts, SingleVersionPerName};
use crate::policy::{DistanceMetric, EvictionPolicy, MergeOrder};
use crate::sizes::{SizeModel, TableSizes};
use proptest::prelude::*;

/// Request package ids come from three clusters of 20, each straddling
/// a 64-bit word boundary: 54..74, 118..138 and 182..202. Specs thus
/// span up to four words of package ids, and the posting table meets
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
    )
        .prop_map(|(alpha, limit, eviction, merge_order)| CacheConfig {
            alpha,
            limit_bytes: limit,
            eviction,
            merge_order,
            eviction_seed: limit, // arbitrary but shrinkable

            // Exercise the byte-weighted metric in half the cases
            // and auto-splitting in a third.
            metric: if limit % 2 == 0 {
                DistanceMetric::Bytes
            } else {
                DistanceMetric::PackageCount
            },
            split_threshold: if limit % 3 == 0 { Some(3) } else { None },
        })
}

fn size_table() -> Vec<u64> {
    (0..UNIVERSE as u64).map(|i| 1 + i % 7).collect()
}

/// Fill images whose refcounts are skewed against id order: each holds
/// 4–11 ids of the highest cluster and at most two of the lower ones,
/// so the high ids are the common ones and counts tie often.
fn arb_skewed_spec() -> impl Strategy<Value = Spec> {
    (
        proptest::collection::vec(2 * CLUSTER..3 * CLUSTER, 4..12),
        proptest::collection::vec(0..2 * CLUSTER, 0..3),
    )
        .prop_map(|(common, rare)| {
            Spec::from_ids(
                common
                    .into_iter()
                    .chain(rare)
                    .map(|i| PackageId((i / CLUSTER + 1) * 64 - 10 + i % CLUSTER)),
            )
        })
}

/// `len` distinct ids out of `0..universe`, drawn by a Fisher–Yates
/// shuffle seeded with `seed`.
fn distinct_ids(len: usize, universe: u32, seed: u64) -> Spec {
    let mut ids: Vec<u32> = (0..universe).collect();
    let mut x = seed | 1;
    for i in (1..ids.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ids.swap(i, (x % (i as u64 + 1)) as usize);
    }
    Spec::from_ids(ids[..len].iter().map(|&i| PackageId(i)))
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
    /// engine's planner, decision for decision.
    #[test]
    fn plan_over_matches_engine_plan(
        cfg in arb_config(),
        stream in arb_stream(),
    ) {
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

    /// The posting-table planner agrees with the sorted-slice
    /// `plan_over`, decision for decision, once more than 128 images
    /// are resident (so the posting rows have regrown twice) and while
    /// evictions and bloat splits free slots for reuse; under both
    /// metrics, every merge order, and α at 0.05, 0.2, 0.75 and 1.0.
    /// Ids straddle 64-bit words, and some requests are empty. In half
    /// the cases the fill's refcounts are skewed against id order, in
    /// half every fifth package weighs nothing, and in half pairs of ids
    /// are versions of one name, so candidates conflict.
    #[test]
    fn posting_planner_matches_plan_over_with_many_images(
        alpha in prop_oneof![Just(0.05), Just(0.2), Just(0.75), Just(1.0)],
        metric in prop_oneof![Just(DistanceMetric::PackageCount), Just(DistanceMetric::Bytes)],
        merge_order in prop_oneof![
            Just(MergeOrder::NearestFirst),
            Just(MergeOrder::ArrivalOrder),
            Just(MergeOrder::LargestFirst),
            Just(MergeOrder::SmallestFirst),
        ],
        split in any::<bool>(),
        zero_sizes in any::<bool>(),
        versions in any::<bool>(),
        fill in prop_oneof![
            proptest::collection::vec(
                proptest::collection::vec(arb_id(), 1..12).prop_map(Spec::from_ids),
                130..180,
            ),
            proptest::collection::vec(arb_skewed_spec(), 130..180),
        ],
        stream in proptest::collection::vec(
            proptest::collection::vec(arb_id(), 0..12).prop_map(Spec::from_ids),
            1..60,
        ),
    ) {
        // Every fifth package weighs nothing in half the cases.
        let sizes = Arc::new(TableSizes::new(if zero_sizes {
            (0..UNIVERSE as u64).map(|i| i % 5).collect()
        } else {
            size_table()
        }));
        // The fill exactly fits, so the stream's inserts and merges
        // evict, and the freed slots are reused.
        let limit: u64 = fill.iter().map(|s| sizes.spec_bytes(s)).sum();
        let cfg = CacheConfig {
            alpha,
            limit_bytes: limit,
            merge_order,
            metric,
            split_threshold: split.then_some(2),
            ..CacheConfig::default()
        };
        // In half the cases ids 2k and 2k + 1 are two versions of one
        // name, so the nearest candidate often conflicts and the planner
        // falls back to the next one in the merge order.
        let conflicts: Arc<dyn ConflictPolicy> = if versions {
            Arc::new(SingleVersionPerName::new((0..UNIVERSE).map(|i| i / 2).collect()))
        } else {
            Arc::new(NoConflicts)
        };
        let mut cache = ImageCache::with_conflicts(
            cfg,
            Arc::clone(&sizes) as Arc<dyn SizeModel>,
            Arc::clone(&conflicts),
        );
        for s in &fill {
            cache.insert_fresh(s);
        }
        prop_assert_eq!(cache.len(), fill.len());
        cache.check_invariants();
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
                    alpha,
                    merge_order,
                    metric,
                    sizes.as_ref(),
                    conflicts.as_ref(),
                );
                prop_assert_eq!(cache.plan(s).op, free);
            }
            cache.request(s);
        }
        cache.check_invariants();
    }

    /// Requests of 16 to 200 packages — far larger than the streams
    /// above draw — against more than 128 images of up to 80 packages,
    /// some freed and their slots reused: overlaps reach well past 15,
    /// so the posting table's bit-sliced counters carry into their high
    /// planes. The engine plans every request exactly as `plan_over`
    /// does, under both metrics, every merge order and α at 0.05, 0.2,
    /// 0.75 and 1.0, while the requests' inserts and merges evict.
    #[test]
    fn posting_planner_matches_plan_over_on_large_requests(
        alpha in prop_oneof![Just(0.05), Just(0.2), Just(0.75), Just(1.0)],
        metric in prop_oneof![Just(DistanceMetric::PackageCount), Just(DistanceMetric::Bytes)],
        merge_order in prop_oneof![
            Just(MergeOrder::NearestFirst),
            Just(MergeOrder::ArrivalOrder),
            Just(MergeOrder::LargestFirst),
            Just(MergeOrder::SmallestFirst),
        ],
        fill in proptest::collection::vec(
            proptest::collection::vec(0u32..320, 0..80)
                .prop_map(|v| Spec::from_ids(v.into_iter().map(PackageId))),
            130..200,
        ),
        freed in proptest::collection::vec(0u8..6, 200),
        refill in 0usize..20,
        requests in proptest::collection::vec((16usize..201, any::<u64>()), 1..12),
    ) {
        let sizes: Arc<dyn SizeModel> =
            Arc::new(TableSizes::new((0..320u64).map(|i| 1 + i % 7).collect()));
        let limit: u64 = fill.iter().map(|s| sizes.spec_bytes(s)).sum();
        let cfg = CacheConfig {
            alpha,
            limit_bytes: limit,
            merge_order,
            metric,
            ..CacheConfig::default()
        };
        let mut cache = ImageCache::new(cfg, Arc::clone(&sizes));
        for s in &fill {
            cache.insert_fresh(s);
        }
        for (id, &f) in (0u64..).zip(&freed) {
            if f == 0 {
                cache.remove_image(ImageId(id));
            }
        }
        for s in &fill[..refill] {
            cache.insert_fresh(s);
        }
        cache.check_invariants();
        for &(len, seed) in &requests {
            let s = distinct_ids(len, 320, seed);
            cache.settle();
            {
                let entries: Vec<(u64, &Spec, u64)> = cache
                    .images()
                    .map(|img| (img.id.0, &img.spec, img.bytes))
                    .collect();
                let free = plan_over(
                    &entries,
                    &s,
                    alpha,
                    merge_order,
                    metric,
                    sizes.as_ref(),
                    &NoConflicts,
                );
                prop_assert_eq!(cache.plan(&s).op, free);
            }
            cache.request(&s);
        }
        cache.check_invariants();
    }

    /// Every resident image's overlap with a request, as the posting
    /// table counts it — bit-sliced under the package count, summed per
    /// slot under the byte metric — equals the sorted-slice intersection; and the images read out
    /// at α's least overlap are exactly those reaching it. Requests of 8k ± 1 and
    /// 2^k ± 1 packages (and empty ones) meet more than 128 slots, some
    /// freed and reused, images up to id 300 and request ids past the
    /// last row, with every fifth package weighing nothing.
    #[test]
    fn posting_counts_match_sorted_kernels(
        alpha in prop_oneof![Just(0.05), Just(0.2), Just(0.75), Just(1.0)],
        fill in proptest::collection::vec(
            proptest::collection::vec(0u32..300, 0..40)
                .prop_map(|v| Spec::from_ids(v.into_iter().map(PackageId))),
            130..200,
        ),
        freed in proptest::collection::vec(0u8..6, 200),
        refill in 0usize..20,
        len in prop_oneof![
            Just(0usize), Just(1), Just(7), Just(8), Just(9), Just(15), Just(16), Just(17),
            Just(31), Just(32), Just(33), Just(63), Just(64), Just(65), Just(127), Just(128),
            Just(129),
        ],
        seed in any::<u64>(),
    ) {
        let sizes: Arc<dyn SizeModel> =
            Arc::new(TableSizes::new((0..320u64).map(|i| i % 5).collect()));
        let request = distinct_ids(len, 320, seed);
        let requested_bytes = sizes.spec_bytes(&request);
        for metric in [DistanceMetric::PackageCount, DistanceMetric::Bytes] {
            let cfg = CacheConfig { alpha, limit_bytes: u64::MAX, metric, ..CacheConfig::default() };
            let mut cache = ImageCache::new(cfg, Arc::clone(&sizes));
            for s in &fill {
                cache.insert_fresh(s);
            }
            for (id, &f) in (0u64..).zip(&freed) {
                if f == 0 {
                    cache.remove_image(ImageId(id));
                }
            }
            for s in &fill[..refill] {
                cache.insert_fresh(s);
            }
            cache.check_invariants();
            let want = |img: &Image| -> u64 {
                match metric {
                    DistanceMetric::PackageCount => request.intersection_len(&img.spec) as u64,
                    DistanceMetric::Bytes => sizes.spec_bytes(&request.intersection(&img.spec)),
                }
            };
            let read = |least: u64| {
                let mut got = Vec::new();
                cache.postings.overlaps(&request, metric, sizes.as_ref(), least, |_, r, n| {
                    got.push((r.id, n))
                });
                got.sort_unstable();
                got
            };
            let mut every: Vec<(u64, u64)> =
                cache.images().map(|img| (img.id.0, want(img))).collect();
            every.sort_unstable();
            prop_assert_eq!(read(0), every.clone());
            let least = cache.least_overlap(&request, requested_bytes);
            every.retain(|&(_, n)| n >= least);
            prop_assert_eq!(read(least), every);
        }
    }

    /// A cache restored from its snapshot (serialized and read back)
    /// plans exactly like the live cache: `from_parts` rebuilds the
    /// posting table, so each request of the stream gets the same plan from
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

    /// `build_for` sizes a planned merge from the posting table: the
    /// bytes it says a rewrite writes are the bytes `apply` then gives
    /// the merged image, for every merge a random stream plans, under
    /// every config knob. Hits and inserts agree with `apply` too.
    #[test]
    fn build_for_sizes_merges_as_apply_grows_them(
        cfg in arb_config(),
        stream in arb_stream(),
    ) {
        let mut cache = ImageCache::new(cfg, Arc::new(TableSizes::new(size_table())));
        for s in &stream {
            cache.settle();
            let plan = cache.plan(s);
            let build = cache.build_for(s, plan).build;
            match (build, cache.apply(s, &plan)) {
                (BuildPlan::Hit, Outcome::Hit { .. }) => {}
                (BuildPlan::Rewrite { bytes }, Outcome::Merged { image_bytes, .. })
                | (BuildPlan::Insert { bytes }, Outcome::Inserted { image_bytes, .. }) => {
                    prop_assert_eq!(bytes, image_bytes);
                }
                (build, out) => prop_assert!(false, "{build:?} planned, {out:?} applied"),
            }
        }
        cache.check_invariants();
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

// Properties re-run at a higher case count by CI's paranoid job
// (`PROPTEST_CASES`, which the default config reads).
proptest! {
    /// Differential merge test: the packages a merge adds, read from
    /// the posting table, are exactly the sorted-slice difference, and
    /// the merged image's bytes, grown by the added packages alone,
    /// equal a full re-sum of its spec. Forced merge plans put random
    /// requests into random resident images among 70–140 slots (so a
    /// row spans two or three words), interleaved with inserts and
    /// removals that free and reuse slots and with the evictions the
    /// byte limit forces. Requests reach ids past every row, and every
    /// fifth package weighs nothing.
    #[test]
    fn merges_add_exactly_the_sorted_difference(
        eviction in (0..EvictionPolicy::ALL.len()).prop_map(|i| EvictionPolicy::ALL[i]),
        fill in proptest::collection::vec(
            proptest::collection::vec(0u32..300, 1..30)
                .prop_map(|v| Spec::from_ids(v.into_iter().map(PackageId))),
            70..140,
        ),
        ops in proptest::collection::vec((0u8..6, any::<u64>(), 0usize..60), 1..40),
    ) {
        let sizes: Arc<dyn SizeModel> =
            Arc::new(TableSizes::new((0..340u64).map(|i| i % 5).collect()));
        let limit: u64 = fill.iter().map(|s| sizes.spec_bytes(s)).sum();
        let cfg = CacheConfig { limit_bytes: limit, eviction, ..CacheConfig::default() };
        let mut cache = ImageCache::new(cfg, Arc::clone(&sizes));
        for s in &fill {
            cache.insert_fresh(s);
        }
        for &(kind, pick, len) in &ops {
            let request = distinct_ids(len, 340, pick);
            let mut ids: Vec<ImageId> = cache.images().map(|img| img.id).collect();
            ids.sort_unstable();
            match kind {
                0 => {
                    cache.insert_fresh(&request);
                }
                1 if ids.len() > 1 => {
                    cache.remove_image(ids[pick as usize % ids.len()]);
                }
                _ if !ids.is_empty() => {
                    let image = ids[pick as usize % ids.len()];
                    let slot = cache.slot_of(image).expect("resident image has a slot");
                    let before = cache.resident(slot).expect("slot is occupied").clone();
                    let added = cache.postings.missing(slot, &request);
                    let want = request.difference(&before.spec);
                    prop_assert_eq!(&added[..], want.ids());
                    cache.settle();
                    let plan = Plan {
                        op: PlannedOp::Merge { image, distance: 0.5 },
                        requested_bytes: sizes.spec_bytes(&request),
                    };
                    let out = cache.apply(&request, &plan);
                    let after = cache.get(image).expect("merge target survives");
                    prop_assert_eq!(&after.spec, &before.spec.union(&request));
                    prop_assert_eq!(after.bytes, sizes.spec_bytes(&after.spec));
                    prop_assert_eq!(after.bytes, before.bytes + sizes.ids_bytes(&added));
                    prop_assert_eq!(out.image_bytes(), after.bytes);
                }
                _ => {}
            }
        }
        cache.check_invariants();
    }

    /// Differential unique-bytes test: the unique bytes the posting
    /// rows keep — a package counts while its row is nonzero — equal
    /// those of a [`PackageRefs`] replay of the same images, and each
    /// row is nonzero exactly when the replay's refcount is positive,
    /// after every step. 130–170 images fill the cache first, exactly
    /// to its byte limit, so rows are three words wide and a package's
    /// holders sit in different words; then random inserts, removals
    /// and forced merges free and reuse slots, and the byte limit
    /// evicts. Requests reach ids past every row. The replay diffs the resident images before and after
    /// each step: a departed image releases its spec, a new one adds
    /// its spec, and a merged one adds what its spec gained.
    #[test]
    fn posting_rows_count_unique_bytes_like_package_refs(
        eviction in (0..EvictionPolicy::ALL.len()).prop_map(|i| EvictionPolicy::ALL[i]),
        fill in proptest::collection::vec(
            proptest::collection::vec(0u32..300, 1..30)
                .prop_map(|v| Spec::from_ids(v.into_iter().map(PackageId))),
            130..170,
        ),
        ops in proptest::collection::vec((0u8..5, any::<u64>(), 0usize..60), 1..40),
    ) {
        const IDS: u32 = 400;
        let sizes: Arc<dyn SizeModel> =
            Arc::new(TableSizes::new((0..u64::from(IDS)).map(|i| 1 + i % 5).collect()));
        let limit: u64 = fill.iter().map(|s| sizes.spec_bytes(s)).sum();
        let cfg = CacheConfig { limit_bytes: limit, eviction, ..CacheConfig::default() };
        let mut cache = ImageCache::new(cfg, Arc::clone(&sizes));
        let (mut refs, mut ledger) = (PackageRefs::new(), Ledger::new());
        let mut held: FxHashMap<u64, Spec> = FxHashMap::default();
        let steps = fill.iter().map(|s| (0, 0, s.clone())).chain(
            ops.iter().map(|&(kind, pick, len)| (kind, pick, distinct_ids(len, IDS, pick))),
        );
        for (kind, pick, request) in steps {
            let mut ids: Vec<ImageId> = cache.images().map(|img| img.id).collect();
            ids.sort_unstable();
            match kind {
                0 => {
                    cache.insert_fresh(&request);
                }
                1 if ids.len() > 1 => {
                    cache.remove_image(ids[pick as usize % ids.len()]);
                }
                _ if !ids.is_empty() => {
                    cache.settle();
                    let plan = Plan {
                        op: PlannedOp::Merge {
                            image: ids[pick as usize % ids.len()],
                            distance: 0.5,
                        },
                        requested_bytes: sizes.spec_bytes(&request),
                    };
                    cache.apply(&request, &plan);
                }
                _ => {}
            }
            let now: FxHashMap<u64, Spec> =
                cache.images().map(|img| (img.id.0, img.spec.clone())).collect();
            for (id, spec) in &held {
                if !now.contains_key(id) {
                    refs.release_spec(spec, sizes.as_ref(), &mut ledger);
                }
            }
            for (id, spec) in &now {
                let gained = held.get(id).map_or(spec.clone(), |old| spec.difference(old));
                refs.add_spec(&gained, sizes.as_ref(), &mut ledger);
            }
            held = now;
            prop_assert_eq!(cache.stats().unique_bytes, ledger.stats().unique_bytes);
            for p in (0..IDS).map(PackageId) {
                let counted = refs.counts().get(p.index()).is_some_and(|&n| n > 0);
                prop_assert_eq!(cache.postings.held(p), counted, "row of {}", p);
            }
        }
        cache.check_invariants();
    }

    /// Differential evictor test: drive every evictor (LRU list,
    /// queue rotation, sampling) through random insert/touch/remove/
    /// evict sequences, each image in a slot handed out as the engine's
    /// posting table does (freed slots reused last-freed first). An op
    /// advances the clock only when its flag says so, so inserts and
    /// touches often share a tick, and some inserts carry an older
    /// tick, as a restore admits images. All seven must keep `check()`
    /// consistency at every step. LRU must agree, victim for victim and
    /// ties included, with a naive O(n) scan for the least
    /// `(last_used, id)`; each of the four priority policies with a
    /// reference that keeps the images in insertion order with
    /// swap-removal, draws the same seeded samples from that order and
    /// takes the least `(priority, tiebreak, id)` among them, GDSF's
    /// inflation included.
    #[test]
    fn evictors_agree_with_naive_reference_scan(
        ops in proptest::collection::vec((0u8..5, 0u64..50, 1u64..60, any::<bool>()), 1..120),
    ) {
        for policy in EvictionPolicy::ALL {
            let cfg = CacheConfig {
                eviction: policy,
                limit_bytes: 500,
                eviction_seed: 9,
                ..CacheConfig::default()
            };
            let mut e = evictor::make_evictor(&cfg);
            // Live images by id, each with its slot; the slot allocator.
            let mut images: FxHashMap<u64, (u32, Image)> = FxHashMap::default();
            let mut free: Vec<u32> = Vec::new();
            let mut opened = 0u32;
            // Reference model: stored (priority, tiebreak) per image,
            // the GDSF inflation value, the sampling order (ids, swap-
            // removed) and the sampling stream.
            let mut stored: FxHashMap<u64, (f64, u64)> = FxHashMap::default();
            let mut inflation = 0.0f64;
            let mut order: Vec<u64> = Vec::new();
            let mut rng = evictor::SplitMix64(cfg.eviction_seed);
            let referenced = !matches!(
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
            let pick_live = |images: &FxHashMap<u64, (u32, Image)>, pick: u64| {
                let mut ids: Vec<u64> = images.keys().copied().collect();
                ids.sort_unstable();
                ids[(pick as usize) % ids.len()]
            };

            for &(kind, pick, bytes, advance) in &ops {
                if advance {
                    clock += 1;
                }
                match kind {
                    0 | 4 => {
                        // Insert a fresh image at the current tick, or
                        // (kind 4) at an older one.
                        let id = next_id;
                        next_id += 1;
                        let last_used = if kind == 4 { pick % (clock + 1) } else { clock };
                        let img = Image::new(
                            ImageId(id),
                            Spec::from_ids([PackageId((id % 60) as u32)]),
                            bytes,
                            last_used,
                        );
                        let slot = free.pop().unwrap_or_else(|| {
                            opened += 1;
                            opened - 1
                        });
                        stored.insert(id, key_of(&img, inflation));
                        order.push(id);
                        e.on_insert(slot, &img);
                        images.insert(id, (slot, img));
                    }
                    1 if !images.is_empty() => {
                        // Touch a live image (hit semantics).
                        let id = pick_live(&images, pick);
                        let (slot, img) = images.get_mut(&id).expect("picked live id");
                        img.last_used = clock;
                        img.use_count += 1;
                        if pick % 4 == 0 {
                            img.bytes += 1; // merge grew the image
                        }
                        stored.insert(id, key_of(img, inflation));
                        e.on_touch(*slot, img);
                    }
                    2 if !images.is_empty() => {
                        // Administrative removal (split path): no
                        // note_eviction, straight detach.
                        let id = pick_live(&images, pick);
                        let (slot, img) = images.remove(&id).expect("picked live id");
                        stored.remove(&id);
                        order.swap_remove(order.iter().position(|&o| o == id).expect("ordered"));
                        e.on_remove(slot, &img);
                        free.push(slot);
                    }
                    3 if !images.is_empty() => {
                        // Byte-limit eviction through the seam.
                        let peeked = e.peek_victim(None);
                        let victim = e.select_victim(None);
                        prop_assert_eq!(victim, peeked, "{:?}: peek must preview select", policy);
                        let victim = victim.expect("nonempty cache yields a victim");
                        if referenced {
                            // LRU ranks every image; a sampled policy the
                            // images its draws land on.
                            let candidates: Vec<u64> = if policy == EvictionPolicy::Lru {
                                order.clone()
                            } else {
                                (0..evictor::PRIORITY_SAMPLES)
                                    .map(|_| order[(rng.next() % order.len() as u64) as usize])
                                    .collect()
                            };
                            let reference = candidates
                                .into_iter()
                                .map(|id| {
                                    let &(pri, tiebreak) = stored.get(&id).expect("stored key");
                                    (pri, tiebreak, id)
                                })
                                .min_by(|a, b| {
                                    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
                                })
                                .map(|(.., id)| ImageId(id));
                            prop_assert_eq!(
                                Some(victim), reference,
                                "{:?}: victim disagrees with the reference", policy
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
                        let (slot, img) = images.remove(&victim.0).expect("victim is live");
                        stored.remove(&victim.0);
                        order.swap_remove(order.iter().position(|&o| o == victim.0).expect("ordered"));
                        e.note_eviction(slot, &img);
                        e.on_remove(slot, &img);
                        free.push(slot);
                    }
                    _ => {}
                }
                e.check(&images.values().map(|(slot, img)| (*slot, img)).collect::<Vec<_>>());
                prop_assert_eq!(e.len(), images.len());
            }
        }
    }
}
