use super::*;
use crate::conflict::SingleVersionPerName;
use crate::policy::{DistanceMetric, EvictionPolicy};
use crate::sizes::{TableSizes, UniformSizes};

fn spec(ids: &[u32]) -> Spec {
    Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
}

fn cache(alpha: f64, limit: u64) -> ImageCache {
    let cfg = CacheConfig {
        alpha,
        limit_bytes: limit,
        ..CacheConfig::default()
    };
    ImageCache::new(cfg, Arc::new(UniformSizes::new(1)))
}

#[test]
fn first_request_inserts() {
    let mut c = cache(0.8, 100);
    let out = c.request(&spec(&[1, 2, 3]));
    assert!(matches!(out, Outcome::Inserted { image_bytes: 3, .. }));
    let s = c.stats();
    assert_eq!((s.inserts, s.hits, s.merges), (1, 0, 0));
    assert_eq!(s.total_bytes, 3);
    assert_eq!(s.unique_bytes, 3);
    c.check_invariants();
}

#[test]
fn identical_request_hits() {
    let mut c = cache(0.8, 100);
    c.request(&spec(&[1, 2, 3]));
    let out = c.request(&spec(&[1, 2, 3]));
    assert!(matches!(out, Outcome::Hit { .. }));
    assert_eq!(c.stats().hits, 1);
    // Hits write nothing.
    assert_eq!(c.stats().bytes_written, 3);
    c.check_invariants();
}

#[test]
fn subset_request_hits_superset_image() {
    let mut c = cache(0.8, 100);
    c.request(&spec(&[1, 2, 3, 4]));
    let out = c.request(&spec(&[2, 3]));
    assert!(matches!(out, Outcome::Hit { image_bytes: 4, .. }));
    c.check_invariants();
}

#[test]
fn hit_prefers_smallest_satisfying_image() {
    let mut c = cache(0.0, 100); // no merging: build two distinct images
    c.request(&spec(&[1, 2, 3, 4, 5, 6, 7, 8]));
    c.request(&spec(&[1, 2, 9])); // not a subset of the first image
    assert_eq!(c.len(), 2);
    let out = c.request(&spec(&[1, 2]));
    // Both images satisfy {1,2}; the 3-package one is smaller.
    assert_eq!(out.image_bytes(), 3);
    c.check_invariants();
}

#[test]
fn close_request_merges() {
    let mut c = cache(0.8, 100);
    let a = c.request(&spec(&[1, 2, 3]));
    let out = c.request(&spec(&[1, 2, 4])); // d = 2/4 = 0.5 < 0.8
    match out {
        Outcome::Merged {
            image,
            distance,
            image_bytes,
        } => {
            assert_eq!(image, a.image(), "merge keeps the candidate's id");
            assert!((distance - 0.5).abs() < 1e-12);
            assert_eq!(image_bytes, 4); // {1,2,3,4}
        }
        other => panic!("expected merge, got {other:?}"),
    }
    assert_eq!(c.len(), 1);
    // Insert wrote 3, merge rewrote all 4.
    assert_eq!(c.stats().bytes_written, 7);
    c.check_invariants();
}

#[test]
fn merged_image_satisfies_both_constituents() {
    let mut c = cache(0.8, 100);
    c.request(&spec(&[1, 2, 3]));
    c.request(&spec(&[1, 2, 4]));
    assert!(matches!(c.request(&spec(&[1, 2, 3])), Outcome::Hit { .. }));
    assert!(matches!(c.request(&spec(&[1, 2, 4])), Outcome::Hit { .. }));
    assert!(matches!(c.request(&spec(&[3, 4])), Outcome::Hit { .. }));
    c.check_invariants();
}

fn same_storage(a: &Spec, b: &Spec) -> bool {
    std::ptr::eq(a.ids().as_ptr(), b.ids().as_ptr())
}

#[test]
fn inserted_image_shares_the_request_spec() {
    let mut c = cache(0.8, 100);
    let request = spec(&[1, 2, 3]);
    let id = c.request(&request).image();
    let img = c.get(id).expect("inserted image is resident");
    assert!(same_storage(&img.spec, &request));
    assert!(same_storage(&img.constituents[0], &request));
    c.check_invariants();
}

#[test]
fn merged_constituent_shares_the_request_spec() {
    let mut c = cache(0.8, 100);
    c.request(&spec(&[1, 2, 3]));
    let request = spec(&[1, 2, 4]);
    let out = c.request(&request);
    assert!(matches!(out, Outcome::Merged { .. }), "{out:?}");
    let img = c.get(out.image()).expect("merged image is resident");
    let newest = img.constituents.last().expect("a constituent");
    assert_eq!(newest, &request);
    assert!(same_storage(newest, &request));
    // The merged spec itself is a new union, not the request's slice.
    assert!(!same_storage(&img.spec, &request));
    c.check_invariants();
}

#[test]
fn alpha_zero_never_merges() {
    let mut c = cache(0.0, 1000);
    c.request(&spec(&[1, 2, 3]));
    let out = c.request(&spec(&[1, 2, 4]));
    assert!(matches!(out, Outcome::Inserted { .. }));
    assert_eq!(c.len(), 2);
    assert_eq!(c.stats().merges, 0);
    c.check_invariants();
}

#[test]
fn far_request_inserts_despite_high_alpha() {
    let mut c = cache(0.6, 1000);
    c.request(&spec(&[1, 2, 3]));
    // d({1,2,3},{4,5,6}) = 1.0 ≥ 0.6 → no merge.
    let out = c.request(&spec(&[4, 5, 6]));
    assert!(matches!(out, Outcome::Inserted { .. }));
    assert_eq!(c.len(), 2);
    c.check_invariants();
}

#[test]
fn alpha_one_merges_any_overlap() {
    let mut c = cache(1.0, 1000);
    c.request(&spec(&[1, 2, 3, 4, 5, 6, 7, 8, 9]));
    // Distance 9/10 = 0.9 < 1.0 → merged.
    let out = c.request(&spec(&[9, 100]));
    assert!(matches!(out, Outcome::Merged { .. }));
    // Fully disjoint still inserts (d = 1.0 is not < 1.0).
    let out = c.request(&spec(&[500]));
    assert!(matches!(out, Outcome::Inserted { .. }));
    c.check_invariants();
}

#[test]
fn nearest_first_picks_closest_candidate() {
    let mut c = cache(0.99, 10_000);
    c.request(&spec(&[1, 2, 3, 4])); // img A
    c.request(&spec(&[100, 101, 102, 103])); // img B, disjoint from A
    assert_eq!(c.len(), 2);
    // Request close to A (d = 2/5 = 0.4) and sharing one package
    // with B (d = 6/7 ≈ 0.857): both are candidates under α = 0.99,
    // nearest-first must pick A.
    let out = c.request(&spec(&[1, 2, 3, 100]));
    match out {
        Outcome::Merged { distance, .. } => assert!((distance - 0.4).abs() < 1e-9),
        other => panic!("expected merge, got {other:?}"),
    }
    // A absorbed it: contains 100 now, but not B's 101.
    let a = c.images().find(|i| i.spec.contains(PackageId(1))).unwrap();
    assert!(a.spec.contains(PackageId(100)));
    assert!(!a.spec.contains(PackageId(101)));
    c.check_invariants();
}

#[test]
fn lru_eviction_under_pressure() {
    let mut c = cache(0.0, 6);
    c.request(&spec(&[1, 2, 3])); // img A, 3 bytes
    c.request(&spec(&[4, 5, 6])); // img B, 3 bytes — total 6, at limit
    c.request(&spec(&[7, 8, 9])); // img C → must evict A (LRU)
    assert_eq!(c.len(), 2);
    assert_eq!(c.stats().deletes, 1);
    // A is gone: requesting it reinserts (and evicts B).
    let out = c.request(&spec(&[1, 2, 3]));
    assert!(matches!(out, Outcome::Inserted { .. }));
    c.check_invariants();
}

#[test]
fn touching_image_protects_it_from_lru() {
    let mut c = cache(0.0, 6);
    c.request(&spec(&[1, 2, 3])); // A
    c.request(&spec(&[4, 5, 6])); // B
    c.request(&spec(&[1, 2, 3])); // hit A → A newer than B
    c.request(&spec(&[7, 8, 9])); // evicts B, not A
    assert!(matches!(c.request(&spec(&[1, 2, 3])), Outcome::Hit { .. }));
    c.check_invariants();
}

#[test]
fn gdsf_eviction_is_selectable_end_to_end() {
    let cfg = CacheConfig {
        alpha: 0.0,
        limit_bytes: 6,
        eviction: EvictionPolicy::Gdsf,
        ..CacheConfig::default()
    };
    let mut c = ImageCache::new(cfg, Arc::new(UniformSizes::new(1)));
    c.request(&spec(&[1, 2, 3])); // A: H = 1/3, older
    c.request(&spec(&[4, 5, 6])); // B: H = 1/3
    c.request(&spec(&[7, 8, 9])); // over limit → A evicted (tie → older)
    assert_eq!(c.stats().deletes, 1);
    assert!(matches!(c.request(&spec(&[4, 5, 6])), Outcome::Hit { .. }));
    c.check_invariants();
}

#[test]
fn gdsf_prefers_evicting_large_low_frequency_images() {
    let cfg = CacheConfig {
        alpha: 0.0,
        limit_bytes: 12,
        eviction: EvictionPolicy::Gdsf,
        ..CacheConfig::default()
    };
    let mut c = ImageCache::new(cfg, Arc::new(UniformSizes::new(1)));
    c.request(&spec(&(100..110).collect::<Vec<u32>>())); // big: H = 1/10
    c.request(&spec(&[1, 2])); // small, then hit twice → H = 3/2
    c.request(&spec(&[1, 2]));
    c.request(&spec(&[1, 2]));
    c.request(&spec(&[3, 4])); // 14 bytes total → evict the big one
    assert_eq!(c.stats().deletes, 1);
    assert!(
        matches!(c.request(&spec(&[1, 2])), Outcome::Hit { .. }),
        "dense small image must survive"
    );
    c.check_invariants();
}

#[test]
fn oversized_single_image_is_kept() {
    let mut c = cache(0.0, 2);
    let out = c.request(&spec(&[1, 2, 3, 4, 5]));
    assert!(matches!(out, Outcome::Inserted { .. }));
    assert_eq!(c.len(), 1, "the only image serving the job must survive");
    assert!(c.stats().total_bytes > c.config().limit_bytes);
    c.check_invariants();
}

#[test]
fn unique_vs_total_bytes_tracks_duplication() {
    let mut c = cache(0.0, 1000);
    c.request(&spec(&[1, 2, 3]));
    c.request(&spec(&[2, 3, 4]));
    let s = c.stats();
    assert_eq!(s.total_bytes, 6, "two 3-package images");
    assert_eq!(s.unique_bytes, 4, "packages 1..=4 once each");
    assert!((s.cache_efficiency_pct() - 66.6667).abs() < 0.01);
    c.check_invariants();
}

#[test]
fn container_efficiency_degrades_with_merging() {
    let mut c = cache(1.0, 1000);
    c.request(&spec(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]));
    // This tiny request is served by the big merged image.
    c.request(&spec(&[1, 11]));
    let eff = c.container_efficiency_pct();
    assert!(
        eff < 100.0,
        "merging must cost container efficiency, got {eff}"
    );
    c.check_invariants();
}

#[test]
fn requested_bytes_independent_of_alpha() {
    let reqs: Vec<Spec> = vec![spec(&[1, 2, 3]), spec(&[1, 2, 4]), spec(&[5, 6, 7])];
    let mut totals = Vec::new();
    for alpha in [0.0, 0.5, 1.0] {
        let mut c = cache(alpha, 1000);
        for r in &reqs {
            c.request(r);
        }
        c.check_invariants();
        totals.push(c.stats().bytes_requested);
    }
    assert!(totals.windows(2).all(|w| w[0] == w[1]), "{totals:?}");
}

#[test]
fn conflicting_merge_is_skipped() {
    // Packages 0 and 1 are two versions of the same name.
    let names = vec![7, 7, 8, 9, 10];
    let cfg = CacheConfig {
        alpha: 1.0,
        limit_bytes: 1000,
        ..CacheConfig::default()
    };
    let mut c = ImageCache::with_conflicts(
        cfg,
        Arc::new(UniformSizes::new(1)),
        Arc::new(SingleVersionPerName::new(names)),
    );
    c.request(&spec(&[0, 2]));
    // Overlaps via pkg 2, but pkg 1 conflicts with cached pkg 0.
    let out = c.request(&spec(&[1, 2]));
    assert!(
        matches!(out, Outcome::Inserted { .. }),
        "conflict must block merge"
    );
    assert_eq!(c.len(), 2);
    c.check_invariants();
}

#[test]
fn sized_packages_account_correctly() {
    let sizes = TableSizes::new(vec![10, 20, 30, 40]);
    let cfg = CacheConfig {
        alpha: 0.9,
        limit_bytes: 1000,
        ..CacheConfig::default()
    };
    let mut c = ImageCache::new(cfg, Arc::new(sizes));
    c.request(&spec(&[0, 1])); // 30 bytes
    c.request(&spec(&[0, 2])); // d = 2/3 < 0.9 → merge {0,1,2} = 60 bytes
    let s = c.stats();
    assert_eq!(s.total_bytes, 60);
    assert_eq!(s.unique_bytes, 60);
    assert_eq!(s.bytes_written, 30 + 60);
    c.check_invariants();
}

#[test]
fn remove_image_administratively() {
    let mut c = cache(0.0, 1000);
    let out = c.request(&spec(&[1, 2]));
    assert!(c.remove_image(out.image()));
    assert!(!c.remove_image(out.image()));
    assert!(c.is_empty());
    assert_eq!(c.stats().total_bytes, 0);
    assert_eq!(c.stats().unique_bytes, 0);
    c.check_invariants();
}

#[test]
fn manual_split_restores_constituents() {
    let mut c = cache(1.0, 1000);
    let a = spec(&[1, 2, 3]);
    let b = spec(&[1, 2, 4]);
    let merged = c.request(&a).image();
    assert_eq!(c.request(&b).image(), merged);
    let pieces = c.split_image(merged);
    assert_eq!(pieces.len(), 2);
    assert!(c.get(merged).is_none(), "split image is gone");
    assert_eq!(c.len(), 2);
    // Each constituent is exactly servable again.
    assert!(matches!(c.request(&a), Outcome::Hit { image_bytes: 3, .. }));
    assert!(matches!(c.request(&b), Outcome::Hit { image_bytes: 3, .. }));
    assert_eq!(c.stats().splits, 1);
    c.check_invariants();
}

#[test]
fn split_of_single_constituent_is_noop() {
    let mut c = cache(0.0, 1000);
    let id = c.request(&spec(&[1, 2])).image();
    assert!(c.split_image(id).is_empty());
    assert!(c.get(id).is_some());
    assert_eq!(c.stats().splits, 0);
    c.check_invariants();
}

#[test]
fn split_of_unknown_image_is_noop() {
    let mut c = cache(0.0, 1000);
    assert!(c.split_image(ImageId(99)).is_empty());
    c.check_invariants();
}

#[test]
fn auto_split_triggers_after_threshold() {
    let cfg = CacheConfig {
        alpha: 1.0,
        limit_bytes: 10_000,
        split_threshold: Some(2),
        ..CacheConfig::default()
    };
    let mut c = ImageCache::new(cfg, Arc::new(UniformSizes::new(1)));
    c.request(&spec(&[1, 2, 3]));
    c.request(&spec(&[1, 2, 4])); // merge 1
    c.request(&spec(&[1, 2, 5])); // merge 2 → flags pending split
    assert_eq!(c.len(), 1, "split is lazy; not yet applied");
    // The next request triggers the split first.
    c.request(&spec(&[100, 101]));
    assert_eq!(c.stats().splits, 1);
    assert_eq!(c.len(), 4, "3 constituents + the new insert");
    c.check_invariants();
}

#[test]
fn split_accounts_written_bytes() {
    let mut c = cache(1.0, 1000);
    let id = c.request(&spec(&[1, 2, 3])).image();
    c.request(&spec(&[1, 2, 4]));
    let before = c.stats().bytes_written;
    c.split_image(id);
    // Two constituents of 3 packages each rewritten.
    assert_eq!(c.stats().bytes_written, before + 6);
    c.check_invariants();
}

#[test]
fn split_pieces_respect_cache_limit() {
    // Union fits, but pieces duplicate shared packages and overflow.
    let mut c = cache(1.0, 4);
    let id = c.request(&spec(&[1, 2, 3])).image();
    c.request(&spec(&[1, 2, 4])); // merged image = {1,2,3,4} = limit
    let pieces = c.split_image(id);
    assert_eq!(pieces.len(), 2);
    // 2 pieces × 3 bytes = 6 > 4 → one piece evicted.
    assert_eq!(c.len(), 1);
    assert!(c.stats().total_bytes <= 4);
    c.check_invariants();
}

#[test]
fn event_sink_sees_all_operations() {
    use crate::events::{CacheEvent, EventSink};
    use parking_lot::Mutex;

    // A sink that shares its buffer with the test, so no downcast of
    // the boxed `dyn EventSink` is ever needed.
    struct Capture(Arc<Mutex<Vec<CacheEvent>>>);
    impl EventSink for Capture {
        fn on_event(&mut self, event: &CacheEvent) {
            self.0.lock().push(*event);
        }
    }

    let events = Arc::new(Mutex::new(Vec::new()));
    let mut c = cache(0.8, 3);
    c.set_sink(Box::new(Capture(Arc::clone(&events))));
    c.request(&spec(&[1, 2, 3])); // insert
    c.request(&spec(&[1, 2, 3])); // hit
    c.request(&spec(&[10, 11, 12])); // insert + evict (over 3-byte limit)
    c.check_invariants();
    drop(c.take_sink());
    let kinds: Vec<&str> = events.lock().iter().map(|e| e.kind()).collect();
    assert_eq!(kinds, vec!["insert", "hit", "insert", "evict"]);
}

#[test]
#[should_panic(expected = "alpha must be in [0,1]")]
fn invalid_alpha_rejected() {
    let cfg = CacheConfig {
        alpha: 1.5,
        ..CacheConfig::default()
    };
    let _ = ImageCache::new(cfg, Arc::new(UniformSizes::new(1)));
}

#[test]
fn empty_spec_request_is_harmless() {
    let mut c = cache(0.8, 10);
    let out = c.request(&Spec::empty());
    assert!(matches!(out, Outcome::Inserted { image_bytes: 0, .. }));
    // And now everything hits it? No: empty ⊆ anything, so the empty
    // image satisfies only empty requests; others miss.
    let out2 = c.request(&Spec::empty());
    assert!(matches!(out2, Outcome::Hit { .. }));
    c.check_invariants();
}

#[test]
fn plan_predicts_request_decisions() {
    let mut c = cache(0.8, 100);
    assert_eq!(c.plan(&spec(&[1, 2, 3])).op, PlannedOp::Insert);
    let id = c.request(&spec(&[1, 2, 3])).image();

    assert_eq!(c.plan(&spec(&[1, 2])).op, PlannedOp::Hit { image: id });
    match c.plan(&spec(&[1, 2, 4])).op {
        PlannedOp::Merge { image, distance } => {
            assert_eq!(image, id);
            assert!((distance - 0.5).abs() < 1e-12);
        }
        other => panic!("expected merge plan, got {other:?}"),
    }
    assert_eq!(c.plan(&spec(&[7, 8, 9])).op, PlannedOp::Insert);

    // plan() mutated nothing, and reports the request's byte demand.
    assert_eq!(c.stats().requests, 1);
    assert_eq!(c.plan(&spec(&[1, 2, 4])).requested_bytes, 3);
    // And the real request agrees with the plan.
    assert!(matches!(
        c.request(&spec(&[1, 2, 4])),
        Outcome::Merged { .. }
    ));
    c.check_invariants();
}

#[test]
fn apply_executes_the_given_plan_verbatim() {
    let mut c = cache(0.8, 100);
    c.request(&spec(&[1, 2, 3]));
    // Hold the plan, then apply it explicitly: same result as request().
    let plan = c.plan(&spec(&[1, 2, 4]));
    assert!(matches!(plan.op, PlannedOp::Merge { .. }));
    let out = c.apply(&spec(&[1, 2, 4]), &plan);
    assert!(matches!(out, Outcome::Merged { .. }));
    assert_eq!(c.stats().requests, 2);
    c.check_invariants();
}

#[test]
fn peek_victim_matches_eviction_order() {
    let mut c = cache(0.0, 1000);
    c.request(&spec(&[1, 2, 3])); // oldest
    c.request(&spec(&[4, 5, 6]));
    let oldest = c.images().min_by_key(|i| (i.last_used, i.id)).unwrap().id;
    assert_eq!(c.peek_victim(), Some(oldest));
    c.check_invariants();
}

#[test]
fn insert_fresh_bypasses_hit_and_merge() {
    let mut c = cache(0.8, 100);
    let first = c.request(&spec(&[1, 2, 3])).image();

    // A spec that would HIT still gets its own fresh image.
    let out = c.insert_fresh(&spec(&[1, 2, 3]));
    match out {
        Outcome::Inserted { image, image_bytes } => {
            assert_ne!(image, first);
            assert_eq!(image_bytes, 3);
        }
        other => panic!("expected insert, got {other:?}"),
    }
    // A spec that would MERGE also inserts; the shared image's spec
    // is left untouched.
    assert!(matches!(
        c.plan(&spec(&[1, 2, 4])).op,
        PlannedOp::Merge { .. }
    ));
    assert!(matches!(
        c.insert_fresh(&spec(&[1, 2, 4])),
        Outcome::Inserted { .. }
    ));
    assert!(!c.get(first).unwrap().spec.contains(PackageId(4)));

    let s = c.stats();
    assert_eq!((s.requests, s.inserts, s.hits, s.merges), (3, 3, 0, 0));
    assert_eq!(s.bytes_requested, 9);
    c.check_invariants();
}

#[test]
fn insert_fresh_respects_byte_limit() {
    let mut c = cache(0.0, 6);
    c.request(&spec(&[1, 2, 3]));
    c.request(&spec(&[4, 5, 6]));
    c.insert_fresh(&spec(&[1, 2, 3])); // duplicate image → over limit
    assert_eq!(c.stats().deletes, 1, "eviction still applies");
    assert!(c.stats().total_bytes <= 6);
    c.check_invariants();
}

#[test]
fn cache_policy_trait_drives_the_engine() {
    use crate::policy::{BuildPlan, CachePolicy, ServedOp};
    let mut boxed: Box<dyn CachePolicy> = Box::new(cache(0.8, 100));
    assert_eq!(boxed.name(), "landlord");
    assert!(matches!(
        boxed.plan_build(&spec(&[1, 2, 3])).build,
        BuildPlan::Insert { bytes: 3 }
    ));
    let served = boxed.request(&spec(&[1, 2, 3]));
    assert_eq!(served.op, ServedOp::Inserted);
    assert_eq!((served.image_bytes, served.revision), (3, 0));
    // A merge bumps the serving image's revision; the planned build is
    // applied as decided.
    let planned = boxed.plan_build(&spec(&[1, 2, 4]));
    assert!(matches!(planned.build, BuildPlan::Rewrite { bytes: 4 }));
    let served = boxed.apply_build(&spec(&[1, 2, 4]), &planned);
    assert_eq!(served.op, ServedOp::Merged);
    assert_eq!(served.revision, 1);
    // And a hit plans as free.
    assert!(matches!(
        boxed.plan_build(&spec(&[1, 2])).build,
        BuildPlan::Hit
    ));
    let served = boxed.request(&spec(&[1, 2]));
    assert_eq!(served.op, ServedOp::Hit);
    assert_eq!(boxed.stats().requests, 3);
    assert_eq!(boxed.len(), 1);
    assert_eq!(boxed.limit_bytes(), 100);
    boxed.check_invariants();
}

/// The images the exact strategy reads out for `s` — those whose
/// overlap reaches the least an image within α can have — as
/// `(id, overlap)` ascending by id.
fn read_out(c: &ImageCache, s: &Spec) -> Vec<(u64, u64)> {
    let least = c.least_overlap(s, c.sizes.spec_bytes(s));
    let mut got = Vec::new();
    c.postings
        .overlaps(s, c.config.metric, c.sizes.as_ref(), least, |_, r, n| {
            got.push((r.id, n))
        });
    got.sort_unstable();
    got
}

/// `c`'s plan for each of `specs` is `plan_over`'s over its images.
fn assert_plans_match_plan_over(c: &ImageCache, specs: &[Spec]) {
    let entries: Vec<(u64, &Spec, u64)> = c
        .images()
        .map(|img| (img.id.0, &img.spec, img.bytes))
        .collect();
    for s in specs {
        let want = plan_over(
            &entries,
            s,
            c.config.alpha,
            c.config.merge_order,
            c.config.metric,
            c.sizes.as_ref(),
            &NoConflicts,
        );
        assert_eq!(c.plan(s).op, want, "{s:?}");
    }
}

/// Under the package count only images sharing more than `(1 − α)·|s|`
/// of the request are read out: at α = 0.5 and `|s| = 8`, four.
#[test]
fn count_reads_out_only_images_that_can_be_within_alpha() {
    let mut c = cache(0.5, u64::MAX);
    for extra in [1, 2, 20, 21, 22, 23, 24, 25] {
        c.insert_fresh(&spec(&[10, 11, 12, 13, extra]));
    }
    c.insert_fresh(&spec(&[1, 2, 3]));
    c.check_invariants();
    let s = spec(&[1, 2, 3, 4, 10, 11, 12, 13]);
    assert_eq!(c.least_overlap(&s, 8), 4);
    assert_eq!(
        read_out(&c, &s),
        vec![
            (0, 5),
            (1, 5),
            (2, 4),
            (3, 4),
            (4, 4),
            (5, 4),
            (6, 4),
            (7, 4)
        ]
    );
    let s = spec(&[10, 11, 20, 21, 30, 31]);
    assert_eq!(c.least_overlap(&s, 6), 3);
    assert_eq!(read_out(&c, &s), vec![(2, 3), (3, 3)]);
    assert_plans_match_plan_over(&c, &[spec(&[1, 2, 3, 4, 10, 11, 12, 13]), s]);
}

/// At α = 1 the least overlap is zero under either metric: every image
/// is read out, and one sharing nothing is still not merged.
#[test]
fn alpha_one_reads_out_every_image() {
    for metric in [DistanceMetric::PackageCount, DistanceMetric::Bytes] {
        let cfg = CacheConfig {
            alpha: 1.0,
            limit_bytes: u64::MAX,
            metric,
            ..CacheConfig::default()
        };
        let mut c = ImageCache::new(cfg, Arc::new(UniformSizes::new(3)));
        for i in 0..12u32 {
            c.insert_fresh(&spec(&[i, i + 1]));
        }
        let s = spec(&[0, 5, 9, 30]);
        let unit = if metric == DistanceMetric::Bytes {
            3
        } else {
            1
        };
        assert_eq!(c.least_overlap(&s, 12), 0, "{metric:?}");
        let got = read_out(&c, &s);
        assert_eq!(got.len(), 12, "{metric:?}");
        for (id, n) in got {
            let shared = [0, 5, 9]
                .iter()
                .filter(|&&p| p == id || p == id + 1)
                .count();
            assert_eq!(n, shared as u64 * unit, "{metric:?} image {id}");
        }
        assert_plans_match_plan_over(&c, &[s, spec(&[40, 41])]);
    }
}

/// Under the byte metric a zero-size package adds nothing to a slot's
/// sum, and an all-zero request reads out every image: it is at
/// distance 0 from a zero-byte image it shares nothing with.
#[test]
fn byte_count_adds_nothing_for_zero_size_packages() {
    let cfg = CacheConfig {
        alpha: 0.5,
        limit_bytes: u64::MAX,
        metric: DistanceMetric::Bytes,
        ..CacheConfig::default()
    };
    // Packages 1 and 2 weigh nothing; 3, 4 and 5 weigh 4 bytes each.
    let sizes = TableSizes::new(vec![1, 0, 0, 4, 4, 4, 1, 1]);
    let mut c = ImageCache::new(cfg, Arc::new(sizes));
    for s in [&[2, 5][..], &[3, 4, 5], &[4, 5, 6], &[0, 7], &[1]] {
        c.insert_fresh(&spec(s));
    }
    c.check_invariants();
    // 12 bytes, bound just under 6: at least 6 shared bytes.
    let s = spec(&[1, 2, 3, 4, 5]);
    assert_eq!(c.least_overlap(&s, 12), 6);
    assert_eq!(read_out(&c, &s), vec![(1, 12), (2, 8)]);
    let zero = spec(&[1, 2]);
    assert_eq!(c.least_overlap(&zero, 0), 0);
    assert_eq!(
        read_out(&c, &zero),
        vec![(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    );
    assert_eq!(
        c.plan(&zero).op,
        PlannedOp::Merge {
            image: ImageId(4),
            distance: 0.0
        }
    );
    assert_plans_match_plan_over(&c, &[s, spec(&[1, 5]), zero]);
}

/// The hit goes to the least `(bytes, id)` whatever the slots: a
/// reused low slot holding a higher id loses a byte tie, and merges
/// that grow an image move the winner, then tie it again.
#[test]
fn hit_tie_breaks_on_id_across_reused_slots_after_merges() {
    let mut c = cache(0.5, u64::MAX);
    let a = c.insert_fresh(&spec(&[1, 2, 3])).image();
    let b = c.insert_fresh(&spec(&[1, 2, 4])).image();
    assert!(c.remove_image(a));
    // The new image reuses `a`'s slot, below `b`'s, with a higher id.
    let d = c.insert_fresh(&spec(&[1, 2, 5])).image();
    assert!(d > b);
    c.check_invariants();
    let probe = spec(&[1, 2]);
    assert_eq!(c.request(&probe).image(), b, "byte tie: least id");
    // Merges grow `b`, then `d`, to four packages each.
    assert!(matches!(
        c.request(&spec(&[1, 2, 4, 6])),
        Outcome::Merged { image, image_bytes: 4, .. } if image == b
    ));
    c.check_invariants();
    assert_eq!(c.request(&probe).image(), d, "b grew past d");
    assert!(matches!(
        c.request(&spec(&[1, 2, 5, 7])),
        Outcome::Merged { image, image_bytes: 4, .. } if image == d
    ));
    c.check_invariants();
    assert_eq!(c.request(&probe).image(), b, "tied again at four bytes");
}
