//! Saving and restoring cache state.
//!
//! A [`Snapshot`] captures everything an [`ImageCache`] needs to resume
//! exactly where it left off: configuration, images (with constituents
//! and usage clocks), counters, and the logical clock. Derived state —
//! the posting table, the unique-byte accounting read off its rows, and
//! the evictor's index — is rebuilt on restore, which keeps the serialized
//! form small and guarantees the derived structures can never be
//! restored inconsistent with the images.
//!
//! Use cases: checkpointing long simulations, warm-starting a site's
//! cache model after a scheduler restart, and golden-state tests.

use crate::cache::{CacheConfig, CacheStats, ImageCache};
use crate::conflict::ConflictPolicy;
use crate::image::Image;
use crate::metrics::ContainerEfficiency;
use crate::sizes::SizeModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A serializable cache checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Schema version.
    pub version: u32,
    /// The cache configuration.
    pub config: CacheConfig,
    /// All cached images.
    pub images: Vec<Image>,
    /// Logical clock at capture time.
    pub clock: u64,
    /// Next image id to allocate.
    pub next_id: u64,
    /// Counter state.
    pub stats: CacheStats,
    /// Running container-efficiency accumulator.
    pub container_eff: ContainerEfficiency,
    /// Image awaiting a bloat split (when auto-splitting is enabled).
    #[serde(default)]
    pub pending_split: Option<u64>,
}

impl Snapshot {
    /// Current schema version.
    pub const VERSION: u32 = 1;
}

/// Errors from snapshot restore.
#[derive(Debug)]
pub enum SnapshotError {
    /// Unknown schema version.
    Version(u32),
    /// The snapshot contradicts itself (duplicate ids, stale counters).
    Inconsistent(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Inconsistent(what) => write!(f, "inconsistent snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl ImageCache {
    /// Capture the current state. Images are listed in id order, the
    /// order [`ImageCache::restore`] admits them in, so a restored
    /// evictor's queues and sampling order do not depend on how the
    /// live cache happened to store its images.
    pub fn snapshot(&self) -> Snapshot {
        let mut images: Vec<Image> = self.images().cloned().collect();
        images.sort_unstable_by_key(|img| img.id);
        Snapshot {
            version: Snapshot::VERSION,
            config: *self.config(),
            images,
            clock: self.clock_value(),
            next_id: self.next_id_value(),
            stats: self.stats(),
            container_eff: self.container_eff_state(),
            pending_split: self.pending_split_value().map(|id| id.0),
        }
    }

    /// Rebuild a cache from a snapshot, recomputing all derived state.
    ///
    /// The size model and conflict policy are supplied by the caller
    /// (they are not serializable); they must match the ones the
    /// snapshot was taken under or the restored accounting will
    /// disagree with the recorded image sizes — which this function
    /// detects and rejects.
    pub fn restore(
        snapshot: Snapshot,
        sizes: Arc<dyn SizeModel>,
        conflicts: Arc<dyn ConflictPolicy>,
    ) -> Result<ImageCache, SnapshotError> {
        if snapshot.version != Snapshot::VERSION {
            return Err(SnapshotError::Version(snapshot.version));
        }
        let mut seen = crate::util::FxHashSet::default();
        for img in &snapshot.images {
            if !seen.insert(img.id.0) {
                return Err(SnapshotError::Inconsistent("duplicate image id"));
            }
            if img.id.0 >= snapshot.next_id {
                return Err(SnapshotError::Inconsistent("image id beyond next_id"));
            }
            if sizes.spec_bytes(&img.spec) != img.bytes {
                return Err(SnapshotError::Inconsistent(
                    "size model disagrees with recorded image bytes",
                ));
            }
        }
        let mut cache = ImageCache::from_parts(
            snapshot.config,
            sizes,
            conflicts,
            snapshot.images,
            snapshot.clock,
            snapshot.next_id,
            snapshot.stats,
            snapshot.container_eff,
        );
        cache.set_pending_split(snapshot.pending_split.map(crate::image::ImageId));
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Outcome;
    use crate::conflict::NoConflicts;
    use crate::sizes::UniformSizes;
    use crate::spec::{PackageId, Spec};

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    fn populated_cache() -> ImageCache {
        let cfg = CacheConfig {
            alpha: 0.8,
            limit_bytes: 100,
            ..CacheConfig::default()
        };
        let mut cache = ImageCache::new(cfg, Arc::new(UniformSizes::new(1)));
        cache.request(&spec(&[1, 2, 3]));
        cache.request(&spec(&[1, 2, 4])); // merge
        cache.request(&spec(&[50, 51])); // insert
        cache.request(&spec(&[1, 2, 3])); // hit
        cache
    }

    #[test]
    fn snapshot_round_trip_preserves_behavior() {
        let original = populated_cache();
        let snap = original.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        let mut restored =
            ImageCache::restore(back, Arc::new(UniformSizes::new(1)), Arc::new(NoConflicts))
                .unwrap();

        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.len(), original.len());
        assert!(
            (restored.container_efficiency_pct() - original.container_efficiency_pct()).abs()
                < 1e-12
        );
        restored.check_invariants();

        // The restored cache behaves identically going forward.
        assert!(matches!(
            restored.request(&spec(&[1, 2, 3])),
            Outcome::Hit { .. }
        ));
        assert!(matches!(
            restored.request(&spec(&[1, 2, 5])),
            Outcome::Merged { .. }
        ));
        restored.check_invariants();
    }

    #[test]
    fn restored_ids_do_not_collide() {
        let original = populated_cache();
        let max_id = original.images().map(|i| i.id.0).max().unwrap();
        let mut restored = ImageCache::restore(
            original.snapshot(),
            Arc::new(UniformSizes::new(1)),
            Arc::new(NoConflicts),
        )
        .unwrap();
        let out = restored.request(&spec(&[900, 901]));
        assert!(
            out.image().0 > max_id,
            "fresh ids continue past the snapshot"
        );
        restored.check_invariants();
    }

    #[test]
    fn wrong_size_model_rejected() {
        let original = populated_cache();
        let err = ImageCache::restore(
            original.snapshot(),
            Arc::new(UniformSizes::new(7)), // wrong scale
            Arc::new(NoConflicts),
        )
        .unwrap_err();
        assert!(matches!(err, SnapshotError::Inconsistent(_)));
        assert!(err.to_string().contains("size model"));
    }

    #[test]
    fn bad_version_rejected() {
        let mut snap = populated_cache().snapshot();
        snap.version = 99;
        let err = ImageCache::restore(snap, Arc::new(UniformSizes::new(1)), Arc::new(NoConflicts))
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Version(99)));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut snap = populated_cache().snapshot();
        let dup = snap.images[0].clone();
        snap.images.push(dup);
        let err = ImageCache::restore(snap, Arc::new(UniformSizes::new(1)), Arc::new(NoConflicts))
            .unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Inconsistent("duplicate image id")
        ));
    }

    #[test]
    fn truncated_corrupt_and_empty_json_error_without_panic() {
        // A crash mid-write leaves a checkpoint file truncated, torn,
        // or empty; deserialization must report an error in every case
        // and never panic.
        let json = serde_json::to_string(&populated_cache().snapshot()).unwrap();

        for cut in [0, 1, json.len() / 2, json.len() - 1] {
            let truncated = &json[..cut];
            assert!(
                serde_json::from_str::<Snapshot>(truncated).is_err(),
                "truncation at byte {cut} must be an error"
            );
        }

        let mut corrupt = json.clone().into_bytes();
        let mid = corrupt.len() / 2;
        corrupt[mid] = b'\0';
        assert!(serde_json::from_slice::<Snapshot>(&corrupt).is_err());

        assert!(serde_json::from_str::<Snapshot>("").is_err());
        assert!(serde_json::from_str::<Snapshot>("{}").is_err());
        assert!(serde_json::from_str::<Snapshot>("not json at all").is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::conflict::NoConflicts;
    use crate::sizes::TableSizes;
    use crate::spec::{PackageId, Spec};
    use proptest::prelude::*;

    const UNIVERSE: u32 = 50;

    fn arb_stream() -> impl Strategy<Value = Vec<Spec>> {
        proptest::collection::vec(
            proptest::collection::vec(0..UNIVERSE, 1..10)
                .prop_map(|v| Spec::from_ids(v.into_iter().map(PackageId))),
            2..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Checkpoint/restore at any point of any stream is invisible:
        /// the restored cache finishes with exactly the same state as
        /// an uninterrupted run.
        #[test]
        fn snapshot_mid_stream_is_transparent(
            stream in arb_stream(),
            cut in any::<proptest::sample::Index>(),
            alpha in 0.0f64..=1.0,
            split in prop_oneof![Just(None), Just(Some(2u64)), Just(Some(5u64))],
        ) {
            let sizes = || Arc::new(TableSizes::new((0..UNIVERSE as u64).map(|i| 1 + i % 5).collect()));
            let cfg = CacheConfig {
                alpha,
                limit_bytes: 60,
                split_threshold: split,
                ..CacheConfig::default()
            };

            // Uninterrupted run.
            let mut straight = ImageCache::new(cfg, sizes());
            for s in &stream {
                straight.request(s);
            }

            // Interrupted run: snapshot + restore at `cut`.
            let cut = cut.index(stream.len());
            let mut first = ImageCache::new(cfg, sizes());
            for s in &stream[..cut] {
                first.request(s);
            }
            let snap = first.snapshot();
            let mut second =
                ImageCache::restore(snap, sizes(), Arc::new(NoConflicts)).unwrap();
            for s in &stream[cut..] {
                second.request(s);
            }

            prop_assert_eq!(straight.stats(), second.stats());
            prop_assert_eq!(straight.len(), second.len());
            prop_assert!(
                (straight.container_efficiency_pct() - second.container_efficiency_pct()).abs()
                    < 1e-9
            );
            second.check_invariants();
        }
    }

    /// Collects the ids of the images the cache evicts.
    struct Victims(Arc<std::sync::Mutex<Vec<u64>>>);

    impl crate::events::EventSink for Victims {
        fn on_event(&mut self, event: &crate::events::CacheEvent) {
            if let crate::events::CacheEvent::Evict { image, .. } = event {
                if let Ok(mut seen) = self.0.lock() {
                    seen.push(image.0);
                }
            }
        }
    }

    // Re-run by CI's paranoid job at a higher case count
    // (`PROPTEST_CASES`, which the default config reads).
    proptest! {
        /// Under every eviction policy a snapshot survives JSON and a
        /// restore byte for byte, and two restores of one snapshot then
        /// make the same decisions and evict the same victims over the
        /// rest of the stream.
        #[test]
        fn snapshot_round_trip_is_exact_under_every_policy(
            stream in arb_stream(),
            cut in any::<proptest::sample::Index>(),
            alpha in 0.0f64..=1.0,
            split in prop_oneof![Just(None), Just(Some(2u64))],
        ) {
            let sizes = || Arc::new(TableSizes::new((0..UNIVERSE as u64).map(|i| 1 + i % 5).collect()));
            let cut = cut.index(stream.len());
            for eviction in crate::policy::EvictionPolicy::ALL {
                let cfg = CacheConfig {
                    alpha,
                    limit_bytes: 40,
                    eviction,
                    eviction_seed: 3,
                    split_threshold: split,
                    ..CacheConfig::default()
                };
                let mut live = ImageCache::new(cfg, sizes());
                for s in &stream[..cut] {
                    live.request(s);
                }
                let json = serde_json::to_string(&live.snapshot()).expect("snapshot serializes");
                let restore = || {
                    let snap: Snapshot = serde_json::from_str(&json).expect("snapshot reads back");
                    ImageCache::restore(snap, sizes(), Arc::new(NoConflicts)).expect("snapshot restores")
                };
                let (mut a, mut b) = (restore(), restore());
                let again = serde_json::to_string(&a.snapshot()).expect("snapshot serializes");
                prop_assert_eq!(&again, &json, "{:?}: restore changed the snapshot", eviction);
                let (seen_a, seen_b) = (Arc::default(), Arc::default());
                a.set_sink(Box::new(Victims(Arc::clone(&seen_a))));
                b.set_sink(Box::new(Victims(Arc::clone(&seen_b))));
                for s in &stream[cut..] {
                    prop_assert_eq!(a.request(s), b.request(s), "{:?}: restores diverged", eviction);
                }
                let (seen_a, seen_b) = (seen_a.lock().expect("sink lock"), seen_b.lock().expect("sink lock"));
                prop_assert_eq!(&*seen_a, &*seen_b, "{:?}: restores evicted different images", eviction);
                a.check_invariants();
                b.check_invariants();
            }
        }
    }
}
