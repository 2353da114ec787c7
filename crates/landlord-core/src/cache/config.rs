//! Cache configuration and the counter snapshot shared by every
//! [`crate::policy::CachePolicy`] implementation.

use crate::policy::{DistanceMetric, EvictionPolicy, MergeOrder};
use serde::{Deserialize, Serialize};

/// Configuration of an [`super::ImageCache`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CacheConfig {
    /// The merge threshold α ∈ [0, 1]: images at Jaccard distance
    /// strictly below α are merge candidates. 0 disables merging; 1
    /// merges anything sharing at least one package.
    pub alpha: f64,
    /// Cache capacity in bytes. The cache evicts down to this after
    /// every mutation; a single image larger than the limit is kept
    /// alone (there is no way to satisfy the job otherwise).
    pub limit_bytes: u64,
    /// Which image to evict when over the limit.
    pub eviction: EvictionPolicy,
    /// Order in which merge candidates are tried.
    pub merge_order: MergeOrder,
    /// Which quantity distances are computed over: package counts (the
    /// paper) or on-disk bytes.
    #[serde(default)]
    pub metric: DistanceMetric,
    /// Seed for the sampled policies' victim draws (every
    /// [`EvictionPolicy`] but `Lru` and `S3Fifo` evicts the least of K
    /// seeded samples per selection). Threaded from
    /// here — never ambient randomness — so eviction decisions are a
    /// deterministic function of the request stream and the config.
    /// Seed 0 (the default) is a perfectly good SplitMix64 seed.
    #[serde(default)]
    pub eviction_seed: u64,
    /// Automatic bloat control: when set, an image that has absorbed
    /// this many merges is split back into its constituent request
    /// specs before the next request is served. `None` (the paper's
    /// configuration) relies on the Jaccard distance + LRU eviction to
    /// age bloated images out instead.
    #[serde(default)]
    pub split_threshold: Option<u64>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            alpha: 0.8,
            limit_bytes: u64::MAX,
            eviction: EvictionPolicy::Lru,
            merge_order: MergeOrder::NearestFirst,
            eviction_seed: 0,
            metric: DistanceMetric::default(),
            split_threshold: None,
        }
    }
}

/// Monotonic counters and current totals, cheap to snapshot.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests processed.
    pub requests: u64,
    /// Requests satisfied by an existing image (`s ⊆ i`).
    pub hits: u64,
    /// Requests satisfied by merging into a close image.
    pub merges: u64,
    /// Requests that created a fresh image.
    pub inserts: u64,
    /// Images evicted to respect the byte limit.
    pub deletes: u64,
    /// Bloated images split back into their constituents.
    #[serde(default)]
    pub splits: u64,
    /// Cumulative bytes physically written (inserted images in full,
    /// merged images rewritten in full) — the paper's "Actual Writes".
    pub bytes_written: u64,
    /// Cumulative bytes the jobs asked for — the paper's "Requested
    /// Writes"; independent of α.
    pub bytes_requested: u64,
    /// Current total cached bytes (sum of image sizes).
    pub total_bytes: u64,
    /// Current unique cached bytes (each distinct package once).
    pub unique_bytes: u64,
    /// Current number of cached images.
    pub image_count: u64,
}

impl CacheStats {
    /// Cache efficiency percentage at this snapshot.
    pub fn cache_efficiency_pct(&self) -> f64 {
        crate::metrics::cache_efficiency_pct(self.unique_bytes, self.total_bytes)
    }

    /// Fold another snapshot into this one, field by field.
    ///
    /// Counters add; the "current" totals (`total_bytes`,
    /// `unique_bytes`, `image_count`) also add, which is exact when the
    /// snapshots describe disjoint populations — e.g. the shards of a
    /// [`super::ShardedImageCache`], whose images and packages never
    /// overlap across shards.
    /// Sums saturate rather than wrap: a fold over many shards must
    /// degrade to a pinned ceiling, never to a small wrapped lie.
    pub fn merge(&mut self, other: &CacheStats) {
        self.requests = self.requests.saturating_add(other.requests);
        self.hits = self.hits.saturating_add(other.hits);
        self.merges = self.merges.saturating_add(other.merges);
        self.inserts = self.inserts.saturating_add(other.inserts);
        self.deletes = self.deletes.saturating_add(other.deletes);
        self.splits = self.splits.saturating_add(other.splits);
        self.bytes_written = self.bytes_written.saturating_add(other.bytes_written);
        self.bytes_requested = self.bytes_requested.saturating_add(other.bytes_requested);
        self.total_bytes = self.total_bytes.saturating_add(other.total_bytes);
        self.unique_bytes = self.unique_bytes.saturating_add(other.unique_bytes);
        self.image_count = self.image_count.saturating_add(other.image_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_sums_every_field() {
        // Build two snapshots with every field distinct so a missed
        // field in merge() cannot cancel out.
        let mut a = CacheStats::default();
        let mut b = CacheStats::default();
        let fields: &[fn(&mut CacheStats) -> &mut u64] = &[
            |s| &mut s.requests,
            |s| &mut s.hits,
            |s| &mut s.merges,
            |s| &mut s.inserts,
            |s| &mut s.deletes,
            |s| &mut s.splits,
            |s| &mut s.bytes_written,
            |s| &mut s.bytes_requested,
            |s| &mut s.total_bytes,
            |s| &mut s.unique_bytes,
            |s| &mut s.image_count,
        ];
        for (i, field) in fields.iter().enumerate() {
            let i = i as u64;
            *field(&mut a) = 1 + i;
            *field(&mut b) = 100 + i;
        }
        let mut folded = a;
        folded.merge(&b);
        for (i, field) in fields.iter().enumerate() {
            let i = i as u64;
            assert_eq!(*field(&mut folded), 101 + 2 * i);
        }
    }

    /// The serve mode's per-thread folds routinely cross shards that
    /// served no traffic: zero-request snapshots must act as the merge
    /// identity and their efficiency must stay the defined 100%, never
    /// a 0/0 NaN.
    #[test]
    fn empty_snapshots_fold_as_identity_with_defined_efficiency() {
        let empty = CacheStats::default();
        assert_eq!(empty.cache_efficiency_pct(), 100.0);
        assert!(empty.cache_efficiency_pct().is_finite());

        let mut folded = CacheStats::default();
        for _ in 0..8 {
            folded.merge(&CacheStats::default());
        }
        assert_eq!(folded, CacheStats::default());
        assert_eq!(folded.cache_efficiency_pct(), 100.0);

        let mut busy = CacheStats {
            requests: 3,
            hits: 1,
            inserts: 2,
            total_bytes: 40,
            unique_bytes: 30,
            image_count: 2,
            ..CacheStats::default()
        };
        let before = busy;
        for _ in 0..8 {
            busy.merge(&CacheStats::default());
        }
        assert_eq!(busy, before, "idle shards must not perturb the fold");
        assert_eq!(busy.cache_efficiency_pct(), 75.0);
    }
}
