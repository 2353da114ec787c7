//! The pure planning side of the engine: decide *what* serving a spec
//! would do, without mutating anything.
//!
//! Everything in this module takes `&self`/`&` receivers only — the
//! `plan-purity` audit rule enforces that no `&mut` sneaks in. The
//! decisions made here (Algorithm 1's hit / merge / insert choice,
//! including every tie-break) are consumed verbatim by
//! [`super::ImageCache::apply`]; the apply side never re-derives them.
//!
//! # Cost
//!
//! [`ImageCache::plan`] packs the request once into sparse bitmap
//! words (`O(|s|)`), then tests it against each resident image's
//! bitmap. With `w` the number of request words (at most `|s|`, and at
//! most `max id / 64`):
//!
//! - hit scan: `O(images · w)`, each image's subset test stopping at
//!   the first request word it does not cover;
//! - candidate scan: `O(candidates · w)` for the intersection
//!   popcount, plus the common packages' sizes under the byte metric.
//!
//! Neither depends on the images' sizes. [`plan_over`] keeps the
//! sorted-slice merges, `O(|s| + |image|)` per image, and is the
//! reference the engine's planner is tested against.

use super::{ImageCache, Resident};
use crate::bitset::SparseBits;
use crate::conflict::ConflictPolicy;
use crate::image::{Image, ImageId};
use crate::jaccard::{
    distance_from_bytes, distance_from_counts, jaccard_distance, size_lower_bound,
    weighted_jaccard_distance,
};
use crate::policy::{DistanceMetric, MergeOrder};
use crate::sizes::SizeModel;
use crate::spec::{PackageId, Spec};

/// What [`ImageCache::request`] would decide for a spec. Computed by
/// [`ImageCache::plan`] on a settled cache; consumed by
/// [`ImageCache::apply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannedOp {
    /// An existing image satisfies the spec; no build, no I/O.
    Hit {
        /// The satisfying image.
        image: ImageId,
    },
    /// The spec would be merged into this candidate (full rewrite).
    Merge {
        /// The absorbing image.
        image: ImageId,
        /// Jaccard distance to it.
        distance: f64,
    },
    /// A fresh image would be built for exactly this spec.
    Insert,
}

/// A complete, immutable decision for one request: the operation plus
/// the request's byte demand. Produced by [`ImageCache::plan`], the
/// only input [`ImageCache::apply`] acts on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The decided operation.
    pub op: PlannedOp,
    /// Bytes the request asks for (`SizeModel::spec_bytes` of the
    /// spec); accounted as requested I/O when the plan is applied.
    pub requested_bytes: u64,
}

impl ImageCache {
    /// Would this spec hit without mutating anything? Returns the
    /// smallest satisfying image.
    pub fn find_satisfying(&self, spec: &Spec) -> Option<&Image> {
        self.find_satisfying_packed(spec, &spec.sparse_bits())
    }

    /// [`ImageCache::find_satisfying`] for a spec already packed into
    /// `words` (`spec.sparse_bits()`).
    fn find_satisfying_packed(&self, spec: &Spec, words: &SparseBits) -> Option<&Image> {
        self.images
            .values()
            .filter(|r| spec.len() <= r.image.spec.len() && r.members.covers(words))
            .map(|r| &r.image)
            .min_by_key(|img| (img.bytes, img.id))
    }

    /// Decide what serving `spec` would do (Algorithm 1), without
    /// mutating anything.
    ///
    /// Exact on a settled cache (see [`ImageCache::settle`]); when a
    /// bloat split is pending, the real request settles first, which
    /// can change the decision.
    pub fn plan(&self, spec: &Spec) -> Plan {
        self.plan_with_peek(spec, true)
    }

    /// [`ImageCache::plan`] with an externally supplied superset hint.
    ///
    /// `superset_possible = false` asserts that the caller has already
    /// proven no cached image can satisfy `spec` (e.g. the sharded
    /// frontend's package-summary peek reported a package of `spec`
    /// absent from every image of this cache), so the hit scan is
    /// skipped entirely. The hint must be conservative: passing `false`
    /// when a superset exists turns a hit into a merge/insert, which is
    /// a correctness bug, not just a slowdown. `true` is always safe
    /// and recovers exact [`ImageCache::plan`] behaviour.
    pub fn plan_with_peek(&self, spec: &Spec, superset_possible: bool) -> Plan {
        // Atomic recording only: planning stays `&self`-pure.
        let _span = self.obs.as_ref().map(|o| o.plan_span());
        // Packed once; the hit scan and the candidate scan share it.
        let words = spec.sparse_bits();
        let requested_bytes = self.sizes.spec_bytes(spec);
        let hit = if superset_possible {
            self.find_satisfying_packed(spec, &words)
        } else {
            debug_assert!(
                self.find_satisfying_packed(spec, &words).is_none(),
                "peek claimed no superset but a satisfying image exists"
            );
            None
        };
        let op = if let Some(img) = hit {
            PlannedOp::Hit { image: img.id }
        } else if self.config.alpha > 0.0 {
            match self.pick_merge_candidate(spec, &words, requested_bytes) {
                Some((image, distance)) => PlannedOp::Merge { image, distance },
                None => PlannedOp::Insert,
            }
        } else {
            PlannedOp::Insert
        };
        Plan {
            op,
            requested_bytes,
        }
    }

    /// Enumerate merge candidates (via the candidate index), compute
    /// exact distances, filter by α, order per policy, and return the
    /// first non-conflicting one. `words` is `spec.sparse_bits()` and
    /// `requested_bytes` is `spec`'s size in bytes.
    fn pick_merge_candidate(
        &self,
        spec: &Spec,
        words: &SparseBits,
        requested_bytes: u64,
    ) -> Option<(ImageId, f64)> {
        let alpha = self.config.alpha;
        let mut scored: Vec<(ImageId, f64)> = Vec::new();

        let metric = self.config.metric;
        let sizes = &self.sizes;
        let consider = |r: &Resident, scored: &mut Vec<(ImageId, f64)>| {
            // Cheap size-ratio bound prunes most far candidates without
            // touching the bitmap.
            if metric == DistanceMetric::PackageCount
                && size_lower_bound(spec.len(), r.image.spec.len()) >= alpha
            {
                return;
            }
            let d = r.distance(metric, spec.len(), words, requested_bytes, sizes.as_ref());
            if d < alpha {
                scored.push((r.image.id, d));
            }
        };

        let mut examined: u64 = 0;
        match self.candidate_index.candidates(spec) {
            Some(keys) => {
                for key in keys {
                    if let Some(r) = self.images.get(&key) {
                        examined += 1;
                        consider(r, &mut scored);
                    }
                }
            }
            None => {
                for r in self.images.values() {
                    examined += 1;
                    consider(r, &mut scored);
                }
            }
        }
        if let Some(obs) = &self.obs {
            obs.candidate_scan.record(examined);
        }

        match self.config.merge_order {
            MergeOrder::NearestFirst => {
                scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            }
            MergeOrder::ArrivalOrder => scored.sort_by_key(|&(id, _)| id),
            MergeOrder::LargestFirst => scored
                .sort_by_key(|&(id, _)| (std::cmp::Reverse(self.images[&id.0].image.bytes), id)),
            MergeOrder::SmallestFirst => {
                scored.sort_by_key(|&(id, _)| (self.images[&id.0].image.bytes, id))
            }
        }

        scored.into_iter().find(|&(id, _)| {
            !self
                .conflicts
                .conflicts(spec, &self.images[&id.0].image.spec)
        })
    }
}

impl Resident {
    /// The distance under `metric` from a request of `spec_len`
    /// packages and `requested_bytes` bytes, packed as `words`, to this
    /// image, with the intersection counted on the bitmap. Equal to the
    /// bit to [`jaccard_distance`] / [`weighted_jaccard_distance`] of
    /// the two specs: the intersection is exact, and the formula is the
    /// same function.
    pub(super) fn distance(
        &self,
        metric: DistanceMetric,
        spec_len: usize,
        words: &SparseBits,
        requested_bytes: u64,
        sizes: &dyn SizeModel,
    ) -> f64 {
        let img = &self.image;
        match metric {
            DistanceMetric::PackageCount => {
                let inter = self.members.intersection_count(words);
                distance_from_counts(spec_len, img.spec.len(), inter)
            }
            DistanceMetric::Bytes => {
                // `img.bytes` is the image spec's size in bytes
                // (checked by `check_invariants`).
                let inter_bytes: u64 = self
                    .members
                    .intersection_ones(words)
                    .map(|bit| sizes.package_size(PackageId::from_index(bit)))
                    .sum();
                distance_from_bytes(requested_bytes, img.bytes, inter_bytes)
            }
        }
    }
}

/// Run Algorithm 1's decision over an arbitrary collection of
/// `(id, spec, bytes)` images — the same hit selection, distance
/// filter, candidate ordering, and tie-breaks as [`ImageCache::plan`],
/// for stores that keep their own image records (e.g. the CLI's
/// crash-safe `PersistentCache`).
///
/// Always scans every entry (exact-scan semantics), with the
/// sorted-slice set kernels: this is the reference the engine's
/// bitmap planner must agree with, decision for decision.
#[allow(clippy::too_many_arguments)]
pub fn plan_over(
    entries: &[(u64, &Spec, u64)],
    spec: &Spec,
    alpha: f64,
    merge_order: MergeOrder,
    metric: DistanceMetric,
    sizes: &dyn SizeModel,
    conflicts: &dyn ConflictPolicy,
) -> PlannedOp {
    plan_over_with_peek(
        entries,
        spec,
        alpha,
        merge_order,
        metric,
        sizes,
        conflicts,
        true,
    )
}

/// [`plan_over`] with an externally supplied superset hint, mirroring
/// [`ImageCache::plan_with_peek`]: `superset_possible = false` asserts
/// the caller has proven (e.g. via a membership filter over every
/// cached package) that no entry can satisfy `spec`, so the hit scan
/// is skipped. The hint must be conservative — `false` despite an
/// existing superset turns a hit into a merge/insert, a correctness
/// bug. `true` always recovers exact [`plan_over`] behaviour.
#[allow(clippy::too_many_arguments)]
pub fn plan_over_with_peek(
    entries: &[(u64, &Spec, u64)],
    spec: &Spec,
    alpha: f64,
    merge_order: MergeOrder,
    metric: DistanceMetric,
    sizes: &dyn SizeModel,
    conflicts: &dyn ConflictPolicy,
    superset_possible: bool,
) -> PlannedOp {
    let hit = if superset_possible {
        entries
            .iter()
            .filter(|(_, s, _)| spec.len() <= s.len() && spec.is_subset(s))
            .min_by_key(|&&(id, _, bytes)| (bytes, id))
    } else {
        debug_assert!(
            !entries
                .iter()
                .any(|(_, s, _)| spec.len() <= s.len() && spec.is_subset(s)),
            "peek claimed no superset but a satisfying entry exists"
        );
        None
    };
    if let Some(&(id, _, _)) = hit {
        return PlannedOp::Hit { image: ImageId(id) };
    }
    if alpha > 0.0 {
        let mut scored: Vec<(u64, f64, u64, &Spec)> = Vec::new();
        for &(id, s, bytes) in entries {
            let d = match metric {
                DistanceMetric::PackageCount => {
                    if size_lower_bound(spec.len(), s.len()) >= alpha {
                        continue;
                    }
                    jaccard_distance(spec, s)
                }
                DistanceMetric::Bytes => weighted_jaccard_distance(spec, s, sizes),
            };
            if d < alpha {
                scored.push((id, d, bytes, s));
            }
        }
        match merge_order {
            MergeOrder::NearestFirst => {
                scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            }
            MergeOrder::ArrivalOrder => scored.sort_by_key(|&(id, ..)| id),
            MergeOrder::LargestFirst => {
                scored.sort_by_key(|&(id, _, bytes, _)| (std::cmp::Reverse(bytes), id))
            }
            MergeOrder::SmallestFirst => scored.sort_by_key(|&(id, _, bytes, _)| (bytes, id)),
        }
        if let Some(&(id, distance, ..)) = scored
            .iter()
            .find(|&&(_, _, _, s)| !conflicts.conflicts(spec, s))
        {
            return PlannedOp::Merge {
                image: ImageId(id),
                distance,
            };
        }
    }
    PlannedOp::Insert
}
