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
//! With `W = ⌈slots / 64⌉` words per posting row (slots ≈ the peak
//! resident count):
//!
//! - hit test: `O(|s| · W)` at most — one word of slots at a time, the
//!   AND of that word of the request's posting rows, stopped as soon as
//!   the word has no survivor — then the least `(bytes, id)` among the
//!   survivors from the table's slot records, whose record also names
//!   the winner. No allocation, no image lookup; it never visits an
//!   image that lacks one of the request's packages.
//! - merge candidates: `O(|s| · W)` word operations
//!   to count every slot's overlap with the request at once — under the
//!   package count, bit-sliced counters fed by a carry-save adder tree
//!   eight rows at a time; under the byte metric, a per-slot byte sum
//!   with one addition per `(package, holder)` pair — then `O(1)` per
//!   image whose overlap reaches the least any image within α has (see
//!   `ImageCache::least_overlap`): its distance comes from the slot's
//!   `(bytes, id, package count)` record and the count, with no image
//!   lookup. No other image is scored.
//! - the choice among the `c` candidates within α: one `O(c)` pass for
//!   the least candidate in the merge order, whose image is read from
//!   the slab by slot for the conflict check. Only when the conflict
//!   policy rejects it are the rest sorted, `O(c log c)`, and checked in
//!   that order until one passes. At α = 0.75 a closure workload's
//!   misses have thousands of candidates, and without conflicts none is
//!   sorted.
//!
//! None depends on the images' sizes. [`plan_over`] keeps the
//! sorted-slice merges over every entry, `O(|s| + |image|)` per image,
//! and is the reference the engine's planner is tested against.

use super::ImageCache;
use crate::conflict::ConflictPolicy;
use crate::image::{Image, ImageId};
use crate::jaccard::{
    distance_from_bytes, distance_from_counts, jaccard_distance, size_lower_bound,
    weighted_jaccard_distance,
};
use crate::policy::{DistanceMetric, MergeOrder};
use crate::sizes::SizeModel;
use crate::spec::Spec;
use std::cmp::Ordering;

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
    ///
    /// The posting table ANDs the spec's rows from the occupied slots
    /// and ranks the survivors by the `(bytes, id)` records it keeps per
    /// slot, so the answer does not depend on slots; the winner is read
    /// from the slab at its slot.
    pub fn find_satisfying(&self, spec: &Spec) -> Option<&Image> {
        self.resident(self.postings.smallest_superset(spec)?)
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
    /// absent from every image of this cache), so the hit test is
    /// skipped entirely. The hint must be conservative: passing `false`
    /// when a superset exists turns a hit into a merge/insert, which is
    /// a correctness bug, not just a slowdown. `true` is always safe
    /// and recovers exact [`ImageCache::plan`] behaviour.
    pub fn plan_with_peek(&self, spec: &Spec, superset_possible: bool) -> Plan {
        // Atomic recording only: planning stays `&self`-pure.
        let _span = self.obs.as_ref().map(|o| o.plan_span());
        let requested_bytes = self.sizes.spec_bytes(spec);
        let hit = if superset_possible {
            self.postings.smallest_superset(spec)
        } else {
            debug_assert!(
                self.find_satisfying(spec).is_none(),
                "peek claimed no superset but a satisfying image exists"
            );
            None
        };
        let op = if let Some(slot) = hit {
            PlannedOp::Hit {
                image: ImageId(self.postings.id(slot)),
            }
        } else if self.config.alpha > 0.0 {
            match self.pick_merge_candidate(spec, requested_bytes) {
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

    /// Enumerate merge candidates — count every image's overlap on the
    /// posting table — compute exact distances, filter by α, order per
    /// policy, and return the first non-conflicting one.
    /// `requested_bytes` is `spec`'s size in bytes.
    fn pick_merge_candidate(&self, spec: &Spec, requested_bytes: u64) -> Option<(ImageId, f64)> {
        let alpha = self.config.alpha;
        let metric = self.config.metric;
        let sizes = self.sizes.as_ref();
        let mut examined: u64 = 0;
        let mut scored: Vec<Scored> = Vec::new();
        // The distance from the slot's record and the overlap, through
        // the formulas of the sorted-slice kernels. As in `plan_over`,
        // an image outside the package count's cheap size-ratio bound
        // is not scored.
        let least = self.least_overlap(spec, requested_bytes);
        self.postings
            .overlaps(spec, metric, sizes, least, |slot, record, overlap| {
                examined += 1;
                let d = match metric {
                    DistanceMetric::PackageCount => {
                        if size_lower_bound(spec.len(), record.packages) >= alpha {
                            return;
                        }
                        let overlap = usize::try_from(overlap).unwrap_or(usize::MAX);
                        distance_from_counts(spec.len(), record.packages, overlap)
                    }
                    DistanceMetric::Bytes => {
                        distance_from_bytes(requested_bytes, record.bytes, overlap)
                    }
                };
                if d < alpha {
                    scored.push((ImageId(record.id), d, record.bytes, slot));
                }
            });
        debug_assert!(
            {
                let entries: Vec<(u64, &Spec, u64)> = self
                    .images()
                    .map(|img| (img.id.0, &img.spec, img.bytes))
                    .collect();
                let mut full: Vec<(u64, u64)> = within_alpha(&entries, spec, alpha, metric, sizes)
                    .map(|(id, d, ..)| (id, d.to_bits()))
                    .collect();
                full.sort_unstable();
                let mut got: Vec<(u64, u64)> = scored
                    .iter()
                    .map(|&(id, d, ..)| (id.0, d.to_bits()))
                    .collect();
                got.sort_unstable();
                full == got
            },
            "the posting-table count disagrees with the sorted-slice merge candidates"
        );
        if let Some(obs) = &self.obs {
            obs.candidate_scan.record(examined);
        }

        let order = self.config.merge_order;
        least_accepted(
            scored,
            |a, b| merge_cmp(order, (a.0 .0, a.1, a.2), (b.0 .0, b.1, b.2)),
            |&(.., slot)| {
                self.resident(slot)
                    .is_some_and(|img| !self.conflicts.conflicts(spec, &img.spec))
            },
        )
        .map(|(image, distance, ..)| (image, distance))
    }

    /// The least overlap with `spec` — in packages, or in bytes under
    /// the byte metric — that an image within distance α of it can
    /// have; `0` when every resident image is to be scored.
    ///
    /// With `|·|` counting packages or bytes per the metric, an image
    /// at distance `d < α` has intersection `I` and union `U ≥ |s|`
    /// with `I > (1 − α)·|s|`. The bound carries a 2⁻⁴⁰ relative
    /// margin, so float rounding can only lower it, and `I` is an
    /// integer, so the least is the bound rounded up. Every integer in
    /// the distance formula is below 2⁵³, exact in `f64`, so a computed
    /// `d < α` implies the real one; past 2⁵² bytes in the cache the
    /// formula rounds, and every image is scored. At α = 1, and for the
    /// empty request or a zero-byte one under the byte metric, the
    /// bound is zero: such a request is at distance 0 from an image
    /// with which it shares nothing but emptiness.
    pub(super) fn least_overlap(&self, spec: &Spec, requested_bytes: u64) -> u64 {
        const EXACT: u64 = 1 << 52;
        let whole = match self.config.metric {
            DistanceMetric::PackageCount => spec.len() as u64,
            DistanceMetric::Bytes if self.ledger.stats().total_bytes < EXACT => requested_bytes,
            DistanceMetric::Bytes => return 0,
        };
        if whole >= EXACT {
            return 0;
        }
        let bound = (1.0 - self.config.alpha) * whole as f64 * (1.0 - f64::powi(2.0, -40));
        if bound > 0.0 {
            bound.ceil() as u64
        } else {
            0
        }
    }
}

/// A merge candidate within α: the image, its distance from the request,
/// its bytes and its slot.
type Scored = (ImageId, f64, u64, u32);

/// Run Algorithm 1's decision over an arbitrary collection of
/// `(id, spec, bytes)` images — the same hit selection, distance
/// filter, candidate ordering, and tie-breaks as [`ImageCache::plan`],
/// for stores that keep their own image records (e.g. the CLI's
/// crash-safe `PersistentCache`).
///
/// Always scans every entry (exact-scan semantics), with the
/// sorted-slice set kernels: this is the reference the engine's
/// posting-table planner must agree with, decision for decision.
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
        let scored: Vec<(u64, f64, u64, &Spec)> =
            within_alpha(entries, spec, alpha, metric, sizes).collect();
        if let Some((id, distance, ..)) = least_accepted(
            scored,
            |a, b| merge_cmp(merge_order, (a.0, a.1, a.2), (b.0, b.1, b.2)),
            |&(.., s)| !conflicts.conflicts(spec, s),
        ) {
            return PlannedOp::Merge {
                image: ImageId(id),
                distance,
            };
        }
    }
    PlannedOp::Insert
}

/// The merge order over `(id, distance, bytes)`: total, as ids are
/// unique, so every way of taking its least gives the same candidate.
fn merge_cmp(order: MergeOrder, a: (u64, f64, u64), b: (u64, f64, u64)) -> Ordering {
    match order {
        MergeOrder::NearestFirst => a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)),
        MergeOrder::ArrivalOrder => a.0.cmp(&b.0),
        MergeOrder::LargestFirst => b.2.cmp(&a.2).then(a.0.cmp(&b.0)),
        MergeOrder::SmallestFirst => (a.2, a.0).cmp(&(b.2, b.0)),
    }
}

/// The least of `candidates` under `cmp` that `accept` takes. The least
/// is found in one pass; only when `accept` rejects it are the rest
/// sorted and tried in order.
fn least_accepted<T>(
    mut candidates: Vec<T>,
    cmp: impl Fn(&T, &T) -> Ordering,
    mut accept: impl FnMut(&T) -> bool,
) -> Option<T> {
    let least = (0..candidates.len()).min_by(|&a, &b| cmp(&candidates[a], &candidates[b]))?;
    let first = candidates.swap_remove(least);
    if accept(&first) {
        return Some(first);
    }
    candidates.sort_by(&cmp);
    candidates.into_iter().find(|c| accept(c))
}

/// The entries within distance α of `spec`, as `(id, distance, bytes,
/// spec)` in entry order, by the sorted-slice kernels: the candidate
/// set of [`plan_over`], and the one the engine's posting-table count
/// must reproduce to the bit.
fn within_alpha<'a>(
    entries: &'a [(u64, &'a Spec, u64)],
    spec: &'a Spec,
    alpha: f64,
    metric: DistanceMetric,
    sizes: &'a dyn SizeModel,
) -> impl Iterator<Item = (u64, f64, u64, &'a Spec)> + 'a {
    entries.iter().filter_map(move |&(id, s, bytes)| {
        let d = match metric {
            DistanceMetric::PackageCount => {
                if size_lower_bound(spec.len(), s.len()) >= alpha {
                    return None;
                }
                jaccard_distance(spec, s)
            }
            DistanceMetric::Bytes => weighted_jaccard_distance(spec, s, sizes),
        };
        (d < alpha).then_some((id, d, bytes, s))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ORDERS: [MergeOrder; 4] = [
        MergeOrder::NearestFirst,
        MergeOrder::ArrivalOrder,
        MergeOrder::LargestFirst,
        MergeOrder::SmallestFirst,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Taking the least and sorting only after a rejection picks what
        /// sorting everything and taking the first accepted one picks.
        #[test]
        fn least_accepted_matches_sort_then_find(
            raw in proptest::collection::vec((0u64..64, 0u32..8, 0u64..6, any::<bool>()), 0..24),
        ) {
            let mut candidates: Vec<(u64, f64, u64, bool)> = raw
                .into_iter()
                .map(|(id, d, bytes, ok)| (id, f64::from(d) / 8.0, bytes, ok))
                .collect();
            candidates.sort_by_key(|c| c.0);
            candidates.dedup_by_key(|c| c.0);
            for order in ORDERS {
                let cmp = |a: &(u64, f64, u64, bool), b: &(u64, f64, u64, bool)| {
                    merge_cmp(order, (a.0, a.1, a.2), (b.0, b.1, b.2))
                };
                let mut sorted = candidates.clone();
                sorted.sort_by(cmp);
                let expected = sorted.into_iter().find(|c| c.3).map(|c| c.0);
                let got = least_accepted(candidates.clone(), cmp, |c| c.3).map(|c| c.0);
                prop_assert_eq!(got, expected, "{:?}", order);
            }
        }
    }
}
