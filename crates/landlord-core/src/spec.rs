//! Container image specifications as immutable sorted package sets.
//!
//! The paper's key insight (§IV) is that a specification — "a declarative
//! statement of dependencies" — is an *unordered set*, unlike a build
//! recipe which is an ordered sequence of steps. Sets can be compared,
//! merged (union) and split without starting over, which is exactly the
//! flexibility LANDLORD exploits.
//!
//! [`Spec`] stores the member packages as a sorted, deduplicated slice
//! behind an `Arc`: the canonical form, used for serialization,
//! iteration, and building new sets. The slice is immutable and shared,
//! so cloning a spec costs O(1) — a reference-count bump — and each
//! distinct package set is stored once however many stream repeats,
//! image constituents, resident images and in-flight entries hold it.
//! This is the paper's own point about images, applied to the engine's
//! memory: store identical content once. The constructors establish the
//! sorted/unique invariant, and decoding enforces it: the deserializer
//! rejects unsorted or duplicate ids with a `DeError`.
//!
//! Its own set algebra runs as linear merges over sorted slices:
//! `is_subset`, `union`, and `intersection_len` are `O(|A| + |B|)` with
//! no hashing or allocation beyond the output.
//!
//! [`Spec::union`] builds every merged image, so it avoids branches on
//! the data where they mispredict. A merge's ids interleave at random,
//! so "which side is smaller?" follows no pattern: the union merges
//! from both ends at once, and each step writes the least head (and
//! the greatest tail) and adds the comparisons to the positions as
//! integers. Where the ids do come in runs, as when one side lies
//! mostly before the other or both share a stretch, a branch predicts
//! well; there the union copies eight ids at a time, and the check for
//! such a run is seldom true in a merge and so seldom mispredicted.
//!
//! The cache's planner does not use those merges on its hot path. It
//! finds supersets, and counts every resident image's overlap with a
//! request, in one package → image posting table, independent of the
//! images' sizes. The merges remain the reference that table is tested
//! against, and the path of [`crate::cache::plan_over`].

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// The ids [`Spec::union`] copies at once where one side runs ahead
/// of the other or both share a stretch.
const UNION_RUN: usize = 8;

/// A package identity: a dense index into some package universe.
///
/// The paper identifies packages by repository-unique name/version
/// strings; `landlord-repo` interns those strings and hands out dense
/// `PackageId`s so that set operations work on `u32`s instead of strings.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct PackageId(pub u32);

impl PackageId {
    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id whose [`PackageId::index`] is `index`. Only for indices
    /// that came from a `PackageId`, such as the rows of the posting
    /// table.
    #[inline]
    pub(crate) fn from_index(index: usize) -> Self {
        debug_assert!(
            u32::try_from(index).is_ok(),
            "index {index} is no package id"
        );
        PackageId(index as u32)
    }
}

impl fmt::Display for PackageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkg#{}", self.0)
    }
}

/// An immutable container specification: a sorted set of [`PackageId`]s.
///
/// A `Spec` represents either a job's requirements (the requested
/// packages *plus* their transitive dependency closure — closure
/// expansion happens in `landlord-repo`) or the capability set of a
/// built container image.
///
/// The members live in a shared immutable slice: `clone()` costs O(1)
/// and the clone points at the same ids (`ids().as_ptr()` is equal).
/// The ids are sorted ascending with no duplicates; decoding rejects
/// an array that is not. It serializes as a plain JSON array of ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Spec {
    // Invariant: sorted ascending, no duplicates.
    members: Arc<[PackageId]>,
}

impl Spec {
    /// The empty specification.
    pub fn empty() -> Self {
        Spec {
            members: Arc::new([]),
        }
    }

    /// Build a spec from any iterator of ids; sorts and deduplicates.
    pub fn from_ids<I: IntoIterator<Item = PackageId>>(ids: I) -> Self {
        let mut v: Vec<PackageId> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Spec { members: v.into() }
    }

    /// Build a spec from a vector that is already sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted_vec(v: Vec<PackageId>) -> Self {
        debug_assert!(
            v.windows(2).all(|w| w[0] < w[1]),
            "spec must be sorted+unique"
        );
        Spec { members: v.into() }
    }

    /// Number of member packages.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the spec has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members as a sorted slice.
    #[inline]
    pub fn ids(&self) -> &[PackageId] {
        &self.members
    }

    /// Iterate over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PackageId> + '_ {
        self.members.iter().copied()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, id: PackageId) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// True when `self ⊆ other`: an image built from `other` satisfies a
    /// job requesting `self` (the "existing image satisfies s" branch of
    /// Algorithm 1).
    pub fn is_subset(&self, other: &Spec) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let mut o = other.members.iter();
        'outer: for a in self.members.iter() {
            for b in o.by_ref() {
                match b.cmp(a) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// `|self ∩ other|` via a linear merge of the sorted member slices.
    pub fn intersection_len(&self, other: &Spec) -> usize {
        intersection_len_sorted(&self.members, &other.members)
    }

    /// `|self ∪ other|` without materializing the union.
    pub fn union_len(&self, other: &Spec) -> usize {
        self.len() + other.len() - self.intersection_len(other)
    }

    /// The composite specification `self ∪ other` — the paper's merge
    /// operation: "a composite specification can be formed as the union
    /// of requirements from two or more specifications".
    pub fn union(&self, other: &Spec) -> Spec {
        self.union_ids(&other.members)
    }

    /// [`Spec::union`] with a sorted slice of distinct ids: a merge's
    /// delta as the posting table returns it, which thus never needs a
    /// spec of its own.
    pub(crate) fn union_ids(&self, other: &[PackageId]) -> Spec {
        debug_assert!(
            other.windows(2).all(|w| w[0] < w[1]),
            "union operand must be sorted+unique"
        );
        let (a, b) = (&self.members[..], other);
        let n = a.len() + b.len();
        let mut out = vec![PackageId(0); n];
        // `a[i..ie]` and `b[j..je]` are left to merge; the front has
        // written `out[..k]` and the back `out[kb..]`.
        let (mut i, mut j, mut k) = (0, 0, 0);
        let (mut ie, mut je, mut kb) = (a.len(), b.len(), n);
        while i + 1 < ie && j + 1 < je {
            let (x, y) = (a[i], b[j]);
            let (u, v) = (a[ie - 1], b[je - 1]);
            let (room_a, room_b) = (i + UNION_RUN < ie, j + UNION_RUN < je);
            // A run: one side's next `UNION_RUN` ids all before the
            // other's head, or its last ones all after the other's
            // tail, or both sides' next ids the same. Runs are copied
            // whole; in a merge, whose ids interleave at random, none
            // is found and these branches are not taken.
            if room_a && a[i + UNION_RUN - 1] < y {
                out[k..k + UNION_RUN].copy_from_slice(&a[i..i + UNION_RUN]);
                i += UNION_RUN;
                k += UNION_RUN;
            } else if room_b && b[j + UNION_RUN - 1] < x {
                out[k..k + UNION_RUN].copy_from_slice(&b[j..j + UNION_RUN]);
                j += UNION_RUN;
                k += UNION_RUN;
            } else if room_a && a[ie - UNION_RUN] > v {
                kb -= UNION_RUN;
                out[kb..kb + UNION_RUN].copy_from_slice(&a[ie - UNION_RUN..ie]);
                ie -= UNION_RUN;
            } else if room_b && b[je - UNION_RUN] > u {
                kb -= UNION_RUN;
                out[kb..kb + UNION_RUN].copy_from_slice(&b[je - UNION_RUN..je]);
                je -= UNION_RUN;
            } else if room_a
                && room_b
                && a[i + UNION_RUN - 1] == b[j + UNION_RUN - 1]
                && a[i..i + UNION_RUN] == b[j..j + UNION_RUN]
            {
                out[k..k + UNION_RUN].copy_from_slice(&a[i..i + UNION_RUN]);
                i += UNION_RUN;
                j += UNION_RUN;
                k += UNION_RUN;
            } else {
                // One step at each end: the least head to the front,
                // the greatest tail to the back, each moving past it
                // on both sides, so an id in both is written once. The
                // moves are comparisons added as integers, not
                // branches. With two ids left on each side the least
                // head and the greatest tail differ.
                out[k] = x.min(y);
                k += 1;
                i += usize::from(x <= y);
                j += usize::from(y <= x);
                kb -= 1;
                out[kb] = u.max(v);
                ie -= usize::from(u >= v);
                je -= usize::from(v >= u);
            }
        }
        while i < ie && j < je {
            let (x, y) = (a[i], b[j]);
            out[k] = x.min(y);
            k += 1;
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        for rest in [&a[i..ie], &b[j..je]] {
            out[k..k + rest.len()].copy_from_slice(rest);
            k += rest.len();
        }
        out.copy_within(kb..n, k);
        out.truncate(k + n - kb);
        Spec {
            members: out.into(),
        }
    }

    /// The intersection `self ∩ other` as a new spec.
    pub fn intersection(&self, other: &Spec) -> Spec {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.members, &other.members);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Spec {
            members: out.into(),
        }
    }

    /// Set difference `self \ other` as a new spec.
    pub fn difference(&self, other: &Spec) -> Spec {
        let mut out = Vec::with_capacity(self.len());
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.members, &other.members);
        while i < a.len() {
            if j >= b.len() || a[i] < b[j] {
                out.push(a[i]);
                i += 1;
            } else if a[i] > b[j] {
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
        Spec {
            members: out.into(),
        }
    }
}

impl Serialize for Spec {
    fn to_value(&self) -> Value {
        self.members.to_value()
    }
}

impl Deserialize for Spec {
    /// Decodes a JSON array of ids, rejecting any that is not strictly
    /// ascending: an unsorted or duplicated spec would break every
    /// merge and posting-table kernel that relies on the invariant.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let members = Arc::<[PackageId]>::from_value(v)?;
        if let Some(w) = members.windows(2).find(|w| w[0] >= w[1]) {
            return Err(DeError(format!(
                "spec ids must be sorted ascending and unique, got {} before {}",
                w[0].0, w[1].0
            )));
        }
        Ok(Spec { members })
    }
}

impl FromIterator<PackageId> for Spec {
    fn from_iter<T: IntoIterator<Item = PackageId>>(iter: T) -> Self {
        Spec::from_ids(iter)
    }
}

impl<'a> IntoIterator for &'a Spec {
    type Item = PackageId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, PackageId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.members.iter().copied()
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, id) in self.members.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", id.0)?;
            if k >= 7 && self.members.len() > 9 {
                return write!(f, ",… {} pkgs}}", self.members.len());
            }
        }
        write!(f, "}}")
    }
}

/// `|a ∩ b|` for two sorted, deduplicated slices.
pub(crate) fn intersection_len_sorted(a: &[PackageId], b: &[PackageId]) -> usize {
    // Galloping would win for very lopsided sizes. The engine's planner
    // counts overlaps on its posting table instead (see `cache`); this
    // merge serves `plan_over` and the reference checks.
    let mut n = 0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let s = spec(&[5, 1, 3, 1, 5]);
        assert_eq!(s.ids(), &[PackageId(1), PackageId(3), PackageId(5)]);
    }

    #[test]
    fn empty_spec_properties() {
        let e = Spec::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_subset(&spec(&[1, 2])));
        assert!(e.is_subset(&e));
    }

    #[test]
    fn contains_finds_members_only() {
        let s = spec(&[2, 4, 6]);
        assert!(s.contains(PackageId(4)));
        assert!(!s.contains(PackageId(3)));
        assert!(!s.contains(PackageId(7)));
    }

    #[test]
    fn subset_detection() {
        let small = spec(&[2, 4]);
        let big = spec(&[1, 2, 3, 4, 5]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(big.is_subset(&big));
    }

    #[test]
    fn subset_fails_on_missing_last_element() {
        let a = spec(&[1, 9]);
        let b = spec(&[1, 2, 3]);
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn union_merges_without_duplicates() {
        let a = spec(&[1, 3, 5]);
        let b = spec(&[2, 3, 6]);
        let u = a.union(&b);
        assert_eq!(
            u.ids().iter().map(|p| p.0).collect::<Vec<_>>(),
            vec![1, 2, 3, 5, 6]
        );
        assert_eq!(u.len(), a.union_len(&b));
    }

    /// Runs from the front and the back of either side, and a shared
    /// stretch, each longer than the ids the union copies at once.
    #[test]
    fn union_copies_runs_and_shared_stretches() {
        let range = |r: std::ops::Range<u32>| Spec::from_ids(r.map(PackageId));
        let ids = |s: &Spec| s.ids().iter().map(|p| p.0).collect::<Vec<_>>();
        for n in [3, 17, 100, 1_000] {
            let (a, b) = (range(0..n), range(n / 2..n + n / 2));
            assert_eq!(ids(&a.union(&b)), (0..n + n / 2).collect::<Vec<_>>());
            assert_eq!(b.union(&a), a.union(&b));
            assert_eq!(a.union(&a), a);
            let (evens, odds) = (
                Spec::from_ids((0..n).map(|i| PackageId(2 * i))),
                Spec::from_ids((0..n).map(|i| PackageId(2 * i + 1))),
            );
            assert_eq!(evens.union(&odds), range(0..2 * n));
            let inside = range(n / 3..(n / 3 + 9).min(n));
            assert_eq!(a.union(&inside), a);
            assert_eq!(inside.union(&a), a);
        }
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = spec(&[1, 2]);
        assert_eq!(a.union(&Spec::empty()), a);
        assert_eq!(Spec::empty().union(&a), a);
    }

    #[test]
    fn intersection_and_difference() {
        let a = spec(&[1, 2, 3, 4]);
        let b = spec(&[3, 4, 5]);
        assert_eq!(a.intersection(&b), spec(&[3, 4]));
        assert_eq!(a.difference(&b), spec(&[1, 2]));
        assert_eq!(b.difference(&a), spec(&[5]));
        assert_eq!(a.intersection_len(&b), 2);
    }

    #[test]
    fn display_truncates_long_specs() {
        let long: Vec<u32> = (0..50).collect();
        let s = spec(&long);
        let txt = format!("{s}");
        assert!(txt.contains("… 50 pkgs"));
        let short = format!("{}", spec(&[1, 2]));
        assert_eq!(short, "{1,2}");
    }

    #[test]
    fn serde_round_trip() {
        let s = spec(&[10, 20, 30]);
        let json = serde_json::to_string(&s).unwrap();
        let back: Spec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn decode_rejects_unsorted_or_duplicate_ids() {
        let err = serde_json::from_str::<Spec>("[130,1,2]").expect_err("unsorted");
        assert!(err.to_string().contains("130 before 1"), "{err}");
        assert!(serde_json::from_str::<Spec>("[1,1]").is_err());
        let ok: Spec = serde_json::from_str("[1,2,130]").expect("sorted");
        assert_eq!(ok, spec(&[1, 2, 130]));
        assert_eq!(
            serde_json::from_str::<Spec>("[]").expect("empty"),
            Spec::empty()
        );
    }

    #[test]
    fn clone_shares_the_member_slice() {
        let s = spec(&[4, 8, 15, 16, 23, 42]);
        let c = s.clone();
        assert!(std::ptr::eq(s.ids().as_ptr(), c.ids().as_ptr()));
        assert_eq!(c, s);
    }

    #[test]
    fn from_sorted_vec_accepts_valid_input() {
        let s = Spec::from_sorted_vec(vec![PackageId(1), PackageId(2)]);
        assert_eq!(s.len(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sorted+unique")]
    fn from_sorted_vec_rejects_unsorted_in_debug() {
        let _ = Spec::from_sorted_vec(vec![PackageId(2), PackageId(1)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_spec(max_id: u32, max_len: usize) -> impl Strategy<Value = Spec> {
        proptest::collection::vec(0..max_id, 0..max_len)
            .prop_map(|v| Spec::from_ids(v.into_iter().map(PackageId)))
    }

    /// A large operand of up to 1,200 ids from a 10,000-id universe and
    /// a second 5–30× smaller one, in one of six shapes: disjoint from
    /// the first, half drawn from it, wholly drawn from it, a stretch
    /// of its consecutive ids, or with either operand empty.
    fn union_operands() -> impl Strategy<Value = (Spec, Spec)> {
        (
            proptest::collection::vec(0u32..10_000, 0..1_200),
            proptest::collection::vec((any::<u64>(), 0u32..10_000), 0..240),
            5usize..=30,
            0u8..6,
        )
            .prop_map(|(large, draws, ratio, shape)| {
                let large = Spec::from_ids(large.into_iter().map(PackageId));
                let held = large.ids();
                let len = held.len().max(draws.len()) / ratio;
                let draw = |n: usize, (pick, fresh): (u64, u32)| {
                    let from_large = shape == 2 || (shape == 1 && n % 2 == 0);
                    match held.len() {
                        0 => Some(PackageId(fresh)),
                        k if from_large => Some(held[(pick % k as u64) as usize]),
                        _ => Some(PackageId(fresh)).filter(|&p| !large.contains(p)),
                    }
                };
                let small: Spec = (0..)
                    .zip(draws.into_iter().take(len))
                    .filter_map(|(n, d)| draw(n, d))
                    .collect();
                match shape {
                    3 => (Spec::empty(), small),
                    4 => (large, Spec::empty()),
                    5 => {
                        let start = (len * ratio / 2).min(held.len());
                        let stretch = &held[start..(start + len).min(held.len())];
                        let small = Spec::from_ids(stretch.iter().chain(small.ids()).copied());
                        (large, small)
                    }
                    _ => (large, small),
                }
            })
    }

    proptest! {
        /// The union, either way round, is the union of the two as
        /// `BTreeSet`s, for operands shaped like a merge: a large image
        /// and a much smaller request, overlapping it or not.
        #[test]
        fn union_matches_a_btreeset_union((a, b) in union_operands()) {
            let set = |s: &Spec| s.iter().collect::<std::collections::BTreeSet<_>>();
            let want = Spec::from_sorted_vec(set(&a).union(&set(&b)).copied().collect());
            prop_assert_eq!(a.union(&b), want.clone());
            prop_assert_eq!(b.union(&a), want);
        }

        #[test]
        fn union_is_commutative(a in arb_spec(200, 64), b in arb_spec(200, 64)) {
            prop_assert_eq!(a.union(&b), b.union(&a));
        }

        #[test]
        fn union_is_associative(
            a in arb_spec(100, 32),
            b in arb_spec(100, 32),
            c in arb_spec(100, 32),
        ) {
            prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        }

        #[test]
        fn union_is_superset_of_operands(a in arb_spec(200, 64), b in arb_spec(200, 64)) {
            let u = a.union(&b);
            prop_assert!(a.is_subset(&u));
            prop_assert!(b.is_subset(&u));
        }

        #[test]
        fn inclusion_exclusion(a in arb_spec(200, 64), b in arb_spec(200, 64)) {
            prop_assert_eq!(
                a.union_len(&b) + a.intersection_len(&b),
                a.len() + b.len()
            );
        }

        #[test]
        fn intersection_is_subset_of_both(a in arb_spec(200, 64), b in arb_spec(200, 64)) {
            let i = a.intersection(&b);
            prop_assert!(i.is_subset(&a));
            prop_assert!(i.is_subset(&b));
        }

        #[test]
        fn difference_partitions(a in arb_spec(200, 64), b in arb_spec(200, 64)) {
            let d = a.difference(&b);
            let i = a.intersection(&b);
            // d and i partition a.
            prop_assert_eq!(d.len() + i.len(), a.len());
            prop_assert_eq!(d.union(&i), a.clone());
            prop_assert_eq!(d.intersection_len(&b), 0);
        }

        #[test]
        fn subset_agrees_with_bruteforce(a in arb_spec(64, 32), b in arb_spec(64, 32)) {
            let brute = a.iter().all(|x| b.contains(x));
            prop_assert_eq!(a.is_subset(&b), brute);
        }

        #[test]
        fn members_always_sorted_unique(a in arb_spec(500, 128)) {
            prop_assert!(a.ids().windows(2).all(|w| w[0] < w[1]));
        }
    }
}
