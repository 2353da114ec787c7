//! Container image specifications as immutable sorted package sets.
//!
//! The paper's key insight (§IV) is that a specification — "a declarative
//! statement of dependencies" — is an *unordered set*, unlike a build
//! recipe which is an ordered sequence of steps. Sets can be compared,
//! merged (union) and split without starting over, which is exactly the
//! flexibility LANDLORD exploits.
//!
//! [`Spec`] stores the member packages as a sorted, deduplicated boxed
//! slice: the canonical form, used for serialization, iteration, and
//! building new sets. Its own set algebra runs as linear merges over
//! sorted slices: `is_subset`, `union`, and `intersection_len` are
//! `O(|A| + |B|)` with no hashing or allocation beyond the output.
//!
//! The cache's planner does not use those merges on its hot path. It
//! keeps a packed [`crate::bitset::BitSet`] of each resident image's
//! members and packs each request once with `Spec::sparse_bits`;
//! a subset test or an intersection count then costs one word
//! operation per request word, independent of the image's size. The
//! merges remain the reference those bitmap kernels are tested
//! against, and the path of [`crate::cache::plan_over`].

use crate::bitset::SparseBits;
use serde::{Deserialize, Serialize};
use std::fmt;

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
    /// that came from a `PackageId`, such as the bits of a spec's
    /// bitmap.
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
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct Spec {
    // Invariant: sorted ascending, no duplicates.
    members: Box<[PackageId]>,
}

impl Spec {
    /// The empty specification.
    pub fn empty() -> Self {
        Spec {
            members: Box::new([]),
        }
    }

    /// Build a spec from any iterator of ids; sorts and deduplicates.
    pub fn from_ids<I: IntoIterator<Item = PackageId>>(ids: I) -> Self {
        let mut v: Vec<PackageId> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Spec {
            members: v.into_boxed_slice(),
        }
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
        Spec {
            members: v.into_boxed_slice(),
        }
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

    /// The members packed into bitmap words, ascending: the form the
    /// planner probes every resident image's bitmap with.
    pub(crate) fn sparse_bits(&self) -> SparseBits {
        SparseBits::from_sorted(self.members.iter().map(|p| p.index()))
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
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.members, &other.members);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Spec {
            members: out.into_boxed_slice(),
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
            members: out.into_boxed_slice(),
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
            members: out.into_boxed_slice(),
        }
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
    // counts overlaps on bitmaps instead (see `crate::bitset`); this
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

    proptest! {
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
