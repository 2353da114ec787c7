//! The Jaccard distance over package sets — LANDLORD's similarity metric.
//!
//! The paper (§V, "Similarity Metric") deliberately chooses a "simple,
//! adequate, and non-controversial" metric: for two specifications `A`
//! and `B`,
//!
//! ```text
//! d_j(A, B) = 1 − |A ∩ B| / |A ∪ B| = (|A ∪ B| − |A ∩ B|) / |A ∪ B|
//! ```
//!
//! Two specs that differ by one element have a small distance; specs with
//! nothing in common have distance 1. The threshold parameter α (the
//! system's "globbiness") is compared directly against this distance:
//! images at distance `< α` from a request are merge candidates.

use crate::spec::Spec;

/// Exact Jaccard distance between two specifications, in `[0, 1]`.
///
/// By convention `d_j(∅, ∅) = 0` (two empty specs are identical).
pub fn jaccard_distance(a: &Spec, b: &Spec) -> f64 {
    distance_from_counts(a.len(), b.len(), a.intersection_len(b))
}

/// The Jaccard distance of two sets from their sizes and the size of
/// their intersection. Every distance the cache compares goes through
/// this one formula, whichever kernel counted the intersection, so the
/// sorted-merge and posting-table paths agree to the bit.
pub(crate) fn distance_from_counts(len_a: usize, len_b: usize, inter: usize) -> f64 {
    let union = len_a + len_b - inter;
    if union == 0 {
        return 0.0;
    }
    (union - inter) as f64 / union as f64
}

/// Exact Jaccard *similarity* `|A ∩ B| / |A ∪ B|`, in `[0, 1]`.
pub fn jaccard_similarity(a: &Spec, b: &Spec) -> f64 {
    1.0 - jaccard_distance(a, b)
}

/// Byte-weighted Jaccard distance: `1 − bytes(A ∩ B) / bytes(A ∪ B)`.
///
/// The paper's metric weighs every package equally, so two images
/// sharing one multi-gigabyte framework but differing in dozens of tiny
/// scripts look *far* apart even though merging them would be nearly
/// free. Weighting by on-disk bytes makes the distance proportional to
/// the actual storage at stake — evaluated against the unweighted
/// metric in `landlord experiment ablation-metric`.
pub fn weighted_jaccard_distance(a: &Spec, b: &Spec, sizes: &dyn crate::sizes::SizeModel) -> f64 {
    let inter_bytes: u64 = a
        .intersection(b)
        .iter()
        .map(|p| sizes.package_size(p))
        .sum();
    distance_from_bytes(sizes.spec_bytes(a), sizes.spec_bytes(b), inter_bytes)
}

/// The byte-weighted Jaccard distance from the two sets' bytes and the
/// bytes of their intersection; the weighted counterpart of
/// [`distance_from_counts`].
pub(crate) fn distance_from_bytes(a_bytes: u64, b_bytes: u64, inter_bytes: u64) -> f64 {
    let union_bytes = a_bytes + b_bytes - inter_bytes;
    if union_bytes == 0 {
        return 0.0;
    }
    (union_bytes - inter_bytes) as f64 / union_bytes as f64
}

/// Cheap lower bound on the Jaccard distance derived from sizes alone:
/// `d_j(A,B) ≥ 1 − min(|A|,|B|) / max(|A|,|B|)`.
///
/// Because the intersection can be at most the smaller set and the union
/// at least the larger, any pair whose size ratio is already too far
/// apart can be rejected without touching the members. The cache uses
/// this to skip whole candidates during the merge scan.
pub fn size_lower_bound(len_a: usize, len_b: usize) -> f64 {
    if len_a == 0 && len_b == 0 {
        return 0.0;
    }
    let (small, large) = if len_a <= len_b {
        (len_a, len_b)
    } else {
        (len_b, len_a)
    };
    if large == 0 {
        return 0.0;
    }
    1.0 - small as f64 / large as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PackageId;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    #[test]
    fn identical_specs_have_zero_distance() {
        let a = spec(&[1, 2, 3]);
        assert_eq!(jaccard_distance(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_specs_have_distance_one() {
        let a = spec(&[1, 2]);
        let b = spec(&[3, 4]);
        assert_eq!(jaccard_distance(&a, &b), 1.0);
    }

    #[test]
    fn one_element_difference_is_small() {
        // Paper: "two specifications that differ only by one element"
        // should be close. {1..10} vs {1..10, 11}: d = 1/11.
        let a = spec(&(1..=10).collect::<Vec<_>>());
        let b = spec(&(1..=11).collect::<Vec<_>>());
        let d = jaccard_distance(&a, &b);
        assert!((d - 1.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn both_empty_is_zero() {
        assert_eq!(jaccard_distance(&Spec::empty(), &Spec::empty()), 0.0);
    }

    #[test]
    fn empty_vs_nonempty_is_one() {
        assert_eq!(jaccard_distance(&Spec::empty(), &spec(&[1])), 1.0);
    }

    #[test]
    fn similarity_complements_distance() {
        let a = spec(&[1, 2, 3, 4]);
        let b = spec(&[3, 4, 5, 6]);
        let d = jaccard_distance(&a, &b);
        let s = jaccard_similarity(&a, &b);
        assert!((d + s - 1.0).abs() < 1e-12);
        // |∩| = 2, |∪| = 6 → d = 4/6.
        assert!((d - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn size_bound_never_exceeds_true_distance() {
        let a = spec(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = spec(&[1, 2]);
        let bound = size_lower_bound(a.len(), b.len());
        let exact = jaccard_distance(&a, &b);
        assert!(bound <= exact + 1e-12, "bound {bound} > exact {exact}");
        // Here the bound is tight: b ⊂ a, so d = 1 − 2/8 = 0.75.
        assert!((exact - 0.75).abs() < 1e-12);
        assert!((bound - 0.75).abs() < 1e-12);
    }

    #[test]
    fn size_bound_edge_cases() {
        assert_eq!(size_lower_bound(0, 0), 0.0);
        assert_eq!(size_lower_bound(0, 5), 1.0);
        assert_eq!(size_lower_bound(5, 0), 1.0);
        assert_eq!(size_lower_bound(7, 7), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::spec::{PackageId, Spec};
    use proptest::prelude::*;

    fn arb_spec() -> impl Strategy<Value = Spec> {
        proptest::collection::vec(0u32..300, 0..96)
            .prop_map(|v| Spec::from_ids(v.into_iter().map(PackageId)))
    }

    proptest! {
        #[test]
        fn distance_in_unit_interval(a in arb_spec(), b in arb_spec()) {
            let d = jaccard_distance(&a, &b);
            prop_assert!((0.0..=1.0).contains(&d));
        }

        #[test]
        fn distance_is_symmetric(a in arb_spec(), b in arb_spec()) {
            prop_assert_eq!(
                jaccard_distance(&a, &b).to_bits(),
                jaccard_distance(&b, &a).to_bits()
            );
        }

        #[test]
        fn distance_satisfies_identity(a in arb_spec()) {
            prop_assert_eq!(jaccard_distance(&a, &a), 0.0);
        }

        #[test]
        fn triangle_inequality(a in arb_spec(), b in arb_spec(), c in arb_spec()) {
            // The Jaccard distance is a true metric; allow floating slack.
            let ab = jaccard_distance(&a, &b);
            let bc = jaccard_distance(&b, &c);
            let ac = jaccard_distance(&a, &c);
            prop_assert!(ac <= ab + bc + 1e-9, "{ac} > {ab} + {bc}");
        }

        #[test]
        fn size_bound_is_lower_bound(a in arb_spec(), b in arb_spec()) {
            let bound = size_lower_bound(a.len(), b.len());
            let exact = jaccard_distance(&a, &b);
            prop_assert!(bound <= exact + 1e-12);
        }

        #[test]
        fn merging_moves_image_closer(a in arb_spec(), b in arb_spec()) {
            // After merging, the merged image satisfies (distance-wise is
            // at least as close to) each constituent as the union size
            // allows: d(a, a∪b) ≤ d(a, b).
            let u = a.union(&b);
            prop_assert!(jaccard_distance(&a, &u) <= jaccard_distance(&a, &b) + 1e-12);
        }
    }
}

#[cfg(test)]
mod weighted_tests {
    use super::*;
    use crate::sizes::{TableSizes, UniformSizes};
    use crate::spec::{PackageId, Spec};

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    #[test]
    fn uniform_sizes_reduce_to_plain_jaccard() {
        let sizes = UniformSizes::new(10);
        let a = spec(&[1, 2, 3, 4]);
        let b = spec(&[3, 4, 5, 6]);
        assert!(
            (weighted_jaccard_distance(&a, &b, &sizes) - jaccard_distance(&a, &b)).abs() < 1e-12
        );
    }

    #[test]
    fn shared_giant_package_dominates() {
        // Package 0 is 1000 bytes; the rest are 1 byte.
        let mut table = vec![1u64; 20];
        table[0] = 1000;
        let sizes = TableSizes::new(table);
        let a = spec(&[0, 1, 2, 3]);
        let b = spec(&[0, 10, 11, 12]);
        let plain = jaccard_distance(&a, &b); // 6/7 ≈ 0.857: "far"
        let weighted = weighted_jaccard_distance(&a, &b, &sizes); // 6/1006: "close"
        assert!(plain > 0.8);
        assert!(weighted < 0.01, "weighted {weighted}");
    }

    #[test]
    fn disjoint_and_identical_extremes() {
        let sizes = UniformSizes::new(3);
        let a = spec(&[1, 2]);
        let b = spec(&[3, 4]);
        assert_eq!(weighted_jaccard_distance(&a, &b, &sizes), 1.0);
        assert_eq!(weighted_jaccard_distance(&a, &a, &sizes), 0.0);
        assert_eq!(
            weighted_jaccard_distance(&Spec::empty(), &Spec::empty(), &sizes),
            0.0
        );
    }

    #[test]
    fn weighted_is_symmetric_and_bounded() {
        let sizes = TableSizes::new((0..50).map(|i| 1 + (i * 7) % 13).collect());
        let a = spec(&[1, 5, 9, 20, 33]);
        let b = spec(&[5, 9, 40, 41]);
        let d1 = weighted_jaccard_distance(&a, &b, &sizes);
        let d2 = weighted_jaccard_distance(&b, &a, &sizes);
        assert_eq!(d1.to_bits(), d2.to_bits());
        assert!((0.0..=1.0).contains(&d1));
    }
}
