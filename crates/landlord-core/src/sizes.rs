//! Mapping packages to on-disk bytes.
//!
//! The cache accounts storage in bytes but knows nothing about any
//! concrete software repository; a [`SizeModel`] supplies the byte size
//! of each package. `landlord-repo`'s `Repository` implements this trait
//! from its generated package metadata; tests and micro-benchmarks use
//! the simple models here.

use crate::spec::{PackageId, Spec};

/// Supplies the on-disk size of each package.
///
/// Implementations must be cheap (called once per spec member on every
/// insert/merge) and consistent: the same id always maps to the same
/// size within one cache lifetime.
///
/// [`SizeModel::ids_bytes`] must equal the sum of
/// [`SizeModel::package_size`] over the slice, and
/// [`SizeModel::spec_bytes`] forwards to it, so the bytes of disjoint
/// sets add up. The cache relies on it: a merge grows an image's bytes
/// by the `ids_bytes` of the packages it adds alone, unique bytes move
/// by the `ids_bytes` of the packages that gain their first or lose
/// their last holder, and `ImageCache::check_invariants` re-sums every
/// image's spec against the bytes so kept.
pub trait SizeModel: Send + Sync {
    /// Bytes occupied by one copy of the package.
    fn package_size(&self, id: PackageId) -> u64;

    /// Total bytes of a slice of distinct package ids: one call, and
    /// one dynamic dispatch, per slice rather than per package.
    ///
    /// The default sums `package_size` over the slice, statically
    /// dispatched inside each implementation; implementations may
    /// override with something faster that returns the same sum.
    fn ids_bytes(&self, ids: &[PackageId]) -> u64 {
        ids.iter().map(|&id| self.package_size(id)).sum()
    }

    /// Total bytes of a specification (sum over its unique members):
    /// the [`SizeModel::ids_bytes`] of its ids.
    fn spec_bytes(&self, spec: &Spec) -> u64 {
        self.ids_bytes(spec.ids())
    }
}

/// Every package has the same size. Handy for tests where only set
/// structure matters.
#[derive(Debug, Clone, Copy)]
pub struct UniformSizes {
    bytes: u64,
}

impl UniformSizes {
    /// All packages weigh `bytes`.
    pub fn new(bytes: u64) -> Self {
        UniformSizes { bytes }
    }
}

impl SizeModel for UniformSizes {
    fn package_size(&self, _id: PackageId) -> u64 {
        self.bytes
    }

    fn ids_bytes(&self, ids: &[PackageId]) -> u64 {
        self.bytes * ids.len() as u64
    }
}

/// Sizes stored in a dense table indexed by package id.
///
/// Out-of-range ids map to zero bytes (and a debug assertion), so a
/// truncated table fails loudly in tests rather than corrupting
/// accounting silently in release sweeps.
#[derive(Debug, Clone)]
pub struct TableSizes {
    table: Box<[u64]>,
}

impl TableSizes {
    /// Build from a per-package size table.
    pub fn new(table: Vec<u64>) -> Self {
        TableSizes {
            table: table.into_boxed_slice(),
        }
    }

    /// Number of packages covered by the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Sum of all package sizes — the "full repository" size.
    pub fn total_bytes(&self) -> u64 {
        self.table.iter().sum()
    }
}

impl SizeModel for TableSizes {
    #[inline]
    fn package_size(&self, id: PackageId) -> u64 {
        debug_assert!(
            id.index() < self.table.len(),
            "package {id} outside size table of len {}",
            self.table.len()
        );
        self.table.get(id.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    #[test]
    fn uniform_sizes() {
        let m = UniformSizes::new(10);
        assert_eq!(m.package_size(PackageId(0)), 10);
        assert_eq!(m.spec_bytes(&spec(&[1, 2, 3])), 30);
        assert_eq!(m.spec_bytes(&Spec::empty()), 0);
    }

    #[test]
    fn table_sizes_lookup_and_total() {
        let m = TableSizes::new(vec![5, 7, 11]);
        assert_eq!(m.package_size(PackageId(1)), 7);
        assert_eq!(m.total_bytes(), 23);
        assert_eq!(m.spec_bytes(&spec(&[0, 2])), 16);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn spec_bytes_counts_each_member_once() {
        // from_ids dedups, so duplicates in the input never double-count.
        let m = TableSizes::new(vec![100, 200]);
        let s = Spec::from_ids([0, 0, 1, 1].map(PackageId));
        assert_eq!(m.spec_bytes(&s), 300);
    }

    proptest::proptest! {
        /// The `SizeModel` contract, for both models here: `ids_bytes`
        /// is the sum of `package_size` over the slice, and
        /// `spec_bytes` agrees with it.
        #[test]
        fn spec_bytes_is_the_sum_of_package_sizes(
            ids in proptest::collection::vec(0u32..64, 0..40),
            bytes in 0u64..1_000_000,
            table in proptest::collection::vec(0u64..1_000_000, 64),
        ) {
            let s = Spec::from_ids(ids.into_iter().map(PackageId));
            let (uniform, table) = (UniformSizes::new(bytes), TableSizes::new(table));
            for model in [&uniform as &dyn SizeModel, &table] {
                let sum: u64 = s.iter().map(|p| model.package_size(p)).sum();
                proptest::prop_assert_eq!(model.ids_bytes(s.ids()), sum);
                proptest::prop_assert_eq!(model.spec_bytes(&s), sum);
                let (low, high) = s.ids().split_at(s.len() / 2);
                proptest::prop_assert_eq!(model.ids_bytes(low) + model.ids_bytes(high), sum);
            }
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn table_out_of_range_is_zero_in_release() {
        let m = TableSizes::new(vec![1]);
        assert_eq!(m.package_size(PackageId(9)), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside size table")]
    fn table_out_of_range_panics_in_debug() {
        let m = TableSizes::new(vec![1]);
        let _ = m.package_size(PackageId(9));
    }
}
