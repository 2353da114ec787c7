//! A word-packed bit set, and a sparse word form to probe it with.
//!
//! Three hot paths want membership over a small dense index space with
//! no hashing: the repo generator's dependency closures (over dense
//! package ids), the S3-FIFO evictor's ghost-membership set (over
//! hashed spec fingerprint slots), and the image cache's planner, which
//! keeps one bitmap of package ids per resident image. A word-packed
//! bit set makes a probe a couple of instructions. The planner tests a
//! request against every image, so it packs the request once into
//! `SparseBits` — only its nonzero `(word, mask)` pairs — and then a
//! subset test or an intersection count costs one AND per request word
//! (`BitSet::covers`, `BitSet::intersection_count`), whatever the
//! image's size. Implemented here rather than pulled in as a
//! dependency because the workspace's offline crate budget is
//! deliberately small.

/// A bit set over `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// All-zeros set with capacity for `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Capacity in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Test bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`; returns true when the bit was previously clear
    /// (i.e. this call changed the set).
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clear bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Clear every bit, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| ones_of_word(wi, w))
    }

    /// Raise the capacity to `len` bits, keeping every bit; a smaller
    /// `len` leaves the set unchanged.
    pub(crate) fn grow(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            self.words.resize(len.div_ceil(64), 0);
        }
    }

    /// True when every bit of `sparse` is set here (bits beyond the
    /// capacity count as clear). Stops at the first word with a
    /// missing bit.
    #[inline]
    pub(crate) fn covers(&self, sparse: &SparseBits) -> bool {
        sparse
            .words
            .iter()
            .all(|&(wi, mask)| self.words.get(wi).is_some_and(|&w| w & mask == mask))
    }

    /// `|self ∩ sparse|`: the sum of `popcount(word & mask)` over the
    /// words of `sparse`.
    #[inline]
    pub(crate) fn intersection_count(&self, sparse: &SparseBits) -> usize {
        self.common_words(sparse)
            .map(|(_, w)| w.count_ones() as usize)
            .sum()
    }

    /// The bits set both here and in `sparse`, ascending.
    pub(crate) fn intersection_ones<'a>(
        &'a self,
        sparse: &'a SparseBits,
    ) -> impl Iterator<Item = usize> + 'a {
        self.common_words(sparse)
            .flat_map(|(wi, w)| ones_of_word(wi, w))
    }

    /// `(word index, self word & mask)` for each word of `sparse`
    /// inside the capacity.
    fn common_words<'a>(
        &'a self,
        sparse: &'a SparseBits,
    ) -> impl Iterator<Item = (usize, u64)> + 'a {
        sparse
            .words
            .iter()
            .filter_map(|&(wi, mask)| self.words.get(wi).map(|&w| (wi, w & mask)))
    }
}

/// The set bits of word `wi` holding `w`, ascending.
fn ones_of_word(wi: usize, w: u64) -> impl Iterator<Item = usize> {
    let mut bits = w;
    std::iter::from_fn(move || {
        if bits == 0 {
            None
        } else {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(wi * 64 + b)
        }
    })
}

/// A bit set stored as its nonzero words only: ascending
/// `(word index, mask)` pairs. Built once per probe, so that testing it
/// against many [`BitSet`]s costs one word operation per pair.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct SparseBits {
    words: Vec<(usize, u64)>,
}

impl SparseBits {
    /// Pack bit indices given in ascending order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the indices are not strictly
    /// ascending.
    pub(crate) fn from_sorted<I: IntoIterator<Item = usize>>(bits: I) -> Self {
        let mut words: Vec<(usize, u64)> = Vec::new();
        for i in bits {
            let (wi, mask) = (i / 64, 1u64 << (i % 64));
            debug_assert!(
                words
                    .last()
                    .is_none_or(|&(w, m)| wi > w || (wi == w && mask > m)),
                "bits must be strictly ascending"
            );
            match words.last_mut() {
                Some((last, m)) if *last == wi => *m |= mask,
                _ => words.push((wi, mask)),
            }
        }
        SparseBits { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut b = BitSet::new(130);
        assert!(!b.contains(0));
        assert!(b.insert(0));
        assert!(!b.insert(0), "second insert reports already-set");
        assert!(b.contains(0));
        assert!(b.insert(64));
        assert!(b.insert(129));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn remove_and_clear() {
        let mut b = BitSet::new(70);
        b.insert(3);
        b.insert(69);
        b.remove(3);
        assert!(!b.contains(3));
        assert!(b.contains(69));
        b.clear();
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.len(), 70);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = BitSet::new(200);
        for i in [5usize, 63, 64, 65, 128, 199] {
            b.insert(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![5, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn empty_bitset() {
        let b = BitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn sparse_packs_words_across_boundaries() {
        let sparse = SparseBits::from_sorted([0usize, 63, 64, 127, 128]);
        assert_eq!(
            sparse.words,
            vec![(0, 1 | 1 << 63), (1, 1 | 1 << 63), (2, 1)]
        );
        assert!(SparseBits::from_sorted(std::iter::empty()).words.is_empty());
    }

    fn set_of(bits: &[usize]) -> BitSet {
        let mut set = BitSet::new(bits.iter().max().map_or(0, |&m| m + 1));
        for &i in bits {
            set.insert(i);
        }
        set
    }

    #[test]
    fn covers_and_intersection_count() {
        let image = set_of(&[1, 63, 64, 127]);
        assert_eq!(image.len(), 128);
        assert!(image.covers(&SparseBits::from_sorted([63usize, 64])));
        assert!(image.covers(&SparseBits::default()), "empty is covered");
        assert!(!image.covers(&SparseBits::from_sorted([63usize, 65])));
        // A probe bit beyond the image's last word is not covered.
        let beyond = SparseBits::from_sorted([1usize, 128]);
        assert!(!image.covers(&beyond));
        assert_eq!(image.intersection_count(&beyond), 1);
        assert_eq!(
            image.intersection_ones(&beyond).collect::<Vec<_>>(),
            vec![1]
        );
        let probe = SparseBits::from_sorted([0usize, 63, 64, 126, 127, 500]);
        assert_eq!(image.intersection_count(&probe), 3);
        assert_eq!(
            image.intersection_ones(&probe).collect::<Vec<_>>(),
            vec![63, 64, 127]
        );
    }

    #[test]
    fn grow_keeps_bits_and_never_shrinks() {
        let mut b = set_of(&[3, 63]);
        assert_eq!(b.len(), 64);
        b.grow(131);
        assert!(b.insert(130));
        assert_eq!(b.len(), 131);
        b.grow(10);
        assert_eq!(b.len(), 131);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 63, 130]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let b = BitSet::new(10);
        let _ = b.contains(10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #[test]
        fn behaves_like_btreeset(ops in proptest::collection::vec((0usize..500, any::<bool>()), 0..200)) {
            let mut bits = BitSet::new(500);
            let mut model: BTreeSet<usize> = BTreeSet::new();
            for (i, add) in ops {
                if add {
                    prop_assert_eq!(bits.insert(i), model.insert(i));
                } else {
                    bits.remove(i);
                    model.remove(&i);
                }
            }
            prop_assert_eq!(bits.count_ones(), model.len());
            let got: Vec<usize> = bits.iter_ones().collect();
            let want: Vec<usize> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn sparse_kernels_behave_like_btreeset(
            a in proptest::collection::vec(0usize..300, 0..80),
            b in proptest::collection::vec(0usize..300, 0..80),
        ) {
            let a: BTreeSet<usize> = a.into_iter().collect();
            let b: BTreeSet<usize> = b.into_iter().collect();
            let mut set = BitSet::new(a.last().map_or(0, |&m| m + 1));
            for &i in &a {
                set.insert(i);
            }
            let probe = SparseBits::from_sorted(b.iter().copied());
            prop_assert_eq!(set.covers(&probe), b.is_subset(&a));
            let common: Vec<usize> = a.intersection(&b).copied().collect();
            prop_assert_eq!(set.intersection_count(&probe), common.len());
            prop_assert_eq!(set.intersection_ones(&probe).collect::<Vec<_>>(), common);
        }
    }
}
