//! A word-packed bit set.
//!
//! Two hot paths want membership over a small dense index space with
//! no hashing: the repo generator's dependency closures (over dense
//! package ids) and the S3-FIFO evictor's ghost-membership set (over
//! hashed spec fingerprint slots). A word-packed bit set makes a probe
//! a couple of instructions. Implemented here rather than pulled in as
//! a dependency because the workspace's offline crate budget is
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

    /// Set every bit in `bits` without [`BitSet::insert`]'s per-bit
    /// range assert, for callers whose ids are in range by construction
    /// (a closure row, say). An id at or past `len` is caught in debug
    /// builds, and past the last word in any build.
    #[inline]
    pub fn insert_all(&mut self, bits: impl IntoIterator<Item = usize>) {
        for i in bits {
            debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
            self.words[i / 64] |= 1u64 << (i % 64);
        }
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
}

/// The set bits of word `wi` holding `w`, ascending.
pub(crate) fn ones_of_word(wi: usize, w: u64) -> impl Iterator<Item = usize> {
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
    fn insert_all_matches_insert() {
        let ids = [0usize, 5, 63, 64, 64, 199];
        let mut one_by_one = BitSet::new(200);
        for i in ids {
            one_by_one.insert(i);
        }
        let mut all = BitSet::new(200);
        all.insert_all(ids);
        assert_eq!(all, one_by_one);
    }

    #[test]
    fn empty_bitset() {
        let b = BitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
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
    }
}
