//! A word-packed bit set.
//!
//! Two hot paths want membership over a small dense index space with
//! no hashing: the repo generator's dependency closures (over dense
//! package ids) and the S3-FIFO evictor's ghost-membership set (over
//! hashed spec fingerprint slots). A word-packed bit set makes a probe
//! a couple of instructions, and the word-level helpers
//! ([`BitSet::or_word`], [`BitSet::count_ones_in`],
//! [`BitSet::drain_words`]) let a closure OR in whole 64-id words of a
//! packed row and read back only the words its rows reached.
//! Implemented here rather than pulled in as a dependency because the
//! workspace's offline crate budget is deliberately small.

use std::ops::Range;

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

    /// OR `mask` into word `wi`: set bit `64 * wi + b` for every set
    /// bit `b` of `mask`, without a per-bit range assert, for callers
    /// whose words are in range by construction (a packed closure row,
    /// say). A bit at or past `len` is caught in debug builds, and a
    /// word past the last in any build.
    #[inline]
    pub fn or_word(&mut self, wi: usize, mask: u64) {
        debug_assert!(
            mask == 0 || wi * 64 + (63 - mask.leading_zeros() as usize) < self.len,
            "word {wi} mask {mask:#x} out of range {}",
            self.len
        );
        self.words[wi] |= mask;
    }

    /// Number of set bits in words `words`.
    ///
    /// # Panics
    ///
    /// Panics when the range reaches past the last word.
    #[inline]
    pub fn count_ones_in(&self, words: Range<usize>) -> usize {
        self.words[words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Clear words `words`, handing each non-zero one to `emit` as
    /// `(word index, bits)`, in ascending word order.
    ///
    /// # Panics
    ///
    /// Panics when the range reaches past the last word.
    #[inline]
    pub fn drain_words(&mut self, words: Range<usize>, mut emit: impl FnMut(usize, u64)) {
        let first = words.start;
        for (wi, word) in (first..).zip(&mut self.words[words]) {
            let bits = std::mem::take(word);
            if bits != 0 {
                emit(wi, bits);
            }
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
    fn or_word_matches_insert() {
        let ids = [0usize, 5, 63, 64, 64, 199];
        let mut one_by_one = BitSet::new(200);
        for i in ids {
            one_by_one.insert(i);
        }
        let mut words = BitSet::new(200);
        for i in ids {
            words.or_word(i / 64, 1 << (i % 64));
        }
        assert_eq!(words, one_by_one);
        assert_eq!(words.count_ones_in(1..4), 2);
    }

    #[test]
    fn drain_words_reads_back_and_clears_only_its_range() {
        let mut b = BitSet::new(200);
        b.or_word(0, 0b1010);
        b.or_word(2, 0b101);
        b.or_word(3, 1);
        let mut drained = Vec::new();
        b.drain_words(1..3, |wi, bits| drained.push((wi, bits)));
        assert_eq!(drained, vec![(2, 0b101)], "zero words are skipped");
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![1, 3, 192]);
        b.drain_words(0..0, |_, _| panic!("an empty range drains nothing"));
        assert_eq!(ones_of_word(2, 0b101).collect::<Vec<_>>(), vec![128, 130]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn or_word_past_len_panics_in_debug() {
        BitSet::new(70).or_word(1, 1 << 6);
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
