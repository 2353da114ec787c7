//! The posting table: for each package, which resident images hold it.
//!
//! Every resident image gets a dense `u32` slot; a freed slot is reused
//! before a new one is opened. Row `p` is a bitmap over slots with bit
//! `s` set when the image in slot `s` holds package `p`. All rows sit
//! in one flat `Vec<u64>`, `stride` words apart, where `stride` is
//! `ceil(slots / 64)` for the slots ever opened: the stride grows one
//! word at a time, never doubles. Beside the rows, each slot keeps its
//! image's `(bytes, id)` record, so the table ranks the images it finds
//! without reading the image map.
//!
//! The planner asks two questions of it. *Which is the smallest image
//! holding every package of the request?* is the AND of the request's
//! rows, one word of slots at a time from the occupied-slot mask, then
//! the least `(bytes, id)` record among the survivors
//! ([`Postings::smallest_superset`]). *Which images share a package
//! with a prefix of the request?* is the OR of those rows
//! ([`Postings::holders_of_any`]) — the exact merge-candidate set under
//! prefix filtering (see `plan.rs`). Both are exact because every
//! package of every resident image has its bit set.

use crate::bitset::ones_of_word;
use crate::spec::{PackageId, Spec};

/// Package → bitmap over resident slots, the slot allocator, and each
/// slot's `(bytes, id)` record.
#[derive(Debug, Default)]
pub(super) struct Postings {
    /// Words per row.
    stride: usize,
    /// Rows covered: package ids `0..packages` have a row.
    packages: usize,
    /// Row `p` is `rows[p * stride..(p + 1) * stride]`.
    rows: Vec<u64>,
    /// Bit `s` set when slot `s` holds a resident image.
    occupied: Vec<u64>,
    /// The `(bytes, image id)` of the image in each slot opened so far
    /// (stale for a free one): the hit test's ranking key.
    records: Vec<(u64, u64)>,
    /// Freed slots, reused last-freed first.
    free: Vec<u32>,
}

impl Postings {
    /// Give image `id` of `bytes` bytes a slot and set its bits for
    /// `spec`.
    pub(super) fn admit(&mut self, id: u64, bytes: u64, spec: &Spec) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.records[slot as usize] = (bytes, id);
                slot
            }
            None => {
                assert!(
                    self.records.len() < u32::MAX as usize,
                    "slot space exhausted"
                );
                let slot = u32::try_from(self.records.len()).unwrap_or(u32::MAX);
                self.records.push((bytes, id));
                if self.records.len() > self.stride * 64 {
                    self.widen();
                }
                slot
            }
        };
        let (word, mask) = slot_bit(slot);
        self.occupied[word] |= mask;
        self.set_bits(slot, spec);
        slot
    }

    /// The image in `slot` gained the packages `added` and now holds
    /// `bytes` bytes (a merge).
    pub(super) fn grow(&mut self, slot: u32, added: &Spec, bytes: u64) {
        self.set_bits(slot, added);
        self.records[slot as usize].0 = bytes;
    }

    /// Set `slot`'s bit in the row of every package of `spec`.
    fn set_bits(&mut self, slot: u32, spec: &Spec) {
        if let Some(last) = spec.ids().last() {
            if last.index() >= self.packages {
                self.packages = last.index() + 1;
                self.rows.resize(self.packages * self.stride, 0);
            }
        }
        let (word, mask) = slot_bit(slot);
        for p in spec {
            self.rows[p.index() * self.stride + word] |= mask;
        }
    }

    /// Clear `slot`'s bits for `spec` (the image's whole set) and free
    /// the slot.
    pub(super) fn release(&mut self, slot: u32, spec: &Spec) {
        let (word, mask) = slot_bit(slot);
        for p in spec {
            self.rows[p.index() * self.stride + word] &= !mask;
        }
        self.occupied[word] &= !mask;
        self.free.push(slot);
    }

    /// Open one more word per row: re-lay the rows in place at
    /// `stride + 1`, last row first, so no row is overwritten before it
    /// moves. The buffer grows to exactly the new size: widening is
    /// rare, and the table is the cache's largest index.
    fn widen(&mut self) {
        let (old, stride) = (self.stride, self.stride + 1);
        self.rows
            .reserve_exact(self.packages * stride - self.rows.len());
        self.rows.resize(self.packages * stride, 0);
        for p in (0..self.packages).rev() {
            self.rows.copy_within(p * old..(p + 1) * old, p * stride);
            self.rows[p * stride + old] = 0;
        }
        self.occupied.push(0);
        self.stride = stride;
    }

    /// Row `p`, or `None` when no image ever held an id that high.
    fn row(&self, p: PackageId) -> Option<&[u64]> {
        let start = p.index() * self.stride;
        (p.index() < self.packages).then(|| &self.rows[start..start + self.stride])
    }

    /// Words per row.
    pub(super) fn stride(&self) -> usize {
        self.stride
    }

    /// The id of the image holding every package of `spec` with the
    /// least `(bytes, id)`, or `None` when no image holds them all.
    ///
    /// One word of slots at a time: the occupied word AND-ed with that
    /// word of the spec's rows, highest id first, until nothing
    /// survives; then the survivors' records. A package no image ever
    /// held (no row) ends the search as soon as a word reaches it. No
    /// allocation, and no image-map lookup.
    pub(super) fn smallest_superset(&self, spec: &Spec) -> Option<u64> {
        let mut best: Option<(u64, u64)> = None;
        for (word, &occupied) in self.occupied.iter().enumerate() {
            let mut bits = occupied;
            for &p in spec.ids().iter().rev() {
                if bits == 0 {
                    break;
                }
                if p.index() >= self.packages {
                    return None;
                }
                bits &= self.rows[p.index() * self.stride + word];
            }
            for slot in ones_of_word(word, bits) {
                let record = self.records[slot];
                if best.is_none_or(|b| record < b) {
                    best = Some(record);
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// The ids of the images holding any of `packages` — the OR of
    /// their rows — in slot order.
    pub(super) fn holders_of_any<'a>(
        &self,
        packages: impl IntoIterator<Item = &'a PackageId>,
    ) -> impl Iterator<Item = u64> + '_ {
        let mut mask = vec![0; self.stride];
        for &p in packages {
            if let Some(row) = self.row(p) {
                for (m, &w) in mask.iter_mut().zip(row) {
                    *m |= w;
                }
            }
        }
        mask.into_iter()
            .enumerate()
            .flat_map(|(word, bits)| ones_of_word(word, bits))
            .map(|slot| self.records[slot].1)
    }

    /// Verify the table against the resident images, given as
    /// `(id, bytes, slot, spec)` each exactly once, and their package
    /// refcounts; panics on inconsistency.
    pub(super) fn check<'a>(
        &self,
        residents: impl IntoIterator<Item = (u64, u64, u32, &'a Spec)>,
        refcounts: &[u32],
    ) {
        assert_eq!(
            self.stride,
            self.records.len().div_ceil(64),
            "posting stride is not the one the opened slots need"
        );
        assert_eq!(self.occupied.len(), self.stride, "occupied mask width");
        assert_eq!(self.rows.len(), self.packages * self.stride, "row count");
        let mut rows = vec![0u64; self.rows.len()];
        let mut occupied = vec![0u64; self.stride];
        for (id, bytes, slot, spec) in residents {
            let (word, mask) = slot_bit(slot);
            assert_eq!(occupied[word] & mask, 0, "slot {slot} holds two images");
            occupied[word] |= mask;
            assert_eq!(
                self.records[slot as usize],
                (bytes, id),
                "slot {slot} (bytes, id) record"
            );
            for p in spec {
                assert!(p.index() < self.packages, "package {p} has no row");
                rows[p.index() * self.stride + word] |= mask;
            }
        }
        assert_eq!(self.occupied, occupied, "occupied-slot mask out of sync");
        assert!(
            self.rows == rows,
            "posting rows out of sync with the images"
        );
        let mut free = self.free.clone();
        free.sort_unstable();
        let vacant: Vec<u32> = (0u32..)
            .take(self.records.len())
            .filter(|&s| {
                let (word, mask) = slot_bit(s);
                occupied[word] & mask == 0
            })
            .collect();
        assert_eq!(free, vacant, "free list is not exactly the vacant slots");
        for p in 0..self.packages.max(refcounts.len()) {
            let popcount: u32 = self
                .row(PackageId::from_index(p))
                .map_or(0, |row| row.iter().map(|w| w.count_ones()).sum());
            assert_eq!(
                refcounts.get(p).copied().unwrap_or(0),
                popcount,
                "package {p} refcount differs from its posting row"
            );
        }
    }
}

/// Slot `s`'s word and bit within a row.
fn slot_bit(slot: u32) -> (usize, u64) {
    (slot as usize / 64, 1u64 << (slot % 64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    fn sorted(ids: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut ids: Vec<u64> = ids.collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn supersets_and_holders_across_word_boundaries() {
        let mut p = Postings::default();
        let a = spec(&[1, 63, 64]);
        let b = spec(&[63, 64, 200]);
        let sa = p.admit(10, 3, &a);
        let sb = p.admit(11, 3, &b);
        assert_eq!(p.smallest_superset(&spec(&[63, 64])), Some(10));
        assert_eq!(p.smallest_superset(&spec(&[1, 64])), Some(10));
        assert_eq!(p.smallest_superset(&spec(&[64, 200])), Some(11));
        assert_eq!(p.smallest_superset(&spec(&[1, 200])), None);
        assert_eq!(p.smallest_superset(&spec(&[500])), None);
        assert_eq!(p.smallest_superset(&spec(&[1, 500])), None);
        assert_eq!(p.smallest_superset(&Spec::empty()), Some(10));
        assert_eq!(
            sorted(p.holders_of_any(spec(&[1, 200]).ids())),
            vec![10, 11]
        );
        assert_eq!(sorted(p.holders_of_any(spec(&[1, 500]).ids())), vec![10]);
        p.check([(10, 3, sa, &a), (11, 3, sb, &b)], &refcounts(&[&a, &b]));
        // A merge that grows image 10 past image 11 hands 11 the tie.
        let added = spec(&[7]);
        p.grow(sa, &added, 4);
        let a = a.union(&added);
        assert_eq!(p.smallest_superset(&spec(&[63, 64])), Some(11));
        assert_eq!(p.smallest_superset(&spec(&[7, 64])), Some(10));
        p.check([(10, 4, sa, &a), (11, 3, sb, &b)], &refcounts(&[&a, &b]));
    }

    /// The least `(bytes, id)` wins whatever the slots: a reused low
    /// slot holding a high id loses a byte tie, and merges that change
    /// bytes move the winner.
    #[test]
    fn byte_ties_break_on_id_across_reused_slots() {
        let mut p = Postings::default();
        let s = spec(&[5]);
        let first = p.admit(1, 4, &s);
        let two = p.admit(2, 6, &s);
        let three = p.admit(3, 6, &s);
        assert_eq!(p.smallest_superset(&s), Some(1));
        p.release(first, &s);
        let nine = p.admit(9, 6, &s);
        assert_eq!(nine, first, "the freed slot is reused");
        assert_eq!(p.smallest_superset(&s), Some(2), "byte tie: least id");
        p.grow(two, &Spec::empty(), 8);
        assert_eq!(p.smallest_superset(&s), Some(3));
        p.grow(three, &Spec::empty(), 8);
        assert_eq!(p.smallest_superset(&s), Some(9));
        p.grow(nine, &Spec::empty(), 8);
        assert_eq!(p.smallest_superset(&s), Some(2), "all tied again");
        p.check(
            [(9, 8, nine, &s), (2, 8, two, &s), (3, 8, three, &s)],
            &refcounts(&[&s, &s, &s]),
        );
    }

    #[test]
    fn stride_grows_one_word_and_takenare_reused() {
        let mut p = Postings::default();
        let specs: Vec<Spec> = (0..130u32).map(|i| spec(&[i % 7, 100 + i])).collect();
        let taken: Vec<u32> = specs
            .iter()
            .zip(0u64..)
            .map(|(s, id)| p.admit(id, 2, s))
            .collect();
        assert_eq!(p.stride, 3, "130 slots need three words per row");
        p.release(taken[5], &specs[5]);
        p.release(taken[70], &specs[70]);
        let extra = spec(&[3]);
        assert_eq!(p.admit(500, 1, &extra), taken[70], "last freed slot first");
        assert_eq!(p.stride, 3);
        let residents: Vec<(u64, u64, u32, &Spec)> = specs
            .iter()
            .zip(0u64..)
            .zip(&taken)
            .filter(|((_, id), _)| *id != 5 && *id != 70)
            .map(|((s, id), &slot)| (id, 2, slot, s))
            .chain([(500, 1, taken[70], &extra)])
            .collect();
        let all: Vec<&Spec> = residents.iter().map(|&(.., s)| s).collect();
        p.check(residents.iter().copied(), &refcounts(&all));
        let want: Vec<u64> = (0..130u64)
            .filter(|&i| i % 7 == 3 && i != 5 && i != 70)
            .chain([500])
            .collect();
        assert_eq!(sorted(p.holders_of_any(spec(&[3]).ids())), want);
        assert_eq!(p.smallest_superset(&spec(&[3])), Some(500), "fewest bytes");
        assert_eq!(p.smallest_superset(&spec(&[3, 110])), Some(10));
    }

    fn refcounts(specs: &[&Spec]) -> Vec<u32> {
        let mut counts = Vec::new();
        for s in specs {
            for p in s.iter() {
                if counts.len() <= p.index() {
                    counts.resize(p.index() + 1, 0);
                }
                counts[p.index()] += 1;
            }
        }
        counts
    }
}
