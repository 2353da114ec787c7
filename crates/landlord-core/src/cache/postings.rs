//! The posting table: for each package, which resident images hold it.
//!
//! Every resident image gets a dense `u32` slot; a freed slot is reused
//! before a new one is opened. Row `p` is a bitmap over slots with bit
//! `s` set when the image in slot `s` holds package `p`. All rows sit
//! in one flat `Vec<u64>`, `stride` words apart, where `stride` is
//! `ceil(slots / 64)` for the slots ever opened: the stride grows one
//! word at a time, never doubles.
//!
//! The planner asks two questions of it. *Which images are a superset
//! of the request?* is the AND of the request's rows, started from the
//! occupied-slot mask ([`Postings::supersets`]). *Which images share a
//! package with a prefix of the request?* is the OR of those rows
//! ([`Postings::holders_of_any`]) — the exact merge-candidate set under
//! prefix filtering (see `plan.rs`).

use crate::bitset::ones_of_word;
use crate::spec::{PackageId, Spec};

/// Package → bitmap over resident slots, plus the slot allocator.
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
    /// The image id in each slot opened so far (stale for a free one).
    slot_image: Vec<u64>,
    /// Freed slots, reused last-freed first.
    free: Vec<u32>,
}

impl Postings {
    /// Give image `id` a slot and set its bits for `spec`.
    pub(super) fn admit(&mut self, id: u64, spec: &Spec) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slot_image[slot as usize] = id;
                slot
            }
            None => {
                assert!(
                    self.slot_image.len() < u32::MAX as usize,
                    "slot space exhausted"
                );
                let slot = u32::try_from(self.slot_image.len()).unwrap_or(u32::MAX);
                self.slot_image.push(id);
                if self.slot_image.len() > self.stride * 64 {
                    self.widen();
                }
                slot
            }
        };
        let (word, mask) = slot_bit(slot);
        self.occupied[word] |= mask;
        self.add(slot, spec);
        slot
    }

    /// Set `slot`'s bit in the row of every package of `spec`.
    pub(super) fn add(&mut self, slot: u32, spec: &Spec) {
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

    /// The image id in `slot`.
    pub(super) fn image_at(&self, slot: usize) -> u64 {
        self.slot_image[slot]
    }

    /// The slots of the images holding every package of `spec`, as
    /// nonzero `(word, bits)` pairs: the occupied mask AND-ed with the
    /// spec's rows, highest id first, keeping only the words that still
    /// hold a survivor. Stops as soon as none survives, so a package no
    /// image holds ends it.
    pub(super) fn supersets(&self, spec: &Spec) -> Vec<(usize, u64)> {
        let mut live: Vec<(usize, u64)> = self
            .occupied
            .iter()
            .enumerate()
            .filter(|&(_, &bits)| bits != 0)
            .map(|(word, &bits)| (word, bits))
            .collect();
        for &p in spec.ids().iter().rev() {
            let Some(row) = self.row(p) else {
                return Vec::new();
            };
            live.retain_mut(|(word, bits)| {
                *bits &= row[*word];
                *bits != 0
            });
            if live.is_empty() {
                break;
            }
        }
        live
    }

    /// The slots of the images holding any of `packages`: the OR of
    /// their rows.
    pub(super) fn holders_of_any<'a>(
        &self,
        packages: impl IntoIterator<Item = &'a PackageId>,
    ) -> Vec<u64> {
        let mut mask = vec![0; self.stride];
        for &p in packages {
            if let Some(row) = self.row(p) {
                for (m, &w) in mask.iter_mut().zip(row) {
                    *m |= w;
                }
            }
        }
        mask
    }

    /// Verify the table against the resident images, given as
    /// `(id, slot, spec)` each exactly once, and their package
    /// refcounts; panics on inconsistency.
    pub(super) fn check<'a>(
        &self,
        residents: impl IntoIterator<Item = (u64, u32, &'a Spec)>,
        refcounts: &[u32],
    ) {
        assert_eq!(
            self.stride,
            self.slot_image.len().div_ceil(64),
            "posting stride is not the one the opened slots need"
        );
        assert_eq!(self.occupied.len(), self.stride, "occupied mask width");
        assert_eq!(self.rows.len(), self.packages * self.stride, "row count");
        let mut rows = vec![0u64; self.rows.len()];
        let mut occupied = vec![0u64; self.stride];
        for (id, slot, spec) in residents {
            let (word, mask) = slot_bit(slot);
            assert_eq!(occupied[word] & mask, 0, "slot {slot} holds two images");
            occupied[word] |= mask;
            assert_eq!(self.slot_image[slot as usize], id, "slot {slot} image id");
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
            .take(self.slot_image.len())
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

/// The slots set in `words` — `(word, bits)` pairs — ascending.
pub(super) fn slots(words: impl IntoIterator<Item = (usize, u64)>) -> impl Iterator<Item = usize> {
    words
        .into_iter()
        .flat_map(|(word, bits)| ones_of_word(word, bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    fn ids_of(p: &Postings, words: Vec<(usize, u64)>) -> Vec<u64> {
        let mut ids: Vec<u64> = slots(words).map(|s| p.image_at(s)).collect();
        ids.sort_unstable();
        ids
    }

    fn dense(words: Vec<u64>) -> Vec<(usize, u64)> {
        words.into_iter().enumerate().collect()
    }

    #[test]
    fn supersets_and_holders_across_word_boundaries() {
        let mut p = Postings::default();
        let a = spec(&[1, 63, 64]);
        let b = spec(&[63, 64, 200]);
        let sa = p.admit(10, &a);
        let sb = p.admit(11, &b);
        assert_eq!(ids_of(&p, p.supersets(&spec(&[63, 64]))), vec![10, 11]);
        assert_eq!(ids_of(&p, p.supersets(&spec(&[1, 64]))), vec![10]);
        assert_eq!(ids_of(&p, p.supersets(&spec(&[1, 200]))), Vec::<u64>::new());
        assert_eq!(ids_of(&p, p.supersets(&spec(&[500]))), Vec::<u64>::new());
        assert_eq!(ids_of(&p, p.supersets(&Spec::empty())), vec![10, 11]);
        let any = p.holders_of_any(spec(&[1, 200]).ids());
        assert_eq!(ids_of(&p, dense(any)), vec![10, 11]);
        p.check([(10, sa, &a), (11, sb, &b)], &refcounts(&[&a, &b]));
    }

    #[test]
    fn stride_grows_one_word_and_takenare_reused() {
        let mut p = Postings::default();
        let specs: Vec<Spec> = (0..130u32).map(|i| spec(&[i % 7, 100 + i])).collect();
        let taken: Vec<u32> = specs
            .iter()
            .zip(0u64..)
            .map(|(s, id)| p.admit(id, s))
            .collect();
        assert_eq!(p.stride, 3, "130 slots need three words per row");
        p.release(taken[5], &specs[5]);
        p.release(taken[70], &specs[70]);
        let extra = spec(&[3]);
        assert_eq!(p.admit(500, &extra), taken[70], "last freed slot first");
        assert_eq!(p.stride, 3);
        let residents: Vec<(u64, u32, &Spec)> = specs
            .iter()
            .zip(0u64..)
            .zip(&taken)
            .filter(|((_, id), _)| *id != 5 && *id != 70)
            .map(|((s, id), &slot)| (id, slot, s))
            .chain([(500, taken[70], &extra)])
            .collect();
        let all: Vec<&Spec> = residents.iter().map(|&(_, _, s)| s).collect();
        p.check(residents.iter().copied(), &refcounts(&all));
        let held_3: Vec<u64> = ids_of(&p, p.supersets(&spec(&[3])));
        let want: Vec<u64> = (0..130u64)
            .filter(|&i| i % 7 == 3 && i != 5 && i != 70)
            .chain([500])
            .collect();
        assert_eq!(held_3, want);
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
