//! The posting table: for each package, which resident images hold it.
//!
//! Every resident image gets a dense `u32` slot; a freed slot is reused
//! before a new one is opened. Row `p` is a bitmap over slots with bit
//! `s` set when the image in slot `s` holds package `p`. All rows sit
//! in one flat `Vec<u64>`, `stride` words apart, where `stride` is
//! `ceil(slots / 64)` for the slots ever opened: the stride grows one
//! word at a time, never doubles. Beside the rows, each slot keeps its
//! image's [`Record`] — bytes, id and package count — so the table
//! ranks and scores the images it finds without reading the images.
//!
//! The planner asks two questions of it. *Which is the smallest image
//! holding every package of the request?* is the AND of the request's
//! rows, one word of slots at a time from the occupied-slot mask, then
//! the least `(bytes, id)` record among the survivors
//! ([`Postings::smallest_superset`]). *How much of the request does
//! each image hold?* is the sum of the request's rows
//! ([`Postings::overlaps`]): bit-sliced counters under the package
//! count, a per-slot byte sum under the byte metric. Both are exact
//! because every package of every resident image has its bit set.
//!
//! A merge asks a third: *which packages of the request does the image
//! in this slot lack?* They are the request's packages whose row has no
//! bit for the slot, plus those past the last row, which no image holds
//! ([`Postings::missing`]): one word per package, and the image's spec
//! is not read. Whether the slot holds a package follows no pattern a
//! branch predictor could learn, so the delta is compacted without a
//! branch on it. The delta comes back as sorted ids, which the merged
//! spec's union reads as a slice (`Spec::union_ids`).
//!
//! The rows also answer the cache's *unique bytes*, each package held
//! by some image counted once: a package is held exactly when its row
//! is nonzero, so the table is the engine's one per-package index and
//! no per-package refcount sits beside it. Setting a bit in an all-zero
//! row makes the package unique; clearing the last bit of a row ends
//! that. [`Postings::admit`], [`Postings::grow`] and
//! [`Postings::release`] gather those packages the way `missing`
//! gathers the delta — every id written, the write index advanced by
//! the emptiness test as an integer — and return the bytes they weigh,
//! summed by one [`SizeModel::ids_bytes`] call per pass. The test reads
//! one word under a one-word stride and ORs the row's words otherwise,
//! eight at a time, stopping at the first eight with a bit set: a wide
//! table (10k slots and more) then reads a shared package's row only up
//! to its first holders.

use crate::bitset::ones_of_word;
use crate::policy::DistanceMetric;
use crate::sizes::SizeModel;
use crate::spec::{PackageId, Spec};

/// What the table keeps of the image in a slot: its size in bytes, its
/// id and its number of packages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Record {
    /// The image's bytes (`SizeModel::spec_bytes` of its spec).
    pub(super) bytes: u64,
    /// The image's id.
    pub(super) id: u64,
    /// The number of packages in the image's spec.
    pub(super) packages: usize,
}

/// Package → bitmap over resident slots, the slot allocator, and each
/// slot's [`Record`].
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
    /// The record of the image in each slot opened so far (stale for a
    /// free one).
    records: Vec<Record>,
    /// Freed slots, reused last-freed first.
    free: Vec<u32>,
    /// Scratch for the packages whose row an admission, merge or
    /// release finds empty; only its first entries, as many as that
    /// call counts, are meaningful.
    changed: Vec<PackageId>,
}

/// What a merge adds to the image in a slot and to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Grown {
    /// The bytes of the added packages: the image's growth.
    pub(super) bytes: u64,
    /// The bytes of the added packages no other image held: the growth
    /// of the cache's unique bytes.
    pub(super) unique: u64,
}

impl Postings {
    /// Give image `id` of `bytes` bytes a slot and set its bits for
    /// `spec`. Returns the slot and the bytes of the packages no other
    /// image held, by which the cache's unique bytes grow.
    pub(super) fn admit(
        &mut self,
        id: u64,
        bytes: u64,
        spec: &Spec,
        sizes: &dyn SizeModel,
    ) -> (u32, u64) {
        let record = Record {
            bytes,
            id,
            packages: spec.len(),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.records[slot as usize] = record;
                slot
            }
            None => {
                assert!(
                    self.records.len() < u32::MAX as usize,
                    "slot space exhausted"
                );
                let slot = u32::try_from(self.records.len()).unwrap_or(u32::MAX);
                self.records.push(record);
                if self.records.len() > self.stride * 64 {
                    self.widen();
                }
                slot
            }
        };
        let (word, mask) = slot_bit(slot);
        self.occupied[word] |= mask;
        let unique = self.set_bits(slot, spec.ids(), sizes);
        (slot, unique)
    }

    /// The image in `slot` gained the packages `added`, sorted and none
    /// of which it held (a merge). Returns the bytes `added` weigh, by
    /// which the image grows, and the bytes of those no other image
    /// held, by which the cache's unique bytes grow: one size sum each.
    pub(super) fn grow(&mut self, slot: u32, added: &[PackageId], sizes: &dyn SizeModel) -> Grown {
        let unique = self.set_bits(slot, added, sizes);
        let bytes = sizes.ids_bytes(added);
        let record = &mut self.records[slot as usize];
        record.bytes = record.bytes.saturating_add(bytes);
        record.packages += added.len();
        Grown { bytes, unique }
    }

    /// Set `slot`'s bit in the row of every package of `ids` (sorted).
    /// Returns the bytes of the packages whose row was all zero: those
    /// no image held until now.
    fn set_bits(&mut self, slot: u32, ids: &[PackageId], sizes: &dyn SizeModel) -> u64 {
        if let Some(last) = ids.last() {
            if last.index() >= self.packages {
                self.packages = last.index() + 1;
                self.rows.resize(self.packages * self.stride, 0);
            }
        }
        let (word, mask) = slot_bit(slot);
        let stride = self.stride;
        let changed = &mut self.changed;
        changed.resize(ids.len(), PackageId(0));
        let mut n = 0;
        for &p in ids {
            let row = &mut self.rows[p.index() * stride..(p.index() + 1) * stride];
            changed[n] = p;
            n += usize::from(is_zero(row));
            row[word] |= mask;
        }
        sizes.ids_bytes(&changed[..n])
    }

    /// Clear `slot`'s bits for `spec` (the image's whole set) and free
    /// the slot. Returns the bytes of the packages whose row is now all
    /// zero: those no image holds any more, by which the cache's unique
    /// bytes shrink.
    pub(super) fn release(&mut self, slot: u32, spec: &Spec, sizes: &dyn SizeModel) -> u64 {
        let (word, mask) = slot_bit(slot);
        let stride = self.stride;
        let changed = &mut self.changed;
        changed.resize(spec.len(), PackageId(0));
        let mut n = 0;
        for p in spec {
            let row = &mut self.rows[p.index() * stride..(p.index() + 1) * stride];
            row[word] &= !mask;
            changed[n] = p;
            n += usize::from(is_zero(row));
        }
        self.occupied[word] &= !mask;
        self.free.push(slot);
        sizes.ids_bytes(&changed[..n])
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

    /// The packages of `spec` that have a row. Ids ascend and rows
    /// cover `0..packages`, so they are a prefix of the spec; a package
    /// without a row is held by no image.
    fn with_rows<'a>(&self, spec: &'a Spec) -> &'a [PackageId] {
        let ids = spec.ids();
        &ids[..ids.partition_point(|p| p.index() < self.packages)]
    }

    /// The packages of `spec` that the image in the occupied `slot`
    /// lacks: those whose row has no bit for the slot, and those past
    /// the last row, which no image holds. This is what a merge into
    /// the slot adds, `spec \ image`, read with one word per package
    /// and without the image's spec.
    ///
    /// Every package with a row is written, and the write index moves
    /// on only past those the slot lacks. Which ones those are follows
    /// no pattern a branch predictor could learn, so the keep is a
    /// comparison added as an integer, not a branch.
    pub(super) fn missing(&self, slot: u32, spec: &Spec) -> Vec<PackageId> {
        let (word, mask) = slot_bit(slot);
        debug_assert!(self.occupied[word] & mask != 0, "slot {slot} is free");
        let ids = spec.ids();
        let with_rows = self.with_rows(spec);
        let mut out = vec![PackageId(0); ids.len()];
        let mut n = 0;
        for &p in with_rows {
            out[n] = p;
            n += usize::from(self.rows[p.index() * self.stride + word] & mask == 0);
        }
        out.truncate(n);
        out.extend_from_slice(&ids[with_rows.len()..]);
        out
    }

    /// The slot of the image holding every package of `spec` with the
    /// least `(bytes, id)`, or `None` when no image holds them all.
    ///
    /// One word of slots at a time: the occupied word AND-ed with that
    /// word of the spec's rows, highest id first, until nothing
    /// survives; then the survivors' records. A package no image ever
    /// held (no row) ends the search as soon as a word reaches it. No
    /// allocation, and no image lookup.
    pub(super) fn smallest_superset(&self, spec: &Spec) -> Option<u32> {
        let mut best: Option<(u64, u64, usize)> = None;
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
                let Record { bytes, id, .. } = self.records[slot];
                if best.is_none_or(|(b, i, _)| (bytes, id) < (b, i)) {
                    best = Some((bytes, id, slot));
                }
            }
        }
        best.and_then(|(.., slot)| u32::try_from(slot).ok())
    }

    /// Whether some resident image holds package `p`: any bit of its
    /// row set, read word by word (for tests).
    #[cfg(test)]
    pub(super) fn held(&self, p: PackageId) -> bool {
        p.index() < self.packages
            && self.rows[p.index() * self.stride..][..self.stride]
                .iter()
                .any(|&word| word != 0)
    }

    /// The id of the image in the occupied `slot`.
    pub(super) fn id(&self, slot: u32) -> u64 {
        self.records[slot as usize].id
    }

    /// Call `each` with the slot, the record and the overlap of every
    /// resident image that holds at least `least` of `spec`, in slot
    /// order. The overlap is `|spec ∩ image|` under
    /// [`DistanceMetric::PackageCount`] and the bytes of `spec ∩ image`
    /// under [`DistanceMetric::Bytes`]; with `least = 0` every resident
    /// image is reported.
    ///
    /// One word of slots at a time, skipping words with no lane to
    /// report:
    ///
    /// *Package count:* the spec's rows are added into bit-sliced
    /// counters — plane `k` holds bit `k` of every slot's count — with a
    /// carry-save adder tree (Harley–Seal) that takes eight rows per
    /// step and keeps the weight-1, 2 and 4 sums in registers, so only
    /// the weight-8 carry ripples into the planes. A bit-sliced compare
    /// against `least` picks the lanes to read out; no other slot's
    /// count is assembled.
    ///
    /// *Bytes:* ScanCount — each set bit of each of the spec's rows adds
    /// that package's size to its lane's sum.
    ///
    /// Either way `O(|spec|)` word operations per word of slots, plus
    /// one addition per `(package, holder)` pair under the byte metric.
    pub(super) fn overlaps(
        &self,
        spec: &Spec,
        metric: DistanceMetric,
        sizes: &dyn SizeModel,
        least: u64,
        mut each: impl FnMut(u32, Record, u64),
    ) {
        let lanes = &self.occupied;
        let held = self.with_rows(spec);
        match metric {
            DistanceMetric::PackageCount => {
                self.count_packages(held, spec.len(), least, lanes, each)
            }
            DistanceMetric::Bytes => {
                let rows: Vec<(usize, u64)> = held
                    .iter()
                    .map(|&p| (p.index() * self.stride, sizes.package_size(p)))
                    .collect();
                for (word, &mask) in lanes.iter().enumerate() {
                    if mask == 0 {
                        continue;
                    }
                    let mut sums = [0u64; 64];
                    for &(start, size) in &rows {
                        for lane in ones_of_word(0, self.rows[start + word] & mask) {
                            sums[lane] += size;
                        }
                    }
                    for slot in ones_of_word(word, mask) {
                        let sum = sums[slot % 64];
                        if sum >= least {
                            self.report(slot, sum, &mut each);
                        }
                    }
                }
            }
        }
    }

    /// The package-count half of [`Postings::overlaps`]: `held` are the
    /// request's packages with rows, out of `len`.
    fn count_packages(
        &self,
        held: &[PackageId],
        len: usize,
        least: u64,
        lanes: &[u64],
        mut each: impl FnMut(u32, Record, u64),
    ) {
        // Bits of the largest count, `len`; the adder tree's sums fill
        // planes 0 to 2 whatever `len` is.
        let mut width = 3;
        while width < 64 && len >> width != 0 {
            width += 1;
        }
        let mut planes = [0u64; 64];
        for (word, &mask) in lanes.iter().enumerate() {
            if mask == 0 {
                continue;
            }
            let (mut ones, mut twos, mut fours) = (0u64, 0u64, 0u64);
            planes[3..width].fill(0);
            for chunk in held.chunks(8) {
                let mut r = [0u64; 8];
                for (r, p) in r.iter_mut().zip(chunk) {
                    *r = self.rows[p.index() * self.stride + word];
                }
                let (twos_a, o) = csa(ones, r[0], r[1]);
                let (twos_b, o) = csa(o, r[2], r[3]);
                let (fours_a, t) = csa(twos, twos_a, twos_b);
                let (twos_a, o) = csa(o, r[4], r[5]);
                let (twos_b, o) = csa(o, r[6], r[7]);
                let (fours_b, t) = csa(t, twos_a, twos_b);
                let (eights, f) = csa(fours, fours_a, fours_b);
                (ones, twos, fours) = (o, t, f);
                // The carry ripples through every plane above weight 4:
                // where it dies out depends on the counts, so a branch
                // on it would mispredict.
                let mut carry = eights;
                for plane in &mut planes[3..width] {
                    (*plane, carry) = (*plane ^ carry, *plane & carry);
                }
            }
            (planes[0], planes[1], planes[2]) = (ones, twos, fours);
            let planes = &planes[..width];
            let mut lanes = at_least(planes, least) & mask;
            while lanes != 0 {
                let lane = lanes.trailing_zeros();
                lanes &= lanes - 1;
                let count = planes
                    .iter()
                    .enumerate()
                    .map(|(k, plane)| (plane >> lane & 1) << k)
                    .sum();
                self.report(word * 64 + lane as usize, count, &mut each);
            }
        }
    }

    /// Hand `each` the slot, record and overlap of the image in `slot`.
    fn report(&self, slot: usize, overlap: u64, each: &mut impl FnMut(u32, Record, u64)) {
        if let Ok(at) = u32::try_from(slot) {
            each(at, self.records[slot], overlap);
        }
    }

    /// Verify the table against the resident images, given as
    /// `(id, bytes, slot, spec)` each exactly once; panics on
    /// inconsistency. The rows equal the ones the images set, so a row
    /// is nonzero exactly when some image holds its package.
    pub(super) fn check<'a>(&self, residents: impl IntoIterator<Item = (u64, u64, u32, &'a Spec)>) {
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
                Record {
                    bytes,
                    id,
                    packages: spec.len()
                },
                "slot {slot} record"
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
    }
}

/// A carry-save adder over 64 lanes: `(carry, sum)` of `a + b + c`
/// lane by lane.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

/// The lanes whose count — bit `k` of it in `planes[k]` — is at least
/// `least`: a most-significant-first compare of every lane at once.
fn at_least(planes: &[u64], least: u64) -> u64 {
    if planes.len() < 64 && least >> planes.len() != 0 {
        return 0;
    }
    let (mut above, mut equal) = (0u64, !0u64);
    for (k, &plane) in planes.iter().enumerate().rev() {
        if least >> k & 1 == 1 {
            equal &= plane;
        } else {
            above |= equal & plane;
            equal &= !plane;
        }
    }
    above | equal
}

/// Whether `row` is all zero: its one word under a one-word stride,
/// else the OR of its words, eight at a time, stopping at the first
/// eight with a bit set. The stride is the same for every row, so the
/// match on it predicts; up to 512 slots the row is one block of
/// eight, and the stop is no branch on the data.
#[inline(always)]
fn is_zero(row: &[u64]) -> bool {
    match row {
        [word] => *word == 0,
        _ => row
            .chunks(8)
            .all(|block| block.iter().fold(0, |any, &word| any | word) == 0),
    }
}

/// Slot `s`'s word and bit within a row.
fn slot_bit(slot: u32) -> (usize, u64) {
    (slot as usize / 64, 1u64 << (slot % 64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::{TableSizes, UniformSizes};

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
    }

    /// Admit image `id` of `bytes` bytes holding `s`; its slot.
    fn admit(p: &mut Postings, id: u64, bytes: u64, s: &Spec) -> u32 {
        p.admit(id, bytes, s, &UniformSizes::new(1)).0
    }

    /// Free `slot`, whose image holds `s`.
    fn release(p: &mut Postings, slot: u32, s: &Spec) {
        p.release(slot, s, &UniformSizes::new(1));
    }

    /// The id of the least `(bytes, id)` image holding all of `s`.
    fn superset(p: &Postings, s: &Spec) -> Option<u64> {
        p.smallest_superset(s).map(|slot| p.id(slot))
    }

    /// The ids of the images holding any package of `s`, ascending: the
    /// slots whose package count reaches one.
    fn holders(p: &Postings, s: &Spec) -> Vec<u64> {
        let mut ids = Vec::new();
        let sizes = UniformSizes::new(1);
        p.overlaps(s, DistanceMetric::PackageCount, &sizes, 1, |_, r, _| {
            ids.push(r.id)
        });
        ids.sort_unstable();
        ids
    }

    #[test]
    fn supersets_and_holders_across_word_boundaries() {
        let mut p = Postings::default();
        let a = spec(&[1, 63, 64]);
        let b = spec(&[63, 64, 200]);
        let sa = admit(&mut p, 10, 3, &a);
        let sb = admit(&mut p, 11, 3, &b);
        assert_eq!(superset(&p, &spec(&[63, 64])), Some(10));
        assert_eq!(superset(&p, &spec(&[1, 64])), Some(10));
        assert_eq!(superset(&p, &spec(&[64, 200])), Some(11));
        assert_eq!(superset(&p, &spec(&[1, 200])), None);
        assert_eq!(superset(&p, &spec(&[500])), None);
        assert_eq!(superset(&p, &spec(&[1, 500])), None);
        assert_eq!(superset(&p, &Spec::empty()), Some(10));
        assert_eq!(holders(&p, &spec(&[1, 200])), vec![10, 11]);
        assert_eq!(holders(&p, &spec(&[1, 500])), vec![10]);
        p.check([(10, 3, sa, &a), (11, 3, sb, &b)]);
        // A merge that grows image 10 past image 11 hands 11 the tie.
        let added = spec(&[7]);
        p.grow(sa, added.ids(), &UniformSizes::new(1));
        let a = a.union(&added);
        assert_eq!(superset(&p, &spec(&[63, 64])), Some(11));
        assert_eq!(superset(&p, &spec(&[7, 64])), Some(10));
        p.check([(10, 4, sa, &a), (11, 3, sb, &b)]);
    }

    /// The least `(bytes, id)` wins whatever the slots: a reused low
    /// slot holding a high id loses a byte tie, and merges that change
    /// bytes move the winner.
    #[test]
    fn byte_ties_break_on_id_across_reused_slots() {
        let mut p = Postings::default();
        let s = spec(&[5]);
        let first = admit(&mut p, 1, 4, &s);
        let two = admit(&mut p, 2, 6, &s);
        let three = admit(&mut p, 3, 6, &s);
        assert_eq!(superset(&p, &s), Some(1));
        release(&mut p, first, &s);
        let nine = admit(&mut p, 9, 6, &s);
        assert_eq!(nine, first, "the freed slot is reused");
        assert_eq!(superset(&p, &s), Some(2), "byte tie: least id");
        // Each merge adds package 6, of 2 bytes.
        let (added, sizes) = (spec(&[6]), UniformSizes::new(2));
        p.grow(two, added.ids(), &sizes);
        assert_eq!(superset(&p, &s), Some(3));
        p.grow(three, added.ids(), &sizes);
        assert_eq!(superset(&p, &s), Some(9));
        p.grow(nine, added.ids(), &sizes);
        assert_eq!(superset(&p, &s), Some(2), "all tied again");
        let merged = s.union(&added);
        p.check([
            (9, 8, nine, &merged),
            (2, 8, two, &merged),
            (3, 8, three, &merged),
        ]);
    }

    #[test]
    fn stride_grows_one_word_and_slots_are_reused() {
        let mut p = Postings::default();
        let specs: Vec<Spec> = (0..130u32).map(|i| spec(&[i % 7, 100 + i])).collect();
        let taken: Vec<u32> = specs
            .iter()
            .zip(0u64..)
            .map(|(s, id)| admit(&mut p, id, 2, s))
            .collect();
        assert_eq!(p.stride, 3, "130 slots need three words per row");
        release(&mut p, taken[5], &specs[5]);
        release(&mut p, taken[70], &specs[70]);
        let extra = spec(&[3]);
        assert_eq!(
            admit(&mut p, 500, 1, &extra),
            taken[70],
            "last freed slot first"
        );
        assert_eq!(p.stride, 3);
        let residents: Vec<(u64, u64, u32, &Spec)> = specs
            .iter()
            .zip(0u64..)
            .zip(&taken)
            .filter(|((_, id), _)| *id != 5 && *id != 70)
            .map(|((s, id), &slot)| (id, 2, slot, s))
            .chain([(500, 1, taken[70], &extra)])
            .collect();
        p.check(residents.iter().copied());
        let want: Vec<u64> = (0..130u64)
            .filter(|&i| i % 7 == 3 && i != 5 && i != 70)
            .chain([500])
            .collect();
        assert_eq!(holders(&p, &spec(&[3])), want);
        assert_eq!(superset(&p, &spec(&[3])), Some(500), "fewest bytes");
        assert_eq!(superset(&p, &spec(&[3, 110])), Some(10));
    }

    /// The ids of `s` that the image in `slot` lacks.
    fn missing(p: &Postings, slot: u32, s: &Spec) -> Vec<u32> {
        p.missing(slot, s).iter().map(|id| id.0).collect()
    }

    #[test]
    fn missing_reads_the_slot_bit_on_both_sides_of_a_word_boundary() {
        let mut p = Postings::default();
        let a = spec(&[1, 63, 64, 127]);
        let b = spec(&[63, 128]);
        let sa = admit(&mut p, 1, 4, &a);
        let sb = admit(&mut p, 2, 2, &b);
        let request = spec(&[0, 1, 63, 64, 127, 128]);
        assert_eq!(missing(&p, sa, &request), vec![0, 128]);
        assert_eq!(missing(&p, sb, &request), vec![0, 1, 64, 127]);
        assert_eq!(missing(&p, sa, &a), Vec::<u32>::new());
        assert_eq!(missing(&p, sa, &Spec::empty()), Vec::<u32>::new());
        // After a merge the slot holds what it lacked.
        let added = p.missing(sa, &request);
        p.grow(sa, &added, &UniformSizes::new(1));
        assert_eq!(missing(&p, sa, &request), Vec::<u32>::new());
        assert_eq!(missing(&p, sb, &request), vec![0, 1, 64, 127]);
    }

    /// Packages past the last row are held by no image, so every slot
    /// lacks them, whether the request has rows below them or not.
    #[test]
    fn packages_without_a_row_are_missing_from_every_slot() {
        let mut p = Postings::default();
        let a = spec(&[2, 9]);
        let slot = admit(&mut p, 1, 2, &a);
        assert_eq!(p.packages, 10);
        assert_eq!(missing(&p, slot, &spec(&[9, 10, 500])), vec![10, 500]);
        assert_eq!(missing(&p, slot, &spec(&[64, 65])), vec![64, 65]);
        assert_eq!(missing(&p, slot, &spec(&[2, 3, 9])), vec![3]);
    }

    /// With more than 64 slots a row spans several words: each slot
    /// reads its own word, and a reused slot answers for its new image
    /// alone.
    #[test]
    fn missing_reads_the_slot_word_past_the_first_and_follows_reused_slots() {
        let mut p = Postings::default();
        let specs: Vec<Spec> = (0..150u32).map(|i| spec(&[i % 5, 200 + i])).collect();
        let taken: Vec<u32> = specs
            .iter()
            .zip(0u64..)
            .map(|(s, id)| admit(&mut p, id, 2, s))
            .collect();
        assert_eq!(p.stride, 3);
        let request = spec(&[0, 1, 2, 3, 4, 263, 340]);
        for (s, &slot) in specs.iter().zip(&taken) {
            let want: Vec<u32> = request.difference(s).iter().map(|id| id.0).collect();
            assert_eq!(missing(&p, slot, &request), want, "slot {slot}");
        }
        // Slot 130 (word 2) is freed and reused by an image holding
        // other packages: its old bits are gone, its new ones read.
        release(&mut p, taken[130], &specs[130]);
        let reused = spec(&[1, 3, 340]);
        assert_eq!(admit(&mut p, 900, 3, &reused), taken[130]);
        assert_eq!(missing(&p, taken[130], &request), vec![0, 2, 4, 263]);
        assert_eq!(missing(&p, taken[63], &request), vec![0, 1, 2, 4, 340]);
    }

    /// Admission, merge and release return the bytes of the packages
    /// that gain their first holder or lose their last, whether the
    /// holders share a row's word or not: a package held only in word 2
    /// of a three-word row is still held when word 0 empties.
    #[test]
    fn unique_bytes_follow_the_first_and_last_holder_of_each_row() {
        let sizes = TableSizes::new((0..400u64).map(|i| 1 + i).collect());
        let mut p = Postings::default();
        let bytes = |ids: &[u32]| ids.iter().map(|&i| 1 + u64::from(i)).sum::<u64>();
        let a = spec(&[1, 2, 300]);
        let (sa, unique) = p.admit(1, bytes(&[1, 2, 300]), &a, &sizes);
        assert_eq!(unique, bytes(&[1, 2, 300]), "all new, one past the rows");
        let b = spec(&[2, 3]);
        let (sb, unique) = p.admit(2, bytes(&[2, 3]), &b, &sizes);
        assert_eq!(unique, bytes(&[3]), "2 already held");
        let grown = p.grow(sb, &[PackageId(1), PackageId(4)], &sizes);
        assert_eq!(
            grown,
            Grown {
                bytes: bytes(&[1, 4]),
                unique: bytes(&[4])
            }
        );
        let b = b.union_ids(&[PackageId(1), PackageId(4)]);
        // Open 140 more slots, so rows are three words wide and the
        // last image sits in word 2.
        let fill: Vec<Spec> = (0..140u32).map(|i| spec(&[10 + i])).collect();
        let taken: Vec<u32> = fill
            .iter()
            .zip(100u64..)
            .map(|(s, id)| p.admit(id, bytes(&[10 + id as u32 - 100]), s, &sizes).0)
            .collect();
        let c = spec(&[2, 300]);
        let (sc, unique) = p.admit(900, bytes(&[2, 300]), &c, &sizes);
        assert_eq!((p.stride, sc / 64, unique), (3, 2, 0));
        assert_eq!(p.release(sa, &a, &sizes), 0, "1 with b, 2 and 300 with c");
        assert_eq!(p.release(sb, &b, &sizes), bytes(&[1, 3, 4]));
        assert_eq!(p.release(sc, &c, &sizes), bytes(&[2, 300]));
        let residents: Vec<(u64, u64, u32, &Spec)> = fill
            .iter()
            .zip(100u64..)
            .zip(&taken)
            .map(|((s, id), &slot)| (id, bytes(&[10 + id as u32 - 100]), slot, s))
            .collect();
        p.check(residents);
    }
}
