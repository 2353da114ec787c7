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
//! branch on it.

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
}

impl Postings {
    /// Give image `id` of `bytes` bytes a slot and set its bits for
    /// `spec`.
    pub(super) fn admit(&mut self, id: u64, bytes: u64, spec: &Spec) -> u32 {
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
        self.set_bits(slot, spec);
        slot
    }

    /// The image in `slot` gained the packages `added`, none of which
    /// it held, and now holds `bytes` bytes (a merge).
    pub(super) fn grow(&mut self, slot: u32, added: &Spec, bytes: u64) {
        self.set_bits(slot, added);
        let record = &mut self.records[slot as usize];
        record.bytes = bytes;
        record.packages += added.len();
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
    pub(super) fn missing(&self, slot: u32, spec: &Spec) -> Spec {
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
        Spec::from_sorted_vec(out)
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
                let mut carry = eights;
                for plane in &mut planes[3..width] {
                    if carry == 0 {
                        break;
                    }
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

/// Slot `s`'s word and bit within a row.
fn slot_bit(slot: u32) -> (usize, u64) {
    (slot as usize / 64, 1u64 << (slot % 64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::UniformSizes;

    fn spec(ids: &[u32]) -> Spec {
        Spec::from_ids(ids.iter().map(|&i| PackageId(i)))
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
        let sa = p.admit(10, 3, &a);
        let sb = p.admit(11, 3, &b);
        assert_eq!(superset(&p, &spec(&[63, 64])), Some(10));
        assert_eq!(superset(&p, &spec(&[1, 64])), Some(10));
        assert_eq!(superset(&p, &spec(&[64, 200])), Some(11));
        assert_eq!(superset(&p, &spec(&[1, 200])), None);
        assert_eq!(superset(&p, &spec(&[500])), None);
        assert_eq!(superset(&p, &spec(&[1, 500])), None);
        assert_eq!(superset(&p, &Spec::empty()), Some(10));
        assert_eq!(holders(&p, &spec(&[1, 200])), vec![10, 11]);
        assert_eq!(holders(&p, &spec(&[1, 500])), vec![10]);
        p.check([(10, 3, sa, &a), (11, 3, sb, &b)], &refcounts(&[&a, &b]));
        // A merge that grows image 10 past image 11 hands 11 the tie.
        let added = spec(&[7]);
        p.grow(sa, &added, 4);
        let a = a.union(&added);
        assert_eq!(superset(&p, &spec(&[63, 64])), Some(11));
        assert_eq!(superset(&p, &spec(&[7, 64])), Some(10));
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
        assert_eq!(superset(&p, &s), Some(1));
        p.release(first, &s);
        let nine = p.admit(9, 6, &s);
        assert_eq!(nine, first, "the freed slot is reused");
        assert_eq!(superset(&p, &s), Some(2), "byte tie: least id");
        p.grow(two, &Spec::empty(), 8);
        assert_eq!(superset(&p, &s), Some(3));
        p.grow(three, &Spec::empty(), 8);
        assert_eq!(superset(&p, &s), Some(9));
        p.grow(nine, &Spec::empty(), 8);
        assert_eq!(superset(&p, &s), Some(2), "all tied again");
        p.check(
            [(9, 8, nine, &s), (2, 8, two, &s), (3, 8, three, &s)],
            &refcounts(&[&s, &s, &s]),
        );
    }

    #[test]
    fn stride_grows_one_word_and_slots_are_reused() {
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
        let sa = p.admit(1, 4, &a);
        let sb = p.admit(2, 2, &b);
        let request = spec(&[0, 1, 63, 64, 127, 128]);
        assert_eq!(missing(&p, sa, &request), vec![0, 128]);
        assert_eq!(missing(&p, sb, &request), vec![0, 1, 64, 127]);
        assert_eq!(missing(&p, sa, &a), Vec::<u32>::new());
        assert_eq!(missing(&p, sa, &Spec::empty()), Vec::<u32>::new());
        // After a merge the slot holds what it lacked.
        p.grow(sa, &p.missing(sa, &request), 6);
        assert_eq!(missing(&p, sa, &request), Vec::<u32>::new());
        assert_eq!(missing(&p, sb, &request), vec![0, 1, 64, 127]);
    }

    /// Packages past the last row are held by no image, so every slot
    /// lacks them, whether the request has rows below them or not.
    #[test]
    fn packages_without_a_row_are_missing_from_every_slot() {
        let mut p = Postings::default();
        let a = spec(&[2, 9]);
        let slot = p.admit(1, 2, &a);
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
            .map(|(s, id)| p.admit(id, 2, s))
            .collect();
        assert_eq!(p.stride, 3);
        let request = spec(&[0, 1, 2, 3, 4, 263, 340]);
        for (s, &slot) in specs.iter().zip(&taken) {
            let want: Vec<u32> = request.difference(s).iter().map(|id| id.0).collect();
            assert_eq!(missing(&p, slot, &request), want, "slot {slot}");
        }
        // Slot 130 (word 2) is freed and reused by an image holding
        // other packages: its old bits are gone, its new ones read.
        p.release(taken[130], &specs[130]);
        let reused = spec(&[1, 3, 340]);
        assert_eq!(p.admit(900, 3, &reused), taken[130]);
        assert_eq!(missing(&p, taken[130], &request), vec![0, 2, 4, 263]);
        assert_eq!(missing(&p, taken[63], &request), vec![0, 1, 2, 4, 340]);
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
