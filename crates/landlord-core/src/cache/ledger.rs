//! The shared accounting ledger.
//!
//! Every policy — LANDLORD's [`super::ImageCache`] and all the
//! baselines in `landlord-baselines` — maintains the same counters
//! ([`CacheStats`]) and the same running container-efficiency mean.
//! `Ledger` owns both so the bookkeeping is written once: policies call
//! the small semantic mutators below instead of touching raw counters.
//!
//! Unique bytes move when a package gains its first holder or loses
//! its last. [`super::ImageCache`] learns that from its posting rows (a
//! package is held while its row is nonzero) and hands the ledger the
//! summed bytes; the baselines, which keep no rows, count holders with
//! [`PackageRefs`].

use super::config::CacheStats;
use crate::metrics::ContainerEfficiency;
use crate::sizes::SizeModel;
use crate::spec::Spec;

/// Counters plus the container-efficiency accumulator, with one
/// mutator per accounting event.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    stats: CacheStats,
    container_eff: ContainerEfficiency,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    /// A zeroed ledger.
    pub fn new() -> Self {
        Ledger {
            stats: CacheStats::default(),
            container_eff: ContainerEfficiency::new(),
        }
    }

    /// Resume from checkpointed state (see [`crate::snapshot`]).
    pub fn from_state(stats: CacheStats, container_eff: ContainerEfficiency) -> Self {
        Ledger {
            stats,
            container_eff,
        }
    }

    /// Snapshot of all counters and totals.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The container-efficiency accumulator (for checkpointing).
    pub fn container_eff(&self) -> ContainerEfficiency {
        self.container_eff
    }

    /// Mean container efficiency over all requests so far (percent).
    pub fn container_efficiency_pct(&self) -> f64 {
        self.container_eff.mean_pct()
    }

    /// Cache efficiency right now (percent).
    pub fn cache_efficiency_pct(&self) -> f64 {
        self.stats.cache_efficiency_pct()
    }

    /// Zero the current-state totals (total/unique bytes, image count)
    /// while keeping the monotonic counters; used when current state is
    /// about to be re-admitted image by image (checkpoint restore).
    pub fn reset_current(&mut self) {
        self.stats.total_bytes = 0;
        self.stats.unique_bytes = 0;
        self.stats.image_count = 0;
    }

    /// A request arrived asking for `requested_bytes`.
    pub fn begin_request(&mut self, requested_bytes: u64) {
        self.stats.requests += 1;
        self.stats.bytes_requested += requested_bytes;
    }

    /// The request was served by an existing image.
    pub fn count_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// The request was absorbed by rewriting an existing image.
    pub fn count_merge(&mut self) {
        self.stats.merges = self.stats.merges.saturating_add(1);
    }

    /// The request got a fresh image.
    pub fn count_insert(&mut self) {
        self.stats.inserts += 1;
    }

    /// An image was deleted (evicted or removed).
    pub fn count_delete(&mut self) {
        self.stats.deletes += 1;
    }

    /// A bloated image was split into its constituents.
    pub fn count_split(&mut self) {
        self.stats.splits += 1;
    }

    /// A job launched from an `image_bytes`-sized image after asking
    /// for `requested_bytes` — one container-efficiency sample.
    pub fn serve(&mut self, requested_bytes: u64, image_bytes: u64) {
        self.container_eff.record(requested_bytes, image_bytes);
    }

    /// `bytes` were physically written.
    pub fn write(&mut self, bytes: u64) {
        self.stats.bytes_written += bytes;
    }

    /// A new image of `bytes` entered the cache.
    pub fn admit(&mut self, bytes: u64) {
        self.stats.total_bytes += bytes;
        self.stats.image_count += 1;
    }

    /// An image of `bytes` left the cache.
    pub fn drop_image(&mut self, bytes: u64) {
        self.stats.total_bytes -= bytes;
        self.stats.image_count -= 1;
    }

    /// An existing image grew by `delta` bytes in place (merge).
    pub fn grow_total(&mut self, delta: u64) {
        self.stats.total_bytes += delta;
    }

    /// Packages not previously cached, of `bytes` bytes in all, were
    /// admitted.
    pub fn add_unique(&mut self, bytes: u64) {
        self.stats.unique_bytes += bytes;
    }

    /// The last references to cached packages, of `bytes` bytes in
    /// all, were dropped.
    pub fn sub_unique(&mut self, bytes: u64) {
        self.stats.unique_bytes -= bytes;
    }
}

/// Package refcounts driving a [`Ledger`]'s unique-bytes counter: a
/// package contributes its size while at least one image references
/// it. Shared by the baseline policies so the first-reference/
/// last-reference bookkeeping exists once; [`super::ImageCache`] reads
/// the same answer off its posting rows and keeps no refcounts. Dense
/// over package ids, which `landlord-repo` interns from zero.
#[derive(Debug, Clone, Default)]
pub struct PackageRefs {
    counts: Vec<u32>,
}

impl PackageRefs {
    /// No references.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reference every package in `spec`, crediting unique bytes to
    /// the ledger for first references.
    pub fn add_spec(&mut self, spec: &Spec, sizes: &dyn SizeModel, ledger: &mut Ledger) {
        if let Some(last) = spec.ids().last() {
            if last.index() >= self.counts.len() {
                self.counts.resize(last.index() + 1, 0);
            }
        }
        for p in spec.iter() {
            let count = &mut self.counts[p.index()];
            *count += 1;
            if *count == 1 {
                ledger.add_unique(sizes.package_size(p));
            }
        }
    }

    /// Drop one reference to every package in `spec`, debiting unique
    /// bytes for last references.
    pub fn release_spec(&mut self, spec: &Spec, sizes: &dyn SizeModel, ledger: &mut Ledger) {
        for p in spec.iter() {
            match self.counts.get_mut(p.index()) {
                Some(count) if *count > 1 => *count -= 1,
                Some(count) if *count == 1 => {
                    *count = 0;
                    ledger.sub_unique(sizes.package_size(p));
                }
                _ => debug_assert!(false, "released unreferenced package {p}"),
            }
        }
    }

    /// The raw per-package counts, indexed by package id; ids past the
    /// end have none (for invariant checks).
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_like_raw_counters() {
        let mut l = Ledger::new();
        l.begin_request(10);
        l.count_insert();
        l.admit(10);
        l.write(10);
        l.serve(10, 10);
        l.add_unique(10);
        l.begin_request(4);
        l.count_hit();
        l.serve(4, 10);
        let s = l.stats();
        assert_eq!((s.requests, s.hits, s.inserts), (2, 1, 1));
        assert_eq!(s.bytes_requested, 14);
        assert_eq!(s.bytes_written, 10);
        assert_eq!(s.total_bytes, 10);
        assert_eq!(s.unique_bytes, 10);
        assert_eq!(s.image_count, 1);
        assert!((l.container_efficiency_pct() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn drop_and_grow_adjust_current_state() {
        let mut l = Ledger::new();
        l.admit(8);
        l.grow_total(4);
        assert_eq!(l.stats().total_bytes, 12);
        l.drop_image(12);
        l.count_delete();
        assert_eq!(l.stats().total_bytes, 0);
        assert_eq!(l.stats().image_count, 0);
        assert_eq!(l.stats().deletes, 1);
    }

    #[test]
    fn reset_current_keeps_monotonic_counters() {
        let mut l = Ledger::new();
        l.begin_request(5);
        l.count_insert();
        l.admit(5);
        l.write(5);
        l.add_unique(5);
        l.reset_current();
        let s = l.stats();
        assert_eq!((s.total_bytes, s.unique_bytes, s.image_count), (0, 0, 0));
        assert_eq!((s.requests, s.inserts, s.bytes_written), (1, 1, 5));
    }
}
