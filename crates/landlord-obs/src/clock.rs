//! Pluggable time sources.
//!
//! Everything in the workspace that needs "now" for metrics takes a
//! `&dyn Clock` / `Arc<dyn Clock>` instead of touching
//! `std::time` directly. That keeps two worlds cleanly apart:
//!
//! * [`LogicalClock`] — a simulated tick counter advanced by the
//!   driver. Spans measured against it are exactly reproducible, so
//!   metrics snapshots taken from a seeded simulation are byte-stable.
//! * [`MonotonicClock`] — real elapsed nanoseconds, for the
//!   benchmark's (`perfbench/`) wall timing. This type is the *only*
//!   sanctioned home of `std::time::Instant` in metrics code; the
//!   `no-raw-clock` audit rule bans raw `Instant`/`SystemTime` across
//!   landlord-core, -sim, -store, -obs and the CLI, with this file as
//!   the one sanctioned exception.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotone tick source. Ticks are opaque u64s; only differences are
/// meaningful, and their unit is whatever the concrete clock says
/// (logical steps or nanoseconds).
pub trait Clock: Send + Sync {
    /// Current tick. Must be monotone non-decreasing.
    fn now_ticks(&self) -> u64;
}

/// Deterministic clock: a shared atomic counter the simulation driver
/// advances explicitly (typically once per request). Starts at 0.
#[derive(Debug, Default)]
pub struct LogicalClock {
    ticks: AtomicU64,
}

impl LogicalClock {
    /// A fresh clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance by one tick and return the new value.
    pub fn tick(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed) + 1 // sync: tick counting, not a publication fence; callers order via their own locks
    }

    /// Advance by `n` ticks.
    pub fn advance(&self, n: u64) {
        self.ticks.fetch_add(n, Ordering::Relaxed); // sync: monotone counter bump; no payload rides on it
    }
}

impl Clock for LogicalClock {
    fn now_ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed) // sync: a stale tick read is indistinguishable from an earlier now_ticks()
    }
}

/// Wall-clock time as nanoseconds since the clock was created.
///
/// Not deterministic; use only for benchmark timing (`perfbench/`),
/// never for golden snapshots.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose tick 0 is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ticks(&self) -> u64 {
        // Saturating: a u64 of nanoseconds covers ~584 years.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_counts_ticks() {
        let clock = LogicalClock::new();
        assert_eq!(clock.now_ticks(), 0);
        assert_eq!(clock.tick(), 1);
        clock.advance(9);
        assert_eq!(clock.now_ticks(), 10);
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let clock = MonotonicClock::new();
        let a = clock.now_ticks();
        let b = clock.now_ticks();
        assert!(b >= a);
    }
}
