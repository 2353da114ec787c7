//! Deterministic kill points for crash-consistency testing.
//!
//! A write-ahead log is only as crash-safe as its *worst* interleaving
//! of a power cut with its durability steps. [`KillSwitch`] is the
//! seam that lets a test cut the power at any one of those steps,
//! reproducibly: durability-sensitive code calls
//! [`KillSwitch::check`] at every point where a real crash could land,
//! and the switch decides — from an explicit plan, never ambient
//! entropy — whether the process "dies" there. Once a switch fires it
//! stays dead: every later check fails, exactly like a crashed
//! process that can issue no further I/O. The caller then drops its
//! handles and re-opens, which is precisely the recovery path a real
//! crash would exercise.
//!
//! Plans mirror [`crate::fault`]'s philosophy: the scripted modes
//! ([`KillSwitch::at_step`], [`KillSwitch::at_point`]) pin exact
//! crash sites so a sweep can enumerate *every* one; the seeded mode
//! ([`KillSwitch::seeded`]) Bernoulli-rolls each step from a SplitMix
//! mix of `(seed, step)`, fully reproducible under the same seed.

use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A durability step a crash can interrupt. One `check()` call guards
/// each of these in the WAL/checkpoint machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KillPoint {
    /// Inside a log append: only a prefix of the record reaches disk.
    MidAppend,
    /// After the record bytes are written but before the log fsync
    /// that would acknowledge them.
    PostAppendPreFsync,
    /// Inside a checkpoint write: only a prefix of the temp file
    /// reaches disk.
    MidCheckpoint,
    /// After the checkpoint temp file is renamed into place but before
    /// the parent-directory fsync that makes the rename durable.
    PostRenamePreDirFsync,
    /// Inside the log truncation that follows a checkpoint: the log is
    /// cut at an arbitrary byte, leaving a torn tail.
    MidCompactionTruncate,
}

impl KillPoint {
    /// Every kill point, in durability-step order.
    pub const ALL: [KillPoint; 5] = [
        KillPoint::MidAppend,
        KillPoint::PostAppendPreFsync,
        KillPoint::MidCheckpoint,
        KillPoint::PostRenamePreDirFsync,
        KillPoint::MidCompactionTruncate,
    ];

    /// Stable name (used in error messages and reports).
    pub fn name(self) -> &'static str {
        match self {
            KillPoint::MidAppend => "mid-append",
            KillPoint::PostAppendPreFsync => "post-append-pre-fsync",
            KillPoint::MidCheckpoint => "mid-checkpoint",
            KillPoint::PostRenamePreDirFsync => "post-rename-pre-dir-fsync",
            KillPoint::MidCompactionTruncate => "mid-compaction-truncate",
        }
    }

    fn index(self) -> usize {
        match self {
            KillPoint::MidAppend => 0,
            KillPoint::PostAppendPreFsync => 1,
            KillPoint::MidCheckpoint => 2,
            KillPoint::PostRenamePreDirFsync => 3,
            KillPoint::MidCompactionTruncate => 4,
        }
    }
}

/// When the switch fires.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// Never fires (production default).
    Never,
    /// Fires at the Nth durability step, whatever its kind (0-based
    /// over the global step counter). Sweeping N over
    /// [`KillSwitch::steps_taken`] of a clean run visits every site.
    AtStep(u64),
    /// Fires at the Nth occurrence of one specific point (0-based).
    AtPoint { point: KillPoint, occurrence: u64 },
    /// Fires each step with probability `per_mille`/1000, decided by
    /// mixing the seed with the step index (reproducible).
    Seeded { seed: u64, per_mille: u16 },
}

/// Marker text every kill error carries; see [`is_kill_error`].
const KILL_MSG: &str = "killed at kill-point";

/// True when `e` was produced by a [`KillSwitch`] firing (as opposed
/// to a genuine I/O failure on the same path).
pub fn is_kill_error(e: &io::Error) -> bool {
    e.to_string().contains(KILL_MSG)
}

/// The crash seam. Cheap to check when built by [`KillSwitch::never`];
/// shared behind an `Arc` by every component whose durability steps
/// belong to the same simulated process.
pub struct KillSwitch {
    plan: Plan,
    dead: AtomicBool,
    steps: AtomicU64,
    per_point: [AtomicU64; 5],
    fired: Mutex<Option<(KillPoint, u64)>>,
}

impl KillSwitch {
    fn with_plan(plan: Plan) -> Self {
        KillSwitch {
            plan,
            dead: AtomicBool::new(false),
            steps: AtomicU64::new(0),
            per_point: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: Mutex::new(None),
        }
    }

    /// A switch that never fires — production behaviour, zero plans.
    pub fn never() -> Self {
        Self::with_plan(Plan::Never)
    }

    /// Fire at the `step`th durability step (0-based, any kind).
    pub fn at_step(step: u64) -> Self {
        Self::with_plan(Plan::AtStep(step))
    }

    /// Fire at the `occurrence`th time `point` is reached (0-based).
    pub fn at_point(point: KillPoint, occurrence: u64) -> Self {
        Self::with_plan(Plan::AtPoint { point, occurrence })
    }

    /// Fire each step with probability `per_mille`/1000, decided
    /// deterministically from `(seed, step index)`.
    pub fn seeded(seed: u64, per_mille: u16) -> Self {
        Self::with_plan(Plan::Seeded { seed, per_mille })
    }

    /// The crash seam: called once per durability step. Returns `Err`
    /// when the simulated process is (or just became) dead; the caller
    /// must abandon the operation exactly where it stands, leaving any
    /// partial bytes it already wrote.
    pub fn check(&self, point: KillPoint) -> io::Result<()> {
        if self.dead.load(Ordering::Acquire) {
            // sync: Acquire pairs with the Release store in the firing
            // branch so a dead switch is seen before any state behind it
            return Err(self.kill_error(point, "process already dead"));
        }
        let step = self.steps.fetch_add(1, Ordering::Relaxed); // sync: step ticket; uniqueness is all the plans need
        let occurrence = self.per_point[point.index()].fetch_add(1, Ordering::Relaxed); // sync: per-point ticket; uniqueness only
        let fire = match self.plan {
            Plan::Never => false,
            Plan::AtStep(n) => step == n,
            Plan::AtPoint {
                point: p,
                occurrence: n,
            } => p == point && occurrence == n,
            Plan::Seeded { seed, per_mille } => {
                rolls_kill(seed, point.index() as u64, step, per_mille)
            }
        };
        if fire {
            *self.fired.lock() = Some((point, step));
            self.dead.store(true, Ordering::Release); // sync: Release publishes `fired` to later Acquire loads
            return Err(self.kill_error(point, "power cut"));
        }
        Ok(())
    }

    /// Durability steps checked so far (dead or alive). A clean run's
    /// total is the sweep bound for [`KillSwitch::at_step`].
    pub fn steps_taken(&self) -> u64 {
        self.steps.load(Ordering::Relaxed) // sync: test-harness counter; read after the run settles
    }

    /// Has the switch fired?
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire) // sync: pairs with the Release store when firing
    }

    /// Where (and at which global step) the switch fired, if it has.
    pub fn fired_at(&self) -> Option<(KillPoint, u64)> {
        *self.fired.lock()
    }

    fn kill_error(&self, point: KillPoint, why: &str) -> io::Error {
        io::Error::other(format!("{KILL_MSG} {} ({why})", point.name()))
    }
}

/// SplitMix64 finalizer (same construction as [`crate::fault`]).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn rolls_kill(seed: u64, salt: u64, step: u64, per_mille: u16) -> bool {
    if per_mille == 0 {
        return false;
    }
    let h = mix(seed ^ mix(salt) ^ step.wrapping_mul(0x2545_f491_4f6c_dd1d));
    (h % 1000) < u64::from(per_mille)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_mode_is_transparent() {
        let k = KillSwitch::never();
        for point in KillPoint::ALL {
            k.check(point).unwrap();
        }
        assert_eq!(k.steps_taken(), 5);
        assert!(!k.is_dead());
        assert_eq!(k.fired_at(), None);
    }

    #[test]
    fn at_step_fires_once_then_everything_fails() {
        let k = KillSwitch::at_step(2);
        k.check(KillPoint::MidAppend).unwrap();
        k.check(KillPoint::PostAppendPreFsync).unwrap();
        let err = k.check(KillPoint::MidCheckpoint).unwrap_err();
        assert!(is_kill_error(&err), "{err}");
        assert!(k.is_dead());
        assert_eq!(k.fired_at(), Some((KillPoint::MidCheckpoint, 2)));
        // A dead process can issue no further I/O, at any point.
        for point in KillPoint::ALL {
            assert!(is_kill_error(&k.check(point).unwrap_err()));
        }
    }

    #[test]
    fn at_point_counts_occurrences_of_that_point_only() {
        let k = KillSwitch::at_point(KillPoint::MidAppend, 1);
        k.check(KillPoint::MidAppend).unwrap();
        k.check(KillPoint::MidCheckpoint).unwrap();
        k.check(KillPoint::MidCheckpoint).unwrap();
        let err = k.check(KillPoint::MidAppend).unwrap_err();
        assert!(is_kill_error(&err));
        assert_eq!(k.fired_at().unwrap().0, KillPoint::MidAppend);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let pattern = |seed: u64| {
            let k = KillSwitch::seeded(seed, 300);
            let mut died_at = None;
            for i in 0..200u64 {
                if k.check(KillPoint::ALL[(i % 5) as usize]).is_err() {
                    died_at = Some(i);
                    break;
                }
            }
            died_at
        };
        assert_eq!(pattern(9), pattern(9), "same seed, same crash site");
        assert!(pattern(9).is_some(), "300/1000 over 200 steps must fire");
        let mut differs = false;
        for other in 10..20 {
            if pattern(other) != pattern(9) {
                differs = true;
                break;
            }
        }
        assert!(differs, "some nearby seed must crash elsewhere");
    }

    #[test]
    fn zero_per_mille_never_fires() {
        let k = KillSwitch::seeded(1, 0);
        for _ in 0..100 {
            k.check(KillPoint::PostAppendPreFsync).unwrap();
        }
        assert!(!k.is_dead());
    }

    #[test]
    fn kill_errors_are_distinguishable_from_real_io_errors() {
        let real = io::Error::new(io::ErrorKind::StorageFull, "no space left on device");
        assert!(!is_kill_error(&real));
        let k = KillSwitch::at_step(0);
        let killed = k.check(KillPoint::MidAppend).unwrap_err();
        assert!(is_kill_error(&killed));
        assert!(killed.to_string().contains("mid-append"));
    }
}
