//! Cross-file structural analyses.
//!
//! The line [`crate::rules`] catch per-line smells; the analyses here
//! reason over the [`crate::structure::StructureModel`] of *every*
//! workspace file at once:
//!
//! - [`lock_order`]: the workspace lock-acquisition graph must be
//!   acyclic, and no parking_lot guard may be held across store I/O or
//!   across a condvar park (other than the guard the wait releases);
//! - [`atomic_ordering`]: every `Ordering::Relaxed` in non-test code
//!   must carry a `// sync: <why relaxed is sound>` annotation;
//! - [`counter_overflow`]: merge/fold paths must not use unchecked
//!   `+`/`+=`/`*` on counter- or byte-size-like values.
//!
//! Each analysis accepts the standard allow escape hatch
//! (`// audit: allow(<analysis>) -- reason`); the names in [`ANALYSES`]
//! are known rules to allow hygiene.

pub mod atomic_ordering;
pub mod counter_overflow;
pub mod lock_order;

use crate::rules::Finding;
use crate::scan::FileModel;

/// The structural analyses, with one-line descriptions.
pub const ANALYSES: &[(&str, &str)] = &[
    (
        "lock-order",
        "workspace lock-acquisition graph must be cycle-free and no guard may be held across store I/O or a condvar park",
    ),
    (
        "atomic-ordering",
        "every Ordering::Relaxed in non-test code needs a `// sync: <why>` annotation (or an upgrade)",
    ),
    (
        "counter-overflow",
        "merge/fold paths must use saturating_*/checked_* on counter and byte-size values",
    ),
];

/// Run every analysis over a modelled file set. Findings are
/// unfiltered: allow directives are applied by the caller.
pub fn run(files: &[FileModel]) -> Vec<Finding> {
    let mut findings = lock_order::run(files);
    findings.extend(atomic_ordering::run(files));
    findings.extend(counter_overflow::run(files));
    findings
}
