//! Helpers shared by the benchmark's tests.

use perfbench::{Report, RunConfig, Scale, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes the work directories of smoke runs in one test binary.
static RUNS: AtomicU64 = AtomicU64::new(0);

/// Run a smoke-sized invocation of `workload` in a work directory of its
/// own, removed afterwards.
pub fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-tests-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed) // sync: unique-name counter only
    ));
    let cfg = RunConfig {
        workload,
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::Smoke,
        work_dir: work_dir.clone(),
    };
    let report = perfbench::run(&cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    report.unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()))
}
