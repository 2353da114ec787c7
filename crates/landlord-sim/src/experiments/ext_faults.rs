//! Extension experiment — failure rate × retry policy.
//!
//! Not a paper figure: the paper's deployment setting (distributed HTC)
//! implies worker crashes, failed builds, and flaky storage, but the
//! evaluation assumes every build succeeds. This experiment sweeps the
//! per-attempt failure probability against three retry policies and
//! reports goodput (requests actually served), retry overhead (extra
//! attempts, backoff ticks, wasted write bytes), degraded inserts, and
//! both of the paper's efficiencies — showing how LANDLORD's merging
//! behaves when builds can die under it.

use super::{ExperimentContext, Scale};
use crate::faults::FaultConfig;
use crate::report::{fmt_tb, Table};
use crate::simulator::simulate_policy;
use crate::workload;
use landlord_core::cache::ImageCache;
use landlord_core::policy::RetryPolicy;
use landlord_core::sizes::SizeModel;
use std::sync::Arc;

/// α used for the fault runs (the paper's recommended moderate pick).
pub const FAULT_ALPHA: f64 = 0.8;

/// The retry policies compared: none (the paper's implicit setting),
/// one retry, and three retries with capped exponential backoff.
pub fn retry_grid() -> Vec<RetryPolicy> {
    vec![
        RetryPolicy::none(),
        RetryPolicy::new(1, 4, 32),
        RetryPolicy::new(3, 4, 32),
    ]
}

/// Run the failure-rate × retry-policy table.
pub fn run(ctx: &ExperimentContext) -> Table {
    let repo = ctx.repo();
    let stream = workload::generate_stream(&repo, &ctx.standard_workload());
    let sizes: Arc<dyn SizeModel> = Arc::new(repo.size_table());
    let cache = ctx.standard_cache(&repo, FAULT_ALPHA);
    let rates: &[u32] = match ctx.scale {
        Scale::Full => &[0, 10, 50, 100, 200],
        Scale::Smoke => &[0, 50, 200],
    };

    let mut t = Table::new(
        format!("Extension — failure rate x retry policy at alpha={FAULT_ALPHA}"),
        &[
            "fail_pm",
            "retry",
            "goodput_pct",
            "failed",
            "retries",
            "backoff",
            "degraded",
            "wasted_TB",
            "container_eff_pct",
            "cache_eff_pct",
        ],
    );
    for &fail_per_mille in rates {
        for retry in retry_grid() {
            let cfg = FaultConfig {
                fail_per_mille,
                seed: ctx.seed ^ 0xfa,
                retry,
            };
            let mut policy = ImageCache::new(cache, Arc::clone(&sizes));
            let run = simulate_policy(&mut policy, &stream, 0, None, Some(&cfg));
            let f = run.faults.unwrap_or_default();
            t.push_row(vec![
                fail_per_mille.to_string(),
                retry.label(),
                format!("{:.1}", f.goodput_pct()),
                f.failed_requests.to_string(),
                f.retries.to_string(),
                f.backoff_ticks.to_string(),
                f.degraded_inserts.to_string(),
                fmt_tb(f.wasted_bytes as f64),
                format!("{:.1}", run.container_eff_pct),
                format!("{:.1}", run.cache_eff_pct),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_the_grid_and_shapes_hold() {
        let ctx = ExperimentContext::smoke(43);
        let t = run(&ctx);
        assert_eq!(t.rows.len(), 3 * 3);

        let goodput = |row: &[String]| -> f64 { row[2].parse().unwrap() };
        // Zero failure rate: perfect goodput regardless of retries.
        for row in &t.rows[0..3] {
            assert_eq!(goodput(row), 100.0);
            assert_eq!(row[3], "0");
        }
        // At each non-zero rate, more retries never hurt goodput.
        for chunk in t.rows[3..].chunks(3) {
            let none = goodput(&chunk[0]);
            let three = goodput(&chunk[2]);
            assert!(
                three + 1e-9 >= none,
                "retries must not lose goodput: {three} vs {none}"
            );
        }
    }

    #[test]
    fn regenerates_bit_identically_from_the_seed() {
        let a = run(&ExperimentContext::smoke(7));
        let b = run(&ExperimentContext::smoke(7));
        assert_eq!(a.rows, b.rows);
        let c = run(&ExperimentContext::smoke(8));
        assert_ne!(a.rows, c.rows, "different master seed must differ");
    }
}
