//! Parameter sweeps with repeated runs and median aggregation.
//!
//! Every sweep figure in the paper follows the same recipe: "At each
//! choice of α (in steps of 0.05) we performed a set of 20 simulated
//! runs", reporting medians because "there is noticeable variability
//! between individual simulations". Runs are independent, so they fan
//! out across worker threads (crossbeam scoped threads over a shared
//! atomic work queue); the repository is generated once and shared.

use crate::simulator::{simulate, RunResult};
use crate::workload::WorkloadConfig;
use landlord_core::cache::CacheConfig;
use landlord_repo::stats::median_f64;
use landlord_repo::Repository;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Median-aggregated metrics of one sweep point.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AggregatedRun {
    /// Hits (median across runs).
    pub hits: f64,
    /// Inserts (median).
    pub inserts: f64,
    /// Deletes (median).
    pub deletes: f64,
    /// Merges (median).
    pub merges: f64,
    /// Final unique cached bytes (median).
    pub unique_bytes: f64,
    /// Final total cached bytes (median).
    pub total_bytes: f64,
    /// Cumulative actual writes (median).
    pub bytes_written: f64,
    /// Cumulative requested writes (median).
    pub bytes_requested: f64,
    /// Cache efficiency %, median.
    pub cache_eff_pct: f64,
    /// Container efficiency %, median.
    pub container_eff_pct: f64,
}

impl AggregatedRun {
    /// Median-aggregate a set of run results.
    pub fn from_runs(runs: &[RunResult]) -> AggregatedRun {
        fn med(runs: &[RunResult], f: impl Fn(&RunResult) -> f64) -> f64 {
            let mut v: Vec<f64> = runs.iter().map(f).collect();
            median_f64(&mut v)
        }
        AggregatedRun {
            hits: med(runs, |r| r.final_stats.hits as f64),
            inserts: med(runs, |r| r.final_stats.inserts as f64),
            deletes: med(runs, |r| r.final_stats.deletes as f64),
            merges: med(runs, |r| r.final_stats.merges as f64),
            unique_bytes: med(runs, |r| r.final_stats.unique_bytes as f64),
            total_bytes: med(runs, |r| r.final_stats.total_bytes as f64),
            bytes_written: med(runs, |r| r.final_stats.bytes_written as f64),
            bytes_requested: med(runs, |r| r.final_stats.bytes_requested as f64),
            cache_eff_pct: med(runs, |r| r.cache_eff_pct),
            container_eff_pct: med(runs, |r| r.container_eff_pct),
        }
    }
}

/// One α point of a sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The α this point was simulated at.
    pub alpha: f64,
    /// Median metrics over the runs.
    pub median: AggregatedRun,
}

/// The α grid the paper sweeps: 0.40 to 1.00 in steps of 0.05.
pub fn paper_alpha_grid() -> Vec<f64> {
    (8..=20).map(|i| i as f64 * 0.05).collect()
}

/// Sweep α over a fixed workload shape and cache configuration.
///
/// Each (α, run) pair gets workload seed `workload.seed + run`, so run
/// `k` sees the *same* stream at every α — variance between α points
/// comes from the policy, not the workload.
pub fn sweep_alpha(
    repo: &Repository,
    workload: &WorkloadConfig,
    cache_config: &CacheConfig,
    alphas: &[f64],
    runs: usize,
    threads: usize,
) -> Vec<SweepPoint> {
    assert!(runs > 0, "need at least one run per point");
    let jobs: Vec<(usize, f64, u64)> = alphas
        .iter()
        .enumerate()
        .flat_map(|(ai, &alpha)| (0..runs).map(move |run| (ai, alpha, run as u64)))
        .collect();

    let results = run_parallel(repo, &jobs, threads, |alpha, run_seed| {
        let w = WorkloadConfig {
            seed: workload.seed + run_seed,
            ..*workload
        };
        let cfg = CacheConfig {
            alpha,
            ..*cache_config
        };
        simulate(repo, &w, cfg, 0)
    });

    // Group by α index and aggregate.
    let mut grouped: Vec<Vec<RunResult>> = (0..alphas.len()).map(|_| Vec::new()).collect();
    for ((ai, _, _), result) in jobs.iter().zip(results) {
        grouped[*ai].push(result);
    }
    alphas
        .iter()
        .zip(grouped)
        .map(|(&alpha, runs)| SweepPoint {
            alpha,
            median: AggregatedRun::from_runs(&runs),
        })
        .collect()
}

/// Fan `jobs` out over `threads` workers; results in job order.
fn run_parallel<F>(
    _repo: &Repository,
    jobs: &[(usize, f64, u64)],
    threads: usize,
    work: F,
) -> Vec<RunResult>
where
    F: Fn(f64, u64) -> RunResult + Sync,
{
    let threads = threads.max(1).min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<parking_lot_free::Slot> = (0..jobs.len())
        .map(|_| parking_lot_free::Slot::new())
        .collect();

    let scope_result = crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed); // sync: job-claim ticket; fetch_add's atomicity alone partitions the work, results publish via Slot
                if i >= jobs.len() {
                    break;
                }
                let (_, alpha, run_seed) = jobs[i];
                results[i].set(work(alpha, run_seed));
            });
        }
    });
    debug_assert!(scope_result.is_ok(), "sweep worker panicked");

    // A slot is only ever empty if its worker died mid-sweep; recompute
    // those jobs inline so the output stays aligned with `jobs`.
    results
        .into_iter()
        .zip(jobs)
        .map(|(slot, &(_, alpha, run_seed))| match slot.take() {
            Some(result) => result,
            None => work(alpha, run_seed),
        })
        .collect()
}

/// A tiny write-once cell usable from scoped threads without locks on
/// the read side (each slot is written by exactly one worker).
mod parking_lot_free {
    use crate::simulator::RunResult;
    use std::sync::{Mutex, PoisonError};

    pub struct Slot(Mutex<Option<RunResult>>);

    impl Slot {
        pub fn new() -> Self {
            Slot(Mutex::new(None))
        }

        pub fn set(&self, value: RunResult) {
            // A poisoned slot only means another worker died; the value
            // we are writing is still sound.
            let mut guard = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            debug_assert!(guard.is_none(), "slot written twice");
            *guard = Some(value);
        }

        /// The stored result, or `None` when the owning worker never
        /// completed its write.
        pub fn take(self) -> Option<RunResult> {
            self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadScheme;
    use landlord_repo::RepoConfig;

    fn repo() -> Repository {
        Repository::generate(&RepoConfig::small_for_tests(41))
    }

    fn workload() -> WorkloadConfig {
        WorkloadConfig {
            unique_jobs: 20,
            repeats: 3,
            max_initial_selection: 6,
            scheme: WorkloadScheme::DependencyClosure,
            seed: 9,
        }
    }

    #[test]
    fn paper_grid_shape() {
        let grid = paper_alpha_grid();
        assert_eq!(grid.len(), 13);
        assert!((grid[0] - 0.40).abs() < 1e-12);
        assert!((grid[12] - 1.00).abs() < 1e-12);
    }

    #[test]
    fn sweep_covers_all_alphas_in_order() {
        let r = repo();
        let cfg = CacheConfig {
            limit_bytes: r.total_bytes(),
            ..CacheConfig::default()
        };
        let points = sweep_alpha(&r, &workload(), &cfg, &[0.0, 0.5, 1.0], 3, 2);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].alpha, 0.0);
        assert_eq!(points[2].alpha, 1.0);
        // α = 0 never merges; α = 1 merges plenty on this workload.
        assert_eq!(points[0].median.merges, 0.0);
        assert!(points[2].median.merges > 0.0);
    }

    #[test]
    fn parallel_equals_sequential() {
        let r = repo();
        let cfg = CacheConfig {
            limit_bytes: r.total_bytes(),
            ..CacheConfig::default()
        };
        let seq = sweep_alpha(&r, &workload(), &cfg, &[0.4, 0.8], 4, 1);
        let par = sweep_alpha(&r, &workload(), &cfg, &[0.4, 0.8], 4, 4);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.median.hits.to_bits(), b.median.hits.to_bits());
            assert_eq!(
                a.median.bytes_written.to_bits(),
                b.median.bytes_written.to_bits()
            );
            assert_eq!(
                a.median.cache_eff_pct.to_bits(),
                b.median.cache_eff_pct.to_bits()
            );
        }
    }

    #[test]
    fn requested_bytes_constant_across_alpha() {
        // The paper's Fig. 4c anchor: "Requested Writes … is on average
        // constant since the same procedure was used to generate all
        // simulated job requirements." With per-run fixed seeds it is
        // *exactly* constant here.
        let r = repo();
        let cfg = CacheConfig {
            limit_bytes: r.total_bytes(),
            ..CacheConfig::default()
        };
        let points = sweep_alpha(&r, &workload(), &cfg, &[0.4, 0.7, 1.0], 3, 2);
        let req: Vec<u64> = points
            .iter()
            .map(|p| p.median.bytes_requested as u64)
            .collect();
        assert!(req.windows(2).all(|w| w[0] == w[1]), "{req:?}");
    }

    #[test]
    fn aggregate_medians() {
        use landlord_core::cache::CacheStats;
        let mk = |hits: u64| RunResult {
            final_stats: CacheStats {
                hits,
                ..Default::default()
            },
            container_eff_pct: hits as f64,
            cache_eff_pct: 50.0,
            series: Vec::new(),
            faults: None,
        };
        let agg = AggregatedRun::from_runs(&[mk(1), mk(9), mk(5)]);
        assert_eq!(agg.hits, 5.0);
        assert_eq!(agg.container_eff_pct, 5.0);
        assert_eq!(agg.cache_eff_pct, 50.0);
    }
}
