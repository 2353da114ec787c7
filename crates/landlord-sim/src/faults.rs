//! Seeded per-request failure events with retry, backoff, and graceful
//! degradation — the end-to-end failure model the paper's deployment
//! setting implies but never simulates.
//!
//! In distributed HTC, serving a request is not free of risk: the
//! worker building an image can crash, the build itself can fail, and
//! the shared store can throw transient errors. Given a [`FaultConfig`],
//! [`crate::simulator::simulate_policy`] serves each request through
//! this module: every *build* (merge or insert — hits touch no storage
//! and never fail) draws a failure from a seeded [`FaultPlan`]. A
//! failed build is retried under a [`RetryPolicy`] with exponential
//! backoff in simulated ticks; a merge whose retry budget is exhausted
//! *degrades* to a fresh per-job insert (with a fresh budget) instead
//! of failing the request — the job still launches, at the price of
//! duplication. Only when the degraded path also exhausts its budget is
//! the request counted as failed (goodput loss).
//!
//! Everything is a pure function of the explicit seeds, so fault sweeps
//! regenerate bit-identically.

use landlord_core::policy::{BuildPlan, CachePolicy, RetryPolicy};
use landlord_core::spec::Spec;
use serde::{Deserialize, Serialize};

/// What went wrong with one build attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The worker node running the build died mid-build.
    WorkerCrash,
    /// The image build itself failed (bad layer, tool error).
    BuildFailure,
    /// The shared object store returned a transient I/O error.
    TransientStoreError,
}

/// Deterministic per-attempt failure events derived from a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Explicit seed; identical seeds reproduce identical fault
    /// sequences.
    pub seed: u64,
    /// Per-attempt failure probability in thousandths (0..=1000).
    pub fail_per_mille: u32,
}

/// SplitMix64 finalizer (same construction as the store's fault layer).
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// A plan that never fires.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            fail_per_mille: 0,
        }
    }

    /// Build a plan from a failure probability in `[0, 1]`.
    pub fn from_rate(seed: u64, rate: f64) -> Self {
        let clamped = rate.clamp(0.0, 1.0);
        FaultPlan {
            seed,
            fail_per_mille: (clamped * 1000.0).round() as u32,
        }
    }

    /// Decide whether attempt `attempt` of request `request` fails, and
    /// how. Pure in `(self, request, attempt)`.
    pub fn draw(&self, request: u64, attempt: u32) -> Option<FaultKind> {
        if self.fail_per_mille == 0 {
            return None;
        }
        let h = mix(self.seed
            ^ mix(request.wrapping_mul(0x2545_f491_4f6c_dd1d))
            ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if h % 1000 >= u64::from(self.fail_per_mille) {
            return None;
        }
        Some(match (h >> 32) % 3 {
            0 => FaultKind::WorkerCrash,
            1 => FaultKind::BuildFailure,
            _ => FaultKind::TransientStoreError,
        })
    }
}

/// Failure-model knobs for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-attempt failure probability in thousandths.
    pub fail_per_mille: u32,
    /// Seed for the fault plan.
    pub seed: u64,
    /// Retry/backoff policy applied to failed builds.
    pub retry: RetryPolicy,
}

impl FaultConfig {
    /// No faults, no retries — degenerates to the plain simulator.
    pub fn none() -> Self {
        FaultConfig {
            fail_per_mille: 0,
            seed: 0,
            retry: RetryPolicy::none(),
        }
    }
}

/// Failure-model counters accumulated over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Requests submitted (served + failed).
    pub requests: u64,
    /// Requests that exhausted every retry and the degraded path.
    pub failed_requests: u64,
    /// Injected failure events, total.
    pub faults: u64,
    /// ... of which worker crashes.
    pub worker_crashes: u64,
    /// ... of which build failures.
    pub build_failures: u64,
    /// ... of which transient store errors.
    pub store_errors: u64,
    /// Re-attempts scheduled by the retry policy.
    pub retries: u64,
    /// Simulated ticks spent waiting in backoff.
    pub backoff_ticks: u64,
    /// Bytes written by attempts that failed (retry write overhead).
    pub wasted_bytes: u64,
    /// Merge builds that fell back to a fresh per-job insert.
    pub degraded_inserts: u64,
    /// Served requests whose raw container-efficiency ratio exceeded
    /// 100% and was clamped (a degraded path served a request from a
    /// smaller image than it asked for; release builds used to report
    /// >100% silently).
    #[serde(default)]
    pub efficiency_clamps: u64,
}

impl FaultStats {
    /// Fraction of requests actually served, percent.
    pub fn goodput_pct(&self) -> f64 {
        if self.requests == 0 {
            return 100.0;
        }
        100.0 * (self.requests - self.failed_requests) as f64 / self.requests as f64
    }

    fn record_kind(&mut self, kind: FaultKind) {
        self.faults += 1;
        match kind {
            FaultKind::WorkerCrash => self.worker_crashes += 1,
            FaultKind::BuildFailure => self.build_failures += 1,
            FaultKind::TransientStoreError => self.store_errors += 1,
        }
    }

    /// Export every counter into `registry` under the `faults.*`
    /// prefix, so a metrics snapshot taken after a faulted run carries
    /// the failure model's retries, degradations, and clamp counts
    /// alongside the cache metrics. Additive: safe to call once per
    /// run on a shared registry (counters fold by sum).
    pub fn record_metrics(&self, registry: &landlord_obs::MetricsRegistry) {
        registry.counter("faults.requests").add(self.requests);
        registry
            .counter("faults.failed_requests")
            .add(self.failed_requests);
        registry.counter("faults.injected").add(self.faults);
        registry
            .counter("faults.worker_crashes")
            .add(self.worker_crashes);
        registry
            .counter("faults.build_failures")
            .add(self.build_failures);
        registry
            .counter("faults.store_errors")
            .add(self.store_errors);
        registry.counter("faults.retries").add(self.retries);
        registry
            .counter("faults.backoff_ticks")
            .add(self.backoff_ticks);
        registry
            .counter("faults.wasted_bytes")
            .add(self.wasted_bytes);
        registry
            .counter("faults.degraded_inserts")
            .add(self.degraded_inserts);
        registry
            .counter("faults.efficiency_clamps")
            .add(self.efficiency_clamps);
    }
}

/// Serve request `request` (its index in the stream) under the failure
/// model — the per-request step [`crate::simulator::simulate_policy`]
/// takes when given a [`FaultConfig`].
///
/// The request is planned exactly once ([`CachePolicy::plan_build`] on
/// the settled policy); that plan both prices the failed attempts and,
/// via [`CachePolicy::apply_build`], serves the successful one, so the
/// decision is never re-derived between the fault draws and the
/// mutation. Only a [`BuildPlan::Rewrite`] (a shared-image rewrite) may
/// degrade to a fresh per-job insert.
pub(crate) fn serve_faulted(
    policy: &mut dyn CachePolicy,
    spec: &Spec,
    request: u64,
    config: &FaultConfig,
    stats: &mut FaultStats,
) {
    stats.requests += 1;
    policy.settle();
    let planned = policy.plan_build(spec);
    if matches!(planned.build, BuildPlan::Hit) {
        // Hits touch no storage: immune to build faults.
        policy.apply_build(spec, &planned);
        return;
    }
    let plan = FaultPlan {
        seed: config.seed,
        fail_per_mille: config.fail_per_mille,
    };
    // The build loop: `draws` indexes fault decisions (monotone per
    // request, so degraded attempts roll fresh), `budget` tracks the
    // retries left for the current build target.
    let mut draws = 0u32;
    let mut budget = config.retry.max_retries;
    let mut degraded = false;
    loop {
        match plan.draw(request, draws) {
            None => {
                if degraded {
                    policy.insert_fresh(spec);
                } else {
                    policy.apply_build(spec, &planned);
                }
                return;
            }
            Some(kind) => {
                stats.record_kind(kind);
                // Failed attempts never mutate the policy, so the
                // attempt price is fixed by the plan for the whole loop.
                stats.wasted_bytes += if degraded {
                    policy.spec_bytes(spec)
                } else {
                    planned.build.cost()
                };
                if budget > 0 {
                    let retry_index = config.retry.max_retries - budget + 1;
                    budget -= 1;
                    stats.retries += 1;
                    stats.backoff_ticks += config.retry.backoff_before(retry_index);
                } else if !degraded && matches!(planned.build, BuildPlan::Rewrite { .. }) {
                    // Graceful degradation: stop rewriting the shared
                    // image, build a minimal per-job one.
                    degraded = true;
                    stats.degraded_inserts += 1;
                    budget = config.retry.max_retries;
                } else {
                    stats.failed_requests += 1;
                    return;
                }
            }
        }
        draws += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{self, simulate_policy, PolicyReport, RunResult, SimObs};
    use crate::workload::{self, WorkloadConfig, WorkloadScheme};
    use landlord_core::cache::{CacheConfig, ImageCache};
    use landlord_core::sizes::SizeModel;
    use landlord_repo::{RepoConfig, Repository};
    use std::sync::Arc;

    fn repo() -> Repository {
        Repository::generate(&RepoConfig::small_for_tests(31))
    }

    fn workload() -> WorkloadConfig {
        WorkloadConfig {
            unique_jobs: 30,
            repeats: 3,
            max_initial_selection: 8,
            scheme: WorkloadScheme::DependencyClosure,
            seed: 2,
        }
    }

    fn cache_cfg(repo: &Repository) -> CacheConfig {
        CacheConfig {
            alpha: 0.8,
            limit_bytes: repo.total_bytes(),
            ..CacheConfig::default()
        }
    }

    fn faults(per_mille: u32, retry: RetryPolicy) -> FaultConfig {
        FaultConfig {
            fail_per_mille: per_mille,
            seed: 99,
            retry,
        }
    }

    /// Drive `w` through a fresh LANDLORD cache under `config`.
    fn run_faulted(
        r: &Repository,
        w: &WorkloadConfig,
        cache: CacheConfig,
        config: &FaultConfig,
    ) -> (RunResult, FaultStats) {
        let stream = workload::generate_stream(r, w);
        let mut policy = ImageCache::new(cache, Arc::new(r.size_table()));
        let run = simulate_policy(&mut policy, &stream, 0, None, Some(config));
        policy.check_invariants();
        let stats = run.faults.expect("a faulted run reports fault stats");
        (run, stats)
    }

    #[test]
    fn fault_stats_export_as_counters() {
        use landlord_obs::{LogicalClock, MetricsRegistry};

        let r = repo();
        let w = workload();
        let cfg = faults(250, RetryPolicy::new(2, 1, 8));
        let (_, f) = run_faulted(&r, &w, cache_cfg(&r), &cfg);
        assert!(f.faults > 0, "fault rate 25% must inject");

        let registry = MetricsRegistry::new(Arc::new(LogicalClock::new()));
        f.record_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["faults.requests"], f.requests);
        assert_eq!(snap.counters["faults.injected"], f.faults);
        assert_eq!(snap.counters["faults.retries"], f.retries);
        assert_eq!(snap.counters["faults.degraded_inserts"], f.degraded_inserts);
        assert_eq!(
            snap.counters["faults.worker_crashes"]
                + snap.counters["faults.build_failures"]
                + snap.counters["faults.store_errors"],
            f.faults,
            "fault kinds partition the injected total"
        );
    }

    #[test]
    fn zero_rate_matches_plain_simulator() {
        let r = repo();
        let w = workload();
        let plain = simulator::simulate(&r, &w, cache_cfg(&r), 0);
        let (faulty, f) = run_faulted(&r, &w, cache_cfg(&r), &FaultConfig::none());
        assert_eq!(faulty.final_stats, plain.final_stats);
        assert_eq!(faulty.container_eff_pct, plain.container_eff_pct);
        assert_eq!(f.goodput_pct(), 100.0);
        assert_eq!(
            f,
            FaultStats {
                requests: 90,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn deterministic_in_the_seeds() {
        let r = repo();
        let w = workload();
        let cfg = faults(200, RetryPolicy::new(2, 1, 8));
        let (run_a, a) = run_faulted(&r, &w, cache_cfg(&r), &cfg);
        let (run_b, b) = run_faulted(&r, &w, cache_cfg(&r), &cfg);
        assert_eq!(a, b);
        assert_eq!(run_a.final_stats, run_b.final_stats);

        let other = FaultConfig { seed: 100, ..cfg };
        let (_, c) = run_faulted(&r, &w, cache_cfg(&r), &other);
        assert_ne!(a, c, "different fault seed must differ");
    }

    #[test]
    fn total_failure_without_retries_serves_nothing() {
        let r = repo();
        let (run, f) = run_faulted(
            &r,
            &workload(),
            cache_cfg(&r),
            &faults(1000, RetryPolicy::none()),
        );
        // Every build fails, degraded or not; no image is ever created,
        // so nothing can hit either.
        assert_eq!(f.failed_requests, f.requests);
        assert_eq!(f.goodput_pct(), 0.0);
        assert_eq!(run.final_stats.requests, 0);
        assert_eq!(run.final_stats.image_count, 0);
    }

    #[test]
    fn retries_preserve_goodput_at_a_write_cost() {
        let r = repo();
        let w = workload();
        let (_, none) = run_faulted(&r, &w, cache_cfg(&r), &faults(300, RetryPolicy::none()));
        let (_, some) = run_faulted(
            &r,
            &w,
            cache_cfg(&r),
            &faults(300, RetryPolicy::new(3, 1, 8)),
        );
        assert!(
            some.goodput_pct() > none.goodput_pct(),
            "retries must recover goodput: {} vs {}",
            some.goodput_pct(),
            none.goodput_pct()
        );
        assert!(some.retries > 0);
        assert!(some.backoff_ticks > 0);
        assert!(
            some.wasted_bytes > 0,
            "failed attempts must cost wasted I/O"
        );
    }

    #[test]
    fn accounting_adds_up() {
        let r = repo();
        let w = workload();
        let (run, f) = run_faulted(
            &r,
            &w,
            cache_cfg(&r),
            &faults(400, RetryPolicy::new(1, 2, 4)),
        );
        assert_eq!(f.requests as usize, w.total_requests());
        assert_eq!(
            f.faults,
            f.worker_crashes + f.build_failures + f.store_errors
        );
        assert_eq!(
            run.final_stats.requests,
            f.requests - f.failed_requests,
            "cache counters cover exactly the served requests"
        );
        assert!(f.faults >= f.failed_requests);
    }

    #[test]
    fn merge_failures_degrade_to_fresh_inserts() {
        let r = repo();
        let w = WorkloadConfig {
            unique_jobs: 40,
            repeats: 2,
            ..workload()
        };
        // High rate without retries: first-attempt merge failures go
        // straight to the degraded path.
        let (_, f) = run_faulted(&r, &w, cache_cfg(&r), &faults(500, RetryPolicy::none()));
        assert!(f.degraded_inserts > 0, "failing merges must degrade");
        // Degradation keeps goodput above the no-degradation floor:
        // some requests that lost their merge still launched.
        assert!(f.goodput_pct() > 0.0);
    }

    #[test]
    fn faulted_run_plans_each_request_once() {
        // Reports of the former driver, which planned every request
        // twice (once to price it, once more to serve it), pinned at
        // three (seed, rate, retries) points. Planning once must keep
        // every counter.
        const EXPECTED: [(u64, u32, u32, &str); 3] = [
            (
                99,
                250,
                2,
                r#"{"policy":"landlord","final_stats":{"requests":90,"hits":18,"merges":61,"inserts":11,"deletes":10,"splits":0,"bytes_written":25012931854,"bytes_requested":14882722161,"total_bytes":130293855,"unique_bytes":130293855,"image_count":1},"container_eff_milli":54191,"cache_eff_milli":100000,"faults":{"requests":90,"failed_requests":0,"faults":23,"worker_crashes":8,"build_failures":9,"store_errors":6,"retries":22,"backoff_ticks":28,"wasted_bytes":8691897936,"degraded_inserts":1,"efficiency_clamps":0}}"#,
            ),
            (
                7,
                400,
                1,
                r#"{"policy":"landlord","final_stats":{"requests":84,"hits":16,"merges":53,"inserts":15,"deletes":13,"splits":0,"bytes_written":22070109453,"bytes_requested":13937243243,"total_bytes":459821219,"unique_bytes":361037250,"image_count":2},"container_eff_milli":56917,"cache_eff_milli":78517,"faults":{"requests":90,"failed_requests":6,"faults":53,"worker_crashes":17,"build_failures":20,"store_errors":16,"retries":34,"backoff_ticks":34,"wasted_bytes":15474368537,"degraded_inserts":13,"efficiency_clamps":0}}"#,
            ),
            (
                3,
                600,
                0,
                r#"{"policy":"landlord","final_stats":{"requests":65,"hits":10,"merges":29,"inserts":26,"deletes":24,"splits":0,"bytes_written":12606198291,"bytes_requested":10689153496,"total_bytes":374282748,"unique_bytes":286733699,"image_count":2},"container_eff_milli":76922,"cache_eff_milli":76609,"faults":{"requests":90,"failed_requests":25,"faults":73,"worker_crashes":24,"build_failures":27,"store_errors":22,"retries":0,"backoff_ticks":0,"wasted_bytes":17230802298,"degraded_inserts":48,"efficiency_clamps":0}}"#,
            ),
        ];
        let r = repo();
        let stream = workload::generate_stream(&r, &workload());
        for (seed, fail_per_mille, retries, expected) in EXPECTED {
            let config = FaultConfig {
                fail_per_mille,
                seed,
                retry: RetryPolicy::new(retries, 1, 8),
            };
            let cache = CacheConfig {
                limit_bytes: r.total_bytes() / 2,
                ..cache_cfg(&r)
            };
            let sizes: Arc<dyn SizeModel> = Arc::new(r.size_table());
            let mut policy = ImageCache::new(cache, sizes);
            let obs = SimObs::deterministic();
            let run = simulate_policy(&mut policy, &stream, 0, Some(&obs), Some(&config));
            policy.check_invariants();
            let f = run.faults.expect("a faulted run reports fault stats");
            let snap = obs.registry.snapshot();
            assert_eq!(snap.histograms["core.plan_ticks"].count, f.requests);
            assert_eq!(
                snap.histograms["core.apply_ticks"].count,
                f.requests - f.failed_requests
            );
            let report = serde_json::to_string(&PolicyReport::from_run("landlord", &run)).unwrap();
            assert_eq!(report, expected, "seed {seed}, {fail_per_mille}/1000");
        }
    }

    #[test]
    fn degraded_serving_clamps_efficiency_and_counts_it() {
        use landlord_core::cache::{CacheStats, Ledger};
        use landlord_core::metrics::ContainerEfficiency;
        use landlord_core::policy::{PlannedBuild, Served};

        /// Test double: a policy whose degraded path launches jobs from
        /// an image *half* the requested size — the exact shape that
        /// made `container_efficiency_pct` exceed 100% silently in
        /// release builds before the clamp.
        struct UndersizedDegrade {
            ledger: Ledger,
        }
        impl CachePolicy for UndersizedDegrade {
            fn name(&self) -> &'static str {
                "undersized-degrade"
            }
            fn request(&mut self, spec: &Spec) -> Served {
                let bytes = self.spec_bytes(spec);
                self.ledger.begin_request(bytes);
                self.ledger.count_insert();
                self.ledger.serve(bytes, bytes);
                Served {
                    op: landlord_core::policy::ServedOp::Inserted,
                    image: 0,
                    image_bytes: bytes,
                    revision: 0,
                }
            }
            fn insert_fresh(&mut self, spec: &Spec) -> Served {
                let bytes = self.spec_bytes(spec);
                self.ledger.begin_request(bytes);
                self.ledger.count_insert();
                // The degraded image is smaller than the request.
                self.ledger.serve(bytes, bytes / 2);
                Served {
                    op: landlord_core::policy::ServedOp::Inserted,
                    image: 0,
                    image_bytes: bytes / 2,
                    revision: 0,
                }
            }
            fn plan_build(&self, spec: &Spec) -> PlannedBuild {
                BuildPlan::Rewrite {
                    bytes: self.spec_bytes(spec),
                }
                .into()
            }
            fn spec_bytes(&self, spec: &Spec) -> u64 {
                spec.len() as u64 * 10
            }
            fn stats(&self) -> CacheStats {
                self.ledger.stats()
            }
            fn container_efficiency_pct(&self) -> f64 {
                self.ledger.container_efficiency_pct()
            }
            fn container_eff(&self) -> ContainerEfficiency {
                self.ledger.container_eff()
            }
            fn len(&self) -> usize {
                0
            }
            fn limit_bytes(&self) -> u64 {
                u64::MAX
            }
            fn check_invariants(&self) {}
        }

        let r = repo();
        let stream = workload::generate_stream(&r, &workload());
        // Every first attempt fails, no retries: every build degrades
        // to the undersized fresh insert, whose second draw succeeds
        // often enough to serve plenty of requests.
        let cfg = faults(600, RetryPolicy::none());
        let mut policy = UndersizedDegrade {
            ledger: Ledger::new(),
        };
        let run = simulate_policy(&mut policy, &stream, 0, None, Some(&cfg));
        let f = run.faults.expect("a faulted run reports fault stats");
        assert!(f.degraded_inserts > 0, "no degradation driven");
        assert!(
            f.efficiency_clamps > 0,
            "undersized degraded serves must be counted as clamps"
        );
        assert!(
            run.container_eff_pct <= 100.0,
            "container efficiency leaked past 100%: {}",
            run.container_eff_pct
        );
        // The clamp counter survives the report serialization path.
        let json = serde_json::to_string(&f).expect("serialize");
        let back: FaultStats = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, f);
    }

    #[test]
    fn fault_plan_is_pure_and_seed_sensitive() {
        let p = FaultPlan::from_rate(7, 0.5);
        assert_eq!(p.fail_per_mille, 500);
        for req in 0..20u64 {
            for attempt in 0..4u32 {
                assert_eq!(p.draw(req, attempt), p.draw(req, attempt));
            }
        }
        let q = FaultPlan { seed: 8, ..p };
        let pa: Vec<_> = (0..200u64).map(|r| p.draw(r, 0)).collect();
        let qa: Vec<_> = (0..200u64).map(|r| q.draw(r, 0)).collect();
        assert_ne!(pa, qa);
        assert!(FaultPlan::none().draw(3, 1).is_none());
        assert!(FaultPlan::from_rate(1, 1.0).draw(3, 1).is_some());
    }
}
