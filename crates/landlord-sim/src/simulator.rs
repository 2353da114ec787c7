//! Driving a request stream through a cache policy.
//!
//! One simulation = one [`CachePolicy`] (LANDLORD's [`ImageCache`] or
//! any baseline) processing one job stream, with counter snapshots
//! sampled along the way (Fig. 5's time series) and a summary at the
//! end (one data point of every sweep figure). [`simulate_policy`] is
//! the single driving loop, with or without the failure model; the
//! `ImageCache`-typed entry points delegate to it.

use crate::faults::{serve_faulted, FaultConfig, FaultStats};
use crate::workload::{self, WorkloadConfig};
use landlord_baselines::{DedupStore, FullRepoStrategy, LayerChain, PerJobCache};
use landlord_core::cache::{CacheConfig, CacheStats, ImageCache};
use landlord_core::conflict::ConflictPolicy;
use landlord_core::policy::CachePolicy;
use landlord_core::sizes::SizeModel;
use landlord_core::spec::Spec;
use landlord_obs::{LogicalClock, MetricsRegistry};
use landlord_repo::Repository;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One sampled point of a simulation's time series.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Requests processed when the sample was taken (1-based).
    pub request_index: usize,
    /// Counter snapshot.
    pub stats: CacheStats,
    /// Mean container efficiency so far, percent.
    pub container_eff_pct: f64,
}

/// Result of one complete simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Final counters.
    pub final_stats: CacheStats,
    /// Mean container efficiency over all requests, percent.
    pub container_eff_pct: f64,
    /// Cache efficiency at the end, percent.
    pub cache_eff_pct: f64,
    /// Sampled time series (empty when `sample_every == 0`).
    pub series: Vec<SeriesPoint>,
    /// Failure-model counters when the run injected faults (`None`
    /// for fault-free runs; counters above cover served requests only).
    #[serde(default)]
    pub faults: Option<FaultStats>,
}

/// Run one prepared stream through a cache built from `cache_config`.
///
/// `sample_every` > 0 records a [`SeriesPoint`] after every that many
/// requests (and always after the last).
pub fn simulate_stream(
    stream: &[Spec],
    cache_config: CacheConfig,
    sizes: Arc<dyn landlord_core::sizes::SizeModel>,
    conflicts: Option<Arc<dyn ConflictPolicy>>,
    sample_every: usize,
) -> RunResult {
    let mut cache = match conflicts {
        Some(c) => ImageCache::with_conflicts(cache_config, sizes, c),
        None => ImageCache::new(cache_config, sizes),
    };
    simulate_policy(&mut cache, stream, sample_every, None, None)
}

/// The observability harness for one simulation run: a registry the
/// policy records into, plus the logical clock the driver advances
/// once per request so span histograms measure *requests*, not wall
/// time.
pub struct SimObs {
    /// The registry to attach to the policy and export afterwards.
    pub registry: Arc<MetricsRegistry>,
    /// The logical clock driving the registry.
    pub tick: Arc<LogicalClock>,
}

impl SimObs {
    /// A registry on a logical clock, ticked once per request by
    /// [`simulate_policy`]: every metric — including span
    /// histograms — is a pure function of the request stream, so the
    /// exported snapshot is byte-identical across runs at a fixed
    /// seed.
    pub fn deterministic() -> Self {
        let clock = Arc::new(LogicalClock::new());
        SimObs {
            registry: Arc::new(MetricsRegistry::new(Arc::clone(&clock) as _)),
            tick: clock,
        }
    }
}

/// Run one prepared stream through *any* policy — the one driving loop
/// behind every single-threaded simulation entry point.
///
/// `obs` attaches its registry to the policy up front and advances its
/// logical clock once per request. `faults` serves each request under
/// the failure model ([`crate::faults`]): planned once, priced, retried
/// or degraded, and its counters come back in [`RunResult::faults`]
/// (and, with `obs`, as `faults.*` counters). Without `faults` every
/// request goes straight to [`CachePolicy::request`].
pub fn simulate_policy(
    policy: &mut dyn CachePolicy,
    stream: &[Spec],
    sample_every: usize,
    obs: Option<&SimObs>,
    faults: Option<&FaultConfig>,
) -> RunResult {
    if let Some(o) = obs {
        policy.attach_metrics(&o.registry);
    }
    let mut faulted = faults.map(|config| (config, FaultStats::default()));
    let mut series = Vec::new();
    for (i, spec) in stream.iter().enumerate() {
        if let Some(o) = obs {
            o.tick.tick();
        }
        match &mut faulted {
            Some((config, stats)) => serve_faulted(policy, spec, i as u64, config, stats),
            None => {
                policy.request(spec);
            }
        }
        let done = i + 1 == stream.len();
        if sample_every > 0 && ((i + 1) % sample_every == 0 || done) {
            series.push(SeriesPoint {
                request_index: i + 1,
                stats: policy.stats(),
                container_eff_pct: policy.container_efficiency_pct(),
            });
        }
    }
    let faults = faulted.map(|(_, mut stats)| {
        stats.efficiency_clamps = policy.container_eff().clamped_samples();
        if let Some(o) = obs {
            stats.record_metrics(&o.registry);
        }
        stats
    });
    RunResult {
        final_stats: policy.stats(),
        container_eff_pct: policy.container_efficiency_pct(),
        cache_eff_pct: policy.cache_efficiency_pct(),
        series,
        faults,
    }
}

/// CLI/report tokens accepted by [`make_policy`].
pub const POLICY_TOKENS: &[&str] = &["landlord", "per-job", "full-repo", "layered", "block-dedup"];

/// Construct a policy by token. `cache_config` shapes LANDLORD (and
/// supplies the byte limit for per-job); `repo_bytes` sizes the
/// full-repo image. Returns `None` for an unknown token.
pub fn make_policy(
    name: &str,
    cache_config: CacheConfig,
    sizes: Arc<dyn SizeModel>,
    repo_bytes: u64,
) -> Option<Box<dyn CachePolicy>> {
    Some(match name {
        "landlord" => Box::new(ImageCache::new(cache_config, sizes)),
        "per-job" => Box::new(PerJobCache::new(cache_config.limit_bytes, sizes)),
        "full-repo" => Box::new(FullRepoStrategy::new(sizes, repo_bytes)),
        "layered" => Box::new(LayerChain::new(sizes)),
        "block-dedup" => Box::new(DedupStore::new(sizes)),
        _ => return None,
    })
}

/// Pin a percentage to integer milli-percent (60957 ⇒ 60.957%) —
/// the one fixed-precision rounding used everywhere a report is
/// serialized. Golden report JSON compares byte-for-byte, so every
/// serialized metric must pass through this helper rather than ad-hoc
/// float formatting that could drift across platforms or formatting
/// changes. Round-half-up via `f64::round`; inputs are percentages in
/// `[0, 100]` by construction, but a NaN reaching a report (a
/// division-by-zero upstream) pins to 0 explicitly rather than relying
/// on `as`-cast semantics — a byte-stable artifact must not encode
/// "whatever the cast does" as its contract. Negative and infinite
/// inputs saturate the same way the cast always did (0 and `u64::MAX`).
pub fn milli_pct(pct: f64) -> u64 {
    if pct.is_nan() {
        return 0;
    }
    (pct * 1000.0).round() as u64
}

/// One policy's summary in a multi-policy comparison report.
/// Percentages are pinned as integer milli-percent so the JSON is
/// byte-stable across float formatting changes.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct PolicyReport {
    /// Policy token (see [`POLICY_TOKENS`]).
    pub policy: String,
    /// Final counters.
    pub final_stats: CacheStats,
    /// Mean container efficiency, milli-percent (60957 = 60.957%).
    pub container_eff_milli: u64,
    /// Final cache efficiency, milli-percent.
    pub cache_eff_milli: u64,
    /// Fault-model counters when the run injected faults (`null` for
    /// fault-free runs).
    #[serde(default)]
    pub faults: Option<FaultStats>,
}

impl PolicyReport {
    /// Summarize a finished run.
    pub fn from_run(policy: &str, run: &RunResult) -> Self {
        PolicyReport {
            policy: policy.to_string(),
            final_stats: run.final_stats,
            container_eff_milli: milli_pct(run.container_eff_pct),
            cache_eff_milli: milli_pct(run.cache_eff_pct),
            faults: run.faults,
        }
    }
}

/// Convenience: generate the stream from a workload config and run it.
pub fn simulate(
    repo: &Repository,
    workload: &WorkloadConfig,
    cache_config: CacheConfig,
    sample_every: usize,
) -> RunResult {
    let stream = workload::generate_stream(repo, workload);
    let sizes: Arc<dyn landlord_core::sizes::SizeModel> = Arc::new(repo.size_table());
    simulate_stream(&stream, cache_config, sizes, None, sample_every)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadScheme;
    use landlord_repo::RepoConfig;

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

    fn cache_cfg(alpha: f64, limit: u64) -> CacheConfig {
        CacheConfig {
            alpha,
            limit_bytes: limit,
            ..CacheConfig::default()
        }
    }

    #[test]
    fn observed_run_records_spans_and_is_byte_deterministic() {
        let r = repo();
        let w = workload();
        let jobs = workload::generate_stream(&r, &w);
        let sizes: Arc<dyn SizeModel> = Arc::new(r.size_table());

        let run = |jobs: &[Spec]| {
            let obs = SimObs::deterministic();
            let mut cache =
                ImageCache::new(cache_cfg(0.75, r.total_bytes() / 2), Arc::clone(&sizes));
            simulate_policy(&mut cache, jobs, 0, Some(&obs), None);
            obs.registry.snapshot()
        };

        let snap = run(&jobs);
        // One plan span and one apply span per request; the logical
        // clock advanced once per request, so ticks sum to at most the
        // request count per span.
        assert_eq!(snap.histograms["core.plan_ticks"].count, jobs.len() as u64);
        assert_eq!(snap.histograms["core.apply_ticks"].count, jobs.len() as u64);
        assert!(snap.counters.contains_key("core.evictions"));
        // The whole snapshot (JSON bytes included) reproduces exactly.
        assert_eq!(snap.to_json_pretty(), run(&jobs).to_json_pretty());
    }

    #[test]
    fn all_requests_accounted() {
        let r = repo();
        let w = workload();
        let result = simulate(&r, &w, cache_cfg(0.75, r.total_bytes()), 0);
        let s = result.final_stats;
        assert_eq!(s.requests as usize, w.total_requests());
        assert_eq!(s.requests, s.hits + s.merges + s.inserts);
        assert!(result.series.is_empty());
    }

    #[test]
    fn repeats_guarantee_hits() {
        let r = repo();
        let result = simulate(&r, &workload(), cache_cfg(0.75, r.total_bytes() * 10), 0);
        // With 3 repeats per job and a roomy cache, at least the exact
        // re-requests hit.
        assert!(
            result.final_stats.hits >= 30,
            "only {} hits over 90 requests with repeats",
            result.final_stats.hits
        );
    }

    #[test]
    fn series_sampling() {
        let r = repo();
        let result = simulate(&r, &workload(), cache_cfg(0.75, r.total_bytes()), 10);
        assert_eq!(result.series.len(), 9, "90 requests sampled every 10");
        assert_eq!(result.series.last().unwrap().request_index, 90);
        // Monotone counters along the series.
        for w in result.series.windows(2) {
            assert!(w[0].stats.requests < w[1].stats.requests);
            assert!(w[0].stats.bytes_written <= w[1].stats.bytes_written);
        }
    }

    #[test]
    fn tight_cache_forces_deletes() {
        let r = repo();
        // Cache a twentieth of the repo: heavy eviction pressure.
        let result = simulate(&r, &workload(), cache_cfg(0.0, r.total_bytes() / 20), 0);
        assert!(result.final_stats.deletes > 0, "tight cache must evict");
        let total = result.final_stats.total_bytes;
        // Bound: limit + one oversized image.
        assert!(total <= r.total_bytes() / 20 + r.total_bytes() / 2);
    }

    #[test]
    fn merging_raises_cache_efficiency() {
        let r = repo();
        let w = workload();
        let limit = r.total_bytes(); // roomy enough to show duplication
        let none = simulate(&r, &w, cache_cfg(0.0, limit), 0);
        let lots = simulate(&r, &w, cache_cfg(0.95, limit), 0);
        assert!(lots.final_stats.merges > 0);
        assert!(
            lots.cache_eff_pct > none.cache_eff_pct,
            "merging should deduplicate: {} vs {}",
            lots.cache_eff_pct,
            none.cache_eff_pct
        );
        // And costs container efficiency.
        assert!(lots.container_eff_pct < none.container_eff_pct + 1e-9);
    }

    #[test]
    fn deterministic_given_seeds() {
        let r = repo();
        let w = workload();
        let a = simulate(&r, &w, cache_cfg(0.8, r.total_bytes()), 0);
        let b = simulate(&r, &w, cache_cfg(0.8, r.total_bytes()), 0);
        assert_eq!(a.final_stats, b.final_stats);
    }

    #[test]
    fn every_policy_token_constructs_and_runs() {
        let r = repo();
        let stream = workload::generate_stream(&r, &workload());
        let sizes: Arc<dyn SizeModel> = Arc::new(r.size_table());
        for &token in POLICY_TOKENS {
            let mut policy = make_policy(
                token,
                cache_cfg(0.8, r.total_bytes()),
                Arc::clone(&sizes),
                r.total_bytes(),
            )
            .expect("known token");
            assert_eq!(policy.name(), token);
            let run = simulate_policy(policy.as_mut(), &stream, 0, None, None);
            assert_eq!(run.final_stats.requests as usize, stream.len());
            policy.check_invariants();
        }
        assert!(make_policy("nope", CacheConfig::default(), Arc::clone(&sizes), 1).is_none());
    }

    #[test]
    fn generic_driver_matches_typed_entry_point_for_landlord() {
        let r = repo();
        let w = workload();
        let cfg = cache_cfg(0.8, r.total_bytes() / 2);
        let typed = simulate(&r, &w, cfg, 7);
        let stream = workload::generate_stream(&r, &w);
        let sizes: Arc<dyn SizeModel> = Arc::new(r.size_table());
        let mut policy = make_policy("landlord", cfg, sizes, r.total_bytes()).unwrap();
        let generic = simulate_policy(policy.as_mut(), &stream, 7, None, None);
        assert_eq!(typed.final_stats, generic.final_stats);
        assert_eq!(typed.container_eff_pct, generic.container_eff_pct);
        assert_eq!(typed.series.len(), generic.series.len());
    }

    #[test]
    fn milli_pct_is_pinned() {
        // Regression: golden report JSON depends on this exact
        // rounding; any drift rewrites every golden file.
        assert_eq!(milli_pct(0.0), 0);
        assert_eq!(milli_pct(100.0), 100_000);
        assert_eq!(milli_pct(60.957), 60_957);
        assert_eq!(milli_pct(12.3456), 12_346);
        assert_eq!(milli_pct(0.0004), 0);
        assert_eq!(milli_pct(33.0 + 1.0 / 3.0), 33_333);
    }

    #[test]
    fn milli_pct_pins_degenerate_inputs() {
        // Serve-mode folds routinely cross empty shards; a NaN-shaped
        // percentage (0/0 upstream) must pin to 0, not to whatever an
        // `as` cast happens to do on the platform. Out-of-range inputs
        // keep the historical saturating behavior.
        assert_eq!(milli_pct(f64::NAN), 0);
        assert_eq!(milli_pct(-f64::NAN), 0);
        assert_eq!(milli_pct(-1.0), 0);
        assert_eq!(milli_pct(f64::NEG_INFINITY), 0);
        assert_eq!(milli_pct(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn policy_report_round_trips_through_json() {
        let r = repo();
        let run = simulate(&r, &workload(), cache_cfg(0.8, r.total_bytes()), 0);
        let report = PolicyReport::from_run("landlord", &run);
        let json = serde_json::to_string(&report).unwrap();
        let back: PolicyReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
