//! `paper`: the paper's evaluation point on the in-memory engine.
//!
//! A full-scale SFT-like repository (9,660 packages), a dependency-
//! closure stream, α = 0.75 and a cache of twice the repository. One
//! client drives [`ImageCache`] through `settle → plan → apply`, which
//! is what `ImageCache::request` does internally; candidate scan,
//! Jaccard and merge-apply do most of the work.

use crate::measure::{mean, nanos_since, quantile, ratio, Stopwatch};
use crate::{
    block_stream, Bench, Phase, Quality, RunConfig, Scale, SetupTimes, CACHE_EFF_EVERY, REPO_SEED,
};
use landlord_core::cache::observe::names;
use landlord_core::cache::{CacheConfig, ImageCache, Outcome, PlannedOp};
use landlord_core::metrics::ContainerEfficiency;
use landlord_core::spec::Spec;
use landlord_obs::{MetricsRegistry, MonotonicClock};
use landlord_repo::{RepoConfig, Repository};
use landlord_sim::simulator::simulate_stream;
use landlord_sim::{WorkloadConfig, WorkloadScheme};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Merge threshold of the paper's evaluation point.
pub const ALPHA: f64 = 0.75;

struct Params {
    repo: RepoConfig,
    /// One block of the stream: the paper's standard stream shape.
    block: WorkloadConfig,
    /// Blocks in the stream (see [`block_stream`]).
    blocks: u64,
    /// Requests served during set-up, before timing starts.
    warmup: usize,
    /// Timed requests the quality figures are computed over.
    quality_window: usize,
}

fn params(seed: u64, scale: Scale) -> Params {
    let block = |unique_jobs, repeats, max_initial_selection| WorkloadConfig {
        unique_jobs,
        repeats,
        max_initial_selection,
        scheme: WorkloadScheme::DependencyClosure,
        seed,
    };
    match scale {
        Scale::Full => Params {
            repo: RepoConfig::sft_like(REPO_SEED),
            block: block(500, 5, 100),
            blocks: 32,
            warmup: 2500,
            quality_window: 80_000,
        },
        Scale::Smoke => Params {
            repo: RepoConfig::small_for_tests(REPO_SEED),
            block: block(30, 4, 12),
            blocks: 2,
            warmup: 40,
            quality_window: 80,
        },
    }
}

/// The generated inputs, exposed for determinism tests.
pub fn inputs(seed: u64, scale: Scale) -> (Repository, Vec<Spec>) {
    let p = params(seed, scale);
    let repo = Repository::generate(&p.repo);
    let stream = block_stream(&repo, &p.block, p.blocks);
    (repo, stream)
}

/// The workload's cache state between set-up, measurement and check.
pub struct State {
    repo: Repository,
    config: CacheConfig,
    stream: Vec<Spec>,
    cache: ImageCache,
    /// Requests served so far (set-up included); request `i` is
    /// `stream[i % stream.len()]`.
    served: usize,
    quality_window: usize,
}

/// Marker type implementing [`Bench`] for this workload.
pub struct Paper;

impl Bench for Paper {
    type State = State;

    fn setup(cfg: &RunConfig) -> Result<(State, SetupTimes), String> {
        let p = params(cfg.seed, cfg.scale);
        let t = Instant::now();
        let repo = Repository::generate(&p.repo);
        let repo_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let stream = block_stream(&repo, &p.block, p.blocks);
        let stream_s = t.elapsed().as_secs_f64();
        if stream.len() <= p.warmup {
            return Err(format!(
                "paper stream of {} requests is shorter than its warm-up",
                stream.len()
            ));
        }
        let config = CacheConfig {
            alpha: ALPHA,
            limit_bytes: 2 * repo.total_bytes(),
            ..CacheConfig::default()
        };
        let mut cache = ImageCache::new(config, Arc::new(repo.size_table()));
        for spec in &stream[..p.warmup] {
            cache.request(spec);
        }
        let state = State {
            repo,
            config,
            stream,
            cache,
            served: p.warmup,
            quality_window: p.quality_window,
        };
        let times = SetupTimes {
            repo_s,
            stream_s,
            open_s: 0.0,
        };
        Ok((state, times))
    }

    fn measure(state: &mut State, seconds: f64, traced: bool) -> Phase {
        let registry = MetricsRegistry::new(Arc::new(MonotonicClock::new()));
        if traced {
            state.cache.attach_metrics(&registry);
        }
        let mut phase = Phase::default();
        let mut layers = Layers::default();
        let mut eff = ContainerEfficiency::new();
        let before = state.cache.stats();
        let mut hits = 0u64;
        let mut cache_eff = Vec::new();
        let window = state.quality_window;
        let start = Instant::now();
        loop {
            let done = phase.attempted as usize;
            if done >= window && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let spec = &state.stream[state.served % state.stream.len()];
            let watch = Stopwatch::start();
            let (plan, outcome) = if traced {
                layers.request(&mut state.cache, spec, watch.issued())
            } else {
                state.cache.settle();
                let plan = state.cache.plan(spec);
                (plan, state.cache.apply(spec, &plan))
            };
            phase.record(watch.stop(start));
            state.served += 1;
            phase.attempted += 1;
            let served_ok = state
                .cache
                .get(outcome.image())
                .is_some_and(|img| spec.is_subset(&img.spec));
            if !served_ok {
                phase.fail(format!(
                    "request {} not served by a superset image",
                    state.served
                ));
            }
            if done < window {
                if (done as u64).is_multiple_of(CACHE_EFF_EVERY) {
                    cache_eff.push(state.cache.cache_efficiency_pct());
                }
                hits += u64::from(matches!(outcome, Outcome::Hit { .. }));
                eff.record(plan.requested_bytes, outcome.image_bytes());
                if done + 1 == window {
                    let after = state.cache.stats();
                    phase.quality = Quality {
                        hit_ratio: ratio(hits as f64, window as f64),
                        write_amp: ratio(
                            (after.bytes_written - before.bytes_written) as f64,
                            (after.bytes_requested - before.bytes_requested) as f64,
                        ),
                        container_eff_pct: eff.mean_pct(),
                        cache_eff_pct: mean(&cache_eff),
                    };
                }
            }
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        if traced {
            phase.layers = layers.finish(&registry, &phase);
        }
        phase
    }

    fn check(state: State, _phase: &Phase) -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(|| state.cache.check_invariants()))
            .map_err(|_| "ImageCache::check_invariants failed".to_string())?;
        let prefix: Vec<Spec> = (0..state.served)
            .map(|i| state.stream[i % state.stream.len()].clone())
            .collect();
        let replay = simulate_stream(
            &prefix,
            state.config,
            Arc::new(state.repo.size_table()),
            None,
            0,
        );
        if replay.final_stats != state.cache.stats() {
            return Err(format!(
                "CacheStats {:?} differ from a simulate_stream replay {:?}",
                state.cache.stats(),
                replay.final_stats
            ));
        }
        Ok(())
    }
}

/// Layer spans of a traced phase, kept in memory until it ends.
#[derive(Default)]
struct Layers {
    plan_hit_ns: Vec<u64>,
    plan_miss_ns: Vec<u64>,
    resident: u64,
    apply_touch_ns: Vec<u64>,
    apply_build_ns: Vec<u64>,
    apply_evict_ns: Vec<u64>,
    covered_ns: u64,
}

impl Layers {
    /// Serve one request with each layer call timed separately.
    fn request(
        &mut self,
        cache: &mut ImageCache,
        spec: &Spec,
        t0: Instant,
    ) -> (landlord_core::cache::Plan, Outcome) {
        cache.settle();
        let settle_ns = nanos_since(t0);
        self.resident += cache.len() as u64;
        let t1 = Instant::now();
        let plan = cache.plan(spec);
        let plan_ns = nanos_since(t1);
        let deletes = cache.stats().deletes;
        let t2 = Instant::now();
        let outcome = cache.apply(spec, &plan);
        let apply_ns = nanos_since(t2);
        match plan.op {
            PlannedOp::Hit { .. } => {
                self.plan_hit_ns.push(plan_ns);
                self.apply_touch_ns.push(apply_ns);
            }
            _ => {
                self.plan_miss_ns.push(plan_ns);
                if cache.stats().deletes > deletes {
                    self.apply_evict_ns.push(apply_ns);
                } else {
                    self.apply_build_ns.push(apply_ns);
                }
            }
        }
        self.covered_ns += settle_ns + plan_ns + apply_ns;
        (plan, outcome)
    }

    fn finish(self, registry: &MetricsRegistry, phase: &Phase) -> Vec<(&'static str, f64)> {
        let snap = registry.snapshot();
        let scan = snap.histograms.get(names::CANDIDATE_SCAN);
        let evictions = snap.counters.get(names::EVICTIONS).copied().unwrap_or(0);
        let requests = phase.attempted as f64;
        let us = |samples: &[u64], q: f64| quantile(samples, q) / 1e3;
        let elapsed_ns = phase.elapsed_s * 1e9;
        vec![
            ("plan.hit_us_p50", us(&self.plan_hit_ns, 0.50)),
            ("plan.hit_us_p99", us(&self.plan_hit_ns, 0.99)),
            (
                "plan.resident_images",
                ratio(self.resident as f64, requests),
            ),
            ("plan.miss_us_p50", us(&self.plan_miss_ns, 0.50)),
            ("plan.miss_us_p99", us(&self.plan_miss_ns, 0.99)),
            (
                "plan.candidates_per_miss",
                scan.map_or(0.0, |h| ratio(h.sum as f64, h.count as f64)),
            ),
            ("apply.touch_us", us(&self.apply_touch_ns, 0.50)),
            ("apply.build_us", us(&self.apply_build_ns, 0.50)),
            ("apply.evict_us", us(&self.apply_evict_ns, 0.50)),
            ("apply.evictions_per_req", ratio(evictions as f64, requests)),
            // Every request's layer calls are timed.
            ("trace.attributed_share", 1.0),
            (
                "unaccounted_share",
                ratio(elapsed_ns - self.covered_ns as f64, elapsed_ns),
            ),
        ]
    }
}
