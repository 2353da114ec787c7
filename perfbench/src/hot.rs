//! `hot_sharded`: a Zipf-skewed stream on the sharded single-flight
//! frontend.
//!
//! Two closed-loop clients call
//! [`ShardedImageCache::request_single_flight`] over a resident set of
//! about 3,800 images (460–490 per shard), with a budget tight enough
//! that eviction runs throughout. Most requests hit, so the O(resident)
//! hit scan, the bloom peek, the evictor, the shard locks and the
//! flights do the work.

use crate::measure::{hist_mean, hist_quantile, mean, quantile, ratio, Sample, Stopwatch};
use crate::{Bench, Phase, Quality, RunConfig, Scale, SetupTimes, CACHE_EFF_EVERY, REPO_SEED};
use landlord_core::cache::observe::names;
use landlord_core::cache::{CacheConfig, Outcome, ShardedImageCache};
use landlord_core::metrics::ContainerEfficiency;
use landlord_core::sizes::SizeModel;
use landlord_core::spec::Spec;
use landlord_obs::{Counter, Histogram, MetricsRegistry, MonotonicClock};
use landlord_repo::{RepoConfig, Repository};
use landlord_sim::sharded::replay_sharded;
use landlord_sim::workload::generate_zipf_stream;
use landlord_sim::{WorkloadConfig, WorkloadScheme};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop client threads (the sandbox has two cores).
pub const CLIENTS: usize = 2;

struct Params {
    repo: RepoConfig,
    unique_jobs: usize,
    repeats: usize,
    max_initial_selection: usize,
    zipf: f64,
    alpha: f64,
    shards: usize,
    /// Cache budget as a share of the bytes of every distinct spec.
    budget_share: f64,
    /// Requests served during set-up, before timing starts.
    warmup: usize,
    /// Minimum timed requests.
    min_requests: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            repo: RepoConfig {
                package_count: 4000,
                universal_core_products: 2,
                core_attach_probability: 0.3,
                ..RepoConfig::sft_like(REPO_SEED)
            },
            unique_jobs: 40_000,
            repeats: 4,
            max_initial_selection: 2,
            zipf: 0.7,
            alpha: 0.2,
            shards: 8,
            budget_share: 0.25,
            warmup: 30_000,
            min_requests: 2000,
        },
        Scale::Smoke => Params {
            repo: RepoConfig::small_for_tests(REPO_SEED),
            unique_jobs: 200,
            repeats: 4,
            max_initial_selection: 3,
            zipf: 0.9,
            alpha: 0.2,
            shards: 4,
            budget_share: 0.6,
            warmup: 300,
            min_requests: 200,
        },
    }
}

fn workload_config(p: &Params, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        unique_jobs: p.unique_jobs,
        repeats: p.repeats,
        max_initial_selection: p.max_initial_selection,
        scheme: WorkloadScheme::DependencyClosure,
        seed,
    }
}

/// The generated inputs, exposed for determinism tests.
pub fn inputs(seed: u64, scale: Scale) -> (Repository, Vec<Spec>) {
    let p = params(scale);
    let repo = Repository::generate(&p.repo);
    let stream = generate_zipf_stream(&repo, &workload_config(&p, seed), p.zipf);
    (repo, stream)
}

/// The workload's cache state between set-up, measurement and check.
pub struct State {
    cache: ShardedImageCache,
    stream: Vec<Spec>,
    /// `spec_bytes` of every stream entry.
    requested: Vec<u64>,
    /// Stream position of the next request.
    next: usize,
    min_requests: usize,
    /// Set when a measured phase's request counts do not add up.
    conservation_error: Option<String>,
}

/// Marker type implementing [`Bench`] for this workload.
pub struct HotSharded;

impl Bench for HotSharded {
    type State = State;

    fn setup(cfg: &RunConfig) -> Result<(State, SetupTimes), String> {
        let p = params(cfg.scale);
        let t = Instant::now();
        let repo = Repository::generate(&p.repo);
        let repo_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let stream = generate_zipf_stream(&repo, &workload_config(&p, cfg.seed), p.zipf);
        let stream_s = t.elapsed().as_secs_f64();
        let sizes = Arc::new(repo.size_table());
        let requested: Vec<u64> = stream.iter().map(|s| sizes.spec_bytes(s)).collect();
        let mut distinct: Vec<&Spec> = stream.iter().collect();
        distinct.sort_unstable_by(|a, b| a.ids().cmp(b.ids()));
        distinct.dedup();
        let distinct_bytes: u64 = distinct.iter().map(|s| sizes.spec_bytes(s)).sum();
        let config = CacheConfig {
            alpha: p.alpha,
            limit_bytes: (distinct_bytes as f64 * p.budget_share) as u64,
            ..CacheConfig::default()
        };
        let cache = ShardedImageCache::new(p.shards, config, sizes);
        // In per-shard stream order, so the warmed state is the same on
        // every run. One thread: CPU time of work on both virtual CPUs at
        // once moved by about a fifth with the host's load, on one by a
        // few percent, and this CPU time is `setup_s`.
        replay_sharded(&cache, &stream[..p.warmup.min(stream.len())], 1);
        let state = State {
            cache,
            stream,
            requested,
            next: p.warmup,
            min_requests: p.min_requests,
            conservation_error: None,
        };
        let times = SetupTimes {
            repo_s,
            stream_s,
            open_s: 0.0,
        };
        Ok((state, times))
    }

    fn measure(state: &mut State, seconds: f64, traced: bool) -> Phase {
        let tracer = traced.then(|| Tracer::attach(&state.cache));
        let before = state.cache.stats();
        let coalesced_before = state.cache.coalesce_hits();
        let next = AtomicUsize::new(state.next);
        let issued = AtomicUsize::new(0);
        let start = Instant::now();
        let clients: Vec<Client> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (state, next, issued, tracer) = (&*state, &next, &issued, tracer.as_ref());
                    scope.spawn(move || {
                        let mut client = Client::default();
                        loop {
                            // sync: claim counters only; each index is issued once
                            let done = issued.load(Ordering::Relaxed);
                            if done >= state.min_requests
                                && start.elapsed().as_secs_f64() >= seconds
                            {
                                break client;
                            }
                            issued.fetch_add(1, Ordering::Relaxed); // sync: see above
                            let i = next.fetch_add(1, Ordering::Relaxed) % state.stream.len(); // sync: see above
                            client.request(state, i, tracer, start);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed_s = start.elapsed().as_secs_f64();
        state.next = next.into_inner();

        let mut phase = Phase {
            elapsed_s,
            ..Phase::default()
        };
        let mut eff = ContainerEfficiency::new();
        let mut all = Client::default();
        for client in clients {
            phase.attempted += client.leaders + client.coalesced;
            phase.samples.extend_from_slice(&client.samples);
            for e in &client.errors {
                phase.fail(e.clone());
            }
            phase.failed += client.failed.saturating_sub(client.errors.len() as u64);
            eff.merge(&client.eff);
            all.absorb(client);
        }
        let after = state.cache.stats();
        let coalesced = state.cache.coalesce_hits() - coalesced_before;
        phase.quality = Quality {
            hit_ratio: ratio(
                (after.hits - before.hits + coalesced) as f64,
                phase.attempted as f64,
            ),
            write_amp: ratio(
                (after.bytes_written - before.bytes_written) as f64,
                (after.bytes_requested - before.bytes_requested) as f64,
            ),
            container_eff_pct: eff.mean_pct(),
            cache_eff_pct: mean(&all.cache_eff),
        };
        // The conservation check needs the deltas as the crate counted
        // them, next to the clients' own tally.
        all.crate_leaders = after.requests - before.requests;
        all.crate_coalesced = coalesced;
        if all.crate_leaders != all.leaders || all.crate_leaders + coalesced != phase.attempted {
            state.conservation_error = Some(format!(
                "conservation: the cache counted {} leaders + {} coalesced, the clients issued {} ({} leaders)",
                all.crate_leaders, coalesced, phase.attempted, all.leaders
            ));
        }
        if let Some(tracer) = tracer {
            phase.layers = tracer.finish(&state.cache, &all, &phase);
        }
        phase
    }

    fn check(state: State, _phase: &Phase) -> Result<(), String> {
        if let Some(problem) = state.conservation_error {
            return Err(problem);
        }
        catch_unwind(AssertUnwindSafe(|| state.cache.check_invariants()))
            .map_err(|_| "ShardedImageCache::check_invariants failed".to_string())
    }
}

/// One client thread's tally.
#[derive(Default)]
struct Client {
    samples: Vec<Sample>,
    leaders: u64,
    coalesced: u64,
    failed: u64,
    errors: Vec<String>,
    eff: ContainerEfficiency,
    /// Cache efficiency samples.
    cache_eff: Vec<f64>,
    // Traced only:
    coalesced_ns: Vec<u64>,
    plan_hit_ns: Vec<u64>,
    plan_miss_ns: Vec<u64>,
    apply_touch_ns: Vec<u64>,
    apply_build_ns: Vec<u64>,
    apply_evict_ns: Vec<u64>,
    unattributed: u64,
    crate_leaders: u64,
    crate_coalesced: u64,
}

impl Client {
    fn request(&mut self, state: &State, i: usize, tracer: Option<&Tracer>, start: Instant) {
        let spec = &state.stream[i];
        let requested = state.requested[i];
        let (outcome, coalesced, timing) = match tracer {
            None => {
                let watch = Stopwatch::start();
                let (outcome, coalesced) = state.cache.request_single_flight(spec);
                (outcome, coalesced, watch.stop(start))
            }
            Some(tracer) => {
                let shard = state.cache.route(spec);
                let before = tracer.shards[shard].read();
                let watch = Stopwatch::start();
                let (outcome, coalesced) = state.cache.request_single_flight(spec);
                let timing = watch.stop(start);
                let after = tracer.shards[shard].read();
                if coalesced {
                    self.coalesced_ns.push(timing.wall_ns);
                } else {
                    self.attribute(&outcome, before, after);
                }
                (outcome, coalesced, timing)
            }
        };
        self.samples.push(timing);
        if coalesced {
            self.coalesced += 1;
        } else {
            self.leaders += 1;
        }
        // A serving image is a superset of the spec, so it is at least
        // as large.
        if outcome.image_bytes() < requested {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!(
                    "stream entry {i} served by a {}-byte image smaller than its {requested} bytes",
                    outcome.image_bytes()
                ));
            }
        }
        self.eff.record(requested, outcome.image_bytes());
        if (self.leaders + self.coalesced).is_multiple_of(CACHE_EFF_EVERY) {
            self.cache_eff.push(state.cache.cache_efficiency_pct());
        }
    }

    /// Charge the plan and apply spans recorded on the owning shard to
    /// this request. The shard lock serializes them, so if exactly one
    /// plan and one apply landed on the shard between the two reads,
    /// they are this leader's; otherwise the leader is counted as
    /// unattributed and the traced run reports the attributed share.
    fn attribute(&mut self, outcome: &Outcome, before: ShardReading, after: ShardReading) {
        if after.plans - before.plans != 1 || after.applies - before.applies != 1 {
            self.unattributed += 1;
            return;
        }
        let plan_ns = after.plan_ns - before.plan_ns;
        let apply_ns = after.apply_ns - before.apply_ns;
        match outcome {
            Outcome::Hit { .. } => {
                self.plan_hit_ns.push(plan_ns);
                self.apply_touch_ns.push(apply_ns);
            }
            _ => {
                self.plan_miss_ns.push(plan_ns);
                if after.evictions > before.evictions {
                    self.apply_evict_ns.push(apply_ns);
                } else {
                    self.apply_build_ns.push(apply_ns);
                }
            }
        }
    }

    fn absorb(&mut self, other: Client) {
        self.leaders += other.leaders;
        self.cache_eff.extend(other.cache_eff);
        self.coalesced += other.coalesced;
        self.samples.extend(other.samples);
        self.coalesced_ns.extend(other.coalesced_ns);
        self.plan_hit_ns.extend(other.plan_hit_ns);
        self.plan_miss_ns.extend(other.plan_miss_ns);
        self.apply_touch_ns.extend(other.apply_touch_ns);
        self.apply_build_ns.extend(other.apply_build_ns);
        self.apply_evict_ns.extend(other.apply_evict_ns);
        self.unattributed += other.unattributed;
    }
}

/// Cumulative plan/apply spans and evictions of one shard.
#[derive(Clone, Copy)]
struct ShardReading {
    plans: u64,
    plan_ns: u64,
    applies: u64,
    apply_ns: u64,
    evictions: u64,
}

/// Metric handles of one shard's private registry.
struct ShardHandles {
    plan: Arc<Histogram>,
    apply: Arc<Histogram>,
    evictions: Arc<Counter>,
}

impl ShardHandles {
    fn read(&self) -> ShardReading {
        let plan = self.plan.snapshot();
        let apply = self.apply.snapshot();
        ShardReading {
            plans: plan.count,
            plan_ns: plan.sum,
            applies: apply.count,
            apply_ns: apply.sum,
            evictions: self.evictions.get(),
        }
    }
}

/// Registries of a traced phase: the frontend's (lock, peek, flight
/// metrics) and one per shard (plan/apply spans), all on one monotonic
/// clock.
struct Tracer {
    frontend: MetricsRegistry,
    shard_registries: Vec<MetricsRegistry>,
    shards: Vec<ShardHandles>,
}

impl Tracer {
    fn attach(cache: &ShardedImageCache) -> Self {
        let clock = Arc::new(MonotonicClock::new());
        let frontend = MetricsRegistry::new(clock.clone());
        cache.attach_metrics(&frontend);
        let shard_registries: Vec<MetricsRegistry> = (0..cache.shard_count())
            .map(|_| MetricsRegistry::new(clock.clone()))
            .collect();
        let shards = shard_registries
            .iter()
            .enumerate()
            .map(|(i, registry)| {
                cache.with_shard(i, |c| c.attach_metrics(registry));
                ShardHandles {
                    plan: registry.histogram(names::PLAN_TICKS),
                    apply: registry.histogram(names::APPLY_TICKS),
                    evictions: registry.counter(names::EVICTIONS),
                }
            })
            .collect();
        Tracer {
            frontend,
            shard_registries,
            shards,
        }
    }

    fn finish(
        self,
        cache: &ShardedImageCache,
        all: &Client,
        phase: &Phase,
    ) -> Vec<(&'static str, f64)> {
        let front = self.frontend.snapshot();
        let mut scan = landlord_obs::HistogramSnapshot::empty();
        let mut evictions = 0u64;
        for registry in &self.shard_registries {
            let snap = registry.snapshot();
            if let Some(h) = snap.histograms.get(names::CANDIDATE_SCAN) {
                scan.merge(h);
            }
            evictions += snap.counters.get(names::EVICTIONS).copied().unwrap_or(0);
        }
        let counter = |name: &str| front.counters.get(name).copied().unwrap_or(0) as f64;
        let empty = landlord_obs::HistogramSnapshot::empty();
        let wait = front
            .histograms
            .get(names::SHARD_LOCK_WAIT)
            .unwrap_or(&empty);
        let hold = front
            .histograms
            .get(names::SHARD_LOCK_HOLD)
            .unwrap_or(&empty);
        let skips = counter(names::SHARD_PEEK_SKIP);
        let peeks = skips + counter(names::SHARD_PEEK_POSSIBLE);
        let leaders = all.crate_leaders as f64;
        let us = |samples: &[u64], q: f64| quantile(samples, q) / 1e3;
        // Closure: request time not covered by lock wait, lock hold
        // (which spans peek, plan, apply and summary upkeep) or the
        // flight wait of coalesced requests.
        let request_ns: u64 = all.samples.iter().map(|s| s.wall_ns).sum();
        let covered_ns = wait.sum + hold.sum + all.coalesced_ns.iter().sum::<u64>();
        vec![
            ("plan.hit_us_p50", us(&all.plan_hit_ns, 0.50)),
            ("plan.hit_us_p99", us(&all.plan_hit_ns, 0.99)),
            (
                "plan.resident_images",
                ratio(cache.len() as f64, cache.shard_count() as f64),
            ),
            ("plan.miss_us_p50", us(&all.plan_miss_ns, 0.50)),
            ("plan.miss_us_p99", us(&all.plan_miss_ns, 0.99)),
            (
                "plan.candidates_per_miss",
                ratio(scan.sum as f64, scan.count as f64),
            ),
            ("apply.touch_us", us(&all.apply_touch_ns, 0.50)),
            ("apply.build_us", us(&all.apply_build_ns, 0.50)),
            ("apply.evict_us", us(&all.apply_evict_ns, 0.50)),
            ("apply.evictions_per_req", ratio(evictions as f64, leaders)),
            ("sharded.peek_skip_ratio", ratio(skips, peeks)),
            ("sharded.lock_wait_us_p50", hist_quantile(wait, 0.50) / 1e3),
            ("sharded.lock_wait_us_p99", hist_quantile(wait, 0.99) / 1e3),
            ("sharded.lock_hold_us", hist_mean(hold) / 1e3),
            (
                "sharded.bloom_rebuilds_per_1k",
                1e3 * ratio(counter(names::SHARD_BLOOM_STALE_REBUILDS), leaders),
            ),
            (
                "flight.coalesce_ratio",
                ratio(all.crate_coalesced as f64, phase.attempted as f64),
            ),
            ("flight.wait_us", us(&all.coalesced_ns, 0.50)),
            (
                "trace.attributed_share",
                1.0 - ratio(all.unattributed as f64, all.leaders as f64),
            ),
            (
                "unaccounted_share",
                ratio(request_ns as f64 - covered_ns as f64, request_ns as f64),
            ),
        ]
    }
}
