//! End-to-end and per-layer benchmark of the LANDLORD cache frontends.
//!
//! Three workloads, one per frontend (see `NOTES.md` for why each was
//! chosen; `BENCHMARK.json` lists the first two, [`Workload::LISTED`]):
//!
//! | workload | frontend | clients |
//! |---|---|---|
//! | `paper` | [`landlord_core::ImageCache`] driven as `settle → plan → apply` | 1 |
//! | `hot_sharded` | [`landlord_core::ShardedImageCache::request_single_flight`] | 2 |
//! | `durable` | `landlord_cli::persistent::PersistentCache::submit` on local disk | 1 |
//!
//! Every run sets the workload up [`SETUP_ROUNDS`] times from the seed
//! (reporting the median set-up time), then drives the last set-up in a
//! closed loop for the requested number of seconds and checks the
//! outputs. An untraced run reports the [`END_TO_END`] metrics. A traced
//! run splits its time between an untraced reference phase and a traced
//! phase, and reports the [`PER_LAYER`] metrics: layer calls timed from
//! this crate, plus the counters and histograms the crates export
//! through `attach_metrics` on a monotonic clock.

pub mod durable;
pub mod hot;
pub mod measure;
pub mod paper;

use measure::{median, ratio, sorted_quantile, Sample};
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
/// Times are CPU time of the benchmark's own threads, not wall time: on
/// a shared host the hypervisor steals a varying share of every virtual
/// CPU, and wall time follows the neighbours (see `NOTES.md`). Wall
/// figures are printed beside them and in the traced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_cpu_s", "1/s"),
    ("req_cpu_us_p50", "us"),
    ("req_cpu_us_p99", "us"),
    ("eff_req_per_cpu_s", "1/s"),
    ("hit_ratio", "ratio"),
    ("write_amp", "ratio"),
    ("container_eff_pct", "%"),
    ("cache_eff_pct", "%"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// workload that never calls a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.repo_generate_s", "s"),
    ("setup.stream_generate_s", "s"),
    ("persist.open_s", "s"),
    ("plan.hit_us_p50", "us"),
    ("plan.hit_us_p99", "us"),
    ("plan.resident_images", "count"),
    ("plan.miss_us_p50", "us"),
    ("plan.miss_us_p99", "us"),
    ("plan.candidates_per_miss", "count"),
    ("apply.touch_us", "us"),
    ("apply.build_us", "us"),
    ("apply.evict_us", "us"),
    ("apply.evictions_per_req", "count"),
    ("sharded.peek_skip_ratio", "ratio"),
    ("sharded.lock_wait_us_p50", "us"),
    ("sharded.lock_wait_us_p99", "us"),
    ("sharded.lock_hold_us", "us"),
    ("sharded.bloom_rebuilds_per_1k", "count"),
    ("flight.coalesce_ratio", "ratio"),
    ("flight.wait_us", "us"),
    ("persist.submit_hit_us", "us"),
    ("persist.submit_build_us", "us"),
    ("persist.submit_ckpt_us", "us"),
    ("persist.filter_skip_ratio", "ratio"),
    ("persist.bytes_per_build", "bytes"),
    ("store.dedup_ratio", "ratio"),
    ("unaccounted_share", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("wall.req_per_s", "1/s"),
    ("wall.lat_us_p50", "us"),
    ("wall.lat_us_p99", "us"),
    ("trace.overhead_pct", "%"),
    ("fail_ratio", "ratio"),
];

/// Set-ups per run; the reported `setup_s` is the median of their CPU
/// time (all threads).
pub const SETUP_ROUNDS: usize = 3;

/// Cache efficiency is a level that jumps at every eviction, so the
/// reported `cache_eff_pct` is the mean of samples taken every this many
/// requests over the quality window rather than one reading at its end.
pub const CACHE_EFF_EVERY: u64 = 64;

/// Equal time slices a measured phase is cut into (fewer when the phase
/// has fewer than `2 × SLICES × MIN_SLICE_SAMPLES` requests). Throughput
/// and latency percentiles are computed per slice and reported as the
/// mean of the middle slices ([`trimmed_mean`]), so a burst of outside
/// interference in a few slices does not move the result while slow
/// and fast stretches of the stream still average out.
pub const SLICES: usize = 20;

/// Requests a slice needs so that its p99 rests on at least 10 samples.
/// A full-scale run whose emptiest slice has fewer fails its checks.
pub const MIN_SLICE_SAMPLES: usize = 1000;

/// Mean of `values` after dropping the lowest and the highest fifth.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 5;
    measure::mean(&sorted[cut..sorted.len() - cut])
}

/// Seed of the repository every workload draws its jobs from. The
/// repository plays the site's software universe and stays fixed; the
/// job stream comes from `--seed`, so runs at different seeds differ in
/// their jobs, not in the packages those jobs are made of.
pub const REPO_SEED: u64 = 0x5f7_c0de;

/// `blocks` independent copies of one stream shape (`config.unique_jobs`
/// jobs × `config.repeats`, shuffled, as `generate_stream` makes them),
/// each from its own seed derived from `config.seed`. Served in order
/// and cycled, every block keeps the shape's distance between repeats,
/// so the request mix stays the same however long a run lasts.
pub fn block_stream(
    repo: &landlord_repo::Repository,
    config: &landlord_sim::WorkloadConfig,
    blocks: u64,
) -> Vec<landlord_core::spec::Spec> {
    (0..blocks)
        .flat_map(|block| {
            let block_config = landlord_sim::WorkloadConfig {
                seed: config.seed ^ (block << 40),
                ..*config
            };
            landlord_sim::workload::generate_stream(repo, &block_config)
        })
        .collect()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale in-memory engine, one client.
    Paper,
    /// Zipf-skewed stream on the sharded single-flight frontend.
    HotSharded,
    /// Durable cache directory on local disk, one client.
    Durable,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::HotSharded, Workload::Durable];

    /// The workloads `BENCHMARK.json` lists, in its order. `Durable` is
    /// left out: its times follow the disk's fsync latency (`NOTES.md`).
    pub const LISTED: [Workload; 2] = [Workload::Paper, Workload::HotSharded];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::HotSharded => "hot_sharded",
            Workload::Durable => "durable",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures; `Smoke` is a
/// seconds-long miniature of the same code path, for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A small configuration that completes quickly in a debug build.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase (split in two when traced).
    pub seconds: f64,
    /// Report per-layer rather than end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Scratch directory for the `durable` workload's cache directories.
    pub work_dir: PathBuf,
}

/// Set-up timings of one preparation of a workload (`drive` times
/// the whole set-up itself).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Repository generation.
    pub repo_s: f64,
    /// Request stream generation.
    pub stream_s: f64,
    /// Re-opening the durable cache directory (durable only).
    pub open_s: f64,
}

/// What users of the cache get out of the stream, over a workload's
/// quality window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Requests served without a build ÷ requests.
    pub hit_ratio: f64,
    /// Bytes written by merges and inserts ÷ bytes requested.
    pub write_amp: f64,
    /// Mean container efficiency, percent.
    pub container_eff_pct: f64,
    /// Mean cache efficiency over the window (sampled every
    /// [`CACHE_EFF_EVERY`] requests), percent.
    pub cache_eff_pct: f64,
}

/// The outcome of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time of the closed loop.
    pub elapsed_s: f64,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that returned an error or failed their output check.
    pub failed: u64,
    /// Timings of every request.
    pub samples: Vec<Sample>,
    /// Quality figures.
    pub quality: Quality,
    /// Per-layer values (traced phases only).
    pub layers: Vec<(&'static str, f64)>,
    /// Descriptions of failed requests (first few only).
    pub errors: Vec<String>,
}

impl Phase {
    /// Requests per CPU second of the clients, over the whole phase.
    pub fn req_per_cpu_s(&self) -> f64 {
        let cpu_ns: u64 = self.samples.iter().map(|s| s.cpu_ns).sum();
        ratio(1e9 * self.samples.len() as f64, cpu_ns as f64)
    }

    /// Record one request's timings.
    pub fn record(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// Note one failed request.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// What a workload provides to the common driver.
pub trait Bench {
    /// Everything the measured phase runs on.
    type State;

    /// Build the inputs from `seed` and bring the cache to its measured
    /// starting state.
    fn setup(cfg: &RunConfig) -> Result<(Self::State, SetupTimes), String>;

    /// Drive the closed loop for `seconds` (and at least the quality
    /// window); `traced` adds per-layer timing.
    fn measure(state: &mut Self::State, seconds: f64, traced: bool) -> Phase;

    /// Verify the outputs once the phase is over.
    fn check(state: Self::State, phase: &Phase) -> Result<(), String>;
}

/// The result of one invocation: the benchmark's last output line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Requests issued in the measured phase.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// `(name, value, unit)` for every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Value of a reported metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// The result line:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one invocation end to end.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    match cfg.workload {
        Workload::Paper => drive::<paper::Paper>(cfg),
        Workload::HotSharded => drive::<hot::HotSharded>(cfg),
        Workload::Durable => drive::<durable::Durable>(cfg),
    }
}

fn drive<B: Bench>(cfg: &RunConfig) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let (mut setup_cpu_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut reference = None;
    let mut measured = None;
    for round in 0..SETUP_ROUNDS {
        let (cpu, wall) = (measure::process_cpu_ns(), Instant::now());
        let (mut state, times) = B::setup(cfg)?;
        setup_cpu_s.push((measure::process_cpu_ns() - cpu) as f64 / 1e9);
        setup_wall_s.push(wall.elapsed().as_secs_f64());
        setups.push(times);
        if cfg.trace && round + 2 == SETUP_ROUNDS {
            // Untraced reference for the cost of tracing and for wall
            // figures, from an identical starting state.
            reference = Some(B::measure(&mut state, cfg.seconds / 2.0, false));
        }
        if round + 1 == SETUP_ROUNDS {
            let seconds = if cfg.trace {
                cfg.seconds / 2.0
            } else {
                cfg.seconds
            };
            let phase = B::measure(&mut state, seconds, cfg.trace);
            // Read before the check, whose replay is not part of serving.
            let peak_rss_mb = measure::peak_rss_mb();
            let check = B::check(state, &phase);
            measured = Some((phase, check, peak_rss_mb));
        }
    }
    let (phase, check, peak_rss_mb) = measured.expect("SETUP_ROUNDS >= 1");

    let slices = Slices::of(&phase);
    let cpu = slices.timing(
        |s| s.cpu_ns,
        |members, _| {
            let cpu_ns: u64 = members.iter().map(|s| s.cpu_ns).sum();
            ratio(1e9 * members.len() as f64, cpu_ns as f64)
        },
    );
    let wall = slices.timing(
        |s| s.wall_ns,
        |members, width_s| ratio(members.len() as f64, width_s),
    );
    let too_few = cfg.scale == Scale::Full && slices.fewest() < MIN_SLICE_SAMPLES;
    let fail_ratio = ratio(phase.failed as f64, phase.attempted as f64);
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let mut notes = vec![format!(
        "{} seed={} trace={} requests={} elapsed_s={:.3} slices={} \
         fewest_samples_per_slice={} above_p99_in_that_slice={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace,
        phase.attempted,
        phase.elapsed_s,
        slices.members.len(),
        slices.fewest(),
        slices.fewest() / 100
    )];
    notes.push(format!(
        "setup: cpu_s {setup_cpu_s:.3?} wall_s {setup_wall_s:.3?}"
    ));
    notes.push(format!("req_per_cpu_s by slice: {:.0?}", cpu.slice_rps));
    notes.push(format!(
        "wall clock: req_per_s {:.1} lat_us_p50 {:.1} lat_us_p99 {:.1}; by slice {:.0?}",
        wall.req_per_s, wall.p50_us, wall.p99_us, wall.slice_rps
    ));
    notes.extend(phase.errors.iter().map(|e| format!("failed request: {e}")));
    if let Err(problem) = &check {
        notes.push(format!("output check failed: {problem}"));
    }
    if too_few {
        notes.push(format!(
            "too few samples: a slice needs {MIN_SLICE_SAMPLES} for its p99; run longer"
        ));
    }

    let metrics: Vec<(&'static str, f64, &'static str)> = if cfg.trace {
        let mut values: Vec<(&'static str, f64)> = phase.layers.clone();
        values.push(("setup.repo_generate_s", setup_median(|s| s.repo_s)));
        values.push(("setup.stream_generate_s", setup_median(|s| s.stream_s)));
        values.push(("persist.open_s", setup_median(|s| s.open_s)));
        let reference = reference.unwrap_or_else(|| phase.clone());
        let untraced = Slices::of(&reference)
            .timing(|s| s.wall_ns, |m, width_s| ratio(m.len() as f64, width_s));
        values.push(("wall.req_per_s", untraced.req_per_s));
        values.push(("wall.lat_us_p50", untraced.p50_us));
        values.push(("wall.lat_us_p99", untraced.p99_us));
        values.push((
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(phase.req_per_cpu_s(), reference.req_per_cpu_s())),
        ));
        values.push(("fail_ratio", fail_ratio));
        catalog_values(PER_LAYER, &values)
    } else {
        let q = phase.quality;
        let values = [
            ("setup_s", median(&setup_cpu_s)),
            ("req_per_cpu_s", cpu.req_per_s),
            ("req_cpu_us_p50", cpu.p50_us),
            ("req_cpu_us_p99", cpu.p99_us),
            ("eff_req_per_cpu_s", cpu.req_per_s * q.hit_ratio),
            ("hit_ratio", q.hit_ratio),
            ("write_amp", q.write_amp),
            ("container_eff_pct", q.container_eff_pct),
            ("cache_eff_pct", q.cache_eff_pct),
            ("peak_rss_mb", peak_rss_mb),
            ("ok_ratio", 1.0 - fail_ratio),
        ];
        catalog_values(END_TO_END, &values)
    };
    for (name, value, unit) in &metrics {
        notes.push(format!("  {name:<30} {value:>14.4} {unit}"));
    }

    Ok(Report {
        correct: check.is_ok() && phase.failed == 0 && !too_few,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
        notes,
    })
}

/// A phase cut into equal wall-time slices by request completion.
struct Slices<'a> {
    members: Vec<Vec<&'a Sample>>,
    width_s: f64,
}

impl<'a> Slices<'a> {
    fn of(phase: &'a Phase) -> Self {
        // Twice the floor on average, so that slower slices keep it too.
        let count = (phase.samples.len() / (2 * MIN_SLICE_SAMPLES)).clamp(1, SLICES);
        let width_ns = (phase.elapsed_s * 1e9 / count as f64).max(1.0);
        let mut members = vec![Vec::new(); count];
        for sample in &phase.samples {
            let index = ((sample.done_ns as f64 / width_ns) as usize).min(count - 1);
            members[index].push(sample);
        }
        Slices {
            members,
            width_s: width_ns / 1e9,
        }
    }

    /// Requests in the emptiest slice.
    fn fewest(&self) -> usize {
        self.members.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Throughput (`rate` of each slice's samples) and latency (the
    /// `clock` reading of each sample) as trimmed means over the slices.
    fn timing(&self, clock: fn(&Sample) -> u64, rate: impl Fn(&[&Sample], f64) -> f64) -> Timing {
        let (mut rps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for members in &self.members {
            let mut lat: Vec<u64> = members.iter().map(|s| clock(s)).collect();
            lat.sort_unstable();
            rps.push(rate(members, self.width_s));
            p50.push(sorted_quantile(&lat, 0.50));
            p99.push(sorted_quantile(&lat, 0.99));
        }
        Timing {
            req_per_s: trimmed_mean(&rps),
            p50_us: trimmed_mean(&p50) / 1e3,
            p99_us: trimmed_mean(&p99) / 1e3,
            slice_rps: rps,
        }
    }
}

/// Throughput and latency of a phase on one clock.
struct Timing {
    req_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    /// Throughput of each slice.
    slice_rps: Vec<f64>,
}

/// Order `values` by `catalog`, filling names a workload never produced
/// with 0.
fn catalog_values(
    catalog: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    catalog
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, value, unit)
        })
        .collect()
}
