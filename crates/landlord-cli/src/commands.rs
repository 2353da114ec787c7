//! Subcommand implementations for the `landlord` binary.

use crate::args::Args;
use crate::persistent::PersistentCache;
use landlord_core::events::{SequencedEvent, SequencingSink};
use landlord_repo::sampler::{Sampler, SelectionScheme};
use landlord_repo::{persist, RepoConfig, Repository};
use landlord_shrinkwrap::filetree::FileTreeConfig;
use landlord_sim::experiments::{self, ExperimentContext, Scale};
use landlord_sim::report::{fmt_gb, fmt_pct, fmt_tb, Table};
use landlord_sim::{simulator, workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::path::Path;

/// Any command error (message already formatted for the user).
pub type CmdResult = Result<(), Box<dyn Error>>;

/// A command failure that carries a specific process exit code.
/// `landlord verify` uses the full contract: 0 = clean, 1 = damage was
/// found and repaired (the directory is consistent again), 2 =
/// unrecoverable. Plain errors keep the generic exit code 1.
#[derive(Debug)]
pub struct ExitStatus {
    /// The process exit code `main` should report.
    pub code: i32,
    message: String,
}

impl ExitStatus {
    /// Exit code 1: damage was found, repaired, and verified.
    pub fn recovered(message: impl Into<String>) -> Self {
        ExitStatus {
            code: 1,
            message: message.into(),
        }
    }

    /// Exit code 2: the directory cannot be restored to a trustworthy
    /// state automatically.
    pub fn unrecoverable(message: impl Into<String>) -> Self {
        ExitStatus {
            code: 2,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for ExitStatus {}

/// The process exit code a command result maps to: 0 for success, the
/// embedded [`ExitStatus`] code when one was raised, 1 otherwise.
pub fn exit_code(result: &CmdResult) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) => e.downcast_ref::<ExitStatus>().map_or(1, |s| s.code),
    }
}

/// Usage text.
pub const USAGE: &str = "\
landlord — specification-level container image management (LANDLORD, IPDPS 2020)

USAGE:
  landlord gen-repo   --out FILE [--packages N] [--total-gb G] [--seed S]
  landlord stats      --repo FILE
  landlord submit     --cache-dir DIR (--repo FILE | --seed S) [--select N]
                      [--alpha A] [--limit-gb G] [--job-seed S]
                      [--eviction E] [--eviction-seed S]
                      [--checkpoint-every N]
  landlord simulate   [--scale full|smoke] [--alpha A] [--cache-x M]
                      [--jobs N] [--repeats R] [--seed S] [--trace FILE]
                      [--policy P] [--eviction E] [--eviction-seed S]
                      [--merge-order O]
                      [--metric D] [--candidates C] [--report-json FILE]
                      [--metrics-json FILE] [--events-jsonl FILE]
                      [--fault-rate F] [--fault-seed S] [--retries N]
                      [--backoff-base T] [--backoff-cap T]
                      [--shards N] [--threads M]
  landlord serve      [--scale full|smoke] [--seed S] [--jobs N] [--repeats R]
                      [--zipf E] [--arrival A] [--mean-ticks T]
                      [--alpha A] [--cache-x M] [--shards N] [--threads M]
                      [--coalesce on|off] [--backpressure B] [--queue-cap N]
                      [--bytes-per-tick B] [--report-json FILE]
                      [--metrics-json FILE]
  landlord trace      --out FILE [--scale full|smoke] [--seed S]
  landlord experiment <id|all> [--scale full|smoke] [--seed S]
                      [--threads T] [--csv-dir DIR] [--plot-dir DIR]
  landlord spec-from  --repo FILE (--python F | --modules F | --joblog F)...
                      [--out SPEC.json]
  landlord verify     --cache-dir DIR [--repair yes] [--repo FILE | --seed S]
  landlord gc         --cache-dir DIR [--repo FILE | --seed S] [--prune yes]
  landlord help

Experiment ids: fig1 fig2 fig3 fig4 fig4a fig4b fig4c fig5 fig6a fig6b
fig6c fig6d fig7 fig8 ablation-evict ablation-merge-order
ablation-candidates ablation-split ablation-metric ext-cluster
ext-evict-sweep ext-usermix ext-update ext-faults

Simulate policies (--policy): landlord per-job full-repo layered
block-dedup. LANDLORD knobs: --eviction lru|lfu|largest-first|
cost-density|gdsf|s3-fifo|lhd-sample (--eviction-seed seeds
lhd-sample's victim sampling), --merge-order nearest-first|
arrival-order|largest-first|smallest-first, --metric
package-count|bytes, --candidates exact-scan|minhash-lsh:<bands>x<rows>.
--report-json FILE (or -) writes the machine-readable PolicyReport.
--metrics-json FILE (or -) exports a deterministic metrics snapshot
(landlord-obs-metrics/v1): counters, gauges, and logical-tick span
histograms that are byte-identical across runs at a fixed seed.
--events-jsonl FILE writes the sequenced cache-event journal as JSONL
(- streams it to stderr; stdout stays machine-parseable); landlord
policy only, without --shards/--threads.
--shards N partitions the cache into N independent shards and --threads M
replays the trace with M deterministic shard-affine workers (landlord
policy only, incompatible with --fault-rate).
serve runs the long-running server mode in deterministic virtual time:
an open-loop seeded load generator (--arrival poisson|uniform,
--mean-ticks gap) fires Zipf-skewed specs (--zipf exponent) at the
sharded cache; in-flight identical or subset-satisfiable specs
coalesce onto one build (--coalesce on|off), and a bounded admission
queue (--queue-cap) applies backpressure (--backpressure
block|reject). At a fixed seed the folded counters and the coalesce
ledger are byte-identical across runs and thread counts.
verify exits 0 when the cache directory was already clean, 1 when
crash damage was found and repaired, and 2 when the directory is
unrecoverable (or problems remain without --repair).
";

/// Parse an optional `--key token` flag via an enum's `parse`,
/// erroring with the full list of valid tokens.
fn token_flag<T>(
    args: &Args,
    key: &str,
    parse: impl Fn(&str) -> Option<T>,
    default: T,
    tokens: &str,
) -> Result<T, Box<dyn Error>> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => {
            parse(v).ok_or_else(|| format!("unknown --{key} {v:?} (valid: {tokens})").into())
        }
    }
}

/// Parse an optional float flag that must be finite and lie in
/// `[0, max]` (`max` may be infinite), erroring with the flag, the
/// value and the bound. Out-of-range values never reach a library
/// assert or a saturating byte-count cast.
fn float_flag(args: &Args, key: &str, default: f64, max: f64) -> Result<f64, Box<dyn Error>> {
    let v = args.get_parsed(key, default, "a number")?;
    if v.is_finite() && (0.0..=max).contains(&v) {
        return Ok(v);
    }
    let bound = if max.is_finite() {
        format!("in [0,{max}]")
    } else {
        "finite and non-negative".to_string()
    };
    Err(format!("--{key} {v} must be {bound}").into())
}

fn parse_scale(args: &Args) -> Result<Scale, Box<dyn Error>> {
    match args.get_or("scale", "smoke") {
        "full" => Ok(Scale::Full),
        "smoke" => Ok(Scale::Smoke),
        other => Err(format!("unknown --scale {other:?} (full|smoke)").into()),
    }
}

/// `landlord gen-repo`
pub fn gen_repo(args: &Args) -> CmdResult {
    let out = args.require("out")?;
    let seed = args.get_parsed("seed", 1u64, "an integer seed")?;
    let packages = args.get_parsed("packages", 9660usize, "a package count")?;
    let total_gb = args.get_parsed("total-gb", 700.0f64, "a size in GB")?;
    let cfg = RepoConfig {
        package_count: packages,
        total_bytes: (total_gb * 1e9) as u64,
        ..RepoConfig::sft_like(seed)
    };
    let repo = Repository::generate(&cfg);
    persist::save_json(&repo, Path::new(out))?;
    println!(
        "wrote {out}: {} packages, {} edges, {} GB",
        repo.package_count(),
        repo.graph().edge_count(),
        fmt_gb(repo.total_bytes() as f64)
    );
    Ok(())
}

/// `landlord stats`
pub fn stats(args: &Args) -> CmdResult {
    let repo = persist::load_json(Path::new(args.require("repo")?))?;
    let s = landlord_repo::stats::repo_stats(&repo);
    let mut t = Table::new("Repository statistics", &["metric", "value"]);
    t.push_row(vec!["packages".into(), s.package_count.to_string()]);
    t.push_row(vec![
        "products".into(),
        repo.catalog().product_count().to_string(),
    ]);
    t.push_row(vec!["edges".into(), s.edge_count.to_string()]);
    t.push_row(vec!["total GB".into(), fmt_gb(s.total_bytes as f64)]);
    t.push_row(vec!["max depth".into(), s.max_depth.to_string()]);
    t.push_row(vec![
        "mean fan-out".into(),
        format!("{:.2}", s.mean_fan_out),
    ]);
    t.push_row(vec!["max fan-in".into(), s.max_fan_in.to_string()]);
    t.push_row(vec![
        "median pkg MB".into(),
        format!("{:.1}", s.median_package_bytes as f64 / 1e6),
    ]);
    print!("{}", t.render());

    let mut h = Table::new(
        "Fan-in distribution (log buckets)",
        &["fan_in >=", "packages"],
    );
    for (lb, count) in landlord_repo::stats::fan_in_histogram(&repo).buckets() {
        h.push_row(vec![lb.to_string(), count.to_string()]);
    }
    print!("{}", h.render());

    let mut top = Table::new(
        "Most depended-upon packages",
        &["package", "layer", "fan_in"],
    );
    for (p, fan_in) in landlord_repo::stats::top_fan_in(&repo, 8) {
        let meta = repo.meta(p);
        top.push_row(vec![
            meta.spec_string(),
            meta.layer.to_string(),
            fan_in.to_string(),
        ]);
    }
    print!("{}", top.render());
    Ok(())
}

/// `landlord submit`
pub fn submit(args: &Args) -> CmdResult {
    let cache_dir = args.require("cache-dir")?;
    let alpha = float_flag(args, "alpha", 0.8, 1.0)?;
    let limit_gb = float_flag(args, "limit-gb", 1000.0, f64::INFINITY)?;
    let repo = match args.get("repo") {
        Some(path) => persist::load_json(Path::new(path))?,
        None => {
            let seed = args.get_parsed("seed", 1u64, "an integer seed")?;
            Repository::generate(&RepoConfig::small_for_tests(seed))
        }
    };
    let select = args.get_parsed("select", 3usize, "a selection size")?;
    let job_seed = args.get_parsed("job-seed", 7u64, "an integer seed")?;
    let checkpoint_every = args.get_parsed(
        "checkpoint-every",
        crate::persistent::DEFAULT_CHECKPOINT_EVERY,
        "a record count",
    )?;
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }

    // Draw a job: random selection expanded by its dependency closure —
    // exactly what a spec file generated from `pip imports` or `module
    // load` logs would contain.
    let sampler = Sampler::new(&repo);
    let mut rng = StdRng::seed_from_u64(job_seed);
    let seeds = sampler.sample_distinct(&mut rng, SelectionScheme::UniformRandom, select);
    let spec = repo.closure_spec(&seeds);

    let mut options = crate::persistent::PersistOptions::new(
        alpha,
        (limit_gb * 1e9) as u64,
        FileTreeConfig::miniature(),
    );
    options.checkpoint_every = checkpoint_every;
    {
        use landlord_core::policy::EvictionPolicy;
        options.eviction = token_flag(
            args,
            "eviction",
            EvictionPolicy::parse,
            EvictionPolicy::default(),
            EvictionPolicy::TOKENS,
        )?;
        options.eviction_seed = args.get_parsed("eviction-seed", 0u64, "an integer seed")?;
    }
    let mut cache = PersistentCache::open_with(Path::new(cache_dir), options)?;
    let decision = cache.submit(&repo, &spec)?;
    let verb = match &decision {
        crate::persistent::Decision::Hit { .. } => "HIT   ",
        crate::persistent::Decision::Merged { .. } => "MERGE ",
        crate::persistent::Decision::Inserted { .. } => "INSERT",
    };
    println!(
        "{verb} job({} pkgs, {} GB logical) -> {}",
        spec.len(),
        fmt_gb(spec.iter().map(|p| repo.meta(p).bytes).sum::<u64>() as f64),
        decision.image_path().display()
    );
    println!(
        "cache: {} images, {} GB logical",
        cache.images().len(),
        fmt_gb(cache.total_logical_bytes() as f64)
    );
    Ok(())
}

/// `landlord simulate`
pub fn simulate(args: &Args) -> CmdResult {
    let scale = parse_scale(args)?;
    let seed = args.get_parsed("seed", 1u64, "an integer seed")?;
    let alpha = float_flag(args, "alpha", 0.75, 1.0)?;
    let cache_x = float_flag(args, "cache-x", 2.0, f64::INFINITY)?;
    let ctx = ExperimentContext {
        scale,
        seed,
        threads: 1,
    };
    let repo = ctx.repo();
    let mut w = ctx.standard_workload();
    w.unique_jobs = args.get_parsed("jobs", w.unique_jobs, "a job count")?;
    w.repeats = args.get_parsed("repeats", w.repeats, "a repeat count")?;

    use landlord_core::policy::{CandidateStrategy, DistanceMetric, EvictionPolicy, MergeOrder};
    let cache = landlord_core::cache::CacheConfig {
        alpha,
        limit_bytes: (repo.total_bytes() as f64 * cache_x) as u64,
        eviction: token_flag(
            args,
            "eviction",
            EvictionPolicy::parse,
            EvictionPolicy::default(),
            EvictionPolicy::TOKENS,
        )?,
        merge_order: token_flag(
            args,
            "merge-order",
            MergeOrder::parse,
            MergeOrder::default(),
            MergeOrder::TOKENS,
        )?,
        metric: token_flag(
            args,
            "metric",
            DistanceMetric::parse,
            DistanceMetric::default(),
            DistanceMetric::TOKENS,
        )?,
        candidates: token_flag(
            args,
            "candidates",
            CandidateStrategy::parse,
            CandidateStrategy::default(),
            CandidateStrategy::TOKENS,
        )?,
        eviction_seed: args.get_parsed("eviction-seed", 0u64, "an integer seed")?,
        ..Default::default()
    };

    // The failure model: --fault-rate > 0 switches to the faulty
    // simulator, where merge/insert builds can fail and retry.
    let fault_rate = float_flag(args, "fault-rate", 0.0, 1.0)?;
    let fault_seed = args.get_parsed("fault-seed", seed ^ 0xfa, "an integer seed")?;
    let retries = args.get_parsed("retries", 0u32, "a retry count")?;
    let backoff_base = args.get_parsed("backoff-base", 4u64, "a tick count")?;
    let backoff_cap = args.get_parsed("backoff-cap", 32u64, "a tick count")?;

    // --trace FILE replays a recorded stream instead of generating one.
    let stream = match args.get("trace") {
        Some(path) => landlord_sim::trace::Trace::load(Path::new(path))?.requests,
        None => workload::generate_stream(&repo, &w),
    };
    let sizes: std::sync::Arc<dyn landlord_core::sizes::SizeModel> =
        std::sync::Arc::new(repo.size_table());
    let policy_token = args.get_or("policy", "landlord");
    let shards = args.get_parsed("shards", 1usize, "a shard count")?;
    let sim_threads = args.get_parsed("threads", 1usize, "a worker thread count")?;
    if shards == 0 || sim_threads == 0 {
        return Err("--shards and --threads must be at least 1".into());
    }
    let mut policy = simulator::make_policy(
        policy_token,
        cache,
        std::sync::Arc::clone(&sizes),
        repo.total_bytes(),
    )
    .ok_or_else(|| {
        format!(
            "unknown --policy {policy_token:?} (valid: {})",
            simulator::POLICY_TOKENS.join(", ")
        )
    })?;

    // --events-jsonl taps the landlord cache's event stream through a
    // sequencing sink; the sequenced journal is written after the run
    // (to a file, or to stderr with `-`) so stdout stays reserved for
    // the report table / JSON.
    let events_out = args.get("events-jsonl");
    let event_buf: Option<std::sync::Arc<std::sync::Mutex<Vec<SequencedEvent>>>> =
        if events_out.is_some() {
            if policy_token != "landlord" {
                return Err(format!(
                    "--events-jsonl supports only --policy landlord, got {policy_token:?}"
                )
                .into());
            }
            if shards > 1 || sim_threads > 1 {
                return Err(
                    "--events-jsonl cannot be combined with --shards/--threads (shards have \
                     no global event order)"
                        .into(),
                );
            }
            let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let sink_buf = std::sync::Arc::clone(&buf);
            let mut tapped =
                landlord_core::cache::ImageCache::new(cache, std::sync::Arc::clone(&sizes));
            tapped.set_sink(Box::new(SequencingSink::new(move |se: SequencedEvent| {
                // Single-threaded sink; tolerate a poisoned lock rather
                // than cascading a panic out of the cache's event path.
                let mut events = match sink_buf.lock() {
                    Ok(events) => events,
                    Err(poisoned) => poisoned.into_inner(),
                };
                events.push(se);
            })));
            policy = Box::new(tapped);
            Some(buf)
        } else {
            None
        };

    // --metrics-json records the run into a logical-clock registry:
    // every exported value is a pure function of the request stream,
    // so the snapshot is byte-identical across runs at a fixed seed.
    let metrics_out = args.get("metrics-json");
    let obs = metrics_out.map(|_| simulator::SimObs::deterministic());

    let (result, fault_stats) = if shards > 1 || sim_threads > 1 {
        if policy_token != "landlord" {
            return Err(format!(
                "--shards/--threads support only --policy landlord, got {policy_token:?}"
            )
            .into());
        }
        if fault_rate > 0.0 {
            return Err(
                "--fault-rate cannot be combined with --shards/--threads (the failure model \
                 replays single-threaded)"
                    .into(),
            );
        }
        let run = landlord_sim::sharded::simulate_stream_sharded_observed(
            &stream,
            cache,
            std::sync::Arc::clone(&sizes),
            shards,
            sim_threads,
            obs.as_ref().map(|o| &*o.registry),
        );
        (run, None)
    } else if fault_rate > 0.0 {
        let cfg = landlord_sim::faults::FaultConfig {
            fail_per_mille: (fault_rate * 1000.0).round() as u32,
            seed: fault_seed,
            retry: landlord_core::policy::RetryPolicy::new(retries, backoff_base, backoff_cap),
        };
        if let Some(o) = &obs {
            policy.attach_metrics(&o.registry);
        }
        let fr = landlord_sim::faults::simulate_policy_with_faults(policy.as_mut(), &stream, &cfg);
        if let Some(o) = &obs {
            fr.faults.record_metrics(&o.registry);
        }
        (fr.run, Some(fr.faults))
    } else {
        (
            simulator::simulate_policy_observed(policy.as_mut(), &stream, 0, obs.as_ref()),
            None,
        )
    };
    if let Some(out) = args.get("report-json") {
        let report = simulator::PolicyReport::from_run(policy_token, &result, fault_stats);
        let json = format!("{}\n", serde_json::to_string_pretty(&report)?);
        if out == "-" {
            print!("{json}");
        } else {
            std::fs::write(out, json)?;
            eprintln!("[report] {out}");
        }
    }
    if let (Some(out), Some(o)) = (metrics_out, &obs) {
        let json = o.registry.snapshot().to_json_pretty();
        if out == "-" {
            print!("{json}");
        } else {
            std::fs::write(out, json)?;
            eprintln!("[metrics] {out}");
        }
    }
    if let (Some(out), Some(buf)) = (events_out, &event_buf) {
        let events = match buf.lock() {
            Ok(events) => events,
            Err(poisoned) => poisoned.into_inner(),
        };
        let count = events.len();
        let mut body = String::with_capacity(count * 64);
        for se in events.iter() {
            body.push_str(&serde_json::to_string(se)?);
            body.push('\n');
        }
        // Release the event buffer before touching the filesystem.
        drop(events);
        if out == "-" {
            eprint!("{body}");
        } else {
            std::fs::write(out, body)?;
            eprintln!("[events] {out} ({count} events)");
        }
    }
    let s = result.final_stats;
    let mut t = Table::new(
        format!(
            "Simulation ({policy_token}, alpha={alpha}, cache={cache_x}x repo, {} requests)",
            s.requests
        ),
        &["metric", "value"],
    );
    t.push_row(vec!["hits".into(), s.hits.to_string()]);
    t.push_row(vec!["merges".into(), s.merges.to_string()]);
    t.push_row(vec!["inserts".into(), s.inserts.to_string()]);
    t.push_row(vec!["deletes".into(), s.deletes.to_string()]);
    t.push_row(vec!["cached GB".into(), fmt_gb(s.total_bytes as f64)]);
    t.push_row(vec!["unique GB".into(), fmt_gb(s.unique_bytes as f64)]);
    t.push_row(vec!["written TB".into(), fmt_tb(s.bytes_written as f64)]);
    t.push_row(vec![
        "requested TB".into(),
        fmt_tb(s.bytes_requested as f64),
    ]);
    t.push_row(vec!["cache eff %".into(), fmt_pct(result.cache_eff_pct)]);
    t.push_row(vec![
        "container eff %".into(),
        fmt_pct(result.container_eff_pct),
    ]);
    if shards > 1 || sim_threads > 1 {
        t.push_row(vec!["shards".into(), shards.to_string()]);
        t.push_row(vec!["worker threads".into(), sim_threads.to_string()]);
    }
    if let Some(f) = fault_stats {
        t.push_row(vec!["goodput %".into(), fmt_pct(f.goodput_pct())]);
        t.push_row(vec![
            "failed requests".into(),
            f.failed_requests.to_string(),
        ]);
        t.push_row(vec!["injected faults".into(), f.faults.to_string()]);
        t.push_row(vec!["retries".into(), f.retries.to_string()]);
        t.push_row(vec!["backoff ticks".into(), f.backoff_ticks.to_string()]);
        t.push_row(vec![
            "degraded inserts".into(),
            f.degraded_inserts.to_string(),
        ]);
        t.push_row(vec!["wasted TB".into(), fmt_tb(f.wasted_bytes as f64)]);
    }
    print!("{}", t.render());
    Ok(())
}

/// Everything `serve` needs to drive a run: the generated request
/// schedule, the cache configuration, and the size
/// model the shards consult.
type ServeSetup = (
    Vec<landlord_sim::ServeRequest>,
    landlord_core::cache::CacheConfig,
    std::sync::Arc<dyn landlord_core::sizes::SizeModel>,
);

/// Build the serve-mode workload.
fn serve_setup(args: &Args, ctx: &ExperimentContext) -> Result<ServeSetup, Box<dyn Error>> {
    use landlord_sim::serve::{generate_requests, ArrivalModel, ServeConfig};

    let alpha = float_flag(args, "alpha", 0.75, 1.0)?;
    let cache_x = float_flag(args, "cache-x", 2.0, f64::INFINITY)?;
    let zipf = float_flag(args, "zipf", 1.2, f64::INFINITY)?;
    let repo = ctx.repo();
    let mut w = ctx.standard_workload();
    w.unique_jobs = args.get_parsed("jobs", w.unique_jobs, "a job count")?;
    w.repeats = args.get_parsed("repeats", w.repeats, "a repeat count")?;
    let serve_config = ServeConfig {
        workload: w,
        zipf_exponent: zipf,
        arrival: token_flag(
            args,
            "arrival",
            ArrivalModel::parse,
            ArrivalModel::default(),
            ArrivalModel::TOKENS,
        )?,
        mean_interarrival_ticks: args.get_parsed("mean-ticks", 4u64, "a tick count")?,
    };
    let cache = landlord_core::cache::CacheConfig {
        alpha,
        limit_bytes: (repo.total_bytes() as f64 * cache_x) as u64,
        ..Default::default()
    };
    let sizes: std::sync::Arc<dyn landlord_core::sizes::SizeModel> =
        std::sync::Arc::new(repo.size_table());
    Ok((generate_requests(&repo, &serve_config), cache, sizes))
}

/// Parse the serve-loop options.
fn serve_options(args: &Args) -> Result<landlord_sim::ServeOptions, Box<dyn Error>> {
    use landlord_sim::serve::Backpressure;

    let defaults = landlord_sim::ServeOptions::default();
    Ok(landlord_sim::ServeOptions {
        coalesce: token_flag(
            args,
            "coalesce",
            |s| match s {
                "on" => Some(true),
                "off" => Some(false),
                _ => None,
            },
            true,
            "on|off",
        )?,
        backpressure: token_flag(
            args,
            "backpressure",
            Backpressure::parse,
            Backpressure::default(),
            Backpressure::TOKENS,
        )?,
        queue_cap: args.get_parsed("queue-cap", defaults.queue_cap, "a queue capacity")?,
        bytes_per_tick: args.get_parsed(
            "bytes-per-tick",
            defaults.bytes_per_tick,
            "a byte count",
        )?,
    })
}

/// `landlord serve`: run the open-loop server mode in virtual time and
/// report throughput, coalescing, backpressure, and latency quantiles.
pub fn serve(args: &Args) -> CmdResult {
    let scale = parse_scale(args)?;
    let seed = args.get_parsed("seed", 1u64, "an integer seed")?;
    let ctx = ExperimentContext {
        scale,
        seed,
        threads: 1,
    };
    let (requests, cache, sizes) = serve_setup(args, &ctx)?;
    let options = serve_options(args)?;
    let shards = args.get_parsed("shards", 4usize, "a shard count")?;
    let threads = args.get_parsed("threads", 2usize, "a worker thread count")?;
    if shards == 0 || threads == 0 {
        return Err("--shards and --threads must be at least 1".into());
    }

    let metrics_out = args.get("metrics-json");
    let obs = metrics_out.map(|_| simulator::SimObs::deterministic());
    let result = landlord_sim::serve_stream(
        &requests,
        cache,
        sizes,
        shards,
        threads,
        options,
        obs.as_ref().map(|o| &*o.registry),
    );
    let rep = &result.report;

    if let Some(out) = args.get("report-json") {
        let json = format!("{}\n", serde_json::to_string_pretty(rep)?);
        if out == "-" {
            print!("{json}");
        } else {
            std::fs::write(out, json)?;
            eprintln!("[report] {out}");
        }
    }
    if let (Some(out), Some(o)) = (metrics_out, &obs) {
        let json = o.registry.snapshot().to_json_pretty();
        if out == "-" {
            print!("{json}");
        } else {
            std::fs::write(out, json)?;
            eprintln!("[metrics] {out}");
        }
    }

    let s = rep.final_stats;
    let mut t = Table::new(
        format!(
            "Serve ({} arrivals, {} shards, {} threads, coalesce {})",
            rep.arrivals,
            shards,
            threads,
            if options.coalesce { "on" } else { "off" }
        ),
        &["metric", "value"],
    );
    t.push_row(vec!["served".into(), rep.served.to_string()]);
    t.push_row(vec!["coalesced".into(), rep.coalesce_hits.to_string()]);
    t.push_row(vec![
        "coalesce rate %".into(),
        fmt_pct(100.0 * rep.coalesce_hits as f64 / (rep.arrivals.max(1)) as f64),
    ]);
    t.push_row(vec!["rejected".into(), rep.rejected.to_string()]);
    t.push_row(vec!["block events".into(), rep.block_events.to_string()]);
    t.push_row(vec!["queue peak".into(), rep.queue_peak.to_string()]);
    t.push_row(vec![
        "latency p50 ticks".into(),
        rep.latency_ticks.p50.to_string(),
    ]);
    t.push_row(vec![
        "latency p99 ticks".into(),
        rep.latency_ticks.p99.to_string(),
    ]);
    t.push_row(vec!["hits".into(), s.hits.to_string()]);
    t.push_row(vec!["merges".into(), s.merges.to_string()]);
    t.push_row(vec!["inserts".into(), s.inserts.to_string()]);
    t.push_row(vec!["deletes".into(), s.deletes.to_string()]);
    t.push_row(vec![
        "cache eff %".into(),
        fmt_pct(rep.cache_eff_milli_pct as f64 / 1000.0),
    ]);
    t.push_row(vec![
        "container eff %".into(),
        fmt_pct(rep.container_eff_milli_pct as f64 / 1000.0),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// `landlord experiment`
pub fn experiment(args: &Args) -> CmdResult {
    let id = args
        .positional()
        .first()
        .ok_or("experiment needs an id (or 'all'); see `landlord help`")?
        .clone();
    let scale = parse_scale(args)?;
    let seed = args.get_parsed("seed", 1u64, "an integer seed")?;
    let threads = args.get_parsed("threads", 4usize, "a thread count")?;
    let ctx = ExperimentContext {
        scale,
        seed,
        threads,
    };

    let ids: Vec<&str> = if id == "all" {
        experiments::all_ids().to_vec()
    } else {
        vec![id.as_str()]
    };
    for id in ids {
        let tables = experiments::run(id, &ctx)
            .ok_or_else(|| format!("unknown experiment {id:?}; see `landlord help`"))?;
        for (k, table) in tables.iter().enumerate() {
            print!("{}", table.render());
            println!();
            let suffix = if tables.len() > 1 {
                format!("-{k}")
            } else {
                String::new()
            };
            if let Some(dir) = args.get("csv-dir") {
                std::fs::create_dir_all(dir)?;
                let path = Path::new(dir).join(format!("{id}{suffix}.csv"));
                std::fs::write(&path, table.to_csv())?;
                eprintln!("[csv] {}", path.display());
            }
            if let Some(dir) = args.get("plot-dir") {
                table.write_gnuplot(Path::new(dir), &format!("{id}{suffix}"))?;
                eprintln!("[gnuplot] {}/{id}{suffix}.gp", dir);
            }
        }
    }
    Ok(())
}

/// Generate a workload and save it as a trace file.
pub fn trace(args: &Args) -> CmdResult {
    let out = args.require("out")?;
    let scale = parse_scale(args)?;
    let seed = args.get_parsed("seed", 1u64, "an integer seed")?;
    let ctx = ExperimentContext {
        scale,
        seed,
        threads: 1,
    };
    let repo = ctx.repo();
    let w = ctx.standard_workload();
    let stream = workload::generate_stream(&repo, &w);
    let trace = landlord_sim::trace::Trace::new(
        format!("standard workload, scale={scale:?}, seed={seed}"),
        w.seed,
        stream,
    );
    trace.save(Path::new(out))?;
    println!("wrote {out}: {} requests", trace.len());
    Ok(())
}

/// `landlord spec-from` — infer a container specification from job
/// artifacts (the paper's §V analysis tools: Python imports, module
/// load directives, or access logs from previous runs).
pub fn spec_from(args: &Args) -> CmdResult {
    use landlord_specgen::{dedup_requirements, joblog, modules, python, resolve::Resolver};

    let repo = persist::load_json(Path::new(args.require("repo")?))?;
    let mut reqs = Vec::new();
    let mut any_source = false;
    if let Some(path) = args.get("python") {
        reqs.extend(python::scan(&std::fs::read_to_string(path)?));
        any_source = true;
    }
    if let Some(path) = args.get("modules") {
        reqs.extend(modules::scan(&std::fs::read_to_string(path)?));
        any_source = true;
    }
    if let Some(path) = args.get("joblog") {
        reqs.extend(joblog::scan(
            &std::fs::read_to_string(path)?,
            &joblog::LogFormat::default(),
        ));
        any_source = true;
    }
    if !any_source {
        return Err("spec-from needs at least one of --python/--modules/--joblog".into());
    }
    let reqs = dedup_requirements(reqs);
    println!(
        "extracted {} requirement(s): {}",
        reqs.len(),
        reqs.iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let resolver = Resolver::new(&repo);
    let (spec, unresolved) = resolver.resolve_to_closure(&reqs);
    for r in &unresolved {
        eprintln!("warning: unresolved requirement {r}");
    }
    println!(
        "specification: {} packages after dependency closure, {} GB",
        spec.len(),
        fmt_gb(spec.iter().map(|p| repo.meta(p).bytes).sum::<u64>() as f64)
    );
    if let Some(out) = args.get("out") {
        std::fs::write(out, serde_json::to_vec_pretty(&spec)?)?;
        println!("wrote {out}");
    }
    Ok(())
}

/// `landlord verify` — fsck a cache directory: every indexed image
/// must exist, parse as a valid LLIMG, and match its recorded sizes;
/// every object in the content store must match its hash. Opening runs
/// crash recovery (checkpoint load, WAL replay, artifact quarantine);
/// `--repair yes` additionally quarantines images whose LLIMG payload
/// is corrupt and (given `--repo`/`--seed`) prunes orphaned objects.
///
/// Exit codes: 0 — the directory was already clean; 1 — crash damage
/// was found, repaired, and the repaired directory verifies; 2 — the
/// directory cannot be restored automatically (unreadable checkpoint,
/// WAL sequence gap, or problems `--repair` did not fix).
pub fn verify(args: &Args) -> CmdResult {
    use landlord_shrinkwrap::ImageReader;
    use landlord_store::{ContentHash, ObjectStore};

    let cache_dir = std::path::PathBuf::from(args.require("cache-dir")?);
    let mut cache = PersistentCache::open(
        &cache_dir,
        0.8, // policy knobs are irrelevant to verification
        u64::MAX,
        FileTreeConfig::miniature(),
    )
    .map_err(|e| ExitStatus::unrecoverable(format!("cannot recover cache directory: {e}")))?;
    let recovery = cache.last_recovery();
    if !recovery.clean() {
        println!(
            "recovery: tmp-state {}, wal-tail {}, dropped {} missing image(s), quarantined {} image(s), removed {} object tmp(s)",
            if recovery.quarantined_tmp_state { "quarantined" } else { "clean" },
            if recovery.quarantined_wal_tail { "quarantined" } else { "clean" },
            recovery.dropped_missing_images,
            recovery.quarantined_images,
            recovery.removed_object_tmps,
        );
    }
    cache
        .check_invariants()
        .map_err(|e| ExitStatus::unrecoverable(format!("recovered state is inconsistent: {e}")))?;

    let mut repair_quarantined = 0usize;
    if args.get_or("repair", "no") == "yes" {
        let repo = if let Some(path) = args.get("repo") {
            Some(persist::load_json(Path::new(path))?)
        } else if args.get("seed").is_some() {
            let seed = args.get_parsed("seed", 1u64, "an integer seed")?;
            Some(Repository::generate(&RepoConfig::small_for_tests(seed)))
        } else {
            None
        };
        let report = cache.repair(repo.as_ref())?;
        println!(
            "repair: quarantined {} corrupt image(s), pruned {} orphaned object(s) ({} bytes)",
            report.quarantined_images, report.pruned_objects, report.pruned_bytes
        );
        repair_quarantined = report.quarantined_images;
    }

    let mut problems = 0usize;
    for img in cache.images() {
        let path = cache_dir.join("images").join(format!("{}.llimg", img.id));
        if !path.exists() {
            eprintln!("MISSING image file {}", path.display());
            problems += 1;
            continue;
        }
        let on_disk = std::fs::metadata(&path)?.len();
        if on_disk != img.physical_bytes {
            eprintln!(
                "SIZE mismatch {}: {} on disk vs {} recorded",
                path.display(),
                on_disk,
                img.physical_bytes
            );
            problems += 1;
        }
        match ImageReader::parse(std::fs::File::open(&path)?) {
            Ok(parsed) => {
                if parsed.is_empty() && !img.spec.is_empty() {
                    eprintln!("EMPTY image {} for non-empty spec", path.display());
                    problems += 1;
                }
            }
            Err(e) => {
                eprintln!("CORRUPT image {}: {e}", path.display());
                problems += 1;
            }
        }
    }

    let mut bad_objects = 0usize;
    for hash in cache.store().hashes() {
        match cache.store().get(hash)? {
            Some(data) if ContentHash::of(&data) == hash => {}
            Some(_) => {
                eprintln!("OBJECT hash mismatch {hash}");
                bad_objects += 1;
            }
            None => {
                eprintln!("OBJECT indexed but unreadable {hash}");
                bad_objects += 1;
            }
        }
    }

    println!(
        "verified {} images and {} objects: {} image problem(s), {} object problem(s)",
        cache.images().len(),
        cache.store().object_count(),
        problems,
        bad_objects
    );
    if problems + bad_objects > 0 {
        return Err(ExitStatus::unrecoverable(format!(
            "{} problem(s) found (rerun with --repair yes to quarantine)",
            problems + bad_objects
        ))
        .into());
    }
    if !recovery.clean() || repair_quarantined > 0 {
        return Err(ExitStatus::recovered(
            "crash damage was repaired; the cache directory is consistent again",
        )
        .into());
    }
    Ok(())
}

/// `landlord gc` — report (and with `--prune yes`, delete) objects in a
/// cache directory that no live image references. Evictions remove
/// image files but leave shared objects behind; this reclaims them.
pub fn gc(args: &Args) -> CmdResult {
    use landlord_store::ObjectStore;

    let cache_dir = std::path::PathBuf::from(args.require("cache-dir")?);
    let repo = match args.get("repo") {
        Some(path) => persist::load_json(Path::new(path))?,
        None => {
            let seed = args.get_parsed("seed", 1u64, "an integer seed")?;
            Repository::generate(&RepoConfig::small_for_tests(seed))
        }
    };
    let cache = PersistentCache::open(&cache_dir, 0.8, u64::MAX, FileTreeConfig::miniature())?;
    let orphans = cache.orphaned_objects(&repo);
    println!(
        "store: {} objects, {} KB; {} orphaned object(s)",
        cache.store().object_count(),
        cache.store().stored_bytes() / 1000,
        orphans.len()
    );
    if args.get_or("prune", "no") == "yes" {
        let (count, freed) = cache.prune(&repo)?;
        println!("pruned {count} object(s), freed {freed} bytes");
    } else if !orphans.is_empty() {
        println!("run with --prune yes to reclaim");
    }
    Ok(())
}

/// Dispatch a subcommand by name.
pub fn dispatch(cmd: &str, args: &Args) -> CmdResult {
    match cmd {
        "gen-repo" => gen_repo(args),
        "stats" => stats(args),
        "submit" => submit(args),
        "simulate" => simulate(args),
        "serve" => serve(args),
        "experiment" => experiment(args),
        "trace" => trace(args),
        "spec-from" => spec_from(args),
        "verify" => verify(args),
        "gc" => gc(args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = dispatch("frobnicate", &args(&[])).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn help_succeeds() {
        dispatch("help", &args(&[])).unwrap();
    }

    #[test]
    fn experiment_requires_id() {
        let err = experiment(&args(&["--scale", "smoke"])).unwrap_err();
        assert!(err.to_string().contains("needs an id"));
    }

    #[test]
    fn experiment_rejects_unknown_id() {
        let err = experiment(&args(&["fig99", "--scale", "smoke"])).unwrap_err();
        assert!(err.to_string().contains("unknown experiment"));
    }

    #[test]
    fn simulate_smoke_runs() {
        simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "10",
            "--repeats",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_metrics_json_is_byte_deterministic() {
        let dir = std::env::temp_dir().join(format!(
            "landlord-cli-metrics-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let run = |tag: &str| {
            let out = dir.join(format!("metrics-{tag}.json"));
            simulate(&args(&[
                "--scale",
                "smoke",
                "--jobs",
                "20",
                "--repeats",
                "2",
                "--metrics-json",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            std::fs::read(&out).unwrap()
        };
        let first = run("a");
        let second = run("b");
        assert!(!first.is_empty());
        assert_eq!(first, second, "metrics snapshot must be byte-identical");
        let text = String::from_utf8(first).unwrap();
        assert!(text.contains(landlord_obs::METRICS_SCHEMA));
        assert!(text.contains("core.plan_ticks"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_metrics_json_works_sharded_and_faulted() {
        let dir = std::env::temp_dir().join(format!(
            "landlord-cli-metrics-sf-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let sharded = dir.join("sharded.json");
        simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "20",
            "--repeats",
            "2",
            "--shards",
            "4",
            "--threads",
            "2",
            "--metrics-json",
            sharded.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&sharded).unwrap();
        assert!(text.contains("sharded.peek_possible"));

        let faulted = dir.join("faulted.json");
        simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "20",
            "--repeats",
            "2",
            "--fault-rate",
            "0.2",
            "--retries",
            "2",
            "--metrics-json",
            faulted.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&faulted).unwrap();
        assert!(text.contains("faults.requests"), "FaultStats must export");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_events_jsonl_writes_sequenced_events() {
        let dir = std::env::temp_dir().join(format!(
            "landlord-cli-events-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("events.jsonl");
        simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "15",
            "--repeats",
            "2",
            "--events-jsonl",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        let events: Vec<SequencedEvent> = body
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        assert!(!events.is_empty(), "a smoke run must emit events");
        for (i, se) in events.iter().enumerate() {
            assert_eq!(se.seq, i as u64, "seq numbers must be dense from 0");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_events_jsonl_rejects_sharded_and_foreign_policies() {
        let err = simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "5",
            "--shards",
            "2",
            "--threads",
            "2",
            "--events-jsonl",
            "x.jsonl",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--events-jsonl"));
        let err = simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "5",
            "--policy",
            "per-job",
            "--events-jsonl",
            "x.jsonl",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--policy landlord"));
    }

    #[test]
    fn gen_repo_and_stats_round_trip() {
        let path =
            std::env::temp_dir().join(format!("landlord-cli-repo-{}.json", std::process::id()));
        gen_repo(&args(&[
            "--out",
            path.to_str().unwrap(),
            "--packages",
            "300",
            "--total-gb",
            "1",
            "--seed",
            "3",
        ]))
        .unwrap();
        stats(&args(&["--repo", path.to_str().unwrap()])).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spec_from_end_to_end() {
        let dir = std::env::temp_dir().join(format!("landlord-specfrom-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let repo_path = dir.join("repo.json");
        gen_repo(&args(&[
            "--out",
            repo_path.to_str().unwrap(),
            "--packages",
            "300",
            "--total-gb",
            "1",
            "--seed",
            "3",
        ]))
        .unwrap();

        // Load a real package by name from the generated universe.
        let repo = persist::load_json(&repo_path).unwrap();
        let pkg = repo.meta(landlord_core::spec::PackageId(
            repo.package_count() as u32 - 1,
        ));
        let modules_path = dir.join("job.sh");
        std::fs::write(
            &modules_path,
            format!("#!/bin/bash\nmodule load {}/{}\n", pkg.name, pkg.version),
        )
        .unwrap();

        let out = dir.join("spec.json");
        spec_from(&args(&[
            "--repo",
            repo_path.to_str().unwrap(),
            "--modules",
            modules_path.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let spec: landlord_core::spec::Spec =
            serde_json::from_slice(&std::fs::read(&out).unwrap()).unwrap();
        assert!(spec.contains(pkg.id));
        assert!(spec.len() > 1, "closure expansion must have happened");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_from_requires_a_source() {
        let dir = std::env::temp_dir().join(format!("landlord-specfrom2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let repo_path = dir.join("repo.json");
        gen_repo(&args(&[
            "--out",
            repo_path.to_str().unwrap(),
            "--packages",
            "300",
            "--total-gb",
            "1",
            "--seed",
            "3",
        ]))
        .unwrap();
        let err = spec_from(&args(&["--repo", repo_path.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("at least one"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_smoke() {
        let dir = std::env::temp_dir().join(format!("landlord-cli-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        submit(&args(&[
            "--cache-dir",
            dir.to_str().unwrap(),
            "--seed",
            "5",
        ]))
        .unwrap();
        submit(&args(&[
            "--cache-dir",
            dir.to_str().unwrap(),
            "--seed",
            "5",
        ]))
        .unwrap();
        // A freshly submitted cache passes verification (exit 0)…
        let clean = verify(&args(&["--cache-dir", dir.to_str().unwrap()]));
        assert_eq!(exit_code(&clean), 0, "{clean:?}");
        // …and deep-corrupting an image file fails it as unrecoverable
        // (exit 2) until repaired. (Same length: anything shorter is a
        // torn write that open-time recovery quarantines on its own.)
        let images: Vec<_> = std::fs::read_dir(dir.join("images"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(!images.is_empty());
        let len = std::fs::metadata(&images[0]).unwrap().len() as usize;
        std::fs::write(&images[0], vec![0x5a; len]).unwrap();
        let found = verify(&args(&["--cache-dir", dir.to_str().unwrap()]));
        assert_eq!(exit_code(&found), 2);
        assert!(found.unwrap_err().to_string().contains("problem"));
        // --repair quarantines the corrupt image and prunes the objects
        // it orphaned: exit 1 (repaired), then exit 0 (clean again).
        let repaired = verify(&args(&[
            "--cache-dir",
            dir.to_str().unwrap(),
            "--repair",
            "yes",
            "--seed",
            "5",
        ]));
        assert_eq!(exit_code(&repaired), 1, "{repaired:?}");
        let clean = verify(&args(&["--cache-dir", dir.to_str().unwrap()]));
        assert_eq!(exit_code(&clean), 0, "{clean:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_with_faults_runs_and_degrades() {
        simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "10",
            "--repeats",
            "2",
            "--fault-rate",
            "0.2",
            "--fault-seed",
            "9",
            "--retries",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_runs_every_policy_token() {
        for token in landlord_sim::simulator::POLICY_TOKENS {
            simulate(&args(&[
                "--scale",
                "smoke",
                "--jobs",
                "4",
                "--repeats",
                "1",
                "--policy",
                token,
            ]))
            .unwrap_or_else(|e| panic!("--policy {token} failed: {e}"));
        }
    }

    #[test]
    fn simulate_rejects_unknown_policy_listing_tokens() {
        let err = simulate(&args(&["--scale", "smoke", "--policy", "zfs"])).unwrap_err();
        let msg = err.to_string();
        for token in landlord_sim::simulator::POLICY_TOKENS {
            assert!(msg.contains(token), "error {msg:?} must list {token}");
        }
    }

    #[test]
    fn simulate_rejects_unknown_knob_tokens_listing_valid_ones() {
        use landlord_core::policy::{
            CandidateStrategy, DistanceMetric, EvictionPolicy, MergeOrder,
        };
        for (flag, tokens) in [
            ("eviction", EvictionPolicy::TOKENS),
            ("merge-order", MergeOrder::TOKENS),
            ("metric", DistanceMetric::TOKENS),
            ("candidates", CandidateStrategy::TOKENS),
        ] {
            let flag_arg = format!("--{flag}");
            let err =
                simulate(&args(&["--scale", "smoke", flag_arg.as_str(), "bogus"])).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(flag), "{msg:?} must name --{flag}");
            assert!(msg.contains(tokens), "{msg:?} must list {tokens:?}");
        }
    }

    #[test]
    fn simulate_rejects_degenerate_lsh_shapes_listing_tokens() {
        // Regression: `minhash-lsh:0x4` / `4x0` describe an index with
        // no band hashing at all and must fail parsing like any other
        // bad token, not construct a degenerate index.
        use landlord_core::policy::CandidateStrategy;
        for bad in ["minhash-lsh:0x4", "minhash-lsh:4x0", "minhash-lsh:junk"] {
            let err = simulate(&args(&["--scale", "smoke", "--candidates", bad])).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("candidates"), "{msg:?} must name --candidates");
            assert!(
                msg.contains(CandidateStrategy::TOKENS),
                "{msg:?} must list the valid tokens"
            );
        }
    }

    #[test]
    fn simulate_sharded_smoke_runs_and_reports() {
        let path = std::env::temp_dir().join(format!(
            "landlord-cli-sharded-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "12",
            "--repeats",
            "2",
            "--shards",
            "4",
            "--threads",
            "2",
            "--report-json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let report: landlord_sim::simulator::PolicyReport =
            serde_json::from_slice(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(report.policy, "landlord");
        assert_eq!(report.final_stats.requests, 24);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_sharded_rejects_unsupported_combinations() {
        let err = simulate(&args(&[
            "--scale", "smoke", "--shards", "2", "--policy", "per-job",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("landlord"), "{err}");

        let err = simulate(&args(&[
            "--scale",
            "smoke",
            "--shards",
            "2",
            "--fault-rate",
            "0.5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("fault-rate"), "{err}");

        let err = simulate(&args(&["--scale", "smoke", "--shards", "0"])).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn simulate_gdsf_and_lsh_knobs_run() {
        simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "6",
            "--repeats",
            "1",
            "--eviction",
            "gdsf",
            "--merge-order",
            "smallest-first",
            "--metric",
            "bytes",
            "--candidates",
            "minhash-lsh:16x4",
        ]))
        .unwrap();
    }

    /// Snapshot of the `--eviction` rejection message: an unknown
    /// token must list every valid policy, including the stateful
    /// ones, by exact token.
    #[test]
    fn simulate_unknown_eviction_error_names_every_policy_token() {
        let err = simulate(&args(&["--scale", "smoke", "--eviction", "clock"])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--eviction"), "{msg:?} must name the flag");
        for token in [
            "lru",
            "lfu",
            "largest-first",
            "cost-density",
            "gdsf",
            "s3-fifo",
            "lhd-sample",
        ] {
            assert!(msg.contains(token), "{msg:?} must list {token}");
        }
    }

    #[test]
    fn simulate_stateful_eviction_policies_run_plain_and_sharded() {
        for token in ["s3-fifo", "lhd-sample"] {
            simulate(&args(&[
                "--scale",
                "smoke",
                "--jobs",
                "8",
                "--repeats",
                "2",
                "--cache-x",
                "0.5",
                "--eviction",
                token,
                "--eviction-seed",
                "11",
            ]))
            .unwrap_or_else(|e| panic!("--eviction {token} failed: {e}"));
            simulate(&args(&[
                "--scale",
                "smoke",
                "--jobs",
                "8",
                "--repeats",
                "2",
                "--cache-x",
                "0.5",
                "--eviction",
                token,
                "--shards",
                "2",
                "--threads",
                "2",
            ]))
            .unwrap_or_else(|e| panic!("--eviction {token} sharded failed: {e}"));
        }
    }

    /// `submit --eviction s3-fifo` drives the persistent cache under
    /// the stateful policy end to end, and the directory still
    /// verifies clean afterwards.
    #[test]
    fn submit_with_stateful_eviction_verifies_clean() {
        for token in ["s3-fifo", "lhd-sample"] {
            let dir = std::env::temp_dir()
                .join(format!("landlord-cli-cache-{token}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            for job_seed in ["7", "8", "7"] {
                submit(&args(&[
                    "--cache-dir",
                    dir.to_str().unwrap(),
                    "--seed",
                    "5",
                    "--job-seed",
                    job_seed,
                    "--limit-gb",
                    "0.02",
                    "--eviction",
                    token,
                ]))
                .unwrap_or_else(|e| panic!("submit --eviction {token} failed: {e}"));
            }
            let clean = verify(&args(&["--cache-dir", dir.to_str().unwrap()]));
            assert_eq!(exit_code(&clean), 0, "{token}: {clean:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn simulate_report_json_round_trips() {
        let path = std::env::temp_dir().join(format!(
            "landlord-cli-report-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "5",
            "--repeats",
            "1",
            "--policy",
            "per-job",
            "--fault-rate",
            "0.2",
            "--retries",
            "1",
            "--report-json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let report: landlord_sim::simulator::PolicyReport =
            serde_json::from_slice(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(report.policy, "per-job");
        let faults = report.faults.expect("faulted run records fault stats");
        assert_eq!(
            report.final_stats.requests + faults.failed_requests,
            5,
            "every request is either served or recorded as failed"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_smoke_runs_and_report_json_is_byte_deterministic() {
        let dir = std::env::temp_dir().join(format!(
            "landlord-cli-serve-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let run = |tag: &str, threads: &str| {
            let out = dir.join(format!("serve-{tag}.json"));
            serve(&args(&[
                "--scale",
                "smoke",
                "--jobs",
                "20",
                "--repeats",
                "2",
                "--threads",
                threads,
                "--report-json",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            std::fs::read(&out).unwrap()
        };
        let first = run("a", "2");
        let second = run("b", "2");
        assert!(!first.is_empty());
        assert_eq!(first, second, "serve report must be byte-identical");
        // The report survives a different virtual thread count too.
        let other_threads = run("c", "4");
        assert_eq!(first, other_threads, "thread count leaked into the report");
        let report: landlord_sim::ServeReport = serde_json::from_slice(&first).unwrap();
        assert!(report.arrivals > 0);
        assert_eq!(
            report.served + report.coalesce_hits + report.rejected,
            report.arrivals
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Snapshot of the serve-flag rejection messages: unknown tokens
    /// must name the flag and list every valid token.
    #[test]
    fn serve_rejects_unknown_tokens_listing_valid_ones() {
        use landlord_sim::serve::{ArrivalModel, Backpressure};
        for (flag, bad, tokens) in [
            ("arrival", "exponential", ArrivalModel::TOKENS),
            ("backpressure", "drop", Backpressure::TOKENS),
            ("coalesce", "maybe", "on|off"),
        ] {
            let flag_arg = format!("--{flag}");
            let err = serve(&args(&["--scale", "smoke", flag_arg.as_str(), bad])).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(flag), "{msg:?} must name --{flag}");
            assert!(msg.contains(tokens), "{msg:?} must list {tokens:?}");
            assert!(msg.contains(bad), "{msg:?} must echo the bad token");
        }
    }

    #[test]
    fn serve_rejects_degenerate_counts() {
        let err = serve(&args(&["--scale", "smoke", "--shards", "0"])).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let err = serve(&args(&["--scale", "smoke", "--zipf", "-2"])).unwrap_err();
        assert!(err.to_string().contains("non-negative"), "{err}");
    }

    #[test]
    fn serve_backpressure_reject_reports_rejections() {
        let out = std::env::temp_dir().join(format!(
            "landlord-cli-serve-rej-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        serve(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "20",
            "--repeats",
            "2",
            "--backpressure",
            "reject",
            "--queue-cap",
            "0",
            "--bytes-per-tick",
            "8",
            "--report-json",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let report: landlord_sim::ServeReport =
            serde_json::from_slice(&std::fs::read(&out).unwrap()).unwrap();
        assert!(report.rejected > 0, "queue-cap 0 under load must reject");
        assert_eq!(report.retry_after_ticks.count, report.rejected);
        std::fs::remove_file(&out).ok();
    }

    /// Run `cmd` with `--flag value` appended to `base` and assert it
    /// fails with exit code 1 and an error naming the flag: an
    /// out-of-range float never panics in a library assert or
    /// saturates into a 0-byte budget.
    fn assert_float_refused(cmd: fn(&Args) -> CmdResult, base: &[&str], flag: &str, value: &str) {
        let flag_arg = format!("--{flag}");
        let mut toks = base.to_vec();
        toks.extend([flag_arg.as_str(), value]);
        let result = cmd(&args(&toks));
        assert_eq!(exit_code(&result), 1, "{flag_arg} {value}: {result:?}");
        let msg = result.unwrap_err().to_string();
        assert!(msg.contains(&flag_arg), "{msg:?} must name {flag_arg}");
    }

    #[test]
    fn submit_refuses_out_of_range_alpha_and_limit() {
        let dir = std::env::temp_dir().join(format!(
            "landlord-cli-badfloat-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let base = ["--cache-dir", dir.to_str().unwrap(), "--seed", "5"];
        for (flag, value) in [
            ("alpha", "1.5"),
            ("alpha", "NaN"),
            ("limit-gb", "-5"),
            ("limit-gb", "inf"),
        ] {
            assert_float_refused(submit, &base, flag, value);
        }
        assert!(!dir.exists(), "a refused submit must not create the cache");
    }

    #[test]
    fn simulate_refuses_out_of_range_alpha_and_cache_x() {
        let base = ["--scale", "smoke", "--jobs", "4", "--repeats", "1"];
        for (flag, value) in [("alpha", "2"), ("alpha", "nan"), ("cache-x", "-1")] {
            assert_float_refused(simulate, &base, flag, value);
        }
    }

    #[test]
    fn serve_refuses_out_of_range_alpha_and_cache_x() {
        let base = ["--scale", "smoke", "--jobs", "4", "--repeats", "1"];
        for (flag, value) in [("alpha", "3"), ("alpha", "nan"), ("cache-x", "-1")] {
            assert_float_refused(serve, &base, flag, value);
        }
    }

    #[test]
    fn simulate_rejects_bad_fault_rate() {
        let err = simulate(&args(&[
            "--scale",
            "smoke",
            "--jobs",
            "4",
            "--repeats",
            "1",
            "--fault-rate",
            "1.5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("must be in [0,1]"));
    }
}

#[cfg(test)]
mod trace_replay_tests {
    use super::*;

    fn args(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn trace_record_then_replay() {
        let dir = std::env::temp_dir().join(format!("landlord-trace-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.json");
        trace(&args(&[
            "--out",
            path.to_str().unwrap(),
            "--scale",
            "smoke",
            "--seed",
            "3",
        ]))
        .unwrap();
        simulate(&args(&[
            "--scale",
            "smoke",
            "--seed",
            "3",
            "--trace",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
