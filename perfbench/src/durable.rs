//! `durable`: one long-lived durable cache directory on local disk.
//!
//! A small repository with miniature file trees and one client calling
//! `PersistentCache::submit`. The flush policy is the default and stays
//! fixed: every acknowledgement fsyncs the image (builds) and an
//! appended WAL record, and a checkpoint folds the log every
//! `DEFAULT_CHECKPOINT_EVERY` records. Set-up pre-fills the directory
//! and re-opens it, so `setup_s` carries checkpoint load and WAL replay.
//!
//! `BENCHMARK.json` does not list this workload: its times follow the
//! fsync latency of the disk under the checkout, which on a shared
//! virtual disk moved by more than any bound allows (see `NOTES.md`).
//! It runs from the same command for the persist, store and WAL layers.

use crate::measure::{mean, quantile, ratio, Stopwatch};
use crate::{
    block_stream, Bench, Phase, Quality, RunConfig, Scale, SetupTimes, CACHE_EFF_EVERY, REPO_SEED,
};
use landlord_cli::persistent::{Decision, PersistOptions, PersistentCache};
use landlord_core::metrics::{cache_efficiency_pct, ContainerEfficiency};
use landlord_core::sizes::{SizeModel, TableSizes};
use landlord_core::spec::{PackageId, Spec};
use landlord_obs::{MetricsRegistry, MonotonicClock};
use landlord_repo::{RepoConfig, Repository};
use landlord_shrinkwrap::filetree::FileTreeConfig;
use landlord_shrinkwrap::Shrinkwrap;
use landlord_sim::{WorkloadConfig, WorkloadScheme};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Merge threshold.
pub const ALPHA: f64 = 0.75;

struct Params {
    repo: RepoConfig,
    /// One block of the stream (see [`block_stream`]).
    block: WorkloadConfig,
    /// Blocks in the stream.
    blocks: u64,
    /// Logical byte budget as a share of the repository.
    budget_share: f64,
    /// Submits made during set-up, before the re-open.
    warmup: usize,
    /// Timed requests the quality figures are computed over.
    quality_window: usize,
}

fn params(seed: u64, scale: Scale) -> Params {
    let block = |unique_jobs, repeats| WorkloadConfig {
        unique_jobs,
        repeats,
        max_initial_selection: 6,
        scheme: WorkloadScheme::DependencyClosure,
        seed,
    };
    match scale {
        Scale::Full => Params {
            repo: RepoConfig {
                package_count: 1000,
                total_bytes: 35_000_000_000,
                ..RepoConfig::sft_like(REPO_SEED)
            },
            block: block(60, 6),
            blocks: 16,
            budget_share: 0.5,
            warmup: 400,
            quality_window: 3000,
        },
        Scale::Smoke => Params {
            repo: RepoConfig::small_for_tests(REPO_SEED),
            block: block(20, 3),
            blocks: 2,
            budget_share: 0.5,
            warmup: 30,
            quality_window: 60,
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

/// Distinguishes the directories of successive set-ups in one process.
/// Each set-up's directory stays until the caller removes the work
/// directory (`run.py` does, after the run).
static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The workload's cache handle between set-up, measurement and check.
pub struct State {
    repo: Repository,
    sizes: TableSizes,
    stream: Vec<Spec>,
    requested: Vec<u64>,
    limit: u64,
    cache: PersistentCache,
    /// Submits made so far (set-up included); submit `i` is
    /// `stream[i % stream.len()]`.
    served: usize,
    quality_window: usize,
    dir: PathBuf,
}

fn options(limit: u64) -> PersistOptions {
    PersistOptions::new(ALPHA, limit, FileTreeConfig::miniature())
}

fn open(dir: &Path, limit: u64) -> Result<PersistentCache, String> {
    PersistentCache::open_with(dir, options(limit))
        .map_err(|e| format!("opening {}: {e}", dir.display()))
}

/// Marker type implementing [`Bench`] for this workload.
pub struct Durable;

impl Bench for Durable {
    type State = State;

    fn setup(cfg: &RunConfig) -> Result<(State, SetupTimes), String> {
        let p = params(cfg.seed, cfg.scale);
        let t = Instant::now();
        let repo = Repository::generate(&p.repo);
        let repo_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let stream = block_stream(&repo, &p.block, p.blocks);
        let stream_s = t.elapsed().as_secs_f64();
        let sizes = repo.size_table();
        let requested: Vec<u64> = stream.iter().map(|s| sizes.spec_bytes(s)).collect();
        let limit = (repo.total_bytes() as f64 * p.budget_share) as u64;

        let dir = cfg.work_dir.join(format!(
            "durable-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed) // sync: unique-name counter only
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut cache = open(&dir, limit)?;
        // A long-running site's object store already holds the files of
        // the packages its jobs use. Starting from an empty one, the
        // measured phase would spend its first seconds creating them: a
        // ramp, not the steady state.
        let every_package = Spec::from_ids((0..repo.package_count() as u32).map(PackageId));
        Shrinkwrap::new(&repo, cache.store(), FileTreeConfig::miniature())
            .build(&every_package, std::io::sink())
            .map_err(|e| format!("pre-filling the object store: {e}"))?;
        for (i, spec) in stream.iter().cycle().take(p.warmup).enumerate() {
            cache
                .submit(&repo, spec)
                .map_err(|e| format!("warm-up submit {i}: {e}"))?;
        }
        drop(cache);
        let t = Instant::now();
        let cache = open(&dir, limit)?;
        let open_s = t.elapsed().as_secs_f64();

        let state = State {
            repo,
            sizes,
            stream,
            requested,
            limit,
            cache,
            served: p.warmup,
            quality_window: p.quality_window,
            dir,
        };
        let times = SetupTimes {
            repo_s,
            stream_s,
            open_s,
        };
        Ok((state, times))
    }

    fn measure(state: &mut State, seconds: f64, traced: bool) -> Phase {
        let registry = MetricsRegistry::new(std::sync::Arc::new(MonotonicClock::new()));
        if traced {
            state.cache.attach_metrics(&registry);
        }
        let saves = registry.counter("persist.state_saves");
        let mut spans = Spans::default();
        let mut phase = Phase::default();
        let mut eff = ContainerEfficiency::new();
        let (mut hits, mut written, mut requested) = (0u64, 0u64, 0u64);
        let mut cache_eff = Vec::new();
        let window = state.quality_window;
        flush_writeback();
        let start = Instant::now();
        loop {
            let done = phase.attempted as usize;
            if done >= window && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let i = state.served % state.stream.len();
            let spec = &state.stream[i];
            let saves_before = saves.get();
            let watch = Stopwatch::start();
            let result = state.cache.submit(&state.repo, spec);
            let sample = watch.stop(start);
            phase.record(sample);
            state.served += 1;
            phase.attempted += 1;
            let decision = match result {
                Ok(decision) => decision,
                Err(e) => {
                    phase.fail(format!("submit of stream entry {i}: {e}"));
                    continue;
                }
            };
            let hit = matches!(decision, Decision::Hit { .. });
            if traced {
                spans.record(sample.wall_ns, hit, saves.get() > saves_before);
            }
            let Some(image_bytes) = served_image_bytes(state, &decision, spec) else {
                phase.fail(format!(
                    "stream entry {i}: {} is not an indexed superset image",
                    decision.image_path().display()
                ));
                continue;
            };
            if done < window {
                if (done as u64).is_multiple_of(CACHE_EFF_EVERY) {
                    cache_eff.push(cache_eff_pct(state));
                }
                hits += u64::from(hit);
                if !hit {
                    written += image_bytes;
                }
                requested += state.requested[i];
                eff.record(state.requested[i], image_bytes);
                if done + 1 == window {
                    phase.quality = Quality {
                        hit_ratio: ratio(hits as f64, window as f64),
                        write_amp: ratio(written as f64, requested as f64),
                        container_eff_pct: eff.mean_pct(),
                        cache_eff_pct: mean(&cache_eff),
                    };
                }
            }
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        if traced {
            phase.layers = spans.finish(&registry, &phase);
        }
        phase
    }

    fn check(state: State, _phase: &Phase) -> Result<(), String> {
        let State {
            cache, limit, dir, ..
        } = state;
        let expected = cache.state_report_json();
        drop(cache);
        check_reopened(&dir, limit, &expected)
    }
}

/// Re-open `dir` and compare it with the state the handle last held.
fn check_reopened(dir: &Path, limit: u64, expected: &str) -> Result<(), String> {
    let reopened = open(dir, limit)?;
    if !reopened.last_recovery().clean() {
        return Err(format!(
            "re-open had to recover: {:?}",
            reopened.last_recovery()
        ));
    }
    reopened
        .check_invariants()
        .map_err(|e| format!("check_invariants after re-open: {e}"))?;
    if reopened.state_report_json() != expected {
        return Err("re-opened directory does not hold the handle's last state".into());
    }
    Ok(())
}

/// Write back the page cache before timing starts. Set-up leaves
/// unsynced object files behind; without this, the first fsyncs of the
/// measured phase pay for flushing them and the first seconds run at a
/// fraction of the steady rate. Best effort: where `sync` is unavailable the phase just starts.
fn flush_writeback() {
    let _ = std::process::Command::new("sync").status();
}

/// Logical bytes of the image a decision served, if it is indexed and
/// satisfies `spec`.
fn served_image_bytes(state: &State, decision: &Decision, spec: &Spec) -> Option<u64> {
    let id: u64 = decision.image_path().file_stem()?.to_str()?.parse().ok()?;
    let img = state.cache.images().iter().find(|img| img.id == id)?;
    spec.is_subset(&img.spec)
        .then(|| state.sizes.spec_bytes(&img.spec))
}

/// Cache efficiency of the directory's current images.
fn cache_eff_pct(state: &State) -> f64 {
    let mut packages = BTreeSet::new();
    let mut total = 0u64;
    for img in state.cache.images() {
        total += state.sizes.spec_bytes(&img.spec);
        packages.extend(img.spec.iter());
    }
    let unique = packages
        .into_iter()
        .map(|p| state.sizes.package_size(p))
        .sum();
    cache_efficiency_pct(unique, total)
}

/// Submit spans of a traced phase, classified by decision and by
/// whether a checkpoint ran inside the call.
#[derive(Default)]
struct Spans {
    hit_ns: Vec<u64>,
    build_ns: Vec<u64>,
    ckpt_ns: Vec<u64>,
    covered_ns: u64,
}

impl Spans {
    fn record(&mut self, ns: u64, hit: bool, checkpointed: bool) {
        self.covered_ns += ns;
        match (checkpointed, hit) {
            (true, _) => self.ckpt_ns.push(ns),
            (false, true) => self.hit_ns.push(ns),
            (false, false) => self.build_ns.push(ns),
        }
    }

    fn finish(self, registry: &MetricsRegistry, phase: &Phase) -> Vec<(&'static str, f64)> {
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        let us = |samples: &[u64]| quantile(samples, 0.50) / 1e3;
        let elapsed_ns = phase.elapsed_s * 1e9;
        vec![
            ("persist.submit_hit_us", us(&self.hit_ns)),
            ("persist.submit_build_us", us(&self.build_ns)),
            ("persist.submit_ckpt_us", us(&self.ckpt_ns)),
            (
                "persist.filter_skip_ratio",
                ratio(counter("persist.filter_skips"), counter("persist.submits")),
            ),
            (
                "persist.bytes_per_build",
                ratio(
                    counter("persist.image_bytes_written"),
                    counter("persist.images_built"),
                ),
            ),
            // `store.obj_puts` counts only puts that stored a new object,
            // so every put call is one or the other.
            (
                "store.dedup_ratio",
                ratio(
                    counter("store.obj_dedup_hits"),
                    counter("store.obj_dedup_hits") + counter("store.obj_puts"),
                ),
            ),
            (
                "unaccounted_share",
                ratio(elapsed_ns - self.covered_ns as f64, elapsed_ns),
            ),
            // Every submit is timed.
            ("trace.attributed_share", 1.0),
        ]
    }
}
