//! Golden-file tests pinning seeded `simulate` reports byte-identical.
//!
//! One fixed scenario (seeded repository, workload, byte limit) is run
//! through every policy token, with and without the fault model, and
//! the [`PolicyReport`] JSON is compared byte-for-byte against the
//! files in `tests/golden/`. Any change to planning, eviction, merge
//! accounting, or the fault loop that shifts a single counter fails
//! here first.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! BLESS_GOLDENS=1 cargo test -p landlord-sim --test golden_reports
//! ```

use landlord_core::cache::CacheConfig;
use landlord_core::policy::RetryPolicy;
use landlord_core::sizes::SizeModel;
use landlord_repo::{RepoConfig, Repository};
use landlord_sim::faults::FaultConfig;
use landlord_sim::simulator::{make_policy, simulate_policy, PolicyReport, POLICY_TOKENS};
use landlord_sim::workload::{generate_stream, WorkloadConfig, WorkloadScheme};
use std::path::PathBuf;
use std::sync::Arc;

fn scenario() -> (Repository, Vec<landlord_core::spec::Spec>, CacheConfig) {
    let repo = Repository::generate(&RepoConfig::small_for_tests(1234));
    let workload = WorkloadConfig {
        unique_jobs: 60,
        repeats: 3,
        max_initial_selection: 8,
        scheme: WorkloadScheme::DependencyClosure,
        seed: 7,
    };
    let stream = generate_stream(&repo, &workload);
    let cfg = CacheConfig {
        alpha: 0.75,
        limit_bytes: repo.total_bytes() / 3,
        ..CacheConfig::default()
    };
    (repo, stream, cfg)
}

fn fault_config() -> FaultConfig {
    FaultConfig {
        fail_per_mille: 250,
        seed: 99,
        retry: RetryPolicy::new(2, 1, 8),
    }
}

fn report(token: &str, faulted: bool) -> PolicyReport {
    let (repo, stream, cfg) = scenario();
    let sizes: Arc<dyn SizeModel> = Arc::new(repo.size_table());
    let mut policy = make_policy(token, cfg, sizes, repo.total_bytes()).expect("known token");
    let faults = faulted.then(fault_config);
    let run = simulate_policy(policy.as_mut(), &stream, 0, None, faults.as_ref());
    PolicyReport::from_run(token, &run)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Compare `rendered` with the golden file at `path`, or overwrite the
/// file under `BLESS_GOLDENS`.
fn check_golden(path: PathBuf, rendered: &str) {
    if std::env::var_os("BLESS_GOLDENS").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); regenerate with BLESS_GOLDENS=1")
    });
    assert_eq!(
        rendered, expected,
        "output drifted from {path:?}; if the change is intentional, \
         regenerate with BLESS_GOLDENS=1"
    );
}

#[test]
fn golden_reports_are_byte_identical() {
    for &token in POLICY_TOKENS {
        for faulted in [false, true] {
            let name = if faulted {
                format!("{token}-faults")
            } else {
                token.to_string()
            };
            let rendered = format!(
                "{}\n",
                serde_json::to_string_pretty(&report(token, faulted)).unwrap()
            );
            check_golden(golden_path(&name), &rendered);
        }
    }
}

/// Seeded goldens for the LANDLORD policy under every eviction policy,
/// including the stateful ones (S3-FIFO's queue rotation, sampled
/// LHD's seeded victim draws). Byte-identical files pin both the
/// eviction decisions and the RNG stream: a reordered queue op or an
/// extra `rng.next()` call shifts a victim and fails here first.
#[test]
fn eviction_golden_reports_are_byte_identical() {
    use landlord_core::policy::EvictionPolicy;
    for eviction in EvictionPolicy::ALL {
        // Eviction-heavy variant of the shared scenario: α=0 disables
        // merging, so many distinct images stay resident and victim
        // selection is exercised constantly with partial evictions.
        // (The α=0.75 scenario merges down to one image, making every
        // eviction forced and all seven policies byte-identical.)
        let (repo, stream, mut cfg) = scenario();
        cfg.alpha = 0.0;
        cfg.limit_bytes = repo.total_bytes() / 3;
        cfg.eviction = eviction;
        cfg.eviction_seed = 42;
        let sizes: Arc<dyn SizeModel> = Arc::new(repo.size_table());
        let mut policy =
            make_policy("landlord", cfg, sizes, repo.total_bytes()).expect("known token");
        let run = simulate_policy(policy.as_mut(), &stream, 0, None, None);
        let report = PolicyReport::from_run("landlord", &run);
        let rendered = format!("{}\n", serde_json::to_string_pretty(&report).unwrap());
        check_golden(
            golden_path(&format!("eviction-{}", eviction.token())),
            &rendered,
        );
    }
}

/// The eviction goldens again where a few hundred images stay
/// resident: α = 0 over 800 small closures (each about 8 % of the
/// repository) repeated three times, under a limit of 24 repositories.
/// About 280 images are resident when the sampled policies evict, so
/// their K seeded draws reach a fraction of them and the victims they
/// pick are pinned here; in the three-to-five-image scenario above the
/// draws reach every image and any K gives the same victims.
#[test]
fn crowded_eviction_golden_reports_are_byte_identical() {
    use landlord_core::policy::EvictionPolicy;
    let repo = Repository::generate(&RepoConfig::small_for_tests(1234));
    let workload = WorkloadConfig {
        unique_jobs: 800,
        repeats: 3,
        max_initial_selection: 3,
        scheme: WorkloadScheme::DependencyClosure,
        seed: 7,
    };
    let stream = generate_stream(&repo, &workload);
    for eviction in EvictionPolicy::ALL {
        let cfg = CacheConfig {
            alpha: 0.0,
            limit_bytes: 24 * repo.total_bytes(),
            eviction,
            eviction_seed: 42,
            ..CacheConfig::default()
        };
        let sizes: Arc<dyn SizeModel> = Arc::new(repo.size_table());
        let mut policy =
            make_policy("landlord", cfg, sizes, repo.total_bytes()).expect("known token");
        let run = simulate_policy(policy.as_mut(), &stream, 0, None, None);
        let report = PolicyReport::from_run("landlord", &run);
        let s = report.final_stats;
        assert!(
            s.image_count >= 200 && s.deletes >= 500,
            "{}: {} images resident after {} evictions; the scenario no \
             longer crowds the cache",
            eviction.token(),
            s.image_count,
            s.deletes
        );
        let rendered = format!("{}\n", serde_json::to_string_pretty(&report).unwrap());
        check_golden(
            golden_path(&format!("eviction-crowded-{}", eviction.token())),
            &rendered,
        );
    }
}

/// The eviction goldens must actually discriminate between policies —
/// if a scenario tweak ever collapses them back to one shared outcome,
/// the per-policy pins stop guarding anything interesting.
#[test]
fn eviction_goldens_diverge_across_policies() {
    use landlord_core::policy::EvictionPolicy;
    use std::collections::BTreeSet;
    let distinct: BTreeSet<String> = EvictionPolicy::ALL
        .iter()
        .map(|p| std::fs::read_to_string(golden_path(&format!("eviction-{}", p.token()))).unwrap())
        .collect();
    assert!(
        distinct.len() >= 4,
        "only {} distinct eviction goldens across 7 policies; the \
         scenario no longer exercises victim selection",
        distinct.len()
    );
}

/// The LANDLORD numbers in the goldens were captured from the
/// pre-refactor monolithic `ImageCache::request` path. Pinning them
/// here too means even a blessed regeneration cannot silently change
/// the engine's behavior on this scenario.
#[test]
fn landlord_goldens_match_the_pre_refactor_engine() {
    let plain = report("landlord", false);
    let s = plain.final_stats;
    assert_eq!(
        (s.requests, s.hits, s.merges, s.inserts, s.deletes),
        (180, 24, 127, 29, 28)
    );
    assert_eq!(s.bytes_written, 30_610_013_723);
    assert_eq!(s.total_bytes, 332_024_302);
    assert_eq!(s.image_count, 1);
    assert_eq!(plain.container_eff_milli, 60_957);
    assert_eq!(plain.cache_eff_milli, 100_000);

    let faulted = report("landlord", true);
    let s = faulted.final_stats;
    assert_eq!(
        (s.requests, s.hits, s.merges, s.inserts, s.deletes),
        (180, 25, 124, 31, 30)
    );
    assert_eq!(s.bytes_written, 29_577_446_183);
    assert_eq!(faulted.container_eff_milli, 62_300);
    let f = faulted.faults.expect("fault stats recorded");
    assert_eq!(f.failed_requests, 0);
    assert_eq!(f.faults, 49);
    assert_eq!(f.retries, 47);
    assert_eq!(f.wasted_bytes, 10_134_000_217);
    assert_eq!(f.degraded_inserts, 2);
}

/// Same pin for the baselines that existed before the refactor: the
/// Ledger rewrite must not move a single counter.
#[test]
fn baseline_goldens_match_the_pre_refactor_accounting() {
    let per_job = report("per-job", false);
    let s = per_job.final_stats;
    assert_eq!(
        (s.requests, s.hits, s.inserts, s.deletes),
        (180, 17, 163, 161)
    );
    assert_eq!(s.bytes_written, 18_535_863_049);
    assert_eq!(s.total_bytes, 197_472_344);
    assert_eq!(s.unique_bytes, 131_203_383);
    assert_eq!(s.image_count, 2);
    assert_eq!(per_job.container_eff_milli, 95_269);
    assert_eq!(per_job.cache_eff_milli, 66_441);

    let full = report("full-repo", false);
    let s = full.final_stats;
    assert_eq!((s.requests, s.hits, s.inserts), (180, 180, 1));
    assert_eq!(s.bytes_written, 999_999_999);
    assert_eq!(s.total_bytes, 999_999_999);
    assert_eq!(full.container_eff_milli, 10_861);
    assert_eq!(full.cache_eff_milli, 100_000);
}

/// The golden scenario with merge candidates pre-filtered by MinHash
/// and banded LSH (the paper's §V approximation), at both shapes the
/// `ablation-candidates` experiment runs, with and without the fault
/// model. The files were written when LSH was a candidate strategy
/// inside the engine; the driver must reproduce them.
#[test]
fn lsh_golden_reports_are_byte_identical() {
    use landlord_sim::lsh::LshCache;
    use landlord_sim::minhash::LshShape;
    for (bands, rows) in [(32usize, 4usize), (16, 8)] {
        for faulted in [false, true] {
            let (repo, stream, cfg) = scenario();
            let sizes: Arc<dyn SizeModel> = Arc::new(repo.size_table());
            let mut lsh = LshCache::new(cfg, sizes, LshShape { bands, rows });
            let faults = faulted.then(fault_config);
            let run = simulate_policy(&mut lsh, &stream, 0, None, faults.as_ref());
            let report = PolicyReport::from_run("landlord", &run);
            let suffix = if faulted { "-faults" } else { "" };
            check_golden(
                golden_path(&format!("minhash-lsh-{bands}x{rows}{suffix}")),
                &format!("{}\n", serde_json::to_string_pretty(&report).unwrap()),
            );
        }
    }
}

/// The smoke-scale `ablation-candidates` table at the CLI's default
/// seed, as `landlord experiment ablation-candidates --scale smoke`
/// prints it.
#[test]
fn ablation_candidates_smoke_table_is_byte_identical() {
    use landlord_sim::experiments::{self, ExperimentContext};
    let tables = experiments::run("ablation-candidates", &ExperimentContext::smoke(1)).unwrap();
    let rendered: String = tables.iter().map(|t| t.render()).collect();
    check_golden(
        golden_path("ablation-candidates-smoke").with_extension("txt"),
        &rendered,
    );
}
