//! Ablation studies on LANDLORD's design choices (DESIGN.md §5).
//!
//! The paper fixes LRU eviction, nearest-first merge ordering and exact
//! Jaccard scanning; these experiments vary each choice independently
//! at a fixed α to show how much each matters.

use super::ExperimentContext;
use crate::lsh::LshCache;
use crate::minhash::LshShape;
use crate::report::{fmt_count, fmt_tb, Table};
use crate::simulator::{self, RunResult};
use crate::sweep::AggregatedRun;
use crate::workload::{self, WorkloadConfig};
use landlord_core::cache::CacheConfig;
use landlord_core::policy::{DistanceMetric, EvictionPolicy, MergeOrder};
use std::sync::Arc;

/// The α the ablations hold fixed (the paper's recommended moderate
/// starting point, §VI "Tuning LANDLORD").
pub const ABLATION_ALPHA: f64 = 0.8;

/// Aggregate up to eight runs of `run`, one per workload seed, each
/// on the standard cache at the ablation α.
fn aggregate(
    ctx: &ExperimentContext,
    repo: &landlord_repo::Repository,
    run: impl Fn(&WorkloadConfig, CacheConfig) -> RunResult,
) -> AggregatedRun {
    let workload = ctx.standard_workload();
    let results: Vec<RunResult> = (0..ctx.runs().min(8))
        .map(|i| {
            let w = WorkloadConfig {
                seed: workload.seed + i as u64,
                ..workload
            };
            run(&w, ctx.standard_cache(repo, ABLATION_ALPHA))
        })
        .collect();
    AggregatedRun::from_runs(&results)
}

fn run_variant(
    ctx: &ExperimentContext,
    repo: &landlord_repo::Repository,
    mutate: impl Fn(&mut CacheConfig),
) -> AggregatedRun {
    aggregate(ctx, repo, |w, mut cfg| {
        mutate(&mut cfg);
        simulator::simulate(repo, w, cfg, 0)
    })
}

fn push_variant(t: &mut Table, name: &str, agg: &AggregatedRun) {
    t.push_row(vec![
        name.to_string(),
        fmt_count(agg.hits),
        fmt_count(agg.merges),
        fmt_count(agg.deletes),
        format!("{:.1}", agg.cache_eff_pct),
        format!("{:.1}", agg.container_eff_pct),
        fmt_tb(agg.bytes_written),
    ]);
}

const COLUMNS: [&str; 7] = [
    "variant",
    "hits",
    "merges",
    "deletes",
    "cache_eff",
    "container_eff",
    "written_TB",
];

/// Eviction-policy ablation.
pub fn eviction(ctx: &ExperimentContext) -> Table {
    let repo = ctx.repo();
    let mut t = Table::new(
        format!("Ablation — eviction policy at alpha={ABLATION_ALPHA}"),
        &COLUMNS,
    );
    for policy in EvictionPolicy::ALL {
        let agg = run_variant(ctx, &repo, |c| c.eviction = policy);
        push_variant(&mut t, policy.token(), &agg);
    }
    t
}

/// Merge-candidate-ordering ablation (Algorithm 1's "selection can be
/// sorted by dj()").
pub fn merge_order(ctx: &ExperimentContext) -> Table {
    let repo = ctx.repo();
    let mut t = Table::new(
        format!("Ablation — merge candidate order at alpha={ABLATION_ALPHA}"),
        &COLUMNS,
    );
    for order in [
        MergeOrder::NearestFirst,
        MergeOrder::ArrivalOrder,
        MergeOrder::LargestFirst,
        MergeOrder::SmallestFirst,
    ] {
        let agg = run_variant(ctx, &repo, |c| c.merge_order = order);
        push_variant(&mut t, order.token(), &agg);
    }
    t
}

/// Candidate-enumeration ablation: the engine's exact count vs
/// MinHash+LSH pre-filtering (§V's constant-time approximation), run
/// by [`LshCache`].
pub fn candidates(ctx: &ExperimentContext) -> Table {
    let repo = ctx.repo();
    let mut t = Table::new(
        format!("Ablation — candidate strategy at alpha={ABLATION_ALPHA}"),
        &COLUMNS,
    );
    let exact = run_variant(ctx, &repo, |_| {});
    push_variant(&mut t, "exact-scan", &exact);
    for (bands, rows) in [(32usize, 4usize), (16, 8)] {
        let agg = aggregate(ctx, &repo, |w, cfg| {
            let shape = LshShape { bands, rows };
            let mut lsh = LshCache::new(cfg, Arc::new(repo.size_table()), shape);
            simulator::simulate_policy(
                &mut lsh,
                &workload::generate_stream(&repo, w),
                0,
                None,
                None,
            )
        });
        push_variant(&mut t, &format!("lsh-{bands}x{rows}"), &agg);
    }
    t
}

/// Bloat-splitting ablation: the paper's configuration (no splitting,
/// bloat ages out via distance + LRU) against auto-split at several
/// merge-count thresholds. Splitting trades extra write I/O for
/// improved container efficiency (jobs run closer to what they asked
/// for).
pub fn split(ctx: &ExperimentContext) -> Table {
    let repo = ctx.repo();
    let mut t = Table::new(
        format!("Ablation — bloat splitting at alpha={ABLATION_ALPHA}"),
        &COLUMNS,
    );
    let agg = run_variant(ctx, &repo, |c| c.split_threshold = None);
    push_variant(&mut t, "no-split (paper)", &agg);
    for threshold in [4u64, 8, 16] {
        let agg = run_variant(ctx, &repo, |c| c.split_threshold = Some(threshold));
        push_variant(&mut t, &format!("split@{threshold}"), &agg);
    }
    t
}

/// Distance-metric ablation: the paper's package-count Jaccard vs the
/// byte-weighted variant. Byte weighting merges pairs whose *storage*
/// overlaps even when their package lists diverge, so it should trade
/// container efficiency for cache efficiency differently at the same α.
pub fn metric(ctx: &ExperimentContext) -> Table {
    let repo = ctx.repo();
    let mut t = Table::new(
        format!("Ablation — distance metric at alpha={ABLATION_ALPHA}"),
        &COLUMNS,
    );
    for m in [DistanceMetric::PackageCount, DistanceMetric::Bytes] {
        let agg = run_variant(ctx, &repo, |c| c.metric = m);
        push_variant(&mut t, m.token(), &agg);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_table_covers_all_policies() {
        let t = eviction(&ExperimentContext::smoke(31));
        assert_eq!(t.rows.len(), EvictionPolicy::ALL.len());
        let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(names.contains(&"lru"));
        assert!(names.contains(&"cost-density"));
        assert!(names.contains(&"gdsf"));
    }

    #[test]
    fn lsh_never_beats_exact_on_merges() {
        // LSH is a pre-filter with false negatives only, so it can only
        // find at most as many merge opportunities as the exact scan.
        let t = candidates(&ExperimentContext::smoke(37));
        let exact_merges: f64 = t.rows[0][2].parse().unwrap();
        for row in &t.rows[1..] {
            let merges: f64 = row[2].parse().unwrap();
            assert!(
                merges <= exact_merges + 1e-9,
                "LSH {merges} merges > exact {exact_merges}"
            );
        }
    }

    #[test]
    fn metric_table_shape() {
        let t = metric(&ExperimentContext::smoke(53));
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "package-count");
        assert_eq!(t.rows[1][0], "bytes");
    }

    #[test]
    fn merge_order_table_shape() {
        let t = merge_order(&ExperimentContext::smoke(41));
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.columns.len(), 7);
    }
}
