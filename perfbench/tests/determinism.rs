//! Inputs and quality figures are functions of the seed alone.

mod common;

use perfbench::{durable, hot, paper, Scale, Workload};

#[test]
fn generated_inputs_are_identical_for_a_seed() {
    for inputs in [paper::inputs, hot::inputs, durable::inputs] {
        let (repo_a, stream_a) = inputs(7, Scale::Smoke);
        let (repo_b, stream_b) = inputs(7, Scale::Smoke);
        assert_eq!(stream_a, stream_b);
        assert_eq!(
            format!("{:?}", repo_a.packages()),
            format!("{:?}", repo_b.packages()),
            "repository differs between two generations at one seed"
        );
        assert_eq!(repo_a.graph().edge_count(), repo_b.graph().edge_count());
        let (_, other) = inputs(8, Scale::Smoke);
        assert_ne!(stream_a, other, "another seed must give other inputs");
    }
}

#[test]
fn quality_metrics_repeat_exactly_at_a_fixed_seed() {
    const QUALITY: [&str; 4] = [
        "hit_ratio",
        "write_amp",
        "container_eff_pct",
        "cache_eff_pct",
    ];
    for workload in [Workload::Paper, Workload::Durable] {
        let first = common::smoke(workload, 3, false);
        let second = common::smoke(workload, 3, false);
        for name in QUALITY {
            let (a, b) = (first.metric(name).unwrap(), second.metric(name).unwrap());
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} {name}: {a} then {b}",
                workload.name()
            );
            assert!(a > 0.0, "{} {name} is {a}", workload.name());
        }
    }
}

#[test]
fn a_second_seed_runs_clean() {
    for workload in Workload::ALL {
        for seed in [1, 2] {
            let report = common::smoke(workload, seed, false);
            assert!(
                report.correct,
                "{} seed {seed}: {:?}",
                workload.name(),
                report.notes
            );
            assert_eq!(report.failed, 0, "{} seed {seed}", workload.name());
            assert_eq!(report.metric("ok_ratio"), Some(1.0));
        }
    }
}
