//! The benchmark's own tests: a tiny pass of every workload in both
//! modes with every reply check passing, and exact repetition of the
//! direct replay's per-layer counts.

use perfbench::bench::{run, Options, END_TO_END, PER_LAYER};
use perfbench::replay::direct_replay;
use perfbench::workload::{Shape, Workload};

const TINY: Shape = Shape {
    customers: 20,
    orders: 3,
    cards: 2,
    clients: 2,
    workers: 2,
};

fn tiny(workload: Workload, trace: bool) -> Options {
    let mut opts = Options::new(workload, 7, 2.0, trace);
    opts.shape = TINY;
    opts.setups = 2;
    opts.max_per_client = 6;
    opts.replay = 12;
    opts
}

#[test]
fn tiny_end_to_end_pass_of_each_workload_checks_every_reply() {
    for workload in Workload::ALL {
        let mut report = Vec::new();
        let outcome = run(&tiny(workload, false), &mut report).unwrap();
        let report = String::from_utf8(report).unwrap();
        assert!(
            outcome.correct,
            "{}: {:?}\n{report}",
            workload.name(),
            outcome.failures
        );
        assert_eq!(outcome.failed, 0);
        assert_eq!(
            outcome.attempted,
            12,
            "{}: two clients, six requests each",
            workload.name()
        );
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END);
        assert!(
            outcome.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            outcome.metrics
        );
        assert!(outcome
            .json()
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0"));
    }
}

#[test]
fn tiny_traced_pass_of_each_workload_reports_every_layer_metric() {
    for workload in Workload::ALL {
        let mut report = Vec::new();
        let outcome = run(&tiny(workload, true), &mut report).unwrap();
        let report = String::from_utf8(report).unwrap();
        assert!(
            outcome.correct,
            "{}: {:?}\n{report}",
            workload.name(),
            outcome.failures
        );
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, PER_LAYER);
        assert!(report.contains("trace.overhead_share"), "{report}");
    }
}

#[test]
fn direct_replays_with_the_same_seed_give_identical_counts() {
    for workload in Workload::ALL {
        let a = direct_replay(workload, &TINY, 3, 16).unwrap();
        let b = direct_replay(workload, &TINY, 3, 16).unwrap();
        let counts = |r: &perfbench::replay::Replay| -> Vec<_> {
            r.records.iter().map(|x| x.counts.clone()).collect()
        };
        assert_eq!(counts(&a), counts(&b), "{}", workload.name());
        assert!(
            a.records.iter().all(|r| r.check.is_ok()),
            "{}",
            workload.name()
        );
        assert!(counts(&a).iter().any(|c| c.nodes_built > 0));
    }
}

#[test]
fn mixed_replay_writes_through_two_phase_commit() {
    let replay = direct_replay(Workload::ProfileMixed, &TINY, 5, 40).unwrap();
    let submits: Vec<_> = replay
        .records
        .iter()
        .filter(|r| r.counts.statements > 0)
        .collect();
    assert!(!submits.is_empty());
    for s in submits {
        // One UPDATE per database, journaled begin/prepared/decision/
        // committed records, both branches committed.
        assert_eq!(s.counts.statements, 2);
        assert_eq!(s.counts.commits, 2);
        assert_eq!(s.counts.aborts, 0);
    }
}

#[test]
fn result_line_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path)
        .unwrap()
        .split_whitespace()
        .collect::<String>();
    for trace in [false, true] {
        let mut sink = Vec::new();
        let outcome = run(&tiny(Workload::ProfileRead, trace), &mut sink).unwrap();
        for m in &outcome.metrics {
            let entry = format!("\"name\":\"{}\",\"unit\":\"{}\"", m.name, m.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
