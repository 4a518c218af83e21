//! Spec-level pinning of the parallel packet engine:
//!
//! * **Golden traces** — for shipped specs, `packet_sim_par` at
//!   `workers ∈ {1, 2, 4, 8}` reproduces the sequential `packet_sim`
//!   run bit for bit (trace, load vector, every shared metric).
//! * **Cross-shard determinism** — a dynamics spec (link failures +
//!   invalidation mid-run) renders byte-identical reports and metric
//!   streams at every worker count.
//!
//! CI runs this file twice: under the default test threading and with
//! `RUST_TEST_THREADS=1`, so scheduler interleaving differences cannot
//! hide nondeterminism.

use ww_scenario::{EngineReport, EngineSpec, Runner, ScenarioSpec, Sweep, SweepParam};

/// Re-targets a sharded spec at another worker count by the sweep's own
/// `workers` rule.
const WORKERS: Sweep = Sweep {
    param: SweepParam::Workers,
    values: Vec::new(),
};

fn load_spec(name: &str) -> ScenarioSpec {
    let path = format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// flash_crowd.json is shipped with the sequential engine; its parallel
/// twin must replay it exactly.
fn parallel_twin_of_flash_crowd() -> ScenarioSpec {
    let spec = load_spec("flash_crowd.json");
    let mut par = spec.clone();
    par.engine = match &spec.engine {
        EngineSpec::PacketSim { config } => EngineSpec::PacketSimPar {
            config: *config,
            workers: 4,
        },
        other => panic!("flash_crowd should be packet_sim, found {other:?}"),
    };
    par
}

fn run_smoke(spec: &ScenarioSpec) -> EngineReport {
    let report = Runner::new().smoke(true).run(spec).expect("spec runs");
    assert_eq!(report.rows.len(), 1, "unswept spec yields one row");
    report.rows.into_iter().next().unwrap().outcome
}

#[test]
fn flash_crowd_golden_trace_matches_sequential_at_1_2_4_8_workers() {
    let par = parallel_twin_of_flash_crowd();
    let seq = run_smoke(&ScenarioSpec {
        engine: par.engine.sequential_twin().expect("a sharded spec"),
        ..par.clone()
    });
    let seq_canon = seq.canonical();
    assert!(
        seq.trace.as_ref().is_some_and(|t| !t.is_empty()),
        "sequential run must produce a trace"
    );
    for workers in [1, 2, 4, 8] {
        let outcome = run_smoke(&WORKERS.apply(&par, workers as f64).expect("a sharded spec"));
        assert_eq!(
            outcome.canonical(),
            seq_canon,
            "flash_crowd workers={workers} diverges from sequential packet_sim"
        );
    }
}

#[test]
fn scaling_1m_golden_trace_matches_sequential_at_1_2_4_8_workers() {
    // The shipped million-node spec, shrunk by smoke mode to CI size —
    // same engine path, same resolution pipeline.
    let par = load_spec("scaling_1m_parallel.json");
    let seq = run_smoke(&ScenarioSpec {
        engine: par.engine.sequential_twin().expect("a sharded spec"),
        ..par.clone()
    });
    let seq_canon = seq.canonical();
    for workers in [1, 2, 4, 8] {
        let outcome = run_smoke(&WORKERS.apply(&par, workers as f64).expect("a sharded spec"));
        assert_eq!(
            outcome.canonical(),
            seq_canon,
            "scaling_1m workers={workers} diverges from sequential packet_sim"
        );
    }
}

/// A dynamics spec for the determinism gate: a converging parallel run
/// suffers a control-link failure, a heal, and a flash invalidation.
fn dynamics_spec() -> ScenarioSpec {
    ScenarioSpec::from_json(
        r#"{
          "name": "parallel-dynamics-determinism",
          "topology": {"kind": "k_ary", "arity": 3, "depth": 3},
          "workload": {
            "rates": {"kind": "leaf_only", "rate": 8.0},
            "doc_mix": {"kind": "shared_zipf", "docs": 6, "theta": 1.0}
          },
          "engine": {"kind": "packet_sim_par", "workers": 4},
          "termination": {"kind": "rounds", "max": 8},
          "seed": 424242,
          "events": {
            "recovery_threshold": 5.0,
            "schedule": [
              {"round": 2, "kind": "link_fail", "node": 1},
              {"round": 4, "kind": "link_heal", "node": 1},
              {"round": 5, "kind": "doc_update", "doc": 1}
            ]
          }
        }"#,
    )
    .expect("dynamics spec parses")
}

#[test]
fn dynamics_run_is_byte_identical_at_1_2_4_workers() {
    let base = dynamics_spec();
    let mut renders = Vec::new();
    let mut canons = Vec::new();
    for workers in [1, 2, 4] {
        let spec = WORKERS
            .apply(&base, workers as f64)
            .expect("a sharded spec");
        let report = Runner::new().run(&spec).expect("dynamics spec runs");
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.events.len(), 3, "all three events fire");
        assert!(
            row.events.iter().all(|m| m.accepted()),
            "packet_sim_par supports link failures and invalidation: {:?}",
            row.events
        );
        canons.push(row.outcome.canonical());
        renders.push(report.report);
    }
    assert_eq!(canons[0], canons[1], "metric stream differs at 2 workers");
    assert_eq!(canons[0], canons[2], "metric stream differs at 4 workers");
    assert_eq!(renders[0], renders[1], "report differs at 2 workers");
    assert_eq!(renders[0], renders[2], "report differs at 4 workers");
}

/// A full-grammar dynamics spec: churn, a workload shift, a publish,
/// an invalidation, and a link failure cycle, all on the parallel
/// packet engine.
fn churn_dynamics_spec() -> ScenarioSpec {
    ScenarioSpec::from_json(
        r#"{
          "name": "parallel-churn-determinism",
          "topology": {"kind": "k_ary", "arity": 3, "depth": 3},
          "workload": {
            "rates": {"kind": "leaf_only", "rate": 6.0},
            "doc_mix": {"kind": "shared_zipf", "docs": 6, "theta": 1.0}
          },
          "engine": {"kind": "packet_sim_par", "workers": 4},
          "termination": {"kind": "rounds", "max": 10},
          "seed": 777,
          "events": {
            "recovery_threshold": 5.0,
            "schedule": [
              {"round": 1, "kind": "node_join", "parent": 4, "rate": 24.0},
              {"round": 2, "kind": "link_fail", "node": 2},
              {"round": 3, "kind": "workload_shift",
               "doc_mix": {"kind": "shared_zipf", "docs": 9, "theta": 0.4}},
              {"round": 4, "kind": "doc_publish", "doc": 50, "origin": 7, "rate": 18.0},
              {"round": 5, "kind": "link_heal", "node": 2},
              {"round": 6, "kind": "node_leave", "node": 40},
              {"round": 7, "kind": "doc_update", "doc": 50}
            ]
          }
        }"#,
    )
    .expect("churn dynamics spec parses")
}

#[test]
fn churn_dynamics_accepted_and_byte_identical_to_sequential_at_1_2_4_workers() {
    // The tentpole claim at spec level: the packet engines honor the
    // full seven-kind event grammar, and the parallel engine replays
    // the sequential engine byte for byte while the world churns.
    let base = churn_dynamics_spec();
    let seq_report = Runner::new()
        .run(&ScenarioSpec {
            engine: base.engine.sequential_twin().expect("a sharded spec"),
            ..base.clone()
        })
        .expect("sequential churn spec runs");
    let seq_row = &seq_report.rows[0];
    assert_eq!(seq_row.events.len(), 7, "all seven events fire");
    assert!(
        seq_row.events.iter().all(|m| m.accepted()),
        "packet_sim accepts the full event grammar: {:?}",
        seq_row.events
    );
    let seq_canon = seq_row.outcome.canonical();
    // The sequential report header names a different engine; compare
    // everything below it.
    let seq_render: String = seq_report.report.lines().skip(1).collect();
    for workers in [1, 2, 4] {
        let spec = WORKERS
            .apply(&base, workers as f64)
            .expect("a sharded spec");
        let report = Runner::new().run(&spec).expect("churn spec runs");
        let row = &report.rows[0];
        assert!(
            row.events.iter().all(|m| m.accepted()),
            "packet_sim_par accepts the full event grammar: {:?}",
            row.events
        );
        assert_eq!(
            row.outcome.canonical(),
            seq_canon,
            "churn dynamics diverge from sequential at workers={workers}"
        );
        let render: String = report.report.lines().skip(1).collect();
        assert_eq!(
            render, seq_render,
            "rendered report diverges at workers={workers}"
        );
    }
}

/// The same spec with an adaptive-rebalancing block.
fn with_rebalance(spec: &ScenarioSpec, trigger: f64, gap: u64) -> ScenarioSpec {
    let mut out = spec.clone();
    out.rebalance = Some(ww_scenario::RebalanceConfig {
        trigger_imbalance: trigger,
        min_epoch_gap: gap,
    });
    out
}

#[test]
fn rebalancing_spec_is_byte_identical_to_static_partition() {
    // The spec-level determinism pin for adaptive rebalancing: the same
    // scenario with the block absent, eager, and conservative renders
    // identical canonical rows at several worker counts. Rebalancing is
    // an execution detail, not a semantic knob.
    let base = parallel_twin_of_flash_crowd();
    let static_canon = run_smoke(&base).canonical();
    for workers in [2, 4, 8] {
        for (trigger, gap) in [(1.05, 1), (1.5, 3)] {
            let spec = with_rebalance(
                &WORKERS
                    .apply(&base, workers as f64)
                    .expect("a sharded spec"),
                trigger,
                gap,
            );
            assert_eq!(
                run_smoke(&spec).canonical(),
                static_canon,
                "rebalance trigger={trigger} gap={gap} diverges at workers={workers}"
            );
        }
    }
}

#[test]
fn rebalancing_churn_spec_is_byte_identical_to_static_partition() {
    let base = churn_dynamics_spec();
    let report = Runner::new().run(&base).expect("churn spec runs");
    let static_canon = report.rows[0].outcome.canonical();
    let spec = with_rebalance(&base, 1.05, 1);
    let report = Runner::new()
        .run(&spec)
        .expect("rebalancing churn spec runs");
    assert!(
        report.rows[0].events.iter().all(|m| m.accepted()),
        "rebalancing must not disturb the event grammar: {:?}",
        report.rows[0].events
    );
    assert_eq!(
        report.rows[0].outcome.canonical(),
        static_canon,
        "churn + rebalancing diverges from the static partition"
    );
}

#[test]
fn rebalance_block_round_trips_and_rejects_bad_values() {
    let spec = with_rebalance(&parallel_twin_of_flash_crowd(), 1.2, 2);
    let parsed = ScenarioSpec::from_json(&spec.to_json()).expect("rebalance spec round-trips");
    assert_eq!(parsed, spec);

    let reject = |engine: &str, rebalance: &str, needle: &str| {
        let text = format!(
            r#"{{
              "name": "bad-rebalance",
              "topology": {{"kind": "star", "nodes": 8}},
              "workload": {{
                "rates": {{"kind": "uniform", "rate": 4.0}},
                "doc_mix": {{"kind": "shared_zipf", "docs": 4, "theta": 1.0}}
              }},
              "engine": {engine},
              "termination": {{"kind": "rounds", "max": 2}},
              "rebalance": {rebalance}
            }}"#
        );
        let err = ScenarioSpec::from_json(&text).expect_err("bad rebalance spec must not parse");
        let msg = err.to_string();
        assert!(
            msg.contains(needle),
            "error {msg:?} should mention {needle:?}"
        );
    };
    // Non-sharded engines have nothing to rebalance.
    reject(
        r#"{"kind": "packet_sim"}"#,
        r#"{"trigger_imbalance": 1.2}"#,
        "packet_sim_par",
    );
    // A sub-1 ratio or an empty window can never trigger meaningfully.
    reject(
        r#"{"kind": "packet_sim_par", "workers": 2}"#,
        r#"{"trigger_imbalance": 0.5}"#,
        "at least 1",
    );
    reject(
        r#"{"kind": "packet_sim_par", "workers": 2}"#,
        r#"{"trigger_imbalance": 1.2, "min_epoch_gap": 0}"#,
        "at least 1 epoch",
    );
    reject(
        r#"{"kind": "packet_sim_par", "workers": 2}"#,
        r#"{"trigger_imbalance": 1.2, "threshold": 3}"#,
        "threshold",
    );
}

#[test]
fn workers_sweep_runs_and_rows_agree() {
    // Sweeping the workers knob is the spec-level way to state the
    // determinism claim: every row of the sweep reports the same bits.
    let mut spec = parallel_twin_of_flash_crowd();
    spec.sweep = Some(ww_scenario::Sweep {
        param: ww_scenario::SweepParam::Workers,
        values: vec![1.0, 2.0, 8.0],
    });
    let report = Runner::new().smoke(true).run(&spec).expect("sweep runs");
    assert_eq!(report.rows.len(), 3);
    assert_eq!(report.rows[0].label, "workers=1");
    let first = report.rows[0].outcome.canonical();
    for row in &report.rows[1..] {
        assert_eq!(row.outcome.canonical(), first, "row {} diverges", row.label);
    }
}
