//! Spec-level pinning of the distributed packet engine: a
//! `packet_sim_dist` run — shards in worker processes or threads
//! speaking the wire protocol over TCP — reproduces the sequential
//! `packet_sim` run bit for bit at every worker count, event-free and
//! under churn.
//!
//! CI runs this file twice: under the default test threading and with
//! `RUST_TEST_THREADS=1`, so scheduler interleaving differences cannot
//! hide nondeterminism.

use ww_scenario::{EngineReport, EngineSpec, Runner, ScenarioSpec};

/// The sequential twin of a `packet_sim_dist` spec: identical in every
/// knob, engine swapped to `packet_sim`.
fn sequential_twin(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut twin = spec.clone();
    twin.engine = match &spec.engine {
        EngineSpec::PacketSimDist { knobs, .. } => EngineSpec::PacketSim { knobs: *knobs },
        other => panic!("not a packet_sim_dist spec: {other:?}"),
    };
    twin
}

/// The same spec with a different worker count.
fn with_workers(spec: &ScenarioSpec, w: usize) -> ScenarioSpec {
    let mut out = spec.clone();
    match &mut out.engine {
        EngineSpec::PacketSimDist { workers, .. } => *workers = w,
        other => panic!("not a packet_sim_dist spec: {other:?}"),
    }
    out
}

/// Renders an engine report into a canonical byte string: every metric
/// bit-exact, the trace and load vectors bit-exact.
fn canonical(report: &EngineReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("rounds={}\n", report.rounds));
    if let Some(trace) = &report.trace {
        for x in trace {
            out.push_str(&format!("trace={:016x}\n", x.to_bits()));
        }
    }
    if let Some(load) = &report.load {
        for (node, x) in load.iter() {
            out.push_str(&format!("load[{node}]={:016x}\n", x.to_bits()));
        }
    }
    for (name, value) in &report.metrics {
        out.push_str(&format!("{name}={:016x}\n", value.to_bits()));
    }
    out
}

fn load_spec(name: &str) -> ScenarioSpec {
    let path = format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn run_one(spec: &ScenarioSpec) -> EngineReport {
    let report = Runner::new().run(spec).expect("spec runs");
    assert_eq!(report.rows.len(), 1, "unswept spec yields one row");
    report.rows.into_iter().next().unwrap().outcome
}

/// dist_smoke.json without its sweep — the base distributed spec.
fn dist_smoke_base() -> ScenarioSpec {
    let mut spec = load_spec("dist_smoke.json");
    spec.sweep = None;
    spec
}

#[test]
fn dist_smoke_matches_sequential_at_1_2_4_workers() {
    let base = dist_smoke_base();
    let seq = run_one(&sequential_twin(&base));
    let seq_canon = canonical(&seq);
    assert!(
        seq.trace.as_ref().is_some_and(|t| !t.is_empty()),
        "sequential run must produce a trace"
    );
    for workers in [1, 2, 4] {
        let outcome = run_one(&with_workers(&base, workers));
        assert_eq!(
            canonical(&outcome),
            seq_canon,
            "dist_smoke workers={workers} diverges from sequential packet_sim"
        );
    }
}

#[test]
fn dist_smoke_workers_sweep_rows_agree() {
    // The shipped spec's own shape: sweeping the workers knob is the
    // spec-level statement of the determinism claim.
    let report = Runner::new()
        .run(&load_spec("dist_smoke.json"))
        .expect("sweep runs");
    assert_eq!(report.rows.len(), 3);
    assert_eq!(report.rows[0].label, "workers=1");
    let first = canonical(&report.rows[0].outcome);
    for row in &report.rows[1..] {
        assert_eq!(canonical(&row.outcome), first, "row {} diverges", row.label);
    }
}

#[test]
fn rebalance_block_is_rejected_at_launch_with_a_typed_error() {
    // The distributed runtime cannot migrate node state between worker
    // processes, so a `rebalance` block must fail loudly — builder's
    // choice: a typed refusal, never a silently static run.
    let mut spec = dist_smoke_base();
    spec.rebalance = Some(ww_scenario::RebalanceSpec {
        trigger_imbalance: 1.2,
        min_epoch_gap: 2,
    });
    let err = Runner::new()
        .run(&spec)
        .expect_err("dist + rebalance must not launch");
    let msg = err.to_string();
    assert!(
        msg.contains("distributed launch failed"),
        "error {msg:?} should surface the launch failure"
    );
    assert!(
        msg.contains("unsupported on the distributed runtime"),
        "error {msg:?} should carry DistError::Unsupported"
    );
    assert!(
        msg.contains("packet_sim_par"),
        "error {msg:?} should point at the in-process alternative"
    );
}

/// A full-grammar dynamics spec on the distributed engine: churn, a
/// workload shift, a publish, an invalidation, and a link failure
/// cycle, every mutation broadcast to the worker processes.
fn churn_dynamics_spec() -> ScenarioSpec {
    ScenarioSpec::from_json(
        r#"{
          "name": "distributed-churn-determinism",
          "topology": {"kind": "k_ary", "arity": 3, "depth": 3},
          "workload": {
            "rates": {"kind": "leaf_only", "rate": 6.0},
            "doc_mix": {"kind": "shared_zipf", "docs": 6, "theta": 1.0}
          },
          "engine": {"kind": "packet_sim_dist", "workers": 4},
          "termination": {"kind": "rounds", "max": 8},
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
fn churn_dynamics_byte_identical_to_sequential_at_1_2_4_workers() {
    let base = churn_dynamics_spec();
    let seq_report = Runner::new()
        .run(&sequential_twin(&base))
        .expect("sequential churn spec runs");
    let seq_row = &seq_report.rows[0];
    assert_eq!(seq_row.events.len(), 7, "all seven events fire");
    assert!(
        seq_row.events.iter().all(|m| m.accepted()),
        "packet_sim accepts the full event grammar: {:?}",
        seq_row.events
    );
    let seq_canon = canonical(&seq_row.outcome);
    for workers in [1, 2, 4] {
        let spec = with_workers(&base, workers);
        let report = Runner::new().run(&spec).expect("churn spec runs");
        let row = &report.rows[0];
        assert!(
            row.events.iter().all(|m| m.accepted()),
            "packet_sim_dist accepts the full event grammar: {:?}",
            row.events
        );
        assert_eq!(
            canonical(&row.outcome),
            seq_canon,
            "churn dynamics diverge from sequential at workers={workers}"
        );
    }
}
