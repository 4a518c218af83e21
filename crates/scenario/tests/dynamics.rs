//! The event-driven dynamics layer, end to end: static specs stay
//! bit-identical to their pre-dynamics traces, dynamic specs recover,
//! rejections are typed markers, and the metric stream carries the
//! per-event timeline.

use std::path::PathBuf;
use ww_scenario::{Event, EventError, Observer, Runner, ScenarioSpec, Sweep, SweepParam};

fn load_spec(name: &str) -> ScenarioSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"))
}

fn bits(trace: &[f64]) -> Vec<u64> {
    trace.iter().map(|d| d.to_bits()).collect()
}

/// Golden static pinning: a spec with an *empty* events schedule must
/// take the classic drive path and produce bit-identical traces to the
/// same spec without an events block at all — pre-dynamics runs are
/// untouched.
#[test]
fn empty_schedule_is_bit_identical_to_no_events_field() {
    let static_spec = load_spec("fig2b.json");
    let mut with_empty = static_spec.clone();
    with_empty.events = Some(ww_scenario::EventsSpec {
        schedule: Vec::new(),
        recovery_threshold: 1e-3,
    });
    let runner = Runner::new();
    let a = runner.run(&static_spec).expect("static run");
    let b = runner.run(&with_empty).expect("empty-schedule run");
    let ta = a.rows[0].outcome.trace.as_ref().expect("trace");
    let tb = b.rows[0].outcome.trace.as_ref().expect("trace");
    assert_eq!(bits(ta), bits(tb), "empty schedule must not perturb runs");
    assert!(b.rows[0].events.is_empty());
}

/// The acceptance scenario: the churn storm re-converges to TLB
/// (bounded distance) after the last `node_leave`.
#[test]
fn churn_storm_reconverges_after_the_last_leave() {
    let report = Runner::new()
        .smoke(true)
        .run(&load_spec("churn_storm.json"))
        .expect("churn storm runs");
    let row = &report.rows[0];
    assert_eq!(row.events.len(), 7, "all seven events fired");
    for m in &row.events {
        assert!(
            m.accepted(),
            "event[{}] rejected: {:?}",
            m.index,
            m.rejected
        );
    }
    let last_leave = row.events.last().expect("has events");
    assert_eq!(last_leave.kind, "node_leave");
    assert!(
        last_leave.recovery_rounds.is_some(),
        "the system must re-converge under the recovery threshold after the last leave"
    );
    // And the run as a whole reached its convergence threshold again.
    let final_distance = row.outcome.final_distance().expect("trace recorded");
    assert!(
        final_distance < 1e-2,
        "post-churn distance to TLB {final_distance} not bounded"
    );
    // The markers are also in the metric stream.
    assert!(row.outcome.metric("event.6.node_leave.round").is_some());
    assert!(row
        .outcome
        .metric("event.6.node_leave.recovery_rounds")
        .is_some());
}

/// Rolling link failures: load stays trapped upstream while the control
/// links are down and drains after each heal.
#[test]
fn rolling_link_failures_recover_after_each_heal() {
    let report = Runner::new()
        .smoke(true)
        .run(&load_spec("rolling_link_failures.json"))
        .expect("rolling failures run");
    let row = &report.rows[0];
    assert!(row.converged, "must re-converge after the last heal");
    let heals: Vec<_> = row
        .events
        .iter()
        .filter(|m| m.kind == "link_heal")
        .collect();
    assert_eq!(heals.len(), 3);
    for h in &heals {
        assert!(h.accepted());
        assert!(
            h.recovery_rounds.is_some(),
            "heal {} never recovered",
            h.index
        );
    }
    // Later heals recover faster: less load remains trapped.
    assert!(heals[0].recovery_rounds > heals[2].recovery_rounds);
}

/// Publish-then-invalidate on the document engine: the publish and both
/// updates each shock the system off TLB, and it recovers every time.
#[test]
fn publish_then_invalidate_recovers() {
    let report = Runner::new()
        .smoke(true)
        .run(&load_spec("publish_then_invalidate.json"))
        .expect("publish spec runs");
    let row = &report.rows[0];
    assert_eq!(row.events.len(), 3);
    for m in &row.events {
        assert!(
            m.accepted(),
            "event[{}] rejected: {:?}",
            m.index,
            m.rejected
        );
        assert!(
            m.recovery_rounds.is_some(),
            "event[{}] never recovered",
            m.index
        );
        // Every event creates a real shock before recovery.
        assert!(m.peak_distance.unwrap() > 50.0);
    }
}

/// Hot-set rotation: workload shifts resolve against the current
/// topology and the doc engine rebalances after each.
#[test]
fn hot_set_rotation_recovers() {
    let report = Runner::new()
        .smoke(true)
        .run(&load_spec("hot_set_rotation.json"))
        .expect("rotation spec runs");
    let row = &report.rows[0];
    assert_eq!(row.events.len(), 2);
    for m in &row.events {
        assert!(m.accepted());
        assert!(m.recovery_rounds.is_some());
    }
}

/// Engines reject events outside their semantics with a typed error —
/// recorded as a marker, never a panic — and the run continues.
#[test]
fn unsupported_events_become_rejected_markers() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "doc-events-on-rate-engine",
          "topology": {"kind": "paper", "figure": "fig6"},
          "workload": {"rates": {"kind": "paper"}},
          "engine": {"kind": "rate_wave"},
          "termination": {"kind": "rounds", "max": 40},
          "events": {"schedule": [
            {"round": 5, "kind": "doc_update", "doc": 1},
            {"round": 10, "kind": "link_fail", "node": 1},
            {"round": 20, "kind": "link_heal", "node": 1}
          ]}
        }"#,
    )
    .unwrap();
    let report = Runner::new().run(&spec).expect("run survives rejection");
    let row = &report.rows[0];
    assert_eq!(row.events.len(), 3);
    assert!(!row.events[0].accepted());
    let rejection = row.events[0].rejected.as_ref().unwrap();
    assert!(
        rejection.contains("does not support doc_update"),
        "got {rejection:?}"
    );
    // The rejection names what the engine *does* honor.
    assert!(
        rejection.contains("it supports:") && rejection.contains("workload_shift"),
        "rejection should list supported kinds, got {rejection:?}"
    );
    assert!(row.events[1].accepted());
    assert!(row.events[2].accepted());
    assert_eq!(row.outcome.rounds, 40, "the run continued to its budget");
    assert_eq!(row.outcome.metric("event.0.doc_update.accepted"), Some(0.0));
    assert!(report.report.contains("rejected"));
}

/// The packet engines honor the full seven-kind event grammar — the
/// support matrix in `docs/dynamics.md` has no "—" cells left in their
/// columns. (The parallel twin is pinned byte-identical to this run in
/// `tests/parallel.rs`.)
#[test]
fn packet_engine_accepts_all_seven_event_kinds() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "packet-full-grammar",
          "topology": {"kind": "two_level", "regions": 3, "leaves": 3},
          "workload": {
            "rates": {"kind": "leaf_only", "rate": 6.0},
            "doc_mix": {"kind": "shared_zipf", "docs": 5, "theta": 1.0}
          },
          "engine": {"kind": "packet_sim"},
          "termination": {"kind": "rounds", "max": 9},
          "events": {"schedule": [
            {"round": 1, "kind": "node_join", "parent": 2, "rate": 12.0},
            {"round": 2, "kind": "link_fail", "node": 3},
            {"round": 3, "kind": "workload_shift",
             "doc_mix": {"kind": "shared_zipf", "docs": 7, "theta": 0.5}},
            {"round": 4, "kind": "doc_publish", "doc": 40, "origin": 5, "rate": 9.0},
            {"round": 5, "kind": "link_heal", "node": 3},
            {"round": 6, "kind": "node_leave", "node": 13},
            {"round": 7, "kind": "doc_update", "doc": 40}
          ]}
        }"#,
    )
    .unwrap();
    let report = Runner::new().run(&spec).expect("packet dynamics run");
    let row = &report.rows[0];
    assert_eq!(row.events.len(), 7);
    for m in &row.events {
        assert!(
            m.accepted(),
            "event[{}] {} rejected: {:?}",
            m.index,
            m.kind,
            m.rejected
        );
    }
    // The run keeps serving after the churn storm.
    assert!(
        row.outcome
            .metric("served_requests")
            .is_some_and(|s| s > 100.0),
        "served_requests missing or tiny: {:?}",
        row.outcome.metric("served_requests")
    );
}

/// One-shot engines accept churn at round 0 (reshaping the world they
/// run on) and reject events after their single step.
#[test]
fn baselines_accept_round_zero_churn_only() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "baselines-churn",
          "topology": {"kind": "star", "nodes": 8},
          "workload": {"rates": {"kind": "uniform", "rate": 5.0}},
          "engine": {"kind": "baselines", "schemes": ["no-cache", "webfold-oracle"]},
          "termination": {"kind": "rounds", "max": 5},
          "events": {"schedule": [
            {"round": 0, "kind": "node_join", "parent": 0, "rate": 5.0},
            {"round": 0, "kind": "node_leave", "node": 3},
            {"round": 2, "kind": "node_join", "parent": 0, "rate": 5.0}
          ]}
        }"#,
    )
    .unwrap();
    let report = Runner::new().run(&spec).expect("baselines run");
    let row = &report.rows[0];
    // Round-0 churn reshapes the tree before the one-shot step...
    assert!(row.events[0].accepted());
    assert!(row.events[1].accepted());
    // 8 + 1 - 1 = 8 nodes in the final assignment.
    assert_eq!(row.outcome.schemes[0].load.len(), 8);
    // ...and the engine finishes in one step, so the round-2 event never
    // fires (one-shot runs end before it comes due).
    assert_eq!(row.events.len(), 2);
}

/// Structural schedule errors (out-of-range nodes) abort the run with a
/// SpecError naming the schedule entry.
#[test]
fn out_of_range_event_node_is_a_spec_error() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "bad-event-node",
          "topology": {"kind": "path", "nodes": 4},
          "workload": {"rates": {"kind": "uniform", "rate": 1.0}},
          "engine": {"kind": "rate_wave"},
          "termination": {"kind": "rounds", "max": 10},
          "events": {"schedule": [{"round": 1, "kind": "node_leave", "node": 77}]}
        }"#,
    )
    .unwrap();
    let err = Runner::new().run(&spec).expect_err("bad node must error");
    let rendered = err.to_string();
    assert!(rendered.contains("events.schedule[0].node"), "{rendered}");
    assert!(rendered.contains("outside"), "{rendered}");
}

/// A `converged` termination does not stop the run while events are
/// still pending: the fault injection happens even if the system has
/// already converged.
#[test]
fn convergence_waits_for_pending_events() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "late-event",
          "topology": {"kind": "paper", "figure": "fig2b"},
          "workload": {"rates": {"kind": "paper"}},
          "engine": {"kind": "rate_wave"},
          "termination": {"kind": "converged", "threshold": 1e-6, "max_rounds": 5000},
          "events": {
            "recovery_threshold": 1e-6,
            "schedule": [
              {"round": 3000, "kind": "node_join", "parent": 2, "rate": 25.0}
            ]
          }
        }"#,
    )
    .unwrap();
    let report = Runner::new().run(&spec).expect("late-event run");
    let row = &report.rows[0];
    // The static fig2b run converges in ~2k rounds; with the pending
    // round-3000 join the runner keeps going, fires it, and re-converges.
    assert!(row.outcome.rounds > 3000);
    assert!(row.converged);
    assert_eq!(row.events.len(), 1);
    assert!(row.events[0].accepted());
    assert!(row.events[0].recovery_rounds.is_some());
    // The grown tree has 6 nodes.
    assert_eq!(row.outcome.load.as_ref().unwrap().len(), 6);
}

/// The Observer sees every fired event.
#[test]
fn observer_receives_event_callbacks() {
    #[derive(Default)]
    struct Spy {
        events: Vec<(usize, usize, String, bool)>,
        rounds: usize,
    }
    impl Observer for Spy {
        fn on_round(&mut self, _round: usize, _c: Option<f64>) {
            self.rounds += 1;
        }
        fn on_event(
            &mut self,
            index: usize,
            round: usize,
            event: &Event,
            error: Option<&EventError>,
        ) {
            self.events
                .push((index, round, event.kind().to_string(), error.is_none()));
        }
    }
    let mut spy = Spy::default();
    let report = Runner::new()
        .smoke(true)
        .run_with(&load_spec("rolling_link_failures.json"), &mut spy)
        .expect("observed run");
    assert_eq!(spy.events.len(), 6);
    assert!(spy.events.iter().all(|&(_, _, _, accepted)| accepted));
    assert_eq!(spy.events[0].2, "link_fail");
    assert_eq!(spy.rounds, report.rows[0].outcome.rounds);
}

/// Events due in the same round are one barrier. (a) On `rate_wave`,
/// two joins in one round add one oracle refresh to the trace, exactly
/// as one join does. (b) The packet churn storm regrouped into two
/// same-round groups reads the same on the sequential engine and on the
/// sharded one at every worker count.
#[test]
fn a_same_round_group_is_one_barrier() {
    let joins = |count: usize| {
        let schedule: Vec<String> = (0..count)
            .map(|_| r#"{"round": 3, "kind": "node_join", "parent": 2, "rate": 30.0}"#.into())
            .collect();
        let spec = ScenarioSpec::from_json(&format!(
            r#"{{
                "name": "joins",
                "topology": {{"kind": "paper", "figure": "fig2b"}},
                "workload": {{"rates": {{"kind": "paper"}}}},
                "engine": {{"kind": "rate_wave"}},
                "termination": {{"kind": "rounds", "max": 10}},
                "events": {{"schedule": [{}]}}
            }}"#,
            schedule.join(", ")
        ))
        .expect("spec parses");
        let report = Runner::new().run(&spec).expect("joins run");
        let row = &report.rows[0];
        assert!(row.events.iter().all(|m| m.accepted()));
        row.outcome.trace.as_ref().expect("trace").len()
    };
    assert_eq!(joins(2), joins(1), "two same-round joins are one barrier");
    assert_eq!(joins(1), joins(0) + 1, "a join refreshes the oracle once");

    let mut par = load_spec("packet_churn_storm.json");
    for (i, e) in par
        .events
        .as_mut()
        .expect("events")
        .schedule
        .iter_mut()
        .enumerate()
    {
        // Two joins, a workload shift and both leaves share one barrier;
        // the publish/update pair shares the second.
        e.round = if i < 5 { 2 } else { 4 };
    }
    let runner = Runner::new().smoke(true);
    let seq = ScenarioSpec {
        engine: par.engine.sequential_twin().expect("a sharded spec"),
        ..par.clone()
    };
    let seq = runner.run(&seq).expect("sequential storm");
    assert!(seq.rows[0].events.iter().all(|m| m.accepted()));
    for workers in [1, 2, 4] {
        let par = Sweep {
            param: SweepParam::Workers,
            values: Vec::new(),
        }
        .apply(&par, workers as f64)
        .expect("a sharded spec");
        let par = runner.run(&par).expect("sharded storm");
        assert_eq!(par.canonical(), seq.canonical(), "workers={workers}");
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The rendered report of one run of `json`, digested.
fn report_digest(json: &str) -> u64 {
    let spec = ScenarioSpec::from_json(json).unwrap_or_else(|e| panic!("parse: {e}"));
    let report = Runner::new()
        .run(&spec)
        .unwrap_or_else(|e| panic!("run: {e}"));
    for m in &report.rows[0].events {
        assert!(
            m.accepted(),
            "event[{}] rejected: {:?}",
            m.index,
            m.rejected
        );
    }
    fnv1a(report.report.as_bytes())
}

/// The refusal of a spec: at parse time when a value fails its declared
/// check, else by the runner at construction or when a scheduled event
/// fires.
fn run_refusal(workload: &str, schedule: &str) -> String {
    let json = format!(
        r#"{{
          "name": "refusal",
          "topology": {{"kind": "path", "nodes": 4}},
          "workload": {workload},
          "engine": {{"kind": "rate_wave"}},
          "termination": {{"kind": "rounds", "max": 10}},
          "events": {{"schedule": [{schedule}]}}
        }}"#
    );
    match ScenarioSpec::from_json(&json).and_then(|spec| Runner::new().run(&spec)) {
        Ok(_) => panic!("{json} ran"),
        Err(e) => e.to_string(),
    }
}

/// Every refusal of the rates and doc-mix generators, word for word:
/// each at construction (`workload.*`) and when a `workload_shift`
/// fires (`events.schedule[i].*`).
#[test]
fn generator_refusals_are_pinned_at_construction_and_mid_run() {
    let uniform = r#"{"rates": {"kind": "uniform", "rate": 1.0}}"#;
    let at_start = [
        (
            r#"{"rates": {"kind": "paper"}}"#,
            r#"workload.rates: "paper" rates require a paper topology"#,
        ),
        (
            r#"{"rates": {"kind": "uniform", "rate": 1.0}, "doc_mix": {"kind": "paper"}}"#,
            r#"workload.doc_mix: "paper" doc mix requires the fig7 paper topology"#,
        ),
        (
            r#"{"rates": {"kind": "random_uniform", "lo": 5.0, "hi": 2.0}}"#,
            "workload.rates.hi: upper bound 2 is below lower bound 5",
        ),
        (
            r#"{"rates": {"kind": "uniform", "rate": 1.0},
                "doc_mix": {"kind": "shared_zipf", "docs": 0, "theta": 1.0}}"#,
            "workload.doc_mix.docs: must be at least 1",
        ),
        (
            r#"{"rates": {"kind": "explicit", "rates": [1, 2, 3]}}"#,
            "workload.rates.rates: expected 4 rates (one per node), got 3",
        ),
    ];
    for (workload, expected) in at_start {
        assert_eq!(run_refusal(workload, ""), expected, "{workload}");
    }
    let join = r#"{"round": 1, "kind": "node_join", "parent": 0, "rate": 2.0}"#;
    let mid_run = [
        (
            r#"{"round": 2, "kind": "workload_shift", "rates": {"kind": "paper"}}"#,
            r#"events.schedule[1].rates: "paper" rates cannot be re-resolved mid-run"#,
        ),
        (
            r#"{"round": 2, "kind": "workload_shift", "doc_mix": {"kind": "paper"}}"#,
            r#"events.schedule[1].doc_mix: "paper" doc mixes cannot be re-resolved mid-run"#,
        ),
        (
            r#"{"round": 2, "kind": "workload_shift",
                "rates": {"kind": "random_uniform", "lo": 5.0, "hi": 2.0}}"#,
            "events.schedule[1].rates.hi: upper bound 2 is below lower bound 5",
        ),
        (
            r#"{"round": 2, "kind": "workload_shift",
                "doc_mix": {"kind": "shared_zipf", "docs": 0, "theta": 1.0}}"#,
            "events.schedule[1].doc_mix.docs: must be at least 1",
        ),
        (
            r#"{"round": 2, "kind": "workload_shift",
                "rates": {"kind": "explicit", "rates": [1, 2, 3, 4]}}"#,
            "events.schedule[1].rates.rates: expected 5 rates (one per node), got 4",
        ),
    ];
    for (shift, expected) in mid_run {
        assert_eq!(
            run_refusal(uniform, &format!("{join}, {shift}")),
            expected,
            "{shift}"
        );
    }
}

/// The node refusals of `link_fail` and `node_leave`, word for word: the
/// root is refused with the model's own `Tree::uplink` error, and a node
/// outside the tree as it stands when the event fires (a join grew it to
/// 5 nodes first) with the runner's range check.
#[test]
fn link_fail_and_node_leave_refusals_are_pinned() {
    let uniform = r#"{"rates": {"kind": "uniform", "rate": 1.0}}"#;
    let join = r#"{"round": 1, "kind": "node_join", "parent": 0, "rate": 2.0}"#;
    for kind in ["link_fail", "node_leave"] {
        let root = format!(r#"{{"round": 2, "kind": "{kind}", "node": 0}}"#);
        assert_eq!(
            run_refusal(uniform, &format!("{join}, {root}")),
            "events.schedule[1].node: the root n0 has no uplink",
            "{kind}"
        );
        let outside = format!(r#"{{"round": 2, "kind": "{kind}", "node": 5}}"#);
        assert_eq!(
            run_refusal(uniform, &format!("{join}, {outside}")),
            "events.schedule[1].node: node 5 is outside the current 5-node topology",
            "{kind}"
        );
    }
}

/// `rate_wave` through mid-run `uniform`, `leaf_only` and `explicit`
/// shifts, each generated on the tree of its fire time (a join grew it
/// to 8 nodes first), pinned by one digest of the rendered report.
#[test]
fn rate_wave_shift_generators_are_pinned() {
    let digest = report_digest(
        r#"{
          "name": "rate-wave-shifts",
          "topology": {"kind": "two_level", "regions": 2, "leaves": 2},
          "workload": {"rates": {"kind": "random_uniform", "lo": 1.0, "hi": 9.0}},
          "engine": {"kind": "rate_wave"},
          "termination": {"kind": "rounds", "max": 80},
          "seed": 11,
          "events": {"recovery_threshold": 0.5, "schedule": [
            {"round": 5, "kind": "node_join", "parent": 2, "rate": 4.0},
            {"round": 10, "kind": "workload_shift", "rates": {"kind": "uniform", "rate": 3.0}},
            {"round": 30, "kind": "workload_shift", "rates": {"kind": "leaf_only", "rate": 5.0}},
            {"round": 50, "kind": "workload_shift",
             "rates": {"kind": "explicit", "rates": [0, 1, 2, 3, 4, 5, 6, 7]}}
          ]}
        }"#,
    );
    assert_eq!(digest, 0x8723_fc46_1567_a996, "digest {digest:#018x}");
}

/// `doc_sim` through a `node_join`, then a `shared_zipf` shift without
/// rates: the new mix splits the mirrored rates, the joined node's
/// included, pinned by one digest of the rendered report.
#[test]
fn doc_sim_mix_shift_splits_the_mirrored_rates() {
    let digest = report_digest(
        r#"{
          "name": "doc-sim-mix-shift",
          "topology": {"kind": "two_level", "regions": 3, "leaves": 2},
          "workload": {
            "rates": {"kind": "leaf_only", "rate": 6.0},
            "doc_mix": {"kind": "shared_zipf", "docs": 4, "theta": 1.0}
          },
          "engine": {"kind": "doc_sim"},
          "termination": {"kind": "rounds", "max": 60},
          "events": {"recovery_threshold": 0.5, "schedule": [
            {"round": 5, "kind": "node_join", "parent": 1, "rate": 12.0},
            {"round": 20, "kind": "workload_shift",
             "doc_mix": {"kind": "shared_zipf", "docs": 6, "theta": 0.8}}
          ]}
        }"#,
    );
    assert_eq!(digest, 0xbf8f_5743_1fc9_8c4c, "digest {digest:#018x}");
}

/// `baselines` with a round-0 join, leave and rates shift: the one-shot
/// step runs on the reshaped tree and the shifted rates, pinned by one
/// digest of the rendered report.
#[test]
fn baselines_round_zero_world_is_pinned() {
    let digest = report_digest(
        r#"{
          "name": "baselines-round-zero",
          "topology": {"kind": "two_level", "regions": 2, "leaves": 3},
          "workload": {"rates": {"kind": "uniform", "rate": 5.0}},
          "engine": {"kind": "baselines", "webwave_rounds": 400, "gle_iterations": 200},
          "termination": {"kind": "rounds", "max": 3},
          "events": {"schedule": [
            {"round": 0, "kind": "node_join", "parent": 1, "rate": 9.0},
            {"round": 0, "kind": "node_leave", "node": 4},
            {"round": 0, "kind": "workload_shift",
             "rates": {"kind": "zipf_nodes", "total": 90.0, "theta": 1.1}}
          ]}
        }"#,
    );
    assert_eq!(digest, 0x945c_52ee_da4b_7816, "digest {digest:#018x}");
}

/// A join whose demand split would overflow — a rate the parser accepts
/// — ends in a rejected marker on every document-level engine, and the
/// run goes on to its budget.
#[test]
fn an_overflowing_join_is_a_rejected_marker() {
    for engine in [
        r#"{"kind": "doc_sim"}"#,
        r#"{"kind": "packet_sim"}"#,
        r#"{"kind": "packet_sim_par", "workers": 2}"#,
    ] {
        let spec = ScenarioSpec::from_json(&format!(
            r#"{{
              "name": "overflowing-join",
              "topology": {{"kind": "k_ary", "arity": 2, "depth": 3}},
              "workload": {{
                "rates": {{"kind": "leaf_only", "rate": 6.0}},
                "doc_mix": {{"kind": "shared_zipf", "docs": 5, "theta": 1.0}}
              }},
              "engine": {engine},
              "termination": {{"kind": "rounds", "max": 8}},
              "events": {{"schedule": [
                {{"round": 5, "kind": "node_join", "parent": 0, "rate": 1.7e308}}
              ]}}
            }}"#
        ))
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
        let report = Runner::new().run(&spec).expect("the run survives");
        let row = &report.rows[0];
        assert_eq!(row.events.len(), 1, "{engine}");
        assert_eq!(
            row.events[0].rejected.as_deref(),
            Some("node_join event cannot apply: rate at n0 is invalid: inf"),
            "{engine}"
        );
        assert_eq!(row.outcome.rounds, 8, "{engine}: the run continued");
    }
}

/// How an engine answers one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// Applied.
    Ok,
    /// `EventError::Unsupported`: the engine has no semantics for the kind.
    Unsup,
    /// `EventError::Invalid`: the kind is supported, this event is not.
    Inval,
}

fn answer(result: Result<(), EventError>) -> Answer {
    match result {
        Ok(()) => Answer::Ok,
        Err(EventError::Unsupported { .. }) => Answer::Unsup,
        Err(EventError::Invalid { .. }) => Answer::Inval,
    }
}

/// One event of each of the seven kinds on a 15-node binary tree, the
/// `workload_shift` in both flavours: rates alone, and a doc mix alone.
fn matrix_events() -> [Event; 8] {
    use ww_model::{DocId, NodeId, RateVector};
    let mut mix = ww_workload::DocMix::new(15);
    for leaf in 7..15 {
        mix.set(NodeId::new(leaf), DocId::new(0), 4.0);
    }
    [
        Event::NodeJoin {
            parent: NodeId::new(1),
            rate: 3.0,
        },
        Event::NodeLeave {
            node: NodeId::new(14),
        },
        Event::LinkFail {
            node: NodeId::new(2),
        },
        Event::LinkHeal {
            node: NodeId::new(2),
        },
        Event::DocPublish {
            doc: DocId::new(40),
            origin: NodeId::new(9),
            rate: 5.0,
        },
        Event::DocUpdate { doc: DocId::new(1) },
        Event::WorkloadShift {
            rates: Some(RateVector::from(vec![2.0; 15])),
            doc_mix: None,
        },
        Event::WorkloadShift {
            rates: None,
            doc_mix: Some(mix),
        },
    ]
}

fn matrix_spec(engine: &str) -> ScenarioSpec {
    ScenarioSpec::from_json(&format!(
        r#"{{
          "name": "support-matrix",
          "topology": {{"kind": "k_ary", "arity": 2, "depth": 3}},
          "workload": {{
            "rates": {{"kind": "leaf_only", "rate": 6.0}},
            "doc_mix": {{"kind": "shared_zipf", "docs": 5, "theta": 1.0}}
          }},
          "engine": {engine},
          "termination": {{"kind": "rounds", "max": 1}}
        }}"#
    ))
    .unwrap_or_else(|e| panic!("{engine}: {e}"))
}

/// The engine support matrix of `docs/dynamics.md`, cell by cell: each
/// event is applied to a freshly resolved engine, after `steps` engine
/// rounds, and its answer is the one `adapters.rs` gives. Columns:
/// `node_join`, `node_leave`, `link_fail`, `link_heal`, `doc_publish`,
/// `doc_update`, `workload_shift` with rates, `workload_shift` with a
/// doc mix. The last row is the table's "round 0": after its one step,
/// the baselines engine refuses what it took before.
#[test]
fn the_engine_support_matrix_holds_cell_by_cell() {
    use Answer::{Inval as I, Ok as A, Unsup as U};
    let packet = [A, A, A, A, A, A, I, A];
    let rows: [(&str, usize, [Answer; 8]); 8] = [
        (r#"{"kind": "rate_wave"}"#, 0, [A, A, A, A, U, U, A, I]),
        (r#"{"kind": "doc_sim"}"#, 0, [A, A, A, A, A, A, I, A]),
        (r#"{"kind": "packet_sim"}"#, 0, packet),
        (r#"{"kind": "packet_sim_par", "workers": 2}"#, 0, packet),
        (r#"{"kind": "packet_sim_dist", "workers": 2}"#, 0, packet),
        (
            r#"{"kind": "forest_wave", "roots": [0, 14]}"#,
            0,
            [U, U, U, U, U, U, A, I],
        ),
        (r#"{"kind": "baselines"}"#, 0, [A, A, U, U, U, U, A, I]),
        (r#"{"kind": "baselines"}"#, 1, [I, I, U, U, U, U, I, I]),
    ];
    let runner = Runner::new();
    for (engine, steps, expected) in rows {
        let spec = matrix_spec(engine);
        let got: Vec<Answer> = matrix_events()
            .iter()
            .map(|event| {
                let mut e = runner
                    .resolve(&spec)
                    .unwrap_or_else(|e| panic!("{engine}: {e}"));
                for _ in 0..steps {
                    e.step();
                }
                answer(e.apply(event))
            })
            .collect();
        assert_eq!(got, expected, "{engine} after {steps} steps");
    }
}
