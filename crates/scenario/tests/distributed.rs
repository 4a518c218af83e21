//! Spec-level pinning of the distributed packet engine: a
//! `packet_sim_dist` run — shards in worker processes or threads
//! speaking the wire protocol over TCP — reproduces the sequential
//! `packet_sim` run bit for bit at every worker count, event-free and
//! under churn.
//!
//! CI runs this file twice: under the default test threading and with
//! `RUST_TEST_THREADS=1`, so scheduler interleaving differences cannot
//! hide nondeterminism.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use ww_dist::{encode_msg, DistMode, DistOptions, Msg};
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

/// One raw frame off `stream`: its length prefix and body, undecoded.
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).unwrap();
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..]).unwrap();
    frame
}

fn write_msg(stream: &mut TcpStream, msg: &Msg) {
    let mut frame = Vec::new();
    encode_msg(msg, &mut frame);
    stream.write_all(&frame).unwrap();
}

/// 64-bit FNV-1a of a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The coordinator encodes `dist_smoke.json`'s world once and sends every
/// worker those bytes re-addressed. Each worker's `Assign` frame must be
/// the frame the launch sent before that change — pinned here by length
/// and digest, with `shard_id` (bytes 5..13: after the length prefix and
/// the tag) read as zero — and carry its own shard id there. Two stand-in
/// workers announce the same data address, so the peer table does not
/// depend on which one connects first, then refuse their assignments.
#[test]
fn each_worker_is_sent_the_pinned_assign_frame() {
    let spec = with_workers(&dist_smoke_base(), 2);
    let port = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let listen = format!("127.0.0.1:{port}");
    let coordinator = std::thread::spawn({
        let listen = listen.clone();
        move || {
            let options = DistOptions {
                mode: DistMode::External,
                listen,
                ..DistOptions::default()
            };
            Runner::new().dist_options(options).run(&spec).map(drop)
        }
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut workers: Vec<TcpStream> = (0..2)
        .map(|_| loop {
            match TcpStream::connect(&listen) {
                Ok(stream) => break stream,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Err(e) => panic!("no coordinator at {listen}: {e}"),
            }
        })
        .collect();
    for stream in &mut workers {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let data_addr = "127.0.0.1:9".to_string();
        write_msg(stream, &Msg::Hello { data_addr });
    }
    let mut shards = Vec::new();
    for stream in &mut workers {
        let mut frame = read_frame(stream);
        assert_eq!(frame[4], 17, "an Assign frame");
        let shard_id = u64::from_le_bytes(frame[5..13].try_into().unwrap());
        frame[5..13].fill(0);
        assert_eq!(
            (frame.len(), fnv1a(&frame)),
            (2_663, 0x12d0_1c17_8943_6aa6),
            "digest {:#018x}",
            fnv1a(&frame)
        );
        shards.push(shard_id);
        let msg = "refused by the test".to_string();
        write_msg(stream, &Msg::Fatal { msg });
    }
    shards.sort_unstable();
    assert_eq!(shards, [0, 1]);
    let refused = coordinator.join().unwrap();
    assert!(refused.is_err(), "the launch fails once both refuse");
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

/// A join whose demand split would overflow is refused by the
/// coordinator's replica before anything is broadcast: a rejected
/// marker, and the run replays the sequential twin, which refuses it
/// too.
#[test]
fn an_overflowing_join_is_refused_before_the_broadcast() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "distributed-overflowing-join",
          "topology": {"kind": "k_ary", "arity": 2, "depth": 3},
          "workload": {
            "rates": {"kind": "leaf_only", "rate": 6.0},
            "doc_mix": {"kind": "shared_zipf", "docs": 5, "theta": 1.0}
          },
          "engine": {"kind": "packet_sim_dist", "workers": 2},
          "termination": {"kind": "rounds", "max": 6},
          "events": {"schedule": [
            {"round": 3, "kind": "node_join", "parent": 0, "rate": 1.7e308}
          ]}
        }"#,
    )
    .expect("overflowing join spec parses");
    let mut canon = Vec::new();
    for (spec, rejected) in [
        (
            sequential_twin(&spec),
            "node_join event cannot apply: rate at n0 is invalid: inf",
        ),
        (
            spec,
            "node_join event cannot apply: barrier operation rejected: \
             rate at n0 is invalid: inf",
        ),
    ] {
        let report = Runner::new().run(&spec).expect("the run survives");
        let row = &report.rows[0];
        assert_eq!(row.events[0].rejected.as_deref(), Some(rejected));
        canon.push(canonical(&row.outcome));
    }
    assert_eq!(canon[0], canon[1], "the refusal diverged from sequential");
}
