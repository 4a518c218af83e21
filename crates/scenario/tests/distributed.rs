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
use ww_scenario::{EngineReport, Runner, ScenarioSpec, Sweep, SweepParam};

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
    let seq = run_one(&ScenarioSpec {
        engine: base.engine.sequential_twin().expect("a sharded spec"),
        ..base.clone()
    });
    let seq_canon = seq.canonical();
    assert!(
        seq.trace.as_ref().is_some_and(|t| !t.is_empty()),
        "sequential run must produce a trace"
    );
    for workers in [1, 2, 4] {
        let outcome = run_one(
            &WORKERS
                .apply(&base, workers as f64)
                .expect("a sharded spec"),
        );
        assert_eq!(
            outcome.canonical(),
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
    let first = report.rows[0].outcome.canonical();
    for row in &report.rows[1..] {
        assert_eq!(row.outcome.canonical(), first, "row {} diverges", row.label);
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
    let spec = WORKERS
        .apply(&dist_smoke_base(), 2.0)
        .expect("a sharded spec");
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
    spec.rebalance = Some(ww_scenario::RebalanceConfig {
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
    for workers in [1, 2, 4] {
        let spec = WORKERS
            .apply(&base, workers as f64)
            .expect("a sharded spec");
        let report = Runner::new().run(&spec).expect("churn spec runs");
        let row = &report.rows[0];
        assert!(
            row.events.iter().all(|m| m.accepted()),
            "packet_sim_dist accepts the full event grammar: {:?}",
            row.events
        );
        assert_eq!(
            row.outcome.canonical(),
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
            ScenarioSpec {
                engine: spec.engine.sequential_twin().expect("a sharded spec"),
                ..spec.clone()
            },
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
        canon.push(row.outcome.canonical());
    }
    assert_eq!(canon[0], canon[1], "the refusal diverged from sequential");
}
