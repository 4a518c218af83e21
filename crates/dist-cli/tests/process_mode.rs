//! Process-mode golden tests: the coordinator spawns real
//! `webwave-dist worker` OS processes over loopback TCP, and the run
//! must replay the sequential `PacketSim` bit for bit — the same
//! contract the thread-mode suite in `ww-dist` pins, now across
//! process boundaries with the actual shipped binary.
//!
//! Also pins the failure contract: a killed worker process surfaces as
//! a typed [`DistError`] within the reply timeout, never a hang.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use ww_core::packet::{BarrierOp, BarrierOutcome};
use ww_core::packetsim::{PacketBackend, PacketSim, PacketSimConfig, PacketSimReport};
use ww_dist::{DistMode, DistOptions, DistPacketSim};
use ww_model::{DocId, NodeId, Tree};
use ww_topology::paper;
use ww_workload::DocMix;

/// Process mode, pointed at the binary cargo built for this crate.
fn procs() -> DistOptions {
    std::env::set_var("WW_DIST_WORKER_BIN", env!("CARGO_BIN_EXE_webwave-dist"));
    DistOptions {
        mode: DistMode::Processes,
        ..DistOptions::default()
    }
}

fn fig7_mix() -> (Tree, DocMix) {
    let b = paper::fig7();
    let mut mix = DocMix::new(b.tree.len());
    for d in &b.demands {
        mix.set(d.origin, d.doc, d.rate);
    }
    (b.tree, mix)
}

fn random_mix(seed: u64) -> (Tree, DocMix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, 40, 5);
    let rates = ww_workload::zipf_nodes(&mut rng, &tree, 900.0, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 10, 1.0);
    (tree, mix)
}

#[test]
fn worker_processes_match_sequential_at_1_2_4_workers() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let seq = PacketSim::new(&tree, &mix, config).run(12.0);
    assert!(seq.served_requests > 500, "run long enough to matter");
    for workers in [1, 2, 4] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, procs()).unwrap();
        let rep = dist.run(12.0).unwrap();
        assert_eq!(
            seq.canonical(),
            rep.canonical(),
            "fig7 process workers={workers}"
        );
        dist.shutdown();
    }
}

/// Link failure, healing, invalidation, churn, and a publish, all
/// mid-run, on any backend; the final report and the id the joiner took.
fn churn_and_failures<B: PacketBackend>(sim: &mut B) -> (PacketSimReport, NodeId)
where
    B::Error: std::fmt::Debug,
{
    let link = NodeId::new(2);
    sim.run(4.0).unwrap();
    let failed = sim.apply_op(&BarrierOp::FailLink { node: link }).unwrap();
    assert_eq!(failed, BarrierOutcome::Toggled(true));
    sim.apply_op(&BarrierOp::Invalidate { doc: DocId::new(1) })
        .unwrap();
    sim.run(8.0).unwrap();
    let healed = sim.apply_op(&BarrierOp::HealLink { node: link }).unwrap();
    assert_eq!(healed, BarrierOutcome::Toggled(true));
    let join = BarrierOp::AddLeaf {
        parent: NodeId::new(1),
        rate: 40.0,
    };
    let BarrierOutcome::Added(newcomer) = sim.apply_op(&join).unwrap() else {
        panic!("a join reports the id it took");
    };
    let publish = BarrierOp::PublishDoc {
        doc: DocId::new(9),
        origin: NodeId::new(0),
        rate: 25.0,
    };
    sim.apply_op(&publish).unwrap();
    sim.run(12.0).unwrap();
    sim.apply_op(&BarrierOp::RemoveLeaf { node: newcomer })
        .unwrap();
    (sim.run(16.0).unwrap(), newcomer)
}

#[test]
fn worker_processes_replay_churn_bit_for_bit() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();

    let mut seq = PacketSim::new(&tree, &mix, config);
    let (a, newcomer) = churn_and_failures(&mut seq);

    for workers in [1, 2, 4] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, procs()).unwrap();
        let (b, got) = churn_and_failures(&mut dist);
        assert_eq!(got, newcomer, "churn ids agree across drivers");
        assert_eq!(
            a.canonical(),
            b.canonical(),
            "churn process workers={workers}"
        );
    }
}

#[test]
fn killed_worker_process_is_a_typed_error_not_a_hang() {
    let (tree, mix) = random_mix(11);
    let config = PacketSimConfig::default();
    let mut options = procs();
    // Shrink the patience so the test pins "within the read timeout"
    // at test-suite scale.
    options.reply_timeout = Duration::from_secs(10);
    options.stall_timeout = Some(Duration::from_secs(5));
    let mut dist = DistPacketSim::launch(&tree, &mix, config, 2, options).unwrap();
    dist.run(2.0).unwrap();
    assert!(dist.kill_worker_process(0), "first worker process killed");
    let started = Instant::now();
    let err = match dist.run(4.0) {
        Err(e) => e,
        Ok(_) => panic!("a run missing its worker must fail"),
    };
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(30),
        "typed error must surface within the timeouts, took {waited:?}: {err}"
    );
    // Any transport-level variant is acceptable (which one wins the
    // race depends on whether the kill lands mid-epoch or between
    // epochs); a model error would mean we misdiagnosed the death.
    assert!(
        !matches!(err, ww_dist::DistError::Model(_)),
        "death must not be reported as a model error: {err}"
    );
}
