//! Golden equivalence: the sharded parallel packet simulator must replay
//! the sequential `PacketSim` bit for bit at every worker count, on every
//! reported number — traces, served rates, ledger, counters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ww_core::packet::BarrierOp;
use ww_core::packetsim::{PacketBackend, PacketSim, PacketSimConfig, PacketSimReport};
use ww_model::{DocId, ModelError, NodeId, Tree};
use ww_pdes::ParPacketSim;
use ww_telemetry::Level;
use ww_topology::paper;
use ww_workload::DocMix;

fn fig7_mix() -> (Tree, DocMix) {
    let b = paper::fig7();
    let mut mix = DocMix::new(b.tree.len());
    for d in &b.demands {
        mix.set(d.origin, d.doc, d.rate);
    }
    (b.tree, mix)
}

/// A 60-node random tree with a Zipf-skewed shared document mix — the
/// flash-crowd shape, scaled for a test.
fn random_mix(seed: u64) -> (Tree, DocMix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, 60, 6);
    let rates = ww_workload::zipf_nodes(&mut rng, &tree, 1200.0, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 12, 1.0);
    (tree, mix)
}

#[test]
fn fig7_matches_sequential_at_every_worker_count() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let seq = PacketSim::new(&tree, &mix, config).run(20.0);
    assert!(
        seq.served_requests > 1000,
        "run long enough to mean something"
    );
    for workers in [1, 2, 4, 8] {
        let par = ParPacketSim::new(&tree, &mix, config, workers).run(20.0);
        assert_eq!(seq.canonical(), par.canonical(), "fig7 workers={workers}");
    }
}

#[test]
fn random_tree_matches_sequential_at_every_worker_count() {
    let (tree, mix) = random_mix(0xC0FFEE);
    let config = PacketSimConfig {
        seed: 42,
        ..PacketSimConfig::default()
    };
    let seq = PacketSim::new(&tree, &mix, config).run(8.0);
    for workers in [1, 2, 4, 8] {
        let par = ParPacketSim::new(&tree, &mix, config, workers).run(8.0);
        assert_eq!(seq.canonical(), par.canonical(), "random workers={workers}");
    }
}

#[test]
fn gossip_loss_randomness_is_shard_independent() {
    let (tree, mix) = random_mix(7);
    let config = PacketSimConfig {
        gossip_loss: 0.25,
        ..PacketSimConfig::default()
    };
    let seq = PacketSim::new(&tree, &mix, config).run(6.0);
    for workers in [2, 5] {
        let par = ParPacketSim::new(&tree, &mix, config, workers).run(6.0);
        assert_eq!(seq.canonical(), par.canonical(), "lossy workers={workers}");
    }
}

#[test]
fn epoch_stepping_matches_one_shot() {
    // The scenario adapter drives epoch by epoch; the parallel engine
    // must replay its own one-shot run and the sequential stepped run.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let mut stepped = ParPacketSim::new(&tree, &mix, config, 4);
    for k in 1..=10 {
        stepped.run(k as f64);
    }
    let a = stepped.report();
    let b = ParPacketSim::new(&tree, &mix, config, 4).run(10.0);
    let c = PacketSim::new(&tree, &mix, config).run(10.0);
    assert_eq!(a.canonical(), b.canonical(), "stepped vs one-shot");
    assert_eq!(a.canonical(), c.canonical(), "stepped vs sequential");
}

#[test]
fn link_failures_and_invalidation_match_sequential() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();

    let node = NodeId::new(2);
    let faulted = |sim: &mut dyn PacketBackend<Error = ModelError>| {
        sim.run(6.0).unwrap();
        sim.apply_op(&BarrierOp::FailLink { node }).unwrap();
        sim.run(12.0).unwrap();
        sim.apply_op(&BarrierOp::HealLink { node }).unwrap();
        sim.apply_op(&BarrierOp::Invalidate { doc: DocId::new(1) })
            .unwrap();
        sim.run(18.0).unwrap()
    };
    let mut seq = PacketSim::new(&tree, &mix, config);
    let a = faulted(&mut seq);
    let mut par = ParPacketSim::new(&tree, &mix, config, 3);
    let b = faulted(&mut par);

    assert_eq!(a.canonical(), b.canonical(), "faulted run");
    assert_eq!(
        seq.served_total(NodeId::new(2)),
        par.served_total(NodeId::new(2))
    );
}

#[test]
fn repeated_runs_are_deterministic() {
    let (tree, mix) = random_mix(99);
    let config = PacketSimConfig::default();
    let one = ParPacketSim::new(&tree, &mix, config, 4).run(5.0);
    let two = ParPacketSim::new(&tree, &mix, config, 4).run(5.0);
    assert_eq!(one.canonical(), two.canonical(), "rerun");
}

#[test]
fn worker_count_is_capped_by_topology() {
    let tree = Tree::from_parents(&[None, Some(0)]).unwrap();
    let mut mix = DocMix::new(2);
    mix.set(NodeId::new(1), DocId::new(1), 50.0);
    let sim = ParPacketSim::new(&tree, &mix, PacketSimConfig::default(), 16);
    assert!(sim.shard_count() <= 2);
}

#[test]
#[should_panic(expected = "positive link delay")]
fn zero_link_delay_rejected_for_multi_shard() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig {
        link_delay: 0.0,
        ..PacketSimConfig::default()
    };
    let _ = ParPacketSim::new(&tree, &mix, config, 4);
}

/// Drives a seven-kind `BarrierOp` script — a batched storm, lone ops,
/// a rejected op inside the batch — between epochs, with counters on.
fn churned_cdn_run<B: PacketBackend>(sim: &mut B, tree: &Tree) -> (Vec<bool>, PacketSimReport)
where
    B::Error: std::fmt::Debug,
{
    sim.set_telemetry(Level::Counters);
    sim.run(2.0).unwrap();
    let leaf = NodeId::new(tree.len() - 1);
    let storm = [
        BarrierOp::AddLeaf {
            parent: NodeId::new(3),
            rate: 40.0,
        },
        BarrierOp::RemoveLeaf { node: leaf },
        // Interior: rejected, and must leave the batch intact.
        BarrierOp::RemoveLeaf {
            node: NodeId::new(1),
        },
        // A ninth document: the universe — and every slab's stride —
        // grows.
        BarrierOp::PublishDoc {
            doc: DocId::new(100),
            origin: NodeId::new(20),
            rate: 25.0,
        },
        BarrierOp::FailLink {
            node: NodeId::new(2),
        },
    ];
    let mut verdicts: Vec<bool> = sim
        .apply_all(&storm)
        .unwrap()
        .iter()
        .map(Result::is_ok)
        .collect();
    sim.run(4.0).unwrap();
    let rates = ww_workload::leaf_only(PacketBackend::tree(sim), 2.0);
    let mix = ww_workload::shared_zipf_mix(PacketBackend::tree(sim), &rates, 6, 0.8);
    for op in [
        BarrierOp::HealLink {
            node: NodeId::new(2),
        },
        BarrierOp::Invalidate { doc: DocId::new(1) },
        BarrierOp::SetMix { mix },
    ] {
        verdicts.push(sim.apply_op(&op).is_ok());
    }
    (verdicts, sim.run(6.0).unwrap())
}

#[test]
fn one_shard_run_is_the_sequential_run_structurally() {
    // `PacketSim` and a one-worker `ParPacketSim` are the same driver
    // over the same one-shard partition, so beyond the report they must
    // agree on what no report shows: which events rode the queue's
    // lanes, how big the node state grew, what the barrier path did.
    let tree = ww_topology::two_level(12, 12);
    let rates = ww_workload::leaf_only(&tree, 1.5);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 8, 1.0);
    let config = PacketSimConfig::default();
    let mut seq = PacketSim::new(&tree, &mix, config);
    let mut par = ParPacketSim::new(&tree, &mix, config, 1);
    let (seq_verdicts, a) = churned_cdn_run(&mut seq, &tree);
    let (par_verdicts, b) = churned_cdn_run(&mut par, &tree);
    assert_eq!(
        seq_verdicts,
        [true, true, false, true, true, true, true, true],
        "only the interior removal is rejected"
    );
    assert_eq!(seq_verdicts, par_verdicts);
    assert!(a.served_requests > 500, "the script does real work");
    assert_eq!(a.canonical(), b.canonical(), "one shard");
    assert_eq!(a.shard_event_counts, b.shard_event_counts);
    assert_eq!(a.imbalance.to_bits(), b.imbalance.to_bits());

    let (seq_snap, par_snap) = (seq.telemetry_snapshot(), par.telemetry_snapshot());
    for key in [
        "queue.lane_admitted",
        "queue.lane_fallback",
        "queue.lane_hw",
        "queue.radix_hw",
        "queue.lane_len",
        "state.bytes",
        "state.nodes",
    ] {
        let ours = seq_snap.counter(&format!("core.{key}"));
        assert!(ours.is_some(), "core.{key} reported");
        assert_eq!(ours, par_snap.counter(&format!("pdes.{key}")), "{key}");
    }
    for key in [
        "core.barrier.ops",
        "core.surgery.sweeps",
        "core.surgery.removed",
        "core.oracle.refolds",
        "core.oracle.full_sweeps",
    ] {
        let ours = seq_snap.counter(key);
        assert!(ours.is_some_and(|v| v > 0), "{key} recorded");
        assert_eq!(ours, par_snap.counter(key), "{key}");
    }
    assert_eq!(seq_snap.counter("core.barrier.ops"), Some(8));
}

/// The first world that fills a ring: the hub of a broom gossips to
/// every bristle in one fire, and with two workers more of them sit
/// across the cut than an in-process ring holds (4,096 slots). The
/// sender parks the surplus in the wire's overflow queue; the run's
/// report and its `full` snapshot count the parks, and every simulated
/// number still equals the sequential run's.
#[test]
fn a_hub_that_fills_a_ring_parks_and_changes_nothing() {
    let tree = ww_topology::broom(2, 10_000);
    let rates = ww_workload::leaf_only(&tree, 0.2);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 2, 1.0);
    let config = PacketSimConfig::default();
    let hub = NodeId::new(1);
    let seq = PacketSim::new(&tree, &mix, config).run(1.2);
    let mut par = ParPacketSim::new(&tree, &mix, config, 2);
    let across = (tree.children(hub).iter())
        .filter(|&&c| par.shard_of(c) != par.shard_of(hub))
        .count();
    assert!(across > 4096, "{across} bristles across the cut");
    par.set_telemetry(Level::Full);
    let report = par.run(1.2);
    assert_eq!(seq.canonical(), report.canonical(), "broom workers=2");
    assert!(report.overflow_parks > 0, "the hub's fire parks");
    assert!(report.overflow_peak_parked > 0);
    let snap = par.telemetry_snapshot();
    let read = |name: &str| (snap.counters.iter()).find_map(|(n, v)| (n == name).then_some(*v));
    assert_eq!(read("pdes.overflow.parks"), Some(report.overflow_parks));
    assert_eq!(
        read("pdes.overflow.peak_parked"),
        Some(report.overflow_peak_parked)
    );
    // The hub's wire out parks whatever the threads' timing: one fire
    // stages more than the ring holds before anything is published.
    let (from, to) = (par.shard_of(hub), 1 - par.shard_of(hub));
    assert!(read(&format!("pdes.link.{from}-{to}.parks")) > Some(0));
    assert!(read(&format!("pdes.link.{from}-{to}.peak_parked")) > Some(0));
}
