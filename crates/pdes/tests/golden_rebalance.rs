//! Golden equivalence under *adaptive rebalancing*: migrating nodes
//! between shards at epoch barriers must never change a reported bit.
//! The sharded simulator with rebalancing enabled — at any threshold,
//! any window, any worker count — replays the sequential `PacketSim`
//! and its own static-partition twin exactly, on a quiet world and
//! under the full churn grammar alike. Rebalancing only changes which
//! thread executes which node.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ww_core::packet::BarrierOp;
use ww_core::packetsim::{PacketBackend, PacketSim, PacketSimConfig, PacketSimReport};
use ww_model::{DocId, ModelError, NodeId, Tree};
use ww_pdes::{ParPacketSim, RebalanceConfig};
use ww_telemetry::Level;
use ww_workload::DocMix;

/// A random tree with a heavily Zipf-skewed workload: most demand lands
/// on a few subtrees, so a node-count packing leaves the shards
/// lopsided and the rebalancer has something real to do.
fn skewed_mix(seed: u64, nodes: usize) -> (Tree, DocMix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, nodes, 6);
    let rates = ww_workload::zipf_nodes(&mut rng, &tree, 20.0 * nodes as f64, 1.3);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 12, 1.0);
    (tree, mix)
}

/// An aggressive config: re-pack whenever the closed window shows any
/// skew at all, every epoch. Maximizes migrations, so equivalence under
/// it is the strongest pin.
fn eager() -> RebalanceConfig {
    RebalanceConfig {
        trigger_imbalance: 1.05,
        min_epoch_gap: 1,
    }
}

#[test]
fn event_free_rebalancing_matches_sequential_at_every_worker_count() {
    let (tree, mix) = skewed_mix(0xBA1A1, 60);
    let config = PacketSimConfig {
        seed: 21,
        ..PacketSimConfig::default()
    };
    let seq = PacketSim::new(&tree, &mix, config).run(10.0);
    assert!(
        seq.served_requests > 1000,
        "run long enough to mean something"
    );
    for workers in [1, 2, 4, 8] {
        for rebalance in [
            None,
            Some(eager()),
            Some(RebalanceConfig {
                trigger_imbalance: 1.5,
                min_epoch_gap: 3,
            }),
        ] {
            let mut par = ParPacketSim::new(&tree, &mix, config, workers);
            par.set_rebalance(rebalance);
            let rep = par.run(10.0);
            assert_eq!(
                seq.canonical(),
                rep.canonical(),
                "workers={workers} rebalance={rebalance:?}"
            );
            // The partition-dependent diagnostics still reconcile: the
            // per-shard event counts cover every processed event.
            assert_eq!(
                rep.shard_event_counts.iter().sum::<u64>(),
                rep.processed_events,
                "shard counts must partition the processed total"
            );
            assert!(rep.imbalance >= 1.0, "max/mean is at least 1");
        }
    }
}

/// The barrier operations both drivers expose, scripted (the same
/// grammar as `golden_dynamics.rs`): churn, workload shifts, document
/// lifecycle, link failures — interleaved with migration windows.
#[derive(Debug, Clone)]
enum Op {
    Run(f64),
    Join { parent: usize, rate: f64 },
    Leave { node: usize },
    Shift { docs: usize, theta: f64 },
    Publish { doc: u64, origin: usize, rate: f64 },
    Invalidate { doc: u64 },
    Fail { node: usize },
    Heal { node: usize },
}

/// Either in-process driver, behind the one backend surface.
type Driver<'a> = &'a mut dyn PacketBackend<Error = ModelError>;

fn replay(driver: Driver<'_>, script: &[Op]) -> PacketSimReport {
    let mut report = None;
    for op in script {
        let op = match *op {
            Op::Run(h) => {
                report = Some(driver.run(h).expect("in-process runs cannot fail"));
                continue;
            }
            Op::Join { parent, rate } => BarrierOp::AddLeaf {
                parent: NodeId::new(parent),
                rate,
            },
            Op::Leave { node } => BarrierOp::RemoveLeaf {
                node: NodeId::new(node),
            },
            Op::Shift { docs, theta } => {
                let tree = driver.tree();
                let rates = ww_workload::uniform(tree, 15.0);
                BarrierOp::SetMix {
                    mix: ww_workload::shared_zipf_mix(tree, &rates, docs, theta),
                }
            }
            Op::Publish { doc, origin, rate } => BarrierOp::PublishDoc {
                doc: DocId::new(doc),
                origin: NodeId::new(origin),
                rate,
            },
            Op::Invalidate { doc } => BarrierOp::Invalidate {
                doc: DocId::new(doc),
            },
            Op::Fail { node } => BarrierOp::FailLink {
                node: NodeId::new(node),
            },
            Op::Heal { node } => BarrierOp::HealLink {
                node: NodeId::new(node),
            },
        };
        driver.apply_op(&op).expect("scripted op applies");
    }
    report.expect("script ends with a run")
}

/// Every barrier-op kind at least once, interleaved with enough epochs
/// for an eager rebalancer to migrate between (and right after) them.
fn churn_script(tree: &Tree) -> Vec<Op> {
    let leaf = (0..tree.len())
        .rev()
        .map(NodeId::new)
        .find(|&u| tree.is_leaf(u))
        .expect("tree has a leaf")
        .index();
    vec![
        Op::Run(2.0),
        Op::Join {
            parent: 0,
            rate: 40.0,
        },
        Op::Run(4.0),
        Op::Fail { node: 1 },
        Op::Shift {
            docs: 8,
            theta: 0.6,
        },
        Op::Run(6.0),
        Op::Leave { node: leaf },
        Op::Heal { node: 1 },
        Op::Run(8.0),
        Op::Publish {
            doc: 777,
            origin: 2,
            rate: 25.0,
        },
        Op::Run(10.0),
        Op::Invalidate { doc: 777 },
        Op::Run(12.0),
    ]
}

#[test]
fn churned_run_with_rebalancing_matches_sequential_at_every_worker_count() {
    let (tree, mix) = skewed_mix(0xBA1A2, 40);
    let config = PacketSimConfig {
        seed: 7,
        ..PacketSimConfig::default()
    };
    let script = churn_script(&tree);
    let mut seq = PacketSim::new(&tree, &mix, config);
    let seq_report = replay(&mut seq, &script);
    assert!(
        seq_report.served_requests > 500,
        "churned run must do real work, served {}",
        seq_report.served_requests
    );
    for workers in [1, 2, 4, 8] {
        let mut par = ParPacketSim::new(&tree, &mix, config, workers);
        par.set_rebalance(Some(eager()));
        let par_report = replay(&mut par, &script);
        assert_eq!(
            seq_report.canonical(),
            par_report.canonical(),
            "churn+rebalance workers={workers}"
        );
        // Per-node lifetime counters survive migration too.
        for j in 0..seq.tree().len() {
            assert_eq!(
                seq.served_total(NodeId::new(j)),
                par.served_total(NodeId::new(j)),
                "served_total diverges at node {j}, workers={workers}"
            );
        }
    }
}

#[test]
fn skewed_run_actually_migrates_and_stays_identical() {
    // The rebalancer must not be vacuously correct: on a skewed world it
    // has to fire, move nodes, and still report the static partition's
    // bits exactly.
    let (tree, mix) = skewed_mix(0xABBA, 60);
    let config = PacketSimConfig {
        seed: 5,
        ..PacketSimConfig::default()
    };
    let static_rep = ParPacketSim::new(&tree, &mix, config, 4).run(10.0);

    let mut adaptive = ParPacketSim::new(&tree, &mix, config, 4);
    adaptive.set_telemetry(Level::Counters);
    adaptive.set_rebalance(Some(eager()));
    let adaptive_rep = adaptive.run(10.0);
    assert_eq!(
        static_rep.canonical(),
        adaptive_rep.canonical(),
        "static vs adaptive"
    );

    let snap = adaptive.telemetry_snapshot();
    let applied = snap
        .counter("pdes.rebalance.applied")
        .expect("applied counter present");
    let migrated = snap
        .counter("pdes.rebalance.nodes_migrated")
        .expect("migration counter present");
    assert!(
        applied >= 1,
        "skewed world must trigger at least one re-pack"
    );
    assert!(migrated >= 1, "an applied re-pack moves at least one node");
    // The per-shard event counters and the imbalance high-water are
    // exported for observability.
    for shard in 0..4 {
        assert!(
            snap.counter(&format!("pdes.shard.{shard}.events"))
                .is_some(),
            "per-shard event counter missing for shard {shard}"
        );
    }
    assert!(
        snap.counter("pdes.imbalance.max_over_mean")
            .expect("imbalance high-water present")
            >= 1000,
        "fixed-point max/mean is at least 1.000"
    );
}

#[test]
fn a_tree_the_cut_cannot_split_is_left_alone() {
    // The thrash guard, on a world no packing can split: a node is
    // atomic, and here one leaf of a small star issues every request,
    // so it alone processes most of the events and already has a shard
    // to itself and three idle siblings. Every window crosses the
    // trigger, and every window the packer offers to take the idle
    // siblings off the hot leaf's hands — a predicted gain of a few
    // hundredths of the excess. "Strictly better" used to let the controller make
    // such a move at every barrier, forever; a plan now has to remove
    // a material share of the excess.
    let tree = ww_topology::star(9);
    let config = PacketSimConfig {
        seed: 19,
        ..PacketSimConfig::default()
    };
    let mut mix = DocMix::new(tree.len());
    let idle = ParPacketSim::new(&tree, &mix, config, 2);
    let hot = (tree.nodes())
        .find(|&u| idle.shard_of(u) != idle.shard_of(tree.root()))
        .expect("two shards");
    mix.set(hot, DocId::new(1), 2_000.0);
    let seq = PacketSim::new(&tree, &mix, config).run(8.0);
    let mut par = ParPacketSim::new(&tree, &mix, config, 2);
    par.set_telemetry(Level::Counters);
    par.set_rebalance(Some(RebalanceConfig {
        trigger_imbalance: 1.2,
        min_epoch_gap: 1,
    }));
    let rep = par.run(8.0);
    assert_eq!(seq.canonical(), rep.canonical(), "one hot leaf, armed");
    assert!(rep.imbalance > 1.2, "the split really is lopsided");
    let hot_events = rep.shard_event_counts[par.shard_of(hot)];
    assert!(
        2 * hot_events > rep.processed_events,
        "and one node's shard carries most of the events"
    );
    let snap = par.telemetry_snapshot();
    let counter = |key: &str| snap.counter(key).expect("rebalance counters present");
    assert_eq!(
        counter("pdes.rebalance.evaluations"),
        8,
        "every window crosses the trigger"
    );
    assert_eq!(counter("pdes.rebalance.applied"), 0, "nothing worth a move");
    assert_eq!(counter("pdes.rebalance.nodes_migrated"), 0);
}

#[test]
fn the_two_level_cdn_splits_evenly_and_is_left_alone() {
    // The world the test above used to run on. One connected subtree
    // per shard split `two_level(180, 180)` 32,400 / 181 — imbalance
    // 1.99, and nothing a controller could do about it. Ninety regions
    // a side leave it nothing to fix.
    let tree = ww_topology::two_level(180, 180);
    let rates = ww_workload::leaf_only(&tree, 0.25);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 4, 1.0);
    let config = PacketSimConfig {
        seed: 19,
        ..PacketSimConfig::default()
    };
    let seq = PacketSim::new(&tree, &mix, config).run(8.0);
    let mut par = ParPacketSim::new(&tree, &mix, config, 2);
    par.set_telemetry(Level::Counters);
    par.set_rebalance(Some(RebalanceConfig {
        trigger_imbalance: 1.2,
        min_epoch_gap: 1,
    }));
    let rep = par.run(8.0);
    assert_eq!(seq.canonical(), rep.canonical(), "two-level CDN, armed");
    assert!(rep.imbalance < 1.1, "imbalance {}", rep.imbalance);
    let snap = par.telemetry_snapshot();
    let counter = |key: &str| snap.counter(key).expect("counters present");
    assert_eq!(counter("pdes.rebalance.applied"), 0, "nothing to fix");
    assert_eq!(counter("pdes.rebalance.nodes_migrated"), 0);
    assert_eq!(counter("pdes.partition.pieces"), 181);
    assert_eq!(counter("pdes.partition.cut_edges"), 90);
}

#[test]
fn churn_right_after_a_migration_stays_identical() {
    // A bulk move leaves a donor compacted in place and a recipient
    // with its newcomers appended; the very next thing to touch that
    // layout here is not an epoch but a churn storm aimed at it: a
    // join under a node that just migrated (`add_node` behind the
    // appended members), the departure of a leaf that just migrated
    // (`swap_remove_node` across them) and a first-time publish
    // (`grow_node_state` over every moved state).
    let (tree, mix) = skewed_mix(0x5702, 72);
    let config = PacketSimConfig {
        seed: 41,
        ..PacketSimConfig::default()
    };
    for workers in [2, 4] {
        let mut par = ParPacketSim::new(&tree, &mix, config, workers);
        par.set_telemetry(Level::Counters);
        par.set_rebalance(Some(eager()));
        let home: Vec<usize> = tree.nodes().map(|u| par.shard_of(u)).collect();
        // Epoch by epoch up to the barrier that applies the first plan.
        let mut at = 0.0;
        while par
            .telemetry_snapshot()
            .counter("pdes.rebalance.applied")
            .expect("counter present")
            == 0
        {
            at += 1.0;
            assert!(at <= 6.0, "workers={workers}: the skew must trigger a plan");
            par.run(at);
        }
        let migrated: Vec<NodeId> = tree
            .nodes()
            .filter(|&u| par.shard_of(u) != home[u.index()])
            .collect();
        let leaf = *migrated
            .iter()
            .find(|&&u| tree.is_leaf(u))
            .expect("a migrated leaf");
        let parent = *migrated
            .iter()
            .find(|&&u| u != leaf)
            .expect("a second migrated node");
        let storm = [
            BarrierOp::AddLeaf { parent, rate: 35.0 },
            BarrierOp::RemoveLeaf { node: leaf },
            BarrierOp::PublishDoc {
                doc: DocId::new(4242),
                origin: parent,
                rate: 50.0,
            },
        ];
        for outcome in par.apply_all(&storm) {
            outcome.expect("storm op applies");
        }
        let par_report = par.run(at + 4.0);

        let mut seq = PacketSim::new(&tree, &mix, config);
        seq.run(at);
        for outcome in seq.apply_all(&storm) {
            outcome.expect("storm op applies");
        }
        let seq_report = seq.run(at + 4.0);
        assert_eq!(
            seq_report.canonical(),
            par_report.canonical(),
            "storm after migration, workers={workers}"
        );
        for j in 0..seq.tree().len() {
            assert_eq!(
                seq.served_total(NodeId::new(j)),
                par.served_total(NodeId::new(j)),
                "served_total diverges at node {j}, workers={workers}"
            );
        }
    }
}

#[test]
fn barriers_that_meet_loaded_lanes_stay_identical() {
    // The queue keeps in-flight messages (`Packet`, `CopyInstall`,
    // `GossipDeliver`) in FIFO lanes beside its radix heap, and every
    // barrier path must cover both: a leave renumbers or drops them, a
    // universe-growing publish keeps the document index each carries,
    // a rebalance extracts a migrant's share and replays it elsewhere.
    // A long link delay keeps the lanes well stocked (one Little's-law
    // worth of every stream), the counters prove they were non-empty at
    // each barrier, and the result must still be the sequential bits.
    let (tree, dense) = skewed_mix(0x1A9E5, 48);
    // Spread the ids out (1, 3, 5, ...) so a first-time id can sort in
    // front of them all.
    let mut mix = DocMix::new(tree.len());
    for u in tree.nodes() {
        for (doc, rate) in dense.demands_of(u).iter() {
            mix.set(u, DocId::new(2 * doc.value() + 1), rate);
        }
    }
    let config = PacketSimConfig {
        seed: 31,
        link_delay: 0.08,
        ..PacketSimConfig::default()
    };
    // The busiest leaf: its own packets are in flight toward its parent
    // when it leaves.
    let leaf = tree
        .nodes()
        .filter(|&u| tree.is_leaf(u))
        .max_by(|&a, &b| mix.node_total(a).total_cmp(&mix.node_total(b)))
        .expect("tree has a leaf");
    let barrier_ops = |driver: Driver<'_>| {
        driver
            .apply_op(&BarrierOp::RemoveLeaf { node: leaf })
            .expect("leave applies");
        // A first-time id below every existing one: it still takes the
        // next column, so no in-flight index moves.
        let publish = BarrierOp::PublishDoc {
            doc: DocId::new(0),
            origin: NodeId::new(1),
            rate: 60.0,
        };
        driver.apply_op(&publish).expect("publish applies");
        assert_eq!(driver.tree().len(), tree.len() - 1);
    };
    let lanes_loaded = |snap: &ww_telemetry::Snapshot, prefix: &str, at: &str| {
        let held = snap
            .counter(&format!("{prefix}.queue.lane_len"))
            .expect("lane occupancy counter present");
        assert!(held > 0, "{prefix}: lanes empty at the {at} barrier");
        held
    };

    let mut seq = PacketSim::new(&tree, &mix, config);
    seq.set_telemetry(Level::Counters);
    seq.run(2.5);
    let seq_held = lanes_loaded(&seq.telemetry_snapshot(), "core", "churn");
    let universe = seq.doc_table().len();
    barrier_ops(&mut seq);
    assert_eq!(seq.doc_table().len(), universe + 1, "the publish grows it");
    assert_eq!(
        seq.doc_table().index_of(DocId::new(0)),
        Some(universe as u32)
    );
    let seq_report = seq.run(6.0);

    for workers in [2, 4] {
        let mut par = ParPacketSim::new(&tree, &mix, config, workers);
        par.set_telemetry(Level::Counters);
        par.set_rebalance(Some(eager()));
        par.run(2.5);
        let snap = par.telemetry_snapshot();
        // Cross-shard messages in flight sit keyed in the radix heaps,
        // so the shards' lanes hold at most what the one queue holds.
        let held = lanes_loaded(&snap, "pdes", "churn");
        assert!(held <= seq_held, "workers={workers}: {held} > {seq_held}");
        barrier_ops(&mut par);
        let par_report = par.run(6.0);
        assert_eq!(
            seq_report.canonical(),
            par_report.canonical(),
            "loaded lanes, workers={workers}"
        );
        let snap = par.telemetry_snapshot();
        lanes_loaded(&snap, "pdes", "final");
        assert!(
            snap.counter("pdes.rebalance.nodes_migrated")
                .expect("migration counter present")
                >= 1,
            "workers={workers}: the eager rebalancer must migrate loaded nodes"
        );
        let admitted = snap.counter("pdes.queue.lane_admitted").unwrap_or(0);
        let fallback = snap.counter("pdes.queue.lane_fallback").unwrap_or(0);
        assert!(
            admitted > 10 * fallback.max(1),
            "workers={workers}: constant-delay traffic must ride the lanes \
             ({admitted} admitted, {fallback} fell back)"
        );
    }
}

#[test]
fn min_epoch_gap_is_honored() {
    // With the trigger floored at 1.0 every window close counts as an
    // evaluation, so the evaluations counter measures the cadence: a
    // gap of g closes exactly floor(epochs / g) windows.
    let (tree, mix) = skewed_mix(0xCADE, 40);
    let config = PacketSimConfig {
        seed: 2,
        ..PacketSimConfig::default()
    };
    for (gap, expected) in [(1u64, 12u64), (3, 4), (5, 2)] {
        let mut sim = ParPacketSim::new(&tree, &mix, config, 4);
        sim.set_telemetry(Level::Counters);
        sim.set_rebalance(Some(RebalanceConfig {
            trigger_imbalance: 1.0,
            min_epoch_gap: gap,
        }));
        sim.run(12.0);
        let evals = sim
            .telemetry_snapshot()
            .counter("pdes.rebalance.evaluations")
            .expect("evaluations counter present");
        assert_eq!(
            evals, expected,
            "gap={gap}: 12 epochs must close exactly {expected} windows"
        );
    }
}

#[test]
fn rebalancing_is_deterministic_across_reruns() {
    let (tree, mix) = skewed_mix(0xD0D0, 50);
    let config = PacketSimConfig {
        seed: 13,
        ..PacketSimConfig::default()
    };
    let run_once = || {
        let mut sim = ParPacketSim::new(&tree, &mix, config, 4);
        sim.set_telemetry(Level::Counters);
        sim.set_rebalance(Some(eager()));
        let rep = sim.run(8.0);
        let snap = sim.telemetry_snapshot();
        (
            rep,
            snap.counter("pdes.rebalance.applied"),
            snap.counter("pdes.rebalance.nodes_migrated"),
            snap.counter("pdes.imbalance.max_over_mean"),
        )
    };
    let (a, a_applied, a_migrated, a_hw) = run_once();
    let (b, b_applied, b_migrated, b_hw) = run_once();
    assert_eq!(a.canonical(), b.canonical(), "rerun");
    // Even the *decisions* replay: same windows, same plans, same moves.
    assert_eq!(a.shard_event_counts, b.shard_event_counts);
    assert_eq!(a.imbalance.to_bits(), b.imbalance.to_bits());
    assert_eq!(a_applied, b_applied, "applied counts diverge");
    assert_eq!(a_migrated, b_migrated, "migration counts diverge");
    assert_eq!(a_hw, b_hw, "imbalance high-water diverges");
}
