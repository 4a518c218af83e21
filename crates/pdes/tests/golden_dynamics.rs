//! Golden equivalence under *dynamics*: the sharded parallel packet
//! simulator must replay the sequential `PacketSim` bit for bit at every
//! worker count while the world churns — nodes join and leave, the
//! workload shifts, documents are published and invalidated, links fail
//! and heal — all applied at epoch barriers as `BarrierOp`s through the
//! one `PacketBackend` surface both drivers implement.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ww_core::packet::BarrierOp;
use ww_core::packetsim::{PacketBackend, PacketSim, PacketSimConfig, PacketSimReport};
use ww_model::{DocId, ModelError, NodeId, Tree};
use ww_pdes::{partition_forest, ParPacketSim, ShardHost, WireReceiver, WireSender};
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

/// A mid-sized random tree with a Zipf-skewed shared mix.
fn random_mix(seed: u64, nodes: usize) -> (Tree, DocMix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, nodes, 5);
    let rates = ww_workload::zipf_nodes(&mut rng, &tree, 20.0 * nodes as f64, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 10, 1.0);
    (tree, mix)
}

/// The barrier operations both drivers expose, scripted.
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

/// The `BarrierOp` a scripted mutation means on the driver's current
/// (possibly churned) tree.
fn barrier_op(driver: &dyn PacketBackend<Error = ModelError>, op: &Op) -> BarrierOp {
    match *op {
        Op::Run(_) => unreachable!("runs are not mutations"),
        Op::Join { parent, rate } => BarrierOp::AddLeaf {
            parent: NodeId::new(parent),
            rate,
        },
        Op::Leave { node } => BarrierOp::RemoveLeaf {
            node: NodeId::new(node),
        },
        Op::Shift { docs, theta } => {
            // Re-derive a shifted mix from the *current* (churned)
            // tree: same spontaneous totals, new document split.
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
    }
}

/// Replays the script, every mutation a lone `apply_op`.
fn replay(driver: Driver<'_>, script: &[Op]) -> PacketSimReport {
    let mut report = None;
    for op in script {
        match op {
            Op::Run(h) => report = Some(driver.run(*h).expect("in-process runs cannot fail")),
            _ => {
                let op = barrier_op(driver, op);
                driver.apply_op(&op).expect("scripted op applies");
            }
        }
    }
    report.expect("script ends with a run")
}

/// Replays the script with the mutations between two runs opened and
/// committed as one barrier batch.
fn replay_batched(driver: Driver<'_>, script: &[Op]) -> PacketSimReport {
    let mut report = None;
    let mut open = false;
    for op in script {
        match op {
            Op::Run(h) => {
                if std::mem::take(&mut open) {
                    driver.commit_batch().expect("batch commits");
                }
                report = Some(driver.run(*h).expect("in-process runs cannot fail"));
            }
            _ => {
                if !std::mem::replace(&mut open, true) {
                    driver.begin_batch().expect("batch opens");
                }
                let op = barrier_op(driver, op);
                driver.apply_op(&op).expect("scripted op applies");
            }
        }
    }
    report.expect("script ends with a run")
}

/// Churn + shift + publish script over the random topology: every
/// barrier operation fires at least once, interleaved with epochs.
fn full_dynamics_script(tree: &Tree) -> Vec<Op> {
    // A leaf to remove later: the highest-id leaf of the initial tree.
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
fn churned_run_matches_sequential_at_every_worker_count() {
    let (tree, mix) = random_mix(0xD11A, 40);
    let config = PacketSimConfig {
        seed: 11,
        ..PacketSimConfig::default()
    };
    let script = full_dynamics_script(&tree);
    let mut seq = PacketSim::new(&tree, &mix, config);
    let seq_report = replay(&mut seq, &script);
    assert!(
        seq_report.served_requests > 500,
        "churned run must do real work, served {}",
        seq_report.served_requests
    );
    for workers in [1, 2, 4, 8] {
        let mut par = ParPacketSim::new(&tree, &mix, config, workers);
        let par_report = replay(&mut par, &script);
        assert_eq!(
            seq_report.canonical(),
            par_report.canonical(),
            "dynamics workers={workers}"
        );
        // Per-node lifetime counters agree too (posterior to renumbering).
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
fn churned_run_matches_sequential_with_batching_on_and_off() {
    // Full dynamics at packet fidelity, with each barrier's mutations
    // applied one by one and as one batch: neither may shift a bit.
    let (tree, mix) = random_mix(0xD11B, 30);
    let config = PacketSimConfig {
        seed: 3,
        ..PacketSimConfig::default()
    };
    let script = full_dynamics_script(&tree);
    let mut seq = PacketSim::new(&tree, &mix, config);
    let seq_report = replay(&mut seq, &script);
    for workers in [1, 2, 4, 8] {
        for batching in [true, false] {
            let mut par = ParPacketSim::new(&tree, &mix, config, workers);
            let par_report = if batching {
                replay_batched(&mut par, &script)
            } else {
                replay(&mut par, &script)
            };
            assert_eq!(
                seq_report.canonical(),
                par_report.canonical(),
                "churn workers={workers} batching={batching}"
            );
        }
    }
}

#[test]
fn fig7_churn_storm_matches_sequential() {
    // Repeated joins under every original node, then removals, on the
    // paper's own topology — exercises the swap-remove renumbering with
    // interior moves.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let script = vec![
        Op::Run(3.0),
        Op::Join {
            parent: 3,
            rate: 50.0,
        },
        Op::Run(5.0),
        Op::Join {
            parent: 4,
            rate: 30.0,
        },
        Op::Run(7.0),
        // Remove an *early*-id leaf so the last node renumbers into it:
        // node 5 (the deepest joiner) takes id 2.
        Op::Leave { node: 2 },
        Op::Run(9.0),
        // The renumbered node is now the leaf at id 2; removing it makes
        // the *other* joiner (id 4, now last) renumber in turn.
        Op::Leave { node: 2 },
        Op::Run(12.0),
    ];
    let mut seq = PacketSim::new(&tree, &mix, config);
    let seq_report = replay(&mut seq, &script);
    for workers in [1, 2, 4, 8] {
        let mut par = ParPacketSim::new(&tree, &mix, config, workers);
        let par_report = replay(&mut par, &script);
        assert_eq!(
            seq_report.canonical(),
            par_report.canonical(),
            "fig7 workers={workers}"
        );
    }
}

/// A K-event same-barrier churn storm over the fig7 topology: two
/// joins, a leave (with swap-remove renumbering), a publish, a
/// fail/heal pair, and an invalidate, all at one epoch boundary.
/// Structural effects apply eagerly in both the batched and the
/// one-at-a-time paths, so later ops see the same renumbered ids.
fn storm_ops() -> Vec<BarrierOp> {
    vec![
        BarrierOp::AddLeaf {
            parent: NodeId::new(3),
            rate: 50.0,
        },
        BarrierOp::AddLeaf {
            parent: NodeId::new(4),
            rate: 30.0,
        },
        BarrierOp::RemoveLeaf {
            node: NodeId::new(2),
        },
        BarrierOp::PublishDoc {
            doc: DocId::new(901),
            origin: NodeId::new(1),
            rate: 20.0,
        },
        BarrierOp::FailLink {
            node: NodeId::new(1),
        },
        BarrierOp::Invalidate { doc: DocId::new(1) },
        BarrierOp::HealLink {
            node: NodeId::new(1),
        },
    ]
}

#[test]
fn same_barrier_storm_batched_matches_unbatched_at_every_worker_count() {
    // The batched-apply pin: a whole-barrier `apply_all` (one oracle
    // refresh, one composed queue-surgery pass, one arrival
    // re-resolution) must replay one-at-a-time application bit for bit,
    // sequentially and at every worker count.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let ops = storm_ops();

    let mut unbatched = PacketSim::new(&tree, &mix, config);
    unbatched.run(3.0);
    for op in &ops {
        unbatched.apply_op(op).expect("storm op applies");
    }
    let a = unbatched.run(9.0);
    assert!(
        a.served_requests > 500,
        "storm run must do real work, served {}",
        a.served_requests
    );

    let mut batched = PacketSim::new(&tree, &mix, config);
    batched.run(3.0);
    for r in batched.apply_all(&ops) {
        r.expect("storm op applies");
    }
    let b = batched.run(9.0);
    assert_eq!(a.canonical(), b.canonical(), "sequential batched");

    for workers in [1, 2, 4] {
        let mut par = ParPacketSim::new(&tree, &mix, config, workers);
        par.run(3.0);
        for op in &ops {
            par.apply_op(op).expect("storm op applies");
        }
        let c = par.run(9.0);
        assert_eq!(
            a.canonical(),
            c.canonical(),
            "parallel unbatched workers={workers}"
        );

        let mut par = ParPacketSim::new(&tree, &mix, config, workers);
        par.run(3.0);
        for r in par.apply_all(&ops) {
            r.expect("storm op applies");
        }
        let d = par.run(9.0);
        assert_eq!(
            a.canonical(),
            d.canonical(),
            "parallel batched workers={workers}"
        );
    }
}

#[test]
fn rejected_op_mid_batch_leaves_survivors_identical() {
    // Ops validate eagerly inside a batch: a rejected op is skipped and
    // the rest of the barrier applies, exactly as in one-at-a-time
    // application — same per-op verdicts, same state afterwards.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let ops = vec![
        BarrierOp::AddLeaf {
            parent: NodeId::new(0),
            rate: 25.0,
        },
        BarrierOp::Invalidate {
            doc: DocId::new(424242),
        },
        BarrierOp::PublishDoc {
            doc: DocId::new(7),
            origin: NodeId::new(2),
            rate: 15.0,
        },
    ];

    let mut unbatched = PacketSim::new(&tree, &mix, config);
    unbatched.run(2.0);
    let verdicts_a: Vec<bool> = ops
        .iter()
        .map(|op| unbatched.apply_op(op).is_ok())
        .collect();
    let a = unbatched.run(8.0);

    let mut batched = PacketSim::new(&tree, &mix, config);
    batched.run(2.0);
    let verdicts_b: Vec<bool> = batched.apply_all(&ops).iter().map(|r| r.is_ok()).collect();
    let b = batched.run(8.0);

    assert_eq!(verdicts_a, vec![true, false, true]);
    assert_eq!(verdicts_a, verdicts_b, "per-op verdicts diverge");
    assert_eq!(a.canonical(), b.canonical(), "rejected mid-batch");
}

#[test]
fn stepped_horizons_with_churn_match_one_shot_grouping() {
    // Epoch-by-epoch stepping (the scenario adapter's pattern) with a
    // join in the middle replays the same script driven in larger runs.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let mut stepped = ParPacketSim::new(&tree, &mix, config, 2);
    for k in 1..=4 {
        stepped.run(k as f64);
    }
    let join = BarrierOp::AddLeaf {
        parent: NodeId::new(1),
        rate: 45.0,
    };
    stepped.apply_op(&join).unwrap();
    for k in 5..=10 {
        stepped.run(k as f64);
    }
    let a = stepped.report();
    let mut grouped = ParPacketSim::new(&tree, &mix, config, 2);
    grouped.run(4.0);
    grouped.apply_op(&join).unwrap();
    let b = grouped.run(10.0);
    assert_eq!(a.canonical(), b.canonical(), "stepped vs grouped");
}

#[test]
fn first_publish_into_an_empty_universe_matches_sequential() {
    // A world that starts with no document at all: the per-node tables
    // have no columns, and the first publish grows the universe from
    // zero — on two workers exactly as on the sequential engine.
    let tree = Tree::from_parents(&[None, Some(0), Some(0), Some(1), Some(2)]).unwrap();
    let mix = DocMix::new(tree.len());
    let config = PacketSimConfig::default();
    let publish = BarrierOp::PublishDoc {
        doc: DocId::new(7),
        origin: NodeId::new(3),
        rate: 40.0,
    };
    let mut seq = PacketSim::new(&tree, &mix, config);
    let mut par = ParPacketSim::new(&tree, &mix, config, 2);
    seq.run(1.0);
    par.run(1.0);
    assert!(seq.apply_all(std::slice::from_ref(&publish))[0].is_ok());
    assert!(par.apply_all(std::slice::from_ref(&publish))[0].is_ok());
    seq.run(3.0);
    par.run(3.0);
    // A second, smaller id shifts the one existing column.
    let publish = BarrierOp::PublishDoc {
        doc: DocId::new(2),
        origin: NodeId::new(4),
        rate: 25.0,
    };
    seq.apply_op(&publish).unwrap();
    par.apply_op(&publish).unwrap();
    let (a, b) = (seq.run(8.0), par.run(8.0));
    assert!(a.served_requests > 0, "the published demand is served");
    assert_eq!(a.canonical(), b.canonical(), "first publish, 2 workers");
}

#[test]
fn a_worker_host_rejects_bad_link_ops_with_a_typed_error() {
    // What a distributed worker runs when a frame names the root or a
    // node past the tree: a rejection, not a panic — and nothing moved.
    let (tree, mix) = fig7_mix();
    let mut host = ShardHost::worker_on(
        tree.clone(),
        mix,
        PacketSimConfig::default(),
        partition_forest(&tree, 1),
        0,
        None,
        |_| -> Box<dyn WireSender> { unreachable!("one shard has no cut edge") },
        |_| -> Box<dyn WireReceiver> { unreachable!("one shard has no cut edge") },
    );
    let (root, past) = (tree.root(), NodeId::new(tree.len()));
    for node in [root, past] {
        for op in [BarrierOp::FailLink { node }, BarrierOp::HealLink { node }] {
            let expect = if node == root {
                ModelError::NoUplink { node }
            } else {
                ModelError::NodeOutOfRange {
                    node,
                    len: tree.len(),
                }
            };
            assert_eq!(host.apply_op(&op), Err(expect.clone()), "lone {op:?}");
            host.begin_batch();
            assert_eq!(host.apply_op(&op), Err(expect), "batched {op:?}");
            host.commit_batch();
        }
    }
    assert!(tree.nodes().all(|u| !host.core().world.link_failed(u)));
}

/// Demand that would overflow is refused with `InvalidRate` on the
/// parallel engine too, lone and batched, and changes nothing: a run
/// that saw the refused join, shift and publish replays the sequential
/// run that never saw them, and the world after the refused publish
/// and leave equals the sequential world.
#[test]
fn overflowing_demand_is_refused_at_every_worker_count() {
    let tree = ww_topology::k_ary(2, 3);
    let rates = ww_workload::leaf_only(&tree, 6.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 5, 1.0);
    let config = PacketSimConfig::default();
    let n = NodeId::new;
    let mut overflowing = DocMix::new(tree.len());
    overflowing.set(n(9), DocId::new(1), 1e308);
    overflowing.set(n(9), DocId::new(2), 1e308);
    let refused = [
        BarrierOp::AddLeaf {
            parent: n(0),
            rate: 1.7e308,
        },
        BarrierOp::SetMix { mix: overflowing },
    ];
    let join = BarrierOp::AddLeaf {
        parent: n(1),
        rate: 6.0,
    };
    let publish = |origin| BarrierOp::PublishDoc {
        doc: DocId::new(9),
        origin,
        rate: f64::MAX,
    };
    // Two maxima at leaf 7 (second publish) or at its parent 3 (the
    // leave re-homing 7's maximum onto 3's).
    let tail = [
        (publish(n(7)), None),
        (publish(n(7)), Some("rate at n7 is invalid: inf")),
        (publish(n(3)), None),
        (
            BarrierOp::RemoveLeaf { node: n(7) },
            Some("rate at n3 is invalid: inf"),
        ),
    ];
    let verdict = |r: Result<_, ModelError>| r.err().map(|e| e.to_string());

    let mut seq = PacketSim::new(&tree, &mix, config);
    seq.run(2.0);
    seq.apply_op(&join).expect("the join applies");
    let a = seq.run(5.0);
    for (op, _) in &tail {
        let _ = seq.apply_op(op);
    }
    for workers in [1, 2] {
        for batched in [false, true] {
            let label = format!("workers={workers} batched={batched}");
            let mut par = ParPacketSim::new(&tree, &mix, config, workers);
            par.run(2.0);
            let ops: Vec<BarrierOp> = refused.iter().cloned().chain([join.clone()]).collect();
            let verdicts: Vec<Option<String>> = if batched {
                par.apply_all(&ops).into_iter().map(verdict).collect()
            } else {
                ops.iter().map(|op| verdict(par.apply_op(op))).collect()
            };
            assert_eq!(
                verdicts,
                [
                    Some("rate at n0 is invalid: inf".to_string()),
                    Some("rate at n9 is invalid: inf".to_string()),
                    None
                ],
                "{label}"
            );
            assert_eq!(a.canonical(), par.run(5.0).canonical(), "{label}");
            for (op, refusal) in &tail {
                assert_eq!(verdict(par.apply_op(op)), refusal.map(str::to_string));
            }
            assert_eq!(
                format!("{:?}", par.world()),
                format!("{:?}", seq.world()),
                "{label}"
            );
        }
    }
}
