//! Golden equivalence for the distributed engine: a run spanning real
//! sockets must replay the sequential `PacketSim` **bit for bit** at
//! every worker count — traces, served rates, ledger, counters, and the
//! processed-event count.
//!
//! These tests use [`DistMode::Threads`]: every worker runs the full
//! worker code (codec, TCP loopback data mesh, control protocol) in a
//! thread of this process, so the entire socket path is exercised
//! without needing the `webwave-dist` binary on disk. Process-mode
//! golden tests live with the binary, in the root package's
//! `tests/process_mode.rs`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ww_core::packet::{BarrierOp, BarrierOutcome};
use ww_core::packetsim::{PacketBackend, PacketSim, PacketSimConfig, PacketSimReport};
use ww_dist::{DistError, DistMode, DistOptions, DistPacketSim};
use ww_model::{DocId, ModelError, NodeId, RateVector, Tree};
use ww_pdes::ParPacketSim;
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

fn random_mix(seed: u64) -> (Tree, DocMix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, 40, 5);
    let rates = ww_workload::zipf_nodes(&mut rng, &tree, 900.0, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 10, 1.0);
    (tree, mix)
}

fn threads() -> DistOptions {
    DistOptions {
        mode: DistMode::Threads,
        ..DistOptions::default()
    }
}

#[test]
fn fig7_matches_sequential_at_every_worker_count() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let seq = PacketSim::new(&tree, &mix, config).run(12.0);
    assert!(seq.served_requests > 500, "run long enough to matter");
    for workers in [1, 2, 4] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, threads()).unwrap();
        let rep = dist.run(12.0).unwrap();
        assert_eq!(seq.canonical(), rep.canonical(), "fig7 workers={workers}");
        dist.shutdown();
    }
}

#[test]
fn random_tree_matches_sequential() {
    let (tree, mix) = random_mix(0xD157);
    let config = PacketSimConfig {
        seed: 7,
        ..PacketSimConfig::default()
    };
    let seq = PacketSim::new(&tree, &mix, config).run(6.0);
    for workers in [2, 4] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, threads()).unwrap();
        let rep = dist.run(6.0).unwrap();
        assert_eq!(seq.canonical(), rep.canonical(), "random workers={workers}");
    }
}

/// The workers' hot-path counters travel home in their reports: a
/// two-worker run at counters level reports the shard loop's passes,
/// promises and stage depth, and the events its slabs saw popped are
/// exactly the events the report counts. Observation only — the report
/// is still the sequential one.
#[test]
fn worker_counters_reach_the_coordinator() {
    let (tree, mix) = random_mix(0xD157);
    let config = PacketSimConfig {
        seed: 7,
        ..PacketSimConfig::default()
    };
    let seq = PacketSim::new(&tree, &mix, config).run(6.0);
    let options = DistOptions {
        telemetry: ww_telemetry::Level::Counters,
        ..threads()
    };
    let mut dist = DistPacketSim::launch(&tree, &mix, config, 2, options).unwrap();
    let rep = dist.run(6.0).unwrap();
    assert_eq!(seq.canonical(), rep.canonical(), "counters level");
    let snap = dist.telemetry_snapshot();
    let counter = |key: &str| snap.counter(key).unwrap_or_else(|| panic!("{key} missing"));
    assert!(counter("pdes.passes") > 0);
    assert!(counter("pdes.promises.sent") > 0);
    assert!(counter("pdes.stage.depth.high_water") >= 1);
    assert_eq!(counter("pdes.events.popped"), rep.processed_events);
    dist.shutdown();
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
fn churn_and_failures_match_sequential() {
    // The acceptance pin for barrier mutations: link failure, healing,
    // invalidation, churn, and a publish all mid-run, replayed over
    // sockets against the sequential engine.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();

    let mut seq = PacketSim::new(&tree, &mix, config);
    let (a, newcomer) = churn_and_failures(&mut seq);

    for workers in [1, 2, 4] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, threads()).unwrap();
        let (b, got) = churn_and_failures(&mut dist);
        assert_eq!(got, newcomer, "churn ids agree across drivers");
        assert_eq!(a.canonical(), b.canonical(), "churn workers={workers}");
    }
}

#[test]
fn same_barrier_storm_batched_matches_sequential() {
    // The K-event same-barrier storm of `golden_dynamics`, replayed over
    // sockets: `BatchBegin`/`BatchCommit` bracket the broadcast ops, so
    // every participant pays one oracle refresh and one queue-surgery
    // pass — and still lands bit-identical to the sequential engine,
    // batched or not.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let ops = vec![
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
    ];

    let mut seq = PacketSim::new(&tree, &mix, config);
    seq.run(3.0);
    for op in &ops {
        seq.apply_op(op).expect("storm op applies");
    }
    let a = seq.run(9.0);

    for workers in [1, 2, 4] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, threads()).unwrap();
        dist.run(3.0).unwrap();
        for r in dist.apply_all(&ops).unwrap() {
            r.expect("storm op applies");
        }
        let b = dist.run(9.0).unwrap();
        assert_eq!(a.canonical(), b.canonical(), "storm workers={workers}");
        dist.shutdown();
    }
}

#[test]
fn repeated_distributed_runs_are_deterministic() {
    let (tree, mix) = random_mix(3);
    let config = PacketSimConfig::default();
    let one = DistPacketSim::launch(&tree, &mix, config, 3, threads())
        .unwrap()
        .run(4.0)
        .unwrap();
    let two = DistPacketSim::launch(&tree, &mix, config, 3, threads())
        .unwrap()
        .run(4.0)
        .unwrap();
    assert_eq!(one.canonical(), two.canonical(), "rerun");
}

#[test]
fn surplus_workers_are_excused() {
    // Two-node tree: at most 2 shards; the other workers must be
    // dismissed cleanly and the run still match the sequential engine.
    let tree = Tree::from_parents(&[None, Some(0)]).unwrap();
    let mut mix = DocMix::new(2);
    mix.set(NodeId::new(1), DocId::new(1), 80.0);
    let config = PacketSimConfig::default();
    let seq = PacketSim::new(&tree, &mix, config).run(5.0);
    let mut dist = DistPacketSim::launch(&tree, &mix, config, 6, threads()).unwrap();
    assert!(dist.shard_count() <= 2);
    let rep = dist.run(5.0).unwrap();
    assert_eq!(seq.canonical(), rep.canonical(), "surplus workers");
}

#[test]
fn shard_count_reads_the_partition_before_and_after_shutdown() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let mut dist = DistPacketSim::launch(&tree, &mix, config, 2, threads()).unwrap();
    assert_eq!(dist.shard_count(), 2, "fig7 splits into two shards");
    dist.run(1.0).unwrap();
    dist.shutdown();
    assert_eq!(dist.shard_count(), 2, "shutdown keeps the partition");
}

#[test]
fn rejected_mutations_keep_participants_in_agreement() {
    // A model-rejected barrier op must fail on the coordinator *before*
    // any broadcast, leaving every participant consistent: the run
    // continues and still matches the sequential engine.
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();

    let unknown = BarrierOp::Invalidate {
        doc: DocId::new(424242),
    };
    let mut seq = PacketSim::new(&tree, &mix, config);
    seq.run(4.0);
    assert!(seq.apply_op(&unknown).is_err());
    let a = seq.run(8.0);

    let mut dist = DistPacketSim::launch(&tree, &mix, config, 2, threads()).unwrap();
    dist.run(4.0).unwrap();
    assert!(matches!(
        dist.apply_op(&unknown),
        Err(DistError::Model(ModelError::UnknownDocument { .. }))
    ));
    let b = dist.run(8.0).unwrap();
    assert_eq!(a.canonical(), b.canonical(), "rejected mutation");
}

/// One script over the whole mutation surface — all seven op kinds, a
/// lone `apply_op`, a multi-op `apply_all` with rejected ops in the
/// middle (an unknown document, link ops on the root and past the
/// tree) — on any backend: the per-op verdicts of the storm and the
/// final report.
fn one_script<B: PacketBackend>(sim: &mut B) -> (Vec<Option<BarrierOutcome>>, PacketSimReport)
where
    B::Error: std::fmt::Debug,
{
    let node = NodeId::new;
    sim.run(3.0).unwrap();
    sim.apply_op(&BarrierOp::FailLink { node: node(1) })
        .unwrap();
    sim.run(5.0).unwrap();
    let root = sim.tree().root();
    let past = node(sim.tree().len() + 7);
    let storm = [
        BarrierOp::AddLeaf {
            parent: node(3),
            rate: 50.0,
        },
        BarrierOp::AddLeaf {
            parent: node(4),
            rate: 30.0,
        },
        BarrierOp::Invalidate {
            doc: DocId::new(424242),
        },
        BarrierOp::FailLink { node: root },
        BarrierOp::RemoveLeaf { node: node(2) },
        BarrierOp::PublishDoc {
            doc: DocId::new(901),
            origin: node(1),
            rate: 20.0,
        },
        BarrierOp::HealLink { node: past },
        BarrierOp::Invalidate { doc: DocId::new(1) },
        BarrierOp::HealLink { node: node(1) },
    ];
    let verdicts: Vec<Option<BarrierOutcome>> = sim
        .apply_all(&storm)
        .expect("the batch opens and closes")
        .into_iter()
        .map(Result::ok)
        .collect();
    sim.run(8.0).unwrap();
    let rates = ww_workload::uniform(sim.tree(), 15.0);
    let mix = ww_workload::shared_zipf_mix(sim.tree(), &rates, 6, 0.8);
    sim.apply_op(&BarrierOp::SetMix { mix }).unwrap();
    (verdicts, sim.run(12.0).unwrap())
}

#[test]
fn one_barrier_op_script_is_bit_identical_on_every_backend() {
    let (tree, mix) = fig7_mix();
    let config = PacketSimConfig::default();
    let (verdicts, seq) = one_script(&mut PacketSim::new(&tree, &mix, config));
    let accepted: Vec<bool> = verdicts.iter().map(Option::is_some).collect();
    assert_eq!(
        accepted,
        [true, true, false, false, true, true, false, true, true],
        "the unknown document and the two bad link ops are rejected"
    );
    assert!(seq.served_requests > 500, "the script does real work");
    for workers in [1, 2, 4] {
        let mut par = ParPacketSim::new(&tree, &mix, config, workers);
        let (got, rep) = one_script(&mut par);
        assert_eq!(got, verdicts, "par verdicts, workers={workers}");
        assert_eq!(
            seq.canonical(),
            rep.canonical(),
            "script par workers={workers}"
        );
    }
    for workers in [1, 2] {
        let mut dist = DistPacketSim::launch(&tree, &mix, config, workers, threads()).unwrap();
        let (got, rep) = one_script(&mut dist);
        assert_eq!(got, verdicts, "dist verdicts, workers={workers}");
        assert_eq!(
            seq.canonical(),
            rep.canonical(),
            "script dist workers={workers}"
        );
    }
}

/// What the one barrier schedule (`SimCore::next_barrier`) promises,
/// read off one backend: the promises it broke, and the canonical
/// report of its ten-second fig7 run for the backends to be compared by.
///
/// * `run(d)` processes `(previous, d]`, the deadline's own events
///   included: on a demand-free three-node chain the only events are
///   timer fires and gossip deliveries, and node 1's gossip timer
///   (0.25 + 0.5 k) and diffusion timer (0.75 + k) both fire at
///   exactly 0.75, so `run(0.75)` runs two events more than
///   `run(0.7499)`, and both runs meet again at 1.
/// * `run(k)` for `k = 1..10` is `run(10)`, and a repeated `run(10)`
///   changes nothing.
/// * A sample sees everything up to its boundary: the first one has
///   the first second's requests served, so it is not the distance of
///   a network that served nothing — the oracle's norm, which a sample
///   taken before its epoch ran reads exactly.
fn schedule_faults<B: PacketBackend>(make: impl Fn(&Tree, &DocMix) -> B) -> (Vec<String>, String)
where
    B::Error: std::fmt::Debug,
{
    let mut faults = Vec::new();
    let chain = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
    let quiet = DocMix::new(3);
    let (mut at, mut short) = (make(&chain, &quiet), make(&chain, &quiet));
    let on_the_dot = at.run(0.75).unwrap().processed_events;
    let before = short.run(0.7499).unwrap().processed_events;
    if on_the_dot != before + 2 {
        faults.push(format!(
            "run(0.75) processed {on_the_dot} events against run(0.7499)'s {before}"
        ));
    }
    let (a, b) = (at.run(1.0).unwrap(), short.run(1.0).unwrap());
    if a.processed_events != b.processed_events {
        faults.push("the two chains part at 1".to_string());
    }

    let (tree, mix) = fig7_mix();
    let mut stepped = make(&tree, &mix);
    for k in 1..=10 {
        stepped.run(k as f64).unwrap();
    }
    let stepped_rep = stepped.report().unwrap();
    let oneshot = make(&tree, &mix).run(10.0).unwrap();
    if stepped_rep.canonical() != oneshot.canonical() {
        faults.push("run(1..=10) is not run(10)".to_string());
    }
    if stepped.run(10.0).unwrap().canonical() != stepped_rep.canonical() {
        faults.push("a repeated run(10) moved the report".to_string());
    }
    let idle = oneshot
        .oracle
        .euclidean_distance(&RateVector::zeros(tree.len()));
    let first = oneshot.trace.initial().unwrap_or(idle);
    if oneshot.trace.len() != 10 || first == idle {
        faults.push(format!(
            "{} samples, the first {first}: an idle network's is {idle}",
            oneshot.trace.len()
        ));
    }
    (faults, oneshot.canonical())
}

/// [`schedule_faults`] on a thread of its own, so that a backend whose
/// schedule never reaches a barrier — a shard loop spinning on an event
/// it will not run — reads as a broken promise, not as a hung test.
fn spawn_schedule_check<B: PacketBackend + 'static>(
    make: impl Fn(&Tree, &DocMix) -> B + Send + 'static,
) -> std::sync::mpsc::Receiver<(Vec<String>, String)>
where
    B::Error: std::fmt::Debug,
{
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(schedule_faults(make)));
    rx
}

#[test]
fn the_barrier_schedule_is_one_on_every_backend() {
    let config = PacketSimConfig::default();
    let mut checks = vec![(
        "seq".to_string(),
        spawn_schedule_check(move |tree, mix| PacketSim::new(tree, mix, config)),
    )];
    for workers in [1, 2, 4] {
        let par =
            spawn_schedule_check(move |tree, mix| ParPacketSim::new(tree, mix, config, workers));
        checks.push((format!("par workers={workers}"), par));
    }
    for workers in [1, 2] {
        let dist = spawn_schedule_check(move |tree, mix| {
            DistPacketSim::launch(tree, mix, config, workers, threads()).unwrap()
        });
        checks.push((format!("dist workers={workers}"), dist));
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let mut reference = None;
    let mut faults = Vec::new();
    for (backend, verdict) in checks {
        let wait = deadline.saturating_duration_since(std::time::Instant::now());
        let broken = match verdict.recv_timeout(wait) {
            Ok((mut broken, run)) => {
                if *reference.get_or_insert_with(|| run.clone()) != run {
                    broken.push("its fig7 run is not the sequential one".to_string());
                }
                broken
            }
            Err(e) => vec![format!("no verdict ({e:?}): the check hung or panicked")],
        };
        if !broken.is_empty() {
            faults.push((backend, broken));
        }
    }
    assert!(faults.is_empty(), "{faults:#?}");
}
