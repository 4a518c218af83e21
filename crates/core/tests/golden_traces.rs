//! Golden-trace equivalence: the dense-state engines must be
//! *bit-identical* to the naive hash-table / clone-per-round reference
//! implementations on the paper scenarios.
//!
//! This is the contract that makes the dense-state refactor safe: same
//! seeds, same convergence traces, same statistics, same figure outputs —
//! only faster.

use ww_core::docsim::{DocSim, DocSimConfig};
use ww_core::packet::BarrierOp;
use ww_core::packetsim::{PacketBackend, PacketSim, PacketSimConfig};
use ww_core::reference::{NaiveDocSim, NaiveRateWave};
use ww_core::wave::{RateWave, WaveConfig};
use ww_model::{DocId, ModelError, NodeId};
use ww_topology::paper;

/// Asserts two traces are identical to the last bit.
fn assert_traces_bit_identical(
    dense: &ww_core::stats::ConvergenceTrace,
    naive: &ww_core::stats::ConvergenceTrace,
) {
    assert_eq!(dense.len(), naive.len(), "trace lengths differ");
    for (round, (d, n)) in dense.distances().iter().zip(naive.distances()).enumerate() {
        assert_eq!(
            d.to_bits(),
            n.to_bits(),
            "trace diverges at round {round}: dense {d:e} vs naive {n:e}"
        );
    }
}

#[test]
fn rate_wave_matches_reference_on_fig6() {
    let s = paper::fig6();
    let mut dense = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
    let mut naive = NaiveRateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
    dense.run(2000);
    naive.run(2000);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.load().as_slice(), naive.load().as_slice());
}

#[test]
fn rate_wave_matches_reference_on_all_rate_scenarios() {
    for s in paper::all_scenarios() {
        let mut dense = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
        let mut naive = NaiveRateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
        dense.run(500);
        naive.run(500);
        assert_traces_bit_identical(dense.trace(), naive.trace());
        assert_eq!(
            dense.load().as_slice(),
            naive.load().as_slice(),
            "{} loads differ",
            s.name
        );
    }
}

#[test]
fn rate_wave_matches_reference_when_child_ids_precede_parents() {
    // Valid trees may number a child below its parent (Prüfer generation
    // does this routinely); the permuted engine must replay the naive
    // per-cell accumulation order even then.
    use rand::SeedableRng;
    use ww_model::{RateVector, Tree};

    // A hand-built instance: root 1; node 2's children are 0 (id below 2)
    // and 3 (id above 2).
    let tree = Tree::from_parents(&[Some(2), None, Some(1), Some(2), Some(0)]).unwrap();
    let rates = RateVector::from(vec![13.3, 1.7, 5.9, 21.1, 8.35]);
    let mut dense = RateWave::new(&tree, &rates, WaveConfig::default());
    let mut naive = NaiveRateWave::new(&tree, &rates, WaveConfig::default());
    dense.run(500);
    naive.run(500);
    assert_traces_bit_identical(dense.trace(), naive.trace());

    // And random Prüfer trees, where arbitrary parent/child id orders
    // appear throughout.
    let mut rng = rand::rngs::StdRng::seed_from_u64(97);
    for _ in 0..20 {
        let tree = ww_topology::random_pruefer(&mut rng, 40);
        let rates = ww_workload::random_uniform(&mut rng, &tree, 0.0, 50.0);
        let mut dense = RateWave::new(&tree, &rates, WaveConfig::default());
        let mut naive = NaiveRateWave::new(&tree, &rates, WaveConfig::default());
        dense.run(200);
        naive.run(200);
        assert_traces_bit_identical(dense.trace(), naive.trace());
        assert_eq!(dense.load().as_slice(), naive.load().as_slice());
    }
}

#[test]
fn rate_wave_matches_reference_under_stale_gossip() {
    // The staleness ring buffer must reproduce the naive history clones
    // exactly — including the warm-up rounds before the window fills.
    let s = paper::fig6();
    for staleness in [1usize, 3, 7] {
        let cfg = WaveConfig {
            alpha: None,
            staleness,
        };
        let mut dense = RateWave::new(&s.tree, &s.spontaneous, cfg);
        let mut naive = NaiveRateWave::new(&s.tree, &s.spontaneous, cfg);
        dense.run(800);
        naive.run(800);
        assert_traces_bit_identical(dense.trace(), naive.trace());
    }
}

#[test]
fn docsim_matches_reference_on_fig7_with_tunneling() {
    let b = paper::fig7();
    let mut dense = DocSim::from_barrier_scenario(&b, DocSimConfig::default());
    let mut naive = NaiveDocSim::from_barrier_scenario(&b, DocSimConfig::default());
    dense.run(1500);
    naive.run(1500);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.stats(), naive.stats(), "protocol counters differ");
    assert_eq!(dense.load().as_slice(), naive.load().as_slice());
    for u in 0..4 {
        assert_eq!(
            dense.copies_at(NodeId::new(u)),
            naive.copies_at(NodeId::new(u)),
            "copies at node {u} differ"
        );
    }
}

#[test]
fn docsim_matches_reference_on_fig7_without_tunneling() {
    let b = paper::fig7();
    let cfg = DocSimConfig {
        alpha: None,
        tunneling: false,
        barrier_patience: 2,
    };
    let mut dense = DocSim::from_barrier_scenario(&b, cfg);
    let mut naive = NaiveDocSim::from_barrier_scenario(&b, cfg);
    dense.run(800);
    naive.run(800);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.stats(), naive.stats());
}

#[test]
fn docsim_matches_reference_with_aggressive_alpha_and_deletions() {
    use ww_model::Tree;
    use ww_workload::DocMix;
    let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
    let mut mix = DocMix::new(3);
    mix.set(NodeId::new(1), DocId::new(2), 90.0);
    mix.set(NodeId::new(2), DocId::new(1), 30.0);
    let cfg = DocSimConfig {
        alpha: Some(0.8),
        tunneling: true,
        barrier_patience: 2,
    };
    let mut dense = DocSim::new(&tree, &mix, cfg);
    let mut naive = NaiveDocSim::new(&tree, &mix, cfg);
    dense.run(2000);
    naive.run(2000);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.stats(), naive.stats());
}

#[test]
fn docsim_matches_reference_on_zipf_mix() {
    // A wider universe (16 docs over the fig6 tree) exercises slab
    // indexing well beyond the 3-document barrier scenario. Each row
    // is set in descending document order, so the mix first sees its
    // documents against the ascending order its columns must take.
    let s = paper::fig6();
    let zipf = ww_workload::shared_zipf_mix(&s.tree, &s.spontaneous, 16, 1.0);
    let mut mix = ww_workload::DocMix::new(s.tree.len());
    for u in s.tree.nodes() {
        for (doc, rate) in zipf.demands_of(u).iter().rev() {
            mix.set(u, doc, rate);
        }
    }
    let cfg = DocSimConfig::default();
    let mut dense = DocSim::new(&s.tree, &mix, cfg);
    let mut naive = NaiveDocSim::new(&s.tree, &mix, cfg);
    dense.run(400);
    naive.run(400);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.stats(), naive.stats());
    assert_eq!(dense.load().as_slice(), naive.load().as_slice());
}

#[test]
fn both_engines_match_reference_on_a_random_scaling_tree() {
    // Far from the hand-crafted figures: a 1000-node random tree of
    // depth 12 under uniform random demand, with and without stale
    // gossip, and a 64-document Zipf universe for the document engine.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1000);
    let tree = ww_topology::random_tree_of_depth(&mut rng, 1000, 12);
    let rates = ww_workload::random_uniform(&mut rng, &tree, 0.0, 100.0);
    for staleness in [0, 3] {
        let cfg = WaveConfig {
            alpha: None,
            staleness,
        };
        let mut dense = RateWave::new(&tree, &rates, cfg);
        let mut naive = NaiveRateWave::new(&tree, &rates, cfg);
        dense.run(50);
        naive.run(50);
        assert_traces_bit_identical(dense.trace(), naive.trace());
    }
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 64, 1.0);
    let mut dense = DocSim::new(&tree, &mix, DocSimConfig::default());
    let mut naive = NaiveDocSim::new(&tree, &mix, DocSimConfig::default());
    dense.run(10);
    naive.run(10);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.stats(), naive.stats());
}

// ---------------------------------------------------------------------
// Pins of the dynamic paths. `NaiveRateWave` and `NaiveDocSim` follow
// no churn, failed links or batches, so these runs have no reference
// engine; each is pinned by one FNV-1a digest of everything it exposes.
// ---------------------------------------------------------------------

/// FNV-1a over a stream of 64-bit words, taken byte by byte.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// `tree` renumbered so that every child's id is below its parent's: the
/// node at BFS position `p` takes id `n - 1 - p`. `rates` follow their
/// nodes.
fn children_first(
    tree: &ww_model::Tree,
    rates: &ww_model::RateVector,
) -> (ww_model::Tree, ww_model::RateVector) {
    let n = tree.len();
    let mut new_id = vec![0; n];
    for (p, u) in tree.bfs_order().iter().enumerate() {
        new_id[u.index()] = n - 1 - p;
    }
    let mut parents = vec![None; n];
    let mut moved = vec![0.0; n];
    for u in tree.nodes() {
        parents[new_id[u.index()]] = tree.parent(u).map(|p| new_id[p.index()]);
        moved[new_id[u.index()]] = rates[u];
    }
    (
        ww_model::Tree::from_parents(&parents).unwrap(),
        ww_model::RateVector::from(moved),
    )
}

/// The leaves of `tree` in ascending id order, and its first interior
/// node that is not the root.
fn leaves_and_inner(tree: &ww_model::Tree) -> (Vec<NodeId>, NodeId) {
    let leaves = tree.nodes().filter(|&u| tree.is_leaf(u)).collect();
    let inner = tree
        .nodes()
        .find(|&u| !tree.is_leaf(u) && tree.parent(u).is_some())
        .expect("an interior node below the root");
    (leaves, inner)
}

/// Runs `RateWave` through every dynamic path — two failed links, a
/// join, a leave, a heal, a demand shift and a two-join batched barrier
/// — and digests each trace sample and the final load and forwarded
/// bits.
fn rate_wave_digest(tree: &ww_model::Tree, rates: &ww_model::RateVector, staleness: usize) -> u64 {
    use ww_model::RateVector;
    let cfg = WaveConfig {
        alpha: None,
        staleness,
    };
    let (leaves, inner) = leaves_and_inner(tree);
    let (gone, cut) = (leaves[0], leaves[1]);
    let root = tree.root();
    let mut w = RateWave::new(tree, rates, cfg);
    w.run(25);
    assert!(w.set_link(inner, true).unwrap());
    assert!(w.set_link(cut, true).unwrap());
    w.run(25);
    w.add_leaf(inner, 17.5).unwrap();
    w.run(25);
    w.remove_leaf(gone).unwrap();
    w.run(25);
    assert!(w.set_link(inner, false).unwrap());
    w.run(25);
    let shifted: Vec<f64> = (0..w.tree().len())
        .map(|i| ((i * 37) % 11) as f64 * 2.5)
        .collect();
    w.set_spontaneous(&RateVector::from(shifted));
    w.run(25);
    w.begin_batch();
    w.add_leaf(root, 9.0).unwrap();
    w.add_leaf(cut, 4.25).unwrap();
    w.end_batch();
    w.run(25);
    let mut d = Digest::new();
    d.floats(w.trace().distances());
    d.floats(w.load().as_slice());
    d.floats(w.forwarded().as_slice());
    d.0
}

#[test]
fn rate_wave_dynamics_are_pinned() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let tree = ww_topology::random_tree_of_depth(&mut rng, 300, 9);
    let rates = ww_workload::random_uniform(&mut rng, &tree, 0.0, 60.0);
    let (renumbered, moved) = children_first(&tree, &rates);
    let got = [
        rate_wave_digest(&tree, &rates, 0),
        rate_wave_digest(&tree, &rates, 3),
        rate_wave_digest(&renumbered, &moved, 0),
        rate_wave_digest(&renumbered, &moved, 3),
    ];
    assert_eq!(
        got,
        [
            0x3f82_324b_c81f_cdb7,
            0xc09e_2069_9823_c9be,
            0x2cca_330b_d286_460f,
            0xac8c_0ec3_6f33_0733,
        ],
        "RateWave dynamics digests moved"
    );
}

/// Runs `DocSim` through a publish of a new id, an invalidation, a mix
/// change, a join, a leave, a failed link and one batched barrier that
/// holds a publish of `late_doc`, a join, a leave and the shift to
/// `late`, and digests each trace sample, the final loads, the protocol
/// counters, and every node's served rates and copies.
fn doc_sim_digest(
    mut sim: DocSim,
    fresh: DocId,
    shifted: &ww_workload::DocMix,
    late_doc: DocId,
    late: &ww_workload::DocMix,
) -> u64 {
    let (leaves, inner) = leaves_and_inner(sim.tree());
    let origin = *leaves.last().unwrap();
    let stale = sim.doc_table().doc(0);
    sim.run(30);
    sim.publish_doc(fresh, origin, 55.0).unwrap();
    sim.run(30);
    sim.invalidate_doc(stale).unwrap();
    sim.run(30);
    sim.set_mix(shifted).unwrap();
    sim.run(30);
    sim.add_leaf(inner, 30.0).unwrap();
    sim.run(30);
    sim.remove_leaf(leaves[0]).unwrap();
    sim.run(30);
    assert!(sim.set_link(inner, true).unwrap());
    sim.run(30);
    let (leaves, _) = leaves_and_inner(sim.tree());
    sim.begin_batch();
    sim.publish_doc(late_doc, leaves[0], 25.0).unwrap();
    sim.add_leaf(inner, 18.0).unwrap();
    sim.remove_leaf(leaves[0]).unwrap();
    sim.set_mix(late).unwrap();
    sim.end_batch();
    sim.run(30);
    let mut d = Digest::new();
    d.floats(sim.trace().distances());
    d.floats(sim.load().as_slice());
    let s = sim.stats();
    for c in [
        s.copy_pushes,
        s.copy_deletions,
        s.tunnel_fetches,
        s.barrier_suspicions,
    ] {
        d.word(c);
    }
    for u in sim.tree().nodes() {
        for &doc in sim.doc_table().docs() {
            d.word(sim.served_rate(u, doc).to_bits());
        }
        for doc in sim.copies_at(u) {
            d.word(doc.value());
        }
    }
    d.0
}

#[test]
fn doc_sim_dynamics_are_pinned() {
    use ww_workload::DocMix;
    // Figure 7 (documents 1, 2, 3): the publish of document 0, below
    // them all, takes the next column; the new mix appends document 5;
    // the batch publishes document 4 and its mix appends document 7.
    let b = paper::fig7();
    let mut shifted = DocMix::new(b.tree.len());
    shifted.set(NodeId::new(3), DocId::new(1), 100.0);
    shifted.set(NodeId::new(2), DocId::new(3), 120.0);
    shifted.set(NodeId::new(1), DocId::new(5), 50.0);
    let mut late = shifted.clone();
    late.set(NodeId::new(2), DocId::new(7), 40.0);
    let fig7 = doc_sim_digest(
        DocSim::from_barrier_scenario(&b, DocSimConfig::default()),
        DocId::new(0),
        &shifted,
        DocId::new(4),
        &late,
    );
    // A 16-document Zipf mix over fig6, published document 40, then
    // re-skewed onto 20 documents (16-19 born after 40), then onto 24
    // inside the batch, which publishes document 30.
    let s = paper::fig6();
    let mix = ww_workload::shared_zipf_mix(&s.tree, &s.spontaneous, 16, 1.0);
    let shifted = ww_workload::shared_zipf_mix(&s.tree, &s.spontaneous, 20, 0.7);
    let late = ww_workload::shared_zipf_mix(&s.tree, &s.spontaneous, 24, 0.9);
    let zipf = doc_sim_digest(
        DocSim::new(&s.tree, &mix, DocSimConfig::default()),
        DocId::new(40),
        &shifted,
        DocId::new(30),
        &late,
    );
    assert_eq!(
        [fig7, zipf],
        [0xb375_8826_1f9b_9fb3, 0x1d68_5cc2_9226_49c7],
        "DocSim dynamics digests moved"
    );
}

/// `op` applied to a `DocSim` through its own mutators.
fn doc_sim_apply(sim: &mut DocSim, op: &BarrierOp) -> Result<(), ModelError> {
    match op {
        BarrierOp::AddLeaf { parent, rate } => sim.add_leaf(*parent, *rate).map(drop),
        BarrierOp::RemoveLeaf { node } => sim.remove_leaf(*node).map(drop),
        BarrierOp::PublishDoc { doc, origin, rate } => sim.publish_doc(*doc, *origin, *rate),
        BarrierOp::SetMix { mix } => sim.set_mix(mix),
        BarrierOp::Invalidate { doc } => sim.invalidate_doc(*doc),
        BarrierOp::FailLink { node } => sim.set_link(*node, true).map(drop),
        BarrierOp::HealLink { node } => sim.set_link(*node, false).map(drop),
    }
}

/// Every refusal of the world mutators, word for word, on `DocSim` and
/// on `PacketSim`: both engines refuse the same op with the same text.
#[test]
fn world_mutator_refusals_are_pinned() {
    use ww_workload::DocMix;
    let b = paper::fig7();
    let mut fig7_mix = DocMix::new(b.tree.len());
    for d in &b.demands {
        fig7_mix.set(d.origin, d.doc, d.rate);
    }
    let (n0, n1, n99) = (NodeId::new(0), NodeId::new(1), NodeId::new(99));
    let cases = [
        (
            BarrierOp::AddLeaf {
                parent: n99,
                rate: 5.0,
            },
            "node n99 is outside the 4-node tree",
        ),
        (
            BarrierOp::AddLeaf {
                parent: n1,
                rate: -1.0,
            },
            "rate at n1 is invalid: -1",
        ),
        (
            BarrierOp::AddLeaf {
                parent: n1,
                rate: f64::INFINITY,
            },
            "rate at n1 is invalid: inf",
        ),
        (
            BarrierOp::PublishDoc {
                doc: DocId::new(9),
                origin: n99,
                rate: 5.0,
            },
            "node n99 is outside the 4-node tree",
        ),
        (
            BarrierOp::PublishDoc {
                doc: DocId::new(9),
                origin: n1,
                rate: f64::NAN,
            },
            "rate at n1 is invalid: NaN",
        ),
        (
            BarrierOp::RemoveLeaf { node: n99 },
            "node n99 is outside the 4-node tree",
        ),
        (
            BarrierOp::RemoveLeaf { node: n0 },
            "the root n0 (home server) cannot be removed",
        ),
        (
            BarrierOp::RemoveLeaf { node: n1 },
            "node n1 is not a leaf (it has 2 children)",
        ),
        (
            BarrierOp::Invalidate {
                doc: DocId::new(777),
            },
            "document d777 is not in the catalog",
        ),
        (
            BarrierOp::SetMix {
                mix: DocMix::new(3),
            },
            "vector length 3 does not match tree size 4",
        ),
        (
            BarrierOp::FailLink { node: n0 },
            "the root n0 has no uplink",
        ),
        (
            BarrierOp::HealLink { node: n99 },
            "node n99 is outside the 4-node tree",
        ),
    ];
    // A demand-free universe gives a join nothing to split its rate by.
    let empty = DocMix::new(b.tree.len());
    let demand_free = BarrierOp::AddLeaf {
        parent: n1,
        rate: 5.0,
    };
    let runs = cases
        .iter()
        .map(|(op, text)| (&fig7_mix, op, *text))
        .chain([(&empty, &demand_free, "rate at n1 is invalid: 5")]);
    for (mix, op, text) in runs {
        let mut doc = DocSim::new(&b.tree, mix, DocSimConfig::default());
        let err = doc_sim_apply(&mut doc, op).expect_err("DocSim refuses");
        assert_eq!(err.to_string(), text, "DocSim, {op:?}");
        let mut packet = PacketSim::new(&b.tree, mix, PacketSimConfig::default());
        let err = packet.apply_op(op).expect_err("PacketSim refuses");
        assert_eq!(err.to_string(), text, "PacketSim, {op:?}");
    }
}

/// `set_link` on the root or on an unknown id is a typed refusal on both
/// round-stepped engines. It leaves every link and every load as it was,
/// and the run goes on bit-equal to a twin that never saw the refusals.
#[test]
fn set_link_refusals_change_nothing() {
    use ww_workload::DocMix;
    let refusals = |root: NodeId, len: usize| {
        let unknown = NodeId::new(99);
        [
            (root, true, ModelError::NoUplink { node: root }),
            (root, false, ModelError::NoUplink { node: root }),
            (
                unknown,
                true,
                ModelError::NodeOutOfRange { node: unknown, len },
            ),
            (
                unknown,
                false,
                ModelError::NodeOutOfRange { node: unknown, len },
            ),
        ]
    };

    let s = paper::fig6();
    let (_, inner) = leaves_and_inner(&s.tree);
    let mut w = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
    w.run(10);
    assert!(w.set_link(inner, true).unwrap());
    let mut twin = w.clone();
    let links = |w: &RateWave| s.tree.nodes().map(|u| w.link_failed(u)).collect::<Vec<_>>();
    let before = (links(&w), bits(w.load().as_slice()));
    for (node, failed, want) in refusals(s.tree.root(), s.tree.len()) {
        assert_eq!(
            w.set_link(node, failed),
            Err(want),
            "RateWave, {node} -> {failed}"
        );
        assert_eq!(
            (links(&w), bits(w.load().as_slice())),
            before,
            "RateWave, {node}"
        );
    }
    w.run(10);
    twin.run(10);
    assert_eq!(bits(w.load().as_slice()), bits(twin.load().as_slice()));

    let b = paper::fig7();
    let mut mix = DocMix::new(b.tree.len());
    for d in &b.demands {
        mix.set(d.origin, d.doc, d.rate);
    }
    let (_, inner) = leaves_and_inner(&b.tree);
    let mut sim = DocSim::new(&b.tree, &mix, DocSimConfig::default());
    sim.run(10);
    assert!(sim.set_link(inner, true).unwrap());
    let mut twin = sim.clone();
    let links = |sim: &DocSim| {
        b.tree
            .nodes()
            .map(|u| sim.link_failed(u))
            .collect::<Vec<_>>()
    };
    let before = (links(&sim), bits(sim.load().as_slice()));
    for (node, failed, want) in refusals(b.tree.root(), b.tree.len()) {
        assert_eq!(
            sim.set_link(node, failed),
            Err(want),
            "DocSim, {node} -> {failed}"
        );
        assert_eq!(
            (links(&sim), bits(sim.load().as_slice())),
            before,
            "DocSim, {node}"
        );
    }
    sim.run(10);
    twin.run(10);
    assert_eq!(bits(sim.load().as_slice()), bits(twin.load().as_slice()));
}

/// The bit patterns of `xs`.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `DocSim` and `PacketSim` mutate one world: after every op of the same
/// script — a zero-rate join, a publish of a new id, a shift that adds
/// a document, a leave and a link failure — their trees, universes,
/// demand and oracles are bit-equal, and so are their links.
#[test]
fn both_engines_see_one_world() {
    use ww_workload::DocMix;
    let b = paper::fig7();
    let mut mix = DocMix::new(b.tree.len());
    for d in &b.demands {
        mix.set(d.origin, d.doc, d.rate);
    }
    let mut doc = DocSim::new(&b.tree, &mix, DocSimConfig::default());
    let mut packet = PacketSim::new(&b.tree, &mix, PacketSimConfig::default());
    let mut shifted = DocMix::new(b.tree.len() + 1);
    shifted.set(NodeId::new(3), DocId::new(1), 100.0);
    shifted.set(NodeId::new(2), DocId::new(3), 120.0);
    shifted.set(NodeId::new(4), DocId::new(5), 50.0);
    let script = [
        BarrierOp::AddLeaf {
            parent: NodeId::new(3),
            rate: 0.0,
        },
        BarrierOp::PublishDoc {
            doc: DocId::new(4),
            origin: NodeId::new(2),
            rate: 30.0,
        },
        BarrierOp::SetMix { mix: shifted },
        BarrierOp::RemoveLeaf {
            node: NodeId::new(2),
        },
        BarrierOp::FailLink {
            node: NodeId::new(1),
        },
    ];
    for op in &script {
        doc_sim_apply(&mut doc, op).unwrap_or_else(|e| panic!("DocSim, {op:?}: {e}"));
        packet
            .apply_op(op)
            .unwrap_or_else(|e| panic!("PacketSim, {op:?}: {e}"));
        let world = packet.world();
        assert_eq!(doc.tree().to_parents(), world.tree.to_parents(), "{op:?}");
        assert_eq!(doc.doc_table().docs(), world.mix.table().docs(), "{op:?}");
        assert_eq!(
            bits(doc.spontaneous().as_slice()),
            bits(world.mix.spontaneous().as_slice()),
            "spontaneous after {op:?}"
        );
        assert_eq!(
            bits(doc.oracle().as_slice()),
            bits(packet.oracle().as_slice()),
            "oracle after {op:?}"
        );
        for u in doc.tree().nodes().filter(|&u| u != doc.tree().root()) {
            assert_eq!(
                doc.link_failed(u),
                packet.link_failed(u),
                "{u} after {op:?}"
            );
        }
    }
}
