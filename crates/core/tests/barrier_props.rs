//! Property tests for barrier-time event application on the packet
//! engine's mutable world: churn round-trips, shift idempotence, and
//! universe-growth invariants, over randomized topologies and demand —
//! and the in-place barrier forms against the from-scratch definitions
//! they replaced (a fresh `PacketWorld::new`, a rebuilt `DenseFlowTable`
//! grid, the pre-leave child-slot index) — and the node-state slabs
//! against the per-node owning layout they replaced (`per_node`).

mod per_node;

use per_node::Reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ww_core::packet::{
    self, BarrierOp, BarrierOutcome, NodeCtx, NodeMut, NodeSlab, PacketCounters, PacketEvent,
    PacketWorld, Scratch, TokenBucket,
};
use ww_core::packetsim::{PacketBackend, PacketSim, PacketSimConfig};
use ww_model::{DocId, NodeId, Tree};
use ww_net::{DocRequest, RequestId, TrafficLedger};
use ww_sim::{SimQueue, SimTime};
use ww_workload::DocMix;

/// A small random world: tree, Zipf demand, configured simulator.
fn build_sim(nodes: usize, docs: usize, seed: u64) -> PacketSim {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, nodes, 4.min(nodes - 1));
    let rates = ww_workload::zipf_nodes(&mut rng, &tree, 10.0 * nodes as f64, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, docs, 1.0);
    PacketSim::new(&tree, &mix, PacketSimConfig::default())
}

/// [`build_sim`] over a universe with gaps: document `d` becomes id
/// `3 d + 1`, so publishes land before, between and after the initial
/// documents by id, each still taking the next column.
fn build_spaced_sim(nodes: usize, docs: usize, seed: u64) -> PacketSim {
    let dense = build_sim(nodes, docs, seed);
    let mut mix = DocMix::new(nodes);
    for node in dense.tree().nodes() {
        for (doc, rate) in dense.world().mix.demands_of(node).iter() {
            mix.set(node, DocId::new(3 * doc.value() + 1), rate);
        }
    }
    PacketSim::new(dense.tree(), &mix, dense.world().config)
}

/// A lone join; the id the newcomer took.
fn join(sim: &mut PacketSim, parent: NodeId, rate: f64) -> NodeId {
    match sim.apply_op(&BarrierOp::AddLeaf { parent, rate }) {
        Ok(BarrierOutcome::Added(id)) => id,
        other => panic!("join applies, got {other:?}"),
    }
}

/// A lone leave of `node`.
fn leave(sim: &mut PacketSim, node: NodeId) -> ww_model::LeafRemoval {
    match sim.apply_op(&BarrierOp::RemoveLeaf { node }) {
        Ok(BarrierOutcome::Removed(removal)) => removal,
        other => panic!("leave applies, got {other:?}"),
    }
}

/// One barrier operation before it meets a concrete tree: node picks are
/// reduced modulo the node count *as of the op*, so a script stays
/// meaningful while the tree churns under it. Picks are deliberately
/// not filtered for validity — a `Remove` of an interior node or the
/// root, a `Link` op on the root or one past the tree, or an
/// `Invalidate` of an unknown document, must be rejected and mutate
/// nothing.
#[derive(Debug, Clone)]
enum Pick {
    Add {
        parent: usize,
        rate: f64,
    },
    Remove {
        node: usize,
    },
    Publish {
        doc: u64,
        origin: usize,
        rate: f64,
    },
    Shift {
        first_doc: u64,
        docs: usize,
        every: usize,
    },
    Link {
        node: usize,
        fail: bool,
    },
    Invalidate {
        doc: u64,
    },
}

/// Decodes raw draws into a pick, weighting churn and publishes.
fn arb_pick() -> impl Strategy<Value = Pick> {
    (0u8..12, 0usize..1000, 0u64..24, 0.0f64..60.0).prop_map(|(kind, node, doc, rate)| match kind {
        0..=2 => Pick::Add { parent: node, rate },
        3..=5 => Pick::Remove { node },
        // Ids both below and above the initial universe `0..docs`:
        // insert-before and append growths, and re-publishes.
        6..=8 => Pick::Publish {
            doc,
            origin: node,
            rate: rate / 2.0,
        },
        9 => Pick::Shift {
            first_doc: doc % 20,
            docs: 1 + node % 5,
            every: 1 + node % 3,
        },
        10 => Pick::Link {
            node,
            fail: doc % 2 == 0,
        },
        _ => Pick::Invalidate { doc },
    })
}

/// Turns a pick into the op it means on `shadow`, and applies the op's
/// topology change to `shadow` exactly when the engines will accept it.
/// Document ids are multiplied by `stretch`, to reach across a universe
/// wider than the picks' `0..24`.
fn materialize(pick: &Pick, shadow: &mut Tree, stretch: u64) -> BarrierOp {
    let n = shadow.len();
    match *pick {
        Pick::Add { parent, rate } => {
            let parent = NodeId::new(parent % n);
            shadow.add_leaf(parent).expect("parent exists");
            BarrierOp::AddLeaf { parent, rate }
        }
        Pick::Remove { node } => {
            let node = NodeId::new(node % n);
            let _ = shadow.remove_leaf(node);
            BarrierOp::RemoveLeaf { node }
        }
        Pick::Publish { doc, origin, rate } => BarrierOp::PublishDoc {
            doc: DocId::new(doc * stretch),
            origin: NodeId::new(origin % n),
            rate,
        },
        Pick::Shift {
            first_doc,
            docs,
            every,
        } => {
            // Documents set in descending id order, so the shift mix's
            // first-seen codes are never its ascending ranks.
            let mut mix = DocMix::new(n);
            for i in (0..n).step_by(every) {
                for k in (0..docs).rev() {
                    let doc = DocId::new((first_doc + 3 * k as u64) * stretch);
                    mix.set(NodeId::new(i), doc, 4.0 / (k + 1) as f64);
                }
            }
            BarrierOp::SetMix { mix }
        }
        Pick::Link { node, fail } => {
            // `n` itself is one past the tree; the root is in range.
            let node = NodeId::new(node % (n + 1));
            if fail {
                BarrierOp::FailLink { node }
            } else {
                BarrierOp::HealLink { node }
            }
        }
        Pick::Invalidate { doc } => BarrierOp::Invalidate {
            doc: DocId::new(doc * stretch),
        },
    }
}

/// The per-node reference of `sim`'s rows, beside its calendar's
/// sequence counter.
fn capture(sim: &PacketSim) -> Reference {
    let (_, shard) = sim.parts();
    Reference::capture(sim.world(), sim.nodes(), shard.queue.next_seq())
}

/// The front invariant: the calendar holds one arrival head per row
/// with a pending arrival — under the row's minimum key, naming its
/// stream — and every stream's key agrees with its rate.
fn assert_fronts(sim: &PacketSim) {
    let (core, shard) = sim.parts();
    if let Err(violation) = shard.check_fronts(core) {
        panic!("front invariant: {violation}");
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Everything the world derives from `(tree, mix)` equals what a world
/// built from scratch over the same tree and mix derives.
fn assert_world_matches_fresh(world: &PacketWorld) {
    let rebuilt = Tree::from_parents(&world.tree.to_parents()).expect("still a tree");
    prop_assert_eq!(&world.tree, &rebuilt);
    let fresh = PacketWorld::new(&world.tree, &world.mix, world.config);
    prop_assert_eq!(&world.child_slot, &fresh.child_slot);
    // A universe never shrinks: the live table may keep documents a
    // shift dropped from the mix.
    for &doc in fresh.mix.table().docs() {
        prop_assert!(
            world.mix.table().index_of(doc).is_some(),
            "{doc:?} left the universe"
        );
    }
    assert_streams_are_the_indexed_mix(world);
    prop_assert_eq!(world.alpha.to_bits(), fresh.alpha.to_bits());
    prop_assert_eq!(bits(world.oracle.as_slice()), bits(fresh.oracle.as_slice()));
}

/// The world stores no arrival streams: what [`PacketWorld::streams_of`]
/// derives for every node, and what [`PacketWorld::stream_of`] reads for
/// each of its streams, is its mix row, each document looked up in the
/// live table.
fn assert_streams_are_the_indexed_mix(world: &PacketWorld) {
    let table = world.mix.table();
    for node in world.tree.nodes() {
        let through_live_table: Vec<(DocId, u32, f64)> = (world.mix.demands_of(node).iter())
            .map(|(d, r)| (d, table.index_of(d).expect("in the universe"), r))
            .collect();
        let derived = world.streams_of(node);
        prop_assert_eq!(derived.len(), through_live_table.len());
        let derived: Vec<_> = derived.collect();
        prop_assert_eq!(&derived, &through_live_table, "{node:?}");
        for (s, &(_, index, rate)) in (0..).zip(&through_live_table) {
            let read = world.stream_of(node, s);
            prop_assert_eq!(read, (index, rate), "{node:?} stream {s}");
        }
    }
}

/// Drives `state` through a fixed little history, so its bitsets, token
/// buckets and meters all hold something worth preserving.
fn exercise(world: &PacketWorld, state: &mut NodeMut<'_>, node: NodeId, salt: u32) {
    let (mut ledger, mut counters) = (TrafficLedger::new(), PacketCounters::default());
    let (mut out, mut scratch) = (Vec::new(), Scratch::default());
    let mut ctx = NodeCtx {
        world,
        ledger: &mut ledger,
        counters: &mut counters,
        out: &mut out,
        scratch: &mut scratch,
    };
    let m = world.mix.table().len() as u32;
    let children = world.tree.children(node).to_vec();
    for step in 0..40u32 {
        let t = SimTime::from_secs(0.05 * step as f64);
        let index = (step.wrapping_mul(7) ^ salt) % m;
        let event = if step % 5 == 0 {
            PacketEvent::CopyInstall {
                node,
                index,
                rate: 1.0 + step as f64,
            }
        } else {
            let from = children.get(step as usize % (children.len() + 1)).copied();
            PacketEvent::Packet {
                node,
                from,
                request: DocRequest::new(RequestId::new(step as u64), from.unwrap_or(node)),
                index,
            }
        };
        packet::handle(&mut ctx, state, t, event);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(24))]

    /// After any script of barrier ops — applied as `apply_all` storms
    /// on one simulator, one `apply_op` at a time on another — the
    /// world's maintained state (tree, child slots, derived streams,
    /// universe, alpha, oracle) equals a world built from scratch over
    /// the same tree and mix; the two simulators accept and reject the
    /// same ops and then run on bit-identically.
    #[test]
    fn in_place_barriers_match_a_fresh_world(
        nodes in 4usize..24,
        docs in 1usize..6,
        seed in 0u64..1000,
        storms in proptest::collection::vec(proptest::collection::vec(arb_pick(), 1..7), 1..4),
    ) {
        let mut batched = build_sim(nodes, docs, seed);
        let mut one_by_one = build_sim(nodes, docs, seed);
        let mut horizon = 0.0;
        for storm in &storms {
            horizon += 1.0;
            batched.run(horizon);
            one_by_one.run(horizon);
            let mut shadow = batched.tree().clone();
            let ops: Vec<BarrierOp> =
                storm.iter().map(|pick| materialize(pick, &mut shadow, 1)).collect();
            let results = batched.apply_all(&ops);
            for (op, expect) in ops.iter().zip(&results) {
                prop_assert_eq!(&one_by_one.apply_op(op), expect);
                assert_world_matches_fresh(one_by_one.world());
            }
            prop_assert_eq!(batched.tree(), &shadow);
            assert_world_matches_fresh(batched.world());
            assert_fronts(&batched);
        }
        let (a, b) = (batched.run(horizon + 2.0), one_by_one.run(horizon + 2.0));
        prop_assert_eq!(a.canonical(), b.canonical());
    }

    /// After every op of a random script — all seven kinds, invalid
    /// picks included, applied as `apply_all` storms on one simulator
    /// and one `apply_op` at a time on another, over universes that
    /// start below, at and above the 64 documents a head's inline bitset
    /// words hold, with publishes whose ids sort below existing ones — every
    /// row of the node-state slab equals the per-node reference that
    /// followed the same ops struct by struct, pending-arrival keys
    /// included, every node's derived streams are its mix row indexed
    /// through the live table, and the front invariant holds (one arrival head per
    /// row in the calendar, under the row's minimum key); and the two
    /// simulators then run on bit-identically.
    #[test]
    fn slab_rows_match_the_per_node_reference(
        nodes in 4usize..20,
        docs in (any::<bool>(), 1usize..6, 60usize..67),
        seed in 0u64..1000,
        storms in proptest::collection::vec(proptest::collection::vec(arb_pick(), 1..7), 1..4),
    ) {
        let docs = if docs.0 { docs.2 } else { docs.1 };
        let mut batched = build_spaced_sim(nodes, docs, seed);
        let mut one_by_one = build_spaced_sim(nodes, docs, seed);
        let mut horizon = 0.0;
        for storm in &storms {
            horizon += 1.0;
            batched.run(horizon);
            one_by_one.run(horizon);
            // After a second of fires and re-heads, and then after
            // every op.
            assert_fronts(&batched);
            let mut shadow = batched.tree().clone();
            let ops: Vec<BarrierOp> =
                storm.iter().map(|pick| materialize(pick, &mut shadow, 9)).collect();

            let mut reference = capture(&batched);
            let results = batched.apply_all(&ops);
            for (op, result) in ops.iter().zip(&results) {
                prop_assert_eq!(reference.apply(op, horizon).is_ok(), result.is_ok(), "{:?}", op);
            }
            reference.commit(horizon);
            reference.assert_matches(batched.nodes());
            assert_streams_are_the_indexed_mix(batched.world());
            assert_fronts(&batched);

            let mut reference = capture(&one_by_one);
            for (op, expect) in ops.iter().zip(&results) {
                prop_assert_eq!(&one_by_one.apply_op(op), expect);
                let _ = reference.apply(op, horizon);
                reference.commit(horizon);
                reference.assert_matches(one_by_one.nodes());
                assert_streams_are_the_indexed_mix(one_by_one.world());
                assert_fronts(&one_by_one);
            }
        }
        let (a, b) = (batched.run(horizon + 2.0), one_by_one.run(horizon + 2.0));
        prop_assert_eq!(a.canonical(), b.canonical());
        assert_fronts(&batched);
        assert_fronts(&one_by_one);
    }

    /// Growing the slabs in place — bitset words, token buckets, the
    /// meter grids — equals rebuilding each node's structures at the
    /// grown size, for documents whose ids sort above, between and below
    /// the others, on a first growth and on one that finds spare
    /// capacity, for a node
    /// whose bitsets, buckets and meters all hold history.
    #[test]
    fn node_state_grows_in_place_like_a_rebuild(
        seed in 0u64..1000,
        salt in any::<u32>(),
        published in proptest::collection::vec(0u64..40, 1..4),
    ) {
        // Documents 10, 12, .. leave room below, between and above.
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = ww_topology::random_tree_of_depth(&mut rng, 9, 3);
        let mut mix = DocMix::new(tree.len());
        for i in 0..tree.len() {
            for k in 0..4u64 {
                mix.set(NodeId::new(i), DocId::new(10 + 2 * k), 3.0);
            }
        }
        let mut world = PacketWorld::new(&tree, &mix, PacketSimConfig::default());
        let ids: Vec<NodeId> = tree.nodes().collect();
        let mut slab = NodeSlab::new(&world, &ids);
        let node = NodeId::new((salt as usize) % tree.len());
        exercise(&world, &mut slab.node_mut(node.index()), node, salt);
        let mut rebuilt = Reference::capture(&world, &slab, 0);
        for (round, &doc) in published.iter().enumerate() {
            let at = 2.0 + round as f64;
            let op = BarrierOp::PublishDoc { doc: DocId::new(doc), origin: node, rate: 1.0 };
            rebuilt.apply(&op, at).expect("publish applies");
            if let Some(growth) = world
                .publish(DocId::new(doc), node, 1.0)
                .expect("publish applies")
            {
                slab.grow(&growth, at, Some(tree.root().index()));
            }
            rebuilt.assert_matches(&slab);
        }
    }

    /// The slot map a leave hands the drivers — read off the tree
    /// *after* the leave — names, for every child of a renumbered
    /// parent, the slot a child-slot index taken *before* the leave
    /// held for it.
    #[test]
    fn leave_slot_maps_match_the_index_before_the_leave(
        seed in 0u64..2000,
        nodes in 3usize..40,
        churn in proptest::collection::vec(0usize..1000, 1..12),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = ww_topology::random_tree_of_depth(&mut rng, nodes, 4.min(nodes - 1));
        for pick in churn {
            let leaves: Vec<NodeId> = tree
                .nodes()
                .filter(|&u| tree.is_leaf(u) && u != tree.root())
                .collect();
            if leaves.is_empty() {
                break;
            }
            let mut slot_before = vec![0usize; tree.len()];
            for u in tree.nodes() {
                for (slot, &c) in tree.children(u).iter().enumerate() {
                    slot_before[c.index()] = slot;
                }
            }
            let removal = tree
                .remove_leaf(leaves[pick % leaves.len()])
                .expect("a non-root leaf departs");
            for p in packet::parents_to_remap(&tree, &removal) {
                let expect: Vec<Option<usize>> = tree
                    .children(p)
                    .iter()
                    .map(|&c| {
                        let id_before = match removal.moved {
                            Some(last) if c == removal.removed => last,
                            _ => c,
                        };
                        Some(slot_before[id_before.index()])
                    })
                    .collect();
                prop_assert_eq!(packet::child_slot_map(&tree, p, &removal), expect);
            }
        }
    }

    /// Join-then-leave round-trips the world: removing the leaf that
    /// just joined restores the tree shape, the demand mix, and the
    /// oracle bit for bit (the arrival generation advances — streams
    /// are re-resolved — but the *world* is restored).
    #[test]
    fn join_then_leave_round_trips_the_world(
        nodes in 5usize..30,
        docs in 2usize..8,
        seed in 0u64..1000,
        parent_pick in 0usize..30,
        rate in 1.0f64..200.0,
    ) {
        let mut sim = build_sim(nodes, docs, seed);
        sim.run(2.0);
        let before_parents = sim.tree().to_parents();
        let before_mix = sim.world().mix.clone();
        let parent = NodeId::new(parent_pick % sim.tree().len());
        let id = join(&mut sim, parent, rate);
        prop_assert_eq!(id.index(), before_parents.len());
        let removal = leave(&mut sim, id);
        // The newest id is the highest, so no renumbering can occur...
        prop_assert!(removal.moved.is_none());
        // ...and the tree is exactly restored.
        prop_assert_eq!(sim.tree().to_parents(), before_parents);
        // The demand round-trips too, except that the departed node's
        // rate re-homed onto the parent: every other node's per-doc
        // demand is untouched, and the parent's total grew by `rate`.
        let after_mix = &sim.world().mix;
        for j in 0..before_mix.len() {
            let node = NodeId::new(j);
            if node == parent {
                let (b, a) = (before_mix.node_total(node), after_mix.node_total(node));
                prop_assert!((a - (b + rate)).abs() < 1e-6 * (1.0 + a),
                    "parent total {} vs {} + {}", a, b, rate);
            } else {
                prop_assert_eq!(before_mix.demands_of(node), after_mix.demands_of(node));
            }
        }
        // Total offered demand is conserved up to the re-homed rate, so
        // the oracle total follows it.
        let after_total = after_mix.spontaneous().total();
        prop_assert!(
            (sim.world().oracle.total() - after_total).abs() < 1e-6 * (1.0 + after_total)
        );
    }

    /// Applying the same mix twice leaves the world's demand, oracle,
    /// and universe exactly where one application put them (the arrival
    /// generation differs — by design, streams re-resolve each time).
    #[test]
    fn set_mix_is_idempotent_on_the_world(
        nodes in 5usize..25,
        docs in 2usize..8,
        seed in 0u64..1000,
        new_docs in 1usize..10,
        theta in 0.1f64..1.5,
    ) {
        let mut sim = build_sim(nodes, docs, seed);
        sim.run(1.0);
        let tree = sim.tree().clone();
        let rates = ww_workload::uniform(&tree, 12.0);
        let mix = ww_workload::shared_zipf_mix(&tree, &rates, new_docs, theta);
        let shift = BarrierOp::SetMix { mix };
        sim.apply_op(&shift).expect("shift applies");
        let once_mix = sim.world().mix.clone();
        let once_oracle: Vec<u64> =
            sim.world().oracle.as_slice().iter().map(|x| x.to_bits()).collect();
        let once_docs = sim.doc_table().docs().to_vec();
        sim.apply_op(&shift).expect("shift re-applies");
        prop_assert_eq!(&sim.world().mix, &once_mix);
        let twice_oracle: Vec<u64> =
            sim.world().oracle.as_slice().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(once_oracle, twice_oracle);
        prop_assert_eq!(once_docs, sim.doc_table().docs().to_vec());
    }

    /// Publishing grows the universe monotonically and preserves every
    /// existing document's identity; demand totals grow by the rate.
    #[test]
    fn publish_grows_universe_monotonically(
        nodes in 5usize..25,
        docs in 2usize..8,
        seed in 0u64..1000,
        new_doc in 100u64..200,
        origin_pick in 0usize..25,
        rate in 0.5f64..50.0,
    ) {
        let mut sim = build_sim(nodes, docs, seed);
        sim.run(1.0);
        let before_docs = sim.doc_table().docs().to_vec();
        let before_total = sim.world().mix.spontaneous().total();
        let origin = NodeId::new(origin_pick % sim.tree().len());
        let publish = |rate| BarrierOp::PublishDoc {
            doc: DocId::new(new_doc),
            origin,
            rate,
        };
        sim.apply_op(&publish(rate)).expect("publish applies");
        let after_docs = sim.doc_table().docs();
        prop_assert_eq!(after_docs.len(), before_docs.len() + 1);
        for d in &before_docs {
            prop_assert!(after_docs.contains(d), "doc {:?} vanished", d);
        }
        prop_assert!(after_docs.contains(&DocId::new(new_doc)));
        let after_total = sim.world().mix.spontaneous().total();
        prop_assert!((after_total - (before_total + rate)).abs() < 1e-6 * (1.0 + after_total));
        // Publishing the same doc again only adds demand.
        sim.apply_op(&publish(1.0)).expect("re-publish applies");
        prop_assert_eq!(sim.doc_table().docs().len(), before_docs.len() + 1);
    }

    /// Churn keeps the simulation deterministic: the same op sequence
    /// from the same seed produces bit-identical reports.
    #[test]
    fn churned_runs_are_reproducible(
        nodes in 5usize..20,
        seed in 0u64..500,
    ) {
        let run = || {
            let mut sim = build_sim(nodes, 4, seed);
            sim.run(2.0);
            join(&mut sim, NodeId::new(0), 30.0);
            sim.run(4.0);
            let leaf = NodeId::new(sim.tree().len() - 1);
            leave(&mut sim, leaf);
            sim.run(6.0).canonical()
        };
        prop_assert_eq!(run(), run());
    }
}

/// An out-of-range parent is reported as such even when the world
/// carries no demand (the zero-demand check must not shadow it).
#[test]
fn join_reports_unknown_parent_before_rate_problems() {
    let tree = ww_model::Tree::from_parents(&[None, Some(0)]).unwrap();
    let mix = ww_workload::DocMix::new(2); // zero demand everywhere
    let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
    let op = BarrierOp::AddLeaf {
        parent: NodeId::new(99),
        rate: 5.0,
    };
    match sim.apply_op(&op) {
        Err(ww_model::ModelError::NodeOutOfRange { node, len }) => {
            assert_eq!((node.index(), len), (99, 2));
        }
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
}

/// Leaves depart carrying their copies; a node that rejoins under the
/// same id starts cold (fresh RNG generation, no copies).
#[test]
fn rejoiner_starts_cold() {
    let mut sim = build_sim(12, 4, 9);
    sim.run(5.0);
    let parent = NodeId::new(0);
    let id = join(&mut sim, parent, 25.0);
    sim.run(8.0);
    let served_before = sim.served_total(id);
    leave(&mut sim, id);
    let id2 = join(&mut sim, parent, 25.0);
    assert_eq!(id, id2, "the vacated id is reused");
    assert_eq!(sim.served_total(id2), 0, "rejoiner starts cold");
    let _ = served_before;
    // And the simulation keeps running fine afterwards.
    let report = sim.run(12.0);
    assert!(report.served_requests > 0);
}

/// The first publish into a world that carries no document at all: the
/// per-node tables start with no columns (not a phantom one the growth
/// mapping would not cover), so the universe grows from zero like from
/// any other size — as a lone op and through a batch.
#[test]
fn first_publish_into_an_empty_universe() {
    let tree = Tree::from_parents(&[None, Some(0), Some(0), Some(1)]).unwrap();
    let run = |batched: bool| {
        let mut sim = PacketSim::new(&tree, &DocMix::new(4), PacketSimConfig::default());
        sim.run(1.0);
        assert!(sim.doc_table().is_empty());
        let op = BarrierOp::PublishDoc {
            doc: DocId::new(7),
            origin: NodeId::new(3),
            rate: 40.0,
        };
        if batched {
            let results = sim.apply_all(std::slice::from_ref(&op));
            assert!(results.iter().all(Result::is_ok), "{results:?}");
        } else {
            sim.apply_op(&op).expect("publish applies");
        }
        assert_eq!(sim.doc_table().docs(), &[DocId::new(7)]);
        let report = sim.run(6.0);
        assert!(report.served_requests > 0, "the new demand is served");
        report.canonical()
    };
    assert_eq!(run(false), run(true));
}

/// A leaf gains its first child and loses its last one: it owns no
/// per-child state until the join, meters the newcomer's forwarded
/// requests from the join on, and is a plain leaf again after the
/// leave — batched and op by op alike.
#[test]
fn a_leaf_gains_its_first_child_and_loses_its_last() {
    let tree = Tree::from_parents(&[None, Some(0), Some(0), Some(1)]).unwrap();
    let mut mix = DocMix::new(4);
    for (node, rate) in [(2, 60.0), (3, 90.0)] {
        mix.set(NodeId::new(node), DocId::new(1), rate);
        mix.set(NodeId::new(node), DocId::new(2), rate / 3.0);
    }
    let leaf = NodeId::new(2);
    let run = |batched: bool| {
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        sim.run(2.0);
        assert!(sim.tree().is_leaf(leaf));
        let child = join(&mut sim, leaf, 120.0);
        assert_eq!(sim.tree().children(leaf), &[child]);
        let mid = sim.run(6.0);
        assert!(sim.served_total(child) + sim.served_total(leaf) > 0);
        // The only child leaves and, in the same storm or the next op,
        // another one joins: the per-child state restarts from nothing.
        let storm = [
            BarrierOp::RemoveLeaf { node: child },
            BarrierOp::AddLeaf {
                parent: leaf,
                rate: 30.0,
            },
            BarrierOp::RemoveLeaf { node: child },
        ];
        if batched {
            let results = sim.apply_all(&storm);
            assert!(results.iter().all(Result::is_ok), "{results:?}");
        } else {
            for op in &storm {
                sim.apply_op(op).expect("the storm applies");
            }
        }
        assert!(sim.tree().is_leaf(leaf));
        let end = sim.run(10.0);
        assert!(end.served_requests > mid.served_requests);
        (mid.canonical(), end.canonical())
    };
    assert_eq!(run(false), run(true));
}

/// Asserts two simulators hold the same world, the same rows and the
/// same calendar.
fn assert_same_state(a: &PacketSim, b: &PacketSim, label: &str) {
    assert_eq!(
        format!("{:?}", a.world()),
        format!("{:?}", b.world()),
        "{label}: worlds differ"
    );
    capture(a).assert_matches(b.nodes());
    let (queue_a, queue_b) = (&a.parts().1.queue, &b.parts().1.queue);
    assert_eq!(
        (queue_a.len(), queue_a.next_seq()),
        (queue_b.len(), queue_b.next_seq()),
        "{label}: calendars differ"
    );
}

/// Demand that would overflow is refused with `InvalidRate`: a join
/// whose split, a shift whose node total, a publish whose total and a
/// leave whose re-homed total would not be finite. A refused op changes
/// nothing, lone or batched: the engine equals one that never saw it.
#[test]
fn overflowing_demand_is_refused_and_changes_nothing() {
    let tree = ww_topology::k_ary(2, 3);
    let rates = ww_workload::leaf_only(&tree, 6.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 5, 1.0);
    let n = NodeId::new;
    let mut overflowing = DocMix::new(tree.len());
    overflowing.set(n(9), DocId::new(1), 1e308);
    overflowing.set(n(9), DocId::new(2), 1e308);
    let publish = |origin| BarrierOp::PublishDoc {
        doc: DocId::new(9),
        origin,
        rate: f64::MAX,
    };
    // Leaf 7 hangs under node 3; each holds a finite total until the
    // second publish at 7 or the leave of 7 would add two maxima.
    let script = [
        (
            BarrierOp::AddLeaf {
                parent: n(0),
                rate: 1.7e308,
            },
            Some("rate at n0 is invalid: inf"),
        ),
        (
            BarrierOp::SetMix { mix: overflowing },
            Some("rate at n9 is invalid: inf"),
        ),
        (
            BarrierOp::AddLeaf {
                parent: n(1),
                rate: 6.0,
            },
            None,
        ),
        (publish(n(7)), None),
        (publish(n(7)), Some("rate at n7 is invalid: inf")),
        (publish(n(3)), None),
        (
            BarrierOp::RemoveLeaf { node: n(7) },
            Some("rate at n3 is invalid: inf"),
        ),
    ];
    let accepted: Vec<BarrierOp> = script
        .iter()
        .filter(|(_, refusal)| refusal.is_none())
        .map(|(op, _)| op.clone())
        .collect();
    let fresh = || {
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        sim.run(2.0);
        sim
    };

    let (mut lone, mut clean) = (fresh(), fresh());
    for (op, refusal) in &script {
        let verdict = lone.apply_op(op).map_err(|e| e.to_string());
        match refusal {
            Some(text) => assert_eq!(verdict, Err(text.to_string()), "{op:?}"),
            None => {
                assert!(verdict.is_ok(), "{op:?}: {verdict:?}");
                clean.apply_op(op).expect("accepted on the clean twin");
            }
        }
        assert_same_state(&lone, &clean, &format!("after {op:?}"));
    }

    let (mut batched, mut clean) = (fresh(), fresh());
    let ops: Vec<BarrierOp> = script.iter().map(|(op, _)| op.clone()).collect();
    let verdicts: Vec<Option<String>> = batched
        .apply_all(&ops)
        .into_iter()
        .map(|r| r.err().map(|e| e.to_string()))
        .collect();
    let expected: Vec<Option<String>> = script
        .iter()
        .map(|(_, refusal)| refusal.map(str::to_string))
        .collect();
    assert_eq!(verdicts, expected);
    assert!(clean.apply_all(&accepted).iter().all(Result::is_ok));
    assert_same_state(&batched, &clean, "batched");
}

/// A barrier batch refreshes the oracle once, however many ops it
/// holds, and ends on the oracle the same ops reach one at a time,
/// where each accepted op refreshes it once.
#[test]
fn a_batch_refreshes_the_oracle_once() {
    let (mut lone, mut batched) = (build_sim(12, 4, 5), build_sim(12, 4, 5));
    let leaf = lone
        .tree()
        .nodes()
        .filter(|&u| lone.tree().is_leaf(u))
        .last();
    let shifted = {
        let tree = lone.tree();
        let rates = ww_workload::uniform(tree, 7.0);
        ww_workload::shared_zipf_mix(tree, &rates, 6, 0.8)
    };
    let ops = [
        BarrierOp::PublishDoc {
            doc: DocId::new(40),
            origin: NodeId::new(3),
            rate: 12.0,
        },
        BarrierOp::SetMix { mix: shifted },
        BarrierOp::RemoveLeaf {
            node: leaf.expect("a leaf"),
        },
        BarrierOp::AddLeaf {
            parent: NodeId::new(0),
            rate: 9.0,
        },
    ];
    let refolds = |sim: &PacketSim| sim.world().oracle_telemetry().refolds;
    let before = refolds(&batched);
    assert!(batched.apply_all(&ops).iter().all(Result::is_ok));
    assert_eq!(refolds(&batched) - before, 1, "one refresh per batch");
    for op in &ops {
        lone.apply_op(op).expect("the op applies");
    }
    assert_eq!(refolds(&lone) - before, ops.len() as u64);
    assert_eq!(
        bits(lone.oracle().as_slice()),
        bits(batched.oracle().as_slice())
    );
}

/// A request in flight names its document once, by dense index, so a
/// universe growth must leave that index naming the same document:
/// after a publish below every existing id and a `SetMix` that adds two
/// documents between existing ones, every surviving `Packet` names, in
/// the grown table, the document it named before the growth.
#[test]
fn packets_in_flight_keep_their_documents_across_growth() {
    // Documents 1, 4, 7, …: ids 0, 2 and 5 sort before or between them.
    let mut sim = build_spaced_sim(40, 6, 17);
    sim.run(2.0);
    let in_flight = |sim: &PacketSim| -> Vec<(u128, DocId)> {
        let queue = &sim.parts().1.queue;
        let mut docs: Vec<(u128, DocId)> = queue
            .entries()
            .filter_map(|(key, ev)| match *ev {
                PacketEvent::Packet { index, .. } => Some((key, sim.doc_table().doc(index))),
                _ => None,
            })
            .collect();
        docs.sort_unstable_by_key(|&(key, _)| key);
        docs
    };
    let origin = sim
        .tree()
        .nodes()
        .find(|&u| sim.tree().is_leaf(u))
        .expect("a leaf");
    let mut shifted = sim.world().mix.clone();
    shifted.set(origin, DocId::new(2), 5.0);
    shifted.set(sim.tree().root(), DocId::new(5), 3.0);
    let growths = [
        (
            BarrierOp::PublishDoc {
                doc: DocId::new(0),
                origin,
                rate: 8.0,
            },
            1,
        ),
        (BarrierOp::SetMix { mix: shifted }, 2),
    ];
    for (op, added) in &growths {
        let before = in_flight(&sim);
        assert!(!before.is_empty(), "requests are in flight before {op:?}");
        let width = sim.doc_table().len();
        sim.apply_op(op).expect("the growth applies");
        assert_eq!(sim.doc_table().len(), width + added, "{op:?}");
        let after = in_flight(&sim);
        assert_eq!(after, before, "{op:?} moved a request's document");
    }
}

/// A token bucket's refill-and-take, as the reference runs it.
fn take_token(bucket: &mut TokenBucket, now: f64) -> bool {
    bucket.tokens = (bucket.tokens + bucket.rate * (now - bucket.last)).min(2.0);
    bucket.last = now;
    let granted = bucket.tokens >= 1.0;
    if granted {
        bucket.tokens -= 1.0;
    }
    granted
}

/// One step of [`serve_slots_keep_the_dense_meters_across_an_invalidation`].
enum Step {
    /// A copy of document `k` lands at the leaf with `rate` req/s.
    Install(u32, f64),
    /// A client request for document `k` reaches the leaf.
    Request(u32),
    /// A whole-row roll: the leaf's measured load is sampled.
    Sample,
    /// Document `k` is re-published: the leaf's copy is revoked.
    Invalidate(u32),
}

/// A leaf keeps serve slots only for what it serves; the per-node
/// reference keeps a served meter and a bucket for every document and
/// runs the same script on them. After every step the leaf's row —
/// densified: an unslotted document's meter is what its slot would hold
/// — equals the reference cell for cell, window starts and the warm bit
/// included, and bucket for bucket over the live allocations. The script
/// has a leaf get a copy and serve it, an invalidation land between two
/// whole-row rolls, and the leaf serve that document again; and a slot
/// made three windows after the row's last roll, for a document nothing
/// was recorded for — the rolls passed its cold meter over, so the slot
/// starts at its anchor.
#[test]
fn serve_slots_keep_the_dense_meters_across_an_invalidation() {
    let tree = Tree::from_parents(&[None, Some(0)]).expect("a root and a leaf");
    let mut mix = DocMix::new(2);
    for d in 0..3 {
        mix.set(NodeId::new(1), DocId::new(d), 5.0);
    }
    let world = PacketWorld::new(&tree, &mix, PacketSimConfig::default());
    let window = world.config.measure_window;
    let ids: Vec<NodeId> = tree.nodes().collect();
    let mut slab = NodeSlab::new(&world, &ids);
    let mut reference = Reference::capture(&world, &slab, 0);
    let (leaf, row) = (NodeId::new(1), 1);
    let script = [
        (0.1, Step::Install(1, 3.0)),
        (0.2, Step::Request(1)),
        (0.5, Step::Request(1)),
        (0.9, Step::Request(0)),
        (1.5, Step::Sample),
        (1.6, Step::Request(1)),
        (2.2, Step::Invalidate(1)),
        (2.4, Step::Request(1)),
        (3.5, Step::Sample),
        (3.6, Step::Install(1, 2.0)),
        (3.7, Step::Request(1)),
        (6.7, Step::Install(2, 4.0)),
        (6.8, Step::Request(2)),
        (6.9, Step::Request(1)),
        (8.5, Step::Sample),
        (8.6, Step::Request(2)),
        (9.5, Step::Sample),
    ];
    let (mut ledger, mut counters) = (TrafficLedger::new(), PacketCounters::default());
    let (mut out, mut scratch) = (Vec::new(), Scratch::default());
    for (i, (at, step)) in script.iter().enumerate() {
        let now = at * window;
        let t = SimTime::from_secs(now);
        let mut ctx = NodeCtx {
            world: &world,
            ledger: &mut ledger,
            counters: &mut counters,
            out: &mut out,
            scratch: &mut scratch,
        };
        let expect = &mut reference.nodes[row];
        match *step {
            Step::Install(k, rate) => {
                let event = PacketEvent::CopyInstall {
                    node: leaf,
                    index: k,
                    rate,
                };
                packet::handle(&mut ctx, &mut slab.node_mut(row), t, event);
                if expect.alloc_set.insert(k) {
                    expect.alloc[k as usize] = TokenBucket::new(0.0, now);
                }
                expect.alloc[k as usize].rate += rate;
            }
            Step::Request(k) => {
                let request = DocRequest::new(RequestId::new(i as u64), leaf);
                let event = PacketEvent::Packet {
                    node: leaf,
                    from: None,
                    request,
                    index: k,
                };
                packet::handle(&mut ctx, &mut slab.node_mut(row), t, event);
                if expect.filter.contains(k)
                    && expect.alloc_set.contains(k)
                    && take_token(&mut expect.alloc[k as usize], now)
                {
                    expect.served.record(0, k, now);
                }
            }
            Step::Sample => {
                slab.measured_load(row, now);
                expect.served.roll_row_to(0, now);
            }
            Step::Invalidate(k) => {
                assert!(
                    slab.invalidate_row(row, k),
                    "step {i}: the leaf held a copy"
                );
                let doc = world.mix.table().doc(k);
                reference
                    .apply(&BarrierOp::Invalidate { doc }, now)
                    .expect("a known document");
            }
        }
        // Everything but the served meters and the buckets is dense in
        // both layouts: take it from the slab.
        let expect = &mut reference.nodes[row];
        let fresh = per_node::capture_node(&world, slab.node(row));
        *expect = per_node::NodeState {
            served: expect.served.clone(),
            alloc: expect.alloc.clone(),
            ..fresh
        };
        reference.assert_matches(&slab);
    }
    assert!(counters.served_requests >= 5, "the leaf served");
}

/// One step of [`late_cells_match_the_dense_reference`].
enum Late {
    /// A request for document `id` reaches node `at`, from its child
    /// `from` or from its own clients.
    Request {
        at: usize,
        from: Option<usize>,
        id: u64,
    },
    /// Node `at`'s diffusion round: it rolls its `seen` and `flows`
    /// meters (and may move load, which the reference re-captures).
    Diffuse(usize),
    /// Document `id` is published from node 2.
    Publish(u64),
    /// A leaf joins under the region.
    Join,
}

/// The `seen` runs and child grids hold cells only up to the highest
/// column a row recorded, and make the others on first record; the
/// per-node reference holds every cell of every row from the start.
/// The reference records the same requests into its dense tables and
/// rolls them where the diffusion rounds roll the rows (both pass cold
/// meters over); everything else it re-captures from the slab. After
/// every step the densified `seen` and `flows` rows equal the
/// reference's cell for cell, window starts and the warm bit included.
/// The script publishes a document that sorts after the others, has a
/// leaf join after it, and has the new document first seen several
/// windows later by its origin leaf, the region, the root and the
/// joiner; then publishes one that sorts below every document, which
/// takes the last column like any other, and records on.
#[test]
fn late_cells_match_the_dense_reference() {
    // Root 0, region 1, leaves 2 and 3; the leaves ask for 10 and 11.
    let tree = Tree::from_parents(&[None, Some(0), Some(1), Some(1)]).expect("a tree");
    let mut mix = DocMix::new(4);
    for leaf in [2, 3] {
        for doc in [10, 11] {
            mix.set(NodeId::new(leaf), DocId::new(doc), 5.0);
        }
    }
    let mut world = PacketWorld::new(&tree, &mix, PacketSimConfig::default());
    let window = world.config.measure_window;
    let ids: Vec<NodeId> = tree.nodes().collect();
    let mut slab = NodeSlab::new(&world, &ids);
    let mut reference = Reference::capture(&world, &slab, 0);
    let script = [
        (
            0.4,
            Late::Request {
                at: 2,
                from: None,
                id: 10,
            },
        ),
        (
            0.5,
            Late::Request {
                at: 1,
                from: Some(2),
                id: 10,
            },
        ),
        (
            0.6,
            Late::Request {
                at: 0,
                from: Some(1),
                id: 10,
            },
        ),
        (1.5, Late::Diffuse(1)),
        (2.3, Late::Publish(50)),
        (2.7, Late::Diffuse(2)),
        (3.6, Late::Join),
        (4.1, Late::Diffuse(1)),
        (
            7.2,
            Late::Request {
                at: 2,
                from: None,
                id: 50,
            },
        ),
        (
            7.3,
            Late::Request {
                at: 1,
                from: Some(2),
                id: 50,
            },
        ),
        (
            7.4,
            Late::Request {
                at: 0,
                from: Some(1),
                id: 50,
            },
        ),
        (
            7.9,
            Late::Request {
                at: 4,
                from: None,
                id: 50,
            },
        ),
        (
            8.0,
            Late::Request {
                at: 1,
                from: Some(4),
                id: 50,
            },
        ),
        (8.5, Late::Diffuse(1)),
        (8.6, Late::Diffuse(4)),
        (9.4, Late::Publish(1)),
        (
            10.2,
            Late::Request {
                at: 4,
                from: None,
                id: 10,
            },
        ),
        (
            10.3,
            Late::Request {
                at: 1,
                from: Some(4),
                id: 1,
            },
        ),
        (11.7, Late::Diffuse(1)),
        (
            11.8,
            Late::Request {
                at: 3,
                from: None,
                id: 50,
            },
        ),
        (12.9, Late::Diffuse(0)),
    ];
    let (mut ledger, mut counters) = (TrafficLedger::new(), PacketCounters::default());
    let (mut out, mut scratch) = (Vec::new(), Scratch::default());
    for (i, (at, step)) in script.iter().enumerate() {
        let now = at * window;
        let t = SimTime::from_secs(now);
        match *step {
            Late::Request { at, from, id } => {
                let k = (world.mix.table())
                    .index_of(DocId::new(id))
                    .expect("a known document");
                let (node, from) = (NodeId::new(at), from.map(NodeId::new));
                let request = DocRequest::new(RequestId::new(i as u64), node);
                let event = PacketEvent::Packet {
                    node,
                    from,
                    request,
                    index: k,
                };
                let mut ctx = NodeCtx {
                    world: &world,
                    ledger: &mut ledger,
                    counters: &mut counters,
                    out: &mut out,
                    scratch: &mut scratch,
                };
                packet::handle(&mut ctx, &mut slab.node_mut(at), t, event);
                let expect = &mut reference.nodes[at];
                expect.seen.record(0, k, now);
                if let Some(child) = from {
                    let slot = world.child_slot[child.index()];
                    expect.flows.record(slot, k, now);
                }
            }
            Late::Diffuse(at) => {
                let mut ctx = NodeCtx {
                    world: &world,
                    ledger: &mut ledger,
                    counters: &mut counters,
                    out: &mut out,
                    scratch: &mut scratch,
                };
                packet::on_diffusion(&mut ctx, &mut slab.node_mut(at), t, NodeId::new(at));
                let expect = &mut reference.nodes[at];
                expect.seen.roll_to(now);
                expect.flows.roll_to(now);
            }
            Late::Publish(id) => {
                let op = BarrierOp::PublishDoc {
                    doc: DocId::new(id),
                    origin: NodeId::new(2),
                    rate: 3.0,
                };
                reference.apply(&op, now).expect("publish applies");
                let growth = world
                    .publish(DocId::new(id), NodeId::new(2), 3.0)
                    .expect("publish applies")
                    .expect("a new document");
                slab.grow(&growth, now, Some(0));
            }
            Late::Join => {
                let region = NodeId::new(1);
                let op = BarrierOp::AddLeaf {
                    parent: region,
                    rate: 4.0,
                };
                reference.apply(&op, now).expect("join applies");
                let id = world.join(region, 4.0).expect("join applies");
                slab.push_child(region.index(), now);
                slab.push_node(&world, id, now);
            }
        }
        out.clear();
        // The copies, buckets and served meters a diffusion round moved
        // are the serve-slot test's business: take them from the slab.
        for (row, expect) in reference.nodes.iter_mut().enumerate() {
            let fresh = per_node::capture_node(&world, slab.node(row));
            *expect = per_node::NodeState {
                seen: expect.seen.clone(),
                flows: expect.flows.clone(),
                ..fresh
            };
        }
        reference.assert_matches(&slab);
    }
    assert_eq!(
        world.mix.table().docs().last(),
        Some(&DocId::new(1)),
        "the last publish is the last column"
    );
}
