//! Bulk migration == one move at a time, as a property.
//!
//! [`ops::apply_rebalance`] compacts each donor once and merges each
//! recipient's rings once; [`ops::apply_rebalance_per_move`] is the
//! loop it replaced. On random trees, skews, worker counts and plans —
//! plans in which shards are donor and recipient at once, connected or
//! not — the two must leave every shard with the same nodes, the same
//! node-state rows bit for bit, the same pending events under the same
//! keys — the arrivals in the rows and the one head per row in the
//! queue (the front invariant, checked on both sides) included — the
//! same ring fires under the same sequence numbers, and the same
//! sequence counter. Local indices may differ (the bulk form
//! compacts stably, the reference by swap-remove), so shards are
//! compared as sets keyed by global node id, and each side separately
//! must keep `members[s][li]`, row `li` of the shard's slab, ring member
//! `li` and `window_events[li]` naming one node.
//!
//! Rows move, not structs: a node's row is read through
//! [`NodeSlab::node`](ww_core::packet::NodeSlab::node) before and after
//! — meter cells with their window starts, live token buckets, bitset
//! members (inline words at 6 documents, the word slab at 70), stream
//! cells and pending-arrival keys out of the shared stream slabs (a
//! 70-key row is what the re-head scan walks), and an interior node's
//! child rows and estimates — so a row that arrives next to another
//! node's serve slots or stream range shows as a node wearing another
//! node's state.

use crate::engine::ParPacketSim;
use crate::ops;
use crate::rebalance::{Migration, RebalanceConfig, RebalancePlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ww_core::packet::driver::SimCore;
use ww_core::packet::PacketSimConfig;
use ww_model::NodeId;
use ww_sim::SimQueue;

/// A small skewed world, driven to a barrier with per-node event
/// attribution on (so `window_events` has something to misplace).
fn sim_at_barrier(
    seed: u64,
    nodes: usize,
    docs: usize,
    theta: f64,
    workers: usize,
) -> ParPacketSim {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, nodes, 5);
    let rates = ww_workload::zipf_nodes(&mut rng, &tree, 25.0 * nodes as f64, theta);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, docs, 1.0);
    let config = PacketSimConfig {
        seed: seed ^ 0x5EED,
        // Long enough that lanes and radix heap hold packets in flight.
        link_delay: 0.03,
        ..PacketSimConfig::default()
    };
    let mut sim = ParPacketSim::new(&tree, &mix, config, workers);
    // Armed but never triggered: attribution only.
    sim.set_rebalance(Some(RebalanceConfig {
        trigger_imbalance: 1e9,
        min_epoch_gap: 1,
    }));
    sim.run(1.25);
    sim
}

/// A random plan: each node leaves with probability `share`/256 for a
/// uniformly chosen other shard. Ascending node order, as plans are.
fn random_plan(core: &SimCore, rng: &mut StdRng, share: u8) -> RebalancePlan {
    let shards = core.partition.shards();
    let moves = (0..core.partition.shard_of.len())
        .filter_map(|node| {
            let from = core.partition.shard_of[node];
            let leaves = rng.gen_range(0..256u32) < share as u32;
            let to = (from + 1 + rng.gen_range(0..shards - 1)) % shards;
            leaves.then_some(Migration {
                node: NodeId::new(node),
                from,
                to,
            })
        })
        .collect();
    RebalancePlan {
        moves,
        imbalance_before: 1.0,
        predicted_imbalance: 1.0,
        shape: Default::default(),
    }
}

/// `(gossip fire, diffusion fire)`, each `(time bits, seq)`.
type Fires = ((u64, u64), (u64, u64));

/// What one node carries that migration must move with it.
#[derive(Debug, Clone, PartialEq)]
struct NodeView {
    shard: usize,
    /// The row's `Debug` rendering — every field of the node: every
    /// float prints in its shortest round-trip form, so equal strings
    /// are equal bits.
    state: String,
    /// The row's pending arrivals, each `(time bits, seq)`;
    /// `(u64::MAX, u64::MAX)` for a zero-rate stream.
    arrivals: Vec<(u64, u64)>,
    fires: Fires,
    window_events: u64,
}

/// Every node as its owner sees it, read through the local-index
/// tables — so a misaligned table shows as a node wearing another
/// node's state.
fn node_views(sim: &mut ParPacketSim) -> Vec<NodeView> {
    let (core, shards) = sim.parts_mut();
    (0..core.partition.shard_of.len())
        .map(|node| {
            let s = core.partition.shard_of[node];
            let li = core.partition.local_index[node] as usize;
            assert_eq!(core.partition.members[s][li], NodeId::new(node));
            let shard = &shards[s];
            let fire = |ring: &ww_sim::TimerRing| {
                let (at, seq) = ring.fire_entry(li).expect("armed at a barrier");
                (at.as_secs().to_bits(), seq)
            };
            NodeView {
                shard: s,
                state: format!("{:?}", shard.nodes.node(li)),
                arrivals: shard
                    .nodes
                    .node(li)
                    .next
                    .iter()
                    .map(|&key| ((key >> 64) as u64, key as u64))
                    .collect(),
                fires: (fire(&shard.gossip_ring), fire(&shard.diffusion_ring)),
                window_events: shard.window_events[li],
            }
        })
        .collect()
}

/// What one shard's queue holds: member count, every pending event as
/// `(time bits, key, target node, event)` in delivery order, and the
/// next sequence number.
#[derive(Debug, PartialEq)]
struct QueueView {
    members: usize,
    pending: Vec<(u64, u64, usize, String)>,
    next_seq: u64,
}

/// The front invariant on every shard: one arrival head per row with a
/// pending arrival, under the row's minimum key.
fn assert_fronts(sim: &mut ParPacketSim) {
    let (core, shards) = sim.parts_mut();
    for shard in shards.iter() {
        if let Err(violation) = shard.check_fronts(core) {
            panic!("front invariant on shard {}: {violation}", shard.id);
        }
    }
}

/// Every shard's [`QueueView`]. Destructive (empties the queues), so
/// it goes last.
fn queue_views(sim: &mut ParPacketSim) -> Vec<QueueView> {
    let (core, shards) = sim.parts_mut();
    shards
        .iter_mut()
        .enumerate()
        .map(|(s, shard)| {
            let members = core.partition.members[s].len();
            assert_eq!(shard.nodes.len(), members);
            assert_eq!(shard.window_events.len(), members);
            assert_eq!(shard.gossip_ring.members(), members);
            assert_eq!(shard.diffusion_ring.members(), members);
            assert_eq!(shard.gossip_ring.len(), members, "every member armed");
            assert_eq!(shard.diffusion_ring.len(), members, "every member armed");
            let pending = shard
                .queue
                .extract_events(|_| true)
                .into_iter()
                .map(|(at, key, ev)| {
                    let node = ev.node().index();
                    assert_eq!(core.partition.shard_of[node], s, "event outside its owner");
                    (at.as_secs().to_bits(), key, node, format!("{ev:?}"))
                })
                .collect();
            QueueView {
                members,
                pending,
                next_seq: shard.queue.alloc_seq(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(40))]

    #[test]
    fn bulk_migration_matches_one_move_at_a_time(
        seed in 0u64..u64::MAX,
        nodes in 12usize..56,
        wide in any::<bool>(),
        theta in 0.4f64..1.6,
        workers in 0usize..4,
        share in 0u8..=255,
    ) {
        let workers = [2, 3, 4, 8][workers];
        // Bitsets in the heads' inline words, or in the word slab.
        let docs = if wide { 70 } else { 6 };
        let mut bulk = sim_at_barrier(seed, nodes, docs, theta, workers);
        let mut single = sim_at_barrier(seed, nodes, docs, theta, workers);
        prop_assert!(bulk.shard_count() >= 2, "twelve nodes fill two shards");
        let before = node_views(&mut bulk);
        prop_assert_eq!(&before, &node_views(&mut single));
        assert_fronts(&mut bulk);
        let plan = random_plan(bulk.parts_mut().0, &mut StdRng::seed_from_u64(!seed), share);

        let (core, shards) = bulk.parts_mut();
        let events_moved = ops::apply_rebalance(core, shards, &plan);
        let (core, shards) = single.parts_mut();
        ops::apply_rebalance_per_move(core, shards, &plan);

        // Each side keeps its tables aligned: every node still wears
        // its own state, arrival times and fire times; only migrants
        // changed shard, drew fresh sequence numbers and restarted their
        // window count.
        let after = node_views(&mut bulk);
        assert_fronts(&mut bulk);
        assert_fronts(&mut single);
        let times = |view: &NodeView| view.arrivals.iter().map(|a| a.0).collect::<Vec<_>>();
        for (node, (was, is)) in before.iter().zip(&after).enumerate() {
            let migrated = plan.moves.iter().find(|m| m.node.index() == node);
            prop_assert_eq!(&was.state, &is.state, "node {} wears another state", node);
            prop_assert_eq!(times(was), times(is), "node {} fires at other times", node);
            prop_assert_eq!((was.fires.0).0, (is.fires.0).0);
            prop_assert_eq!((was.fires.1).0, (is.fires.1).0);
            match migrated {
                Some(m) => {
                    prop_assert_eq!((was.shard, is.shard), (m.from, m.to));
                    prop_assert_eq!(is.window_events, 0);
                }
                None => prop_assert_eq!(was, is, "a survivor changed"),
            }
        }
        // Bulk == reference, node by node and queue by queue.
        prop_assert_eq!(&after, &node_views(&mut single));
        // The slabs hold exactly their members' rows.
        for (s, shard) in bulk.parts_mut().1.iter().enumerate() {
            prop_assert_eq!(shard.nodes.len(), after.iter().filter(|v| v.shard == s).count());
        }
        let queues = queue_views(&mut bulk);
        prop_assert_eq!(&queues, &queue_views(&mut single));
        // The returned count is what was pending for the migrants:
        // their share of those queues bar the heads, which are derived,
        // plus the arrivals their rows carried.
        let migrates = |node: usize| plan.moves.iter().any(|m| m.node.index() == node);
        let migrant_events = queues
            .iter()
            .flat_map(|view| &view.pending)
            .filter(|(_, _, node, ev)| migrates(*node) && !ev.starts_with("Arrival"))
            .count();
        let migrant_arrivals = after
            .iter()
            .enumerate()
            .filter(|&(node, _)| migrates(node))
            .flat_map(|(_, view)| &view.arrivals)
            .filter(|&&(time, _)| time != u64::MAX)
            .count();
        prop_assert_eq!(events_moved, (migrant_events + migrant_arrivals) as u64);
    }
}
