//! Byte and allocation budget of the node state — a timing-free guard
//! for "a leaf owns no heap buffer".
//!
//! The packet engines keep every node's protocol state in a handful of
//! slabs ([`NodeSlab`]); only a node that has children owns anything of
//! its own. So building the state of a tree must allocate per *interior*
//! node, never per leaf, a leaf must cost about its payload (a head, two
//! meter rows, a bucket row, its arrival RNGs), and a universe growth
//! that doubles the row stride must grow slab by slab, never holding a
//! second copy of the whole state. A join + leave storm's allocation
//! ceiling is `barrier_allocs.rs`'s.

mod alloc_counter;

use alloc_counter::{heap_use_of, live_now, CountingAlloc};
use ww_core::packet::{BarrierOp, NodeSlab, PacketWorld};
use ww_core::packetsim::{PacketSim, PacketSimConfig};
use ww_model::{DocId, NodeId, Tree};
use ww_workload::DocMix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A CDN-shaped tree (`regions` regional caches, `leaves` edge caches
/// under each) whose leaves request 8 shared documents.
fn cdn(regions: usize, leaves: usize) -> (Tree, DocMix) {
    let tree = ww_topology::two_level(regions, leaves);
    let rates = ww_workload::leaf_only(&tree, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 8, 1.0);
    (tree, mix)
}

/// Allocations `PacketSim::new` performs beyond its world's own.
fn engine_allocations(regions: usize, leaves: usize) -> u64 {
    let (tree, mix) = cdn(regions, leaves);
    let config = PacketSimConfig::default();
    let (world, _) = heap_use_of(|| PacketWorld::new(&tree, &mix, config));
    let (sim, _) = heap_use_of(|| PacketSim::new(&tree, &mix, config));
    sim.allocations - world.allocations
}

#[test]
fn building_the_node_state_allocates_per_interior_node_not_per_leaf() {
    // 61 interior nodes under 3,600 leaves, then under 14,400: the
    // count stays (the event queue's buckets grow a few times more).
    let small = engine_allocations(60, 60);
    let wide = engine_allocations(60, 240);
    assert!(
        wide <= small + 32,
        "PacketSim::new allocated {small} times over 3,600 leaves \
         but {wide} times over 14,400: the count follows the leaf count"
    );
    // Twice the interior nodes, four times the leaves: at most twice.
    let large = engine_allocations(120, 120);
    assert!(
        large <= 2 * small,
        "{small} allocations on two_level(60, 60), {large} on two_level(120, 120)"
    );

    // The slab itself: three buffers per interior node (its boxed child
    // state, the `flows` cells, the estimates) and one per slab.
    let (tree, mix) = cdn(60, 60);
    let world = PacketWorld::new(&tree, &mix, PacketSimConfig::default());
    let ids: Vec<NodeId> = tree.nodes().collect();
    let interior = ids.iter().filter(|&&u| !tree.is_leaf(u)).count() as u64;
    let (built, slab) = heap_use_of(|| NodeSlab::new(&world, &ids));
    assert!(
        built.allocations <= 3 * interior + 8,
        "{} allocations for {interior} interior nodes",
        built.allocations
    );
    assert_eq!(built.requested as usize, slab.state_bytes());
}

#[test]
fn a_leaf_costs_its_payload_and_no_allocation() {
    // A slab hosting leaves only — a shard below the regional tier.
    for (regions, leaves) in [(60, 60), (120, 120)] {
        let (tree, mix) = cdn(regions, leaves);
        let world = PacketWorld::new(&tree, &mix, PacketSimConfig::default());
        let edge: Vec<NodeId> = tree.nodes().filter(|&u| tree.is_leaf(u)).collect();
        let (built, slab) = heap_use_of(|| NodeSlab::new(&world, &edge));
        assert!(
            built.allocations <= 8,
            "{} allocations for {} leaves",
            built.allocations,
            edge.len()
        );
        // A head, two meter rows, a bucket row and eight arrival RNGs
        // (the per-node layout requested about 1.9 KiB).
        let per_leaf = built.requested as f64 / edge.len() as f64;
        assert!(
            per_leaf <= 1.2 * 1024.0,
            "{per_leaf:.0} bytes of node state per leaf"
        );
        assert_eq!(built.requested as usize, slab.state_bytes());
    }
}

#[test]
fn a_stride_doubling_publish_grows_slab_by_slab() {
    let (tree, mix) = cdn(60, 60);
    let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
    sim.run(0.25);
    let before = live_now();
    // A ninth document: every slab's row stride doubles to sixteen.
    let publish = BarrierOp::PublishDoc {
        doc: DocId::new(100),
        origin: NodeId::new(100),
        rate: 20.0,
    };
    let (growth, results) = heap_use_of(|| sim.apply_all(&[publish]));
    assert!(results[0].is_ok());
    let state = sim.nodes().state_bytes() as i64;
    assert!(
        growth.retained > state / 4,
        "the growth reallocated the slabs ({} of {state} bytes)",
        growth.retained
    );
    let (peak, steady) = (before + growth.peak_live, live_now());
    assert!(
        (peak as f64) < 1.6 * steady as f64,
        "{peak} bytes live during the growth, {steady} after it"
    );
}
