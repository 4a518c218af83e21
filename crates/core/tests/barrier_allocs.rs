//! Allocation budget of the barrier path — a timing-free guard for
//! "a barrier operation costs what it touches".
//!
//! A join or a leave touches one root path and one or two child lists,
//! so the number of allocations a churn storm performs must not grow
//! with the node count; and appending a document must allocate a
//! constant number of times — no row holds a column for a document
//! nothing has requested yet. Both used to fail by construction: every
//! barrier op rebuilt one `Vec` per node (demand streams, arrival RNGs),
//! and every growth rebuilt ten; later, every growth widened each dense
//! slab and each interior node's child rows.
//!
//! The counting allocator (`alloc_counter`, shared with
//! `state_budget.rs`) keeps its counts per thread, so the tests stay
//! independent under the parallel test runner.

mod alloc_counter;

use alloc_counter::{allocations_of, CountingAlloc};
use ww_core::packet::BarrierOp;
use ww_core::packetsim::{PacketBackend, PacketSim, PacketSimConfig};
use ww_model::{DocId, NodeId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A CDN-shaped world (`regions` regional caches, `leaves` edge caches
/// under each), a few gossip rounds into its run.
fn cdn(regions: usize, leaves: usize) -> PacketSim {
    let tree = ww_topology::two_level(regions, leaves);
    let rates = ww_workload::leaf_only(&tree, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 8, 1.0);
    let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
    sim.run(0.25);
    sim
}

/// Allocations of one batched join + leave storm.
fn churn_storm_allocations(regions: usize, leaves: usize) -> u64 {
    let mut sim = cdn(regions, leaves);
    let storm = [
        BarrierOp::AddLeaf {
            parent: NodeId::new(1),
            rate: 40.0,
        },
        BarrierOp::RemoveLeaf {
            node: NodeId::new(regions + 5),
        },
    ];
    let (allocations, results) = allocations_of(|| sim.apply_all(&storm));
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    allocations
}

#[test]
fn churn_storm_allocations_do_not_scale_with_the_node_count() {
    let small = churn_storm_allocations(60, 60); // 3,661 nodes
    let large = churn_storm_allocations(120, 120); // 14,521 nodes
    assert!(
        large as f64 <= 1.5 * small as f64,
        "a join + leave storm allocated {small} times on 3,661 nodes \
         but {large} times on 14,521: the count follows the node count"
    );
}

#[test]
fn appending_a_document_within_reserved_capacity_allocates_per_storm_not_per_node() {
    let mut sim = cdn(60, 60);
    let nodes = sim.tree().len() as u64;
    let publish = |doc: u64| BarrierOp::PublishDoc {
        doc: DocId::new(doc),
        origin: NodeId::new(100),
        rate: 20.0,
    };
    // No row has recorded the new document, so the first growth widens
    // no `seen` run and no child grid: what it allocates is the world's
    // and the barrier's own, and the one new stream's — a count that
    // does not depend on the tree (44 on this one).
    let (first, results) = allocations_of(|| sim.apply_all(&[publish(100)]));
    assert!(results[0].is_ok());
    assert!(
        first < 64,
        "the first growth allocated {first} times on {nodes} nodes"
    );
    sim.run(0.5);
    // The second appends into that room.
    let (second, results) = allocations_of(|| sim.apply_all(&[publish(101)]));
    assert!(results[0].is_ok());
    assert!(
        second < nodes / 8,
        "appending a document allocated {second} times on {nodes} nodes"
    );
}
