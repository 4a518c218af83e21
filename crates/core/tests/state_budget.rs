//! Byte and allocation budget of the node state — a timing-free guard
//! for "a leaf owns no heap buffer".
//!
//! The packet engines keep every node's protocol state in a handful of
//! slabs ([`NodeSlab`]); only a node that has children owns anything of
//! its own. So building the state of a tree must allocate per *interior*
//! node, never per leaf, a leaf must cost about its payload (a head, a
//! `seen` meter row, 64 bytes per arrival stream, and 48 bytes per
//! document it has allocated or served — none for a leaf that serves
//! nothing), a pending
//! arrival must cost its 16-byte key in the row and nothing in the
//! event calendar, and a publish must widen no row, whatever its id
//! sorts to. A join + leave storm's allocation ceiling is
//! `barrier_allocs.rs`'s.

mod alloc_counter;

use alloc_counter::{heap_use_of, live_now, CountingAlloc};
use std::collections::BTreeSet;
use ww_core::packet::{
    self, BarrierOp, NodeCtx, NodeSlab, PacketCounters, PacketEvent, PacketWorld, Scratch,
};
use ww_core::packetsim::{PacketBackend, PacketSim, PacketSimConfig};
use ww_model::{DocId, NodeId, Tree};
use ww_net::TrafficLedger;
use ww_sim::SimTime;
use ww_telemetry::Level;
use ww_workload::{DocEntry, DocMix};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A CDN-shaped tree (`regions` regional caches, `leaves` edge caches
/// under each) whose leaves request 8 shared documents.
fn cdn(regions: usize, leaves: usize) -> (Tree, DocMix) {
    cdn_over(regions, leaves, 8)
}

/// [`cdn`] over a universe of `docs` shared documents.
fn cdn_over(regions: usize, leaves: usize, docs: usize) -> (Tree, DocMix) {
    let tree = ww_topology::two_level(regions, leaves);
    let rates = ww_workload::leaf_only(&tree, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, docs, 1.0);
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
    // state, the `flows` cells, the child slots' estimates and creation
    // times) and one per slab.
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
        // A leaf that serves nothing: a 120-byte head and its 24-byte
        // spans, a 24-byte `seen` cell per document of the universe the
        // slab was built over, a 32-byte cell (the generator) and a
        // 16-byte key per arrival stream — 720 bytes at eight documents
        // and eight streams, and no serve slot. Two-sided: a smaller
        // cell must restate this figure, not slip under it.
        let (docs, streams) = (8, 8);
        let payload = 120 + 24 + docs * 24 + streams * (32 + 16);
        assert_eq!(payload, 720);
        let per_leaf = built.requested as f64 / edge.len() as f64;
        assert!(
            (per_leaf - payload as f64).abs() <= 0.02 * payload as f64,
            "{per_leaf:.0} bytes of node state per leaf, payload {payload}"
        );
        assert_eq!(built.requested as usize, slab.state_bytes());
    }
}

#[test]
fn serve_state_follows_serving_pairs() {
    // Leaves only, over a 64-document universe: no copies yet, so no
    // leaf holds a serve slot.
    let (tree, mix) = cdn_over(60, 60, 64);
    let world = PacketWorld::new(&tree, &mix, PacketSimConfig::default());
    assert_eq!(world.mix.table().len(), 64);
    let edge: Vec<NodeId> = tree.nodes().filter(|&u| tree.is_leaf(u)).collect();
    let mut slab = NodeSlab::new(&world, &edge);
    let streams: usize = edge.iter().map(|&u| world.streams_of(u).len()).sum();
    let cold = slab.state_bytes();
    // A row is its 120-byte head, its 24-byte spans and its `seen` run;
    // the slab adds each column's 8-byte creation time and each stream's
    // 32-byte cell and 16-byte key.
    assert_eq!(
        cold,
        edge.len() * (120 + 24 + 64 * 24) + 64 * 8 + streams * (32 + 16)
    );

    // Copy installs, some repeated: each (leaf, document) pair served
    // for the first time adds one 48-byte slot, and nothing else.
    let (mut ledger, mut counters) = (TrafficLedger::new(), PacketCounters::default());
    let (mut out, mut scratch) = (Vec::new(), Scratch::default());
    let mut ctx = NodeCtx {
        world: &world,
        ledger: &mut ledger,
        counters: &mut counters,
        out: &mut out,
        scratch: &mut scratch,
    };
    let mut pairs = BTreeSet::new();
    for step in 0..20_000u32 {
        let row = (step.wrapping_mul(2_654_435_761) % edge.len() as u32) as usize;
        let index = step.wrapping_mul(40_503) % 64;
        pairs.insert((row, index));
        let install = PacketEvent::CopyInstall {
            node: edge[row],
            index,
            rate: 1.0,
        };
        let t = SimTime::from_secs(0.001 * f64::from(step));
        packet::handle(&mut ctx, &mut slab.node_mut(row), t, install);
    }
    // The buffer holds the slots, the holes of runs that moved (packed
    // once they reach a quarter of the slots) and the spare room of a
    // buffer that doubles: at most 2.5 times the live slots.
    let slots = pairs.len() * 48;
    let between = slab.state_bytes() - cold;
    assert!(
        2 * between <= 5 * slots,
        "{between} bytes of slot buffer for {slots} bytes of slots"
    );
}

/// `two_level(60, 60)` over a universe of 16 documents of which every
/// leaf requests the first `streams`.
fn cdn_with_streams(streams: usize) -> (Tree, DocMix) {
    let tree = ww_topology::two_level(60, 60);
    let rates = ww_workload::leaf_only(&tree, 1.0);
    let full = ww_workload::shared_zipf_mix(&tree, &rates, 16, 1.0);
    let mut mix = DocMix::new(tree.len());
    for node in tree.nodes() {
        for (doc, rate) in full.demands_of(node).iter().take(streams) {
            mix.set(node, doc, rate);
        }
    }
    // The root's clients ask for everything: the universe stays at 16
    // documents whatever the leaves request.
    for doc in full.documents() {
        mix.set(tree.root(), doc, 0.5);
    }
    (tree, mix)
}

/// What `PacketSim::new` keeps on the heap beyond its world's own on
/// [`cdn_with_streams`], and the calendar's radix high-water after
/// priming.
fn engine_bytes_and_radix_high_water(streams: usize) -> (i64, u64) {
    let (tree, mix) = cdn_with_streams(streams);
    let config = PacketSimConfig::default();
    let (world, _) = heap_use_of(|| PacketWorld::new(&tree, &mix, config));
    let (engine, mut sim) = heap_use_of(|| PacketSim::new(&tree, &mix, config));
    assert_eq!(sim.doc_table().len(), 16);
    sim.set_telemetry(Level::Counters);
    let radix_hw = sim.telemetry_snapshot().counter("core.queue.radix_hw");
    (
        engine.retained - world.retained,
        radix_hw.expect("reported"),
    )
}

#[test]
fn pending_arrivals_cost_a_key_not_a_calendar_entry() {
    let (eight, radix_hw) = engine_bytes_and_radix_high_water(8);
    // One head per node with demand (3,600 leaves and the root), not
    // one entry per stream (28,816).
    assert!(
        radix_hw <= 3_601,
        "the calendar's radix heap reached {radix_hw} entries"
    );
    let (sixteen, radix_hw) = engine_bytes_and_radix_high_water(16);
    assert!(radix_hw <= 3_601, "{radix_hw} entries at 16 streams a leaf");
    // Eight more streams on each of 3,600 leaves: a 32-byte cell and a
    // 16-byte key each, and nothing that grows with them in the queue
    // (a calendar entry alone is 80 bytes).
    let per_stream = (sixteen - eight) as f64 / (3_600.0 * 8.0);
    assert!(
        per_stream <= 80.0,
        "{per_stream:.1} bytes of engine per added arrival stream"
    );
}

#[test]
fn the_world_keeps_one_copy_of_the_demand() {
    // What building the world requests beyond its clone of the mix:
    // tree, universe, child slots, fold cache, oracle — nothing per
    // arrival stream (a stored `(doc, index, rate)` list was 24 bytes a
    // stream and a buffer per node with demand).
    let beyond_the_mix = |streams: usize| {
        let (tree, mix) = cdn_with_streams(streams);
        let (copy, _) = heap_use_of(|| mix.clone());
        let (built, world) = heap_use_of(|| PacketWorld::new(&tree, &mix, Default::default()));
        assert_eq!(world.mix.table().len(), 16);
        (built.requested - copy.requested) as f64
    };
    let (eight, sixteen) = (beyond_the_mix(8), beyond_the_mix(16));
    assert!(
        (sixteen - eight).abs() <= 0.01 * eight,
        "the world requests {eight} bytes beyond its mix at 8 streams a leaf, \
         {sixteen} at 16"
    );
}

#[test]
fn a_mix_entry_is_twelve_bytes() {
    // A rate and a 4-byte document code, packed: 16 bytes as a
    // `(DocId, f64)` pair.
    assert_eq!(std::mem::size_of::<DocEntry>(), 12);
    let tree = ww_topology::two_level(60, 60);
    let rates = ww_workload::leaf_only(&tree, 1.0);
    let (built, mix) = heap_use_of(|| ww_workload::shared_zipf_mix(&tree, &rates, 8, 1.0));
    let entries: usize = tree.nodes().map(|u| mix.demands_of(u).len()).sum();
    assert_eq!(entries, 3_600 * 8);
    // A copy requests exactly its entries, an 8-byte span per node and
    // the code table: an id per code and a `(document, code)` pair in
    // the sorted side table.
    let exact = 12 * entries + 8 * tree.len() + 8 * (8 + 16);
    let (copy, _) = heap_use_of(|| mix.clone());
    assert_eq!(copy.requested as usize, exact);
    // The build keeps at most a sixteenth of its entries as slack.
    let slack = 12 * (entries / 16 + 1);
    assert!(
        built.retained as usize <= exact + slack,
        "the mix of cdn(60, 60) holds {} bytes, {exact} of them exact",
        built.retained
    );
}

/// [`cdn`] with its documents' ids moved up by ten, so that a publish
/// can sort below every one of them.
fn cdn_above_ten() -> (Tree, DocMix) {
    let (tree, dense) = cdn(60, 60);
    let mut mix = DocMix::new(tree.len());
    for node in tree.nodes() {
        for (doc, rate) in dense.demands_of(node).iter() {
            mix.set(node, DocId::new(doc.value() + 10), rate);
        }
    }
    (tree, mix)
}

/// One publish of `doc` from leaf 100 into `sim`, a quarter second into
/// its run: the bytes live just before it, its heap use, and the node
/// state's bytes after it.
fn publish_into(sim: &mut PacketSim, doc: u64) -> (i64, alloc_counter::HeapUse, i64) {
    sim.run(0.25);
    let before = live_now();
    let publish = BarrierOp::PublishDoc {
        doc: DocId::new(doc),
        origin: NodeId::new(100),
        rate: 20.0,
    };
    let (growth, results) = heap_use_of(|| sim.apply_all(&[publish]));
    assert!(results[0].is_ok());
    (before, growth, sim.nodes().state_bytes() as i64)
}

#[test]
fn an_appending_publish_widens_no_row() {
    // A ninth document, after the other eight: no row has recorded it,
    // so no `seen` run and no child grid grows. What the publish keeps
    // is its one new arrival stream — for which the stream cells and
    // keys, built exactly full, grow by a sixteenth — the home server's
    // new slot, and a few cells, such as the column's creation time.
    let (tree, mix) = cdn(60, 60);
    let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
    let streams: usize = tree.nodes().map(|u| sim.world().streams_of(u).len()).sum();
    let slack = (streams / 16) as i64 * (32 + 16);
    // The slot buffer is built exactly full, with the home server's
    // eight 48-byte slots; a quarter second in, no copy has spread yet.
    // It doubles, so the ninth slot grows it by its own size, and no
    // barrier shrinks it back.
    let slot_step = 8 * 48;
    let (_, growth, state) = publish_into(&mut sim, 100);
    assert!(
        growth.retained < slack + slot_step + 1024,
        "the append retained {} of {state} bytes (stream slack {slack}, slot step {slot_step})",
        growth.retained
    );
}

#[test]
fn a_publish_below_every_id_widens_no_row() {
    // A ninth document whose id sorts below the other eight takes the
    // next column all the same: from the same state it keeps exactly
    // what a ninth document above them keeps. (This world's arrival
    // streams fork on other ids than `cdn`'s, so its run, and the
    // buffers a publish's commit reshapes, differ from
    // `an_appending_publish_widens_no_row`'s.)
    let (tree, mix) = cdn_above_ten();
    let publish = |doc| {
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let (_, growth, state) = publish_into(&mut sim, doc);
        (growth.retained, state)
    };
    assert_eq!(publish(1), publish(100), "(retained, state bytes)");
}
