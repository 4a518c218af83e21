//! The per-node owning layout the slabs replaced, kept as the tests'
//! reference: one struct of `DocSet`s, `DenseFlowTable`s and `Vec`s per
//! node, and the barrier operations written node by node the way the
//! drivers used to run them — a join builds a struct, a leave
//! swap-removes one, a universe growth rebuilds every per-document
//! structure at the grown size, a commit restarts every stream and keys
//! its first arrival under the calendar's next sequence number.
//! [`Reference`] captures a simulator's slab into that layout, follows
//! the same [`BarrierOp`]s, and checks that every row of the slab still
//! equals its node, field for field — pending-arrival keys included.

use ww_cache::{DenseFlowTable, MeterCell};
use ww_core::packet::{
    self, BarrierOp, ChildState, NodeRef, NodeSlab, PacketWorld, Set, StreamCell, TokenBucket,
};
use ww_core::world::UniverseGrowth;
use ww_model::{DocId, DocSet, ModelError, NodeId};
use ww_sim::{exp_delay, key_of, SimTime, StreamRng, NO_KEY};

/// EWMA factor of the packet engine's meters.
const ALPHA: f64 = 0.5;

/// Per-node protocol state, all per-document tables dense and owned.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    pub copies: DocSet,
    pub filter: DocSet,
    pub flows: DenseFlowTable,
    pub seen: DenseFlowTable,
    pub served: DenseFlowTable,
    pub alloc: Vec<TokenBucket>,
    pub alloc_set: DocSet,
    pub parent_est: Option<f64>,
    pub child_est: Vec<Option<f64>>,
    pub served_total: u64,
    pub underload_streak: usize,
    /// Each arrival stream with its pending arrival's `(time, seq)` key.
    pub arrivals: Vec<(StreamCell, u128)>,
    pub gossip_rng: StreamRng,
    pub next_request: u64,
}

fn table(world: &PacketWorld, rows: usize, at: f64) -> DenseFlowTable {
    DenseFlowTable::new_anchored(
        world.config.measure_window,
        ALPHA,
        rows,
        world.mix.table().len(),
        at,
    )
}

/// The state of a node created at `at`.
pub fn init_state_at(world: &PacketWorld, node: NodeId, at: f64) -> NodeState {
    let i = node.index();
    let children = world.tree.children(node).len();
    NodeState {
        copies: if node == world.tree.root() {
            world.mix.table().full_set()
        } else {
            world.mix.table().empty_set()
        },
        filter: world.mix.table().empty_set(),
        flows: table(world, children, at),
        seen: table(world, 1, at),
        served: table(world, 1, at),
        alloc: vec![TokenBucket::new(0.0, at); world.mix.table().len()],
        alloc_set: world.mix.table().empty_set(),
        parent_est: None,
        child_est: vec![None; children],
        served_total: 0,
        underload_streak: 0,
        // A joiner's streams start at the commit, like everyone's.
        arrivals: Vec::new(),
        gossip_rng: packet::gossip_stream_rng(world, i),
        next_request: 0,
    }
}

/// One slab row as an owning struct.
pub fn capture_node(world: &PacketWorld, row: NodeRef<'_>) -> NodeState {
    let set = |s: Set| {
        let mut members = world.mix.table().empty_set();
        for k in row.members(s) {
            members.insert(k);
        }
        members
    };
    let one_row = |cells: &[MeterCell]| {
        let mut t = table(world, 1, 0.0);
        t.row_mut(0).copy_from_slice(cells);
        t
    };
    let docs = 0..world.mix.table().len() as u32;
    NodeState {
        copies: set(Set::Copies),
        filter: set(Set::Filter),
        flows: densified_flows(world, row),
        seen: one_row(&densified(row, NodeRef::seen)),
        served: one_row(&densified(row, NodeRef::served)),
        // Only the live buckets are state; a dead one is rewritten
        // before it is read again.
        alloc: docs
            .map(|k| row.bucket(k).copied().unwrap_or(TokenBucket::new(0.0, 0.0)))
            .collect(),
        alloc_set: set(Set::Alloc),
        parent_est: row.head.parent_est,
        child_est: row
            .kids()
            .map_or_else(Vec::new, |k| (0..k.slots()).map(|s| k.est(s)).collect()),
        served_total: row.head.served_total,
        underload_streak: row.head.underload_streak,
        arrivals: row
            .streams
            .iter()
            .cloned()
            .zip(row.next.iter().copied())
            .collect(),
        gossip_rng: row.head.gossip_rng.clone(),
        next_request: row.head.next_request,
    }
}

/// Universe growth by construction: every per-document structure is
/// built anew at the grown size and the old cells copied over, each to
/// its own column.
pub fn grow_by_rebuilding(
    world: &PacketWorld,
    state: &mut NodeState,
    g: &UniverseGrowth,
    at: f64,
    is_root: bool,
) {
    let docs = g.end as usize;
    let widen = |set: &DocSet| {
        let mut grown = DocSet::new(docs);
        for idx in set.iter() {
            grown.insert(idx);
        }
        grown
    };
    state.copies = widen(&state.copies);
    state.filter = widen(&state.filter);
    state.alloc_set = widen(&state.alloc_set);
    if is_root {
        for k in g.clone() {
            state.copies.insert(k);
        }
    }
    let mut alloc = vec![TokenBucket::new(0.0, at); docs];
    for (k, &bucket) in state.alloc.iter().enumerate() {
        alloc[k] = bucket;
    }
    state.alloc = alloc;
    for t in [&mut state.flows, &mut state.seen, &mut state.served] {
        let mut grown = table(world, t.row_count(), at);
        for row in 0..t.row_count() {
            for (k, &cell) in t.row(row).iter().enumerate() {
                grown.row_mut(row)[k] = cell;
            }
        }
        *t = grown;
    }
}

/// Rebuilds a node's per-child-slot state from a slot mapping by
/// construction: `map[new_slot]` names the old slot the new slot keeps,
/// `None` starts fresh at `at`.
fn remap_children(world: &PacketWorld, state: &mut NodeState, map: &[Option<usize>], at: f64) {
    let mut flows = table(world, map.len(), at);
    for (new, &src) in map.iter().enumerate() {
        if let Some(old) = src {
            flows.row_mut(new).copy_from_slice(state.flows.row(old));
        }
    }
    state.flows = flows;
    state.child_est = map
        .iter()
        .map(|&src| src.and_then(|s| state.child_est[s]))
        .collect();
}

/// A simulator's node state in the per-node layout, with a world replica
/// to follow barrier operations on.
pub struct Reference {
    pub world: PacketWorld,
    pub nodes: Vec<NodeState>,
    /// An accepted op re-resolves the arrival streams at the commit.
    stale_arrivals: bool,
    /// The calendar's sequence counter, followed draw by draw.
    next_seq: u64,
}

impl Reference {
    /// Captures every row of `slab`, hosted over `world` with row = node
    /// id, beside a calendar whose next sequence number is `next_seq`.
    pub fn capture(world: &PacketWorld, slab: &NodeSlab, next_seq: u64) -> Self {
        assert_eq!(slab.len(), world.len());
        Reference {
            world: world.clone(),
            nodes: (0..slab.len())
                .map(|i| capture_node(world, slab.node(i)))
                .collect(),
            stale_arrivals: false,
            next_seq,
        }
    }

    /// Applies `op` at time `at` the way the per-node drivers did.
    pub fn apply(&mut self, op: &BarrierOp, at: f64) -> Result<(), ModelError> {
        match op {
            BarrierOp::AddLeaf { parent, rate } => {
                let id = self.world.join(*parent, *rate)?;
                let slots = self.world.tree.children(*parent).len();
                let mut map: Vec<Option<usize>> = (0..slots - 1).map(Some).collect();
                map.push(None);
                remap_children(&self.world, &mut self.nodes[parent.index()], &map, at);
                self.nodes.push(init_state_at(&self.world, id, at));
                // The joiner's two timers are armed on the spot.
                self.next_seq += 2;
            }
            BarrierOp::RemoveLeaf { node } => {
                let removal = self.world.leave(*node)?;
                self.nodes.swap_remove(removal.removed.index());
                for p in packet::parents_to_remap(&self.world.tree, &removal) {
                    let map = packet::child_slot_map(&self.world.tree, p, &removal);
                    remap_children(&self.world, &mut self.nodes[p.index()], &map, at);
                }
            }
            BarrierOp::PublishDoc { doc, origin, rate } => {
                let growth = self.world.publish(*doc, *origin, *rate)?;
                self.grow(growth, at);
            }
            BarrierOp::SetMix { mix } => {
                let growth = self.world.set_mix(mix)?;
                self.grow(growth, at);
            }
            BarrierOp::Invalidate { doc } => {
                self.invalidate(*doc)?;
                return Ok(());
            }
            // Link state is the world's, not a node's: the replica
            // refuses what the world refuses (the root, an unknown id).
            BarrierOp::FailLink { node } => return self.world.set_link(*node, true).map(drop),
            BarrierOp::HealLink { node } => return self.world.set_link(*node, false).map(drop),
        }
        self.stale_arrivals = true;
        Ok(())
    }

    fn grow(&mut self, growth: Option<UniverseGrowth>, at: f64) {
        if let Some(g) = growth {
            let root = self.world.tree.root().index();
            for (i, state) in self.nodes.iter_mut().enumerate() {
                grow_by_rebuilding(&self.world, state, &g, at, i == root);
            }
        }
    }

    fn invalidate(&mut self, doc: DocId) -> Result<(), ModelError> {
        let Some(k) = self.world.mix.table().index_of(doc) else {
            return Err(ModelError::UnknownDocument { doc: doc.value() });
        };
        let root = self.world.tree.root().index();
        for (i, state) in self.nodes.iter_mut().enumerate() {
            if i != root && state.copies.remove(k) {
                state.filter.remove(k);
                state.alloc_set.remove(k);
                state.alloc[k as usize].rate = 0.0;
                // One cell of a one-row table is its whole column.
                state.served.row_mut(0)[k as usize].reset();
            }
        }
        Ok(())
    }

    /// The batch commit at time `at`: every stream restarts from a
    /// fresh fork and draws its first gap; node by node and stream by
    /// stream, each positive-rate stream's first arrival takes the next
    /// sequence number.
    pub fn commit(&mut self, at: f64) {
        if !std::mem::take(&mut self.stale_arrivals) {
            return;
        }
        let at = SimTime::from_secs(at);
        for (i, state) in self.nodes.iter_mut().enumerate() {
            state.arrivals = self
                .world
                .streams_of(NodeId::new(i))
                .map(|(doc, _, rate)| {
                    let mut rng = packet::arrival_stream_rng(&self.world, i, doc).into_stream();
                    let mut key = NO_KEY;
                    if rate > 0.0 {
                        let gap = exp_delay(&mut rng, 1.0 / rate);
                        key = key_of(at + SimTime::from_secs(gap), self.next_seq);
                        self.next_seq += 1;
                    }
                    (StreamCell { rng }, key)
                })
                .collect();
        }
    }

    /// Every row of `slab` equals its node, field for field.
    pub fn assert_matches(&self, slab: &NodeSlab) {
        assert_eq!(slab.len(), self.nodes.len(), "row count");
        for (i, expect) in self.nodes.iter().enumerate() {
            assert_node_eq(expect, slab.node(i), i);
        }
    }
}

/// One meter of every document of `row`, read through `meter` —
/// [`NodeRef::seen`] or [`NodeRef::served`]: held or not.
pub fn densified<'a>(
    row: NodeRef<'a>,
    meter: impl Fn(&NodeRef<'a>, u32) -> MeterCell,
) -> Vec<MeterCell> {
    (0..row.docs() as u32).map(|k| meter(&row, k)).collect()
}

/// The `flows` meters of every child slot and document of `row`, held
/// or not, as a dense table (no rows for a leaf).
pub fn densified_flows(world: &PacketWorld, row: NodeRef<'_>) -> DenseFlowTable {
    let slots = row.kids().map_or(0, ChildState::slots);
    let mut flows = table(world, slots, 0.0);
    for slot in 0..slots {
        flows.row_mut(slot).copy_from_slice(&flow_row(row, slot));
    }
    flows
}

/// The `flows` meters of child slot `slot` of `row`, held or not.
fn flow_row(row: NodeRef<'_>, slot: usize) -> Vec<MeterCell> {
    (0..row.docs() as u32).map(|k| row.flow(slot, k)).collect()
}

/// `row` holds exactly `expect`: meter cells including window starts
/// (every `seen`, `flows` and served meter, the ones the row does not
/// hold densified), the bucket
/// `rate / tokens / last` of every live allocation, bitset members, RNG
/// states, stream cells with their pending-arrival keys, and — for an
/// interior node — child rows and estimates.
pub fn assert_node_eq(expect: &NodeState, row: NodeRef<'_>, i: usize) {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    for (set, members) in [
        (Set::Copies, &expect.copies),
        (Set::Filter, &expect.filter),
        (Set::Alloc, &expect.alloc_set),
    ] {
        assert!(members.iter().eq(row.members(set)), "node {i}: {set:?}");
    }
    assert_eq!(
        expect.seen.row(0),
        &densified(row, NodeRef::seen)[..],
        "node {i}: seen"
    );
    assert_eq!(
        expect.served.row(0),
        &densified(row, NodeRef::served)[..],
        "node {i}: served"
    );
    for k in expect.alloc_set.iter() {
        assert_eq!(
            Some(&expect.alloc[k as usize]),
            row.bucket(k),
            "node {i}: bucket {k}"
        );
    }
    assert_eq!(
        bits(expect.parent_est),
        bits(row.head.parent_est),
        "node {i}: parent_est"
    );
    assert_eq!(expect.served_total, row.head.served_total, "node {i}");
    assert_eq!(
        expect.underload_streak, row.head.underload_streak,
        "node {i}"
    );
    assert_eq!(expect.next_request, row.head.next_request, "node {i}");
    assert_eq!(
        expect.gossip_rng, row.head.gossip_rng,
        "node {i}: gossip rng"
    );
    let (streams, next): (Vec<_>, Vec<_>) = expect.arrivals.iter().cloned().unzip();
    assert_eq!(&streams[..], row.streams, "node {i}: arrival streams");
    assert_eq!(&next[..], row.next, "node {i}: pending arrivals");
    match row.kids() {
        None => {
            assert_eq!(expect.flows.row_count(), 0, "node {i}: a leaf has no flows");
            assert!(
                expect.child_est.is_empty(),
                "node {i}: a leaf has no estimates"
            );
        }
        Some(kids) => {
            assert_eq!(expect.flows.row_count(), kids.slots(), "node {i}");
            for slot in 0..kids.slots() {
                assert_eq!(
                    expect.flows.row(slot),
                    &flow_row(row, slot)[..],
                    "node {i}: flows of slot {slot}"
                );
            }
            let est: Vec<_> = (0..kids.slots()).map(|s| bits(kids.est(s))).collect();
            let expect_est: Vec<_> = expect.child_est.iter().map(|&x| bits(x)).collect();
            assert_eq!(expect_est, est, "node {i}: child_est");
        }
    }
}
