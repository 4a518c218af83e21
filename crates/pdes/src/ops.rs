//! Barrier-time operations over a partitioned packet world, generic in
//! **which shards the caller actually holds**.
//!
//! The in-process simulator owns every shard; a distributed worker owns
//! exactly one; the distributed coordinator owns none (it keeps a world
//! replica purely to mirror barrier mutations and serve metadata). All
//! three must apply the *same* barrier mutation — churn, publish, shift,
//! link failure — and end with bit-identical state for the shards they
//! do hold. That works because every per-node step of every operation
//! touches only that node's own shard: skipping nodes whose shard the
//! caller does not hold cannot perturb the shards it does. The shared
//! bookkeeping (world, partition, failed-up map) is replicated
//! everywhere and mutated identically — it is a pure function of the
//! operation's arguments.
//!
//! The one exception is [`apply_rebalance`], which by design moves
//! state *between* shards: it requires both ends of every migration to
//! be held (or neither), so it runs only in-process or on a pure
//! replica — never on a single-shard distributed worker.
//!
//! [`SimCore`] carries that replicated bookkeeping; [`ShardStore`]
//! abstracts shard ownership.

use crate::engine::Shard;
use crate::partition::Partition;
use crate::rebalance::RebalancePlan;
use ww_core::packet::{
    self, BarrierOp, BarrierOutcome, NodeSlab, PacketEvent, PacketWorld, SurgeryStep,
    UniverseGrowth,
};
use ww_model::{DocId, LeafRemoval, ModelError, NodeId};
use ww_net::TrafficClass;
use ww_sim::{SimQueue, SimTime, TimerRing};

/// The replicated, shard-independent half of a partitioned simulation:
/// the shared world, the node→shard partition, the failed-link map, and
/// the barrier horizon. Identical on every participant of a run.
#[derive(Debug)]
pub(crate) struct SimCore {
    pub(crate) world: PacketWorld,
    pub(crate) partition: Partition,
    pub(crate) failed_up: Vec<bool>,
    /// Simulated time the run has reached (last barrier).
    pub(crate) horizon: SimTime,
    /// Whether a barrier batch is open. Replicated state like the rest
    /// of the core — every participant of a distributed run opens and
    /// commits the same batch.
    pub(crate) batch_open: bool,
    /// Queue-surgery steps the open batch has accumulated.
    pub(crate) batch: Vec<SurgeryStep>,
}

impl SimCore {
    /// The core of a fresh run over `world` split by `partition`.
    pub(crate) fn new(world: PacketWorld, partition: Partition) -> Self {
        SimCore {
            failed_up: vec![false; world.len()],
            world,
            partition,
            horizon: SimTime::ZERO,
            batch_open: false,
            batch: Vec::new(),
        }
    }
}

/// Shard ownership: which of the partition's shards this participant
/// holds in memory. Operations skip nodes of shards `shard_mut` returns
/// `None` for.
pub(crate) trait ShardStore {
    /// The shard with id `id`, if held.
    fn shard_mut(&mut self, id: usize) -> Option<&mut Shard>;

    /// Visits every held shard.
    fn for_each(&mut self, f: &mut dyn FnMut(&mut Shard));
}

/// A store holding at most one shard — a distributed worker (exactly
/// one) or the coordinator's replica (none).
#[derive(Debug)]
pub(crate) struct SingleStore {
    pub(crate) id: usize,
    pub(crate) shard: Option<Shard>,
}

impl ShardStore for SingleStore {
    fn shard_mut(&mut self, id: usize) -> Option<&mut Shard> {
        match &mut self.shard {
            Some(shard) if id == self.id => Some(shard),
            _ => None,
        }
    }

    fn for_each(&mut self, f: &mut dyn FnMut(&mut Shard)) {
        if let Some(shard) = &mut self.shard {
            f(shard);
        }
    }
}

/// The shard hosting node `j` and the node's row there, when held.
fn row_of<'a>(
    core: &SimCore,
    store: &'a mut impl ShardStore,
    j: usize,
) -> Option<(&'a mut Shard, usize)> {
    let s = core.partition.shard_of[j];
    let li = core.partition.local_index[j] as usize;
    store.shard_mut(s).map(|shard| (shard, li))
}

/// Invalidates every cached copy of `doc` outside the home server (one
/// charged invalidation message per revoked copy).
fn invalidate(
    core: &mut SimCore,
    store: &mut impl ShardStore,
    doc: DocId,
) -> Result<(), ModelError> {
    let Some(k) = core.world.table.index_of(doc) else {
        return Err(ModelError::UnknownDocument { doc: doc.value() });
    };
    let root = core.world.tree.root();
    for j in 0..core.world.len() {
        let node = NodeId::new(j);
        if node == root {
            continue;
        }
        let Some((shard, li)) = row_of(core, store, j) else {
            continue;
        };
        if shard.nodes.invalidate_row(li, k) {
            shard
                .ledger
                .record(TrafficClass::Gossip, 64, core.world.tree.depth(node) as u32);
        }
    }
    Ok(())
}

/// A cache server joins as a new leaf under `parent` at the current
/// barrier. The newcomer is hosted by its parent's shard.
fn add_leaf(
    core: &mut SimCore,
    store: &mut impl ShardStore,
    parent: NodeId,
    rate: f64,
) -> Result<NodeId, ModelError> {
    let at = core.horizon;
    let id = core.world.join(parent, rate)?;
    let i = id.index();
    let ps = core.partition.shard_of[parent.index()];
    let pli = core.partition.local_index[parent.index()] as usize;
    let li = core.partition.add_node(ps);
    if let Some(shard) = store.shard_mut(ps) {
        debug_assert_eq!(li, shard.nodes.len());
        shard.nodes.push_child(pli, at.as_secs());
        shard.nodes.push_node(&core.world, id, at.as_secs());
        shard.window_events.push(0);
    }
    core.failed_up.push(false);
    core.batch.push(SurgeryStep::Rebuild(None));
    if let Some(shard) = store.shard_mut(ps) {
        assert_eq!(shard.gossip_ring.add_member(), li);
        assert_eq!(shard.diffusion_ring.add_member(), li);
        let gossip_seq = shard.queue.alloc_seq();
        shard
            .gossip_ring
            .insert(li, at + core.world.gossip_phase(i), gossip_seq);
        let diffusion_seq = shard.queue.alloc_seq();
        shard
            .diffusion_ring
            .insert(li, at + core.world.diffusion_phase(i), diffusion_seq);
    }
    Ok(id)
}

/// A leaf cache server departs at the current barrier. Ids compact by
/// swap-remove; the renumbered former-last node stays on its own shard,
/// so the compaction is a pure bookkeeping move — no node state crosses
/// a shard boundary.
fn remove_leaf(
    core: &mut SimCore,
    store: &mut impl ShardStore,
    node: NodeId,
) -> Result<LeafRemoval, ModelError> {
    let at = core.horizon;
    let removal = core.world.leave(node)?;
    let r = removal.removed.index();
    let (s, li) = core.partition.swap_remove_node(r);
    if let Some(shard) = store.shard_mut(s) {
        shard.nodes.swap_remove_node(li);
        shard.gossip_ring.swap_remove_member(li);
        shard.diffusion_ring.swap_remove_member(li);
        shard.window_events.swap_remove(li);
    }
    core.failed_up.swap_remove(r);
    core.batch.push(SurgeryStep::Leave {
        removed: removal.removed,
        moved: removal.moved,
    });
    for p in packet::parents_to_remap(&core.world.tree, &removal) {
        let map = packet::child_slot_map(&core.world.tree, p, &removal);
        if let Some((shard, li)) = row_of(core, store, p.index()) {
            shard.nodes.remap_children(li, &map, at.as_secs());
        }
    }
    Ok(removal)
}

/// Applies a universe growth to every held node's per-document state
/// (the home server also receives the only copy of each new document) —
/// the shared tail of every demand-changing barrier operation (publish,
/// mix replacement).
fn apply_growth(core: &mut SimCore, store: &mut impl ShardStore, growth: Option<UniverseGrowth>) {
    let at = core.horizon.as_secs();
    if let Some(g) = &growth {
        let root = core.world.tree.root().index();
        let (home_shard, home) = (
            core.partition.shard_of[root],
            core.partition.local_index[root] as usize,
        );
        store.for_each(&mut |shard| {
            let home = (shard.id == home_shard).then_some(home);
            shard.nodes.grow(g, at, home);
        });
    }
    core.batch.push(SurgeryStep::Rebuild(growth));
}

/// A migrant's pending work, keyed for deterministic re-insertion.
enum Pending {
    Event(PacketEvent),
    Gossip(SimTime),
    Diffusion(SimTime),
}

/// A migrant's queue events, in the donor's delivery order.
type Backlog = Vec<(SimTime, u64, PacketEvent)>;

/// Pulls every migrant's pending events out of its donor's queue: one
/// extraction sweep per donor shard, not per migrant (`extract_events`
/// rebuilds the whole queue, so per-move extraction would cost
/// `O(moves x queue)` on a large plan). The barrier guarantees every
/// in-flight event for a migrant already sits in its donor's queue, so
/// sweeping before any move is complete. `move_of` maps a node to its
/// index in `plan.moves` (`u32::MAX`: stays); the result has one
/// backlog per move.
fn extract_backlogs(
    store: &mut impl ShardStore,
    plan: &RebalancePlan,
    move_of: &[u32],
) -> Vec<Backlog> {
    let mut backlogs: Vec<Backlog> = Vec::new();
    backlogs.resize_with(plan.moves.len(), Vec::new);
    let mut donors: Vec<usize> = plan.moves.iter().map(|m| m.from).collect();
    donors.sort_unstable();
    donors.dedup();
    for &from in &donors {
        if let Some(shard) = store.shard_mut(from) {
            for (t, key, ev) in shard
                .queue
                .extract_events(|ev| move_of[ev.node().index()] != u32::MAX)
            {
                let b = move_of[ev.node().index()] as usize;
                debug_assert_eq!(plan.moves[b].from, from, "event outside its owner's queue");
                backlogs[b].push((t, key, ev));
            }
        }
    }
    backlogs
}

/// Node id -> index in `plan.moves`, `u32::MAX` for nodes that stay.
fn move_index(core: &SimCore, plan: &RebalancePlan) -> Vec<u32> {
    let mut move_of = vec![u32::MAX; core.partition.shard_of.len()];
    for (i, m) in plan.moves.iter().enumerate() {
        move_of[m.node.index()] = i as u32;
    }
    move_of
}

/// Applies a rebalance plan at the current barrier: each migrating
/// node's state, pending queue events, and pending timer fires move
/// from its donor shard to its recipient shard. Returns how many queue
/// events were re-homed.
///
/// The cost is what the plan moves, not `moves x members`: after one
/// extraction sweep per donor queue it runs in three bulk phases.
///
/// 1. **Read.** Every migrant's two armed timer fires, by its
///    donor-local index, before any ring is edited.
/// 2. **Compact each donor once.** One `remove_members` pass per ring,
///    the matching stable compaction of `window_events`, and one
///    [`NodeSlab::take_rows`]: the migrants' rows leave for a detached
///    slab in plan order and the survivors' rows close the gaps in one
///    stable pass per slab; then one [`Partition::move_nodes`] for the
///    whole plan. Survivors keep their relative order; which local
///    index a node ends up with is unobservable — trace partials fold
///    through an exact sum, reports and arrival rebuilds walk global
///    ids, the ring rotation is keyed by `(next, seq)` — as long as
///    `members[s][li]`, row `li` of `nodes`, ring member `li` and
///    `window_events[li]` keep naming the same node.
/// 3. **Append to each recipient, merge its rings once.** Migrants are
///    replayed one at a time in plan order (ascending node id) — each
///    one's row appended to the recipient's slab
///    ([`NodeSlab::push_row_from`]: rows move, not structs), each
///    one's items in the `(time, key)` order the donor would have
///    delivered them, drawing fresh sequence numbers from the
///    recipient's counter — `schedule` for an event, `alloc_seq` for a
///    timer fire — so every shard's counter ends where one-at-a-time
///    moves would have left it. The fires are only collected here; one
///    `insert_many` per ring per recipient then merges them into the
///    rotation, which is sorted by `(next, seq)` and therefore the same
///    whichever way it was built.
///
/// Correctness rests on the barrier guarantees: wires are drained and
/// merge stages empty, so *every* in-flight event targeting a node
/// lives in its current owner's queue — extraction is complete. All of
/// a migrant's keys came from one merge domain (the donor's counter
/// plus content-derived inbound keys), so they are unique and
/// `(time, key)` is the donor's delivery order; per-node relative order
/// (the only order the node-local protocol can observe) is therefore
/// preserved bit-for-bit.
///
/// Unlike churn ops, migration is all-or-nothing per move: the caller
/// must hold **both** the donor and the recipient shard, or neither
/// (a replica mirroring bookkeeping). Holding exactly one is a logic
/// error — the distributed runtime rejects the rebalance knob up
/// front, so its single-shard workers never reach this path.
///
/// # Panics
///
/// Panics if a barrier batch is open, or if exactly one side of a
/// migration is held.
pub(crate) fn apply_rebalance(
    core: &mut SimCore,
    store: &mut impl ShardStore,
    plan: &RebalancePlan,
) -> u64 {
    assert!(
        !core.batch_open,
        "cannot rebalance inside an open barrier batch"
    );
    const CO_HOSTED: &str = "migration donor and recipient must be co-hosted (or neither)";
    let moves = &plan.moves;
    let shards = core.partition.shards();
    let move_of = move_index(core, plan);
    let mut backlogs = extract_backlogs(store, plan, &move_of);
    let events_moved = backlogs.iter().map(|b| b.len() as u64).sum();

    // Phase 1: at a barrier every member's timers are armed (handlers
    // rearm immediately after each pop).
    let mut leaving: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut fires: Vec<Option<[(SimTime, u64); 2]>> = Vec::with_capacity(moves.len());
    for m in moves {
        let li = core.partition.local_index[m.node.index()] as usize;
        leaving[m.from].push(li);
        fires.push(store.shard_mut(m.from).map(|shard| {
            [
                shard
                    .gossip_ring
                    .fire_entry(li)
                    .expect("gossip timer armed at the barrier"),
                shard
                    .diffusion_ring
                    .fire_entry(li)
                    .expect("diffusion timer armed at the barrier"),
            ]
        }));
    }

    // Phase 2. `gone` lists a donor's migrants in plan order, so its
    // detached slab holds them in the order phase 3 asks for them.
    let mut detached: Vec<Option<NodeSlab>> = Vec::new();
    detached.resize_with(shards, || None);
    for (s, gone) in leaving.iter().enumerate() {
        if gone.is_empty() {
            continue;
        }
        let Some(shard) = store.shard_mut(s) else {
            continue;
        };
        let new_id = shard.gossip_ring.remove_members(gone);
        let same = shard.diffusion_ring.remove_members(gone);
        debug_assert_eq!(new_id, same, "the two rings compact alike");
        let mut li = 0;
        shard.window_events.retain(|_| {
            li += 1;
            new_id[li - 1] != TimerRing::REMOVED
        });
        detached[s] = Some(shard.nodes.take_rows(gone));
    }
    core.partition.move_nodes(moves);

    // Phase 3.
    let mut gossip_in: Vec<Vec<(usize, SimTime, u64)>> = vec![Vec::new(); shards];
    let mut diffusion_in: Vec<Vec<(usize, SimTime, u64)>> = vec![Vec::new(); shards];
    let mut carried: Vec<(SimTime, u64, Pending)> = Vec::new();
    let mut next_row = vec![0usize; shards];
    for (i, m) in moves.iter().enumerate() {
        let li = core.partition.local_index[m.node.index()] as usize;
        let Some(shard) = store.shard_mut(m.to) else {
            assert!(detached[m.from].is_none(), "{CO_HOSTED}");
            continue;
        };
        let [(gossip_at, gossip_key), (diffusion_at, diffusion_key)] = fires[i].expect(CO_HOSTED);
        debug_assert_eq!(li, shard.nodes.len());
        let from = detached[m.from].as_mut().expect(CO_HOSTED);
        shard.nodes.push_row_from(from, next_row[m.from]);
        next_row[m.from] += 1;
        shard.window_events.push(0);
        assert_eq!(shard.gossip_ring.add_member(), li);
        assert_eq!(shard.diffusion_ring.add_member(), li);
        // Taking the backlog frees it move by move.
        carried.extend(
            std::mem::take(&mut backlogs[i])
                .into_iter()
                .map(|(t, key, ev)| (t, key, Pending::Event(ev))),
        );
        carried.push((gossip_at, gossip_key, Pending::Gossip(gossip_at)));
        carried.push((
            diffusion_at,
            diffusion_key,
            Pending::Diffusion(diffusion_at),
        ));
        carried.sort_unstable_by_key(|&(at, key, _)| (at, key));
        for (t, _key, item) in carried.drain(..) {
            match item {
                Pending::Event(ev) => shard.queue.schedule(t, ev),
                Pending::Gossip(fire) => {
                    gossip_in[m.to].push((li, fire, shard.queue.alloc_seq()));
                }
                Pending::Diffusion(fire) => {
                    diffusion_in[m.to].push((li, fire, shard.queue.alloc_seq()));
                }
            }
        }
    }
    for (s, (gossip, diffusion)) in gossip_in.iter_mut().zip(&mut diffusion_in).enumerate() {
        if gossip.is_empty() {
            continue;
        }
        let shard = store.shard_mut(s).expect("fires were drawn on this shard");
        shard.gossip_ring.insert_many(gossip);
        shard.diffusion_ring.insert_many(diffusion);
    }
    events_moved
}

/// [`apply_rebalance`] as it was before it became a bulk operation: one
/// swap-remove per ring, state vector and member list and one ring
/// `insert` per fire, *per move*. Kept as the reference the migration
/// property test compares the bulk form against.
#[cfg(test)]
pub(crate) fn apply_rebalance_per_move(
    core: &mut SimCore,
    store: &mut impl ShardStore,
    plan: &RebalancePlan,
) {
    assert!(!core.batch_open);
    let move_of = move_index(core, plan);
    let mut backlogs = extract_backlogs(store, plan, &move_of);
    for (i, m) in plan.moves.iter().enumerate() {
        let node = m.node.index();
        assert_eq!(core.partition.shard_of[node], m.from, "stale plan");
        let old_li = core.partition.local_index[node] as usize;
        let shard = store
            .shard_mut(m.from)
            .expect("reference holds every shard");
        let mut carried: Vec<(SimTime, u64, Pending)> = backlogs[i]
            .drain(..)
            .map(|(t, key, ev)| (t, key, Pending::Event(ev)))
            .collect();
        let (gt, gseq) = shard.gossip_ring.fire_entry(old_li).expect("armed");
        carried.push((gt, gseq, Pending::Gossip(gt)));
        let (dt, dseq) = shard.diffusion_ring.fire_entry(old_li).expect("armed");
        carried.push((dt, dseq, Pending::Diffusion(dt)));
        carried.sort_unstable_by_key(|&(at, key, _)| (at, key));
        // An empty slab over the same universe, to carry the one row.
        let mut moved = shard.nodes.take_rows(&[]);
        moved.push_row_from(&mut shard.nodes, old_li);
        shard.nodes.swap_remove_node(old_li);
        shard.gossip_ring.swap_remove_member(old_li);
        shard.diffusion_ring.swap_remove_member(old_li);
        shard.window_events.swap_remove(old_li);
        let (from, li, new_li) = core.partition.move_node(node, m.to);
        assert_eq!((from, li), (m.from, old_li));
        let shard = store.shard_mut(m.to).expect("reference holds every shard");
        assert_eq!(new_li, shard.nodes.len());
        shard.nodes.push_row_from(&mut moved, 0);
        assert_eq!(shard.gossip_ring.add_member(), new_li);
        assert_eq!(shard.diffusion_ring.add_member(), new_li);
        shard.window_events.push(0);
        for (t, _key, item) in carried {
            match item {
                Pending::Event(ev) => shard.queue.schedule(t, ev),
                Pending::Gossip(fire) => {
                    let seq = shard.queue.alloc_seq();
                    shard.gossip_ring.insert(new_li, fire, seq);
                }
                Pending::Diffusion(fire) => {
                    let seq = shard.queue.alloc_seq();
                    shard.diffusion_ring.insert(new_li, fire, seq);
                }
            }
        }
    }
}

/// Opens a barrier batch on this participant: until [`commit_batch`],
/// every [`apply_op`] applies its primary mutation eagerly and defers
/// the oracle refresh, queue surgery, and arrival re-resolution to one
/// shared pass at commit.
///
/// # Panics
///
/// Panics if a batch is already open.
pub(crate) fn begin_batch(core: &mut SimCore) {
    assert!(!core.batch_open, "a barrier batch is already open");
    core.world.begin_batch();
    core.batch_open = true;
}

/// Closes the batch: one deferred oracle refresh, one composed
/// queue-surgery sweep over every held shard, and fresh first arrivals
/// scheduled in global node order — so each node's events keep the
/// relative order they get in the sequential queue.
///
/// # Panics
///
/// Panics if no batch is open.
pub(crate) fn commit_batch(core: &mut SimCore, store: &mut impl ShardStore) {
    assert!(core.batch_open, "no open barrier batch");
    core.batch_open = false;
    core.world.end_batch();
    if core.batch.is_empty() {
        return;
    }
    let steps = std::mem::take(&mut core.batch);
    store.for_each(&mut |shard| {
        shard
            .queue
            .filter_map_events(|ev| packet::apply_surgery(ev, &steps));
    });
    let at = core.horizon;
    // A node has at most one stream per document of the universe.
    let mut outbox = Vec::with_capacity(core.world.table.len());
    store.for_each(&mut |shard| shard.nodes.clear_arrivals());
    for j in 0..core.world.len() {
        let s = core.partition.shard_of[j];
        let li = core.partition.local_index[j] as usize;
        let Some(shard) = store.shard_mut(s) else {
            continue;
        };
        shard
            .nodes
            .resolve_node_arrivals(&core.world, li, NodeId::new(j), at, &mut outbox);
        for (t, ev) in outbox.drain(..) {
            shard.queue.schedule(t, ev);
        }
    }
}

/// Applies one [`BarrierOp`] on this participant — into the open batch,
/// or as a batch of one. Every participant of a run applies the same
/// ops in the same order; a rejected op mutates nothing anywhere.
///
/// # Errors
///
/// The model's rejection of the op.
pub(crate) fn apply_op(
    core: &mut SimCore,
    store: &mut impl ShardStore,
    op: &BarrierOp,
) -> Result<BarrierOutcome, ModelError> {
    let lone = !core.batch_open;
    if lone {
        begin_batch(core);
    }
    let result = match op {
        BarrierOp::AddLeaf { parent, rate } => {
            add_leaf(core, store, *parent, *rate).map(BarrierOutcome::Added)
        }
        BarrierOp::RemoveLeaf { node } => {
            remove_leaf(core, store, *node).map(BarrierOutcome::Removed)
        }
        BarrierOp::PublishDoc { doc, origin, rate } => {
            core.world.publish(*doc, *origin, *rate).map(|growth| {
                apply_growth(core, store, growth);
                BarrierOutcome::Done
            })
        }
        BarrierOp::SetMix { mix } => core.world.set_mix(mix).map(|growth| {
            apply_growth(core, store, growth);
            BarrierOutcome::Done
        }),
        BarrierOp::FailLink { node } => {
            packet::set_link(&core.world.tree, &mut core.failed_up, *node, true)
                .map(BarrierOutcome::Toggled)
        }
        BarrierOp::HealLink { node } => {
            packet::set_link(&core.world.tree, &mut core.failed_up, *node, false)
                .map(BarrierOutcome::Toggled)
        }
        BarrierOp::Invalidate { doc } => {
            invalidate(core, store, *doc).map(|()| BarrierOutcome::Done)
        }
    };
    if lone {
        commit_batch(core, store);
    }
    result
}
