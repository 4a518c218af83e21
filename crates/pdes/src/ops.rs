//! Shard migration: the one barrier-time operation that by design
//! moves state *between* shards.
//!
//! Every other barrier mutation — churn, publish, shift, link failure —
//! touches each node on its own shard only and lives with the shard
//! driver (`ww_core::packet::driver::SimCore`), written once over "the
//! shards this participant holds". [`apply_rebalance`] needs both ends
//! of every migration held (or neither), so it runs only in-process or
//! on a pure replica — never on a single-shard distributed worker.

use crate::rebalance::RebalancePlan;
use ww_core::packet::driver::{held_mut, schedule_head, ShardCore, SimCore};
use ww_core::packet::{NodeSlab, PacketEvent};
use ww_sim::{key_of, time_of, SimQueue, SimTime, TimerRing, NO_KEY};

/// A migrant's pending work, keyed for deterministic re-insertion.
enum Pending {
    Event(PacketEvent),
    /// The pending arrival of this stream of the migrant's row.
    Arrival(u32),
    Gossip(SimTime),
    Diffusion(SimTime),
}

/// Fills `carried` with everything pending for the migrant at row `li`
/// of `shard`, in the `(time, key)` order its donor would have delivered
/// it: its queue events, the arrivals its row holds, its two timer
/// fires.
fn carry(
    carried: &mut Vec<(SimTime, u64, Pending)>,
    shard: &ShardCore,
    li: usize,
    backlog: Backlog,
    [(gossip_at, gossip_key), (diffusion_at, diffusion_key)]: [(SimTime, u64); 2],
) {
    let events = backlog.into_iter();
    carried.extend(events.map(|(t, key, ev)| (t, key, Pending::Event(ev))));
    let arrivals = shard.nodes.node(li).next.iter().enumerate();
    carried.extend(
        arrivals
            .filter(|&(_, &key)| key != NO_KEY)
            .map(|(stream, &key)| (time_of(key), key as u64, Pending::Arrival(stream as u32))),
    );
    carried.push((gossip_at, gossip_key, Pending::Gossip(gossip_at)));
    carried.push((
        diffusion_at,
        diffusion_key,
        Pending::Diffusion(diffusion_at),
    ));
    carried.sort_unstable_by_key(|&(at, key, _)| (at, key));
}

/// A migrant's queue events, in the donor's delivery order.
type Backlog = Vec<(SimTime, u64, PacketEvent)>;

/// Pulls every migrant's pending events out of its donor's queue: one
/// extraction sweep per donor shard, not per migrant (`extract_events`
/// rebuilds the whole queue, so per-move extraction would cost
/// `O(moves x queue)` on a large plan). A migrant's arrival head is
/// swept out and discarded — derived state: its pending arrivals travel
/// in its row, and the recipient re-heads it. The barrier guarantees
/// every in-flight event for a migrant already sits in its donor's
/// queue, so sweeping before any move is complete. `move_of` maps a node to its
/// index in `plan.moves` (`u32::MAX`: stays); the result has one
/// backlog per move.
fn extract_backlogs(
    shards: &mut [ShardCore],
    plan: &RebalancePlan,
    move_of: &[u32],
) -> Vec<Backlog> {
    let mut backlogs: Vec<Backlog> = Vec::new();
    backlogs.resize_with(plan.moves.len(), Vec::new);
    let mut donors: Vec<usize> = plan.moves.iter().map(|m| m.from).collect();
    donors.sort_unstable();
    donors.dedup();
    for &from in &donors {
        if let Some(shard) = held_mut(shards, from) {
            for (t, key, ev) in shard
                .queue
                .extract_events(|ev| move_of[ev.node().index()] != u32::MAX)
            {
                let b = move_of[ev.node().index()] as usize;
                debug_assert_eq!(plan.moves[b].from, from, "event outside its owner's queue");
                if !matches!(ev, PacketEvent::Arrival { .. }) {
                    backlogs[b].push((t, key, ev));
                }
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
/// node's state — its row, pending arrivals included — pending queue
/// events, and pending timer fires move from its donor shard to its
/// recipient shard. Returns how many pending items were re-homed: queue
/// events plus the arrivals the rows carried (heads, which are derived,
/// excluded).
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
///    stable pass per slab; then one [`Partition::move_nodes`](crate::Partition::move_nodes) for the
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
///    one's items — queue events, the pending arrivals read off its
///    row, two timer fires — in the `(time, key)` order the donor would
///    have delivered them, drawing fresh sequence numbers from the
///    recipient's counter — `schedule` for an event, `alloc_seq` for an
///    arrival (its re-keyed entry written back to the row) or a timer
///    fire — so every shard's counter ends where one-at-a-time moves
///    would have left it; then the row's head goes into the recipient's
///    queue. The fires are only collected here; one
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
    shards: &mut [ShardCore],
    plan: &RebalancePlan,
) -> u64 {
    assert!(
        !core.world.batch_open(),
        "cannot rebalance inside an open barrier batch"
    );
    const CO_HOSTED: &str = "migration donor and recipient must be co-hosted (or neither)";
    let moves = &plan.moves;
    let shard_count = core.partition.shards();
    let move_of = move_index(core, plan);
    let mut backlogs = extract_backlogs(shards, plan, &move_of);
    let mut events_moved = 0;

    // Phase 1: at a barrier every member's timers are armed (handlers
    // rearm immediately after each pop).
    let mut leaving: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    let mut fires: Vec<Option<[(SimTime, u64); 2]>> = Vec::with_capacity(moves.len());
    for m in moves {
        let li = core.partition.local_index[m.node.index()] as usize;
        leaving[m.from].push(li);
        fires.push(held_mut(shards, m.from).map(|shard| {
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
    detached.resize_with(shard_count, || None);
    for (s, gone) in leaving.iter().enumerate() {
        if gone.is_empty() {
            continue;
        }
        let Some(shard) = held_mut(shards, s) else {
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
    let mut gossip_in: Vec<Vec<(usize, SimTime, u64)>> = vec![Vec::new(); shard_count];
    let mut diffusion_in: Vec<Vec<(usize, SimTime, u64)>> = vec![Vec::new(); shard_count];
    let mut carried: Vec<(SimTime, u64, Pending)> = Vec::new();
    let mut next_row = vec![0usize; shard_count];
    for (i, m) in moves.iter().enumerate() {
        let li = core.partition.local_index[m.node.index()] as usize;
        let Some(shard) = held_mut(shards, m.to) else {
            assert!(detached[m.from].is_none(), "{CO_HOSTED}");
            continue;
        };
        let fires = fires[i].expect(CO_HOSTED);
        debug_assert_eq!(li, shard.nodes.len());
        let from = detached[m.from].as_mut().expect(CO_HOSTED);
        shard.nodes.push_row_from(from, next_row[m.from]);
        next_row[m.from] += 1;
        shard.window_events.push(0);
        assert_eq!(shard.gossip_ring.add_member(), li);
        assert_eq!(shard.diffusion_ring.add_member(), li);
        // Taking the backlog frees it move by move.
        carry(
            &mut carried,
            shard,
            li,
            std::mem::take(&mut backlogs[i]),
            fires,
        );
        // Everything carried but the two fires was a pending event.
        events_moved += carried.len() as u64 - 2;
        for (t, _key, item) in carried.drain(..) {
            match item {
                Pending::Event(ev) => shard.queue.schedule(t, ev),
                Pending::Arrival(stream) => {
                    let key = key_of(t, shard.queue.alloc_seq());
                    shard.nodes.set_arrival_key(li, stream, key);
                }
                Pending::Gossip(fire) => {
                    gossip_in[m.to].push((li, fire, shard.queue.alloc_seq()));
                }
                Pending::Diffusion(fire) => {
                    diffusion_in[m.to].push((li, fire, shard.queue.alloc_seq()));
                }
            }
        }
        schedule_head(&mut shard.queue, m.node, shard.nodes.front(li));
    }
    for (s, (gossip, diffusion)) in gossip_in.iter_mut().zip(&mut diffusion_in).enumerate() {
        if gossip.is_empty() {
            continue;
        }
        let shard = held_mut(shards, s).expect("fires were drawn on this shard");
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
    shards: &mut [ShardCore],
    plan: &RebalancePlan,
) {
    assert!(!core.world.batch_open());
    let move_of = move_index(core, plan);
    let mut backlogs = extract_backlogs(shards, plan, &move_of);
    for (i, m) in plan.moves.iter().enumerate() {
        let node = m.node.index();
        assert_eq!(core.partition.shard_of[node], m.from, "stale plan");
        let old_li = core.partition.local_index[node] as usize;
        let shard = held_mut(shards, m.from).expect("reference holds every shard");
        let fires = [
            shard.gossip_ring.fire_entry(old_li).expect("armed"),
            shard.diffusion_ring.fire_entry(old_li).expect("armed"),
        ];
        let mut carried = Vec::new();
        carry(
            &mut carried,
            shard,
            old_li,
            std::mem::take(&mut backlogs[i]),
            fires,
        );
        // An empty slab over the same universe, to carry the one row.
        let mut moved = shard.nodes.take_rows(&[]);
        moved.push_row_from(&mut shard.nodes, old_li);
        shard.nodes.swap_remove_node(old_li);
        shard.gossip_ring.swap_remove_member(old_li);
        shard.diffusion_ring.swap_remove_member(old_li);
        shard.window_events.swap_remove(old_li);
        let (from, li, new_li) = crate::partition::move_node(&mut core.partition, node, m.to);
        assert_eq!((from, li), (m.from, old_li));
        let shard = held_mut(shards, m.to).expect("reference holds every shard");
        assert_eq!(new_li, shard.nodes.len());
        shard.nodes.push_row_from(&mut moved, 0);
        assert_eq!(shard.gossip_ring.add_member(), new_li);
        assert_eq!(shard.diffusion_ring.add_member(), new_li);
        shard.window_events.push(0);
        for (t, _key, item) in carried {
            match item {
                Pending::Event(ev) => shard.queue.schedule(t, ev),
                Pending::Arrival(stream) => {
                    let key = key_of(t, shard.queue.alloc_seq());
                    shard.nodes.set_arrival_key(new_li, stream, key);
                }
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
        schedule_head(&mut shard.queue, m.node, shard.nodes.front(new_li));
    }
}
