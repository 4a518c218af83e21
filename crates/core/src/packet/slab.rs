//! Node state as slabs: one structure-of-arrays owner per driver.
//!
//! "An implementation of WebWave needs to maintain a separate `A_j` for
//! each document it caches" (paper, Section 5, footnote 3): the
//! per-(node, document) meters, token buckets and filter bits *are* the
//! protocol's state. A [`NodeSlab`] holds them for every node one driver
//! hosts — the whole tree for the sequential `PacketSim`, a shard's
//! members for `ww-pdes` / `ww-dist` — with **row = local node index**:
//!
//! | slab | row holds | bytes per node |
//! | --- | --- | --- |
//! | `heads: Vec<NodeHead>` | the scalars, the gossip generator (a [`StreamRng`]), the three bitsets' words while the universe fits 64 documents, the child-state pointer | 104 |
//! | `seen`, `served`: [`DenseFlowTable`] | one three-word meter cell per document | 2 x 24 m |
//! | `buckets`: [`DocGrid`]`<TokenBucket>` | one token bucket per document | 24 m |
//! | `words`: [`DocGrid`]`<u64>` | the three bitsets beyond 64 documents, `3 x ceil(m / 64)` words | 0 or 24 ceil(m / 64) |
//! | `ranges: Vec<(u32, u32)>` | the `(start, len)` of the row's arrival streams in the two slabs below | 8 |
//! | `streams: Vec<StreamCell>` | one cell per arrival stream: its generator, its rate, its document's dense index | 48 per stream |
//! | `next: Vec<u128>` | each stream's **pending arrival**, as the calendar's packed `(time, seq)` key ([`NO_KEY`] for a zero-rate stream) | 16 per stream |
//!
//! A pending arrival lives nowhere else. The calendar holds one
//! [`PacketEvent::Arrival`] per row — the row's earliest stream, under
//! that stream's own key — so it is `O(nodes + messages in flight)`
//! whatever the number of streams; the driver re-heads a row when its
//! head fires ([`NodeSlab::set_arrival_key`], [`NodeSlab::front`]: a
//! scan of the row's 8–70 contiguous keys). Streams are a flat
//! `(start, len)`-addressed array rather than a [`DocGrid`] row because
//! demand is sparse (a `leaf_only` workload gives interior nodes none)
//! and a grid would spend 64 bytes x documents on every node without
//! streams. The ranges sit in a table of their own, not in the head, so
//! the lines an arrival and its leaf packet touch — key row, stream
//! cell, head, `seen` row — have addresses that wait on nothing but the
//! dense 8-byte table. A leaf fires about once per simulated second, so
//! those lines are cold; the driver prefetches them one arrival ahead
//! ([`NodeSlab::prefetch_arrival`]), and the misses run under the
//! events in between instead of stalling the loop.
//!
//! The streams themselves — `(document, dense index, rate)` — are
//! stored nowhere else either: [`DocWorld::streams_of`](crate::world::DocWorld::streams_of) derives them
//! from the world's mix where [`NodeSlab::resolve_node_arrivals`]
//! writes the cells.
//!
//! Only a node that has children owns anything else: a boxed
//! [`ChildState`] (its per-child-slot `flows` grid, 24 m + 16 bytes a
//! child, and child load estimates). A leaf owns no heap buffer at all,
//! so building a slab
//! allocates `O(slabs + interior nodes)` times and every per-document
//! address a handler needs is `node x docs + doc` on a slab whose
//! header is shared by all nodes and therefore hot.
//!
//! Barrier operations are row operations, shared by the three engines:
//! join = [`NodeSlab::push_node`], leave = [`NodeSlab::swap_remove_node`]
//! (the id compaction the tree already does), publish / `set_mix` =
//! [`NodeSlab::grow`] (one column shift per slab), `Invalidate` =
//! [`NodeSlab::invalidate_row`] down one column, shard migration =
//! [`NodeSlab::take_rows`] on the donor and [`NodeSlab::push_row_from`]
//! on the recipient.

use super::{stream_rng, PacketWorld, UniverseGrowth};
use ww_cache::{DenseFlowTable, MeterCell};
use ww_model::{reserve_slack, DocGrid, NodeId};
use ww_sim::{exp_delay, key_of, prefetch, SimTime, StreamRng, NO_KEY};

/// EWMA factor of every packet-level rate meter.
const METER_ALPHA: f64 = 0.5;

/// A token bucket shaping one document's serve rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    /// Serve allocation, req/s.
    pub rate: f64,
    /// Tokens in the bucket.
    pub tokens: f64,
    /// Instant of the last refill.
    pub last: f64,
}

impl TokenBucket {
    const BURST: f64 = 2.0;

    /// A bucket created at `now`, holding one token.
    pub fn new(rate: f64, now: f64) -> Self {
        TokenBucket {
            rate,
            tokens: 1.0,
            last: now,
        }
    }

    pub(super) fn try_take(&mut self, now: f64) -> bool {
        self.tokens = (self.tokens + self.rate * (now - self.last)).min(Self::BURST);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The three per-node document sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Set {
    /// Documents the node holds a copy of.
    Copies = 0,
    /// Documents the node's router filter intercepts.
    Filter = 1,
    /// Documents with a live token bucket.
    Alloc = 2,
}

/// Bitsets per node.
const SETS: usize = 3;

/// The child-side state of a node that has children: per-child-slot,
/// per-document forwarded-rate meters and the children's latest gossiped
/// loads. Leaves have none.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildState {
    /// Per-child-slot, per-doc forwarded-rate meters.
    pub flows: DenseFlowTable,
    /// Latest gossiped load estimates of children, by child slot.
    pub est: Vec<Option<f64>>,
}

/// One arrival stream of a node: its generator and the two constants a
/// fire needs, on one line. The document id is
/// `world.table.doc(index)`; the stream's pending arrival is its entry
/// in the slab's key row.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCell {
    /// Inter-arrival randomness, forked purely from
    /// `(master seed, node, doc, generation)` — independent of any
    /// global counter.
    pub rng: StreamRng,
    /// Constant arrival rate, req/s.
    pub rate: f64,
    /// Dense index of the stream's document.
    pub index: u32,
}

/// The fixed-size part of one node's protocol state.
#[derive(Debug, Clone)]
pub struct NodeHead {
    /// Latest gossiped load estimate of the parent.
    pub parent_est: Option<f64>,
    /// Total requests served (lifetime).
    pub served_total: u64,
    /// Consecutive underloaded periods without a successful takeover.
    pub underload_streak: usize,
    /// Node-local request counter (request ids are `(node, counter)`).
    pub next_request: u64,
    /// Gossip-loss randomness, forked purely from `(master seed, node)`
    /// — the generator alone: the head never forks it again.
    pub gossip_rng: StreamRng,
    /// The three bitsets' words while the universe fits one word each.
    sets: [u64; SETS],
    /// Per-child state; `None` for a leaf.
    kids: Option<Box<ChildState>>,
}

impl NodeHead {
    fn new(gossip_rng: StreamRng) -> Self {
        NodeHead {
            parent_est: None,
            served_total: 0,
            underload_streak: 0,
            next_request: 0,
            gossip_rng,
            sets: [0; SETS],
            kids: None,
        }
    }
}

/// The protocol state of every node one driver hosts, as slabs (see the
/// module docs). Row `i` is the driver's local node `i`.
#[derive(Debug)]
pub struct NodeSlab {
    heads: Vec<NodeHead>,
    /// Size of the document universe every per-document slab covers.
    docs: usize,
    /// Measurement window of every meter, seconds.
    window: f64,
    /// The three bitsets of every node beyond 64 documents, one row of
    /// `3 x set_words` words per node; no columns while the universe
    /// fits the heads' inline words.
    words: DocGrid<u64>,
    seen: DenseFlowTable,
    served: DenseFlowTable,
    buckets: DocGrid<TokenBucket>,
    /// `(start, len)` of each row's streams in `streams` and `next`.
    ranges: Vec<(u32, u32)>,
    streams: Vec<StreamCell>,
    /// Each stream's pending arrival as a packed `(time, seq)` key.
    next: Vec<u128>,
}

/// Words per bitset a universe of `docs` documents needs in the word
/// slab (`0`: the inline word of the head suffices).
fn set_words_for(docs: usize) -> usize {
    if docs <= 64 {
        0
    } else {
        docs.div_ceil(64)
    }
}

/// Moves a bitset's members to their columns in a grown universe.
/// Ascending mapping: moving members highest first never lands one on a
/// member still waiting to move.
fn shift_members(words: &mut [u64], old_to_new: &[u32]) {
    for (old, &new) in old_to_new.iter().enumerate().rev() {
        let (ow, ob) = (old / 64, 1u64 << (old % 64));
        if new as usize != old && words[ow] & ob != 0 {
            words[ow] &= !ob;
            words[new as usize / 64] |= 1u64 << (new % 64);
        }
    }
}

/// Drops the entries of `rows` whose row is marked in `gone`, keeping
/// the others in order, and hands the surplus capacity back.
fn retain_rows<T>(rows: &mut Vec<T>, gone: &[bool]) {
    let mut row = 0;
    rows.retain(|_| {
        row += 1;
        !gone[row - 1]
    });
    rows.shrink_to_fit();
}

/// The served rate of `row` over the rolling window ending at `now`.
#[inline]
fn load_of(served: &mut DenseFlowTable, row: usize, now: f64) -> f64 {
    served.roll_row_to(row, now);
    served.row_total(row)
}

/// Members of a bitset, ascending.
fn members(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        (0..64u32)
            .filter(move |b| w >> b & 1 == 1)
            .map(move |b| wi as u32 * 64 + b)
    })
}

impl NodeSlab {
    /// `rows` nodes over a universe of `docs` documents, heads and
    /// arrival streams still to be pushed.
    fn with_rows(window: f64, rows: usize, docs: usize) -> Self {
        NodeSlab {
            heads: Vec::with_capacity(rows),
            docs,
            window,
            words: DocGrid::new(rows, SETS * set_words_for(docs), 0),
            seen: DenseFlowTable::new(window, METER_ALPHA, rows, docs),
            served: DenseFlowTable::new(window, METER_ALPHA, rows, docs),
            buckets: DocGrid::new(rows, docs, TokenBucket::new(0.0, 0.0)),
            ranges: Vec::with_capacity(rows),
            streams: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The initial state of `members` (row `i` = `members[i]`) at time
    /// zero: the home server holds every document, every other node is
    /// cold. Arrival streams are resolved separately
    /// ([`NodeSlab::resolve_node_arrivals`]).
    pub fn new(world: &PacketWorld, members: &[NodeId]) -> Self {
        let mut slab = NodeSlab::with_rows(
            world.config.measure_window,
            members.len(),
            world.table.len(),
        );
        let streams = members.iter().map(|&u| world.streams_of(u).len()).sum();
        slab.streams.reserve_exact(streams);
        slab.next.reserve_exact(streams);
        for &node in members {
            slab.push_head(world, node, 0.0);
        }
        slab
    }

    /// Pushes the head of `node` (and, for an interior node, its child
    /// state), created at `at`. The caller has sized the other slabs to
    /// hold the row.
    fn push_head(&mut self, world: &PacketWorld, node: NodeId, at: f64) {
        let mut head = NodeHead::new(super::gossip_stream_rng(world, node.index()));
        let children = world.tree.children(node).len();
        if children > 0 {
            head.kids = Some(Box::new(ChildState {
                flows: DenseFlowTable::new_anchored(
                    self.window,
                    METER_ALPHA,
                    children,
                    self.docs,
                    at,
                ),
                est: vec![None; children],
            }));
        }
        reserve_slack(&mut self.heads, 1);
        self.heads.push(head);
        reserve_slack(&mut self.ranges, 1);
        self.ranges.push((0, 0));
        if node == world.tree.root() {
            let row = self.heads.len() - 1;
            let docs = self.docs as u32;
            let mut home = self.node_mut(row);
            for k in 0..docs {
                home.insert(Set::Copies, k);
            }
        }
    }

    /// Number of nodes (rows).
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// `true` for a slab without rows.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Capacity bytes of every slab plus the interior nodes' child
    /// state — what the node state costs in memory right now.
    pub fn state_bytes(&self) -> usize {
        let kids: usize = self
            .heads
            .iter()
            .filter_map(|h| h.kids.as_deref())
            .map(|k| {
                std::mem::size_of::<ChildState>()
                    + k.flows.capacity_bytes()
                    + k.est.capacity() * std::mem::size_of::<Option<f64>>()
            })
            .sum();
        self.heads.capacity() * std::mem::size_of::<NodeHead>()
            + self.words.capacity_bytes()
            + self.seen.capacity_bytes()
            + self.served.capacity_bytes()
            + self.buckets.capacity_bytes()
            + self.ranges.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.streams.capacity() * std::mem::size_of::<StreamCell>()
            + self.next.capacity() * std::mem::size_of::<u128>()
            + kids
    }

    /// The mutable row view of local node `row` that handlers run on.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn node_mut(&mut self, row: usize) -> NodeMut<'_> {
        NodeMut {
            head: &mut self.heads[row],
            row,
            docs: self.docs,
            words: self.words.row_mut(row),
            seen: &mut self.seen,
            served: &mut self.served,
            buckets: self.buckets.row_mut(row),
            ranges: &self.ranges,
            streams: &mut self.streams,
        }
    }

    /// The read-only row view of local node `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn node(&self, row: usize) -> NodeRef<'_> {
        let head = &self.heads[row];
        let streams = self.stream_range(row);
        NodeRef {
            head,
            docs: self.docs,
            words: if self.words.doc_count() == 0 {
                &head.sets[..]
            } else {
                self.words.row(row)
            },
            seen: self.seen.row(row),
            served: self.served.row(row),
            buckets: self.buckets.row(row),
            streams: &self.streams[streams.clone()],
            next: &self.next[streams],
        }
    }

    /// Where the streams of local node `row` sit in `streams` / `next`.
    #[inline]
    fn stream_range(&self, row: usize) -> std::ops::Range<usize> {
        let (start, len) = self.ranges[row];
        start as usize..(start + len) as usize
    }

    /// Prefetches what the arrival of `stream` at local node `row` and
    /// the leaf packet it issues will touch: the row's keys (re-heading
    /// scans them all), the stream's cell, the head (`next_request`,
    /// the bitsets the packet tests) and the `seen` row the packet
    /// records into. The driver calls it for the *next* arrival, so the
    /// misses overlap the events in between. A hint only — it changes
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `stream` is out of range.
    #[inline]
    pub fn prefetch_arrival(&self, row: usize, stream: u32) {
        let keys = self.stream_range(row);
        let cell = keys.start + stream as usize;
        prefetch(&self.next[keys]);
        prefetch(&self.streams[cell]);
        prefetch(&self.heads[row]);
        prefetch(self.seen.row(row));
    }

    /// Stores `key` as the pending arrival of `stream` at local node
    /// `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `stream` is out of range.
    #[inline]
    pub fn set_arrival_key(&mut self, row: usize, stream: u32, key: u128) {
        let streams = self.stream_range(row);
        self.next[streams][stream as usize] = key;
    }

    /// The front of local node `row`: its earliest pending arrival as
    /// `(key, stream)` — what the calendar holds for the row. `None`
    /// for a row without a positive-rate stream.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn front(&self, row: usize) -> Option<(u128, u32)> {
        let keys = &self.next[self.stream_range(row)];
        let (stream, &key) = keys.iter().enumerate().min_by_key(|&(_, &key)| key)?;
        (key != NO_KEY).then_some((key, stream as u32))
    }

    /// Lifetime served-request count of local node `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn served_total(&self, row: usize) -> u64 {
        self.heads[row].served_total
    }

    /// The measured load of local node `row`: rolls its serve meter to
    /// `now` and returns its total rate — the per-node quantity behind
    /// gossip, the convergence trace and the final report. Drivers must
    /// sample at the *same* instants (epoch boundaries, report time) for
    /// traces to match across drivers.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn measured_load(&mut self, row: usize, now: f64) -> f64 {
        load_of(&mut self.served, row, now)
    }

    /// A node joins as the slab's last row, cold, its meters anchored at
    /// `at`. Its stream range starts empty: the join's batch commit
    /// re-resolves every node's streams.
    pub fn push_node(&mut self, world: &PacketWorld, node: NodeId, at: f64) {
        self.words.push_row(0);
        self.seen.push_row(at);
        self.served.push_row(at);
        self.buckets.push_row(TokenBucket::new(0.0, at));
        self.push_head(world, node, at);
    }

    /// The node at `row` gained a child in its last slot (a joiner holds
    /// the highest id, so it sorts last and every existing slot keeps
    /// its history): one fresh `flows` row anchored at `at` and one
    /// empty estimate. A leaf's first child creates its child state.
    pub fn push_child(&mut self, row: usize, at: f64) {
        let (window, docs) = (self.window, self.docs);
        let kids = self.heads[row].kids.get_or_insert_with(|| {
            Box::new(ChildState {
                flows: DenseFlowTable::new(window, METER_ALPHA, 0, docs),
                est: Vec::new(),
            })
        });
        kids.flows.push_row(at);
        kids.est.push(None);
    }

    /// Reorders the per-child state of the node at `row` after a leave
    /// renumbered its child list: `map[new_slot]` names the old slot
    /// whose history the new slot keeps (see
    /// [`child_slot_map`](super::child_slot_map)). A node that lost its
    /// last child drops its child state and is a leaf again.
    pub fn remap_children(&mut self, row: usize, map: &[Option<usize>], at: f64) {
        let head = &mut self.heads[row];
        if map.is_empty() {
            head.kids = None;
            return;
        }
        let kids = head.kids.as_mut().expect("a parent has child state");
        kids.flows.reorder_rows(map, at);
        let old_est = std::mem::take(&mut kids.est);
        kids.est
            .extend(map.iter().map(|&src| src.and_then(|s| old_est[s])));
    }

    /// Removes local node `row`, moving the last row into its place —
    /// the id compaction a leave applies to the tree. The departed
    /// node's streams are reclaimed by the commit's re-resolution.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn swap_remove_node(&mut self, row: usize) {
        self.heads.swap_remove(row);
        self.ranges.swap_remove(row);
        self.words.swap_remove_row(row);
        self.seen.swap_remove_row(row);
        self.served.swap_remove_row(row);
        self.buckets.swap_remove_row(row);
    }

    /// Moves every node's per-document state to a grown universe, in
    /// place and slab by slab: bitset members, token buckets and meter
    /// cells shift to their new columns inside the buffers they already
    /// occupy; fresh columns start empty, anchored at `at`. The home
    /// server (at `home`, when this slab hosts it) additionally receives
    /// the only copy of each new document. A grid's rows are exactly as
    /// wide as the universe, so every growth moves each row to its new
    /// place — whole, with one copy, when the growth is an append; the
    /// buffers grow geometrically, so a run of publishes reallocates
    /// rarely.
    pub fn grow(&mut self, growth: &UniverseGrowth, at: f64, home: Option<usize>) {
        let (old_words, new_words) = (self.words.doc_count() / SETS, set_words_for(growth.new_len));
        if new_words != old_words {
            // The bitsets outgrew their words: widen them (out of
            // the heads, the first time).
            let mut words = DocGrid::new(self.heads.len(), SETS * new_words, 0u64);
            for (row, head) in self.heads.iter().enumerate() {
                let old = if old_words == 0 {
                    &head.sets[..]
                } else {
                    self.words.row(row)
                };
                let per_set = old.len() / SETS;
                for (set, grown) in words.row_mut(row).chunks_exact_mut(new_words).enumerate() {
                    grown[..per_set].copy_from_slice(&old[set * per_set..(set + 1) * per_set]);
                }
            }
            self.words = words;
        }
        if !growth.is_append() {
            for (row, head) in self.heads.iter_mut().enumerate() {
                let sets = if new_words == 0 {
                    &mut head.sets[..]
                } else {
                    self.words.row_mut(row)
                };
                for set in sets.chunks_exact_mut(new_words.max(1)) {
                    shift_members(set, &growth.old_to_new);
                }
            }
        }
        self.docs = growth.new_len;
        self.buckets.grow_docs(
            &growth.old_to_new,
            growth.new_len,
            TokenBucket::new(0.0, at),
        );
        self.seen.grow_docs(&growth.old_to_new, growth.new_len, at);
        self.served
            .grow_docs(&growth.old_to_new, growth.new_len, at);
        for kids in self.heads.iter_mut().filter_map(|h| h.kids.as_mut()) {
            kids.flows.grow_docs(&growth.old_to_new, growth.new_len, at);
        }
        if let Some(row) = home {
            let mut home = self.node_mut(row);
            for &k in &growth.fresh {
                home.insert(Set::Copies, k);
            }
        }
    }

    /// Revokes the cached copy of dense index `k` at local node `row`
    /// (never the home server): copy, filter membership, serve
    /// allocation, and the stale serve-rate estimate all vanish. Returns
    /// `true` when a copy was actually removed (the caller charges the
    /// invalidation message).
    pub fn invalidate_row(&mut self, row: usize, k: u32) -> bool {
        let mut node = self.node_mut(row);
        if !node.remove(Set::Copies, k) {
            return false;
        }
        node.remove(Set::Filter, k);
        node.remove(Set::Alloc, k);
        node.buckets[k as usize].rate = 0.0;
        self.served.clear_cell(row, k);
        true
    }

    /// Forgets every arrival stream and pending arrival. The arrival
    /// re-resolution restarts *every* stream (the generation is folded
    /// into every fork), so it clears the two slabs once and then
    /// refills them node by node through
    /// [`NodeSlab::resolve_node_arrivals`].
    pub fn clear_arrivals(&mut self) {
        self.streams.clear();
        self.next.clear();
    }

    /// Resolves the arrival streams of local node `row` (global id
    /// `node`): one cell per demand stream, its generator forked from
    /// `(seed, node, doc, generation)`, appended to the stream slab, and
    /// beside it the stream's first arrival after `at` — under the next
    /// sequence number `alloc_seq` hands out, in stream order, for a
    /// positive-rate stream; [`NO_KEY`] for the others. The first
    /// inter-arrival gap is drawn from the stream's own generator, so
    /// the schedule is independent of which shard resolves it. Returns
    /// the row's [`front`](NodeSlab::front), for the caller's calendar.
    ///
    /// At a barrier the driver must have dropped every stale
    /// [`PacketEvent::Arrival`](super::PacketEvent::Arrival) head from
    /// its queue and called [`NodeSlab::clear_arrivals`] first. The
    /// pass writes 64 bytes per stream into the rows and touches no
    /// queue; it forks the per-node prefix once.
    pub fn resolve_node_arrivals(
        &mut self,
        world: &PacketWorld,
        row: usize,
        node: NodeId,
        at: SimTime,
        mut alloc_seq: impl FnMut() -> u64,
    ) -> Option<(u128, u32)> {
        let demand = world.streams_of(node);
        let node_rng = super::node_arrival_rng(world, node.index());
        let start = u32::try_from(self.streams.len()).expect("arrival streams fit 32 bits");
        let len = demand.len();
        reserve_slack(&mut self.streams, len);
        reserve_slack(&mut self.next, len);
        for (doc, index, rate) in demand {
            let mut rng = stream_rng(&node_rng, world.generation, doc).into_stream();
            self.next.push(if rate > 0.0 {
                let gap = exp_delay(&mut rng, 1.0 / rate);
                key_of(at + SimTime::from_secs(gap), alloc_seq())
            } else {
                NO_KEY
            });
            self.streams.push(StreamCell { rng, rate, index });
        }
        self.ranges[row] = (start, len as u32);
        self.front(row)
    }

    /// Detaches the rows `gone` (distinct, any order) into a slab of
    /// their own, in that order, and closes the gaps among the survivors
    /// in one stable pass per slab — the donor side of a shard
    /// migration.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range or listed twice.
    pub fn take_rows(&mut self, gone: &[usize]) -> NodeSlab {
        let mut taken = NodeSlab::with_rows(self.window, 0, self.docs);
        let mut leaves = vec![false; self.heads.len()];
        for &row in gone {
            assert!(
                !std::mem::replace(&mut leaves[row], true),
                "row {row} listed twice"
            );
            taken.push_row_from(self, row);
        }
        retain_rows(&mut self.heads, &leaves);
        retain_rows(&mut self.ranges, &leaves);
        self.words.retain_rows(|row| !leaves[row]);
        self.seen.retain_rows(|row| !leaves[row]);
        self.served.retain_rows(|row| !leaves[row]);
        self.buckets.retain_rows(|row| !leaves[row]);
        // The survivors' streams and pending arrivals, packed in row
        // order.
        let kept = self.ranges.iter().map(|r| r.1 as usize).sum();
        let mut streams = Vec::with_capacity(kept);
        let mut next = Vec::with_capacity(kept);
        for range in &mut self.ranges {
            let old = range.0 as usize..(range.0 + range.1) as usize;
            range.0 = streams.len() as u32;
            streams.extend_from_slice(&self.streams[old.clone()]);
            next.extend_from_slice(&self.next[old]);
        }
        self.streams = streams;
        self.next = next;
        taken
    }

    /// Moves row `row` of `from` to the end of this slab — the recipient
    /// side of a shard migration; the row's pending arrivals travel
    /// with it, still under the donor's sequence numbers. `from`'s row
    /// is left hollow (no child state, default scalars): the caller
    /// discards or compacts it.
    ///
    /// # Panics
    ///
    /// Panics if the two slabs cover different universes or `row` is out
    /// of range.
    pub fn push_row_from(&mut self, from: &mut NodeSlab, row: usize) {
        assert_eq!(self.docs, from.docs, "shards grow with one universe");
        let hollow = NodeHead::new(from.heads[row].gossip_rng.clone());
        let head = std::mem::replace(&mut from.heads[row], hollow);
        let moved = from.stream_range(row);
        let start = u32::try_from(self.streams.len()).expect("arrival streams fit 32 bits");
        reserve_slack(&mut self.streams, moved.len());
        reserve_slack(&mut self.next, moved.len());
        self.streams.extend_from_slice(&from.streams[moved.clone()]);
        self.next.extend_from_slice(&from.next[moved.clone()]);
        reserve_slack(&mut self.ranges, 1);
        self.ranges.push((start, moved.len() as u32));
        reserve_slack(&mut self.heads, 1);
        self.heads.push(head);
        self.words.push_row_from(from.words.row(row));
        self.seen.push_row_from(from.seen.row(row));
        self.served.push_row_from(from.served.row(row));
        self.buckets.push_row_from(from.buckets.row(row));
    }
}

/// The one row of a [`NodeSlab`] an event targets, borrowed for the
/// handler that runs it: the node's head plus its slices of the slabs.
/// Every per-document address is `row x docs + doc`.
pub struct NodeMut<'a> {
    /// The node's scalars.
    pub head: &'a mut NodeHead,
    row: usize,
    docs: usize,
    /// The node's three bitsets in the word slab (empty while they live
    /// in the head).
    words: &'a mut [u64],
    seen: &'a mut DenseFlowTable,
    served: &'a mut DenseFlowTable,
    /// Serve allocations, one token bucket per dense index;
    /// [`Set::Alloc`] marks the live ones.
    pub buckets: &'a mut [TokenBucket],
    /// Every row's stream range and the stream slab: only an arrival
    /// resolves the node's own cells ([`NodeMut::stream_mut`]), so no
    /// other event pays for the range lookup.
    ranges: &'a [(u32, u32)],
    streams: &'a mut [StreamCell],
}

impl NodeMut<'_> {
    /// The word and bit of member `k` of `set`.
    #[inline]
    fn bit(&mut self, set: Set, k: u32) -> (&mut u64, u64) {
        assert!((k as usize) < self.docs, "doc index out of universe");
        let word = if self.words.is_empty() {
            &mut self.head.sets[set as usize]
        } else {
            let per_set = self.words.len() / SETS;
            &mut self.words[set as usize * per_set + (k / 64) as usize]
        };
        (word, 1u64 << (k % 64))
    }

    /// `true` when `k` is a member of `set`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the universe.
    #[inline]
    pub fn has(&self, set: Set, k: u32) -> bool {
        assert!((k as usize) < self.docs, "doc index out of universe");
        let word = if self.words.is_empty() {
            self.head.sets[set as usize]
        } else {
            let per_set = self.words.len() / SETS;
            self.words[set as usize * per_set + (k / 64) as usize]
        };
        word >> (k % 64) & 1 == 1
    }

    /// Inserts `k` into `set`; `true` when it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the universe.
    #[inline]
    pub fn insert(&mut self, set: Set, k: u32) -> bool {
        let (word, bit) = self.bit(set, k);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `k` from `set`; `true` when it was present.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the universe.
    #[inline]
    pub fn remove(&mut self, set: Set, k: u32) -> bool {
        let (word, bit) = self.bit(set, k);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// The node's arrival stream `stream` (its index in the node's
    /// demand list).
    ///
    /// # Panics
    ///
    /// Panics if the node has no such stream.
    #[inline]
    pub fn stream_mut(&mut self, stream: u32) -> &mut StreamCell {
        let (start, len) = self.ranges[self.row];
        assert!(stream < len, "stream out of the node's range");
        &mut self.streams[(start + stream) as usize]
    }

    /// Records one request for dense index `k` seen at this node.
    #[inline]
    pub(super) fn record_seen(&mut self, k: u32, now: f64) {
        self.seen.record(self.row, k, now);
    }

    /// Records one request for dense index `k` served by this node.
    #[inline]
    pub(super) fn record_served(&mut self, k: u32, now: f64) {
        self.served.record(self.row, k, now);
    }

    /// Rolls the node's `seen` meters to `now`.
    pub(super) fn roll_seen(&mut self, now: f64) {
        self.seen.roll_row_to(self.row, now);
    }

    /// Smoothed rate of all requests for `k` seen at this node.
    #[inline]
    pub(super) fn seen_rate(&self, k: u32) -> f64 {
        self.seen.rate(self.row, k)
    }

    /// Smoothed rate this node serves `k` at.
    #[inline]
    pub(super) fn served_rate(&self, k: u32) -> f64 {
        self.served.rate(self.row, k)
    }

    /// The node's served documents by descending rate (see
    /// [`DenseFlowTable::row_doc_rates`]).
    pub(super) fn served_doc_rates(&self, out: &mut Vec<(u32, f64)>) {
        self.served.row_doc_rates(self.row, out);
    }

    /// The measured load of the node: its served rate over the rolling
    /// window (see [`NodeSlab::measured_load`]).
    pub fn measured_load(&mut self, now: f64) -> f64 {
        load_of(self.served, self.row, now)
    }

    /// The per-child state; only events from or about a child reach
    /// for it.
    ///
    /// # Panics
    ///
    /// Panics on a leaf.
    #[inline]
    pub(super) fn kids(&mut self) -> &mut ChildState {
        self.head.kids.as_mut().expect("a parent has child state")
    }

    /// The per-child state of a node that has children.
    #[inline]
    pub(super) fn kids_opt(&mut self) -> Option<&mut ChildState> {
        self.head.kids.as_deref_mut()
    }
}

/// One row of a [`NodeSlab`], read-only: everything the node's state
/// consists of, for reports, tests and `Debug` renderings. Two views are
/// equal when every live field is, bit for bit.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    /// The node's scalars.
    pub head: &'a NodeHead,
    docs: usize,
    words: &'a [u64],
    /// Per-doc meters of all requests seen at this node (own +
    /// children).
    pub seen: &'a [MeterCell],
    /// Per-doc meters of what this node served.
    pub served: &'a [MeterCell],
    /// Token buckets, one per dense index.
    pub buckets: &'a [TokenBucket],
    /// Arrival streams, one per demand stream.
    pub streams: &'a [StreamCell],
    /// Each stream's pending arrival as a packed `(time, seq)` key
    /// ([`NO_KEY`] for a zero-rate stream).
    pub next: &'a [u128],
}

impl<'a> NodeRef<'a> {
    /// Members of `set`, ascending.
    pub fn members(&self, set: Set) -> impl Iterator<Item = u32> + 'a {
        let per_set = self.words.len() / SETS;
        let docs = self.docs as u32;
        members(&self.words[set as usize * per_set..(set as usize + 1) * per_set])
            .filter(move |&k| k < docs)
    }

    /// The per-child state; `None` for a leaf.
    pub fn kids(&self) -> Option<&'a ChildState> {
        self.head.kids.as_deref()
    }
}

impl PartialEq for NodeRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.head, other.head);
        a.parent_est.map(f64::to_bits) == b.parent_est.map(f64::to_bits)
            && a.served_total == b.served_total
            && a.underload_streak == b.underload_streak
            && a.next_request == b.next_request
            && a.gossip_rng == b.gossip_rng
            && self.docs == other.docs
            && [Set::Copies, Set::Filter, Set::Alloc]
                .into_iter()
                .all(|s| self.members(s).eq(other.members(s)))
            && self.seen == other.seen
            && self.served == other.served
            && self.buckets == other.buckets
            && self.streams == other.streams
            && self.next == other.next
            && self.kids() == other.kids()
    }
}

/// Every field, floats in their shortest round-trip form — equal
/// renderings are equal bits — bar the pending-arrival keys: their
/// sequence halves belong to the hosting shard's calendar (a migration
/// redraws them, as it does the timer fires'), so they are compared as
/// keys, through [`NodeRef::next`].
impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let set = |s| self.members(s).collect::<Vec<_>>();
        f.debug_struct("Node")
            .field("parent_est", &self.head.parent_est)
            .field("served_total", &self.head.served_total)
            .field("underload_streak", &self.head.underload_streak)
            .field("next_request", &self.head.next_request)
            .field("gossip_rng", &self.head.gossip_rng)
            .field("copies", &set(Set::Copies))
            .field("filter", &set(Set::Filter))
            .field("alloc_set", &set(Set::Alloc))
            .field("seen", &self.seen)
            .field("served", &self.served)
            .field("buckets", &self.buckets)
            .field("streams", &self.streams)
            .field("kids", &self.kids())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_head_is_thirteen_words() {
        // The fixed per-node cost the layout table in
        // `docs/architecture.md` quotes; a leaf owns nothing else, a
        // document costs two 24-byte meter cells and a 24-byte bucket,
        // and a stream a 48-byte cell and a 16-byte key.
        assert_eq!(std::mem::size_of::<NodeHead>(), 104);
        assert_eq!(std::mem::size_of::<ChildState>(), 80);
        assert_eq!(std::mem::size_of::<MeterCell>(), 24);
        assert_eq!(std::mem::size_of::<TokenBucket>(), 24);
        assert_eq!(std::mem::size_of::<StreamCell>(), 48);
        assert_eq!(std::mem::size_of::<StreamRng>(), 32);
    }

    #[test]
    fn an_event_is_four_words() {
        // Every pending event is one of these: a calendar entry is the
        // packed `(time, seq)` key beside it, an outbox entry the time.
        // `docs/architecture.md` quotes the entry sizes.
        use crate::packet::PacketEvent;
        use std::mem::size_of;
        use ww_net::DocRequest;
        assert_eq!(size_of::<PacketEvent>(), 32);
        assert_eq!(size_of::<(u128, PacketEvent)>(), 48);
        assert_eq!(size_of::<(SimTime, PacketEvent)>(), 40);
        assert_eq!(size_of::<NodeId>(), 4);
        assert_eq!(size_of::<Option<NodeId>>(), 4);
        assert_eq!(size_of::<DocRequest>(), 16);
    }
}
