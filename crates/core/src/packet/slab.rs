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
//! | `heads: Vec<NodeHead>` | the scalars, the gossip generator (a [`StreamRng`]), the four bitsets' words while the universe fits 64 documents, the child-state pointer, the row's creation | 120 |
//! | `words`: [`DocGrid`]`<u64>` | the four bitsets beyond 64 documents, `4 x ceil(m / 64)` words | 0 or 32 ceil(m / 64) |
//! | `spans: Vec<Spans>` | the `(start, len)` of the row's arrival streams in the two slabs below, of its serve slots in the slot pool and of its `seen` meters in the seen pool | 24 |
//! | `streams: Vec<StreamCell>` | one cell per arrival stream: its generator | 32 per stream |
//! | `next: Vec<u128>` | each stream's **pending arrival**, as the calendar's packed `(time, seq)` key ([`NO_KEY`] for a zero-rate stream) | 16 per stream |
//! | `slots: RunPool<ServeSlot, SlotRuns>` | one serve slot — token bucket and served meter — per document the node has ever allocated or served | 48 per slot |
//! | `seen: RunPool<MeterCell, SeenRuns>` | one three-word meter per document up to the highest the node has recorded (every document of the universe the slab was built over) | 24 per recorded document |
//!
//! Beside them the slab keeps when each document column was created
//! (`born`, 8 bytes a document, once per slab).
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
//! streams. The spans sit in a table of their own, not in the head, so
//! the lines an arrival and its leaf packet touch — key row, stream
//! cell, head, `seen` row, serve slots — have addresses that wait on
//! nothing but the dense 16-byte table. A leaf fires about once per
//! simulated second, so those lines are cold; the driver prefetches
//! them one arrival ahead ([`NodeSlab::prefetch_arrival`]), and the
//! misses run under the events in between instead of stalling the loop.
//!
//! A stream's document and rate are not stored here at all: stream `j`
//! of a node is entry `j` of its row of the world's mix, which
//! [`NodeSlab::resolve_node_arrivals`] walks to fork the cells
//! ([`DocWorld::streams_of`](crate::world::DocWorld::streams_of)) and
//! a fire reads ([`DocWorld::stream_of`](crate::world::DocWorld::stream_of));
//! the driver prefetches that entry with the row's lines. Every barrier
//! operation that changes the mix rebuilds every row's cells at its
//! commit, so a row never disagrees with its mix row while events run.
//!
//! A node sees a document only if a request for it passes through, and
//! a child forwards one only if its subtree asks for it: a document
//! published late is seen by the nodes on its requesters' paths to the
//! home server alone. So `seen` and the children's `flows` are
//! **ragged**: a row holds meters for the columns up to the highest it
//! has recorded into, and its first record of a later column widens it
//! there. A slab built over a universe starts every row at its full
//! width, a joiner's row empty; an appending publish writes no row.
//!
//! Only a server serves: a
//! node serves a document under a live allocation ([`Set::Alloc`]), the
//! home server serves every document. So the token buckets and served
//! meters live in **serve slots**, one per document the node has ever
//! allocated or served — the home server's row is fully slotted — found
//! through a fourth bitset beside the three [`Set`]s: a slot's place in
//! its row's run is the rank of its document in that bitset, a popcount
//! rather than a scan. A slot stays until its row leaves. The slots hold
//! exactly what one bucket and one meter per document held:
//!
//! - A bucket outside [`Set::Alloc`] is dead: every reader checks the
//!   set, and every insertion into it starts the bucket over.
//! - A meter nothing was recorded in holds `+0.0`, so a sum over the
//!   slots in index order is the sum over every document, bit for bit.
//! - A row roll passes a cold meter over ([`MeterCell::roll_live`]), so a
//!   meter nothing was ever recorded in is its **anchor** — the later
//!   of its row's and its column's creation. A slot made later starts
//!   as that meter, and so does a `seen` or `flows` cell a widening
//!   row makes: the first record's own roll brings it to the present,
//!   where the skipped rolls would have. An invalidated slot is reset
//!   where its last roll left it, which no fresh meter equals, so it is
//!   kept, not dropped.
//!
//! The slots and the `seen` meters each live in a [`RunPool`]: one
//! slab-wide buffer, each row's run contiguous, read and written
//! through the row's run alone. A row whose run gains a cell moves the
//! run to the end of the buffer unless it is there already, and a row
//! that leaves — by a leave or a migration — leaves its runs as holes.
//! The pool packs them away itself, in place, once they are a fifth of
//! its buffer; the slab never packs.
//!
//! Only a node that has children owns anything else: a boxed
//! [`ChildState`] (its per-child-slot `flows` grid, 24 bytes a column
//! up to the highest the node has recorded plus 16 bytes a child, and
//! child load estimates). A leaf owns no heap buffer at all, so
//! building a slab allocates `O(slabs + interior nodes)` times.
//!
//! Barrier operations are row operations, shared by the three engines:
//! join = [`NodeSlab::push_node`], leave = [`NodeSlab::swap_remove_node`]
//! (the id compaction the tree already does), publish / `set_mix` =
//! [`NodeSlab::grow`] (nothing per row: a new document's column is
//! past every old one), `Invalidate` =
//! [`NodeSlab::invalidate_row`] down one column, shard migration =
//! [`NodeSlab::take_rows`] on the donor and [`NodeSlab::push_row_from`]
//! on the recipient.

use super::{stream_rng, PacketWorld, UniverseGrowth};
use ww_cache::{sort_hottest_first, DenseFlowTable, MeterCell};
use ww_model::{reserve_slack, DocGrid, Growth, NodeId, PoolKind, Run, RunPool};
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

/// What a node keeps for one document it serves: the bucket shaping its
/// allocation and the meter of what it served.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ServeSlot {
    bucket: TokenBucket,
    served: MeterCell,
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

/// The fourth bitset: documents the node holds a serve slot for.
const SLOTTED: usize = 3;

/// Bitsets per node.
const SETS: usize = 4;

/// The child-side state of a node that has children: per-child-slot,
/// per-document forwarded-rate meters and the children's latest gossiped
/// loads. Leaves have none.
#[derive(Debug, Clone)]
pub struct ChildState {
    /// Per-child-slot, per-doc forwarded-rate meters, as wide as the
    /// highest column the node has recorded (or the universe it was
    /// built over): a column past them holds cold meters only.
    flows: DenseFlowTable,
    /// Each child slot's estimate and creation, by child slot.
    slots: Vec<ChildSlot>,
}

/// What a node keeps of one child slot beside its `flows` row: 16
/// bytes, what the estimate alone took as an `Option<f64>`.
#[derive(Debug, Clone, Copy)]
struct ChildSlot {
    /// The child's latest gossiped load estimate; NaN until the first
    /// arrives. A load is a sum of finite rates, and a NaN one would
    /// compare as no estimate does: as no imbalance.
    est: f64,
    /// When the slot's row was created: the earliest anchor of its
    /// meters.
    born: f64,
}

impl ChildSlot {
    /// A slot created at `at`, without an estimate.
    fn fresh(at: f64) -> Self {
        ChildSlot {
            est: f64::NAN,
            born: at,
        }
    }
}

impl ChildState {
    /// `children` fresh slots created at `at`, `docs` columns wide.
    fn new(window: f64, children: usize, docs: usize, at: f64) -> Self {
        ChildState {
            flows: DenseFlowTable::new_anchored(window, METER_ALPHA, children, docs, at),
            slots: vec![ChildSlot::fresh(at); children],
        }
    }

    /// Number of child slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The latest gossiped load estimate of the child in slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn est(&self, slot: usize) -> Option<f64> {
        let est = self.slots[slot].est;
        (!est.is_nan()).then_some(est)
    }

    /// Notes the gossiped load of the child in slot `slot`.
    pub(super) fn set_est(&mut self, slot: usize, load: f64) {
        self.slots[slot].est = load;
    }

    /// Records one request for dense index `k` forwarded by child slot
    /// `slot`, widening the grid to `k` first; `columns_born` holds when
    /// each document column was created.
    #[inline]
    fn record(&mut self, slot: usize, k: u32, now: f64, columns_born: &[f64]) {
        if k as usize >= self.flows.doc_count() {
            self.widen(k as usize + 1, columns_born);
        }
        self.flows.record(slot, k, now);
    }

    /// Widens every slot's row to `docs` columns of cold meters, each
    /// at its anchor.
    #[cold]
    #[inline(never)]
    fn widen(&mut self, docs: usize, columns_born: &[f64]) {
        let old = self.flows.doc_count();
        self.flows.grow_docs(docs, 0.0);
        for (row, slot) in self.slots.iter().enumerate() {
            for (cell, &column) in self.flows.row_mut(row)[old..]
                .iter_mut()
                .zip(&columns_born[old..docs])
            {
                *cell = MeterCell::anchored(slot.born.max(column));
            }
        }
    }

    /// The forwarded rate of `k` through child slot `slot`.
    #[inline]
    pub(super) fn flow_rate(&self, slot: usize, k: u32) -> f64 {
        if (k as usize) < self.flows.doc_count() {
            self.flows.rate(slot, k)
        } else {
            0.0
        }
    }

    /// The total forwarded rate through child slot `slot`: the sum over
    /// the columns the grid holds, in index order — what the sum over
    /// every column reads, the columns past them adding `+0.0`, up to
    /// the sign of a zero total.
    #[inline]
    pub(super) fn flow_total(&self, slot: usize) -> f64 {
        self.flows.row_total(slot)
    }

    /// The documents child slot `slot` forwards at a positive rate,
    /// hottest first (see [`DenseFlowTable::row_doc_rates`]).
    pub(super) fn flow_doc_rates(&self, slot: usize, out: &mut Vec<(u32, f64)>) {
        self.flows.row_doc_rates(slot, out);
    }

    /// Rolls every live forwarded-rate meter to `now`.
    pub(super) fn roll_flows(&mut self, now: f64) {
        self.flows.roll_to(now);
    }

    /// The meter of `k` through child slot `slot`, densified: the grid's
    /// cell, or the cold meter at its anchor past the grid.
    fn cell(&self, slot: usize, k: u32, columns_born: &[f64]) -> MeterCell {
        if (k as usize) < self.flows.doc_count() {
            self.flows.row(slot)[k as usize]
        } else {
            MeterCell::anchored(self.slots[slot].born.max(columns_born[k as usize]))
        }
    }
}

/// One arrival stream of a node: its generator alone. Stream `j` of a
/// node is entry `j` of its mix row, whose document and rate a fire
/// reads from the world ([`DocWorld::stream_of`](crate::world::DocWorld::stream_of));
/// the stream's pending arrival is its entry in the slab's key row.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCell {
    /// Inter-arrival randomness, forked purely from
    /// `(master seed, node, doc, generation)` — independent of any
    /// global counter.
    pub rng: StreamRng,
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
    /// The four bitsets' words while the universe fits one word each.
    sets: [u64; SETS],
    /// Per-child state; `None` for a leaf.
    kids: Option<Box<ChildState>>,
    /// When the row was created: the earliest anchor of its meters.
    born: f64,
}

impl NodeHead {
    fn new(gossip_rng: StreamRng, born: f64) -> Self {
        NodeHead {
            parent_est: None,
            served_total: 0,
            underload_streak: 0,
            next_request: 0,
            gossip_rng,
            sets: [0; SETS],
            kids: None,
            born,
        }
    }

    /// The meter of a document column created at `column_born` that
    /// this row never recorded into: cold, at the later of the two
    /// creations.
    fn cold_meter(&self, column_born: f64) -> MeterCell {
        MeterCell::anchored(self.born.max(column_born))
    }
}

/// Where one row's runs sit in the slab-wide buffers: its arrival
/// streams in `streams` / `next`, its serve slots and its `seen` meters
/// in their pools.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    streams: Run,
    slots: Run,
    seen: Run,
}

/// The serve slot pool. Its buffer doubles when it grows — an epoch of
/// copy spreading gives slots to many rows, each growth copies the
/// buffer and frees the old one, and an allocator does not always hand
/// a freed buffer back to the system — and it keeps what it grew to:
/// nothing shrinks it at a barrier.
#[derive(Debug)]
enum SlotRuns {}

impl PoolKind for SlotRuns {
    type Row = Spans;
    const GROWTH: Growth = Growth::Doubling;
    fn run(spans: &mut Spans) -> &mut Run {
        &mut spans.slots
    }
}

/// The `seen` pool. Only a joiner or a row on a new document's path
/// widens its `seen` run, so the buffer grows by sixteenths.
#[derive(Debug)]
enum SeenRuns {}

impl PoolKind for SeenRuns {
    type Row = Spans;
    const GROWTH: Growth = Growth::Sixteenths;
    fn run(spans: &mut Spans) -> &mut Run {
        &mut spans.seen
    }
}

/// An index into a slab-wide buffer, as a span stores it.
fn to_u32(at: usize) -> u32 {
    u32::try_from(at).expect("slab buffers fit 32-bit indices")
}

/// The place of `k`'s slot in its row's run: the members of the slotted
/// bitset `words` below `k`.
#[inline]
fn rank(words: &[u64], k: u32) -> usize {
    let (word, bit) = ((k / 64) as usize, k % 64);
    let below: u32 = words[..word].iter().map(|w| w.count_ones()).sum();
    (below + (words[word] & ((1u64 << bit) - 1)).count_ones()) as usize
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

/// The served rate of a row over the rolling window ending at `now`:
/// rolls the row's live slots.
#[inline]
fn load_of(run: &mut [ServeSlot], docs: usize, window: f64, now: f64) -> f64 {
    // The sum over every document starts at `-0.0` and adds a `+0.0`
    // for each one without a slot, so it reads `-0.0` only over an empty
    // universe.
    let mut total = if docs == 0 { -0.0 } else { 0.0 };
    for slot in run {
        slot.served.roll_live(now, window, METER_ALPHA);
        total += slot.served.rate_or_zero();
    }
    total
}

/// Members of a bitset, ascending.
fn members(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                wi as u32 * 64 + bit
            })
        })
    })
}

/// The state of every node one driver hosts, as slabs (see the module
/// docs). Row `i` is the driver's local node `i`.
#[derive(Debug)]
pub struct NodeSlab {
    heads: Vec<NodeHead>,
    /// Size of the document universe every per-document slab covers.
    docs: usize,
    /// Measurement window of every meter, seconds.
    window: f64,
    /// The four bitsets of every node beyond 64 documents, one row of
    /// `4 x set_words` words per node; no columns while the universe
    /// fits the heads' inline words.
    words: DocGrid<u64>,
    /// When each document column was created.
    born: Vec<f64>,
    spans: Vec<Spans>,
    streams: Vec<StreamCell>,
    /// Each stream's pending arrival as a packed `(time, seq)` key.
    next: Vec<u128>,
    slots: RunPool<ServeSlot, SlotRuns>,
    seen: RunPool<MeterCell, SeenRuns>,
}

impl NodeSlab {
    /// `rows` nodes over a universe whose columns were created at
    /// `born`, heads and arrival streams still to be pushed.
    fn with_rows(window: f64, rows: usize, born: Vec<f64>) -> Self {
        let docs = born.len();
        NodeSlab {
            heads: Vec::with_capacity(rows),
            docs,
            window,
            words: DocGrid::new(rows, SETS * set_words_for(docs), 0),
            born,
            spans: Vec::with_capacity(rows),
            streams: Vec::new(),
            next: Vec::new(),
            slots: RunPool::new(),
            seen: RunPool::new(),
        }
    }

    /// The initial state of `members` (row `i` = `members[i]`) at time
    /// zero: the home server holds every document, every other node is
    /// cold, and every row's `seen` run and child rows span the whole
    /// universe. Arrival streams are resolved separately
    /// ([`NodeSlab::resolve_node_arrivals`]).
    pub fn new(world: &PacketWorld, members: &[NodeId]) -> Self {
        let docs = world.mix.table().len();
        let mut slab =
            NodeSlab::with_rows(world.config.measure_window, members.len(), vec![0.0; docs]);
        let streams = members.iter().map(|&u| world.streams_of(u).len()).sum();
        slab.streams.reserve_exact(streams);
        slab.next.reserve_exact(streams);
        if members.contains(&world.tree.root()) {
            slab.slots.replace(Vec::with_capacity(docs));
        }
        slab.seen
            .replace(vec![MeterCell::anchored(0.0); members.len() * docs]);
        for (row, &node) in members.iter().enumerate() {
            slab.push_head(world, node, 0.0);
            slab.spans[row].seen = Run {
                start: to_u32(row * docs),
                len: to_u32(docs),
            };
        }
        slab
    }

    /// Pushes the head of `node` (and, for an interior node, its child
    /// state), created at `at`, with an empty `seen` run. The caller has
    /// sized the word slab to hold the row.
    fn push_head(&mut self, world: &PacketWorld, node: NodeId, at: f64) {
        let mut head = NodeHead::new(super::gossip_stream_rng(world, node.index()), at);
        let children = world.tree.children(node).len();
        if children > 0 {
            head.kids = Some(Box::new(ChildState::new(
                self.window,
                children,
                self.docs,
                at,
            )));
        }
        reserve_slack(&mut self.heads, 1);
        self.heads.push(head);
        reserve_slack(&mut self.spans, 1);
        self.spans.push(Spans::default());
        if node == world.tree.root() {
            let row = self.heads.len() - 1;
            let docs = self.docs as u32;
            let mut home = self.node_mut(row);
            for k in 0..docs {
                home.insert(Set::Copies, k);
                home.slot_mut(k);
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
        use std::mem::size_of;
        let kids: usize = self
            .heads
            .iter()
            .filter_map(|h| h.kids.as_deref())
            .map(|k| {
                size_of::<ChildState>()
                    + k.flows.capacity_bytes()
                    + k.slots.capacity() * size_of::<ChildSlot>()
            })
            .sum();
        self.heads.capacity() * size_of::<NodeHead>()
            + self.words.capacity_bytes()
            + self.born.capacity() * size_of::<f64>()
            + self.spans.capacity() * size_of::<Spans>()
            + self.streams.capacity() * size_of::<StreamCell>()
            + self.next.capacity() * size_of::<u128>()
            + self.slots.capacity() * size_of::<ServeSlot>()
            + self.seen.capacity() * size_of::<MeterCell>()
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
            window: self.window,
            words: self.words.row_mut(row),
            born: &self.born,
            spans: &mut self.spans,
            streams: &mut self.streams,
            slots: &mut self.slots,
            seen: &mut self.seen,
        }
    }

    /// The read-only row view of local node `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn node(&self, row: usize) -> NodeRef<'_> {
        let head = &self.heads[row];
        let spans = self.spans[row];
        NodeRef {
            head,
            docs: self.docs,
            words: if self.words.doc_count() == 0 {
                &head.sets[..]
            } else {
                self.words.row(row)
            },
            seen: self.seen.of(spans.seen),
            born: &self.born,
            slots: self.slots.of(spans.slots),
            streams: &self.streams[spans.streams.range()],
            next: &self.next[spans.streams.range()],
        }
    }

    /// Prefetches what the arrival of `stream` at local node `row` and
    /// the leaf packet it issues will touch: the row's keys (re-heading
    /// scans them all), the stream's cell, the head (`next_request`,
    /// the bitsets the packet tests), the `seen` row the packet records
    /// into and the serve slots an intercepting leaf draws a token
    /// from. The driver calls it for the *next* arrival, so the misses
    /// overlap the events in between. A hint only — it changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `stream` is out of range.
    #[inline]
    pub fn prefetch_arrival(&self, row: usize, stream: u32) {
        let spans = self.spans[row];
        let keys = spans.streams.range();
        let cell = keys.start + stream as usize;
        prefetch(&self.next[keys]);
        prefetch(&self.streams[cell]);
        prefetch(&self.heads[row]);
        prefetch(self.seen.of(spans.seen));
        prefetch(self.slots.of(spans.slots));
    }

    /// Stores `key` as the pending arrival of `stream` at local node
    /// `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `stream` is out of range.
    #[inline]
    pub fn set_arrival_key(&mut self, row: usize, stream: u32, key: u128) {
        let streams = self.spans[row].streams.range();
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
        let keys = &self.next[self.spans[row].streams.range()];
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

    /// The measured load of local node `row`: rolls its serve meters to
    /// `now` and returns its total rate — the per-node quantity behind
    /// gossip, the convergence trace and the final report. Drivers must
    /// sample at the *same* instants (epoch boundaries, report time) for
    /// traces to match across drivers.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn measured_load(&mut self, row: usize, now: f64) -> f64 {
        let run = self.slots.of_mut(self.spans[row].slots);
        load_of(run, self.docs, self.window, now)
    }

    /// A node joins as the slab's last row, cold, its meters anchored at
    /// `at` and its `seen` run empty. Its stream range starts empty too:
    /// the join's batch commit re-resolves every node's streams.
    pub fn push_node(&mut self, world: &PacketWorld, node: NodeId, at: f64) {
        self.words.push_row(0);
        self.push_head(world, node, at);
    }

    /// The node at `row` gained a child in its last slot (a joiner holds
    /// the highest id, so it sorts last and every existing slot keeps
    /// its history): one fresh `flows` row anchored at `at` and one
    /// empty estimate. A leaf's first child creates its child state,
    /// without columns.
    pub fn push_child(&mut self, row: usize, at: f64) {
        let window = self.window;
        let kids = self.heads[row]
            .kids
            .get_or_insert_with(|| Box::new(ChildState::new(window, 0, 0, at)));
        kids.flows.push_row(at);
        kids.slots.push(ChildSlot::fresh(at));
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
        let old = std::mem::take(&mut kids.slots);
        kids.slots.extend(
            map.iter()
                .map(|&src| src.map_or(ChildSlot::fresh(at), |s| old[s])),
        );
    }

    /// Removes local node `row`, moving the last row into its place —
    /// the id compaction a leave applies to the tree. The departed
    /// node's streams are reclaimed by the commit's re-resolution; its
    /// serve slots and `seen` meters become holes in their pools.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn swap_remove_node(&mut self, row: usize) {
        let gone = self.spans.swap_remove(row);
        self.slots.vacate(&mut self.spans, [gone.slots]);
        self.seen.vacate(&mut self.spans, [gone.seen]);
        self.heads.swap_remove(row);
        self.words.swap_remove_row(row);
    }

    /// Widens every node's per-document state to a grown universe, whose
    /// new documents take the columns past the old ones (created at
    /// `at`): the home server (at `home`, when this slab hosts it)
    /// receives the only copy of each new document, and its slot.
    ///
    /// Nothing else changes per row: a ragged `seen` run or `flows` grid
    /// ends at or before the old universe's last column, a fresh column
    /// past it holds cold meters only, and serve slots keep their
    /// places. Only the bitsets widen, when they outgrow their words.
    pub fn grow(&mut self, growth: &UniverseGrowth, at: f64, home: Option<usize>) {
        let docs = growth.end as usize;
        let (old_words, new_words) = (self.words.doc_count() / SETS, set_words_for(docs));
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
        self.docs = docs;
        self.born.reserve_exact(docs - self.born.len());
        self.born.resize(docs, at);
        if let Some(row) = home {
            let mut home = self.node_mut(row);
            for k in growth.clone() {
                home.insert(Set::Copies, k);
                home.slot_mut(k);
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
        // A copy arrived with an allocation, so the slot is there.
        let slot = node.slot_mut(k);
        slot.bucket.rate = 0.0;
        slot.served.reset();
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
    /// pass writes 48 bytes per stream into the rows and touches no
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
        let start = to_u32(self.streams.len());
        let len = demand.len();
        reserve_slack(&mut self.streams, len);
        reserve_slack(&mut self.next, len);
        for (doc, _, rate) in demand {
            let mut rng = stream_rng(&node_rng, world.generation, doc).into_stream();
            self.next.push(if rate > 0.0 {
                let gap = exp_delay(&mut rng, 1.0 / rate);
                key_of(at + SimTime::from_secs(gap), alloc_seq())
            } else {
                NO_KEY
            });
            self.streams.push(StreamCell { rng });
        }
        self.spans[row].streams = Run {
            start,
            len: to_u32(len),
        };
        self.front(row)
    }

    /// Detaches the rows `gone` (distinct, any order) into a slab of
    /// their own, in that order — the donor side of a shard migration.
    /// The survivors' streams and keys close ranks in one stable pass;
    /// the departed serve slots and `seen` meters become holes in their
    /// pools, as a leave's do.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range or listed twice.
    pub fn take_rows(&mut self, gone: &[usize]) -> NodeSlab {
        let mut taken = NodeSlab::with_rows(self.window, 0, self.born.clone());
        let mut leaves = vec![false; self.heads.len()];
        for &row in gone {
            assert!(
                !std::mem::replace(&mut leaves[row], true),
                "row {row} listed twice"
            );
            taken.push_row_from(self, row);
        }
        let departed: Vec<Spans> = gone.iter().map(|&row| self.spans[row]).collect();
        retain_rows(&mut self.heads, &leaves);
        retain_rows(&mut self.spans, &leaves);
        self.words.retain_rows(|row| !leaves[row]);
        // The survivors' streams and pending arrivals, packed in row
        // order.
        let kept = self.spans.iter().map(|s| s.streams.len as usize).sum();
        let mut streams = Vec::with_capacity(kept);
        let mut next = Vec::with_capacity(kept);
        for spans in &mut self.spans {
            let old = spans.streams.range();
            spans.streams.start = to_u32(streams.len());
            streams.extend_from_slice(&self.streams[old.clone()]);
            next.extend_from_slice(&self.next[old]);
        }
        self.streams = streams;
        self.next = next;
        self.slots
            .vacate(&mut self.spans, departed.iter().map(|s| s.slots));
        self.seen
            .vacate(&mut self.spans, departed.iter().map(|s| s.seen));
        taken
    }

    /// Moves row `row` of `from` to the end of this slab — the recipient
    /// side of a shard migration; the row's pending arrivals travel
    /// with it, still under the donor's sequence numbers, and so do its
    /// serve slots. `from`'s row is left hollow (no child state, default
    /// scalars): the caller discards or compacts it.
    ///
    /// # Panics
    ///
    /// Panics if the two slabs cover different universes or `row` is out
    /// of range.
    pub fn push_row_from(&mut self, from: &mut NodeSlab, row: usize) {
        assert_eq!(self.docs, from.docs, "shards grow with one universe");
        let hollow = NodeHead::new(from.heads[row].gossip_rng.clone(), 0.0);
        let head = std::mem::replace(&mut from.heads[row], hollow);
        let moved = from.spans[row];
        let stream_start = to_u32(self.streams.len());
        reserve_slack(&mut self.streams, moved.streams.len as usize);
        reserve_slack(&mut self.next, moved.streams.len as usize);
        self.streams
            .extend_from_slice(&from.streams[moved.streams.range()]);
        self.next
            .extend_from_slice(&from.next[moved.streams.range()]);
        reserve_slack(&mut self.spans, 1);
        self.spans.push(Spans {
            streams: Run {
                start: stream_start,
                ..moved.streams
            },
            slots: self.slots.push_run(from.slots.of(moved.slots)),
            seen: self.seen.push_run(from.seen.of(moved.seen)),
        });
        reserve_slack(&mut self.heads, 1);
        self.heads.push(head);
        self.words.push_row_from(from.words.row(row));
    }
}

/// The one row of a [`NodeSlab`] an event targets, borrowed for the
/// handler that runs it: the node's head plus its slices of the slabs.
/// A `seen` meter is found at its document's column in the row's run;
/// a serve slot by its document's rank among the row's slotted ones.
pub struct NodeMut<'a> {
    /// The node's scalars.
    pub head: &'a mut NodeHead,
    row: usize,
    docs: usize,
    window: f64,
    /// The node's four bitsets in the word slab (empty while they live
    /// in the head).
    words: &'a mut [u64],
    /// When each document column was created.
    born: &'a [f64],
    /// Every row's spans and the slabs they address: only an arrival
    /// resolves the node's own stream cells ([`NodeMut::stream_mut`]),
    /// only a serve or an allocation its slots, only a packet or a
    /// diffusion round its `seen` run, so no other event pays for the
    /// span lookup.
    spans: &'a mut [Spans],
    streams: &'a mut [StreamCell],
    slots: &'a mut RunPool<ServeSlot, SlotRuns>,
    seen: &'a mut RunPool<MeterCell, SeenRuns>,
}

impl NodeMut<'_> {
    /// The words of bitset `set`: the head's one while the universe
    /// fits it.
    #[inline]
    fn set_words(&self, set: usize) -> &[u64] {
        if self.words.is_empty() {
            std::slice::from_ref(&self.head.sets[set])
        } else {
            let per_set = self.words.len() / SETS;
            &self.words[set * per_set..(set + 1) * per_set]
        }
    }

    /// The word and bit of member `k` of bitset `set`.
    #[inline]
    fn bit(&mut self, set: usize, k: u32) -> (&mut u64, u64) {
        assert!((k as usize) < self.docs, "doc index out of universe");
        let word = if self.words.is_empty() {
            &mut self.head.sets[set]
        } else {
            let per_set = self.words.len() / SETS;
            &mut self.words[set * per_set + (k / 64) as usize]
        };
        (word, 1u64 << (k % 64))
    }

    #[inline]
    fn has_bit(&self, set: usize, k: u32) -> bool {
        assert!((k as usize) < self.docs, "doc index out of universe");
        self.set_words(set)[(k / 64) as usize] >> (k % 64) & 1 == 1
    }

    /// `true` when `k` is a member of `set`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the universe.
    #[inline]
    pub fn has(&self, set: Set, k: u32) -> bool {
        self.has_bit(set as usize, k)
    }

    /// Inserts `k` into `set`; `true` when it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the universe.
    #[inline]
    pub fn insert(&mut self, set: Set, k: u32) -> bool {
        let (word, bit) = self.bit(set as usize, k);
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
        let (word, bit) = self.bit(set as usize, k);
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
        let run = self.spans[self.row].streams;
        assert!(stream < run.len, "stream out of the node's range");
        &mut self.streams[(run.start + stream) as usize]
    }

    /// Where the node's slot for `k` sits in the row's run, if it holds
    /// one.
    // Forced inline: every serve and allocation looks a slot up, and
    // LLVM keeps a plain `#[inline]` a call.
    #[inline(always)]
    fn slot_at(&self, k: u32) -> Option<usize> {
        self.has_bit(SLOTTED, k)
            .then(|| rank(self.set_words(SLOTTED), k))
    }

    /// Slot `at` of the node's run.
    #[inline]
    fn slot_cell(&mut self, at: usize) -> &mut ServeSlot {
        self.slots.cell_mut(self.spans[self.row].slots, at)
    }

    /// The node's slot for `k`, made on first use as the meter the node
    /// would hold for `k` had it kept one all along.
    fn slot_mut(&mut self, k: u32) -> &mut ServeSlot {
        let at = match self.slot_at(k) {
            Some(at) => at,
            None => {
                let served = self.head.cold_meter(self.born[k as usize]);
                // Dead until an allocation starts it over.
                let bucket = TokenBucket::new(0.0, 0.0);
                let rank = rank(self.set_words(SLOTTED), k);
                let (word, bit) = self.bit(SLOTTED, k);
                *word |= bit;
                let slot = ServeSlot { bucket, served };
                self.slots.insert(self.spans, self.row, rank, slot);
                rank
            }
        };
        self.slot_cell(at)
    }

    /// The live token bucket of `k`: `None` unless `k` is in
    /// [`Set::Alloc`].
    // Forced inline, like `slot_at`: the leaf serve path and two
    // diffusion sites call it.
    #[inline(always)]
    pub(super) fn bucket(&mut self, k: u32) -> Option<&mut TokenBucket> {
        if !self.has(Set::Alloc, k) {
            return None;
        }
        let at = self.slot_at(k).expect("an allocation holds a slot");
        Some(&mut self.slot_cell(at).bucket)
    }

    /// Grants `rate` more req/s of `k`'s serve allocation at `now`; a
    /// fresh allocation starts its bucket over.
    pub(super) fn allocate(&mut self, k: u32, rate: f64, now: f64) {
        let fresh = self.insert(Set::Alloc, k);
        let bucket = &mut self.slot_mut(k).bucket;
        if fresh {
            *bucket = TokenBucket::new(0.0, now);
        }
        bucket.rate += rate;
    }

    /// Records one request for dense index `k` seen at this node; the
    /// row's first record past its run widens the run to `k`.
    #[inline]
    pub(super) fn record_seen(&mut self, k: u32, now: f64) {
        if k >= self.spans[self.row].seen.len {
            self.widen_seen(k);
        }
        let run = self.spans[self.row].seen;
        self.seen
            .cell_mut(run, k as usize)
            .record(now, self.window, METER_ALPHA);
    }

    /// Widens the row's `seen` run to column `k`: cold meters, each at
    /// its anchor.
    #[cold]
    #[inline(never)]
    fn widen_seen(&mut self, k: u32) {
        let len = self.spans[self.row].seen.len;
        let (born, head) = (self.born, &*self.head);
        let fresh = (len..k + 1).map(|c| head.cold_meter(born[c as usize]));
        self.seen.extend(self.spans, self.row, fresh);
    }

    /// Records one request for dense index `k` forwarded by child slot
    /// `slot`; the node's first record past its child grid widens the
    /// grid to `k`.
    ///
    /// # Panics
    ///
    /// Panics on a leaf.
    #[inline]
    pub(super) fn record_flow(&mut self, slot: usize, k: u32, now: f64) {
        let born = self.born;
        self.head
            .kids
            .as_mut()
            .expect("a parent has child state")
            .record(slot, k, now, born);
    }

    /// Records one request for dense index `k` served by this node.
    ///
    /// # Panics
    ///
    /// Panics if the node holds no slot for `k`: only the home server
    /// and an allocation serve.
    #[inline]
    pub(super) fn record_served(&mut self, k: u32, now: f64) {
        let at = self.slot_at(k).expect("a server holds a slot");
        let window = self.window;
        self.slot_cell(at).served.record(now, window, METER_ALPHA);
    }

    /// Rolls the node's live `seen` meters to `now`.
    pub(super) fn roll_seen(&mut self, now: f64) {
        let window = self.window;
        for cell in self.seen.of_mut(self.spans[self.row].seen) {
            cell.roll_live(now, window, METER_ALPHA);
        }
    }

    /// Smoothed rate of all requests for `k` seen at this node.
    #[inline]
    pub(super) fn seen_rate(&self, k: u32) -> f64 {
        let run = self.spans[self.row].seen;
        if k < run.len {
            self.seen.cell(run, k as usize).rate_or_zero()
        } else {
            0.0
        }
    }

    /// Smoothed rate this node serves `k` at.
    #[inline]
    pub(super) fn served_rate(&self, k: u32) -> f64 {
        let run = self.spans[self.row].slots;
        self.slot_at(k)
            .map_or(0.0, |at| self.slots.cell(run, at).served.rate_or_zero())
    }

    /// The node's served documents with a positive rate, `(index, rate)`
    /// by ascending index, into `out` (cleared first).
    pub(super) fn served_rates(&self, out: &mut Vec<(u32, f64)>) {
        out.clear();
        let run = self.slots.of(self.spans[self.row].slots);
        for (k, slot) in members(self.set_words(SLOTTED)).zip(run) {
            let rate = slot.served.rate_or_zero();
            if rate > 0.0 {
                out.push((k, rate));
            }
        }
    }

    /// The node's served documents by descending rate, ties by
    /// ascending index (see [`sort_hottest_first`]).
    pub(super) fn served_doc_rates(&self, out: &mut Vec<(u32, f64)>) {
        self.served_rates(out);
        sort_hottest_first(out);
    }

    /// The measured load of the node: its served rate over the rolling
    /// window (see [`NodeSlab::measured_load`]).
    pub fn measured_load(&mut self, now: f64) -> f64 {
        let run = self.slots.of_mut(self.spans[self.row].slots);
        load_of(run, self.docs, self.window, now)
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
/// equal when every live field is, bit for bit: every document's `seen`,
/// `flows` and served meter, held or not, and the buckets of
/// [`Set::Alloc`].
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    /// The node's scalars.
    pub head: &'a NodeHead,
    docs: usize,
    words: &'a [u64],
    /// The node's `seen` run: per-doc meters of all requests seen at
    /// this node (own + children), up to the highest it recorded.
    seen: &'a [MeterCell],
    born: &'a [f64],
    /// The node's serve slots, in document order.
    slots: &'a [ServeSlot],
    /// Arrival streams, one per demand stream.
    pub streams: &'a [StreamCell],
    /// Each stream's pending arrival as a packed `(time, seq)` key
    /// ([`NO_KEY`] for a zero-rate stream).
    pub next: &'a [u128],
}

impl<'a> NodeRef<'a> {
    fn set_words(&self, set: usize) -> &'a [u64] {
        let per_set = self.words.len() / SETS;
        &self.words[set * per_set..(set + 1) * per_set]
    }

    /// Members of `set`, ascending.
    pub fn members(&self, set: Set) -> impl Iterator<Item = u32> + 'a {
        let docs = self.docs as u32;
        members(self.set_words(set as usize)).filter(move |&k| k < docs)
    }

    /// The node's slot for `k`, if it holds one.
    fn slot(&self, k: u32) -> Option<&'a ServeSlot> {
        let words = self.set_words(SLOTTED);
        (words[(k / 64) as usize] >> (k % 64) & 1 == 1).then(|| &self.slots[rank(words, k)])
    }

    /// The meter of what this node served of `k`: its slot's, or — for
    /// a document it never allocated or served — the meter it would
    /// hold had it kept one for every document.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the universe.
    pub fn served(&self, k: u32) -> MeterCell {
        assert!((k as usize) < self.docs, "doc index out of universe");
        self.slot(k).map_or_else(
            || self.head.cold_meter(self.born[k as usize]),
            |slot| slot.served,
        )
    }

    /// The meter of all requests for `k` seen at this node: its run's,
    /// or — past the run — the cold meter it would hold had it kept one
    /// for every document.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the universe.
    pub fn seen(&self, k: u32) -> MeterCell {
        assert!((k as usize) < self.docs, "doc index out of universe");
        self.seen
            .get(k as usize)
            .copied()
            .unwrap_or_else(|| self.head.cold_meter(self.born[k as usize]))
    }

    /// The meter of requests for `k` forwarded by child slot `slot`: the
    /// child grid's, or — past the grid — the cold meter it would hold
    /// had it kept one for every document.
    ///
    /// # Panics
    ///
    /// Panics on a leaf, or if `slot` or `k` is out of range.
    pub fn flow(&self, slot: usize, k: u32) -> MeterCell {
        assert!((k as usize) < self.docs, "doc index out of universe");
        let kids = self.kids().expect("a parent has child state");
        kids.cell(slot, k, self.born)
    }

    /// The live token bucket of `k`: `None` unless `k` is in
    /// [`Set::Alloc`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the universe.
    pub fn bucket(&self, k: u32) -> Option<&'a TokenBucket> {
        assert!((k as usize) < self.docs, "doc index out of universe");
        let alloc = self.set_words(Set::Alloc as usize);
        let live = alloc[(k / 64) as usize] >> (k % 64) & 1 == 1;
        live.then(|| &self.slot(k).expect("an allocation holds a slot").bucket)
    }

    /// Size of the document universe the row covers.
    pub fn docs(&self) -> usize {
        self.docs
    }

    /// The per-child state; `None` for a leaf.
    pub fn kids(&self) -> Option<&'a ChildState> {
        self.head.kids.as_deref()
    }

    fn served_cells(&self) -> impl Iterator<Item = MeterCell> + '_ {
        (0..self.docs as u32).map(|k| self.served(k))
    }

    fn seen_cells(&self) -> impl Iterator<Item = MeterCell> + '_ {
        (0..self.docs as u32).map(|k| self.seen(k))
    }

    /// Every child slot's `flows` meters, one row after the other.
    fn flow_rows(&self) -> impl Iterator<Item = Vec<MeterCell>> + '_ {
        let slots = self.kids().map_or(0, ChildState::slots);
        (0..slots).map(|slot| (0..self.docs as u32).map(|k| self.flow(slot, k)).collect())
    }

    /// The children's load estimates, by child slot.
    fn child_est(&self) -> Vec<Option<f64>> {
        self.kids()
            .map_or_else(Vec::new, |k| (0..k.slots()).map(|s| k.est(s)).collect())
    }

    fn live_buckets(&self) -> impl Iterator<Item = (u32, TokenBucket)> + '_ {
        self.members(Set::Alloc)
            .map(|k| (k, *self.bucket(k).expect("a member")))
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
            && self.seen_cells().eq(other.seen_cells())
            && self.served_cells().eq(other.served_cells())
            && self.live_buckets().eq(other.live_buckets())
            && self.streams == other.streams
            && self.next == other.next
            && self.kids().is_some() == other.kids().is_some()
            && self.child_est() == other.child_est()
            && self.flow_rows().eq(other.flow_rows())
    }
}

/// Every field, floats in their shortest round-trip form — equal
/// renderings are equal bits — bar the pending-arrival keys: their
/// sequence halves belong to the hosting shard's calendar (a migration
/// redraws them, as it does the timer fires'), so they are compared as
/// keys, through [`NodeRef::next`]. `seen`, served and `flows` meters
/// are rendered for every document, buckets for the live allocations.
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
            .field("seen", &self.seen_cells().collect::<Vec<_>>())
            .field("served", &self.served_cells().collect::<Vec<_>>())
            .field("buckets", &self.live_buckets().collect::<Vec<_>>())
            .field("streams", &self.streams)
            .field("flows", &self.flow_rows().collect::<Vec<_>>())
            .field("child_est", &self.child_est())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_head_is_fifteen_words() {
        // The fixed per-node cost the layout table in
        // `docs/architecture.md` quotes, with the row's 24-byte spans;
        // a leaf owns nothing else, a document it records costs a
        // 24-byte `seen` cell, a served document a 48-byte slot (bucket
        // and meter), a stream a 32-byte cell (its generator alone) and
        // a 16-byte key, and a child its parent a 16-byte slot beside
        // its `flows` row.
        assert_eq!(std::mem::size_of::<NodeHead>(), 120);
        assert_eq!(std::mem::size_of::<Spans>(), 24);
        assert_eq!(std::mem::size_of::<ServeSlot>(), 48);
        assert_eq!(std::mem::size_of::<ChildState>(), 80);
        assert_eq!(std::mem::size_of::<ChildSlot>(), 16);
        assert_eq!(std::mem::size_of::<MeterCell>(), 24);
        assert_eq!(std::mem::size_of::<TokenBucket>(), 24);
        assert_eq!(std::mem::size_of::<StreamCell>(), 32);
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
