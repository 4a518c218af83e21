//! The production event calendar: a k-way merge of sorted sources.
//!
//! [`RadixQueue`] is a drop-in alternative to the comparison-based
//! [`EventQueue`](crate::EventQueue) (both implement [`SimQueue`]; the
//! property tests in `tests/radix_parity.rs` pin the two pop-for-pop
//! identical). An event's `(time, seq)` key is packed into one 128-bit
//! integer — the time's IEEE-754 bits above the sequence number, an
//! order-preserving encoding for the non-negative finite times
//! [`SimTime`] guarantees — and `pop` returns the smallest key held by
//! any of its sources. A packet-level simulation has three classes of
//! pending events, and each gets the cheapest structure that keeps it
//! sorted:
//!
//! * **periodic** (per-node gossip and diffusion timers) live outside
//!   this queue, in a [`TimerRing`](crate::TimerRing) per stream: a
//!   fixed rotation, nothing to sort. The driver merges ring fronts with
//!   [`SimQueue::peek_entry`] by the same `(time, seq)` key.
//! * **in-order** (messages over constant-latency links, scheduled at
//!   `now + delay` or at `now`): the clock never runs backwards and
//!   sequence numbers only grow, so a producer that always adds the same
//!   delay emits keys already sorted. [`SimQueue::schedule_in_order`]
//!   appends such an event to one of two FIFO **lanes**; popping a lane
//!   is a `pop_front`.
//! * **irregular** (one head per node's row of pending Poisson
//!   arrivals — the packet driver keeps every stream's next arrival as
//!   a packed key ([`key_of`]) in the node's row and exposes only the
//!   row's earliest under that stream's own key — and keyed cross-shard
//!   inbound messages spilled at a barrier) go through
//!   [`SimQueue::schedule`] / [`SimQueue::schedule_keyed`] into the
//!   **radix heap** below, the only source that sorts.
//!
//! # Lanes
//!
//! A lane admits an event when its back entry's *time* is `<=` the new
//! event's time (first lane that fits wins). Equal times must be
//! admitted — a gossip fire sends to every neighbour at one timestamp,
//! and on `<` each such burst would spill into the next lane and then
//! into the radix heap. Time alone decides because the sequence number
//! is allocated inside the call and therefore exceeds every one already
//! in the lane, so `back.time <= time` implies `back.key < key`: a lane
//! is sorted by construction. An event that fits no lane is sorted the
//! old way, by the radix heap. The hint can therefore never be wrong,
//! only useless: a caller that hints out-of-order events pays the radix
//! price for them and gets the same pop order. Two lanes are enough for
//! the two delays the protocol uses (`link_delay` and zero); the count
//! and the chunk size are constants, not knobs.
//!
//! Lanes are stored as fixed 1024-entry ring chunks with at most
//! one emptied chunk kept per lane, so their footprint follows their
//! occupancy and growth never copies.
//!
//! # The radix heap
//!
//! A **monotone radix heap**: entries live in buckets indexed by the
//! position of the highest bit in which their key differs from the last
//! key the heap normalized at (`last`). A discrete-event simulation pops
//! in non-decreasing key order, which is exactly the monotone access
//! pattern radix heaps exploit:
//!
//! * **push** is O(1) — one comparison-free bucket index (a `xor` and a
//!   `leading_zeros`) and a `Vec::push`;
//! * **pop** takes from bucket 0 (which holds the minimum by
//!   invariant); when bucket 0 empties, the smallest non-empty bucket —
//!   found through a bitmask of possibly-non-empty buckets — is
//!   redistributed against its own minimum, moving every entry to a
//!   strictly lower bucket. Each entry can move at most 128 times over
//!   its lifetime, so pops are O(1) amortized for the near-monotone
//!   PDES pattern instead of the `BinaryHeap`'s O(log n) comparisons
//!   with cache-hostile sift paths.
//!
//! The classic radix-heap precondition (never insert below the last
//! extracted key) is *relaxed* here: a key at or below `last` simply
//! joins bucket 0, whose minimum is tracked. A conservative PDES needs
//! that corner — an inbound cross-shard event may carry a
//! content-derived tie-break key smaller than a same-timestamp key the
//! shard already popped — and such stragglers are rare and time-equal,
//! so bucket 0 stays a handful of entries. To keep that guarantee
//! against hostile fill orders (the pivot seeds from the *first*
//! insert, so a burst of earlier keys would otherwise pile up in
//! bucket 0 and degrade pops to a linear scan), an insert that grows
//! bucket 0 past a small constant triggers a full **rebase**: the
//! pivot drops to the heap's minimum and every entry is re-indexed.
//! A rebase is O(n), but each one must be preceded by a threshold's
//! worth of below-pivot inserts and leaves the pivot at the true
//! minimum, so a random fill pays a geometric handful of them and
//! steady-state churn pays none. The pivot belongs to the heap alone:
//! lane pops do not move it, and "insert into empty rebases the pivot"
//! means the *heap* is empty, whatever the lanes hold.
//!
//! # Example
//!
//! ```
//! use ww_sim::{RadixQueue, SimQueue, SimTime};
//!
//! let mut q = RadixQueue::new();
//! q.schedule(SimTime::from_secs(2.0), "late");
//! q.schedule_in_order(SimTime::from_secs(1.0), "early");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t.as_secs(), e), (1.0, "early"));
//! assert_eq!(q.lane_stats().admitted, 1);
//! ```

use crate::{SimQueue, SimTime};
use std::collections::VecDeque;

/// Bucket count: index 0 for keys at or below the pivot, plus one
/// bucket per possible highest-differing-bit position of a 128-bit key.
const BUCKETS: usize = 129;

/// Bucket-0 stragglers tolerated before a full rebase. Small enough to
/// keep the bucket-0 minimum scan O(1), large enough that the O(n)
/// rebase stays rare (each one needs this many below-pivot inserts).
const BUCKET0_REBASE: usize = 64;

/// Largest emptied bucket buffer, in entries, that a redistribution
/// keeps for the bucket's next fill instead of freeing it.
const RETAIN_ENTRIES: usize = 1024;

/// FIFO lanes for in-order events: one per constant delay the protocol
/// schedules with (`link_delay` and zero).
const LANES: usize = 2;

/// Entries per lane chunk.
const CHUNK: usize = 1024;

/// The key of an empty source — and, for a caller that stores packed
/// keys of its own, of "nothing pending". No event can carry it: its
/// time half is a NaN bit pattern, which [`SimTime`] rejects.
pub const NO_KEY: u128 = u128::MAX;

/// Packs `(time, seq)` into one radix key. For non-negative finite
/// `f64`, `to_bits` is strictly monotone, so integer comparison of the
/// packed key equals lexicographic `(time, seq)` comparison.
#[inline]
pub fn key_of(at: SimTime, seq: u64) -> u128 {
    ((at.as_secs().to_bits() as u128) << 64) | seq as u128
}

/// Unpacks the time half of a radix key (the sequence number is the
/// low 64 bits: `key as u64`).
#[inline]
pub fn time_of(key: u128) -> SimTime {
    SimTime::from_secs(f64::from_bits((key >> 64) as u64))
}

/// Counters of a queue's in-order lanes — the input property the lanes
/// depend on (what share of the traffic really is in order), and the
/// occupancy each side reached. Bumped on the push path only; the pop
/// path pays nothing. Observation only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// In-order-hinted events a lane admitted.
    pub admitted: u64,
    /// In-order-hinted events that fit no lane and were radix-sorted.
    pub fell_back: u64,
    /// Most entries the lanes held together.
    pub lane_high_water: u64,
    /// Most entries the radix heap held.
    pub radix_high_water: u64,
    /// Entries the lanes hold right now (read at report time).
    pub lane_len: u64,
}

/// One FIFO of `(key, event)` entries, sorted by key because every push
/// is checked against the back.
#[derive(Debug)]
struct Lane<E> {
    /// Ring chunks of capacity [`CHUNK`], oldest first. Only the front
    /// chunk may be partly consumed and only the back one partly
    /// filled; an empty chunk exists only as the sole chunk.
    chunks: VecDeque<VecDeque<(u128, E)>>,
    /// The last chunk emptied, kept for the next one needed.
    spare: Option<VecDeque<(u128, E)>>,
    len: usize,
    /// Key of the front entry; [`NO_KEY`] when empty.
    front: u128,
    /// Key of the back entry; `0` when empty, so an empty lane admits
    /// any key.
    back: u128,
}

impl<E> Default for Lane<E> {
    fn default() -> Self {
        Lane {
            chunks: VecDeque::new(),
            spare: None,
            len: 0,
            front: NO_KEY,
            back: 0,
        }
    }
}

impl<E> Lane<E> {
    /// Whether an event at the time half of `key`, under a sequence
    /// number newer than every one in the lane, keeps the lane sorted.
    fn admits(&self, key: u128) -> bool {
        self.back >> 64 <= key >> 64
    }

    fn push(&mut self, key: u128, event: E) {
        debug_assert!(self.len == 0 || self.back < key, "lane out of order");
        if self.chunks.back().is_none_or(|c| c.len() == CHUNK) {
            let chunk = self
                .spare
                .take()
                .unwrap_or_else(|| VecDeque::with_capacity(CHUNK));
            self.chunks.push_back(chunk);
        }
        self.chunks
            .back_mut()
            .expect("a back chunk with room was just ensured")
            .push_back((key, event));
        if self.len == 0 {
            self.front = key;
        }
        self.back = key;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(u128, E)> {
        let chunk = self.chunks.front_mut()?;
        let entry = chunk.pop_front()?;
        if chunk.is_empty() && self.chunks.len() > 1 {
            let emptied = self.chunks.pop_front();
            if self.spare.is_none() {
                self.spare = emptied;
            }
        }
        self.len -= 1;
        match self.chunks.front().and_then(|c| c.front()) {
            Some(&(key, _)) => self.front = key,
            None => (self.front, self.back) = (NO_KEY, 0),
        }
        Some(entry)
    }

    /// Passes every entry, front to back, through `f` and keeps the
    /// `Some`s in order under their old keys, re-packed into the lane's
    /// own chunks.
    fn retain_map(&mut self, mut f: impl FnMut(u128, E) -> Option<E>) {
        let old = std::mem::take(&mut self.chunks);
        (self.len, self.front, self.back) = (0, NO_KEY, 0);
        for mut chunk in old {
            for (key, event) in chunk.drain(..) {
                if let Some(event) = f(key, event) {
                    self.push(key, event);
                }
            }
            self.spare.get_or_insert(chunk);
        }
    }
}

/// A k-way merge of a monotone radix heap and two in-order lanes over
/// `(time, seq)` keys — see the module docs.
///
/// Implements the same contract as [`EventQueue`](crate::EventQueue)
/// (the property tests in `tests/radix_parity.rs` pin the two
/// pop-for-pop identical), trading the heap's comparison sorting for
/// radix bucketing that is O(1) amortized on near-monotone schedules,
/// and for no sorting at all on events scheduled in key order.
#[derive(Debug)]
pub struct RadixQueue<E> {
    /// `buckets[0]`: keys `<= last` (holds the heap's minimum).
    /// `buckets[b]` for `b >= 1`: keys whose highest bit differing from
    /// `last` is bit `b - 1`.
    buckets: Vec<Vec<(u128, E)>>,
    /// Bit `b - 1` is set when `buckets[b]` may be non-empty: set on
    /// push, cleared when [`RadixQueue::normalize`] finds or leaves the
    /// bucket empty.
    occupied: u128,
    /// The pivot: the key the heap last normalized at. Non-decreasing
    /// while the heap is non-empty; rebased on insert-into-empty.
    last: u128,
    /// Entries in the buckets (the lanes count their own).
    radix_len: usize,
    /// Minimum key of bucket 0 and its index there; `NO_KEY` when the
    /// heap is empty.
    radix_min: (u128, usize),
    lanes: [Lane<E>; LANES],
    seq: u64,
    now: SimTime,
    processed: u64,
    stats: LaneStats,
}

impl<E> Default for RadixQueue<E> {
    fn default() -> Self {
        RadixQueue {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: 0,
            last: 0,
            radix_len: 0,
            radix_min: (NO_KEY, 0),
            lanes: std::array::from_fn(|_| Lane::default()),
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            stats: LaneStats::default(),
        }
    }
}

impl<E> RadixQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        RadixQueue::default()
    }

    /// The sequence number the next [`SimQueue::alloc_seq`] will hand
    /// out.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// The radix heap's smallest entry as `(packed key, event)`, in
    /// O(1) — the cached bucket-0 minimum, lanes ignored; its key is
    /// never below [`SimQueue::peek_entry`]'s. A caller that schedules
    /// only one kind of event through [`SimQueue::schedule`] /
    /// [`SimQueue::schedule_keyed`] — the packet driver's arrival heads,
    /// between barriers — learns the next such event before it is due.
    #[inline]
    pub fn peek_radix(&self) -> Option<(u128, &E)> {
        let (key, at) = self.radix_min;
        (key != NO_KEY).then(|| (key, &self.buckets[0][at].1))
    }

    /// Every pending entry as `(packed key, event)`, in no particular
    /// order — a read-only walk for invariant checks.
    pub fn entries(&self) -> impl Iterator<Item = (u128, &E)> {
        let lanes = self
            .lanes
            .iter()
            .flat_map(|lane| lane.chunks.iter().flatten());
        self.buckets
            .iter()
            .flatten()
            .chain(lanes)
            .map(|(key, event)| (*key, event))
    }

    /// Files `(key, event)` under the bucket the current pivot assigns
    /// it, returning that bucket's index.
    fn place(&mut self, key: u128, event: E) -> usize {
        let b = if key <= self.last {
            0
        } else {
            // key != last, so the xor is non-zero: index in 1..=128.
            let b = 128 - (key ^ self.last).leading_zeros() as usize;
            self.occupied |= 1 << (b - 1);
            b
        };
        self.buckets[b].push((key, event));
        b
    }

    /// Inserts into the radix heap.
    fn insert(&mut self, key: u128, event: E) {
        if self.radix_len == 0 {
            // Rebase the pivot so the newcomer lands in bucket 0 and
            // the min-in-bucket-0 invariant holds trivially.
            self.last = key;
        }
        self.radix_len += 1;
        self.stats.radix_high_water = self.stats.radix_high_water.max(self.radix_len as u64);
        if self.place(key, event) == 0 {
            if key < self.radix_min.0 {
                self.radix_min = (key, self.buckets[0].len() - 1);
            }
            if self.buckets[0].len() > BUCKET0_REBASE {
                self.rebase();
            }
        }
    }

    /// Drops the pivot to the heap's minimum and re-indexes every
    /// entry. O(n), triggered only when below-pivot inserts have grown
    /// bucket 0 past [`BUCKET0_REBASE`] — afterwards the pivot *is* the
    /// minimum, so bucket 0 shrinks back to the min entry alone.
    fn rebase(&mut self) {
        // Every bucket above 0 holds keys strictly above the pivot, so
        // the heap's minimum lives in bucket 0.
        let min = self.radix_min.0;
        if min == self.last {
            // Nothing would move (duplicate-key pile-up at the pivot);
            // re-indexing would loop the overflow check forever.
            return;
        }
        self.last = min;
        let mut drained: Vec<(u128, E)> = Vec::with_capacity(self.radix_len);
        for bucket in &mut self.buckets {
            drained.append(bucket);
        }
        self.occupied = 0;
        for (key, event) in drained {
            self.place(key, event);
        }
        self.refresh_radix_min();
    }

    /// Restores the invariant "bucket 0 is non-empty whenever the heap
    /// is": finds the smallest non-empty bucket, rebases the pivot to
    /// its minimum key, and redistributes — every entry moves to a
    /// strictly lower bucket (the minimum itself to bucket 0), which is
    /// what makes pops O(1) amortized.
    fn normalize(&mut self) {
        if self.radix_len == 0 || !self.buckets[0].is_empty() {
            return;
        }
        let b = loop {
            assert!(
                self.occupied != 0,
                "a non-empty heap with bucket 0 empty has a marked bucket"
            );
            let b = self.occupied.trailing_zeros() as usize + 1;
            // Redistribution below refills only lower buckets, so the
            // mark comes off either way.
            self.occupied &= self.occupied - 1;
            if !self.buckets[b].is_empty() {
                break b;
            }
        };
        let min = self.buckets[b]
            .iter()
            .map(|&(k, _)| k)
            .min()
            .expect("bucket is non-empty");
        // Every key in the bucket exceeds the old pivot, so the new
        // pivot only grows.
        self.last = min;
        let mut drained = std::mem::take(&mut self.buckets[b]);
        for (key, event) in drained.drain(..) {
            let nb = self.place(key, event);
            debug_assert!(nb < b, "redistribution must strictly descend");
        }
        // The low buckets fill and empty every few pops: they keep
        // their small buffers, or the event loop would allocate about
        // once per event. Big buffers go back to the allocator, so the
        // heap's footprint stays near one copy of its contents (at
        // most `BUCKETS * RETAIN_ENTRIES` spare entries).
        if drained.capacity() <= RETAIN_ENTRIES {
            self.buckets[b] = drained;
        }
    }

    /// Recomputes the cached bucket-0 minimum by scanning bucket 0.
    fn refresh_radix_min(&mut self) {
        self.radix_min = self.buckets[0]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(k, _))| k)
            .map_or((NO_KEY, 0), |(i, &(k, _))| (k, i));
    }

    /// The smallest pending key and its source — a lane index, or
    /// [`LANES`] for the radix heap. The key is [`NO_KEY`] when the
    /// queue is empty.
    fn min_source(&self) -> (u128, usize) {
        let mut best = (self.radix_min.0, LANES);
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.front < best.0 {
                best = (lane.front, i);
            }
        }
        best
    }

    /// One in-place pass over every pending entry — buckets in index
    /// order, then lanes front to back: `f` keeps (possibly rewritten)
    /// or removes each. An entry's bucket depends only on its key and
    /// the pivot, and a lane's order only on its keys; none of those
    /// change, so survivors stay where they are. Each bucket drains
    /// through one scratch list and takes its survivors straight back
    /// into its own buffer — no queue-sized copy, and a barrier sweep
    /// that drops almost everything (stale arrivals) moves almost
    /// nothing.
    fn sweep(&mut self, mut f: impl FnMut(u128, E) -> Option<E>) {
        let mut kept: Vec<(u128, E)> = Vec::new();
        self.radix_len = 0;
        for bucket in &mut self.buckets {
            for (key, event) in bucket.drain(..) {
                if let Some(event) = f(key, event) {
                    kept.push((key, event));
                }
            }
            bucket.append(&mut kept);
            self.radix_len += bucket.len();
        }
        for lane in &mut self.lanes {
            lane.retain_map(&mut f);
        }
        self.normalize();
        self.refresh_radix_min();
    }

    /// Entries held by the lanes together.
    fn lanes_len(&self) -> usize {
        self.lanes.iter().map(|lane| lane.len).sum()
    }

    #[inline]
    fn assert_not_past(&self, at: SimTime) {
        if at < self.now {
            scheduled_in_the_past(at, self.now);
        }
    }
}

/// The panic of `RadixQueue::assert_not_past`, kept out of line so the
/// check costs one compare and one branch where it inlines.
#[cold]
#[inline(never)]
fn scheduled_in_the_past(at: SimTime, now: SimTime) -> ! {
    panic!("cannot schedule at {at} before current time {now}")
}

impl<E> SimQueue<E> for RadixQueue<E> {
    fn schedule(&mut self, at: SimTime, event: E) {
        self.assert_not_past(at);
        let seq = SimQueue::<E>::alloc_seq(self);
        self.insert(key_of(at, seq), event);
    }

    fn schedule_in_order(&mut self, at: SimTime, event: E) {
        self.assert_not_past(at);
        let seq = SimQueue::<E>::alloc_seq(self);
        let key = key_of(at, seq);
        match self.lanes.iter_mut().find(|lane| lane.admits(key)) {
            Some(lane) => {
                lane.push(key, event);
                self.stats.admitted += 1;
                self.stats.lane_high_water =
                    self.stats.lane_high_water.max(self.lanes_len() as u64);
            }
            None => {
                self.stats.fell_back += 1;
                self.insert(key, event);
            }
        }
    }

    fn schedule_after(&mut self, delay: SimTime, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    fn schedule_keyed(&mut self, at: SimTime, seq: u64, event: E) {
        self.assert_not_past(at);
        self.insert(key_of(at, seq), event);
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn peek_entry(&self) -> Option<(SimTime, u64)> {
        let (key, _) = self.min_source();
        (key != NO_KEY).then(|| (time_of(key), key as u64))
    }

    fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "cannot advance to {t} before current time {}",
            self.now
        );
        self.now = t;
        self.processed += 1;
    }

    fn fast_forward(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, source) = self.min_source();
        if key == NO_KEY {
            return None;
        }
        let (_, event) = if source < LANES {
            self.lanes[source].pop().expect("a lane with a front key")
        } else {
            let entry = self.buckets[0].swap_remove(self.radix_min.1);
            self.radix_len -= 1;
            self.normalize();
            self.refresh_radix_min();
            entry
        };
        let at = time_of(key);
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn len(&self) -> usize {
        self.radix_len + self.lanes_len()
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn lane_stats(&self) -> LaneStats {
        LaneStats {
            lane_len: self.lanes_len() as u64,
            ..self.stats
        }
    }

    fn filter_map_events(&mut self, mut f: impl FnMut(E) -> Option<E>) {
        self.sweep(|_, event| f(event));
    }

    fn extract_events(&mut self, mut f: impl FnMut(&E) -> bool) -> Vec<(SimTime, u64, E)> {
        // Matching entries leave the queue entirely, carrying their
        // packed keys out so the caller can replay them in delivery
        // order. The low 64 key bits are the seq, matching `peek_entry`.
        let mut extracted: Vec<(u128, E)> = Vec::new();
        self.sweep(|key, event| {
            if f(&event) {
                extracted.push((key, event));
                None
            } else {
                Some(event)
            }
        });
        // Radix keys order exactly as (time, seq) for the non-negative
        // monotone times this queue accepts.
        extracted.sort_unstable_by_key(|&(key, _)| key);
        extracted
            .into_iter()
            .map(|(key, event)| (time_of(key), key as u64, event))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = RadixQueue::new();
        q.schedule(SimTime::from_secs(3.0), 'c');
        q.schedule(SimTime::from_secs(1.0), 'a');
        q.schedule(SimTime::from_secs(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut q = RadixQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = RadixQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut q = RadixQueue::new();
        q.schedule(SimTime::from_secs(2.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn keyed_straggler_below_the_pivot_still_pops_first() {
        // The relaxed-monotonicity corner: after popping a high
        // tie-break key, an insert at the same time with a *lower* key
        // (a cross-shard message with a smaller content-derived key)
        // must still come out before later times.
        let mut q = RadixQueue::new();
        let t = SimTime::from_secs(1.0);
        q.schedule_keyed(t, 1 << 60, "high");
        q.schedule(SimTime::from_secs(2.0), "later");
        assert_eq!(q.pop().unwrap().1, "high");
        q.schedule_keyed(t, 7, "straggler");
        assert_eq!(q.pop().unwrap().1, "straggler");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn filter_map_keeps_time_seq_order_of_survivors() {
        let mut q = RadixQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..6 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_secs(0.5), 100);
        q.filter_map_events(|e| (e % 2 == 0).then_some(e * 10));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1000, 0, 20, 40]);
    }

    #[test]
    fn filter_map_does_not_rewind_the_seq_counter() {
        let mut q = RadixQueue::new();
        let t = SimTime::from_secs(1.0);
        q.schedule(t, 'a');
        q.schedule(t, 'b');
        q.filter_map_events(|e| (e == 'b').then_some(e));
        q.schedule(t, 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['b', 'c']);
    }

    #[test]
    fn processed_counter_and_advance() {
        let mut q = RadixQueue::new();
        q.schedule(SimTime::from_secs(1.0), ());
        q.pop();
        q.advance_to(SimTime::from_secs(2.0));
        assert_eq!(q.processed(), 2);
        q.fast_forward(SimTime::from_secs(3.0));
        assert_eq!(q.processed(), 2);
        assert_eq!(q.now(), SimTime::from_secs(3.0));
    }

    #[test]
    fn random_fill_below_first_key_stays_ordered() {
        // The rebase regression: the pivot seeds from the FIRST insert,
        // so a fill whose later keys mostly fall below it used to pile
        // everything into bucket 0 (degrading pops to an O(n) scan).
        // The fill must still pop in exact (time, seq) order, and the
        // rebases it triggers must not disturb that order.
        let mut q = RadixQueue::new();
        let mut lcg = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as f64 / (1u64 << 31) as f64
        };
        // First key near the top of the range, then 2000 random keys —
        // about half land below the pivot, forcing many rebases.
        q.schedule(SimTime::from_secs(0.9), 0u32);
        let mut expect: Vec<(SimTime, u64)> = vec![(SimTime::from_secs(0.9), 0)];
        for i in 1..=2000u32 {
            let t = SimTime::from_secs(step());
            q.schedule(t, i);
            expect.push((t, i as u64));
        }
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        for (t, seq) in expect {
            let (got_t, got_e) = q.pop().expect("queue holds every fill");
            assert_eq!((got_t, got_e as u64), (t, seq));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn long_monotone_churn_stays_ordered() {
        // Hold-and-churn: keep ~256 pending, pop one / push one at
        // now + pseudo-random delay; output times must be sorted.
        let mut q = RadixQueue::new();
        let mut lcg = 1u64;
        let mut step = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..256 {
            let d = step();
            q.schedule(SimTime::from_secs(d), ());
        }
        let mut prev = SimTime::ZERO;
        for _ in 0..10_000 {
            let (t, ()) = q.pop().unwrap();
            assert!(t >= prev);
            prev = t;
            q.schedule(t + SimTime::from_secs(step() + 1e-9), ());
        }
    }
}
