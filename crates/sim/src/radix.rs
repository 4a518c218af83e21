//! A radix-bucketed event queue for near-monotone schedules.
//!
//! [`RadixQueue`] is a drop-in alternative to the comparison-based
//! [`EventQueue`](crate::EventQueue) (both implement
//! [`SimQueue`]) built as a **monotone radix heap**: an
//! event's `(time, seq)` key is packed into one 128-bit integer — the
//! time's IEEE-754 bits above the sequence number, an order-preserving
//! encoding for the non-negative finite times
//! [`SimTime`] guarantees — and pending events live in
//! buckets indexed by the position of the highest bit in which their
//! key differs from the last key the queue normalized at (`last`).
//!
//! A discrete-event simulation pops in non-decreasing key order, which
//! is exactly the monotone access pattern radix heaps exploit:
//!
//! * **push** is O(1) — one comparison-free bucket index (a `xor` and a
//!   `leading_zeros`) and a `Vec::push`;
//! * **pop** takes from bucket 0 (which holds the minimum by
//!   invariant); when bucket 0 empties, the smallest non-empty bucket
//!   is redistributed against its own minimum, moving every entry to a
//!   strictly lower bucket — each entry can move at most 128 times over
//!   its lifetime, so pops are O(1) amortized for the near-monotone
//!   PDES pattern instead of the `BinaryHeap`'s O(log n) comparisons
//!   with cache-hostile sift paths.
//!
//! The classic radix-heap precondition (never insert below the last
//! extracted key) is *relaxed* here: a key at or below `last` simply
//! joins bucket 0, which is scanned linearly at pop. A conservative
//! PDES needs that corner — an inbound cross-shard event may carry a
//! content-derived tie-break key smaller than a same-timestamp key the
//! shard already popped — and such stragglers are rare and time-equal,
//! so the bucket-0 scan stays O(1) in practice. To keep that guarantee
//! against hostile fill orders (the pivot seeds from the *first*
//! insert, so a burst of earlier keys would otherwise pile up in
//! bucket 0 and degrade pops to a linear scan), an insert that grows
//! bucket 0 past a small constant triggers a full **rebase**: the
//! pivot drops to the global minimum and every entry is re-indexed.
//! A rebase is O(n), but each one must be preceded by a threshold's
//! worth of below-pivot inserts and leaves the pivot at the true
//! minimum, so a random fill pays a geometric handful of them and
//! steady-state churn pays none.
//!
//! # Example
//!
//! ```
//! use ww_sim::{RadixQueue, SimQueue, SimTime};
//!
//! let mut q = RadixQueue::new();
//! q.schedule(SimTime::from_secs(2.0), "late");
//! q.schedule(SimTime::from_secs(1.0), "early");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t.as_secs(), e), (1.0, "early"));
//! ```

use crate::{SimQueue, SimTime};

/// Bucket count: index 0 for keys at or below the pivot, plus one
/// bucket per possible highest-differing-bit position of a 128-bit key.
const BUCKETS: usize = 129;

/// Bucket-0 stragglers tolerated before a full rebase. Small enough to
/// keep the per-pop bucket-0 scan O(1), large enough that the O(n)
/// rebase stays rare (each one needs this many below-pivot inserts).
const BUCKET0_REBASE: usize = 64;

/// Largest emptied bucket buffer, in entries, that a redistribution
/// keeps for the bucket's next fill instead of freeing it.
const RETAIN_ENTRIES: usize = 1024;

/// Packs `(time, seq)` into one radix key. For non-negative finite
/// `f64`, `to_bits` is strictly monotone, so integer comparison of the
/// packed key equals lexicographic `(time, seq)` comparison.
fn key_of(at: SimTime, seq: u64) -> u128 {
    ((at.as_secs().to_bits() as u128) << 64) | seq as u128
}

/// Unpacks the time half of a radix key.
fn time_of(key: u128) -> SimTime {
    SimTime::from_secs(f64::from_bits((key >> 64) as u64))
}

/// A monotone radix heap over `(time, seq)` keys — see the module docs.
///
/// Implements the same contract as [`EventQueue`](crate::EventQueue)
/// (the property tests in `tests/radix_parity.rs` pin the two
/// pop-for-pop identical), trading the heap's comparison sorting for
/// radix bucketing that is O(1) amortized on near-monotone schedules.
#[derive(Debug)]
pub struct RadixQueue<E> {
    /// `buckets[0]`: keys `<= last` (holds the minimum; scanned at
    /// pop). `buckets[b]` for `b >= 1`: keys whose highest bit
    /// differing from `last` is bit `b - 1`.
    buckets: Vec<Vec<(u128, E)>>,
    /// The pivot: the key the queue last normalized at. Non-decreasing
    /// while the queue is non-empty; rebased on insert-into-empty.
    last: u128,
    len: usize,
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for RadixQueue<E> {
    fn default() -> Self {
        RadixQueue {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            last: 0,
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }
}

impl<E> RadixQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        RadixQueue::default()
    }

    fn bucket_of(&self, key: u128) -> usize {
        if key <= self.last {
            0
        } else {
            // key != last, so the xor is non-zero: index in 1..=128.
            128 - (key ^ self.last).leading_zeros() as usize
        }
    }

    fn insert(&mut self, key: u128, event: E) {
        if self.len == 0 {
            // Rebase the pivot so the newcomer lands in bucket 0 and
            // the min-in-bucket-0 invariant holds trivially.
            self.last = key;
        }
        let b = self.bucket_of(key);
        self.buckets[b].push((key, event));
        self.len += 1;
        if b == 0 && self.buckets[0].len() > BUCKET0_REBASE {
            self.rebase();
        }
    }

    /// Drops the pivot to the global minimum and re-indexes every
    /// entry. O(n), triggered only when below-pivot inserts have grown
    /// bucket 0 past [`BUCKET0_REBASE`] — afterwards the pivot *is* the
    /// minimum, so bucket 0 shrinks back to the min entry alone and
    /// pops return to the O(1) scan.
    fn rebase(&mut self) {
        // Every bucket above 0 holds keys strictly above the pivot, so
        // the global minimum lives in bucket 0.
        let min = self.buckets[0]
            .iter()
            .map(|&(k, _)| k)
            .min()
            .expect("rebase runs only when bucket 0 overflows");
        if min == self.last {
            // Nothing would move (duplicate-key pile-up at the pivot);
            // re-indexing would loop the overflow check forever.
            return;
        }
        self.last = min;
        let mut drained: Vec<(u128, E)> = Vec::with_capacity(self.len);
        for b in 0..BUCKETS {
            drained.append(&mut self.buckets[b]);
        }
        for (key, event) in drained {
            let nb = self.bucket_of(key);
            self.buckets[nb].push((key, event));
        }
    }

    /// Restores the invariant "bucket 0 is non-empty whenever the queue
    /// is": finds the smallest non-empty bucket, rebases the pivot to
    /// its minimum key, and redistributes — every entry moves to a
    /// strictly lower bucket (the minimum itself to bucket 0), which is
    /// what makes pops O(1) amortized.
    fn normalize(&mut self) {
        if self.len == 0 || !self.buckets[0].is_empty() {
            return;
        }
        let b = (1..BUCKETS)
            .find(|&b| !self.buckets[b].is_empty())
            .expect("len > 0 with bucket 0 empty implies a higher bucket");
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
            let nb = self.bucket_of(key);
            debug_assert!(nb < b, "redistribution must strictly descend");
            self.buckets[nb].push((key, event));
        }
        // The low buckets fill and empty every few pops: they keep
        // their small buffers, or the event loop would allocate about
        // once per event. Big buffers go back to the allocator, so the
        // queue's footprint stays near one copy of its contents (at
        // most `BUCKETS * RETAIN_ENTRIES` spare entries).
        if drained.capacity() <= RETAIN_ENTRIES {
            self.buckets[b] = drained;
        }
    }

    /// Index of the minimum-key entry in bucket 0.
    fn min_in_bucket0(&self) -> Option<usize> {
        self.buckets[0]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(k, _))| k)
            .map(|(i, _)| i)
    }

    fn assert_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule at {at} before current time {}",
            self.now
        );
    }
}

impl<E> SimQueue<E> for RadixQueue<E> {
    fn schedule(&mut self, at: SimTime, event: E) {
        self.assert_not_past(at);
        let seq = SimQueue::<E>::alloc_seq(self);
        self.insert(key_of(at, seq), event);
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
        let i = self.min_in_bucket0()?;
        let (key, _) = self.buckets[0][i];
        Some((time_of(key), key as u64))
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
        let i = self.min_in_bucket0()?;
        let (key, event) = self.buckets[0].swap_remove(i);
        self.len -= 1;
        self.normalize();
        let at = time_of(key);
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn len(&self) -> usize {
        self.len
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn filter_map_events(&mut self, mut f: impl FnMut(E) -> Option<E>) {
        // Bucket by bucket, in place: an entry's bucket depends only on
        // its key and the pivot, and neither changes here, so survivors
        // stay where they are. Each bucket drains through one scratch
        // list and takes its survivors straight back into its own
        // buffer — no queue-sized copy, and a barrier sweep that drops
        // almost everything (stale arrivals) moves almost nothing.
        // `f` sees the events in bucket order, then insertion order.
        let mut kept: Vec<(u128, E)> = Vec::new();
        self.len = 0;
        for bucket in &mut self.buckets {
            for (key, event) in bucket.drain(..) {
                if let Some(event) = f(event) {
                    kept.push((key, event));
                }
            }
            bucket.append(&mut kept);
            self.len += bucket.len();
        }
        self.normalize();
    }

    fn extract_events(&mut self, mut f: impl FnMut(&E) -> bool) -> Vec<(SimTime, u64, E)> {
        // Same drain-and-reinsert shape as `filter_map_events`, but
        // matching entries leave the queue entirely, carrying their
        // packed keys out so the caller can replay them in delivery
        // order. The low 64 key bits are the seq, matching `peek_entry`.
        let mut drained: Vec<(u128, E)> = Vec::with_capacity(self.len);
        for b in 0..BUCKETS {
            drained.append(&mut self.buckets[b]);
        }
        self.len = 0;
        let mut extracted: Vec<(u128, E)> = Vec::new();
        for (key, event) in drained {
            if f(&event) {
                extracted.push((key, event));
            } else {
                self.insert(key, event);
            }
        }
        self.normalize();
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
