//! Property harness pinning [`RadixQueue`] behaviorally identical to
//! the `BinaryHeap`-backed [`EventQueue`] — the correctness argument
//! for swapping the radix queue into the packet engines: if every
//! observable (pop order, clock, length, processed count, peeks) is
//! equal under arbitrary operation scripts, the swap cannot change a
//! simulation by a single bit.

use proptest::prelude::*;
use ww_sim::{EventQueue, RadixQueue, SimQueue, SimTime};

/// One scripted queue operation. Times are offsets quantized to 0.25 s
/// so distinct ops frequently collide on the exact same `f64`
/// timestamp, exercising the tie-break path.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule { slot: u8 },
    ScheduleKeyed { slot: u8, high_key: bool },
    AllocSeq,
    Pop,
    AdvanceTo { slot: u8 },
    FastForward { slot: u8 },
    FilterMap { modulus: u8 },
}

/// Decodes a raw `(selector, slot)` pair into an operation, weighting
/// schedules and pops heavily.
fn decode(selector: u8, slot: u8) -> Op {
    match selector % 16 {
        0..=5 => Op::Schedule { slot },
        6..=7 => Op::ScheduleKeyed {
            slot,
            high_key: selector & 1 == 0,
        },
        8 => Op::AllocSeq,
        9..=12 => Op::Pop,
        13 => Op::AdvanceTo { slot },
        14 => Op::FastForward { slot },
        _ => Op::FilterMap {
            modulus: 2 + slot % 3,
        },
    }
}

/// Runs one op against a queue. `i` (the op index) makes keyed
/// sequence numbers unique: duplicate `(time, seq)` keys would leave
/// even two `BinaryHeap` runs order-ambiguous, and the engines never
/// produce them. The high bit mimics the PDES inbound-message keyspace;
/// `high_key: false` exercises keys *below* previously popped ones (the
/// relaxed-monotonicity corner).
fn apply<Q: SimQueue<u32>>(q: &mut Q, op: Op, i: u64) -> (Option<(u64, u32)>, Option<u64>) {
    let offset = |slot: u8| SimTime::from_secs(slot as f64 * 0.25);
    match op {
        Op::Schedule { slot } => {
            q.schedule(q.now() + offset(slot), i as u32);
            (None, None)
        }
        Op::ScheduleKeyed { slot, high_key } => {
            let seq = if high_key {
                (1 << 63) | i
            } else {
                (1 << 40) | i
            };
            q.schedule_keyed(q.now() + offset(slot), seq, i as u32);
            (None, None)
        }
        Op::AllocSeq => (None, Some(q.alloc_seq())),
        Op::Pop => (q.pop().map(|(t, e)| (t.as_secs().to_bits(), e)), None),
        Op::AdvanceTo { slot } => {
            // Only valid up to the next pending event (the drivers
            // advance to merged timer fires, never past the queue head).
            let t = q.now() + offset(slot);
            let bound = q.peek_time().unwrap_or(t);
            // max(now): a FastForward may have coasted past the head.
            q.advance_to(t.min(bound).max(q.now()));
            (None, None)
        }
        Op::FastForward { slot } => {
            q.fast_forward(q.now() + offset(slot));
            (None, None)
        }
        Op::FilterMap { modulus } => {
            // Drop one residue class and rewrite the rest, like the
            // barrier-time arrival surgery.
            q.filter_map_events(|e| (e % modulus as u32 != 0).then_some(e.wrapping_add(1000)));
            (None, None)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary op scripts: every observable of the two queues stays
    /// equal after every step, and a final full drain pops identical
    /// `(time, event)` streams.
    #[test]
    fn radix_matches_heap_queue(
        raw in proptest::collection::vec((0u8..=255, 0u8..=31), 1..120),
    ) {
        let mut heap: EventQueue<u32> = EventQueue::new();
        let mut radix: RadixQueue<u32> = RadixQueue::new();
        for (i, &(selector, slot)) in raw.iter().enumerate() {
            let op = decode(selector, slot);
            let a = apply(&mut heap, op, i as u64);
            let b = apply(&mut radix, op, i as u64);
            prop_assert_eq!(a, b, "op {:?} diverged", op);
            prop_assert_eq!(heap.now(), SimQueue::<u32>::now(&radix));
            prop_assert_eq!(heap.len(), SimQueue::<u32>::len(&radix));
            prop_assert_eq!(heap.processed(), SimQueue::<u32>::processed(&radix));
            prop_assert_eq!(heap.peek_entry(), SimQueue::<u32>::peek_entry(&radix));
        }
        loop {
            let a = heap.pop();
            let b = SimQueue::<u32>::pop(&mut radix);
            prop_assert_eq!(a.map(|(t, e)| (t.as_secs().to_bits(), e)),
                            b.map(|(t, e)| (t.as_secs().to_bits(), e)));
            if a.is_none() { break; }
        }
    }

    /// Dense tie storm: many events on a tiny quantized time grid, so
    /// almost every pop decides by sequence number alone.
    #[test]
    fn radix_matches_heap_under_tie_storms(
        slots in proptest::collection::vec(0u8..4, 1..200),
    ) {
        let mut heap: EventQueue<u16> = EventQueue::new();
        let mut radix: RadixQueue<u16> = RadixQueue::new();
        for (i, &slot) in slots.iter().enumerate() {
            let t = SimTime::from_secs(slot as f64 * 0.5);
            heap.schedule(t, i as u16);
            radix.schedule(t, i as u16);
        }
        for _ in 0..slots.len() {
            prop_assert_eq!(heap.pop(), SimQueue::<u16>::pop(&mut radix));
        }
    }

    /// Barrier-shaped surgery on a populated queue: a wide fill (many
    /// radix buckets in use), some pops (the pivot has moved), then a
    /// random filter that may drop nearly everything — bucket 0
    /// included — and a refill at the barrier instant. Peeks and the
    /// full drain must stay equal to the heap's.
    #[test]
    fn radix_matches_heap_across_in_place_surgery(
        fill in proptest::collection::vec(0u32..4000, 1..400),
        pops in 0usize..60,
        keep_per_mille in 0u32..1000,
        salt in any::<u32>(),
        refill in proptest::collection::vec(0u32..4000, 0..100),
    ) {
        let mut heap: EventQueue<u32> = EventQueue::new();
        let mut radix: RadixQueue<u32> = RadixQueue::new();
        let at = |ms: u32| SimTime::from_secs(ms as f64 * 1e-3);
        for (i, &ms) in fill.iter().enumerate() {
            heap.schedule(at(ms), i as u32);
            radix.schedule(at(ms), i as u32);
        }
        for _ in 0..pops.min(fill.len()) {
            prop_assert_eq!(heap.pop(), SimQueue::<u32>::pop(&mut radix));
        }
        let survives = |e: u32| {
            let h = (e ^ salt).wrapping_mul(0x9E37_79B9) >> 16;
            (h % 1000 < keep_per_mille).then_some(e + 10_000)
        };
        heap.filter_map_events(survives);
        radix.filter_map_events(survives);
        prop_assert_eq!(heap.len(), SimQueue::<u32>::len(&radix));
        prop_assert_eq!(heap.peek_entry(), SimQueue::<u32>::peek_entry(&radix));
        for (i, &ms) in refill.iter().enumerate() {
            let t = heap.now() + at(ms);
            heap.schedule(t, 20_000 + i as u32);
            radix.schedule(t, 20_000 + i as u32);
        }
        loop {
            let a = heap.pop();
            prop_assert_eq!(a, SimQueue::<u32>::pop(&mut radix));
            if a.is_none() { break; }
        }
    }
}
