//! Property harness pinning [`RadixQueue`] behaviorally identical to
//! the `BinaryHeap`-backed [`EventQueue`] — the correctness argument
//! for swapping the radix queue into the packet engines: if every
//! observable (pop order, clock, length, processed count, peeks,
//! extracted lists) is equal under arbitrary operation scripts, the
//! swap cannot change a simulation by a single bit. `RadixQueue` is a
//! merge of a radix heap and in-order lanes; `EventQueue` ignores the
//! in-order hint, so the scripts also pin "a hint never changes order",
//! whether the hinted times are in order, out of order, or equal.
//!
//! `RadixQueue::peek_radix` is pinned here too: on scripts that never
//! use a lane it names exactly what the next pop returns, and on mixed
//! scripts its key is never below the merged minimum's.
//!
//! Under all of it sits the packed key: `key_of` orders exactly as
//! `(time, seq)` and `time_of` inverts it, for every time a [`SimTime`]
//! can hold — zero, `-0.0`, subnormals and `f64::MAX` included.

use proptest::prelude::*;
use ww_sim::{key_of, time_of, EventQueue, RadixQueue, SimQueue, SimTime};

/// One scripted queue operation. Times are offsets quantized to 0.25 s
/// so distinct ops frequently collide on the exact same `f64`
/// timestamp, exercising the tie-break path.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule {
        slot: u8,
    },
    /// The lane path: `slot` picks `now`, `now` + one fixed delay (ties
    /// and in-order runs, what the two lanes are for), or an arbitrary
    /// offset (out of order: second lane, then the radix fallback).
    ScheduleInOrder {
        slot: u8,
    },
    ScheduleKeyed {
        slot: u8,
        high_key: bool,
    },
    AllocSeq,
    Pop,
    AdvanceTo {
        slot: u8,
    },
    FastForward {
        slot: u8,
    },
    FilterMap {
        modulus: u8,
    },
    Extract {
        modulus: u8,
    },
}

/// Decodes a raw `(selector, slot)` pair into an operation, weighting
/// schedules and pops heavily.
fn decode(selector: u8, slot: u8) -> Op {
    match selector % 24 {
        0..=3 => Op::Schedule { slot },
        4..=10 => Op::ScheduleInOrder { slot },
        11..=12 => Op::ScheduleKeyed {
            slot,
            high_key: selector & 1 == 0,
        },
        13 => Op::AllocSeq,
        14..=19 => Op::Pop,
        20 => Op::AdvanceTo { slot },
        21 => Op::FastForward { slot },
        22 => Op::FilterMap {
            modulus: 2 + slot % 3,
        },
        _ => Op::Extract {
            modulus: 2 + slot % 3,
        },
    }
}

/// What one op let the script observe: a popped `(time bits, event)`,
/// an allocated seq, or an extracted `(time bits, key, event)` list.
type Observed = (Option<(u64, u32)>, Option<u64>, Vec<(u64, u64, u32)>);

/// Runs one op against a queue. `i` (the op index) makes keyed
/// sequence numbers unique: duplicate `(time, seq)` keys would leave
/// even two `BinaryHeap` runs order-ambiguous, and the engines never
/// produce them. The high bit mimics the PDES inbound-message keyspace;
/// `high_key: false` exercises keys *below* previously popped ones (the
/// relaxed-monotonicity corner).
fn apply<Q: SimQueue<u32>>(q: &mut Q, op: Op, i: u64) -> Observed {
    let offset = |slot: u8| SimTime::from_secs(slot as f64 * 0.25);
    let nothing = (None, None, Vec::new());
    match op {
        Op::Schedule { slot } => {
            q.schedule(q.now() + offset(slot), i as u32);
            nothing
        }
        Op::ScheduleInOrder { slot } => {
            // Three quarters of the hinted events use one of two fixed
            // delays (what a lane is for: 0 and 1.0 s); the rest land
            // anywhere, so some fit neither lane and fall back.
            let at = match slot % 8 {
                0..=2 => q.now(),
                3..=5 => q.now() + offset(4),
                _ => q.now() + offset(slot),
            };
            q.schedule_in_order(at, i as u32);
            nothing
        }
        Op::ScheduleKeyed { slot, high_key } => {
            let seq = if high_key {
                (1 << 63) | i
            } else {
                (1 << 40) | i
            };
            q.schedule_keyed(q.now() + offset(slot), seq, i as u32);
            nothing
        }
        Op::AllocSeq => (None, Some(q.alloc_seq()), Vec::new()),
        Op::Pop => (
            q.pop().map(|(t, e)| (t.as_secs().to_bits(), e)),
            None,
            Vec::new(),
        ),
        Op::AdvanceTo { slot } => {
            // Only valid up to the next pending event (the drivers
            // advance to merged timer fires, never past the queue head).
            let t = q.now() + offset(slot);
            let bound = q.peek_time().unwrap_or(t);
            // max(now): a FastForward may have coasted past the head.
            q.advance_to(t.min(bound).max(q.now()));
            nothing
        }
        Op::FastForward { slot } => {
            q.fast_forward(q.now() + offset(slot));
            nothing
        }
        Op::FilterMap { modulus } => {
            // Drop one residue class and rewrite the rest, like the
            // barrier-time arrival surgery.
            q.filter_map_events(|e| (e % modulus as u32 != 0).then_some(e.wrapping_add(1000)));
            nothing
        }
        Op::Extract { modulus } => {
            // Pull one residue class out, like a shard migration; the
            // list must come back in delivery order on both queues.
            let taken = q.extract_events(|e| e % modulus as u32 == 0);
            let taken = taken
                .into_iter()
                .map(|(t, key, e)| (t.as_secs().to_bits(), key, e))
                .collect();
            (None, None, taken)
        }
    }
}

/// Pops both queues dry, demanding identical `(time, event)` streams.
fn drain_equal(heap: &mut EventQueue<u32>, radix: &mut RadixQueue<u32>) {
    loop {
        let a = heap.pop();
        assert_eq!(a, SimQueue::<u32>::pop(radix));
        assert_eq!(heap.len(), SimQueue::<u32>::len(radix));
        if a.is_none() {
            return;
        }
    }
}

/// `peek_radix` as `(packed key, event)`.
fn peeked(radix: &RadixQueue<u32>) -> Option<(u128, u32)> {
    radix.peek_radix().map(|(key, &e)| (key, e))
}

/// The merged minimum's packed key, as `peek_radix` would spell it.
fn entry_key(radix: &RadixQueue<u32>) -> Option<u128> {
    SimQueue::<u32>::peek_entry(radix).map(|(t, seq)| key_of(t, seq))
}

/// On a queue whose lanes are empty: the radix peek is the merged
/// peek, and the next pop returns exactly the peeked event at the
/// peeked key's time.
fn assert_peek_is_next_pop(radix: &mut RadixQueue<u32>) -> Option<(u64, u32)> {
    let peek = peeked(radix);
    assert_eq!(
        peek.map(|p| p.0),
        entry_key(radix),
        "the peek is the minimum"
    );
    let popped = radix.pop().map(|(t, e)| (t.as_secs().to_bits(), e));
    let expected = peek.map(|(key, e)| (time_of(key).as_secs().to_bits(), e));
    assert_eq!(popped, expected, "the peek names the next pop");
    popped
}

/// A finite non-negative `f64` drawn by `kind`: the edges (`0`, `-0`,
/// the smallest subnormal, `f64::MAX`), any subnormal, any finite
/// non-negative bit pattern, or a quarter-second grid point (so two
/// draws often tie and the sequence numbers decide).
fn edge_time(kind: u8, bits: u64) -> f64 {
    match kind % 7 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1),
        3 => f64::MAX,
        4 => f64::from_bits(bits % (1 << 52)),
        5 => f64::from_bits(bits % (f64::MAX.to_bits() + 1)),
        _ => (bits % 8) as f64 * 0.25,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(192))]

    /// The packed key orders exactly as `(time, seq)` — `-0.0` equal to
    /// `0.0` on both sides — and `time_of` returns the stored time bit
    /// for bit, the sequence number sitting in the low 64 bits.
    #[test]
    fn packed_keys_order_as_time_then_seq(
        (ka, a, s) in (0u8..=255, any::<u64>(), any::<u64>()),
        (kb, b, r) in (0u8..=255, any::<u64>(), any::<u64>()),
        tie in any::<bool>(),
    ) {
        let ta = SimTime::from_secs(edge_time(ka, a));
        let tb = SimTime::from_secs(edge_time(kb, b));
        let r = if tie { s } else { r };
        prop_assert_eq!(key_of(ta, s).cmp(&key_of(tb, r)), (ta, s).cmp(&(tb, r)));
        for (t, seq) in [(ta, s), (tb, r)] {
            let key = key_of(t, seq);
            prop_assert_eq!(time_of(key).as_secs().to_bits(), t.as_secs().to_bits());
            prop_assert_eq!(key as u64, seq);
        }
    }

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
            if let Some((key, _)) = peeked(&radix) {
                prop_assert!(Some(key) >= entry_key(&radix), "radix peek below the minimum");
            }
        }
        drain_equal(&mut heap, &mut radix);
    }

    /// Scripts that never use a lane — plain and keyed schedules (keys
    /// below popped ones included), pops, clock moves, both sweeps:
    /// after every step the radix peek is the merged minimum, every pop
    /// returns the event it named, and the heap agrees throughout.
    #[test]
    fn the_radix_peek_names_the_next_pop(
        raw in proptest::collection::vec((0u8..=255, 0u8..=31), 1..160),
    ) {
        let mut heap: EventQueue<u32> = EventQueue::new();
        let mut radix: RadixQueue<u32> = RadixQueue::new();
        for (i, &(selector, slot)) in raw.iter().enumerate() {
            let op = match decode(selector, slot) {
                Op::ScheduleInOrder { slot } => Op::Schedule { slot },
                op => op,
            };
            let a = apply(&mut heap, op, i as u64);
            if let Op::Pop = op {
                prop_assert_eq!(a.0, assert_peek_is_next_pop(&mut radix));
            } else {
                prop_assert_eq!(a, apply(&mut radix, op, i as u64), "op {:?} diverged", op);
            }
            prop_assert_eq!(peeked(&radix).map(|p| p.0), entry_key(&radix));
        }
        prop_assert_eq!(radix.lane_stats().admitted, 0);
        loop {
            let a = heap.pop().map(|(t, e)| (t.as_secs().to_bits(), e));
            prop_assert_eq!(a, assert_peek_is_next_pop(&mut radix));
            if a.is_none() {
                break;
            }
        }
    }

    /// Fills that land below the pivot force rebases (the pivot seeds
    /// from the first insert, and every later key falls below it);
    /// pops then move the pivot through `normalize`, and an in-place
    /// sweep drops and rewrites entries. The peek names every pop.
    #[test]
    fn the_radix_peek_survives_rebases_and_sweeps(
        fill in proptest::collection::vec(0u32..4000, 65..400),
        pops in 0usize..60,
        keep_per_mille in 0u32..1000,
        salt in any::<u32>(),
    ) {
        let mut radix: RadixQueue<u32> = RadixQueue::new();
        let at = |ms: u32| SimTime::from_secs(ms as f64 * 1e-3);
        radix.schedule(at(4000), u32::MAX);
        for (i, &ms) in fill.iter().enumerate() {
            radix.schedule(at(ms), i as u32);
            prop_assert_eq!(peeked(&radix).map(|p| p.0), entry_key(&radix));
        }
        for _ in 0..pops {
            assert_peek_is_next_pop(&mut radix);
        }
        radix.filter_map_events(|e| {
            let h = (e ^ salt).wrapping_mul(0x9E37_79B9) >> 16;
            (h % 1000 < keep_per_mille).then_some(e / 2)
        });
        while assert_peek_is_next_pop(&mut radix).is_some() {}
    }

    /// The lanes on their own: only hinted events (no plain schedule
    /// ever seeds the radix side, so every fallback inserts into an
    /// *empty or lane-shadowed* heap and rebases its pivot while the
    /// lanes hold earlier and later keys), interleaved with pops and
    /// both kinds of surgery.
    #[test]
    fn lanes_match_heap_while_the_radix_side_runs_dry(
        raw in proptest::collection::vec((0u8..=255, 0u8..=31), 1..160),
    ) {
        let mut heap: EventQueue<u32> = EventQueue::new();
        let mut radix: RadixQueue<u32> = RadixQueue::new();
        for (i, &(selector, slot)) in raw.iter().enumerate() {
            let op = match selector % 16 {
                0..=8 => Op::ScheduleInOrder { slot },
                9..=13 => Op::Pop,
                14 => Op::FilterMap { modulus: 2 + slot % 3 },
                _ => Op::Extract { modulus: 2 + slot % 3 },
            };
            let a = apply(&mut heap, op, i as u64);
            let b = apply(&mut radix, op, i as u64);
            prop_assert_eq!(a, b, "op {:?} diverged", op);
            prop_assert_eq!(heap.len(), SimQueue::<u32>::len(&radix));
            prop_assert_eq!(heap.peek_entry(), SimQueue::<u32>::peek_entry(&radix));
            if let Some((key, _)) = peeked(&radix) {
                prop_assert!(Some(key) >= entry_key(&radix), "radix peek below the minimum");
            }
        }
        let stats = radix.lane_stats();
        let hinted = raw.iter().filter(|&&(s, _)| s % 16 <= 8).count() as u64;
        prop_assert_eq!(stats.admitted + stats.fell_back, hinted);
        drain_equal(&mut heap, &mut radix);
    }

    /// Every hinted event falls back: strictly decreasing times fit no
    /// lane after the first two, so the lanes hold one entry each and
    /// the radix heap sorts the rest — the hint is useless, the order
    /// is still exact.
    #[test]
    fn a_wrong_hint_costs_speed_not_order(
        steps in proptest::collection::vec(1u32..50, 3..120),
    ) {
        let mut heap: EventQueue<u32> = EventQueue::new();
        let mut radix: RadixQueue<u32> = RadixQueue::new();
        let mut ms: u32 = steps.iter().sum::<u32>() + 1;
        for (i, &step) in steps.iter().enumerate() {
            ms -= step;
            let t = SimTime::from_secs(ms as f64 * 1e-3);
            heap.schedule_in_order(t, i as u32);
            radix.schedule_in_order(t, i as u32);
        }
        let stats = radix.lane_stats();
        prop_assert_eq!(stats.admitted, 2);
        prop_assert_eq!(stats.fell_back, steps.len() as u64 - 2);
        prop_assert_eq!(stats.lane_high_water, 2);
        prop_assert_eq!(stats.radix_high_water, steps.len() as u64 - 2);
        drain_equal(&mut heap, &mut radix);
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
        drain_equal(&mut heap, &mut radix);
    }
}

/// Admission is `back.time <= time`, not `<`: a same-timestamp burst
/// (one gossip fire reporting to every neighbour) and a constant-delay
/// stream both stay in one lane. On `<` every tie would spill to the
/// second lane and then into the radix heap — still the right order
/// (the parity properties cannot see it), but the lanes would stop
/// paying; this pins the counters instead.
#[test]
fn ties_and_constant_delays_are_admitted() {
    let mut q: RadixQueue<u32> = RadixQueue::new();
    let delay = SimTime::from_millis(5.0);
    for i in 0..100u32 {
        q.schedule(SimTime::from_secs(1.0 + i as f64), i);
    }
    let mut hinted = 0;
    for _ in 0..50 {
        let (t, e) = q.pop().unwrap();
        // A burst of four at one timestamp, then one at the same time
        // as the pop itself — two delays, two lanes.
        for k in 0..4 {
            q.schedule_in_order(t + delay, 1000 + e * 4 + k);
        }
        q.schedule_in_order(t, 9000 + e);
        hinted += 5;
    }
    let stats = q.lane_stats();
    assert_eq!((stats.admitted, stats.fell_back), (hinted, 0));
    assert!(stats.lane_high_water >= 5);
    assert_eq!(stats.radix_high_water, 100);
}

/// Lane storage follows occupancy across chunk boundaries: fill well
/// past one chunk, drain, refill — order exact throughout, and surgery
/// in the middle keeps survivors in order.
#[test]
fn long_lanes_cross_chunk_boundaries_in_order() {
    let mut q: RadixQueue<u32> = RadixQueue::new();
    let n = 5000u32;
    for round in 0..3u32 {
        let base = SimQueue::<u32>::now(&q);
        for i in 0..n {
            q.schedule_in_order(base + SimTime::from_millis(i as f64), round * n + i);
        }
        assert_eq!(SimQueue::<u32>::len(&q), n as usize);
        q.filter_map_events(|e| (e % 3 != 1).then_some(e));
        let taken = q.extract_events(|&e| e % 3 == 2);
        assert!(taken
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert_eq!(
            taken.len(),
            (0..n).filter(|i| (round * n + i) % 3 == 2).count()
        );
        let mut expect = (0..n).map(|i| round * n + i).filter(|e| e % 3 == 0);
        while let Some((_, e)) = q.pop() {
            assert_eq!(Some(e), expect.next());
        }
        assert!(expect.next().is_none());
    }
    assert_eq!(q.lane_stats().fell_back, 0);
}
