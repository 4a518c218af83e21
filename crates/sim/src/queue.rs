//! The queue contract shared by the kernel's event queues.
//!
//! [`SimQueue`] abstracts the full [`EventQueue`](crate::EventQueue)
//! surface the simulation drivers use, so a driver can be generic over
//! its pending-event structure: the comparison-based `BinaryHeap`
//! queue (the reference, one structure, no hints), or
//! [`RadixQueue`](crate::RadixQueue), a merge of a radix heap and
//! in-order lanes tuned for the near-monotone access pattern of a
//! conservative PDES. Every
//! implementation must deliver events in exactly `(time, seq)` order —
//! the parity property tests in `tests/radix_parity.rs` pin the two
//! implementations pop-for-pop identical, so swapping one for the other
//! cannot change a single bit of a simulation.

use crate::{LaneStats, SimTime};

/// A deterministic discrete-event queue: events fire in `(time, seq)`
/// order, `seq` ties broken by a queue-owned counter unless the caller
/// supplies an explicit key.
///
/// The semantics of each method are specified on
/// [`EventQueue`](crate::EventQueue), the reference implementation;
/// panics (scheduling or advancing into the past) are part of the
/// contract.
pub trait SimQueue<E> {
    /// Schedules `event` at `at` under the next counter-allocated `seq`.
    fn schedule(&mut self, at: SimTime, event: E);

    /// [`schedule`](SimQueue::schedule) with a hint: the caller emits
    /// such events in non-decreasing time order (a constant delay added
    /// to a clock that never runs backwards), so a queue with FIFO
    /// lanes may append instead of sorting. Same `seq` allocation and
    /// the same pop order as `schedule` whether or not the hint holds —
    /// it buys speed, never order. The default ignores it.
    fn schedule_in_order(&mut self, at: SimTime, event: E) {
        self.schedule(at, event);
    }

    /// Schedules `event` to fire `delay` after the current time.
    fn schedule_after(&mut self, delay: SimTime, event: E);

    /// Schedules `event` at `at` under the explicit tie-break key `seq`.
    fn schedule_keyed(&mut self, at: SimTime, seq: u64, event: E);

    /// Allocates the next tie-breaking sequence number.
    fn alloc_seq(&mut self) -> u64;

    /// The `(time, seq)` pair of the earliest pending event.
    fn peek_entry(&self) -> Option<(SimTime, u64)>;

    /// The timestamp of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime> {
        self.peek_entry().map(|(t, _)| t)
    }

    /// Advances the clock to `t`, counting one processed event on
    /// behalf of an external schedule.
    fn advance_to(&mut self, t: SimTime);

    /// Coasts the clock to `t` without counting a processed event.
    fn fast_forward(&mut self, t: SimTime);

    /// Pops the earliest event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// Current simulation time.
    fn now(&self) -> SimTime;

    /// Number of events waiting.
    fn len(&self) -> usize;

    /// `true` when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events processed so far.
    fn processed(&self) -> u64;

    /// Push-path counters of the in-order lanes; all zero for a queue
    /// without lanes.
    fn lane_stats(&self) -> LaneStats {
        LaneStats::default()
    }

    /// Rewrites pending events in place, keeping survivors' `(time,
    /// seq)` keys and never rewinding the sequence counter.
    fn filter_map_events(&mut self, f: impl FnMut(E) -> Option<E>);

    /// Removes every pending event matching `f` and returns them as
    /// `(time, key, event)` sorted by `(time, key)` — the exact order
    /// in which the queue would have delivered them. Non-matching
    /// events keep their `(time, seq)` keys; the sequence counter and
    /// the processed count are untouched. This is the surgical sibling
    /// of [`filter_map_events`](SimQueue::filter_map_events), used when
    /// pending events must *move* to another queue (shard migration)
    /// rather than be rewritten in place.
    fn extract_events(&mut self, f: impl FnMut(&E) -> bool) -> Vec<(SimTime, u64, E)>;
}

impl<E> SimQueue<E> for crate::EventQueue<E> {
    fn schedule(&mut self, at: SimTime, event: E) {
        crate::EventQueue::schedule(self, at, event);
    }

    fn schedule_after(&mut self, delay: SimTime, event: E) {
        crate::EventQueue::schedule_after(self, delay, event);
    }

    fn schedule_keyed(&mut self, at: SimTime, seq: u64, event: E) {
        crate::EventQueue::schedule_keyed(self, at, seq, event);
    }

    fn alloc_seq(&mut self) -> u64 {
        crate::EventQueue::alloc_seq(self)
    }

    fn peek_entry(&self) -> Option<(SimTime, u64)> {
        crate::EventQueue::peek_entry(self)
    }

    fn peek_time(&self) -> Option<SimTime> {
        crate::EventQueue::peek_time(self)
    }

    fn advance_to(&mut self, t: SimTime) {
        crate::EventQueue::advance_to(self, t);
    }

    fn fast_forward(&mut self, t: SimTime) {
        crate::EventQueue::fast_forward(self, t);
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        crate::EventQueue::pop(self)
    }

    fn now(&self) -> SimTime {
        crate::EventQueue::now(self)
    }

    fn len(&self) -> usize {
        crate::EventQueue::len(self)
    }

    fn is_empty(&self) -> bool {
        crate::EventQueue::is_empty(self)
    }

    fn processed(&self) -> u64 {
        crate::EventQueue::processed(self)
    }

    fn filter_map_events(&mut self, f: impl FnMut(E) -> Option<E>) {
        crate::EventQueue::filter_map_events(self, f);
    }

    fn extract_events(&mut self, f: impl FnMut(&E) -> bool) -> Vec<(SimTime, u64, E)> {
        crate::EventQueue::extract_events(self, f)
    }
}
