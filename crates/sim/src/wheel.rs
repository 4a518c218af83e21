//! Wheel-style scheduling for strictly periodic event streams.
//!
//! A discrete-event simulation of WebWave carries three classes of
//! pending events, and each gets the cheapest structure that keeps it
//! sorted (see the [`radix`](crate::radix) module docs for the other
//! two): *irregular* ones (Poisson arrivals, keyed cross-shard
//! messages) are radix-sorted, *in-order* ones (messages over
//! constant-latency links) ride FIFO lanes, and the *strictly periodic*
//! ones — each node's gossip timer and diffusion timer — live here.
//! Their firing order is **fixed and cyclic**: all members of a stream
//! share one period, so once sorted by phase they fire forever in the
//! same rotation, and keeping them in a priority queue would make every
//! queue operation pay for sorting that has nothing to decide.
//!
//! [`TimerRing`] stores one `next_fire` per member and a rotation
//! deque. `peek` is a field read (the front fire is cached), `pop` and
//! `rearm` are `O(1)`, membership is one flag per member, and `insert`
//! is `O(1)` when members arrive in ascending phase order — the order
//! every driver primes in — and a search from the back otherwise.
//! Shard migration edits many members at one barrier, so the two
//! `O(members)` edits also come in bulk: `remove_members` compacts the
//! ring once for any number of leavers and `insert_many` merges any
//! number of newcomers in one pass.
//!
//! To merge ring events with queue events deterministically, every fire
//! carries a sequence number allocated from the owning queue (see
//! [`SimQueue::alloc_seq`](crate::SimQueue::alloc_seq)); comparing
//! `(time, seq)` across sources reproduces exactly the total order a
//! single all-in-one heap would have produced — which is what keeps
//! simulation traces identical to the pre-ring implementation.

use crate::SimTime;
use std::collections::VecDeque;

/// A ring of recurring timers sharing one period.
///
/// # Example
///
/// ```
/// use ww_sim::{SimTime, TimerRing};
///
/// let mut ring = TimerRing::new(SimTime::from_secs(1.0), 2);
/// ring.insert(0, SimTime::from_secs(0.25), 0);
/// ring.insert(1, SimTime::from_secs(0.75), 1);
/// let (t, _seq, member) = ring.peek().unwrap();
/// assert_eq!((t.as_secs(), member), (0.25, 0));
/// let (t, member) = ring.pop().unwrap();
/// ring.rearm(member, 2); // next fire at t + period = 1.25
/// assert_eq!(ring.peek().unwrap().0.as_secs(), 0.75);
/// let _ = t;
/// ```
#[derive(Debug, Clone)]
pub struct TimerRing {
    period: SimTime,
    /// Next fire time per member.
    next: Vec<SimTime>,
    /// Sequence number of the pending fire per member (merge tie-break).
    seq: Vec<u64>,
    /// Per member: is it in `order`? (Popped-not-yet-rearmed members
    /// and fresh [`TimerRing::add_member`]s are not.)
    armed: Vec<bool>,
    /// Members in firing order. Because all members share `period`, a
    /// rearmed member always belongs at the back, keeping this sorted by
    /// `(next, seq)` without any per-event sorting.
    order: VecDeque<usize>,
    /// The fire at the front of `order`, so the per-event merge reads
    /// one field instead of chasing `order` into `next` and `seq`.
    front: Option<(SimTime, u64, usize)>,
}

impl TimerRing {
    /// The id [`TimerRing::remove_members`] maps a departed member to.
    pub const REMOVED: usize = usize::MAX;

    /// Creates a ring with the given `period` for up to `members` members
    /// (ids `0..members`).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimTime, members: usize) -> Self {
        assert!(period > SimTime::ZERO, "period must be positive");
        TimerRing {
            period,
            next: vec![SimTime::ZERO; members],
            seq: vec![0; members],
            armed: vec![false; members],
            order: VecDeque::with_capacity(members),
            front: None,
        }
    }

    /// The shared period of all members.
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// Re-reads the cached front fire from the rotation.
    #[inline]
    fn refresh_front(&mut self) {
        self.front = self.order.front().map(|&m| (self.next[m], self.seq[m], m));
    }

    /// Where a fire keyed `(first_fire, seq)` belongs in `order`, which
    /// is sorted by `(next, seq)`. Scanning from the back makes the
    /// common setup pattern — members inserted in ascending phase order
    /// — one comparison per insert instead of a full front scan: the
    /// search examines `order.len() - pos` entries, plus the one that
    /// stops it.
    fn insert_position(&self, first_fire: SimTime, seq: u64) -> usize {
        self.order
            .iter()
            .rposition(|&m| (self.next[m], self.seq[m]) < (first_fire, seq))
            .map_or(0, |p| p + 1)
    }

    /// Arms `member` for its first fire at `first_fire` with merge
    /// sequence `seq`. Members may be inserted in any order.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range or already armed.
    pub fn insert(&mut self, member: usize, first_fire: SimTime, seq: u64) {
        assert!(member < self.next.len(), "member out of range");
        assert!(!self.armed[member], "member {member} is already armed");
        self.armed[member] = true;
        self.next[member] = first_fire;
        self.seq[member] = seq;
        let pos = self.insert_position(first_fire, seq);
        self.order.insert(pos, member);
        if pos == 0 {
            self.front = Some((first_fire, seq, member));
        }
    }

    /// The next fire as `(time, seq, member)`, if any member is armed.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, u64, usize)> {
        self.front
    }

    /// Takes the front fire, leaving its member *disarmed*; the caller
    /// must [`rearm`](TimerRing::rearm) it (typically at the point in the
    /// event handler where the old code rescheduled the timer, so merge
    /// sequence numbers match the historical all-heap order).
    // This and `rearm` are forced inline: at the packet driver's loop
    // LLVM keeps a plain `#[inline]` a call, and as calls (with
    // `ww-core`'s `gossip_to`) they cost ~2.5 % of the loop's time per
    // event on an in-cache world (ten interleaved rounds, 9 of 10;
    // 2-core Xeon under KVM).
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        let m = self.order.pop_front()?;
        self.armed[m] = false;
        self.refresh_front();
        Some((self.next[m], m))
    }

    /// Re-arms `member` one period after its previous fire, with merge
    /// sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range or still armed.
    #[inline(always)]
    pub fn rearm(&mut self, member: usize, seq: u64) {
        assert!(member < self.next.len(), "member out of range");
        if self.armed[member] {
            already_armed(member);
        }
        self.armed[member] = true;
        let fire = self.next[member] + self.period;
        self.next[member] = fire;
        self.seq[member] = seq;
        // Sorted before, so sorted after iff the newcomer is not below
        // the old back.
        debug_assert!(
            self.order
                .back()
                .is_none_or(|&b| (self.next[b], self.seq[b]) <= (fire, seq)),
            "ring rotation out of order"
        );
        if self.order.is_empty() {
            self.front = Some((fire, seq, member));
        }
        self.order.push_back(member);
    }

    /// Grows the ring by one (disarmed) member, returning its id. Arm it
    /// with [`TimerRing::insert`] — a joining node's first fire is set by
    /// the driver at the barrier it joins at.
    pub fn add_member(&mut self) -> usize {
        self.next.push(SimTime::ZERO);
        self.seq.push(0);
        self.armed.push(false);
        self.next.len() - 1
    }

    /// Removes `member` — armed or not — compacting member ids by
    /// swap-remove: the highest id is renumbered into the vacated slot,
    /// keeping its pending fire time, sequence number, and place in the
    /// rotation. This mirrors exactly the id compaction dense per-node
    /// tables apply when a node leaves the simulated world.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub fn swap_remove_member(&mut self, member: usize) {
        assert!(member < self.next.len(), "member out of range");
        let last = self.next.len() - 1;
        if self.armed[member] {
            let pos = self
                .order
                .iter()
                .position(|&m| m == member)
                .expect("an armed member is in the rotation");
            self.order.remove(pos);
        }
        self.next.swap_remove(member);
        self.seq.swap_remove(member);
        self.armed.swap_remove(member);
        // `member` now names the former `last`, flag included.
        if member != last && self.armed[member] {
            for m in self.order.iter_mut() {
                if *m == last {
                    *m = member;
                }
            }
        }
        self.refresh_front();
    }

    /// Removes every member listed in `leaving` — armed or not — in one
    /// pass, compacting ids **stably**: survivors keep their relative
    /// order (and their fire times, sequence numbers and places in the
    /// rotation) and take ids `0..survivors`. Returns the old→new id map,
    /// [`TimerRing::REMOVED`] for the members that left.
    ///
    /// The rotation afterwards is the one a
    /// [`swap_remove_member`](TimerRing::swap_remove_member) per leaver
    /// would have left, up to the renaming: the same `(next, seq)` fires
    /// in the same order. `O(members)` however many leave, where the
    /// one-at-a-time form pays that per leaver.
    ///
    /// # Panics
    ///
    /// Panics if `leaving` names a member twice or one out of range.
    pub fn remove_members(&mut self, leaving: &[usize]) -> Vec<usize> {
        let members = self.next.len();
        let mut new_id = vec![0; members];
        for &m in leaving {
            assert!(m < members, "member out of range");
            assert!(new_id[m] != Self::REMOVED, "member {m} leaves twice");
            new_id[m] = Self::REMOVED;
        }
        let mut kept = 0;
        for (m, id) in new_id.iter_mut().enumerate() {
            if *id != Self::REMOVED {
                *id = kept;
                self.next[kept] = self.next[m];
                self.seq[kept] = self.seq[m];
                self.armed[kept] = self.armed[m];
                kept += 1;
            }
        }
        self.next.truncate(kept);
        self.seq.truncate(kept);
        self.armed.truncate(kept);
        self.order.retain_mut(|m| {
            *m = new_id[*m];
            *m != Self::REMOVED
        });
        self.refresh_front();
        new_id
    }

    /// Arms every `(member, first_fire, seq)` of `fires` in one merge —
    /// the rotation afterwards is exactly what an
    /// [`insert`](TimerRing::insert) per entry would have built, because
    /// the rotation is sorted by `(next, seq)` and the keys are unique.
    /// Sorts `fires` by that key, then merges from the back, so the cost
    /// is `O(k log k)` plus the stretch of the rotation at or after the
    /// earliest newcomer — not `O(k × members)`.
    ///
    /// # Panics
    ///
    /// Panics if a member is out of range or already armed.
    pub fn insert_many(&mut self, fires: &mut [(usize, SimTime, u64)]) {
        fires.sort_unstable_by_key(|&(_, at, seq)| (at, seq));
        for &(member, at, seq) in fires.iter() {
            assert!(member < self.next.len(), "member out of range");
            assert!(!self.armed[member], "member {member} is already armed");
            self.armed[member] = true;
            self.next[member] = at;
            self.seq[member] = seq;
        }
        // Backward merge in place: `old` walks the rotation as it was,
        // `write` the grown one; every newcomer placed ends the walk
        // one step sooner.
        let mut old = self.order.len();
        self.order.resize(old + fires.len(), 0);
        let mut write = self.order.len();
        for &(member, at, seq) in fires.iter().rev() {
            while old > 0 {
                let m = self.order[old - 1];
                if (self.next[m], self.seq[m]) < (at, seq) {
                    break;
                }
                old -= 1;
                write -= 1;
                self.order[write] = m;
            }
            write -= 1;
            self.order[write] = member;
        }
        debug_assert_eq!(old, write, "the untouched prefix stays in place");
        self.refresh_front();
    }

    /// The pending `(fire time, merge seq)` of `member`, or `None` if
    /// the member is currently disarmed (popped but not yet rearmed).
    /// Used by shard migration, which must carry a node's pending timer
    /// fire — phase included — into its new shard's ring.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub fn fire_entry(&self, member: usize) -> Option<(SimTime, u64)> {
        assert!(member < self.next.len(), "member out of range");
        self.armed[member].then(|| (self.next[member], self.seq[member]))
    }

    /// Total member count (armed or not).
    pub fn members(&self) -> usize {
        self.next.len()
    }

    /// Number of armed members.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no member is armed.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// The panic of [`TimerRing::rearm`] on a member still armed, kept out
/// of line so the inlined re-arm costs one compare and one branch.
#[cold]
#[inline(never)]
fn already_armed(member: usize) -> ! {
    panic!("member {member} is already armed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_phase_order_and_rotates() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 3);
        // Insert out of phase order; ring sorts at setup.
        ring.insert(2, SimTime::from_secs(0.9), 2);
        ring.insert(0, SimTime::from_secs(0.1), 0);
        ring.insert(1, SimTime::from_secs(0.5), 1);
        let mut fired = Vec::new();
        for seq in 3..12 {
            let (t, m) = ring.pop().unwrap();
            fired.push((t.as_secs(), m));
            ring.rearm(m, seq);
        }
        assert_eq!(
            fired,
            vec![
                (0.1, 0),
                (0.5, 1),
                (0.9, 2),
                (1.1, 0),
                (1.5, 1),
                (1.9, 2),
                (2.1, 0),
                (2.5, 1),
                (2.9, 2),
            ]
        );
    }

    #[test]
    fn equal_phases_keep_insertion_seq_order() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 2);
        let t0 = SimTime::from_secs(0.5);
        ring.insert(1, t0, 7);
        ring.insert(0, t0, 9);
        // Lower seq fires first on ties.
        assert_eq!(ring.pop().unwrap().1, 1);
        ring.rearm(1, 10);
        assert_eq!(ring.pop().unwrap().1, 0);
        ring.rearm(0, 11);
        // Rotation preserved.
        assert_eq!(ring.pop().unwrap().1, 1);
    }

    #[test]
    fn peek_matches_pop() {
        let mut ring = TimerRing::new(SimTime::from_millis(250.0), 1);
        ring.insert(0, SimTime::from_millis(100.0), 4);
        let (pt, pseq, pm) = ring.peek().unwrap();
        let (t, m) = ring.pop().unwrap();
        assert_eq!((pt, pm), (t, m));
        assert_eq!(pseq, 4);
        assert!(ring.is_empty());
        ring.rearm(0, 5);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.peek().unwrap().0, SimTime::from_millis(350.0));
    }

    #[test]
    fn members_join_mid_rotation() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 2);
        ring.insert(0, SimTime::from_secs(0.2), 0);
        ring.insert(1, SimTime::from_secs(0.7), 1);
        let (_, m) = ring.pop().unwrap();
        ring.rearm(m, 2); // member 0 next fires at 1.2
        let newcomer = ring.add_member();
        assert_eq!(newcomer, 2);
        assert_eq!(ring.members(), 3);
        // First fire between the existing members' next fires.
        ring.insert(newcomer, SimTime::from_secs(0.9), 3);
        let fired: Vec<usize> = (4..8)
            .map(|seq| {
                let (_, m) = ring.pop().unwrap();
                ring.rearm(m, seq);
                m
            })
            .collect();
        assert_eq!(fired, vec![1, 2, 0, 1]);
    }

    #[test]
    fn swap_remove_member_renumbers_last() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 3);
        ring.insert(0, SimTime::from_secs(0.1), 0);
        ring.insert(1, SimTime::from_secs(0.5), 1);
        ring.insert(2, SimTime::from_secs(0.9), 2);
        // Member 1 leaves; member 2 takes id 1, keeping its 0.9 fire.
        ring.swap_remove_member(1);
        assert_eq!(ring.members(), 2);
        let (t, m) = ring.pop().unwrap();
        assert_eq!((t.as_secs(), m), (0.1, 0));
        ring.rearm(0, 3);
        let (t, m) = ring.pop().unwrap();
        assert_eq!((t.as_secs(), m), (0.9, 1));
        ring.rearm(1, 4);
        // Rotation continues with the renumbered member.
        let (t, m) = ring.pop().unwrap();
        assert_eq!((t.as_secs(), m), (1.1, 0));
    }

    #[test]
    fn swap_remove_of_a_disarmed_member_still_renumbers_last() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 3);
        ring.insert(0, SimTime::from_secs(0.1), 0);
        ring.insert(1, SimTime::from_secs(0.5), 1);
        ring.insert(2, SimTime::from_secs(0.9), 2);
        // Member 0 fires and leaves before it rearms; member 2 (armed)
        // takes id 0 and keeps its 0.9 fire.
        assert_eq!(ring.pop().unwrap().1, 0);
        ring.swap_remove_member(0);
        assert_eq!(ring.fire_entry(0), Some((SimTime::from_secs(0.9), 2)));
        assert_eq!(ring.pop().unwrap().1, 1);
        assert_eq!(ring.pop().unwrap(), (SimTime::from_secs(0.9), 0));
        // And the mirror: an armed member leaves while the last one is
        // mid-fire (disarmed) — nothing in the rotation names it.
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 3);
        ring.insert(2, SimTime::from_secs(0.1), 0);
        ring.insert(0, SimTime::from_secs(0.5), 1);
        ring.insert(1, SimTime::from_secs(0.9), 2);
        assert_eq!(ring.pop().unwrap().1, 2);
        ring.swap_remove_member(0);
        assert_eq!(ring.fire_entry(0), None);
        ring.rearm(0, 3); // the former member 2, one period after 0.1
        assert_eq!(ring.pop().unwrap().1, 1);
        assert_eq!(ring.pop().unwrap(), (SimTime::from_secs(1.1), 0));
    }

    #[test]
    fn swap_remove_last_member_truncates() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 2);
        ring.insert(0, SimTime::from_secs(0.1), 0);
        ring.insert(1, SimTime::from_secs(0.5), 1);
        ring.swap_remove_member(1);
        assert_eq!(ring.members(), 1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.pop().unwrap().1, 0);
    }

    /// Rotation entries `insert` examines to place `(fire, seq)`.
    fn probes(ring: &TimerRing, fire: SimTime, seq: u64) -> usize {
        let pos = ring.insert_position(fire, seq);
        ring.order.len() - pos + pos.min(1)
    }

    #[test]
    fn priming_in_ascending_phase_is_linear() {
        // The drivers prime one member per node in ascending phase. With
        // the membership flag the only per-insert work left that depends
        // on the ring's size is the position search, and it must stop at
        // the back: one probe per member, so 4x the members is 4x the
        // work (the old `order.contains` made it 16x).
        let work = |members: usize| {
            let mut ring = TimerRing::new(SimTime::from_secs(1.0), members);
            let mut work = 0;
            for m in 0..members {
                let fire = SimTime::from_secs((m + 1) as f64 / (members + 1) as f64);
                work += probes(&ring, fire, m as u64);
                ring.insert(m, fire, m as u64);
            }
            assert_eq!(ring.len(), members);
            work
        };
        assert!(work(50_000) <= 50_000);
        assert!(work(40_000) <= 6 * work(10_000));
    }

    #[test]
    fn popped_member_has_no_fire_entry_until_rearmed() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 2);
        ring.insert(0, SimTime::from_secs(0.1), 0);
        ring.insert(1, SimTime::from_secs(0.5), 1);
        assert_eq!(ring.fire_entry(0), Some((SimTime::from_secs(0.1), 0)));
        let (_, m) = ring.pop().unwrap();
        assert_eq!(m, 0);
        assert_eq!(ring.fire_entry(0), None);
        assert_eq!(ring.fire_entry(1), Some((SimTime::from_secs(0.5), 1)));
        ring.rearm(0, 2);
        assert_eq!(ring.fire_entry(0), Some((SimTime::from_secs(1.1), 2)));
        // A member added at a barrier is disarmed until inserted.
        let fresh = ring.add_member();
        assert_eq!(ring.fire_entry(fresh), None);
    }

    #[test]
    fn cached_front_follows_every_mutation() {
        let front = |ring: &TimerRing| ring.order.front().map(|&m| (ring.next[m], ring.seq[m], m));
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 3);
        assert_eq!(ring.peek(), None);
        ring.insert(1, SimTime::from_secs(0.5), 0);
        assert_eq!(ring.peek(), front(&ring));
        ring.insert(0, SimTime::from_secs(0.2), 1); // new front
        assert_eq!(ring.peek(), front(&ring));
        ring.insert(2, SimTime::from_secs(0.9), 2); // not the front
        assert_eq!(ring.peek().unwrap().2, 0);
        ring.swap_remove_member(0); // front leaves, member 2 becomes 0
        assert_eq!(ring.peek(), front(&ring));
        assert_eq!(ring.peek().unwrap().0, SimTime::from_secs(0.5));
        let (_, a) = ring.pop().unwrap();
        let (_, b) = ring.pop().unwrap();
        assert_eq!(ring.peek(), None);
        ring.rearm(a, 3); // rearm into an empty rotation
        assert_eq!(ring.peek(), front(&ring));
        ring.rearm(b, 4);
        assert_eq!(ring.peek().unwrap().2, a);
    }

    #[test]
    #[should_panic(expected = "already armed")]
    fn double_rearm_panics() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 1);
        ring.insert(0, SimTime::ZERO, 0);
        ring.rearm(0, 1);
    }

    #[test]
    #[should_panic(expected = "already armed")]
    fn double_insert_panics() {
        let mut ring = TimerRing::new(SimTime::from_secs(1.0), 1);
        ring.insert(0, SimTime::ZERO, 0);
        ring.insert(0, SimTime::ZERO, 1);
    }
}
