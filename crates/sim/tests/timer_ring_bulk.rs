//! Property harness pinning [`TimerRing`]'s bulk edits to their
//! one-at-a-time twins — the correctness argument for shard migration
//! compacting a donor's rings once per plan and merging a recipient's
//! once per plan: `remove_members` must leave the rotation a
//! `swap_remove_member` per leaver leaves (the two renumber survivors
//! differently, so members are compared by the identity they had before
//! the edit), and `insert_many` the rotation an `insert` per newcomer
//! builds. After every bulk edit the cached front must be the next pop.

use proptest::prelude::*;
use ww_sim::{SimTime, TimerRing};

/// Fire times sit on a coarse grid so distinct members often share one
/// exactly and the sequence number decides.
fn at(slot: u8) -> SimTime {
    SimTime::from_secs(slot as f64 * 0.125)
}

/// A unique merge sequence in an arbitrary order: random high bits,
/// the index below them.
fn seq_of(raw: u16, index: usize) -> u64 {
    ((raw as u64) << 16) | index as u64
}

/// A ring of `spec.len()` armed members, then `pops` fires taken, of
/// which every other one is left disarmed (a handler mid-fire) and the
/// rest rearmed one period on.
fn ring_of(spec: &[(u8, u16)], pops: usize) -> TimerRing {
    let mut ring = TimerRing::new(SimTime::from_secs(4.0), spec.len());
    for (m, &(slot, raw)) in spec.iter().enumerate() {
        ring.insert(m, at(slot), seq_of(raw, m));
    }
    for i in 0..pops.min(spec.len()) {
        let (_, m) = ring.pop().expect("an armed member");
        if i % 2 == 0 {
            ring.rearm(m, (1 << 40) | i as u64);
        }
    }
    ring
}

/// The leave set `mode` selects, as member ids in an arbitrary order:
/// nobody, everybody, the highest id, the rotation's front, or the
/// members `mask` marks.
fn leave_set(ring: &TimerRing, mode: u8, mask: &[bool]) -> Vec<usize> {
    let members = ring.members();
    match mode % 8 {
        0 => Vec::new(),
        1 => (0..members).rev().collect(),
        2 => vec![members - 1],
        3 => ring.peek().map(|(_, _, m)| m).into_iter().collect(),
        _ => {
            let mut picked: Vec<usize> = (0..members)
                .filter(|&m| mask.get(m).copied().unwrap_or(false))
                .collect();
            // Not ascending: the one-at-a-time reference then renumbers
            // members that leave later.
            let mid = mode as usize % picked.len().max(1);
            picked.rotate_left(mid);
            picked
        }
    }
}

/// The reference edit: one `swap_remove_member` per leaver, in the
/// order given, following identities through each renumbering. Returns
/// current id -> the id the member had before.
fn swap_remove_each(ring: &mut TimerRing, leaving: &[usize]) -> Vec<usize> {
    let mut identity: Vec<usize> = (0..ring.members()).collect();
    for &original in leaving {
        let current = identity
            .iter()
            .position(|&o| o == original)
            .expect("a member leaves once");
        ring.swap_remove_member(current);
        identity.swap_remove(current);
    }
    identity
}

/// The bulk edit, with the same identity map read off its return value.
fn remove_members(ring: &mut TimerRing, leaving: &[usize]) -> Vec<usize> {
    let new_id = ring.remove_members(leaving);
    let mut identity = vec![usize::MAX; ring.members()];
    for (old, &new) in new_id.iter().enumerate() {
        assert_eq!(new == TimerRing::REMOVED, leaving.contains(&old));
        if new != TimerRing::REMOVED {
            identity[new] = old;
        }
    }
    identity
}

/// Every armed fire in pop order, each member named through `identity`
/// (current id -> the id it had before the edit).
fn drain(ring: &mut TimerRing, identity: &[usize]) -> Vec<(usize, SimTime, u64)> {
    let mut fires = Vec::new();
    while let Some((at, seq, member)) = ring.peek() {
        assert_eq!(ring.pop(), Some((at, member)), "peek is the next pop");
        fires.push((identity[member], at, seq));
    }
    assert!(ring.is_empty());
    fires
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(256))]

    #[test]
    fn remove_members_matches_one_swap_remove_per_leaver(
        spec in proptest::collection::vec((0u8..24, 0u16..=u16::MAX), 1..40),
        pops in 0usize..24,
        mode in 0u8..=255,
        mask in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let mut bulk = ring_of(&spec, pops);
        let mut single = bulk.clone();
        let leaving = leave_set(&bulk, mode, &mask);

        let single_identity = swap_remove_each(&mut single, &leaving);
        let bulk_identity = remove_members(&mut bulk, &leaving);
        // Stable: survivors keep their relative order.
        prop_assert!(bulk_identity.windows(2).all(|w| w[0] < w[1]));

        prop_assert_eq!(bulk.members(), single.members());
        prop_assert_eq!(bulk.len(), single.len());
        // Disarmed survivors stay disarmed, armed ones keep their fire.
        let by_identity = |ring: &TimerRing, identity: &[usize]| {
            let mut entries: Vec<_> = (0..ring.members())
                .map(|m| (identity[m], ring.fire_entry(m)))
                .collect();
            entries.sort_unstable_by_key(|&(original, _)| original);
            entries
        };
        prop_assert_eq!(
            by_identity(&bulk, &bulk_identity),
            by_identity(&single, &single_identity)
        );
        prop_assert_eq!(
            drain(&mut bulk, &bulk_identity),
            drain(&mut single, &single_identity)
        );
    }

    #[test]
    fn insert_many_matches_one_insert_per_newcomer(
        spec in proptest::collection::vec((0u8..24, 0u16..=u16::MAX), 0..40),
        pops in 0usize..24,
        newcomers in proptest::collection::vec((0u8..40, 0u16..=u16::MAX), 0..24),
    ) {
        let mut bulk = ring_of(&spec, pops);
        let base = bulk.members();
        let mut fires: Vec<(usize, SimTime, u64)> = newcomers
            .iter()
            .enumerate()
            .map(|(i, &(slot, raw))| (base + i, at(slot), seq_of(raw, base + i)))
            .collect();
        for _ in &fires {
            bulk.add_member();
        }
        let mut single = bulk.clone();
        for &(member, first_fire, seq) in &fires {
            single.insert(member, first_fire, seq);
        }
        bulk.insert_many(&mut fires);

        prop_assert_eq!(bulk.peek(), single.peek());
        prop_assert_eq!(bulk.len(), single.len());
        let identity: Vec<usize> = (0..bulk.members()).collect();
        prop_assert_eq!(drain(&mut bulk, &identity), drain(&mut single, &identity));
    }

    /// A shard that is donor and recipient in one plan: leavers out,
    /// newcomers in, on the same ring — and the ring keeps working
    /// (pop / rearm) on the result.
    #[test]
    fn remove_then_insert_then_rotate(
        spec in proptest::collection::vec((0u8..24, 0u16..=u16::MAX), 2..40),
        mask in proptest::collection::vec(any::<bool>(), 40),
        // Below one period past the earliest fire, so a rearm always
        // lands at the back.
        newcomers in proptest::collection::vec((0u8..24, 0u16..=u16::MAX), 1..16),
    ) {
        let mut bulk = ring_of(&spec, 0);
        let mut single = bulk.clone();
        let leaving = leave_set(&bulk, 4, &mask);
        let mut single_identity = swap_remove_each(&mut single, &leaving);
        let mut bulk_identity = remove_members(&mut bulk, &leaving);

        let survivors = bulk.members();
        let mut fires = Vec::new();
        for (i, &(slot, raw)) in newcomers.iter().enumerate() {
            let fresh = 1000 + i;
            prop_assert_eq!(bulk.add_member(), survivors + i);
            prop_assert_eq!(single.add_member(), survivors + i);
            bulk_identity.push(fresh);
            single_identity.push(fresh);
            fires.push((survivors + i, at(slot), seq_of(raw, fresh)));
            single.insert(survivors + i, at(slot), seq_of(raw, fresh));
        }
        bulk.insert_many(&mut fires);
        prop_assert_eq!(bulk.peek().map(|f| (f.0, f.1)), single.peek().map(|f| (f.0, f.1)));

        // One full rotation with rearms: same members (by identity) at
        // the same times on both rings.
        for step in 0..2 * bulk.len() as u64 {
            let (bt, bm) = bulk.pop().expect("armed");
            let (st, sm) = single.pop().expect("armed");
            prop_assert_eq!((bt, bulk_identity[bm]), (st, single_identity[sm]));
            bulk.rearm(bm, (1 << 50) | step);
            single.rearm(sm, (1 << 50) | step);
            prop_assert_eq!(
                bulk.peek().map(|f| (f.0, f.1)),
                single.peek().map(|f| (f.0, f.1))
            );
        }
    }
}
