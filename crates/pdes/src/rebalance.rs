//! Load-aware re-partitioning of the shard map at epoch barriers.
//!
//! The static partition from
//! [`partition_subtrees`](crate::partition_subtrees) balances node
//! *counts*; a flash crowd or churn skews per-shard *event* counts
//! regardless. This module computes, as a **pure function** of the
//! deterministic epoch-boundary event counters, a migration plan that
//! moves subtree ownership toward the mean load:
//!
//! - [`rebalance_plan`] re-cuts the tree with per-node weights equal
//!   to observed event counts: a binary search on the bottleneck (the
//!   heaviest region allowed) drives a bottom-up cut-when-full sweep,
//!   so the hottest subtree is split *internally* instead of being
//!   handed whole to one shard. The resulting regions are relabeled to
//!   the old shard ids by maximum member overlap so that quiet shards
//!   keep most of their nodes in place.
//! - The plan is empty unless it is predicted to remove a material
//!   share (a tenth) of the excess max/mean imbalance, so steady
//!   workloads — and trees the cut cannot split — never migrate.
//!
//! Everything here is observation-in, plan-out: the inputs are
//! `queue.processed()`-derived counters (bit-identical at every worker
//! count), never wall-clock or telemetry, so the same spec+seed yields
//! the same migrations on every machine. Applying a plan never changes
//! the simulated trace at all — node state is shard-location-agnostic
//! and migration is pure ownership movement (see `docs/parallel.md`).

use crate::partition::Partition;
use ww_model::{NodeId, Tree};

pub use ww_core::packet::driver::Migration;

/// Configuration of the barrier-time rebalancing controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Trigger threshold on the max/mean per-shard event ratio of the
    /// observation window; windows below it cost `O(shards)` and move
    /// nothing. Must be ≥ 1 (1 rebalances on any imbalance at all).
    pub trigger_imbalance: f64,
    /// Number of sampled epochs per observation window: the controller
    /// evaluates (and can migrate) at most once every this many epoch
    /// barriers. Must be ≥ 1.
    pub min_epoch_gap: u64,
}

/// Per-shard event-count totals, the load signal rebalancing reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadSummary {
    /// Events attributed to each shard, indexed by shard id.
    pub shard_events: Vec<u64>,
}

impl LoadSummary {
    /// Sums `node_events` (one count per global node id) by the shard
    /// `partition` puts each node on.
    ///
    /// # Panics
    ///
    /// Panics if `node_events` is shorter than the node count.
    pub fn of(partition: &Partition, node_events: &[u64]) -> LoadSummary {
        assert!(
            node_events.len() >= partition.shard_of.len(),
            "count per node"
        );
        let mut shard_events = vec![0u64; partition.shards()];
        for (u, &s) in partition.shard_of.iter().enumerate() {
            shard_events[s] += node_events[u];
        }
        LoadSummary { shard_events }
    }

    /// Total events across all shards.
    pub fn total(&self) -> u64 {
        self.shard_events.iter().sum()
    }

    /// The max/mean imbalance ratio: 1.0 is perfectly balanced. An
    /// event-free (or shard-free) summary reports 1.0 — nothing to
    /// balance.
    pub fn imbalance(&self) -> f64 {
        ww_core::packetsim::imbalance(&self.shard_events)
    }
}

/// A barrier-time migration plan: which nodes move where, and the
/// imbalance it was computed from / predicts.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePlan {
    /// Nodes changing shards, in ascending node-id order. Never
    /// contains a no-op move (`from == to` is impossible).
    pub moves: Vec<Migration>,
    /// Max/mean imbalance of the observed window under the old map.
    pub imbalance_before: f64,
    /// Max/mean imbalance of the same window under the new map.
    pub predicted_imbalance: f64,
}

impl RebalancePlan {
    /// `true` when the plan migrates nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    fn noop(imbalance: f64) -> Self {
        RebalancePlan {
            moves: Vec::new(),
            imbalance_before: imbalance,
            predicted_imbalance: imbalance,
        }
    }
}

/// The share of the excess imbalance (`before - 1.0`, the distance to a
/// perfect split) a plan must be predicted to remove before it is worth
/// a migration.
const MIN_GAIN_SHARE: f64 = 0.1;

/// Computes a migration plan from observed per-node event counts — a
/// pure function of `(tree, partition, node_events)`: no randomness,
/// no clocks, deterministic tie-breaks by node id.
///
/// The plan keeps the shard *count* fixed (shards are worker threads),
/// keeps every shard a connected subtree (so cut-edge lookahead stays
/// valid), and is empty unless the weighted re-peel is predicted to
/// remove at least a tenth of the window's excess max/mean imbalance
/// (`before - predicted >= 0.1 * (before - 1.0)`).
///
/// # Panics
///
/// Panics if `node_events` is shorter than the tree, or the partition
/// does not cover the tree.
pub fn rebalance_plan(tree: &Tree, partition: &Partition, node_events: &[u64]) -> RebalancePlan {
    let n = tree.len();
    assert!(node_events.len() >= n, "one event count per node");
    assert_eq!(partition.shard_of.len(), n, "partition covers the tree");
    let shards = partition.shards();
    let before = LoadSummary::of(partition, node_events);
    let imbalance_before = before.imbalance();
    if shards < 2 || before.total() == 0 {
        return RebalancePlan::noop(imbalance_before);
    }

    // Re-cut by weight. Every node carries +1 on top of its event
    // count so load-free regions stay cuttable and the event-free
    // limit degenerates to node-count balancing.
    let Some(region_of) = peel_weighted(tree, shards, node_events) else {
        return RebalancePlan::noop(imbalance_before);
    };

    // Relabel regions to old shard ids by maximum member overlap, so a
    // region that mostly *is* an old shard keeps its id and its nodes
    // stay put. Greedy over (overlap desc, region asc, shard asc) —
    // deterministic; leftovers pair off in ascending order.
    let mut overlap = vec![vec![0u64; shards]; shards];
    for u in 0..n {
        overlap[region_of[u]][partition.shard_of[u]] += 1;
    }
    let mut candidates: Vec<(u64, usize, usize)> = Vec::with_capacity(shards * shards);
    for (r, row) in overlap.iter().enumerate() {
        for (s, &o) in row.iter().enumerate() {
            candidates.push((o, r, s));
        }
    }
    candidates.sort_unstable_by(|a, b| (b.0, a.1, a.2).cmp(&(a.0, b.1, b.2)));
    let mut id_of_region = vec![usize::MAX; shards];
    let mut shard_taken = vec![false; shards];
    for &(_, r, s) in &candidates {
        if id_of_region[r] == usize::MAX && !shard_taken[s] {
            id_of_region[r] = s;
            shard_taken[s] = true;
        }
    }

    let mut moves = Vec::new();
    let mut after = vec![0u64; shards];
    for u in 0..n {
        let to = id_of_region[region_of[u]];
        after[to] += node_events[u];
        let from = partition.shard_of[u];
        if from != to {
            moves.push(Migration {
                node: NodeId::new(u),
                from,
                to,
            });
        }
    }
    let predicted = LoadSummary {
        shard_events: after,
    }
    .imbalance();
    // Hysteresis against thrash: only migrate for a material gain. A
    // bare "strictly better" let a tree the cut cannot split (one small
    // region per extra shard) swap that region for a sibling with a few
    // more events in its window at every barrier, forever.
    let gain = imbalance_before - predicted;
    if moves.is_empty() || gain <= 0.0 || gain < MIN_GAIN_SHARE * (imbalance_before - 1.0) {
        return RebalancePlan::noop(imbalance_before);
    }
    RebalancePlan {
        moves,
        imbalance_before,
        predicted_imbalance: predicted,
    }
}

/// The weighted analogue of the static subtree peel: splits the tree
/// into exactly `shards` connected regions by cutting `shards - 1`
/// parent edges, minimizing (to the precision of the greedy sweep) the
/// heaviest region's weight (`node_events + 1` per node). Region 0
/// holds the root. Returns `None` when the cut cannot produce `shards`
/// non-empty regions (degenerate shapes) — the caller then keeps the
/// current partition.
///
/// A binary search on the bottleneck `b` wraps a bottom-up sweep: each
/// node accumulates its still-attached subtree weight, and whenever
/// the accumulation exceeds `b` the heaviest child chunks are cut off
/// (ties toward the smaller node id) until it fits. Unlike a greedy
/// "largest subtree that fits" peel, this splits a hot subtree at
/// interior edges instead of leaving its remainder fused to the root
/// region, so one flash-crowd subtree ends up spread across several
/// shards. The sweep is a deterministic pure function of
/// `(tree, node_events, shards)`: re-running it on the post-migration
/// partition *with the same counts* reproduces the same regions, which
/// relabel back onto themselves. The next window's counts differ, so
/// what keeps the controller from thrashing across windows is the
/// material-gain rule in [`rebalance_plan`], not this fixed point.
fn peel_weighted(tree: &Tree, shards: usize, node_events: &[u64]) -> Option<Vec<usize>> {
    let n = tree.len();
    let weight = |i: usize| node_events[i] + 1;
    let total_w: u64 = node_events.iter().take(n).sum::<u64>() + n as u64;
    let max_w = (0..n).map(weight).max()?;
    let order: Vec<NodeId> = tree.bottom_up().collect();

    // One bottom-up cut-when-full sweep under bottleneck `b`. Returns
    // the cut nodes (each roots a new region) and, per node, the
    // weight of its still-attached subtree chunk.
    let sweep = |b: u64| -> Option<(Vec<usize>, Vec<u64>)> {
        let mut acc = vec![0u64; n];
        let mut cuts: Vec<usize> = Vec::new();
        for &u in &order {
            let ui = u.index();
            let mut a = weight(ui);
            let kids = tree.children(u);
            a += kids.iter().map(|c| acc[c.index()]).sum::<u64>();
            if a > b {
                let mut child_accs: Vec<(u64, usize)> =
                    kids.iter().map(|c| (acc[c.index()], c.index())).collect();
                child_accs.sort_unstable_by(|x, y| (y.0, x.1).cmp(&(x.0, y.1)));
                for &(ca, ci) in &child_accs {
                    if a <= b {
                        break;
                    }
                    a -= ca;
                    cuts.push(ci);
                }
                if a > b {
                    return None;
                }
            }
            acc[ui] = a;
        }
        Some((cuts, acc))
    };

    // Smallest bottleneck the sweep can honor with at most shards - 1
    // cuts. `hi` is always feasible (no cuts at all fit under total_w),
    // so the search converges to a feasible bound even where the greedy
    // sweep's cut count is not perfectly monotone in `b`.
    let feasible = |b: u64| matches!(sweep(b), Some((ref cuts, _)) if cuts.len() < shards);
    let mut lo = max_w;
    let mut hi = total_w;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let (mut cuts, mut acc) = sweep(lo)?;
    if cuts.len() >= shards {
        return None;
    }

    // The sweep may need fewer cuts than shards - 1; shard count is
    // fixed, so pad deterministically by splitting the heaviest
    // remaining chunk (ties toward the smaller node id), deflating the
    // chunk's ancestors so later picks see post-split weights.
    let root = tree.root();
    let mut is_cut = vec![false; n];
    for &c in &cuts {
        is_cut[c] = true;
    }
    while cuts.len() < shards - 1 {
        let mut best: Option<(u64, usize)> = None;
        for i in 0..n {
            if is_cut[i] || NodeId::new(i) == root {
                continue;
            }
            let better = match best {
                None => true,
                Some((bw, bi)) => acc[i] > bw || (acc[i] == bw && i < bi),
            };
            if better {
                best = Some((acc[i], i));
            }
        }
        let (chunk, u) = best?;
        is_cut[u] = true;
        cuts.push(u);
        let mut a = NodeId::new(u);
        while let Some(p) = tree.parent(a) {
            acc[p.index()] -= chunk;
            if is_cut[p.index()] {
                break;
            }
            a = p;
        }
    }

    // Region 0 is the root's chunk; cut nodes take regions 1.. in
    // ascending node-id order. Top-down fill (reverse of bottom-up).
    cuts.sort_unstable();
    let mut region_root = vec![usize::MAX; n];
    for (r, &c) in cuts.iter().enumerate() {
        region_root[c] = r + 1;
    }
    let mut region_of = vec![usize::MAX; n];
    for &u in order.iter().rev() {
        let ui = u.index();
        region_of[ui] = if region_root[ui] != usize::MAX {
            region_root[ui]
        } else {
            match tree.parent(u) {
                None => 0,
                Some(p) => region_of[p.index()],
            }
        };
    }
    Some(region_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_subtrees;

    fn check_connected(tree: &Tree, shard_of: &[usize], shards: usize) {
        for s in 0..shards {
            let entries = tree
                .nodes()
                .filter(|&u| shard_of[u.index()] == s)
                .filter(|&u| match tree.parent(u) {
                    None => true,
                    Some(p) => shard_of[p.index()] != s,
                })
                .count();
            assert_eq!(entries, 1, "shard {s} must be one connected subtree");
        }
    }

    fn apply(partition: &Partition, plan: &RebalancePlan) -> Vec<usize> {
        let mut shard_of = partition.shard_of.clone();
        for m in &plan.moves {
            assert_eq!(shard_of[m.node.index()], m.from);
            shard_of[m.node.index()] = m.to;
        }
        shard_of
    }

    /// Deterministic synthetic load: heavy on one deep subtree.
    fn skewed_load(tree: &Tree, hot: usize) -> Vec<u64> {
        let mut counts = vec![1u64; tree.len()];
        let mut stack = vec![NodeId::new(hot)];
        while let Some(v) = stack.pop() {
            counts[v.index()] = 400;
            stack.extend(tree.children(v).iter().copied());
        }
        counts
    }

    #[test]
    fn plan_is_deterministic() {
        let tree = ww_topology::k_ary(2, 8);
        let p = partition_subtrees(&tree, 4);
        let load = skewed_load(&tree, 1);
        let a = rebalance_plan(&tree, &p, &load);
        let b = rebalance_plan(&tree, &p, &load);
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_load_shrinks_imbalance_and_stays_connected() {
        let tree = ww_topology::k_ary(2, 8);
        let p = partition_subtrees(&tree, 4);
        let load = skewed_load(&tree, 1);
        let plan = rebalance_plan(&tree, &p, &load);
        assert!(!plan.is_empty(), "a hot subtree must trigger migrations");
        assert!(
            plan.predicted_imbalance < plan.imbalance_before,
            "{} !< {}",
            plan.predicted_imbalance,
            plan.imbalance_before
        );
        let new_shard_of = apply(&p, &plan);
        check_connected(&tree, &new_shard_of, p.shards());
        // The prediction is honest: recompute from scratch.
        let mut after = vec![0u64; p.shards()];
        for (u, &s) in new_shard_of.iter().enumerate() {
            after[s] += load[u];
        }
        let summary = LoadSummary {
            shard_events: after,
        };
        assert!((summary.imbalance() - plan.predicted_imbalance).abs() < 1e-12);
    }

    #[test]
    fn no_noop_migrations_ever() {
        let tree = ww_topology::two_level(6, 9);
        let p = partition_subtrees(&tree, 4);
        for seed in 0..20u64 {
            // Cheap deterministic pseudo-load (no RNG in unit tests).
            let load: Vec<u64> = (0..tree.len() as u64)
                .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed * 97)) % 50)
                .collect();
            let plan = rebalance_plan(&tree, &p, &load);
            for m in &plan.moves {
                assert_ne!(m.from, m.to, "no-op migration emitted");
                assert_eq!(p.shard_of[m.node.index()], m.from);
            }
            // Moves are sorted by node id (plan order is the apply order).
            for w in plan.moves.windows(2) {
                assert!(w[0].node.index() < w[1].node.index());
            }
        }
    }

    #[test]
    fn balanced_load_plans_nothing() {
        // Uniform load on a shape whose size-based partition is already
        // bottleneck-optimal (three heads peeled, root keeps the
        // fourth): the weighted cut cannot strictly improve it, so the
        // hysteresis gate returns an empty plan — nothing moves.
        let tree = ww_topology::two_level(4, 7);
        let p = partition_subtrees(&tree, 4);
        let load = vec![7u64; tree.len()];
        let plan = rebalance_plan(&tree, &p, &load);
        assert!(plan.is_empty(), "uniform load must not migrate");
    }

    #[test]
    fn applied_plan_is_a_fixed_point() {
        // The cut is a pure function of (tree, load, shard count) —
        // independent of the current map — so re-planning right after
        // applying, from the same counts, relabels the same regions
        // onto themselves.
        let tree = ww_topology::k_ary(2, 8);
        let mut p = partition_subtrees(&tree, 4);
        let load = skewed_load(&tree, 1);
        let plan = rebalance_plan(&tree, &p, &load);
        assert!(!plan.is_empty());
        p.move_nodes(&plan.moves);
        let again = rebalance_plan(&tree, &p, &load);
        assert!(again.is_empty(), "replanning after apply must be empty");
        assert!((again.imbalance_before - plan.predicted_imbalance).abs() < 1e-12);
    }

    #[test]
    fn event_free_window_plans_nothing() {
        let tree = ww_topology::k_ary(2, 6);
        let p = partition_subtrees(&tree, 4);
        let plan = rebalance_plan(&tree, &p, &vec![0u64; tree.len()]);
        assert!(plan.is_empty());
        assert_eq!(plan.imbalance_before, 1.0);
    }

    #[test]
    fn single_shard_plans_nothing() {
        let tree = ww_topology::k_ary(2, 6);
        let p = partition_subtrees(&tree, 1);
        let plan = rebalance_plan(&tree, &p, &vec![9u64; tree.len()]);
        assert!(plan.is_empty());
    }

    #[test]
    fn load_summary_sums_by_shard() {
        let tree = ww_topology::path(6);
        let p = partition_subtrees(&tree, 2);
        let load: Vec<u64> = (0..6).collect();
        let summary = LoadSummary::of(&p, &load);
        assert_eq!(summary.total(), 15);
        assert_eq!(summary.shard_events.len(), 2);
        assert!(summary.imbalance() >= 1.0);
    }

    #[test]
    fn shard_count_is_preserved_or_plan_is_empty() {
        // A star-ish degenerate shape where the weighted peel may fail
        // to find enough fitting subtrees: the plan must come back
        // empty rather than shrink the shard count.
        let tree = ww_topology::two_level(3, 1);
        let p = partition_subtrees(&tree, 3);
        let mut load = vec![0u64; tree.len()];
        load[0] = 1_000;
        let plan = rebalance_plan(&tree, &p, &load);
        let shard_of = apply(&p, &plan);
        for s in 0..p.shards() {
            assert!(shard_of.contains(&s), "shard {s} emptied by the plan");
        }
    }
}
