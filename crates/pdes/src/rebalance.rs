//! Load-aware re-partitioning of the shard map at epoch barriers.
//!
//! The static partition from
//! [`partition_subtrees`](crate::partition_subtrees) balances node
//! *counts*; a flash crowd or churn skews per-shard *event* counts
//! regardless. This module computes, as a **pure function** of the
//! deterministic epoch-boundary event counters, a migration plan that
//! moves subtree ownership toward the mean load:
//!
//! - [`rebalance_plan`] re-packs the tree with the partitioner's own
//!   packer ([`crate::partition`]) under per-node weights equal to
//!   observed event counts (plus one, so load-free regions stay
//!   movable and the event-free limit is node-count balancing). A
//!   subtree too hot for one shard is a piece too heavy for a fair
//!   share, so the packer *opens* it and spreads its child subtrees —
//!   the interior split, by the same rule that opens the root. The
//!   resulting regions are relabeled to the old shard ids by maximum
//!   member overlap so that quiet shards keep most of their nodes in
//!   place.
//! - The plan is empty unless it is predicted to remove a material
//!   share (a tenth) of the excess max/mean imbalance, so steady
//!   workloads — and loads no packing can split, one node carrying most
//!   of the events — never migrate.
//!
//! Everything here is observation-in, plan-out: the inputs are
//! `queue.processed()`-derived counters (bit-identical at every worker
//! count), never wall-clock or telemetry, so the same spec+seed yields
//! the same migrations on every machine. Applying a plan never changes
//! the simulated trace at all — node state is shard-location-agnostic
//! and migration is pure ownership movement (see `docs/parallel.md`).

use crate::partition::{pack, Partition, PartitionShape};
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
    /// What the packer made of the tree (observability only; default
    /// for an empty plan).
    pub shape: PartitionShape,
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
            shape: PartitionShape::default(),
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
/// The plan keeps the shard *count* fixed (shards are worker threads)
/// and every shard a set of whole pieces (see [`crate::partition`]),
/// and is empty unless the re-packing is predicted to remove at least a
/// tenth of the window's excess max/mean imbalance
/// (`before - predicted >= 0.1 * (before - 1.0)`). The packing itself
/// does not depend on the current map, so re-planning right after
/// applying, from the same counts, relabels the same regions onto
/// themselves; across windows the counts differ, and what keeps the
/// controller from thrashing is the material-gain rule.
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

    // Re-pack by weight. Every node carries +1 on top of its event
    // count so load-free regions stay movable and the event-free limit
    // degenerates to node-count balancing. A packing that leaves a
    // shard empty (fewer pieces than shards: atomic hot nodes) would
    // shrink the shard count; keep the current partition instead.
    let packing = pack(tree, |u| node_events[u] + 1, shards);
    if packing.loads.contains(&0) {
        return RebalancePlan::noop(imbalance_before);
    }
    let region_of = packing.shard_of;

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
        shape: packing.shape,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::check_forest;
    use crate::partition_subtrees;

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
    fn skewed_load_shrinks_imbalance_and_stays_a_forest() {
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
        check_forest(&tree, &new_shard_of, p.shards(), plan.shape);
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
        // Uniform load scales the unit weights the static partition was
        // packed under, and the packer is scale-free: the same regions
        // come back, relabel onto themselves, and nothing moves.
        let tree = ww_topology::two_level(4, 7);
        let p = partition_subtrees(&tree, 4);
        let load = vec![7u64; tree.len()];
        let plan = rebalance_plan(&tree, &p, &load);
        assert!(plan.is_empty(), "uniform load must not migrate");
    }

    #[test]
    fn applied_plan_is_a_fixed_point() {
        // The packing is a pure function of (tree, load, shard count)
        // — independent of the current map — so re-planning right
        // after applying, from the same counts, relabels the same
        // regions onto themselves.
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
        // A star-ish degenerate shape with an atomic hot root, where a
        // packing may have fewer pieces than shards: the plan must come
        // back empty rather than shrink the shard count.
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
