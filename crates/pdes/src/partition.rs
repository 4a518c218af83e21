//! Deterministic subtree partitioning of the routing tree.
//!
//! The parallel engine shards the tree into connected subtrees, one per
//! worker. Cut edges are always tree edges, and every cross-node effect
//! in the packet protocol pays at least one link delay per tree edge —
//! so the link latency of the cut edges is exactly the conservative
//! lookahead between shards.
//!
//! The partitioner peels off the largest unassigned subtree that fits
//! the per-shard node budget, repeating once per extra shard; the
//! remainder (always containing the root) becomes shard 0. The
//! procedure is a pure function of `(tree, shard count)` — no
//! randomness, no iteration-order dependence — so every run of a given
//! scenario shards identically.
//!
//! The [`Partition`] it produces — the node → (shard, row) map — is the
//! shard driver's own (`ww_core::packet::driver`), re-exported here.

use ww_model::{NodeId, Tree};

pub use ww_core::packet::driver::Partition;

/// Moves one node by swap-remove and append — the one-at-a-time form
/// [`Partition::move_nodes`] replaced, kept as the reference the
/// migration property test replays plans through. Returns
/// `(donor shard, donor local index, recipient local index)`.
#[cfg(test)]
pub(crate) fn move_node(p: &mut Partition, node: usize, to: usize) -> (usize, usize, usize) {
    let from = p.shard_of[node];
    assert_ne!(from, to, "no-op migration for node {node}");
    let li = p.local_index[node] as usize;
    p.members[from].swap_remove(li);
    if let Some(&w) = p.members[from].get(li) {
        p.local_index[w.index()] = li as u32;
    }
    let new_li = p.members[to].len();
    p.members[to].push(NodeId::new(node));
    p.shard_of[node] = to;
    p.local_index[node] = new_li as u32;
    (from, li, new_li)
}

/// Splits `tree` into at most `max_shards` connected subtree shards of
/// roughly equal size. Always yields at least one shard; shard 0
/// contains the root.
///
/// # Panics
///
/// Panics if `tree` is empty or `max_shards` is zero.
pub fn partition_subtrees(tree: &Tree, max_shards: usize) -> Partition {
    assert!(!tree.is_empty(), "cannot partition an empty tree");
    assert!(max_shards > 0, "need at least one shard");
    let n = tree.len();
    let shards = max_shards.min(n);
    let target = n.div_ceil(shards);

    // Residual subtree sizes, updated as subtrees are peeled away.
    let mut residual: Vec<usize> = vec![0; n];
    for u in tree.bottom_up() {
        residual[u.index()] = 1 + tree
            .children(u)
            .iter()
            .map(|c| residual[c.index()])
            .sum::<usize>();
    }

    const UNASSIGNED: usize = usize::MAX;
    let mut shard_of = vec![UNASSIGNED; n];
    let mut next_shard = 1usize;
    let root = tree.root();

    while next_shard < shards {
        // The largest unassigned, non-root subtree that fits the budget;
        // ties break toward the smaller node id.
        let mut best: Option<(usize, usize)> = None; // (size, node)
        for i in 0..n {
            if shard_of[i] != UNASSIGNED || NodeId::new(i) == root {
                continue;
            }
            let size = residual[i];
            if size == 0 || size > target {
                continue;
            }
            let better = match best {
                None => true,
                Some((bs, bi)) => size > bs || (size == bs && i < bi),
            };
            if better {
                best = Some((size, i));
            }
        }
        let Some((size, u)) = best else {
            // Nothing fits (degenerate shapes); stop peeling.
            break;
        };
        // Claim u's residual subtree.
        let mut stack = vec![NodeId::new(u)];
        while let Some(v) = stack.pop() {
            if shard_of[v.index()] != UNASSIGNED {
                continue;
            }
            shard_of[v.index()] = next_shard;
            for &c in tree.children(v) {
                if shard_of[c.index()] == UNASSIGNED {
                    stack.push(c);
                }
            }
        }
        // The peeled nodes no longer count toward any ancestor.
        let mut a = NodeId::new(u);
        residual[a.index()] = 0;
        while let Some(p) = tree.parent(a) {
            residual[p.index()] -= size;
            a = p;
        }
        next_shard += 1;
    }

    // Remainder (including the root) is shard 0.
    for s in shard_of.iter_mut() {
        if *s == UNASSIGNED {
            *s = 0;
        }
    }

    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); next_shard];
    let mut local_index = vec![0u32; n];
    for i in 0..n {
        let s = shard_of[i];
        local_index[i] = members[s].len() as u32;
        members[s].push(NodeId::new(i));
    }

    Partition {
        shard_of,
        local_index,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebalance::Migration;

    fn check_connected_subtrees(tree: &Tree, p: &Partition) {
        // Every non-root node either shares its parent's shard, or is the
        // single entry point of its shard from above. Connectivity: each
        // shard's nodes minus its entry points form child-closed regions.
        for s in 0..p.shards() {
            // Count "entry" nodes: members whose parent lies outside.
            let entries = p.members[s]
                .iter()
                .filter(|&&u| match tree.parent(u) {
                    None => true,
                    Some(parent) => p.shard_of[parent.index()] != s,
                })
                .count();
            assert_eq!(entries, 1, "shard {s} must be one connected subtree");
        }
    }

    #[test]
    fn covers_all_nodes_exactly_once() {
        let tree = ww_topology::k_ary(3, 5);
        let p = partition_subtrees(&tree, 4);
        assert_eq!(p.shard_of.len(), tree.len());
        let total: usize = p.members.iter().map(Vec::len).sum();
        assert_eq!(total, tree.len());
        check_connected_subtrees(&tree, &p);
    }

    #[test]
    fn shards_are_roughly_balanced() {
        let tree = ww_topology::k_ary(2, 9); // 1023 nodes
        let p = partition_subtrees(&tree, 4);
        assert_eq!(p.shards(), 4);
        let sizes: Vec<usize> = p.members.iter().map(Vec::len).collect();
        let target = tree.len().div_ceil(4);
        for (s, &sz) in sizes.iter().enumerate() {
            assert!(sz > 0, "shard {s} is empty");
            // Peeled shards never exceed the budget; the remainder can be
            // smaller but not wildly larger than 2x.
            assert!(sz <= 2 * target, "shard {s} holds {sz} of {}", tree.len());
        }
    }

    #[test]
    fn single_shard_and_tiny_trees() {
        let tree = ww_topology::path(3);
        let p1 = partition_subtrees(&tree, 1);
        assert_eq!(p1.shards(), 1);
        let p8 = partition_subtrees(&tree, 8);
        assert!(p8.shards() <= 3);
        check_connected_subtrees(&tree, &p8);
        let single = ww_topology::path(1);
        let p = partition_subtrees(&single, 4);
        assert_eq!(p.shards(), 1);
    }

    #[test]
    fn deterministic() {
        let tree = ww_topology::two_level(7, 5);
        let a = partition_subtrees(&tree, 5);
        let b = partition_subtrees(&tree, 5);
        assert_eq!(a.shard_of, b.shard_of);
    }

    /// The bookkeeping invariant: shard_of / local_index / members agree.
    fn check_indexes(p: &Partition) {
        let n = p.shard_of.len();
        assert_eq!(p.local_index.len(), n);
        let total: usize = p.members.iter().map(Vec::len).sum();
        assert_eq!(total, n);
        for (s, members) in p.members.iter().enumerate() {
            for (li, &u) in members.iter().enumerate() {
                assert_eq!(p.shard_of[u.index()], s, "node {u} shard");
                assert_eq!(p.local_index[u.index()] as usize, li, "node {u} index");
            }
        }
    }

    #[test]
    fn add_node_joins_the_parents_shard() {
        let tree = ww_topology::k_ary(2, 4);
        let mut p = partition_subtrees(&tree, 3);
        let n = tree.len();
        let parent_shard = p.shard_of[5];
        let li = p.add_node(parent_shard);
        assert_eq!(p.shard_of.len(), n + 1);
        assert_eq!(p.shard_of[n], parent_shard);
        assert_eq!(p.members[parent_shard][li], NodeId::new(n));
        check_indexes(&p);
    }

    #[test]
    fn swap_remove_node_renumbers_both_layers() {
        let tree = ww_topology::k_ary(2, 4);
        let mut p = partition_subtrees(&tree, 3);
        let n = tree.len();
        // Remove a node from the middle of some shard: both the global
        // last id and the shard's last member must renumber.
        let victim = p.members[1][0].index();
        let (s, li) = p.swap_remove_node(victim);
        assert_eq!(s, 1);
        assert_eq!(li, 0);
        assert_eq!(p.shard_of.len(), n - 1);
        check_indexes(&p);
        // Removing the highest id is a plain truncation.
        let mut q = partition_subtrees(&tree, 3);
        q.swap_remove_node(n - 1);
        check_indexes(&q);
    }

    #[test]
    fn move_nodes_compacts_donors_stably_and_appends_in_plan_order() {
        let tree = ww_topology::k_ary(2, 5);
        let mut p = partition_subtrees(&tree, 3);
        // Shard 1 gives two members to shard 2 and takes one from
        // shard 0 — donor and recipient in one plan.
        let pick = |p: &Partition, s: usize, li: usize| p.members[s][li];
        let mut moves = vec![
            Migration {
                node: pick(&p, 1, 0),
                from: 1,
                to: 2,
            },
            Migration {
                node: pick(&p, 1, 2),
                from: 1,
                to: 2,
            },
            Migration {
                node: pick(&p, 0, 1),
                from: 0,
                to: 1,
            },
        ];
        moves.sort_unstable_by_key(|m| m.node.index());
        let survivors_of_1: Vec<NodeId> = p.members[1]
            .iter()
            .copied()
            .filter(|u| moves.iter().all(|m| m.node != *u))
            .collect();
        let old_len_2 = p.members[2].len();
        p.move_nodes(&moves);
        check_indexes(&p);
        let kept = survivors_of_1.len();
        assert_eq!(p.members[1][..kept], survivors_of_1[..], "stable retain");
        assert_eq!(
            p.members[1][kept..],
            [moves.iter().find(|m| m.to == 1).unwrap().node]
        );
        let to_2: Vec<NodeId> = moves.iter().filter(|m| m.to == 2).map(|m| m.node).collect();
        assert_eq!(
            p.members[2][old_len_2..],
            to_2[..],
            "appended in plan order"
        );
    }

    #[test]
    fn one_connected_subtree_per_shard_caps_the_two_level_split() {
        // A measured ceiling, pinned so the PR that lifts it has a
        // number to move (docs/parallel.md, "Performance notes"): the
        // peel hands each extra shard ONE connected subtree, and under
        // the root of a two-level CDN the largest one is a single
        // region — so two workers split `seq_cdn`'s tree 32,400 / 181.
        let tree = ww_topology::two_level(180, 180);
        let p = partition_subtrees(&tree, 2);
        let sizes: Vec<usize> = p.members.iter().map(Vec::len).collect();
        assert_eq!(sizes, [32_400, 181]);
    }

    #[test]
    fn cut_pairs_are_symmetric_and_sorted() {
        let tree = ww_topology::k_ary(2, 6);
        let p = partition_subtrees(&tree, 3);
        let pairs = p.cut_pairs(&tree);
        for &(a, b) in &pairs {
            assert!(pairs.contains(&(b, a)), "missing reverse of ({a}, {b})");
        }
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(pairs, sorted);
    }
}
