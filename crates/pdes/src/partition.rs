//! Deterministic forest partitioning of the routing tree.
//!
//! A shard is a **set of subtree pieces**, not one connected subtree.
//! Nothing in the synchronization needs connectivity: every cross-node
//! effect of the packet protocol (tunnel probes and grants included)
//! rides one tree edge for one link delay, so the link latency of *any*
//! set of cut edges is the conservative lookahead between the shards on
//! either side, and wires are opened per adjacent shard **pair**
//! ([`Partition::cut_pairs`]) however many edges cross between them.
//! What connectivity would cost is balance: under the root of a
//! two-level CDN the largest connected piece that fits a half is one
//! region, so one connected subtree per shard splits
//! `two_level(180, 180)` 32,400 / 181.
//!
//! # The packer
//!
//! One function of `(parent array, per-node weights, shard count)` —
//! never of child *order*, which differs between the coordinator's tree
//! and the `Tree::from_parents` copy a distributed worker builds —
//! serves both the static partition ([`partition_subtrees`], unit
//! weights) and the barrier-time re-cut
//! ([`rebalance_plan`](crate::rebalance_plan), observed event counts):
//!
//! 1. **Pieces.** The root starts *opened* — a singleton piece — with
//!    each child's whole subtree as a piece. Opening a piece turns its
//!    root into a singleton and its child subtrees into pieces; a child
//!    heavier than the opening's limit is opened in turn. The first
//!    limit is `total / shards`: no piece may outweigh a fair share.
//! 2. **LPT, with an eye on the cut.** Pieces are placed heaviest first
//!    (ties: shallower first, so that a singleton's parent is placed
//!    before it; then higher node id). A piece goes to the shard already
//!    holding most of its neighbours — its parent's singleton, its own
//!    child pieces — if it fits there without passing a fair share
//!    (`total / shards`, rounded down): no new cut edge, and no harm to
//!    the balance. Otherwise it goes to the lightest shard, as in plain
//!    longest-processing-time packing; among equally light shards the
//!    one holding more of its neighbours wins, then the lower shard id.
//!    (Without the first rule the singletons of an opened path or
//!    caterpillar alternate between the lightest shards and every other
//!    edge is cut; with it they fill one shard after another.)
//! 3. **Opening by need.** While the heaviest shard is above the bar
//!    and still holds an openable piece (a whole subtree that is not a
//!    leaf), its heaviest one is opened — with half its weight as the
//!    limit, so a path-like piece really splits — and everything is
//!    repacked. The bar is `max(1.1 × mean, ⌈mean⌉, heaviest node)`:
//!    the ROADMAP's balance bar, or what integer loads and an atomic
//!    node force. The loop does not chase 1.00 — refining
//!    `two_level(4, 4)` at four shards past what 21 nodes allow would
//!    scatter it leaf by leaf, 16 cut edges where 4 do.
//!
//! When the loop stops short of the bar the heaviest shard holds only
//! atomic pieces, the last of them placed while that shard was the
//! lightest or had room under a fair share, so
//! `max ≤ mean + heaviest node` always holds. Each
//! non-root piece adds at most the one cut edge above its root, so cut
//! edges ≤ pieces − 1.
//!
//! The [`Partition`] this produces — the node → (shard, row) map — is
//! the shard driver's own (`ww_core::packet::driver`), re-exported here.

use std::cmp::Reverse;
use ww_model::{NodeId, Tree};
use ww_telemetry::Snapshot;

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

/// Tree edges whose two ends `shard_of` puts on different shards — the
/// count the packer's [`PartitionShape::cut_edges`] must agree with.
#[cfg(test)]
pub(crate) fn cut_edges(tree: &Tree, shard_of: &[usize]) -> u64 {
    tree.nodes()
        .filter(|&u| {
            tree.parent(u)
                .is_some_and(|p| shard_of[p.index()] != shard_of[u.index()])
        })
        .count() as u64
}

/// The forest invariant, for tests here and in [`crate::rebalance`]: no
/// shard empty, and a shard is whole pieces — a node that is not a piece
/// root shares its parent's shard, so every cut edge hangs above a
/// piece root, and the packer's count of them is the real one.
#[cfg(test)]
pub(crate) fn check_forest(tree: &Tree, shard_of: &[usize], shards: usize, shape: PartitionShape) {
    assert_eq!(shard_of.len(), tree.len());
    for s in 0..shards {
        assert!(shard_of.contains(&s), "shard {s} is empty");
    }
    assert_eq!(shape.cut_edges, cut_edges(tree, shard_of));
    assert!(shape.cut_edges < shape.pieces, "{shape:?}");
}

/// What the packer made of the tree — observability only
/// (`pdes.partition.{pieces,cut_edges}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionShape {
    /// Pieces (singletons and whole subtrees) the packer placed.
    pub pieces: u64,
    /// Tree edges whose two ends landed on different shards.
    pub cut_edges: u64,
}

impl PartitionShape {
    /// Pushes `pdes.partition.{pieces,cut_edges}`.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        snap.push_counter("pdes.partition.pieces", self.pieces);
        snap.push_counter("pdes.partition.cut_edges", self.cut_edges);
    }
}

/// A packing of the tree onto `loads.len()` shards, some possibly empty.
#[derive(Debug)]
pub(crate) struct Packing {
    /// Shard of every node.
    pub(crate) shard_of: Vec<usize>,
    /// Weight placed on each shard.
    pub(crate) loads: Vec<u64>,
    pub(crate) shape: PartitionShape,
}

const UNPLACED: usize = usize::MAX;

/// The packer's working state; see the module docs.
struct Packer<'a, W> {
    tree: &'a Tree,
    weight: W,
    /// Subtree weights.
    sub: Vec<u64>,
    opened: Vec<bool>,
    /// Root node of every piece: an opened node is a singleton piece,
    /// any other entry stands for its whole subtree.
    pieces: Vec<usize>,
    /// Shard of the piece rooted at each node (`UNPLACED` elsewhere).
    home: Vec<usize>,
    loads: Vec<u64>,
    /// `total / shards`, rounded down.
    fair_share: u64,
    /// Scratch of `shard_for`, one count per shard.
    adjacent: Vec<u32>,
}

impl<W: Fn(usize) -> u64> Packer<'_, W> {
    fn piece_weight(&self, u: usize) -> u64 {
        if self.opened[u] {
            (self.weight)(u)
        } else {
            self.sub[u]
        }
    }

    fn openable(&self, u: usize) -> bool {
        !self.opened[u] && !self.tree.is_leaf(NodeId::new(u))
    }

    /// Opens the piece rooted at `u`, and in turn every resulting child
    /// piece heavier than `limit`.
    fn open(&mut self, u: usize, limit: u64) {
        let tree = self.tree;
        let mut work = vec![u];
        while let Some(u) = work.pop() {
            self.opened[u] = true;
            for c in tree.children(NodeId::new(u)) {
                let c = c.index();
                self.pieces.push(c);
                if self.sub[c] > limit && self.openable(c) {
                    work.push(c);
                }
            }
        }
    }

    /// The shard for the piece rooted at `u`, `w` heavy: the one already
    /// holding most of its neighbours — its parent's singleton, its own
    /// child pieces — among those it fits on without passing a fair
    /// share (no new cut edge, no harm to the balance; ties to the
    /// lighter shard, then the lower id); else the lightest, ties again
    /// to the one holding more neighbours, then the lower id.
    fn shard_for(&mut self, u: usize, w: u64) -> usize {
        self.adjacent.fill(0);
        let tree = self.tree;
        let node = NodeId::new(u);
        let children: &[NodeId] = if self.opened[u] {
            tree.children(node)
        } else {
            &[]
        };
        for v in tree.parent(node).iter().chain(children) {
            if let Some(count) = self.adjacent.get_mut(self.home[v.index()]) {
                *count += 1;
            }
        }
        let (loads, adjacent) = (&self.loads, &self.adjacent);
        (0..loads.len())
            .filter(|&s| adjacent[s] > 0 && loads[s] + w <= self.fair_share)
            .max_by_key(|&s| (adjacent[s], Reverse(loads[s]), Reverse(s)))
            .or_else(|| (0..loads.len()).min_by_key(|&s| (loads[s], Reverse(adjacent[s]), s)))
            .expect("at least one shard")
    }

    /// Longest-processing-time packing of the current pieces.
    fn pack(&mut self) {
        let mut pieces = std::mem::take(&mut self.pieces);
        let tree = self.tree;
        pieces.sort_unstable_by_key(|&u| {
            let depth = tree.depth(NodeId::new(u));
            (Reverse(self.piece_weight(u)), depth, Reverse(u))
        });
        self.loads.fill(0);
        for &u in &pieces {
            self.home[u] = UNPLACED;
        }
        for &u in &pieces {
            let w = self.piece_weight(u);
            let shard = self.shard_for(u, w);
            self.home[u] = shard;
            self.loads[shard] += w;
        }
        self.pieces = pieces;
    }
}

/// Packs `tree` under per-node `weight` (positive) onto `shards`
/// shards; see the module docs. A pure function of the parent array,
/// the weights and the shard count.
pub(crate) fn pack<W: Fn(usize) -> u64>(tree: &Tree, weight: W, shards: usize) -> Packing {
    let n = tree.len();
    let root = tree.root().index();
    let mut sub = vec![0u64; n];
    let mut heaviest_node = 0u64;
    for u in tree.bottom_up() {
        let own = weight(u.index());
        heaviest_node = heaviest_node.max(own);
        sub[u.index()] += own;
        if let Some(p) = tree.parent(u) {
            sub[p.index()] += sub[u.index()];
        }
    }
    let total = sub[root];
    let mut packer = Packer {
        tree,
        weight,
        sub,
        opened: vec![false; n],
        pieces: vec![root],
        home: vec![UNPLACED; n],
        loads: vec![0; shards],
        fair_share: total / shards as u64,
        adjacent: vec![0; shards],
    };
    packer.open(root, packer.fair_share);
    packer.pack();
    loop {
        let (heavy, &max) = (packer.loads.iter().enumerate())
            .max_by_key(|&(s, &load)| (load, Reverse(s)))
            .expect("at least one shard");
        let within_bar = u128::from(max) * 10 * shards as u128 <= u128::from(total) * 11
            || max <= total.div_ceil(shards as u64)
            || max <= heaviest_node;
        if within_bar {
            break;
        }
        // Pieces are in descending weight order: the first openable one
        // on the heaviest shard is its heaviest.
        let pick = (packer.pieces.iter().copied())
            .find(|&u| packer.home[u] == heavy && packer.openable(u));
        let Some(u) = pick else { break };
        packer.open(u, packer.sub[u] / 2);
        packer.pack();
    }

    let Packer {
        pieces,
        home,
        loads,
        ..
    } = packer;
    let mut shard_of = vec![0usize; n];
    for &u in tree.bfs_order() {
        shard_of[u.index()] = match (home[u.index()], tree.parent(u)) {
            (UNPLACED, Some(p)) => shard_of[p.index()],
            (shard, _) => shard,
        };
    }
    let cut_edges = pieces
        .iter()
        .filter(|&&u| {
            tree.parent(NodeId::new(u))
                .is_some_and(|p| home[p.index()] != home[u])
        })
        .count();
    Packing {
        shard_of,
        loads,
        shape: PartitionShape {
            pieces: pieces.len() as u64,
            cut_edges: cut_edges as u64,
        },
    }
}

/// [`partition_subtrees`], plus what the packer made of the tree.
///
/// # Panics
///
/// Panics if `tree` is empty or `max_shards` is zero.
pub fn partition_forest(tree: &Tree, max_shards: usize) -> (Partition, PartitionShape) {
    assert!(!tree.is_empty(), "cannot partition an empty tree");
    assert!(max_shards > 0, "need at least one shard");
    let n = tree.len();
    let packing = pack(tree, |_| 1, max_shards.min(n));

    // The root's shard becomes shard 0; the other non-empty shards keep
    // their order.
    let root_shard = packing.shard_of[tree.root().index()];
    let mut label = vec![UNPLACED; packing.loads.len()];
    label[root_shard] = 0;
    let mut shards = 1;
    for (s, &load) in packing.loads.iter().enumerate() {
        if s != root_shard && load > 0 {
            label[s] = shards;
            shards += 1;
        }
    }

    let mut shard_of = packing.shard_of;
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
    let mut local_index = vec![0u32; n];
    for i in 0..n {
        let s = label[shard_of[i]];
        shard_of[i] = s;
        local_index[i] = members[s].len() as u32;
        members[s].push(NodeId::new(i));
    }
    let partition = Partition {
        shard_of,
        local_index,
        members,
    };
    (partition, packing.shape)
}

/// Splits `tree` into at most `max_shards` shards of roughly equal size
/// — the packer of the module docs under unit weights. Always yields at
/// least one shard; shard 0 contains the root; no shard is empty. A
/// pure function of `(parent array, shard count)`, so every run of a
/// scenario — and every participant of a distributed one — shards
/// identically.
///
/// # Panics
///
/// Panics if `tree` is empty or `max_shards` is zero.
pub fn partition_subtrees(tree: &Tree, max_shards: usize) -> Partition {
    partition_forest(tree, max_shards).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebalance::Migration;

    fn check_partition(tree: &Tree, p: &Partition, shape: PartitionShape) {
        check_indexes(p);
        check_forest(tree, &p.shard_of, p.shards(), shape);
        assert_eq!(
            p.shard_of[tree.root().index()],
            0,
            "the root lives on shard 0"
        );
    }

    #[test]
    fn covers_all_nodes_exactly_once() {
        let tree = ww_topology::k_ary(3, 5);
        let (p, shape) = partition_forest(&tree, 4);
        assert_eq!(p.shards(), 4);
        check_partition(&tree, &p, shape);
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
            // Within the packer's bar of a fair share.
            assert!(
                sz * 10 <= target * 11,
                "shard {s} holds {sz} of {}",
                tree.len()
            );
        }
    }

    #[test]
    fn single_shard_and_tiny_trees() {
        let tree = ww_topology::path(3);
        let p1 = partition_subtrees(&tree, 1);
        assert_eq!(p1.shards(), 1);
        let (p8, shape) = partition_forest(&tree, 8);
        assert_eq!(p8.shards(), 3, "one node per shard");
        check_partition(&tree, &p8, shape);
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
    fn forest_shards_halve_the_two_level_split() {
        // The ceiling this test used to pin (docs/parallel.md,
        // "Performance notes"): one connected subtree per shard split
        // `seq_cdn`'s tree 32,400 / 181. A shard of sibling regions
        // halves it — ninety regions each, the root on shard 0.
        let tree = ww_topology::two_level(180, 180);
        let (p, shape) = partition_forest(&tree, 2);
        let sizes: Vec<usize> = p.members.iter().map(Vec::len).collect();
        assert_eq!(sizes, [16_291, 16_290]);
        check_partition(&tree, &p, shape);
        assert_eq!(shape.pieces, 181);
        assert_eq!(shape.cut_edges, 90);
        assert_eq!(p.cut_pairs(&tree), [(0, 1), (1, 0)], "still one wire pair");
    }

    #[test]
    fn binary_tree_at_two_shards_splits_below_the_root() {
        // `par_skew_w2`'s starting point, unchanged from the old peel:
        // node 1's subtree | the root and node 2's subtree.
        let tree = ww_topology::k_ary(2, 14);
        let p = partition_subtrees(&tree, 2);
        let below_1 = tree.subtree_nodes(NodeId::new(1));
        assert_eq!(p.members[1], below_1, "shard 1 is node 1's subtree");
        assert_eq!(p.members[0].len(), tree.len() - below_1.len());
    }

    #[test]
    fn child_order_does_not_matter() {
        // The coordinator packs its tree, a worker packs the
        // `from_parents` copy; churn leaves the two with children in
        // different orders.
        let mut tree = ww_topology::two_level(5, 6);
        for leaf in [9, 20, 3 * 7 + 2] {
            tree.remove_leaf(NodeId::new(leaf)).unwrap();
        }
        tree.add_leaf(NodeId::new(2)).unwrap();
        let copy = Tree::from_parents(&tree.to_parents()).unwrap();
        for shards in 1..=6 {
            assert_eq!(
                partition_subtrees(&tree, shards).shard_of,
                partition_subtrees(&copy, shards).shard_of,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn opening_stops_at_what_the_node_count_allows() {
        // 21 nodes on four shards cannot do better than 6 / 5 / 5 / 5;
        // chasing the 1.1 bar past that would scatter the tree leaf by
        // leaf (16 cut edges). Four regions, four cut edges... three:
        // the root keeps one region company.
        let tree = ww_topology::two_level(4, 4);
        let (p, shape) = partition_forest(&tree, 4);
        let mut sizes: Vec<usize> = p.members.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [5, 5, 5, 6]);
        assert_eq!(shape.pieces, 5);
        assert_eq!(shape.cut_edges, 3);
    }

    #[test]
    fn chains_fill_one_shard_after_another() {
        // Opened down to singletons, a path or a caterpillar must not be
        // dealt out round-robin (every other edge cut, hundreds here):
        // a singleton follows its parent while that shard has room.
        for shards in 2..=8 {
            let path = ww_topology::path(1_000);
            let (p, shape) = partition_forest(&path, shards);
            check_partition(&path, &p, shape);
            assert!(shape.cut_edges <= 3 * shards as u64, "path: {shape:?}");
            let spine = ww_topology::caterpillar(250, 3);
            let (p, shape) = partition_forest(&spine, shards);
            check_partition(&spine, &p, shape);
            assert!(shape.cut_edges <= 3 * shards as u64, "spine: {shape:?}");
        }
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
