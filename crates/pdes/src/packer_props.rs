//! The packer of [`crate::partition`], as properties.
//!
//! On generated trees (k-ary, two-level, paths, stars, random
//! recursive — their child lists scrambled by a few leaves and joins,
//! the way churn scrambles them) × weights (unit, one hot subtree, one
//! hot node) × 1–8 shards:
//!
//! - every node lands on exactly one shard, and the loads add up;
//! - the packing is a function of the *parent array*: the
//!   `Tree::from_parents` copy a distributed worker builds, whose
//!   children come in another order, packs identically;
//! - balance: `max ≤ max(1.1 × mean, mean + heaviest node)` — the bar,
//!   or what one atomic node forces (when the opening loop stops short
//!   of the bar, the heaviest shard holds only atomic pieces and was
//!   the lightest, or under a fair share, when it took its last one);
//! - the phase bar: every (shard, phase band) load is within
//!   `max(1.1 × band mean, ⌈band mean⌉, heaviest node)`, or the shard
//!   over it holds no whole-subtree piece the gate lets open (at least
//!   two children heavier than `max(⌈total / (shards · 16)⌉, heaviest
//!   node)`), recomputed here from the tree and the weights;
//! - the counted cut edges are the real ones, at most one per non-root
//!   piece;
//! - re-planning on the partition a plan produced, from the same
//!   counts, plans nothing.

use crate::partition::{band_of, cut_edges, pack, partition_forest, within_bar, Packing, BANDS};
use crate::rebalance::rebalance_plan;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ww_model::{NodeId, Tree};

/// One of the five shapes, sized by `a` and `b`, then scrambled: each
/// entry of `churn` removes a leaf (renumbering the last node into its
/// id) and joins a new one elsewhere, so children stop being sorted.
fn tree_of(shape: u8, a: usize, b: usize, seed: u64, churn: &[usize]) -> Tree {
    let mut tree = match shape % 5 {
        0 => ww_topology::k_ary(2 + a % 3, 1 + b % 4),
        1 => ww_topology::two_level(1 + a, 1 + b),
        2 => ww_topology::path(1 + a * b / 2),
        3 => ww_topology::star(1 + a * b / 2),
        _ => ww_topology::random_recursive_bounded(
            &mut StdRng::seed_from_u64(seed),
            1 + a * b / 2,
            1 + b,
        ),
    };
    for &pick in churn {
        let leaves: Vec<NodeId> = tree.nodes().filter(|&u| tree.is_leaf(u)).collect();
        let leaf = leaves[pick % leaves.len()];
        if tree.parent(leaf).is_some() {
            tree.remove_leaf(leaf).expect("a non-root leaf leaves");
        }
        let parent = NodeId::new(pick % tree.len());
        tree.add_leaf(parent).expect("any node takes a leaf");
    }
    tree
}

/// Per-node event counts: all ones, one subtree at 400, or one node
/// heavier than the rest of the tree together.
fn counts_of(tree: &Tree, kind: u8, at: usize) -> Vec<u64> {
    let mut counts = vec![1u64; tree.len()];
    let at = NodeId::new(at % tree.len());
    match kind % 3 {
        0 => {}
        1 => {
            for u in tree.subtree_nodes(at) {
                counts[u.index()] = 400;
            }
        }
        _ => counts[at.index()] = 1_000 * tree.len() as u64,
    }
    counts
}

fn check_packing(tree: &Tree, weights: &[u64], shards: usize, packing: &Packing) {
    let n = tree.len();
    assert_eq!(packing.shard_of.len(), n);
    assert_eq!(packing.loads.len(), shards);
    let mut loads = vec![0u64; shards];
    for (u, &s) in packing.shard_of.iter().enumerate() {
        loads[s] += weights[u];
    }
    assert_eq!(loads, packing.loads, "every node on exactly one shard");

    let total: u64 = weights.iter().sum();
    let heaviest = *weights.iter().max().expect("non-empty tree");
    let max = *loads.iter().max().expect("at least one shard");
    let k = shards as u64;
    assert!(
        max * 10 * k <= total * 11 || max * k <= total + heaviest * k,
        "max {max} of total {total} on {shards} shards, heaviest node {heaviest}"
    );

    let mut sub = weights.to_vec();
    for u in tree.bottom_up() {
        if let Some(p) = tree.parent(u) {
            sub[p.index()] += sub[u.index()];
        }
    }
    let tau = total.div_ceil((shards * BANDS) as u64).max(heaviest);
    let mut gated = vec![false; shards];
    for &u in &packing.whole_pieces {
        let s = packing.shard_of[u];
        let below = tree.subtree_nodes(NodeId::new(u));
        assert!(below.iter().all(|v| packing.shard_of[v.index()] == s));
        let heavy = (tree.children(NodeId::new(u)).iter())
            .filter(|c| sub[c.index()] > tau)
            .count();
        gated[s] |= heavy >= 2;
    }
    let mut bands = vec![[0u64; BANDS]; shards];
    for (u, &s) in packing.shard_of.iter().enumerate() {
        bands[s][band_of(u, n)] += weights[u];
    }
    for b in 0..BANDS {
        let band_total: u64 = bands.iter().map(|loads| loads[b]).sum();
        for (s, loads) in bands.iter().enumerate() {
            assert!(
                within_bar(loads[b], band_total, shards, heaviest) || !gated[s],
                "shard {s} holds {} of band {b}'s {band_total} and a piece the gate opens",
                loads[b]
            );
        }
    }

    let shape = packing.shape;
    assert_eq!(shape.cut_edges, cut_edges(tree, &packing.shard_of));
    assert!(shape.cut_edges < shape.pieces, "{shape:?}");
    assert!(shape.pieces <= n as u64, "{shape:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(96))]

    #[test]
    fn packing_covers_balances_and_ignores_child_order(
        shape in 0u8..5,
        a in 1usize..13,
        b in 1usize..13,
        seed in any::<u64>(),
        churn in proptest::collection::vec(0usize..10_000, 0..6),
        kind in 0u8..3,
        at in 0usize..10_000,
        shards in 1usize..=8,
    ) {
        let tree = tree_of(shape, a, b, seed, &churn);
        let copy = Tree::from_parents(&tree.to_parents()).expect("a tree's own parents");
        let counts = counts_of(&tree, kind, at);
        let weights: Vec<u64> = counts.iter().map(|c| c + 1).collect();
        let shards = shards.min(tree.len());

        // The packer itself, under the weights a re-plan would use.
        let packing = pack(&tree, |u| weights[u], shards);
        check_packing(&tree, &weights, shards, &packing);
        prop_assert_eq!(&packing.shard_of, &pack(&copy, |u| weights[u], shards).shard_of);

        // The static partition: unit weights, no shard empty, the root
        // on shard 0, tables in agreement.
        let (mut partition, shape) = partition_forest(&tree, shards);
        prop_assert_eq!(partition.shards(), shards);
        prop_assert_eq!(partition.shard_of[tree.root().index()], 0);
        prop_assert_eq!(shape.cut_edges, cut_edges(&tree, &partition.shard_of));
        for (s, members) in partition.members.iter().enumerate() {
            prop_assert!(!members.is_empty(), "shard {} is empty", s);
            for (li, &u) in members.iter().enumerate() {
                prop_assert_eq!(partition.shard_of[u.index()], s);
                prop_assert_eq!(partition.local_index[u.index()] as usize, li);
            }
        }
        let placed: usize = partition.members.iter().map(Vec::len).sum();
        prop_assert_eq!(placed, tree.len());
        prop_assert_eq!(&partition.shard_of, &partition_forest(&copy, shards).0.shard_of);

        // A plan, applied, is a fixed point of its own counts.
        let plan = rebalance_plan(&tree, &partition, &counts);
        prop_assert_eq!(&plan, &rebalance_plan(&copy, &partition, &counts));
        if !plan.is_empty() {
            prop_assert!(plan.predicted_imbalance < plan.imbalance_before);
            partition.move_nodes(&plan.moves);
            for s in 0..shards {
                prop_assert!(!partition.members[s].is_empty(), "plan emptied shard {}", s);
            }
            prop_assert_eq!(plan.shape.cut_edges, cut_edges(&tree, &partition.shard_of));
        }
        let again = rebalance_plan(&tree, &partition, &counts);
        prop_assert!(again.is_empty(), "re-planning moved {} nodes", again.moves.len());
    }
}

#[test]
fn the_million_node_cdn_splits_evenly_over_eight_shards() {
    // `scenarios/scaling_1m_parallel.json`'s shape. One connected
    // subtree per shard gave seven shards a 1,001-node region each and
    // the eighth the other ~993 k nodes.
    let tree = ww_topology::two_level(1000, 1000);
    let (partition, shape) = partition_forest(&tree, 8);
    assert_eq!(partition.shards(), 8);
    let mean = tree.len() as f64 / 8.0;
    for (s, members) in partition.members.iter().enumerate() {
        let ratio = members.len() as f64 / mean;
        assert!(
            (1.0 / 1.1..=1.1).contains(&ratio),
            "shard {s} holds {} nodes, {ratio:.3} of the mean",
            members.len()
        );
    }
    assert_eq!(shape.pieces, 1001, "the regions were enough: none opened");
}
