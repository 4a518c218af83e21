//! Property-based tests for the domain model.

use proptest::prelude::*;
use ww_model::{
    assignment, DocId, DocTable, Growth, LoadAssignment, NodeId, PoolKind, RateVector, Run,
    RunPool, Tree,
};

fn arb_tree() -> impl Strategy<Value = Tree> {
    (1usize..=30)
        .prop_flat_map(|n| {
            let parents: Vec<BoxedStrategy<Option<usize>>> = (0..n)
                .map(|i| {
                    if i == 0 {
                        Just(None).boxed()
                    } else {
                        (0..i).prop_map(Some).boxed()
                    }
                })
                .collect();
            parents
        })
        .prop_map(|p| Tree::from_parents(&p).expect("valid tree"))
}

/// A run pool whose rows are their runs, its buffer growing by growth
/// `G` (0 doubling, 1 sixteenths, 2 moves by holes).
enum Rows<const G: u8> {}

impl<const G: u8> PoolKind for Rows<G> {
    type Row = Run;
    const GROWTH: Growth = match G {
        0 => Growth::Doubling,
        1 => Growth::Sixteenths,
        _ => Growth::MovesByHoles,
    };
    fn run(row: &mut Run) -> &mut Run {
        row
    }
}

/// Every row of `pool` reads its reference row, the buffer holds the
/// live cells and the counted holes, and the holes are under the pack
/// limit.
fn check_pool<K: PoolKind<Row = Run>>(
    pool: &RunPool<u32, K>,
    runs: &[Run],
    rows: &[Vec<u32>],
    step: usize,
) {
    prop_assert_eq!(runs.len(), rows.len());
    for (row, (&run, cells)) in runs.iter().zip(rows).enumerate() {
        prop_assert_eq!(pool.of(run), &cells[..], "row {} after step {}", row, step);
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(pool.cell(run, i), cell);
        }
    }
    let live: usize = rows.iter().map(Vec::len).sum();
    let holes = pool.holes();
    prop_assert_eq!(pool.len(), live + holes, "live + holes after step {}", step);
    prop_assert!(
        holes == 0 || 4 * holes < live || 8 * holes < rows.len(),
        "{} holes beside {} live cells of {} rows after step {}: past the pack limit",
        holes,
        live,
        rows.len(),
        step
    );
}

/// Runs `ops` on a pool of kind `K` and on a `Vec` of rows, checking
/// the pool after every step. An op is `(kind, a, b)`: push a run of
/// `a % 5` cells; insert one cell into row `a` at place `b`; extend row
/// `a` by `b % 4` cells; row `a` leaves by swap-remove; the rows whose
/// bit is set in `a` leave at once, the others keeping their order (a
/// migration's donor side); the pool is copied over a second pool by
/// `clone_from`, and the copy carries on.
fn run_pool_matches_rows<K: PoolKind<Row = Run>>(ops: &[(u8, u32, u32)]) {
    let (mut pool, mut spare) = (RunPool::<u32, K>::new(), RunPool::<u32, K>::new());
    let (mut runs, mut rows): (Vec<Run>, Vec<Vec<u32>>) = (Vec::new(), Vec::new());
    let mut next = 0u32;
    let mut fresh = |n: u32| {
        next += n;
        (next - n..next).collect::<Vec<u32>>()
    };
    for (step, &(kind, a, b)) in ops.iter().enumerate() {
        let n = rows.len();
        let row = a as usize % n.max(1);
        match kind {
            0 => {
                let cells = fresh(a % 5);
                runs.push(pool.push_run(&cells));
                rows.push(cells);
            }
            1 if n > 0 => {
                let at = b as usize % (rows[row].len() + 1);
                let cell = fresh(1)[0];
                pool.insert(&mut runs, row, at, cell);
                rows[row].insert(at, cell);
            }
            2 if n > 0 => {
                let cells = fresh(b % 4);
                pool.extend(&mut runs, row, cells.iter().copied());
                rows[row].extend(cells);
            }
            3 if n > 0 => {
                let gone = runs.swap_remove(row);
                pool.vacate(&mut runs, [gone]);
                rows.swap_remove(row);
            }
            4 => {
                let leaves = |row: usize| (a >> (row % 32)) & 1 == 1;
                let gone: Vec<Run> = (0..n).filter(|&r| leaves(r)).map(|r| runs[r]).collect();
                let mut r = 0;
                runs.retain(|_| {
                    r += 1;
                    !leaves(r - 1)
                });
                let mut r = 0;
                rows.retain(|_| {
                    r += 1;
                    !leaves(r - 1)
                });
                pool.vacate(&mut runs, gone);
            }
            5 => {
                spare.clone_from(&pool);
                std::mem::swap(&mut pool, &mut spare);
            }
            _ => continue,
        }
        check_pool(&pool, &runs, &rows, step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(128))]

    /// Flow conservation: served total plus root residual always equals
    /// the offered demand, for *any* load vector.
    #[test]
    fn flow_conservation_identity(
        (tree, e, l) in arb_tree().prop_flat_map(|t| {
            let n = t.len();
            (
                Just(t),
                proptest::collection::vec(0.0f64..50.0, n).prop_map(RateVector::from),
                proptest::collection::vec(0.0f64..50.0, n).prop_map(RateVector::from),
            )
        })
    ) {
        let fwd = assignment::compute_forwarded(&tree, &e, &l);
        // Telescoping: E_total - L_total = A_root (the residual).
        let root_residual = fwd[tree.root()];
        prop_assert!((e.total() - l.total() - root_residual).abs() < 1e-6);
    }

    /// Through rate decomposes as served + forwarded at every node.
    #[test]
    fn through_decomposition(
        (tree, e, l) in arb_tree().prop_flat_map(|t| {
            let n = t.len();
            (
                Just(t),
                proptest::collection::vec(0.0f64..50.0, n).prop_map(RateVector::from),
                proptest::collection::vec(0.0f64..50.0, n).prop_map(RateVector::from),
            )
        })
    ) {
        let through = assignment::compute_through(&tree, &e, &l);
        let a = LoadAssignment::new(&tree, &e, l.clone()).unwrap();
        for u in tree.nodes() {
            prop_assert!((through[u] - (a.served()[u] + a.forwarded()[u])).abs() < 1e-9);
        }
    }

    /// Euclidean distance is a metric: symmetric, zero iff equal (on the
    /// same vector), triangle inequality.
    #[test]
    fn euclidean_distance_is_a_metric(
        (a, b, c) in (1usize..=20).prop_flat_map(|n| {
            let v = || proptest::collection::vec(0.0f64..100.0, n).prop_map(RateVector::from);
            (v(), v(), v())
        })
    ) {
        let dab = a.euclidean_distance(&b);
        let dba = b.euclidean_distance(&a);
        prop_assert!((dab - dba).abs() < 1e-9);
        prop_assert!(a.euclidean_distance(&a) < 1e-12);
        let dac = a.euclidean_distance(&c);
        let dcb = c.euclidean_distance(&b);
        prop_assert!(dab <= dac + dcb + 1e-9);
    }

    /// compare_balance is antisymmetric and consistent with max().
    #[test]
    fn compare_balance_consistency(
        (a, b) in (2usize..=20).prop_flat_map(|n| {
            let v = || proptest::collection::vec(0.0f64..100.0, n).prop_map(RateVector::from);
            (v(), v())
        })
    ) {
        use std::cmp::Ordering;
        let ab = a.compare_balance(&b, 1e-9);
        let ba = b.compare_balance(&a, 1e-9);
        prop_assert_eq!(ab, ba.reverse());
        if a.max() < b.max() - 1e-9 {
            prop_assert_eq!(ab, Ordering::Less);
        }
    }

    /// sorted_descending is a permutation, sorted.
    #[test]
    fn sorted_descending_is_permutation(
        v in proptest::collection::vec(0.0f64..100.0, 1..30).prop_map(RateVector::from)
    ) {
        let s = v.sorted_descending();
        prop_assert_eq!(s.len(), v.len());
        for w in s.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        let sum: f64 = s.iter().sum();
        prop_assert!((sum - v.total()).abs() < 1e-6);
    }

    /// subtree_nodes agrees with subtree_size and contains exactly the
    /// descendants.
    #[test]
    fn subtree_nodes_consistency(tree in arb_tree()) {
        for u in tree.nodes() {
            let sub = tree.subtree_nodes(u);
            prop_assert_eq!(sub.len(), tree.subtree_size(u));
            for &v in &sub {
                prop_assert!(tree.is_ancestor(u, v));
            }
        }
    }

    /// bottom_up() is the exact reverse of bfs_order().
    #[test]
    fn bottom_up_reverses_bfs(tree in arb_tree()) {
        let bfs: Vec<NodeId> = tree.bfs_order().to_vec();
        let mut bu: Vec<NodeId> = tree.bottom_up().collect();
        bu.reverse();
        prop_assert_eq!(bfs, bu);
    }

    /// Scaling a rate vector scales its total and max linearly.
    #[test]
    fn scale_linearity(
        v in proptest::collection::vec(0.0f64..100.0, 1..30).prop_map(RateVector::from),
        k in 0.0f64..10.0
    ) {
        let s = v.scale(k);
        prop_assert!((s.total() - k * v.total()).abs() < 1e-6);
        prop_assert!((s.max() - k * v.max()).abs() < 1e-6);
    }

    /// A DocTable round-trips every DocId in its universe: `index_of` and
    /// `doc` are exact inverses, indices are dense `0..len` in ascending
    /// id order, and ids outside the universe have no index. Inserts
    /// then number ids drawn anywhere in `u64`, repeats included, by
    /// birth: a new id gets index `len`, an old one keeps its index, and
    /// the side table stays sorted by id.
    #[test]
    fn doc_table_round_trips_every_doc_id(
        ids in proptest::collection::hash_set(0u64..10_000, 0..200),
        inserts in proptest::collection::vec((any::<bool>(), any::<u64>(), 0usize..200), 0..40),
    ) {
        let mut table = DocTable::from_ids(ids.iter().map(|&v| DocId::new(v)));
        prop_assert_eq!(table.len(), ids.len());
        for &v in &ids {
            let d = DocId::new(v);
            let idx = table.index_of(d).expect("universe member has an index");
            prop_assert!((idx as usize) < table.len());
            prop_assert_eq!(table.doc(idx), d);
        }
        let mut prev: Option<DocId> = None;
        for idx in 0..table.len() as u32 {
            let d = table.doc(idx);
            prop_assert_eq!(table.index_of(d), Some(idx));
            if let Some(p) = prev {
                prop_assert!(p < d, "indices must follow ascending id order");
            }
            prev = Some(d);
        }
        // Ids outside the universe have no index.
        for probe in 0..100u64 {
            let outside = 10_000 + probe * 13;
            prop_assert_eq!(table.index_of(DocId::new(outside)), None);
        }
        // Births: a fresh id anywhere in `u64`, or a repeat of one the
        // table holds.
        let mut born: Vec<DocId> = table.docs().to_vec();
        for &(repeat, wide, pick) in &inserts {
            let d = match born.len() {
                len if repeat && len > 0 => born[pick % len],
                _ => DocId::new(wide),
            };
            let expect = born.iter().position(|&b| b == d).unwrap_or(born.len());
            prop_assert_eq!(table.insert(d) as usize, expect);
            if expect == born.len() {
                born.push(d);
            }
            prop_assert_eq!(table.docs(), &born[..]);
            for (idx, &b) in born.iter().enumerate() {
                prop_assert_eq!(table.index_of(b), Some(idx as u32));
            }
            let by_id = table.by_id();
            prop_assert_eq!(by_id.len(), born.len());
            prop_assert!(by_id.windows(2).all(|w| w[0].0 < w[1].0), "side table sorted");
            for &(doc, idx) in by_id {
                prop_assert_eq!(table.doc(idx), doc);
            }
        }
    }

    /// DocSet membership mirrors a model HashSet under a random
    /// insert/remove trace.
    #[test]
    fn doc_set_mirrors_hash_set(
        ops in proptest::collection::vec((0u32..256, any::<bool>()), 0..400)
    ) {
        use std::collections::HashSet;
        let mut dense = ww_model::DocSet::new(256);
        let mut model: HashSet<u32> = HashSet::new();
        for &(idx, insert) in &ops {
            if insert {
                prop_assert_eq!(dense.insert(idx), model.insert(idx));
            } else {
                prop_assert_eq!(dense.remove(idx), model.remove(&idx));
            }
        }
        prop_assert_eq!(dense.count(), model.len());
        let mut sorted: Vec<u32> = model.into_iter().collect();
        sorted.sort_unstable();
        prop_assert_eq!(dense.iter().collect::<Vec<_>>(), sorted);
    }

    /// The in-place churn mutators keep every derived structure — child
    /// lists, depths, subtree sizes, BFS order — equal to a from-scratch
    /// build over the same parent array, under arbitrary numberings
    /// (the root and interior nodes get renumbered too).
    #[test]
    fn churn_in_place_matches_a_rebuild(
        tree in arb_tree(),
        shuffle in any::<u64>(),
        ops in proptest::collection::vec((any::<bool>(), 0usize..1000), 1..40),
    ) {
        // Renumber the generated tree by a seeded permutation, so the
        // root is not always id 0 and parents need not precede children.
        let n = tree.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = shuffle | 1;
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            perm.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut parents = vec![None; n];
        for (i, p) in tree.to_parents().into_iter().enumerate() {
            parents[perm[i]] = p.map(|p| perm[p]);
        }
        let mut tree = Tree::from_parents(&parents).expect("a permuted tree is a tree");
        for (add, pick) in ops {
            if add {
                let id = tree.add_leaf(NodeId::new(pick % tree.len())).expect("parent exists");
                prop_assert_eq!(id.index(), tree.len() - 1);
            } else {
                let leaves: Vec<NodeId> = tree
                    .nodes()
                    .filter(|&u| tree.is_leaf(u) && u != tree.root())
                    .collect();
                if leaves.is_empty() {
                    continue;
                }
                let before = tree.clone();
                let leaf = leaves[pick % leaves.len()];
                let removal = tree.remove_leaf(leaf).expect("a non-root leaf departs");
                prop_assert_eq!(removal.removed, leaf);
                prop_assert_eq!(before.parent(leaf), Some(removal.parent_before()));
            }
            let rebuilt = Tree::from_parents(&tree.to_parents()).expect("still a tree");
            prop_assert_eq!(&tree, &rebuilt);
        }
    }

    /// Every row operation of a `DocGrid` — on rows an earlier growth
    /// may have widened — equals the same operation on a plain `Vec` of
    /// rows.
    #[test]
    fn doc_grid_row_operations_match_a_vec_of_rows(
        rows in 0usize..7,
        docs in 0usize..5,
        widen in any::<bool>(),
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..12),
    ) {
        let mut grid = ww_model::DocGrid::new(rows, docs, 0u32);
        let mut model: Vec<Vec<u32>> = vec![vec![0; docs]; rows];
        let mut next = 1u32;
        let mut stamp = |grid: &mut ww_model::DocGrid<u32>, model: &mut Vec<Vec<u32>>| {
            for (row, cells) in model.iter_mut().enumerate() {
                for (k, cell) in cells.iter_mut().enumerate() {
                    *cell = next;
                    *grid.get_mut(row, k as u32) = next;
                    next += 1;
                }
            }
        };
        let mut docs = docs;
        if widen {
            // One appended column: every row after the first moved.
            grid.grow_docs(docs + 1, 0);
            for cells in &mut model {
                cells.push(0);
            }
            docs += 1;
        }
        stamp(&mut grid, &mut model);
        for (kind, pick) in ops {
            let n = model.len();
            match kind {
                0 => {
                    grid.push_row(9);
                    model.push(vec![9; docs]);
                }
                1 if n > 0 => {
                    let row = pick as usize % n;
                    grid.swap_remove_row(row);
                    model.swap_remove(row);
                }
                2 => {
                    let keep = |row: usize| (pick >> (row % 64)) & 1 == 1;
                    grid.retain_rows(keep);
                    let mut row = 0;
                    model.retain(|_| {
                        row += 1;
                        keep(row - 1)
                    });
                }
                3 => {
                    // A random partial injection: walk the old rows in a
                    // rotated order, keeping, dropping or interleaving a
                    // fresh row by two bits of `pick` each.
                    let mut map = Vec::new();
                    for i in 0..n {
                        let old = (i + pick as usize) % n;
                        match (pick >> (2 * (i % 32))) & 3 {
                            0 => {}
                            1 => map.extend([None, Some(old)]),
                            _ => map.push(Some(old)),
                        }
                    }
                    if n == 0 && pick % 2 == 0 {
                        map.push(None);
                    }
                    grid.reorder_rows(&map, 7);
                    model = map
                        .iter()
                        .map(|src| src.map_or(vec![7; docs], |old| model[old].clone()))
                        .collect();
                }
                _ => {}
            }
            prop_assert_eq!(grid.row_count(), model.len());
            for (row, cells) in model.iter().enumerate() {
                prop_assert_eq!(grid.row(row), &cells[..]);
            }
        }
    }

    /// `grow_docs` equals copying each row into a fresh, wider one, cell
    /// by cell, on grids whose rows were pushed and swap-removed between
    /// growths.
    #[test]
    fn grow_docs_matches_a_cell_by_cell_reference(
        rows in 0usize..=50,
        docs in 0usize..=20,
        steps in proptest::collection::vec((0usize..8, any::<u64>()), 1..6),
    ) {
        let mut grid = ww_model::DocGrid::new(rows, docs, 0u32);
        let mut model: Vec<Vec<u32>> = vec![vec![0; docs]; rows];
        let mut next = 1u32;
        for (row, cells) in model.iter_mut().enumerate() {
            for (k, cell) in cells.iter_mut().enumerate() {
                *cell = next;
                *grid.get_mut(row, k as u32) = next;
                next += 1;
            }
        }
        for (step, (added, churn)) in steps.into_iter().enumerate() {
            // Rows pushed and swap-removed since the last growth.
            for bit in 0..4 {
                if (churn >> (2 * bit)) & 1 == 1 {
                    grid.push_row(next);
                    model.push(vec![next; model.first().map_or(grid.doc_count(), Vec::len)]);
                    next += 1;
                } else if (churn >> (2 * bit + 1)) & 1 == 1 && !model.is_empty() {
                    let row = (churn >> 16) as usize % model.len();
                    grid.swap_remove_row(row);
                    model.swap_remove(row);
                }
            }
            let wide = grid.doc_count() + added;
            let fresh = 1_000_000 + step as u32;
            grid.grow_docs(wide, fresh);
            for cells in &mut model {
                let mut grown = vec![fresh; wide];
                for (k, &cell) in cells.iter().enumerate() {
                    grown[k] = cell;
                }
                *cells = grown;
            }
            prop_assert_eq!(grid.doc_count(), wide);
            prop_assert_eq!(grid.row_count(), model.len());
            for (row, cells) in model.iter().enumerate() {
                prop_assert_eq!(grid.row(row), &cells[..], "row {} after step {}", row, step);
            }
        }
    }

    /// Growing a set keeps every member and adds none.
    #[test]
    fn doc_set_grow_keeps_members(
        members in proptest::collection::vec(0u32..100, 0..40),
        extra in 0usize..200,
    ) {
        let mut set = ww_model::DocSet::new(100);
        for &k in &members {
            set.insert(k);
        }
        let before: Vec<u32> = set.iter().collect();
        set.grow(100 + extra);
        prop_assert_eq!(set.universe(), 100 + extra);
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), before);
        if extra > 0 {
            prop_assert!(!set.contains(100 + extra as u32 - 1));
        }
    }

    /// Random edits of a `RunPool` under each growth rule read as the
    /// same edits of a `Vec` of rows, and after every edit the pool's
    /// holes are counted and under the pack limit: the pool packs after
    /// every write and every departure, and a departure of several rows
    /// packs once, after all of them.
    #[test]
    fn run_pool_edits_match_a_vec_of_rows(
        ops in proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 1..80),
    ) {
        run_pool_matches_rows::<Rows<0>>(&ops);
        run_pool_matches_rows::<Rows<1>>(&ops);
        run_pool_matches_rows::<Rows<2>>(&ops);
    }
}
