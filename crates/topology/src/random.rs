//! Random tree generators.
//!
//! Section 5.1 of the paper evaluates WebWave convergence on random trees
//! ("for a random tree with depth 9, gamma = 0.830734"). We provide two
//! families:
//!
//! * [`random_recursive_bounded`] — nodes attach to a uniformly random
//!   existing node whose depth allows the child to respect a depth bound;
//!   the natural reading of "a random tree with depth d",
//! * [`random_pruefer`] — a uniformly random labeled tree via Prüfer
//!   sequences, re-rooted at node 0.
//!
//! [`random_tree_of_depth`] grows the first family on a spine, so the
//! height is exactly the one asked for.

use rand::Rng;
use ww_model::Tree;

/// Grows a random recursive tree of `n` nodes whose height never exceeds
/// `max_depth`: each new node picks its parent uniformly among nodes of
/// depth `< max_depth`.
///
/// With `max_depth >= n - 1` this is the classic uniform random recursive
/// tree.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use ww_topology::random_recursive_bounded;
/// let mut rng = StdRng::seed_from_u64(9);
/// let t = random_recursive_bounded(&mut rng, 64, 9);
/// assert!(t.height() <= 9);
/// assert_eq!(t.len(), 64);
/// ```
pub fn random_recursive_bounded<R: Rng + ?Sized>(rng: &mut R, n: usize, max_depth: usize) -> Tree {
    assert!(n > 0, "tree must have at least one node");
    let mut parents: Vec<Option<usize>> = vec![None];
    let mut depth = vec![0usize];
    // Candidate parents: nodes with depth < max_depth.
    let mut eligible: Vec<usize> = if max_depth > 0 { vec![0] } else { Vec::new() };
    for i in 1..n {
        let p = if eligible.is_empty() {
            // Depth bound of zero with more than one node: degenerate to a
            // star so we can still return a tree of the requested size.
            0
        } else {
            eligible[rng.gen_range(0..eligible.len())]
        };
        parents.push(Some(p));
        let d = depth[p] + 1;
        depth.push(d);
        if d < max_depth {
            eligible.push(i);
        }
    }
    Tree::from_parents(&parents).expect("generated parents are valid")
}

/// Generates a tree of exactly the requested height when possible: first
/// lays down a spine of `max_depth + 1` nodes, then attaches the remaining
/// nodes as in [`random_recursive_bounded`].
///
/// Guarantees `height == min(max_depth, n - 1)`, which is what the paper
/// means by "a random tree with depth 9".
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree_of_depth<R: Rng + ?Sized>(rng: &mut R, n: usize, max_depth: usize) -> Tree {
    assert!(n > 0, "tree must have at least one node");
    let spine_len = max_depth.min(n - 1) + 1;
    let mut parents: Vec<Option<usize>> = (0..spine_len)
        .map(|i| if i == 0 { None } else { Some(i - 1) })
        .collect();
    let mut depth: Vec<usize> = (0..spine_len).collect();
    let mut eligible: Vec<usize> = (0..spine_len).filter(|&i| depth[i] < max_depth).collect();
    for i in spine_len..n {
        let p = if eligible.is_empty() {
            0
        } else {
            eligible[rng.gen_range(0..eligible.len())]
        };
        parents.push(Some(p));
        let d = depth[p] + 1;
        depth.push(d);
        if d < max_depth {
            eligible.push(i);
        }
    }
    Tree::from_parents(&parents).expect("generated parents are valid")
}

/// Uniformly random labeled tree on `n` nodes via a random Prüfer sequence,
/// rooted at node 0.
///
/// Every labeled tree shape is equally likely, making this the least biased
/// generator for property tests.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_pruefer<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Tree {
    assert!(n > 0, "tree must have at least one node");
    if n == 1 {
        return Tree::from_parents(&[None]).expect("single node tree");
    }
    if n == 2 {
        return Tree::from_parents(&[None, Some(0)]).expect("two node tree");
    }
    let seq: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let edges = pruefer_to_edges(&seq, n);
    edges_to_rooted_tree(n, &edges, 0)
}

/// Decodes a Prüfer sequence into the tree's edge list.
fn pruefer_to_edges(seq: &[usize], n: usize) -> Vec<(usize, usize)> {
    let mut degree = vec![1usize; n];
    for &s in seq {
        degree[s] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Min-heap of current leaves.
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&i| degree[i] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &s in seq {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("pruefer invariant: a leaf exists");
        edges.push((leaf, s));
        degree[s] -= 1;
        if degree[s] == 1 {
            leaves.push(std::cmp::Reverse(s));
        }
    }
    let std::cmp::Reverse(u) = leaves.pop().expect("two nodes remain");
    let std::cmp::Reverse(v) = leaves.pop().expect("two nodes remain");
    edges.push((u, v));
    edges
}

/// Orients an undirected edge list into a tree rooted at `root`.
fn edges_to_rooted_tree(n: usize, edges: &[(usize, usize)], root: usize) -> Tree {
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u].push(v);
        adj[v].push(u);
    }
    let mut parents: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut stack = vec![root];
    visited[root] = true;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !visited[v] {
                visited[v] = true;
                parents[v] = Some(u);
                stack.push(v);
            }
        }
    }
    Tree::from_parents(&parents).expect("edge list was a tree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bounded_tree_respects_depth() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let t = random_recursive_bounded(&mut rng, 100, 5);
            assert_eq!(t.len(), 100);
            assert!(t.height() <= 5, "height {} > 5", t.height());
        }
    }

    #[test]
    fn depth_zero_degenerates_to_star() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = random_recursive_bounded(&mut rng, 10, 0);
        assert_eq!(t.height(), 1); // all nodes attach to the root
    }

    #[test]
    fn tree_of_depth_hits_exact_height() {
        let mut rng = StdRng::seed_from_u64(3);
        for d in 1..10 {
            let t = random_tree_of_depth(&mut rng, 200, d);
            assert_eq!(t.height(), d, "requested depth {d}");
        }
    }

    #[test]
    fn tree_of_depth_small_n_clamps() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = random_tree_of_depth(&mut rng, 3, 9);
        assert_eq!(t.height(), 2); // a 3-node path
    }

    #[test]
    fn pruefer_trees_are_valid_and_sized() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1usize, 2, 3, 10, 57] {
            let t = random_pruefer(&mut rng, n);
            assert_eq!(t.len(), n);
        }
    }

    #[test]
    fn pruefer_known_sequence() {
        // Sequence [3, 3, 3, 4] on 6 nodes is the classic textbook example:
        // edges (0,3),(1,3),(2,3),(3,4),(4,5).
        let edges = pruefer_to_edges(&[3, 3, 3, 4], 6);
        let mut normalized: Vec<(usize, usize)> =
            edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        normalized.sort_unstable();
        assert_eq!(normalized, vec![(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let t1 = random_pruefer(&mut StdRng::seed_from_u64(11), 30);
        let t2 = random_pruefer(&mut StdRng::seed_from_u64(11), 30);
        assert_eq!(t1.to_parents(), t2.to_parents());
    }
}
