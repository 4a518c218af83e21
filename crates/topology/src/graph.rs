//! Undirected graphs for the load-diffusion substrate.
//!
//! Section 2 of the paper grounds WebWave in the diffusion literature:
//! Cybenko's hypercubes, Hong et al.'s nearest-neighbor averaging, Xu &
//! Lau's k-ary n-cubes and Lüling & Monien's ring networks.
//! [`Graph`] plus the generators below let `ww_core::diffusion` reproduce the
//! classic Global Load Equality results those works establish, which the
//! tree-constrained WebWave is then compared against.

use ww_model::{NodeId, Tree};

/// A simple undirected graph over dense node ids.
///
/// # Example
///
/// ```
/// use ww_topology::Graph;
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.degree(ww_model::NodeId::new(1)), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    edges: usize,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds the undirected edge `{u, v}`. Self-loops and duplicate edges are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.len() && v < self.len(),
            "edge endpoint out of range"
        );
        if u == v {
            return;
        }
        let (a, b) = (NodeId::new(u), NodeId::new(v));
        if self.adj[u].contains(&b) {
            return;
        }
        self.adj[u].push(b);
        self.adj[v].push(a);
        self.edges += 1;
    }

    /// Neighbors of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adj[node.index()]
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj[node.index()].len()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// `true` when every node can reach every other — one of Cybenko's two
    /// sufficient conditions for diffusion convergence.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &self.adj[u] {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v.index());
                }
            }
        }
        count == self.len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::new)
    }
}

impl From<&Tree> for Graph {
    /// Views a routing tree as an undirected graph (parent-child edges).
    fn from(tree: &Tree) -> Self {
        let mut g = Graph::new(tree.len());
        for u in tree.nodes() {
            if let Some(p) = tree.parent(u) {
                g.add_edge(u.index(), p.index());
            }
        }
        g
    }
}

/// A ring of `n` nodes (Lüling & Monien's transputer topology).
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n);
    }
    g
}

/// The boolean hypercube of dimension `dim` (2^dim nodes), Cybenko's
/// canonical diffusion network.
///
/// # Panics
///
/// Panics if `dim >= usize::BITS as usize`.
pub fn hypercube(dim: usize) -> Graph {
    assert!(dim < usize::BITS as usize, "dimension too large");
    let n = 1usize << dim;
    let mut g = Graph::new(n);
    for u in 0..n {
        for b in 0..dim {
            let v = u ^ (1 << b);
            if u < v {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// The k-ary n-cube (n-dimensional torus with k nodes per dimension),
/// the topology whose optimal diffusion parameter Xu & Lau derive.
///
/// `k == 2` degenerates to the hypercube; `n == 1` to a ring (for k >= 3).
///
/// # Panics
///
/// Panics if `k < 2` or `n == 0`, or if `k^n` overflows.
pub fn k_ary_n_cube(k: usize, n: usize) -> Graph {
    assert!(k >= 2, "need at least 2 nodes per dimension");
    assert!(n >= 1, "need at least one dimension");
    let size = k.checked_pow(n as u32).expect("k^n must fit in usize");
    let mut g = Graph::new(size);
    // Node index = sum of digit_i * k^i (base-k representation).
    for u in 0..size {
        let mut digits = Vec::with_capacity(n);
        let mut rest = u;
        for _ in 0..n {
            digits.push(rest % k);
            rest /= k;
        }
        for (dim, &d) in digits.iter().enumerate() {
            let stride = k.pow(dim as u32);
            let up = (d + 1) % k;
            let v = u - d * stride + up * stride;
            g.add_edge(u, v);
        }
    }
    g
}

/// The complete graph on `n` nodes — diffusion converges in one step with
/// `alpha = 1/n`; useful as a best-case baseline.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete graph needs nodes");
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_degrees_and_connectivity() {
        let g = ring(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 5);
        assert!(g.nodes().all(|u| g.degree(u) == 2));
        assert!(g.is_connected());
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(3);
        assert_eq!(g.len(), 8);
        assert_eq!(g.edge_count(), 12); // 8 * 3 / 2
        assert!(g.nodes().all(|u| g.degree(u) == 3));
        assert!(g.is_connected());
    }

    #[test]
    fn hypercube_dim_zero_is_single_node() {
        let g = hypercube(0);
        assert_eq!(g.len(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn k_ary_n_cube_matches_ring_and_hypercube() {
        // 5-ary 1-cube is the 5-ring.
        let g = k_ary_n_cube(5, 1);
        assert_eq!(g.len(), 5);
        assert!(g.nodes().all(|u| g.degree(u) == 2));
        // 2-ary 3-cube is the 3-hypercube (wraparound edge == direct edge).
        let h = k_ary_n_cube(2, 3);
        assert_eq!(h.len(), 8);
        assert!(h.nodes().all(|u| h.degree(u) == 3));
    }

    #[test]
    fn k_ary_n_cube_torus_degree() {
        // 3-ary 2-cube: every node has 2 neighbors per dimension.
        let g = k_ary_n_cube(3, 2);
        assert_eq!(g.len(), 9);
        assert!(g.nodes().all(|u| g.degree(u) == 4));
        assert!(g.is_connected());
    }

    #[test]
    fn complete_graph_edges() {
        let g = complete(4);
        assert_eq!(g.edge_count(), 6);
        assert!(g.nodes().all(|u| g.degree(u) == 3));
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(0, 0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert!(!g.is_connected());
    }

    #[test]
    fn tree_to_graph_preserves_edges() {
        let t = Tree::from_parents(&[None, Some(0), Some(0), Some(1)]).unwrap();
        let g = Graph::from(&t);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert!(g.is_connected());
    }
}
