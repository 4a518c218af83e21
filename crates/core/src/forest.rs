//! WebWave on the forest of overlapping routing trees.
//!
//! "Although the focus of our load balancing objective is on a single
//! tree, it will be important, in the future, to evaluate how WebWave
//! functions in the context of the forest of overlapping routing trees
//! that is the Internet" (paper, Section 7). This module builds that
//! evaluation:
//!
//! * [`Forest`] — one routing tree per home server: the BFS
//!   (shortest-path) tree rooted at that server over the shared network
//!   graph, so every physical node participates in several trees at once
//!   and its capacity is shared across all of them,
//! * [`ForestWave`] — per-tree WebWave with a choice of gossip policy:
//!   [`Coupling::Uncoupled`] (each tree balances its own load, the naive
//!   composition) vs [`Coupling::Coupled`] (servers gossip their *total*
//!   load across trees, and each tree's diffusion pressure uses it).
//!
//! The module's experiments show coupling strictly reduces the global
//! maximum load whenever trees overlap asymmetrically — see
//! `ForestWave`'s tests and `webwave::experiments::forest_study`.
//!
//! # Example
//!
//! ```
//! use ww_model::{NodeId, RateVector};
//! use ww_topology::Graph;
//! use ww_core::forest::{Forest, ForestWave, ForestWaveConfig};
//!
//! let mut g = Graph::new(3);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! let forest = Forest::from_graph(&g, &[NodeId::new(0), NodeId::new(2)]).unwrap();
//! let demands = vec![
//!     RateVector::from(vec![0.0, 0.0, 30.0]),
//!     RateVector::from(vec![30.0, 0.0, 0.0]),
//! ];
//! let mut wave = ForestWave::new(&forest, &demands, ForestWaveConfig::default());
//! wave.run(3000);
//! assert!(wave.total_load().max() <= 21.0);
//! ```

pub mod wave;

pub use wave::{Coupling, ForestWave, ForestWaveConfig};

use ww_model::{ModelError, NodeId, RateVector, Tree};
use ww_topology::Graph;

/// One routing tree per home server over a shared node set.
#[derive(Debug, Clone, PartialEq)]
pub struct Forest {
    trees: Vec<Tree>,
    roots: Vec<NodeId>,
    nodes: usize,
}

impl Forest {
    /// Builds the forest of BFS routing trees rooted at each of `roots`
    /// over `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Disconnected`] if some node cannot reach a
    /// root, [`ModelError::EmptyTree`] for an empty graph or root list.
    pub fn from_graph(graph: &Graph, roots: &[NodeId]) -> Result<Self, ModelError> {
        if graph.is_empty() || roots.is_empty() {
            return Err(ModelError::EmptyTree);
        }
        let mut trees = Vec::with_capacity(roots.len());
        for &root in roots {
            trees.push(bfs_tree(graph, root)?);
        }
        Ok(Forest {
            trees,
            roots: roots.to_vec(),
            nodes: graph.len(),
        })
    }

    /// Number of trees (home servers).
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Number of physical nodes shared by all trees.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The `k`-th routing tree.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn tree(&self, k: usize) -> &Tree {
        &self.trees[k]
    }

    /// The home server (root) of the `k`-th tree.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn root(&self, k: usize) -> NodeId {
        self.roots[k]
    }

    /// Iterates over the trees.
    pub fn trees(&self) -> impl Iterator<Item = &Tree> {
        self.trees.iter()
    }

    /// Sums per-tree load vectors into the total physical load per node.
    ///
    /// # Panics
    ///
    /// Panics if the number or shape of `per_tree` does not match.
    pub fn total_load(&self, per_tree: &[RateVector]) -> RateVector {
        assert_eq!(
            per_tree.len(),
            self.tree_count(),
            "one load vector per tree"
        );
        let mut total = RateVector::zeros(self.nodes);
        for l in per_tree {
            assert_eq!(l.len(), self.nodes, "load vector shape mismatch");
            total = total.add(l);
        }
        total
    }
}

/// Builds the BFS shortest-path tree rooted at `root` over `graph`.
fn bfs_tree(graph: &Graph, root: NodeId) -> Result<Tree, ModelError> {
    let n = graph.len();
    if root.index() >= n {
        return Err(ModelError::ParentOutOfRange {
            node: root,
            parent: root.index(),
            len: n,
        });
    }
    let mut parents: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    visited[root.index()] = true;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors(u) {
            if !visited[v.index()] {
                visited[v.index()] = true;
                parents[v.index()] = Some(u.index());
                queue.push_back(v);
            }
        }
    }
    if let Some(stray) = (0..n).find(|&i| !visited[i]) {
        return Err(ModelError::Disconnected {
            node: NodeId::new(stray),
        });
    }
    Tree::from_parents(&parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_topology::{ring, Graph};

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn bfs_trees_root_correctly() {
        let g = path_graph(4);
        let f = Forest::from_graph(&g, &[NodeId::new(0), NodeId::new(3)]).unwrap();
        assert_eq!(f.tree_count(), 2);
        assert_eq!(f.tree(0).root(), NodeId::new(0));
        assert_eq!(f.tree(1).root(), NodeId::new(3));
        // Opposite orientations of the same path.
        assert_eq!(f.tree(0).parent(NodeId::new(3)), Some(NodeId::new(2)));
        assert_eq!(f.tree(1).parent(NodeId::new(0)), Some(NodeId::new(1)));
    }

    #[test]
    fn bfs_tree_depths_are_graph_distances() {
        let g = ring(8);
        let f = Forest::from_graph(&g, &[NodeId::new(0)]).unwrap();
        let t = f.tree(0);
        assert_eq!(t.depth(NodeId::new(4)), 4); // antipode on the ring
        assert_eq!(t.depth(NodeId::new(7)), 1);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let err = Forest::from_graph(&g, &[NodeId::new(0)]).unwrap_err();
        assert!(matches!(err, ModelError::Disconnected { .. }));
    }

    #[test]
    fn empty_inputs_rejected() {
        let g = path_graph(3);
        assert!(Forest::from_graph(&g, &[]).is_err());
        assert!(Forest::from_graph(&Graph::new(0), &[NodeId::new(0)]).is_err());
    }

    #[test]
    fn total_load_sums_per_tree() {
        let g = path_graph(3);
        let f = Forest::from_graph(&g, &[NodeId::new(0), NodeId::new(2)]).unwrap();
        let total = f.total_load(&[
            RateVector::from(vec![1.0, 2.0, 3.0]),
            RateVector::from(vec![10.0, 0.0, 0.0]),
        ]);
        assert_eq!(total.as_slice(), &[11.0, 2.0, 3.0]);
    }
}
