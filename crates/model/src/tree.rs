//! The routing tree `T` of the paper (Section 3).
//!
//! Routes from clients to a home server form a tree; requests always travel
//! *up* the tree towards the root, and any node en route holding a cache
//! copy may serve them. [`Tree`] captures exactly this structure: a rooted
//! tree over dense [`NodeId`]s with parent pointers and child lists, plus
//! the traversal orders the WebFold / WebWave algorithms need.

use crate::{ModelError, NodeId, Result};

/// A rooted routing tree.
///
/// Construction validates that the parent pointers describe a single tree:
/// exactly one root, no cycles, no unreachable nodes. All per-node queries
/// are `O(1)`; traversal orders are precomputed, and kept up to date in
/// place by the two churn mutators, [`Tree::add_leaf`] and
/// [`Tree::remove_leaf`].
///
/// # Example
///
/// ```
/// use ww_model::{Tree, NodeId};
///
/// //        0
/// //       / \
/// //      1   2
/// //      |
/// //      3
/// let tree = Tree::from_parents(&[None, Some(0), Some(0), Some(1)]).unwrap();
/// assert_eq!(tree.root(), NodeId::new(0));
/// assert_eq!(tree.children(NodeId::new(0)), &[NodeId::new(1), NodeId::new(2)]);
/// assert_eq!(tree.depth(NodeId::new(3)), 2);
/// assert_eq!(tree.subtree_size(NodeId::new(1)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// `parent[i]` is the parent of node `i`; `None` exactly at the root.
    parent: Vec<Option<NodeId>>,
    /// Children of each node, in increasing id order.
    children: Vec<Vec<NodeId>>,
    /// The root (home server).
    root: NodeId,
    /// Depth of each node (root = 0).
    depth: Vec<usize>,
    /// Number of nodes in each node's subtree (leaves = 1).
    subtree_size: Vec<usize>,
    /// Nodes in breadth-first order from the root.
    bfs: Vec<NodeId>,
}

impl Tree {
    /// Builds a tree from a parent-pointer array.
    ///
    /// `parents[i]` must be `None` for exactly one node (the root) and
    /// `Some(p)` with `p < parents.len()` otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyTree`], [`ModelError::NoRoot`],
    /// [`ModelError::MultipleRoots`], [`ModelError::ParentOutOfRange`] or
    /// [`ModelError::CycleDetected`] when the array is not a single rooted
    /// tree.
    ///
    /// # Example
    ///
    /// ```
    /// use ww_model::Tree;
    /// let chain = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
    /// assert_eq!(chain.len(), 3);
    /// ```
    pub fn from_parents(parents: &[Option<usize>]) -> Result<Self> {
        if parents.is_empty() {
            return Err(ModelError::EmptyTree);
        }
        let n = parents.len();
        let mut root: Option<NodeId> = None;
        let mut parent = vec![None; n];
        for (i, &p) in parents.iter().enumerate() {
            match p {
                None => {
                    if let Some(first) = root {
                        return Err(ModelError::MultipleRoots {
                            first,
                            second: NodeId::new(i),
                        });
                    }
                    root = Some(NodeId::new(i));
                }
                Some(p) => {
                    if p >= n {
                        return Err(ModelError::ParentOutOfRange {
                            node: NodeId::new(i),
                            parent: p,
                            len: n,
                        });
                    }
                    parent[i] = Some(NodeId::new(p));
                }
            }
        }
        let root = root.ok_or(ModelError::NoRoot)?;

        let mut children = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[p.index()].push(NodeId::new(i));
            }
        }

        // BFS from the root; also detects cycles/disconnection (unvisited).
        let mut bfs = Vec::with_capacity(n);
        let mut depth = vec![usize::MAX; n];
        depth[root.index()] = 0;
        bfs.push(root);
        let mut head = 0;
        while head < bfs.len() {
            let u = bfs[head];
            head += 1;
            for &c in &children[u.index()] {
                depth[c.index()] = depth[u.index()] + 1;
                bfs.push(c);
            }
        }
        if bfs.len() != n {
            let stray = (0..n)
                .find(|&i| depth[i] == usize::MAX)
                .map(NodeId::new)
                .expect("some node must be unvisited");
            return Err(ModelError::CycleDetected { node: stray });
        }

        // Subtree sizes via reverse BFS (children appear after parents).
        let mut subtree_size = vec![1usize; n];
        for &u in bfs.iter().rev() {
            if let Some(p) = parent[u.index()] {
                subtree_size[p.index()] += subtree_size[u.index()];
            }
        }

        Ok(Tree {
            parent,
            children,
            root,
            depth,
            subtree_size,
            bfs,
        })
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the tree has no nodes (never constructible; kept
    /// for API completeness alongside [`Tree::len`]).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root node (the document's home server).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `node`, or `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// The parent `node`'s control link leads to — the checked form of
    /// [`Tree::parent`] for operations that need an uplink to exist.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeOutOfRange`] for an unknown id,
    /// [`ModelError::NoUplink`] for the root.
    pub fn uplink(&self, node: NodeId) -> Result<NodeId> {
        match self.parent.get(node.index()) {
            None => Err(ModelError::NodeOutOfRange {
                node,
                len: self.len(),
            }),
            Some(None) => Err(ModelError::NoUplink { node }),
            Some(Some(parent)) => Ok(*parent),
        }
    }

    /// Children of `node` in increasing id order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Depth of `node`; the root has depth 0.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn depth(&self, node: NodeId) -> usize {
        self.depth[node.index()]
    }

    /// Maximum depth over all nodes (the tree's height).
    pub fn height(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Number of nodes in the subtree rooted at `node` (including itself).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.subtree_size[node.index()]
    }

    /// `true` when `node` has no children.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children[node.index()].is_empty()
    }

    /// Nodes in breadth-first order starting at the root.
    ///
    /// Parents always precede their children, which is the order WebFold's
    /// load propagation and the diffusion engines rely on.
    pub fn bfs_order(&self) -> &[NodeId] {
        &self.bfs
    }

    /// Nodes in reverse breadth-first order: children before parents.
    ///
    /// This is the order used to accumulate forwarded rates `A_i` bottom-up.
    pub fn bottom_up(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bfs.iter().rev().copied()
    }

    /// Iterates over the path from `node` up to and including the root.
    ///
    /// This is the route a request originating at `node` takes: the nodes it
    /// "flies by" and that may intercept it with a cached copy.
    ///
    /// # Example
    ///
    /// ```
    /// use ww_model::{Tree, NodeId};
    /// let t = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
    /// let route: Vec<_> = t.path_to_root(NodeId::new(2)).collect();
    /// assert_eq!(route, vec![NodeId::new(2), NodeId::new(1), NodeId::new(0)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn path_to_root(&self, node: NodeId) -> PathToRoot<'_> {
        PathToRoot {
            tree: self,
            next: Some(node),
        }
    }

    /// All node ids, `0..len`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::new)
    }

    /// Returns `true` if `ancestor` lies on `node`'s path to the root
    /// (a node is its own ancestor).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn is_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        self.path_to_root(node).any(|u| u == ancestor)
    }

    /// Collects the nodes of the subtree rooted at `node` in BFS order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn subtree_nodes(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = vec![node];
        let mut head = 0;
        while head < out.len() {
            let u = out[head];
            head += 1;
            out.extend_from_slice(self.children(u));
        }
        out
    }

    /// Number of leaves in the tree.
    pub fn leaf_count(&self) -> usize {
        self.nodes().filter(|&u| self.is_leaf(u)).count()
    }

    /// Returns the parent-pointer array representation of the tree.
    pub fn to_parents(&self) -> Vec<Option<usize>> {
        self.parent.iter().map(|p| p.map(NodeId::index)).collect()
    }

    /// Position of `node` in the BFS order, searching from `from`.
    fn bfs_position(&self, node: NodeId, from: usize) -> usize {
        from + self.bfs[from..]
            .iter()
            .position(|&u| u == node)
            .expect("every node appears in the BFS order")
    }

    /// Recomputes the BFS order into the existing buffer (no allocation).
    fn refill_bfs(&mut self) {
        self.bfs.clear();
        self.bfs.push(self.root);
        let mut head = 0;
        while head < self.bfs.len() {
            let u = self.bfs[head];
            head += 1;
            self.bfs.extend_from_slice(&self.children[u.index()]);
        }
    }

    /// Grows the tree by one leaf under `parent` (a cache server joining
    /// the routing tree). The new node takes the next id, `self.len()`.
    ///
    /// In place: the newcomer is appended to the per-node tables and to
    /// its parent's child list (it holds the highest id, so the list
    /// stays sorted), subtree sizes grow along the root path, and the
    /// BFS order is spliced — `O(depth)` plus one scan and one shift of
    /// the BFS array. Churn barriers call this once per joining server,
    /// so it must not cost a rebuild of the whole tree.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NodeOutOfRange`] when `parent` is not a node
    /// of the tree.
    pub fn add_leaf(&mut self, parent: NodeId) -> Result<NodeId> {
        if parent.index() >= self.len() {
            return Err(ModelError::NodeOutOfRange {
                node: parent,
                len: self.len(),
            });
        }
        let id = NodeId::new(self.len());
        // BFS lists each node's children, in id order, in the order the
        // parents themselves appear. The newcomer therefore follows the
        // last child of the latest node at or before `parent` that has
        // any; only a lone root has no such node.
        let at = self.bfs_position(parent, 0);
        let spot = match self.bfs[..=at]
            .iter()
            .rposition(|&u| !self.children[u.index()].is_empty())
        {
            Some(j) => {
                let last = *self.children[self.bfs[j].index()]
                    .last()
                    .expect("non-empty child list");
                self.bfs_position(last, j + 1) + 1
            }
            None => 1,
        };
        self.bfs.insert(spot, id);
        self.parent.push(Some(parent));
        self.depth.push(self.depth[parent.index()] + 1);
        self.subtree_size.push(1);
        self.children.push(Vec::new());
        self.children[parent.index()].push(id);
        let mut up = Some(parent);
        while let Some(u) = up {
            self.subtree_size[u.index()] += 1;
            up = self.parent[u.index()];
        }
        Ok(id)
    }

    /// Removes the leaf `node` (a cache server leaving), compacting ids
    /// the way dense per-node tables do: the highest-numbered node is
    /// renumbered to the departed node's id (swap-remove).
    ///
    /// The returned [`LeafRemoval`] names the renumbering so callers can
    /// apply the *same* `swap_remove` to their per-node vectors and keep
    /// id-addressed state aligned.
    ///
    /// In place, like [`Tree::add_leaf`]: the per-node tables are
    /// swap-removed, the two touched child lists re-sorted, subtree
    /// sizes shrunk along the root path, and the BFS order spliced. Only
    /// when the renumbered node is an *interior* node that changes its
    /// position among its siblings — its whole subtree then moves within
    /// every BFS level below — is the BFS order recomputed, into the
    /// existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NodeOutOfRange`] for an unknown id,
    /// [`ModelError::CannotRemoveRoot`] for the root, and
    /// [`ModelError::NotALeaf`] for interior nodes (removing one would
    /// orphan its subtree).
    pub fn remove_leaf(&mut self, node: NodeId) -> Result<LeafRemoval> {
        let n = self.len();
        if node.index() >= n {
            return Err(ModelError::NodeOutOfRange { node, len: n });
        }
        if node == self.root {
            return Err(ModelError::CannotRemoveRoot { node });
        }
        if !self.is_leaf(node) {
            return Err(ModelError::NotALeaf {
                node,
                children: self.children(node).len(),
            });
        }
        let parent = self.parent(node).expect("non-root has a parent");
        let last = NodeId::new(n - 1);

        // Detach the leaf, under the old numbering.
        let siblings = &mut self.children[parent.index()];
        let slot = siblings
            .binary_search(&node)
            .expect("a node is listed among its parent's children");
        siblings.remove(slot);
        let mut up = Some(parent);
        while let Some(u) = up {
            self.subtree_size[u.index()] -= 1;
            up = self.parent[u.index()];
        }
        let at = self.bfs_position(node, 0);
        self.bfs.remove(at);

        // Swap-remove: the former last node (if distinct) takes the
        // removed id; every reference to it is renumbered.
        let i = node.index();
        self.parent.swap_remove(i);
        self.depth.swap_remove(i);
        self.subtree_size.swap_remove(i);
        self.children.swap_remove(i);
        if node != last {
            for k in 0..self.children[i].len() {
                let c = self.children[i][k];
                self.parent[c.index()] = Some(node);
            }
            match self.parent[i] {
                None => {
                    self.root = node;
                    self.bfs[0] = node;
                }
                Some(p) => {
                    // `last` held the highest id, so it closed its
                    // parent's child list; as `node` it sorts in earlier.
                    let siblings = &mut self.children[p.index()];
                    let old_slot = siblings.len() - 1;
                    debug_assert_eq!(siblings[old_slot], last);
                    siblings.pop();
                    let new_slot = siblings.partition_point(|&c| c < node);
                    siblings.insert(new_slot, node);
                    if new_slot == old_slot || self.children[i].is_empty() {
                        // Siblings are adjacent in BFS order, and no
                        // subtree hangs below the renumbered node.
                        let end = self.bfs_position(last, 0);
                        self.bfs[end] = node;
                        self.bfs[end - (old_slot - new_slot)..=end].rotate_right(1);
                    } else {
                        self.refill_bfs();
                    }
                }
            }
        }
        Ok(LeafRemoval {
            removed: node,
            parent: if parent == last { node } else { parent },
            moved: (node != last).then_some(last),
        })
    }
}

/// Outcome of [`Tree::remove_leaf`]: which id was vacated and how the
/// compaction renumbered the former last node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafRemoval {
    /// The id the departed leaf held (now occupied by `moved`, when set).
    pub removed: NodeId,
    /// The departed leaf's parent, **post-compaction** (already renumbered
    /// if the parent was the former last node).
    pub parent: NodeId,
    /// The former last id, which now lives at `removed`; `None` when the
    /// departed leaf *was* the last id (plain truncation, no renumbering).
    pub moved: Option<NodeId>,
}

impl LeafRemoval {
    /// The departed leaf's parent under the **pre-compaction** numbering —
    /// for tables still laid out by the old ids (e.g. a demand slab whose
    /// rows have not been swap-removed yet).
    pub fn parent_before(&self) -> NodeId {
        match self.moved {
            Some(last) if self.parent == self.removed => last,
            _ => self.parent,
        }
    }

    /// Applies this removal to a per-node value vector: the departed
    /// node's value is swap-removed (mirroring the id compaction) and
    /// **re-homed** — added onto the parent's slot — so totals are
    /// conserved, exactly as a departing cache's clients re-route to the
    /// next cache up the tree. Returns the departed value.
    ///
    /// Every consumer of [`Tree::remove_leaf`] that keeps an id-indexed
    /// rate vector must apply this same surgery; sharing it here keeps
    /// the post- vs pre-compaction parent indexing in one place.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the pre-removal node count.
    pub fn rehome(&self, values: &mut Vec<f64>) -> f64 {
        let departed = values.swap_remove(self.removed.index());
        values[self.parent.index()] += departed;
        departed
    }
}

/// Iterator over the nodes from a starting node up to the root.
///
/// Produced by [`Tree::path_to_root`].
#[derive(Debug, Clone)]
pub struct PathToRoot<'a> {
    tree: &'a Tree,
    next: Option<NodeId>,
}

impl Iterator for PathToRoot<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.parent(cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_node_tree() -> Tree {
        // 0 -> {1, 2}, 1 -> {3}
        Tree::from_parents(&[None, Some(0), Some(0), Some(1)]).unwrap()
    }

    #[test]
    fn from_parents_builds_expected_structure() {
        let t = four_node_tree();
        assert_eq!(t.len(), 4);
        assert_eq!(t.root(), NodeId::new(0));
        assert_eq!(t.parent(NodeId::new(3)), Some(NodeId::new(1)));
        assert_eq!(
            t.children(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
        assert!(t.is_leaf(NodeId::new(2)));
        assert!(!t.is_leaf(NodeId::new(1)));
    }

    #[test]
    fn empty_tree_rejected() {
        assert_eq!(Tree::from_parents(&[]), Err(ModelError::EmptyTree));
    }

    #[test]
    fn multiple_roots_rejected() {
        let err = Tree::from_parents(&[None, None]).unwrap_err();
        assert!(matches!(err, ModelError::MultipleRoots { .. }));
    }

    #[test]
    fn missing_root_rejected() {
        // 0 -> 1 -> 0 cycle, no root.
        let err = Tree::from_parents(&[Some(1), Some(0)]).unwrap_err();
        assert_eq!(err, ModelError::NoRoot);
    }

    #[test]
    fn cycle_with_root_rejected() {
        // Root 0 plus a 2-cycle {1, 2} detached from it.
        let err = Tree::from_parents(&[None, Some(2), Some(1)]).unwrap_err();
        assert!(matches!(err, ModelError::CycleDetected { .. }));
    }

    #[test]
    fn out_of_range_parent_rejected() {
        let err = Tree::from_parents(&[None, Some(7)]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::ParentOutOfRange { parent: 7, .. }
        ));
    }

    #[test]
    fn depth_and_height() {
        let t = four_node_tree();
        assert_eq!(t.depth(NodeId::new(0)), 0);
        assert_eq!(t.depth(NodeId::new(2)), 1);
        assert_eq!(t.depth(NodeId::new(3)), 2);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn subtree_sizes() {
        let t = four_node_tree();
        assert_eq!(t.subtree_size(NodeId::new(0)), 4);
        assert_eq!(t.subtree_size(NodeId::new(1)), 2);
        assert_eq!(t.subtree_size(NodeId::new(3)), 1);
    }

    #[test]
    fn bfs_visits_parents_before_children() {
        let t = four_node_tree();
        let order = t.bfs_order();
        let pos = |n: usize| order.iter().position(|&u| u.index() == n).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(3));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn bottom_up_visits_children_before_parents() {
        let t = four_node_tree();
        let order: Vec<_> = t.bottom_up().collect();
        let pos = |n: usize| order.iter().position(|&u| u.index() == n).unwrap();
        assert!(pos(3) < pos(1));
        assert!(pos(1) < pos(0));
    }

    #[test]
    fn path_to_root_is_the_request_route() {
        let t = four_node_tree();
        let route: Vec<_> = t.path_to_root(NodeId::new(3)).collect();
        assert_eq!(route, vec![NodeId::new(3), NodeId::new(1), NodeId::new(0)]);
    }

    #[test]
    fn ancestor_queries() {
        let t = four_node_tree();
        assert!(t.is_ancestor(NodeId::new(0), NodeId::new(3)));
        assert!(t.is_ancestor(NodeId::new(3), NodeId::new(3)));
        assert!(!t.is_ancestor(NodeId::new(2), NodeId::new(3)));
    }

    #[test]
    fn subtree_nodes_lists_descendants() {
        let t = four_node_tree();
        let sub = t.subtree_nodes(NodeId::new(1));
        assert_eq!(sub, vec![NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn parents_round_trip() {
        let t = four_node_tree();
        let p = t.to_parents();
        let t2 = Tree::from_parents(&p).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn single_node_tree() {
        let t = Tree::from_parents(&[None]).unwrap();
        assert_eq!(t.root(), NodeId::new(0));
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.height(), 0);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn add_leaf_appends_next_id() {
        let mut t = four_node_tree();
        let id = t.add_leaf(NodeId::new(2)).unwrap();
        assert_eq!(id, NodeId::new(4));
        assert_eq!(t.len(), 5);
        assert_eq!(t.parent(id), Some(NodeId::new(2)));
        assert!(t.is_leaf(id));
        assert_eq!(t.subtree_size(NodeId::new(0)), 5);
        assert_eq!(t.subtree_size(NodeId::new(2)), 2);
        assert_eq!(t.depth(id), 2);
    }

    #[test]
    fn add_leaf_rejects_unknown_parent() {
        let mut t = four_node_tree();
        assert!(matches!(
            t.add_leaf(NodeId::new(9)),
            Err(ModelError::NodeOutOfRange { len: 4, .. })
        ));
    }

    #[test]
    fn remove_last_leaf_truncates() {
        let mut t = four_node_tree();
        let r = t.remove_leaf(NodeId::new(3)).unwrap();
        assert_eq!(r.removed, NodeId::new(3));
        assert_eq!(r.parent, NodeId::new(1));
        assert_eq!(r.moved, None);
        assert_eq!(t.len(), 3);
        assert!(t.is_leaf(NodeId::new(1)));
    }

    #[test]
    fn remove_leaf_swap_renumbers_last_node() {
        // 0 -> {1, 2}, 1 -> {3}: removing leaf 2 moves 3 into id 2.
        let mut t = four_node_tree();
        let r = t.remove_leaf(NodeId::new(2)).unwrap();
        assert_eq!(r.moved, Some(NodeId::new(3)));
        assert_eq!(r.parent, NodeId::new(0));
        assert_eq!(t.len(), 3);
        // The former node 3 (child of 1) now answers to id 2.
        assert_eq!(t.parent(NodeId::new(2)), Some(NodeId::new(1)));
        assert_eq!(t.children(NodeId::new(1)), &[NodeId::new(2)]);
    }

    #[test]
    fn remove_leaf_whose_parent_is_the_moved_node() {
        // 0 -> {1, 3}, 3 -> {2}: removing leaf 2 moves 3 nowhere useful —
        // build it so the removed leaf's parent is the last id.
        let mut t = Tree::from_parents(&[None, Some(0), Some(3), Some(0)]).unwrap();
        let r = t.remove_leaf(NodeId::new(2)).unwrap();
        // The parent (old id 3) was renumbered to the vacated id 2.
        assert_eq!(r.parent, NodeId::new(2));
        assert_eq!(r.moved, Some(NodeId::new(3)));
        assert_eq!(t.parent(NodeId::new(2)), Some(NodeId::new(0)));
        assert!(t.is_leaf(NodeId::new(2)));
    }

    #[test]
    fn remove_rejects_root_and_interior_nodes() {
        let mut t = four_node_tree();
        assert!(matches!(
            t.remove_leaf(NodeId::new(0)),
            Err(ModelError::CannotRemoveRoot { .. })
        ));
        assert!(matches!(
            t.remove_leaf(NodeId::new(1)),
            Err(ModelError::NotALeaf { children: 1, .. })
        ));
        assert!(matches!(
            t.remove_leaf(NodeId::new(7)),
            Err(ModelError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn rehome_conserves_totals_under_both_parent_numberings() {
        // Plain case: parent keeps its id.
        let mut t = four_node_tree();
        let r = t.remove_leaf(NodeId::new(2)).unwrap();
        let mut v = vec![1.0, 2.0, 4.0, 8.0];
        let departed = r.rehome(&mut v);
        assert_eq!(departed, 4.0);
        assert_eq!(v, vec![5.0, 2.0, 8.0]); // node 3 moved into slot 2
        assert_eq!(r.parent_before(), NodeId::new(0));

        // Parent-was-last case: the parent is renumbered into the slot.
        let mut t = Tree::from_parents(&[None, Some(0), Some(3), Some(0)]).unwrap();
        let r = t.remove_leaf(NodeId::new(2)).unwrap();
        let mut v = vec![1.0, 2.0, 4.0, 8.0];
        let departed = r.rehome(&mut v);
        assert_eq!(departed, 4.0);
        // Old node 3 (the parent) now lives at slot 2 and absorbed 4.0.
        assert_eq!(v, vec![1.0, 2.0, 12.0]);
        assert_eq!(r.parent_before(), NodeId::new(3));
    }

    #[test]
    fn churn_round_trip_restores_structure() {
        let mut t = four_node_tree();
        let added = t.add_leaf(NodeId::new(2)).unwrap();
        let r = t.remove_leaf(added).unwrap();
        assert_eq!(r.moved, None);
        assert_eq!(t, four_node_tree());
    }

    #[test]
    fn serde_round_trip() {
        let t = four_node_tree();
        let json = serde_json_like(&t);
        // Minimal structural smoke check without a JSON dependency: the
        // Debug form of the round-tripped parents matches.
        assert_eq!(json, t.to_parents());
    }

    /// Stand-in for a serializer round trip that avoids extra dependencies:
    /// exercises `to_parents` -> `from_parents` fidelity.
    fn serde_json_like(t: &Tree) -> Vec<Option<usize>> {
        Tree::from_parents(&t.to_parents()).unwrap().to_parents()
    }
}
