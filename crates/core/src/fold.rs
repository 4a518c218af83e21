//! WebFold — the provably optimal off-line TLB algorithm (paper, Figure 3).
//!
//! The central insight: tree nodes can be partitioned into *folds* —
//! contiguous regions that all carry equal load, with **no load flowing
//! between folds**. Each node in a fold serves
//! `eps(fold) / |fold|` where `eps` is the sum of spontaneous rates inside
//! the fold.
//!
//! Folds are built bottom-up: a fold `j` is *foldable* into its parent fold
//! `i` iff its per-node load exceeds the parent's
//! (`eps_j/|F_j| > eps_i/|F_i|`), and WebFold always folds the foldable
//! fold with **maximum per-node load** first. The resulting assignment
//! satisfies (Lemmas 1-3, Theorem 1):
//!
//! * loads are non-increasing from root to leaf,
//! * no load crosses fold boundaries (`A = 0` at every fold root),
//! * no sibling sharing (`A_i >= 0` everywhere),
//! * and the sorted load vector is lexicographically minimal over all
//!   feasible assignments — tree load balance (TLB).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ww_model::{LeafRemoval, NodeId, RateVector, Tree};

/// One fold event in the order WebFold performed them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldEvent {
    /// Root node of the fold that was folded (disappeared).
    pub child_root: NodeId,
    /// Root node of the parent fold it merged into.
    pub parent_root: NodeId,
    /// Per-node load of the merged fold after this event.
    pub merged_load: f64,
}

/// The result of running WebFold: the fold partition, the TLB load
/// assignment, and the trace of fold events.
///
/// # Example
///
/// ```
/// use ww_model::{RateVector, Tree};
/// use ww_core::fold::webfold;
///
/// // Chain 0 <- 1 <- 2 with all 30 req/s generated at the leaf: one fold,
/// // 10 req/s per node — TLB equals GLE here.
/// let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
/// let e = RateVector::from(vec![0.0, 0.0, 30.0]);
/// let folded = webfold(&tree, &e);
/// assert_eq!(folded.fold_count(), 1);
/// assert_eq!(folded.load().as_slice(), &[10.0, 10.0, 10.0]);
/// assert!(folded.is_gle());
/// ```
#[derive(Debug, Clone)]
pub struct FoldedTree {
    load: RateVector,
    /// Representative (fold root node) for each node.
    fold_root_of: Vec<NodeId>,
    /// Fold roots in increasing node order.
    fold_roots: Vec<NodeId>,
    trace: Vec<FoldEvent>,
}

impl FoldedTree {
    /// The TLB load assignment `L` (requests/second per node).
    pub fn load(&self) -> &RateVector {
        &self.load
    }

    /// Consumes self and returns the TLB load assignment.
    pub fn into_load(self) -> RateVector {
        self.load
    }

    /// Number of folds in the final partition.
    pub fn fold_count(&self) -> usize {
        self.fold_roots.len()
    }

    /// `true` when the whole tree collapsed into a single fold — exactly
    /// the case where the TLB assignment achieves Global Load Equality.
    pub fn is_gle(&self) -> bool {
        self.fold_roots.len() == 1
    }

    /// `true` when two nodes ended up in the same fold.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn same_fold(&self, a: NodeId, b: NodeId) -> bool {
        self.fold_root_of[a.index()] == self.fold_root_of[b.index()]
    }

    /// The members of every fold, keyed by fold root, sorted by root id;
    /// members sorted by node id.
    pub fn folds(&self) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut out: Vec<(NodeId, Vec<NodeId>)> =
            self.fold_roots.iter().map(|&r| (r, Vec::new())).collect();
        for (i, &r) in self.fold_root_of.iter().enumerate() {
            let slot = out
                .binary_search_by_key(&r, |&(root, _)| root)
                .expect("fold root present");
            out[slot].1.push(NodeId::new(i));
        }
        out
    }

    /// The sequence of fold events, in execution order.
    ///
    /// Empty for trees produced by [`IncrementalFold::refold_path`]: the
    /// incremental algorithm reaches the same partition without replaying
    /// the global merge order, so no event sequence is recorded.
    pub fn trace(&self) -> &[FoldEvent] {
        &self.trace
    }

    /// Every fold root, in increasing node order.
    pub fn fold_roots(&self) -> &[NodeId] {
        &self.fold_roots
    }

    /// The fold-root representative of every node, indexed by node id.
    pub fn fold_root_of(&self) -> &[NodeId] {
        &self.fold_root_of
    }
}

/// Per-fold bookkeeping during the run.
#[derive(Debug, Clone)]
struct FoldState {
    /// Tree node at the fold's root.
    root: NodeId,
    members: usize,
    eps: f64,
    /// Fold id of the parent fold (`None` for the fold holding the tree
    /// root).
    parent: Option<usize>,
    /// Child fold ids (active ones only; pruned lazily).
    children: Vec<usize>,
    active: bool,
}

impl FoldState {
    fn per_node_load(&self) -> f64 {
        self.eps / self.members as f64
    }
}

/// Heap key: max per-node load first, ties broken toward the smallest
/// fold-root id for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapKey {
    load: f64,
    root: usize,
    fold: usize,
}

impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.load
            .total_cmp(&other.load)
            .then_with(|| Reverse(self.root).cmp(&Reverse(other.root)))
    }
}

/// The order in which foldable folds are merged.
///
/// The paper's algorithm folds the foldable fold with **maximum per-node
/// load** first; [`FoldOrder::FirstFoldable`] is the ablation (experiment
/// A2) that merges any foldable fold in scan order instead, to measure
/// what the ordering rule buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FoldOrder {
    /// Fold the maximum per-node-load fold first (the paper's rule).
    #[default]
    MaxLoadFirst,
    /// Fold any foldable fold, in node-id scan order (ablation).
    FirstFoldable,
}

/// Runs WebFold with an explicit fold-order policy (see [`FoldOrder`]).
///
/// # Panics
///
/// Panics if `spontaneous` does not validate against `tree`.
pub fn webfold_with_order(tree: &Tree, spontaneous: &RateVector, order: FoldOrder) -> FoldedTree {
    match order {
        FoldOrder::MaxLoadFirst => webfold(tree, spontaneous),
        FoldOrder::FirstFoldable => webfold_first_foldable(tree, spontaneous),
    }
}

/// The ablation variant: repeatedly merges the first foldable fold found
/// in node-id order. `O(n^2)` worst case; used only to study the effect
/// of the paper's max-load-first rule.
fn webfold_first_foldable(tree: &Tree, spontaneous: &RateVector) -> FoldedTree {
    spontaneous
        .validate_for(tree)
        .expect("spontaneous rates must match the tree");
    let n = tree.len();
    let mut folds: Vec<FoldState> = (0..n)
        .map(|i| {
            let node = NodeId::new(i);
            FoldState {
                root: node,
                members: 1,
                eps: spontaneous[node],
                parent: tree.parent(node).map(NodeId::index),
                children: tree.children(node).iter().map(|c| c.index()).collect(),
                active: true,
            }
        })
        .collect();
    let mut trace = Vec::new();
    loop {
        let mut merged_any = false;
        for c in 0..n {
            if !folds[c].active {
                continue;
            }
            let Some(p) = folds[c].parent else { continue };
            if folds[c].per_node_load() <= folds[p].per_node_load() {
                continue;
            }
            let (c_members, c_eps, c_children) = {
                let fc = &mut folds[c];
                fc.active = false;
                (fc.members, fc.eps, std::mem::take(&mut fc.children))
            };
            let child_root = folds[c].root;
            folds[p].members += c_members;
            folds[p].eps += c_eps;
            folds[p].children.retain(|&x| x != c);
            for &gc in &c_children {
                folds[gc].parent = Some(p);
            }
            folds[p].children.extend(c_children.iter().copied());
            trace.push(FoldEvent {
                child_root,
                parent_root: folds[p].root,
                merged_load: folds[p].per_node_load(),
            });
            merged_any = true;
        }
        if !merged_any {
            break;
        }
    }
    finalize(tree, &folds, trace)
}

/// Shared tail of both variants: resolve fold membership and loads.
fn finalize(tree: &Tree, folds: &[FoldState], trace: Vec<FoldEvent>) -> FoldedTree {
    let n = tree.len();
    let mut fold_root_of: Vec<NodeId> = vec![NodeId::new(0); n];
    for &u in tree.bfs_order() {
        if folds[u.index()].active {
            fold_root_of[u.index()] = u;
        } else {
            let p = tree.parent(u).expect("inactive fold root has a parent");
            fold_root_of[u.index()] = fold_root_of[p.index()];
        }
    }
    let mut load = RateVector::zeros(n);
    for i in 0..n {
        let r = fold_root_of[i].index();
        load[NodeId::new(i)] = folds[r].per_node_load();
    }
    let fold_roots: Vec<NodeId> = (0..n)
        .filter(|&i| folds[i].active)
        .map(NodeId::new)
        .collect();
    FoldedTree {
        load,
        fold_root_of,
        fold_roots,
        trace,
    }
}

/// Runs WebFold on `tree` with spontaneous rates `spontaneous`, returning
/// the fold partition and TLB assignment.
///
/// Runs in `O(n log n)` for typical inputs (lazy max-heap over foldable
/// folds; a fold's children are re-examined only when their parent fold
/// merges upward).
///
/// # Panics
///
/// Panics if `spontaneous` does not validate against `tree` (wrong length
/// or negative/non-finite rates).
pub fn webfold(tree: &Tree, spontaneous: &RateVector) -> FoldedTree {
    spontaneous
        .validate_for(tree)
        .expect("spontaneous rates must match the tree");
    let n = tree.len();

    // WebFold(T) step (2): every node starts as its own fold.
    let mut folds: Vec<FoldState> = (0..n)
        .map(|i| {
            let node = NodeId::new(i);
            FoldState {
                root: node,
                members: 1,
                eps: spontaneous[node],
                parent: tree.parent(node).map(NodeId::index),
                children: tree.children(node).iter().map(|c| c.index()).collect(),
                active: true,
            }
        })
        .collect();

    let mut heap: BinaryHeap<HeapKey> = BinaryHeap::new();
    for (i, f) in folds.iter().enumerate() {
        if f.parent.is_some() {
            heap.push(HeapKey {
                load: f.per_node_load(),
                root: f.root.index(),
                fold: i,
            });
        }
    }

    let mut trace = Vec::new();

    // Fold(7) step (2): repeatedly fold the maximum-load foldable fold.
    while let Some(key) = heap.pop() {
        let c = key.fold;
        if !folds[c].active {
            continue; // stale: fold already merged away
        }
        if folds[c].per_node_load() != key.load || folds[c].root.index() != key.root {
            continue; // stale: load changed since this entry was pushed
        }
        let Some(p) = folds[c].parent else { continue };
        // Foldable(j, i): per-node load strictly greater than parent's.
        if folds[c].per_node_load() <= folds[p].per_node_load() {
            continue; // not foldable now; a fresh entry is pushed if that changes
        }

        // Perform the fold: merge c into p.
        let (c_members, c_eps, c_children) = {
            let fc = &mut folds[c];
            fc.active = false;
            (fc.members, fc.eps, std::mem::take(&mut fc.children))
        };
        let child_root = folds[c].root;
        folds[p].members += c_members;
        folds[p].eps += c_eps;
        folds[p].children.retain(|&x| x != c);
        for &gc in &c_children {
            folds[gc].parent = Some(p);
        }
        folds[p].children.extend(c_children.iter().copied());

        let merged_load = folds[p].per_node_load();
        trace.push(FoldEvent {
            child_root,
            parent_root: folds[p].root,
            merged_load,
        });

        // The merged fold may now be foldable into *its* parent.
        if folds[p].parent.is_some() {
            heap.push(HeapKey {
                load: merged_load,
                root: folds[p].root.index(),
                fold: p,
            });
        }
        // c's former children saw their parent's load drop from c's level
        // to `merged_load`; they may have become foldable.
        for &gc in &c_children {
            if folds[gc].active {
                heap.push(HeapKey {
                    load: folds[gc].per_node_load(),
                    root: folds[gc].root.index(),
                    fold: gc,
                });
            }
        }
    }

    // WebFold step (4): every member serves eps / |F|; see `finalize`.
    finalize(tree, &folds, trace)
}

/// Incremental WebFold: caches one *summary* per node — the fold that
/// would sit at the top of the node's subtree if the subtree were folded
/// in isolation (`members`, `eps`), plus the roots of the frozen folds
/// that summary *exposes* to its parent (the subtree folds that were not
/// absorbed). A barrier event dirties only the path from the touched
/// node to the root; [`IncrementalFold::refold_path`] recomputes those
/// summaries bottom-up against the clean cached children and re-emits
/// the partition — `O(depth · branching · log branching)` per event plus
/// an `O(n)` emission pass, instead of the full `O(n log n)` sweep.
///
/// The result is **bit-identical** to [`webfold`] (same loads, same fold
/// roots, same membership): both algorithms perform the same merges in
/// the same per-fold order. The global heap pops in non-increasing
/// key order (every re-push is bounded by the key just popped),
/// so all merges into one fold interleave exactly as the local per-node
/// heap replays them, and every foldability comparison sees the same
/// `eps / members` doubles. The fold-event [`FoldedTree::trace`] is the
/// one thing not reproduced — the incremental path never materialises
/// the global merge sequence — so emitted trees carry an empty trace.
///
/// Structural churn must be reported explicitly ([`IncrementalFold::on_join`],
/// [`IncrementalFold::on_leave`]); rate changes are discovered by diffing
/// the spontaneous vector handed to `refold_path` against the cached one.
///
/// # Example
///
/// ```
/// use ww_model::{NodeId, RateVector, Tree};
/// use ww_core::fold::{webfold, IncrementalFold};
///
/// let mut tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
/// let mut rates = vec![0.0, 0.0, 30.0];
/// let mut inc = IncrementalFold::new(&tree, &RateVector::from(rates.clone()));
///
/// // A leaf joins under node 1; only the path 3 -> 1 -> 0 re-folds.
/// let id = tree.add_leaf(NodeId::new(1)).unwrap();
/// rates.push(6.0);
/// inc.on_join(&tree, id);
/// let e = RateVector::from(rates);
/// let folded = inc.refold_path(&tree, &e);
/// assert_eq!(folded.load().as_slice(), webfold(&tree, &e).load().as_slice());
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalFold {
    /// Member count of the node's top summary fold.
    members: Vec<usize>,
    /// Spontaneous-rate sum of the node's top summary fold.
    eps: Vec<f64>,
    /// Roots of the frozen folds the summary exposes upward.
    exposed: Vec<Vec<NodeId>>,
    /// Cached spontaneous rates, diffed on every refold.
    spont: Vec<f64>,
    /// Summaries invalidated since the last refold.
    dirty: Vec<bool>,
}

impl IncrementalFold {
    /// Builds the summary cache for `tree` with rates `spontaneous`.
    ///
    /// # Panics
    ///
    /// Panics if `spontaneous` does not validate against `tree`.
    pub fn new(tree: &Tree, spontaneous: &RateVector) -> Self {
        let n = tree.len();
        let mut inc = Self {
            members: vec![0; n],
            eps: vec![0.0; n],
            exposed: vec![Vec::new(); n],
            spont: vec![f64::NAN; n],
            dirty: vec![true; n],
        };
        let _ = inc.refold_path(tree, spontaneous);
        inc
    }

    /// Records a freshly appended leaf (call *after* [`Tree::add_leaf`],
    /// which always assigns the next id). Dirties the leaf's root path.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the last node of `tree` or the cache has
    /// drifted from the tree's size.
    pub fn on_join(&mut self, tree: &Tree, id: NodeId) {
        assert_eq!(
            id.index(),
            tree.len() - 1,
            "joined leaf must hold the appended id"
        );
        assert_eq!(self.members.len(), tree.len() - 1, "cache out of sync");
        self.members.push(0);
        self.eps.push(0.0);
        self.exposed.push(Vec::new());
        self.spont.push(f64::NAN);
        self.dirty.push(true);
        self.mark_path(tree, id);
    }

    /// Records a leaf departure (call *after* [`Tree::remove_leaf`] with
    /// the removal it returned). Mirrors the swap-remove renumbering and
    /// dirties both affected root paths: the departed leaf's former
    /// parent and the renumbered former-last node.
    ///
    /// # Panics
    ///
    /// Panics if the cache has drifted from the tree's size.
    pub fn on_leave(&mut self, tree: &Tree, removal: &LeafRemoval) {
        assert_eq!(self.members.len(), tree.len() + 1, "cache out of sync");
        let r = removal.removed.index();
        self.members.swap_remove(r);
        self.eps.swap_remove(r);
        self.exposed.swap_remove(r);
        self.spont.swap_remove(r);
        self.dirty.swap_remove(r);
        self.mark_path(tree, removal.parent);
        if removal.moved.is_some() {
            // Summaries naming the old last id live only on the moved
            // node's (new) ancestor chain; recompute rebuilds them
            // against the compacted numbering.
            self.mark_path(tree, NodeId::new(r));
        }
    }

    /// Re-folds the dirty root paths and returns the full partition,
    /// bit-identical (loads, roots, membership) to
    /// `webfold(tree, spontaneous)`. Rate deltas since the previous call
    /// are picked up by diffing `spontaneous` against the cached copy.
    ///
    /// # Panics
    ///
    /// Panics if `spontaneous` does not validate against `tree`, or if
    /// the tree's size changed without [`IncrementalFold::on_join`] /
    /// [`IncrementalFold::on_leave`] notifications.
    pub fn refold_path(&mut self, tree: &Tree, spontaneous: &RateVector) -> FoldedTree {
        spontaneous
            .validate_for(tree)
            .expect("spontaneous rates must match the tree");
        assert_eq!(
            self.members.len(),
            tree.len(),
            "structural churn must be reported via on_join/on_leave"
        );
        for i in 0..tree.len() {
            let rate = spontaneous[NodeId::new(i)];
            if self.spont[i].to_bits() != rate.to_bits() {
                self.spont[i] = rate;
                self.mark_path(tree, NodeId::new(i));
            }
        }
        let mut heap = BinaryHeap::new();
        for u in tree.bottom_up() {
            if self.dirty[u.index()] {
                self.recompute(tree, u, &mut heap);
            }
        }
        self.emit(tree)
    }

    /// Dirties `node` and every ancestor up to the root.
    fn mark_path(&mut self, tree: &Tree, node: NodeId) {
        // No early exit on an already-dirty node: a leave's swap-remove
        // relocates a summary (and its dirty flag) under new ancestors,
        // so dirtiness is not always upward-closed mid-update.
        for u in tree.path_to_root(node) {
            self.dirty[u.index()] = true;
        }
    }

    /// Replays the fold decisions for `u`'s subtree top against the
    /// children's cached summaries — the local equivalent of every
    /// global-heap merge whose target fold is rooted at `u`.
    fn recompute(&mut self, tree: &Tree, u: NodeId, heap: &mut BinaryHeap<HeapKey>) {
        let ui = u.index();
        let mut members = 1usize;
        let mut eps = self.spont[ui];
        heap.clear();
        for &c in tree.children(u) {
            let ci = c.index();
            heap.push(HeapKey {
                load: self.eps[ci] / self.members[ci] as f64,
                root: ci,
                fold: ci,
            });
        }
        let mut exposed = std::mem::take(&mut self.exposed[ui]);
        exposed.clear();
        // Foldable(j, i): strictly greater per-node load, max first —
        // the same comparison, in the same descending key order, as the
        // global heap (keys here are frozen, so no stale entries).
        while let Some(key) = heap.pop() {
            if key.load <= eps / members as f64 {
                // Merging only raises the open fold's load, so nothing
                // at or below this key can ever fold in: freeze the
                // rest as exposed roots.
                exposed.push(NodeId::new(key.root));
                while let Some(rest) = heap.pop() {
                    exposed.push(NodeId::new(rest.root));
                }
                break;
            }
            members += self.members[key.root];
            eps += self.eps[key.root];
            for &g in &self.exposed[key.root] {
                let gi = g.index();
                heap.push(HeapKey {
                    load: self.eps[gi] / self.members[gi] as f64,
                    root: gi,
                    fold: gi,
                });
            }
        }
        self.members[ui] = members;
        self.eps[ui] = eps;
        self.exposed[ui] = exposed;
        self.dirty[ui] = false;
    }

    /// Resolves the final partition: the root's summary fold plus the
    /// transitive closure of exposed folds, loads as `eps / members` —
    /// the same arithmetic as [`finalize`].
    fn emit(&self, tree: &Tree) -> FoldedTree {
        let n = tree.len();
        let mut active = vec![false; n];
        let mut stack = vec![tree.root()];
        while let Some(u) = stack.pop() {
            active[u.index()] = true;
            stack.extend(self.exposed[u.index()].iter().copied());
        }
        let mut fold_root_of: Vec<NodeId> = vec![NodeId::new(0); n];
        for &u in tree.bfs_order() {
            if active[u.index()] {
                fold_root_of[u.index()] = u;
            } else {
                let p = tree.parent(u).expect("inactive fold root has a parent");
                fold_root_of[u.index()] = fold_root_of[p.index()];
            }
        }
        let mut load = RateVector::zeros(n);
        for i in 0..n {
            let r = fold_root_of[i].index();
            load[NodeId::new(i)] = self.eps[r] / self.members[r] as f64;
        }
        let fold_roots: Vec<NodeId> = (0..n).filter(|&i| active[i]).map(NodeId::new).collect();
        FoldedTree {
            load,
            fold_root_of,
            fold_roots,
            trace: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_model::LoadAssignment;
    use ww_topology::paper;

    #[test]
    fn single_node_tree_serves_its_own_demand() {
        let tree = Tree::from_parents(&[None]).unwrap();
        let e = RateVector::from(vec![7.0]);
        let f = webfold(&tree, &e);
        assert_eq!(f.load().as_slice(), &[7.0]);
        assert_eq!(f.fold_count(), 1);
        assert!(f.trace().is_empty());
    }

    #[test]
    fn chain_with_leaf_demand_is_gle() {
        let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
        let e = RateVector::from(vec![0.0, 0.0, 30.0]);
        let f = webfold(&tree, &e);
        assert!(f.is_gle());
        assert_eq!(f.load().as_slice(), &[10.0, 10.0, 10.0]);
    }

    #[test]
    fn demand_at_root_cannot_spread_down() {
        // All demand at the root: NSS forbids pushing it to children.
        let tree = Tree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let e = RateVector::from(vec![30.0, 0.0, 0.0]);
        let f = webfold(&tree, &e);
        assert_eq!(f.load().as_slice(), &[30.0, 0.0, 0.0]);
        assert_eq!(f.fold_count(), 3);
        assert!(!f.is_gle());
    }

    #[test]
    fn fig2a_folds_to_gle() {
        let s = paper::fig2a();
        let f = webfold(&s.tree, &s.spontaneous);
        assert!(f.is_gle());
        assert_eq!(f.load().as_slice(), &[20.0; 5]);
    }

    #[test]
    fn fig2b_matches_hand_computed_tlb() {
        let s = paper::fig2b();
        let f = webfold(&s.tree, &s.spontaneous);
        assert_eq!(f.load().as_slice(), paper::fig2b_tlb().as_slice());
        assert_eq!(f.fold_count(), 2);
        // Folds: {0,1,3} and {2,4}.
        assert!(f.same_fold(NodeId::new(0), NodeId::new(1)));
        assert!(f.same_fold(NodeId::new(0), NodeId::new(3)));
        assert!(f.same_fold(NodeId::new(2), NodeId::new(4)));
        assert!(!f.same_fold(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn fig4_fold_sequence_cascades_as_documented() {
        let s = paper::fig4();
        let f = webfold(&s.tree, &s.spontaneous);
        // Final loads: {0,1,3,4,6} at 10.4, {2,5} at 4, {7} at 4.
        let expect = [10.4, 10.4, 4.0, 10.4, 10.4, 4.0, 10.4, 4.0];
        for (got, want) in f.load().as_slice().iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert_eq!(f.fold_count(), 3);
        // The documented fold order: 3->1, 6->4, {1,3}->0, {4,6}->fold(0), 5->2.
        let order: Vec<(usize, usize)> = f
            .trace()
            .iter()
            .map(|e| (e.child_root.index(), e.parent_root.index()))
            .collect();
        assert_eq!(order, vec![(3, 1), (6, 4), (1, 0), (4, 0), (5, 2)]);
    }

    #[test]
    fn fig7_reaches_uniform_90() {
        let b = paper::fig7();
        let f = webfold(&b.tree, &b.spontaneous);
        for &l in f.load().as_slice() {
            assert!((l - 90.0).abs() < 1e-9);
        }
        assert_eq!(f.fold_count(), 2); // {0,1,3} and {2}
        assert!(!f.is_gle());
        // GLE in *value* but split into folds with equal load is fine:
        // the load vector is uniform even though two folds exist.
        assert!(f.load().distance_to_uniform() < 1e-9);
    }

    #[test]
    fn lemma1_monotone_non_increasing_on_paper_trees() {
        for s in paper::all_scenarios() {
            let f = webfold(&s.tree, &s.spontaneous);
            for u in s.tree.nodes() {
                for &c in s.tree.children(u) {
                    assert!(
                        f.load()[u] >= f.load()[c] - 1e-9,
                        "{}: lemma 1 violated at {u}->{c}",
                        s.name
                    );
                }
            }
        }
    }

    #[test]
    fn lemma2_zero_flow_at_fold_roots() {
        for s in paper::all_scenarios() {
            let f = webfold(&s.tree, &s.spontaneous);
            let a = LoadAssignment::new(&s.tree, &s.spontaneous, f.load().clone()).unwrap();
            for (root, _) in f.folds() {
                assert!(
                    a.forwarded()[root].abs() < 1e-9,
                    "{}: fold root {root} forwards {}",
                    s.name,
                    a.forwarded()[root]
                );
            }
        }
    }

    #[test]
    fn lemma3_nss_and_constraint1_hold() {
        for s in paper::all_scenarios() {
            let f = webfold(&s.tree, &s.spontaneous);
            let a = LoadAssignment::new(&s.tree, &s.spontaneous, f.load().clone()).unwrap();
            assert!(a.check_feasible(1e-9).is_ok(), "{} infeasible", s.name);
        }
    }

    #[test]
    fn total_load_equals_total_demand() {
        for s in paper::all_scenarios() {
            let f = webfold(&s.tree, &s.spontaneous);
            assert!((f.load().total() - s.total_demand()).abs() < 1e-9);
        }
    }

    #[test]
    fn folds_partition_the_tree() {
        let s = paper::fig6();
        let f = webfold(&s.tree, &s.spontaneous);
        let mut seen = vec![false; s.tree.len()];
        for (_, members) in f.folds() {
            for m in members {
                assert!(!seen[m.index()], "node {m} in two folds");
                seen[m.index()] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn folds_are_contiguous_regions() {
        // Every non-root member of a fold has its parent in the same fold.
        let s = paper::fig6();
        let f = webfold(&s.tree, &s.spontaneous);
        for (root, members) in f.folds() {
            for m in members {
                if m != root {
                    let p = s.tree.parent(m).unwrap();
                    assert!(f.same_fold(m, p), "fold of {root} not contiguous at {m}");
                }
            }
        }
    }

    #[test]
    fn zero_demand_tree_has_all_zero_loads() {
        let s = paper::fig6();
        let f = webfold(&s.tree, &RateVector::zeros(s.tree.len()));
        assert!(f.load().as_slice().iter().all(|&l| l == 0.0));
    }

    #[test]
    fn first_foldable_order_is_feasible_on_paper_scenarios() {
        // On the paper's hand-crafted scenarios the ablation variant
        // happens to reach feasible partitions; on random trees it often
        // does not (see the next test) — the max-load-first rule is what
        // guarantees Lemma 3 in general.
        for s in ww_topology::paper::all_scenarios() {
            let f = webfold_with_order(&s.tree, &s.spontaneous, FoldOrder::FirstFoldable);
            assert!((f.load().total() - s.total_demand()).abs() < 1e-9);
            let a = LoadAssignment::new(&s.tree, &s.spontaneous, f.load().clone()).unwrap();
            assert!(a.check_feasible(1e-9).is_ok(), "{} infeasible", s.name);
        }
    }

    #[test]
    fn scan_order_violates_nss_on_random_trees() {
        // The ablation's central finding: folding in arbitrary order can
        // produce partitions whose even per-fold load split violates NSS.
        // Any scan-order result that *sorts* better than WebFold must be
        // one of those infeasible partitions (Theorem 1).
        use rand::SeedableRng;
        use std::cmp::Ordering;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut infeasible = 0;
        for _ in 0..60 {
            let tree = ww_topology::random_tree_of_depth(&mut rng, 40, 6);
            let e = ww_workload::random_uniform(&mut rng, &tree, 0.0, 50.0);
            let scan = webfold_with_order(&tree, &e, FoldOrder::FirstFoldable);
            let feasible = LoadAssignment::new(&tree, &e, scan.load().clone())
                .unwrap()
                .check_feasible(1e-9)
                .is_ok();
            if !feasible {
                infeasible += 1;
            } else {
                // Feasible scan results can never beat WebFold.
                let max_first = webfold(&tree, &e);
                assert_ne!(
                    max_first.load().compare_balance(scan.load(), 1e-9),
                    Ordering::Greater,
                    "a feasible scan-order result beat WebFold"
                );
            }
        }
        assert!(
            infeasible > 10,
            "expected many NSS violations from scan order, got {infeasible}/60"
        );
    }

    #[test]
    #[should_panic(expected = "spontaneous rates must match")]
    fn mismatched_rates_panic() {
        let tree = Tree::from_parents(&[None]).unwrap();
        let _ = webfold(&tree, &RateVector::zeros(3));
    }
}
