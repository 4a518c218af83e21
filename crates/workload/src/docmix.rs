//! Per-node, per-document demand mixes.
//!
//! WebWave's packet-level protocol must track a separate forwarded rate
//! `A_j` *per document* (paper, Section 5 footnote: "An implementation of
//! WebWave needs to maintain a separate A_j for each document it caches").
//! A [`DocMix`] describes how each node's spontaneous rate splits across
//! the published documents.

use crate::Zipf;
use serde::{Deserialize, Serialize};
use ww_model::{DocId, NodeId, RateVector, Tree};

/// Demand for documents at every node: `rate_of(node, doc)` in req/s.
///
/// # Example
///
/// ```
/// use ww_model::{DocId, NodeId, RateVector, Tree};
/// use ww_workload::DocMix;
///
/// let tree = Tree::from_parents(&[None, Some(0)]).unwrap();
/// let mut mix = DocMix::new(2);
/// mix.set(NodeId::new(1), DocId::new(7), 12.0);
/// assert_eq!(mix.rate_of(NodeId::new(1), DocId::new(7)), 12.0);
/// assert_eq!(mix.node_total(NodeId::new(1)), 12.0);
/// assert_eq!(mix.spontaneous().as_slice(), &[0.0, 12.0]);
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct DocMix {
    /// Per node: sorted list of (doc, rate) pairs.
    demands: Vec<Vec<(DocId, f64)>>,
}

impl Clone for DocMix {
    fn clone(&self) -> Self {
        DocMix {
            demands: self.demands.clone(),
        }
    }

    /// Overwrites this mix row by row, reusing the rows' buffers — a
    /// workload shift replaces a live mix of the same shape, and should
    /// not pay one allocation per node for it.
    fn clone_from(&mut self, source: &Self) {
        self.demands.clone_from(&source.demands);
    }
}

impl DocMix {
    /// Creates an empty mix over `n` nodes.
    pub fn new(n: usize) -> Self {
        DocMix {
            demands: vec![Vec::new(); n],
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// `true` when the mix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Sets (overwrites) the demand of `node` for `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `rate` is negative/non-finite.
    pub fn set(&mut self, node: NodeId, doc: DocId, rate: f64) {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be finite and >= 0"
        );
        let list = &mut self.demands[node.index()];
        match list.binary_search_by_key(&doc, |&(d, _)| d) {
            Ok(i) => list[i].1 = rate,
            Err(i) => list.insert(i, (doc, rate)),
        }
    }

    /// Demand of `node` for `doc` (0 when absent).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rate_of(&self, node: NodeId, doc: DocId) -> f64 {
        let list = &self.demands[node.index()];
        match list.binary_search_by_key(&doc, |&(d, _)| d) {
            Ok(i) => list[i].1,
            Err(_) => 0.0,
        }
    }

    /// All `(doc, rate)` demands of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn demands_of(&self, node: NodeId) -> &[(DocId, f64)] {
        &self.demands[node.index()]
    }

    /// Total demand generated at `node` across all documents.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_total(&self, node: NodeId) -> f64 {
        self.demands[node.index()].iter().map(|&(_, r)| r).sum()
    }

    /// Aggregates the mix into the spontaneous rate vector `E`.
    pub fn spontaneous(&self) -> RateVector {
        (0..self.len())
            .map(|i| self.node_total(NodeId::new(i)))
            .collect()
    }

    /// The set of distinct documents appearing anywhere in the mix, sorted.
    ///
    /// Streams the rows into one sorted, duplicate-free list instead of
    /// collecting and sorting every `(node, doc)` pair: each row is
    /// itself sorted, so one forward cursor per row finds every document
    /// already listed, and only first sightings insert. Linear in the
    /// mix for the shared universes the engines run on (insertion makes
    /// it quadratic in the number of *distinct* documents, which the
    /// dense per-document tables keep small anyway).
    pub fn documents(&self) -> Vec<DocId> {
        let mut docs: Vec<DocId> = Vec::new();
        for list in &self.demands {
            let mut at = 0;
            for &(d, _) in list {
                if docs.get(at) != Some(&d) {
                    at += docs[at..].partition_point(|&known| known < d);
                    if docs.get(at) != Some(&d) {
                        docs.insert(at, d);
                    }
                }
                at += 1;
            }
        }
        docs
    }

    /// Adds `delta` req/s to the demand of `node` for `doc` (a publish,
    /// or demand re-homing from a departed child).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the resulting rate would be
    /// negative/non-finite.
    pub fn add_rate(&mut self, node: NodeId, doc: DocId, delta: f64) {
        let rate = self.rate_of(node, doc) + delta;
        self.set(node, doc, rate);
    }

    /// Grows the mix by one node with no demand (a cache server joining
    /// the tree), returning its id — the next index, exactly as
    /// [`ww_model::Tree::add_leaf`] numbers a newcomer.
    pub fn add_node(&mut self) -> NodeId {
        self.demands.push(Vec::new());
        NodeId::new(self.demands.len() - 1)
    }

    /// Removes `node`'s demand row by swap-remove — the highest-numbered
    /// node's row moves into the vacated slot, mirroring the id
    /// compaction of [`ww_model::Tree::remove_leaf`] — and returns the
    /// departed row so the caller can re-home it.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn swap_remove_node(&mut self, node: NodeId) -> Vec<(DocId, f64)> {
        self.demands.swap_remove(node.index())
    }
}

/// Builds a mix in which every node splits its spontaneous rate across
/// `docs` documents by a shared Zipf(s) popularity law.
///
/// This is the "globally hot documents" regime: everyone agrees which
/// documents are hot.
///
/// # Panics
///
/// Panics if `docs == 0`, `s < 0`, or `spontaneous` is shorter than the
/// tree.
pub fn shared_zipf_mix(tree: &Tree, spontaneous: &RateVector, docs: usize, s: f64) -> DocMix {
    assert_eq!(spontaneous.len(), tree.len(), "rates must match tree");
    let zipf = Zipf::new(docs, s).expect("valid zipf parameters");
    let mut mix = DocMix::new(tree.len());
    for (node, rate) in spontaneous.iter() {
        if rate <= 0.0 {
            continue;
        }
        for (rank, share) in zipf.rate_split(rate).into_iter().enumerate() {
            if share > 0.0 {
                mix.set(node, DocId::new(rank as u64), share);
            }
        }
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Tree {
        Tree::from_parents(&[None, Some(0), Some(0), Some(1)]).unwrap()
    }

    /// Total demand for document `doc` across all nodes.
    fn doc_total(m: &DocMix, doc: u64) -> f64 {
        (0..m.len())
            .map(|i| m.rate_of(NodeId::new(i), DocId::new(doc)))
            .sum()
    }

    #[test]
    fn set_and_get() {
        let mut m = DocMix::new(2);
        m.set(NodeId::new(0), DocId::new(5), 3.0);
        m.set(NodeId::new(0), DocId::new(2), 1.0);
        assert_eq!(m.rate_of(NodeId::new(0), DocId::new(5)), 3.0);
        assert_eq!(m.rate_of(NodeId::new(0), DocId::new(9)), 0.0);
        // Overwrite.
        m.set(NodeId::new(0), DocId::new(5), 4.0);
        assert_eq!(m.rate_of(NodeId::new(0), DocId::new(5)), 4.0);
        assert_eq!(m.node_total(NodeId::new(0)), 5.0);
    }

    #[test]
    fn demands_kept_sorted() {
        let mut m = DocMix::new(1);
        m.set(NodeId::new(0), DocId::new(9), 1.0);
        m.set(NodeId::new(0), DocId::new(1), 1.0);
        m.set(NodeId::new(0), DocId::new(4), 1.0);
        let docs: Vec<u64> = m
            .demands_of(NodeId::new(0))
            .iter()
            .map(|&(d, _)| d.value())
            .collect();
        assert_eq!(docs, vec![1, 4, 9]);
    }

    #[test]
    fn spontaneous_aggregation() {
        let mut m = DocMix::new(3);
        m.set(NodeId::new(1), DocId::new(0), 2.0);
        m.set(NodeId::new(1), DocId::new(1), 3.0);
        m.set(NodeId::new(2), DocId::new(0), 4.0);
        assert_eq!(m.spontaneous().as_slice(), &[0.0, 5.0, 4.0]);
        assert_eq!(doc_total(&m, 0), 6.0);
        assert_eq!(m.documents(), vec![DocId::new(0), DocId::new(1)]);
    }

    #[test]
    fn shared_zipf_preserves_node_totals() {
        let t = tree();
        let e = RateVector::from(vec![0.0, 10.0, 20.0, 30.0]);
        let m = shared_zipf_mix(&t, &e, 16, 1.0);
        for (node, rate) in e.iter() {
            assert!(
                (m.node_total(node) - rate).abs() < 1e-9,
                "node {node} total mismatch"
            );
        }
        // Doc 0 is globally hottest.
        assert!(doc_total(&m, 0) > doc_total(&m, 15));
    }

    #[test]
    fn churn_mutators_mirror_tree_compaction() {
        let mut m = DocMix::new(3);
        m.set(NodeId::new(1), DocId::new(4), 5.0);
        m.set(NodeId::new(2), DocId::new(4), 7.0);
        m.set(NodeId::new(2), DocId::new(9), 1.0);
        assert_eq!(m.add_node(), NodeId::new(3));
        m.add_rate(NodeId::new(3), DocId::new(4), 2.0);
        assert_eq!(m.rate_of(NodeId::new(3), DocId::new(4)), 2.0);
        // Node 1 departs: node 3's row moves into slot 1; the departed
        // row re-homes wherever the caller chooses.
        let departed = m.swap_remove_node(NodeId::new(1));
        assert_eq!(departed, vec![(DocId::new(4), 5.0)]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.rate_of(NodeId::new(1), DocId::new(4)), 2.0);
        for &(d, r) in &departed {
            m.add_rate(NodeId::new(0), d, r);
        }
        assert_eq!(m.rate_of(NodeId::new(0), DocId::new(4)), 5.0);
        assert!((m.spontaneous().total() - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rate must be finite")]
    fn negative_rate_rejected() {
        let mut m = DocMix::new(1);
        m.set(NodeId::new(0), DocId::new(0), -1.0);
    }
}
