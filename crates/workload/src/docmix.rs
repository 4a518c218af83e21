//! Per-node, per-document demand mixes.
//!
//! WebWave's packet-level protocol must track a separate forwarded rate
//! `A_j` *per document* (paper, Section 5 footnote: "An implementation of
//! WebWave needs to maintain a separate A_j for each document it caches").
//! A [`DocMix`] describes how each node's spontaneous rate splits across
//! the published documents.

use crate::Zipf;
use std::fmt;
use ww_model::{
    reserve_slack, DocId, DocTable, Growth, NodeId, PoolKind, RateVector, Run, RunPool, Tree,
};

/// Demand for documents at every node: `rate_of(node, doc)` in req/s.
///
/// Every node's row of demands, sorted by document, is one run of a
/// single entry buffer, a [`RunPool`], and a [`Run`] per node says
/// where; the mix reads and writes a row through its run alone. A row
/// at the end of the buffer grows in place; any other row that grows
/// moves to the end first, leaving a hole, and a departed node's run
/// becomes a hole. The mix never packs: the pool packs itself after
/// the edit that leaves its holes a fifth of the buffer (and an eighth
/// of an entry per node), so building a mix in node order is pure
/// appends and no order of edits lets the buffer outgrow its rows. A
/// full buffer grows by a sixteenth when its last
/// row grows, but a row that moves asks only for itself and as many
/// entries as the holes ([`Growth::MovesByHoles`]): a publish or a
/// leave adds an entry to one row of hundreds of thousands, and should
/// not request a sixteenth of them all.
///
/// An entry is a [`DocEntry`], 12 bytes: the rate and a 4-byte code
/// for its document. The codes are the indices of the mix's own
/// [`DocTable`] of the documents it has seen ([`DocMix::table`]),
/// issued in first-seen order, so a new document never renumbers an
/// entry — unless [`DocMix::recode`] renumbered them by ascending id,
/// as a world does once when it takes a mix over, or
/// [`DocMix::copy_rows_from`] translated a copy into this mix's
/// numbering. Codes are layout only: every `(doc, rate)` reader, `==`
/// and `Debug` see the same pairs, and two mixes that issued their
/// codes in different orders are equal when their rows are.
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
/// assert_eq!(mix.demands_of(NodeId::new(1)).iter().next(), Some((DocId::new(7), 12.0)));
/// ```
#[derive(Clone)]
pub struct DocMix {
    /// Every node's row, each contiguous and sorted by document.
    entries: RunPool<DocEntry, Rows>,
    /// Per node: where its row sits in `entries`.
    spans: Vec<Run>,
    /// The documents the mix has seen: a code is a document's index.
    table: DocTable,
}

/// One demand entry: a rate and the code of its document in its mix's
/// [`DocTable`]. Packed to 12 bytes, four fewer than `(DocId, f64)`; its
/// fields are only ever read and written by value, so no reference to
/// the unaligned rate is taken.
#[repr(C, packed(4))]
#[derive(Clone, Copy)]
pub struct DocEntry {
    rate: f64,
    code: u32,
}

impl DocEntry {
    /// The demand, in req/s.
    #[inline]
    pub fn rate(self) -> f64 {
        self.rate
    }

    /// The document's index in its mix's [`DocTable`].
    #[inline]
    pub fn code(self) -> u32 {
        self.code
    }
}

/// The entry pool: a node's span is its row's run.
enum Rows {}

impl PoolKind for Rows {
    type Row = Run;
    const GROWTH: Growth = Growth::MovesByHoles;
    fn run(span: &mut Run) -> &mut Run {
        span
    }
}

/// One node's demand row, read through its mix's code table: entry `j`
/// is `(doc, rate)`, in ascending document order.
#[derive(Clone, Copy)]
pub struct DemandRow<'a> {
    cells: &'a [DocEntry],
    docs: &'a [DocId],
}

impl<'a> DemandRow<'a> {
    /// Number of entries.
    pub fn len(self) -> usize {
        self.cells.len()
    }

    /// `true` when the node demands nothing.
    pub fn is_empty(self) -> bool {
        self.cells.is_empty()
    }

    /// Entry `j` as stored: what an arrival reads, and what the
    /// look-ahead prefetches before it.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn cell(self, j: usize) -> &'a DocEntry {
        &self.cells[j]
    }

    /// The entries as `(doc, rate)`, in ascending document order.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = (DocId, f64)> + ExactSizeIterator + 'a {
        self.iter_coded().map(|(doc, _, rate)| (doc, rate))
    }

    /// The entries as `(doc, code, rate)`, in ascending document order.
    pub fn iter_coded(
        self,
    ) -> impl DoubleEndedIterator<Item = (DocId, u32, f64)> + ExactSizeIterator + 'a {
        let docs = self.docs;
        (self.cells.iter()).map(move |&entry| (docs[entry.code as usize], entry.code, entry.rate))
    }
}

/// Two rows are equal when their `(doc, rate)` entries are.
impl PartialEq for DemandRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Prints the `(doc, rate)` entries, as a slice of them prints.
impl fmt::Debug for DemandRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Two mixes are equal when every node's row is: where a row sits in
/// the buffer, the holes and the codes are not part of the mix.
impl PartialEq for DocMix {
    fn eq(&self, other: &Self) -> bool {
        self.rows().eq(other.rows())
    }
}

/// Prints the rows, as the mix's nested per-node lists printed them.
impl fmt::Debug for DocMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DocMix")
            .field("demands", &self.rows().collect::<Vec<_>>())
            .finish()
    }
}

impl DocMix {
    /// Creates an empty mix over `n` nodes.
    pub fn new(n: usize) -> Self {
        DocMix {
            entries: RunPool::new(),
            spans: vec![Run::default(); n],
            table: DocTable::default(),
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the mix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The documents the mix has seen: a code is a document's index.
    /// It may hold documents no row demands any more.
    pub fn table(&self) -> &DocTable {
        &self.table
    }

    /// Every node's row, in node order.
    fn rows(&self) -> impl Iterator<Item = DemandRow<'_>> + '_ {
        (0..self.len()).map(|j| self.demands_of(NodeId::new(j)))
    }

    /// Where `doc` sits in the row `span`, or where it would go, by a
    /// scan from the row's end. An append costs one comparison, and an
    /// insert shifts the entries the scan passed, so the scan adds at
    /// most the insert's own cost; a lookup or an overwrite costs
    /// `O(row)`. The workloads' rows hold 8 to 14 documents, and
    /// `churn_cdn` inserts them in shuffled order: there a binary
    /// search behind the same append test built the mixes about 12 %
    /// slower.
    fn find(&self, span: Run, doc: DocId) -> Result<usize, usize> {
        let (row, docs) = (self.entries.of(span), self.table.docs());
        let doc_at = |i: usize| docs[row[i].code as usize];
        let mut at = row.len();
        while at > 0 && doc_at(at - 1) > doc {
            at -= 1;
        }
        match at.checked_sub(1) {
            Some(i) if doc_at(i) == doc => Ok(i),
            _ => Err(at),
        }
    }

    /// Writes `rate` for `doc` into `node`'s row at `at`, what
    /// [`DocMix::find`] returned for them: an overwrite, or an insert
    /// with the document's code (issued if the mix has not seen it).
    fn put(&mut self, node: NodeId, doc: DocId, at: Result<usize, usize>, rate: f64) {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be finite and >= 0"
        );
        match at {
            Ok(i) => self.entries.cell_mut(self.spans[node.index()], i).rate = rate,
            Err(i) => {
                let code = self.table.insert(doc);
                let entry = DocEntry { rate, code };
                self.entries.insert(&mut self.spans, node.index(), i, entry);
            }
        }
    }

    /// Sets (overwrites) the demand of `node` for `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `rate` is negative/non-finite.
    pub fn set(&mut self, node: NodeId, doc: DocId, rate: f64) {
        let at = self.find(self.spans[node.index()], doc);
        self.put(node, doc, at, rate);
    }

    /// Demand of `node` for `doc` (0 when absent).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn rate_of(&self, node: NodeId, doc: DocId) -> f64 {
        let span = self.spans[node.index()];
        match self.find(span, doc) {
            Ok(i) => self.entries.of(span)[i].rate,
            Err(_) => 0.0,
        }
    }

    /// All `(doc, rate)` demands of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn demands_of(&self, node: NodeId) -> DemandRow<'_> {
        DemandRow {
            cells: self.entries.of(self.spans[node.index()]),
            docs: self.table.docs(),
        }
    }

    /// Total demand generated at `node` across all documents, summed in
    /// document order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_total(&self, node: NodeId) -> f64 {
        let span = self.spans[node.index()];
        self.entries.of(span).iter().map(|entry| entry.rate).sum()
    }

    /// Aggregates the mix into the spontaneous rate vector `E`.
    pub fn spontaneous(&self) -> RateVector {
        (0..self.len())
            .map(|i| self.node_total(NodeId::new(i)))
            .collect()
    }

    /// The set of distinct documents appearing anywhere in the mix, sorted.
    ///
    /// One pass over the entries marks their codes, and the table's
    /// sorted side lists the marked ones: linear in the mix. A document
    /// the table still holds but no row demands (its rows departed) is
    /// not listed.
    pub fn documents(&self) -> Vec<DocId> {
        let demanded = self.demanded(self.table.len());
        (self.table.by_id().iter())
            .filter(|&&(_, code)| demanded[code as usize])
            .map(|&(doc, _)| doc)
            .collect()
    }

    /// Per code below `codes`: whether a row's entry carries it.
    fn demanded(&self, codes: usize) -> Vec<bool> {
        let mut demanded = vec![false; codes];
        for &span in &self.spans {
            for entry in self.entries.of(span) {
                demanded[entry.code as usize] = true;
            }
        }
        demanded
    }

    /// Renumbers the mix by ascending id over the documents its rows
    /// demand — the numbering `DocTable::from_ids(self.documents())`
    /// gives — and forgets the documents no row demands. Rows, `==`,
    /// `Debug` and [`DocMix::documents`] are unchanged. A world does
    /// this once to the mix it takes over, so an entry's code is its
    /// document's column.
    pub fn recode(&mut self) {
        let from = std::mem::take(&mut self.table);
        self.translate(&from);
    }

    /// Overwrites every row with `source`'s, reusing this mix's buffers
    /// (a workload shift replaces a live mix of the same shape, and
    /// should not pay an allocation for it), but keeping its numbering:
    /// the documents `source` demands that this mix has not seen take
    /// the next codes, in ascending id order, and each copied entry's
    /// code is translated. The result is `==` to `source`.
    pub fn copy_rows_from(&mut self, source: &DocMix) {
        self.entries.clone_from(&source.entries);
        self.spans.clone_from(&source.spans);
        self.translate(&source.table);
    }

    /// Re-codes every live entry, whose code is an index into `from`,
    /// to its document's index in this mix's table, inserting the
    /// documents the rows demand in ascending id order.
    fn translate(&mut self, from: &DocTable) {
        let demanded = self.demanded(from.len());
        let mut codes = vec![0; from.len()];
        for &(doc, code) in from.by_id() {
            if demanded[code as usize] {
                codes[code as usize] = self.table.insert(doc);
            }
        }
        for &span in &self.spans {
            for entry in self.entries.of_mut(span) {
                entry.code = codes[entry.code as usize];
            }
        }
    }

    /// Adds `delta` req/s to the demand of `node` for `doc` (a publish,
    /// or demand re-homing from a departed child).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the resulting rate would be
    /// negative/non-finite.
    pub fn add_rate(&mut self, node: NodeId, doc: DocId, delta: f64) {
        let span = self.spans[node.index()];
        let at = self.find(span, doc);
        let rate = at.map_or(0.0, |i| self.entries.of(span)[i].rate);
        self.put(node, doc, at, rate + delta);
    }

    /// Grows the mix by one node with no demand (a cache server joining
    /// the tree), returning its id — the next index, exactly as
    /// [`ww_model::Tree::add_leaf`] numbers a newcomer. Its row starts
    /// at the end of the buffer, so its first demands append.
    pub fn add_node(&mut self) -> NodeId {
        reserve_slack(&mut self.spans, 1);
        self.spans.push(self.entries.push_run(&[]));
        NodeId::new(self.spans.len() - 1)
    }

    /// Removes `node`'s demand row by swap-remove — the highest-numbered
    /// node's row moves into the vacated slot, mirroring the id
    /// compaction of [`ww_model::Tree::remove_leaf`] — and returns the
    /// departed row so the caller can re-home it. Its run in the buffer
    /// becomes a hole; its documents keep their codes.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn swap_remove_node(&mut self, node: NodeId) -> Vec<(DocId, f64)> {
        let departed = self.demands_of(node).iter().collect();
        let span = self.spans.swap_remove(node.index());
        self.entries.vacate(&mut self.spans, [span]);
        departed
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
mod props;

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
            .map(|(d, _)| d.value())
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
