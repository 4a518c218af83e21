//! Dense document indexing: [`DocTable`] and [`DocSet`].
//!
//! The simulation engines operate over a *small, growing universe* of
//! published documents. Routing per-document state through
//! `HashMap<DocId, f64>` / `HashSet<DocId>` puts a hash + probe on every
//! hot-path access and scatters the working set across the heap. A
//! [`DocTable`] instead maps the universe to contiguous `u32` *dense
//! indices*, so engines can keep per-document state in flat `Vec<f64>`
//! slabs (`node * doc_count + doc_index`) and per-node membership in
//! [`DocSet`] bitsets — cache-line friendly, allocation-free accesses.
//!
//! # Invariants
//!
//! * A document's index is its **birth order**: [`DocTable::from_ids`]
//!   numbers its initial set in ascending [`DocId`] order, and every
//!   later [`DocTable::insert`] of an id not seen before takes the next
//!   index, `len`. A table only grows and an index never moves, so a
//!   growing universe (a publish) only appends columns: dense state
//!   widens in place ([`DocSet::grow`],
//!   [`DocGrid::grow_docs`](crate::DocGrid::grow_docs)).
//! * Iterating `0..len` visits documents in birth order — a fixed,
//!   reproducible float accumulation order, and ascending id order for
//!   a table whose later ids all sorted above the ones before them.
//! * `index_of` and `doc` are exact inverses over the table's universe:
//!   `table.doc(table.index_of(d).unwrap()) == d` and
//!   `table.index_of(table.doc(i)) == Some(i)`.
//! * A [`DocSet`] is bound to a universe *size* (not a specific table);
//!   all set operations are over dense indices `0..universe`.

use crate::{reserve_slack, DocId};

/// A bijection between a growing document universe and the dense
/// indices `0..len`, issued in birth order.
///
/// # Example
///
/// ```
/// use ww_model::{DocId, DocTable};
///
/// let mut table = DocTable::from_ids([DocId::new(7), DocId::new(2), DocId::new(7)]);
/// assert_eq!(table.len(), 2); // duplicates collapse
/// assert_eq!(table.index_of(DocId::new(2)), Some(0)); // ascending id order
/// assert_eq!(table.index_of(DocId::new(7)), Some(1));
/// assert_eq!(table.doc(1), DocId::new(7));
/// assert_eq!(table.index_of(DocId::new(1)), None);
/// assert_eq!(table.insert(DocId::new(1)), 2); // a later id is born last
/// assert_eq!(table.insert(DocId::new(2)), 0); // a known id keeps its index
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocTable {
    /// Document ids; position = dense index.
    ids: Vec<DocId>,
    /// `(id, dense index)` for every entry of `ids`, sorted by id.
    by_id: Vec<(DocId, u32)>,
}

impl DocTable {
    /// Builds a table from any collection of ids; duplicates collapse and
    /// indices follow ascending [`DocId`] order.
    pub fn from_ids(ids: impl IntoIterator<Item = DocId>) -> Self {
        let mut ids: Vec<DocId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let by_id = (0..).zip(&ids).map(|(i, &d)| (d, i)).collect();
        DocTable { ids, by_id }
    }

    /// Number of documents in the universe.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The dense index of `doc`, or `None` when it is outside the universe.
    #[inline]
    pub fn index_of(&self, doc: DocId) -> Option<u32> {
        let at = self.by_id.binary_search_by_key(&doc, |&(d, _)| d).ok()?;
        Some(self.by_id[at].1)
    }

    /// The dense index of `doc`, issued as the next one (`len`) when the
    /// table has not seen it. Both tables grow by sixteenths: a publish
    /// into a wide universe adds one document, and should not double
    /// the tables for it.
    pub fn insert(&mut self, doc: DocId) -> u32 {
        match self.by_id.binary_search_by_key(&doc, |&(d, _)| d) {
            Ok(at) => self.by_id[at].1,
            Err(at) => {
                let index = u32::try_from(self.ids.len()).expect("a table indexes 2^32 documents");
                reserve_slack(&mut self.ids, 1);
                reserve_slack(&mut self.by_id, 1);
                self.ids.push(doc);
                self.by_id.insert(at, (doc, index));
                index
            }
        }
    }

    /// The document at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn doc(&self, idx: u32) -> DocId {
        self.ids[idx as usize]
    }

    /// The universe in dense-index (= birth) order.
    pub fn docs(&self) -> &[DocId] {
        &self.ids
    }

    /// `(id, dense index)` for every document, in ascending id order.
    pub fn by_id(&self) -> &[(DocId, u32)] {
        &self.by_id
    }

    /// An empty, all-zeros membership set sized for this universe.
    pub fn empty_set(&self) -> DocSet {
        DocSet::new(self.len())
    }

    /// A membership set containing the whole universe.
    pub fn full_set(&self) -> DocSet {
        let mut s = DocSet::new(self.len());
        for i in 0..self.len() as u32 {
            s.insert(i);
        }
        s
    }
}

/// A bitset over the dense document indices of one universe (which only
/// ever grows, by [`DocSet::grow`]).
///
/// Replaces `HashSet<DocId>` on simulation hot paths: membership is one
/// shift + mask, iteration walks set bits in ascending index order (which
/// is birth order under the owning [`DocTable`]).
///
/// # Example
///
/// ```
/// use ww_model::DocSet;
///
/// let mut s = DocSet::new(70);
/// assert!(s.insert(3));
/// assert!(!s.insert(3)); // already present
/// assert!(s.insert(65));
/// assert!(s.contains(3) && s.contains(65) && !s.contains(64));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 65]);
/// assert!(s.remove(3));
/// assert_eq!(s.count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocSet {
    words: Vec<u64>,
    universe: usize,
}

impl DocSet {
    /// Creates an empty set over a universe of `universe` dense indices.
    pub fn new(universe: usize) -> Self {
        DocSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// The universe size this set was created for.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Grows the universe to `universe` indices in place; members keep
    /// their indices and the new indices start absent.
    ///
    /// # Panics
    ///
    /// Panics if `universe` is smaller than the current universe.
    pub fn grow(&mut self, universe: usize) {
        assert!(universe >= self.universe, "a universe never shrinks");
        self.words.resize(universe.div_ceil(64), 0);
        self.universe = universe;
    }

    /// `true` when `idx` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the universe.
    #[inline]
    pub fn contains(&self, idx: u32) -> bool {
        assert!((idx as usize) < self.universe, "doc index out of universe");
        self.words[(idx / 64) as usize] & (1u64 << (idx % 64)) != 0
    }

    /// Inserts `idx`; returns `true` when it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the universe.
    #[inline]
    pub fn insert(&mut self, idx: u32) -> bool {
        assert!((idx as usize) < self.universe, "doc index out of universe");
        let (w, b) = ((idx / 64) as usize, 1u64 << (idx % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Removes `idx`; returns `true` when it was present.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the universe.
    #[inline]
    pub fn remove(&mut self, idx: u32) -> bool {
        assert!((idx as usize) < self.universe, "doc index out of universe");
        let (w, b) = ((idx / 64) as usize, 1u64 << (idx % 64));
        let present = self.words[w] & b != 0;
        self.words[w] &= !b;
        present
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no members are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates members in ascending dense-index order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(wi as u32 * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_sorts_and_dedups() {
        let t = DocTable::from_ids([DocId::new(9), DocId::new(1), DocId::new(9), DocId::new(4)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.docs(), &[DocId::new(1), DocId::new(4), DocId::new(9)]);
    }

    #[test]
    fn table_round_trips_every_id() {
        let ids: Vec<DocId> = (0..257).map(|i| DocId::new(i * 3 + 1)).collect();
        let t = DocTable::from_ids(ids.iter().copied());
        for &d in &ids {
            let idx = t.index_of(d).expect("member");
            assert_eq!(t.doc(idx), d);
        }
        for i in 0..t.len() as u32 {
            assert_eq!(t.index_of(t.doc(i)), Some(i));
        }
    }

    #[test]
    fn missing_ids_have_no_index() {
        let t = DocTable::from_ids([DocId::new(2), DocId::new(4)]);
        assert_eq!(t.index_of(DocId::new(3)), None);
        assert_eq!(t.index_of(DocId::new(0)), None);
        assert_eq!(t.index_of(DocId::new(5)), None);
    }

    #[test]
    fn empty_table() {
        let t = DocTable::from_ids([]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.empty_set().is_empty());
        assert!(t.full_set().is_empty());
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = DocSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.count(), 4);
        assert!(s.contains(129));
        assert!(!s.contains(128));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn full_set_covers_universe() {
        let t = DocTable::from_ids((0..70).map(DocId::new));
        let full = t.full_set();
        assert_eq!(full.count(), 70);
        assert_eq!(full.universe(), 70);
        for i in 0..70 {
            assert!(full.contains(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_access_panics() {
        let s = DocSet::new(10);
        let _ = s.contains(10);
    }
}
