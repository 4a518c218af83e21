//! Typed identifiers for nodes (cache servers) and published documents.
//!
//! Both are thin newtypes so that a node index can never be confused with
//! a document id (C-NEWTYPE). Nodes are dense indices into the routing
//! [`Tree`](crate::Tree); documents are sparse 64-bit ids chosen by the
//! publisher.

use std::fmt;
use std::num::NonZeroU32;

/// Identifier of a cache server / router node in a routing tree.
///
/// `NodeId` is a dense index: a tree with `n` nodes uses ids `0..n`, and the
/// home server (root) is conventionally — but not necessarily — id `0`.
///
/// It is four bytes, and `Option<NodeId>` is four bytes too: the id
/// stores `index + 1` in a [`NonZeroU32`], so the zero pattern is left
/// for `None`. Indices run up to `u32::MAX - 1`; ordering, equality and
/// the `Debug` / `Display` forms all follow the index.
///
/// # Example
///
/// ```
/// use ww_model::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(format!("{n}"), "n3");
/// assert_eq!(format!("{n:?}"), "NodeId(3)");
/// assert_eq!(std::mem::size_of::<Option<NodeId>>(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(NonZeroU32);

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX - 1` (see [`NodeId::checked`]).
    #[inline]
    pub const fn new(index: usize) -> Self {
        match NodeId::checked(index) {
            Some(id) => id,
            None => panic!("node index does not fit a NodeId"),
        }
    }

    /// The node id of `index`, or `None` when it exceeds `u32::MAX - 1`
    /// — what a decoder of untrusted input calls instead of
    /// [`NodeId::new`].
    #[inline]
    pub const fn checked(index: usize) -> Option<Self> {
        if index >= u32::MAX as usize {
            return None;
        }
        match NonZeroU32::new(index as u32 + 1) {
            Some(v) => Some(NodeId(v)),
            None => None,
        }
    }

    /// Returns the dense index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("NodeId").field(&self.index()).finish()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.index())
    }
}

/// Identifier of an immutable published document.
///
/// Documents are *read-only files* in the paper's terminology: once
/// published by a home server they never change, which is what makes
/// directory-free caching sound.
///
/// # Example
///
/// ```
/// use ww_model::DocId;
/// let d = DocId::new(42);
/// assert_eq!(d.value(), 42);
/// assert_eq!(format!("{d}"), "d42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(u64);

impl DocId {
    /// Creates a document id from a raw 64-bit value.
    pub const fn new(value: u64) -> Self {
        DocId(value)
    }

    /// Returns the raw 64-bit value of this document id.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl From<u64> for DocId {
    fn from(value: u64) -> Self {
        DocId(value)
    }
}

impl From<DocId> for u64 {
    fn from(id: DocId) -> u64 {
        id.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_usize() {
        let id = NodeId::new(17);
        assert_eq!(usize::from(id), 17);
        assert_eq!(NodeId::from(17usize), id);
    }

    #[test]
    fn doc_id_round_trips_through_u64() {
        let id = DocId::new(9_999);
        assert_eq!(u64::from(id), 9_999);
        assert_eq!(DocId::from(9_999u64), id);
    }

    #[test]
    fn display_forms_are_distinct() {
        assert_eq!(NodeId::new(1).to_string(), "n1");
        assert_eq!(DocId::new(1).to_string(), "d1");
    }

    #[test]
    fn ordering_matches_underlying_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(DocId::new(5) > DocId::new(4));
    }

    #[test]
    fn ids_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NodeId>();
        assert_send_sync::<DocId>();
    }
}
