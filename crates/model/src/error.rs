//! Error types for `ww-model`.

use crate::NodeId;
use std::fmt;

/// Errors produced while constructing or validating model objects.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// The tree has no nodes at all.
    EmptyTree,
    /// The tree declares more than one root (node without a parent).
    MultipleRoots {
        /// The first root encountered.
        first: NodeId,
        /// The second, conflicting root.
        second: NodeId,
    },
    /// No node was declared as root.
    NoRoot,
    /// A parent reference points outside the node range.
    ParentOutOfRange {
        /// Node with the bad parent pointer.
        node: NodeId,
        /// The out-of-range parent index.
        parent: usize,
        /// Number of nodes in the tree.
        len: usize,
    },
    /// A node is its own ancestor, so the structure is not a tree.
    CycleDetected {
        /// A node known to participate in the cycle.
        node: NodeId,
    },
    /// The parent pointers describe a forest: some node cannot reach the root.
    Disconnected {
        /// A node that cannot reach the root.
        node: NodeId,
    },
    /// A rate or load vector has the wrong length for the tree it is used with.
    LengthMismatch {
        /// Expected length (number of tree nodes).
        expected: usize,
        /// Actual length supplied.
        actual: usize,
    },
    /// A rate was negative or non-finite.
    InvalidRate {
        /// The node carrying the invalid rate.
        node: NodeId,
        /// The offending value.
        value: f64,
    },
    /// A load assignment serves more than flows through a node.
    OverService {
        /// The violating node.
        node: NodeId,
        /// Rate served at the node.
        served: f64,
        /// Rate flowing through the node (spontaneous + forwarded by children).
        through: f64,
    },
    /// A document id was not found in the catalog.
    UnknownDocument {
        /// The missing document id raw value.
        doc: u64,
    },
    /// A mutation required a leaf but the node has children.
    NotALeaf {
        /// The interior node.
        node: NodeId,
        /// How many children it has.
        children: usize,
    },
    /// The root (home server) cannot be removed from a tree.
    CannotRemoveRoot {
        /// The root node.
        node: NodeId,
    },
    /// A node id lies outside the tree.
    NodeOutOfRange {
        /// The out-of-range id.
        node: NodeId,
        /// Number of nodes in the tree.
        len: usize,
    },
    /// A link operation named the root, which has no parent link.
    NoUplink {
        /// The root node.
        node: NodeId,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyTree => write!(f, "tree has no nodes"),
            ModelError::MultipleRoots { first, second } => {
                write!(f, "tree has multiple roots: {first} and {second}")
            }
            ModelError::NoRoot => write!(f, "tree has no root node"),
            ModelError::ParentOutOfRange { node, parent, len } => write!(
                f,
                "node {node} references parent index {parent} outside 0..{len}"
            ),
            ModelError::CycleDetected { node } => {
                write!(f, "parent pointers contain a cycle through {node}")
            }
            ModelError::Disconnected { node } => {
                write!(f, "node {node} cannot reach the root")
            }
            ModelError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "vector length {actual} does not match tree size {expected}"
                )
            }
            ModelError::InvalidRate { node, value } => {
                write!(f, "rate at {node} is invalid: {value}")
            }
            ModelError::OverService {
                node,
                served,
                through,
            } => write!(
                f,
                "node {node} serves {served} but only {through} flows through it"
            ),
            ModelError::UnknownDocument { doc } => {
                write!(f, "document d{doc} is not in the catalog")
            }
            ModelError::NotALeaf { node, children } => {
                write!(f, "node {node} is not a leaf (it has {children} children)")
            }
            ModelError::CannotRemoveRoot { node } => {
                write!(f, "the root {node} (home server) cannot be removed")
            }
            ModelError::NodeOutOfRange { node, len } => {
                write!(f, "node {node} is outside the {len}-node tree")
            }
            ModelError::NoUplink { node } => write!(f, "the root {node} has no uplink"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_lowercase_human_messages() {
        let e = ModelError::LengthMismatch {
            expected: 3,
            actual: 5,
        };
        assert_eq!(e.to_string(), "vector length 5 does not match tree size 3");
        let e = ModelError::EmptyTree;
        assert!(e.to_string().starts_with("tree"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<T: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ModelError>();
    }

    #[test]
    fn over_service_mentions_both_quantities() {
        let e = ModelError::OverService {
            node: NodeId::new(2),
            served: 10.0,
            through: 4.0,
        };
        let s = e.to_string();
        assert!(s.contains("10"));
        assert!(s.contains('4'));
    }
}
