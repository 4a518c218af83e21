//! # ww-model — domain model for the WebWave caching system
//!
//! This crate defines the vocabulary shared by every other crate in the
//! WebWave reproduction (Heddaya & Mirdad, ICDCS '97):
//!
//! * [`NodeId`] / [`DocId`] — typed identifiers for cache servers and
//!   published documents,
//! * [`Tree`] — the routing tree `T` rooted at a document's *home server*
//!   (paper, Section 3), along which all requests flow upward,
//! * [`RateVector`] — per-node request rates (spontaneous rates `E_i` or
//!   served rates `L_i`),
//! * [`LoadAssignment`] — a served-rate vector together with the forwarded
//!   rates `A_i` it induces, plus checkers for the paper's Constraints 1
//!   (root forwards nothing) and 2 (*no sibling sharing*, `A_i >= 0`),
//! * [`DocTable`] / [`DocSet`] — the dense document-index layer: an
//!   immutable bijection from the fixed document universe to contiguous
//!   `u32` indices, plus fixed-universe bitsets, which the simulation
//!   engines use to keep per-document state in flat slabs instead of hash
//!   maps (see [`doctable`] for the invariants).
//!
//! # Example
//!
//! ```
//! use ww_model::{Tree, RateVector, LoadAssignment};
//!
//! // A three-node chain: 0 <- 1 <- 2 (0 is the home server).
//! let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
//! let spontaneous = RateVector::from(vec![0.0, 0.0, 30.0]);
//! // Every node serves 10 req/s: legal because node 2's subtree generates
//! // all 30 req/s and the load only moves *up* the tree.
//! let assignment = LoadAssignment::new(&tree, &spontaneous,
//!                                      RateVector::from(vec![10.0, 10.0, 10.0])).unwrap();
//! assert!(assignment.satisfies_nss(1e-9));
//! assert!(assignment.satisfies_root_constraint(1e-9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod docgrid;
pub mod doctable;
pub mod error;
pub mod ids;
pub mod load;
pub mod runpool;
pub mod tree;

pub use assignment::LoadAssignment;
pub use docgrid::{reserve_slack, DocGrid};
pub use doctable::{DocSet, DocTable};
pub use error::ModelError;
pub use ids::{DocId, NodeId};
pub use load::RateVector;
pub use runpool::{Growth, PoolKind, Run, RunPool};
pub use tree::{LeafRemoval, Tree};

/// Result alias used across `ww-model`.
pub type Result<T> = std::result::Result<T, ModelError>;
