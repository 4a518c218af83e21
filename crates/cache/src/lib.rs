//! # ww-cache — cache-server substrate for WebWave
//!
//! Every WebWave node is a cache server holding copies of immutable
//! published documents. This crate supplies the node-local machinery the
//! protocol needs:
//!
//! * [`CacheStore`] — document copies with per-copy *serve fractions*
//!   (the paper's "reduce the fraction of requests ... it chooses to
//!   serve"),
//! * [`FlowTable`] / [`RateMeter`] — per-child, per-document forwarded
//!   rate accounting (`A_j` per document; Section 5, footnote 3),
//! * [`plan_push`] / [`plan_shed`] — greedy policies choosing *which*
//!   documents realize a diffusion decision of "shift x req/s".
//!
//! # Example
//!
//! ```
//! use ww_model::{DocId, NodeId};
//! use ww_cache::{CacheStore, FlowTable, plan_push};
//!
//! let mut flows = FlowTable::new(1.0, 1.0);
//! for t in 0..10 {
//!     flows.record(NodeId::new(2), DocId::new(7), t as f64 * 0.1);
//! }
//! flows.roll_to(1.0);
//!
//! // Diffusion decided to delegate 6 req/s to child n2: push d7 partially.
//! let plan = plan_push(&flows.child_doc_rates(NodeId::new(2)), 6.0);
//! assert_eq!(plan[0].doc, DocId::new(7));
//! assert_eq!(plan[0].rate, 6.0);
//!
//! let mut store = CacheStore::new();
//! store.insert(DocId::new(7), None);
//! assert!(store.contains(DocId::new(7)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod meter;
pub mod policy;
pub mod store;

pub use meter::{DenseFlowTable, FlowSnapshot, FlowTable, MeterCell, RateMeter};
pub use policy::{
    plan_push, plan_push_dense, plan_shed, plan_shed_dense, plan_total, DenseRateSlice, RateSlice,
};
pub use store::{CacheStore, CachedCopy, StoreEntry};
