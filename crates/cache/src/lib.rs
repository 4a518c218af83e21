//! # ww-cache — cache-server substrate for WebWave
//!
//! Every WebWave node is a cache server holding copies of immutable
//! published documents. This crate supplies the node-local machinery the
//! protocol needs:
//!
//! * [`DenseFlowTable`] / [`MeterCell`] — per-child, per-document
//!   forwarded-rate accounting (`A_j` per document; Section 5, footnote
//!   3): one three-word windowed EWMA cell per `(row, document index)`,
//! * [`plan_push`] / [`plan_shed`] and their allocation-free dense forms
//!   — greedy policies choosing *which* documents realize a diffusion
//!   decision of "shift x req/s".
//!
//! Which documents a node holds, intercepts and serves lives in the
//! packet engines' node slab (`ww_core::packet::NodeSlab`), not here.
//!
//! # Example
//!
//! ```
//! use ww_cache::{plan_push_dense, DenseFlowTable};
//!
//! // Child row 0 forwards 10 req/s of document index 2 and 4 of index 0.
//! let mut flows = DenseFlowTable::new(1.0, 1.0, 1, 4);
//! for t in 0..10 {
//!     flows.record(0, 2, t as f64 * 0.1);
//! }
//! for t in 0..4 {
//!     flows.record(0, 0, t as f64 * 0.25);
//! }
//! flows.roll_to(1.0);
//!
//! // Diffusion decided to delegate 12 req/s to that child: push index 2
//! // whole and index 0 in part.
//! let (mut rates, mut scratch, mut plan) = (Vec::new(), Vec::new(), Vec::new());
//! flows.row_doc_rates(0, &mut rates);
//! plan_push_dense(&rates, 12.0, &mut scratch, &mut plan);
//! assert_eq!((plan[0].index, plan[0].full), (2, true));
//! assert_eq!(plan[1].index, 0);
//! assert!((plan[1].rate - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod meter;
pub mod policy;

pub use meter::{sort_hottest_first, DenseFlowTable, MeterCell};
pub use policy::{
    plan_push, plan_push_dense, plan_shed, plan_shed_dense, plan_total, DenseRateSlice, RateSlice,
};
