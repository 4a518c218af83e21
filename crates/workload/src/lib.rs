//! # ww-workload — synthetic workloads for the WebWave reproduction
//!
//! The paper's simulations use constant synthetic spontaneous rates
//! (Section 5.1). This crate supplies those plus the richer regimes its
//! future-work section calls for:
//!
//! * [`Zipf`] — skewed document popularity (hot published documents),
//! * rate assignment over trees ([`leaf_only`], [`uniform`],
//!   [`random_uniform`], [`zipf_nodes`]) and time-varying processes
//!   ([`ConstantRates`], [`DiurnalDrift`], [`StepChange`],
//!   [`RandomWalkRates`]) for the "erratic request rates" study,
//! * [`DocMix`] — per-node, per-document demand, the input of the
//!   packet-level WebWave protocol ([`shared_zipf_mix`]).
//!
//! The packet engines turn each `(node, document)` rate of a mix into a
//! Poisson request stream themselves, drawing the gaps with
//! `ww_sim::exp_delay` from the stream's own random number generator.
//!
//! # Example
//!
//! ```
//! use ww_topology::k_ary;
//! use ww_workload::{leaf_only, shared_zipf_mix};
//!
//! let tree = k_ary(2, 3);
//! let rates = leaf_only(&tree, 25.0);
//! let mix = shared_zipf_mix(&tree, &rates, 32, 1.0);
//! assert!((mix.spontaneous().total() - rates.total()).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod docmix;
pub mod rates;
pub mod zipf;

pub use docmix::{shared_zipf_mix, DemandRow, DocEntry, DocMix};
pub use rates::{
    leaf_only, random_uniform, uniform, zipf_nodes, ConstantRates, DiurnalDrift, RandomWalkRates,
    RateProcess, StepChange,
};
pub use zipf::Zipf;
