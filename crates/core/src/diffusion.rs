//! The load-diffusion substrate of WebWave.
//!
//! Section 2 of the paper grounds WebWave in the diffusion method of
//! Cybenko and Bertsekas & Tsitsiklis: each server periodically gossips its
//! load and relegates a fraction `alpha` of any surplus to less loaded
//! neighbors, converging to Global Load Equality (GLE) exponentially fast
//! on connected networks. This module implements its synchronous form:
//!
//! * [`DiffusionMatrix`] — `D = I - alpha L`, with Cybenko's feasibility
//!   conditions enforced and a power-iteration [`DiffusionMatrix::contraction_factor`],
//! * [`SyncDiffusion`] — the synchronous runner (`x(t) = D x(t-1)`),
//! * [`hypercube_alpha`] / [`k_ary_n_cube_alpha`] / [`ring_alpha`] — the
//!   optimal parameters of Xu & Lau, verified against the measured spectra.
//!
//! The bounded-delay asynchronous variant of Bertsekas & Tsitsiklis is
//! background in the paper and is not modelled here.
//!
//! WebWave itself ([`crate::wave`]) specializes this machinery to routing
//! trees under the no-sibling-sharing constraint.
//!
//! # Example
//!
//! ```
//! use ww_model::RateVector;
//! use ww_topology::hypercube;
//! use ww_core::diffusion::{DiffusionMatrix, SyncDiffusion, hypercube_alpha};
//!
//! let g = hypercube(3);
//! let opt = hypercube_alpha(3);
//! let d = DiffusionMatrix::uniform_alpha(&g, opt.alpha).unwrap();
//! let mut run = SyncDiffusion::new(d, RateVector::from(vec![8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]));
//! run.run(64);
//! assert!(run.load().distance_to_uniform() < 1e-9);
//! ```

pub mod alpha;
pub mod matrix;
pub mod sync;

pub use alpha::{
    from_spectrum_extremes, hypercube_alpha, k_ary_n_cube_alpha, ring_alpha, safe_alpha,
    OptimalAlpha,
};
pub use matrix::DiffusionMatrix;
pub use sync::SyncDiffusion;
