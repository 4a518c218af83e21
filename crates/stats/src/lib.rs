//! # ww-stats — statistics substrate for the WebWave reproduction
//!
//! The paper's quantitative claims are statistical: WebWave's distance to
//! the TLB optimum shrinks like `a * gamma^t`, and the rate `gamma` is
//! estimated by nonlinear regression (S-PLUS `nls`, Section 5.1). This
//! crate supplies those tools natively:
//!
//! * [`fit_exponential`] — Gauss-Newton least squares for `a * gamma^t`
//!   with parameter standard errors (the paper's `gamma = 0.830734,
//!   se = 0.005786` numbers),
//! * [`ConvergenceTrace`] — the per-iteration Euclidean-distance series
//!   and its summaries,
//! * [`linear_fit`] — ordinary least squares (also the log-linear seed),
//! * [`ExactSum`] — an order- and grouping-independent float sum, so the
//!   sharded packet engines fold a trace sample in their workers and
//!   still replay the sequential driver's sample bit for bit.
//!
//! # Example
//!
//! ```
//! use ww_stats::{ConvergenceTrace, ExactSum};
//!
//! let trace: ConvergenceTrace = (0..25).map(|t| 42.0 * 0.83f64.powi(t)).collect();
//! let fit = trace.fit_gamma(0.0).unwrap();
//! assert!((fit.gamma - 0.83).abs() < 1e-6);
//!
//! // An exact sum reads the same bits in any order.
//! let (mut forward, mut backward) = (ExactSum::new(), ExactSum::new());
//! trace.distances().iter().for_each(|&d| forward.add(d));
//! trace.distances().iter().rev().for_each(|&d| backward.add(d));
//! assert_eq!(forward.value().to_bits(), backward.value().to_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod exact;
pub mod expfit;
pub mod linreg;

pub use convergence::ConvergenceTrace;
pub use exact::ExactSum;
pub use expfit::{fit_exponential, ExponentialFit, FitError};
pub use linreg::{linear_fit, LinearFit};
