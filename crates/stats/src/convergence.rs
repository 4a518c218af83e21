//! Convergence traces: the per-iteration distance series of Section 5.1.
//!
//! "On every iteration of the diffusion algorithm we compute the Euclidean
//! distance between the current load assignment and the optimal (TLB) one,
//! produced by WebFold." A [`ConvergenceTrace`] is exactly that series,
//! with helpers to summarize it and fit the paper's `a * gamma^t` bound.

use crate::expfit::{fit_exponential, ExponentialFit, FitError};

/// A per-iteration distance-to-optimum series.
///
/// # Example
///
/// ```
/// use ww_stats::ConvergenceTrace;
/// let mut trace = ConvergenceTrace::new();
/// for t in 0..10 {
///     trace.push(16.0 * 0.5f64.powi(t));
/// }
/// assert_eq!(trace.iterations_to(1.0), Some(4));
/// let fit = trace.fit_gamma(0.0).unwrap();
/// assert!((fit.gamma - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergenceTrace {
    distances: Vec<f64>,
}

impl ConvergenceTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        ConvergenceTrace::default()
    }

    /// Creates a trace from an existing distance series.
    pub fn from_distances(distances: Vec<f64>) -> Self {
        ConvergenceTrace { distances }
    }

    /// Appends the distance observed at the next iteration.
    pub fn push(&mut self, distance: f64) {
        self.distances.push(distance);
    }

    /// The recorded distances, index = iteration.
    pub fn distances(&self) -> &[f64] {
        &self.distances
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.distances.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.distances.is_empty()
    }

    /// Distance at iteration 0, if recorded.
    pub fn initial(&self) -> Option<f64> {
        self.distances.first().copied()
    }

    /// Most recent distance, if any.
    pub fn last(&self) -> Option<f64> {
        self.distances.last().copied()
    }

    /// First iteration index at which the distance drops to `threshold` or
    /// below, or `None` if it never does.
    pub fn iterations_to(&self, threshold: f64) -> Option<usize> {
        self.distances.iter().position(|&d| d <= threshold)
    }

    /// Fits the paper's bounding model `a * gamma^t` to the trace.
    ///
    /// `floor` excludes the numerical-noise tail; see
    /// [`fit_exponential`].
    ///
    /// # Errors
    ///
    /// Propagates [`FitError`] from the underlying fit.
    pub fn fit_gamma(&self, floor: f64) -> Result<ExponentialFit, FitError> {
        fit_exponential(&self.distances, floor)
    }

    /// Emits the trace as `iteration,distance` CSV lines (with header).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("iteration,distance\n");
        for (t, d) in self.distances.iter().enumerate() {
            out.push_str(&format!("{t},{d}\n"));
        }
        out
    }
}

impl Extend<f64> for ConvergenceTrace {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.distances.extend(iter);
    }
}

impl FromIterator<f64> for ConvergenceTrace {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        ConvergenceTrace {
            distances: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometric(a: f64, g: f64, n: usize) -> ConvergenceTrace {
        (0..n).map(|t| a * g.powi(t as i32)).collect()
    }

    #[test]
    fn iterations_to_threshold() {
        let t = geometric(16.0, 0.5, 10);
        assert_eq!(t.iterations_to(16.0), Some(0));
        assert_eq!(t.iterations_to(4.0), Some(2));
        assert_eq!(t.iterations_to(0.0), None);
    }

    #[test]
    fn fit_gamma_round_trip() {
        let t = geometric(100.0, 0.83, 30);
        let fit = t.fit_gamma(0.0).unwrap();
        assert!((fit.gamma - 0.83).abs() < 1e-9);
    }

    #[test]
    fn csv_emission() {
        let t = ConvergenceTrace::from_distances(vec![2.0, 1.0]);
        let csv = t.to_csv();
        assert!(csv.starts_with("iteration,distance\n0,2\n1,1\n"));
    }

    #[test]
    fn initial_and_last() {
        let t = geometric(4.0, 0.5, 3);
        assert_eq!(t.initial(), Some(4.0));
        assert_eq!(t.last(), Some(1.0));
        assert!(ConvergenceTrace::new().initial().is_none());
    }

    #[test]
    fn extend_and_collect() {
        let mut t = ConvergenceTrace::new();
        t.extend([3.0, 2.0]);
        assert_eq!(t.len(), 2);
        let u: ConvergenceTrace = [1.0, 0.5].into_iter().collect();
        assert_eq!(u.distances(), &[1.0, 0.5]);
    }
}
