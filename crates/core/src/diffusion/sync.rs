//! Synchronous diffusion runner (Cybenko's setting).
//!
//! All nodes exchange load simultaneously with perfect information:
//! `x(t) = D x(t-1)`. Converges to the uniform distribution exponentially
//! fast on connected graphs; the per-iteration Euclidean distance to
//! uniform is recorded so the decay can be fitted with [`crate::stats`].

use crate::diffusion::DiffusionMatrix;
use ww_model::RateVector;

/// A synchronous diffusion run in progress.
///
/// # Example
///
/// ```
/// use ww_model::RateVector;
/// use ww_topology::ring;
/// use ww_core::diffusion::{DiffusionMatrix, SyncDiffusion};
///
/// let g = ring(5);
/// let d = DiffusionMatrix::default_alpha(&g).unwrap();
/// let mut run = SyncDiffusion::new(d, RateVector::from(vec![5.0, 0.0, 0.0, 0.0, 0.0]));
/// let trace = run.run(200);
/// assert!(trace.last().unwrap() < &1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct SyncDiffusion {
    matrix: DiffusionMatrix,
    load: RateVector,
    distances: Vec<f64>,
}

impl SyncDiffusion {
    /// Starts a run from the initial load vector.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not match the matrix size.
    pub fn new(matrix: DiffusionMatrix, initial: RateVector) -> Self {
        assert_eq!(initial.len(), matrix.len(), "initial load length mismatch");
        let d0 = initial.distance_to_uniform();
        SyncDiffusion {
            matrix,
            load: initial,
            distances: vec![d0],
        }
    }

    /// Performs one synchronous step and records the distance to uniform.
    pub fn step(&mut self) {
        self.load = self.matrix.step(&self.load);
        self.distances.push(self.load.distance_to_uniform());
    }

    /// Runs `iterations` steps and returns the full distance trace
    /// (`iterations + 1` entries including the initial distance).
    pub fn run(&mut self, iterations: usize) -> &[f64] {
        for _ in 0..iterations {
            self.step();
        }
        &self.distances
    }

    /// Runs until the distance to uniform drops to `threshold` or the
    /// iteration cap is hit; returns the number of steps taken.
    pub fn run_until(&mut self, threshold: f64, max_iterations: usize) -> usize {
        let mut taken = 0;
        while self.load.distance_to_uniform() > threshold && taken < max_iterations {
            self.step();
            taken += 1;
        }
        taken
    }

    /// The current load vector.
    pub fn load(&self) -> &RateVector {
        &self.load
    }

    /// The distance-to-uniform series recorded so far (index = iteration).
    pub fn distances(&self) -> &[f64] {
        &self.distances
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_model::NodeId;
    use ww_topology::{hypercube, ring, Graph};

    fn point_mass(n: usize) -> RateVector {
        let mut x = RateVector::zeros(n);
        x[NodeId::new(0)] = n as f64;
        x
    }

    #[test]
    fn distance_is_monotone_nonincreasing() {
        let g = ring(7);
        let d = DiffusionMatrix::default_alpha(&g).unwrap();
        let mut run = SyncDiffusion::new(d, point_mass(7));
        let trace = run.run(100).to_vec();
        for w in trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "distance increased: {w:?}");
        }
    }

    #[test]
    fn run_until_reaches_threshold() {
        let g = hypercube(3);
        let d = DiffusionMatrix::default_alpha(&g).unwrap();
        let mut run = SyncDiffusion::new(d, point_mass(8));
        let steps = run.run_until(1e-9, 10_000);
        assert!(steps < 10_000);
        assert!(run.load().distance_to_uniform() <= 1e-9);
    }

    #[test]
    fn mass_conserved_throughout() {
        let g = ring(9);
        let d = DiffusionMatrix::default_alpha(&g).unwrap();
        let mut run = SyncDiffusion::new(d, point_mass(9));
        for _ in 0..50 {
            run.step();
            assert!((run.load().total() - 9.0).abs() < 1e-9);
        }
    }

    #[test]
    fn decay_is_geometric_with_matrix_gamma() {
        let g = hypercube(3);
        let d = DiffusionMatrix::uniform_alpha(&g, 0.25).unwrap();
        let gamma = d.contraction_factor(300);
        let mut run = SyncDiffusion::new(d, point_mass(8));
        let trace = run.run(30).to_vec();
        // After transients, successive ratios approach gamma.
        let ratio = trace[25] / trace[24];
        assert!(
            (ratio - gamma).abs() < 0.05,
            "ratio {ratio} vs gamma {gamma}"
        );
    }

    #[test]
    fn disconnected_graph_stalls_away_from_uniform() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let d = DiffusionMatrix::default_alpha(&g).unwrap();
        let mut run = SyncDiffusion::new(d, point_mass(4));
        run.run(2000);
        // Components balance internally (2 each in one, 0 in the other)
        // but the global distance to uniform (mean 1) stays at 2.
        assert!(run.load().distance_to_uniform() > 1.9);
    }
}
