//! The diffusion matrix `D` of Section 2.
//!
//! One synchronous diffusion step is `x(t) = D x(t-1)` where
//! `D = I - alpha L` for uniform diffusion parameter `alpha` and graph
//! Laplacian `L`. Cybenko's sufficient conditions for convergence to the
//! uniform distribution are (1) `1 - sum_j alpha_ij > 0` at every node and
//! (2) a connected network; both are checkable here.

use ww_model::{NodeId, RateVector};
use ww_topology::Graph;

/// A symmetric, doubly stochastic diffusion operator over a graph.
///
/// # Example
///
/// ```
/// use ww_model::RateVector;
/// use ww_topology::ring;
/// use ww_core::diffusion::DiffusionMatrix;
///
/// let g = ring(4);
/// let d = DiffusionMatrix::uniform_alpha(&g, 0.25).unwrap();
/// let x = RateVector::from(vec![4.0, 0.0, 0.0, 0.0]);
/// let y = d.step(&x);
/// assert!((y.total() - 4.0).abs() < 1e-12); // mass conserved
/// assert!(y.max() < x.max());               // contraction toward uniform
/// ```
#[derive(Debug, Clone)]
pub struct DiffusionMatrix {
    /// Adjacency with weights: for each node, (neighbor, alpha_ij).
    weighted: Vec<Vec<(NodeId, f64)>>,
    /// Self weight 1 - sum_j alpha_ij per node.
    self_weight: Vec<f64>,
    alpha_max: f64,
}

impl DiffusionMatrix {
    /// Builds `D = I - alpha L` with one `alpha` for every edge.
    ///
    /// Returns `None` when `alpha` is not in `(0, 1)` or some node would
    /// get a *negative* self weight (the matrix would no longer be
    /// stochastic). A zero self weight is allowed — the Xu-Lau minimax
    /// optimum reaches it on some tori; use
    /// [`DiffusionMatrix::satisfies_cybenko`] to test the strict
    /// sufficient condition `1 - sum_j alpha_ij > 0`.
    pub fn uniform_alpha(graph: &Graph, alpha: f64) -> Option<Self> {
        if !alpha.is_finite() || alpha <= 0.0 || alpha >= 1.0 {
            return None;
        }
        let mut weighted = Vec::with_capacity(graph.len());
        let mut self_weight = Vec::with_capacity(graph.len());
        for u in graph.nodes() {
            let nbrs: Vec<(NodeId, f64)> = graph.neighbors(u).iter().map(|&v| (v, alpha)).collect();
            let sw = 1.0 - alpha * nbrs.len() as f64;
            if sw < -1e-12 {
                return None;
            }
            weighted.push(nbrs);
            self_weight.push(sw.max(0.0));
        }
        Some(DiffusionMatrix {
            weighted,
            self_weight,
            alpha_max: alpha,
        })
    }

    /// `true` when every node keeps a strictly positive self weight —
    /// Cybenko's sufficient condition (1) for convergence on any connected
    /// graph.
    pub fn satisfies_cybenko(&self) -> bool {
        self.self_weight.iter().all(|&w| w > 0.0)
    }

    /// Builds the "safe" default `alpha = 1 / (max_degree + 1)`, which
    /// always satisfies Cybenko's condition on any graph.
    ///
    /// Returns `None` only for the edgeless graph (nothing to diffuse
    /// over).
    pub fn default_alpha(graph: &Graph) -> Option<Self> {
        let d = graph.max_degree();
        if d == 0 {
            return None;
        }
        Self::uniform_alpha(graph, 1.0 / (d as f64 + 1.0))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.weighted.len()
    }

    /// `true` when the matrix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.weighted.is_empty()
    }

    /// The largest edge weight (the uniform `alpha` for uniform
    /// construction).
    pub fn alpha(&self) -> f64 {
        self.alpha_max
    }

    /// Self weight `1 - sum_j alpha_ij` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn self_weight(&self, node: NodeId) -> f64 {
        self.self_weight[node.index()]
    }

    /// Applies one synchronous diffusion step: `y = D x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    pub fn step(&self, x: &RateVector) -> RateVector {
        assert_eq!(x.len(), self.len(), "load vector length mismatch");
        let xs = x.as_slice();
        (0..self.len())
            .map(|i| {
                let mut y = self.self_weight[i] * xs[i];
                for &(j, a) in &self.weighted[i] {
                    y += a * xs[j.index()];
                }
                y
            })
            .collect()
    }

    /// Applies `n` synchronous steps.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    pub fn steps(&self, x: &RateVector, n: usize) -> RateVector {
        let mut cur = x.clone();
        for _ in 0..n {
            cur = self.step(&cur);
        }
        cur
    }

    /// Estimates the contraction factor `gamma` (the second-largest
    /// eigenvalue modulus of `D`) by power iteration on the component
    /// orthogonal to the uniform vector.
    ///
    /// This is the spectral radius the paper's footnote 2 refers to:
    /// "gamma is the spectral radius of the diffusion matrix" (restricted
    /// to the non-uniform subspace).
    pub fn contraction_factor(&self, iterations: usize) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        // Deterministic non-uniform start vector, orthogonalized against 1.
        let mut v: Vec<f64> = (0..n).map(|i| ((i * 2654435761) % 1000) as f64).collect();
        let mut gamma = 0.0;
        for _ in 0..iterations {
            // Remove the uniform component.
            let mean = v.iter().sum::<f64>() / n as f64;
            for x in &mut v {
                *x -= mean;
            }
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-300 {
                return 0.0;
            }
            for x in &mut v {
                *x /= norm;
            }
            let next = self.step(&RateVector::from(
                v.iter().map(|&x| x + 1.0).collect::<Vec<_>>(),
            ));
            // Subtract the shifted uniform part again: D(v + 1) = Dv + 1.
            let next: Vec<f64> = next.as_slice().iter().map(|&x| x - 1.0).collect();
            gamma = next.iter().map(|x| x * x).sum::<f64>().sqrt();
            v = next;
        }
        gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_topology::{complete, hypercube, path, ring, Graph};

    #[test]
    fn uniform_alpha_conserves_mass() {
        let g = ring(6);
        let d = DiffusionMatrix::uniform_alpha(&g, 0.3).unwrap();
        let x = RateVector::from(vec![6.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let y = d.steps(&x, 10);
        assert!((y.total() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_alpha_rejected() {
        let g = ring(4);
        assert!(DiffusionMatrix::uniform_alpha(&g, 0.0).is_none());
        assert!(DiffusionMatrix::uniform_alpha(&g, 1.0).is_none());
        // alpha * degree > 1 makes the matrix non-stochastic.
        assert!(DiffusionMatrix::uniform_alpha(&g, 0.51).is_none());
        // Exactly 1 is allowed but fails the strict Cybenko condition.
        let boundary = DiffusionMatrix::uniform_alpha(&g, 0.5).unwrap();
        assert!(!boundary.satisfies_cybenko());
        assert!(DiffusionMatrix::uniform_alpha(&g, 0.49)
            .unwrap()
            .satisfies_cybenko());
    }

    #[test]
    fn default_alpha_satisfies_cybenko() {
        let g = hypercube(4);
        let d = DiffusionMatrix::default_alpha(&g).unwrap();
        assert!((d.alpha() - 0.2).abs() < 1e-12); // 1 / (4 + 1)
        for u in g.nodes() {
            assert!(d.self_weight(u) > 0.0);
        }
    }

    #[test]
    fn edgeless_graph_has_no_default() {
        let g = Graph::new(3);
        assert!(DiffusionMatrix::default_alpha(&g).is_none());
    }

    #[test]
    fn converges_to_uniform_on_connected_graphs() {
        let tree_graph = Graph::from(&ww_topology::k_ary(2, 3));
        for g in [ring(8), hypercube(3), complete(5), tree_graph] {
            let d = DiffusionMatrix::default_alpha(&g).unwrap();
            let n = g.len();
            let mut x = RateVector::zeros(n);
            x[NodeId::new(0)] = n as f64;
            let y = d.steps(&x, 3000);
            assert!(
                y.distance_to_uniform() < 1e-6,
                "distance {} on {} nodes",
                y.distance_to_uniform(),
                n
            );
        }
    }

    #[test]
    fn complete_graph_one_step_with_alpha_1_over_n() {
        let g = complete(4);
        let d = DiffusionMatrix::uniform_alpha(&g, 0.25).unwrap();
        let x = RateVector::from(vec![4.0, 0.0, 0.0, 0.0]);
        let y = d.step(&x);
        assert!(y.distance_to_uniform() < 1e-12);
    }

    #[test]
    fn contraction_factor_bounds_observed_decay() {
        let g = ring(10);
        let d = DiffusionMatrix::default_alpha(&g).unwrap();
        let gamma = d.contraction_factor(300);
        assert!(gamma > 0.0 && gamma < 1.0, "gamma = {gamma}");
        // Observed per-step contraction must not exceed gamma (after
        // transients).
        let mut x = RateVector::from((0..10).map(|i| i as f64).collect::<Vec<_>>());
        for _ in 0..50 {
            x = d.step(&x);
        }
        let d1 = x.distance_to_uniform();
        let d2 = d.step(&x).distance_to_uniform();
        assert!(
            d2 <= gamma * d1 + 1e-9,
            "d2 {} vs gamma*d1 {}",
            d2,
            gamma * d1
        );
    }

    #[test]
    fn path_graph_diffuses_end_to_end() {
        let g = Graph::from(&path(16));
        let d = DiffusionMatrix::default_alpha(&g).unwrap();
        let mut x = RateVector::zeros(16);
        x[NodeId::new(15)] = 16.0;
        let y = d.steps(&x, 5000);
        assert!(y.distance_to_uniform() < 1e-3);
        assert!((y.total() - 16.0).abs() < 1e-9);
    }
}
