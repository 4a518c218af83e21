//! Optimal diffusion parameters.
//!
//! Xu & Lau ("Optimal parameters for load balancing using the diffusion
//! method in k-ary n-cube networks", IPL 1993) derive the `alpha` that
//! minimizes the contraction factor on k-ary n-cubes. For `D = I - alpha L`
//! the non-trivial eigenvalues are `1 - alpha * lambda` over the nonzero
//! Laplacian spectrum, so the minimax choice is
//!
//! ```text
//! alpha* = 2 / (lambda_min + lambda_max),
//! gamma* = (lambda_max - lambda_min) / (lambda_max + lambda_min),
//! ```
//!
//! with `lambda_min` the smallest nonzero and `lambda_max` the largest
//! Laplacian eigenvalue. The k-ary n-cube spectrum is closed-form (sums of
//! ring eigenvalues `2 - 2 cos(2 pi m / k)`), giving the formulas below.

use std::f64::consts::PI;

/// Optimal `alpha` and the resulting contraction factor `gamma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalAlpha {
    /// The minimax diffusion parameter.
    pub alpha: f64,
    /// The contraction factor achieved with it (per-iteration distance
    /// shrink toward uniform).
    pub gamma: f64,
}

/// Optimal diffusion parameter for the boolean hypercube of dimension `n`:
/// Laplacian spectrum `{2m : m = 0..n}`, so `alpha* = 1 / (n + 1)` —
/// Cybenko's classic result.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn hypercube_alpha(n: usize) -> OptimalAlpha {
    assert!(n > 0, "hypercube dimension must be positive");
    let lambda_min = 2.0;
    let lambda_max = 2.0 * n as f64;
    from_spectrum_extremes(lambda_min, lambda_max)
}

/// Optimal diffusion parameter for the `k`-ary `n`-cube (Xu & Lau).
///
/// `k == 2` is routed to [`hypercube_alpha`] because the 2-ring collapses
/// to a single edge.
///
/// # Panics
///
/// Panics if `k < 2` or `n == 0`.
pub fn k_ary_n_cube_alpha(k: usize, n: usize) -> OptimalAlpha {
    assert!(k >= 2, "need k >= 2");
    assert!(n >= 1, "need n >= 1");
    if k == 2 {
        return hypercube_alpha(n);
    }
    // Ring eigenvalues: 2 - 2 cos(2 pi m / k), m = 0..k-1.
    let ring_min_nonzero = 2.0 - 2.0 * (2.0 * PI / k as f64).cos();
    let m_max = k / 2; // maximizes 2 - 2 cos(2 pi m / k)
    let ring_max = 2.0 - 2.0 * (2.0 * PI * m_max as f64 / k as f64).cos();
    // Product graph: min nonzero = single-dimension min; max = n * ring max.
    let lambda_min = ring_min_nonzero;
    let lambda_max = n as f64 * ring_max;
    from_spectrum_extremes(lambda_min, lambda_max)
}

/// Optimal diffusion parameter for the `k`-ring (`k`-ary 1-cube).
///
/// # Panics
///
/// Panics if `k < 3`.
pub fn ring_alpha(k: usize) -> OptimalAlpha {
    assert!(k >= 3, "a ring needs at least 3 nodes");
    k_ary_n_cube_alpha(k, 1)
}

/// Computes `alpha*`/`gamma*` from the extreme nonzero Laplacian
/// eigenvalues of any graph.
///
/// # Panics
///
/// Panics unless `0 < lambda_min <= lambda_max`.
pub fn from_spectrum_extremes(lambda_min: f64, lambda_max: f64) -> OptimalAlpha {
    assert!(
        lambda_min > 0.0 && lambda_min <= lambda_max,
        "invalid spectrum extremes"
    );
    OptimalAlpha {
        alpha: 2.0 / (lambda_min + lambda_max),
        gamma: (lambda_max - lambda_min) / (lambda_max + lambda_min),
    }
}

/// The always-stable diffusion parameter for a routing tree:
/// `1 / (max_degree + 1)`, the bound WebWave's Figure 5 uses ("other
/// values of `alpha_i` are possible"). Stability holds for any tree, so
/// engines recompute it with this helper whenever churn events mutate
/// the topology mid-run.
///
/// A single-node tree has no edges; the returned `1/2` keeps the value
/// inside `(0, 1)` where any alpha works.
///
/// # Example
///
/// ```
/// use ww_core::diffusion::safe_alpha;
/// use ww_model::Tree;
///
/// let star = Tree::from_parents(&[None, Some(0), Some(0), Some(0)]).unwrap();
/// assert_eq!(safe_alpha(&star), 0.25); // root degree 3
/// ```
pub fn safe_alpha(tree: &ww_model::Tree) -> f64 {
    let max_deg = tree
        .nodes()
        .map(|u| tree.children(u).len() + usize::from(tree.parent(u).is_some()))
        .max()
        .unwrap_or(0)
        .max(1);
    1.0 / (max_deg as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusion::DiffusionMatrix;
    use ww_model::{NodeId, RateVector};
    use ww_topology::{hypercube, k_ary_n_cube};

    #[test]
    fn hypercube_matches_cybenko() {
        let o = hypercube_alpha(3);
        assert!((o.alpha - 0.25).abs() < 1e-12); // 1 / (3 + 1)
        assert!((o.gamma - 0.5).abs() < 1e-12); // (6 - 2) / (6 + 2)
    }

    #[test]
    fn ring_alpha_formula() {
        // 4-ring: eigenvalues {0, 2, 2, 4}; alpha* = 2/(2+4) = 1/3.
        let o = ring_alpha(4);
        assert!((o.alpha - 1.0 / 3.0).abs() < 1e-12);
        assert!((o.gamma - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_ary_routes_to_hypercube() {
        assert_eq!(k_ary_n_cube_alpha(2, 5), hypercube_alpha(5));
    }

    #[test]
    fn gamma_shrinks_with_connectivity() {
        // Bigger rings mix slower.
        assert!(ring_alpha(4).gamma < ring_alpha(8).gamma);
        assert!(ring_alpha(8).gamma < ring_alpha(32).gamma);
        // Higher-dimensional cubes of the same size mix faster than rings.
        let ring64 = ring_alpha(64);
        let cube8x2 = k_ary_n_cube_alpha(8, 2);
        assert!(cube8x2.gamma < ring64.gamma);
    }

    #[test]
    fn optimal_alpha_beats_default_empirically() {
        // On a 9-node torus, the Xu-Lau alpha converges strictly faster
        // than the safe default 1/(deg+1).
        let g = k_ary_n_cube(3, 2);
        let opt = k_ary_n_cube_alpha(3, 2);
        let d_opt = DiffusionMatrix::uniform_alpha(&g, opt.alpha).unwrap();
        let d_def = DiffusionMatrix::default_alpha(&g).unwrap();
        let mut x = RateVector::zeros(9);
        x[NodeId::new(0)] = 9.0;
        let after_opt = d_opt.steps(&x, 30).distance_to_uniform();
        let after_def = d_def.steps(&x, 30).distance_to_uniform();
        assert!(
            after_opt < after_def,
            "optimal {after_opt} should beat default {after_def}"
        );
    }

    #[test]
    fn predicted_gamma_matches_power_iteration() {
        let g = hypercube(4);
        let o = hypercube_alpha(4);
        let d = DiffusionMatrix::uniform_alpha(&g, o.alpha).unwrap();
        let measured = d.contraction_factor(500);
        assert!(
            (measured - o.gamma).abs() < 1e-6,
            "measured {measured} vs predicted {}",
            o.gamma
        );
    }

    #[test]
    fn alpha_satisfies_cybenko_self_weight() {
        for (k, n) in [(3usize, 1usize), (4, 2), (5, 2), (3, 3)] {
            let o = k_ary_n_cube_alpha(k, n);
            let g = k_ary_n_cube(k, n);
            // Must be constructible: self weights positive everywhere.
            assert!(
                DiffusionMatrix::uniform_alpha(&g, o.alpha).is_some(),
                "alpha {} invalid for {k}-ary {n}-cube",
                o.alpha
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid spectrum")]
    fn bad_spectrum_rejected() {
        let _ = from_spectrum_extremes(0.0, 4.0);
    }
}
