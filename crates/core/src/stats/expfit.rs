//! Nonlinear least-squares fit of the bounding model `y_t = a * gamma^t`.
//!
//! Section 5.1 of the paper: "we use the nonlinear regression models
//! provided in S-PLUS to determine how closely a bounding function of the
//! form `a * gamma^t` can be said to model the convergence of WebWave ...
//! For example, for a random tree with depth 9, gamma = 0.830734 with a
//! standard error of 0.005786."
//!
//! [`fit_exponential`] reproduces that estimator: it minimizes the sum of
//! squared residuals `sum_t (y_t - a * gamma^t)^2` by Gauss-Newton
//! iteration seeded from the log-linear OLS fit, and reports the parameter
//! standard errors from the Jacobian at the optimum — the same quantities
//! S-PLUS's `nls` prints.

use crate::stats::linreg::linear_fit;

/// Result of fitting `y_t = a * gamma^t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFit {
    /// Estimated initial amplitude `a`.
    pub a: f64,
    /// Estimated convergence rate `gamma` (0 < gamma < 1 for convergent
    /// series).
    pub gamma: f64,
    /// Standard error of `gamma` (the paper's headline +/- 0.005786).
    pub gamma_stderr: f64,
    /// Standard error of `a`.
    pub a_stderr: f64,
    /// Residual sum of squares at the optimum.
    pub rss: f64,
    /// Number of Gauss-Newton iterations performed.
    pub iterations: usize,
    /// Whether Gauss-Newton reached its tolerance before the iteration cap.
    pub converged: bool,
}

/// Error from [`fit_exponential`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FitError {
    /// Fewer than three usable (positive, finite) samples.
    TooFewPoints,
    /// The normal equations became singular (e.g. all samples identical
    /// zeros).
    Singular,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints => write!(f, "need at least three positive samples to fit"),
            FitError::Singular => write!(f, "normal equations are singular"),
        }
    }
}

impl std::error::Error for FitError {}

/// Fits `y_t = a * gamma^t` to the series `ys` (with `t = 0, 1, 2, ...`).
///
/// The estimator matches S-PLUS `nls`: minimize the sum of squared
/// residuals on the *original* scale. A log-linear OLS fit over the
/// positive samples seeds Gauss-Newton; standard errors come from
/// `s^2 (J^T J)^{-1}` at the optimum.
///
/// Trailing values at or below `floor` are excluded — once a diffusion
/// simulation hits floating-point noise the tail would otherwise bias
/// `gamma` toward zero. Pass `0.0` to keep every positive sample.
///
/// # Errors
///
/// [`FitError::TooFewPoints`] when fewer than three samples exceed
/// `floor`; [`FitError::Singular`] if the normal equations degenerate.
///
/// # Example
///
/// ```
/// use ww_core::stats::fit_exponential;
/// // A perfect geometric decay: a = 8, gamma = 0.5.
/// let ys: Vec<f64> = (0..12).map(|t| 8.0 * 0.5f64.powi(t)).collect();
/// let fit = fit_exponential(&ys, 0.0).unwrap();
/// assert!((fit.gamma - 0.5).abs() < 1e-9);
/// assert!((fit.a - 8.0).abs() < 1e-9);
/// ```
pub fn fit_exponential(ys: &[f64], floor: f64) -> Result<ExponentialFit, FitError> {
    // Collect (t, y) pairs with y above the noise floor.
    let pts: Vec<(f64, f64)> = ys
        .iter()
        .enumerate()
        .filter(|(_, &y)| y.is_finite() && y > floor && y > 0.0)
        .map(|(t, &y)| (t as f64, y))
        .collect();
    if pts.len() < 3 {
        return Err(FitError::TooFewPoints);
    }

    // Seed from the log-linear fit ln y = ln a + t ln gamma.
    let ts: Vec<f64> = pts.iter().map(|&(t, _)| t).collect();
    let lys: Vec<f64> = pts.iter().map(|&(_, y)| y.ln()).collect();
    let seed = linear_fit(&ts, &lys).ok_or(FitError::Singular)?;
    let mut a = seed.intercept.exp();
    let mut gamma = seed.slope.exp().clamp(1e-9, 10.0);

    // Gauss-Newton with step halving on the original scale.
    let max_iter = 200;
    let tol = 1e-12;
    let mut iterations = 0;
    let mut converged = false;
    let mut rss = residual_ss(&pts, a, gamma);
    while iterations < max_iter {
        iterations += 1;
        // Build J^T J and J^T r for the 2-parameter model.
        let (mut jtj00, mut jtj01, mut jtj11) = (0.0f64, 0.0f64, 0.0f64);
        let (mut jtr0, mut jtr1) = (0.0f64, 0.0f64);
        for &(t, y) in &pts {
            let g_t = gamma.powf(t);
            let r = y - a * g_t;
            let da = g_t; // d model / d a
            let dg = if t == 0.0 {
                0.0
            } else {
                a * t * gamma.powf(t - 1.0)
            };
            jtj00 += da * da;
            jtj01 += da * dg;
            jtj11 += dg * dg;
            jtr0 += da * r;
            jtr1 += dg * r;
        }
        let det = jtj00 * jtj11 - jtj01 * jtj01;
        if det.abs() < 1e-300 {
            return Err(FitError::Singular);
        }
        let delta_a = (jtj11 * jtr0 - jtj01 * jtr1) / det;
        let delta_g = (jtj00 * jtr1 - jtj01 * jtr0) / det;

        // Step halving: accept the first step that lowers the RSS.
        let mut step = 1.0;
        let mut accepted = false;
        for _ in 0..30 {
            let na = a + step * delta_a;
            let ng = (gamma + step * delta_g).clamp(1e-9, 10.0);
            let nrss = residual_ss(&pts, na, ng);
            if nrss <= rss {
                let improvement = rss - nrss;
                a = na;
                gamma = ng;
                rss = nrss;
                accepted = true;
                if improvement <= tol * (1.0 + rss) {
                    converged = true;
                }
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            converged = true; // no descent direction left: at the optimum
        }
        if converged {
            break;
        }
    }

    // Standard errors from s^2 (J^T J)^{-1} at the optimum.
    let (mut jtj00, mut jtj01, mut jtj11) = (0.0f64, 0.0f64, 0.0f64);
    for &(t, _) in &pts {
        let g_t = gamma.powf(t);
        let da = g_t;
        let dg = if t == 0.0 {
            0.0
        } else {
            a * t * gamma.powf(t - 1.0)
        };
        jtj00 += da * da;
        jtj01 += da * dg;
        jtj11 += dg * dg;
    }
    let det = jtj00 * jtj11 - jtj01 * jtj01;
    if det.abs() < 1e-300 {
        return Err(FitError::Singular);
    }
    let dof = (pts.len().saturating_sub(2)).max(1) as f64;
    let s2 = rss / dof;
    let a_stderr = (s2 * jtj11 / det).max(0.0).sqrt();
    let gamma_stderr = (s2 * jtj00 / det).max(0.0).sqrt();

    Ok(ExponentialFit {
        a,
        gamma,
        gamma_stderr,
        a_stderr,
        rss,
        iterations,
        converged,
    })
}

fn residual_ss(pts: &[(f64, f64)], a: f64, gamma: f64) -> f64 {
    pts.iter()
        .map(|&(t, y)| {
            let r = y - a * gamma.powf(t);
            r * r
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_decay_recovered_exactly() {
        let ys: Vec<f64> = (0..20).map(|t| 3.0 * 0.9f64.powi(t)).collect();
        let fit = fit_exponential(&ys, 0.0).unwrap();
        assert!((fit.gamma - 0.9).abs() < 1e-10, "gamma = {}", fit.gamma);
        assert!((fit.a - 3.0).abs() < 1e-9);
        assert!(fit.rss < 1e-18);
        assert!(fit.gamma_stderr < 1e-6);
    }

    #[test]
    fn noisy_decay_recovers_gamma_with_stderr() {
        // Multiplicative deterministic perturbation around a 0.83 decay —
        // the paper's depth-9 regime.
        let ys: Vec<f64> = (0..40)
            .map(|t| {
                let noise = 1.0 + 0.05 * if t % 2 == 0 { 1.0 } else { -1.0 };
                100.0 * 0.83f64.powi(t) * noise
            })
            .collect();
        let fit = fit_exponential(&ys, 0.0).unwrap();
        assert!((fit.gamma - 0.83).abs() < 0.02, "gamma = {}", fit.gamma);
        assert!(fit.gamma_stderr > 0.0);
        assert!(fit.gamma_stderr < 0.05);
    }

    #[test]
    fn floor_filters_the_noise_tail() {
        let mut ys: Vec<f64> = (0..15).map(|t| 10.0 * 0.5f64.powi(t)).collect();
        // Floating-point "dust" after convergence.
        ys.extend(std::iter::repeat_n(1e-14, 20));
        let fit = fit_exponential(&ys, 1e-9).unwrap();
        assert!((fit.gamma - 0.5).abs() < 1e-6);
    }

    #[test]
    fn too_few_points_rejected() {
        assert_eq!(
            fit_exponential(&[1.0, 0.5], 0.0),
            Err(FitError::TooFewPoints)
        );
        assert_eq!(fit_exponential(&[], 0.0), Err(FitError::TooFewPoints));
        // Zeros are not usable points.
        assert_eq!(
            fit_exponential(&[0.0, 0.0, 0.0, 0.0], 0.0),
            Err(FitError::TooFewPoints)
        );
    }

    #[test]
    fn growth_series_yields_gamma_above_one() {
        let ys: Vec<f64> = (0..10).map(|t| 2.0 * 1.2f64.powi(t)).collect();
        let fit = fit_exponential(&ys, 0.0).unwrap();
        assert!((fit.gamma - 1.2).abs() < 1e-8);
    }

    #[test]
    fn gauss_newton_improves_on_log_linear_seed() {
        // Additive noise breaks the log-linear optimality; Gauss-Newton on
        // the original scale must do at least as well in RSS.
        let ys: Vec<f64> = (0..30)
            .map(|t| 50.0 * 0.8f64.powi(t) + if t % 3 == 0 { 0.4 } else { -0.2 })
            .map(|y| y.max(0.05))
            .collect();
        let fit = fit_exponential(&ys, 0.0).unwrap();
        // Compare with the pure log-linear seed's RSS.
        let ts: Vec<f64> = (0..30).map(|t| t as f64).collect();
        let lys: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
        let seed = linear_fit(&ts, &lys).unwrap();
        let seed_a = seed.intercept.exp();
        let seed_g = seed.slope.exp();
        let pts: Vec<(f64, f64)> = ts.iter().copied().zip(ys.iter().copied()).collect();
        let seed_rss = residual_ss(&pts, seed_a, seed_g);
        assert!(
            fit.rss <= seed_rss + 1e-12,
            "GN rss {} > seed rss {}",
            fit.rss,
            seed_rss
        );
    }

    #[test]
    fn fit_error_displays() {
        assert!(FitError::TooFewPoints.to_string().contains("three"));
        assert!(FitError::Singular.to_string().contains("singular"));
    }
}
