//! Ordinary least-squares simple linear regression.
//!
//! Used as the seeding step for the nonlinear `a * gamma^t` fit of
//! Section 5.1 (via the log-linear transform) and as a general utility.

/// Result of fitting `y = intercept + slope * x` by least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Estimated intercept.
    pub intercept: f64,
    /// Estimated slope.
    pub slope: f64,
    /// Standard error of the slope estimate.
    pub slope_stderr: f64,
    /// Standard error of the intercept estimate.
    pub intercept_stderr: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Residual sum of squares.
    pub rss: f64,
    /// Number of points fitted.
    pub n: usize,
}

/// Fits `y = intercept + slope * x` by ordinary least squares.
///
/// Returns `None` when fewer than two points are supplied or all `x` are
/// identical (the slope is then undefined).
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths.
///
/// # Example
///
/// ```
/// use ww_core::stats::linear_fit;
/// let xs = [0.0, 1.0, 2.0, 3.0];
/// let ys = [1.0, 3.0, 5.0, 7.0];
/// let fit = linear_fit(&xs, &ys).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// assert!(fit.r_squared > 0.999);
/// ```
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(xs.len(), ys.len(), "x and y must have equal length");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = xs.iter().sum::<f64>() / nf;
    let mean_y = ys.iter().sum::<f64>() / nf;
    let sxx: f64 = xs.iter().map(|x| (x - mean_x) * (x - mean_x)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let rss: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (intercept + slope * x);
            e * e
        })
        .sum();
    let tss: f64 = ys.iter().map(|y| (y - mean_y) * (y - mean_y)).sum();
    let r_squared = if tss == 0.0 { 1.0 } else { 1.0 - rss / tss };
    // Residual variance; guard the n == 2 exact-fit case.
    let sigma2 = if n > 2 { rss / (nf - 2.0) } else { 0.0 };
    let slope_stderr = (sigma2 / sxx).sqrt();
    let intercept_stderr = (sigma2 * (1.0 / nf + mean_x * mean_x / sxx)).sqrt();
    Some(LinearFit {
        intercept,
        slope,
        slope_stderr,
        intercept_stderr,
        r_squared,
        rss,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_has_zero_error() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 - 0.5 * x).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope + 0.5).abs() < 1e-12);
        assert!((fit.intercept - 4.0).abs() < 1e-12);
        assert!(fit.rss < 1e-18);
        assert!(fit.slope_stderr < 1e-9);
    }

    #[test]
    fn noisy_line_recovers_slope() {
        // Deterministic "noise" with zero mean.
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + 1.0 + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-3);
        assert!(fit.r_squared > 0.9999);
        assert!(fit.slope_stderr > 0.0);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(linear_fit(&[], &[]).is_none());
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[3.0, 3.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn r_squared_of_flat_data_is_one() {
        let fit = linear_fit(&[0.0, 1.0, 2.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = linear_fit(&[1.0], &[1.0, 2.0]);
    }
}
