//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use ww_stats::{fit_exponential, linear_fit, ConvergenceTrace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The exponential fit recovers exact geometric series for any
    /// amplitude and rate.
    #[test]
    fn expfit_recovers_exact_series(
        a in 0.1f64..1000.0,
        gamma in 0.05f64..0.99,
        n in 8usize..60
    ) {
        let ys: Vec<f64> = (0..n).map(|t| a * gamma.powi(t as i32)).collect();
        let fit = fit_exponential(&ys, 0.0).unwrap();
        prop_assert!((fit.gamma - gamma).abs() < 1e-6, "gamma {} vs {}", fit.gamma, gamma);
        prop_assert!((fit.a - a).abs() / a < 1e-6);
    }

    /// The fit is scale-equivariant: scaling y scales `a`, not `gamma`.
    #[test]
    fn expfit_scale_equivariance(
        gamma in 0.2f64..0.95,
        scale in 0.5f64..100.0
    ) {
        let ys: Vec<f64> = (0..30).map(|t| 5.0 * gamma.powi(t)).collect();
        let scaled: Vec<f64> = ys.iter().map(|y| y * scale).collect();
        let f1 = fit_exponential(&ys, 0.0).unwrap();
        let f2 = fit_exponential(&scaled, 0.0).unwrap();
        prop_assert!((f1.gamma - f2.gamma).abs() < 1e-9);
        prop_assert!((f2.a / f1.a - scale).abs() / scale < 1e-9);
    }

    /// Linear fit residuals are orthogonal to x (normal equations hold).
    #[test]
    fn linreg_normal_equations(
        pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..50)
    ) {
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        if let Some(fit) = linear_fit(&xs, &ys) {
            let resid: Vec<f64> = xs.iter().zip(&ys)
                .map(|(x, y)| y - (fit.intercept + fit.slope * x))
                .collect();
            let sum_r: f64 = resid.iter().sum();
            let sum_rx: f64 = resid.iter().zip(&xs).map(|(r, x)| r * x).sum();
            prop_assert!(sum_r.abs() < 1e-6 * (1.0 + ys.iter().map(|y| y.abs()).sum::<f64>()));
            prop_assert!(sum_rx.abs() < 1e-5 * (1.0 + xs.len() as f64 * 1e4));
        }
    }

    /// ConvergenceTrace round-trips through CSV line count and preserves
    /// iterations_to semantics.
    #[test]
    fn trace_consistency(ds in proptest::collection::vec(0.0f64..100.0, 1..50)) {
        let trace = ConvergenceTrace::from_distances(ds.clone());
        prop_assert_eq!(trace.len(), ds.len());
        prop_assert_eq!(trace.to_csv().lines().count(), ds.len() + 1);
        // iterations_to(min) always finds the argmin or earlier.
        let min = ds.iter().copied().fold(f64::INFINITY, f64::min);
        let hit = trace.iterations_to(min).unwrap();
        prop_assert!(ds[hit] <= min + 1e-12);
    }

    /// ExactSum is order- and grouping-independent: any permutation and
    /// any partition into merged partial sums yields the same bits. This
    /// is the property that lets the parallel packet engine fold its
    /// convergence-trace sample inside the workers and still replay the
    /// sequential driver's sample bit for bit.
    #[test]
    fn exact_sum_is_order_and_grouping_independent(
        xs in proptest::collection::vec(0.0f64..1e12, 1..40),
        cut in 0usize..40,
        swap in 0usize..40,
    ) {
        let mut forward = ww_stats::ExactSum::new();
        for &x in &xs {
            forward.add(x);
        }
        let reference = forward.value();

        // A permutation: swap two positions, then sum backwards.
        let mut perm = xs.clone();
        let (i, j) = (swap % xs.len(), (swap / 2) % xs.len());
        perm.swap(i, j);
        let mut backwards = ww_stats::ExactSum::new();
        for &x in perm.iter().rev() {
            backwards.add(x);
        }
        prop_assert_eq!(reference.to_bits(), backwards.value().to_bits());

        // A grouping: two partials merged.
        let cut = cut % (xs.len() + 1);
        let mut a = ww_stats::ExactSum::new();
        let mut b = ww_stats::ExactSum::new();
        for &x in &xs[..cut] {
            a.add(x);
        }
        for &x in &xs[cut..] {
            b.add(x);
        }
        a.merge(&b);
        prop_assert_eq!(reference.to_bits(), a.value().to_bits());
    }

    /// ExactSum stays within half an ulp of a compensated reference: it
    /// is the correctly rounded exact sum, so it can never drift farther
    /// from the true total than any other rounding.
    #[test]
    fn exact_sum_close_to_naive(xs in proptest::collection::vec(0.0f64..1e6, 1..64)) {
        let mut acc = ww_stats::ExactSum::new();
        let mut naive = 0.0f64;
        for &x in &xs {
            acc.add(x);
            naive += x;
        }
        let exact = acc.value();
        // The naive running sum has relative error <= n * eps.
        let bound = naive.abs() * (xs.len() as f64) * f64::EPSILON + f64::MIN_POSITIVE;
        prop_assert!((exact - naive).abs() <= bound, "exact {exact} vs naive {naive}");
    }
}
