//! Property-based tests for the diffusion substrate.

use proptest::prelude::*;
use ww_core::diffusion::{DiffusionMatrix, SyncDiffusion};
use ww_model::RateVector;
use ww_topology::{hypercube, k_ary_n_cube, ring, Graph};

/// Random connected graph: a random tree skeleton plus extra edges.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..=24).prop_flat_map(|n| {
        let skeleton: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        let extras = proptest::collection::vec((0..n, 0..n), 0..n);
        (Just(n), skeleton, extras).prop_map(|(n, parents, extras)| {
            let mut g = Graph::new(n);
            for (i, p) in parents.into_iter().enumerate() {
                g.add_edge(i + 1, p);
            }
            for (a, b) in extras {
                if a != b {
                    g.add_edge(a, b);
                }
            }
            g
        })
    })
}

fn arb_load(n: usize) -> impl Strategy<Value = RateVector> {
    proptest::collection::vec(0.0f64..100.0, n).prop_map(RateVector::from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Synchronous steps conserve total load exactly on any graph.
    #[test]
    fn sync_step_conserves_mass(
        (g, x) in arb_connected_graph().prop_flat_map(|g| {
            let n = g.len();
            (Just(g), arb_load(n))
        })
    ) {
        if let Some(d) = DiffusionMatrix::default_alpha(&g) {
            let y = d.steps(&x, 25);
            prop_assert!((y.total() - x.total()).abs() < 1e-6);
        }
    }

    /// The distance to uniform never increases under a synchronous step.
    #[test]
    fn sync_step_is_a_contraction(
        (g, x) in arb_connected_graph().prop_flat_map(|g| {
            let n = g.len();
            (Just(g), arb_load(n))
        })
    ) {
        if let Some(d) = DiffusionMatrix::default_alpha(&g) {
            let before = x.distance_to_uniform();
            let after = d.step(&x).distance_to_uniform();
            prop_assert!(after <= before + 1e-9, "distance grew: {before} -> {after}");
        }
    }

    /// Uniform vectors are fixed points.
    #[test]
    fn uniform_is_fixed_point(
        g in arb_connected_graph(),
        level in 0.0f64..100.0
    ) {
        if let Some(d) = DiffusionMatrix::default_alpha(&g) {
            let u = RateVector::uniform(g.len(), level);
            let y = d.step(&u);
            prop_assert!(u.euclidean_distance(&y) < 1e-9);
        }
    }

    /// Connected graphs converge to uniform.
    #[test]
    fn connected_graphs_converge(
        (g, x) in arb_connected_graph().prop_flat_map(|g| {
            let n = g.len();
            (Just(g), arb_load(n))
        })
    ) {
        if let Some(d) = DiffusionMatrix::default_alpha(&g) {
            let mut run = SyncDiffusion::new(d, x);
            run.run_until(1e-6, 200_000);
            prop_assert!(run.load().distance_to_uniform() < 1e-5);
        }
    }

    /// The power-iteration contraction factor lies in [0, 1) for default
    /// alpha on the structured topologies.
    #[test]
    fn contraction_factor_in_unit_interval(kind in 0usize..3, size in 2usize..5) {
        let g = match kind {
            0 => ring(size + 2),
            1 => hypercube(size),
            _ => k_ary_n_cube(3, size.min(3)),
        };
        let d = DiffusionMatrix::default_alpha(&g).unwrap();
        let gamma = d.contraction_factor(200);
        prop_assert!((0.0..1.0).contains(&gamma), "gamma {gamma}");
    }
}
