//! Shared scenario builders and timing helpers for the criterion benches
//! under `benches/` (relative measurements during development). The
//! repo's recorded benchmark is `ww-sysbench` — see
//! `benchmark/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use ww_model::{RateVector, Tree};
use ww_workload::DocMix;

/// A deterministic random tree plus random spontaneous rates, as used by
/// the scaling benches: `random_tree_of_depth(n, depth)` with
/// `random_uniform(0..100)` demand, both seeded from `seed`.
pub fn scaling_scenario(n: usize, depth: usize, seed: u64) -> (Tree, RateVector) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = ww_topology::random_tree_of_depth(&mut rng, n, depth);
    let rates = ww_workload::random_uniform(&mut rng, &tree, 0.0, 100.0);
    (tree, rates)
}

/// A shared-Zipf document mix over `docs` documents for a scaling
/// scenario (the "globally hot documents" regime).
pub fn scaling_mix(tree: &Tree, rates: &RateVector, docs: usize) -> DocMix {
    ww_workload::shared_zipf_mix(tree, rates, docs, 1.0)
}

/// Minimum-of-`samples` timing: runs `setup` then times `work` on its
/// output, keeping the fastest sample. The minimum is the standard robust
/// estimator against scheduler/thermal noise on shared machines.
pub fn time_min<S, W, T>(samples: usize, mut setup: S, mut work: W) -> Duration
where
    S: FnMut() -> T,
    W: FnMut(&mut T),
{
    let mut best = Duration::MAX;
    for _ in 0..samples.max(1) {
        let mut state = setup();
        let start = Instant::now();
        work(&mut state);
        best = best.min(start.elapsed());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_scenario_is_deterministic() {
        let (t1, r1) = scaling_scenario(200, 8, 42);
        let (t2, r2) = scaling_scenario(200, 8, 42);
        assert_eq!(t1.len(), 200);
        assert_eq!(t1, t2);
        assert_eq!(r1.as_slice(), r2.as_slice());
    }

    #[test]
    fn scaling_mix_covers_tree() {
        let (tree, rates) = scaling_scenario(50, 6, 7);
        let mix = scaling_mix(&tree, &rates, 16);
        assert_eq!(mix.len(), tree.len());
        assert!((mix.spontaneous().total() - rates.total()).abs() < 1e-6);
    }

    #[test]
    fn time_min_returns_a_sample() {
        let d = time_min(
            3,
            || 0u64,
            |x| {
                *x = (0..1000u64).sum();
            },
        );
        assert!(d > Duration::ZERO);
    }
}
