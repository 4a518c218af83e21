//! Shared scenario builders for the criterion benches
//! under `benches/` (relative measurements during development). The
//! repo's recorded benchmark is `ww-sysbench` — see
//! `benchmark/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
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
}
