//! Golden-trace equivalence: the dense-state engines must be
//! *bit-identical* to the naive hash-table / clone-per-round reference
//! implementations on the paper scenarios.
//!
//! This is the contract that makes the dense-state refactor safe: same
//! seeds, same convergence traces, same statistics, same figure outputs —
//! only faster.

use ww_core::docsim::{DocSim, DocSimConfig};
use ww_core::reference::{NaiveDocSim, NaiveRateWave};
use ww_core::wave::{RateWave, WaveConfig};
use ww_model::{DocId, NodeId};
use ww_topology::paper;

/// Asserts two traces are identical to the last bit.
fn assert_traces_bit_identical(
    dense: &ww_stats::ConvergenceTrace,
    naive: &ww_stats::ConvergenceTrace,
) {
    assert_eq!(dense.len(), naive.len(), "trace lengths differ");
    for (round, (d, n)) in dense.distances().iter().zip(naive.distances()).enumerate() {
        assert_eq!(
            d.to_bits(),
            n.to_bits(),
            "trace diverges at round {round}: dense {d:e} vs naive {n:e}"
        );
    }
}

#[test]
fn rate_wave_matches_reference_on_fig6() {
    let s = paper::fig6();
    let mut dense = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
    let mut naive = NaiveRateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
    dense.run(2000);
    naive.run(2000);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.load().as_slice(), naive.load().as_slice());
}

#[test]
fn rate_wave_matches_reference_on_all_rate_scenarios() {
    for s in paper::all_scenarios() {
        let mut dense = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
        let mut naive = NaiveRateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
        dense.run(500);
        naive.run(500);
        assert_traces_bit_identical(dense.trace(), naive.trace());
        assert_eq!(
            dense.load().as_slice(),
            naive.load().as_slice(),
            "{} loads differ",
            s.name
        );
    }
}

#[test]
fn rate_wave_matches_reference_when_child_ids_precede_parents() {
    // Valid trees may number a child below its parent (Prüfer generation
    // does this routinely); the permuted engine must replay the naive
    // per-cell accumulation order even then.
    use rand::SeedableRng;
    use ww_model::{RateVector, Tree};

    // A hand-built instance: root 1; node 2's children are 0 (id below 2)
    // and 3 (id above 2).
    let tree = Tree::from_parents(&[Some(2), None, Some(1), Some(2), Some(0)]).unwrap();
    let rates = RateVector::from(vec![13.3, 1.7, 5.9, 21.1, 8.35]);
    let mut dense = RateWave::new(&tree, &rates, WaveConfig::default());
    let mut naive = NaiveRateWave::new(&tree, &rates, WaveConfig::default());
    dense.run(500);
    naive.run(500);
    assert_traces_bit_identical(dense.trace(), naive.trace());

    // And random Prüfer trees, where arbitrary parent/child id orders
    // appear throughout.
    let mut rng = rand::rngs::StdRng::seed_from_u64(97);
    for _ in 0..20 {
        let tree = ww_topology::random_pruefer(&mut rng, 40);
        let rates = ww_workload::random_uniform(&mut rng, &tree, 0.0, 50.0);
        let mut dense = RateWave::new(&tree, &rates, WaveConfig::default());
        let mut naive = NaiveRateWave::new(&tree, &rates, WaveConfig::default());
        dense.run(200);
        naive.run(200);
        assert_traces_bit_identical(dense.trace(), naive.trace());
        assert_eq!(dense.load().as_slice(), naive.load().as_slice());
    }
}

#[test]
fn rate_wave_matches_reference_under_stale_gossip() {
    // The staleness ring buffer must reproduce the naive history clones
    // exactly — including the warm-up rounds before the window fills.
    let s = paper::fig6();
    for staleness in [1usize, 3, 7] {
        let cfg = WaveConfig {
            alpha: None,
            staleness,
        };
        let mut dense = RateWave::new(&s.tree, &s.spontaneous, cfg);
        let mut naive = NaiveRateWave::new(&s.tree, &s.spontaneous, cfg);
        dense.run(800);
        naive.run(800);
        assert_traces_bit_identical(dense.trace(), naive.trace());
    }
}

#[test]
fn docsim_matches_reference_on_fig7_with_tunneling() {
    let b = paper::fig7();
    let mut dense = DocSim::from_barrier_scenario(&b, DocSimConfig::default());
    let mut naive = NaiveDocSim::from_barrier_scenario(&b, DocSimConfig::default());
    dense.run(1500);
    naive.run(1500);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.stats(), naive.stats(), "protocol counters differ");
    assert_eq!(dense.load().as_slice(), naive.load().as_slice());
    for u in 0..4 {
        assert_eq!(
            dense.copies_at(NodeId::new(u)),
            naive.copies_at(NodeId::new(u)),
            "copies at node {u} differ"
        );
    }
}

#[test]
fn docsim_matches_reference_on_fig7_without_tunneling() {
    let b = paper::fig7();
    let cfg = DocSimConfig {
        alpha: None,
        tunneling: false,
        barrier_patience: 2,
    };
    let mut dense = DocSim::from_barrier_scenario(&b, cfg);
    let mut naive = NaiveDocSim::from_barrier_scenario(&b, cfg);
    dense.run(800);
    naive.run(800);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.stats(), naive.stats());
}

#[test]
fn docsim_matches_reference_with_aggressive_alpha_and_deletions() {
    use ww_model::Tree;
    use ww_workload::DocMix;
    let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
    let mut mix = DocMix::new(3);
    mix.set(NodeId::new(1), DocId::new(2), 90.0);
    mix.set(NodeId::new(2), DocId::new(1), 30.0);
    let cfg = DocSimConfig {
        alpha: Some(0.8),
        tunneling: true,
        barrier_patience: 2,
    };
    let mut dense = DocSim::new(&tree, &mix, cfg);
    let mut naive = NaiveDocSim::new(&tree, &mix, cfg);
    dense.run(2000);
    naive.run(2000);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.stats(), naive.stats());
}

#[test]
fn docsim_matches_reference_on_zipf_mix() {
    // A wider universe (16 docs over the fig6 tree) exercises slab
    // indexing well beyond the 3-document barrier scenario.
    let s = paper::fig6();
    let mix = ww_workload::shared_zipf_mix(&s.tree, &s.spontaneous, 16, 1.0);
    let cfg = DocSimConfig::default();
    let mut dense = DocSim::new(&s.tree, &mix, cfg);
    let mut naive = NaiveDocSim::new(&s.tree, &mix, cfg);
    dense.run(400);
    naive.run(400);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.stats(), naive.stats());
    assert_eq!(dense.load().as_slice(), naive.load().as_slice());
}

#[test]
fn both_engines_match_reference_on_a_random_scaling_tree() {
    // Far from the hand-crafted figures: a 1000-node random tree of
    // depth 12 under uniform random demand, with and without stale
    // gossip, and a 64-document Zipf universe for the document engine.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1000);
    let tree = ww_topology::random_tree_of_depth(&mut rng, 1000, 12);
    let rates = ww_workload::random_uniform(&mut rng, &tree, 0.0, 100.0);
    for staleness in [0, 3] {
        let cfg = WaveConfig {
            alpha: None,
            staleness,
        };
        let mut dense = RateWave::new(&tree, &rates, cfg);
        let mut naive = NaiveRateWave::new(&tree, &rates, cfg);
        dense.run(50);
        naive.run(50);
        assert_traces_bit_identical(dense.trace(), naive.trace());
    }
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 64, 1.0);
    let mut dense = DocSim::new(&tree, &mix, DocSimConfig::default());
    let mut naive = NaiveDocSim::new(&tree, &mix, DocSimConfig::default());
    dense.run(10);
    naive.run(10);
    assert_traces_bit_identical(dense.trace(), naive.trace());
    assert_eq!(dense.stats(), naive.stats());
}
