//! Experiment A7 (paper future work): WebWave on a forest of overlapping
//! routing trees — coupled (total-load) gossip vs the naive per-tree
//! composition.
//!
//! Prints the coupling comparison, then benchmarks forest rounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use ww_core::forest::{Coupling, Forest, ForestWave, ForestWaveConfig};
use ww_model::{NodeId, RateVector};
use ww_topology::Graph;

fn scenario() -> (Forest, Vec<RateVector>) {
    let mut g = Graph::new(6);
    for i in 0..5 {
        g.add_edge(i, i + 1);
    }
    let forest = Forest::from_graph(&g, &[NodeId::new(0), NodeId::new(5)]).unwrap();
    let demands = vec![
        RateVector::from(vec![0.0, 60.0, 0.0, 0.0, 0.0, 0.0]),
        RateVector::from(vec![0.0, 60.0, 0.0, 0.0, 0.0, 0.0]),
    ];
    (forest, demands)
}

fn bench(c: &mut Criterion) {
    println!("{}", ww_experiments::forest_study().report);

    let (forest, demands) = scenario();
    let mut group = c.benchmark_group("forest_coupling");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(20);
    for (label, coupling) in [
        ("coupled", Coupling::Coupled),
        ("uncoupled", Coupling::Uncoupled),
    ] {
        group.bench_with_input(
            BenchmarkId::new("2000_rounds", label),
            &coupling,
            |b, &coupling| {
                b.iter(|| {
                    let mut wave = ForestWave::new(
                        &forest,
                        &demands,
                        ForestWaveConfig {
                            alpha: None,
                            coupling,
                        },
                    );
                    wave.run(2000);
                    wave.total_load().max()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
