//! Experiment S2 (paper Section 2): the GLE diffusion background —
//! synchronous diffusion reaches uniform load at the spectrum-predicted
//! rate on the classic topologies, with Xu-Lau optimal parameters.
//!
//! Prints the predicted-vs-measured table, then benchmarks diffusion steps
//! on each topology.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use ww_core::diffusion::{DiffusionMatrix, SyncDiffusion};
use ww_model::{NodeId, RateVector};
use ww_topology::{hypercube, k_ary_n_cube, ring};

fn bench(c: &mut Criterion) {
    println!("{}", ww_experiments::gle_study().report);

    let topologies: Vec<(&str, ww_topology::Graph)> = vec![
        ("ring-64", ring(64)),
        ("hypercube-8", hypercube(8)),
        ("8-ary-2-cube", k_ary_n_cube(8, 2)),
    ];

    let mut group = c.benchmark_group("gle_diffusion_step");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    for (name, graph) in &topologies {
        let n = graph.len();
        let matrix = DiffusionMatrix::default_alpha(graph).expect("connected graph");
        let mut x = RateVector::zeros(n);
        x[NodeId::new(0)] = n as f64;
        group.bench_with_input(BenchmarkId::new("step", name), &matrix, |bench, m| {
            let mut run = SyncDiffusion::new(m.clone(), x.clone());
            bench.iter(|| run.step());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
