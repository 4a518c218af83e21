//! Experiment G9 (paper Section 5.1): the `a * gamma^t` regression on
//! random trees of depth 3..=9 (the paper's depth-9 reference:
//! `gamma = 0.830734 +/- 0.005786`).
//!
//! Prints the fitted table, then benchmarks the Gauss-Newton fit itself
//! and a full generate-simulate-fit pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use ww_core::stats::fit_exponential;
use ww_core::wave::{RateWave, WaveConfig};
use ww_topology::random_tree_of_depth;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        ww_experiments::gamma_study(&[3, 4, 5, 6, 7, 8, 9], 256, 600, 1997).report
    );

    // A representative depth-9 convergence trace to fit.
    let mut rng = StdRng::seed_from_u64(9);
    let tree = random_tree_of_depth(&mut rng, 256, 9);
    let e = ww_workload::random_uniform(&mut rng, &tree, 0.0, 10.0);
    let mut wave = RateWave::new(&tree, &e, WaveConfig::default());
    wave.run(600);
    let trace: Vec<f64> = wave.trace().distances().to_vec();
    let floor = trace[0] * 1e-10;

    let mut group = c.benchmark_group("gamma_fit");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    group.bench_function("gauss_newton_fit_600pts", |bench| {
        bench.iter(|| fit_exponential(&trace, floor).unwrap())
    });
    group.sample_size(10);
    group.bench_function("full_pipeline_depth9", |bench| {
        bench.iter(|| {
            let mut rng = StdRng::seed_from_u64(9);
            let tree = random_tree_of_depth(&mut rng, 256, 9);
            let e = ww_workload::random_uniform(&mut rng, &tree, 0.0, 10.0);
            let mut wave = RateWave::new(&tree, &e, WaveConfig::default());
            wave.run(600);
            let d0 = wave.trace().initial().unwrap();
            fit_exponential(wave.trace().distances(), d0 * 1e-10).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
