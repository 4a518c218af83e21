//! Experiment A1: WebWave against the related-work baselines — max load,
//! control overhead per request, data-path hops, directory dependence.
//!
//! Prints the comparison tables, then benchmarks each scheme's assignment
//! computation on a 64-node Zipf workload.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use ww_core::baselines as bl;
use ww_topology::random_tree_of_depth;

fn bench(c: &mut Criterion) {
    println!("{}", ww_experiments::baseline_study(1997).report);

    let mut rng = StdRng::seed_from_u64(1997);
    let tree = random_tree_of_depth(&mut rng, 64, 6);
    let demand = ww_workload::zipf_nodes(&mut rng, &tree, 6400.0, 1.0);

    let mut group = c.benchmark_group("baseline_comparison");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(20);
    group.bench_function("no_cache", |b| b.iter(|| bl::no_caching(&tree, &demand)));
    group.bench_function("directory", |b| {
        b.iter(|| bl::directory_cache(&tree, &demand, 2.0))
    });
    group.bench_function("dns_round_robin", |b| {
        b.iter(|| bl::dns_round_robin(&tree, &demand, 16))
    });
    group.bench_function("gle_migration", |b| {
        b.iter(|| bl::gle_migration(&tree, &demand, 500))
    });
    group.bench_function("webwave_2000_rounds", |b| {
        b.iter(|| bl::webwave(&tree, &demand, 2000, 2.0))
    });
    group.bench_function("webfold_oracle", |b| {
        b.iter(|| bl::webfold_oracle(&tree, &demand))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
