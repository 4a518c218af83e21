//! Experiment A2 + scaling: WebFold cost on large random trees, and the
//! fold-order ablation (the paper's max-load-first rule vs naive scan
//! order).
//!
//! Prints the ablation verdict on random instances, then benchmarks
//! WebFold at 1k/10k/100k nodes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use ww_core::fold::{webfold, webfold_with_order, FoldOrder};
use ww_model::{RateVector, Tree};
use ww_topology::random_tree_of_depth;
use ww_workload::DocMix;

/// A deterministic random tree plus random spontaneous rates:
/// `random_tree_of_depth(n, depth)` with `random_uniform(0..100)` demand,
/// both seeded from `seed`.
fn scaling_scenario(n: usize, depth: usize, seed: u64) -> (Tree, RateVector) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = random_tree_of_depth(&mut rng, n, depth);
    let rates = ww_workload::random_uniform(&mut rng, &tree, 0.0, 100.0);
    (tree, rates)
}

/// A shared-Zipf document mix over `docs` documents for a scaling
/// scenario (the "globally hot documents" regime).
fn scaling_mix(tree: &Tree, rates: &RateVector, docs: usize) -> DocMix {
    ww_workload::shared_zipf_mix(tree, rates, docs, 1.0)
}

fn ablation_report() {
    println!("A2 — fold-order ablation (max-load-first vs scan order), 200 random instances");
    let mut rng = StdRng::seed_from_u64(2);
    let mut equal_feasible = 0;
    let mut scan_infeasible = 0;
    let mut scan_worse_feasible = 0;
    for _ in 0..200 {
        let tree = random_tree_of_depth(&mut rng, 40, 6);
        let e = ww_workload::random_uniform(&mut rng, &tree, 0.0, 50.0);
        let max_first = webfold(&tree, &e);
        let scan = webfold_with_order(&tree, &e, FoldOrder::FirstFoldable);
        let feasible = ww_model::LoadAssignment::new(&tree, &e, scan.load().clone())
            .expect("shapes match")
            .check_feasible(1e-9)
            .is_ok();
        if !feasible {
            // The key finding: without the max-load-first rule the fold
            // partition can violate NSS — Lemma 3 *depends* on the order.
            scan_infeasible += 1;
            continue;
        }
        match max_first.load().compare_balance(scan.load(), 1e-9) {
            std::cmp::Ordering::Less => scan_worse_feasible += 1,
            std::cmp::Ordering::Equal => equal_feasible += 1,
            std::cmp::Ordering::Greater => {
                panic!("a feasible scan-order assignment beat WebFold: Theorem 1 violated")
            }
        }
    }
    println!(
        "  scan order NSS-infeasible: {scan_infeasible}/200; feasible-and-equal: {equal_feasible}/200; feasible-and-worse: {scan_worse_feasible}/200"
    );
    println!("  (the max-load-first rule is what guarantees Lemma 3 / NSS feasibility)\n");
}

fn bench(c: &mut Criterion) {
    ablation_report();

    let mut group = c.benchmark_group("webfold_scaling");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(10);
    for &n in &[1_000usize, 10_000, 100_000] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let tree = random_tree_of_depth(&mut rng, n, 12);
        let e = ww_workload::random_uniform(&mut rng, &tree, 0.0, 100.0);
        group.bench_with_input(BenchmarkId::new("nodes", n), &n, |b, _| {
            b.iter(|| webfold(&tree, &e))
        });
    }
    group.finish();
}

/// Dense-state `RateWave` vs the naive clone-per-round reference.
fn bench_rate_wave_engines(c: &mut Criterion) {
    use ww_core::reference::NaiveRateWave;
    use ww_core::wave::{RateWave, WaveConfig};

    let mut group = c.benchmark_group("rate_wave_dense_vs_naive");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    for &n in &[1_000usize, 10_000] {
        let (tree, e) = scaling_scenario(n, 12, n as u64);
        let rounds = if n <= 1_000 { 200 } else { 50 };
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| {
                let mut w = RateWave::new(&tree, &e, WaveConfig::default());
                w.run(rounds);
                w.distance_to_tlb()
            })
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| {
                let mut w = NaiveRateWave::new(&tree, &e, WaveConfig::default());
                w.run(rounds);
                w.distance_to_tlb()
            })
        });
    }
    group.finish();
}

/// Dense-slab `DocSim` vs the naive hash-table reference.
fn bench_docsim_engines(c: &mut Criterion) {
    use ww_core::docsim::{DocSim, DocSimConfig};
    use ww_core::reference::NaiveDocSim;

    let mut group = c.benchmark_group("docsim_dense_vs_naive");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    let n = 1_000usize;
    let (tree, e) = scaling_scenario(n, 12, n as u64 ^ 0xD0C);
    let mix = scaling_mix(&tree, &e, 64);
    group.bench_function(BenchmarkId::new("dense", n), |b| {
        b.iter(|| {
            let mut s = DocSim::new(&tree, &mix, DocSimConfig::default());
            s.run(10);
            s.distance_to_tlb()
        })
    });
    group.bench_function(BenchmarkId::new("naive", n), |b| {
        b.iter(|| {
            let mut s = NaiveDocSim::new(&tree, &mix, DocSimConfig::default());
            s.run(10);
            s.distance_to_tlb()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench,
    bench_rate_wave_engines,
    bench_docsim_engines
);
criterion_main!(benches);
