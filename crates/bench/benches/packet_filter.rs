//! Experiment A3: the architectural feasibility claim — injected packet
//! filters classify a passing request in O(1), comparable to the 1.51 us
//! per packet the paper cites for DPF (Engler & Kaashoek).
//!
//! Prints our measured per-packet cost next to the DPF reference, then
//! benchmarks the counting Bloom filter's match at two table sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};
use ww_model::DocId;
use ww_net::{CountingBloomFilter, PacketFilter};

/// The DPF-measured per-packet filtering overhead, in microseconds
/// (Engler & Kaashoek, SIGCOMM '96, as cited by the paper).
const DPF_FILTER_COST_US: f64 = 1.51;

fn quick_cost_us<F: PacketFilter>(filter: &F, probes: u64) -> f64 {
    let start = Instant::now();
    let mut hits = 0u64;
    for i in 0..probes {
        if filter.matches(DocId::new(i % 200_000)) {
            hits += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(hits);
    elapsed * 1e6 / probes as f64
}

fn print_reference_table() {
    let mut bloom = CountingBloomFilter::for_capacity(100_000);
    for i in 0..100_000u64 {
        bloom.insert(DocId::new(i));
    }
    println!("A3 — packet filter cost per request (100k-entry table)");
    println!("  DPF reference (paper): {DPF_FILTER_COST_US:.2} us/packet");
    println!(
        "  counting bloom:        {:.4} us/packet\n",
        quick_cost_us(&bloom, 1_000_000)
    );
}

fn bench(c: &mut Criterion) {
    print_reference_table();

    let mut group = c.benchmark_group("packet_filter");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    for &size in &[1_000usize, 100_000] {
        let mut bloom = CountingBloomFilter::for_capacity(size);
        for i in 0..size as u64 {
            bloom.insert(DocId::new(i));
        }
        group.bench_with_input(BenchmarkId::new("bloom_match", size), &size, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                bloom.matches(DocId::new(i % (2 * size as u64)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
