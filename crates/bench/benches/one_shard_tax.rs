//! The synchronisation tax of a shard that has nobody to synchronise
//! with: the sequential `PacketSim` against `ParPacketSim::new(.., 1)`
//! on the same world, one simulated second per iteration.
//!
//! Both are the shard driver of `ww_core::packet::driver` over the same
//! one-shard partition — `PacketSim` calls `run_until` to each barrier
//! itself, the parallel engine reaches the same call through
//! `ShardHost::run_epoch` with an empty link set — so the ratio reads
//! ≈ 1.0 by construction (0.94–0.96 before the two loops were one;
//! CHANGES.md, PR 21). A reading away from 1.0 means the loops have
//! forked again.
//!
//! A third row, `par_packet_sim_w2`, runs the same world on two workers
//! (static partition, no controller): "two workers ÷ sequential on a
//! CDN tree", the in-process number ROADMAP item 1 asks for. A shard is
//! a set of sibling regions, so the two halves are 30 regions each; a
//! reading under ~1.5× on a two-core host is what the wires cost
//! (`pdes.promises_per_kevent`, `pdes.merge_stalls_per_kevent`).
//!
//! A fourth row, `dist_packet_sim_w2`, runs the same two shards as
//! `DistPacketSim` worker threads over loopback TCP: next to
//! `par_packet_sim_w2` it reads what socket wires cost over in-process
//! rings, the gap ROADMAP item 1 attributes layer by layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use ww_core::packetsim::{PacketSim, PacketSimConfig};
use ww_dist::{DistMode, DistOptions, DistPacketSim};
use ww_pdes::ParPacketSim;

fn bench(c: &mut Criterion) {
    let tree = ww_topology::two_level(60, 60);
    let rates = ww_workload::leaf_only(&tree, 1.0);
    let mix = ww_workload::shared_zipf_mix(&tree, &rates, 8, 1.0);
    let config = PacketSimConfig::default();

    let mut group = c.benchmark_group("one_shard_tax");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(10);

    // Each iteration advances the same run by one diffusion epoch, so
    // the engines stay in the protocol's steady state. Two alternating
    // rounds: on a shared host the spread between a side's two readings
    // is the noise the difference between the sides has to beat.
    let mut seq = PacketSim::new(&tree, &mix, config);
    let mut par = ParPacketSim::new(&tree, &mix, config, 1);
    let mut par2 = ParPacketSim::new(&tree, &mix, config, 2);
    let threads = DistOptions {
        mode: DistMode::Threads,
        ..DistOptions::default()
    };
    let mut dist2 =
        DistPacketSim::launch(&tree, &mix, config, 2, threads).expect("loopback launch");
    let (mut seq_horizon, mut par_horizon, mut par2_horizon) = (0.0, 0.0, 0.0);
    let mut dist2_horizon = 0.0;
    for round in 1..=2 {
        group.bench_function(BenchmarkId::new("packet_sim", round), |b| {
            b.iter(|| {
                seq_horizon += 1.0;
                std::hint::black_box(seq.run(seq_horizon).processed_events)
            });
        });
        group.bench_function(BenchmarkId::new("par_packet_sim_w1", round), |b| {
            b.iter(|| {
                par_horizon += 1.0;
                std::hint::black_box(par.run(par_horizon).processed_events)
            });
        });
        group.bench_function(BenchmarkId::new("par_packet_sim_w2", round), |b| {
            b.iter(|| {
                par2_horizon += 1.0;
                std::hint::black_box(par2.run(par2_horizon).processed_events)
            });
        });
        group.bench_function(BenchmarkId::new("dist_packet_sim_w2", round), |b| {
            b.iter(|| {
                dist2_horizon += 1.0;
                let report = dist2.run(dist2_horizon).expect("loopback run");
                std::hint::black_box(report.processed_events)
            });
        });
    }
    group.finish();
    dist2.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
