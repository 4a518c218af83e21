//! What the packer costs at setup: `ww_pdes::partition_forest` on the
//! trees the sharded workloads start from — `par_skew_w2`'s binary tree
//! and `dist_cdn_w2`'s CDN at two shards, and
//! `scenarios/scaling_1m_parallel.json`'s million-node CDN at eight.
//!
//! ```text
//! cargo bench --offline -p webwave --bench partition_forest
//! ```
//!
//! The phase bands walk every piece once when it is made, so a packing
//! costs `O(n)` per opening level plus `O(pieces × bands)`; a table of
//! per-node band weights would cost `O(n × bands)` of memory instead.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use ww_model::Tree;
use ww_pdes::partition_forest;

fn bench(c: &mut Criterion) {
    let cases: [(&str, Tree, usize); 3] = [
        ("k_ary_2_14@2", ww_topology::k_ary(2, 14), 2),
        ("two_level_180@2", ww_topology::two_level(180, 180), 2),
        ("two_level_1000@8", ww_topology::two_level(1000, 1000), 8),
    ];
    let mut group = c.benchmark_group("partition_forest");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for (name, tree, shards) in &cases {
        group.bench_function(*name, |b| b.iter(|| partition_forest(tree, *shards)));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
