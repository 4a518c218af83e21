//! Isolated probes: one public function of one layer, called in a loop
//! on a fixed input, so a layer's cost can be read apart from the
//! engines. Inputs do not depend on the world seed. Every probe runs its
//! kernel [`SAMPLES`] times and keeps the median.

use crate::host::xorshift;
use crate::stats::median;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use ww_cache::DenseFlowTable;
use ww_core::fold::{webfold, IncrementalFold};
use ww_core::packet::PacketEvent;
use ww_core::wave::{RateWave, WaveConfig};
use ww_dist::codec::{encode_msg, FrameBuffer, Msg};
use ww_model::{DocId, NodeId, RateVector, Tree};
use ww_net::{CountingBloomFilter, PacketFilter};
use ww_pdes::{partition_subtrees, rebalance_plan, Wire};
use ww_scenario::{Runner, ScenarioSpec};
use ww_sim::{EventQueue, RadixQueue, SimQueue, SimTime, TimerRing};

const SAMPLES: usize = 5;

/// A shipped spec, compiled in so the probe needs no path at run time.
const CHURN_STORM_SPEC: &str = include_str!("../../scenarios/packet_churn_storm.json");

/// Median seconds of `kernel` over [`SAMPLES`] runs, each on a fresh
/// `setup()` that is not timed.
fn median_secs<S>(mut setup: impl FnMut() -> S, mut kernel: impl FnMut(&mut S)) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            kernel(&mut state);
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn random_world(nodes: usize) -> (Tree, RateVector) {
    let mut rng = StdRng::seed_from_u64(nodes as u64);
    let tree = ww_topology::random_tree_of_depth(&mut rng, nodes, 12);
    let rates = ww_workload::random_uniform(&mut rng, &tree, 0.0, 100.0);
    (tree, rates)
}

/// `(ww-core.webfold_ns_per_node, ww-core.refold_us)`: a from-scratch
/// `webfold` on a 100k-node random tree, and the incremental
/// `on_join` + `refold_path` after one leaf joins under the deepest node.
pub fn fold() -> (f64, f64) {
    let nodes = 100_000;
    let (tree, rates) = random_world(nodes);
    let sweep = median_secs(
        || (),
        |()| {
            black_box(webfold(&tree, &rates));
        },
    );
    let parent = NodeId::new(tree.len() - 1);
    let mut grown_rates = rates.clone().into_inner();
    grown_rates.push(50.0);
    let grown_rates = RateVector::from(grown_rates);
    let refold = median_secs(
        || {
            let mut grown = tree.clone();
            let fold = IncrementalFold::new(&grown, &rates);
            let id = grown.add_leaf(parent).expect("the deepest node exists");
            (grown, fold, id)
        },
        |(grown, fold, id)| {
            fold.on_join(grown, *id);
            black_box(fold.refold_path(grown, &grown_rates));
        },
    );
    (sweep * 1e9 / nodes as f64, refold * 1e6)
}

/// Hold model: 100k events pending, then pop one and schedule one a
/// random delay ahead, `ops` times. Nanoseconds per pop+schedule pair.
fn hold_model<Q: SimQueue<u64> + Default>() -> f64 {
    let pending = 100_000;
    let ops = 1_000_000;
    let secs = median_secs(
        || {
            let mut q = Q::default();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..pending {
                let at = (xorshift(&mut x) % 1_000_000) as f64 * 1e-6;
                q.schedule(SimTime::from_secs(at), i);
            }
            (q, x)
        },
        |(q, x)| {
            for _ in 0..ops {
                let (t, ev) = q.pop().expect("the hold model never drains");
                let delay = (xorshift(x) % 1_000_000) as f64 * 1e-6;
                q.schedule(SimTime::from_secs(t.as_secs() + delay), ev);
            }
        },
    );
    secs * 1e9 / ops as f64
}

/// `(ww-sim.radix_ns_per_op, ww-sim.heap_ns_per_op)`.
pub fn queues() -> (f64, f64) {
    (
        hold_model::<RadixQueue<u64>>(),
        hold_model::<EventQueue<u64>>(),
    )
}

/// `ww-sim.timer_ring_ns_per_fire`: `TimerRing::pop` + `rearm` with 100k
/// phase-staggered members.
pub fn timer_ring() -> f64 {
    let members = 100_000;
    let fires = 2_000_000u64;
    let secs = median_secs(
        || {
            let mut ring = TimerRing::new(SimTime::from_secs(1.0), members);
            for m in 0..members {
                let phase = m as f64 / members as f64;
                ring.insert(m, SimTime::from_secs(phase), m as u64);
            }
            ring
        },
        |ring| {
            for seq in 0..fires {
                let (_, member) = ring.pop().expect("periodic timers never drain");
                ring.rearm(member, members as u64 + seq);
            }
        },
    );
    secs * 1e9 / fires as f64
}

/// `ww-cache.meter_ns_per_record`: `DenseFlowTable::record` on a
/// 64-row × 16-document grid while the clock advances through windows.
pub fn flow_meter() -> f64 {
    let records = 5_000_000u64;
    let secs = median_secs(
        || {
            (
                DenseFlowTable::new(1.0, 0.5, 64, 16),
                0x2545_F491_4F6C_DD1Du64,
            )
        },
        |(table, x)| {
            for i in 0..records {
                let r = xorshift(x);
                table.record((r % 64) as usize, ((r >> 8) % 16) as u32, i as f64 * 1e-5);
            }
            black_box(table.row_total(0));
        },
    );
    secs * 1e9 / records as f64
}

/// `ww-net.bloom_ns_per_lookup`: `CountingBloomFilter::matches`, half
/// the lookups hits.
pub fn bloom() -> f64 {
    let lookups = 2_000_000u64;
    let secs = median_secs(
        || {
            let mut filter = CountingBloomFilter::for_capacity(64);
            for d in 0..64 {
                filter.insert(DocId::new(d));
            }
            (filter, 0x2545_F491_4F6C_DD1Du64)
        },
        |(filter, x)| {
            let mut hits = 0u64;
            for _ in 0..lookups {
                hits += u64::from(filter.matches(DocId::new(xorshift(x) % 128)));
            }
            black_box(hits);
        },
    );
    secs * 1e9 / lookups as f64
}

/// `(ww-pdes.partition_ms, ww-pdes.rebalance_plan_ms)` on `k_ary(2, 16)`
/// (131,071 nodes), four shards, one quarter-subtree fifty times hotter.
pub fn partition() -> (f64, f64) {
    let tree = ww_topology::k_ary(2, 16);
    let partition_s = median_secs(
        || (),
        |()| {
            black_box(partition_subtrees(&tree, 4));
        },
    );
    let partition = partition_subtrees(&tree, 4);
    let mut node_events = vec![1u64; tree.len()];
    for u in tree.subtree_nodes(NodeId::new(3)) {
        node_events[u.index()] = 50;
    }
    let plan_s = median_secs(
        || (),
        |()| {
            black_box(rebalance_plan(&tree, &partition, &node_events));
        },
    );
    (partition_s * 1e3, plan_s * 1e3)
}

fn gossip_wire(i: u64) -> Wire {
    Wire::Event {
        at: SimTime::from_secs(i as f64 * 1e-6),
        counter: i,
        ev: PacketEvent::GossipDeliver {
            to: NodeId::new((i % 1000) as usize),
            from: NodeId::new((i % 997) as usize),
            load: i as f64,
        },
    }
}

/// Nanoseconds per message through the SPSC ring on one thread:
/// `window` messages staged, one `commit`, `window` pops.
fn spsc_window(window: u64) -> f64 {
    let msgs = 4_000_000u64;
    let secs = median_secs(
        || spsc::ring::<Wire>(4096),
        |(tx, rx)| {
            let mut i = 0;
            while i < msgs {
                for k in 0..window {
                    tx.stage(gossip_wire(i + k))
                        .unwrap_or_else(|_| panic!("a window fits the ring"));
                }
                tx.commit();
                for _ in 0..window {
                    black_box(rx.pop());
                }
                i += window;
            }
        },
    );
    secs * 1e9 / msgs as f64
}

/// `(spsc.ns_per_msg_w1, spsc.ns_per_msg_w64)`.
pub fn spsc_ring() -> (f64, f64) {
    (spsc_window(1), spsc_window(64))
}

/// `(ww-dist.encode_mb_s, ww-dist.decode_mb_s)` over a batch of event
/// wires: `encode_msg` into one buffer; `FrameBuffer::feed` in 64 KiB
/// reads + `next_msg` until drained.
pub fn codec() -> (f64, f64) {
    let batch: Vec<Msg> = (0..200_000).map(|i| Msg::Wire(gossip_wire(i))).collect();
    let mut encoded = Vec::new();
    for msg in &batch {
        encode_msg(msg, &mut encoded);
    }
    let mb = encoded.len() as f64 / 1e6;
    let encode_s = median_secs(
        || Vec::with_capacity(encoded.len()),
        |out| {
            for msg in &batch {
                encode_msg(msg, out);
            }
            black_box(out.len());
        },
    );
    let decode_s = median_secs(FrameBuffer::new, |frames| {
        let mut decoded = 0usize;
        for chunk in encoded.chunks(64 * 1024) {
            frames.feed(chunk);
            while let Some(msg) = frames.next_msg().expect("own encoding decodes") {
                black_box(&msg);
                decoded += 1;
            }
        }
        assert_eq!(decoded, batch.len(), "every frame decodes");
    });
    (mb / encode_s, mb / decode_s)
}

/// `ww-core.ratewave_ns_per_node_round`: `RateWave::step` on 100k nodes.
pub fn rate_wave() -> f64 {
    let nodes = 100_000;
    let rounds = 10;
    let (tree, rates) = random_world(nodes);
    let secs = median_secs(
        || RateWave::new(&tree, &rates, WaveConfig::default()),
        |wave| {
            for _ in 0..rounds {
                wave.step();
            }
        },
    );
    secs * 1e9 / (nodes * rounds) as f64
}

/// `(ww-scenario.json_parse_us, ww-scenario.resolve_ms)`:
/// `ScenarioSpec::from_json` on `scenarios/packet_churn_storm.json`, then
/// `Runner::resolve` of the parsed spec into an engine.
pub fn scenario() -> Result<(f64, f64), String> {
    let spec = ScenarioSpec::from_json(CHURN_STORM_SPEC).map_err(|e| e.to_string())?;
    let parses = 200;
    let parse_s = median_secs(
        || (),
        |()| {
            for _ in 0..parses {
                black_box(ScenarioSpec::from_json(black_box(CHURN_STORM_SPEC)).is_ok());
            }
        },
    );
    let runner = Runner::new();
    runner.resolve(&spec).map_err(|e| e.to_string())?;
    let resolve_s = median_secs(
        || (),
        |()| {
            black_box(runner.resolve(&spec).is_ok());
        },
    );
    Ok((parse_s * 1e6 / parses as f64, resolve_s * 1e3))
}
