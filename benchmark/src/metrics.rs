//! The metric tables, in the order `BENCHMARK.json` lists them. The
//! contract test checks the two agree.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The four end-to-end metrics, measured on every workload.
/// [`crate::measure::Measurement::end_to_end`] returns values in this
/// order.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "tlb_distance",
        unit: "req/s",
        better: Better::Lower,
        bound: 0.20,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric the traced run reports. A metric of a layer
/// the traced workload's engine does not have reads 0.
pub const PER_LAYER: [PerLayer; 55] = [
    layer("setup.topology_s", "s", Lower),
    layer("setup.workload_s", "s", Lower),
    layer("setup.engine_new_s", "s", Lower),
    layer("run.epoch_ms", "ms", Lower),
    layer("run.epoch_p90_ms", "ms", Lower),
    layer("alloc.count_per_kevent", "count", Lower),
    layer("alloc.bytes_per_event", "B", Lower),
    layer("pdes.epoch_compute_s", "s", Lower),
    layer("pdes.barrier_wait_s", "s", Lower),
    layer("pdes.wait_share", "%", Lower),
    layer("pdes.promises_per_kevent", "count", Lower),
    layer("pdes.merge_stalls_per_kevent", "count", Lower),
    layer("pdes.overflow_parks", "count", Lower),
    layer("pdes.ring_occupancy_hw", "count", Lower),
    layer("pdes.queue_depth_hw", "count", Lower),
    layer("pdes.imbalance", "ratio", Lower),
    layer("pdes.rebalance_applied", "count", Lower),
    layer("pdes.nodes_migrated", "count", Lower),
    layer("pdes.static_events_per_s", "events/s", Higher),
    layer("pdes.speedup_vs_seq", "ratio", Higher),
    layer("dist.handshake_ms", "ms", Lower),
    layer("dist.epoch_rtt_us", "us", Lower),
    layer("dist.apply_rtt_us", "us", Lower),
    layer("dist.bytes_per_event", "B", Lower),
    layer("dist.shutdown_ms", "ms", Lower),
    layer("barrier.apply_ms", "ms", Lower),
    layer("barrier.ops_per_s", "1/s", Higher),
    layer("core.refolds", "count", Lower),
    layer("core.full_sweeps", "count", Lower),
    layer("core.surgery_removed", "count", Lower),
    layer("core.arrival_rebuild_s", "s", Lower),
    layer("core.oracle_refresh_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.driver_self_ms", "ms", Lower),
    layer("host.chase_ns", "ns", Lower),
    layer("host.calib_ns", "ns", Lower),
    layer("host.fast_share", "ratio", Higher),
    layer("ww-core.webfold_ns_per_node", "ns", Lower),
    layer("ww-core.refold_us", "us", Lower),
    layer("ww-core.ratewave_ns_per_node_round", "ns", Lower),
    layer("ww-sim.radix_ns_per_op", "ns", Lower),
    layer("ww-sim.heap_ns_per_op", "ns", Lower),
    layer("ww-sim.timer_ring_ns_per_fire", "ns", Lower),
    layer("ww-cache.meter_ns_per_record", "ns", Lower),
    layer("ww-net.bloom_ns_per_lookup", "ns", Lower),
    layer("ww-pdes.partition_ms", "ms", Lower),
    layer("ww-pdes.rebalance_plan_ms", "ms", Lower),
    layer("spsc.ns_per_msg_w1", "ns", Lower),
    layer("spsc.ns_per_msg_w64", "ns", Lower),
    layer("ww-dist.encode_mb_s", "MB/s", Higher),
    layer("ww-dist.decode_mb_s", "MB/s", Higher),
    layer("ww-scenario.json_parse_us", "us", Lower),
    layer("ww-scenario.resolve_ms", "ms", Lower),
    layer("run.events_per_s_traced", "events/s", Higher),
    layer("run.events_per_s_raw", "events/s", Higher),
];
