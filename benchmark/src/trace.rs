//! The traced run of one workload: three repetitions with telemetry at
//! `Level::Full`, allocation counting and spans, interleaved with three
//! untraced ones (their difference is the tracing overhead), then the
//! attribution twins and the isolated probes.

use crate::host::{self, Chase};
use crate::measure::guarded;
use crate::metrics::PER_LAYER;
use crate::probes;
use crate::rep::{EngineChoice, Ops, RepResult, RepSpec};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::worlds::{Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use ww_telemetry::Snapshot;

const TRACED_REPS: usize = 3;
const TWIN_REPS: usize = 2;

#[derive(Debug)]
pub struct TraceOutcome {
    pub ops: Ops,
    pub correct: bool,
    /// One value per [`PER_LAYER`] entry, in that order.
    pub values: Vec<f64>,
    /// Per span name: count, total seconds, self seconds.
    pub self_times: BTreeMap<&'static str, (u64, f64, f64)>,
    pub span_file: PathBuf,
}

/// Where span files go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The per-layer values by name. Every metric starts at 0, which is what
/// a layer the traced workload's engine does not have reports.
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn new() -> Self {
        Values(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    fn in_table_order(&self) -> Vec<f64> {
        PER_LAYER.iter().map(|m| self.0[m.name]).collect()
    }
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn phase_s(snap: &Snapshot, name: &str) -> f64 {
    snap.phase(name).map_or(0.0, |p| p.ns as f64 / 1e9)
}

/// Mean of a latency histogram in microseconds (0 when empty).
fn hist_mean_us(snap: &Snapshot, name: &str) -> f64 {
    snap.hists
        .iter()
        .find(|(n, _)| n == name)
        .filter(|(_, h)| h.count > 0)
        .map_or(0.0, |(_, h)| h.sum_ns as f64 / h.count as f64 / 1e3)
}

/// Median over repetitions of one derived quantity.
fn med(reps: &[RepResult], f: impl Fn(&RepResult) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// What the traced repetitions themselves say: spans, allocation counts
/// and each engine's `telemetry_snapshot()`.
fn engine_layers(v: &mut Values, workload: Workload, traced: &[RepResult], plain: &[RepResult]) {
    let traced_eps = med(traced, RepResult::events_per_s);
    v.set("run.events_per_s_traced", traced_eps);
    v.set(
        "run.events_per_s_raw",
        med(plain, RepResult::raw_events_per_s),
    );
    v.set(
        "trace.overhead_pct",
        (1.0 - traced_eps / med(plain, RepResult::events_per_s)) * 100.0,
    );

    v.set("setup.topology_s", med(traced, |r| r.setup_parts_s[0]));
    v.set("setup.workload_s", med(traced, |r| r.setup_parts_s[1]));
    v.set("setup.engine_new_s", med(traced, |r| r.setup_parts_s[2]));

    let epochs_ms: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.run_calls_s.iter().map(|s| s * 1e3))
        .collect();
    v.set("run.epoch_ms", median(&epochs_ms));
    v.set("run.epoch_p90_ms", percentile(&epochs_ms, 90.0));

    let per_event = |count: f64, r: &RepResult| count / r.events as f64;
    v.set(
        "alloc.count_per_kevent",
        med(traced, |r| per_event(r.allocs.0 as f64 * 1e3, r)),
    );
    v.set(
        "alloc.bytes_per_event",
        med(traced, |r| per_event(r.allocs.1 as f64, r)),
    );

    let snap_counter = |name: &'static str| med(traced, |r| counter(&r.snapshot, name));
    let snap_phase_s = |name: &'static str| med(traced, |r| phase_s(&r.snapshot, name));
    let per_kevent =
        |name: &'static str| med(traced, |r| per_event(counter(&r.snapshot, name) * 1e3, r));

    let compute = snap_phase_s("pdes.phase.epoch_compute");
    let wait = snap_phase_s("pdes.phase.barrier_wait");
    v.set("pdes.epoch_compute_s", compute);
    v.set("pdes.barrier_wait_s", wait);
    if compute + wait > 0.0 {
        v.set("pdes.wait_share", wait / (compute + wait) * 100.0);
    }
    v.set("pdes.promises_per_kevent", per_kevent("pdes.promises.sent"));
    v.set(
        "pdes.merge_stalls_per_kevent",
        per_kevent("pdes.merge.stalls"),
    );
    v.set(
        "pdes.overflow_parks",
        med(traced, |r| r.overflow_parks as f64),
    );
    v.set(
        "pdes.ring_occupancy_hw",
        snap_counter("pdes.ring.occupancy.high_water"),
    );
    v.set(
        "pdes.queue_depth_hw",
        snap_counter("pdes.queue.depth.high_water"),
    );
    if workload.workers() > 1 {
        v.set("pdes.imbalance", med(traced, |r| r.imbalance));
    }
    v.set(
        "pdes.rebalance_applied",
        snap_counter("pdes.rebalance.applied"),
    );
    v.set(
        "pdes.nodes_migrated",
        snap_counter("pdes.rebalance.nodes_migrated"),
    );

    v.set("dist.handshake_ms", snap_counter("dist.handshake_ns") / 1e6);
    v.set(
        "dist.epoch_rtt_us",
        med(traced, |r| hist_mean_us(&r.snapshot, "dist.epoch_rtt")),
    );
    v.set(
        "dist.apply_rtt_us",
        med(traced, |r| hist_mean_us(&r.snapshot, "dist.apply_rtt")),
    );
    v.set(
        "dist.bytes_per_event",
        med(traced, |r| {
            let bytes = counter(&r.snapshot, "dist.bytes.sent")
                + counter(&r.snapshot, "dist.bytes.received");
            per_event(bytes, r)
        }),
    );
    if workload == Workload::DistCdnW2 {
        v.set("dist.shutdown_ms", med(traced, |r| r.shutdown_s * 1e3));
    }

    let applies_ms: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.apply_calls_s.iter().map(|s| s * 1e3))
        .collect();
    if !applies_ms.is_empty() {
        v.set("barrier.apply_ms", median(&applies_ms));
        v.set(
            "barrier.ops_per_s",
            med(traced, |r| {
                r.barrier_ops as f64 / r.apply_calls_s.iter().sum::<f64>()
            }),
        );
    }
    v.set("core.refolds", snap_counter("core.oracle.refolds"));
    v.set("core.full_sweeps", snap_counter("core.oracle.full_sweeps"));
    v.set("core.surgery_removed", snap_counter("core.surgery.removed"));
    v.set(
        "core.arrival_rebuild_s",
        snap_phase_s("core.phase.arrival_rebuild"),
    );
    v.set(
        "core.oracle_refresh_s",
        snap_phase_s("core.phase.oracle_refresh"),
    );
}

/// The isolated probes: fixed inputs, independent of the workload.
fn probe_layers(v: &mut Values) -> Result<(), String> {
    let (webfold_ns, refold_us) = probes::fold();
    v.set("ww-core.webfold_ns_per_node", webfold_ns);
    v.set("ww-core.refold_us", refold_us);
    v.set("ww-core.ratewave_ns_per_node_round", probes::rate_wave());
    let (radix, heap) = probes::queues();
    v.set("ww-sim.radix_ns_per_op", radix);
    v.set("ww-sim.heap_ns_per_op", heap);
    v.set("ww-sim.timer_ring_ns_per_fire", probes::timer_ring());
    v.set("ww-cache.meter_ns_per_record", probes::flow_meter());
    v.set("ww-net.bloom_ns_per_lookup", probes::bloom());
    let (partition_ms, plan_ms) = probes::partition();
    v.set("ww-pdes.partition_ms", partition_ms);
    v.set("ww-pdes.rebalance_plan_ms", plan_ms);
    let (w1, w64) = probes::spsc_ring();
    v.set("spsc.ns_per_msg_w1", w1);
    v.set("spsc.ns_per_msg_w64", w64);
    let (encode, decode) = probes::codec();
    v.set("ww-dist.encode_mb_s", encode);
    v.set("ww-dist.decode_mb_s", decode);
    let (parse_us, resolve_ms) = probes::scenario()?;
    v.set("ww-scenario.json_parse_us", parse_us);
    v.set("ww-scenario.resolve_ms", resolve_ms);
    Ok(())
}

pub fn trace(workload: Workload, scale: Scale, seed: u64) -> TraceOutcome {
    let mut ops = Ops::default();
    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let mut chase = Chase::new();
    let spec = RepSpec {
        workload,
        scale,
        seed,
        choice: EngineChoice::Native,
        traced: false,
    };
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    let mut calib = Vec::new();
    for _ in 0..TRACED_REPS {
        calib.push(host::calibrate_ns());
        let with = guarded(
            RepSpec {
                traced: true,
                ..spec
            },
            &mut tracer,
            Some(&mut chase),
            &mut ops,
        );
        calib.push(host::calibrate_ns());
        let without = guarded(spec, &mut quiet, Some(&mut chase), &mut ops);
        let (Some(with), Some(without)) = (with, without) else {
            break;
        };
        let same = (with.digest == without.digest)
            .then_some(())
            .ok_or("traced and untraced digests differ");
        ops.check("digest comparison", same);
        traced.push(with);
        plain.push(without);
    }
    let complete = traced.len() == TRACED_REPS && ops.failed == 0;

    let mut v = Values::new();
    if complete {
        engine_layers(&mut v, workload, &traced, &plain);
        let chase_ns: Vec<f64> = traced
            .iter()
            .chain(&plain)
            .flat_map(|r| r.chase_ns.iter().copied())
            .collect();
        v.set("host.chase_ns", median(&chase_ns));
    }
    // Attribution for ROADMAP item 2: the same world with the rebalancer
    // off, and on the sequential engine.
    if complete && workload == Workload::ParSkewW2 {
        let mut twin = |choice| {
            let reps: Vec<RepResult> = (0..TWIN_REPS)
                .filter_map(|_| {
                    let spec = RepSpec { choice, ..spec };
                    guarded(spec, &mut quiet, Some(&mut chase), &mut ops)
                })
                .collect();
            (reps.len() == TWIN_REPS && reps.iter().all(|r| r.digest == plain[0].digest))
                .then(|| med(&reps, RepResult::events_per_s))
        };
        match (twin(EngineChoice::ParStatic), twin(EngineChoice::SeqTwin)) {
            (Some(static_eps), Some(seq_eps)) => {
                v.set("pdes.static_events_per_s", static_eps);
                v.set(
                    "pdes.speedup_vs_seq",
                    med(&plain, RepResult::events_per_s) / seq_eps,
                );
            }
            _ => ops.fail("an attribution twin (failed, or its digest differs)"),
        }
    }

    let self_times = tracer.self_times();
    if let Some(&(count, _, own)) = self_times.get("repetition") {
        v.set("trace.driver_self_ms", own * 1e3 / count as f64);
    }
    v.set("host.calib_ns", median(&calib));
    v.set("host.fast_share", host::fast_share(&calib));
    if let Err(e) = probe_layers(&mut v) {
        ops.fail(&format!("scenario probe: {e}"));
    }

    let span_file = out_dir().join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) = tracer.write_jsonl(&span_file) {
        ops.fail(&format!("writing {}: {e}", span_file.display()));
    }

    TraceOutcome {
        correct: complete && ops.failed == 0,
        ops,
        values: v.in_table_order(),
        self_times,
        span_file,
    }
}
