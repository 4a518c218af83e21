//! The untraced measurement of one workload in this process: a warm-up
//! repetition, the peak resident set, the digest reference, then `R`
//! timed repetitions of identical work.

use crate::host::{self, Chase};
use crate::rep::{repetition, EngineChoice, Ops, RepResult, RepSpec};
use crate::spans::Tracer;
use crate::stats::trimmed_mean;
use crate::worlds::{Scale, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Measurement {
    pub workload: Workload,
    pub ops: Ops,
    /// No failed operation: every call returned `Ok`, nothing panicked,
    /// every digest and `tlb_distance` equal bit for bit.
    pub correct: bool,
    /// One sample per timed repetition.
    pub setup_s: Vec<f64>,
    /// Scaled to the reference memory latency (see
    /// [`RepResult::events_per_s`]).
    pub events_per_s: Vec<f64>,
    /// As timed, for the reader; not a metric.
    pub raw_events_per_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub tlb_distance: f64,
    pub digest: u64,
    pub events: u64,
    /// Share of repetition drive time spent in `apply_all`.
    pub barrier_share: f64,
    /// Mean memory-latency reading of each timed repetition.
    pub chase_ns: Vec<f64>,
    /// Wall clock of the timed repetitions together.
    pub timed_s: f64,
}

impl Measurement {
    /// The reported value of each end-to-end metric, in
    /// [`crate::metrics::END_TO_END`] order.
    pub fn end_to_end(&self) -> [f64; 4] {
        [
            trimmed_mean(&self.setup_s),
            trimmed_mean(&self.events_per_s),
            self.peak_rss_mb,
            self.tlb_distance,
        ]
    }
}

/// A repetition with panics caught at this boundary: a panic is one
/// failed operation and no result.
pub fn guarded(
    spec: RepSpec,
    tracer: &mut Tracer,
    chase: Option<&mut Chase>,
    ops: &mut Ops,
) -> Option<RepResult> {
    match catch_unwind(AssertUnwindSafe(|| repetition(spec, tracer, chase))) {
        Ok(result) => {
            ops.add(result.ops);
            (result.ops.failed == 0).then_some(result)
        }
        Err(_) => {
            ops.fail("a repetition (panicked)");
            None
        }
    }
}

/// The engine whose digest the workload's own must equal, where the
/// determinism invariants promise one: distributed == sequential and
/// parallel == sequential. The other two workloads are checked against
/// their own fresh re-runs.
fn reference_choice(workload: Workload) -> Option<EngineChoice> {
    match workload {
        Workload::ParSkewW2 | Workload::DistCdnW2 => Some(EngineChoice::SeqTwin),
        Workload::SeqCdn | Workload::ChurnCdn => None,
    }
}

pub fn measure(workload: Workload, scale: Scale, seed: u64, reps: usize) -> Measurement {
    let mut tracer = Tracer::new(false);
    let mut ops = Ops::default();
    let spec = RepSpec {
        workload,
        scale,
        seed,
        choice: EngineChoice::Native,
        traced: false,
    };
    let mut m = Measurement {
        workload,
        ops,
        correct: false,
        setup_s: Vec::new(),
        events_per_s: Vec::new(),
        raw_events_per_s: Vec::new(),
        peak_rss_mb: 0.0,
        tlb_distance: 0.0,
        digest: 0,
        events: 0,
        barrier_share: 0.0,
        chase_ns: Vec::new(),
        timed_s: 0.0,
    };

    // Warm-up: page in the binary, grow the heap to its working size.
    let Some(warm) = guarded(spec, &mut tracer, None, &mut ops) else {
        m.ops = ops;
        return m;
    };
    // Read before the reference twin runs and the chase table exists, and
    // after one repetition only: the high-water mark creeps with further
    // repetitions.
    match host::peak_rss_mib() {
        Ok(mib) => m.peak_rss_mb = mib,
        Err(e) => ops.fail(&e),
    }
    m.digest = warm.digest;
    m.events = warm.events;
    m.tlb_distance = warm.tlb_distance;

    let same_digest = |what: &str, other: &RepResult| {
        if other.digest == warm.digest
            && other.tlb_distance.to_bits() == warm.tlb_distance.to_bits()
        {
            Ok(())
        } else {
            Err(format!(
                "{:016x} / {} against the {what}'s {:016x} / {}",
                warm.digest, warm.tlb_distance, other.digest, other.tlb_distance
            ))
        }
    };
    if let Some(choice) = reference_choice(workload) {
        if let Some(twin) = guarded(RepSpec { choice, ..spec }, &mut tracer, None, &mut ops) {
            ops.check("digest comparison", same_digest("sequential twin", &twin));
        }
    }

    let mut chase = Chase::new();
    let mut apply_s = 0.0;
    let mut drive_s = 0.0;
    let timed = Instant::now();
    for _ in 0..reps {
        let Some(rep) = guarded(spec, &mut tracer, Some(&mut chase), &mut ops) else {
            break;
        };
        ops.check("digest comparison", same_digest("timed repetition", &rep));
        m.setup_s.push(rep.setup_s());
        m.events_per_s.push(rep.events_per_s());
        m.raw_events_per_s.push(rep.raw_events_per_s());
        m.chase_ns
            .push(rep.chase_ns.iter().sum::<f64>() / rep.chase_ns.len() as f64);
        apply_s += rep.apply_calls_s.iter().sum::<f64>();
        drive_s += rep.drive_s();
    }
    m.timed_s = timed.elapsed().as_secs_f64();
    m.barrier_share = if drive_s > 0.0 {
        apply_s / drive_s
    } else {
        0.0
    };
    m.ops = ops;
    m.correct = ops.failed == 0 && m.setup_s.len() == reps;
    m
}
