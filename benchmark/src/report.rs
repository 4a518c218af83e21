//! What a one-workload process prints, and how the `run` / `trace` / `aa`
//! commands read it back: the last stdout line is the result object, and
//! the digest line carries what `run` and `aa` compare across workloads.

use crate::measure::Measurement;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::rep::Ops;
use crate::stats::{quartiles, trimmed_mean};
use crate::trace::TraceOutcome;
use serde_json::{Map, Value};
use std::fmt::Write;

const DIGEST_PREFIX: &str = "  output digest ";

/// The result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(correct: bool, ops: Ops, metrics: &[(&str, &str, f64)]) -> String {
    let mut by_name = Map::new();
    for &(name, unit, value) in metrics {
        let mut m = Map::new();
        m.insert("value", Value::Number(value));
        m.insert("unit", Value::String(unit.to_string()));
        by_name.insert(name, Value::Object(m));
    }
    let mut root = Map::new();
    root.insert("correct", Value::Bool(correct));
    root.insert("attempted", Value::Number(ops.attempted as f64));
    root.insert("failed", Value::Number(ops.failed as f64));
    root.insert("metrics", Value::Object(by_name));
    serde_json::to_string(&Value::Object(root))
}

fn failure_line(ops: Ops) -> String {
    format!(
        "  operations attempted {}, failed {} ({:.2} %)",
        ops.attempted,
        ops.failed,
        100.0 * ops.failed as f64 / ops.attempted.max(1) as f64
    )
}

/// Everything the untraced run of one workload prints.
pub fn render_measurement(m: &Measurement, seed: u64) -> String {
    let mut out = String::new();
    let reps = m.setup_s.len();
    writeln!(
        out,
        "workload {}  seed {seed}  R {reps}  timed part {:.1} s  events/repetition {}",
        m.workload.name(),
        m.timed_s,
        m.events
    )
    .unwrap();
    writeln!(out, "{DIGEST_PREFIX}{:016x}", m.digest).unwrap();
    if reps > 0 {
        writeln!(
            out,
            "  {:<14} {:<9} {:>5}  {:>14} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "bound", "value", "median", "q1", "q3", "R"
        )
        .unwrap();
        let values = m.end_to_end();
        let samples: [&[f64]; 4] = [&m.setup_s, &m.events_per_s, &[], &[]];
        for ((metric, value), samples) in END_TO_END.iter().zip(values).zip(samples) {
            // Timings are trimmed means of R samples; memory and distance
            // are single exact readings.
            let (q1, q2, q3, n) = if samples.is_empty() {
                (value, value, value, 1)
            } else {
                debug_assert_eq!(value, trimmed_mean(samples));
                let (q1, q2, q3) = quartiles(samples);
                (q1, q2, q3, samples.len())
            };
            writeln!(
                out,
                "  {:<14} {:<9} {:>4.0}%  {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                metric.name,
                metric.unit,
                metric.bound * 100.0,
                value,
                q2,
                q1,
                q3,
                n
            )
            .unwrap();
        }
        writeln!(
            out,
            "  events_per_s as timed (not scaled to the {:.0} ns reference chase): {:.0}; chase median {:.1} ns",
            crate::host::REFERENCE_CHASE_NS,
            trimmed_mean(&m.raw_events_per_s),
            crate::stats::median(&m.chase_ns)
        )
        .unwrap();
        writeln!(
            out,
            "  per repetition: setup_s, events/s as timed, mean chase ns, events/s scaled"
        )
        .unwrap();
        for i in 0..reps {
            writeln!(
                out,
                "    {:>2} {:>9.4} {:>10.0} {:>6.1} {:>10.0}",
                i + 1,
                m.setup_s[i],
                m.raw_events_per_s[i],
                m.chase_ns[i],
                m.events_per_s[i]
            )
            .unwrap();
        }
        if m.barrier_share > 0.0 {
            writeln!(
                out,
                "  barriers are {:.0} % of drive time",
                m.barrier_share * 100.0
            )
            .unwrap();
        }
        if m.workload.workers() > 1 {
            writeln!(out, "  engine workers {}", m.workload.workers()).unwrap();
        }
        if m.workload == crate::worlds::Workload::DistCdnW2 {
            writeln!(
                out,
                "  shard traffic crossed the loopback interface (TCP, 127.0.0.1)"
            )
            .unwrap();
        }
    }
    writeln!(out, "{}", failure_line(m.ops)).unwrap();
    writeln!(
        out,
        "  {}",
        if m.correct {
            "outputs correct"
        } else {
            "OUTPUTS NOT CORRECT"
        }
    )
    .unwrap();
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(m.end_to_end())
        .map(|(e, v)| (e.name, e.unit, v))
        .collect();
    out.push_str(&result_line(m.correct, m.ops, &metrics));
    out
}

/// Everything the traced run of one workload prints.
pub fn render_trace(t: &TraceOutcome, workload: &str, seed: u64) -> String {
    let mut out = String::new();
    writeln!(out, "traced workload {workload}  seed {seed}").unwrap();
    for (metric, value) in PER_LAYER.iter().zip(&t.values) {
        writeln!(out, "  {:<36} {:>16.4} {}", metric.name, value, metric.unit).unwrap();
    }
    writeln!(out, "  spans (count, total s, self s):").unwrap();
    for (name, (count, total, own)) in &t.self_times {
        writeln!(out, "    {name:<18} {count:>4} {total:>10.4} {own:>10.4}").unwrap();
    }
    writeln!(out, "  spans written to {}", t.span_file.display()).unwrap();
    writeln!(out, "{}", failure_line(t.ops)).unwrap();
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .zip(&t.values)
        .map(|(m, &v)| (m.name, m.unit, v))
        .collect();
    out.push_str(&result_line(t.correct, t.ops, &metrics));
    out
}

/// A one-workload process's output, read back.
#[derive(Debug, Clone)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    pub digest: Option<String>,
}

impl ChildResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

pub fn parse_child(stdout: &str) -> Result<ChildResult, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let root = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let root = root.as_object().ok_or("result line is not an object")?;
    let field = |key: &str| {
        root.get(key)
            .ok_or_else(|| format!("result line lacks {key}"))
    };
    let mut metrics = Vec::new();
    for (name, m) in field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
    {
        let value = m
            .as_object()
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric {name} has no value"))?;
        metrics.push((name.to_string(), value));
    }
    Ok(ChildResult {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
        digest: stdout
            .lines()
            .find_map(|l| l.strip_prefix(DIGEST_PREFIX))
            .map(str::to_string),
    })
}
