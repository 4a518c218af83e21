//! `BENCHMARK.json` and the binary describe the same benchmark, and
//! `run --smoke` prints every name in it.

use serde_json::Value;
use std::process::Command;
use std::time::{Duration, Instant};
use ww_sysbench::metrics::{END_TO_END, PER_LAYER};
use ww_sysbench::report::parse_child;
use ww_sysbench::worlds::{Workload, NOMINAL_SECONDS};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const BIN: &str = env!("CARGO_BIN_EXE_ww-sysbench");

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn entries<'a>(root: &'a Value, key: &str) -> &'a [Value] {
    root.as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the list {key}"))
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("an entry lacks the string {key}"))
}

#[test]
fn benchmark_json_agrees_with_the_metric_and_workload_tables() {
    let root = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = root.as_object().expect("an object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let run_seconds = root
        .as_object()
        .unwrap()
        .get("run_seconds")
        .unwrap()
        .as_f64();
    assert_eq!(run_seconds, Some(NOMINAL_SECONDS as f64));

    let workloads = entries(&root, "workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(text(entry, "name"), workload.name());
        assert!(valid_name(workload.name()));
        let why = text(entry, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let end_to_end = entries(&root, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, metric) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit);
        assert_eq!(text(entry, "better"), metric.better.as_str());
        let bound = entry.as_object().unwrap().get("bound").unwrap().as_f64();
        assert_eq!(bound, Some(metric.bound));
        assert!(valid_name(metric.name));
        assert!(metric.bound > 0.0 && metric.bound <= 0.25);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let per_layer = entries(&root, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (entry, metric) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit);
        assert_eq!(text(entry, "better"), metric.better.as_str());
        assert!(valid_name(metric.name), "{}", metric.name);
        // The repo's own dotted-path scheme (docs/observability.md) too.
        assert!(
            ww_telemetry::valid_metric_key(metric.name),
            "{}",
            metric.name
        );
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");
}

#[test]
fn run_smoke_prints_every_workload_and_metric_within_twenty_seconds() {
    let start = Instant::now();
    let output = Command::new(BIN)
        .args(["run", "--seed", "7", "--smoke"])
        .output()
        .expect("the binary starts");
    let took = start.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "run --smoke failed:\n{stdout}");
    for workload in Workload::ALL {
        assert!(
            stdout.contains(workload.name()),
            "{} not printed",
            workload.name()
        );
    }
    for metric in END_TO_END {
        assert!(stdout.contains(metric.name), "{} not printed", metric.name);
    }
    assert!(stdout.contains("failed 0"));
    assert!(stdout.contains("outputs correct"));
    assert!(took < Duration::from_secs(20), "run --smoke took {took:?}");
}

#[test]
fn one_workload_prints_the_contract_result_line() {
    for (trace, expected) in [("0", END_TO_END.len()), ("1", PER_LAYER.len())] {
        let output = Command::new(BIN)
            .args(["--workload", "churn_cdn", "--seed", "9", "--seconds", "1"])
            .args(["--trace", trace, "--smoke"])
            .output()
            .expect("the binary starts");
        assert!(output.status.success());
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().expect("output");
        let root = serde_json::from_str(last).expect("the last line is JSON");
        let keys: Vec<&str> = root.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let result = parse_child(&stdout).expect("parses");
        assert!(result.correct && result.failed == 0 && result.attempted >= 1);
        assert_eq!(result.metrics.len(), expected);
        for (name, value) in &result.metrics {
            assert!(value.is_finite(), "{name} is not finite");
        }
    }
}

#[test]
fn a_bad_command_line_is_refused() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["run"][..],
        &["--seed", "1"][..],
        &["--workload", "seq_cdn", "--seed", "1", "--trace", "2"][..],
    ] {
        let output = Command::new(BIN)
            .args(args)
            .output()
            .expect("the binary starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty());
    }
}
