//! Command-line experiment runner.
//!
//! Two modes:
//!
//! * **Spec mode** — `webwave-exp run <spec.json>... [--smoke]
//!   [--telemetry off|counters|full] [--trace-out <path>]` resolves
//!   each declarative scenario file through the unified
//!   `ww-scenario` Runner and prints its report. `--smoke` shrinks
//!   every spec to CI size first (same resolution and engine paths,
//!   seconds-scale budgets). `--telemetry` and `--trace-out` override
//!   the spec's `telemetry` block (observation only — no level changes
//!   simulated output). `webwave-exp list <dir>` lists the specs in a
//!   directory (default `scenarios/`).
//! * **Figure mode** — `webwave-exp [fig2|fig4|fig6a|fig6b|gamma|fig7|
//!   gle|baselines|erratic|throughput|forest|all]...` regenerates the
//!   paper's figures/tables (all engine-driven figures run through the
//!   same Runner). No selector means `all`; an unknown one prints the
//!   valid selectors and exits nonzero before any figure runs.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use webwave::experiments as exp;
use ww_scenario::{Runner, ScenarioSpec};
use ww_telemetry::Level;

/// A figure-mode selector and the runner that renders its report.
type Figure = (&'static str, fn() -> String);

/// The figure-mode selectors, in the order their reports print; `all`
/// selects every one.
const FIGURES: [Figure; 11] = [
    ("fig2", || exp::fig2().report),
    ("fig4", || exp::fig4().report),
    ("fig6a", || exp::fig6a().report),
    ("fig6b", || exp::fig6b(400).report),
    ("gamma", || {
        exp::gamma_study(&[3, 4, 5, 6, 7, 8, 9], 256, 600, 1997).report
    }),
    ("fig7", || exp::fig7(1500).report),
    ("gle", || exp::gle_study().report),
    ("baselines", || exp::baseline_study(1997).report),
    ("erratic", || exp::erratic_study(1997).report),
    ("throughput", || exp::throughput_study().report),
    ("forest", || exp::forest_study().report),
];

const RUN_USAGE: &str = "usage: webwave-exp run <spec.json>... [--smoke] \
     [--telemetry off|counters|full] [--trace-out <path>]";

/// Flags for spec mode, parsed out of the `run` argument tail.
struct RunFlags {
    paths: Vec<String>,
    smoke: bool,
    telemetry: Option<Level>,
    trace_out: Option<String>,
}

fn parse_run_flags(rest: &[String]) -> Result<RunFlags, String> {
    let mut flags = RunFlags {
        paths: Vec::new(),
        smoke: false,
        telemetry: None,
        trace_out: None,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => flags.smoke = true,
            "--telemetry" => {
                let value = it.next().ok_or("--telemetry requires a value")?;
                flags.telemetry = Some(Level::parse(value).ok_or_else(|| {
                    format!("--telemetry {value}: expected off, counters, or full")
                })?);
            }
            "--trace-out" => {
                let value = it.next().ok_or("--trace-out requires a value")?;
                flags.trace_out = Some(value.clone());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            _ => flags.paths.push(arg.clone()),
        }
    }
    Ok(flags)
}

fn run_specs(flags: &RunFlags) -> ExitCode {
    if flags.paths.is_empty() {
        eprintln!("{RUN_USAGE}");
        return ExitCode::FAILURE;
    }
    let runner = Runner::new().smoke(flags.smoke);
    let mut failed = false;
    for path in &flags.paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("webwave-exp: {path}: {e}");
                failed = true;
                continue;
            }
        };
        let mut spec = match ScenarioSpec::from_json(&text) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("webwave-exp: {path}: {e}");
                failed = true;
                continue;
            }
        };
        if let Some(level) = flags.telemetry {
            spec.telemetry.level = level;
        }
        if let Some(out) = &flags.trace_out {
            spec.telemetry.trace_out = Some(out.clone());
        }
        match runner.run(&spec) {
            Ok(report) => print!("{}", report.report),
            Err(e) => {
                eprintln!("webwave-exp: {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn list_specs(dir: &str) -> ExitCode {
    let mut entries: Vec<_> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            eprintln!("webwave-exp: {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    entries.sort();
    let mut invalid = false;
    for path in entries {
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| ScenarioSpec::from_json(&text).map_err(|e| e.to_string()))
        {
            Ok(spec) => {
                let sweep = match &spec.sweep {
                    Some(s) => format!(", sweep {} x{}", s.param.as_str(), s.values.len()),
                    None => String::new(),
                };
                println!(
                    "{}: {} (engine {}{})",
                    path.display(),
                    spec.name,
                    spec.engine.kind(),
                    sweep
                );
            }
            Err(e) => {
                invalid = true;
                println!("{}: INVALID — {e}", path.display());
            }
        }
    }
    if invalid {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    match args.first().map(String::as_str) {
        Some("run") => {
            let rest = &args[1..];
            return match parse_run_flags(rest) {
                Ok(flags) => run_specs(&flags),
                Err(e) => {
                    eprintln!("webwave-exp: {e}\n{RUN_USAGE}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("list") => {
            let dir = args.get(1).map(String::as_str).unwrap_or("scenarios");
            return list_specs(dir);
        }
        _ => {}
    }

    let wanted: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let known = |name: &str| name == "all" || FIGURES.iter().any(|(f, _)| *f == name);
    if let Some(unknown) = wanted.iter().find(|name| !known(name)) {
        let names: Vec<_> = FIGURES.iter().map(|(f, _)| *f).collect();
        eprintln!(
            "webwave-exp: unknown figure {unknown}; expected one of: {} all",
            names.join(" ")
        );
        return ExitCode::FAILURE;
    }
    let all = wanted.contains(&"all");
    for (name, run) in FIGURES {
        if all || wanted.contains(&name) {
            println!("{}", run());
        }
    }
    ExitCode::SUCCESS
}
