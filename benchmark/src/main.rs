//! `ww-sysbench` command line. With `--workload` it measures that one
//! workload in this process (the form `BENCHMARK.json`'s command takes);
//! `run`, `trace` and `aa` start one such process per workload.

use std::process::{Command, ExitCode, Stdio};
use ww_sysbench::measure::measure;
use ww_sysbench::metrics::{Better, END_TO_END};
use ww_sysbench::report::{parse_child, render_measurement, render_trace, ChildResult};
use ww_sysbench::trace::trace;
use ww_sysbench::worlds::{Scale, Workload, NOMINAL_SECONDS};

#[global_allocator]
static ALLOC: ww_sysbench::alloc::CountingAlloc = ww_sysbench::alloc::CountingAlloc;

const USAGE: &str = "usage:
  ww-sysbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
  ww-sysbench run   --seed <u64> [--seconds <n>] [--smoke]   every workload, end-to-end metrics
  ww-sysbench trace --seed <u64> [--smoke]                   every workload, per-layer metrics
  ww-sysbench aa    --seed <u64> [--seconds <n>] [--smoke]   two sets of runs of this binary, compared
workloads: seq_cdn par_skew_w2 dist_cdn_w2 churn_cdn";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Trace,
    Aa,
}

#[derive(Debug)]
struct Cli {
    command: Option<Mode>,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    scale: Scale,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: 0,
        seconds: NOMINAL_SECONDS,
        traced: false,
        scale: Scale::Full,
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "run" if cli.command.is_none() => cli.command = Some(Mode::Run),
            "trace" if cli.command.is_none() => cli.command = Some(Mode::Trace),
            "aa" if cli.command.is_none() => cli.command = Some(Mode::Aa),
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.scale = Scale::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seed_given {
        return Err("--seed is required".to_string());
    }
    match (cli.command, cli.workload) {
        (None, None) => return Err("name a command or a --workload".to_string()),
        (Some(_), Some(_)) => {
            return Err("a command runs every workload; drop --workload".to_string())
        }
        _ => {}
    }
    Ok(cli)
}

/// Measures one workload in this process and prints its result.
fn one_workload(cli: &Cli, workload: Workload) -> ExitCode {
    let (text, correct) = if cli.traced {
        let t = trace(workload, cli.scale, cli.seed);
        (render_trace(&t, workload.name(), cli.seed), t.correct)
    } else {
        let reps = workload.reps(cli.seconds, cli.scale);
        let m = measure(workload, cli.scale, cli.seed, reps);
        (render_measurement(&m, cli.seed), m.correct)
    };
    println!("{text}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process (its own `VmHWM`, its own heap),
/// echoes what it printed for a reader, and returns what it measured.
fn child(cli: &Cli, workload: Workload, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if cli.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    let result = parse_child(&stdout).map_err(|e| format!("{}: {e}", workload.name()))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{}: exited with {} ({} of {} operations failed)",
            workload.name(),
            output.status,
            result.failed,
            result.attempted
        ));
    }
    Ok(result)
}

/// One child per workload, in order; `Err` as soon as one fails.
fn all_workloads(cli: &Cli, traced: bool) -> Result<Vec<ChildResult>, String> {
    Workload::ALL
        .into_iter()
        .map(|w| child(cli, w, traced))
        .collect()
}

fn operations(results: &[ChildResult]) -> String {
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    format!("operations attempted {attempted}, failed {failed}")
}

/// `distributed == sequential`: the two workloads share a world, so their
/// digests must be equal.
fn check_dist_equals_seq(results: &[ChildResult]) -> Result<(), String> {
    let digest = |w: Workload| results[w as usize].digest.clone();
    let (seq, dist) = (digest(Workload::SeqCdn), digest(Workload::DistCdnW2));
    if seq.is_some() && seq == dist {
        Ok(())
    } else {
        Err(format!(
            "dist_cdn_w2 digest {dist:?} differs from seq_cdn's {seq:?}"
        ))
    }
}

fn run(cli: &Cli) -> Result<(), String> {
    let results = all_workloads(cli, false)?;
    check_dist_equals_seq(&results)?;
    println!("summary, seed {}:", cli.seed);
    print!("  {:<14} {:<9} {:>5}", "metric", "unit", "bound");
    for w in Workload::ALL {
        print!(" {:>16}", w.name());
    }
    println!();
    for metric in END_TO_END {
        print!(
            "  {:<14} {:<9} {:>4.0}%",
            metric.name,
            metric.unit,
            metric.bound * 100.0
        );
        for r in &results {
            let value = r
                .metric(metric.name)
                .ok_or_else(|| format!("a child did not report {}", metric.name))?;
            print!(" {value:>16.4}");
        }
        println!();
    }
    println!("dist_cdn_w2 digest equals seq_cdn digest");
    println!("{}", operations(&results));
    println!("outputs correct");
    Ok(())
}

fn trace_all(cli: &Cli) -> Result<(), String> {
    let results = all_workloads(cli, true)?;
    println!("{}", operations(&results));
    println!("outputs correct");
    Ok(())
}

/// The A/A control: two full sets of runs of this same binary,
/// workloads alternating, each metric compared with its bound.
fn aa(cli: &Cli) -> Result<(), String> {
    let first = all_workloads(cli, false)?;
    let second = all_workloads(cli, false)?;
    check_dist_equals_seq(&first)?;
    check_dist_equals_seq(&second)?;
    println!("A/A control, seed {}: set B against set A", cli.seed);
    println!(
        "  {:<12} {:<14} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut outside = 0;
    for (w, (a, b)) in Workload::ALL.into_iter().zip(first.iter().zip(&second)) {
        let tlb = |r: &ChildResult| r.metric("tlb_distance").map(f64::to_bits);
        if a.digest != b.digest || tlb(a) != tlb(b) {
            return Err(format!(
                "{}: digest or tlb_distance differs between the two sets",
                w.name()
            ));
        }
        for metric in END_TO_END {
            let (va, vb) = match (a.metric(metric.name), b.metric(metric.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => return Err(format!("a child did not report {}", metric.name)),
            };
            let worse = match metric.better {
                Better::Lower => vb / va - 1.0,
                Better::Higher => va / vb - 1.0,
            };
            // Either set may be the worse one: same code, so both
            // directions are noise.
            let apart = (vb / va).max(va / vb) - 1.0;
            let ok = apart <= metric.bound;
            outside += usize::from(!ok);
            println!(
                "  {:<12} {:<14} {:>16.4} {:>16.4} {:>8.4} {:>5.0}%  {} (B worse by {:+.2} %)",
                w.name(),
                metric.name,
                va,
                vb,
                vb / va,
                metric.bound * 100.0,
                if ok { "within" } else { "OUTSIDE" },
                worse * 100.0
            );
        }
    }
    println!("every digest and tlb_distance repeated exactly");
    if outside > 0 {
        return Err(format!(
            "{outside} metric × workload pairs are outside their bound"
        ));
    }
    println!(
        "A/A passes: all {} pairs within their bounds",
        Workload::ALL.len() * END_TO_END.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ww-sysbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (cli.command, cli.workload) {
        (Some(Mode::Run), _) => run(&cli),
        (Some(Mode::Trace), _) => trace_all(&cli),
        (Some(Mode::Aa), _) => aa(&cli),
        (None, Some(workload)) => return one_workload(&cli, workload),
        (None, None) => unreachable!("parse_cli demands a command or a workload"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ww-sysbench: {e}");
            ExitCode::FAILURE
        }
    }
}
