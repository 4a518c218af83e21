//! `webwave-dist` — the process entry points of a distributed
//! packet-level run.
//!
//! Three subcommands:
//!
//! * `worker --connect <addr>` — one shard. Dials the coordinator's
//!   control address (retrying while the coordinator is still coming
//!   up) and serves epochs until the run shuts down. This is the
//!   binary [`ww_dist::DistPacketSim`] spawns in process mode.
//! * `run --spec <path>` — coordinator with self-spawned workers.
//!   Resolves a `packet_sim_dist` scenario spec and drives it through
//!   the unified `Runner`, printing a canonical bit-exact report.
//! * `serve --spec <path> --listen <addr>` — coordinator for
//!   externally launched workers (CI, or an operator starting worker
//!   processes by hand, possibly on other machines): binds the given
//!   control address and waits for `worker --connect` peers.
//!
//! The canonical report prints every float as raw IEEE-754 bits, so
//! `diff` against a sequential `--sequential` run is the distributed
//! determinism check at the shell level:
//!
//! ```text
//! webwave-dist run --spec scenarios/dist_smoke.json > dist.txt
//! webwave-dist run --spec scenarios/dist_smoke.json --sequential > seq.txt
//! diff dist.txt seq.txt
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::{Duration, Instant};
use ww_dist::{run_worker, DistError, DistMode, DistOptions};
use ww_scenario::{EngineSpec, Runner, ScenarioSpec};
use ww_telemetry::Level;

const USAGE: &str = "\
webwave-dist — distributed WebWave packet runs over TCP

USAGE:
  webwave-dist worker --connect <addr>
  webwave-dist run    --spec <path> [--workers N] [--mode proc|thread]
                      [--sequential] [--smoke]
                      [--telemetry off|counters|full] [--trace-out <path>]
  webwave-dist serve  --spec <path> --listen <addr> [--workers N] [--smoke]
                      [--telemetry off|counters|full] [--trace-out <path>]

`run` and `serve` execute the spec unswept (the sweep, if any, is
dropped) and print a canonical report: every metric as raw IEEE-754
bits, identical bytes for a distributed and a sequential run of the
same spec. `--telemetry` and `--trace-out` override the spec's
`telemetry` block; telemetry is observation-only and never appears in
the canonical report. `run --mode proc` (the default) spawns one worker
process of this binary per worker; `--mode thread` runs the same worker
code on threads of the coordinator's process.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("worker") => cmd_worker(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            Ok(())
        }
        _ => Err(CliError::Usage("missing subcommand".into())),
    };
    match code {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("webwave-dist: {msg}\n\n{USAGE}");
            ExitCode::from(1)
        }
        Err(CliError::Run(msg)) => {
            eprintln!("webwave-dist: {msg}");
            ExitCode::from(2)
        }
    }
}

enum CliError {
    /// Bad command line — usage printed, exit 1.
    Usage(String),
    /// The run itself failed — exit 2.
    Run(String),
}

/// Pulls the value of `--flag` out of `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, CliError> {
    let mut found = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            match it.next() {
                Some(v) => found = Some(v.clone()),
                None => return Err(CliError::Usage(format!("{flag} needs a value"))),
            }
        }
    }
    Ok(found)
}

fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Rejects flags this subcommand does not know, so typos fail loudly
/// instead of silently running with defaults.
fn reject_unknown(
    args: &[String],
    known_valued: &[&str],
    known_bare: &[&str],
) -> Result<(), CliError> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if known_valued.contains(&a.as_str()) {
            it.next();
        } else if !known_bare.contains(&a.as_str()) {
            return Err(CliError::Usage(format!("unknown argument {a:?}")));
        }
    }
    Ok(())
}

/// `worker --connect <addr>`: serve one shard. Retries the initial
/// dial for up to 30 s, so workers may be launched before (or while)
/// the coordinator binds its control socket.
fn cmd_worker(args: &[String]) -> Result<(), CliError> {
    reject_unknown(args, &["--connect"], &[])?;
    let connect = flag_value(args, "--connect")?
        .ok_or_else(|| CliError::Usage("worker needs --connect <addr>".into()))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match run_worker(&connect) {
            Ok(()) => return Ok(()),
            // The coordinator is not listening yet: only the initial
            // connect can be refused on loopback, so retrying here
            // never replays a partially served run.
            Err(DistError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::AddrNotAvailable
                ) && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(CliError::Run(format!("worker failed: {e}"))),
        }
    }
}

/// Common spec plumbing for `run` and `serve`.
fn load_spec(args: &[String]) -> Result<ScenarioSpec, CliError> {
    let path =
        flag_value(args, "--spec")?.ok_or_else(|| CliError::Usage("needs --spec <path>".into()))?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| CliError::Run(format!("read {path}: {e}")))?;
    let mut spec =
        ScenarioSpec::from_json(&text).map_err(|e| CliError::Run(format!("parse {path}: {e}")))?;
    // One coordinated set of workers serves one run; a sweep would need
    // a fresh worker fleet per row, which only self-spawning modes
    // could provide. Keep both subcommands on the same contract.
    spec.sweep = None;
    if let Some(w) = flag_value(args, "--workers")? {
        let w: usize = w
            .parse()
            .map_err(|_| CliError::Usage(format!("--workers {w:?} is not a number")))?;
        match &mut spec.engine {
            EngineSpec::PacketSimDist { workers, .. } => *workers = w,
            other => {
                return Err(CliError::Run(format!(
                    "--workers applies to packet_sim_dist specs, not {}",
                    other.kind()
                )))
            }
        }
    }
    if let Some(level) = flag_value(args, "--telemetry")? {
        spec.telemetry.level = Level::parse(&level).ok_or_else(|| {
            CliError::Usage(format!(
                "--telemetry {level:?} (expected off, counters, or full)"
            ))
        })?;
    }
    if let Some(out) = flag_value(args, "--trace-out")? {
        spec.telemetry.trace_out = Some(out);
    }
    Ok(spec)
}

fn runner(args: &[String], options: DistOptions) -> Runner {
    let mut r = Runner::new().dist_options(options);
    if flag_present(args, "--smoke") {
        r = r.smoke(true);
    }
    r
}

/// `run --spec <path>`: coordinator with self-spawned workers (or the
/// sequential twin under `--sequential`).
fn cmd_run(args: &[String]) -> Result<(), CliError> {
    reject_unknown(
        args,
        &[
            "--spec",
            "--workers",
            "--mode",
            "--telemetry",
            "--trace-out",
        ],
        &["--sequential", "--smoke"],
    )?;
    let mut spec = load_spec(args)?;
    let mode = match flag_value(args, "--mode")?.as_deref() {
        None | Some("proc") => DistMode::Processes,
        Some("thread") => DistMode::Threads,
        Some(m) => {
            return Err(CliError::Usage(format!(
                "--mode {m:?} (expected proc or thread)"
            )))
        }
    };
    if flag_present(args, "--sequential") {
        spec.engine = spec.engine.sequential_twin().ok_or_else(|| {
            CliError::Run(format!(
                "--sequential applies to packet_sim_par and packet_sim_dist specs, not {}",
                spec.engine.kind()
            ))
        })?;
    }
    let options = DistOptions {
        mode,
        ..DistOptions::default()
    };
    let report = runner(args, options)
        .run(&spec)
        .map_err(|e| CliError::Run(format!("run failed: {e}")))?;
    print!("{}", report.canonical());
    Ok(())
}

/// `serve --spec <path> --listen <addr>`: coordinator for externally
/// launched workers.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    reject_unknown(
        args,
        &[
            "--spec",
            "--workers",
            "--listen",
            "--telemetry",
            "--trace-out",
        ],
        &["--smoke"],
    )?;
    let spec = load_spec(args)?;
    let listen = flag_value(args, "--listen")?.ok_or_else(|| {
        CliError::Usage(
            "serve needs --listen <addr> (a fixed host:port the workers will dial)".into(),
        )
    })?;
    let options = DistOptions {
        mode: DistMode::External,
        listen,
        ..DistOptions::default()
    };
    let report = runner(args, options)
        .run(&spec)
        .map_err(|e| CliError::Run(format!("serve failed: {e}")))?;
    print!("{}", report.canonical());
    Ok(())
}
