//! End-to-end tests of the command lines. `webwave-dist`: the canonical
//! report of a distributed run is byte-identical to the sequential
//! `--sequential` run of the same spec, in self-spawning mode and in
//! the `serve` + external-worker topology CI uses, and a bad
//! `--workers` override is refused. `webwave-exp`: a bad
//! selector or flag fails loudly, and `list` reads every shipped spec
//! and exits 1 when a spec in the directory does not parse.

use std::net::TcpListener;
use std::process::{Command, Output, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_webwave-dist"))
}

fn exp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_webwave-exp"))
}

fn scenarios() -> String {
    format!("{}/scenarios", env!("CARGO_MANIFEST_DIR"))
}

fn spec_path() -> String {
    format!("{}/dist_smoke.json", scenarios())
}

fn checked(out: Output, label: &str) -> String {
    assert!(
        out.status.success(),
        "{label} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("canonical report is UTF-8")
}

#[test]
fn run_output_matches_sequential_run() {
    let dist = checked(
        bin()
            .args(["run", "--spec", &spec_path(), "--mode", "proc"])
            .output()
            .expect("spawn webwave-dist run"),
        "run --mode proc",
    );
    let seq = checked(
        bin()
            .args(["run", "--spec", &spec_path(), "--sequential"])
            .output()
            .expect("spawn webwave-dist run --sequential"),
        "run --sequential",
    );
    assert!(
        dist.contains("trace="),
        "canonical report carries the trace:\n{dist}"
    );
    assert_eq!(dist, seq, "distributed and sequential reports diverge");
}

#[test]
fn serve_with_external_workers_matches_sequential_run() {
    // Reserve a loopback port for the control plane: bind, read the
    // assigned port, release it for `serve` to claim.
    let port = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr").port()
    };
    let addr = format!("127.0.0.1:{port}");

    let serve = bin()
        .args(["serve", "--spec", &spec_path(), "--listen", &addr])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn webwave-dist serve");
    // dist_smoke.json asks for two workers; launch them externally, as
    // CI does. The worker subcommand retries its dial, so there is no
    // startup-order race with the coordinator's bind.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            bin()
                .args(["worker", "--connect", &addr])
                .stdin(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn worker {i}: {e}"))
        })
        .collect();

    let out = serve.wait_with_output().expect("serve completes");
    let served = checked(out, "serve");
    for (i, mut w) in workers.into_iter().enumerate() {
        let status = w.wait().unwrap_or_else(|e| panic!("wait worker {i}: {e}"));
        assert!(status.success(), "worker {i} exited with {status}");
    }

    let seq = checked(
        bin()
            .args(["run", "--spec", &spec_path(), "--sequential"])
            .output()
            .expect("spawn webwave-dist run --sequential"),
        "run --sequential",
    );
    assert_eq!(served, seq, "served and sequential reports diverge");
}

#[test]
fn usage_errors_are_loud_and_typed() {
    let out = bin().args(["run"]).output().expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "missing --spec is a usage error"
    );
    let out = bin()
        .args(["run", "--spec", &spec_path(), "--bogus"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "unknown flags are rejected");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
    let out = bin()
        .args(["serve", "--spec", &spec_path()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "serve requires --listen");
}

/// A `--workers` override is checked like the spec's own `workers` key:
/// the run is refused before any worker starts.
#[test]
fn zero_workers_override_is_refused_by_the_declared_check() {
    let out = bin()
        .args([
            "run",
            "--spec",
            &spec_path(),
            "--mode",
            "thread",
            "--workers",
            "0",
        ])
        .output()
        .expect("spawn webwave-dist run --workers 0");
    assert_eq!(out.status.code(), Some(2), "a refused run exits 2");
    assert!(out.stdout.is_empty(), "nothing runs, nothing prints");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("engine.workers: must be at least 1"),
        "{stderr}"
    );
}

#[test]
fn exp_usage_errors_are_loud() {
    for args in [&["gama"][..], &["fig9"], &["fig2", "fig9"]] {
        let out = exp().args(args).output().expect("spawn webwave-exp");
        assert_eq!(out.status.code(), Some(1), "{args:?} is refused");
        assert!(out.stdout.is_empty(), "{args:?} runs no figure");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(args[args.len() - 1]) && stderr.contains("fig2 fig4 fig6a"),
            "{args:?}: the refusal names the selector and the valid ones:\n{stderr}"
        );
    }
    let out = exp()
        .args(["run", &spec_path(), "--bogus"])
        .output()
        .expect("spawn webwave-exp run");
    assert_eq!(out.status.code(), Some(1), "unknown flags are rejected");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");
    assert!(stderr.contains("usage: webwave-exp run"), "{stderr}");
}

#[test]
fn list_names_every_shipped_spec() {
    let out = checked(
        exp()
            .args(["list", &scenarios()])
            .output()
            .expect("spawn webwave-exp list"),
        "list",
    );
    let mut shipped: Vec<_> = std::fs::read_dir(scenarios())
        .expect("read scenarios/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    shipped.sort();
    assert!(!shipped.is_empty());
    let lines: Vec<_> = out.lines().collect();
    assert_eq!(lines.len(), shipped.len(), "one line per spec:\n{out}");
    for (line, path) in lines.iter().zip(&shipped) {
        let prefix = format!("{}: ", path.display());
        assert!(line.starts_with(&prefix), "{line} names {prefix}");
        assert!(!line.contains("INVALID"), "{line}");
    }
}

#[test]
fn list_exits_1_on_an_invalid_spec() {
    let dir = std::env::temp_dir().join(format!("webwave-exp-list-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch spec directory");
    let good = std::fs::read_to_string(spec_path()).expect("read a shipped spec");
    std::fs::write(dir.join("a_good.json"), good).expect("write the good spec");
    std::fs::write(
        dir.join("b_bad.json"),
        r#"{"name": "x", "engine": {"kind": "nope"}}"#,
    )
    .expect("write the bad spec");
    let out = exp()
        .args(["list", dir.to_str().expect("a UTF-8 path")])
        .output()
        .expect("spawn webwave-exp list");
    std::fs::remove_dir_all(&dir).expect("remove the scratch spec directory");
    assert_eq!(out.status.code(), Some(1), "list over a bad spec exits 1");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    let lines: Vec<_> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one line per spec:\n{stdout}");
    assert!(!lines[0].contains("INVALID"), "{}", lines[0]);
    assert!(lines[1].contains("b_bad.json: INVALID"), "{}", lines[1]);
}
