//! Every shipped spec under `scenarios/` must parse, round-trip, and
//! smoke-run — checked-in specs can never rot.

use std::path::PathBuf;
use ww_scenario::{Runner, ScenarioSpec};

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn shipped_specs() -> Vec<(String, String)> {
    let mut specs: Vec<(String, String)> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable spec");
            (name, text)
        })
        .collect();
    specs.sort();
    specs
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The printed grammar, pinned: every shipped spec by name, the byte
/// length of its `to_json()` after a parse, and one digest over all the
/// printed bytes in name order. A key renamed or reordered, a default
/// printed differently, or a tag spelled differently fails here even
/// when it still round-trips. A spec added under `scenarios/`, or a
/// printed field added to the grammar, re-records the pin.
#[test]
fn the_shipped_specs_print_pinned_bytes() {
    let mut printed = Vec::new();
    let mut lengths = Vec::new();
    for (name, text) in shipped_specs() {
        let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let json = spec.to_json();
        lengths.push((name, json.len()));
        printed.extend_from_slice(json.as_bytes());
    }
    let expected: Vec<(String, usize)> = [
        ("barrier_tunneling.json", 542),
        ("baseline_shootout.json", 608),
        ("churn_soak.json", 2453),
        ("churn_storm.json", 1216),
        ("dist_smoke.json", 819),
        ("fig2b.json", 411),
        ("flash_crowd.json", 730),
        ("flash_crowd_rebalance.json", 839),
        ("hot_set_rotation.json", 1154),
        ("packet_churn_storm.json", 1606),
        ("planetary_cdn.json", 467),
        ("publish_then_invalidate.json", 942),
        ("rolling_link_failures.json", 1070),
        ("scaling_100k.json", 444),
        ("scaling_1m_parallel.json", 746),
        ("staleness_sweep.json", 526),
        ("zipf_docmix_sweep.json", 639),
    ]
    .iter()
    .map(|&(n, l)| (n.to_string(), l))
    .collect();
    assert_eq!(lengths, expected);
    assert_eq!(
        fnv1a(&printed),
        0x3778_2dc0_f799_6038,
        "digest {:#018x}",
        fnv1a(&printed)
    );
}

#[test]
fn every_shipped_spec_parses_and_round_trips() {
    for (name, text) in shipped_specs() {
        let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let reparsed = ScenarioSpec::from_json(&spec.to_json())
            .unwrap_or_else(|e| panic!("{name} re-parse: {e}"));
        assert_eq!(reparsed, spec, "{name} does not round-trip");
    }
}

#[test]
fn every_shipped_spec_smoke_runs() {
    let runner = Runner::new().smoke(true);
    for (name, text) in shipped_specs() {
        let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = runner
            .run(&spec)
            .unwrap_or_else(|e| panic!("{name} smoke run: {e}"));
        assert!(!report.rows.is_empty(), "{name}: no runs");
        assert!(!report.report.is_empty(), "{name}: empty report");
        for row in &report.rows {
            assert!(row.outcome.rounds > 0, "{name}: engine never stepped");
        }
    }
}
