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
        ("churn_soak.json", 2423),
        ("churn_storm.json", 1185),
        ("dist_smoke.json", 819),
        ("fig2b.json", 411),
        ("flash_crowd.json", 730),
        ("flash_crowd_rebalance.json", 839),
        ("hot_set_rotation.json", 1123),
        ("packet_churn_storm.json", 1575),
        ("publish_then_invalidate.json", 911),
        ("rolling_link_failures.json", 1039),
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
        0x6b59_380a_7ace_bdaf,
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

/// Every shipped spec smoke-runs, and the run is pinned: two FNV-1a
/// digests per spec, of its rendered `--smoke` report (what
/// `webwave-exp run <spec> --smoke` prints) and of its
/// [`ScenarioReport::canonical`](ww_scenario::ScenarioReport::canonical)
/// bytes — every row's trace sample by sample, which the rendered
/// report does not print, so a change in how many samples a round adds
/// shows here too. A change that moves any byte of either fails here;
/// one that means to re-records the digests from the failure message.
#[test]
fn every_shipped_spec_smoke_runs() {
    let runner = Runner::new().smoke(true);
    let mut digests = Vec::new();
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
        digests.push((
            name,
            fnv1a(report.report.as_bytes()),
            fnv1a(report.canonical().as_bytes()),
        ));
    }
    let expected: Vec<(String, u64, u64)> = [
        (
            "barrier_tunneling.json",
            0x2808_7b55_236d_1383,
            0xb53f_54bc_6337_45e3,
        ),
        (
            "baseline_shootout.json",
            0x7a99_e102_2080_5395,
            0x57e6_e57b_2298_4bf8,
        ),
        (
            "churn_soak.json",
            0xc30f_4975_7742_0f90,
            0xaf7f_df96_fb45_4fef,
        ),
        (
            "churn_storm.json",
            0x03ae_fb42_e103_5ae7,
            0x1483_5b53_cf66_028a,
        ),
        (
            "dist_smoke.json",
            0x6bec_ecba_8542_8bb9,
            0x6b07_b475_0bac_8260,
        ),
        ("fig2b.json", 0x7fc9_2b3b_56d6_60e7, 0x885c_fc5c_d22f_76d7),
        (
            "flash_crowd.json",
            0xf03a_c907_c35c_beb9,
            0x1985_8edd_adc4_4f3e,
        ),
        (
            "flash_crowd_rebalance.json",
            0xec25_8014_ee36_10c7,
            0xf6d2_731d_80e7_867c,
        ),
        (
            "hot_set_rotation.json",
            0x0ff0_469a_95ec_7635,
            0x46f3_bce9_beca_d5ad,
        ),
        (
            "packet_churn_storm.json",
            0x3ab1_0a50_0893_4c02,
            0x16c1_f502_93e4_c87e,
        ),
        (
            "publish_then_invalidate.json",
            0xad6a_4f22_93b7_4497,
            0x3389_e620_b81e_a332,
        ),
        (
            "rolling_link_failures.json",
            0x6341_03a1_54db_2269,
            0xca76_7e51_7d02_c9c4,
        ),
        (
            "scaling_100k.json",
            0x515d_ee7c_0899_953e,
            0x3c0e_2a47_fee7_555d,
        ),
        (
            "scaling_1m_parallel.json",
            0x422c_dc46_248a_245b,
            0x123d_a528_3335_8d42,
        ),
        (
            "staleness_sweep.json",
            0x4c2b_27e7_fde2_4fb9,
            0x0f65_b724_0eaf_ae87,
        ),
        (
            "zipf_docmix_sweep.json",
            0x027d_ac4a_9b5f_359c,
            0x0f17_3287_3ce3_65f9,
        ),
    ]
    .iter()
    .map(|&(n, r, c)| (n.to_string(), r, c))
    .collect();
    assert_eq!(digests, expected, "digests {digests:#x?}");
}
