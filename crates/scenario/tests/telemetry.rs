//! The telemetry determinism gate: instrumentation is observation-only.
//!
//! * **Golden bit-identity** — the sequential, parallel (1/2/4
//!   workers), and distributed (1/2/4 workers, threads) packet engines
//!   produce byte-identical canonical output (trace, load vector,
//!   metric stream, all as raw IEEE-754 bits) at telemetry levels
//!   `off`, `counters`, and `full`, both event-free and under the full
//!   churn grammar.
//! * **JSONL traces** — `telemetry.trace_out` writes one parseable
//!   JSON object per line, framed `run_start` .. `run_end`.
//! * **Metric-key scheme** — every adapter's `metrics()` output (all
//!   seven engine kinds) uses dotted-path keys accepted by
//!   [`ww_telemetry::valid_metric_key`], and emission order is stable
//!   across identical runs.
//! * **Observer error paths** — rejected dynamics events reach
//!   `Observer::on_event` with the typed error, and show up as
//!   `accepted: false` trace records.

use ww_scenario::{EngineReport, Runner, ScenarioSpec};
use ww_telemetry::{valid_metric_key, Class, Key, Level};

/// A packet-engine spec on a 40-node ternary tree. `engine` is the
/// engine object's JSON; `events` the (possibly empty) events block.
fn packet_spec(engine: &str, events: &str) -> ScenarioSpec {
    let text = format!(
        r#"{{
          "name": "telemetry-golden",
          "topology": {{"kind": "k_ary", "arity": 3, "depth": 3}},
          "workload": {{
            "rates": {{"kind": "leaf_only", "rate": 6.0}},
            "doc_mix": {{"kind": "shared_zipf", "docs": 6, "theta": 1.0}}
          }},
          "engine": {engine},
          "termination": {{"kind": "rounds", "max": 8}},
          "seed": 777{events}
        }}"#
    );
    ScenarioSpec::from_json(&text).expect("spec parses")
}

/// The full seven-kind churn grammar, shared with the parallel and
/// distributed determinism gates.
const CHURN_EVENTS: &str = r#",
          "events": {
            "recovery_threshold": 5.0,
            "schedule": [
              {"round": 1, "kind": "node_join", "parent": 4, "rate": 24.0},
              {"round": 2, "kind": "link_fail", "node": 2},
              {"round": 3, "kind": "workload_shift",
               "doc_mix": {"kind": "shared_zipf", "docs": 9, "theta": 0.4}},
              {"round": 4, "kind": "doc_publish", "doc": 50, "origin": 7, "rate": 18.0},
              {"round": 5, "kind": "link_heal", "node": 2},
              {"round": 6, "kind": "node_leave", "node": 40},
              {"round": 7, "kind": "doc_update", "doc": 50}
            ]
          }"#;

fn with_level(spec: &ScenarioSpec, level: Level) -> ScenarioSpec {
    let mut out = spec.clone();
    out.telemetry.level = level;
    out
}

fn run_one(spec: &ScenarioSpec) -> EngineReport {
    let report = Runner::new().run(spec).expect("spec runs");
    assert_eq!(report.rows.len(), 1, "unswept spec yields one row");
    report.rows.into_iter().next().unwrap().outcome
}

/// The engine matrix of the golden gate: sequential, parallel at
/// 1/2/4 workers, distributed (threaded shards over TCP) at 1/2/4.
fn engine_matrix() -> Vec<(String, String)> {
    let mut engines = vec![(
        "packet_sim".to_string(),
        r#"{"kind": "packet_sim"}"#.to_string(),
    )];
    for w in [1, 2, 4] {
        engines.push((
            format!("packet_sim_par/w{w}"),
            format!(r#"{{"kind": "packet_sim_par", "workers": {w}}}"#),
        ));
    }
    for w in [1, 2, 4] {
        engines.push((
            format!("packet_sim_dist/w{w}"),
            format!(r#"{{"kind": "packet_sim_dist", "workers": {w}}}"#),
        ));
    }
    engines
}

/// Runs the full level × engine matrix for one events block and checks
/// every cell against the sequential telemetry-off baseline.
fn assert_matrix_bit_identical(events: &str) {
    let baseline = run_one(&packet_spec(r#"{"kind": "packet_sim"}"#, events)).canonical();
    assert!(baseline.contains("trace="), "baseline records a trace");
    for (label, engine) in engine_matrix() {
        let base = packet_spec(&engine, events);
        for level in [Level::Off, Level::Counters, Level::Full] {
            let outcome = run_one(&with_level(&base, level));
            assert_eq!(
                outcome.canonical(),
                baseline,
                "{label} at level {level} diverges from sequential telemetry-off"
            );
            match level {
                Level::Off => assert!(
                    outcome.telemetry.is_none(),
                    "{label}: level off must not attach a snapshot"
                ),
                _ => {
                    let snap = outcome
                        .telemetry
                        .as_ref()
                        .unwrap_or_else(|| panic!("{label}: level {level} attaches a snapshot"));
                    assert!(
                        !snap.counters.is_empty(),
                        "{label}: level {level} records counters"
                    );
                    for (key, _) in &snap.counters {
                        assert!(valid_metric_key(key), "{label}: bad counter key {key:?}");
                    }
                    // The in-process engines say how big their node
                    // state is; both event blocks end on 40 nodes.
                    let prefix = match label.split('/').next() {
                        Some("packet_sim") => Some("core"),
                        Some("packet_sim_par") => Some("pdes"),
                        _ => None,
                    };
                    if let Some(prefix) = prefix {
                        let nodes = snap.counter(&format!("{prefix}.state.nodes"));
                        assert_eq!(nodes, Some(40), "{label}: {prefix}.state.nodes");
                        let bytes = snap.counter(&format!("{prefix}.state.bytes"));
                        assert!(
                            bytes.is_some_and(|b| b >= 40 * 512),
                            "{label}: {prefix}.state.bytes {bytes:?}"
                        );
                    }
                    // Every sharded engine counts the passes of its
                    // shard loop — the distributed one through its
                    // workers' reports.
                    if prefix != Some("core") {
                        let passes = snap.counter("pdes.passes");
                        assert!(passes > Some(0), "{label}: pdes.passes {passes:?}");
                    }
                    // Every sharded engine says what the packer made
                    // of the tree and how deep a merge stage got, and a
                    // distributed one what its workers put on their
                    // shard-to-shard wires.
                    let (engine, workers) = label.split_once("/w").unwrap_or((&label, "1"));
                    if workers != "1" {
                        let depth = snap.counter("pdes.stage.depth.high_water");
                        assert!(depth >= Some(1), "{label}: stage depth {depth:?}");
                        let pieces = snap.counter("pdes.partition.pieces");
                        let cut = snap.counter("pdes.partition.cut_edges");
                        assert!(
                            cut >= Some(1) && cut < pieces,
                            "{label}: {cut:?} cut edges, {pieces:?} pieces"
                        );
                        // No shard holds less than a band's mean of its
                        // worst band: 1000 is an even split.
                        let phase = snap.counter("pdes.partition.phase_imbalance");
                        assert!(phase >= Some(1000), "{label}: phase imbalance {phase:?}");
                        if engine == "packet_sim_dist" {
                            let msgs = snap.counter("dist.data.msgs");
                            let bytes = snap.counter("dist.data.bytes");
                            assert!(msgs > Some(0), "{label}: dist.data.msgs {msgs:?}");
                            assert!(bytes > msgs, "{label}: dist.data.bytes {bytes:?}");
                            let per_link: u64 = (0..4)
                                .filter_map(|s| snap.counter(&format!("dist.link.{s}.data_bytes")))
                                .sum();
                            assert_eq!(Some(per_link), bytes, "{label}: per-link data bytes");
                        }
                    }
                }
            }
            if level == Level::Full {
                // Span-grade timing: phase timers for the in-process
                // engines; the distributed coordinator's spans are its
                // RTT histograms (its one phase, oracle refresh, only
                // fires when churn mutates the world mid-run).
                let snap = outcome.telemetry.as_ref().unwrap();
                assert!(
                    !snap.phases.is_empty() || !snap.hists.is_empty(),
                    "{label}: level full records span timings"
                );
            }
        }
    }
}

#[test]
fn event_free_run_bit_identical_across_levels_and_engines() {
    assert_matrix_bit_identical("");
}

#[test]
fn churn_run_bit_identical_across_levels_and_engines() {
    assert_matrix_bit_identical(CHURN_EVENTS);
}

/// The rebalance controller's own observations — the plan / apply phase
/// timers and the events-moved counter — are observation-only too: a
/// skewed world with an eager controller renders the sequential
/// telemetry-off bytes at every level, and what the snapshot says about
/// migrations agrees with itself.
#[test]
fn armed_rebalancer_bit_identical_across_levels() {
    let spec = |engine: &str, rebalance: &str| {
        let text = format!(
            r#"{{
              "name": "telemetry-rebalance",
              "topology": {{"kind": "random_depth", "nodes": 96, "depth": 7}},
              "workload": {{
                "rates": {{"kind": "zipf_nodes", "total": 2400, "theta": 1.1}},
                "doc_mix": {{"kind": "shared_zipf", "docs": 8, "theta": 1.0}}
              }},
              "engine": {engine},
              "termination": {{"kind": "rounds", "max": 6}},
              "seed": 2026{rebalance}
            }}"#
        );
        ScenarioSpec::from_json(&text).expect("spec parses")
    };
    let baseline = run_one(&spec(r#"{"kind": "packet_sim"}"#, "")).canonical();
    let armed = spec(
        r#"{"kind": "packet_sim_par", "workers": 4}"#,
        r#", "rebalance": {"trigger_imbalance": 1.05, "min_epoch_gap": 1}"#,
    );
    for level in [Level::Off, Level::Counters, Level::Full] {
        let outcome = run_one(&with_level(&armed, level));
        assert_eq!(outcome.canonical(), baseline, "armed at level {level}");
        let Some(snap) = outcome.telemetry.as_ref() else {
            assert_eq!(level, Level::Off);
            continue;
        };
        let counter = |key: &str| snap.counter(key).unwrap_or_else(|| panic!("{key} missing"));
        let applied = counter("pdes.rebalance.applied");
        assert!(applied >= 1, "the skewed world migrates");
        assert!(counter("pdes.rebalance.nodes_migrated") >= applied);
        // Every node with demand has an arrival pending at any barrier.
        assert!(counter("pdes.rebalance.events_moved") >= 1);
        let spans = |key: &str| snap.phase(key).map(|stat| stat.count);
        if level == Level::Full {
            assert_eq!(
                spans("pdes.phase.rebalance_plan"),
                Some(counter("pdes.rebalance.evaluations"))
            );
            assert_eq!(spans("pdes.phase.rebalance_apply"), Some(applied));
        } else {
            assert_eq!(spans("pdes.phase.rebalance_plan"), None);
            assert_eq!(spans("pdes.phase.rebalance_apply"), None);
        }
    }
}

// ---------------------------------------------------------------------
// Key drift: docs/observability.md against the declarations

/// Every key the three packet-engine crates declare: the union of their
/// `keys!` declarations.
fn declared_keys() -> Vec<Key> {
    (ww_core::packet::CORE_TELEMETRY.iter())
        .chain(ww_pdes::PDES_TELEMETRY)
        .chain(ww_dist::DIST_TELEMETRY)
        .copied()
        .collect()
}

/// The `core.*` / `pdes.*` / `dist.*` keys `docs/observability.md`
/// names in backticks (families like `core.phase.*` and bare prefixes
/// are prose, not keys).
fn documented_keys() -> std::collections::BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
    let text = std::fs::read_to_string(path).expect("docs/observability.md is readable");
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| {
            ["core.", "pdes.", "dist."]
                .iter()
                .any(|p| span.starts_with(p))
        })
        .filter(|span| !span.contains('*') && !span.ends_with('.') && !span.contains(' '))
        .map(str::to_string)
        .collect()
}

/// ROADMAP item 3's drift check: a declared key is documented, and a
/// documented key is declared. An engine can emit only a declared key,
/// so no run is needed.
#[test]
fn documented_keys_are_the_emitted_keys() {
    let declared: std::collections::BTreeSet<String> = (declared_keys().iter())
        .map(|key| key.name.to_string())
        .collect();
    assert_eq!(
        declared.len(),
        declared_keys().len(),
        "a key is declared twice"
    );
    let documented = documented_keys();
    let undocumented: Vec<_> = declared.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "declared but not in docs/observability.md: {undocumented:?}"
    );
    let stale: Vec<_> = documented.difference(&declared).collect();
    assert!(
        stale.is_empty(),
        "in docs/observability.md but declared nowhere: {stale:?}"
    );
}

// ---------------------------------------------------------------------
// Determinism classes

/// Whether `name` is `template` with each `{..}` placeholder replaced by
/// a run of digits.
fn fits(template: &str, name: &str) -> bool {
    let Some((head, rest)) = template.split_once('{') else {
        return template == name;
    };
    let (_, rest) = rest.split_once('}').expect("a closed placeholder");
    name.strip_prefix(head).is_some_and(|tail| {
        let digits = tail.len() - tail.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        digits > 0 && fits(rest, &tail[digits..])
    })
}

/// The world that fills a ring, as a spec: `ww-pdes`'s broom
/// (`a_hub_that_fills_a_ring_parks_and_changes_nothing`). Its hub
/// gossips to 10,000 bristles in one fire, and at two workers more of
/// them sit across the cut than a ring's 4,096 slots hold, so the sender
/// parks the surplus and the park counters move.
fn broom_spec(engine: &str, tail: &str) -> ScenarioSpec {
    let text = format!(
        r#"{{
          "name": "telemetry-broom",
          "topology": {{"kind": "broom", "handle": 2, "bristles": 10000}},
          "workload": {{
            "rates": {{"kind": "leaf_only", "rate": 0.2}},
            "doc_mix": {{"kind": "shared_zipf", "docs": 2, "theta": 1.0}}
          }},
          "engine": {engine},
          "termination": {{"kind": "rounds", "max": 2}},
          "seed": 777{tail}
        }}"#
    );
    ScenarioSpec::from_json(&text).expect("spec parses")
}

/// Each declared key's class is what the packet engines report, twice
/// each, over the event-free world, the churn world and the broom that
/// fills a ring ([`broom_spec`]) at level `full`: a
/// `Run` key — and only a `Run` key — reads the same on every backend
/// that emits it; a `Partition` key reads the same across repeated runs
/// of one backend. A `Wall` key is not `Run`; nothing here forces a
/// timing-dependent value to move between two runs.
#[test]
fn every_declared_class_is_what_the_engines_report() {
    let declared = declared_keys();
    let armed = r#", "rebalance": {"trigger_imbalance": 1.05, "min_epoch_gap": 1}"#;
    let par = |w: usize| format!(r#"{{"kind": "packet_sim_par", "workers": {w}}}"#);
    let dist = |w: usize| format!(r#"{{"kind": "packet_sim_dist", "workers": {w}}}"#);
    let backends = [
        ("packet_sim", r#"{"kind": "packet_sim"}"#.to_string(), ""),
        ("packet_sim_par/w1", par(1), ""),
        ("packet_sim_par/w2", par(2), ""),
        ("packet_sim_par/w4", par(4), ""),
        ("packet_sim_par/w2+rebalance", par(2), armed),
        ("packet_sim_par/w4+rebalance", par(4), armed),
        ("packet_sim_dist/w1", dist(1), ""),
        ("packet_sim_dist/w2", dist(2), ""),
    ];
    // Per declared key: (world, entry name, backend, value) readings.
    let mut readings = std::collections::BTreeMap::<&str, Vec<_>>::new();
    let worlds: [fn(&str, &str) -> ScenarioSpec; 3] = [
        packet_spec,
        |engine, tail| packet_spec(engine, &format!("{CHURN_EVENTS}{tail}")),
        broom_spec,
    ];
    for (world, spec_of) in worlds.into_iter().enumerate() {
        for (label, engine, rebalance) in &backends {
            for _ in 0..2 {
                let spec = spec_of(engine, rebalance);
                let outcome = run_one(&with_level(&spec, Level::Full));
                let snap = outcome.telemetry.expect("level full attaches a snapshot");
                let counters = (snap.counters.iter()).map(|(name, v)| (name, v.to_string()));
                let phases = (snap.phases.iter()).map(|(name, p)| (name, format!("{p:?}")));
                let hists = (snap.hists.iter()).map(|(name, h)| (name, format!("{h:?}")));
                for (name, value) in counters.chain(phases).chain(hists) {
                    let key = (declared.iter().find(|key| fits(key.name, name)))
                        .unwrap_or_else(|| panic!("{label} emits undeclared {name}"));
                    let reading = (world, name.clone(), *label, value);
                    readings.entry(key.name).or_default().push(reading);
                }
            }
        }
    }
    let mut wrong = Vec::new();
    for key in &declared {
        let seen = (readings.get(key.name)).unwrap_or_else(|| panic!("{} never read", key.name));
        let mut backends_agree = std::collections::BTreeMap::<_, Vec<_>>::new();
        let mut repeats_agree = std::collections::BTreeMap::<_, Vec<_>>::new();
        for (world, name, label, value) in seen {
            backends_agree.entry((world, name)).or_default().push(value);
            repeats_agree
                .entry((world, name, label))
                .or_default()
                .push(value);
        }
        let equal = |values: &Vec<&String>| values.iter().all(|v| *v == values[0]);
        let observed = if backends_agree.values().all(equal) {
            Class::Run
        } else if repeats_agree.values().all(|v| v.len() == 2 && equal(v)) {
            Class::Partition
        } else {
            Class::Wall
        };
        let holds = match key.class {
            Class::Wall => observed != Class::Run,
            class => observed == class,
        };
        if !holds {
            wrong.push(format!(
                "{} is {:?}, reads {observed:?}",
                key.name, key.class
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "declared classes the engines contradict: {wrong:#?}"
    );
}

// ---------------------------------------------------------------------
// The snapshots themselves, pinned

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Counters whose value moves from run to run: the shard loop's passes,
/// promises and stalls, how full a ring got, the data-plane traffic
/// (promises ride it) and the launch handshake.
const VARIES: &[&str] = &[
    "pdes.promises.sent",
    "pdes.merge.stalls",
    "pdes.ring.occupancy.high_water",
    "pdes.passes",
    "dist.handshake_ns",
    "dist.data.msgs",
    "dist.data.bytes",
    "dist.link.0.data_bytes",
    "dist.link.1.data_bytes",
];

/// What a `full`-level snapshot says over the churn world, pinned per
/// engine: every entry's name in order, section by section, and the
/// value of every counter not in [`VARIES`]. A key renamed, reordered,
/// dropped or emitted under a new condition, or a counter that counts
/// differently, fails here. The parallel engine runs with its
/// controller armed, so the `rebalance.*` keys are in its snapshot.
#[test]
fn the_churn_snapshots_are_pinned() {
    let armed = r#", "rebalance": {"trigger_imbalance": 1.05, "min_epoch_gap": 1}"#;
    for (label, engine, tail, pinned) in [
        (
            "packet_sim",
            r#"{"kind": "packet_sim"}"#,
            CHURN_EVENTS.to_string(),
            0x27cb_e99c_0e03_6c8c,
        ),
        (
            "packet_sim_par/w2",
            r#"{"kind": "packet_sim_par", "workers": 2}"#,
            format!("{CHURN_EVENTS}{armed}"),
            0xcf22_240f_24a5_c322,
        ),
        (
            "packet_sim_dist/w2",
            r#"{"kind": "packet_sim_dist", "workers": 2}"#,
            CHURN_EVENTS.to_string(),
            0xb509_e087_0f9c_394f,
        ),
    ] {
        let outcome = run_one(&with_level(&packet_spec(engine, &tail), Level::Full));
        let snap = outcome.telemetry.expect("level full attaches a snapshot");
        let mut text = String::new();
        for (name, value) in &snap.counters {
            if VARIES.contains(&name.as_str()) {
                text.push_str(&format!("counter {name}\n"));
            } else {
                text.push_str(&format!("counter {name} = {value}\n"));
            }
        }
        for (name, _) in &snap.phases {
            text.push_str(&format!("phase {name}\n"));
        }
        for (name, _) in &snap.hists {
            text.push_str(&format!("histogram {name}\n"));
        }
        let digest = fnv1a(text.as_bytes());
        assert_eq!(
            digest, pinned,
            "{label}: snapshot digest {digest:#018x}, pinned {pinned:#018x}:\n{text}"
        );
    }
}

// ---------------------------------------------------------------------
// JSONL traces

#[test]
fn trace_out_writes_parseable_framed_jsonl() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ww-telemetry-test-{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path").to_string();

    let mut spec = packet_spec(r#"{"kind": "packet_sim"}"#, CHURN_EVENTS);
    spec.telemetry.level = Level::Counters;
    spec.telemetry.trace_out = Some(path_str);
    let outcome = run_one(&spec);
    assert!(outcome.telemetry.is_some());

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2 + 8 + 7, "start + end + rounds + events");

    let records: Vec<serde_json::Value> = lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("trace line {} is not JSON: {e}\n{line}", i + 1))
        })
        .collect();
    let kind = |v: &serde_json::Value| {
        v.as_object()
            .and_then(|m| m.get("record"))
            .and_then(|r| r.as_str())
            .expect("every record has a \"record\" discriminator")
            .to_string()
    };
    assert_eq!(kind(&records[0]), "run_start");
    assert_eq!(kind(records.last().unwrap()), "run_end");
    let events = records.iter().filter(|r| kind(r) == "event").count();
    assert_eq!(events, 7, "one trace record per scheduled event");
    let end = records.last().unwrap().as_object().unwrap();
    assert!(
        end.get("telemetry")
            .is_some_and(|t| t.as_object().is_some()),
        "run_end embeds the telemetry snapshot when counters are on"
    );
}

// ---------------------------------------------------------------------
// Metric-key scheme across every adapter

/// One small spec per engine kind. Each runs in smoke mode; the point
/// is the shape of the metric stream, not the physics.
fn adapter_specs() -> Vec<(&'static str, ScenarioSpec)> {
    let parse = |text: &str| ScenarioSpec::from_json(text).expect("adapter spec parses");
    let tree = |engine: &str, termination: &str| {
        parse(&format!(
            r#"{{
              "name": "metric-key-scheme",
              "topology": {{"kind": "k_ary", "arity": 3, "depth": 3}},
              "workload": {{
                "rates": {{"kind": "leaf_only", "rate": 6.0}},
                "doc_mix": {{"kind": "shared_zipf", "docs": 6, "theta": 1.0}}
              }},
              "engine": {engine},
              "termination": {termination},
              "seed": 7
            }}"#
        ))
    };
    vec![
        (
            "rate_wave",
            tree(
                r#"{"kind": "rate_wave"}"#,
                r#"{"kind": "rounds", "max": 30}"#,
            ),
        ),
        (
            "doc_sim",
            tree(r#"{"kind": "doc_sim"}"#, r#"{"kind": "rounds", "max": 30}"#),
        ),
        (
            "packet_sim",
            tree(
                r#"{"kind": "packet_sim"}"#,
                r#"{"kind": "rounds", "max": 6}"#,
            ),
        ),
        (
            "packet_sim_par",
            tree(
                r#"{"kind": "packet_sim_par", "workers": 2}"#,
                r#"{"kind": "rounds", "max": 6}"#,
            ),
        ),
        (
            "packet_sim_dist",
            tree(
                r#"{"kind": "packet_sim_dist", "workers": 2}"#,
                r#"{"kind": "rounds", "max": 6}"#,
            ),
        ),
        (
            "baselines",
            tree(
                r#"{"kind": "baselines"}"#,
                r#"{"kind": "rounds", "max": 1}"#,
            ),
        ),
        (
            "forest_wave",
            parse(
                r#"{
                  "name": "metric-key-scheme-forest",
                  "topology": {"kind": "path", "nodes": 6},
                  "workload": {
                    "rates": {"kind": "explicit", "rates": [0.0, 60.0, 0.0, 0.0, 0.0, 0.0]}
                  },
                  "engine": {"kind": "forest_wave", "roots": [0, 5]},
                  "termination": {"kind": "rounds", "max": 200},
                  "seed": 7
                }"#,
            ),
        ),
    ]
}

#[test]
fn every_adapter_emits_valid_dotted_metric_keys() {
    let specs = adapter_specs();
    assert_eq!(specs.len(), 7, "one spec per engine kind");
    for (name, spec) in specs {
        assert_eq!(spec.engine.kind(), name, "spec exercises the right engine");
        let outcome = run_one(&spec);
        assert!(!outcome.metrics.is_empty(), "{name} emits metrics");
        for (key, _) in &outcome.metrics {
            assert!(
                valid_metric_key(key),
                "{name}: metric key {key:?} violates the dotted-path scheme"
            );
        }
    }
}

#[test]
fn event_marker_metric_keys_follow_the_scheme() {
    let spec = packet_spec(r#"{"kind": "packet_sim"}"#, CHURN_EVENTS);
    let outcome = run_one(&spec);
    let event_keys: Vec<&String> = outcome
        .metrics
        .iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("event."))
        .collect();
    assert!(!event_keys.is_empty(), "churn run emits event markers");
    for key in event_keys {
        assert!(valid_metric_key(key), "event marker key {key:?} invalid");
    }
}

#[test]
fn metric_emission_order_is_stable_across_identical_runs() {
    // The report's metric consumers (the canonical renderer, the JSONL
    // trace, the golden tests) all depend on emission order, so it must
    // be a pure function of the run.
    let spec = packet_spec(r#"{"kind": "packet_sim"}"#, CHURN_EVENTS);
    let first: Vec<String> = run_one(&spec)
        .metrics
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    let second: Vec<String> = run_one(&spec)
        .metrics
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    assert!(!first.is_empty());
    assert_eq!(first, second, "metric emission order drifted between runs");
}

// ---------------------------------------------------------------------
// Observer error paths

#[test]
fn rejected_events_reach_the_observer_with_a_typed_error() {
    use std::cell::RefCell;
    use std::rc::Rc;
    use ww_scenario::{Event, EventError, Observer};

    // rate_wave has no documents, so doc_update must be rejected —
    // surfaced to the observer, never a panic.
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "observer-error-path",
          "topology": {"kind": "k_ary", "arity": 3, "depth": 2},
          "workload": {"rates": {"kind": "leaf_only", "rate": 4.0}},
          "engine": {"kind": "rate_wave"},
          "termination": {"kind": "rounds", "max": 6},
          "seed": 3,
          "events": {
            "schedule": [
              {"round": 2, "kind": "doc_update", "doc": 1},
              {"round": 3, "kind": "link_fail", "node": 1}
            ]
          }
        }"#,
    )
    .expect("spec parses");

    #[derive(Default)]
    struct Seen {
        events: Vec<(usize, String, Option<String>)>,
    }
    struct Recorder(Rc<RefCell<Seen>>);
    impl Observer for Recorder {
        fn on_event(
            &mut self,
            index: usize,
            _round: usize,
            event: &Event,
            error: Option<&EventError>,
        ) {
            self.0.borrow_mut().events.push((
                index,
                event.kind().to_string(),
                error.map(|e| e.to_string()),
            ));
        }
    }

    let seen = Rc::new(RefCell::new(Seen::default()));
    let mut recorder = Recorder(Rc::clone(&seen));
    let report = Runner::new()
        .run_with(&spec, &mut recorder)
        .expect("run survives the rejected event");

    let seen = seen.borrow();
    assert_eq!(seen.events.len(), 2, "both events reach the observer");
    let (index, kind, error) = &seen.events[0];
    assert_eq!((*index, kind.as_str()), (0, "doc_update"));
    let msg = error.as_ref().expect("doc_update is rejected");
    assert!(
        msg.contains("rate_wave") && msg.contains("doc_update"),
        "error names the engine and event: {msg}"
    );
    let (_, kind, error) = &seen.events[1];
    assert_eq!(kind.as_str(), "link_fail");
    assert!(error.is_none(), "link_fail is accepted: {error:?}");

    // The same rejection is visible in the run's markers.
    let row = &report.rows[0];
    assert!(!row.events[0].accepted());
    assert!(row.events[1].accepted());
}

#[test]
fn rejected_events_appear_in_the_jsonl_trace_as_not_accepted() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ww-telemetry-reject-{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path").to_string();

    let mut spec = ScenarioSpec::from_json(
        r#"{
          "name": "trace-error-path",
          "topology": {"kind": "k_ary", "arity": 3, "depth": 2},
          "workload": {"rates": {"kind": "leaf_only", "rate": 4.0}},
          "engine": {"kind": "rate_wave"},
          "termination": {"kind": "rounds", "max": 6},
          "seed": 3,
          "events": {
            "schedule": [{"round": 2, "kind": "doc_update", "doc": 1}]
          }
        }"#,
    )
    .expect("spec parses");
    spec.telemetry.trace_out = Some(path_str);
    let _ = run_one(&spec);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let event = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("line parses"))
        .find(|v: &serde_json::Value| {
            v.as_object()
                .and_then(|m| m.get("record"))
                .and_then(|r| r.as_str())
                == Some("event")
        })
        .expect("trace records the event");
    let map = event.as_object().unwrap();
    assert_eq!(map.get("accepted").and_then(|v| v.as_bool()), Some(false));
    let error = map
        .get("error")
        .and_then(|v| v.as_str())
        .expect("error string present");
    assert!(
        error.contains("doc_update"),
        "error is the typed message: {error}"
    );
}
