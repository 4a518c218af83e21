//! Property tests: `ScenarioSpec` round-trips through JSON exactly, and
//! malformed documents are rejected with a useful field path.

use proptest::prelude::*;
use ww_scenario::{
    BaselineScheme, DocMixSpec, EngineSpec, EventKindSpec, EventSpec, EventsSpec, PacketKnobs,
    PaperFigure, RatesSpec, RebalanceConfig, Runner, ScenarioSpec, Sweep, SweepParam,
    TelemetrySpec, Termination, TopologySpec, WorkloadSpec,
};
use ww_telemetry::Level;

/// Telemetry settings derived from the seed: exercises every level and
/// both trace_out shapes across the generated specs without another
/// strategy axis.
fn arb_telemetry_from_seed(seed: u64) -> TelemetrySpec {
    TelemetrySpec {
        level: match seed % 3 {
            0 => Level::Off,
            1 => Level::Counters,
            _ => Level::Full,
        },
        trace_out: (seed % 2 == 1).then(|| format!("trace-{}.jsonl", seed % 7)),
    }
}

fn arb_topology() -> BoxedStrategy<TopologySpec> {
    (0usize..9)
        .prop_flat_map(|choice| match choice {
            8 => proptest::collection::vec(0usize..12, 1..8)
                .prop_map(|raw| TopologySpec::Explicit {
                    parents: raw
                        .into_iter()
                        .map(|x| if x == 0 { None } else { Some(x - 1) })
                        .collect(),
                })
                .boxed(),
            0 => (0usize..5)
                .prop_map(|f| TopologySpec::Paper {
                    figure: [
                        PaperFigure::Fig2a,
                        PaperFigure::Fig2b,
                        PaperFigure::Fig4,
                        PaperFigure::Fig6,
                        PaperFigure::Fig7,
                    ][f],
                })
                .boxed(),
            1 => (1usize..200)
                .prop_map(|nodes| TopologySpec::Path { nodes })
                .boxed(),
            2 => (1usize..200)
                .prop_map(|nodes| TopologySpec::Star { nodes })
                .boxed(),
            3 => ((1usize..4), (0usize..5))
                .prop_map(|(arity, depth)| TopologySpec::KAry { arity, depth })
                .boxed(),
            4 => ((1usize..8), (1usize..8))
                .prop_map(|(regions, leaves)| TopologySpec::TwoLevel { regions, leaves })
                .boxed(),
            5 => ((1usize..16), (0usize..4))
                .prop_map(|(spine, legs)| TopologySpec::Caterpillar { spine, legs })
                .boxed(),
            6 => ((1usize..16), (0usize..16))
                .prop_map(|(handle, bristles)| TopologySpec::Broom { handle, bristles })
                .boxed(),
            _ => ((2usize..300), (1usize..9))
                .prop_map(|(nodes, depth)| TopologySpec::RandomDepth {
                    nodes: nodes.max(depth + 1),
                    depth,
                })
                .boxed(),
        })
        .boxed()
}

fn arb_rates() -> BoxedStrategy<RatesSpec> {
    (0usize..6)
        .prop_flat_map(|choice| match choice {
            0 => Just(RatesSpec::Paper).boxed(),
            1 => (0.0f64..500.0)
                .prop_map(|rate| RatesSpec::Uniform { rate })
                .boxed(),
            2 => (0.0f64..500.0)
                .prop_map(|rate| RatesSpec::LeafOnly { rate })
                .boxed(),
            3 => ((0.0f64..10.0), (10.0f64..500.0))
                .prop_map(|(lo, hi)| RatesSpec::RandomUniform { lo, hi })
                .boxed(),
            4 => ((1.0f64..10000.0), (0.1f64..2.0))
                .prop_map(|(total, theta)| RatesSpec::ZipfNodes { total, theta })
                .boxed(),
            _ => proptest::collection::vec(0.0f64..100.0, 0..6)
                .prop_map(|rates| RatesSpec::Explicit { rates })
                .boxed(),
        })
        .boxed()
}

fn arb_doc_mix() -> BoxedStrategy<Option<DocMixSpec>> {
    (0usize..3)
        .prop_flat_map(|choice| match choice {
            0 => Just(None).boxed(),
            1 => Just(Some(DocMixSpec::Paper)).boxed(),
            _ => ((1usize..64), (0.1f64..2.0))
                .prop_map(|(docs, theta)| Some(DocMixSpec::SharedZipf { docs, theta }))
                .boxed(),
        })
        .boxed()
}

fn arb_alpha() -> BoxedStrategy<Option<f64>> {
    (0usize..2)
        .prop_flat_map(|choice| match choice {
            0 => Just(None).boxed(),
            _ => (0.01f64..0.99).prop_map(Some).boxed(),
        })
        .boxed()
}

/// Every knob varies, so a knob the grammar mishandles fails the round
/// trip.
fn arb_knobs() -> impl Strategy<Value = PacketKnobs> {
    (
        (arb_alpha(), 0usize..2, 0usize..6),
        (0.001f64..0.1, 0.1f64..2.0, 0.1f64..2.0, 0.1f64..3.0),
        (0.0f64..0.5, 0.0f64..0.2, 0.0f64..5.0),
    )
        .prop_map(
            |(
                (alpha, t, barrier_patience),
                (link_delay, gossip_period, diffusion_period, measure_window),
                (gossip_loss, hysteresis, noise_sigmas),
            )| PacketKnobs {
                alpha,
                tunneling: t == 1,
                barrier_patience,
                link_delay,
                gossip_period,
                diffusion_period,
                measure_window,
                gossip_loss,
                hysteresis,
                noise_sigmas,
            },
        )
}

fn arb_engine() -> BoxedStrategy<EngineSpec> {
    (0usize..7)
        .prop_flat_map(|choice| match choice {
            6 => (arb_knobs(), 1usize..8)
                .prop_map(|(knobs, workers)| EngineSpec::PacketSimDist { knobs, workers })
                .boxed(),
            5 => (arb_knobs(), 1usize..16)
                .prop_map(|(knobs, workers)| EngineSpec::PacketSimPar { knobs, workers })
                .boxed(),
            0 => (arb_alpha(), 0usize..10)
                .prop_map(|(alpha, staleness)| EngineSpec::RateWave { alpha, staleness })
                .boxed(),
            1 => (arb_alpha(), 0usize..2, 0usize..6)
                .prop_map(|(alpha, t, barrier_patience)| EngineSpec::DocSim {
                    alpha,
                    tunneling: t == 1,
                    barrier_patience,
                })
                .boxed(),
            2 => arb_knobs()
                .prop_map(|knobs| EngineSpec::PacketSim { knobs })
                .boxed(),
            3 => (
                arb_alpha(),
                0usize..2,
                proptest::collection::vec(0usize..50, 1..4),
            )
                .prop_map(|(alpha, c, roots)| EngineSpec::ForestWave {
                    alpha,
                    coupled: c == 1,
                    roots,
                })
                .boxed(),
            _ => (
                0usize..64,
                (0.0f64..5.0),
                (1usize..3000, 1usize..5000),
                (0.1f64..10.0),
            )
                .prop_map(
                    |(mask, lookup_msgs, (gle_iterations, webwave_rounds), gossip_per_second)| {
                        let all = BaselineScheme::all();
                        let mut schemes: Vec<BaselineScheme> = all
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| mask & (1 << i) != 0)
                            .map(|(_, &s)| s)
                            .collect();
                        if schemes.is_empty() {
                            schemes = all;
                        }
                        EngineSpec::Baselines {
                            schemes,
                            replicas: mask % 8,
                            lookup_msgs,
                            gle_iterations,
                            webwave_rounds,
                            gossip_per_second,
                        }
                    },
                )
                .boxed(),
        })
        .boxed()
}

fn arb_termination() -> BoxedStrategy<Termination> {
    (0usize..3)
        .prop_flat_map(|choice| match choice {
            0 => (1usize..50000)
                .prop_map(|max| Termination::Rounds { max })
                .boxed(),
            1 => ((0.0f64..10.0), 1usize..50000)
                .prop_map(|(threshold, max_rounds)| Termination::Converged {
                    threshold,
                    max_rounds,
                })
                .boxed(),
            _ => ((0.01f64..10.0), 1usize..50000)
                .prop_map(|(seconds, max_rounds)| Termination::WallClock {
                    seconds,
                    max_rounds,
                })
                .boxed(),
        })
        .boxed()
}

fn arb_sweep() -> BoxedStrategy<Option<Sweep>> {
    (0usize..8)
        .prop_flat_map(|choice| {
            if choice == 0 {
                Just(None).boxed()
            } else {
                let param = [
                    SweepParam::Staleness,
                    SweepParam::Alpha,
                    SweepParam::Tunneling,
                    SweepParam::GossipLoss,
                    SweepParam::Workers,
                    SweepParam::DocTheta,
                    SweepParam::Seed,
                ][choice - 1];
                proptest::collection::vec(0.0f64..10.0, 1..5)
                    .prop_map(move |values| Some(Sweep { param, values }))
                    .boxed()
            }
        })
        .boxed()
}

fn arb_event_kind() -> BoxedStrategy<EventKindSpec> {
    (0usize..7)
        .prop_flat_map(|choice| match choice {
            0 => ((0usize..40), (0.0f64..200.0))
                .prop_map(|(parent, rate)| EventKindSpec::NodeJoin { parent, rate })
                .boxed(),
            1 => (0usize..40)
                .prop_map(|node| EventKindSpec::NodeLeave { node })
                .boxed(),
            2 => (0usize..40)
                .prop_map(|node| EventKindSpec::LinkFail { node })
                .boxed(),
            3 => (0usize..40)
                .prop_map(|node| EventKindSpec::LinkHeal { node })
                .boxed(),
            4 => ((0u64..1000), (0usize..40), (0.0f64..300.0))
                .prop_map(|(doc, origin, rate)| EventKindSpec::DocPublish { doc, origin, rate })
                .boxed(),
            5 => (0u64..1000)
                .prop_map(|doc| EventKindSpec::DocUpdate { doc })
                .boxed(),
            _ => (
                (0usize..3),
                (0.0f64..100.0),
                (1usize..32, 0.1f64..2.0),
                proptest::option::of(0u64..(1 << 53)),
            )
                .prop_map(|(mode, rate, (docs, theta), seed)| {
                    // At least one of rates/doc_mix must be present — the
                    // parser rejects empty shifts.
                    let rates = (mode != 1).then_some(RatesSpec::Uniform { rate });
                    let doc_mix = (mode != 0).then_some(DocMixSpec::SharedZipf { docs, theta });
                    EventKindSpec::WorkloadShift {
                        rates,
                        doc_mix,
                        seed,
                    }
                })
                .boxed(),
        })
        .boxed()
}

fn arb_events() -> BoxedStrategy<Option<EventsSpec>> {
    proptest::option::of((
        proptest::collection::vec((0usize..30, arb_event_kind()), 0..6),
        0.0f64..10.0,
        proptest::prelude::any::<bool>(),
    ))
    .prop_map(|maybe| {
        maybe.map(|(raw, recovery_threshold, batched_barriers)| {
            // The parser requires non-decreasing rounds: prefix-sum the
            // generated deltas.
            let mut round = 0;
            let schedule = raw
                .into_iter()
                .map(|(delta, kind)| {
                    round += delta;
                    EventSpec { round, kind }
                })
                .collect();
            EventsSpec {
                schedule,
                recovery_threshold,
                batched_barriers,
            }
        })
    })
    .boxed()
}

fn arb_rebalance() -> BoxedStrategy<Option<RebalanceConfig>> {
    proptest::option::of(
        (1.0f64..4.0, 1u64..20).prop_map(|(trigger_imbalance, min_epoch_gap)| RebalanceConfig {
            trigger_imbalance,
            min_epoch_gap,
        }),
    )
    .boxed()
}

fn arb_spec() -> BoxedStrategy<ScenarioSpec> {
    (
        arb_topology(),
        (arb_rates(), arb_doc_mix()),
        arb_engine(),
        arb_termination(),
        // JSON numbers are f64; the parser rejects seeds above 2^53.
        0u64..(1u64 << 53),
        arb_sweep(),
        (arb_events(), arb_rebalance()),
    )
        .prop_map(
            |(
                topology,
                (rates, doc_mix),
                engine,
                termination,
                seed,
                sweep,
                (events, rebalance),
            )| {
                // The parser only accepts a rebalance block on the sharded
                // engines; gate the generated one the same way so every
                // rendered spec parses back.
                let rebalance = rebalance.filter(|_| {
                    matches!(
                        engine,
                        EngineSpec::PacketSimPar { .. } | EngineSpec::PacketSimDist { .. }
                    )
                });
                ScenarioSpec {
                    name: "prop-spec".to_string(),
                    topology,
                    workload: WorkloadSpec { rates, doc_mix },
                    engine,
                    termination,
                    seed,
                    sweep,
                    events,
                    telemetry: arb_telemetry_from_seed(seed),
                    rebalance,
                }
            },
        )
        .boxed()
}

/// A signed rate parameter, or NaN or an infinity.
fn arb_signed() -> BoxedStrategy<f64> {
    (0usize..8)
        .prop_flat_map(|choice| match choice {
            0 => Just(f64::NAN).boxed(),
            1 => Just(f64::INFINITY).boxed(),
            2 => Just(f64::NEG_INFINITY).boxed(),
            _ => (-100.0f64..100.0).boxed(),
        })
        .boxed()
}

/// Every rates generator with signed and non-finite parameters; explicit
/// lists are sized for fig6's 14 nodes, or one short.
fn arb_signed_rates() -> BoxedStrategy<RatesSpec> {
    (0usize..6)
        .prop_flat_map(|choice| match choice {
            0 => Just(RatesSpec::Paper).boxed(),
            1 => arb_signed()
                .prop_map(|rate| RatesSpec::Uniform { rate })
                .boxed(),
            2 => arb_signed()
                .prop_map(|rate| RatesSpec::LeafOnly { rate })
                .boxed(),
            3 => (arb_signed(), arb_signed())
                .prop_map(|(lo, hi)| RatesSpec::RandomUniform { lo, hi })
                .boxed(),
            4 => (arb_signed(), arb_signed())
                .prop_map(|(total, theta)| RatesSpec::ZipfNodes { total, theta })
                .boxed(),
            _ => proptest::collection::vec(arb_signed(), 13..15)
                .prop_map(|rates| RatesSpec::Explicit { rates })
                .boxed(),
        })
        .boxed()
}

/// The engines whose constructors take the generated rates.
const RATE_ENGINES: [&str; 4] = [
    r#"{"kind": "rate_wave"}"#,
    r#"{"kind": "doc_sim"}"#,
    r#"{"kind": "forest_wave", "roots": [0, 5]}"#,
    r#"{"kind": "baselines", "gle_iterations": 50, "webwave_rounds": 50}"#,
];

/// Cases per property: `PROPTEST_CASES` when set (CI soaks with 2000),
/// else enough for a tier-1 run.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Serialize → parse must reproduce the spec exactly (field-for-field,
    /// bit-for-bit on floats).
    #[test]
    fn json_round_trip_is_identity(spec in arb_spec()) {
        let json = spec.to_json();
        let parsed = ScenarioSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("own output must parse: {e}\n{json}"));
        prop_assert_eq!(parsed, spec);
    }

    /// Rendering is deterministic: same spec, same bytes.
    #[test]
    fn rendering_is_deterministic(spec in arb_spec()) {
        prop_assert_eq!(spec.to_json(), spec.to_json());
    }

    /// Whatever a rates generator yields, resolving the spec gives an
    /// engine that steps, or a SpecError: never a panic.
    #[test]
    fn generated_rates_resolve_or_refuse(rates in arb_signed_rates()) {
        let workload = r#"{"rates": {"kind": "paper"},
            "doc_mix": {"kind": "shared_zipf", "docs": 3, "theta": 1.0}}"#;
        for engine in RATE_ENGINES {
            let mut spec =
                ScenarioSpec::from_json(&with(&[("workload", workload), ("engine", engine)]))
                    .unwrap();
            spec.workload.rates = rates.clone();
            let outcome = std::panic::catch_unwind(|| {
                Runner::new().resolve(&spec).map(|mut engine| engine.step())
            });
            prop_assert!(outcome.is_ok(), "{engine} panicked on {rates:?}");
        }
    }
}

const VALID: &str = r#"{
  "name": "x",
  "topology": {"kind": "paper", "figure": "fig6"},
  "workload": {"rates": {"kind": "paper"}},
  "engine": {"kind": "rate_wave"},
  "termination": {"kind": "rounds", "max": 10}
}"#;

/// `VALID`'s sections, for documents that differ from it in a few.
const BASE: [(&str, &str); 5] = [
    ("name", r#""x""#),
    ("topology", r#"{"kind": "paper", "figure": "fig6"}"#),
    ("workload", r#"{"rates": {"kind": "paper"}}"#),
    ("engine", r#"{"kind": "rate_wave"}"#),
    ("termination", r#"{"kind": "rounds", "max": 10}"#),
];

/// `VALID` with each `(key, value)` section set: replaced in place or
/// appended, and dropped when `value` is empty.
fn with(sections: &[(&str, &str)]) -> String {
    let mut doc = BASE.to_vec();
    for &(key, value) in sections {
        match doc.iter_mut().find(|(k, _)| *k == key) {
            Some(section) => section.1 = value,
            None => doc.push((key, value)),
        }
    }
    let body: Vec<String> = doc
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `VALID` with one section set.
fn one(key: &str, value: &str) -> String {
    with(&[(key, value)])
}

/// The error `doc` is refused with, or `"accepted"`.
fn verdict(doc: &str) -> String {
    ScenarioSpec::from_json(doc).map_or_else(|e| e.to_string(), |_| "accepted".to_string())
}

#[track_caller]
fn rejects(doc: &str, expected: &str) {
    assert_eq!(verdict(doc), expected, "{doc}");
}

#[test]
fn valid_document_parses() {
    let spec = ScenarioSpec::from_json(VALID).unwrap();
    assert_eq!(spec.name, "x");
    assert_eq!(spec.seed, ww_scenario::DEFAULT_SEED);
    assert!(spec.sweep.is_none());
}

#[test]
fn unknown_top_level_field_is_rejected_with_path() {
    rejects(
        &one("extra", "1"),
        "extra: unknown field (expected one of: name, topology, workload, engine, \
         termination, seed, sweep, events, telemetry, rebalance)",
    );
}

#[test]
fn unknown_topology_field_is_rejected_with_path() {
    rejects(
        &VALID.replacen("\"figure\"", "\"figre\"", 1),
        "topology.figre: unknown field (expected one of: kind, figure)",
    );
}

#[test]
fn unknown_engine_kind_is_rejected_with_path() {
    rejects(
        &VALID.replacen("rate_wave", "warp_drive", 1),
        "engine.kind: unknown engine \"warp_drive\" (expected rate_wave, doc_sim, packet_sim, \
         packet_sim_par, packet_sim_dist, forest_wave, or baselines)",
    );
}

#[test]
fn missing_required_field_is_rejected_with_path() {
    rejects(
        &VALID.replacen(", \"max\": 10", "", 1),
        "termination.max: missing required field",
    );
}

#[test]
fn wrong_type_is_rejected_with_path() {
    rejects(
        &VALID.replacen("\"max\": 10", "\"max\": \"ten\"", 1),
        "termination.max: expected a number, got string",
    );
}

#[test]
fn out_of_range_alpha_is_rejected_with_path() {
    rejects(
        &one("engine", r#"{"kind": "rate_wave", "alpha": 1.5}"#),
        "engine.alpha: alpha must lie in (0, 1), got 1.5",
    );
}

#[test]
fn bad_sweep_param_is_rejected_with_path() {
    rejects(
        &one("sweep", r#"{"param": "warp", "values": [1]}"#),
        "sweep.param: unknown sweep parameter \"warp\" (expected staleness, alpha, tunneling, \
         gossip_loss, workers, doc_theta, or seed)",
    );
}

/// Every other way the grammar refuses a document, with its exact
/// error: an unknown tag of every tagged type, an unknown key on every
/// struct and variant (which pins each "expected one of" list), a wrong
/// JSON type for each kind of value, missing keys, every range check and
/// every cross-field rule. The tests above are rows of the same table
/// under their own names.
#[test]
fn malformed_specs_fail_with_their_exact_errors() {
    let par = ("engine", r#"{"kind": "packet_sim_par"}"#);
    let event = |e: &str| one("events", &format!(r#"{{"schedule": [{e}]}}"#));
    const KNOBS: &str = "kind, alpha, tunneling, barrier_patience, link_delay, gossip_period, \
                         diffusion_period, measure_window, gossip_loss, hysteresis, noise_sigmas";
    let rows: Vec<(String, String)> = vec![
        // An unknown tag of every tagged type.
        (one("topology", r#"{"kind": "moebius"}"#), "topology.kind: unknown topology \"moebius\" (expected paper, path, star, k_ary, two_level, caterpillar, broom, random_depth, or explicit)".into()),
        (one("workload", r#"{"rates": {"kind": "lumpy"}}"#), "workload.rates.kind: unknown rates \"lumpy\" (expected paper, uniform, leaf_only, random_uniform, zipf_nodes, or explicit)".into()),
        (one("workload", r#"{"rates": {"kind": "paper"}, "doc_mix": {"kind": "lumpy"}}"#), "workload.doc_mix.kind: unknown doc mix \"lumpy\" (expected paper or shared_zipf)".into()),
        (one("termination", r#"{"kind": "never"}"#), "termination.kind: unknown termination \"never\" (expected rounds, converged, or wall_clock)".into()),
        (one("topology", r#"{"kind": "paper", "figure": "fig9"}"#), "topology.figure: unknown figure \"fig9\" (expected fig2a, fig2b, fig4, fig6, or fig7)".into()),
        (one("engine", r#"{"kind": "baselines", "schemes": ["webwave", "oracle"]}"#), "engine.schemes[1]: unknown scheme \"oracle\" (expected all, no-cache, directory, dns-rr, gle-migration, webwave, or webfold-oracle)".into()),
        (one("telemetry", r#"{"level": "loud"}"#), "telemetry.level: unknown level \"loud\" (expected off, counters, or full)".into()),
        // A retired engine kind is refused, never run as something else.
        (one("engine", r#"{"kind": "cluster"}"#), "engine.kind: unknown engine \"cluster\" (expected rate_wave, doc_sim, packet_sim, packet_sim_par, packet_sim_dist, forest_wave, or baselines)".into()),
        (event(r#"{"round": 1, "kind": "workload_shift", "rates": {"kind": "lumpy"}}"#), "events.schedule[0].rates.kind: unknown rates \"lumpy\" (expected paper, uniform, leaf_only, random_uniform, zipf_nodes, or explicit)".into()),
        // An unknown key on every struct...
        (one("workload", r#"{"rates": {"kind": "paper"}, "mix": 1}"#), "workload.mix: unknown field (expected one of: rates, doc_mix)".into()),
        (one("sweep", r#"{"param": "alpha", "values": [0.5], "step": 1}"#), "sweep.step: unknown field (expected one of: param, values)".into()),
        (one("telemetry", r#"{"level": "off", "path": "t.jsonl"}"#), "telemetry.path: unknown field (expected one of: level, trace_out)".into()),
        (with(&[par, ("rebalance", r#"{"trigger_imbalance": 1.2, "gap": 1}"#)]), "rebalance.gap: unknown field (expected one of: trigger_imbalance, min_epoch_gap)".into()),
        (one("events", r#"{"schedule": [], "threshold": 1}"#), "events.threshold: unknown field (expected one of: schedule, recovery_threshold, batched_barriers)".into()),
        // ... and on every variant.
        (one("topology", r#"{"kind": "path", "nodes": 3, "size": 1}"#), "topology.size: unknown field (expected one of: kind, nodes)".into()),
        (one("topology", r#"{"kind": "star", "nodes": 3, "size": 1}"#), "topology.size: unknown field (expected one of: kind, nodes)".into()),
        (one("topology", r#"{"kind": "k_ary", "arity": 2, "depth": 2, "nodes": 1}"#), "topology.nodes: unknown field (expected one of: kind, arity, depth)".into()),
        (one("topology", r#"{"kind": "two_level", "regions": 2, "leaves": 2, "depth": 1}"#), "topology.depth: unknown field (expected one of: kind, regions, leaves)".into()),
        (one("topology", r#"{"kind": "caterpillar", "spine": 2, "legs": 2, "handle": 1}"#), "topology.handle: unknown field (expected one of: kind, spine, legs)".into()),
        (one("topology", r#"{"kind": "broom", "handle": 2, "bristles": 2, "spine": 1}"#), "topology.spine: unknown field (expected one of: kind, handle, bristles)".into()),
        (one("topology", r#"{"kind": "random_depth", "nodes": 9, "depth": 2, "arity": 1}"#), "topology.arity: unknown field (expected one of: kind, nodes, depth)".into()),
        (one("topology", r#"{"kind": "explicit", "parents": [null], "nodes": 1}"#), "topology.nodes: unknown field (expected one of: kind, parents)".into()),
        (one("workload", r#"{"rates": {"kind": "paper", "rate": 1}}"#), "workload.rates.rate: unknown field (expected one of: kind)".into()),
        (one("workload", r#"{"rates": {"kind": "uniform", "rate": 1, "lo": 0}}"#), "workload.rates.lo: unknown field (expected one of: kind, rate)".into()),
        (one("workload", r#"{"rates": {"kind": "leaf_only", "rate": 1, "hi": 2}}"#), "workload.rates.hi: unknown field (expected one of: kind, rate)".into()),
        (one("workload", r#"{"rates": {"kind": "random_uniform", "lo": 0, "hi": 1, "rate": 1}}"#), "workload.rates.rate: unknown field (expected one of: kind, lo, hi)".into()),
        (one("workload", r#"{"rates": {"kind": "zipf_nodes", "total": 1, "theta": 1, "docs": 1}}"#), "workload.rates.docs: unknown field (expected one of: kind, total, theta)".into()),
        (one("workload", r#"{"rates": {"kind": "explicit", "rates": [1], "rate": 1}}"#), "workload.rates.rate: unknown field (expected one of: kind, rates)".into()),
        (one("workload", r#"{"rates": {"kind": "paper"}, "doc_mix": {"kind": "paper", "docs": 1}}"#), "workload.doc_mix.docs: unknown field (expected one of: kind)".into()),
        (one("workload", r#"{"rates": {"kind": "paper"}, "doc_mix": {"kind": "shared_zipf", "docs": 1, "theta": 1, "rate": 1}}"#), "workload.doc_mix.rate: unknown field (expected one of: kind, docs, theta)".into()),
        (one("engine", r#"{"kind": "rate_wave", "tunneling": true}"#), "engine.tunneling: unknown field (expected one of: kind, alpha, staleness)".into()),
        (one("engine", r#"{"kind": "doc_sim", "staleness": 1}"#), "engine.staleness: unknown field (expected one of: kind, alpha, tunneling, barrier_patience)".into()),
        (one("engine", r#"{"kind": "packet_sim", "workers": 2}"#), format!("engine.workers: unknown field (expected one of: {KNOBS})")),
        (one("engine", r#"{"kind": "packet_sim_par", "staleness": 1}"#), format!("engine.staleness: unknown field (expected one of: {KNOBS}, workers)")),
        (one("engine", r#"{"kind": "packet_sim_dist", "roots": [0]}"#), format!("engine.roots: unknown field (expected one of: {KNOBS}, workers)")),
        (one("engine", r#"{"kind": "forest_wave", "roots": [0], "rounds": 1}"#), "engine.rounds: unknown field (expected one of: kind, alpha, coupled, roots)".into()),
        (one("engine", r#"{"kind": "baselines", "alpha": 0.5}"#), "engine.alpha: unknown field (expected one of: kind, schemes, replicas, lookup_msgs, gle_iterations, webwave_rounds, gossip_per_second)".into()),
        (one("termination", r#"{"kind": "rounds", "max": 1, "threshold": 1}"#), "termination.threshold: unknown field (expected one of: kind, max)".into()),
        (one("termination", r#"{"kind": "converged", "threshold": 1, "seconds": 1}"#), "termination.seconds: unknown field (expected one of: kind, threshold, max_rounds)".into()),
        (one("termination", r#"{"kind": "wall_clock", "seconds": 1, "threshold": 1}"#), "termination.threshold: unknown field (expected one of: kind, seconds, max_rounds)".into()),
        (event(r#"{"round": 1, "kind": "node_join", "parent": 0, "rate": 1, "node": 1}"#), "events.schedule[0].node: unknown field (expected one of: round, kind, parent, rate)".into()),
        (event(r#"{"round": 1, "kind": "link_fail", "node": 1, "doc": 1}"#), "events.schedule[0].doc: unknown field (expected one of: round, kind, node)".into()),
        (event(r#"{"round": 1, "kind": "link_heal", "node": 1, "rate": 1}"#), "events.schedule[0].rate: unknown field (expected one of: round, kind, node)".into()),
        (event(r#"{"round": 1, "kind": "doc_publish", "doc": 1, "origin": 0, "rate": 1, "node": 0}"#), "events.schedule[0].node: unknown field (expected one of: round, kind, doc, origin, rate)".into()),
        (event(r#"{"round": 1, "kind": "doc_update", "doc": 1, "rate": 1}"#), "events.schedule[0].rate: unknown field (expected one of: round, kind, doc)".into()),
        (event(r#"{"round": 1, "kind": "workload_shift", "rates": {"kind": "paper"}, "node": 1}"#), "events.schedule[0].node: unknown field (expected one of: round, kind, rates, doc_mix, seed)".into()),
        // A wrong JSON type for each kind of value.
        ("[]".into(), "expected an object, got array".into()),
        (one("name", "3"), "name: expected a string, got number".into()),
        (one("topology", "[]"), "topology: expected an object, got array".into()),
        (one("sweep", "[]"), "sweep: expected an object, got array".into()),
        (one("workload", r#"{"rates": {"kind": "uniform", "rate": true}}"#), "workload.rates.rate: expected a number, got boolean".into()),
        (one("seed", r#""7""#), "seed: expected a number, got string".into()),
        (one("engine", r#"{"kind": "doc_sim", "tunneling": 1}"#), "engine.tunneling: expected a boolean, got number".into()),
        (one("events", r#"{"schedule": [], "batched_barriers": "yes"}"#), "events.batched_barriers: expected a boolean, got string".into()),
        (one("engine", r#"{"kind": "rate_wave", "alpha": "0.5"}"#), "engine.alpha: expected a number, got string".into()),
        (one("telemetry", r#"{"trace_out": 7}"#), "telemetry.trace_out: expected a file path string, got number".into()),
        (one("topology", r#"{"kind": "paper", "figure": 6}"#), "topology.figure: expected a string, got number".into()),
        (one("engine", r#"{"kind": 1}"#), "engine.kind: expected a string, got number".into()),
        (one("telemetry", r#"{"level": 2}"#), "telemetry.level: expected a string, got number".into()),
        (one("topology", r#"{"kind": "explicit", "parents": {}}"#), "topology.parents: expected an array of parent ids (null for the root)".into()),
        (one("topology", r#"{"kind": "explicit", "parents": [null, "0"]}"#), "topology.parents[1]: expected a number, got string".into()),
        (one("workload", r#"{"rates": {"kind": "explicit", "rates": 1}}"#), "workload.rates.rates: expected an array of numbers".into()),
        (one("engine", r#"{"kind": "forest_wave", "roots": 0}"#), "engine.roots: expected an array of node ids".into()),
        (one("engine", r#"{"kind": "baselines", "schemes": "all"}"#), "engine.schemes: expected an array of scheme names".into()),
        (one("sweep", r#"{"param": "alpha", "values": 0.5}"#), "sweep.values: expected an array of numbers".into()),
        (one("events", r#"{"schedule": {}}"#), "events.schedule: expected an array of events".into()),
        (one("events", r#"{"schedule": [3]}"#), "events.schedule[0]: expected an object, got number".into()),
        (event(r#"{"round": 1, "kind": "workload_shift", "rates": 3}"#), "events.schedule[0].rates: expected an object, got number".into()),
        // A missing required key.
        (one("name", ""), "name: missing required field".into()),
        (one("workload", "{}"), "workload.rates: missing required field".into()),
        (one("topology", r#"{"figure": "fig6"}"#), "topology.kind: missing required field".into()),
        (one("topology", r#"{"kind": "paper"}"#), "topology.figure: missing required field".into()),
        (one("engine", r#"{"kind": "forest_wave"}"#), "engine.roots: missing required field".into()),
        (one("sweep", r#"{"param": "alpha"}"#), "sweep.values: missing required field".into()),
        (with(&[par, ("rebalance", r#"{"min_epoch_gap": 2}"#)]), "rebalance.trigger_imbalance: missing required field".into()),
        (one("events", r#"{"recovery_threshold": 0.5}"#), "events.schedule: missing required field".into()),
        (event(r#"{"kind": "link_fail", "node": 1}"#), "events.schedule[0].round: missing required field".into()),
        (event(r#"{"round": 1, "kind": "node_leave"}"#), "events.schedule[0].node: missing required field".into()),
        // Every range check.
        (one("engine", r#"{"kind": "packet_sim", "alpha": 0}"#), "engine.alpha: alpha must lie in (0, 1), got 0".into()),
        (event(r#"{"round": 1, "kind": "doc_publish", "doc": 1, "origin": 0, "rate": -1}"#), "events.schedule[0].rate: rate must be finite and non-negative, got -1".into()),
        (one("events", r#"{"schedule": [], "recovery_threshold": -1}"#), "events.recovery_threshold: must be non-negative, got -1".into()),
        (with(&[par, ("rebalance", r#"{"trigger_imbalance": 0.5}"#)]), "rebalance.trigger_imbalance: expected a finite max-over-mean ratio of at least 1, got 0.5".into()),
        (with(&[par, ("rebalance", r#"{"trigger_imbalance": 1.2, "min_epoch_gap": 0}"#)]), "rebalance.min_epoch_gap: the observation window must span at least 1 epoch".into()),
        (with(&[par, ("rebalance", r#"{"trigger_imbalance": 1.2, "min_epoch_gap": 18014398509481984}"#)]), "rebalance.min_epoch_gap: 18014398509481984 exceeds 2^53 and cannot round-trip through JSON".into()),
        (one("topology", r#"{"kind": "path", "nodes": -1}"#), "topology.nodes: expected a non-negative integer, got -1".into()),
        (one("topology", r#"{"kind": "path", "nodes": 2.5}"#), "topology.nodes: expected a non-negative integer, got 2.5".into()),
        (one("topology", r#"{"kind": "path", "nodes": 1e20}"#), "topology.nodes: expected a non-negative integer, got 100000000000000000000".into()),
        (event(r#"{"round": 1, "kind": "doc_update", "doc": 18014398509481984}"#), "events.schedule[0].doc: 18014398509481984 exceeds 2^53 and cannot round-trip through JSON".into()),
        (event(r#"{"round": 1, "kind": "workload_shift", "rates": {"kind": "paper"}, "seed": 18014398509481984}"#), "events.schedule[0].seed: 18014398509481984 exceeds 2^53 and cannot round-trip through JSON".into()),
        (one("seed", "18014398509481984"), "seed: 18014398509481984 exceeds 2^53 and cannot round-trip through JSON".into()),
        (one("sweep", r#"{"param": "alpha", "values": []}"#), "sweep.values: sweep needs at least one value".into()),
        // Every cross-field rule (the sharded engines' refusals on
        // `packet_sim_par`, the schedule's order and the empty shift
        // have tests of their own below).
        (one("rebalance", r#"{"trigger_imbalance": 1.2}"#), "rebalance: adaptive rebalancing applies only to the packet_sim_par / packet_sim_dist engines, not rate_wave".into()),
        (one("engine", r#"{"kind": "packet_sim_dist", "link_delay": 0}"#), "engine.link_delay: the distributed engine needs a positive link delay (its conservative lookahead), got 0".into()),
        (one("engine", r#"{"kind": "packet_sim_dist", "workers": 0}"#), "engine.workers: must be at least 1".into()),
    ];
    let wrong: Vec<String> = rows
        .iter()
        .filter_map(|(doc, expected)| {
            let got = verdict(doc);
            (got != *expected)
                .then(|| format!("{doc}\n  expected {expected:?}\n  got      {got:?}"))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} rows differ:\n{}",
        wrong.len(),
        rows.len(),
        wrong.join("\n")
    );
}

/// Absent and `null` read alike wherever the grammar has a default for
/// them; `alpha` and `trace_out` print `null`, the other optional parts
/// are left out.
#[test]
fn null_reads_as_absent_and_each_none_prints_its_way() {
    let base = ScenarioSpec::from_json(VALID).unwrap();
    for doc in [
        one("sweep", "null"),
        one("events", "null"),
        one("rebalance", "null"),
        one("telemetry", "null"),
        one("telemetry", r#"{"level": null, "trace_out": null}"#),
        one(
            "workload",
            r#"{"rates": {"kind": "paper"}, "doc_mix": null}"#,
        ),
        one("engine", r#"{"kind": "rate_wave", "alpha": null}"#),
    ] {
        assert_eq!(ScenarioSpec::from_json(&doc).unwrap(), base, "{doc}");
    }
    let printed = base.to_json();
    for key in ["\"alpha\": null", "\"trace_out\": null"] {
        assert!(printed.contains(key), "{printed}");
    }
    for key in ["doc_mix", "sweep", "events", "rebalance"] {
        assert!(!printed.contains(key), "{printed}");
    }
    let shift = ScenarioSpec::from_json(&one(
        "events",
        r#"{"schedule": [{"round": 1, "kind": "workload_shift", "doc_mix": {"kind": "paper"}}]}"#,
    ))
    .unwrap();
    let printed = shift.to_json();
    assert!(!printed.contains("\"seed\": null"), "{printed}");
    assert_eq!(printed.matches("\"rates\"").count(), 1, "{printed}");
}

/// `"all"` reads as every scheme and is the default; it is never
/// printed.
#[test]
fn the_all_scheme_alias_is_read_but_never_printed() {
    let all = ScenarioSpec::from_json(&one("engine", r#"{"kind": "baselines"}"#)).unwrap();
    let spelled = ScenarioSpec::from_json(&one(
        "engine",
        r#"{"kind": "baselines", "schemes": ["all"]}"#,
    ))
    .unwrap();
    assert_eq!(all, spelled);
    match &all.engine {
        EngineSpec::Baselines { schemes, .. } => assert_eq!(*schemes, BaselineScheme::all()),
        other => panic!("parsed {other:?}"),
    }
    let printed = all.to_json();
    assert!(!printed.contains("\"all\""), "{printed}");
    assert!(printed.contains("\"dns-rr\""), "{printed}");
    assert_eq!(ScenarioSpec::from_json(&printed).unwrap(), all);
}

/// `wall_clock` without `max_rounds` means no round cap, `usize::MAX`:
/// it prints as the nearest JSON number and reads back saturated, equal.
#[test]
fn an_omitted_wall_clock_cap_round_trips() {
    let spec = ScenarioSpec::from_json(&one(
        "termination",
        r#"{"kind": "wall_clock", "seconds": 2}"#,
    ))
    .unwrap();
    assert_eq!(
        spec.termination,
        Termination::WallClock {
            seconds: 2.0,
            max_rounds: usize::MAX
        }
    );
    let printed = spec.to_json();
    assert!(
        printed.contains("\"max_rounds\": 18446744073709552000"),
        "{printed}"
    );
    assert_eq!(ScenarioSpec::from_json(&printed).unwrap(), spec);
}

#[test]
fn syntax_errors_carry_positions() {
    let err = ScenarioSpec::from_json("{\"name\": }").expect_err("syntax error");
    assert!(err.to_string().contains("line 1"), "{err}");
}
#[test]
fn explicit_rates_length_checked_at_resolution() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "bad-rates",
          "topology": {"kind": "paper", "figure": "fig6"},
          "workload": {"rates": {"kind": "explicit", "rates": [1, 2, 3]}},
          "engine": {"kind": "rate_wave"},
          "termination": {"kind": "rounds", "max": 1}
        }"#,
    )
    .unwrap();
    let err = ww_scenario::Runner::new()
        .run(&spec)
        .expect_err("wrong length");
    assert!(err.to_string().contains("workload.rates.rates"), "{err}");
    assert!(err.to_string().contains("one per node"), "{err}");
}

#[test]
fn doc_engine_without_mix_is_rejected_at_resolution() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "no-mix",
          "topology": {"kind": "paper", "figure": "fig6"},
          "workload": {"rates": {"kind": "paper"}},
          "engine": {"kind": "doc_sim"},
          "termination": {"kind": "rounds", "max": 1}
        }"#,
    )
    .unwrap();
    let err = ww_scenario::Runner::new()
        .run(&spec)
        .expect_err("missing mix");
    assert!(err.to_string().contains("workload.doc_mix"), "{err}");
}

#[test]
fn out_of_range_sweep_values_are_rejected_not_panicked() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "bad-alpha-sweep",
          "topology": {"kind": "paper", "figure": "fig6"},
          "workload": {"rates": {"kind": "paper"}},
          "engine": {"kind": "rate_wave"},
          "termination": {"kind": "rounds", "max": 1},
          "sweep": {"param": "alpha", "values": [0.5, 1.5]}
        }"#,
    )
    .unwrap();
    let err = ww_scenario::Runner::new()
        .run(&spec)
        .expect_err("alpha 1.5 must be a SpecError, not an engine panic");
    assert!(err.to_string().contains("sweep.values"), "{err}");
    assert!(
        err.to_string().contains("alpha must lie in (0, 1)"),
        "{err}"
    );

    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "bad-staleness-sweep",
          "topology": {"kind": "paper", "figure": "fig6"},
          "workload": {"rates": {"kind": "paper"}},
          "engine": {"kind": "rate_wave"},
          "termination": {"kind": "rounds", "max": 1},
          "sweep": {"param": "staleness", "values": [-1]}
        }"#,
    )
    .unwrap();
    let err = ww_scenario::Runner::new()
        .run(&spec)
        .expect_err("negative staleness must be rejected");
    assert!(err.to_string().contains("sweep.values"), "{err}");
}

#[test]
fn incompatible_sweep_is_rejected_at_resolution() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "bad-sweep",
          "topology": {"kind": "paper", "figure": "fig6"},
          "workload": {"rates": {"kind": "paper"}},
          "engine": {"kind": "baselines"},
          "termination": {"kind": "rounds", "max": 1},
          "sweep": {"param": "staleness", "values": [0, 1]}
        }"#,
    )
    .unwrap();
    let err = ww_scenario::Runner::new()
        .run(&spec)
        .expect_err("bad sweep");
    assert!(err.to_string().contains("sweep.param"), "{err}");
}

/// A knob the packet world refuses (`PacketSimConfig::check`: one row
/// per range it states) is a `SpecError` at the knob's path on every
/// packet engine, not a panic. Most of them parse: `gossip_loss: 1.5`
/// and `gossip_period: 0` do.
#[test]
fn out_of_range_packet_knobs_are_refused_at_resolution() {
    type Edit = fn(&mut PacketKnobs);
    let rows: [(Edit, &str); 6] = [
        (
            |k| k.link_delay = -1.0,
            "engine.link_delay: link delay out of range, got -1",
        ),
        (
            |k| k.gossip_period = 0.0,
            "engine.gossip_period: gossip period out of range, got 0",
        ),
        (
            |k| k.diffusion_period = -0.5,
            "engine.diffusion_period: diffusion period out of range, got -0.5",
        ),
        (
            |k| k.measure_window = 0.0,
            "engine.measure_window: measure window out of range, got 0",
        ),
        (
            |k| k.alpha = Some(1.5),
            "engine.alpha: diffusion alpha out of range, got 1.5",
        ),
        (
            |k| k.gossip_loss = 1.5,
            "engine.gossip_loss: gossip loss out of range, got 1.5",
        ),
    ];
    let base = ScenarioSpec::from_json(&with(&[
        ("topology", r#"{"kind": "k_ary", "arity": 2, "depth": 2}"#),
        (
            "workload",
            r#"{"rates": {"kind": "uniform", "rate": 1},
                "doc_mix": {"kind": "shared_zipf", "docs": 2, "theta": 1}}"#,
        ),
        ("engine", r#"{"kind": "packet_sim"}"#),
        ("termination", r#"{"kind": "rounds", "max": 1}"#),
    ]))
    .unwrap();
    let knobs = PacketKnobs::default();
    for engine in [
        EngineSpec::PacketSim { knobs },
        EngineSpec::PacketSimPar { knobs, workers: 2 },
    ] {
        for (edit, expected) in rows {
            let mut spec = ScenarioSpec {
                engine: engine.clone(),
                ..base.clone()
            };
            if let EngineSpec::PacketSim { knobs } | EngineSpec::PacketSimPar { knobs, .. } =
                &mut spec.engine
            {
                edit(knobs);
            }
            let err = ww_scenario::Runner::new().run(&spec).expect_err(expected);
            assert_eq!(err.to_string(), expected, "{}", engine.kind());
        }
    }
}

#[test]
fn packet_sim_par_parses_with_defaults_and_round_trips() {
    let spec = ScenarioSpec::from_json(
        r#"{
          "name": "par",
          "topology": {"kind": "k_ary", "arity": 2, "depth": 3},
          "workload": {
            "rates": {"kind": "leaf_only", "rate": 10.0},
            "doc_mix": {"kind": "shared_zipf", "docs": 4, "theta": 1.0}
          },
          "engine": {"kind": "packet_sim_par", "workers": 3},
          "termination": {"kind": "rounds", "max": 2}
        }"#,
    )
    .unwrap();
    match &spec.engine {
        EngineSpec::PacketSimPar { knobs, workers } => {
            assert_eq!(*workers, 3);
            assert_eq!(knobs.link_delay, 0.005);
        }
        other => panic!("parsed {other:?}"),
    }
    let reparsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(reparsed, spec);
}

#[test]
fn packet_sim_par_rejects_zero_workers_and_zero_link_delay() {
    rejects(
        &one("engine", r#"{"kind": "packet_sim_par", "workers": 0}"#),
        "engine.workers: must be at least 1",
    );
    rejects(
        &one("engine", r#"{"kind": "packet_sim_par", "link_delay": 0}"#),
        "engine.link_delay: the parallel engine needs a positive link delay \
         (its conservative lookahead), got 0",
    );
}

#[test]
fn unknown_engine_error_lists_packet_sim_par() {
    let err = ScenarioSpec::from_json(&VALID.replacen("rate_wave", "warp_drive", 1))
        .expect_err("unknown engine");
    assert!(err.to_string().contains("packet_sim_par"), "{err}");
}

// ---------------------------------------------------------------------
// Event grammar
// ---------------------------------------------------------------------

#[test]
fn events_block_parses_and_round_trips() {
    let doc = one(
        "events",
        r#"{"recovery_threshold": 0.5, "schedule": [
            {"round": 2, "kind": "node_join", "parent": 0, "rate": 10.0},
            {"round": 5, "kind": "link_fail", "node": 1},
            {"round": 5, "kind": "doc_update", "doc": 7},
            {"round": 9, "kind": "workload_shift",
             "rates": {"kind": "uniform", "rate": 3.0}}
        ]}"#,
    );
    let spec = ScenarioSpec::from_json(&doc).unwrap();
    let events = spec.events.as_ref().expect("events parsed");
    assert_eq!(events.schedule.len(), 4);
    assert_eq!(events.recovery_threshold, 0.5);
    assert_eq!(events.schedule[0].kind.kind(), "node_join");
    let reparsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(reparsed, spec);
}

#[test]
fn unknown_event_kind_is_rejected_with_path() {
    rejects(
        &one(
            "events",
            r#"{"schedule": [{"round": 1, "kind": "meteor_strike"}]}"#,
        ),
        "events.schedule[0].kind: unknown event \"meteor_strike\" (expected node_join, \
         node_leave, link_fail, link_heal, doc_publish, doc_update, or workload_shift)",
    );
}

#[test]
fn unsorted_schedule_is_rejected_with_path() {
    rejects(
        &one(
            "events",
            r#"{"schedule": [
                {"round": 9, "kind": "link_fail", "node": 1},
                {"round": 3, "kind": "link_heal", "node": 1}
            ]}"#,
        ),
        "events.schedule[1].round: schedule must be sorted by round (3 follows 9)",
    );
}

#[test]
fn empty_workload_shift_is_rejected_with_path() {
    rejects(
        &one(
            "events",
            r#"{"schedule": [{"round": 1, "kind": "workload_shift"}]}"#,
        ),
        "events.schedule[0]: workload_shift needs rates, doc_mix, or both",
    );
}

#[test]
fn unknown_event_field_is_rejected_with_path() {
    rejects(
        &one(
            "events",
            r#"{"schedule": [{"round": 1, "kind": "node_leave", "node": 1, "notify": true}]}"#,
        ),
        "events.schedule[0].notify: unknown field (expected one of: round, kind, node)",
    );
}

#[test]
fn negative_event_rate_is_rejected_with_path() {
    rejects(
        &one(
            "events",
            r#"{"schedule": [{"round": 1, "kind": "node_join", "parent": 0, "rate": -3.0}]}"#,
        ),
        "events.schedule[0].rate: rate must be finite and non-negative, got -3",
    );
}
