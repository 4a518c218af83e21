//! Property tests: `ScenarioSpec` round-trips through JSON exactly, and
//! malformed documents are rejected with a useful field path.

use proptest::prelude::*;
use ww_scenario::{
    BaselineScheme, DocMixSpec, EngineSpec, EventKindSpec, EventSpec, EventsSpec, PacketKnobs,
    PaperFigure, RatesSpec, RebalanceSpec, ScenarioSpec, Sweep, SweepParam, TelemetrySpec,
    Termination, TopologySpec, WorkloadSpec,
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

fn arb_knobs() -> impl Strategy<Value = PacketKnobs> {
    (
        arb_alpha(),
        0usize..2,
        (0.001f64..0.1, 0.1f64..2.0, 0.1f64..2.0),
        (0.0f64..0.5, 0.0f64..0.2, 0.0f64..5.0),
    )
        .prop_map(
            |(
                alpha,
                t,
                (link_delay, gossip_period, diffusion_period),
                (gossip_loss, hysteresis, noise_sigmas),
            )| PacketKnobs {
                alpha,
                tunneling: t == 1,
                link_delay,
                gossip_period,
                diffusion_period,
                gossip_loss,
                hysteresis,
                noise_sigmas,
                ..PacketKnobs::default()
            },
        )
}

fn arb_engine() -> BoxedStrategy<EngineSpec> {
    (0usize..8)
        .prop_flat_map(|choice| match choice {
            7 => (arb_knobs(), 1usize..8)
                .prop_map(|(knobs, workers)| EngineSpec::PacketSimDist { knobs, workers })
                .boxed(),
            6 => (arb_knobs(), 1usize..16)
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
            4 => (arb_alpha(), 1usize..5000, 8usize..2048)
                .prop_map(|(alpha, rounds, channel_capacity)| EngineSpec::Cluster {
                    alpha,
                    rounds,
                    channel_capacity,
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

fn arb_rebalance() -> BoxedStrategy<Option<RebalanceSpec>> {
    proptest::option::of(
        (1.0f64..4.0, 1u64..20).prop_map(|(trigger_imbalance, min_epoch_gap)| RebalanceSpec {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
}

const VALID: &str = r#"{
  "name": "x",
  "topology": {"kind": "paper", "figure": "fig6"},
  "workload": {"rates": {"kind": "paper"}},
  "engine": {"kind": "rate_wave"},
  "termination": {"kind": "rounds", "max": 10}
}"#;

fn expect_error(mutation: impl Fn(&str) -> String, path_fragment: &str, msg_fragment: &str) {
    let doc = mutation(VALID);
    let err = ScenarioSpec::from_json(&doc).expect_err("mutated doc must be rejected");
    let rendered = err.to_string();
    assert!(
        rendered.contains(path_fragment),
        "error {rendered:?} should name path {path_fragment:?}"
    );
    assert!(
        rendered.contains(msg_fragment),
        "error {rendered:?} should mention {msg_fragment:?}"
    );
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
    expect_error(
        |doc| doc.replacen("\"name\"", "\"extra\": 1, \"name\"", 1),
        "extra",
        "unknown field",
    );
}

#[test]
fn unknown_topology_field_is_rejected_with_path() {
    expect_error(
        |doc| doc.replacen("\"figure\"", "\"figre\"", 1),
        "topology.figre",
        "unknown field",
    );
}

#[test]
fn unknown_engine_kind_is_rejected_with_path() {
    expect_error(
        |doc| doc.replacen("rate_wave", "warp_drive", 1),
        "engine.kind",
        "unknown engine",
    );
}

#[test]
fn missing_required_field_is_rejected_with_path() {
    expect_error(
        |doc| doc.replacen(", \"max\": 10", "", 1),
        "termination.max",
        "missing required field",
    );
}

#[test]
fn wrong_type_is_rejected_with_path() {
    expect_error(
        |doc| doc.replacen("\"max\": 10", "\"max\": \"ten\"", 1),
        "termination.max",
        "expected a number",
    );
}

#[test]
fn out_of_range_alpha_is_rejected_with_path() {
    expect_error(
        |doc| {
            doc.replacen(
                "\"kind\": \"rate_wave\"",
                "\"kind\": \"rate_wave\", \"alpha\": 1.5",
                1,
            )
        },
        "engine.alpha",
        "alpha must lie in (0, 1)",
    );
}

#[test]
fn bad_sweep_param_is_rejected_with_path() {
    expect_error(
        |doc| {
            doc.replacen(
                "\"termination\"",
                "\"sweep\": {\"param\": \"warp\", \"values\": [1]}, \"termination\"",
                1,
            )
        },
        "sweep.param",
        "unknown sweep parameter",
    );
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
          "engine": {"kind": "cluster"},
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
    let base = |engine: &str| {
        format!(
            r#"{{
              "name": "par",
              "topology": {{"kind": "k_ary", "arity": 2, "depth": 2}},
              "workload": {{"rates": {{"kind": "uniform", "rate": 1.0}}}},
              "engine": {engine},
              "termination": {{"kind": "rounds", "max": 1}}
            }}"#
        )
    };
    let err = ScenarioSpec::from_json(&base(r#"{"kind": "packet_sim_par", "workers": 0}"#))
        .expect_err("zero workers");
    assert!(err.to_string().contains("engine.workers"), "{err}");
    let err = ScenarioSpec::from_json(&base(r#"{"kind": "packet_sim_par", "link_delay": 0}"#))
        .expect_err("zero link delay");
    assert!(err.to_string().contains("engine.link_delay"), "{err}");
    assert!(err.to_string().contains("lookahead"), "{err}");
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

fn with_events(events_json: &str) -> String {
    VALID.replacen(
        "\"termination\"",
        &format!("\"events\": {events_json}, \"termination\""),
        1,
    )
}

#[test]
fn events_block_parses_and_round_trips() {
    let doc = with_events(
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
    let doc = with_events(r#"{"schedule": [{"round": 1, "kind": "meteor_strike"}]}"#);
    let err = ScenarioSpec::from_json(&doc).expect_err("unknown event kind");
    let rendered = err.to_string();
    assert!(rendered.contains("events.schedule[0].kind"), "{rendered}");
    assert!(rendered.contains("unknown event"), "{rendered}");
}

#[test]
fn unsorted_schedule_is_rejected_with_path() {
    let doc = with_events(
        r#"{"schedule": [
            {"round": 9, "kind": "link_fail", "node": 1},
            {"round": 3, "kind": "link_heal", "node": 1}
        ]}"#,
    );
    let err = ScenarioSpec::from_json(&doc).expect_err("unsorted schedule");
    let rendered = err.to_string();
    assert!(rendered.contains("events.schedule[1].round"), "{rendered}");
    assert!(rendered.contains("sorted"), "{rendered}");
}

#[test]
fn empty_workload_shift_is_rejected_with_path() {
    let doc = with_events(r#"{"schedule": [{"round": 1, "kind": "workload_shift"}]}"#);
    let err = ScenarioSpec::from_json(&doc).expect_err("empty shift");
    let rendered = err.to_string();
    assert!(rendered.contains("events.schedule[0]"), "{rendered}");
    assert!(rendered.contains("rates, doc_mix, or both"), "{rendered}");
}

#[test]
fn unknown_event_field_is_rejected_with_path() {
    let doc = with_events(
        r#"{"schedule": [{"round": 1, "kind": "node_leave", "node": 1, "notify": true}]}"#,
    );
    let err = ScenarioSpec::from_json(&doc).expect_err("unknown field");
    let rendered = err.to_string();
    assert!(rendered.contains("events.schedule[0].notify"), "{rendered}");
    assert!(rendered.contains("unknown field"), "{rendered}");
}

#[test]
fn negative_event_rate_is_rejected_with_path() {
    let doc = with_events(
        r#"{"schedule": [{"round": 1, "kind": "node_join", "parent": 0, "rate": -3.0}]}"#,
    );
    let err = ScenarioSpec::from_json(&doc).expect_err("negative rate");
    let rendered = err.to_string();
    assert!(rendered.contains("events.schedule[0].rate"), "{rendered}");
}
