//! JSON (de)serialization of [`ScenarioSpec`].
//!
//! The mapping is hand-written against the vendored `serde_json::Value`
//! (the vendored `serde` derives are no-ops — see `vendor/serde/`): a
//! strict reader that rejects unknown fields and reports errors with a
//! dotted JSON path (`engine.alpha: expected a number`), and a writer
//! that always emits every field so `parse(render(spec)) == spec`
//! exactly.

use crate::error::SpecError;
use crate::events::{EventKindSpec, EventSpec, EventsSpec, DEFAULT_RECOVERY_THRESHOLD};
use crate::spec::{
    BaselineScheme, DocMixSpec, EngineSpec, PacketKnobs, PaperFigure, RatesSpec, RebalanceSpec,
    ScenarioSpec, Sweep, SweepParam, TelemetrySpec, Termination, TopologySpec, WorkloadSpec,
    DEFAULT_SEED,
};
use serde_json::{Map, Value};
use ww_telemetry::Level;

impl ScenarioSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] whose `path` names the offending field for
    /// any syntax error, missing/unknown field, or out-of-range value.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, SpecError> {
        let value = serde_json::from_str(text)?;
        Self::from_value(&value)
    }

    /// Parses a spec from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] with a dotted field path, as
    /// [`ScenarioSpec::from_json`].
    pub fn from_value(value: &Value) -> Result<ScenarioSpec, SpecError> {
        let map = as_object(value, "")?;
        reject_unknown(
            map,
            &[
                "name",
                "topology",
                "workload",
                "engine",
                "termination",
                "seed",
                "sweep",
                "events",
                "telemetry",
                "rebalance",
            ],
            "",
        )?;
        let name = req_str(map, "name", "")?.to_string();
        let topology = parse_topology(req(map, "topology", "")?)?;
        let workload = parse_workload(req(map, "workload", "")?)?;
        let engine = parse_engine(req(map, "engine", "")?)?;
        let termination = parse_termination(req(map, "termination", "")?)?;
        let seed = match map.get("seed") {
            Some(v) => {
                let seed = parse_u64(v, "seed")?;
                // JSON numbers are f64: only integers up to 2^53 survive a
                // round trip exactly, and a seed that silently changes is
                // worse than an error.
                if seed > (1u64 << 53) {
                    return Err(SpecError::at(
                        "seed",
                        format!("seed {seed} exceeds 2^53 and cannot round-trip through JSON"),
                    ));
                }
                seed
            }
            None => DEFAULT_SEED,
        };
        let sweep = match map.get("sweep") {
            Some(Value::Null) | None => None,
            Some(v) => Some(parse_sweep(v)?),
        };
        let events = match map.get("events") {
            Some(Value::Null) | None => None,
            Some(v) => Some(parse_events(v)?),
        };
        let telemetry = match map.get("telemetry") {
            Some(Value::Null) | None => TelemetrySpec::default(),
            Some(v) => parse_telemetry(v)?,
        };
        let rebalance = match map.get("rebalance") {
            Some(Value::Null) | None => None,
            Some(v) => {
                // Only the sharded engines have shards to re-balance.
                // packet_sim_dist parses fine and is rejected at launch
                // with a typed DistError::Unsupported instead, so the
                // refusal names the actual limitation.
                if !matches!(
                    engine,
                    EngineSpec::PacketSimPar { .. } | EngineSpec::PacketSimDist { .. }
                ) {
                    return Err(SpecError::at(
                        "rebalance",
                        format!(
                            "adaptive rebalancing applies only to the packet_sim_par / \
                             packet_sim_dist engines, not {}",
                            engine.kind()
                        ),
                    ));
                }
                Some(parse_rebalance(v)?)
            }
        };
        Ok(ScenarioSpec {
            name,
            topology,
            workload,
            engine,
            termination,
            seed,
            sweep,
            events,
            telemetry,
            rebalance,
        })
    }

    /// Renders the spec as pretty-printed JSON. Every field is emitted
    /// explicitly (including defaults), so rendering then parsing yields
    /// an identical spec.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value())
    }

    /// Renders the spec as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("name", Value::from(self.name.as_str()));
        map.insert("topology", topology_value(&self.topology));
        map.insert("workload", workload_value(&self.workload));
        map.insert("engine", engine_value(&self.engine));
        map.insert("termination", termination_value(&self.termination));
        map.insert("seed", Value::Number(self.seed as f64));
        if let Some(sweep) = &self.sweep {
            map.insert("sweep", sweep_value(sweep));
        }
        if let Some(events) = &self.events {
            map.insert("events", events_value(events));
        }
        map.insert("telemetry", telemetry_value(&self.telemetry));
        if let Some(rebalance) = &self.rebalance {
            map.insert("rebalance", rebalance_value(rebalance));
        }
        Value::Object(map)
    }
}

// ---------------------------------------------------------------------
// Reader helpers
// ---------------------------------------------------------------------

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn as_object<'a>(value: &'a Value, path: &str) -> Result<&'a Map, SpecError> {
    value.as_object().ok_or_else(|| {
        SpecError::at(
            path,
            format!("expected an object, got {}", value.type_name()),
        )
    })
}

fn reject_unknown(map: &Map, allowed: &[&str], path: &str) -> Result<(), SpecError> {
    for key in map.keys() {
        if !allowed.contains(&key) {
            return Err(SpecError::at(
                join(path, key),
                format!("unknown field (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn req<'a>(map: &'a Map, key: &str, path: &str) -> Result<&'a Value, SpecError> {
    map.get(key)
        .ok_or_else(|| SpecError::at(join(path, key), "missing required field"))
}

fn req_str<'a>(map: &'a Map, key: &str, path: &str) -> Result<&'a str, SpecError> {
    let v = req(map, key, path)?;
    v.as_str().ok_or_else(|| {
        SpecError::at(
            join(path, key),
            format!("expected a string, got {}", v.type_name()),
        )
    })
}

fn parse_f64(value: &Value, path: &str) -> Result<f64, SpecError> {
    value.as_f64().ok_or_else(|| {
        SpecError::at(
            path,
            format!("expected a number, got {}", value.type_name()),
        )
    })
}

fn parse_u64(value: &Value, path: &str) -> Result<u64, SpecError> {
    let x = parse_f64(value, path)?;
    if x < 0.0 || x.fract() != 0.0 || x > u64::MAX as f64 {
        return Err(SpecError::at(
            path,
            format!("expected a non-negative integer, got {x}"),
        ));
    }
    Ok(x as u64)
}

fn parse_usize(value: &Value, path: &str) -> Result<usize, SpecError> {
    Ok(parse_u64(value, path)? as usize)
}

/// A u64 that must survive JSON's f64 number representation exactly.
fn parse_u53(value: &Value, path: &str) -> Result<u64, SpecError> {
    let x = parse_u64(value, path)?;
    if x > (1u64 << 53) {
        return Err(SpecError::at(
            path,
            format!("{x} exceeds 2^53 and cannot round-trip through JSON"),
        ));
    }
    Ok(x)
}

fn parse_bool(value: &Value, path: &str) -> Result<bool, SpecError> {
    value.as_bool().ok_or_else(|| {
        SpecError::at(
            path,
            format!("expected a boolean, got {}", value.type_name()),
        )
    })
}

fn req_f64(map: &Map, key: &str, path: &str) -> Result<f64, SpecError> {
    parse_f64(req(map, key, path)?, &join(path, key))
}

fn req_usize(map: &Map, key: &str, path: &str) -> Result<usize, SpecError> {
    parse_usize(req(map, key, path)?, &join(path, key))
}

fn opt_f64(map: &Map, key: &str, path: &str, default: f64) -> Result<f64, SpecError> {
    match map.get(key) {
        Some(v) => parse_f64(v, &join(path, key)),
        None => Ok(default),
    }
}

fn opt_usize(map: &Map, key: &str, path: &str, default: usize) -> Result<usize, SpecError> {
    match map.get(key) {
        Some(v) => parse_usize(v, &join(path, key)),
        None => Ok(default),
    }
}

fn opt_bool(map: &Map, key: &str, path: &str, default: bool) -> Result<bool, SpecError> {
    match map.get(key) {
        Some(v) => parse_bool(v, &join(path, key)),
        None => Ok(default),
    }
}

/// `"alpha": null` or absent means the engine default; a number is an
/// explicit override, validated to `(0, 1)`.
fn opt_alpha(map: &Map, path: &str) -> Result<Option<f64>, SpecError> {
    match map.get("alpha") {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            let x = parse_f64(v, &join(path, "alpha"))?;
            if x <= 0.0 || x >= 1.0 {
                return Err(SpecError::at(
                    join(path, "alpha"),
                    format!("alpha must lie in (0, 1), got {x}"),
                ));
            }
            Ok(Some(x))
        }
    }
}

fn kind<'a>(map: &'a Map, path: &str) -> Result<&'a str, SpecError> {
    req_str(map, "kind", path)
}

// ---------------------------------------------------------------------
// Section readers
// ---------------------------------------------------------------------

fn parse_topology(value: &Value) -> Result<TopologySpec, SpecError> {
    let path = "topology";
    let map = as_object(value, path)?;
    match kind(map, path)? {
        "paper" => {
            reject_unknown(map, &["kind", "figure"], path)?;
            let figure = match req_str(map, "figure", path)? {
                "fig2a" => PaperFigure::Fig2a,
                "fig2b" => PaperFigure::Fig2b,
                "fig4" => PaperFigure::Fig4,
                "fig6" => PaperFigure::Fig6,
                "fig7" => PaperFigure::Fig7,
                other => {
                    return Err(SpecError::at(
                        "topology.figure",
                        format!("unknown figure \"{other}\" (expected fig2a, fig2b, fig4, fig6, or fig7)"),
                    ))
                }
            };
            Ok(TopologySpec::Paper { figure })
        }
        "path" => {
            reject_unknown(map, &["kind", "nodes"], path)?;
            Ok(TopologySpec::Path {
                nodes: req_usize(map, "nodes", path)?,
            })
        }
        "star" => {
            reject_unknown(map, &["kind", "nodes"], path)?;
            Ok(TopologySpec::Star {
                nodes: req_usize(map, "nodes", path)?,
            })
        }
        "k_ary" => {
            reject_unknown(map, &["kind", "arity", "depth"], path)?;
            Ok(TopologySpec::KAry {
                arity: req_usize(map, "arity", path)?,
                depth: req_usize(map, "depth", path)?,
            })
        }
        "two_level" => {
            reject_unknown(map, &["kind", "regions", "leaves"], path)?;
            Ok(TopologySpec::TwoLevel {
                regions: req_usize(map, "regions", path)?,
                leaves: req_usize(map, "leaves", path)?,
            })
        }
        "caterpillar" => {
            reject_unknown(map, &["kind", "spine", "legs"], path)?;
            Ok(TopologySpec::Caterpillar {
                spine: req_usize(map, "spine", path)?,
                legs: req_usize(map, "legs", path)?,
            })
        }
        "broom" => {
            reject_unknown(map, &["kind", "handle", "bristles"], path)?;
            Ok(TopologySpec::Broom {
                handle: req_usize(map, "handle", path)?,
                bristles: req_usize(map, "bristles", path)?,
            })
        }
        "random_depth" => {
            reject_unknown(map, &["kind", "nodes", "depth"], path)?;
            Ok(TopologySpec::RandomDepth {
                nodes: req_usize(map, "nodes", path)?,
                depth: req_usize(map, "depth", path)?,
            })
        }
        "explicit" => {
            reject_unknown(map, &["kind", "parents"], path)?;
            let field = join(path, "parents");
            let items = req(map, "parents", path)?
                .as_array()
                .ok_or_else(|| SpecError::at(&field, "expected an array of parent ids (null for the root)"))?;
            let mut parents = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                parents.push(match item {
                    Value::Null => None,
                    v => Some(parse_usize(v, &format!("{field}[{i}]"))?),
                });
            }
            Ok(TopologySpec::Explicit { parents })
        }
        other => Err(SpecError::at(
            "topology.kind",
            format!(
                "unknown topology \"{other}\" (expected paper, path, star, k_ary, two_level, caterpillar, broom, random_depth, or explicit)"
            ),
        )),
    }
}

fn parse_workload(value: &Value) -> Result<WorkloadSpec, SpecError> {
    let path = "workload";
    let map = as_object(value, path)?;
    reject_unknown(map, &["rates", "doc_mix"], path)?;
    let rates = parse_rates(req(map, "rates", path)?, "workload.rates")?;
    let doc_mix = match map.get("doc_mix") {
        None | Some(Value::Null) => None,
        Some(v) => Some(parse_doc_mix(v, "workload.doc_mix")?),
    };
    Ok(WorkloadSpec { rates, doc_mix })
}

fn parse_rates(value: &Value, path: &str) -> Result<RatesSpec, SpecError> {
    let map = as_object(value, path)?;
    match kind(map, path)? {
        "paper" => {
            reject_unknown(map, &["kind"], path)?;
            Ok(RatesSpec::Paper)
        }
        "uniform" => {
            reject_unknown(map, &["kind", "rate"], path)?;
            Ok(RatesSpec::Uniform {
                rate: req_f64(map, "rate", path)?,
            })
        }
        "leaf_only" => {
            reject_unknown(map, &["kind", "rate"], path)?;
            Ok(RatesSpec::LeafOnly {
                rate: req_f64(map, "rate", path)?,
            })
        }
        "random_uniform" => {
            reject_unknown(map, &["kind", "lo", "hi"], path)?;
            Ok(RatesSpec::RandomUniform {
                lo: req_f64(map, "lo", path)?,
                hi: req_f64(map, "hi", path)?,
            })
        }
        "zipf_nodes" => {
            reject_unknown(map, &["kind", "total", "theta"], path)?;
            Ok(RatesSpec::ZipfNodes {
                total: req_f64(map, "total", path)?,
                theta: req_f64(map, "theta", path)?,
            })
        }
        "explicit" => {
            reject_unknown(map, &["kind", "rates"], path)?;
            let field = join(path, "rates");
            let items = req(map, "rates", path)?
                .as_array()
                .ok_or_else(|| SpecError::at(&field, "expected an array of numbers"))?;
            let mut rates = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                rates.push(parse_f64(item, &format!("{field}[{i}]"))?);
            }
            Ok(RatesSpec::Explicit { rates })
        }
        other => Err(SpecError::at(
            join(path, "kind"),
            format!(
                "unknown rates \"{other}\" (expected paper, uniform, leaf_only, random_uniform, zipf_nodes, or explicit)"
            ),
        )),
    }
}

fn parse_doc_mix(value: &Value, path: &str) -> Result<DocMixSpec, SpecError> {
    let map = as_object(value, path)?;
    match kind(map, path)? {
        "paper" => {
            reject_unknown(map, &["kind"], path)?;
            Ok(DocMixSpec::Paper)
        }
        "shared_zipf" => {
            reject_unknown(map, &["kind", "docs", "theta"], path)?;
            Ok(DocMixSpec::SharedZipf {
                docs: req_usize(map, "docs", path)?,
                theta: req_f64(map, "theta", path)?,
            })
        }
        other => Err(SpecError::at(
            join(path, "kind"),
            format!("unknown doc mix \"{other}\" (expected paper or shared_zipf)"),
        )),
    }
}

/// The JSON field names of [`PacketKnobs`].
const PACKET_KNOB_FIELDS: [&str; 10] = [
    "alpha",
    "tunneling",
    "barrier_patience",
    "link_delay",
    "gossip_period",
    "diffusion_period",
    "measure_window",
    "gossip_loss",
    "hysteresis",
    "noise_sigmas",
];

/// The knobs every packet engine shares; `extra` names the fields the
/// engine at hand takes on top.
fn parse_packet_knobs(map: &Map, path: &str, extra: &[&str]) -> Result<PacketKnobs, SpecError> {
    let mut known = vec!["kind"];
    known.extend(PACKET_KNOB_FIELDS);
    known.extend(extra);
    reject_unknown(map, &known, path)?;
    let d = PacketKnobs::default();
    Ok(PacketKnobs {
        alpha: opt_alpha(map, path)?,
        tunneling: opt_bool(map, "tunneling", path, d.tunneling)?,
        barrier_patience: opt_usize(map, "barrier_patience", path, d.barrier_patience)?,
        link_delay: opt_f64(map, "link_delay", path, d.link_delay)?,
        gossip_period: opt_f64(map, "gossip_period", path, d.gossip_period)?,
        diffusion_period: opt_f64(map, "diffusion_period", path, d.diffusion_period)?,
        measure_window: opt_f64(map, "measure_window", path, d.measure_window)?,
        gossip_loss: opt_f64(map, "gossip_loss", path, d.gossip_loss)?,
        hysteresis: opt_f64(map, "hysteresis", path, d.hysteresis)?,
        noise_sigmas: opt_f64(map, "noise_sigmas", path, d.noise_sigmas)?,
    })
}

fn parse_engine(value: &Value) -> Result<EngineSpec, SpecError> {
    let path = "engine";
    let map = as_object(value, path)?;
    match kind(map, path)? {
        "rate_wave" => {
            reject_unknown(map, &["kind", "alpha", "staleness"], path)?;
            Ok(EngineSpec::RateWave {
                alpha: opt_alpha(map, path)?,
                staleness: opt_usize(map, "staleness", path, 0)?,
            })
        }
        "doc_sim" => {
            reject_unknown(map, &["kind", "alpha", "tunneling", "barrier_patience"], path)?;
            Ok(EngineSpec::DocSim {
                alpha: opt_alpha(map, path)?,
                tunneling: opt_bool(map, "tunneling", path, true)?,
                barrier_patience: opt_usize(map, "barrier_patience", path, 2)?,
            })
        }
        "packet_sim" => Ok(EngineSpec::PacketSim {
            knobs: parse_packet_knobs(map, path, &[])?,
        }),
        "packet_sim_par" => {
            let knobs = parse_packet_knobs(map, path, &["workers"])?;
            let workers = opt_usize(map, "workers", path, 4)?;
            knobs.check_sharded("parallel", workers)?;
            Ok(EngineSpec::PacketSimPar { knobs, workers })
        }
        "packet_sim_dist" => {
            let knobs = parse_packet_knobs(map, path, &["workers"])?;
            let workers = opt_usize(map, "workers", path, 2)?;
            knobs.check_sharded("distributed", workers)?;
            Ok(EngineSpec::PacketSimDist { knobs, workers })
        }
        "forest_wave" => {
            reject_unknown(map, &["kind", "alpha", "coupled", "roots"], path)?;
            let field = join(path, "roots");
            let items = req(map, "roots", path)?
                .as_array()
                .ok_or_else(|| SpecError::at(&field, "expected an array of node ids"))?;
            let mut roots = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                roots.push(parse_usize(item, &format!("{field}[{i}]"))?);
            }
            Ok(EngineSpec::ForestWave {
                alpha: opt_alpha(map, path)?,
                coupled: opt_bool(map, "coupled", path, true)?,
                roots,
            })
        }
        "cluster" => {
            reject_unknown(map, &["kind", "alpha", "rounds", "channel_capacity"], path)?;
            Ok(EngineSpec::Cluster {
                alpha: opt_alpha(map, path)?,
                rounds: opt_usize(map, "rounds", path, 4000)?,
                channel_capacity: opt_usize(map, "channel_capacity", path, 1024)?,
            })
        }
        "baselines" => {
            reject_unknown(
                map,
                &[
                    "kind",
                    "schemes",
                    "replicas",
                    "lookup_msgs",
                    "gle_iterations",
                    "webwave_rounds",
                    "gossip_per_second",
                ],
                path,
            )?;
            let field = join(path, "schemes");
            let schemes = match map.get("schemes") {
                None => BaselineScheme::all(),
                Some(v) => {
                    let items = v
                        .as_array()
                        .ok_or_else(|| SpecError::at(&field, "expected an array of scheme names"))?;
                    let mut out = Vec::new();
                    for (i, item) in items.iter().enumerate() {
                        let item_path = format!("{field}[{i}]");
                        let name = item
                            .as_str()
                            .ok_or_else(|| SpecError::at(&item_path, "expected a scheme name"))?;
                        match name {
                            "all" => out.extend(BaselineScheme::all()),
                            "no-cache" => out.push(BaselineScheme::NoCache),
                            "directory" => out.push(BaselineScheme::Directory),
                            "dns-rr" => out.push(BaselineScheme::DnsRoundRobin),
                            "gle-migration" => out.push(BaselineScheme::GleMigration),
                            "webwave" => out.push(BaselineScheme::WebWave),
                            "webfold-oracle" => out.push(BaselineScheme::WebFoldOracle),
                            other => {
                                return Err(SpecError::at(
                                    &item_path,
                                    format!(
                                        "unknown scheme \"{other}\" (expected all, no-cache, directory, dns-rr, gle-migration, webwave, or webfold-oracle)"
                                    ),
                                ))
                            }
                        }
                    }
                    out
                }
            };
            Ok(EngineSpec::Baselines {
                schemes,
                replicas: opt_usize(map, "replicas", path, 0)?,
                lookup_msgs: opt_f64(map, "lookup_msgs", path, 2.0)?,
                gle_iterations: opt_usize(map, "gle_iterations", path, 2000)?,
                webwave_rounds: opt_usize(map, "webwave_rounds", path, 4000)?,
                gossip_per_second: opt_f64(map, "gossip_per_second", path, 2.0)?,
            })
        }
        other => Err(SpecError::at(
            "engine.kind",
            format!(
                "unknown engine \"{other}\" (expected rate_wave, doc_sim, packet_sim, packet_sim_par, packet_sim_dist, forest_wave, cluster, or baselines)"
            ),
        )),
    }
}

fn parse_termination(value: &Value) -> Result<Termination, SpecError> {
    let path = "termination";
    let map = as_object(value, path)?;
    match kind(map, path)? {
        "rounds" => {
            reject_unknown(map, &["kind", "max"], path)?;
            Ok(Termination::Rounds {
                max: req_usize(map, "max", path)?,
            })
        }
        "converged" => {
            reject_unknown(map, &["kind", "threshold", "max_rounds"], path)?;
            Ok(Termination::Converged {
                threshold: req_f64(map, "threshold", path)?,
                max_rounds: opt_usize(map, "max_rounds", path, 100_000)?,
            })
        }
        "wall_clock" => {
            reject_unknown(map, &["kind", "seconds", "max_rounds"], path)?;
            Ok(Termination::WallClock {
                seconds: req_f64(map, "seconds", path)?,
                max_rounds: opt_usize(map, "max_rounds", path, usize::MAX)?,
            })
        }
        other => Err(SpecError::at(
            "termination.kind",
            format!("unknown termination \"{other}\" (expected rounds, converged, or wall_clock)"),
        )),
    }
}

fn parse_sweep(value: &Value) -> Result<Sweep, SpecError> {
    let path = "sweep";
    let map = as_object(value, path)?;
    reject_unknown(map, &["param", "values"], path)?;
    let param = match req_str(map, "param", path)? {
        "staleness" => SweepParam::Staleness,
        "alpha" => SweepParam::Alpha,
        "tunneling" => SweepParam::Tunneling,
        "gossip_loss" => SweepParam::GossipLoss,
        "workers" => SweepParam::Workers,
        "doc_theta" => SweepParam::DocTheta,
        "seed" => SweepParam::Seed,
        other => {
            return Err(SpecError::at(
                "sweep.param",
                format!(
                    "unknown sweep parameter \"{other}\" (expected staleness, alpha, tunneling, gossip_loss, workers, doc_theta, or seed)"
                ),
            ))
        }
    };
    let field = join(path, "values");
    let items = req(map, "values", path)?
        .as_array()
        .ok_or_else(|| SpecError::at(&field, "expected an array of numbers"))?;
    if items.is_empty() {
        return Err(SpecError::at(&field, "sweep needs at least one value"));
    }
    let mut values = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        values.push(parse_f64(item, &format!("{field}[{i}]"))?);
    }
    Ok(Sweep { param, values })
}

fn parse_telemetry(value: &Value) -> Result<TelemetrySpec, SpecError> {
    let path = "telemetry";
    let map = as_object(value, path)?;
    reject_unknown(map, &["level", "trace_out"], path)?;
    let level = match map.get("level") {
        None | Some(Value::Null) => Level::Off,
        Some(v) => {
            let name = v.as_str().ok_or_else(|| {
                SpecError::at(
                    "telemetry.level",
                    format!("expected a string, got {}", v.type_name()),
                )
            })?;
            Level::parse(name).ok_or_else(|| {
                SpecError::at(
                    "telemetry.level",
                    format!("unknown level \"{name}\" (expected off, counters, or full)"),
                )
            })?
        }
    };
    let trace_out = match map.get("trace_out") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| {
                    SpecError::at(
                        "telemetry.trace_out",
                        format!("expected a file path string, got {}", v.type_name()),
                    )
                })?
                .to_string(),
        ),
    };
    Ok(TelemetrySpec { level, trace_out })
}

fn parse_rebalance(value: &Value) -> Result<RebalanceSpec, SpecError> {
    let path = "rebalance";
    let map = as_object(value, path)?;
    reject_unknown(map, &["trigger_imbalance", "min_epoch_gap"], path)?;
    let trigger_imbalance = req_f64(map, "trigger_imbalance", path)?;
    if !trigger_imbalance.is_finite() || trigger_imbalance < 1.0 {
        return Err(SpecError::at(
            "rebalance.trigger_imbalance",
            format!("expected a finite max-over-mean ratio of at least 1, got {trigger_imbalance}"),
        ));
    }
    let min_epoch_gap = match map.get("min_epoch_gap") {
        Some(v) => parse_u53(v, &join(path, "min_epoch_gap"))?,
        None => 1,
    };
    if min_epoch_gap == 0 {
        return Err(SpecError::at(
            "rebalance.min_epoch_gap",
            "the observation window must span at least 1 epoch",
        ));
    }
    Ok(RebalanceSpec {
        trigger_imbalance,
        min_epoch_gap,
    })
}

fn parse_events(value: &Value) -> Result<EventsSpec, SpecError> {
    let path = "events";
    let map = as_object(value, path)?;
    reject_unknown(
        map,
        &["schedule", "recovery_threshold", "batched_barriers"],
        path,
    )?;
    let recovery_threshold = opt_f64(map, "recovery_threshold", path, DEFAULT_RECOVERY_THRESHOLD)?;
    let batched_barriers = opt_bool(map, "batched_barriers", path, false)?;
    if recovery_threshold < 0.0 {
        return Err(SpecError::at(
            "events.recovery_threshold",
            format!("must be non-negative, got {recovery_threshold}"),
        ));
    }
    let field = join(path, "schedule");
    let items = req(map, "schedule", path)?
        .as_array()
        .ok_or_else(|| SpecError::at(&field, "expected an array of events"))?;
    let mut schedule = Vec::with_capacity(items.len());
    let mut prev_round = 0usize;
    for (i, item) in items.iter().enumerate() {
        let item_path = format!("{field}[{i}]");
        let event = parse_event(item, &item_path)?;
        if event.round < prev_round {
            return Err(SpecError::at(
                format!("{item_path}.round"),
                format!(
                    "schedule must be sorted by round ({} follows {prev_round})",
                    event.round
                ),
            ));
        }
        prev_round = event.round;
        schedule.push(event);
    }
    Ok(EventsSpec {
        schedule,
        recovery_threshold,
        batched_barriers,
    })
}

fn parse_event(value: &Value, path: &str) -> Result<EventSpec, SpecError> {
    let map = as_object(value, path)?;
    let round = req_usize(map, "round", path)?;
    let kind = match kind(map, path)? {
        "node_join" => {
            reject_unknown(map, &["round", "kind", "parent", "rate"], path)?;
            let rate = req_f64(map, "rate", path)?;
            if !rate.is_finite() || rate < 0.0 {
                return Err(SpecError::at(
                    join(path, "rate"),
                    format!("rate must be finite and non-negative, got {rate}"),
                ));
            }
            EventKindSpec::NodeJoin {
                parent: req_usize(map, "parent", path)?,
                rate,
            }
        }
        "node_leave" => {
            reject_unknown(map, &["round", "kind", "node"], path)?;
            EventKindSpec::NodeLeave {
                node: req_usize(map, "node", path)?,
            }
        }
        "link_fail" => {
            reject_unknown(map, &["round", "kind", "node"], path)?;
            EventKindSpec::LinkFail {
                node: req_usize(map, "node", path)?,
            }
        }
        "link_heal" => {
            reject_unknown(map, &["round", "kind", "node"], path)?;
            EventKindSpec::LinkHeal {
                node: req_usize(map, "node", path)?,
            }
        }
        "doc_publish" => {
            reject_unknown(map, &["round", "kind", "doc", "origin", "rate"], path)?;
            let rate = req_f64(map, "rate", path)?;
            if !rate.is_finite() || rate < 0.0 {
                return Err(SpecError::at(
                    join(path, "rate"),
                    format!("rate must be finite and non-negative, got {rate}"),
                ));
            }
            EventKindSpec::DocPublish {
                doc: parse_u53(req(map, "doc", path)?, &join(path, "doc"))?,
                origin: req_usize(map, "origin", path)?,
                rate,
            }
        }
        "doc_update" => {
            reject_unknown(map, &["round", "kind", "doc"], path)?;
            EventKindSpec::DocUpdate {
                doc: parse_u53(req(map, "doc", path)?, &join(path, "doc"))?,
            }
        }
        "workload_shift" => {
            reject_unknown(map, &["round", "kind", "rates", "doc_mix", "seed"], path)?;
            let rates = match map.get("rates") {
                None | Some(Value::Null) => None,
                Some(v) => Some(parse_rates(v, &join(path, "rates"))?),
            };
            let doc_mix = match map.get("doc_mix") {
                None | Some(Value::Null) => None,
                Some(v) => Some(parse_doc_mix(v, &join(path, "doc_mix"))?),
            };
            if rates.is_none() && doc_mix.is_none() {
                return Err(SpecError::at(
                    path,
                    "workload_shift needs rates, doc_mix, or both",
                ));
            }
            let seed = match map.get("seed") {
                None | Some(Value::Null) => None,
                Some(v) => Some(parse_u53(v, &join(path, "seed"))?),
            };
            EventKindSpec::WorkloadShift {
                rates,
                doc_mix,
                seed,
            }
        }
        other => {
            return Err(SpecError::at(
                join(path, "kind"),
                format!(
                    "unknown event \"{other}\" (expected node_join, node_leave, link_fail, link_heal, doc_publish, doc_update, or workload_shift)"
                ),
            ))
        }
    };
    Ok(EventSpec { round, kind })
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in pairs {
        map.insert(k, v);
    }
    Value::Object(map)
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn unum(x: usize) -> Value {
    Value::Number(x as f64)
}

fn topology_value(t: &TopologySpec) -> Value {
    match t {
        TopologySpec::Paper { figure } => obj(vec![
            ("kind", Value::from("paper")),
            ("figure", Value::from(figure.as_str())),
        ]),
        TopologySpec::Path { nodes } => {
            obj(vec![("kind", Value::from("path")), ("nodes", unum(*nodes))])
        }
        TopologySpec::Star { nodes } => {
            obj(vec![("kind", Value::from("star")), ("nodes", unum(*nodes))])
        }
        TopologySpec::KAry { arity, depth } => obj(vec![
            ("kind", Value::from("k_ary")),
            ("arity", unum(*arity)),
            ("depth", unum(*depth)),
        ]),
        TopologySpec::TwoLevel { regions, leaves } => obj(vec![
            ("kind", Value::from("two_level")),
            ("regions", unum(*regions)),
            ("leaves", unum(*leaves)),
        ]),
        TopologySpec::Caterpillar { spine, legs } => obj(vec![
            ("kind", Value::from("caterpillar")),
            ("spine", unum(*spine)),
            ("legs", unum(*legs)),
        ]),
        TopologySpec::Broom { handle, bristles } => obj(vec![
            ("kind", Value::from("broom")),
            ("handle", unum(*handle)),
            ("bristles", unum(*bristles)),
        ]),
        TopologySpec::RandomDepth { nodes, depth } => obj(vec![
            ("kind", Value::from("random_depth")),
            ("nodes", unum(*nodes)),
            ("depth", unum(*depth)),
        ]),
        TopologySpec::Explicit { parents } => obj(vec![
            ("kind", Value::from("explicit")),
            (
                "parents",
                Value::Array(
                    parents
                        .iter()
                        .map(|p| match p {
                            None => Value::Null,
                            Some(id) => unum(*id),
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn workload_value(w: &WorkloadSpec) -> Value {
    let mut pairs = vec![("rates", rates_value(&w.rates))];
    if let Some(mix) = &w.doc_mix {
        pairs.push(("doc_mix", doc_mix_value(mix)));
    }
    obj(pairs)
}

fn rates_value(r: &RatesSpec) -> Value {
    match r {
        RatesSpec::Paper => obj(vec![("kind", Value::from("paper"))]),
        RatesSpec::Uniform { rate } => {
            obj(vec![("kind", Value::from("uniform")), ("rate", num(*rate))])
        }
        RatesSpec::LeafOnly { rate } => obj(vec![
            ("kind", Value::from("leaf_only")),
            ("rate", num(*rate)),
        ]),
        RatesSpec::RandomUniform { lo, hi } => obj(vec![
            ("kind", Value::from("random_uniform")),
            ("lo", num(*lo)),
            ("hi", num(*hi)),
        ]),
        RatesSpec::ZipfNodes { total, theta } => obj(vec![
            ("kind", Value::from("zipf_nodes")),
            ("total", num(*total)),
            ("theta", num(*theta)),
        ]),
        RatesSpec::Explicit { rates } => obj(vec![
            ("kind", Value::from("explicit")),
            (
                "rates",
                Value::Array(rates.iter().map(|&x| num(x)).collect()),
            ),
        ]),
    }
}

fn doc_mix_value(m: &DocMixSpec) -> Value {
    match m {
        DocMixSpec::Paper => obj(vec![("kind", Value::from("paper"))]),
        DocMixSpec::SharedZipf { docs, theta } => obj(vec![
            ("kind", Value::from("shared_zipf")),
            ("docs", unum(*docs)),
            ("theta", num(*theta)),
        ]),
    }
}

fn alpha_value(alpha: &Option<f64>) -> Value {
    match alpha {
        Some(x) => num(*x),
        None => Value::Null,
    }
}

fn packet_engine_value(kind: &'static str, k: &PacketKnobs, workers: Option<usize>) -> Value {
    let mut fields = vec![
        ("kind", Value::from(kind)),
        ("alpha", alpha_value(&k.alpha)),
        ("tunneling", Value::Bool(k.tunneling)),
        ("barrier_patience", unum(k.barrier_patience)),
        ("link_delay", num(k.link_delay)),
        ("gossip_period", num(k.gossip_period)),
        ("diffusion_period", num(k.diffusion_period)),
        ("measure_window", num(k.measure_window)),
        ("gossip_loss", num(k.gossip_loss)),
        ("hysteresis", num(k.hysteresis)),
        ("noise_sigmas", num(k.noise_sigmas)),
    ];
    fields.extend(workers.map(|w| ("workers", unum(w))));
    obj(fields)
}

fn engine_value(e: &EngineSpec) -> Value {
    match e {
        EngineSpec::RateWave { alpha, staleness } => obj(vec![
            ("kind", Value::from("rate_wave")),
            ("alpha", alpha_value(alpha)),
            ("staleness", unum(*staleness)),
        ]),
        EngineSpec::DocSim {
            alpha,
            tunneling,
            barrier_patience,
        } => obj(vec![
            ("kind", Value::from("doc_sim")),
            ("alpha", alpha_value(alpha)),
            ("tunneling", Value::Bool(*tunneling)),
            ("barrier_patience", unum(*barrier_patience)),
        ]),
        EngineSpec::PacketSim { knobs } => packet_engine_value("packet_sim", knobs, None),
        EngineSpec::PacketSimPar { knobs, workers } => {
            packet_engine_value("packet_sim_par", knobs, Some(*workers))
        }
        EngineSpec::PacketSimDist { knobs, workers } => {
            packet_engine_value("packet_sim_dist", knobs, Some(*workers))
        }
        EngineSpec::ForestWave {
            alpha,
            coupled,
            roots,
        } => obj(vec![
            ("kind", Value::from("forest_wave")),
            ("alpha", alpha_value(alpha)),
            ("coupled", Value::Bool(*coupled)),
            (
                "roots",
                Value::Array(roots.iter().map(|&r| unum(r)).collect()),
            ),
        ]),
        EngineSpec::Cluster {
            alpha,
            rounds,
            channel_capacity,
        } => obj(vec![
            ("kind", Value::from("cluster")),
            ("alpha", alpha_value(alpha)),
            ("rounds", unum(*rounds)),
            ("channel_capacity", unum(*channel_capacity)),
        ]),
        EngineSpec::Baselines {
            schemes,
            replicas,
            lookup_msgs,
            gle_iterations,
            webwave_rounds,
            gossip_per_second,
        } => obj(vec![
            ("kind", Value::from("baselines")),
            (
                "schemes",
                Value::Array(schemes.iter().map(|s| Value::from(s.as_str())).collect()),
            ),
            ("replicas", unum(*replicas)),
            ("lookup_msgs", num(*lookup_msgs)),
            ("gle_iterations", unum(*gle_iterations)),
            ("webwave_rounds", unum(*webwave_rounds)),
            ("gossip_per_second", num(*gossip_per_second)),
        ]),
    }
}

fn termination_value(t: &Termination) -> Value {
    match t {
        Termination::Rounds { max } => {
            obj(vec![("kind", Value::from("rounds")), ("max", unum(*max))])
        }
        Termination::Converged {
            threshold,
            max_rounds,
        } => obj(vec![
            ("kind", Value::from("converged")),
            ("threshold", num(*threshold)),
            ("max_rounds", unum(*max_rounds)),
        ]),
        Termination::WallClock {
            seconds,
            max_rounds,
        } => obj(vec![
            ("kind", Value::from("wall_clock")),
            ("seconds", num(*seconds)),
            ("max_rounds", unum(*max_rounds)),
        ]),
    }
}

fn sweep_value(s: &Sweep) -> Value {
    obj(vec![
        ("param", Value::from(s.param.as_str())),
        (
            "values",
            Value::Array(s.values.iter().map(|&x| num(x)).collect()),
        ),
    ])
}

fn telemetry_value(t: &TelemetrySpec) -> Value {
    obj(vec![
        ("level", Value::from(t.level.as_str())),
        (
            "trace_out",
            match &t.trace_out {
                Some(path) => Value::from(path.as_str()),
                None => Value::Null,
            },
        ),
    ])
}

fn rebalance_value(r: &RebalanceSpec) -> Value {
    obj(vec![
        ("trigger_imbalance", num(r.trigger_imbalance)),
        ("min_epoch_gap", Value::Number(r.min_epoch_gap as f64)),
    ])
}

fn events_value(e: &EventsSpec) -> Value {
    obj(vec![
        (
            "schedule",
            Value::Array(e.schedule.iter().map(event_value).collect()),
        ),
        ("recovery_threshold", num(e.recovery_threshold)),
        ("batched_barriers", Value::Bool(e.batched_barriers)),
    ])
}

fn event_value(e: &EventSpec) -> Value {
    let mut pairs = vec![
        ("round", unum(e.round)),
        ("kind", Value::from(e.kind.kind())),
    ];
    match &e.kind {
        EventKindSpec::NodeJoin { parent, rate } => {
            pairs.push(("parent", unum(*parent)));
            pairs.push(("rate", num(*rate)));
        }
        EventKindSpec::NodeLeave { node }
        | EventKindSpec::LinkFail { node }
        | EventKindSpec::LinkHeal { node } => {
            pairs.push(("node", unum(*node)));
        }
        EventKindSpec::DocPublish { doc, origin, rate } => {
            pairs.push(("doc", num(*doc as f64)));
            pairs.push(("origin", unum(*origin)));
            pairs.push(("rate", num(*rate)));
        }
        EventKindSpec::DocUpdate { doc } => {
            pairs.push(("doc", num(*doc as f64)));
        }
        EventKindSpec::WorkloadShift {
            rates,
            doc_mix,
            seed,
        } => {
            if let Some(r) = rates {
                pairs.push(("rates", rates_value(r)));
            }
            if let Some(m) = doc_mix {
                pairs.push(("doc_mix", doc_mix_value(m)));
            }
            if let Some(s) = seed {
                pairs.push(("seed", num(*s as f64)));
            }
        }
    }
    obj(pairs)
}
