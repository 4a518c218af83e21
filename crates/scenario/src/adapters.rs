//! [`Engine`] implementations for every simulator and the baseline
//! schemes.
//!
//! The round-stepped engines (`RateWave`, `DocSim`, `ForestWave`)
//! implement the trait directly. The packet simulators — sequential,
//! sharded, distributed, bit-identical to each other — advance one
//! diffusion period of simulated time per engine round behind the one
//! [`PacketAdapter`]; the baseline schemes ([`BaselineEngine`]) are a
//! one-shot engine that does all its work in a single step and then
//! reports [`StepOutcome::Done`].

use crate::engine::{Engine, EngineReport, StepOutcome};
use crate::events::{Event, EventError, World};
use crate::spec::{BaselineParams, BaselineScheme};
use ww_core::baselines::SchemeReport;
use ww_core::docsim::DocSim;
use ww_core::forest::ForestWave;
use ww_core::packet::BarrierOp;
use ww_core::packetsim::{PacketBackend, PacketSimReport};
use ww_core::wave::RateWave;
use ww_model::RateVector;

/// Wraps an engine-level failure into the typed event rejection.
fn invalid(event: &Event, reason: impl std::fmt::Display) -> EventError {
    EventError::Invalid {
        event: event.kind(),
        reason: reason.to_string(),
    }
}

/// A report's metric list, in emission order.
fn metrics<const N: usize>(pairs: [(&str, f64); N]) -> Vec<(String, f64)> {
    pairs.map(|(name, value)| (name.to_string(), value)).into()
}

/// Validates a resolved rates vector against the engine's node count.
fn check_rates(rates: &RateVector, n: usize, event: &Event) -> Result<(), EventError> {
    if rates.len() != n {
        return Err(invalid(
            event,
            format!("expected {n} rates (one per node), got {}", rates.len()),
        ));
    }
    if let Some((node, bad)) = rates.iter().find(|&(_, r)| !r.is_finite() || r < 0.0) {
        return Err(invalid(event, format!("rate at {node} is invalid: {bad}")));
    }
    Ok(())
}

impl Engine for RateWave {
    fn step(&mut self) -> StepOutcome {
        RateWave::step(self);
        StepOutcome::Running
    }

    fn convergence(&self) -> Option<f64> {
        Some(self.distance_to_tlb())
    }

    fn max_load(&self) -> Option<f64> {
        Some(RateWave::load(self).max())
    }

    fn apply(&mut self, event: &Event) -> Result<(), EventError> {
        match event {
            Event::NodeJoin { parent, rate } => RateWave::add_leaf(self, *parent, *rate)
                .map(|_| ())
                .map_err(|e| invalid(event, e)),
            Event::NodeLeave { node } => RateWave::remove_leaf(self, *node)
                .map(|_| ())
                .map_err(|e| invalid(event, e)),
            Event::LinkFail { node } => RateWave::set_link(self, *node, true)
                .map(|_| ())
                .map_err(|e| invalid(event, e)),
            Event::LinkHeal { node } => RateWave::set_link(self, *node, false)
                .map(|_| ())
                .map_err(|e| invalid(event, e)),
            Event::WorkloadShift {
                rates: Some(rates), ..
            } => {
                check_rates(rates, self.tree().len(), event)?;
                self.set_spontaneous(rates);
                Ok(())
            }
            Event::WorkloadShift { rates: None, .. } => Err(invalid(
                event,
                "the rate_wave engine needs rates in a workload_shift",
            )),
            Event::DocPublish { .. } | Event::DocUpdate { .. } => Err(EventError::Unsupported {
                engine: "rate_wave",
                event: event.kind(),
                supported: &[
                    "node_join",
                    "node_leave",
                    "link_fail",
                    "link_heal",
                    "workload_shift",
                ],
            }),
        }
    }

    fn barrier_begin(&mut self) {
        RateWave::begin_batch(self);
    }

    fn barrier_commit(&mut self) {
        RateWave::end_batch(self);
    }

    fn report(&self) -> EngineReport {
        let load = RateWave::load(self);
        EngineReport {
            metrics: metrics([
                ("alpha", self.alpha()),
                ("distance_to_tlb", self.distance_to_tlb()),
                ("max_load", load.max()),
                ("total_load", load.total()),
            ]),
            load: Some(load.clone()),
            oracle: Some(RateWave::oracle(self).clone()),
            trace: Some(RateWave::trace(self).distances().to_vec()),
            ..EngineReport::default()
        }
    }
}

impl Engine for DocSim {
    fn step(&mut self) -> StepOutcome {
        DocSim::step(self);
        StepOutcome::Running
    }

    fn convergence(&self) -> Option<f64> {
        Some(self.distance_to_tlb())
    }

    fn max_load(&self) -> Option<f64> {
        Some(DocSim::load(self).max())
    }

    fn apply(&mut self, event: &Event) -> Result<(), EventError> {
        match event {
            Event::NodeJoin { parent, rate } => DocSim::add_leaf(self, *parent, *rate)
                .map(|_| ())
                .map_err(|e| invalid(event, e)),
            Event::NodeLeave { node } => DocSim::remove_leaf(self, *node)
                .map(|_| ())
                .map_err(|e| invalid(event, e)),
            Event::LinkFail { node } => DocSim::set_link(self, *node, true)
                .map(|_| ())
                .map_err(|e| invalid(event, e)),
            Event::LinkHeal { node } => DocSim::set_link(self, *node, false)
                .map(|_| ())
                .map_err(|e| invalid(event, e)),
            Event::DocPublish { doc, origin, rate } => self
                .publish_doc(*doc, *origin, *rate)
                .map_err(|e| invalid(event, e)),
            Event::DocUpdate { doc } => self.invalidate_doc(*doc).map_err(|e| invalid(event, e)),
            Event::WorkloadShift {
                doc_mix: Some(mix), ..
            } => self.set_mix(mix).map_err(|e| invalid(event, e)),
            Event::WorkloadShift { doc_mix: None, .. } => Err(invalid(
                event,
                "the doc_sim engine needs a doc_mix in a workload_shift",
            )),
        }
    }

    fn barrier_begin(&mut self) {
        DocSim::begin_batch(self);
    }

    fn barrier_commit(&mut self) {
        DocSim::end_batch(self);
    }

    fn report(&self) -> EngineReport {
        let (load, stats) = (DocSim::load(self), self.stats());
        EngineReport {
            metrics: metrics([
                ("distance_to_tlb", self.distance_to_tlb()),
                ("max_load", load.max()),
                ("copy_pushes", stats.copy_pushes as f64),
                ("copy_deletions", stats.copy_deletions as f64),
                ("tunnel_fetches", stats.tunnel_fetches as f64),
                ("barrier_suspicions", stats.barrier_suspicions as f64),
            ]),
            load: Some(load.clone()),
            oracle: Some(DocSim::oracle(self).clone()),
            trace: Some(DocSim::trace(self).distances().to_vec()),
            ..EngineReport::default()
        }
    }
}

impl Engine for ForestWave {
    fn step(&mut self) -> StepOutcome {
        ForestWave::step(self);
        StepOutcome::Running
    }

    /// No TLB oracle exists over a forest; convergence is measured as
    /// the last step's change in maximum total load (load stability).
    fn convergence(&self) -> Option<f64> {
        let trace = self.max_load_trace();
        match trace {
            [.., prev, last] => Some((last - prev).abs()),
            _ => None,
        }
    }

    fn max_load(&self) -> Option<f64> {
        Some(self.total_load().max())
    }

    /// Forest runs support workload shifts only: the shifted rates are
    /// offered to every tree, exactly as at construction. Churn and link
    /// events would have to mutate the underlying shared graph and every
    /// derived tree at once — out of the forest protocol's scope — so
    /// they are rejected with a typed error.
    fn apply(&mut self, event: &Event) -> Result<(), EventError> {
        match event {
            Event::WorkloadShift {
                rates: Some(rates), ..
            } => {
                let n = self.loads().first().map_or(0, RateVector::len);
                check_rates(rates, n, event)?;
                let demands = vec![rates.clone(); self.loads().len()];
                self.set_demands(&demands);
                Ok(())
            }
            Event::WorkloadShift { rates: None, .. } => Err(invalid(
                event,
                "the forest_wave engine needs rates in a workload_shift",
            )),
            _ => Err(EventError::Unsupported {
                engine: "forest_wave",
                event: event.kind(),
                supported: &["workload_shift"],
            }),
        }
    }

    /// No TLB oracle exists over a forest: the trace is the per-round
    /// maximum total load.
    fn report(&self) -> EngineReport {
        let total = self.total_load();
        EngineReport {
            metrics: metrics([
                ("max_total_load", total.max()),
                ("total_load", total.total()),
                ("trees", self.loads().len() as f64),
            ]),
            load: Some(total),
            trace: Some(self.max_load_trace().to_vec()),
            ..EngineReport::default()
        }
    }
}

/// Any packet-level simulator behind the unified API: one engine round
/// advances the backend by one diffusion period of simulated time and
/// quiesces at the epoch barrier, where events apply as [`BarrierOp`]s.
/// The three backends ([`ww_core::packetsim::PacketSim`],
/// [`ww_pdes::ParPacketSim`], [`ww_dist::DistPacketSim`]) report
/// identical bits, so a spec reads the same on each.
///
/// The [`Engine`] trait has no error channel in `step` or the barrier
/// hooks, so a backend failure there (a distributed worker died, a wire
/// stalled) panics with the typed error's message; the scenario runner
/// has no way to continue a run whose workers are gone. A failure while
/// applying an event surfaces as the event's rejection.
#[derive(Debug)]
pub(crate) struct PacketAdapter<B> {
    kind: &'static str,
    sim: B,
    diffusion_period: f64,
    epochs: usize,
    last: Option<PacketSimReport>,
}

impl<B: PacketBackend> PacketAdapter<B> {
    /// Wraps a built backend under the engine spelling `kind`;
    /// `diffusion_period` (the backend's own) becomes the engine-round
    /// length.
    pub(crate) fn new(kind: &'static str, sim: B, diffusion_period: f64) -> Self {
        PacketAdapter {
            kind,
            sim,
            diffusion_period,
            epochs: 0,
            last: None,
        }
    }

    /// The one place a scenario [`Event`] becomes the packet engines'
    /// mutation vocabulary. A workload shift needs a `doc_mix` — rates
    /// alone cannot parameterize Poisson arrival streams.
    fn barrier_op(&self, event: &Event) -> Result<BarrierOp, EventError> {
        Ok(match event {
            Event::NodeJoin { parent, rate } => BarrierOp::AddLeaf {
                parent: *parent,
                rate: *rate,
            },
            Event::NodeLeave { node } => BarrierOp::RemoveLeaf { node: *node },
            Event::DocPublish { doc, origin, rate } => BarrierOp::PublishDoc {
                doc: *doc,
                origin: *origin,
                rate: *rate,
            },
            Event::DocUpdate { doc } => BarrierOp::Invalidate { doc: *doc },
            Event::LinkFail { node } => BarrierOp::FailLink { node: *node },
            Event::LinkHeal { node } => BarrierOp::HealLink { node: *node },
            Event::WorkloadShift {
                doc_mix: Some(mix), ..
            } => BarrierOp::SetMix { mix: mix.clone() },
            Event::WorkloadShift { doc_mix: None, .. } => {
                return Err(invalid(
                    event,
                    format!(
                        "the {} engine needs a doc_mix in a workload_shift",
                        self.kind
                    ),
                ))
            }
        })
    }
}

impl<B: PacketBackend> Engine for PacketAdapter<B> {
    fn step(&mut self) -> StepOutcome {
        self.epochs += 1;
        let deadline = self.diffusion_period * self.epochs as f64;
        match self.sim.run(deadline) {
            Ok(report) => self.last = Some(report),
            Err(e) => panic!("{} run failed: {e}", self.kind),
        }
        StepOutcome::Running
    }

    fn convergence(&self) -> Option<f64> {
        self.last.as_ref().map(|r| r.final_distance)
    }

    fn max_load(&self) -> Option<f64> {
        self.last.as_ref().map(|r| r.served_rates.max())
    }

    /// The packet engines honor the full event grammar: churn, link
    /// failures, document lifecycle, and workload shifts, each applied
    /// at the epoch barrier between engine rounds — into the open
    /// barrier batch, or as a batch of one.
    fn apply(&mut self, event: &Event) -> Result<(), EventError> {
        let op = self.barrier_op(event)?;
        self.sim
            .apply_op(&op)
            .map(drop)
            .map_err(|e| invalid(event, e))
    }

    fn barrier_begin(&mut self) {
        if let Err(e) = self.sim.begin_batch() {
            panic!("{} batch begin failed: {e}", self.kind);
        }
    }

    fn barrier_commit(&mut self) {
        if let Err(e) = self.sim.commit_batch() {
            panic!("{} batch commit failed: {e}", self.kind);
        }
    }

    fn report(&self) -> EngineReport {
        let last = self.last.as_ref();
        EngineReport {
            load: last.map(|r| r.served_rates.clone()),
            oracle: Some(self.sim.oracle().clone()),
            trace: last.map(|r| r.trace.distances().to_vec()),
            metrics: last.map_or_else(Vec::new, |r| {
                metrics([
                    ("final_distance", r.final_distance),
                    ("served_requests", r.served_requests as f64),
                    ("mean_hops", r.mean_hops),
                    ("copy_pushes", r.copy_pushes as f64),
                    ("tunnel_fetches", r.tunnel_fetches as f64),
                    (
                        "control_msgs_per_request",
                        r.ledger.control_overhead_per_request(),
                    ),
                ])
            }),
            telemetry: Some(self.sim.telemetry_snapshot()).filter(|snap| !snap.is_empty()),
            ..EngineReport::default()
        }
    }
}

/// The baseline schemes behind the unified API: one engine step computes
/// every selected scheme's static assignment.
#[derive(Debug)]
pub(crate) struct BaselineEngine {
    world: World,
    schemes: Vec<BaselineScheme>,
    params: BaselineParams,
    reports: Vec<SchemeReport>,
    stepped: bool,
}

impl BaselineEngine {
    /// Prepares a baseline comparison over `schemes` on `world`.
    pub(crate) fn new(world: World, schemes: Vec<BaselineScheme>, params: BaselineParams) -> Self {
        BaselineEngine {
            world,
            schemes,
            params,
            reports: Vec::new(),
            stepped: false,
        }
    }

    /// The load of the scheme row named `name`, once the step ran.
    fn load_of(&self, name: &str) -> Option<&RateVector> {
        self.reports
            .iter()
            .find(|r| r.name == name)
            .map(|r| &r.load)
    }

    fn run_scheme(&self, scheme: BaselineScheme) -> SchemeReport {
        let (tree, e, p) = (&self.world.tree, &self.world.rates, &self.params);
        match scheme {
            BaselineScheme::NoCache => ww_core::baselines::no_caching(tree, e),
            BaselineScheme::Directory => {
                ww_core::baselines::directory_cache(tree, e, p.lookup_msgs)
            }
            BaselineScheme::DnsRoundRobin => {
                let replicas = if p.replicas == 0 {
                    (tree.len() / 4).clamp(1, 16)
                } else {
                    p.replicas
                };
                ww_core::baselines::dns_round_robin(tree, e, replicas)
            }
            BaselineScheme::GleMigration => {
                ww_core::baselines::gle_migration(tree, e, p.gle_iterations)
            }
            BaselineScheme::WebWave => {
                ww_core::baselines::webwave(tree, e, p.webwave_rounds, p.gossip_per_second)
            }
            BaselineScheme::WebFoldOracle => ww_core::baselines::webfold_oracle(tree, e),
        }
    }
}

impl Engine for BaselineEngine {
    fn step(&mut self) -> StepOutcome {
        if !self.stepped {
            self.reports = self.schemes.iter().map(|&s| self.run_scheme(s)).collect();
            self.stepped = true;
        }
        StepOutcome::Done
    }

    fn convergence(&self) -> Option<f64> {
        None
    }

    fn max_load(&self) -> Option<f64> {
        self.load_of("webwave").map(RateVector::max)
    }

    /// Churn and workload shifts change the [`World`] *before* the one
    /// step runs; afterwards nothing can change. Document and link
    /// events have no meaning for a static assignment and are
    /// unsupported.
    fn apply(&mut self, event: &Event) -> Result<(), EventError> {
        match event {
            Event::NodeJoin { .. } | Event::NodeLeave { .. } | Event::WorkloadShift { .. }
                if self.stepped =>
            {
                Err(invalid(
                    event,
                    "the one-shot baselines engine already ran; schedule events at round 0",
                ))
            }
            Event::NodeJoin { rate, .. } if !rate.is_finite() || *rate < 0.0 => {
                Err(invalid(event, format!("invalid rate {rate}")))
            }
            Event::NodeJoin { .. } | Event::NodeLeave { .. } => Ok(()),
            Event::WorkloadShift {
                rates: Some(shifted),
                ..
            } => check_rates(shifted, self.world.tree.len(), event),
            Event::WorkloadShift { rates: None, .. } => Err(invalid(
                event,
                "the baselines engine needs rates in a workload_shift",
            )),
            _ => Err(EventError::Unsupported {
                engine: "baselines",
                event: event.kind(),
                supported: &["node_join", "node_leave", "workload_shift"],
            }),
        }?;
        self.world.apply(event).map_err(|e| invalid(event, e))
    }

    /// The load is the WebWave row's (the scheme the table is about),
    /// the oracle the WebFold row's, each when selected.
    fn report(&self) -> EngineReport {
        // Dotted-path keys per the workspace metric scheme (scheme names
        // like "dns-rr" are single segments; see docs/observability.md).
        let metrics = self.reports.iter().flat_map(|r| {
            [
                ("max_load", r.max_load),
                ("distance_to_gle", r.distance_to_gle),
                ("control_msgs_per_request", r.control_msgs_per_request),
                ("data_hops_per_request", r.data_hops_per_request),
                ("violates_nss", f64::from(u8::from(r.violates_nss))),
            ]
            .map(|(name, value)| (format!("scheme.{}.{name}", r.name), value))
        });
        EngineReport {
            load: self.load_of("webwave").cloned(),
            oracle: self.load_of("webfold-oracle").cloned(),
            metrics: metrics.collect(),
            schemes: self.reports.clone(),
            ..EngineReport::default()
        }
    }
}
