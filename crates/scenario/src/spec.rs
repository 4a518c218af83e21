//! The declarative scenario specification.
//!
//! A [`ScenarioSpec`] names everything a run needs — topology generator,
//! workload, engine, protocol knobs, seed, termination rule, and an
//! optional parameter sweep — as plain data. Specs round-trip through
//! JSON (see [`crate::json`]) so new workloads are files, not `main`
//! functions: `webwave-exp run scenarios/<name>.json`.
//!
//! Every field has a spelled-out default (documented in
//! `docs/scenarios.md`); [`ScenarioSpec::smoke`] shrinks any spec to a
//! seconds-scale variant for CI smoke runs.

use crate::events::EventsSpec;
use crate::json::Tagged;
use ww_core::docsim::DocSimConfig;
use ww_core::packet::PacketSimConfig;
use ww_core::wave::WaveConfig;
use ww_pdes::RebalanceConfig;
use ww_telemetry::Level;

/// Default master seed when a spec omits `"seed"`.
pub const DEFAULT_SEED: u64 = 1997;

/// A complete, self-contained description of one scenario run (or, with
/// [`Sweep`], a family of runs varying one parameter).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name.
    pub name: String,
    /// How to build the routing tree.
    pub topology: TopologySpec,
    /// How to build the demand on that tree.
    pub workload: WorkloadSpec,
    /// Which engine runs the protocol, with its knobs.
    pub engine: EngineSpec,
    /// When to stop.
    pub termination: Termination,
    /// Master random seed (topology, workload, and engine randomness).
    pub seed: u64,
    /// Optional one-parameter sweep: the spec is run once per value.
    pub sweep: Option<Sweep>,
    /// Optional dynamics schedule: churn, failures, and document
    /// lifecycle events interleaved with the rounds (see
    /// [`crate::events`]). `None` — the common case — runs the classic
    /// static world, bit-identical to pre-dynamics builds.
    pub events: Option<EventsSpec>,
    /// Observation-only instrumentation for the run (see
    /// `docs/observability.md`). The default records nothing; no level
    /// changes a single simulated bit.
    pub telemetry: TelemetrySpec,
    /// Optional adaptive shard rebalancing at epoch barriers (see
    /// `docs/parallel.md`). Applies only to the `packet_sim_par` engine;
    /// `packet_sim_dist` rejects it at launch with a typed error rather
    /// than silently ignoring it. Rebalancing changes which worker
    /// executes which node, never the simulated trace — reports stay
    /// bit-identical with the block present, absent, or at any
    /// threshold.
    pub rebalance: Option<RebalanceConfig>,
}

/// Observation-only instrumentation settings: how much the run records
/// ([`Level`]) and where the per-round JSONL trace goes. Telemetry never
/// feeds back into the simulation — reports and traces are bit-identical
/// across levels.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySpec {
    /// Recording level: `off` (default), `counters`, or `full`.
    pub level: Level,
    /// JSONL trace file path; `None` writes no trace. CLI `--trace-out`
    /// overrides this.
    pub trace_out: Option<String>,
}

/// Topology generators. Random families draw from the spec's seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// One of the paper's hand-crafted scenarios.
    Paper {
        /// Which figure: `fig2a`, `fig2b`, `fig4`, `fig6`, or `fig7`.
        figure: PaperFigure,
    },
    /// A path (chain) of `nodes` servers rooted at one end.
    Path {
        /// Node count (≥ 1).
        nodes: usize,
    },
    /// A star: one root, `nodes - 1` leaves.
    Star {
        /// Node count (≥ 1).
        nodes: usize,
    },
    /// A complete `arity`-ary tree of the given depth.
    KAry {
        /// Children per node (≥ 1).
        arity: usize,
        /// Levels below the root (≥ 0).
        depth: usize,
    },
    /// A two-level CDN: root, `regions` hubs, `leaves` edges per hub.
    TwoLevel {
        /// Regional hub count (≥ 1).
        regions: usize,
        /// Edge sites per hub (≥ 1).
        leaves: usize,
    },
    /// A caterpillar: a spine path with `legs` leaves per spine node.
    Caterpillar {
        /// Spine length (≥ 1).
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// A broom: a handle path ending in a fan of bristle leaves.
    Broom {
        /// Handle length (≥ 1).
        handle: usize,
        /// Leaf count at the end.
        bristles: usize,
    },
    /// A uniform random tree with exactly this depth (Section 5.1's
    /// random-tree family).
    RandomDepth {
        /// Node count (≥ depth + 1).
        nodes: usize,
        /// Required tree depth.
        depth: usize,
    },
    /// A hand-crafted tree given as a parent list (`null` marks the
    /// root), exactly as `Tree::from_parents` takes it.
    Explicit {
        /// `parents[i]` is node `i`'s parent (`None` for the root).
        parents: Vec<Option<usize>>,
    },
}

/// The paper's hand-crafted figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperFigure {
    /// Figure 2(a): TLB is GLE.
    Fig2a,
    /// Figure 2(b): TLB is not GLE.
    Fig2b,
    /// Figure 4: cascading fold sequence.
    Fig4,
    /// Figure 6: the convergence-experiment tree.
    Fig6,
    /// Figure 7: the potential-barrier document scenario.
    Fig7,
}

impl PaperFigure {
    /// The spec spelling of this figure.
    pub fn as_str(self) -> &'static str {
        self.tag()
    }
}

/// Demand on the tree: per-node spontaneous rates plus (optionally) how
/// those rates split across a document universe.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Per-node spontaneous request rates.
    pub rates: RatesSpec,
    /// How rates split over documents; required by the document- and
    /// packet-level engines (or implied by the `fig7` paper workload).
    pub doc_mix: Option<DocMixSpec>,
}

/// Per-node spontaneous-rate generators.
#[derive(Debug, Clone, PartialEq)]
pub enum RatesSpec {
    /// The paper scenario's own rates (requires a `paper` topology).
    Paper,
    /// Every node generates `rate` req/s.
    Uniform {
        /// Rate per node.
        rate: f64,
    },
    /// Leaves generate `rate` req/s; interior nodes none.
    LeafOnly {
        /// Rate per leaf.
        rate: f64,
    },
    /// i.i.d. uniform rates in `[lo, hi)` (seeded).
    RandomUniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// `total` req/s split Zipf(`theta`)-skewed across nodes (seeded).
    ZipfNodes {
        /// Aggregate demand.
        total: f64,
        /// Zipf exponent.
        theta: f64,
    },
    /// Explicit per-node rates (must match the topology's node count).
    Explicit {
        /// Rate of node `i` at index `i`.
        rates: Vec<f64>,
    },
}

/// Document-mix generators.
#[derive(Debug, Clone, PartialEq)]
pub enum DocMixSpec {
    /// The paper scenario's own per-document demands (only `fig7` has
    /// them).
    Paper,
    /// Every node's rate splits over a shared universe of `docs`
    /// documents with Zipf(`theta`) popularity.
    SharedZipf {
        /// Document universe size (≥ 1).
        docs: usize,
        /// Zipf exponent.
        theta: f64,
    },
}

/// Engine choice plus protocol knobs. Each engine's knobs are its own
/// config type, flattened into the `engine` object. `alpha: None` always
/// means the safe default `1 / (max_degree + 1)`.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineSpec {
    /// Rate-level synchronous WebWave ([`ww_core::wave::RateWave`]).
    RateWave {
        /// Diffusion parameter override and gossip staleness.
        config: WaveConfig,
    },
    /// Document-level WebWave with barriers and tunneling
    /// ([`ww_core::docsim::DocSim`]).
    DocSim {
        /// Diffusion parameter override and tunneling.
        config: DocSimConfig,
    },
    /// Packet-level event-driven WebWave
    /// ([`ww_core::packetsim::PacketSim`]); one engine round is one
    /// diffusion period of simulated time.
    PacketSim {
        /// The protocol knobs. `seed` is no key: resolution sets it to
        /// the spec's `seed`.
        config: PacketSimConfig,
    },
    /// Sharded parallel packet-level WebWave
    /// ([`ww_pdes::ParPacketSim`]): the same protocol as `packet_sim`,
    /// run across `workers` subtree shards with conservative
    /// synchronization — bit-identical to `packet_sim` at every worker
    /// count. One engine round is one diffusion period.
    PacketSimPar {
        /// The protocol knobs; `link_delay` must be positive (it is the
        /// conservative lookahead between shards).
        config: PacketSimConfig,
        /// Worker threads (= subtree shards, capped by the topology).
        workers: usize,
    },
    /// Distributed packet-level WebWave ([`ww_dist::DistPacketSim`]):
    /// the same sharded conservative engine as `packet_sim_par`, with
    /// the shards in separate OS processes (or threads) speaking the
    /// PDES wire protocol over TCP sockets — still bit-identical to
    /// `packet_sim` at every worker count. One engine round is one
    /// diffusion period.
    PacketSimDist {
        /// The protocol knobs; `link_delay` must be positive (it is the
        /// conservative lookahead between shards).
        config: PacketSimConfig,
        /// Worker processes (= subtree shards, capped by the topology).
        workers: usize,
    },
    /// Multi-tree forest WebWave ([`ww_core::forest::ForestWave`]): the
    /// topology is taken as an undirected graph, re-rooted at each of
    /// `roots`, and the workload demand is offered to every tree.
    ForestWave {
        /// Diffusion parameter override.
        alpha: Option<f64>,
        /// Gossip totals across trees (`true`) or per-tree loads.
        coupled: bool,
        /// Home-server node of each tree.
        roots: Vec<usize>,
    },
    /// The baseline schemes of [`ww_core::baselines`], each producing one
    /// static assignment report. Runs to completion in a single engine
    /// round.
    Baselines {
        /// Which schemes to run.
        schemes: Vec<BaselineScheme>,
        /// The schemes' parameters.
        params: BaselineParams,
    },
}

/// The parameters of the baseline schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineParams {
    /// DNS round-robin replica count; `0` selects `n/4` clamped to
    /// `1..=16`.
    pub replicas: usize,
    /// Directory lookup messages per request.
    pub lookup_msgs: f64,
    /// GLE-migration diffusion iterations.
    pub gle_iterations: usize,
    /// Rounds the WebWave row runs before reporting.
    pub webwave_rounds: usize,
    /// Gossip messages per second amortized into the WebWave row.
    pub gossip_per_second: f64,
}

impl EngineSpec {
    /// The spec spelling of this engine (`"rate_wave"`, ...).
    pub fn kind(&self) -> &'static str {
        self.tag()
    }

    /// The sequential twin of a sharded packet engine (`packet_sim_par`
    /// or `packet_sim_dist`): `packet_sim` with the same knobs, the run
    /// it must reproduce bit for bit at every worker count. `None` for
    /// every other engine.
    pub fn sequential_twin(&self) -> Option<EngineSpec> {
        match self {
            EngineSpec::PacketSimPar { config, .. } | EngineSpec::PacketSimDist { config, .. } => {
                Some(EngineSpec::PacketSim { config: *config })
            }
            _ => None,
        }
    }
}

/// The baseline schemes a [`EngineSpec::Baselines`] run can include.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineScheme {
    /// Home server serves everything.
    NoCache,
    /// Directory-based cooperative cache (perfect GLE, per-request
    /// control messages).
    Directory,
    /// DNS round-robin over fixed replica sites.
    DnsRoundRobin,
    /// Unconstrained GLE diffusion (ignores NSS).
    GleMigration,
    /// WebWave itself, for the same table.
    WebWave,
    /// The WebFold off-line optimum.
    WebFoldOracle,
}

impl BaselineScheme {
    /// Every scheme, in the order a `baselines` row lists them.
    pub fn all() -> Vec<BaselineScheme> {
        vec![
            BaselineScheme::NoCache,
            BaselineScheme::Directory,
            BaselineScheme::DnsRoundRobin,
            BaselineScheme::GleMigration,
            BaselineScheme::WebWave,
            BaselineScheme::WebFoldOracle,
        ]
    }

    /// The spec spelling of this scheme.
    pub fn as_str(self) -> &'static str {
        self.tag()
    }
}

/// When a run stops. The [`crate::runner`] implements every rule once,
/// for every engine — no engine carries its own termination loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Termination {
    /// Stop after `max` engine rounds.
    Rounds {
        /// Round budget.
        max: usize,
    },
    /// Stop once the engine's convergence metric (distance to the TLB
    /// oracle, or a load-stability measure for engines without one)
    /// drops to `threshold`, or after `max_rounds`, whichever is first.
    Converged {
        /// Convergence threshold.
        threshold: f64,
        /// Safety cap on rounds.
        max_rounds: usize,
    },
    /// Stop after `seconds` of wall-clock time, or after `max_rounds`.
    WallClock {
        /// Wall-clock budget in seconds.
        seconds: f64,
        /// Safety cap on rounds.
        max_rounds: usize,
    },
}

/// A one-parameter sweep: the base spec runs once per value, each run
/// labeled `param=value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Which knob varies.
    pub param: SweepParam,
    /// The values it takes (interpreted per parameter).
    pub values: Vec<f64>,
}

/// Parameters a [`Sweep`] can vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// `engine.staleness` (rate_wave only); a whole number.
    Staleness,
    /// `engine.alpha` (any protocol engine).
    Alpha,
    /// `engine.tunneling` (doc_sim / packet_sim); nonzero = on.
    Tunneling,
    /// `engine.gossip_loss` (packet_sim / packet_sim_par).
    GossipLoss,
    /// `engine.workers` (packet_sim_par / packet_sim_dist); a whole
    /// number, at least 1.
    Workers,
    /// `workload.doc_mix.theta` (shared_zipf mixes).
    DocTheta,
    /// `seed`; a whole number up to 2^53.
    Seed,
}

impl SweepParam {
    /// The spec spelling of this parameter.
    pub fn as_str(self) -> &'static str {
        self.tag()
    }
}

impl Sweep {
    /// The row label for one sweep value (`"staleness=3"`).
    pub fn label(&self, value: f64) -> String {
        match self.param {
            SweepParam::Staleness | SweepParam::Seed | SweepParam::Workers => {
                format!("{}={}", self.param.as_str(), value as u64)
            }
            SweepParam::Tunneling => {
                format!("{}={}", self.param.as_str(), value != 0.0)
            }
            _ => format!("{}={}", self.param.as_str(), value),
        }
    }
}

impl ScenarioSpec {
    /// A CI-sized variant of this spec: topology capped to a few hundred
    /// nodes, round budgets capped to a few hundred rounds, wall-clock
    /// budgets to one second. Semantics are otherwise untouched — the
    /// events schedule included — so a smoke run exercises exactly the
    /// same resolution and engine paths. Dynamics specs meant for CI
    /// should therefore keep node references inside the smoke caps and
    /// event rounds inside the smoke round budget.
    pub fn smoke(&self) -> ScenarioSpec {
        let mut spec = self.clone();
        spec.topology = match spec.topology {
            TopologySpec::Path { nodes } => TopologySpec::Path {
                nodes: nodes.min(64),
            },
            TopologySpec::Star { nodes } => TopologySpec::Star {
                nodes: nodes.min(64),
            },
            TopologySpec::KAry { arity, depth } => TopologySpec::KAry {
                arity: arity.min(4),
                depth: depth.min(4),
            },
            TopologySpec::TwoLevel { regions, leaves } => TopologySpec::TwoLevel {
                regions: regions.min(4),
                leaves: leaves.min(4),
            },
            TopologySpec::Caterpillar { spine, legs } => TopologySpec::Caterpillar {
                spine: spine.min(16),
                legs: legs.min(4),
            },
            TopologySpec::Broom { handle, bristles } => TopologySpec::Broom {
                handle: handle.min(16),
                bristles: bristles.min(16),
            },
            TopologySpec::RandomDepth { nodes, depth } => {
                let depth = depth.min(6);
                TopologySpec::RandomDepth {
                    nodes: nodes.clamp(depth + 1, 128),
                    depth,
                }
            }
            paper @ TopologySpec::Paper { .. } => paper,
            explicit @ TopologySpec::Explicit { .. } => explicit,
        };
        spec.termination = match spec.termination {
            Termination::Rounds { max } => Termination::Rounds { max: max.min(200) },
            Termination::Converged {
                threshold,
                max_rounds,
            } => Termination::Converged {
                threshold,
                max_rounds: max_rounds.min(200),
            },
            Termination::WallClock {
                seconds,
                max_rounds,
            } => Termination::WallClock {
                seconds: seconds.min(1.0),
                max_rounds: max_rounds.min(200),
            },
        };
        // The packet engines cost one event per request: cap both the
        // simulated horizon (rounds = diffusion periods) and the offered
        // demand so a smoke run stays in the tens of thousands of events.
        if matches!(
            spec.engine,
            EngineSpec::PacketSim { .. }
                | EngineSpec::PacketSimPar { .. }
                | EngineSpec::PacketSimDist { .. }
        ) {
            spec.termination = match spec.termination {
                Termination::Rounds { max } => Termination::Rounds { max: max.min(10) },
                Termination::Converged {
                    threshold,
                    max_rounds,
                } => Termination::Converged {
                    threshold,
                    max_rounds: max_rounds.min(10),
                },
                Termination::WallClock {
                    seconds,
                    max_rounds,
                } => Termination::WallClock {
                    seconds: seconds.min(1.0),
                    max_rounds: max_rounds.min(10),
                },
            };
            spec.workload.rates = match spec.workload.rates {
                RatesSpec::Uniform { rate } => RatesSpec::Uniform {
                    rate: rate.min(20.0),
                },
                RatesSpec::LeafOnly { rate } => RatesSpec::LeafOnly {
                    rate: rate.min(20.0),
                },
                RatesSpec::RandomUniform { lo, hi } => RatesSpec::RandomUniform {
                    lo: lo.min(20.0),
                    hi: hi.min(20.0),
                },
                RatesSpec::ZipfNodes { total, theta } => RatesSpec::ZipfNodes {
                    total: total.min(1200.0),
                    theta,
                },
                explicit @ RatesSpec::Explicit { .. } => explicit,
                paper @ RatesSpec::Paper => paper,
            };
        }
        if let Some(DocMixSpec::SharedZipf { docs, .. }) = &mut spec.workload.doc_mix {
            *docs = (*docs).min(32);
        }
        if let EngineSpec::Baselines { params, .. } = &mut spec.engine {
            params.gle_iterations = params.gle_iterations.min(500);
            params.webwave_rounds = params.webwave_rounds.min(500);
        }
        spec
    }
}
