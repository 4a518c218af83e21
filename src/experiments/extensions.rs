//! Extension experiments beyond the paper's published evaluation —
//! the studies its future-work section announces (erratic rates, the
//! forest of overlapping trees) plus the throughput claim of the
//! abstract, quantified.

use super::table::{f3, Table};
use ww_core::throughput::{saturation_capacity, throughput_at_capacity};
use ww_core::tracking::{track, TrackingConfig};
use ww_core::wave::WaveConfig;
use ww_model::{NodeId, RateVector};
use ww_scenario::{
    BaselineParams, BaselineScheme, EngineSpec, PaperFigure, RatesSpec, Runner, ScenarioSpec,
    TelemetrySpec, Termination, TopologySpec, WorkloadSpec, DEFAULT_SEED,
};
use ww_topology::paper;
use ww_workload::{DiurnalDrift, RandomWalkRates, StepChange};

/// One row of the erratic-rates study.
#[derive(Debug, Clone)]
pub struct ErraticRow {
    /// Regime label.
    pub regime: String,
    /// Mean distance to the moving TLB oracle, relative to total demand.
    pub mean_relative_error: f64,
    /// Worst epoch's relative error.
    pub max_relative_error: f64,
}

/// Result of the erratic-rates study (experiment A5).
#[derive(Debug, Clone)]
pub struct ErraticStudy {
    /// One row per demand regime.
    pub rows: Vec<ErraticRow>,
    /// Rendered report.
    pub report: String,
}

/// Experiment A5 — "the dynamics of WebWave under erratic request rates"
/// (the paper's announced follow-up): tracking error of the protocol
/// against a moving TLB oracle under step, diurnal-drift and random-walk
/// demand.
pub fn erratic_study(seed: u64) -> ErraticStudy {
    let s = paper::fig6();
    let cfg = TrackingConfig {
        rounds_per_epoch: 60,
        epochs: 50,
        epoch_secs: 1.0,
        wave: WaveConfig::default(),
    };
    let mut rows = Vec::new();
    let mut t = Table::new(vec!["regime", "mean rel. error", "max rel. error"]);

    let flipped = {
        // Reverse the demand profile across the node order.
        let mut v: Vec<f64> = s.spontaneous.as_slice().to_vec();
        v.reverse();
        RateVector::from(v)
    };
    let mut step = StepChange::new(s.spontaneous.clone(), flipped, 25.0);
    let step_result = track(&s.tree, &mut step, cfg);

    let mut drift = DiurnalDrift::new(s.spontaneous.clone(), 0.4, 30.0);
    let drift_result = track(&s.tree, &mut drift, cfg);

    use rand::SeedableRng;
    let rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut walk = RandomWalkRates::new(s.spontaneous.clone(), 0.15, rng);
    let walk_result = track(&s.tree, &mut walk, cfg);

    for (name, r) in [
        ("step change", step_result),
        ("diurnal drift", drift_result),
        ("random walk", walk_result),
    ] {
        t.row(vec![
            name.into(),
            format!("{:.4}", r.mean_relative_error),
            format!("{:.4}", r.max_relative_error),
        ]);
        rows.push(ErraticRow {
            regime: name.into(),
            mean_relative_error: r.mean_relative_error,
            max_relative_error: r.max_relative_error,
        });
    }
    ErraticStudy {
        report: format!(
            "A5 — WebWave under erratic request rates (fig6 tree, 60 rounds/epoch)\n{}",
            t.render()
        ),
        rows,
    }
}

/// One row of the throughput study.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Scheme label.
    pub scheme: String,
    /// Smallest uniform capacity that serves the whole demand.
    pub saturation_capacity: f64,
    /// Goodput fraction at the TLB saturation capacity.
    pub goodput_at_tlb_capacity: f64,
}

/// Result of the throughput study (experiment A6).
#[derive(Debug, Clone)]
pub struct ThroughputStudy {
    /// One row per scheme.
    pub rows: Vec<ThroughputRow>,
    /// Rendered report.
    pub report: String,
}

/// Experiment A6 — the abstract's claim, quantified: balancing to TLB
/// "minimizes server idle time and maximizes aggregate throughput".
/// Reports the capacity each scheme needs to serve the fig6 demand and
/// the goodput each achieves when capacity is provisioned exactly for
/// TLB.
pub fn throughput_study() -> ThroughputStudy {
    let spec = ScenarioSpec {
        name: "throughput-fig6".to_string(),
        topology: TopologySpec::Paper {
            figure: PaperFigure::Fig6,
        },
        workload: WorkloadSpec {
            rates: RatesSpec::Paper,
            doc_mix: None,
        },
        engine: EngineSpec::Baselines {
            schemes: BaselineScheme::all(),
            params: BaselineParams::default(),
        },
        termination: Termination::Rounds { max: 1 },
        seed: DEFAULT_SEED,
        sweep: None,
        events: None,
        telemetry: TelemetrySpec::default(),
        rebalance: None,
    };
    let report = Runner::new().run(&spec).expect("throughput spec resolves");
    let schemes = report.rows[0].outcome.schemes.clone();
    let tlb_cap = schemes
        .iter()
        .find(|r| r.name == "webfold-oracle")
        .map(|r| saturation_capacity(&r.load))
        .expect("oracle present");
    let mut rows = Vec::new();
    let mut t = Table::new(vec![
        "scheme",
        "saturation capacity",
        "goodput @ TLB capacity",
    ]);
    for r in &schemes {
        let sat = saturation_capacity(&r.load);
        let good = throughput_at_capacity(&r.load, tlb_cap).goodput_fraction;
        t.row(vec![
            r.name.clone(),
            f3(sat),
            format!("{:.1}%", 100.0 * good),
        ]);
        rows.push(ThroughputRow {
            scheme: r.name.clone(),
            saturation_capacity: sat,
            goodput_at_tlb_capacity: good,
        });
    }
    ThroughputStudy {
        report: format!(
            "A6 — throughput & idle capacity on fig6 (TLB saturation capacity {:.3} req/s)\n{}",
            tlb_cap,
            t.render()
        ),
        rows,
    }
}

/// Result of the forest study (experiment A7).
#[derive(Debug, Clone)]
pub struct ForestStudy {
    /// Max total load with uncoupled (per-tree) gossip.
    pub uncoupled_max: f64,
    /// Max total load with coupled (total-load) gossip.
    pub coupled_max: f64,
    /// Rendered report.
    pub report: String,
}

/// Experiment A7 — the paper's future work: WebWave on a forest of
/// overlapping routing trees. Two home servers at opposite ends of a
/// path, both demands entering at the same interior node; coupled gossip
/// (servers report total load) vs the naive per-tree composition.
pub fn forest_study() -> ForestStudy {
    // Declaratively: a 6-node path topology taken as an undirected
    // graph, re-rooted at both ends, with the same 60 req/s demand (at
    // n1) offered to each tree.
    let run = |coupled: bool| {
        let spec = ScenarioSpec {
            name: "forest-overlap".to_string(),
            topology: TopologySpec::Path { nodes: 6 },
            workload: WorkloadSpec {
                rates: RatesSpec::Explicit {
                    rates: vec![0.0, 60.0, 0.0, 0.0, 0.0, 0.0],
                },
                doc_mix: None,
            },
            engine: EngineSpec::ForestWave {
                alpha: None,
                coupled,
                roots: vec![0, 5],
            },
            termination: Termination::Rounds { max: 8000 },
            seed: DEFAULT_SEED,
            sweep: None,
            events: None,
            telemetry: TelemetrySpec::default(),
            rebalance: None,
        };
        let report = Runner::new().run(&spec).expect("forest spec resolves");
        report.rows[0].outcome.load.clone().expect("total load")
    };
    let uncoupled = run(false);
    let coupled = run(true);
    let mut t = Table::new(vec!["node", "uncoupled total", "coupled total"]);
    for i in 0..6 {
        t.row(vec![
            format!("n{i}"),
            f3(uncoupled[NodeId::new(i)]),
            f3(coupled[NodeId::new(i)]),
        ]);
    }
    ForestStudy {
        uncoupled_max: uncoupled.max(),
        coupled_max: coupled.max(),
        report: format!(
            "A7 — forest of overlapping trees (path 0..5, roots 0 and 5, both demands at n1)\n{}\nmax total load: uncoupled {:.3}, coupled {:.3}\n",
            t.render(),
            uncoupled.max(),
            coupled.max()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erratic_study_tracks_all_regimes() {
        let s = erratic_study(5);
        assert_eq!(s.rows.len(), 3);
        for row in &s.rows {
            assert!(
                row.mean_relative_error < 0.25,
                "{}: mean error {}",
                row.regime,
                row.mean_relative_error
            );
            assert!(row.max_relative_error >= row.mean_relative_error);
        }
    }

    #[test]
    fn throughput_study_ranks_schemes() {
        let s = throughput_study();
        let get = |n: &str| s.rows.iter().find(|r| r.scheme.starts_with(n)).unwrap();
        // TLB-capacity provisioning serves everything under WebWave...
        assert!((get("webwave").goodput_at_tlb_capacity - 1.0).abs() < 1e-9);
        // ...but almost nothing under no-cache.
        assert!(get("no-cache").goodput_at_tlb_capacity < 0.2);
        assert!(get("no-cache").saturation_capacity > get("webwave").saturation_capacity);
    }

    #[test]
    fn forest_study_shows_coupling_benefit() {
        let s = forest_study();
        assert!(
            s.coupled_max < s.uncoupled_max - 1.0,
            "coupled {} vs uncoupled {}",
            s.coupled_max,
            s.uncoupled_max
        );
    }
}
