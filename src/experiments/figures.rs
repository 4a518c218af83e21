//! One runner per paper figure/table (the experiment index is the
//! [module doc](super)).
//!
//! Every function returns a structured result plus a rendered text report
//! so the `webwave-exp` binary and the integration tests read from the
//! same code path.

use super::table::{f3, f6, Table};
use ww_core::diffusion::{
    hypercube_alpha, k_ary_n_cube_alpha, ring_alpha, DiffusionMatrix, SyncDiffusion,
};
use ww_core::fold::webfold;
use ww_core::stats::{fit_exponential, ExponentialFit};
use ww_model::{NodeId, RateVector};
use ww_scenario::{
    BaselineParams, DocSimConfig, EngineSpec, PaperFigure, RatesSpec, Runner, ScenarioSpec, Sweep,
    SweepParam, TelemetrySpec, Termination, TopologySpec, WaveConfig, WorkloadSpec, DEFAULT_SEED,
};
use ww_topology::{self as topology, paper, Graph};

/// A spec skeleton every engine-driven figure shares: named scenario,
/// rate workload, no sweep, default seed. Figure runners fill in the
/// topology, engine, and termination — and then *every* run goes through
/// the unified [`Runner`], never a hand-rolled loop.
fn figure_spec(
    name: &str,
    topology: TopologySpec,
    engine: EngineSpec,
    termination: Termination,
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        topology,
        workload: WorkloadSpec {
            rates: RatesSpec::Paper,
            doc_mix: None,
        },
        engine,
        termination,
        seed: DEFAULT_SEED,
        sweep: None,
        events: None,
        telemetry: TelemetrySpec::default(),
        rebalance: None,
    }
}

/// Result of the Figure 2 experiment: TLB vs GLE on the two rate vectors.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// TLB assignment for Figure 2(a).
    pub tlb_a: RateVector,
    /// Whether (a)'s TLB achieves GLE (the paper says yes).
    pub a_is_gle: bool,
    /// TLB assignment for Figure 2(b).
    pub tlb_b: RateVector,
    /// Whether (b)'s TLB achieves GLE (the paper says no).
    pub b_is_gle: bool,
    /// Rendered report.
    pub report: String,
}

/// Reproduces Figure 2: one tree, two spontaneous-rate vectors, one TLB
/// assignment that is GLE and one that is not.
pub fn fig2() -> Fig2Result {
    let a = paper::fig2a();
    let b = paper::fig2b();
    let fa = webfold(&a.tree, &a.spontaneous);
    let fb = webfold(&b.tree, &b.spontaneous);
    let mut t = Table::new(vec!["scenario", "E", "TLB load", "folds", "GLE?"]);
    for (s, f) in [(&a, &fa), (&b, &fb)] {
        t.row(vec![
            s.name.clone(),
            format!("{}", s.spontaneous),
            format!("{}", f.load()),
            f.fold_count().to_string(),
            if f.is_gle() {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    Fig2Result {
        a_is_gle: fa.is_gle(),
        b_is_gle: fb.is_gle(),
        tlb_a: fa.into_load(),
        tlb_b: fb.into_load(),
        report: format!("Figure 2 — TLB vs GLE\n{}", t.render()),
    }
}

/// Result of the Figure 4 experiment: the complete folding sequence.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// `(child_root, parent_root, merged per-node load)` per fold event.
    pub fold_sequence: Vec<(usize, usize, f64)>,
    /// Final TLB assignment.
    pub tlb: RateVector,
    /// Rendered report.
    pub report: String,
}

/// Reproduces Figure 4: WebFold's fold-by-fold execution trace.
pub fn fig4() -> Fig4Result {
    let s = paper::fig4();
    let f = webfold(&s.tree, &s.spontaneous);
    let mut t = Table::new(vec!["step", "fold", "into", "merged load/node"]);
    let mut seq = Vec::new();
    for (i, e) in f.trace().iter().enumerate() {
        seq.push((e.child_root.index(), e.parent_root.index(), e.merged_load));
        t.row(vec![
            (i + 1).to_string(),
            format!("n{}", e.child_root.index()),
            format!("n{}", e.parent_root.index()),
            f3(e.merged_load),
        ]);
    }
    let report = format!(
        "Figure 4 — WebFold folding sequence (E = {})\n{}\nfinal TLB: {}  (GLE share would be {:.3})\n",
        s.spontaneous,
        t.render(),
        f.load(),
        s.total_demand() / s.tree.len() as f64,
    );
    Fig4Result {
        fold_sequence: seq,
        tlb: f.into_load(),
        report,
    }
}

/// Result of the Figure 6(a) experiment.
#[derive(Debug, Clone)]
pub struct Fig6aResult {
    /// The TLB assignment on the hand-crafted tree.
    pub tlb: RateVector,
    /// Fold membership, `(fold root, members)`.
    pub folds: Vec<(usize, Vec<usize>)>,
    /// Rendered report.
    pub report: String,
}

/// Reproduces Figure 6(a): the hand-crafted tree, its spontaneous rates
/// and the fold structure WebFold computes.
pub fn fig6a() -> Fig6aResult {
    let s = paper::fig6();
    let f = webfold(&s.tree, &s.spontaneous);
    let mut t = Table::new(vec!["fold root", "members", "load/node"]);
    let mut folds = Vec::new();
    for (root, members) in f.folds() {
        let ids: Vec<usize> = members.iter().map(|m| m.index()).collect();
        t.row(vec![
            format!("n{}", root.index()),
            format!("{ids:?}"),
            f3(f.load()[root]),
        ]);
        folds.push((root.index(), ids));
    }
    Fig6aResult {
        tlb: f.load().clone(),
        folds,
        report: format!(
            "Figure 6(a) — hand-crafted tree, E = {}\n{}",
            s.spontaneous,
            t.render()
        ),
    }
}

/// Result of a convergence experiment (Figure 6(b)).
#[derive(Debug, Clone)]
pub struct ConvergenceResult {
    /// Distance to TLB per iteration.
    pub distances: Vec<f64>,
    /// The fitted `a * gamma^t` bound.
    pub fit: Option<ExponentialFit>,
    /// Iterations until distance fell below 1% of its initial value.
    pub iterations_to_1pct: Option<usize>,
    /// Rendered report.
    pub report: String,
}

/// Reproduces Figure 6(b): WebWave's Euclidean distance to TLB per
/// iteration on the Figure 6(a) tree, with the exponential fit.
pub fn fig6b(rounds: usize) -> ConvergenceResult {
    let spec = figure_spec(
        "fig6b",
        TopologySpec::Paper {
            figure: PaperFigure::Fig6,
        },
        EngineSpec::RateWave {
            config: WaveConfig::default(),
        },
        Termination::Rounds { max: rounds },
    );
    let report = Runner::new().run(&spec).expect("fig6b spec resolves");
    let distances = report.rows[0]
        .outcome
        .trace
        .clone()
        .expect("trace recorded");
    let initial = distances[0];
    let fit = fit_exponential(&distances, initial * 1e-12).ok();
    let to_1pct = distances.iter().position(|&d| d <= initial * 0.01);
    let mut t = Table::new(vec!["iteration", "distance to TLB"]);
    for (i, d) in distances.iter().enumerate() {
        if i <= 10 || (i % (rounds / 20).max(1) == 0) {
            t.row(vec![i.to_string(), format!("{d:.6e}")]);
        }
    }
    let fit_line = match &fit {
        Some(f) => format!(
            "fit a*gamma^t: gamma = {} (stderr {}), a = {:.3}",
            f6(f.gamma),
            f6(f.gamma_stderr),
            f.a
        ),
        None => "fit failed".into(),
    };
    ConvergenceResult {
        iterations_to_1pct: to_1pct,
        report: format!(
            "Figure 6(b) — WebWave convergence on the fig6 tree\n{}\n{}\n",
            t.render(),
            fit_line
        ),
        distances,
        fit,
    }
}

/// One row of the gamma regression study (Section 5.1).
#[derive(Debug, Clone)]
pub struct GammaRow {
    /// Tree depth used.
    pub depth: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Fitted convergence rate (mean over trials).
    pub gamma: f64,
    /// Mean per-fit standard error.
    pub stderr: f64,
    /// Smallest gamma across trials.
    pub gamma_min: f64,
    /// Largest gamma across trials.
    pub gamma_max: f64,
}

/// Result of the gamma study.
#[derive(Debug, Clone)]
pub struct GammaStudy {
    /// One row per depth.
    pub rows: Vec<GammaRow>,
    /// Rendered report.
    pub report: String,
}

/// Reproduces the Section 5.1 regression: for random trees of each depth,
/// run WebWave, fit `a * gamma^t` to the distance trace and report
/// `gamma` with its standard error (the paper's depth-9 example:
/// `gamma = 0.830734`, stderr `0.005786`). Averages over five random
/// trees per depth to smooth instance noise.
pub fn gamma_study(depths: &[usize], nodes: usize, rounds: usize, seed: u64) -> GammaStudy {
    const TRIALS: usize = 5;
    let mut rows = Vec::new();
    let mut t = Table::new(vec![
        "depth",
        "nodes",
        "gamma (mean)",
        "stderr",
        "gamma min..max",
    ]);
    for &depth in depths {
        let mut gammas = Vec::new();
        let mut stderrs = Vec::new();
        for trial in 0..TRIALS {
            // The derived seed drives tree and rates from one generator
            // inside the resolver, reproducing the original construction
            // stream exactly.
            let mut spec = figure_spec(
                "gamma-trial",
                TopologySpec::RandomDepth { nodes, depth },
                EngineSpec::RateWave {
                    config: WaveConfig::default(),
                },
                Termination::Rounds { max: rounds },
            );
            spec.workload.rates = RatesSpec::RandomUniform { lo: 0.0, hi: 10.0 };
            spec.seed = seed ^ ((depth as u64) << 8) ^ ((trial as u64) << 20);
            let report = Runner::new().run(&spec).expect("gamma spec resolves");
            let distances = report.rows[0]
                .outcome
                .trace
                .clone()
                .expect("trace recorded");
            let initial = distances.first().copied().unwrap_or(1.0);
            let fit = fit_exponential(&distances, initial * 1e-10).expect("convergence trace fits");
            gammas.push(fit.gamma);
            stderrs.push(fit.gamma_stderr);
        }
        let mean = gammas.iter().sum::<f64>() / TRIALS as f64;
        let stderr = stderrs.iter().sum::<f64>() / TRIALS as f64;
        let min = gammas.iter().copied().fold(f64::INFINITY, f64::min);
        let max = gammas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        t.row(vec![
            depth.to_string(),
            nodes.to_string(),
            f6(mean),
            f6(stderr),
            format!("{}..{}", f6(min), f6(max)),
        ]);
        rows.push(GammaRow {
            depth,
            nodes,
            gamma: mean,
            stderr,
            gamma_min: min,
            gamma_max: max,
        });
    }
    GammaStudy {
        report: format!(
            "Section 5.1 — gamma regression on random trees, 5 trees per depth (paper: depth 9 -> gamma = 0.830734 +/- 0.005786)\n{}",
            t.render()
        ),
        rows,
    }
}

/// Result of the Figure 7 barrier experiment.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Final loads without tunneling (the stall).
    pub stalled: RateVector,
    /// Final loads with tunneling.
    pub tunneled: RateVector,
    /// Distance to TLB without tunneling.
    pub stalled_distance: f64,
    /// Distance to TLB with tunneling.
    pub tunneled_distance: f64,
    /// Tunnel fetches performed in the tunneling run.
    pub tunnel_fetches: u64,
    /// Rendered report.
    pub report: String,
}

/// Reproduces Figure 7: the potential barrier stalls WebWave without
/// tunneling and is cured by it (every node ends at 90 req/s).
pub fn fig7(rounds: usize) -> Fig7Result {
    let b = paper::fig7();
    let mut spec = figure_spec(
        "fig7",
        TopologySpec::Paper {
            figure: PaperFigure::Fig7,
        },
        EngineSpec::DocSim {
            config: DocSimConfig::default(),
        },
        Termination::Rounds { max: rounds },
    );
    spec.workload.doc_mix = Some(ww_scenario::DocMixSpec::Paper);
    spec.sweep = Some(Sweep {
        param: SweepParam::Tunneling,
        values: vec![0.0, 1.0],
    });
    let report = Runner::new().run(&spec).expect("fig7 spec resolves");
    let [stalled_row, tunneled_row] = &report.rows[..] else {
        panic!("tunneling sweep yields two rows");
    };
    let stalled = stalled_row.outcome.load.clone().expect("loads");
    let tunneled = tunneled_row.outcome.load.clone().expect("loads");
    let stalled_distance = stalled_row.outcome.final_distance().expect("distance");
    let tunneled_distance = tunneled_row.outcome.final_distance().expect("distance");
    let tunnel_fetches = tunneled_row
        .outcome
        .metric("tunnel_fetches")
        .expect("tunnel_fetches metric") as u64;
    let mut t = Table::new(vec!["node", "TLB", "no tunneling", "with tunneling"]);
    for i in 0..4 {
        let u = NodeId::new(i);
        t.row(vec![
            format!("n{i}"),
            f3(b.tlb[u]),
            f3(stalled[u]),
            f3(tunneled[u]),
        ]);
    }
    Fig7Result {
        report: format!(
            "Figure 7 — potential barrier and tunneling ({} rounds)\n{}\nno-tunneling distance to TLB: {:.3}; with tunneling: {:.3}; tunnel fetches: {}\n",
            rounds,
            t.render(),
            stalled_distance,
            tunneled_distance,
            tunnel_fetches,
        ),
        stalled,
        tunneled,
        stalled_distance,
        tunneled_distance,
        tunnel_fetches,
    }
}

/// One row of the GLE diffusion study (Section 2 claims).
#[derive(Debug, Clone)]
pub struct GleRow {
    /// Topology label.
    pub topology: String,
    /// Predicted contraction factor from the spectrum.
    pub predicted_gamma: f64,
    /// Gamma fitted from the measured distance trace.
    pub measured_gamma: f64,
    /// Iterations to shrink the distance by 1e6x.
    pub iterations: usize,
}

/// Result of the GLE study.
#[derive(Debug, Clone)]
pub struct GleStudy {
    /// One row per topology.
    pub rows: Vec<GleRow>,
    /// Rendered report.
    pub report: String,
}

/// Verifies Section 2's background claims: synchronous diffusion with the
/// Xu-Lau optimal alpha converges to uniform load at exactly the
/// spectrum-predicted rate on the classic topologies.
pub fn gle_study() -> GleStudy {
    let cases: Vec<(String, Graph, f64)> = vec![
        ("ring-16".into(), topology::ring(16), ring_alpha(16).gamma),
        (
            "hypercube-4".into(),
            topology::hypercube(4),
            hypercube_alpha(4).gamma,
        ),
        (
            "4-ary-2-cube".into(),
            topology::k_ary_n_cube(4, 2),
            k_ary_n_cube_alpha(4, 2).gamma,
        ),
    ];
    let alphas = [
        ring_alpha(16).alpha,
        hypercube_alpha(4).alpha,
        k_ary_n_cube_alpha(4, 2).alpha,
    ];
    let mut rows = Vec::new();
    let mut t = Table::new(vec![
        "topology",
        "predicted gamma",
        "measured gamma",
        "iters to 1e-6x",
    ]);
    for ((name, graph, predicted), alpha) in cases.into_iter().zip(alphas) {
        let n = graph.len();
        let matrix = DiffusionMatrix::uniform_alpha(&graph, alpha).expect("valid alpha");
        let mut x = RateVector::zeros(n);
        x[NodeId::new(0)] = n as f64;
        let initial = x.distance_to_uniform();
        let mut run = SyncDiffusion::new(matrix, x);
        let iters = run.run_until(initial * 1e-6, 100_000);
        // The spectrum predicts the *asymptotic* rate; early iterations
        // decay faster while the fast eigenmodes die off, so measure the
        // geometric-mean contraction over the trace's tail.
        let ds = run.distances();
        let tail = &ds[ds.len().saturating_sub(12)..];
        let ratios: Vec<f64> = tail
            .windows(2)
            .filter(|w| w[0] > 0.0 && w[1] > 0.0)
            .map(|w| w[1] / w[0])
            .collect();
        let measured = if ratios.is_empty() {
            0.0
        } else {
            (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
        };
        t.row(vec![
            name.clone(),
            f6(predicted),
            f6(measured),
            iters.to_string(),
        ]);
        rows.push(GleRow {
            topology: name,
            predicted_gamma: predicted,
            measured_gamma: measured,
            iterations: iters,
        });
    }
    GleStudy {
        report: format!(
            "Section 2 — GLE diffusion: predicted vs measured contraction\n{}",
            t.render()
        ),
        rows,
    }
}

/// Result of the baseline comparison (experiment A1).
#[derive(Debug, Clone)]
pub struct BaselineStudy {
    /// One report per scheme.
    pub rows: Vec<ww_core::baselines::SchemeReport>,
    /// Rendered report.
    pub report: String,
}

/// Runs every baseline scheme against the Figure 6 workload and a larger
/// Zipf-skewed random tree.
pub fn baseline_study(seed: u64) -> BaselineStudy {
    let mut all_rows = Vec::new();
    let mut out = String::new();
    let baselines_engine = EngineSpec::Baselines {
        schemes: ww_scenario::BaselineScheme::all(),
        params: BaselineParams::default(),
    };
    let fig6_spec = figure_spec(
        "baselines-fig6",
        TopologySpec::Paper {
            figure: PaperFigure::Fig6,
        },
        baselines_engine.clone(),
        Termination::Rounds { max: 1 },
    );
    let mut big_spec = figure_spec(
        "baselines-random-64",
        TopologySpec::RandomDepth {
            nodes: 64,
            depth: 6,
        },
        baselines_engine,
        Termination::Rounds { max: 1 },
    );
    big_spec.workload.rates = RatesSpec::ZipfNodes {
        total: 6400.0,
        theta: 1.0,
    };
    big_spec.seed = seed;
    let workloads = vec![
        ("fig6".to_string(), fig6_spec),
        ("random-64/zipf".to_string(), big_spec),
    ];
    for (name, spec) in workloads {
        let report = Runner::new().run(&spec).expect("baseline spec resolves");
        let rows = report.rows[0].outcome.schemes.clone();
        let mut t = Table::new(vec![
            "scheme",
            "max load",
            "dist to GLE",
            "ctrl msgs/req",
            "data hops/req",
            "needs directory",
        ]);
        for r in &rows {
            t.row(vec![
                r.name.clone(),
                f3(r.max_load),
                f3(r.distance_to_gle),
                f3(r.control_msgs_per_request),
                f3(r.data_hops_per_request),
                if r.violates_nss {
                    "yes".into()
                } else {
                    "no".into()
                },
            ]);
        }
        out.push_str(&format!(
            "A1 — baseline comparison on {name}\n{}\n",
            t.render()
        ));
        all_rows.extend(rows);
    }
    BaselineStudy {
        rows: all_rows,
        report: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_matches_paper_claims() {
        let r = fig2();
        assert!(r.a_is_gle);
        assert!(!r.b_is_gle);
        assert_eq!(r.tlb_b.as_slice(), paper::fig2b_tlb().as_slice());
        assert!(r.report.contains("fig2a"));
    }

    #[test]
    fn fig4_trace_has_five_folds() {
        let r = fig4();
        assert_eq!(r.fold_sequence.len(), 5);
        assert_eq!(r.fold_sequence[0].0, 3); // first fold: n3 into n1
        assert!(r.report.contains("folding sequence"));
    }

    #[test]
    fn fig6a_partitions_fourteen_nodes() {
        let r = fig6a();
        let covered: usize = r.folds.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(covered, 14);
    }

    #[test]
    fn fig6b_converges_exponentially() {
        let r = fig6b(400);
        let fit = r.fit.expect("fit succeeds");
        assert!(fit.gamma > 0.0 && fit.gamma < 1.0);
        assert!(r.iterations_to_1pct.is_some());
        let d = &r.distances;
        assert!(d[d.len() - 1] < d[0] * 1e-3);
    }

    #[test]
    fn gamma_study_produces_rates_below_one() {
        let s = gamma_study(&[3, 5], 64, 300, 42);
        assert_eq!(s.rows.len(), 2);
        for row in &s.rows {
            assert!(row.gamma > 0.0 && row.gamma < 1.0, "gamma {}", row.gamma);
            assert!(row.stderr >= 0.0);
        }
    }

    #[test]
    fn fig7_stalls_without_tunneling_and_heals_with_it() {
        let r = fig7(800);
        assert!(r.stalled_distance > 50.0);
        assert!(r.tunneled_distance < 5.0);
        assert!(r.tunnel_fetches >= 1);
        assert_eq!(r.stalled[NodeId::new(2)], 0.0);
    }

    #[test]
    fn gle_study_matches_predictions() {
        let s = gle_study();
        for row in &s.rows {
            assert!(
                (row.predicted_gamma - row.measured_gamma).abs() < 0.02,
                "{}: predicted {} measured {}",
                row.topology,
                row.predicted_gamma,
                row.measured_gamma
            );
        }
    }

    #[test]
    fn baseline_study_covers_both_workloads() {
        let s = baseline_study(7);
        assert_eq!(s.rows.len(), 12); // 6 schemes x 2 workloads
        assert!(s.report.contains("fig6"));
        assert!(s.report.contains("random-64"));
    }
}
