//! Cross-crate integration: the three WebWave engines (rate-level,
//! document-level, packet-level) agree with the WebFold oracle on shared
//! scenarios.

use webwave::docsim::{DocSim, DocSimConfig};
use webwave::fold::webfold;
use webwave::model::{DocId, NodeId};
use webwave::packetsim::{PacketBackend, PacketSim, PacketSimConfig};
use webwave::topology::paper;
use webwave::wave::{RateWave, WaveConfig};
use webwave::workload::DocMix;

/// Every engine drives the Figure 2(b) workload to (or near) the same
/// non-GLE TLB optimum.
#[test]
fn engines_agree_on_fig2b() {
    let s = paper::fig2b();
    let oracle = webfold(&s.tree, &s.spontaneous).into_load();
    assert_eq!(oracle.as_slice(), paper::fig2b_tlb().as_slice());

    // Rate-level: exact convergence.
    let mut wave = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
    wave.run(4000);
    assert!(wave.distance_to_tlb() < 1e-6);

    // Document-level: one document per demanding node (no barriers).
    let mut mix = DocMix::new(s.tree.len());
    mix.set(NodeId::new(3), DocId::new(1), 90.0);
    mix.set(NodeId::new(4), DocId::new(2), 10.0);
    let mut doc = DocSim::new(&s.tree, &mix, DocSimConfig::default());
    doc.run(4000);
    assert!(
        doc.distance_to_tlb() < 0.5,
        "docsim distance {}",
        doc.distance_to_tlb()
    );
}

/// The packet-level engine, measured under Poisson noise, still heads to
/// the same oracle.
#[test]
fn packet_engine_tracks_oracle_on_fig7() {
    let b = paper::fig7();
    let mut mix = DocMix::new(b.tree.len());
    for d in &b.demands {
        mix.set(d.origin, d.doc, d.rate);
    }
    let mut sim = PacketSim::new(&b.tree, &mix, PacketSimConfig::default());
    assert_eq!(sim.oracle().as_slice(), b.tlb.as_slice());
    let report = sim.run(60.0);
    let initial = report.trace.initial().unwrap();
    assert!(
        report.final_distance < 0.35 * initial,
        "final {} vs initial {initial}",
        report.final_distance
    );
}

/// The rate engine reaches the WebFold oracle on every paper scenario.
#[test]
fn rate_engine_reaches_the_oracle_on_every_paper_scenario() {
    for s in paper::all_scenarios() {
        let oracle = webfold(&s.tree, &s.spontaneous).into_load();
        let mut wave = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
        wave.run(6000);
        let gap = wave.load().euclidean_distance(&oracle);
        assert!(
            gap < 1e-6 * s.total_demand(),
            "{}: rate engine is {gap} from the oracle",
            s.name
        );
    }
}

/// Document-level WebWave with tunneling solves the barrier the
/// rate-level engine cannot even express.
#[test]
fn docsim_reaches_tlb_where_rate_engine_is_blind_to_documents() {
    let b = paper::fig7();
    // The rate engine has no document granularity: it converges to the
    // uniform 90s directly (no barrier exists at the rate level).
    let mut wave = RateWave::new(&b.tree, &b.spontaneous, WaveConfig::default());
    wave.run(4000);
    assert!(wave.distance_to_tlb() < 1e-6);

    // The document engine needs tunneling for the same result.
    let mut with_tunnel = DocSim::from_barrier_scenario(&b, DocSimConfig::default());
    with_tunnel.run(1500);
    assert!(with_tunnel.distance_to_tlb() < 1.0);

    let mut without = DocSim::from_barrier_scenario(
        &b,
        DocSimConfig {
            tunneling: false,
            ..DocSimConfig::default()
        },
    );
    without.run(1500);
    assert!(without.distance_to_tlb() > 100.0);
}

/// Conservation: every engine serves exactly (or statistically) the
/// offered demand.
#[test]
fn demand_conservation_across_engines() {
    let s = paper::fig6();
    let mut wave = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
    wave.run(500);
    assert!((wave.load().total() - s.total_demand()).abs() < 1e-6);

    let oracle = webfold(&s.tree, &s.spontaneous).into_load();
    assert!((oracle.total() - s.total_demand()).abs() < 1e-9);
}

/// Warm-starting the rate engine from another engine's output stays put:
/// the oracle is a genuine fixed point shared by the implementations.
#[test]
fn oracle_is_a_shared_fixed_point() {
    let s = paper::fig4();
    let oracle = webfold(&s.tree, &s.spontaneous).into_load();
    let mut wave = RateWave::with_initial(
        &s.tree,
        &s.spontaneous,
        oracle.clone(),
        WaveConfig::default(),
    );
    wave.run(200);
    assert!(wave.distance_to_tlb() < 1e-9);
    assert_eq!(wave.load().as_slice().len(), oracle.as_slice().len());
}

/// A bigger randomized cross-check: rate engine vs oracle on a 200-node
/// random tree with skewed demand.
#[test]
fn rate_engine_converges_on_larger_random_tree() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let tree = webwave::topology::random_tree_of_depth(&mut rng, 200, 8);
    let demand = webwave::workload::zipf_nodes(&mut rng, &tree, 2000.0, 1.0);
    let mut wave = RateWave::new(&tree, &demand, WaveConfig::default());
    wave.run_until(0.01 * demand.total(), 30_000);
    assert!(
        wave.distance_to_tlb() <= 0.01 * demand.total(),
        "distance {}",
        wave.distance_to_tlb()
    );
    // And the result is feasible.
    let a = webwave::model::LoadAssignment::new(&tree, &demand, wave.load().clone()).unwrap();
    assert!(a.check_feasible(1e-6).is_ok());
}
