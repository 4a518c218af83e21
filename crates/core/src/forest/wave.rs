//! WebWave over a forest: per-tree diffusion with optionally *coupled*
//! load pressure.
//!
//! Every tree runs the WebWave protocol on its own demand, but the
//! physical servers are shared. Two gossip policies are compared:
//!
//! * **Uncoupled** — each tree balances its own per-tree load `L_k`,
//!   oblivious to what the node carries for other trees (the naive
//!   composition of single-tree WebWave),
//! * **Coupled** — nodes gossip their *total* load across trees, and each
//!   tree's diffusion pressure uses those totals (while transfers remain
//!   NSS-bounded within each tree).
//!
//! Coupling is the natural forest extension of the paper's protocol: the
//! gossip message simply reports the server's whole load. The experiment
//! in this module's tests shows it strictly reduces the global maximum
//! load whenever trees overlap asymmetrically.

use crate::diffusion::safe_alpha;
use crate::forest::Forest;
use ww_model::{NodeId, RateVector, Tree};

/// Gossip policy for the forest protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coupling {
    /// Each tree balances its own load independently.
    Uncoupled,
    /// Diffusion pressure uses the servers' total load across trees.
    Coupled,
}

/// Configuration of a forest run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestWaveConfig {
    /// Diffusion parameter; `None` selects [`safe_alpha`] per tree.
    pub alpha: Option<f64>,
    /// Gossip policy.
    pub coupling: Coupling,
}

impl Default for ForestWaveConfig {
    fn default() -> Self {
        ForestWaveConfig {
            alpha: None,
            coupling: Coupling::Coupled,
        }
    }
}

/// A rate-level WebWave simulation over a forest of overlapping trees.
///
/// # Example
///
/// ```
/// use ww_model::{NodeId, RateVector};
/// use ww_topology::Graph;
/// use ww_core::forest::{Forest, ForestWave, ForestWaveConfig};
///
/// // Path 0-1-2-3; home servers at both ends; both demands enter at n1.
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1); g.add_edge(1, 2); g.add_edge(2, 3);
/// let forest = Forest::from_graph(&g, &[NodeId::new(0), NodeId::new(3)]).unwrap();
/// let demands = vec![
///     RateVector::from(vec![0.0, 40.0, 0.0, 0.0]), // tree 0: 40 req/s at n1
///     RateVector::from(vec![0.0, 40.0, 0.0, 0.0]), // tree 1: 40 req/s at n1
/// ];
/// let mut wave = ForestWave::new(&forest, &demands, ForestWaveConfig::default());
/// wave.run(4000);
/// // Coupled gossip spreads the 80 req/s total to 20 per server.
/// assert!(wave.total_load().max() < 21.0);
/// ```
#[derive(Debug, Clone)]
pub struct ForestWave {
    forest: Forest,
    demands: Vec<RateVector>,
    loads: Vec<RateVector>,
    forwarded: Vec<RateVector>,
    alphas: Vec<f64>,
    coupling: Coupling,
    round: usize,
    max_load_trace: Vec<f64>,
}

impl ForestWave {
    /// Starts a run: each tree begins cold with its home server carrying
    /// that tree's entire demand.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch or a provided `alpha` is outside `(0, 1)`.
    pub fn new(forest: &Forest, demands: &[RateVector], config: ForestWaveConfig) -> Self {
        assert_eq!(
            demands.len(),
            forest.tree_count(),
            "one demand vector per tree"
        );
        let mut loads = Vec::with_capacity(demands.len());
        let mut forwarded = Vec::with_capacity(demands.len());
        let mut alphas = Vec::with_capacity(demands.len());
        for (k, demand) in demands.iter().enumerate() {
            let tree = forest.tree(k);
            demand
                .validate_for(tree)
                .expect("demand must match the node set");
            let mut load = RateVector::zeros(forest.node_count());
            load[tree.root()] = demand.total();
            let fwd = ww_model::assignment::compute_forwarded(tree, demand, &load);
            loads.push(load);
            forwarded.push(fwd);
            let alpha = config.alpha.unwrap_or_else(|| safe_alpha(tree));
            assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
            alphas.push(alpha);
        }
        let mut wave = ForestWave {
            forest: forest.clone(),
            demands: demands.to_vec(),
            loads,
            forwarded,
            alphas,
            coupling: config.coupling,
            round: 0,
            max_load_trace: Vec::new(),
        };
        wave.max_load_trace.push(wave.total_load().max());
        wave
    }

    /// Executes one synchronous round across every tree.
    pub fn step(&mut self) {
        self.round += 1;
        let n = self.forest.node_count();
        let totals = self.total_load();
        for k in 0..self.forest.tree_count() {
            let tree = self.forest.tree(k);
            let alpha = self.alphas[k];
            // Pressure: per-tree load or shared totals.
            let pressure = match self.coupling {
                Coupling::Uncoupled => &self.loads[k],
                Coupling::Coupled => &totals,
            };
            let mut next = self.loads[k].clone();
            for c_idx in 0..n {
                let c = NodeId::new(c_idx);
                let Some(p) = tree.parent(c) else { continue };
                let down = if pressure[p] > pressure[c] {
                    (alpha * (pressure[p] - pressure[c])).min(self.forwarded[k][c])
                } else {
                    0.0
                };
                let up = if pressure[c] > pressure[p] {
                    (alpha * (pressure[c] - pressure[p])).min(self.loads[k][c])
                } else {
                    0.0
                };
                let net = down - up;
                next[p] -= net;
                next[c] += net;
            }
            self.forwarded[k] = repair(tree, &self.demands[k], &mut next);
            self.loads[k] = next;
        }
        self.max_load_trace.push(self.total_load().max());
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// The per-tree served-rate vectors.
    pub fn loads(&self) -> &[RateVector] {
        &self.loads
    }

    /// Replaces every tree's demand mid-run (a workload shift). Current
    /// loads are kept and re-projected onto the new feasible region —
    /// each tree's bottom-up repair clamps serves to the new through
    /// rates and the tree's root absorbs the residual — exactly how a
    /// running forest would experience the shift. The max-load trace
    /// gains a post-shift sample.
    ///
    /// # Panics
    ///
    /// Panics if the demand count or any vector length mismatches the
    /// forest.
    pub fn set_demands(&mut self, demands: &[RateVector]) {
        assert_eq!(
            demands.len(),
            self.forest.tree_count(),
            "one demand vector per tree"
        );
        for (k, demand) in demands.iter().enumerate() {
            let tree = self.forest.tree(k);
            demand
                .validate_for(tree)
                .expect("demand must match the node set");
            self.demands[k] = demand.clone();
            self.forwarded[k] = repair(tree, demand, &mut self.loads[k]);
        }
        self.max_load_trace.push(self.total_load().max());
    }

    /// Total physical load per server (summed over trees).
    pub fn total_load(&self) -> RateVector {
        self.forest.total_load(&self.loads)
    }

    /// The per-round maximum total load trace.
    pub fn max_load_trace(&self) -> &[f64] {
        &self.max_load_trace
    }

    /// Rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }
}

/// One tree's feasibility repair, bottom-up (as in the single-tree
/// engine): a node serves no negative rate and no more than flows
/// through it, and the root absorbs everything that reaches it. Clamps
/// `served` in place and returns the tree's forwarded rates.
fn repair(tree: &Tree, demand: &RateVector, served: &mut RateVector) -> RateVector {
    let mut forwarded = RateVector::zeros(demand.len());
    for u in tree.bottom_up() {
        let mut through = demand[u];
        for &ch in tree.children(u) {
            through += forwarded[ch];
        }
        if tree.parent(u).is_none() {
            served[u] = through;
            forwarded[u] = 0.0;
        } else {
            served[u] = served[u].clamp(0.0, through);
            forwarded[u] = through - served[u];
        }
    }
    forwarded
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_topology::Graph;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    /// Path 0-1-2-3, roots at both ends, both demands entering at n1:
    /// tree 0 can place its 40 req/s only on {0, 1} (route n1 -> n0),
    /// tree 1 can place its 40 req/s on {1, 2, 3} (route n1 -> n3).
    fn overlap_scenario() -> (Forest, Vec<RateVector>) {
        let g = path_graph(4);
        let forest = Forest::from_graph(&g, &[NodeId::new(0), NodeId::new(3)]).unwrap();
        let demands = vec![
            RateVector::from(vec![0.0, 40.0, 0.0, 0.0]),
            RateVector::from(vec![0.0, 40.0, 0.0, 0.0]),
        ];
        (forest, demands)
    }

    #[test]
    fn uncoupled_overloads_the_shared_node() {
        let (forest, demands) = overlap_scenario();
        let cfg = ForestWaveConfig {
            alpha: None,
            coupling: Coupling::Uncoupled,
        };
        let mut wave = ForestWave::new(&forest, &demands, cfg);
        wave.run(6000);
        let total = wave.total_load();
        // Tree 0 spreads 40 over {0,1} (20 each); tree 1 spreads 40 over
        // {1,2,3} (13.3 each): node 1 carries ~33.3.
        assert!(
            (total[NodeId::new(1)] - 100.0 / 3.0).abs() < 0.5,
            "n1 total {}",
            total[NodeId::new(1)]
        );
        assert!(total.max() > 30.0);
    }

    #[test]
    fn coupled_gossip_balances_the_total() {
        let (forest, demands) = overlap_scenario();
        let mut wave = ForestWave::new(&forest, &demands, ForestWaveConfig::default());
        wave.run(6000);
        let total = wave.total_load();
        // 80 req/s over 4 servers: coupled gossip reaches ~20 each.
        for u in 0..4 {
            assert!(
                (total[NodeId::new(u)] - 20.0).abs() < 1.0,
                "n{u} total {}",
                total[NodeId::new(u)]
            );
        }
    }

    #[test]
    fn coupling_strictly_reduces_max_load() {
        let (forest, demands) = overlap_scenario();
        let run = |coupling| {
            let cfg = ForestWaveConfig {
                alpha: None,
                coupling,
            };
            let mut wave = ForestWave::new(&forest, &demands, cfg);
            wave.run(6000);
            wave.total_load().max()
        };
        let coupled = run(Coupling::Coupled);
        let uncoupled = run(Coupling::Uncoupled);
        assert!(
            coupled < uncoupled - 5.0,
            "coupled {coupled} vs uncoupled {uncoupled}"
        );
    }

    #[test]
    fn per_tree_demand_is_conserved() {
        let (forest, demands) = overlap_scenario();
        let mut wave = ForestWave::new(&forest, &demands, ForestWaveConfig::default());
        for _ in 0..200 {
            wave.step();
            for (k, demand) in demands.iter().enumerate() {
                assert!(
                    (wave.loads()[k].total() - demand.total()).abs() < 1e-6,
                    "tree {k} lost demand"
                );
            }
        }
    }

    #[test]
    fn per_tree_nss_holds_every_round() {
        let (forest, demands) = overlap_scenario();
        let mut wave = ForestWave::new(&forest, &demands, ForestWaveConfig::default());
        for _ in 0..200 {
            wave.step();
            for (k, demand) in demands.iter().enumerate() {
                let a =
                    ww_model::LoadAssignment::new(forest.tree(k), demand, wave.loads()[k].clone())
                        .unwrap();
                assert!(a.check_feasible(1e-6).is_ok(), "tree {k} infeasible");
            }
        }
    }

    #[test]
    fn single_tree_forest_matches_plain_webwave() {
        // A forest with one tree is ordinary WebWave, bit for bit, every
        // round, whichever gossip policy it runs: coupled totals over
        // one tree are that tree's loads.
        use crate::reference::NaiveRateWave;
        use crate::wave::WaveConfig;
        use ww_topology::paper;
        for s in [paper::fig2a(), paper::fig2b(), paper::fig4(), paper::fig6()] {
            let forest = Forest::from_graph(&Graph::from(&s.tree), &[s.tree.root()]).unwrap();
            assert_eq!(forest.tree(0), &s.tree, "{}: BFS tree differs", s.name);
            for coupling in [Coupling::Coupled, Coupling::Uncoupled] {
                let cfg = ForestWaveConfig {
                    alpha: None,
                    coupling,
                };
                let demand = std::slice::from_ref(&s.spontaneous);
                let mut fw = ForestWave::new(&forest, demand, cfg);
                let mut ww = NaiveRateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
                for round in 0..=300 {
                    let (got, want) = (fw.loads()[0].as_slice(), ww.load().as_slice());
                    assert!(
                        got.iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{} {coupling:?}: round {round} differs: {got:?} vs {want:?}",
                        s.name
                    );
                    fw.step();
                    ww.step();
                }
            }
        }
    }

    /// FNV-1a digest of a two-tree run through a demand shift: every
    /// max-load sample and the final per-tree loads.
    fn forest_digest(coupling: Coupling) -> u64 {
        // A 6 x 6 torus: the two BFS trees overlap on every node.
        let g = ww_topology::k_ary_n_cube(6, 2);
        let forest = Forest::from_graph(&g, &[NodeId::new(0), NodeId::new(21)]).unwrap();
        let demands: Vec<RateVector> = [7, 5]
            .iter()
            .map(|&a| (0..36).map(|i| ((i * a) % 13) as f64 * 3.25).collect())
            .collect();
        let cfg = ForestWaveConfig {
            alpha: None,
            coupling,
        };
        let mut wave = ForestWave::new(&forest, &demands, cfg);
        wave.run(60);
        let shifted: Vec<RateVector> = demands
            .iter()
            .map(|d| {
                d.iter()
                    .map(|(u, r)| r * (1 + u.index() % 3) as f64)
                    .collect()
            })
            .collect();
        wave.set_demands(&shifted);
        wave.run(60);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut word = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for x in wave.max_load_trace() {
            word(x.to_bits());
        }
        for load in wave.loads() {
            for x in load.as_slice() {
                word(x.to_bits());
            }
        }
        h
    }

    #[test]
    fn two_tree_forest_dynamics_are_pinned() {
        let got = [
            forest_digest(Coupling::Coupled),
            forest_digest(Coupling::Uncoupled),
        ];
        assert_eq!(
            got,
            [0x6318_5584_d5e1_c59b, 0x81c9_367b_9b6c_5202],
            "ForestWave digests moved"
        );
    }

    #[test]
    fn max_load_trace_is_recorded() {
        let (forest, demands) = overlap_scenario();
        let mut wave = ForestWave::new(&forest, &demands, ForestWaveConfig::default());
        wave.run(10);
        assert_eq!(wave.max_load_trace().len(), 11);
        assert!(wave.max_load_trace()[0] >= wave.max_load_trace()[10]);
    }
}
