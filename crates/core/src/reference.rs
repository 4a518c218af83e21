//! Naive reference engines: the original HashMap / clone-per-round
//! formulations of [`RateWave`](crate::wave::RateWave) and
//! [`DocSim`](crate::docsim::DocSim).
//!
//! The production engines keep per-document state in dense slabs indexed
//! through [`ww_model::DocTable`] and double-buffer their vectors; these
//! reference implementations keep the straightforward formulation —
//! `HashMap<DocId, f64>` tables, `HashSet<DocId>` copy sets, and a full
//! `RateVector` clone every diffusion round. They exist for two reasons:
//!
//! 1. **Golden-trace equivalence**: the dense engines must produce
//!    bit-identical convergence traces and statistics (see
//!    `crates/core/tests/golden_traces.rs`), which pins the refactor to
//!    the paper-validated semantics.
//! 2. **Measured speedups**: the `webfold_scaling` criterion bench
//!    reports dense-vs-naive throughput during development (the repo's
//!    recorded benchmark is `ww-sysbench`, `benchmark/README.md`).
//!
//! Wherever the original code iterated a `HashMap` in arbitrary order into
//! an order-insensitive consumer, the reference iterates in ascending
//! document order instead. This fixes one representative of the original's
//! nondeterministic float-accumulation orders, making the reference —
//! and therefore the golden tests — deterministic.

use crate::docsim::{DocSimConfig, DocSimStats};
use crate::fold::webfold;
use crate::stats::ConvergenceTrace;
use std::collections::{HashMap, HashSet, VecDeque};
use ww_cache::{plan_push, plan_shed};
use ww_model::{DocId, NodeId, RateVector, Tree};
use ww_workload::DocMix;

/// The original clone-per-round rate-level WebWave engine.
///
/// Semantics are identical to [`crate::wave::RateWave`]; every round
/// allocates two fresh `RateVector`s (estimates and next loads), one
/// forwarded vector, and (under staleness) a history clone.
#[derive(Debug, Clone)]
pub struct NaiveRateWave {
    tree: Tree,
    spontaneous: RateVector,
    load: RateVector,
    forwarded: RateVector,
    alpha: f64,
    staleness: usize,
    history: VecDeque<RateVector>,
    oracle: RateVector,
    trace: ConvergenceTrace,
    round: usize,
}

impl NaiveRateWave {
    /// Starts a run from the cold state (root serves everything).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`RateWave::new`](crate::wave::RateWave::new).
    pub fn new(tree: &Tree, spontaneous: &RateVector, config: crate::wave::WaveConfig) -> Self {
        let mut initial = RateVector::zeros(tree.len());
        initial[tree.root()] = spontaneous.total();
        spontaneous
            .validate_for(tree)
            .expect("spontaneous rates must match the tree");
        let assignment = ww_model::LoadAssignment::new(tree, spontaneous, initial.clone())
            .expect("initial load must match the tree");
        assert!(
            assignment.check_feasible(1e-6).is_ok(),
            "initial load assignment must be feasible"
        );
        let max_deg = tree
            .nodes()
            .map(|u| tree.children(u).len() + usize::from(tree.parent(u).is_some()))
            .max()
            .unwrap_or(0)
            .max(1);
        let alpha = config.alpha.unwrap_or(1.0 / (max_deg as f64 + 1.0));
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
        let oracle = webfold(tree, spontaneous).into_load();
        let forwarded = assignment.forwarded().clone();
        let mut trace = ConvergenceTrace::new();
        trace.push(initial.euclidean_distance(&oracle));
        NaiveRateWave {
            tree: tree.clone(),
            spontaneous: spontaneous.clone(),
            load: initial,
            forwarded,
            alpha,
            staleness: config.staleness,
            history: VecDeque::new(),
            oracle,
            trace,
            round: 0,
        }
    }

    fn estimates(&self) -> &RateVector {
        if self.staleness == 0 || self.history.is_empty() {
            &self.load
        } else {
            &self.history[0]
        }
    }

    /// One synchronous round, cloning the estimate and next-load vectors.
    pub fn step(&mut self) {
        self.round += 1;
        let n = self.tree.len();
        let est = self.estimates().clone();
        let mut next = self.load.clone();

        for c_idx in 0..n {
            let c = NodeId::new(c_idx);
            let Some(p) = self.tree.parent(c) else {
                continue;
            };
            let down = if self.load[p] > est[c] {
                (self.alpha * (self.load[p] - est[c])).min(self.forwarded[c])
            } else {
                0.0
            };
            let up = if self.load[c] > est[p] {
                (self.alpha * (self.load[c] - est[p])).min(self.load[c])
            } else {
                0.0
            };
            let net = down - up;
            next[p] -= net;
            next[c] += net;
        }

        let mut forwarded = RateVector::zeros(n);
        for u in self.tree.bottom_up() {
            let mut through = self.spontaneous[u];
            for &ch in self.tree.children(u) {
                through += forwarded[ch];
            }
            if self.tree.parent(u).is_none() {
                next[u] = through;
                forwarded[u] = 0.0;
            } else {
                next[u] = next[u].clamp(0.0, through);
                forwarded[u] = through - next[u];
            }
        }

        if self.staleness > 0 {
            self.history.push_back(self.load.clone());
            while self.history.len() > self.staleness {
                self.history.pop_front();
            }
        }

        self.load = next;
        self.forwarded = forwarded;
        self.trace.push(self.load.euclidean_distance(&self.oracle));
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Current served-rate vector.
    pub fn load(&self) -> &RateVector {
        &self.load
    }

    /// Euclidean distance to the TLB oracle.
    pub fn distance_to_tlb(&self) -> f64 {
        self.load.euclidean_distance(&self.oracle)
    }

    /// Per-round distance trace.
    pub fn trace(&self) -> &ConvergenceTrace {
        &self.trace
    }
}

/// The original hash-table document-level WebWave engine.
///
/// Semantics are identical to [`crate::docsim::DocSim`]: same diffusion
/// decisions, same copy pushes/deletions, same barrier detection and
/// tunneling — but all per-(node, document) state lives in
/// `HashMap<DocId, f64>` and `HashSet<DocId>`.
#[derive(Debug, Clone)]
pub struct NaiveDocSim {
    tree: Tree,
    docs: Vec<DocId>,
    demand: Vec<HashMap<DocId, f64>>,
    copies: Vec<HashSet<DocId>>,
    alloc: Vec<HashMap<DocId, f64>>,
    served: Vec<HashMap<DocId, f64>>,
    forwarded: Vec<HashMap<DocId, f64>>,
    load: RateVector,
    alpha: f64,
    config: DocSimConfig,
    underload_streak: Vec<usize>,
    oracle: RateVector,
    trace: ConvergenceTrace,
    stats: DocSimStats,
    round: usize,
}

impl NaiveDocSim {
    /// Builds a simulation; the root initially holds every document.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`DocSim::new`](crate::docsim::DocSim::new).
    pub fn new(tree: &Tree, mix: &DocMix, config: DocSimConfig) -> Self {
        assert_eq!(mix.len(), tree.len(), "doc mix must cover the tree");
        let n = tree.len();
        let docs = mix.documents();
        let mut demand: Vec<HashMap<DocId, f64>> = vec![HashMap::new(); n];
        for u in tree.nodes() {
            for &(d, r) in mix.demands_of(u) {
                if r > 0.0 {
                    demand[u.index()].insert(d, r);
                }
            }
        }
        let mut copies: Vec<HashSet<DocId>> = vec![HashSet::new(); n];
        copies[tree.root().index()] = docs.iter().copied().collect();

        let max_deg = tree
            .nodes()
            .map(|u| tree.children(u).len() + usize::from(tree.parent(u).is_some()))
            .max()
            .unwrap_or(0)
            .max(1);
        let alpha = config.alpha.unwrap_or(1.0 / (max_deg as f64 + 1.0));
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");

        let spontaneous = mix.spontaneous();
        let oracle = webfold(tree, &spontaneous).into_load();

        let mut sim = NaiveDocSim {
            tree: tree.clone(),
            docs,
            demand,
            copies,
            alloc: vec![HashMap::new(); n],
            served: vec![HashMap::new(); n],
            forwarded: vec![HashMap::new(); n],
            load: RateVector::zeros(n),
            alpha,
            config,
            underload_streak: vec![0; n],
            oracle,
            trace: ConvergenceTrace::new(),
            stats: DocSimStats::default(),
            round: 0,
        };
        sim.recompute_flows();
        sim.trace.push(sim.distance_to_tlb());
        sim
    }

    /// Builds the Figure 7 barrier scenario directly.
    pub fn from_barrier_scenario(
        scenario: &ww_topology::paper::BarrierScenario,
        config: DocSimConfig,
    ) -> Self {
        let mut mix = DocMix::new(scenario.tree.len());
        for d in &scenario.demands {
            mix.set(d.origin, d.doc, d.rate);
        }
        NaiveDocSim::new(&scenario.tree, &mix, config)
    }

    fn recompute_flows(&mut self) {
        let n = self.tree.len();
        for i in 0..n {
            self.served[i].clear();
            self.forwarded[i].clear();
        }
        let mut load = vec![0.0; n];
        for &doc in &self.docs.clone() {
            for u in self.tree.bottom_up() {
                let i = u.index();
                let mut through = self.demand[i].get(&doc).copied().unwrap_or(0.0);
                for &c in self.tree.children(u) {
                    through += self.forwarded[c.index()].get(&doc).copied().unwrap_or(0.0);
                }
                if through <= 0.0 {
                    continue;
                }
                let served = if self.tree.parent(u).is_none() {
                    through
                } else if self.copies[i].contains(&doc) {
                    self.alloc[i].get(&doc).copied().unwrap_or(0.0).min(through)
                } else {
                    0.0
                };
                if served > 0.0 {
                    self.served[i].insert(doc, served);
                    load[i] += served;
                }
                let fwd = through - served;
                if fwd > 0.0 {
                    self.forwarded[i].insert(doc, fwd);
                }
            }
        }
        self.load = RateVector::from(load);
    }

    /// One protocol round (diffusion decisions, pushes, shedding,
    /// tunneling, flow recomputation).
    pub fn step(&mut self) {
        self.round += 1;
        let n = self.tree.len();
        let load = self.load.clone();

        for c_idx in 0..n {
            let c = NodeId::new(c_idx);
            let Some(p) = self.tree.parent(c) else {
                continue;
            };
            let (lp, lc) = (load[p], load[c]);
            if lp > lc {
                let want = self.alpha * (lp - lc);
                let taken = self.child_take(c, want);
                let remaining = want - taken;
                let pushed = if remaining > 1e-12 {
                    self.parent_push(p, c, remaining)
                } else {
                    0.0
                };
                if taken + pushed <= 1e-9 && self.forwarded_total(c) > 1e-9 {
                    self.underload_streak[c_idx] += 1;
                    self.stats.barrier_suspicions += 1;
                    if self.config.tunneling
                        && self.underload_streak[c_idx] > self.config.barrier_patience
                    {
                        self.tunnel(c, want);
                        self.underload_streak[c_idx] = 0;
                    }
                } else {
                    self.underload_streak[c_idx] = 0;
                }
            } else if lc > lp {
                let shed = self.alpha * (lc - lp);
                self.child_shed(c, shed);
                self.underload_streak[c_idx] = 0;
            } else {
                self.underload_streak[c_idx] = 0;
            }
        }

        self.recompute_flows();
        self.trace.push(self.distance_to_tlb());
    }

    fn child_take(&mut self, c: NodeId, want: f64) -> f64 {
        let i = c.index();
        if want <= 0.0 {
            return 0.0;
        }
        let mut candidates: Vec<(DocId, f64)> = self.forwarded[i]
            .iter()
            .filter(|(d, _)| self.copies[i].contains(d))
            .map(|(&d, &r)| (d, r))
            .collect();
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        let mut taken = 0.0;
        for (d, avail) in candidates {
            if taken >= want {
                break;
            }
            let grab = avail.min(want - taken);
            *self.alloc[i].entry(d).or_insert(0.0) += grab;
            taken += grab;
        }
        taken
    }

    fn parent_push(&mut self, p: NodeId, c: NodeId, target: f64) -> f64 {
        let (pi, ci) = (p.index(), c.index());
        let caps: Vec<(DocId, f64)> = self.served[pi]
            .iter()
            .filter_map(|(&d, &sp)| {
                let fc = self.forwarded[ci].get(&d).copied().unwrap_or(0.0);
                let cap = sp.min(fc);
                (cap > 0.0).then_some((d, cap))
            })
            .collect();
        let plan = plan_push(&caps, target);
        let mut pushed = 0.0;
        let parent_is_root = self.tree.parent(p).is_none();
        for slice in plan {
            if self.copies[ci].insert(slice.doc) {
                self.stats.copy_pushes += 1;
            }
            *self.alloc[ci].entry(slice.doc).or_insert(0.0) += slice.rate;
            if !parent_is_root {
                let a = self.alloc[pi].entry(slice.doc).or_insert(0.0);
                *a = (*a - slice.rate).max(0.0);
            }
            pushed += slice.rate;
        }
        pushed
    }

    fn child_shed(&mut self, c: NodeId, target: f64) {
        let i = c.index();
        let served: Vec<(DocId, f64)> = self.served[i].iter().map(|(&d, &r)| (d, r)).collect();
        for slice in plan_shed(&served, target) {
            let a = self.alloc[i].entry(slice.doc).or_insert(0.0);
            *a = (*a - slice.rate).max(0.0);
            if slice.full && *a <= 1e-12 {
                self.alloc[i].remove(&slice.doc);
                self.copies[i].remove(&slice.doc);
                self.stats.copy_deletions += 1;
            }
        }
    }

    fn tunnel(&mut self, c: NodeId, want: f64) {
        let i = c.index();
        let mut candidates: Vec<(DocId, f64)> = self.forwarded[i]
            .iter()
            .filter(|(d, _)| !self.copies[i].contains(d))
            .map(|(&d, &r)| (d, r))
            .collect();
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        if let Some(&(doc, avail)) = candidates.first() {
            self.copies[i].insert(doc);
            *self.alloc[i].entry(doc).or_insert(0.0) += avail.min(want);
            self.stats.tunnel_fetches += 1;
        }
    }

    /// Sum of the forwarded rates at `c`, accumulated in ascending
    /// document order (the deterministic representative of the original's
    /// arbitrary hash order — see the module docs).
    fn forwarded_total(&self, c: NodeId) -> f64 {
        let mut docs: Vec<(DocId, f64)> = self.forwarded[c.index()]
            .iter()
            .map(|(&d, &r)| (d, r))
            .collect();
        docs.sort_by_key(|&(d, _)| d);
        docs.iter().map(|&(_, r)| r).sum()
    }

    /// Runs `rounds` protocol rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Current aggregate served-rate vector.
    pub fn load(&self) -> &RateVector {
        &self.load
    }

    /// Euclidean distance to the TLB oracle.
    pub fn distance_to_tlb(&self) -> f64 {
        self.load.euclidean_distance(&self.oracle)
    }

    /// Per-round distance trace.
    pub fn trace(&self) -> &ConvergenceTrace {
        &self.trace
    }

    /// Protocol activity counters.
    pub fn stats(&self) -> DocSimStats {
        self.stats
    }

    /// Documents node `u` currently holds copies of, sorted.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn copies_at(&self, u: NodeId) -> Vec<DocId> {
        let mut v: Vec<DocId> = self.copies[u.index()].iter().copied().collect();
        v.sort_unstable();
        v
    }
}
