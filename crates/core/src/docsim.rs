//! Document-level WebWave: cache copies, potential barriers, tunneling.
//!
//! The rate-level engine ([`crate::wave`]) treats load as a fungible
//! fluid. Real WebWave load is *per document*: a node can only pick up
//! load for a document it holds a copy of, and a parent can only delegate
//! load for documents it serves. That granularity creates the *potential
//! barrier* of Section 5.2 — a loaded node `j` whose underloaded child `k`
//! requests only documents `j` does not cache, so diffusion stalls — and
//! its cure, **tunneling**: after remaining underloaded for more than two
//! periods with no action from the parent, `k` requests hot documents
//! directly from across the barrier and caches them.
//!
//! This engine reproduces Figure 7 exactly: without tunneling the system
//! stalls off-TLB; with tunneling every node converges to 90 req/s.
//!
//! # Performance
//!
//! The tree, the universe, the demand mix, the links and the oracle are
//! the packet engines' [`DocWorld`], mutated through its own join, leave,
//! publish and shift. The engine's per-(node, document) state — serve
//! allocations, served and forwarded flows — lives in [`DocGrid`] slabs
//! whose rows are nodes and whose columns are the dense indices the
//! world's [`DocTable`] assigns; per-node copy sets are [`DocSet`]
//! bitsets. Each node's demand is read from its mix row
//! ([`DocWorld::streams_of`]). Rounds reuse preallocated scratch
//! buffers, so the steady state allocates nothing but the (amortized)
//! trace. Decisions are computed in ascending dense-index order — the
//! documents' birth order, which is ascending [`DocId`] order in a
//! world no publish grew below an existing id — so results are
//! deterministic and bit-identical to the hash-table reference engine
//! ([`crate::reference::NaiveDocSim`]) on a fixed universe — the
//! golden-trace tests assert exactly that.

use crate::stats::ConvergenceTrace;
use crate::world::{DocWorld, UniverseGrowth, WorldConfig};
use ww_cache::{plan_push_dense, plan_shed_dense, DenseRateSlice};
use ww_model::{
    DocGrid, DocId, DocSet, DocTable, LeafRemoval, ModelError, NodeId, RateVector, Tree,
};
use ww_workload::DocMix;

/// Configuration of a document-level WebWave run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocSimConfig {
    /// Diffusion parameter; `None` selects `1 / (max_degree + 1)`.
    pub alpha: Option<f64>,
    /// Enable tunneling across potential barriers (Section 5.2).
    pub tunneling: bool,
    /// How many consecutive underloaded-with-no-action periods a node
    /// tolerates before tunneling. The paper uses "more than two periods".
    pub barrier_patience: usize,
}

impl WorldConfig for DocSimConfig {
    fn alpha(&self) -> Option<f64> {
        self.alpha
    }
}

impl Default for DocSimConfig {
    fn default() -> Self {
        DocSimConfig {
            alpha: None,
            tunneling: true,
            barrier_patience: 2,
        }
    }
}

/// Counters describing protocol activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DocSimStats {
    /// Cache copies pushed from a parent to a child.
    pub copy_pushes: u64,
    /// Cache copies deleted after their load was fully shed upward.
    pub copy_deletions: u64,
    /// Documents fetched via tunneling.
    pub tunnel_fetches: u64,
    /// Rounds in which some node suspected a barrier.
    pub barrier_suspicions: u64,
}

/// A document-level WebWave simulation over dense per-document slabs.
///
/// # Example
///
/// ```
/// use ww_topology::paper;
/// use ww_core::docsim::{DocSim, DocSimConfig};
///
/// let b = paper::fig7();
/// let mut sim = DocSim::from_barrier_scenario(&b, DocSimConfig::default());
/// sim.run(600);
/// // With tunneling, every node converges to the TLB rate of 90 req/s.
/// assert!(sim.distance_to_tlb() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct DocSim {
    /// Tree, universe, demand mix, link state, oracle and open batch —
    /// the one document world the packet engines run on too. Its
    /// universe's dense indices are the grids' columns.
    world: DocWorld<DocSimConfig>,
    /// Which documents each node holds a copy of (root holds all).
    copies: Vec<DocSet>,
    /// Desired serve rate per (node, doc); root has no allocations (it
    /// absorbs everything that reaches it).
    alloc: DocGrid<f64>,
    /// Served rates per (node, doc) from the latest flow computation.
    served: DocGrid<f64>,
    /// Forwarded rate per (node, doc) from the latest flow computation.
    forwarded: DocGrid<f64>,
    /// Aggregate served rate per node.
    load: RateVector,
    /// Snapshot of `load` at the start of the round (double buffer).
    load_snapshot: RateVector,
    /// Consecutive underloaded-no-action periods per node.
    underload_streak: Vec<usize>,
    trace: ConvergenceTrace,
    stats: DocSimStats,
    round: usize,
    /// Reusable scratch: one node's per-document through rates.
    through_buf: Vec<f64>,
    /// Reusable scratch: candidate (index, rate) lists.
    cand_buf: Vec<(u32, f64)>,
    /// Reusable scratch: plan sorting buffer.
    sort_buf: Vec<(u32, f64)>,
    /// Reusable scratch: planned slices.
    plan_buf: Vec<DenseRateSlice>,
}

impl DocSim {
    /// Builds a simulation from a tree and per-node document demand.
    ///
    /// The root (home server) initially holds every document; no other
    /// copies exist, so the home server starts serving the entire demand.
    ///
    /// # Panics
    ///
    /// Panics if `mix` does not cover `tree`, or `alpha` is outside
    /// `(0, 1)`.
    pub fn new(tree: &Tree, mix: &DocMix, config: DocSimConfig) -> Self {
        assert_eq!(mix.len(), tree.len(), "doc mix must cover the tree");
        let world = DocWorld::build(tree.clone(), mix.clone(), config);
        assert!(
            world.alpha > 0.0 && world.alpha < 1.0,
            "alpha must lie in (0, 1)"
        );
        let (n, m) = (tree.len(), world.mix.table().len());
        let mut copies: Vec<DocSet> = (0..n).map(|_| world.mix.table().empty_set()).collect();
        copies[tree.root().index()] = world.mix.table().full_set();
        let mut sim = DocSim {
            world,
            copies,
            alloc: DocGrid::new(n, m, 0.0),
            served: DocGrid::new(n, m, 0.0),
            forwarded: DocGrid::new(n, m, 0.0),
            load: RateVector::zeros(n),
            load_snapshot: RateVector::zeros(n),
            underload_streak: vec![0; n],
            trace: ConvergenceTrace::new(),
            stats: DocSimStats::default(),
            round: 0,
            through_buf: Vec::with_capacity(m),
            cand_buf: Vec::with_capacity(m),
            sort_buf: Vec::with_capacity(m),
            plan_buf: Vec::with_capacity(m),
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
        DocSim::new(&scenario.tree, &mix, config)
    }

    /// Recomputes per-document flows bottom-up from current allocations:
    /// `served_i(d) = min(alloc_i(d), through_i(d))` for non-root nodes
    /// holding a copy, and the root serves everything that reaches it.
    ///
    /// Documents iterate in ascending dense-index (= birth) order, so
    /// per-node load accumulates in a fixed deterministic order.
    fn recompute_flows(&mut self) {
        let world = &self.world;
        let through = &mut self.through_buf;
        self.load.fill(0.0);
        for u in world.tree.bottom_up() {
            let i = u.index();
            let is_root = world.tree.parent(u).is_none();
            // Own demand first, then each child's forwarded rate in
            // child order.
            through.clear();
            through.resize(world.mix.table().len(), 0.0);
            for (_, k, r) in world.streams_of(u) {
                through[k as usize] = r;
            }
            for &c in world.tree.children(u) {
                for (t, f) in through.iter_mut().zip(self.forwarded.row(c.index())) {
                    *t += f;
                }
            }
            self.served.row_mut(i).fill(0.0);
            self.forwarded.row_mut(i).fill(0.0);
            for (k, &through) in through.iter().enumerate() {
                if through <= 0.0 {
                    continue;
                }
                let k = k as u32;
                let served = if is_root {
                    through
                } else if self.copies[i].contains(k) {
                    self.alloc.get(i, k).min(through)
                } else {
                    0.0
                };
                if served > 0.0 {
                    *self.served.get_mut(i, k) = served;
                    self.load[u] += served;
                }
                let fwd = through - served;
                if fwd > 0.0 {
                    *self.forwarded.get_mut(i, k) = fwd;
                }
            }
        }
    }

    /// Executes one protocol round: diffusion decisions against current
    /// loads, copy pushes, shedding, barrier detection and (optionally)
    /// tunneling, then a flow recomputation.
    pub fn step(&mut self) {
        self.round += 1;
        let n = self.world.tree.len();

        // Decisions are made against the loads at the start of the round
        // (synchronous gossip), applied to allocations, then flows are
        // recomputed once. The snapshot buffer is reused every round.
        self.load_snapshot.copy_from(&self.load);

        for c_idx in 0..n {
            let c = NodeId::new(c_idx);
            let Some(p) = self.world.tree.parent(c) else {
                continue;
            };
            if self.world.link_failed(c) {
                // The control link is down: no diffusion decision, copy
                // push, shed, or tunnel crosses this edge (requests still
                // flow through it and are served upstream).
                continue;
            }
            let (lp, lc) = (self.load_snapshot[p], self.load_snapshot[c]);
            if lp > lc {
                // The child is underloaded: it should take over
                // `alpha * (L_p - L_c)` of the load passing through it.
                let want = self.world.alpha * (lp - lc);
                let taken = self.child_take(c, want);
                let remaining = want - taken;
                let pushed = if remaining > 1e-12 {
                    self.parent_push(p, c, remaining)
                } else {
                    0.0
                };
                if taken + pushed <= 1e-9 && self.forwarded_total(c) > 1e-9 {
                    // Underloaded, forwarding real demand, and no load
                    // moved: the parent may be a potential barrier.
                    self.underload_streak[c_idx] += 1;
                    self.stats.barrier_suspicions += 1;
                    let config = &self.world.config;
                    if config.tunneling && self.underload_streak[c_idx] > config.barrier_patience {
                        self.tunnel(c, want);
                        self.underload_streak[c_idx] = 0;
                    }
                } else {
                    self.underload_streak[c_idx] = 0;
                }
            } else if lc > lp {
                // The child is overloaded relative to its parent: shed
                // load upward by reducing its own serve allocations.
                let shed = self.world.alpha * (lc - lp);
                self.child_shed(c, shed);
                self.underload_streak[c_idx] = 0;
            } else {
                self.underload_streak[c_idx] = 0;
            }
        }

        self.recompute_flows();
        self.trace.push(self.distance_to_tlb());
    }

    /// The child unilaterally raises allocations on documents it already
    /// holds, bounded by what still flows past it. Returns the rate taken.
    fn child_take(&mut self, c: NodeId, want: f64) -> f64 {
        let i = c.index();
        if want <= 0.0 {
            return 0.0;
        }
        // Candidate docs: held copies with nonzero passing (forwarded)
        // rate, hottest first with ascending-index (= birth order)
        // tie-break.
        let cand = &mut self.cand_buf;
        cand.clear();
        for k in self.copies[i].iter() {
            let f = *self.forwarded.get(i, k);
            if f > 0.0 {
                cand.push((k, f));
            }
        }
        cand.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        let mut taken = 0.0;
        for &(k, avail) in cand.iter() {
            if taken >= want {
                break;
            }
            let grab = avail.min(want - taken);
            *self.alloc.get_mut(i, k) += grab;
            taken += grab;
        }
        taken
    }

    /// The parent delegates up to `target` req/s to child `c` by pushing
    /// copies of documents it *serves* and the child *forwards*. Returns
    /// the rate actually delegated.
    fn parent_push(&mut self, p: NodeId, c: NodeId, target: f64) -> f64 {
        let (pi, ci) = (p.index(), c.index());
        // Pushable: docs the parent serves that the child forwards.
        let caps = &mut self.cand_buf;
        caps.clear();
        let passing = self.forwarded.row(ci);
        for (k, (&sp, &fc)) in self.served.row(pi).iter().zip(passing).enumerate() {
            if sp <= 0.0 {
                continue;
            }
            let cap = sp.min(fc);
            if cap > 0.0 {
                caps.push((k as u32, cap));
            }
        }
        plan_push_dense(caps, target, &mut self.sort_buf, &mut self.plan_buf);
        let mut pushed = 0.0;
        let parent_is_root = self.world.tree.parent(p).is_none();
        for slice in &self.plan_buf {
            let k = slice.index;
            if self.copies[ci].insert(k) {
                self.stats.copy_pushes += 1;
            }
            *self.alloc.get_mut(ci, k) += slice.rate;
            if !parent_is_root {
                // The root's service is implicit (it absorbs the stream);
                // other parents explicitly give up allocation.
                let a = self.alloc.get_mut(pi, k);
                *a = (*a - slice.rate).max(0.0);
            }
            pushed += slice.rate;
        }
        pushed
    }

    /// The child reduces its serve allocations by `target` req/s, coldest
    /// documents first; the load climbs back toward the root. A copy whose
    /// allocation is shed entirely is *deleted* ("an imbalance in the
    /// opposite direction causes a child to delete some of its cached
    /// documents", Section 1) — unless this node is the document's origin
    /// of demand, where keeping the copy costs nothing and re-fetching
    /// would be immediate.
    fn child_shed(&mut self, c: NodeId, target: f64) {
        let i = c.index();
        let served = &mut self.cand_buf;
        served.clear();
        for (k, &s) in self.served.row(i).iter().enumerate() {
            if s > 0.0 {
                served.push((k as u32, s));
            }
        }
        plan_shed_dense(served, target, &mut self.sort_buf, &mut self.plan_buf);
        for slice in &self.plan_buf {
            let k = slice.index;
            let a = self.alloc.get_mut(i, k);
            *a = (*a - slice.rate).max(0.0);
            if slice.full && *a <= 1e-12 {
                *a = 0.0;
                self.copies[i].remove(k);
                self.stats.copy_deletions += 1;
            }
        }
    }

    /// Tunneling (Section 5.2): the stuck node requests the hottest
    /// document it forwards but does not hold, caches it, and starts
    /// serving it.
    fn tunnel(&mut self, c: NodeId, want: f64) {
        let i = c.index();
        // Hottest forwarded-but-not-held document; ties break toward the
        // smaller index (= the earlier born).
        let mut best: Option<(u32, f64)> = None;
        for (k, &f) in self.forwarded.row(i).iter().enumerate() {
            let k = k as u32;
            if f <= 0.0 || self.copies[i].contains(k) {
                continue;
            }
            if best.is_none_or(|(_, br)| f > br) {
                best = Some((k, f));
            }
        }
        if let Some((k, avail)) = best {
            self.copies[i].insert(k);
            *self.alloc.get_mut(i, k) += avail.min(want);
            self.stats.tunnel_fetches += 1;
        }
    }

    /// Sum of forwarded rates at `c`, accumulated in ascending index
    /// order.
    fn forwarded_total(&self, c: NodeId) -> f64 {
        self.forwarded.row(c.index()).iter().sum()
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

    /// The TLB oracle for the aggregate demand.
    pub fn oracle(&self) -> &RateVector {
        &self.world.oracle
    }

    /// Euclidean distance from current loads to the TLB oracle.
    pub fn distance_to_tlb(&self) -> f64 {
        self.load.euclidean_distance(&self.world.oracle)
    }

    /// Per-round distance trace.
    pub fn trace(&self) -> &ConvergenceTrace {
        &self.trace
    }

    /// Protocol activity counters.
    pub fn stats(&self) -> DocSimStats {
        self.stats
    }

    /// The dense document table of this simulation's universe.
    pub fn doc_table(&self) -> &DocTable {
        self.world.mix.table()
    }

    /// Documents node `u` currently holds copies of, in dense-index
    /// (= birth) order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn copies_at(&self, u: NodeId) -> Vec<DocId> {
        self.copies[u.index()]
            .iter()
            .map(|k| self.world.mix.table().doc(k))
            .collect()
    }

    /// Served rate of document `d` at node `u` in the latest round.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn served_rate(&self, u: NodeId, d: DocId) -> f64 {
        match self.world.mix.table().index_of(d) {
            Some(k) => *self.served.get(u.index(), k),
            None => 0.0,
        }
    }

    /// Rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The routing tree this run currently operates on.
    pub fn tree(&self) -> &Tree {
        &self.world.tree
    }

    /// Whether the control link from `node` to its parent is failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn link_failed(&self, node: NodeId) -> bool {
        self.world.link_failed(node)
    }

    /// Sets the failed state of the control link between `node` and its
    /// parent; `true` when the state changed. While failed, diffusion
    /// decisions, copy pushes, shedding, and tunneling stop crossing the
    /// edge; requests still flow up the tree.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeOutOfRange`] for an unknown id,
    /// [`ModelError::NoUplink`] for the root; the links are untouched.
    pub fn set_link(&mut self, node: NodeId, failed: bool) -> Result<bool, ModelError> {
        self.world.set_link(node, failed)
    }

    /// Publishes a document: `origin`'s clients start requesting `doc` at
    /// `rate` req/s (added on top of any existing demand for it). A
    /// first-time id grows the dense universe — every slab gains a column
    /// past its last, whatever the id sorts to — and the home server
    /// (root) receives the only copy, so the new
    /// demand lands there and diffuses outward over subsequent rounds.
    /// The TLB oracle is recomputed and the post-publish distance is
    /// appended to the trace.
    ///
    /// # Errors
    ///
    /// As [`DocWorld::publish`]: an unknown origin, a negative or
    /// non-finite rate, or a demand total that would overflow.
    pub fn publish_doc(&mut self, doc: DocId, origin: NodeId, rate: f64) -> Result<(), ModelError> {
        let growth = self.world.publish(doc, origin, rate)?;
        self.grow(growth);
        self.changed();
        Ok(())
    }

    /// Re-publishes (updates) a document: every cached copy outside the
    /// home server is *invalidated* — copies and their serve allocations
    /// vanish, the whole demand for `doc` snaps back to the root, and
    /// WebWave re-diffuses the new version over the following rounds.
    /// The demand and the oracle are unchanged (readers still want the
    /// document); only the placement resets.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownDocument`] when `doc` is not in the
    /// universe.
    pub fn invalidate_doc(&mut self, doc: DocId) -> Result<(), ModelError> {
        let Some(k) = self.world.mix.table().index_of(doc) else {
            return Err(ModelError::UnknownDocument { doc: doc.value() });
        };
        let root = self.world.tree.root().index();
        for i in 0..self.world.len() {
            if i == root {
                continue;
            }
            self.copies[i].remove(k);
            *self.alloc.get_mut(i, k) = 0.0;
        }
        self.changed();
        Ok(())
    }

    /// Replaces the whole demand mix mid-run (hot-set rotation, Zipf
    /// re-skew). Copies and allocations survive — allocations for
    /// documents that lost their demand simply stop serving (flows are
    /// `min(alloc, through)`), and the protocol rebalances toward the
    /// recomputed oracle. First-time document ids grow the universe as in
    /// [`DocSim::publish_doc`].
    ///
    /// # Errors
    ///
    /// As [`DocWorld::set_mix`]: `mix` does not cover the current tree,
    /// or a node's demand total in it is not finite.
    pub fn set_mix(&mut self, mix: &DocMix) -> Result<(), ModelError> {
        let growth = self.world.set_mix(mix)?;
        self.grow(growth);
        self.changed();
        Ok(())
    }

    /// A cache server joins as a new leaf under `parent`, bringing `rate`
    /// req/s of demand split across the universe **proportionally to the
    /// current global per-document demand** ([`DocWorld::join`]). The
    /// node starts with no copies; its demand flows upward until
    /// diffusion reaches it.
    ///
    /// # Errors
    ///
    /// As [`DocWorld::join`]: an unknown parent, a bad rate, `rate > 0`
    /// in a universe carrying no demand to model the split on, or a
    /// split that would overflow.
    pub fn add_leaf(&mut self, parent: NodeId, rate: f64) -> Result<NodeId, ModelError> {
        let id = self.world.join(parent, rate)?;
        self.copies.push(self.world.mix.table().empty_set());
        for grid in [&mut self.alloc, &mut self.served, &mut self.forwarded] {
            grid.push_row(0.0);
        }
        self.underload_streak.push(0);
        self.resized();
        Ok(id)
    }

    /// A leaf cache server departs: its clients re-route to the next
    /// cache up the tree, so its per-document demand re-homes to its
    /// parent; its copies and allocations vanish with it, and the load it
    /// served snaps back toward the home server until diffusion recovers.
    /// Ids compact by swap-remove, exactly as [`Tree::remove_leaf`].
    ///
    /// # Errors
    ///
    /// As [`DocWorld::leave`]: unknown id, root, interior node, or a
    /// re-homed demand total that would overflow.
    pub fn remove_leaf(&mut self, node: NodeId) -> Result<LeafRemoval, ModelError> {
        let removal = self.world.leave(node)?;
        let i = removal.removed.index();
        for grid in [&mut self.alloc, &mut self.served, &mut self.forwarded] {
            grid.swap_remove_row(i);
        }
        self.copies.swap_remove(i);
        self.underload_streak.swap_remove(i);
        self.resized();
        Ok(removal)
    }

    /// Mirrors a universe growth in every per-document slab and copy set:
    /// each widens by the new columns, and the home server receives a
    /// copy of each new document.
    fn grow(&mut self, growth: Option<UniverseGrowth>) {
        let Some(fresh) = growth else {
            return;
        };
        let docs = fresh.end as usize;
        for grid in [&mut self.alloc, &mut self.served, &mut self.forwarded] {
            grid.grow_docs(docs, 0.0);
        }
        for set in &mut self.copies {
            set.grow(docs);
        }
        let root = self.world.tree.root().index();
        for k in fresh {
            self.copies[root].insert(k);
        }
    }

    /// The tree changed size: the load vectors follow, then the refresh.
    fn resized(&mut self) {
        let n = self.world.len();
        self.load = RateVector::zeros(n);
        self.load_snapshot = RateVector::zeros(n);
        self.changed();
    }

    /// Flow refresh and trace sample after a mutation — or, inside a
    /// batched barrier, a deferral to [`DocSim::end_batch`].
    fn changed(&mut self) {
        if !self.world.defer_refresh() {
            self.recompute_flows();
            self.trace.push(self.distance_to_tlb());
        }
    }

    /// Opens a batched barrier: subsequent churn/demand events apply
    /// their structural effects eagerly but defer the oracle refold, the
    /// flow recomputation, and the trace sample until
    /// [`DocSim::end_batch`], which pays them once for the whole barrier.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn begin_batch(&mut self) {
        self.world.begin_batch();
    }

    /// Closes a batched barrier: one oracle refold, one flow
    /// recomputation, one trace sample, regardless of how many events
    /// the batch held. A batch of exactly one event is bit-identical to
    /// applying that event unbatched (the refold is stable when only
    /// placement changed).
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn end_batch(&mut self) {
        if self.world.end_batch() {
            self.recompute_flows();
            self.trace.push(self.distance_to_tlb());
        }
    }

    /// The current spontaneous (per-node total) demand vector.
    pub fn spontaneous(&self) -> RateVector {
        self.world.mix.spontaneous()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_topology::paper;

    fn fig7_sim(tunneling: bool) -> DocSim {
        let b = paper::fig7();
        DocSim::from_barrier_scenario(
            &b,
            DocSimConfig {
                alpha: None,
                tunneling,
                barrier_patience: 2,
            },
        )
    }

    #[test]
    fn cold_start_serves_everything_at_root() {
        let sim = fig7_sim(true);
        assert_eq!(sim.load().as_slice(), &[360.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn without_tunneling_the_barrier_stalls_the_system() {
        let mut sim = fig7_sim(false);
        sim.run(800);
        // Node 2 never obtains d3 and serves nothing.
        assert_eq!(sim.load()[NodeId::new(2)], 0.0);
        assert!(sim.copies_at(NodeId::new(2)).is_empty());
        // The others equalize near 120 (360 split three ways).
        for node in [0usize, 1, 3] {
            let l = sim.load()[NodeId::new(node)];
            assert!((l - 120.0).abs() < 1.0, "node {node} at {l}");
        }
        // Well away from TLB.
        assert!(sim.distance_to_tlb() > 100.0);
        assert!(sim.stats().barrier_suspicions > 0);
        assert_eq!(sim.stats().tunnel_fetches, 0);
    }

    #[test]
    fn with_tunneling_fig7_converges_to_uniform_90() {
        let mut sim = fig7_sim(true);
        sim.run(1500);
        for u in 0..4 {
            let l = sim.load()[NodeId::new(u)];
            assert!((l - 90.0).abs() < 1.0, "node {u} at {l}");
        }
        assert!(sim.stats().tunnel_fetches >= 1);
        // Node 2 obtained d3 via tunneling.
        assert!(sim.copies_at(NodeId::new(2)).contains(&DocId::new(3)));
    }

    #[test]
    fn tunneling_happens_after_patience_periods() {
        let mut sim = fig7_sim(true);
        // Before patience runs out there are no fetches.
        sim.run(2);
        assert_eq!(sim.stats().tunnel_fetches, 0);
        sim.run(30);
        assert!(sim.stats().tunnel_fetches >= 1);
    }

    #[test]
    fn copy_pushes_populate_caches_down_the_demand_path() {
        let mut sim = fig7_sim(true);
        sim.run(300);
        // Node 3 (origin of d1/d2 demand) must hold at least one of them.
        let held = sim.copies_at(NodeId::new(3));
        assert!(
            held.contains(&DocId::new(1)) || held.contains(&DocId::new(2)),
            "node 3 holds {held:?}"
        );
        assert!(sim.stats().copy_pushes > 0);
    }

    #[test]
    fn total_served_equals_demand_every_round() {
        let mut sim = fig7_sim(true);
        for _ in 0..100 {
            sim.step();
            assert!(
                (sim.load().total() - 360.0).abs() < 1e-6,
                "round {}: total {}",
                sim.round(),
                sim.load().total()
            );
        }
    }

    #[test]
    fn served_rates_respect_document_flows() {
        // A node can never serve a document its subtree does not request.
        let mut sim = fig7_sim(true);
        sim.run(500);
        // Node 2 requests only d3: it must not serve d1 or d2.
        assert_eq!(sim.served_rate(NodeId::new(2), DocId::new(1)), 0.0);
        assert_eq!(sim.served_rate(NodeId::new(2), DocId::new(2)), 0.0);
        // Node 3 requests d1/d2 but never d3.
        assert_eq!(sim.served_rate(NodeId::new(3), DocId::new(3)), 0.0);
    }

    #[test]
    fn gle_feasible_mix_converges_without_tunneling() {
        // A barrier-free workload: one document requested at every leaf of
        // a small tree. No tunneling needed to reach TLB.
        let tree = Tree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let mut mix = DocMix::new(3);
        mix.set(NodeId::new(1), DocId::new(1), 30.0);
        mix.set(NodeId::new(2), DocId::new(1), 30.0);
        let mut sim = DocSim::new(
            &tree,
            &mix,
            DocSimConfig {
                alpha: None,
                tunneling: false,
                barrier_patience: 2,
            },
        );
        sim.run(1200);
        assert!(
            sim.distance_to_tlb() < 0.5,
            "distance {}",
            sim.distance_to_tlb()
        );
        assert_eq!(sim.stats().tunnel_fetches, 0);
    }

    #[test]
    fn trace_starts_at_cold_distance() {
        let sim = fig7_sim(true);
        // Cold start: root serves 360, TLB is uniform 90.
        // distance = sqrt(270^2 + 3 * 90^2).
        let expected = (270.0f64 * 270.0 + 3.0 * 90.0 * 90.0).sqrt();
        assert!((sim.trace().initial().unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn doc_table_covers_the_universe() {
        let sim = fig7_sim(true);
        let t = sim.doc_table();
        assert_eq!(t.len(), 3);
        for d in [1u64, 2, 3] {
            assert!(t.index_of(DocId::new(d)).is_some());
        }
    }
}

#[cfg(test)]
mod dynamics_tests {
    use super::*;
    use ww_topology::paper;

    fn fig7_sim() -> DocSim {
        DocSim::from_barrier_scenario(&paper::fig7(), DocSimConfig::default())
    }

    #[test]
    fn publish_grows_the_universe_and_lands_at_the_root() {
        let mut sim = fig7_sim();
        sim.run(400);
        let before = sim.doc_table().len();
        sim.publish_doc(DocId::new(99), NodeId::new(3), 120.0)
            .unwrap();
        assert_eq!(sim.doc_table().len(), before + 1);
        // The new demand is served at the home server first...
        let root = sim.tree().root();
        assert!(sim.served_rate(root, DocId::new(99)) > 0.0);
        assert!((sim.load().total() - 480.0).abs() < 1e-6);
        // ...and diffuses out afterward.
        sim.run(1500);
        assert!(
            sim.distance_to_tlb() < 2.0,
            "distance {}",
            sim.distance_to_tlb()
        );
    }

    #[test]
    fn publish_existing_doc_adds_demand() {
        let mut sim = fig7_sim();
        sim.publish_doc(DocId::new(1), NodeId::new(3), 40.0)
            .unwrap();
        assert_eq!(sim.doc_table().len(), 3);
        assert!((sim.load().total() - 400.0).abs() < 1e-6);
    }

    #[test]
    fn invalidation_snaps_copies_back_to_the_root() {
        let mut sim = fig7_sim();
        sim.run(1200);
        assert!(sim.distance_to_tlb() < 2.0);
        // Re-publish d1: every non-root copy vanishes and its load
        // reappears at the home server.
        sim.invalidate_doc(DocId::new(1)).unwrap();
        let root = sim.tree().root();
        for u in sim.tree().nodes() {
            if u != root {
                assert!(!sim.copies_at(u).contains(&DocId::new(1)), "{u} kept d1");
            }
        }
        assert!(sim.distance_to_tlb() > 10.0);
        assert!((sim.load().total() - 360.0).abs() < 1e-6);
        // Re-diffusion recovers.
        sim.run(1500);
        assert!(
            sim.distance_to_tlb() < 2.0,
            "distance {}",
            sim.distance_to_tlb()
        );
    }

    #[test]
    fn unknown_doc_invalidation_is_a_typed_error() {
        let mut sim = fig7_sim();
        assert!(matches!(
            sim.invalidate_doc(DocId::new(777)),
            Err(ModelError::UnknownDocument { doc: 777 })
        ));
    }

    #[test]
    fn join_follows_global_popularity_and_reconverges() {
        let mut sim = fig7_sim();
        sim.run(600);
        let id = sim.add_leaf(NodeId::new(1), 60.0).unwrap();
        assert_eq!(id.index(), 4);
        assert!((sim.load().total() - 420.0).abs() < 1e-6);
        // The newcomer's demand follows the current popularity law, so
        // each original document gains a proportional share.
        assert!((sim.spontaneous()[id] - 60.0).abs() < 1e-9);
        sim.run(2500);
        assert!(
            sim.distance_to_tlb() < 3.0,
            "distance {}",
            sim.distance_to_tlb()
        );
    }

    #[test]
    fn leave_rehomes_per_doc_demand() {
        let mut sim = fig7_sim();
        sim.run(600);
        // Node 3 (leaf) departs; its d1/d2 demand re-homes to node 1.
        sim.remove_leaf(NodeId::new(3)).unwrap();
        assert_eq!(sim.tree().len(), 3);
        assert!((sim.load().total() - 360.0).abs() < 1e-6);
        assert!((sim.spontaneous()[NodeId::new(1)] - 270.0).abs() < 1e-9);
        sim.run(2500);
        assert!(
            sim.distance_to_tlb() < 2.0,
            "distance {}",
            sim.distance_to_tlb()
        );
    }

    #[test]
    fn failed_link_stalls_tunneling_until_healed() {
        let mut sim = fig7_sim();
        sim.set_link(NodeId::new(2), true).unwrap();
        sim.run(600);
        // Node 2 sits behind the barrier *and* a dead control link: it
        // can neither receive pushes nor tunnel, so it never acquires a
        // copy and serves nothing (other nodes may still tunnel).
        assert_eq!(sim.load()[NodeId::new(2)], 0.0);
        assert!(sim.copies_at(NodeId::new(2)).is_empty());
        sim.set_link(NodeId::new(2), false).unwrap();
        sim.run(1500);
        assert!(sim.copies_at(NodeId::new(2)).contains(&DocId::new(3)));
        assert!(
            sim.distance_to_tlb() < 2.0,
            "distance {}",
            sim.distance_to_tlb()
        );
    }

    #[test]
    fn set_mix_rotates_the_hot_set() {
        let mut sim = fig7_sim();
        sim.run(1200);
        // Rotate all demand onto a fresh document set at the same nodes.
        let mut mix = DocMix::new(4);
        mix.set(NodeId::new(3), DocId::new(10), 240.0);
        mix.set(NodeId::new(2), DocId::new(11), 120.0);
        sim.set_mix(&mix).unwrap();
        assert!((sim.load().total() - 360.0).abs() < 1e-6);
        assert_eq!(sim.doc_table().len(), 5);
        sim.run(2500);
        assert!(
            sim.distance_to_tlb() < 3.0,
            "distance {}",
            sim.distance_to_tlb()
        );
    }
    #[test]
    fn a_shift_gives_the_home_server_its_new_documents() {
        let mut sim = fig7_sim();
        sim.run(100);
        let mut mix = DocMix::new(4);
        mix.set(NodeId::new(3), DocId::new(1), 100.0);
        mix.set(NodeId::new(1), DocId::new(5), 50.0);
        sim.set_mix(&mix).unwrap();
        let docs = |ids: &[u64]| ids.iter().map(|&d| DocId::new(d)).collect::<Vec<_>>();
        assert_eq!(sim.copies_at(sim.tree().root()), docs(&[1, 2, 3, 5]));
    }

    #[test]
    fn a_batch_defers_every_refresh_to_its_end() {
        let mut sim = fig7_sim();
        sim.run(100);
        let (oracle, samples) = (sim.oracle().clone(), sim.trace().len());
        sim.begin_batch();
        sim.publish_doc(DocId::new(9), NodeId::new(2), 40.0)
            .unwrap();
        sim.add_leaf(NodeId::new(3), 20.0).unwrap();
        assert_eq!(sim.oracle(), &oracle, "the oracle refreshed mid-batch");
        assert_eq!(sim.trace().len(), samples);
        sim.end_batch();
        assert_eq!(sim.trace().len(), samples + 1);
        assert!((sim.oracle().total() - 420.0).abs() < 1e-9);
    }

    #[test]
    fn overflowing_demand_is_refused_and_changes_nothing() {
        let mut sim = fig7_sim();
        sim.run(50);
        let refuse = |sim: &mut DocSim, op: &dyn Fn(&mut DocSim) -> Result<(), ModelError>| {
            let before = format!("{sim:?}");
            let text = op(sim).expect_err("refused").to_string();
            assert_eq!(
                format!("{sim:?}"),
                before,
                "refusing {text} changed the sim"
            );
            text
        };
        let join = |sim: &mut DocSim| sim.add_leaf(NodeId::new(0), 1.7e308).map(drop);
        assert_eq!(refuse(&mut sim, &join), "rate at n0 is invalid: inf");
        // Node 3 hangs under node 1: two maxima there are one too many.
        let publish =
            |origin| move |sim: &mut DocSim| sim.publish_doc(DocId::new(9), origin, f64::MAX);
        publish(NodeId::new(3))(&mut sim).unwrap();
        publish(NodeId::new(1))(&mut sim).unwrap();
        assert_eq!(
            refuse(&mut sim, &publish(NodeId::new(3))),
            "rate at n3 is invalid: inf"
        );
        let leave = |sim: &mut DocSim| sim.remove_leaf(NodeId::new(3)).map(drop);
        assert_eq!(refuse(&mut sim, &leave), "rate at n1 is invalid: inf");
        let mut overflowing = DocMix::new(4);
        overflowing.set(NodeId::new(2), DocId::new(1), 1e308);
        overflowing.set(NodeId::new(2), DocId::new(2), 1e308);
        let shift = |sim: &mut DocSim| sim.set_mix(&overflowing);
        assert_eq!(refuse(&mut sim, &shift), "rate at n2 is invalid: inf");
    }
}

#[cfg(test)]
mod deletion_tests {
    use super::*;
    use ww_model::Tree;
    use ww_workload::DocMix;

    /// With an aggressive alpha (> 0.5) the serving rate overshoots the
    /// balance point, the child sheds back, and fully shed copies are
    /// deleted (Section 1's "delete some of its cached documents").
    #[test]
    fn fully_shed_copies_are_deleted() {
        let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
        let mut mix = DocMix::new(3);
        mix.set(NodeId::new(1), DocId::new(2), 90.0);
        mix.set(NodeId::new(2), DocId::new(1), 30.0);
        let mut sim = DocSim::new(
            &tree,
            &mix,
            DocSimConfig {
                alpha: Some(0.8),
                tunneling: true,
                barrier_patience: 2,
            },
        );
        sim.run(2000);
        // Convergence still reached...
        assert!(
            sim.distance_to_tlb() < 2.0,
            "distance {}",
            sim.distance_to_tlb()
        );
        // ...and the overshoot dynamics exercised at least one deletion.
        assert!(
            sim.stats().copy_deletions >= 1,
            "expected deletions, stats: {:?}",
            sim.stats()
        );
    }

    /// Deletions never remove a copy that still carries allocation.
    #[test]
    fn deletion_only_after_full_shed() {
        let b = ww_topology::paper::fig7();
        let mut sim = DocSim::from_barrier_scenario(&b, DocSimConfig::default());
        sim.run(1500);
        // Every held copy with positive allocation must still be present:
        // spot-check that serving nodes hold what they serve.
        for u in sim.load().iter().map(|(u, _)| u) {
            for d in [DocId::new(1), DocId::new(2), DocId::new(3)] {
                if sim.served_rate(u, d) > 0.0 && u != b.tree.root() {
                    assert!(sim.copies_at(u).contains(&d), "{u} serves {d} without copy");
                }
            }
        }
    }
}
