//! WebWave — the fully distributed diffusion protocol (paper, Figure 5),
//! at the rate level.
//!
//! This engine is the paper's own evaluation vehicle (Section 5.1): load is
//! a divisible rate, rounds are synchronous, and gossip is instantaneous by
//! default ("communication delay is negligible ... `L_ik = L_k`"); an
//! optional staleness parameter relaxes that assumption for the
//! asynchronous-gossip ablation. Every round each node `i`:
//!
//! * shifts load **to a child `j`** bounded by what that child forwards:
//!   `min{ A_j, alpha * (L_i - L_ij) }` — the no-sibling-sharing bound,
//! * shifts load **to its parent** freely (requests already flow up),
//! * and gossips its new load to its tree neighbors.
//!
//! The root serves everything that still reaches it (Constraint 1). The
//! per-round Euclidean distance to the WebFold (TLB) oracle is recorded,
//! reproducing Figure 6(b) and the `gamma` regression.
//!
//! # Performance
//!
//! Diffusion rounds are **zero-allocation** and run over a **BFS-permuted
//! dense layout**:
//!
//! * The load/forwarded vectors are double-buffered (swapped, never
//!   cloned) and the staleness window recycles a fixed ring of buffers.
//! * Internally nodes live at their BFS positions, so on the usual
//!   numbering (parents before children) the per-edge transfer pass
//!   walks the child positions in order with monotone parent positions,
//!   and the bottom-up repair pass is a strict reverse scan whose
//!   per-node children are a contiguous slice — streaming access instead
//!   of pointer chasing.
//!
//! The arithmetic — including every floating-point accumulation order —
//! is identical to the naive clone-per-round formulation
//! ([`crate::reference::NaiveRateWave`]): the edge order is decided once
//! per layout so that each cell's transfers land in the naive order,
//! siblings are always combined in ascending-id order, and the public
//! id-ordered vectors are rebuilt each round before the distance is
//! taken. The golden-trace tests hold the two engines bit-for-bit equal.

use crate::diffusion::safe_alpha;
use crate::fold::IncrementalFold;
use std::collections::VecDeque;
use ww_model::{LeafRemoval, ModelError, NodeId, RateVector, Tree};
use ww_stats::ConvergenceTrace;

/// Configuration of a rate-level WebWave run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WaveConfig {
    /// Diffusion parameter; `None` selects the safe default
    /// `1 / (max_tree_degree + 1)` (paper Figure 5, step 1:
    /// "other values of `alpha_i` are possible").
    pub alpha: Option<f64>,
    /// Gossip staleness in rounds: each node sees neighbor loads as of
    /// `staleness` rounds ago. `0` is the paper's instantaneous-exchange
    /// assumption.
    pub staleness: usize,
}

/// A rate-level WebWave simulation.
///
/// # Example
///
/// ```
/// use ww_topology::paper;
/// use ww_core::wave::{RateWave, WaveConfig};
///
/// let s = paper::fig6();
/// let mut wave = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
/// wave.run(500);
/// // Converged to the TLB assignment computed by WebFold.
/// assert!(wave.distance_to_tlb() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct RateWave {
    tree: Tree,
    spontaneous: RateVector,
    /// Served rates in **id order** — the public view, rebuilt from the
    /// permuted state at the end of every round.
    load: RateVector,
    /// Forwarded rates in **id order** — the public view.
    forwarded: RateVector,
    alpha: f64,
    /// The explicit alpha from the config, if any; rebuilds after churn
    /// events re-derive the safe default only when this is `None`.
    alpha_override: Option<f64>,
    staleness: usize,

    // ---- BFS-permuted dense state (hot path) -------------------------
    /// Node id at each BFS position (`tree.bfs_order()`).
    order: Vec<u32>,
    /// BFS position of each node id (inverse of `order`).
    pos_of: Vec<u32>,
    /// Children of position `u` occupy positions
    /// `child_start[u]..child_start[u + 1]` — contiguous by the BFS
    /// property, in ascending-id order.
    child_start: Vec<u32>,
    /// Every `(child_pos, parent_pos)` edge, in the order the exchange
    /// applies them (see [`Layout::of`]).
    edges: Vec<(u32, u32)>,
    /// Spontaneous rates at BFS positions.
    spont_pos: Vec<f64>,
    /// Served rates at BFS positions (current round).
    load_pos: Vec<f64>,
    /// Forwarded rates at BFS positions (current round).
    fwd_pos: Vec<f64>,
    /// Double buffer for the next load vector (swapped with `load_pos`).
    next_buf: Vec<f64>,
    /// Double buffer for the next forwarded vector (swapped with
    /// `fwd_pos`).
    fwd_buf: Vec<f64>,
    /// Past load vectors (BFS positions), oldest first; holds at most
    /// `staleness` buffers, recycled once the window fills so steady-state
    /// rounds never allocate.
    history: VecDeque<Vec<f64>>,
    /// Per node **id**: `true` when the control link to its parent is
    /// failed (no diffusion/gossip crosses it; requests still flow).
    failed_up: Vec<bool>,
    /// `failed_up` permuted to BFS positions (the hot-path view).
    failed_up_pos: Vec<bool>,

    oracle: RateVector,
    /// Summary cache behind `oracle`: churn re-folds only the touched
    /// root paths instead of sweeping the whole tree.
    fold: IncrementalFold,
    /// `true` between [`RateWave::begin_batch`] and
    /// [`RateWave::end_batch`]: oracle refolds and the per-event trace
    /// sample are deferred to the batch commit.
    batched: bool,
    /// Whether a batched barrier deferred at least one oracle refresh.
    batch_dirty: bool,
    trace: ConvergenceTrace,
    round: usize,
}

/// The BFS-permuted dense layout of one tree, shared by construction and
/// the post-churn rebuilds.
struct Layout {
    order: Vec<u32>,
    pos_of: Vec<u32>,
    child_start: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

impl Layout {
    fn of(tree: &Tree) -> Layout {
        let n = tree.len();
        // BFS permutation: position -> id, and per-position structure.
        let order: Vec<u32> = tree.bfs_order().iter().map(|u| u.index() as u32).collect();
        let mut pos_of = vec![0u32; n];
        for (pos, &id) in order.iter().enumerate() {
            pos_of[id as usize] = pos as u32;
        }
        // Children of position u are the contiguous run of positions whose
        // parent is u; runs appear in position order by the BFS property
        // (node u's children are enqueued, in ascending-id order, when u
        // is dequeued). The first child of position u therefore sits right
        // after all children of positions < u.
        let mut child_start = vec![0u32; n + 1];
        let mut next_child = 1u32; // position 0 is the root, nobody's child
        for u in 0..n {
            child_start[u] = next_child.min(n as u32);
            next_child += tree.children(NodeId::new(order[u] as usize)).len() as u32;
        }
        child_start[n] = n as u32;
        let mut edges: Vec<(u32, u32)> = (1..n)
            .map(|c| {
                let parent = tree
                    .parent(NodeId::new(order[c] as usize))
                    .expect("only the root is parentless");
                (c as u32, pos_of[parent.index()])
            })
            .collect();
        debug_assert!(edges.iter().all(|&(c, p)| {
            (child_start[p as usize]..child_start[p as usize + 1]).contains(&c)
        }));
        // Float addition is not associative, so each cell's transfers
        // must land in the naive engine's ascending-child-id order. When
        // every parent id precedes its children's ids (all regular
        // generators and the paper trees), position order already does:
        // a cell's own transfer with its parent lands before those with
        // its children, and siblings are adjacent in ascending-id order;
        // parents are then monotone nondecreasing, so the scan streams.
        // Other numberings (e.g. Prüfer trees) sort by child id.
        if !edges
            .iter()
            .all(|&(c, p)| order[p as usize] < order[c as usize])
        {
            edges.sort_by_key(|&(c, _)| order[c as usize]);
        }
        Layout {
            order,
            pos_of,
            child_start,
            edges,
        }
    }
}

/// Re-imposes flow feasibility bottom-up (the repair of Figure 5's
/// round): a node may not serve a negative rate nor more than flows
/// through it, whatever it cannot serve stays in the stream, and the
/// root absorbs everything that reaches it (Constraint 1), so totals are
/// conserved. Reverse position order *is* the bottom-up traversal, and
/// each node's children are a contiguous ascending-id slice of
/// `forwarded`, written before their parent is reached.
fn repair(child_start: &[u32], spont: &[f64], served: &mut [f64], forwarded: &mut [f64]) {
    for u in (0..spont.len()).rev() {
        let mut through = spont[u];
        let (lo, hi) = (child_start[u] as usize, child_start[u + 1] as usize);
        for f in &forwarded[lo..hi] {
            through += *f;
        }
        if u == 0 {
            served[u] = through;
            forwarded[u] = 0.0;
        } else {
            served[u] = served[u].clamp(0.0, through);
            forwarded[u] = through - served[u];
        }
    }
}

impl RateWave {
    /// Starts a run from the *cold* state: no cache copies exist, so the
    /// home server serves the entire demand.
    ///
    /// # Panics
    ///
    /// Panics if `spontaneous` does not validate against `tree`, or if a
    /// provided `alpha` is outside `(0, 1)`.
    pub fn new(tree: &Tree, spontaneous: &RateVector, config: WaveConfig) -> Self {
        let mut initial = RateVector::zeros(tree.len());
        initial[tree.root()] = spontaneous.total();
        Self::with_initial(tree, spontaneous, initial, config)
    }

    /// Starts a run from an explicit initial served-rate vector, which
    /// must be feasible (NSS + root constraint).
    ///
    /// # Panics
    ///
    /// Panics if vectors do not validate against `tree`, if the initial
    /// assignment is infeasible, or if `alpha` is outside `(0, 1)`.
    pub fn with_initial(
        tree: &Tree,
        spontaneous: &RateVector,
        initial: RateVector,
        config: WaveConfig,
    ) -> Self {
        spontaneous
            .validate_for(tree)
            .expect("spontaneous rates must match the tree");
        let assignment = ww_model::LoadAssignment::new(tree, spontaneous, initial.clone())
            .expect("initial load must match the tree");
        assert!(
            assignment.check_feasible(1e-6).is_ok(),
            "initial load assignment must be feasible"
        );
        let alpha = config.alpha.unwrap_or_else(|| safe_alpha(tree));
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
        let mut fold = IncrementalFold::new(tree, spontaneous);
        let oracle = fold.refold_path(tree, spontaneous).into_load();
        let forwarded = assignment.forwarded().clone();
        let mut trace = ConvergenceTrace::new();
        trace.push(initial.euclidean_distance(&oracle));

        let n = tree.len();
        let layout = Layout::of(tree);
        let permute = |v: &RateVector| -> Vec<f64> {
            layout
                .order
                .iter()
                .map(|&id| v.as_slice()[id as usize])
                .collect()
        };
        let spont_pos = permute(spontaneous);
        let load_pos = permute(&initial);
        let fwd_pos = permute(&forwarded);

        RateWave {
            tree: tree.clone(),
            spontaneous: spontaneous.clone(),
            load: initial,
            forwarded,
            alpha,
            alpha_override: config.alpha,
            staleness: config.staleness,
            order: layout.order,
            pos_of: layout.pos_of,
            child_start: layout.child_start,
            edges: layout.edges,
            spont_pos,
            load_pos,
            fwd_pos,
            next_buf: vec![0.0; n],
            fwd_buf: vec![0.0; n],
            history: VecDeque::with_capacity(config.staleness),
            failed_up: vec![false; n],
            failed_up_pos: vec![false; n],
            oracle,
            fold,
            batched: false,
            batch_dirty: false,
            trace,
            round: 0,
        }
    }

    /// Rebuilds the public id-ordered `load`/`forwarded` vectors from the
    /// permuted state.
    fn unpermute(&mut self) {
        let load = self.load.as_mut_slice();
        let fwd = self.forwarded.as_mut_slice();
        for (pos, &id) in self.order.iter().enumerate() {
            load[id as usize] = self.load_pos[pos];
            fwd[id as usize] = self.fwd_pos[pos];
        }
    }

    /// Rebuilds the public vectors and returns the Euclidean distance to
    /// the oracle in one fused pass, accumulating in ascending-id order —
    /// the same order `RateVector::euclidean_distance` uses.
    fn unpermute_and_distance(&mut self) -> f64 {
        let load = self.load.as_mut_slice();
        let fwd = self.forwarded.as_mut_slice();
        let oracle = self.oracle.as_slice();
        let pos_of = &self.pos_of;
        let mut sum_sq = 0.0;
        for id in 0..load.len() {
            let pos = pos_of[id] as usize;
            let l = self.load_pos[pos];
            load[id] = l;
            fwd[id] = self.fwd_pos[pos];
            let d = l - oracle[id];
            sum_sq += d * d;
        }
        sum_sq.sqrt()
    }

    /// Executes one synchronous WebWave round (Figure 5, steps 2.1-2.4).
    ///
    /// The round is allocation-free: all buffers are reused, and once the
    /// staleness window fills, history buffers are recycled instead of
    /// cloned.
    pub fn step(&mut self) {
        self.round += 1;
        let alpha = self.alpha;
        let load: &[f64] = &self.load_pos;
        // Decisions read the neighbours' gossiped loads: `staleness`
        // rounds old, or the loads themselves under instantaneous gossip
        // (the history holds buffers only when `staleness > 0`).
        let est: &[f64] = self.history.front().map_or(load, Vec::as_slice);
        let fwd_prev: &[f64] = &self.fwd_pos;
        let failed: &[bool] = &self.failed_up_pos;
        let next: &mut [f64] = &mut self.next_buf;
        next.copy_from_slice(load);

        // Exchange (steps 2.1-2.2): one net transfer per tree edge, in the
        // order `Layout::of` fixed. The parent pushes down, bounded by the
        // child's forwarded rate (NSS: a child can only absorb load its
        // own subtree emits); the child pushes up freely, bounded by its
        // own load. A failed control link moves nothing (requests still
        // flow — the repair below is untouched).
        //
        // `(alpha * (lp - ec)).min(bound).max(0.0)` equals the guarded
        // `if lp > ec { (alpha * (lp - ec)).min(bound) } else { 0.0 }`
        // bit for bit: when `lp <= ec` the product is `<= 0.0` and the
        // final `.max(0.0)` restores exactly `0.0` (`x - x == +0.0` in
        // IEEE 754, and the branchless form is `minsd`/`maxsd`, not a
        // mispredictable branch).
        for &(c, p) in &self.edges {
            let (c, p) = (c as usize, p as usize);
            if failed[c] {
                continue;
            }
            let (lp, lc) = (load[p], load[c]);
            let (ep, ec) = (est[p], est[c]);
            let down = (alpha * (lp - ec)).min(fwd_prev[c]).max(0.0);
            let up = (alpha * (lc - ep)).min(lc).max(0.0);
            let net = down - up;
            next[p] -= net;
            next[c] += net;
        }

        // Repair (step 2.3) into the forwarded double buffer.
        repair(&self.child_start, &self.spont_pos, next, &mut self.fwd_buf);

        // Gossip (step 2.4): append the *previous* load to the history so
        // estimates lag by `staleness` rounds. Once the window is full the
        // oldest buffer is recycled as the newest — no allocation.
        if self.staleness > 0 {
            if self.history.len() >= self.staleness {
                let mut recycled = self.history.pop_front().expect("non-empty history");
                recycled.copy_from_slice(&self.load_pos);
                self.history.push_back(recycled);
            } else {
                self.history.push_back(self.load_pos.clone());
            }
        }

        std::mem::swap(&mut self.load_pos, &mut self.next_buf);
        std::mem::swap(&mut self.fwd_pos, &mut self.fwd_buf);
        let distance = self.unpermute_and_distance();
        self.trace.push(distance);
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Runs until the distance to TLB drops to `threshold` or the round
    /// cap is reached; returns the rounds taken by this call.
    pub fn run_until(&mut self, threshold: f64, max_rounds: usize) -> usize {
        let mut taken = 0;
        while self.distance_to_tlb() > threshold && taken < max_rounds {
            self.step();
            taken += 1;
        }
        taken
    }

    /// Current served-rate vector `L`.
    pub fn load(&self) -> &RateVector {
        &self.load
    }

    /// Current forwarded-rate vector `A`.
    pub fn forwarded(&self) -> &RateVector {
        &self.forwarded
    }

    /// The TLB oracle (WebFold output) this run converges toward.
    pub fn oracle(&self) -> &RateVector {
        &self.oracle
    }

    /// Euclidean distance from the current loads to the TLB oracle — the
    /// paper's convergence metric.
    pub fn distance_to_tlb(&self) -> f64 {
        self.load.euclidean_distance(&self.oracle)
    }

    /// The per-round distance trace (index = round).
    pub fn trace(&self) -> &ConvergenceTrace {
        &self.trace
    }

    /// Rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The effective diffusion parameter in use.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Changes the spontaneous demand mid-run — the "erratic request
    /// rates" regime of the paper's future work (Section 5.1/7).
    ///
    /// The TLB oracle is recomputed for the new demand, and the current
    /// load vector is re-projected onto the new feasible region (clamped
    /// to the new through rates; the root absorbs the residual), exactly
    /// as the running protocol would experience a demand shift.
    ///
    /// # Panics
    ///
    /// Panics if `spontaneous` does not validate against the tree.
    pub fn set_spontaneous(&mut self, spontaneous: &RateVector) {
        spontaneous
            .validate_for(&self.tree)
            .expect("spontaneous rates must match the tree");
        self.spontaneous = spontaneous.clone();
        for (pos, &id) in self.order.iter().enumerate() {
            self.spont_pos[pos] = spontaneous.as_slice()[id as usize];
        }
        // Re-impose feasibility under the new flows.
        repair(
            &self.child_start,
            &self.spont_pos,
            &mut self.load_pos,
            &mut self.fwd_pos,
        );
        self.unpermute();
        // Old gossip describes the old regime; drop it.
        self.history.clear();
        self.refresh_oracle();
    }

    /// The routing tree this run currently operates on.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Whether the control link from `node` to its parent is currently
    /// failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn link_failed(&self, node: NodeId) -> bool {
        self.failed_up[node.index()]
    }

    /// Sets the failed state of the control link between `node` and its
    /// parent; `true` when the state changed. While failed, no diffusion
    /// transfer or gossip crosses the edge. The *data* path is unaffected —
    /// requests keep flowing up the tree (WebWave's control plane rides on
    /// top of the existing HTTP routing substrate), so the subtree's demand
    /// is still served, just no longer balanced across the cut.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeOutOfRange`] for an unknown id,
    /// [`ModelError::NoUplink`] for the root; the links are untouched.
    pub fn set_link(&mut self, node: NodeId, failed: bool) -> Result<bool, ModelError> {
        self.tree.uplink(node)?;
        self.failed_up_pos[self.pos_of[node.index()] as usize] = failed;
        Ok(std::mem::replace(&mut self.failed_up[node.index()], failed) != failed)
    }

    /// A cache server joins as a new leaf under `parent`, bringing `rate`
    /// req/s of spontaneous demand. The newcomer starts cold (serving
    /// nothing; its demand flows upward), the TLB oracle is recomputed
    /// for the grown tree, and the dense layout is rebuilt.
    ///
    /// Returns the new node's id (`== old len`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NodeOutOfRange`] for an unknown parent or
    /// [`ModelError::InvalidRate`] for a negative/non-finite rate.
    pub fn add_leaf(&mut self, parent: NodeId, rate: f64) -> Result<NodeId, ModelError> {
        if !rate.is_finite() || rate < 0.0 {
            return Err(ModelError::InvalidRate {
                node: parent,
                value: rate,
            });
        }
        let id = self.tree.add_leaf(parent)?;
        self.fold.on_join(&self.tree, id);
        let mut spont = self.spontaneous.clone().into_inner();
        spont.push(rate);
        self.spontaneous = RateVector::from(spont);
        let mut load = self.load.clone().into_inner();
        load.push(0.0);
        self.load = RateVector::from(load);
        self.failed_up.push(false);
        self.rebuild();
        Ok(id)
    }

    /// A leaf cache server departs. Its clients re-route to the next
    /// cache up the tree, so its spontaneous demand re-homes to its
    /// parent (total demand is conserved); the load it served reappears
    /// upstream and is re-balanced over the following rounds. Ids are
    /// compacted exactly as [`Tree::remove_leaf`] describes (swap-remove).
    ///
    /// # Errors
    ///
    /// As [`Tree::remove_leaf`]: unknown id, root, or interior node.
    pub fn remove_leaf(&mut self, node: NodeId) -> Result<LeafRemoval, ModelError> {
        let removal = self.tree.remove_leaf(node)?;
        self.fold.on_leave(&self.tree, &removal);
        let mut spont = self.spontaneous.clone().into_inner();
        removal.rehome(&mut spont);
        self.spontaneous = RateVector::from(spont);
        let mut load = self.load.clone().into_inner();
        load.swap_remove(node.index());
        self.load = RateVector::from(load);
        self.failed_up.swap_remove(node.index());
        self.rebuild();
        Ok(removal)
    }

    /// Rebuilds every derived structure after a topology event: dense
    /// layout, safe alpha (unless overridden), TLB oracle, feasibility of
    /// the carried-over load, failed-link mask, and the public vectors.
    /// Gossip history is dropped (it describes the old regime) and the
    /// post-event distance is appended to the trace.
    fn rebuild(&mut self) {
        let n = self.tree.len();
        let layout = Layout::of(&self.tree);
        self.alpha = self
            .alpha_override
            .unwrap_or_else(|| safe_alpha(&self.tree));
        self.spont_pos = layout
            .order
            .iter()
            .map(|&id| self.spontaneous.as_slice()[id as usize])
            .collect();
        self.load_pos = layout
            .order
            .iter()
            .map(|&id| self.load.as_slice()[id as usize])
            .collect();
        self.fwd_pos = vec![0.0; n];
        self.next_buf = vec![0.0; n];
        self.fwd_buf = vec![0.0; n];
        self.failed_up_pos = layout
            .order
            .iter()
            .map(|&id| self.failed_up[id as usize])
            .collect();
        self.order = layout.order;
        self.pos_of = layout.pos_of;
        self.child_start = layout.child_start;
        self.edges = layout.edges;
        self.history.clear();
        // Re-impose flow feasibility bottom-up under the new topology.
        repair(
            &self.child_start,
            &self.spont_pos,
            &mut self.load_pos,
            &mut self.fwd_pos,
        );
        self.forwarded = RateVector::zeros(n);
        self.unpermute();
        self.refresh_oracle();
    }

    /// Re-folds the TLB oracle along the dirty root paths and samples
    /// the post-event distance into the trace — or, inside a batched
    /// barrier, defers both to [`RateWave::end_batch`].
    fn refresh_oracle(&mut self) {
        if self.batched {
            self.batch_dirty = true;
        } else {
            self.oracle = self
                .fold
                .refold_path(&self.tree, &self.spontaneous)
                .into_load();
            self.trace.push(self.load.euclidean_distance(&self.oracle));
        }
    }

    /// Opens a batched barrier: subsequent churn events apply their
    /// structural effects eagerly but defer the oracle refold and the
    /// trace sample until [`RateWave::end_batch`], which pays them once
    /// for the whole barrier.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn begin_batch(&mut self) {
        assert!(!self.batched, "batch already open");
        self.batched = true;
    }

    /// Closes a batched barrier: one oracle refold and one trace
    /// sample, regardless of how many events the batch held. A batch of
    /// exactly one oracle-touching event is bit-identical to applying
    /// that event unbatched.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn end_batch(&mut self) {
        assert!(self.batched, "no batch open");
        self.batched = false;
        if std::mem::take(&mut self.batch_dirty) {
            self.refresh_oracle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_model::LoadAssignment;
    use ww_topology::paper;

    fn converge(scenario: &ww_topology::paper::Scenario, rounds: usize) -> RateWave {
        let mut w = RateWave::new(&scenario.tree, &scenario.spontaneous, WaveConfig::default());
        w.run(rounds);
        w
    }

    #[test]
    fn fig2a_converges_to_gle() {
        let s = paper::fig2a();
        let w = converge(&s, 2000);
        assert!(
            w.distance_to_tlb() < 1e-6,
            "distance {}",
            w.distance_to_tlb()
        );
        for &l in w.load().as_slice() {
            assert!((l - 20.0).abs() < 1e-6);
        }
    }

    #[test]
    fn fig2b_converges_to_non_gle_tlb() {
        let s = paper::fig2b();
        let w = converge(&s, 3000);
        assert!(
            w.distance_to_tlb() < 1e-6,
            "distance {}",
            w.distance_to_tlb()
        );
        for (got, want) in w
            .load()
            .as_slice()
            .iter()
            .zip(paper::fig2b_tlb().as_slice())
        {
            assert!((got - want).abs() < 1e-5, "{got} vs {want}");
        }
    }

    #[test]
    fn fig4_and_fig6_converge() {
        for s in [paper::fig4(), paper::fig6()] {
            let w = converge(&s, 5000);
            assert!(
                w.distance_to_tlb() < 1e-6,
                "{}: distance {}",
                s.name,
                w.distance_to_tlb()
            );
        }
    }

    #[test]
    fn every_round_is_feasible() {
        let s = paper::fig6();
        let mut w = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
        for _ in 0..200 {
            w.step();
            let a = LoadAssignment::new(&s.tree, &s.spontaneous, w.load().clone()).unwrap();
            assert!(
                a.check_feasible(1e-6).is_ok(),
                "round {} infeasible",
                w.round()
            );
        }
    }

    #[test]
    fn total_served_equals_demand_every_round() {
        let s = paper::fig4();
        let mut w = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
        for _ in 0..100 {
            w.step();
            assert!((w.load().total() - s.total_demand()).abs() < 1e-6);
        }
    }

    #[test]
    fn distance_trace_decays_roughly_geometrically() {
        let s = paper::fig6();
        let w = converge(&s, 400);
        let fit = w.trace().fit_gamma(1e-9).unwrap();
        assert!(fit.gamma > 0.0 && fit.gamma < 1.0, "gamma {}", fit.gamma);
    }

    #[test]
    fn stale_gossip_still_converges() {
        let s = paper::fig6();
        let cfg = WaveConfig {
            alpha: None,
            staleness: 3,
        };
        let mut w = RateWave::new(&s.tree, &s.spontaneous, cfg);
        w.run(8000);
        assert!(
            w.distance_to_tlb() < 1e-4,
            "distance {}",
            w.distance_to_tlb()
        );
    }

    #[test]
    fn staleness_slows_convergence() {
        let s = paper::fig6();
        let rounds_to = |staleness: usize| {
            let cfg = WaveConfig {
                alpha: None,
                staleness,
            };
            let mut w = RateWave::new(&s.tree, &s.spontaneous, cfg);
            w.run_until(0.5, 20_000)
        };
        assert!(rounds_to(5) > rounds_to(0));
    }

    #[test]
    fn custom_alpha_and_accessors() {
        let s = paper::fig2a();
        let cfg = WaveConfig {
            alpha: Some(0.1),
            staleness: 0,
        };
        let w = RateWave::new(&s.tree, &s.spontaneous, cfg);
        assert_eq!(w.alpha(), 0.1);
        assert_eq!(w.round(), 0);
        assert_eq!(w.trace().len(), 1); // initial distance recorded
    }

    #[test]
    fn warm_start_from_feasible_assignment() {
        let s = paper::fig2b();
        let w = RateWave::with_initial(
            &s.tree,
            &s.spontaneous,
            paper::fig2b_tlb(),
            WaveConfig::default(),
        );
        // Starting at TLB: already converged, and stays there.
        let mut w = w;
        w.run(50);
        assert!(w.distance_to_tlb() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be feasible")]
    fn infeasible_warm_start_rejected() {
        let s = paper::fig2b();
        let gle = RateVector::uniform(5, 20.0); // violates NSS for fig2b
        let _ = RateWave::with_initial(&s.tree, &s.spontaneous, gle, WaveConfig::default());
    }

    #[test]
    fn root_only_tree_is_trivially_converged() {
        let tree = Tree::from_parents(&[None]).unwrap();
        let e = RateVector::from(vec![5.0]);
        let mut w = RateWave::new(&tree, &e, WaveConfig::default());
        w.run(10);
        assert_eq!(w.load().as_slice(), &[5.0]);
        assert!(w.distance_to_tlb() < 1e-12);
    }

    #[test]
    fn node_join_reconverges_to_the_grown_tlb() {
        let s = paper::fig6();
        let mut w = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
        w.run(2000);
        assert!(w.distance_to_tlb() < 1e-6);
        let id = w.add_leaf(NodeId::new(2), 40.0).unwrap();
        assert_eq!(id.index(), s.tree.len());
        // The shock moves the system off the (new) oracle...
        assert!(w.distance_to_tlb() > 1.0);
        assert!((w.load().total() - (s.total_demand() + 40.0)).abs() < 1e-6);
        // ...and diffusion recovers.
        w.run(3000);
        assert!(
            w.distance_to_tlb() < 1e-6,
            "distance {}",
            w.distance_to_tlb()
        );
    }

    #[test]
    fn node_leave_rehomes_demand_and_reconverges() {
        let s = paper::fig6();
        let mut w = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
        w.run(2000);
        let total = s.total_demand();
        let leaf = s
            .tree
            .nodes()
            .find(|&u| s.tree.is_leaf(u))
            .expect("a leaf exists");
        w.remove_leaf(leaf).unwrap();
        assert_eq!(w.load().len(), s.tree.len() - 1);
        // Demand conserved: the departed clients re-route upstream.
        assert!((w.load().total() - total).abs() < 1e-6);
        w.run(3000);
        assert!(
            w.distance_to_tlb() < 1e-6,
            "distance {}",
            w.distance_to_tlb()
        );
    }

    #[test]
    fn failed_link_freezes_the_edge_until_healed() {
        // Path 0-1-2, all demand at the far leaf.
        let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
        let e = RateVector::from(vec![0.0, 0.0, 90.0]);
        let mut w = RateWave::new(&tree, &e, WaveConfig::default());
        // Sever the 1-2 link before any balancing: node 2's demand flows
        // up (data plane), but no load diffuses back down to node 2.
        assert!(w.set_link(NodeId::new(2), true).unwrap());
        w.run(4000);
        assert_eq!(w.load()[NodeId::new(2)], 0.0);
        // Nodes 0 and 1 still balance the 0-1 edge between themselves.
        assert!(w.load()[NodeId::new(1)] > 1.0);
        assert!(w.distance_to_tlb() > 1.0);
        // Healing restores full convergence to the 30/30/30 TLB.
        assert!(w.set_link(NodeId::new(2), false).unwrap());
        w.run(4000);
        assert!(
            w.distance_to_tlb() < 1e-6,
            "distance {}",
            w.distance_to_tlb()
        );
    }

    #[test]
    fn churn_under_stale_gossip_still_recovers() {
        let s = paper::fig6();
        let cfg = WaveConfig {
            alpha: None,
            staleness: 2,
        };
        let mut w = RateWave::new(&s.tree, &s.spontaneous, cfg);
        w.run(100);
        w.add_leaf(NodeId::new(0), 25.0).unwrap();
        w.run(12000);
        assert!(
            w.distance_to_tlb() < 1e-4,
            "distance {}",
            w.distance_to_tlb()
        );
    }

    /// The BFS-permuted layout must agree with the tree structure: every
    /// position's children slice covers exactly its children.
    #[test]
    fn permuted_layout_preserves_forwarded_semantics() {
        let s = paper::fig6();
        let mut w = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
        w.run(50);
        // forwarded() must satisfy flow conservation against load().
        let a = LoadAssignment::new(&s.tree, &s.spontaneous, w.load().clone()).unwrap();
        for u in s.tree.nodes() {
            assert!(
                (a.forwarded()[u] - w.forwarded()[u]).abs() < 1e-9,
                "forwarded mismatch at {u}"
            );
        }
    }
}
