//! The one document world of `ww-core`: the routing tree, the universe
//! of published documents, the per-node demand mix, the control-link
//! state and the WebFold oracle over them — what the document-level
//! [`DocSim`](crate::docsim::DocSim) and every packet engine
//! ([`PacketWorld`](crate::packet::PacketWorld)) simulate on.
//!
//! The world is mutated only through its own mutators — [`DocWorld::join`],
//! [`DocWorld::leave`], [`DocWorld::publish`], [`DocWorld::set_mix`] and
//! [`DocWorld::set_link`] — so how a join splits demand, how a leave
//! re-homes it and how the universe grows is stated once. Each engine
//! then mirrors what a mutator returns ([`UniverseGrowth`],
//! [`LeafRemoval`]) in its own per-node state.

use crate::diffusion::safe_alpha;
use crate::fold::IncrementalFold;
use crate::packet::{ORACLE_FULL_SWEEPS, ORACLE_REFOLDS, ORACLE_REFRESH, STRUCTURAL};
use ww_model::{DocId, LeafRemoval, ModelError, NodeId, RateVector, Tree};
use ww_telemetry::{PhaseStat, Snapshot};
use ww_workload::DocMix;

/// What the world reads of its engine's run configuration.
pub trait WorldConfig: Copy + std::fmt::Debug {
    /// The configured diffusion parameter; `None` selects
    /// `1 / (max_degree + 1)`.
    fn alpha(&self) -> Option<f64>;
}

/// The shared world of a run: topology, document universe, offered
/// demand, link state, oracle, and configuration `C`. Immutable *within*
/// a packet epoch — shards read it concurrently while their event loops
/// run — and mutable only at barriers, through [`DocWorld::join`],
/// [`DocWorld::leave`], [`DocWorld::publish`], [`DocWorld::set_mix`] and
/// [`DocWorld::set_link`].
#[derive(Debug, Clone)]
pub struct DocWorld<C> {
    /// The routing tree.
    pub tree: Tree,
    /// Slot of each node within its parent's child list (root: unused 0).
    pub child_slot: Vec<usize>,
    /// The live per-node, per-document demand mix — the one copy of the
    /// offered demand; a node's demand streams are derived from it where
    /// they are read ([`DocWorld::streams_of`]). Its table
    /// ([`DocMix::table`]) is the simulated universe: an entry's code is
    /// its document's dense index, the column of every per-document
    /// state.
    pub mix: DocMix,
    /// The WebFold oracle for the offered demand.
    pub oracle: RateVector,
    /// Run configuration.
    pub config: C,
    /// Resolved diffusion parameter.
    pub alpha: f64,
    /// Arrival-stage generation: bumped by every barrier operation that
    /// re-resolves the arrival streams (churn, publish, shift). Folded
    /// into the stream RNG forks, so rebuilt streams stay content-keyed.
    pub generation: u64,
    /// Per node: `true` when the control link to its parent is failed
    /// ([`DocWorld::set_link`]).
    failed_up: Vec<bool>,
    /// The incremental WebFold cache behind `oracle`: barrier mutations
    /// dirty only root paths, so each oracle refresh re-folds
    /// `O(depth)` summaries instead of sweeping all `n` nodes.
    fold: IncrementalFold,
    /// Whether a barrier batch is open (see [`DocWorld::begin_batch`]).
    batched: bool,
    /// Whether a mutation deferred its refresh to the batch end.
    batch_dirty: bool,
    /// Observation-only oracle bookkeeping (see `docs/observability.md`).
    pub(crate) tel: WorldTel,
}

/// Observation-only counters the world keeps about its own oracle
/// maintenance: how often the incremental refold ran versus a
/// from-scratch sweep, and (when a driver asked for spans) how long the
/// refreshes took. Plain integers off the per-packet path — they are
/// read only by `telemetry_snapshot`, never by the simulation.
#[derive(Debug, Clone, Default)]
pub struct WorldTel {
    /// Incremental `refold_path` refreshes since construction.
    pub refolds: u64,
    /// From-scratch WebFold sweeps (construction counts one).
    pub full_sweeps: u64,
    /// Accumulated oracle-refresh time (only when `timed`).
    pub refresh_ns: u64,
    /// Refresh spans recorded (only when `timed`).
    pub refresh_count: u64,
    /// Accumulated time the barrier mutators spent on the world's own
    /// structural state — tree, mix, universe, child slots; everything
    /// but the oracle refresh (only when `timed`).
    pub structural_ns: u64,
    /// Structural spans recorded: one per accepted join, leave, publish
    /// or shift (only when `timed`).
    pub structural_count: u64,
    /// Whether the spans above read the monotonic clock (full-span
    /// telemetry requested by the owning driver).
    pub timed: bool,
}

impl WorldTel {
    /// Opens a span when timing is on.
    fn begin(&self) -> Option<std::time::Instant> {
        self.timed.then(std::time::Instant::now)
    }

    fn end_refresh(&mut self, span: Option<std::time::Instant>) {
        credit(span, &mut self.refresh_ns, &mut self.refresh_count);
    }

    fn end_structural(&mut self, span: Option<std::time::Instant>) {
        credit(span, &mut self.structural_ns, &mut self.structural_count);
    }

    /// Appends the oracle-maintenance counters and — with `spans` — the
    /// refresh and structural phases that recorded at least one span (a
    /// run without barrier mutations has neither).
    pub fn snapshot_into(&self, snap: &mut Snapshot, spans: bool) {
        snap.push_counter(ORACLE_REFOLDS, &[], self.refolds);
        snap.push_counter(ORACLE_FULL_SWEEPS, &[], self.full_sweeps);
        for (key, ns, count) in [
            (ORACLE_REFRESH, self.refresh_ns, self.refresh_count),
            (STRUCTURAL, self.structural_ns, self.structural_count),
        ] {
            if spans && count > 0 {
                snap.push_phase(key, PhaseStat { ns, count });
            }
        }
    }
}

/// Closes a [`WorldTel`] span into its `(total ns, span count)` pair.
fn credit(span: Option<std::time::Instant>, ns: &mut u64, count: &mut u64) {
    if let Some(t0) = span {
        *ns += t0.elapsed().as_nanos() as u64;
        *count += 1;
    }
}

/// `InvalidRate` at `node` unless the demand total `value` is finite.
fn finite(node: NodeId, value: f64) -> Result<(), ModelError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ModelError::InvalidRate { node, value })
    }
}

/// `InvalidRate` at `node` unless `rate` is finite and non-negative.
fn valid_rate(node: NodeId, rate: f64) -> Result<(), ModelError> {
    if rate.is_finite() && rate >= 0.0 {
        Ok(())
    } else {
        Err(ModelError::InvalidRate { node, value: rate })
    }
}

impl<C: WorldConfig> DocWorld<C> {
    /// Builds the world for `tree` under the per-node document demand
    /// `mix`, taking both over. The caller has checked that `mix` covers
    /// `tree` and that `config` is in range.
    pub(crate) fn build(tree: Tree, mut mix: DocMix, config: C) -> Self {
        mix.recode();
        let oracle = RateVector::zeros(tree.len());
        let fold = IncrementalFold::new(&tree, &mix.spontaneous());
        let mut world = DocWorld {
            failed_up: vec![false; tree.len()],
            child_slot: vec![0; tree.len()],
            tree,
            mix,
            oracle,
            config,
            alpha: 0.5,
            generation: 0,
            fold,
            batched: false,
            batch_dirty: false,
            tel: WorldTel {
                // `IncrementalFold::new` seeds its cache with one
                // from-scratch sweep.
                full_sweeps: 1,
                ..WorldTel::default()
            },
        };
        for u in 0..world.tree.len() {
            world.reslot_children(NodeId::new(u));
        }
        world.refresh_oracle();
        world
    }

    /// Re-derives the child-slot index of `parent`'s children.
    fn reslot_children(&mut self, parent: NodeId) {
        for (slot, &c) in self.tree.children(parent).iter().enumerate() {
            self.child_slot[c.index()] = slot;
        }
    }

    /// The demand streams of `node` as `(doc, dense index, rate)`, in
    /// ascending document order: its mix row as it stands, each entry's
    /// code being its document's dense index.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn streams_of(
        &self,
        node: NodeId,
    ) -> impl ExactSizeIterator<Item = (DocId, u32, f64)> + '_ {
        self.mix.demands_of(node).iter_coded()
    }

    /// Demand stream `stream` of `node` as `(dense index, rate)`: entry
    /// `stream` of its mix row, code and rate — what an arrival fires
    /// on. A slab's stream cells are rebuilt from these rows at every
    /// barrier that changes one, so the two never disagree while events
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `stream` is out of range.
    #[inline]
    pub fn stream_of(&self, node: NodeId, stream: u32) -> (u32, f64) {
        let entry = *self.mix.demands_of(node).cell(stream as usize);
        (entry.code(), entry.rate())
    }

    /// `node`'s demand total once `extra` (sorted by document) is added
    /// to its row, summed in document order as [`DocMix::node_total`]
    /// will sum the merged row.
    fn total_with(&self, node: NodeId, extra: impl Iterator<Item = (DocId, f64)>) -> f64 {
        let mut row = self.mix.demands_of(node).iter().peekable();
        let mut extra = extra.peekable();
        std::iter::from_fn(|| match (row.peek(), extra.peek()) {
            (Some(&(a, x)), Some(&(b, y))) if a == b => {
                row.next();
                extra.next();
                Some(x + y)
            }
            (Some(&(a, x)), Some(&(b, _))) if a < b => {
                row.next();
                Some(x)
            }
            (_, Some(&(_, y))) => {
                extra.next();
                Some(y)
            }
            (Some(&(_, x)), None) => {
                row.next();
                Some(x)
            }
            (None, None) => None,
        })
        .sum()
    }

    /// Whether a barrier batch is open; if so, the batch now owes one
    /// refresh at [`DocWorld::end_batch`]. A mutation calls this and
    /// refreshes at once only on `false`, so a K-event barrier pays for
    /// one refresh instead of K.
    pub(crate) fn defer_refresh(&mut self) -> bool {
        self.batch_dirty |= self.batched;
        self.batched
    }

    /// The expensive half: diffusion parameter and WebFold oracle, the
    /// latter through the incremental refold cache.
    fn refresh_oracle(&mut self) {
        let span = self.tel.begin();
        self.alpha = self
            .config
            .alpha()
            .unwrap_or_else(|| safe_alpha(&self.tree));
        let spontaneous = self.mix.spontaneous();
        self.oracle = self.fold.refold_path(&self.tree, &spontaneous).into_load();
        self.tel.refolds += 1;
        self.tel.end_refresh(span);
    }

    /// Opens a barrier batch: subsequent mutations keep the structural
    /// derived state (child slots) current — later mutations in the
    /// batch depend on it — but defer the oracle/alpha refresh until
    /// [`DocWorld::end_batch`].
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn begin_batch(&mut self) {
        assert!(!self.batched, "a barrier batch is already open");
        self.batched = true;
    }

    /// Whether a barrier batch is open — the one place that is tracked,
    /// for the world and for every engine built on it.
    pub fn batch_open(&self) -> bool {
        self.batched
    }

    /// Closes the batch, performing the deferred oracle refresh once if
    /// any mutation ran; returns whether one did. The world is then
    /// bit-identical to one that applied the same mutations unbatched.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn end_batch(&mut self) -> bool {
        assert!(self.batched, "no open barrier batch");
        self.batched = false;
        let dirty = std::mem::take(&mut self.batch_dirty);
        if dirty {
            self.refresh_oracle();
        }
        dirty
    }

    /// Enables or disables span timing of oracle refreshes and of the
    /// mutators' structural work. Observation only: the flag gates
    /// reads of the monotonic clock, never anything the simulation
    /// computes.
    pub fn set_telemetry_timing(&mut self, timed: bool) {
        self.tel.timed = timed;
    }

    /// The observation-only maintenance counters (refolds, full sweeps,
    /// refresh and structural spans). See `docs/observability.md`.
    pub fn oracle_telemetry(&self) -> &WorldTel {
        &self.tel
    }

    /// A cache server joins as a new leaf under `parent`, bringing
    /// `rate` req/s of demand split across the universe proportionally
    /// to current global document popularity (the newcomer's clients
    /// follow the same popularity law everyone else does). Bumps the
    /// arrival generation.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeOutOfRange`] for an unknown parent,
    /// [`ModelError::InvalidRate`] for a bad rate, when `rate > 0` but
    /// the universe carries no demand to model the split on, or when
    /// the newcomer's split would not be finite. A refused join changes
    /// nothing.
    pub fn join(&mut self, parent: NodeId, rate: f64) -> Result<NodeId, ModelError> {
        if parent.index() >= self.tree.len() {
            return Err(ModelError::NodeOutOfRange {
                node: parent,
                len: self.tree.len(),
            });
        }
        valid_rate(parent, rate)?;
        let span = self.tel.begin();
        // Per-document global demand, accumulated in one pass over the
        // nodes' streams (node order per document — the same float
        // order a per-doc `doc_total` scan over the mix produces).
        let mut totals = vec![0.0f64; self.mix.table().len()];
        for node in self.tree.nodes() {
            for (_, k, r) in self.streams_of(node) {
                totals[k as usize] += r;
            }
        }
        let grand: f64 = totals.iter().sum();
        if rate > 0.0 && grand <= 0.0 {
            return Err(ModelError::InvalidRate {
                node: parent,
                value: rate,
            });
        }
        let shares = || {
            (totals.iter().enumerate())
                .filter(|&(_, &t)| rate > 0.0 && t > 0.0)
                .map(|(k, &t)| (k as u32, rate * t / grand))
        };
        finite(parent, shares().map(|(_, share)| share).sum())?;
        let id = self.tree.add_leaf(parent)?;
        self.fold.on_join(&self.tree, id);
        let newcomer = self.mix.add_node();
        debug_assert_eq!(id, newcomer);
        for (k, share) in shares() {
            self.mix.set(newcomer, self.mix.table().doc(k), share);
        }
        // The newcomer holds the highest id, so it closes its parent's
        // child list; nobody else's slot moved.
        self.child_slot.push(self.tree.children(parent).len() - 1);
        self.failed_up.push(false);
        self.generation += 1;
        self.tel.end_structural(span);
        self.oracle_changed();
        Ok(id)
    }

    /// A leaf cache server departs: its clients re-route to the next
    /// cache up the tree, so its per-document demand re-homes to its
    /// parent, and ids compact by swap-remove, exactly as
    /// [`Tree::remove_leaf`]. Bumps the arrival generation.
    ///
    /// # Errors
    ///
    /// As [`Tree::remove_leaf`]: unknown id, the root, or an interior
    /// node; [`ModelError::InvalidRate`] when the parent's re-homed
    /// demand would not be finite. A refused leave changes nothing.
    pub fn leave(&mut self, node: NodeId) -> Result<LeafRemoval, ModelError> {
        if let Ok(parent) = self.tree.uplink(node) {
            if self.tree.is_leaf(node) {
                finite(
                    parent,
                    self.total_with(parent, self.mix.demands_of(node).iter()),
                )?;
            }
        }
        let span = self.tel.begin();
        let removal = self.tree.remove_leaf(node)?;
        self.fold.on_leave(&self.tree, &removal);
        let departed = self.mix.swap_remove_node(node);
        for (d, r) in departed {
            if r > 0.0 {
                self.mix.add_rate(removal.parent, d, r);
            }
        }
        // Mirror the id compaction, then repair what it touched: the
        // child lists of the (at most two) renumbered parents.
        self.child_slot.swap_remove(node.index());
        self.failed_up.swap_remove(node.index());
        for p in crate::packet::parents_to_remap(&self.tree, &removal) {
            self.reslot_children(p);
        }
        self.generation += 1;
        self.tel.end_structural(span);
        self.oracle_changed();
        Ok(removal)
    }

    /// Publishes a document: `origin`'s clients start requesting `doc`
    /// at `rate` req/s, added on top of any existing demand. A
    /// first-time id grows the dense universe; the returned
    /// [`UniverseGrowth`] tells the engine how far to widen every node's
    /// per-document state (`None`: the universe was unchanged). Bumps
    /// the arrival generation.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeOutOfRange`] for an unknown origin,
    /// [`ModelError::InvalidRate`] for a negative/non-finite rate or
    /// when `origin`'s demand would not be finite. A refused publish
    /// changes nothing.
    pub fn publish(
        &mut self,
        doc: DocId,
        origin: NodeId,
        rate: f64,
    ) -> Result<Option<UniverseGrowth>, ModelError> {
        let n = self.tree.len();
        if origin.index() >= n {
            return Err(ModelError::NodeOutOfRange {
                node: origin,
                len: n,
            });
        }
        valid_rate(origin, rate)?;
        finite(origin, self.total_with(origin, [(doc, rate)].into_iter()))?;
        let span = self.tel.begin();
        let old = self.mix.table().len();
        self.mix.add_rate(origin, doc, rate);
        let growth = self.grown_since(old);
        self.generation += 1;
        self.tel.end_structural(span);
        self.oracle_changed();
        Ok(growth)
    }

    /// Replaces the whole demand mix mid-run (hot-set rotation, Zipf
    /// re-skew). The engines' copies and serve allocations survive, and
    /// first-time document ids grow the universe via the returned
    /// [`UniverseGrowth`]. Bumps the arrival generation.
    ///
    /// # Errors
    ///
    /// [`ModelError::LengthMismatch`] when `mix` does not cover the
    /// current tree, [`ModelError::InvalidRate`] when a node's demand
    /// total in it is not finite. A refused shift changes nothing.
    pub fn set_mix(&mut self, mix: &DocMix) -> Result<Option<UniverseGrowth>, ModelError> {
        let n = self.tree.len();
        if mix.len() != n {
            return Err(ModelError::LengthMismatch {
                expected: n,
                actual: mix.len(),
            });
        }
        for u in self.tree.nodes() {
            finite(u, mix.node_total(u))?;
        }
        let span = self.tel.begin();
        let old = self.mix.table().len();
        self.mix.copy_rows_from(mix);
        let growth = self.grown_since(old);
        self.generation += 1;
        self.tel.end_structural(span);
        self.oracle_changed();
        Ok(growth)
    }

    /// Sets the failed state of the control link between `node` and its
    /// parent; `true` when the state changed. While failed, no diffusion
    /// decision, copy push or tunnel crosses the link, and the packet
    /// engines' gossip stops crossing it too (estimates on both sides go
    /// stale). Requests — the data plane — keep flowing.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeOutOfRange`] for an unknown id,
    /// [`ModelError::NoUplink`] for the root; the links are untouched.
    pub fn set_link(&mut self, node: NodeId, failed: bool) -> Result<bool, ModelError> {
        self.tree.uplink(node)?;
        Ok(std::mem::replace(&mut self.failed_up[node.index()], failed) != failed)
    }

    /// Whether the control link from `node` to its parent is failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn link_failed(&self, node: NodeId) -> bool {
        self.failed_up[node.index()]
    }

    /// A mutation changed the offered demand or the topology: refresh
    /// the oracle now, or once at [`DocWorld::end_batch`].
    fn oracle_changed(&mut self) {
        if !self.defer_refresh() {
            self.refresh_oracle();
        }
    }

    /// The columns the universe grew by since it held `old` documents.
    /// The mix issues a new document the next index, so existing
    /// columns never move: a publish names one document and a shift's
    /// new ones are born in ascending id order
    /// ([`DocMix::copy_rows_from`]).
    fn grown_since(&self, old: usize) -> Option<UniverseGrowth> {
        let new = self.mix.table().len();
        (new > old).then_some(old as u32..new as u32)
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` for the (degenerate) empty world.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }
}

/// The dense indices a universe-growing mutation (publish, shifted mix
/// with new ids) gave its new documents, `old len..new len`: a
/// document's column is its birth order, so no existing column moves.
/// Engines widen every node's per-document state to `end` columns, and
/// the home server receives a copy of each new document.
pub type UniverseGrowth = std::ops::Range<u32>;
