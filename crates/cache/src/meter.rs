//! Per-document, per-child forwarded-rate accounting.
//!
//! "An implementation of WebWave needs to maintain a separate `A_j` for
//! each document it caches" (paper, Section 5, footnote 3). A node must
//! know, per child and per document, how much request rate flows through
//! it, because NSS only lets it delegate to a child the load that child's
//! subtree itself forwards — and only for documents that subtree actually
//! requests.
//!
//! Those meters are the protocol's memory footprint, so the cell every
//! dense table holds ([`MeterCell`]) is three words — window start,
//! smoothed rate, and the open count with "one full window has elapsed"
//! in its top bit — and a window nothing was recorded in closes without
//! a division. `tests/old_cell` keeps the four-word cell and its
//! always-dividing roll as the reference both are held to, bit for bit.

use ww_model::DocGrid;

/// The per-meter state of a windowed rate estimator: the open window,
/// its event count, and the EWMA over the closed windows' rates — three
/// words. The window length and the smoothing factor are *not* stored
/// here — a [`DenseFlowTable`] holds them once for its whole grid —
/// and "one full window has elapsed" is the top bit of the count word,
/// not an `Option` tag, so a grid cell is 24 bytes.
///
/// Its fields are private: a cell can be copied between tables
/// ([`DenseFlowTable::row`] / [`DenseFlowTable::row_mut`]) and compared,
/// and a cell kept outside a table (the packet engines' per-document
/// serve slots) runs the same state machine through the single-cell
/// operations below, with the window and the smoothing factor passed in
/// as a table passes its own.
#[derive(Clone, Copy, PartialEq)]
pub struct MeterCell {
    window_start: f64,
    /// The smoothed rate; `+0.0` until one full window has elapsed.
    smoothed: f64,
    /// The open window's event count, with [`WARM`] set once one full
    /// window has elapsed. A count reaches the flag after 2^63 records.
    state: u64,
}

/// The bit of [`MeterCell::state`] that says the average is live.
const WARM: u64 = 1 << 63;

impl MeterCell {
    /// A cold meter whose first window opens at `start`.
    pub fn anchored(start: f64) -> Self {
        MeterCell {
            window_start: start,
            smoothed: 0.0,
            state: 0,
        }
    }

    /// Advances the window to contain `now`, closing out any completed
    /// windows (including empty ones, which correctly pull the rate
    /// down). The first closed window initializes the average.
    ///
    /// A quiet window closes without dividing: its rate is exactly
    /// `+0.0`, which is what a cold average already holds and what a
    /// warm average of zero bits stays at; any other average decays by
    /// the same expression a busy window runs.
    #[inline]
    pub fn roll_to(&mut self, now: f64, window_secs: f64, alpha: f64) {
        while now >= self.window_start + window_secs {
            let count = self.state & !WARM;
            if count != 0 {
                let rate = count as f64 / window_secs;
                self.smoothed = if self.state & WARM == 0 {
                    rate
                } else {
                    self.smoothed + alpha * (rate - self.smoothed)
                };
            } else if self.smoothed.to_bits() != 0 {
                self.smoothed += alpha * (0.0 - self.smoothed);
            }
            self.state = WARM;
            self.window_start += window_secs;
        }
    }

    /// [`roll_to`](MeterCell::roll_to), passing a cold meter over (see
    /// [`is_cold`](MeterCell::is_cold)): the row rolls' one rule.
    #[inline]
    pub fn roll_live(&mut self, now: f64, window_secs: f64, alpha: f64) {
        if !self.is_cold() {
            self.roll_to(now, window_secs, alpha);
        }
    }

    /// Rolls to `now`, then counts one event in the open window.
    #[inline]
    pub fn record(&mut self, now: f64, window_secs: f64, alpha: f64) {
        self.roll_to(now, window_secs, alpha);
        self.state += 1;
    }

    /// The smoothed rate; `None` until one full window has elapsed.
    #[inline]
    fn rate(&self) -> Option<f64> {
        (self.state & WARM != 0).then_some(self.smoothed)
    }

    /// The smoothed rate; `+0.0` until one full window has elapsed.
    #[inline]
    pub fn rate_or_zero(&self) -> f64 {
        self.smoothed
    }

    /// Forgets the count and the average — not the window, which stays
    /// where the last roll left it, and not rolled: the meter is cold
    /// again until its next record.
    pub fn reset(&mut self) {
        self.state = 0;
        self.smoothed = 0.0;
    }

    /// `true` while nothing was recorded since the meter's anchor or its
    /// last [`reset`](MeterCell::reset): no open count and no live
    /// average, so it reads `+0.0` however far it is rolled. A row roll
    /// passes such a meter over — rolls compose, so its next record's
    /// own roll brings it to where the skipped rolls would have — and a
    /// meter nothing ever recorded into is its anchor, whatever rolled
    /// around it.
    #[inline]
    pub fn is_cold(&self) -> bool {
        self.state == 0
    }
}

impl std::fmt::Debug for MeterCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeterCell")
            .field("window_start", &self.window_start)
            .field("count_in_window", &(self.state & !WARM))
            .field("smoothed", &self.rate())
            .finish()
    }
}

/// Sorts `(index, rate)` pairs descending by rate, ties by ascending
/// index — the order [`DenseFlowTable::row_doc_rates`] hands out.
///
/// # Panics
///
/// Panics if a rate is NaN.
pub fn sort_hottest_first(rates: &mut [(u32, f64)]) {
    rates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("rates are finite")
            .then(a.0.cmp(&b.0))
    });
}

/// A dense, preallocated flow table: one rate meter per `(row, dense
/// document index)` cell of a [`DocGrid`].
///
/// On the packet-level hot path a node touches its meters once per
/// packet, so they are addressed by `row * docs + index`, with no hash
/// or probe — rows are an interior node's child slots, indices come
/// from the simulation's [`ww_model::DocTable`]. The measurement window
/// and the smoothing factor are stored once for the whole grid. A grid
/// may be narrower than the universe; its owner then reads the columns
/// past it as cold meters.
///
/// Totals are accumulated in ascending index order, which under a
/// `DocTable` is the documents' birth order — a fixed, deterministic
/// float accumulation order.
///
/// # Example
///
/// ```
/// use ww_cache::DenseFlowTable;
///
/// let mut flows = DenseFlowTable::new(1.0, 1.0, 1, 4);
/// for t in [0.1, 0.5, 0.9] {
///     flows.record(0, 2, t);
/// }
/// flows.roll_to(1.0);
/// assert!((flows.rate(0, 2) - 3.0).abs() < 1e-9);
/// assert!((flows.row_total(0) - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct DenseFlowTable {
    window_secs: f64,
    alpha: f64,
    grid: DocGrid<MeterCell>,
}

/// Equality of the measured state: constants, shape, and every live
/// cell. Spare columns hold no state and are not compared.
impl PartialEq for DenseFlowTable {
    fn eq(&self, other: &Self) -> bool {
        self.window_secs == other.window_secs
            && self.alpha == other.alpha
            && self.grid == other.grid
    }
}

impl DenseFlowTable {
    /// Creates a `rows x docs` grid of meters with the given measurement
    /// window and EWMA factor.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs <= 0` or `alpha` outside `(0, 1]`.
    pub fn new(window_secs: f64, alpha: f64, rows: usize, docs: usize) -> Self {
        DenseFlowTable::new_anchored(window_secs, alpha, rows, docs, 0.0)
    }

    /// A grid whose meters open their first window at `start` instead of
    /// time zero — for state created mid-simulation (a joining node, a
    /// freshly published document column), so a meter does not roll
    /// through a history of empty windows it never observed.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs <= 0` or `alpha` outside `(0, 1]`.
    pub fn new_anchored(
        window_secs: f64,
        alpha: f64,
        rows: usize,
        docs: usize,
        start: f64,
    ) -> Self {
        assert!(window_secs > 0.0, "window must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0, 1]");
        DenseFlowTable {
            window_secs,
            alpha,
            grid: DocGrid::new(rows, docs, MeterCell::anchored(start)),
        }
    }

    /// Records one event for `(row, index)` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is outside the grid.
    #[inline]
    pub fn record(&mut self, row: usize, index: u32, now: f64) {
        let (window_secs, alpha) = (self.window_secs, self.alpha);
        self.grid
            .get_mut(row, index)
            .record(now, window_secs, alpha);
    }

    /// Rolls every meter's window forward to `now`, passing the cold
    /// ones over (see [`MeterCell::roll_live`]).
    #[inline]
    pub fn roll_to(&mut self, now: f64) {
        for row in 0..self.grid.row_count() {
            self.roll_row_to(row, now);
        }
    }

    /// Rolls the meters of one row forward to `now`, passing the cold
    /// ones over.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the grid.
    #[inline]
    pub fn roll_row_to(&mut self, row: usize, now: f64) {
        let (window_secs, alpha) = (self.window_secs, self.alpha);
        for cell in self.grid.row_mut(row) {
            cell.roll_live(now, window_secs, alpha);
        }
    }

    /// Smoothed rate of `(row, index)`, 0.0 before the first full window.
    ///
    /// # Panics
    ///
    /// Panics if the cell is outside the grid.
    #[inline]
    pub fn rate(&self, row: usize, index: u32) -> f64 {
        self.grid.get(row, index).rate_or_zero()
    }

    /// Aggregate rate across all documents of `row`, accumulated in
    /// ascending index order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the grid.
    #[inline]
    pub fn row_total(&self, row: usize) -> f64 {
        self.grid.row(row).iter().map(MeterCell::rate_or_zero).sum()
    }

    /// Appends `(index, rate)` pairs with positive rate for `row` to
    /// `out` (cleared first), sorted descending by rate with ascending
    /// index tie-break, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the grid.
    pub fn row_doc_rates(&self, row: usize, out: &mut Vec<(u32, f64)>) {
        out.clear();
        for (k, m) in self.grid.row(row).iter().enumerate() {
            let r = m.rate_or_zero();
            if r > 0.0 {
                out.push((k as u32, r));
            }
        }
        sort_hottest_first(out);
    }

    /// Number of document columns in the grid.
    pub fn doc_count(&self) -> usize {
        self.grid.doc_count()
    }

    /// Number of rows in the grid (kept even when the grid has no
    /// document columns yet).
    pub fn row_count(&self) -> usize {
        self.grid.row_count()
    }

    /// Bytes the grid's buffer holds (capacity, spare cells included).
    pub fn capacity_bytes(&self) -> usize {
        self.grid.capacity_bytes()
    }

    /// The live cells of `row`: window starts, open counts and smoothed
    /// rates — everything the row has measured.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the grid.
    #[inline]
    pub fn row(&self, row: usize) -> &[MeterCell] {
        self.grid.row(row)
    }

    /// The live cells of `row`, to be overwritten with cells copied from
    /// another table's row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the grid.
    pub fn row_mut(&mut self, row: usize) -> &mut [MeterCell] {
        self.grid.row_mut(row)
    }

    /// Appends a row of fresh meters anchored at `now` (a node's new
    /// child slot).
    pub fn push_row(&mut self, now: f64) {
        self.grid.push_row(MeterCell::anchored(now));
    }

    /// Reorders the grid's rows in place from a mapping: `map[new_row]`
    /// names the old row whose meters (history included) the new row
    /// keeps, or `None` for a fresh row anchored at `now`; unnamed old
    /// rows are dropped. See [`DocGrid::reorder_rows`].
    ///
    /// # Panics
    ///
    /// Panics if an entry names a row outside the grid or two entries
    /// name the same row.
    pub fn reorder_rows(&mut self, map: &[Option<usize>], now: f64) {
        self.grid.reorder_rows(map, MeterCell::anchored(now));
    }

    /// Widens the grid to `new_docs` document columns **in place**: the
    /// old columns keep their indices, and the new ones start as fresh
    /// meters anchored at `now`. Measured history survives; see
    /// [`DocGrid::grow_docs`] for how the rows move.
    ///
    /// # Panics
    ///
    /// Panics if `new_docs` is below the current column count.
    pub fn grow_docs(&mut self, new_docs: usize, now: f64) {
        self.grid.grow_docs(new_docs, MeterCell::anchored(now));
    }
}

#[cfg(test)]
#[path = "../tests/old_cell/mod.rs"]
mod old_cell;

#[cfg(test)]
mod tests {
    use super::old_cell::OldCell;
    use super::*;
    use proptest::prelude::*;

    /// One step of a meter's life; time advances in windows.
    #[derive(Debug, Clone)]
    enum Step {
        /// Advance, then record one event.
        Record(f64),
        /// Record this many events at the current instant.
        Burst(u8),
        /// Advance, then roll.
        Roll(f64),
        /// Roll across this many windows at once.
        Quiet(u16),
        Reset,
        Reanchor,
        /// Overwrites the live average with `SEEDS[i]`: awkward bit
        /// patterns the public API only reaches through long histories
        /// (or not at all), which the quiet path must still not skip.
        Seed(usize),
    }

    const SEEDS: [f64; 6] = [-0.0, 0.0, 5e-324, f64::MIN_POSITIVE, 1e-300, 3.5];

    /// Mostly records and short rolls (gaps of 0–5 windows), with the
    /// occasional burst, long quiet run, reset, re-anchor and seed.
    fn step() -> impl Strategy<Value = Step> {
        (0u32..12, 0.0f64..5.0, 6u16..400).prop_map(|(kind, advance, windows)| match kind {
            0..=3 => Step::Record(advance),
            4 | 5 => Step::Burst(1 + (windows % 40) as u8),
            6 | 7 => Step::Roll(advance),
            8 => Step::Quiet(windows),
            9 => Step::Reset,
            10 => Step::Reanchor,
            _ => Step::Seed(windows as usize % SEEDS.len()),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The three-word cell is the four-word cell: same rate, same
        /// window, same count after every step of any history, by bits.
        #[test]
        fn new_roll_is_old_roll_bit_for_bit(
            (wide, sharp, late) in (any::<bool>(), any::<bool>(), any::<bool>()),
            start in 0.0f64..50.0,
            steps in proptest::collection::vec(step(), 1..60),
        ) {
            let window = if wide { 1.0 } else { 0.3 };
            let alpha = if sharp { 1.0 } else { 0.5 };
            let start = if late { start } else { 0.0 };
            let (mut new, mut old) = (MeterCell::anchored(start), OldCell::anchored(start));
            let mut now = start;
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Step::Record(advance) => {
                        now += advance * window;
                        new.record(now, window, alpha);
                        old.record(now, window, alpha);
                    }
                    Step::Burst(events) => {
                        for _ in 0..events {
                            new.record(now, window, alpha);
                            old.record(now, window, alpha);
                        }
                    }
                    Step::Roll(advance) => {
                        now += advance * window;
                        new.roll_to(now, window, alpha);
                        old.roll_to(now, window, alpha);
                    }
                    Step::Quiet(windows) => {
                        now += f64::from(windows) * window;
                        new.roll_to(now, window, alpha);
                        old.roll_to(now, window, alpha);
                    }
                    Step::Reset => {
                        new.reset();
                        old.reset();
                    }
                    Step::Reanchor => {
                        new = MeterCell::anchored(now);
                        old = OldCell::anchored(now);
                    }
                    Step::Seed(pattern) => {
                        new.smoothed = SEEDS[pattern];
                        new.state |= WARM;
                        old.smoothed = Some(SEEDS[pattern]);
                    }
                }
                prop_assert_eq!(
                    new.rate().map(f64::to_bits),
                    old.smoothed.map(f64::to_bits),
                    "rate after step {} ({:?})", i, step
                );
                prop_assert_eq!(new.rate_or_zero().to_bits(), old.rate_or_zero().to_bits());
                prop_assert_eq!(new.window_start.to_bits(), old.window_start.to_bits());
                prop_assert_eq!(new.state & !WARM, old.count_in_window);
            }
        }
    }

    #[test]
    fn meter_measures_steady_rate() {
        let mut m = MeterCell::anchored(0.0);
        for i in 0..50 {
            let t = i as f64 * 0.1; // 10 events/second for 5 seconds
            m.record(t, 1.0, 1.0);
        }
        m.roll_to(5.0, 1.0, 1.0);
        assert!((m.rate().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn meter_rate_none_before_first_window() {
        let mut m = MeterCell::anchored(0.0);
        m.record(0.2, 1.0, 0.5);
        assert!(m.rate().is_none());
        assert_eq!(m.rate_or_zero(), 0.0);
    }

    #[test]
    fn meter_decays_through_empty_windows() {
        let mut m = MeterCell::anchored(0.0);
        for i in 0..10 {
            m.record(i as f64 * 0.1, 1.0, 0.5);
        }
        m.roll_to(1.0, 1.0, 0.5);
        let busy = m.rate().unwrap();
        m.roll_to(6.0, 1.0, 0.5); // five empty windows
        let idle = m.rate().unwrap();
        assert!(idle < busy * 0.1, "rate should decay: {idle} vs {busy}");
    }

    #[test]
    fn ewma_smooths_window_jitter() {
        let mut m = MeterCell::anchored(0.0);
        // Alternating 20/0 events per window; smoothed rate converges
        // toward the 10/s mean band rather than oscillating to extremes.
        for w in 0..20 {
            if w % 2 == 0 {
                for i in 0..20 {
                    m.record(w as f64 + i as f64 / 20.0, 1.0, 0.25);
                }
            }
        }
        m.roll_to(20.0, 1.0, 0.25);
        let r = m.rate().unwrap();
        assert!(r > 4.0 && r < 16.0, "smoothed rate {r}");
    }

    #[test]
    fn flow_table_separates_children_and_docs() {
        // Rows are children, columns documents.
        let mut f = DenseFlowTable::new(1.0, 1.0, 3, 3);
        for i in 0..10 {
            f.record(1, 1, i as f64 * 0.1);
        }
        for i in 0..5 {
            f.record(1, 2, i as f64 * 0.2);
        }
        for i in 0..2 {
            f.record(2, 1, i as f64 * 0.4);
        }
        f.roll_to(1.0);
        assert!((f.rate(1, 1) - 10.0).abs() < 1e-9);
        assert!((f.rate(1, 2) - 5.0).abs() < 1e-9);
        assert!((f.row_total(1) - 15.0).abs() < 1e-9);
        assert!((f.row_total(2) - 2.0).abs() < 1e-9);
        let mut rates = Vec::new();
        f.row_doc_rates(1, &mut rates);
        assert_eq!(rates, vec![(1, 10.0), (2, 5.0)]); // hottest first
    }

    #[test]
    fn unknown_flows_are_zero() {
        let f = DenseFlowTable::new(1.0, 1.0, 2, 2);
        assert_eq!(f.rate(1, 1), 0.0);
        assert_eq!(f.row_total(1), 0.0);
        let mut rates = vec![(0, 1.0)];
        f.row_doc_rates(1, &mut rates);
        assert!(rates.is_empty());
    }

    #[test]
    fn anchored_meter_skips_unobserved_history() {
        // A fresh meter anchored at t=100 closes its first window at 101,
        // not after rolling through a hundred empty ones.
        let mut t = DenseFlowTable::new_anchored(1.0, 1.0, 1, 1, 100.0);
        for at in [100.1, 100.5, 100.9] {
            t.record(0, 0, at);
        }
        t.roll_to(101.0);
        assert!((t.rate(0, 0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn reorder_rows_permutes_and_freshens() {
        let mut t = DenseFlowTable::new(1.0, 1.0, 3, 2);
        t.record(0, 0, 0.1);
        t.record(1, 1, 0.1);
        t.record(1, 1, 0.2);
        t.record(2, 0, 0.3);
        t.roll_to(1.0);
        // New layout: old row 1 first, then a fresh row, then old row 0.
        t.reorder_rows(&[Some(1), None, Some(0)], 1.0);
        assert_eq!(t.row_count(), 3);
        assert!((t.rate(0, 1) - 2.0).abs() < 1e-9);
        assert_eq!(t.rate(1, 0), 0.0);
        assert_eq!(t.rate(1, 1), 0.0);
        assert!((t.rate(2, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grow_docs_widens_in_place_and_reserves_room() {
        let mut t = DenseFlowTable::new(1.0, 1.0, 2, 2);
        t.record(0, 0, 0.1);
        t.record(1, 1, 0.2);
        t.roll_to(1.0);
        // Append a column: the old ones keep their indices.
        t.grow_docs(3, 1.0);
        assert_eq!((t.row_count(), t.doc_count()), (2, 3));
        assert!((t.rate(0, 0) - 1.0).abs() < 1e-9);
        assert_eq!(t.rate(0, 2), 0.0);
        assert!((t.rate(1, 1) - 1.0).abs() < 1e-9);
        // The buffer's capacity doubled, so the next growth finds room.
        let reserved = t.capacity_bytes();
        t.grow_docs(4, 2.0);
        assert_eq!(t.capacity_bytes(), reserved);
        assert!((t.rate(1, 1) - 1.0).abs() < 1e-9);
        // The fresh column meters from its anchor point onward.
        t.record(0, 3, 2.5);
        t.roll_to(3.0);
        assert!((t.rate(0, 3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rows_join_leave_and_migrate_with_their_history() {
        let mut t = DenseFlowTable::new(1.0, 1.0, 2, 2);
        t.record(0, 0, 0.1);
        t.record(1, 1, 0.2);
        t.record(1, 1, 0.3);
        t.roll_row_to(1, 1.0);
        assert_eq!(t.rate(0, 0), 0.0, "row 0 was not rolled");
        assert!((t.rate(1, 1) - 2.0).abs() < 1e-9);
        // A joiner's row is anchored at its join.
        t.push_row(1.0);
        t.record(2, 0, 1.5);
        // Row 1 migrates to another table, history included, and leaves
        // this one: the joiner moves into its slot.
        let mut other = DenseFlowTable::new(1.0, 1.0, 1, 2);
        other.row_mut(0).copy_from_slice(t.row(1));
        t.reorder_rows(&[Some(0), Some(2)], 1.5);
        assert_eq!(t.row_count(), 2);
        t.roll_to(2.0);
        other.roll_to(2.0);
        assert!(
            (t.rate(0, 0) - 0.0).abs() < 1e-9,
            "two windows, the second empty"
        );
        assert!(
            (t.rate(1, 0) - 1.0).abs() < 1e-9,
            "the joiner moved into the gap"
        );
        assert!((other.rate(0, 1) - 0.0).abs() < 1e-9);
        // One cell resets; its neighbours keep their estimate.
        t.record(1, 0, 2.1);
        t.record(1, 1, 2.2);
        t.roll_to(3.0);
        t.row_mut(1)[0].reset();
        assert_eq!(t.rate(1, 0), 0.0);
        assert!((t.rate(1, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_table_without_columns_keeps_its_rows() {
        let mut t = DenseFlowTable::new(1.0, 1.0, 3, 0);
        assert_eq!((t.row_count(), t.doc_count()), (3, 0));
        assert_eq!(t.row_total(2), 0.0);
        t.roll_to(5.0);
        t.grow_docs(1, 5.0);
        assert_eq!((t.row_count(), t.doc_count()), (3, 1));
        t.record(2, 0, 5.5);
        t.roll_to(6.0);
        assert!((t.rate(2, 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_table_without_rows_survives_every_table_operation() {
        // A leaf's per-child table: no rows until it gains a child.
        let mut t = DenseFlowTable::new(1.0, 1.0, 0, 2);
        t.roll_to(3.0);
        t.grow_docs(3, 3.0);
        assert_eq!((t.row_count(), t.doc_count()), (0, 3));
        t.reorder_rows(&[], 3.0);
        assert_eq!(t.row_count(), 0);
        // The first child arrives: one fresh row, anchored at its join.
        t.reorder_rows(&[None], 4.0);
        assert_eq!((t.row_count(), t.doc_count()), (1, 3));
        t.record(0, 2, 4.5);
        t.roll_to(5.0);
        assert!((t.rate(0, 2) - 1.0).abs() < 1e-9);
        // ...and departs again.
        t.reorder_rows(&[], 5.0);
        assert_eq!(t.row_count(), 0);
        t.roll_to(9.0);
    }

    #[test]
    fn a_row_roll_passes_cold_meters_over() {
        let mut t = DenseFlowTable::new_anchored(1.0, 0.5, 1, 2, 0.25);
        t.record(0, 0, 0.5);
        t.roll_to(3.5);
        // The cold cell is still its anchor; the live one rolled.
        assert_eq!(t.row(0)[1], MeterCell::anchored(0.25));
        assert!(t.row(0)[1].is_cold() && !t.row(0)[0].is_cold());
        // Its first record lands where a cell rolled all along would.
        let mut rolled = MeterCell::anchored(0.25);
        rolled.roll_to(3.5, 1.0, 0.5);
        rolled.record(5.2, 1.0, 0.5);
        t.record(0, 1, 5.2);
        assert_eq!(t.row(0)[1], rolled);
    }

    #[test]
    fn a_grid_cell_is_three_words() {
        // The per-table constants live once per table, not per cell,
        // and "warm" is a bit of the count, not an `Option` tag.
        assert_eq!(std::mem::size_of::<MeterCell>(), 24);
        assert_eq!(std::mem::size_of::<OldCell>(), 32);
    }
}
