//! Ragged rows as runs of one buffer.
//!
//! A [`RunPool`] keeps every row's cells — a node's serve slots, its
//! `seen` meters, its demand entries — as one contiguous run of a single
//! buffer, and a [`Run`] per row says where. Reading a row is one span
//! load and then the cells, with no per-row heap block between them.
//! The pool is the only code that knows where a cell sits in the
//! buffer: a caller reads and writes a row through its run
//! ([`RunPool::of`], [`RunPool::cell`] and their `_mut` forms).
//!
//! A run at the end of the buffer grows in place; any other run that
//! grows moves to the end first, leaving a hole where it was, and a
//! departed row's run becomes a hole ([`RunPool::vacate`]). Callers
//! never pack. The pool checks its holes after every edit that makes
//! them — an [`insert`](RunPool::insert), an
//! [`extend`](RunPool::extend), a [`vacate`](RunPool::vacate) — and
//! packs in place once they are a fifth of the buffer and an eighth of
//! a cell per row, so appending rows in row order never copies a run
//! and no order of edits lets the buffer outgrow its rows. A pool's
//! [`PoolKind`] says where a row keeps its run and how a full buffer
//! makes room ([`Growth`]); both are fixed at compile time, so an
//! access calls nothing.

use crate::reserve_slack;
use std::marker::PhantomData;
use std::ops::Range;

/// Where one row's run sits in a pool's buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Run {
    /// The run's first cell.
    pub start: u32,
    /// The run's number of cells.
    pub len: u32,
}

impl Run {
    /// The run's cells, as buffer indices.
    #[inline]
    pub fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// A buffer index, as a run stores it.
fn to_u32(at: usize) -> u32 {
    u32::try_from(at).expect("pool buffers fit 32-bit indices")
}

/// How a pool's full buffer makes room for more cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Growth {
    /// As `Vec::reserve` does: the buffer doubles.
    Doubling,
    /// By a sixteenth of the buffer, at least by what is asked
    /// ([`reserve_slack`]).
    Sixteenths,
    /// By sixteenths when the last run grows. A run that moves to the
    /// end makes room for itself and its new cells plus as many cells
    /// as the holes already in the buffer: the first move into a buffer
    /// built exactly full requests that one run, not a sixteenth of
    /// every row, and the requests double with the moves until a pack
    /// takes their holes back.
    MovesByHoles,
}

/// A kind of pool: where a row keeps the pool's run, and how the
/// pool's full buffer grows.
pub trait PoolKind {
    /// The record of runs one row keeps: a [`Run`] itself, or one run
    /// per pool, of which [`PoolKind::run`] picks this pool's.
    type Row;
    /// How a full buffer makes room.
    const GROWTH: Growth;
    /// This pool's run of `row`.
    fn run(row: &mut Self::Row) -> &mut Run;
}

/// Every row's run of one kind of cell in one buffer, each run
/// contiguous and in the row's own order.
///
/// The rows' runs live with the caller, in a slice of `K::Row`, so one
/// row record can address several pools.
///
/// # Example
///
/// ```
/// use ww_model::runpool::{Growth, PoolKind, Run, RunPool};
///
/// enum Rows {}
/// impl PoolKind for Rows {
///     type Row = Run;
///     const GROWTH: Growth = Growth::Sixteenths;
///     fn run(row: &mut Run) -> &mut Run {
///         row
///     }
/// }
/// let mut pool = RunPool::<u32, Rows>::new();
/// let mut runs = vec![pool.push_run(&[1, 2]), pool.push_run(&[3, 4, 5, 6, 7, 8, 9])];
/// // Row 0 is not last: it moves to the end, leaving two holes.
/// pool.insert(&mut runs, 0, 2, 10);
/// assert_eq!(pool.of(runs[0]), &[1, 2, 10]);
/// assert_eq!((pool.len(), pool.holes()), (12, 2));
/// // Row 1 leaves: nine holes in twelve cells, so the pool packs.
/// let gone = runs.swap_remove(1);
/// pool.vacate(&mut runs, [gone]);
/// assert_eq!((pool.len(), pool.holes()), (3, 0));
/// assert_eq!(pool.of(runs[0]), &[1, 2, 10]);
/// ```
#[derive(Debug)]
pub struct RunPool<T, K> {
    cells: Vec<T>,
    /// The cells no run covers: the old places of runs that moved to
    /// the end, departed rows' runs.
    holes: usize,
    kind: PhantomData<K>,
}

impl<T: Clone, K> Clone for RunPool<T, K> {
    fn clone(&self) -> Self {
        RunPool {
            cells: self.cells.clone(),
            holes: self.holes,
            kind: PhantomData,
        }
    }

    /// Overwrites this pool in place, reusing its buffer.
    fn clone_from(&mut self, source: &Self) {
        self.cells.clone_from(&source.cells);
        self.holes = source.holes;
    }
}

impl<T: Copy, K: PoolKind> Default for RunPool<T, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, K: PoolKind> RunPool<T, K> {
    /// An empty pool.
    pub fn new() -> Self {
        RunPool {
            cells: Vec::new(),
            holes: 0,
            kind: PhantomData,
        }
    }

    /// The cells of `run`.
    #[inline]
    pub fn of(&self, run: Run) -> &[T] {
        &self.cells[run.range()]
    }

    /// The cells of `run`, to write in place.
    #[inline]
    pub fn of_mut(&mut self, run: Run) -> &mut [T] {
        &mut self.cells[run.range()]
    }

    /// Cell `i` of `run`: one bounds check, against the buffer.
    ///
    /// # Panics
    ///
    /// Panics if the cell lies past the buffer, and in a debug build if
    /// `i` is past the run.
    #[inline]
    pub fn cell(&self, run: Run, i: usize) -> &T {
        debug_assert!(i < run.len as usize, "cell past the run's end");
        &self.cells[run.start as usize + i]
    }

    /// Cell `i` of `run`, to write in place (see [`RunPool::cell`]).
    #[inline]
    pub fn cell_mut(&mut self, run: Run, i: usize) -> &mut T {
        debug_assert!(i < run.len as usize, "cell past the run's end");
        &mut self.cells[run.start as usize + i]
    }

    /// The buffer's cells: every run's plus the holes.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the buffer holds no cell.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells no run covers.
    pub fn holes(&self) -> usize {
        self.holes
    }

    /// Cells the buffer holds room for.
    pub fn capacity(&self) -> usize {
        self.cells.capacity()
    }

    /// Takes `cells` as the buffer, with no holes: the caller has set
    /// every row's run over it.
    pub fn replace(&mut self, cells: Vec<T>) {
        self.cells = cells;
        self.holes = 0;
    }

    /// Counts the runs of the rows that left, `gone`, as holes, and
    /// packs once if they are past the limit. The caller has removed
    /// the rows from `spans` first: it addresses the rows that stay.
    pub fn vacate(&mut self, spans: &mut [K::Row], gone: impl IntoIterator<Item = Run>) {
        self.holes += gone.into_iter().map(|run| run.len as usize).sum::<usize>();
        self.pack_if_holey(spans);
    }

    /// Inserts `cell` at place `at` of row `row`'s run.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `at` past the run's end.
    pub fn insert(&mut self, spans: &mut [K::Row], row: usize, at: usize, cell: T) {
        assert!(
            at <= K::run(&mut spans[row]).len as usize,
            "insert past the run's end"
        );
        let run = self.make_room(spans, row, 1);
        self.cells.insert(run.start as usize + at, cell);
        self.pack_if_holey(spans);
    }

    /// Appends `cells` to the end of row `row`'s run.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn extend(
        &mut self,
        spans: &mut [K::Row],
        row: usize,
        cells: impl ExactSizeIterator<Item = T>,
    ) {
        self.make_room(spans, row, cells.len());
        self.cells.extend(cells);
        self.pack_if_holey(spans);
    }

    /// Makes room for `added` cells at the end of row `row`'s run, and
    /// counts them in it: the run moves to the end of the buffer unless
    /// it is there already. Returns the grown run; the caller writes its
    /// last `added` cells, which the buffer does not hold yet.
    #[inline]
    fn make_room(&mut self, spans: &mut [K::Row], row: usize, added: usize) -> Run {
        let run = *K::run(&mut spans[row]);
        if run.range().end == self.cells.len() {
            self.reserve(added, false);
        } else {
            self.reserve(run.len as usize + added, true);
            let start = self.cells.len();
            self.cells.extend_from_within(run.range());
            self.holes += run.len as usize;
            K::run(&mut spans[row]).start = to_u32(start);
        }
        let run = K::run(&mut spans[row]);
        run.len += to_u32(added);
        *run
    }

    /// Makes room for `additional` more cells: a run's new cells, and
    /// the run itself when it is `moving` to the end.
    #[inline]
    fn reserve(&mut self, additional: usize, moving: bool) {
        match K::GROWTH {
            Growth::Doubling => self.cells.reserve(additional),
            Growth::MovesByHoles if moving => {
                if self.cells.len() + additional > self.cells.capacity() {
                    self.cells.reserve_exact(additional + self.holes);
                }
            }
            Growth::Sixteenths | Growth::MovesByHoles => reserve_slack(&mut self.cells, additional),
        }
    }

    /// Appends a copy of `cells` as a run, returning it.
    pub fn push_run(&mut self, cells: &[T]) -> Run {
        let start = to_u32(self.cells.len());
        reserve_slack(&mut self.cells, cells.len());
        self.cells.extend_from_slice(cells);
        Run {
            start,
            len: to_u32(cells.len()),
        }
    }

    /// Packs the buffer once the holes are a fifth of it, and an eighth
    /// of a cell per row of `spans`: the copies that made them pay for
    /// the pack's sort of the rows.
    #[inline]
    fn pack_if_holey(&mut self, spans: &mut [K::Row]) {
        if 4 * self.holes >= self.cells.len() - self.holes && 8 * self.holes >= spans.len() {
            self.pack(spans);
        }
    }

    /// Closes the holes in place: every run moves down to follow the one
    /// before it in the buffer.
    fn pack(&mut self, spans: &mut [K::Row]) {
        if self.holes == 0 {
            return;
        }
        let mut order: Vec<u32> = (0..to_u32(spans.len())).collect();
        order.sort_unstable_by_key(|&row| K::run(&mut spans[row as usize]).start);
        let mut end = 0;
        for row in order {
            let span = K::run(&mut spans[row as usize]);
            self.cells.copy_within(span.range(), end);
            span.start = to_u32(end);
            end += span.len as usize;
        }
        self.cells.truncate(end);
        self.holes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    enum ByHoles {}
    enum BySixteenths {}
    impl PoolKind for ByHoles {
        type Row = Run;
        const GROWTH: Growth = Growth::MovesByHoles;
        fn run(row: &mut Run) -> &mut Run {
            row
        }
    }
    impl PoolKind for BySixteenths {
        type Row = Run;
        const GROWTH: Growth = Growth::Sixteenths;
        fn run(row: &mut Run) -> &mut Run {
            row
        }
    }

    /// A pool of `rows` runs of `len` cells each, built exactly full.
    fn built<K: PoolKind<Row = Run>>(rows: usize, len: u32) -> (RunPool<u32, K>, Vec<Run>) {
        let mut pool = RunPool::new();
        pool.replace(Vec::with_capacity(rows * len as usize));
        let runs = (0..rows as u32)
            .map(|r| pool.push_run(&vec![r; len as usize]))
            .collect();
        assert_eq!(pool.capacity(), rows * len as usize);
        (pool, runs)
    }

    #[test]
    fn a_move_into_a_full_buffer_requests_the_run_alone() {
        let (mut pool, mut runs) = built::<ByHoles>(1000, 8);
        pool.insert(&mut runs, 10, 8, 7);
        assert_eq!(pool.capacity(), 8000 + 9);
        assert_eq!(pool.of(runs[10]), &[10, 10, 10, 10, 10, 10, 10, 10, 7]);
        // The next moves request as much again as the holes.
        pool.insert(&mut runs, 20, 0, 7);
        assert_eq!(pool.capacity(), 8009 + 9 + 8);
        // Sixteenths grow the same full buffer by a sixteenth.
        let (mut pool, mut runs) = built::<BySixteenths>(1000, 8);
        pool.insert(&mut runs, 10, 8, 7);
        assert_eq!(pool.capacity(), 8000 + 500);
    }

    #[test]
    fn moves_by_holes_keep_the_buffer_within_its_rows() {
        // Every row grows in turn, last row first: each grows away from
        // the end, so every insert moves a run.
        let (mut pool, mut runs) = built::<ByHoles>(200, 4);
        let mut grows = 0;
        for round in 0..6 {
            for row in (0..200).rev() {
                let before = pool.capacity();
                pool.insert(&mut runs, row, 0, round);
                grows += usize::from(pool.capacity() != before);
            }
        }
        let live: usize = runs.iter().map(|r| r.len as usize).sum();
        assert_eq!(live, 200 * 10);
        assert_eq!(pool.len(), live + pool.holes());
        assert!(
            pool.holes() < (live / 4).max(25) + 10,
            "{} holes",
            pool.holes()
        );
        assert!(pool.capacity() < 2 * live, "capacity {}", pool.capacity());
        assert!(grows < 30, "{grows} reallocations over 1200 moves");
        for (row, run) in runs.iter().enumerate() {
            assert_eq!(pool.of(*run)[..6], [5, 4, 3, 2, 1, 0]);
            assert_eq!(pool.of(*run)[6..], [row as u32; 4]);
        }
    }
}
