//! [`DocGrid`]: a row-major `rows x documents` slab.
//!
//! The packet engines keep every per-(node, document) quantity — rate
//! meter cells, token buckets — in grids whose rows are nodes (or a
//! node's child slots) and whose columns are the dense indices of a
//! [`DocTable`](crate::DocTable): cell `(row, doc)` lives at
//! `row * docs + doc` of one buffer, so an access loads no per-row
//! header first. Every barrier operation is a row or column operation on
//! the grid: a join pushes a row, a leave swap-removes one, a publish
//! widens every row in place (each row moves with one copy), a shard
//! migration compacts the donor's rows and appends to the recipient's.

/// Makes room for `additional` more elements in a slab-sized vector
/// that grows a row at a time: a full buffer grows by a sixteenth of
/// its capacity (at least by what is asked), not by the doubling
/// `Vec::push` would pick — a slab holds the state of tens of thousands
/// of nodes, a join adds one, and doubling it would request (and, at
/// the next column growth, quadruple) the whole run's state for it.
/// Pushes stay amortized `O(1)`.
pub fn reserve_slack<T>(v: &mut Vec<T>, additional: usize) {
    if v.len() + additional > v.capacity() {
        v.reserve_exact(additional.max(v.capacity() / 16));
    }
}

/// A dense grid of `T`, `rows x docs` cells, row-major with no spare
/// cells: [`DocGrid::grow_docs`] widens every row to exactly the grown
/// column count.
///
/// # Example
///
/// ```
/// use ww_model::DocGrid;
///
/// let mut g = DocGrid::new(2, 2, 0u32);
/// *g.get_mut(1, 1) = 7;
/// g.grow_docs(3, 0); // a column appended to every row
/// assert_eq!(g.row(1), &[0, 7, 0]);
/// g.push_row(1);
/// g.swap_remove_row(0);
/// assert_eq!((g.row(0), g.row(1)), (&[1, 1, 1][..], &[0, 7, 0][..]));
/// ```
#[derive(Debug, Clone)]
pub struct DocGrid<T> {
    rows: usize,
    docs: usize,
    cells: Vec<T>,
}

/// Equality of the live cells and the shape (not of the capacity).
impl<T: Copy + PartialEq> PartialEq for DocGrid<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.docs == other.docs
            && (0..self.rows).all(|row| self.row(row) == other.row(row))
    }
}

impl<T: Copy> DocGrid<T> {
    /// A `rows x docs` grid with every cell `fill`.
    pub fn new(rows: usize, docs: usize, fill: T) -> Self {
        DocGrid {
            rows,
            docs,
            cells: vec![fill; rows * docs],
        }
    }

    /// Number of rows (kept even while the grid has no columns yet).
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Number of live document columns.
    pub fn doc_count(&self) -> usize {
        self.docs
    }

    /// Bytes the grid's buffer holds (its capacity, spare cells
    /// included).
    pub fn capacity_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<T>()
    }

    #[inline]
    fn at(&self, row: usize, index: u32) -> usize {
        // A real assert, not debug_assert: in release an out-of-range doc
        // index would otherwise alias into the next row's cells instead
        // of panicking as documented.
        assert!((index as usize) < self.docs, "doc index out of range");
        row * self.docs + index as usize
    }

    /// The cell at `(row, index)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is outside the grid.
    #[inline]
    pub fn get(&self, row: usize, index: u32) -> &T {
        &self.cells[self.at(row, index)]
    }

    /// The cell at `(row, index)`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the cell is outside the grid.
    #[inline]
    pub fn get_mut(&mut self, row: usize, index: u32) -> &mut T {
        let at = self.at(row, index);
        &mut self.cells[at]
    }

    /// The live cells of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the grid.
    #[inline]
    pub fn row(&self, row: usize) -> &[T] {
        &self.cells[row * self.docs..row * self.docs + self.docs]
    }

    /// The live cells of `row`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the grid.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        &mut self.cells[row * self.docs..row * self.docs + self.docs]
    }

    /// Appends a row of `fill` cells (a join).
    pub fn push_row(&mut self, fill: T) {
        reserve_slack(&mut self.cells, self.docs);
        self.rows += 1;
        self.cells.resize(self.rows * self.docs, fill);
    }

    /// Appends a row holding a copy of `live` (one cell per document
    /// column; a migrated row arriving from another grid).
    ///
    /// # Panics
    ///
    /// Panics if `live` does not cover the document columns.
    pub fn push_row_from(&mut self, live: &[T]) {
        assert_eq!(live.len(), self.docs, "a row covers every column");
        reserve_slack(&mut self.cells, self.docs);
        self.cells.extend_from_slice(live);
        self.rows += 1;
    }

    /// Removes `row` by moving the last row into its place — the id
    /// compaction a leave applies to the tree.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the grid.
    pub fn swap_remove_row(&mut self, row: usize) {
        assert!(row < self.rows, "row {row} out of range");
        let last = self.rows - 1;
        if row != last {
            self.cells
                .copy_within(last * self.docs..(last + 1) * self.docs, row * self.docs);
        }
        self.rows = last;
        self.cells.truncate(last * self.docs);
    }

    /// Keeps the rows for which `keep(row)` holds, in order, closing the
    /// gaps in one pass over the buffer (a shard migration's donor
    /// side), and returns the buffer's surplus to the allocator.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut kept = 0;
        for row in 0..self.rows {
            if keep(row) {
                if kept != row {
                    self.cells
                        .copy_within(row * self.docs..(row + 1) * self.docs, kept * self.docs);
                }
                kept += 1;
            }
        }
        self.rows = kept;
        self.cells.truncate(kept * self.docs);
        self.cells.shrink_to_fit();
    }

    /// Reorders the rows in place from a mapping: `map[new_row]` names
    /// the old row the new row keeps, or `None` for a row of `fresh`
    /// cells. Old rows no entry names are dropped. This is the
    /// per-child-slot surgery a topology change applies when a node's
    /// child list is renumbered; it moves rows along the permutation's
    /// cycles, so it needs an index vector and no second grid.
    ///
    /// # Panics
    ///
    /// Panics if an entry names a row outside the grid or two entries
    /// name the same row.
    pub fn reorder_rows(&mut self, map: &[Option<usize>], fresh: T) {
        let total = self.rows.max(map.len());
        // Extend the mapping to a permutation of `0..total`, as
        // `dest[old] = new`: unnamed old rows (and, when the grid grows,
        // the rows appended below) go to the `None` slots and to the
        // tail that is cut off afterwards.
        const UNNAMED: usize = usize::MAX;
        let mut dest = vec![UNNAMED; total];
        for (new, &src) in map.iter().enumerate() {
            if let Some(old) = src {
                assert!(
                    old < self.rows,
                    "row {old} out of range ({} rows)",
                    self.rows
                );
                assert_eq!(dest[old], UNNAMED, "row {old} named twice");
                dest[old] = new;
            }
        }
        let mut open = (0..total).filter(|&new| !matches!(map.get(new), Some(Some(_))));
        for d in dest.iter_mut().filter(|d| **d == UNNAMED) {
            *d = open.next().expect("as many open slots as unnamed rows");
        }
        self.cells.resize(total * self.docs, fresh);
        // Every swap puts one row in its final slot.
        for i in 0..total {
            while dest[i] != i {
                let d = dest[i];
                dest.swap(i, d);
                let (lo, hi) = (i.min(d), i.max(d));
                let (head, tail) = self.cells.split_at_mut(hi * self.docs);
                head[lo * self.docs..(lo + 1) * self.docs].swap_with_slice(&mut tail[..self.docs]);
            }
        }
        self.rows = map.len();
        self.cells.truncate(self.rows * self.docs);
        for (new, src) in map.iter().enumerate() {
            if src.is_none() {
                self.cells[new * self.docs..(new + 1) * self.docs].fill(fresh);
            }
        }
    }

    /// Widens every row to `new_docs` columns **in place**: the old
    /// columns keep their indices, and the new ones, at the end of each
    /// row, start as `fresh`. A document's column is its birth order
    /// ([`DocTable`](crate::DocTable)), so this is how a growing
    /// universe (a publish, a shifted mix with new ids) reaches every
    /// dense per-document slab while its history survives.
    ///
    /// The rows move inside the existing buffer, last row first, each
    /// with one `copy_within`, and their new columns are filled. Rows
    /// are exactly `new_docs` wide afterwards. The buffer's capacity
    /// grows geometrically (`Vec::resize`), so a run of publishes
    /// reallocates rarely, and the capacity past the live cells is
    /// never written, so it is never resident.
    ///
    /// # Panics
    ///
    /// Panics if `new_docs` is below the current column count.
    pub fn grow_docs(&mut self, new_docs: usize, fresh: T) {
        assert!(new_docs >= self.docs, "a universe never shrinks");
        self.cells.resize(self.rows * new_docs, fresh);
        // A row lands at or after where it was, and the rows not yet
        // moved lie before it: no cell still to be read is overwritten.
        for row in (0..self.rows).rev() {
            let (src, dst) = (row * self.docs, row * new_docs);
            self.cells.copy_within(src..src + self.docs, dst);
            self.cells[dst + self.docs..dst + new_docs].fill(fresh);
        }
        self.docs = new_docs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(rows: usize, docs: usize) -> DocGrid<u32> {
        let mut g = DocGrid::new(rows, docs, 0);
        for row in 0..rows {
            for k in 0..docs as u32 {
                *g.get_mut(row, k) = 10 * row as u32 + k + 1;
            }
        }
        g
    }

    #[test]
    fn rows_push_and_swap_remove() {
        let mut g = grid(3, 2);
        g.push_row(9);
        assert_eq!(g.row(3), &[9, 9]);
        g.swap_remove_row(1);
        assert_eq!(g.row_count(), 3);
        assert_eq!(
            (g.row(0), g.row(1), g.row(2)),
            (&[1, 2][..], &[9, 9][..], &[21, 22][..])
        );
        g.swap_remove_row(2);
        assert_eq!(g.row_count(), 2);
        g.push_row_from(&[5, 6]);
        assert_eq!(g.row(2), &[5, 6]);
    }

    #[test]
    fn retain_rows_compacts_stably() {
        let mut g = grid(5, 3);
        g.retain_rows(|row| row % 2 == 1);
        assert_eq!(g.row_count(), 2);
        assert_eq!((g.row(0), g.row(1)), (&[11, 12, 13][..], &[31, 32, 33][..]));
        g.retain_rows(|_| false);
        assert_eq!(g.row_count(), 0);
    }

    #[test]
    fn reorder_rows_permutes_drops_and_freshens_in_place() {
        let mut g = grid(4, 2);
        // Old row 3 first, a fresh row, old row 0; rows 1 and 2 dropped.
        g.reorder_rows(&[Some(3), None, Some(0)], 7);
        assert_eq!(g.row_count(), 3);
        assert_eq!(
            (g.row(0), g.row(1), g.row(2)),
            (&[31, 32][..], &[7, 7][..], &[1, 2][..])
        );
        // Growing: two fresh rows around the survivors.
        g.reorder_rows(&[None, Some(2), Some(0), None, Some(1)], 8);
        let rows: Vec<&[u32]> = (0..5).map(|r| g.row(r)).collect();
        assert_eq!(rows, [&[8, 8][..], &[1, 2], &[31, 32], &[8, 8], &[7, 7]]);
        g.reorder_rows(&[], 0);
        assert_eq!(g.row_count(), 0);
    }

    #[test]
    #[should_panic(expected = "named twice")]
    fn reorder_rows_rejects_duplicates() {
        grid(2, 1).reorder_rows(&[Some(0), Some(0)], 0);
    }

    #[test]
    fn columns_grow_on_a_strided_buffer() {
        let mut g = grid(2, 2);
        g.grow_docs(3, 0);
        assert_eq!((g.row(0), g.row(1)), (&[1, 2, 0][..], &[11, 12, 0][..]));
        // Rows are exactly 3 wide, but the buffer's capacity doubled to
        // eight cells: the next growth reallocates nothing.
        let reserved = g.capacity_bytes();
        g.grow_docs(4, 5);
        assert_eq!(g.capacity_bytes(), reserved);
        assert_eq!(g.row(1), &[11, 12, 0, 5]);
        // Rows pushed and removed after the growth stay aligned.
        g.push_row(6);
        g.swap_remove_row(0);
        assert_eq!(
            (g.row(0), g.row(1)),
            (&[6, 6, 6, 6][..], &[11, 12, 0, 5][..])
        );
    }

    #[test]
    fn a_grid_without_columns_keeps_its_rows() {
        let mut g = DocGrid::new(2, 0, 0u8);
        g.push_row(0);
        g.swap_remove_row(0);
        g.reorder_rows(&[Some(1), Some(0), None], 0);
        assert_eq!((g.row_count(), g.doc_count()), (3, 0));
        g.grow_docs(2, 4);
        assert_eq!(g.row(2), &[4, 4]);
    }
}
