//! Property-based tests for the cache-server substrate.

mod old_cell;

use old_cell::OldCell;
use proptest::prelude::*;
use ww_cache::{plan_push, plan_shed, plan_total, DenseFlowTable};
use ww_model::DocId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Push plans never move more than the target nor more than the
    /// available flow, and per-doc slices never exceed their flow.
    #[test]
    fn push_plan_bounds(
        flows in proptest::collection::vec((0u64..100, 0.0f64..50.0), 0..20),
        target in 0.0f64..500.0
    ) {
        let flows: Vec<(DocId, f64)> = flows
            .into_iter()
            .map(|(d, r)| (DocId::new(d), r))
            .collect();
        // Deduplicate doc ids (keep the first occurrence).
        let mut seen = std::collections::HashSet::new();
        let flows: Vec<(DocId, f64)> = flows
            .into_iter()
            .filter(|(d, _)| seen.insert(*d))
            .collect();
        let plan = plan_push(&flows, target);
        let total = plan_total(&plan);
        let available: f64 = flows.iter().map(|&(_, r)| r).sum();
        prop_assert!(total <= target + 1e-9);
        prop_assert!(total <= available + 1e-9);
        for slice in &plan {
            let flow = flows.iter().find(|&&(d, _)| d == slice.doc).unwrap().1;
            prop_assert!(slice.rate <= flow + 1e-9);
            prop_assert!(slice.rate > 0.0);
            if slice.full {
                prop_assert!((slice.rate - flow).abs() < 1e-9);
            }
        }
        // The plan moves min(target, available) — it never undershoots.
        prop_assert!((total - target.min(available)).abs() < 1e-6);
    }

    /// Shed plans obey the same bounds and prefer colder documents.
    #[test]
    fn shed_plan_bounds_and_order(
        served in proptest::collection::vec((0u64..100, 0.001f64..50.0), 1..20),
        target in 0.0f64..500.0
    ) {
        let mut seen = std::collections::HashSet::new();
        let served: Vec<(DocId, f64)> = served
            .into_iter()
            .map(|(d, r)| (DocId::new(d), r))
            .filter(|(d, _)| seen.insert(*d))
            .collect();
        let plan = plan_shed(&served, target);
        let available: f64 = served.iter().map(|&(_, r)| r).sum();
        prop_assert!(plan_total(&plan) <= target.min(available) + 1e-6);
        // Full slices appear in nondecreasing rate order (coldest first).
        let fulls: Vec<f64> = plan.iter().filter(|s| s.full).map(|s| s.rate).collect();
        for w in fulls.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
    }

    /// Flow tables: row totals equal the sum of per-doc rates.
    #[test]
    fn flow_table_totals_consistent(
        events in proptest::collection::vec((0usize..4, 0u32..8, 0.0f64..0.99), 1..200)
    ) {
        let mut table = DenseFlowTable::new(1.0, 1.0, 4, 8);
        for &(child, doc, t) in &events {
            table.record(child, doc, t);
        }
        table.roll_to(1.0);
        let mut rates = Vec::new();
        for child in 0..4 {
            table.row_doc_rates(child, &mut rates);
            let sum: f64 = rates.iter().map(|&(_, r)| r).sum();
            prop_assert!((table.row_total(child) - sum).abs() < 1e-9);
        }
    }

    /// Rates measured over one window equal the event count (window = 1s).
    #[test]
    fn flow_rates_equal_counts(
        counts in proptest::collection::vec(0usize..30, 1..5)
    ) {
        let mut table = DenseFlowTable::new(1.0, 1.0, 1, counts.len());
        for (doc, &count) in counts.iter().enumerate() {
            for k in 0..count {
                let t = k as f64 / (count.max(1) as f64 + 1.0);
                table.record(0, doc as u32, t);
            }
        }
        table.roll_to(1.0);
        for (doc, &count) in counts.iter().enumerate() {
            prop_assert!((table.rate(0, doc as u32) - count as f64).abs() < 1e-9);
        }
    }

    /// In-place column growth equals rebuilding the grid, cell for cell:
    /// one row and many, with and without the spare capacity an earlier
    /// growth left behind — and the tables keep measuring identically
    /// afterwards.
    #[test]
    fn grow_docs_in_place_equals_a_rebuilt_grid(
        rows in 0usize..4,
        docs in 0usize..10,
        first in 0usize..10,
        second in 0usize..6,
        events in proptest::collection::vec((0usize..4, 0u32..16, 0.0f64..3.0), 0..60),
    ) {
        // Every old column keeps its index.
        let identity = |docs: usize| -> Vec<u32> { (0..docs as u32).collect() };
        let feed = |t: &mut DenseFlowTable, salt: f64| {
            if t.row_count() == 0 || t.doc_count() == 0 {
                return;
            }
            for &(row, k, at) in &events {
                t.record(row % t.row_count(), k % t.doc_count() as u32, salt + at);
            }
            t.roll_to(salt + 3.0);
        };
        let mut in_place = DenseFlowTable::new(1.0, 0.5, rows, docs);
        feed(&mut in_place, 0.0);
        let mut rebuilt = in_place.clone();
        let wide = docs + first;
        in_place.grow_docs(wide, 3.0);
        rebuilt = remap_docs(&rebuilt, &identity(docs), wide, 3.0);
        prop_assert_eq!(&in_place, &rebuilt);
        feed(&mut in_place, 3.0);
        feed(&mut rebuilt, 3.0);
        prop_assert_eq!(&in_place, &rebuilt);
        // A second growth: `in_place` may now hold spare columns.
        in_place.grow_docs(wide + second, 6.0);
        rebuilt = remap_docs(&rebuilt, &identity(wide), wide + second, 6.0);
        prop_assert_eq!(&in_place, &rebuilt);
        feed(&mut in_place, 6.0);
        feed(&mut rebuilt, 6.0);
        prop_assert_eq!(&in_place, &rebuilt);
    }

    /// A grid of three-word cells measures what a grid of four-word
    /// cells measured: after every record, row roll, whole-table roll,
    /// cell reset and fresh row of any script — gaps of 0–5 windows,
    /// bursts, long quiet runs — every rate, `row_total` and
    /// `row_doc_rates` agree with the old formula's, by bits.
    #[test]
    fn dense_rolls_match_the_four_word_cell(
        (wide, sharp) in (any::<bool>(), any::<bool>()),
        (rows, docs) in (1usize..4, 1usize..9),
        script in proptest::collection::vec(
            (0u32..10, 0usize..8, 0u32..16, 0.0f64..5.0, 6u32..300),
            1..80,
        ),
    ) {
        let window = if wide { 1.0 } else { 0.3 };
        let alpha = if sharp { 1.0 } else { 0.5 };
        let mut table = DenseFlowTable::new(window, alpha, rows, docs);
        let mut model = vec![vec![OldCell::anchored(0.0); docs]; rows];
        let (mut now, mut rates) = (0.0f64, Vec::new());
        for &(kind, row, k, advance, quiet) in &script {
            let (row, k) = (row % model.len(), k % docs as u32);
            match kind {
                0..=2 => {
                    now += advance * window;
                    table.record(row, k, now);
                    model[row][k as usize].record(now, window, alpha);
                }
                3 => {
                    for _ in 0..quiet % 40 {
                        table.record(row, k, now);
                        model[row][k as usize].record(now, window, alpha);
                    }
                }
                4 | 5 => {
                    now += advance * window;
                    table.roll_row_to(row, now);
                    for cell in &mut model[row] {
                        cell.roll_to(now, window, alpha);
                    }
                }
                7 => {
                    table.row_mut(row)[k as usize].reset();
                    model[row][k as usize].reset();
                }
                8 => {
                    table.push_row(now);
                    model.push(vec![OldCell::anchored(now); docs]);
                }
                // The whole table rolls: a short gap, or (6) a long
                // quiet run.
                _ => {
                    now += if kind == 6 { f64::from(quiet) } else { advance } * window;
                    table.roll_to(now);
                    for cell in model.iter_mut().flatten() {
                        cell.roll_to(now, window, alpha);
                    }
                }
            }
            for (row, cells) in model.iter().enumerate() {
                for (k, cell) in cells.iter().enumerate() {
                    prop_assert_eq!(
                        table.rate(row, k as u32).to_bits(),
                        cell.rate_or_zero().to_bits(),
                        "cell ({}, {}) at {}", row, k, now
                    );
                }
                let total: f64 = cells.iter().map(OldCell::rate_or_zero).sum();
                prop_assert_eq!(table.row_total(row).to_bits(), total.to_bits());
                let mut expect: Vec<(u32, u64)> = cells
                    .iter()
                    .enumerate()
                    .map(|(k, cell)| (k as u32, cell.rate_or_zero()))
                    .filter(|&(_, r)| r > 0.0)
                    .map(|(k, r)| (k, r.to_bits()))
                    .collect();
                // Descending rate (positive floats order as their
                // bits), ascending index on ties.
                expect.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                table.row_doc_rates(row, &mut rates);
                let got: Vec<(u32, u64)> = rates.iter().map(|&(k, r)| (k, r.to_bits())).collect();
                prop_assert_eq!(got, expect, "row {}", row);
            }
        }
    }
}

/// [`DenseFlowTable::grow_docs`] by construction of a **new** grid of
/// exactly `new_docs` columns, for any injective mapping: the plain
/// definition the in-place form is tested against.
fn remap_docs(
    table: &ww_cache::DenseFlowTable,
    mapping: &[u32],
    new_docs: usize,
    now: f64,
) -> ww_cache::DenseFlowTable {
    assert_eq!(mapping.len(), table.doc_count());
    // The tests' tables all measure with these constants.
    let mut grown =
        ww_cache::DenseFlowTable::new_anchored(1.0, 0.5, table.row_count(), new_docs, now);
    let mut seen = vec![false; new_docs];
    for (old, &new) in mapping.iter().enumerate() {
        assert!(
            !std::mem::replace(&mut seen[new as usize], true),
            "mapping must be injective"
        );
        for row in 0..table.row_count() {
            grown.row_mut(row)[new as usize] = table.row(row)[old];
        }
    }
    grown
}

#[test]
fn remap_docs_shifts_columns_and_keeps_history() {
    let mut t = ww_cache::DenseFlowTable::new(1.0, 0.5, 2, 2);
    t.record(0, 0, 0.1);
    t.record(1, 1, 0.2);
    t.roll_to(1.0);
    // Insert a new column between the two old ones: 0 -> 0, 1 -> 2.
    let mut t = remap_docs(&t, &[0, 2], 3, 1.0);
    assert_eq!(t.doc_count(), 3);
    assert!((t.rate(0, 0) - 1.0).abs() < 1e-9);
    assert_eq!(t.rate(0, 1), 0.0);
    assert!((t.rate(1, 2) - 1.0).abs() < 1e-9);
    // The fresh column meters from the anchor point onward.
    t.record(0, 1, 1.5);
    t.roll_to(2.0);
    assert!((t.rate(0, 1) - 1.0).abs() < 1e-9);
}
