//! [`DocMix`] against the nested per-node lists it replaced, as a
//! property.
//!
//! Random sequences of `set`, `add_rate`, `add_node`,
//! `swap_remove_node`, `clone` and `clone_from` run on two mixes and on
//! two `Vec<Vec<(DocId, f64)>>` references. After every step each mix
//! must read as its reference through every accessor — rows, rates,
//! totals summed in the same order, the spontaneous vector, the
//! document list, `Debug` — two mixes must be `==` exactly when their
//! references are, and a mix must equal the same rows built in node
//! order (a different layout). The buffer must hold the live entries
//! plus the counted holes and nothing else, and stay inside the pack
//! rule's limit, so no order of edits grows it past its rows.

use super::DocMix;
use proptest::prelude::*;
use ww_model::{DocId, NodeId};

/// The layout the flat buffer replaced: one sorted list per node.
type Reference = Vec<Vec<(DocId, f64)>>;

/// What one step does; every step also names a side (which of the two
/// mixes it acts on), a node (taken modulo that side's node count), a
/// document and a rate.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Set,
    /// Adds the step's rate.
    AddRate,
    AddNode,
    SwapRemove,
    /// The chosen side becomes a clone of the other.
    Clone,
    /// The chosen side is overwritten by the other through `clone_from`.
    CloneFrom,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    side: bool,
    node: usize,
    doc: DocId,
    rate: f64,
}

/// A kind drawn by weight (sets most often) and a rate in quarter
/// steps, zero included — sums stay exact, but still depend on their
/// order once rows mix magnitudes.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..15, any::<bool>(), any::<usize>(), 0u64..12, 0u32..64).prop_map(
        |(kind, side, node, doc, quarters)| Op {
            kind: match kind {
                0..=5 => Kind::Set,
                6..=8 => Kind::AddRate,
                9 | 10 => Kind::AddNode,
                11 | 12 => Kind::SwapRemove,
                13 => Kind::Clone,
                _ => Kind::CloneFrom,
            },
            side,
            node,
            doc: DocId::new(doc),
            rate: f64::from(quarters) * 0.25,
        },
    )
}

/// Applies `op` to its side's mix and reference.
fn apply(pairs: &mut [(DocMix, Reference); 2], op: Op) {
    let [a, b] = pairs;
    let ((mix, rows), from) = if op.side { (b, &*a) } else { (a, &*b) };
    let per_node = matches!(op.kind, Kind::Set | Kind::AddRate | Kind::SwapRemove);
    if per_node && rows.is_empty() {
        return;
    }
    let node = op.node % rows.len().max(1);
    match op.kind {
        Kind::Set => {
            reference_set(&mut rows[node], op.doc, op.rate);
            mix.set(NodeId::new(node), op.doc, op.rate);
        }
        Kind::AddRate => {
            let old = rows[node]
                .iter()
                .find(|e| e.0 == op.doc)
                .map_or(0.0, |e| e.1);
            reference_set(&mut rows[node], op.doc, old + op.rate);
            mix.add_rate(NodeId::new(node), op.doc, op.rate);
        }
        Kind::AddNode => {
            rows.push(Vec::new());
            assert_eq!(mix.add_node(), NodeId::new(rows.len() - 1));
        }
        Kind::SwapRemove => {
            let departed = rows.swap_remove(node);
            assert_eq!(mix.swap_remove_node(NodeId::new(node)), departed);
        }
        Kind::Clone => {
            *mix = from.0.clone();
            *rows = from.1.clone();
        }
        Kind::CloneFrom => {
            mix.clone_from(&from.0);
            rows.clone_from(&from.1);
        }
    }
}

fn reference_set(row: &mut Vec<(DocId, f64)>, doc: DocId, rate: f64) {
    match row.binary_search_by_key(&doc, |&(d, _)| d) {
        Ok(i) => row[i].1 = rate,
        Err(i) => row.insert(i, (doc, rate)),
    }
}

/// The same rows appended in node order: the layout a fresh build has.
fn built_in_node_order(rows: &Reference) -> DocMix {
    let mut mix = DocMix::new(rows.len());
    for (node, row) in rows.iter().enumerate() {
        for &(doc, rate) in row {
            mix.set(NodeId::new(node), doc, rate);
        }
    }
    mix
}

fn check(mix: &DocMix, rows: &Reference) {
    prop_assert_eq!(mix.len(), rows.len());
    prop_assert_eq!(mix.is_empty(), rows.is_empty());
    for (j, row) in rows.iter().enumerate() {
        let node = NodeId::new(j);
        prop_assert_eq!(mix.demands_of(node), &row[..]);
        let total: f64 = row.iter().map(|&(_, r)| r).sum();
        prop_assert_eq!(mix.node_total(node).to_bits(), total.to_bits());
        for doc in (0..13).map(DocId::new) {
            let rate = row.iter().find(|e| e.0 == doc).map_or(0.0, |e| e.1);
            prop_assert_eq!(mix.rate_of(node, doc), rate);
        }
    }
    let spontaneous: Vec<f64> = rows
        .iter()
        .map(|row| row.iter().map(|&(_, r)| r).sum())
        .collect();
    prop_assert_eq!(mix.spontaneous().as_slice(), &spontaneous[..]);
    let mut docs: Vec<DocId> = rows.iter().flatten().map(|&(d, _)| d).collect();
    docs.sort_unstable();
    docs.dedup();
    prop_assert_eq!(mix.documents(), docs);
    prop_assert_eq!(
        format!("{mix:?}"),
        format!("DocMix {{ demands: {rows:?} }}")
    );
    prop_assert!(*mix == built_in_node_order(rows), "equal to a fresh build");
    // The buffer: live entries plus counted holes, under the pack limit.
    let live: usize = mix.spans.iter().map(|s| s.len as usize).sum();
    let holes = mix.entries.holes();
    prop_assert_eq!(mix.entries.cells().len(), live + holes, "live + holes");
    prop_assert!(
        holes == 0 || 4 * holes < live || 8 * holes < mix.len(),
        "{} holes beside {} live entries of {} rows: past the pack limit",
        holes,
        live,
        mix.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_flat_mix_reads_as_nested_rows(
        start in (0usize..6, 0usize..6),
        ops in proptest::collection::vec(arb_op(), 0..120),
    ) {
        let mut pairs = [start.0, start.1].map(|n| (DocMix::new(n), vec![Vec::new(); n]));
        for op in &ops {
            apply(&mut pairs, *op);
            for (mix, rows) in &pairs {
                check(mix, rows);
            }
            let [(a, ra), (b, rb)] = &pairs;
            prop_assert_eq!(a == b, ra == rb, "== after {:?}", op);
        }
    }
}
