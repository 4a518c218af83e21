//! [`DocMix`] against the nested per-node lists it replaced, as a
//! property.
//!
//! Random sequences of `set`, `add_rate`, `add_node`,
//! `swap_remove_node`, `clone`, `clone_from`, `recode` and
//! `copy_rows_from` run on two mixes and on two `Vec<Vec<(DocId, f64)>>`
//! references. After every step each mix must read as its reference
//! through every accessor — rows, rates, totals summed in the same
//! order, the spontaneous vector, the document list, `Debug` — two
//! mixes must be `==` exactly when their references are, and a mix
//! must equal the same rows built in node order (a different layout). The buffer must hold the live entries
//! plus the counted holes and nothing else, and stay inside the pack
//! rule's limit, so no order of edits grows it past its rows. A
//! re-code must leave every observation as it was and number the
//! documents by ascending id; a translated copy must keep the codes the
//! mix had issued and issue the new ones in ascending id order.
//!
//! A second property holds the codes to layout: two mixes that first
//! saw their documents in different orders, so that their code tables
//! differ, must agree on `==`, `Debug`, `documents()`, every
//! `node_total` bit and the wire triples exactly when their references
//! agree, with ids drawn across the whole `u64` range.

use super::DocMix;
use proptest::prelude::*;
use ww_model::{DocId, DocTable, NodeId};

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
    /// The chosen side renumbers its documents by ascending id.
    Recode,
    /// The chosen side is overwritten by the other through
    /// `copy_rows_from`, keeping its own codes.
    CopyRowsFrom,
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
    (0u8..17, any::<bool>(), any::<usize>(), 0u64..12, 0u32..64).prop_map(
        |(kind, side, node, doc, quarters)| Op {
            kind: match kind {
                0..=5 => Kind::Set,
                6..=8 => Kind::AddRate,
                9 | 10 => Kind::AddNode,
                11 | 12 => Kind::SwapRemove,
                13 => Kind::Clone,
                14 => Kind::CloneFrom,
                15 => Kind::Recode,
                _ => Kind::CopyRowsFrom,
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
        Kind::Recode => {
            let (before, seen) = (mix.clone(), observe(mix));
            mix.recode();
            assert!(*mix == before, "== after a re-code");
            assert_eq!(observe(mix), seen, "observations after a re-code");
            assert_eq!(mix.table, DocTable::from_ids(mix.documents()));
        }
        Kind::CopyRowsFrom => {
            let issued = mix.table.len();
            let kept = mix.table.docs().to_vec();
            mix.copy_rows_from(&from.0);
            rows.clone_from(&from.1);
            let docs = mix.table.docs();
            assert_eq!(&docs[..issued], &kept[..], "issued codes kept");
            assert!(docs[issued..].is_sorted(), "new codes in id order");
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
        prop_assert_eq!(mix.demands_of(node).iter().collect::<Vec<_>>(), row.clone());
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
    prop_assert_eq!(mix.entries.len(), live + holes, "live + holes");
    // The code table: every live entry's code issued.
    for &span in &mix.spans {
        for entry in mix.entries.of(span) {
            prop_assert!((entry.code as usize) < mix.table.len(), "code issued");
        }
    }
    prop_assert!(
        holes == 0 || 4 * holes < live || 8 * holes < mix.len(),
        "{} holes beside {} live entries of {} rows: past the pack limit",
        holes,
        live,
        mix.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(256))]

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

/// A document id: small, about `u32::MAX`, anywhere in `u64`, or its
/// top — so some ids need more than a code's 32 bits.
fn arb_wide_doc() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..16, any::<u64>()).prop_map(|(band, small, wide)| match band {
        0 => small,
        1 => u64::from(u32::MAX) - 8 + small,
        2 => wide,
        _ => u64::MAX - small,
    })
}

/// What `DocMix`'s codec streams: `(node, doc, rate bits)` per entry,
/// in node-major order.
fn wire(rows: impl Iterator<Item = Vec<(DocId, f64)>>) -> Vec<(usize, u64, u64)> {
    rows.enumerate()
        .flat_map(|(j, row)| {
            row.into_iter()
                .map(move |(d, r)| (j, d.value(), r.to_bits()))
        })
        .collect()
}

/// What a mix shows of itself, each observation on its own:
/// `Debug`, `documents()`, every `node_total` bit and the wire triples.
fn observe(mix: &DocMix) -> [String; 4] {
    let nodes = (0..mix.len()).map(NodeId::new);
    let totals: Vec<u64> = nodes.clone().map(|u| mix.node_total(u).to_bits()).collect();
    let rows = nodes.map(|u| mix.demands_of(u).iter().collect());
    [
        format!("{mix:?}"),
        format!("{:?}", mix.documents()),
        format!("{totals:?}"),
        format!("{:?}", wire(rows)),
    ]
}

/// The same observations read off a reference.
fn observe_reference(rows: &Reference) -> [String; 4] {
    let totals: Vec<u64> = (rows.iter())
        .map(|row| row.iter().map(|&(_, r)| r).sum::<f64>().to_bits())
        .collect();
    let mut docs: Vec<DocId> = rows.iter().flatten().map(|&(d, _)| d).collect();
    docs.sort_unstable();
    docs.dedup();
    [
        format!("DocMix {{ demands: {rows:?} }}"),
        format!("{docs:?}"),
        format!("{totals:?}"),
        format!("{:?}", wire(rows.iter().cloned())),
    ]
}

/// A mix over `nodes` empty rows that has seen `ids` in that order: a
/// scratch node demands each in turn and departs, so the table keeps
/// the codes and the rows keep nothing.
fn taught(nodes: usize, ids: impl Iterator<Item = DocId>) -> DocMix {
    let mut mix = DocMix::new(nodes);
    let scratch = mix.add_node();
    for doc in ids {
        mix.set(scratch, doc, 1.0);
    }
    mix.swap_remove_node(scratch);
    mix
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(256))]

    #[test]
    fn codes_are_layout_not_identity(
        nodes in 0usize..5,
        ids in proptest::collection::vec(arb_wide_doc(), 1..10),
        // A step, whether it acts on both sides, and its document as an
        // index into the ids.
        ops in proptest::collection::vec((arb_op(), any::<bool>(), any::<usize>()), 0..80),
    ) {
        let ids: Vec<DocId> = ids.into_iter().map(DocId::new).collect();
        let mut pairs = [
            (taught(nodes, ids.iter().copied()), vec![Vec::new(); nodes]),
            (taught(nodes, ids.iter().rev().copied()), vec![Vec::new(); nodes]),
        ];
        if ids.len() > 1 && ids.first() != ids.last() {
            prop_assert!(pairs[0].0.table.docs() != pairs[1].0.table.docs(), "the tables differ");
        }
        for &(op, both, doc) in &ops {
            let op = Op { doc: ids[doc % ids.len()], ..op };
            apply(&mut pairs, op);
            if both && !matches!(op.kind, Kind::Clone | Kind::CloneFrom | Kind::CopyRowsFrom) {
                apply(&mut pairs, Op { side: !op.side, ..op });
            }
            for (mix, rows) in &pairs {
                check(mix, rows);
            }
            let [(a, ra), (b, rb)] = &pairs;
            prop_assert_eq!(a == b, ra == rb, "== after {:?}", op);
            let (seen, expected) = (observe(a), observe(b));
            let (ref_a, ref_b) = (observe_reference(ra), observe_reference(rb));
            for k in 0..4 {
                prop_assert_eq!(
                    seen[k] == expected[k],
                    ref_a[k] == ref_b[k],
                    "observation {} after {:?}",
                    k,
                    op
                );
            }
        }
    }
}
