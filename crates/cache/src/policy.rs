//! Copy placement and shedding policies.
//!
//! WebWave "implicitly determines the number and placement of cache copies
//! as well as the number of requests allocated to each copy" (Section 7).
//! When the diffusion step decides to shift `x` req/s to a child, the node
//! must pick *which documents* to push; when a child must give load back,
//! it picks which copies to delete or throttle. The paper discusses this
//! choice "only briefly", so the greedy policies here are our faithful
//! completion: push the hottest documents the child itself forwards, shed
//! the coldest copies first.

use ww_model::DocId;

/// A planned change in how much of a document's passing rate a node serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSlice {
    /// The document affected.
    pub doc: DocId,
    /// Request rate (req/s) being moved for this document.
    pub rate: f64,
    /// `true` when the document's entire listed rate is moved (full copy
    /// push or full deletion), `false` for a partial serve-fraction change.
    pub full: bool,
}

/// Greedy plan for delegating `target` req/s to a child, given the
/// per-document rates `flows` the child currently forwards (hottest
/// first or any order).
///
/// Documents are taken hottest-first; the last document may be split
/// (partial serve fraction). The plan never exceeds `target` nor the
/// available flow.
///
/// # Example
///
/// ```
/// use ww_model::DocId;
/// use ww_cache::plan_push;
/// let flows = vec![(DocId::new(1), 10.0), (DocId::new(2), 6.0), (DocId::new(3), 2.0)];
/// let plan = plan_push(&flows, 13.0);
/// assert_eq!(plan.len(), 2);
/// assert_eq!(plan[0].doc, DocId::new(1));
/// assert!(plan[0].full);
/// assert_eq!(plan[1].rate, 3.0); // half of doc 2's 6.0
/// assert!(!plan[1].full);
/// ```
pub fn plan_push(flows: &[(DocId, f64)], target: f64) -> Vec<RateSlice> {
    if target <= 0.0 {
        return Vec::new();
    }
    let mut sorted: Vec<(DocId, f64)> = flows.iter().copied().filter(|&(_, r)| r > 0.0).collect();
    sorted.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("rates finite")
            .then(a.0.cmp(&b.0))
    });
    let mut plan = Vec::new();
    let mut remaining = target;
    for (doc, rate) in sorted {
        if remaining <= 0.0 {
            break;
        }
        if rate <= remaining {
            plan.push(RateSlice {
                doc,
                rate,
                full: true,
            });
            remaining -= rate;
        } else {
            plan.push(RateSlice {
                doc,
                rate: remaining,
                full: false,
            });
            remaining = 0.0;
        }
    }
    plan
}

/// Greedy plan for shedding `target` req/s of locally served load, given
/// the per-document rates `served` this node currently serves.
///
/// Coldest copies go first (deleting a barely used copy frees the least
/// useful capacity and keeps hot documents close to their clients); the
/// final document may be throttled partially instead of deleted.
pub fn plan_shed(served: &[(DocId, f64)], target: f64) -> Vec<RateSlice> {
    if target <= 0.0 {
        return Vec::new();
    }
    let mut sorted: Vec<(DocId, f64)> = served.iter().copied().filter(|&(_, r)| r > 0.0).collect();
    sorted.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("rates finite")
            .then(a.0.cmp(&b.0))
    });
    let mut plan = Vec::new();
    let mut remaining = target;
    for (doc, rate) in sorted {
        if remaining <= 0.0 {
            break;
        }
        if rate <= remaining {
            plan.push(RateSlice {
                doc,
                rate,
                full: true,
            });
            remaining -= rate;
        } else {
            plan.push(RateSlice {
                doc,
                rate: remaining,
                full: false,
            });
            remaining = 0.0;
        }
    }
    plan
}

/// Total rate moved by a plan.
pub fn plan_total(plan: &[RateSlice]) -> f64 {
    plan.iter().map(|s| s.rate).sum()
}

/// A [`RateSlice`] over a dense document index (see
/// [`ww_model::DocTable`]) instead of a sparse [`DocId`].
///
/// The dense engines keep per-document state in flat slabs addressed by
/// `u32` indices; planning directly over indices avoids the id↔index
/// translation on the hot path. The tie-breaking below is by `index`
/// ascending, a document's birth order under its `DocTable`; where the
/// universe was born in id order (a fixed one always is) that is
/// *exactly* the id-ascending tie-break of [`plan_push`] / [`plan_shed`],
/// so dense plans match sparse plans slice for slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseRateSlice {
    /// Dense index of the document affected.
    pub index: u32,
    /// Request rate (req/s) being moved for this document.
    pub rate: f64,
    /// `true` when the document's entire listed rate is moved.
    pub full: bool,
}

fn plan_dense(
    flows: &[(u32, f64)],
    target: f64,
    hottest_first: bool,
    scratch: &mut Vec<(u32, f64)>,
    out: &mut Vec<DenseRateSlice>,
) {
    out.clear();
    if target <= 0.0 {
        return;
    }
    scratch.clear();
    scratch.extend(flows.iter().copied().filter(|&(_, r)| r > 0.0));
    if hottest_first {
        scratch.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("rates finite")
                .then(a.0.cmp(&b.0))
        });
    } else {
        scratch.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("rates finite")
                .then(a.0.cmp(&b.0))
        });
    }
    let mut remaining = target;
    for &(index, rate) in scratch.iter() {
        if remaining <= 0.0 {
            break;
        }
        if rate <= remaining {
            out.push(DenseRateSlice {
                index,
                rate,
                full: true,
            });
            remaining -= rate;
        } else {
            out.push(DenseRateSlice {
                index,
                rate: remaining,
                full: false,
            });
            remaining = 0.0;
        }
    }
}

/// Allocation-free variant of [`plan_push`] over dense document indices:
/// hottest documents first, identical tie-breaking, results appended to
/// `out` (cleared first). `scratch` is caller-provided so repeated calls
/// reuse the same buffers.
pub fn plan_push_dense(
    flows: &[(u32, f64)],
    target: f64,
    scratch: &mut Vec<(u32, f64)>,
    out: &mut Vec<DenseRateSlice>,
) {
    plan_dense(flows, target, true, scratch, out);
}

/// Allocation-free variant of [`plan_shed`] over dense document indices:
/// coldest documents first, identical tie-breaking, results appended to
/// `out` (cleared first).
pub fn plan_shed_dense(
    flows: &[(u32, f64)],
    target: f64,
    scratch: &mut Vec<(u32, f64)>,
    out: &mut Vec<DenseRateSlice>,
) {
    plan_dense(flows, target, false, scratch, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows() -> Vec<(DocId, f64)> {
        vec![
            (DocId::new(1), 10.0),
            (DocId::new(2), 6.0),
            (DocId::new(3), 2.0),
        ]
    }

    #[test]
    fn push_takes_hottest_first() {
        let plan = plan_push(&flows(), 10.0);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].doc, DocId::new(1));
        assert!(plan[0].full);
        assert_eq!(plan_total(&plan), 10.0);
    }

    #[test]
    fn push_splits_last_doc() {
        let plan = plan_push(&flows(), 12.0);
        assert_eq!(plan.len(), 2);
        assert!(!plan[1].full);
        assert_eq!(plan[1].rate, 2.0);
        assert_eq!(plan_total(&plan), 12.0);
    }

    #[test]
    fn push_caps_at_available_flow() {
        let plan = plan_push(&flows(), 100.0);
        assert_eq!(plan_total(&plan), 18.0);
        assert!(plan.iter().all(|s| s.full));
    }

    #[test]
    fn push_ignores_zero_flows_and_zero_target() {
        assert!(plan_push(&flows(), 0.0).is_empty());
        assert!(plan_push(&[(DocId::new(1), 0.0)], 5.0).is_empty());
        assert!(plan_push(&[], 5.0).is_empty());
    }

    #[test]
    fn shed_takes_coldest_first() {
        let plan = plan_shed(&flows(), 2.0);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].doc, DocId::new(3));
        assert!(plan[0].full);
    }

    #[test]
    fn shed_partial_on_larger_doc() {
        let plan = plan_shed(&flows(), 5.0);
        // Shed all of d3 (2.0), then 3.0 of d2 partially.
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].doc, DocId::new(3));
        assert_eq!(plan[1].doc, DocId::new(2));
        assert!(!plan[1].full);
        assert_eq!(plan_total(&plan), 5.0);
    }

    #[test]
    fn deterministic_tie_break_on_doc_id() {
        let tied = vec![(DocId::new(9), 4.0), (DocId::new(1), 4.0)];
        let plan = plan_push(&tied, 4.0);
        assert_eq!(plan[0].doc, DocId::new(1));
    }

    /// Dense planning mirrors sparse planning slice-for-slice when indices
    /// are assigned in ascending doc-id order (as `DocTable::from_ids`
    /// assigns them).
    #[test]
    fn dense_plans_match_sparse_plans() {
        let sparse = vec![
            (DocId::new(10), 4.0),
            (DocId::new(20), 4.0),
            (DocId::new(30), 7.0),
            (DocId::new(40), 0.0),
        ];
        let dense: Vec<(u32, f64)> = sparse
            .iter()
            .enumerate()
            .map(|(i, &(_, r))| (i as u32, r))
            .collect();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for target in [0.0, 3.0, 4.0, 9.5, 100.0] {
            let push = plan_push(&sparse, target);
            plan_push_dense(&dense, target, &mut scratch, &mut out);
            assert_eq!(push.len(), out.len(), "push target {target}");
            for (s, d) in push.iter().zip(&out) {
                assert_eq!(sparse[d.index as usize].0, s.doc);
                assert_eq!(s.rate, d.rate);
                assert_eq!(s.full, d.full);
            }
            let shed = plan_shed(&sparse, target);
            plan_shed_dense(&dense, target, &mut scratch, &mut out);
            assert_eq!(shed.len(), out.len(), "shed target {target}");
            for (s, d) in shed.iter().zip(&out) {
                assert_eq!(sparse[d.index as usize].0, s.doc);
                assert_eq!(s.rate, d.rate);
                assert_eq!(s.full, d.full);
            }
        }
    }
}
