//! The paper's hand-crafted example scenarios (Figures 2, 4, 6, 7).
//!
//! The original figures are drawings whose exact node counts are illegible
//! in the scanned copy; each scenario here is reconstructed to satisfy every
//! property the text states about it (see `DESIGN.md`, "Substitutions"):
//!
//! * **Figure 2** — one tree, two spontaneous-rate vectors: (a) admits a
//!   TLB assignment that is also GLE, (b) does not.
//! * **Figure 4** — a tree whose folding sequence cascades through several
//!   intermediate folds and ends in a TLB that is not GLE.
//! * **Figure 6** — a tree whose rates force "many different patterns" of
//!   folds; the convergence experiment of Section 5.1 runs on it.
//! * **Figure 7** — the potential-barrier scenario: home server plus three
//!   intermediate servers; documents d1, d2 requested by one leaf and d3 by
//!   the other; correct TLB serves 90 requests at every node, but the
//!   middle server caches none of d3 and blocks diffusion until tunneling.

use ww_model::{DocId, NodeId, RateVector, Tree};

/// A named workload scenario: a routing tree plus spontaneous request rates.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable name ("fig2a", "fig6", ...).
    pub name: String,
    /// The routing tree.
    pub tree: Tree,
    /// Spontaneous request rate `E_i` at each node.
    pub spontaneous: RateVector,
}

impl Scenario {
    /// Creates a scenario, panicking on shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `spontaneous` does not validate against `tree`.
    pub fn new(name: impl Into<String>, tree: Tree, spontaneous: RateVector) -> Self {
        spontaneous
            .validate_for(&tree)
            .expect("scenario rates must match tree");
        Scenario {
            name: name.into(),
            tree,
            spontaneous,
        }
    }

    /// Aggregate demand of the scenario.
    pub fn total_demand(&self) -> f64 {
        self.spontaneous.total()
    }
}

/// The five-node tree shared by both Figure 2 scenarios:
///
/// ```text
///         0
///        / \
///       1   2
///       |   |
///       3   4
/// ```
pub fn fig2_tree() -> Tree {
    Tree::from_parents(&[None, Some(0), Some(0), Some(1), Some(2)]).expect("fig2 tree is valid")
}

/// Figure 2(a): spontaneous rates for which the TLB assignment is also GLE.
///
/// Both leaves generate 50 req/s; every node can serve the GLE share of 20
/// without sibling sharing.
pub fn fig2a() -> Scenario {
    Scenario::new(
        "fig2a",
        fig2_tree(),
        RateVector::from(vec![0.0, 0.0, 0.0, 50.0, 50.0]),
    )
}

/// Figure 2(b): spontaneous rates for which TLB is *not* GLE.
///
/// The right subtree generates only 10 req/s, so its two nodes can never
/// reach the GLE share of 20 each; WebFold assigns them 5 each and balances
/// the remaining 90 across the left spine at 30 each.
pub fn fig2b() -> Scenario {
    Scenario::new(
        "fig2b",
        fig2_tree(),
        RateVector::from(vec![0.0, 0.0, 0.0, 90.0, 10.0]),
    )
}

/// The TLB served-rate vector for [`fig2b`], derivable by hand:
/// folds `{0,1,3}` at 30 req/s per node and `{2,4}` at 5 req/s per node.
pub fn fig2b_tlb() -> RateVector {
    RateVector::from(vec![30.0, 30.0, 5.0, 30.0, 5.0])
}

/// Figure 4: an eight-node tree whose folding sequence cascades.
///
/// ```text
///             0
///           /   \
///          1     2
///         / \   / \
///        3   4 5   7
///            |
///            6
/// ```
///
/// Rates `E = [0,0,0,30,0,8,22,4]` force the fold order
/// `3→1, 6→4, {1,3}→0, {4,6}→{0,1,3}, 5→2`, ending with folds
/// `{0,1,3,4,6}` at 10.4, `{2,5}` at 4 and `{7}` at 4 — a TLB assignment
/// that is not GLE (GLE share would be 8).
pub fn fig4() -> Scenario {
    let tree = Tree::from_parents(&[
        None,
        Some(0),
        Some(0),
        Some(1),
        Some(1),
        Some(2),
        Some(4),
        Some(2),
    ])
    .expect("fig4 tree is valid");
    Scenario::new(
        "fig4",
        tree,
        RateVector::from(vec![0.0, 0.0, 0.0, 30.0, 0.0, 8.0, 22.0, 4.0]),
    )
}

/// Figure 6(a): a fourteen-node tree designed "so as to force the shown
/// variety of folds": cascading multi-level folds, tied sibling folds,
/// singleton folds, and a deep chain fold.
///
/// ```text
///                0
///             /  |  \
///            1   2   3
///           /|   |   |\
///          4 5   6   7 8
///          |    / \    |
///          9   10 11   12
///                      |
///                      13
/// ```
pub fn fig6() -> Scenario {
    let tree = Tree::from_parents(&[
        None,
        Some(0),
        Some(0),
        Some(0),
        Some(1),
        Some(1),
        Some(2),
        Some(3),
        Some(3),
        Some(4),
        Some(6),
        Some(6),
        Some(8),
        Some(12),
    ])
    .expect("fig6 tree is valid");
    Scenario::new(
        "fig6",
        tree,
        RateVector::from(vec![
            0.0, 0.0, 0.0, 0.0, 0.0, 24.0, 0.0, 9.0, 0.0, 36.0, 20.0, 20.0, 0.0, 16.0,
        ]),
    )
}

/// One document's demand in the Figure 7 barrier scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocDemand {
    /// The document requested.
    pub doc: DocId,
    /// The node whose clients request it.
    pub origin: NodeId,
    /// Spontaneous request rate for this document at `origin`.
    pub rate: f64,
}

/// The Figure 7 potential-barrier scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BarrierScenario {
    /// The four-node tree (0 = home server, 1 = middle, 2 and 3 = leaves).
    pub tree: Tree,
    /// Per-document demand: d1, d2 at node 3; d3 at node 2.
    pub demands: Vec<DocDemand>,
    /// The aggregate spontaneous rates implied by `demands`.
    pub spontaneous: RateVector,
    /// The TLB served-rate target: 90 req/s at every node.
    pub tlb: RateVector,
}

/// Figure 7: home server 0, middle server 1, leaves 2 and 3.
///
/// ```text
///        0   (home of d1, d2, d3)
///        |
///        1   (the potential barrier)
///       / \
///      2   3
/// ```
///
/// Node 3's clients request d1 and d2 at 135 req/s each (270 total); node
/// 2's clients request d3 at 90 req/s. Total demand 360; the unique TLB
/// assignment serves 90 at every node, which requires node 2 to cache d3.
/// Without tunneling, node 1 — which caches only d1/d2 copies pushed up
/// from node 3's demand — cannot diffuse any load to node 2 and the system
/// stalls with node 2 idle (the condition `L_3 >= L_1 >= L_0 > L_2` of
/// Section 5.2, in paper numbering `L_k' >= L_j >= L_i > L_k`).
pub fn fig7() -> BarrierScenario {
    let tree = Tree::from_parents(&[None, Some(0), Some(1), Some(1)]).expect("fig7 tree is valid");
    let demands = vec![
        DocDemand {
            doc: DocId::new(1),
            origin: NodeId::new(3),
            rate: 135.0,
        },
        DocDemand {
            doc: DocId::new(2),
            origin: NodeId::new(3),
            rate: 135.0,
        },
        DocDemand {
            doc: DocId::new(3),
            origin: NodeId::new(2),
            rate: 90.0,
        },
    ];
    let mut spontaneous = RateVector::zeros(4);
    for d in &demands {
        spontaneous[d.origin] += d.rate;
    }
    BarrierScenario {
        tree,
        demands,
        spontaneous,
        tlb: RateVector::uniform(4, 90.0),
    }
}

/// All rate-level paper scenarios in figure order.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![fig2a(), fig2b(), fig4(), fig6()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_model::LoadAssignment;

    #[test]
    fn fig2_tree_shape() {
        let t = fig2_tree();
        assert_eq!(t.len(), 5);
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaf_count(), 2);
    }

    #[test]
    fn fig2a_gle_is_feasible() {
        let s = fig2a();
        let gle = RateVector::uniform(5, s.total_demand() / 5.0);
        let a = LoadAssignment::new(&s.tree, &s.spontaneous, gle).unwrap();
        assert!(a.check_feasible(1e-9).is_ok());
    }

    #[test]
    fn fig2b_gle_is_infeasible() {
        let s = fig2b();
        let gle = RateVector::uniform(5, s.total_demand() / 5.0);
        let a = LoadAssignment::new(&s.tree, &s.spontaneous, gle).unwrap();
        assert!(!a.satisfies_nss(1e-9), "GLE must violate NSS in fig2b");
    }

    #[test]
    fn fig2b_tlb_is_feasible_and_sums() {
        let s = fig2b();
        let tlb = fig2b_tlb();
        assert!((tlb.total() - s.total_demand()).abs() < 1e-9);
        let a = LoadAssignment::new(&s.tree, &s.spontaneous, tlb).unwrap();
        assert!(a.check_feasible(1e-9).is_ok());
    }

    #[test]
    fn fig4_totals() {
        let s = fig4();
        assert_eq!(s.tree.len(), 8);
        assert_eq!(s.total_demand(), 64.0);
    }

    #[test]
    fn fig6_has_fourteen_nodes_and_demand() {
        let s = fig6();
        assert_eq!(s.tree.len(), 14);
        assert_eq!(s.total_demand(), 125.0);
        assert_eq!(s.tree.height(), 4);
    }

    #[test]
    fn fig7_matches_text() {
        let b = fig7();
        assert_eq!(b.tree.len(), 4);
        assert_eq!(b.spontaneous.as_slice(), &[0.0, 0.0, 90.0, 270.0]);
        assert_eq!(b.tlb.as_slice(), &[90.0; 4]);
        // TLB is feasible.
        let a = LoadAssignment::new(&b.tree, &b.spontaneous, b.tlb.clone()).unwrap();
        assert!(a.check_feasible(1e-9).is_ok());
        // Total demand 360 as in "each node servicing 90" x 4.
        assert_eq!(b.spontaneous.total(), 360.0);
    }

    #[test]
    fn fig7_demands_are_per_document() {
        let b = fig7();
        assert_eq!(b.demands.len(), 3);
        let d3 = b.demands.iter().find(|d| d.doc == DocId::new(3)).unwrap();
        assert_eq!(d3.origin, NodeId::new(2));
        assert_eq!(d3.rate, 90.0);
    }

    #[test]
    fn all_scenarios_have_valid_rates() {
        for s in all_scenarios() {
            s.spontaneous.validate_for(&s.tree).unwrap();
            assert!(s.total_demand() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "scenario rates must match tree")]
    fn scenario_rejects_shape_mismatch() {
        Scenario::new("bad", fig2_tree(), RateVector::zeros(3));
    }
}
