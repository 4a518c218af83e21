//! Tree Load Balance: definitions, checkers and optimality tests.
//!
//! Section 3 of the paper defines load balance recursively (Definition 1):
//! an assignment is load-balanced iff its maximum load is minimal, and the
//! same holds recursively once the maximum is removed — i.e. the
//! descending-sorted load vector is lexicographically minimal. **TLB**
//! (Definition 2) is that optimum subject to Constraint 1 (the root
//! forwards nothing) and Constraint 2 (*no sibling sharing*: `A_i >= 0`).
//!
//! This module turns every claim of Sections 3-4 into checkable code:
//! feasibility, the three lemmas, GLE feasibility, and a randomized
//! optimality test that compares WebFold's output against arbitrary
//! feasible competitors.

use crate::fold::{webfold, FoldedTree};
use rand::Rng;
use ww_model::{LoadAssignment, NodeId, RateVector, Tree};

/// A verdict on one assignment's relation to the paper's constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Feasibility {
    /// Constraint 2 (`A_i >= 0` everywhere).
    pub nss: bool,
    /// Constraint 1 (`A_root == 0`, i.e. total served == total demand).
    pub root: bool,
}

impl Feasibility {
    /// `true` when both constraints hold.
    pub fn is_feasible(self) -> bool {
        self.nss && self.root
    }
}

/// Checks Constraints 1 and 2 for served rates `load` under `spontaneous`
/// demand on `tree`.
///
/// # Panics
///
/// Panics if the vectors do not validate against `tree`.
pub fn check_feasibility(
    tree: &Tree,
    spontaneous: &RateVector,
    load: &RateVector,
    tol: f64,
) -> Feasibility {
    let a =
        LoadAssignment::new(tree, spontaneous, load.clone()).expect("vectors must match the tree");
    Feasibility {
        nss: a.satisfies_nss(tol),
        root: a.satisfies_root_constraint(tol),
    }
}

/// Lemma 1: after WebFold, loads are monotonically non-increasing from
/// root toward the leaves (`L_i >= L_j` for every child `j` of `i`).
pub fn check_monotone_non_increasing(tree: &Tree, load: &RateVector, tol: f64) -> bool {
    tree.nodes()
        .all(|u| tree.children(u).iter().all(|&c| load[u] >= load[c] - tol))
}

/// Lemma 2: no load is exchanged between folds — the forwarded rate at
/// every fold root is zero.
pub fn check_zero_interfold_flow(
    tree: &Tree,
    spontaneous: &RateVector,
    folded: &FoldedTree,
    tol: f64,
) -> bool {
    let a = LoadAssignment::new(tree, spontaneous, folded.load().clone())
        .expect("folded load matches tree");
    folded
        .folds()
        .iter()
        .all(|&(root, _)| a.forwarded()[root].abs() <= tol)
}

/// Is Global Load Equality feasible for this tree and demand? True iff
/// the uniform assignment `total/n` satisfies NSS — equivalently, iff
/// WebFold collapses the tree into a single fold.
pub fn gle_feasible(tree: &Tree, spontaneous: &RateVector, tol: f64) -> bool {
    let n = tree.len();
    let uniform = RateVector::uniform(n, spontaneous.total() / n as f64);
    check_feasibility(tree, spontaneous, &uniform, tol).is_feasible()
}

/// Draws a uniformly random *feasible* assignment: every node serves a
/// random fraction of what flows through it, and the root absorbs the
/// rest (Constraints 1 and 2 hold by construction).
///
/// These competitors span the whole feasible polytope and are the
/// adversaries in the TLB optimality property test.
///
/// # Panics
///
/// Panics if `spontaneous` does not validate against `tree`.
pub fn random_feasible_assignment<R: Rng + ?Sized>(
    rng: &mut R,
    tree: &Tree,
    spontaneous: &RateVector,
) -> RateVector {
    spontaneous
        .validate_for(tree)
        .expect("rates must match tree");
    let n = tree.len();
    let mut load = RateVector::zeros(n);
    let mut forwarded = RateVector::zeros(n);
    for u in tree.bottom_up() {
        let mut through = spontaneous[u];
        for &c in tree.children(u) {
            through += forwarded[c];
        }
        if tree.parent(u).is_none() {
            load[u] = through; // Constraint 1: the root serves everything left
            forwarded[u] = 0.0;
        } else {
            let fraction: f64 = rng.gen();
            load[u] = fraction * through;
            forwarded[u] = through - load[u];
        }
    }
    load
}

/// Verifies that `candidate` is TLB-optimal for `tree`/`spontaneous` by
/// comparison against the WebFold oracle: the descending-sorted load
/// vectors must agree within `tol` entrywise.
pub fn is_tlb(tree: &Tree, spontaneous: &RateVector, candidate: &RateVector, tol: f64) -> bool {
    if !check_feasibility(tree, spontaneous, candidate, tol).is_feasible() {
        return false;
    }
    let oracle = webfold(tree, spontaneous);
    let a = candidate.sorted_descending();
    let b = oracle.load().sorted_descending();
    a.iter().zip(&b).all(|(x, y)| (x - y).abs() <= tol)
}

/// The node-level *potential barrier* predicate of Section 5.2, at the
/// load level: node `j` is a potential barrier when it has a parent `i`
/// and two children `k`, `k'` with `L_k' >= L_j >= L_i > L_k`. The
/// inequalities are taken within `tol` (converged simulations sit at the
/// knife edge `L_k' == L_j == L_i`).
///
/// (Whether the barrier *binds* additionally depends on which documents
/// `j` caches — see the document-level simulator.)
pub fn potential_barrier_nodes(tree: &Tree, load: &RateVector, tol: f64) -> Vec<NodeId> {
    let mut out = Vec::new();
    for j in tree.nodes() {
        let Some(i) = tree.parent(j) else { continue };
        let kids = tree.children(j);
        if kids.len() < 2 {
            continue;
        }
        let has_high = kids.iter().any(|&k| load[k] >= load[j] - tol);
        let has_low = kids.iter().any(|&k| load[i] > load[k] + tol);
        if has_high && load[j] >= load[i] - tol && has_low {
            out.push(j);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ww_topology::paper;

    #[test]
    fn feasibility_checker_agrees_with_hand_examples() {
        let s = paper::fig2b();
        let tlb = paper::fig2b_tlb();
        let f = check_feasibility(&s.tree, &s.spontaneous, &tlb, 1e-9);
        assert!(f.is_feasible());
        let gle = RateVector::uniform(5, 20.0);
        let f = check_feasibility(&s.tree, &s.spontaneous, &gle, 1e-9);
        assert!(!f.nss);
    }

    #[test]
    fn gle_feasibility_matches_fold_count() {
        let a = paper::fig2a();
        assert!(gle_feasible(&a.tree, &a.spontaneous, 1e-9));
        assert!(webfold(&a.tree, &a.spontaneous).is_gle());

        let b = paper::fig2b();
        assert!(!gle_feasible(&b.tree, &b.spontaneous, 1e-9));
        assert!(!webfold(&b.tree, &b.spontaneous).is_gle());
    }

    #[test]
    fn random_feasible_assignments_are_feasible() {
        let s = paper::fig6();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let cand = random_feasible_assignment(&mut rng, &s.tree, &s.spontaneous);
            let f = check_feasibility(&s.tree, &s.spontaneous, &cand, 1e-6);
            assert!(f.is_feasible());
            assert!((cand.total() - s.total_demand()).abs() < 1e-6);
        }
    }

    #[test]
    fn webfold_beats_random_competitors_lexicographically() {
        // Theorem 1, empirically: no feasible assignment sorts below the
        // WebFold assignment.
        let mut rng = StdRng::seed_from_u64(2);
        for s in paper::all_scenarios() {
            let oracle = webfold(&s.tree, &s.spontaneous).into_load();
            for _ in 0..200 {
                let cand = random_feasible_assignment(&mut rng, &s.tree, &s.spontaneous);
                let ord = oracle.compare_balance(&cand, 1e-9);
                assert_ne!(
                    ord,
                    std::cmp::Ordering::Greater,
                    "{}: random feasible assignment beat WebFold",
                    s.name
                );
            }
        }
    }

    #[test]
    fn is_tlb_accepts_oracle_and_rejects_perturbations() {
        let s = paper::fig4();
        let oracle = webfold(&s.tree, &s.spontaneous).into_load();
        assert!(is_tlb(&s.tree, &s.spontaneous, &oracle, 1e-9));
        // A feasible but unbalanced competitor: root serves everything.
        let mut all_at_root = RateVector::zeros(s.tree.len());
        all_at_root[s.tree.root()] = s.total_demand();
        assert!(!is_tlb(&s.tree, &s.spontaneous, &all_at_root, 1e-9));
    }

    #[test]
    fn lemma_checkers_pass_on_webfold_output() {
        for s in paper::all_scenarios() {
            let folded = webfold(&s.tree, &s.spontaneous);
            assert!(check_monotone_non_increasing(&s.tree, folded.load(), 1e-9));
            assert!(check_zero_interfold_flow(
                &s.tree,
                &s.spontaneous,
                &folded,
                1e-9
            ));
        }
    }

    #[test]
    fn monotone_checker_rejects_increasing_chains() {
        let tree = Tree::from_parents(&[None, Some(0)]).unwrap();
        let bad = RateVector::from(vec![1.0, 2.0]);
        assert!(!check_monotone_non_increasing(&tree, &bad, 1e-9));
    }

    #[test]
    fn barrier_predicate_fires_on_fig7_stall() {
        // Figure 7(a) without tunneling: loads equalize on {0,1,3} at 120
        // while node 2 starves at 0 — node 1 is the potential barrier.
        let b = paper::fig7();
        let stalled = RateVector::from(vec![120.0, 120.0, 0.0, 120.0]);
        let barriers = potential_barrier_nodes(&b.tree, &stalled, 1e-9);
        assert_eq!(barriers, vec![NodeId::new(1)]);
    }

    #[test]
    fn barrier_predicate_quiet_at_tlb() {
        let b = paper::fig7();
        let barriers = potential_barrier_nodes(&b.tree, &b.tlb, 1e-9);
        // At TLB all loads are equal: L_i > L_k fails, no barrier.
        assert!(barriers.is_empty());
    }
}
