//! Per-node request-rate vectors.
//!
//! The paper's load metric is *arrival rate* (Section 3): it obeys flow
//! conservation, which is what makes the tree-folding analysis tractable.
//! [`RateVector`] stores one non-negative `f64` rate per tree node and
//! provides the vector arithmetic the diffusion algorithms and convergence
//! metrics need (Euclidean distance, max, sum, ...).

use crate::{ModelError, NodeId, Result, Tree};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A vector of per-node request rates (requests per unit time).
///
/// Used both for the *spontaneous* rates `E_i` (demand generated at each
/// node by its local clients) and for *served* rates `L_i` (what each node's
/// cache actually handles).
///
/// # Example
///
/// ```
/// use ww_model::{RateVector, NodeId};
/// let mut v = RateVector::zeros(3);
/// v[NodeId::new(1)] = 4.0;
/// assert_eq!(v.total(), 4.0);
/// assert_eq!(v.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateVector(Vec<f64>);

impl RateVector {
    /// Creates a vector of `n` zero rates.
    pub fn zeros(n: usize) -> Self {
        RateVector(vec![0.0; n])
    }

    /// Creates a vector of `n` copies of `rate`.
    pub fn uniform(n: usize, rate: f64) -> Self {
        RateVector(vec![rate; n])
    }

    /// Number of nodes covered by the vector.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrows the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutably borrows the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Overwrites this vector with the contents of `other` without
    /// reallocating — the engines' double-buffering primitive.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &RateVector) {
        self.0.copy_from_slice(&other.0);
    }

    /// Sets every entry to `value` (reusing the allocation).
    pub fn fill(&mut self, value: f64) {
        self.0.fill(value);
    }

    /// Consumes the vector and returns the underlying `Vec<f64>`.
    pub fn into_inner(self) -> Vec<f64> {
        self.0
    }

    /// Validates that the vector matches `tree` in length and contains only
    /// finite, non-negative rates.
    ///
    /// # Errors
    ///
    /// [`ModelError::LengthMismatch`] on a size mismatch and
    /// [`ModelError::InvalidRate`] on a negative/NaN/infinite entry.
    pub fn validate_for(&self, tree: &Tree) -> Result<()> {
        if self.len() != tree.len() {
            return Err(ModelError::LengthMismatch {
                expected: tree.len(),
                actual: self.len(),
            });
        }
        for (i, &x) in self.0.iter().enumerate() {
            if !x.is_finite() || x < 0.0 {
                return Err(ModelError::InvalidRate {
                    node: NodeId::new(i),
                    value: x,
                });
            }
        }
        Ok(())
    }

    /// Sum of all rates (the system's aggregate demand or throughput).
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Largest rate (`L_max` in Definition 1).
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest rate.
    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Mean rate — the Global Load Equality (GLE) target `u` of Section 2.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.total() / self.0.len() as f64
        }
    }

    /// Euclidean distance to `other`.
    ///
    /// This is the convergence metric of Section 5.1: on every diffusion
    /// iteration the paper computes the Euclidean distance between the
    /// current load assignment and the optimal (TLB) one.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn euclidean_distance(&self, other: &RateVector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "euclidean distance requires equal-length vectors"
        );
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Euclidean distance to the uniform (GLE) vector with the same total.
    pub fn distance_to_uniform(&self) -> f64 {
        let u = self.mean();
        self.0
            .iter()
            .map(|&x| (x - u) * (x - u))
            .sum::<f64>()
            .sqrt()
    }

    /// Returns the rates sorted in descending order.
    ///
    /// Definition 1 (LB) compares assignments by their sorted load vectors;
    /// the TLB-optimal assignment is the lexicographically smallest one.
    pub fn sorted_descending(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| b.partial_cmp(a).expect("rates are finite"));
        v
    }

    /// Lexicographically compares the descending-sorted loads with `other`,
    /// the order used by the recursive LB definition (Definition 1).
    ///
    /// Returns `Less` when `self` is strictly better balanced (its maximum
    /// is smaller, tie-broken on the next largest, and so on). Entries
    /// closer than `tol` are treated as equal.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn compare_balance(&self, other: &RateVector, tol: f64) -> std::cmp::Ordering {
        assert_eq!(self.len(), other.len());
        let a = self.sorted_descending();
        let b = other.sorted_descending();
        for (x, y) in a.iter().zip(&b) {
            if (x - y).abs() > tol {
                return x.partial_cmp(y).expect("rates are finite");
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Iterates over `(NodeId, rate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.0.iter().enumerate().map(|(i, &x)| (NodeId::new(i), x))
    }

    /// Element-wise sum with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn add(&self, other: &RateVector) -> RateVector {
        assert_eq!(self.len(), other.len());
        RateVector(self.0.iter().zip(&other.0).map(|(a, b)| a + b).collect())
    }

    /// Scales every entry by `factor`.
    pub fn scale(&self, factor: f64) -> RateVector {
        RateVector(self.0.iter().map(|x| x * factor).collect())
    }
}

impl From<Vec<f64>> for RateVector {
    fn from(v: Vec<f64>) -> Self {
        RateVector(v)
    }
}

impl From<RateVector> for Vec<f64> {
    fn from(v: RateVector) -> Vec<f64> {
        v.0
    }
}

impl FromIterator<f64> for RateVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        RateVector(iter.into_iter().collect())
    }
}

impl Index<NodeId> for RateVector {
    type Output = f64;

    fn index(&self, id: NodeId) -> &f64 {
        &self.0[id.index()]
    }
}

impl IndexMut<NodeId> for RateVector {
    fn index_mut(&mut self, id: NodeId) -> &mut f64 {
        &mut self.0[id.index()]
    }
}

impl fmt::Display for RateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.3}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn zeros_and_uniform() {
        assert_eq!(RateVector::zeros(3).total(), 0.0);
        let u = RateVector::uniform(4, 2.5);
        assert_eq!(u.total(), 10.0);
        assert_eq!(u.mean(), 2.5);
    }

    #[test]
    fn indexing_by_node_id() {
        let mut v = RateVector::zeros(2);
        v[NodeId::new(1)] = 7.0;
        assert_eq!(v[NodeId::new(1)], 7.0);
        assert_eq!(v[NodeId::new(0)], 0.0);
    }

    #[test]
    fn euclidean_distance_matches_hand_computation() {
        let a = RateVector::from(vec![3.0, 0.0]);
        let b = RateVector::from(vec![0.0, 4.0]);
        assert!((a.euclidean_distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_uniform_is_zero_for_uniform() {
        let v = RateVector::uniform(5, 3.3);
        assert!(v.distance_to_uniform() < 1e-12);
    }

    #[test]
    fn distance_to_uniform_example() {
        let v = RateVector::from(vec![0.0, 2.0]);
        // mean 1.0; distance sqrt(1 + 1) = sqrt(2)
        assert!((v.distance_to_uniform() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sorted_descending_orders_loads() {
        let v = RateVector::from(vec![1.0, 3.0, 2.0]);
        assert_eq!(v.sorted_descending(), vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn compare_balance_prefers_smaller_max() {
        let better = RateVector::from(vec![2.0, 2.0, 2.0]);
        let worse = RateVector::from(vec![3.0, 2.0, 1.0]);
        assert_eq!(better.compare_balance(&worse, 1e-9), Ordering::Less);
        assert_eq!(worse.compare_balance(&better, 1e-9), Ordering::Greater);
    }

    #[test]
    fn compare_balance_recurses_past_equal_max() {
        // Same max, second-largest differs.
        let better = RateVector::from(vec![3.0, 1.0, 1.0]);
        let worse = RateVector::from(vec![3.0, 2.0, 0.0]);
        assert_eq!(better.compare_balance(&worse, 1e-9), Ordering::Less);
    }

    #[test]
    fn compare_balance_equal_within_tolerance() {
        let a = RateVector::from(vec![1.0, 2.0]);
        let b = RateVector::from(vec![1.0 + 1e-12, 2.0 - 1e-12]);
        assert_eq!(a.compare_balance(&b, 1e-9), Ordering::Equal);
    }

    #[test]
    fn validate_rejects_negative_and_nan() {
        let tree = Tree::from_parents(&[None, Some(0)]).unwrap();
        let bad = RateVector::from(vec![1.0, -2.0]);
        assert!(matches!(
            bad.validate_for(&tree),
            Err(ModelError::InvalidRate { .. })
        ));
        let nan = RateVector::from(vec![f64::NAN, 0.0]);
        assert!(nan.validate_for(&tree).is_err());
        let wrong_len = RateVector::zeros(3);
        assert!(matches!(
            wrong_len.validate_for(&tree),
            Err(ModelError::LengthMismatch { .. })
        ));
        let ok = RateVector::zeros(2);
        assert!(ok.validate_for(&tree).is_ok());
    }

    #[test]
    fn add_and_scale() {
        let a = RateVector::from(vec![1.0, 2.0]);
        let b = RateVector::from(vec![3.0, 4.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 6.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn from_iterator_collects() {
        let v: RateVector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn display_is_compact() {
        let v = RateVector::from(vec![1.0, 2.5]);
        assert_eq!(v.to_string(), "[1.000, 2.500]");
    }

    #[test]
    fn min_max_mean() {
        let v = RateVector::from(vec![1.0, 5.0, 3.0]);
        assert_eq!(v.min(), 1.0);
        assert_eq!(v.max(), 5.0);
        assert_eq!(v.mean(), 3.0);
    }
}
