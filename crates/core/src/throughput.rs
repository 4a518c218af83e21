//! Throughput and idle-capacity analysis.
//!
//! The paper's opening objective: "minimize server idle time, and hence
//! maximize the aggregate server throughput of the whole service"
//! (Abstract, Section 2). With uniform per-server capacity `C`, a load
//! assignment `L` actually serves `min(L_i, C)` at each node while
//! `max(C - L_i, 0)` capacity idles. Balancing matters exactly because a
//! concentrated assignment saturates one server while others idle; the
//! TLB assignment minimizes the maximum load and therefore serves the
//! whole demand at the smallest possible capacity.

use ww_model::RateVector;

/// Throughput of one assignment at a given uniform capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Uniform per-server capacity (req/s).
    pub capacity: f64,
    /// Offered demand (sum of the assignment).
    pub offered: f64,
    /// Aggregate rate actually served: `sum_i min(L_i, C)`.
    pub served: f64,
    /// Demand turned away because its server saturated.
    pub lost: f64,
    /// Capacity left idle: `sum_i max(C - L_i, 0)`.
    pub idle_capacity: f64,
    /// `served / offered` (1.0 when nothing is lost).
    pub goodput_fraction: f64,
}

/// Evaluates an assignment against a uniform per-server capacity.
///
/// # Panics
///
/// Panics if `capacity` is negative or non-finite.
///
/// # Example
///
/// ```
/// use ww_model::RateVector;
/// use ww_core::throughput::throughput_at_capacity;
///
/// // Balanced: 3 servers at 10 req/s each, capacity 12 -> all served.
/// let balanced = RateVector::from(vec![10.0, 10.0, 10.0]);
/// let r = throughput_at_capacity(&balanced, 12.0);
/// assert_eq!(r.served, 30.0);
///
/// // Concentrated: one server at 30 -> 18 req/s lost at the same capacity.
/// let hot = RateVector::from(vec![30.0, 0.0, 0.0]);
/// let r = throughput_at_capacity(&hot, 12.0);
/// assert_eq!(r.served, 12.0);
/// assert_eq!(r.lost, 18.0);
/// ```
pub fn throughput_at_capacity(load: &RateVector, capacity: f64) -> ThroughputReport {
    assert!(
        capacity.is_finite() && capacity >= 0.0,
        "capacity must be finite and non-negative"
    );
    let offered = load.total();
    let served: f64 = load.as_slice().iter().map(|&l| l.min(capacity)).sum();
    let idle: f64 = load
        .as_slice()
        .iter()
        .map(|&l| (capacity - l).max(0.0))
        .sum();
    ThroughputReport {
        capacity,
        offered,
        served,
        lost: offered - served,
        idle_capacity: idle,
        goodput_fraction: if offered > 0.0 { served / offered } else { 1.0 },
    }
}

/// The smallest uniform capacity at which the assignment serves all its
/// demand — exactly the maximum load, which TLB provably minimizes
/// (Definition 1).
pub fn saturation_capacity(load: &RateVector) -> f64 {
    load.max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::webfold;
    use ww_topology::paper;

    #[test]
    fn balanced_assignment_saturates_later() {
        let balanced = RateVector::from(vec![10.0, 10.0, 10.0]);
        let hot = RateVector::from(vec![30.0, 0.0, 0.0]);
        assert_eq!(saturation_capacity(&balanced), 10.0);
        assert_eq!(saturation_capacity(&hot), 30.0);
    }

    #[test]
    fn throughput_monotone_in_capacity() {
        let load = RateVector::from(vec![5.0, 20.0, 9.0]);
        let sweep: Vec<_> = (1..=10)
            .map(|i| throughput_at_capacity(&load, 25.0 * i as f64 / 10.0))
            .collect();
        for w in sweep.windows(2) {
            assert!(w[1].served >= w[0].served);
        }
        assert_eq!(sweep.last().unwrap().goodput_fraction, 1.0);
    }

    #[test]
    fn idle_plus_served_accounts_capacity() {
        let load = RateVector::from(vec![5.0, 20.0, 9.0]);
        let r = throughput_at_capacity(&load, 10.0);
        // served-at-capped-servers + idle = 3 * capacity.
        let used: f64 = load.as_slice().iter().map(|&l| l.min(10.0)).sum();
        assert!((used + r.idle_capacity - 30.0).abs() < 1e-12);
    }

    #[test]
    fn tlb_serves_full_demand_at_lower_capacity_than_no_cache() {
        // The paper's core throughput claim, quantified on fig6.
        let s = paper::fig6();
        let tlb = webfold(&s.tree, &s.spontaneous).into_load();
        let mut no_cache = RateVector::zeros(s.tree.len());
        no_cache[s.tree.root()] = s.total_demand();

        let c_tlb = saturation_capacity(&tlb);
        let c_none = saturation_capacity(&no_cache);
        assert!(c_tlb < c_none / 10.0, "TLB {c_tlb} vs no-cache {c_none}");

        // At the TLB saturation capacity, no-cache loses most demand.
        let r = throughput_at_capacity(&no_cache, c_tlb);
        assert!(r.goodput_fraction < 0.15, "goodput {}", r.goodput_fraction);
        let r = throughput_at_capacity(&tlb, c_tlb);
        assert!((r.goodput_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_serves_nothing() {
        let load = RateVector::from(vec![1.0, 2.0]);
        let r = throughput_at_capacity(&load, 0.0);
        assert_eq!(r.served, 0.0);
        assert_eq!(r.lost, 3.0);
        assert_eq!(r.goodput_fraction, 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be finite")]
    fn negative_capacity_rejected() {
        let _ = throughput_at_capacity(&RateVector::from(vec![1.0]), -1.0);
    }
}
