//! The estimator arithmetic, on hand-computed cases.

use ww_sysbench::stats::{median, percentile, quartiles, trimmed_mean};

#[test]
fn trimmed_mean_drops_one_sample_each_side_up_to_nineteen() {
    // 14 samples: floor(14/10) = 1 → drop 1.0 and 100.0.
    let mut samples: Vec<f64> = (2..=13).map(f64::from).collect();
    samples.push(100.0);
    samples.insert(0, 1.0);
    assert_eq!(samples.len(), 14);
    assert_eq!(trimmed_mean(&samples), (2..=13).sum::<i32>() as f64 / 12.0);
}

#[test]
fn trimmed_mean_drops_a_tenth_each_side() {
    // 20 samples: drop two from each end.
    let samples: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(trimmed_mean(&samples), (3..=18).sum::<i32>() as f64 / 16.0);
}

#[test]
fn trimmed_mean_ignores_order_and_keeps_tiny_inputs_whole() {
    assert_eq!(trimmed_mean(&[9.0, 1.0, 5.0]), 5.0);
    assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
    assert_eq!(trimmed_mean(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
}

#[test]
fn percentile_is_nearest_rank() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&ten, 90.0), 9.0);
    assert_eq!(percentile(&ten, 100.0), 10.0);
    assert_eq!(percentile(&ten, 1.0), 1.0);
}

#[test]
fn events_per_s_is_scaled_epoch_by_epoch_to_the_reference_chase() {
    use ww_sysbench::host::REFERENCE_CHASE_NS;
    use ww_sysbench::rep::RepResult;
    let mut rep = RepResult {
        events: 3_000,
        run_calls_s: vec![1.0, 1.0],
        apply_calls_s: vec![0.5],
        ..RepResult::default()
    };
    // No readings: the figure as timed.
    assert_eq!(rep.raw_events_per_s(), 1_200.0);
    assert_eq!(rep.events_per_s(), 1_200.0);
    // Readings at the reference leave it alone.
    rep.chase_ns = vec![REFERENCE_CHASE_NS; 3];
    assert_eq!(rep.events_per_s(), 1_200.0);
    // Memory twice as slow around the second epoch only: that epoch's
    // second counts for less.
    rep.chase_ns = vec![
        REFERENCE_CHASE_NS,
        REFERENCE_CHASE_NS,
        3.0 * REFERENCE_CHASE_NS,
    ];
    assert_eq!(rep.events_per_s(), 3_000.0 / (1.5 + 0.5));
}
