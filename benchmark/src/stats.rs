//! The estimators: a 10 %-trimmed mean for timings, plus the median and
//! quartiles printed beside it.
//!
//! Why a trimmed mean: this host alternates between two speed modes a few
//! seconds at a time. A minimum reports whichever runs saw the fast mode,
//! a median flips between the two clusters when the split is near even;
//! the trimmed mean moves smoothly with the mode share and drops only
//! the outliers.

/// Mean of `samples` after dropping the lowest and highest tenth (at
/// least one each once there are three samples).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let sorted = sorted(samples);
    let cut = if sorted.len() < 3 {
        0
    } else {
        (sorted.len() / 10).max(1)
    };
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `(q1, median, q3)` by the exclusive method — the same numbers as
/// Python's `statistics.quantiles(samples, n=4)`. With a single sample
/// all three are that sample.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// Nearest-rank percentile (`p` in `0..=100`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let sorted = sorted(samples);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
