//! Zipf-distributed document popularity.
//!
//! Web request streams are heavily skewed: a few *hot* published documents
//! draw most requests (the phenomenon WebWave exists to absorb; cf. the
//! paper's citation of Crovella & Bestavros on self-similar Web traffic).
//! [`Zipf`] samples ranks `0..n` with probability proportional to
//! `1 / (rank + 1)^s`.

use rand::Rng;

/// A Zipf(n, s) sampler over ranks `0..n`.
///
/// Sampling is inverse-CDF over a precomputed table: `O(n)` setup,
/// `O(log n)` per sample, exact probabilities.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use ww_workload::Zipf;
/// let zipf = Zipf::new(100, 1.0).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 100);
/// // Rank 0 is the most popular.
/// assert!(zipf.probability(0) > zipf.probability(99));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s >= 0`.
    ///
    /// `s == 0` degenerates to the uniform distribution; `s == 1` is the
    /// classic Zipf law observed for Web documents.
    ///
    /// Returns `None` when `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Option<Self> {
        if n == 0 || !s.is_finite() || s < 0.0 {
            return None;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Some(Zipf { cdf })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` when the distribution covers no ranks (not constructible).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Exact probability of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len()`.
    pub fn probability(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first index with cdf >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Splits a total rate across ranks proportionally to their
    /// probabilities: `rates[rank] = total_rate * p(rank)`.
    pub fn rate_split(&self, total_rate: f64) -> Vec<f64> {
        (0..self.len())
            .map(|r| total_rate * self.probability(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipf::new(50, 0.8).unwrap();
        let total: f64 = (0..50).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for r in 0..4 {
            assert!((z.probability(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn classic_zipf_ratios() {
        let z = Zipf::new(10, 1.0).unwrap();
        // p(0) / p(1) = 2 for s = 1.
        assert!((z.probability(0) / z.probability(1) - 2.0).abs() < 1e-12);
        // p(0) / p(4) = 5.
        assert!((z.probability(0) / z.probability(4) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let z = Zipf::new(5, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 5];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let observed = count as f64 / draws as f64;
            let expected = z.probability(r);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {r}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn degenerate_parameters_rejected() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(5, -1.0).is_none());
        assert!(Zipf::new(5, f64::NAN).is_none());
    }

    #[test]
    fn single_rank_always_sampled() {
        let z = Zipf::new(1, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.probability(0), 1.0);
    }

    #[test]
    fn rate_split_preserves_total() {
        let z = Zipf::new(8, 1.2).unwrap();
        let rates = z.rate_split(360.0);
        assert!((rates.iter().sum::<f64>() - 360.0).abs() < 1e-9);
        assert!(rates[0] > rates[7]);
    }
}
