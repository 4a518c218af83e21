//! Deterministic random-number streams.
//!
//! Every stochastic component of a simulation (per-node arrival processes,
//! link jitter, workload shuffles) gets its own independent stream forked
//! from one master seed, so runs are reproducible regardless of the order
//! in which components consume randomness.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A forkable deterministic RNG.
///
/// # Example
///
/// ```
/// use ww_sim::SimRng;
/// use rand::Rng;
///
/// let master = SimRng::seed(42);
/// let mut a1 = master.fork(1);
/// let mut a2 = master.fork(1);
/// let mut b = master.fork(2);
/// let (x1, x2): (u64, u64) = (a1.gen(), a2.gen());
/// assert_eq!(x1, x2);          // same stream id => same stream
/// assert_ne!(x1, b.gen::<u64>()); // different stream id => independent
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    seed: u64,
    inner: StdRng,
}

impl SimRng {
    /// Creates the master RNG from a seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Forks an independent stream identified by `stream`.
    ///
    /// Forking is a pure function of `(master seed, stream)` — it does not
    /// consume state from the parent, so fork order never matters.
    pub fn fork(&self, stream: u64) -> SimRng {
        // SplitMix64-style mixing of seed and stream id.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng {
            seed: z,
            inner: StdRng::seed_from_u64(z),
        }
    }

    /// This stream as a [`StreamRng`]: the generator alone, for a stream
    /// that is stored by the thousand and never forks again.
    pub fn into_stream(self) -> StreamRng {
        StreamRng(self.inner)
    }
}

/// A leaf of the fork tree: the 32-byte generator of a [`SimRng`]
/// without the seed only [`SimRng::fork`] needs. It draws exactly what
/// the `SimRng` it came from would have drawn.
///
/// # Example
///
/// ```
/// use ww_sim::SimRng;
/// use rand::Rng;
///
/// let mut forked = SimRng::seed(42).fork(7);
/// let mut stored = forked.clone().into_stream();
/// assert_eq!(forked.gen::<u64>(), stored.gen::<u64>());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRng(StdRng);

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

impl RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

/// Samples an exponentially distributed delay with the given mean, never
/// returning exactly zero.
///
/// # Panics
///
/// Panics if `mean` is not positive and finite.
pub fn exp_delay<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -u.ln() * mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let master = SimRng::seed(1);
        let mut m2 = SimRng::seed(1);
        let _ = m2.next_u64(); // consume parent state
        let mut f1 = master.fork(5);
        let mut f2 = m2.fork(5);
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn a_stored_stream_is_the_generator_alone() {
        assert_eq!(std::mem::size_of::<StreamRng>(), 32);
        let mut forked = SimRng::seed(11).fork(3);
        let mut stored = forked.clone().into_stream();
        for _ in 0..100 {
            assert_eq!(forked.next_u64(), stored.next_u64());
        }
    }

    #[test]
    fn distinct_streams_differ() {
        let master = SimRng::seed(3);
        let x: u64 = master.fork(1).next_u64();
        let y: u64 = master.fork(2).next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn exp_delay_positive_and_mean_correct() {
        let mut rng = SimRng::seed(9);
        let n = 100_000;
        let mean = 0.02;
        let sum: f64 = (0..n).map(|_| exp_delay(&mut rng, mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.001, "observed {observed}");
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn exp_delay_rejects_bad_mean() {
        let mut rng = SimRng::seed(1);
        let _ = exp_delay(&mut rng, 0.0);
    }
}
