//! Deterministic random-number streams.
//!
//! Every stochastic component of a simulation (per-node arrival processes,
//! link jitter, workload shuffles) gets its own independent stream forked
//! from one master seed, so runs are reproducible regardless of the order
//! in which components consume randomness.
//!
//! The fork tree is two types. A [`SimRng`] is a node of the tree: one
//! `u64` seed, from which [`SimRng::fork`] derives a child's seed by a
//! SplitMix64 mix and nothing else. It draws nothing. A [`StreamRng`] is
//! a leaf: the one generator, seeded from a `SimRng`'s seed by
//! [`SimRng::into_stream`], so a stream four forks deep seeds one
//! generator.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A node of the fork tree: a seed that forks child seeds and becomes a
/// generator only at a leaf ([`SimRng::into_stream`]).
///
/// # Example
///
/// ```
/// use ww_sim::SimRng;
/// use rand::Rng;
///
/// let master = SimRng::seed(42);
/// let mut a1 = master.fork(1).into_stream();
/// let mut a2 = master.fork(1).into_stream();
/// let mut b = master.fork(2).into_stream();
/// let (x1, x2): (u64, u64) = (a1.gen(), a2.gen());
/// assert_eq!(x1, x2);          // same stream id => same stream
/// assert_ne!(x1, b.gen::<u64>()); // different stream id => independent
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRng {
    seed: u64,
}

impl SimRng {
    /// The root of the fork tree for a master seed.
    pub fn seed(seed: u64) -> Self {
        SimRng { seed }
    }

    /// Forks an independent stream identified by `stream`.
    ///
    /// Forking is a pure function of `(seed, stream)`: a `SimRng` holds
    /// no other state, so fork order never matters.
    #[inline]
    pub fn fork(&self, stream: u64) -> SimRng {
        // SplitMix64-style mixing of seed and stream id.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng { seed: z }
    }

    /// The generator of this stream: the one place a seed becomes a
    /// [`StreamRng`].
    #[inline]
    pub fn into_stream(self) -> StreamRng {
        StreamRng(StdRng::seed_from_u64(self.seed))
    }
}

/// A leaf of the fork tree and the only generator: 32 bytes, seeded by
/// [`SimRng::into_stream`], stored by the thousand (one per arrival
/// stream, one per node's gossip).
///
/// # Example
///
/// ```
/// use ww_sim::SimRng;
/// use rand::Rng;
///
/// let stream = SimRng::seed(42).fork(7);
/// let (mut a, mut b) = (stream.into_stream(), stream.into_stream());
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRng(StdRng);

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
        let mut a = SimRng::seed(7).into_stream();
        let mut b = SimRng::seed(7).into_stream();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let master = SimRng::seed(1);
        // Drawing from a generator of the parent's seed leaves the
        // parent as it was: a `SimRng` is its seed.
        let mut drawn = master.into_stream();
        let _ = drawn.next_u64();
        assert_eq!(master, SimRng::seed(1));
        assert_eq!(master.fork(5), SimRng::seed(1).fork(5));
        // Fork order does not matter either.
        let (a, b) = (master.fork(5), master.fork(6));
        assert_eq!((master.fork(6), master.fork(5)), (b, a));
        assert_ne!(SimRng::seed(2).fork(5), a);
    }

    #[test]
    fn a_stored_stream_is_the_generator_alone() {
        assert_eq!(std::mem::size_of::<StreamRng>(), 32);
        assert_eq!(std::mem::size_of::<SimRng>(), 8);
    }

    #[test]
    fn distinct_streams_differ() {
        let master = SimRng::seed(3);
        let x: u64 = master.fork(1).into_stream().next_u64();
        let y: u64 = master.fork(2).into_stream().next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn exp_delay_positive_and_mean_correct() {
        let mut rng = SimRng::seed(9).into_stream();
        let n = 100_000;
        let mean = 0.02;
        let sum: f64 = (0..n).map(|_| exp_delay(&mut rng, mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.001, "observed {observed}");
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn exp_delay_rejects_bad_mean() {
        let mut rng = SimRng::seed(1).into_stream();
        let _ = exp_delay(&mut rng, 0.0);
    }
}
