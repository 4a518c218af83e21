//! The eager `SimRng` `ww-sim` shipped before the seed-only one: every
//! fork seeded a full generator beside the seed, and a `SimRng` drew
//! from it directly. The reference `tests/fork_tree.rs` holds the live
//! fork tree to, draw for draw. Not part of the library.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The seed and the generator seeded from it: 40 bytes.
#[derive(Debug, Clone)]
pub struct OldSimRng {
    seed: u64,
    inner: StdRng,
}

impl OldSimRng {
    pub fn seed(seed: u64) -> Self {
        OldSimRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    pub fn fork(&self, stream: u64) -> OldSimRng {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        OldSimRng {
            seed: z,
            inner: StdRng::seed_from_u64(z),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}
