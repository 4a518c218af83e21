//! The seed-only fork tree draws what the eager one drew: for any master
//! seed and any fork path, `SimRng::seed(..).fork(..)..into_stream()`
//! yields the same values as the old `SimRng` that carried a seeded
//! generator at every node (`tests/old_rng`).

mod old_rng;

use old_rng::OldSimRng;
use proptest::prelude::*;
use rand::RngCore;
use ww_sim::SimRng;

proptest! {
    #[test]
    fn a_forked_stream_draws_what_the_eager_fork_drew(
        master in any::<u64>(),
        path in proptest::collection::vec(any::<u64>(), 1..=4),
    ) {
        let (mut new, mut old) = (SimRng::seed(master), OldSimRng::seed(master));
        for &stream in &path {
            new = new.fork(stream);
            old = old.fork(stream);
        }
        let mut stream = new.into_stream();
        for draw in 0..64 {
            prop_assert_eq!(stream.next_u64(), old.next_u64(), "draw {}", draw);
        }
    }

    #[test]
    fn the_master_stream_draws_what_the_eager_master_drew(master in any::<u64>()) {
        let (mut new, mut old) = (SimRng::seed(master).into_stream(), OldSimRng::seed(master));
        for draw in 0..64 {
            prop_assert_eq!(new.next_u64(), old.next_u64(), "draw {}", draw);
        }
    }
}
