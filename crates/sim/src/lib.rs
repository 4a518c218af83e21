//! # ww-sim — deterministic discrete-event simulation kernel
//!
//! The packet-level WebWave protocol (crate `ww-core`, module
//! `distributed`) runs on this kernel: a total-order event queue
//! ([`EventQueue`]), a validated simulation clock ([`SimTime`]) and
//! forkable deterministic randomness ([`SimRng`]). Simulations are pure
//! functions of their inputs and master seed — equal seeds replay equal
//! histories, which the failure-injection tests rely on.
//!
//! # Example
//!
//! ```
//! use ww_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(10.0), Ev::Ping(0));
//! let mut count = 0;
//! q.run_until(SimTime::from_secs(1.0), |q, t, Ev::Ping(i)| {
//!     count += 1;
//!     if i < 4 {
//!         q.schedule(t + SimTime::from_millis(10.0), Ev::Ping(i + 1));
//!     }
//! });
//! assert_eq!(count, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod radix;
pub mod rng;
pub mod time;
pub mod wheel;

pub use engine::EventQueue;
pub use queue::SimQueue;
pub use radix::{key_of, time_of, LaneStats, RadixQueue, NO_KEY};
pub use rng::{exp_delay, SimRng, StreamRng};
pub use time::SimTime;
pub use wheel::TimerRing;
