//! # ww-sim — deterministic discrete-event simulation kernel
//!
//! The packet-level WebWave protocol (crate `ww-core`, module
//! `distributed`) runs on this kernel: a total-order event queue
//! ([`EventQueue`]), a validated simulation clock ([`SimTime`]) and a
//! deterministic random fork tree: a [`SimRng`] is a seed that forks
//! child seeds, a [`StreamRng`] the one generator a seed becomes.
//! Simulations are pure functions of their inputs and master seed —
//! equal seeds replay equal histories, which the failure-injection tests
//! rely on.
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
//!
//! # The one `unsafe` item
//!
//! This is the only crate under `crates/` that does not
//! `#![forbid(unsafe_code)]`: it denies it, and [`prefetch()`] alone
//! allows it, for one `_mm_prefetch` call. The intrinsic takes a raw
//! pointer, so stable Rust will not call it outside `unsafe`. The packet
//! event loop needs it: after each arrival it peeks the next one
//! ([`RadixQueue::peek_radix`]) and prefetches that arrival's cold row.
//! A prefetch is a hint — it cannot fault, writes nothing and changes
//! no value — so no simulated quantity can depend on it. CI fails if a
//! second `unsafe` block appears under `crates/`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod prefetch;
pub mod queue;
pub mod radix;
pub mod rng;
pub mod time;
pub mod wheel;

pub use engine::EventQueue;
pub use prefetch::prefetch;
pub use queue::SimQueue;
pub use radix::{key_of, time_of, LaneStats, RadixQueue, NO_KEY};
pub use rng::{exp_delay, SimRng, StreamRng};
pub use time::SimTime;
pub use wheel::TimerRing;
