//! # ww-topology — routing-tree and graph topologies for WebWave
//!
//! WebWave places cache copies on the routing tree that connects a home
//! server to its clients. This crate generates those trees — deterministic
//! shapes ([`path`], [`star`], [`k_ary`], [`caterpillar`], [`broom`],
//! [`two_level`]), random families ([`random_tree_of_depth`],
//! [`random_recursive_bounded`], [`random_pruefer`]) and the paper's
//! hand-crafted example scenarios ([`paper::fig2a`] .. [`paper::fig7`]) —
//! plus the classic diffusion [`Graph`] topologies ([`ring`],
//! [`hypercube`], [`k_ary_n_cube`], [`complete`]) used by the GLE
//! baselines of Section 2.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use ww_topology::{random_tree_of_depth, paper};
//!
//! // The paper's Section 5.1 regression uses "a random tree with depth 9".
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1997);
//! let tree = random_tree_of_depth(&mut rng, 256, 9);
//! assert_eq!(tree.height(), 9);
//!
//! // The barrier scenario of Figure 7.
//! let barrier = paper::fig7();
//! assert_eq!(barrier.tlb.as_slice(), &[90.0; 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod paper;
pub mod random;
pub mod trees;

pub use graph::{complete, hypercube, k_ary_n_cube, ring, Graph};
pub use random::{random_pruefer, random_recursive_bounded, random_tree_of_depth};
pub use trees::{binary, broom, caterpillar, k_ary, path, star, two_level};
