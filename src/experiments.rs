//! Regenerating every figure and table of the paper.
//!
//! One runner per experiment id:
//!
//! | id | function | paper artifact |
//! |----|----------|----------------|
//! | F2 | [`fig2`] | Figure 2 — TLB vs GLE on two rate vectors |
//! | F4 | [`fig4`] | Figure 4 — the complete WebFold folding sequence |
//! | F6a | [`fig6a`] | Figure 6(a) — hand-crafted tree and its folds |
//! | F6b | [`fig6b`] | Figure 6(b) — WebWave distance-to-TLB per iteration |
//! | G9 | [`gamma_study`] | Section 5.1 — `gamma` regression on random trees |
//! | F7 | [`fig7`] | Figure 7 — potential barrier and tunneling |
//! | S2 | [`gle_study`] | Section 2 — GLE diffusion background claims |
//! | A1 | [`baseline_study`] | ablation — WebWave vs directory/DNS/no-cache |
//! | A5 | [`erratic_study`] | future work — erratic request rates |
//! | A6 | [`throughput_study`] | abstract's claim — throughput & idle capacity |
//! | A7 | [`forest_study`] | future work — forest of overlapping trees |
//!
//! The `webwave-exp` binary prints any subset:
//! `cargo run --release --bin webwave-exp -- all`.

pub mod extensions;
pub mod figures;
pub mod table;

pub use extensions::{
    erratic_study, forest_study, throughput_study, ErraticRow, ErraticStudy, ForestStudy,
    ThroughputRow, ThroughputStudy,
};
pub use figures::{
    baseline_study, fig2, fig4, fig6a, fig6b, fig7, gamma_study, gle_study, BaselineStudy,
    ConvergenceResult, Fig2Result, Fig4Result, Fig6aResult, Fig7Result, GammaRow, GammaStudy,
    GleRow, GleStudy,
};
