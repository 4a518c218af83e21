//! `ww-sysbench`: the repo's benchmark. See `benchmark/README.md`.

pub mod alloc;
pub mod digest;
pub mod host;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod rep;
pub mod report;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod worlds;
