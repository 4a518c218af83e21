//! How the coordinator obtains its workers.

use std::path::PathBuf;

/// How [`DistPacketSim::launch`](crate::DistPacketSim::launch) brings
/// its workers up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistMode {
    /// Spawn one `webwave-dist worker` OS process per worker (the binary
    /// [`find_worker_bin`] locates).
    Processes,
    /// Spawn one in-process thread per worker, each running the *same*
    /// worker code over real loopback sockets — the full codec and
    /// socket path without needing the worker binary on disk. Runs are
    /// bit-identical to process mode by construction.
    #[default]
    Threads,
    /// Spawn nothing; wait for externally launched workers to connect
    /// (the `webwave-dist serve` path, where CI or an operator starts
    /// worker processes by hand).
    External,
}

/// Locates the `webwave-dist` worker binary for process-mode spawning:
/// the `WW_DIST_WORKER_BIN` environment variable, then a sibling of the
/// current executable, then the parent directory (covers test binaries
/// living in `target/<profile>/deps/`).
pub fn find_worker_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("WW_DIST_WORKER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("webwave-dist{}", std::env::consts::EXE_SUFFIX);
    let sibling = exe.parent()?.join(&name);
    if sibling.is_file() {
        return Some(sibling);
    }
    let above = exe.parent()?.parent()?.join(&name);
    if above.is_file() {
        return Some(above);
    }
    None
}
