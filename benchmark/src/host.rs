//! What the host tells us about itself: a spin-kernel calibration (this
//! VM alternates between two speed modes about 27 % apart), a
//! dependent-load chase that tracks how fast memory answers right now,
//! and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// One xorshift64 step: the benchmark's cheap pseudo-random stream for
/// kernels and probe inputs (`x` must start non-zero).
pub fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Nanoseconds for a fixed integer kernel (an xorshift chain the compiler
/// cannot shorten). About 10 ms; only ever compared with other readings
/// of itself.
pub fn calibrate_ns() -> f64 {
    let start = Instant::now();
    let mut x: u64 = black_box(0x2545_F491_4F6C_DD1D);
    for _ in 0..4_000_000u32 {
        xorshift(&mut x);
    }
    black_box(x);
    start.elapsed().as_nanos() as f64
}

/// Share of calibration readings in the host's fast mode: within 12 % of
/// the fastest reading seen (the modes sit about 27 % apart). Reads 1.0
/// when a run never saw the other mode.
pub fn fast_share(readings: &[f64]) -> f64 {
    let fastest = readings.iter().copied().fold(f64::INFINITY, f64::min);
    let fast = readings.iter().filter(|&&r| r < fastest * 1.12).count();
    fast as f64 / readings.len().max(1) as f64
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line: {line}"))?;
    Ok(kib / 1024.0)
}

/// A pointer chase through a table far larger than the private caches
/// and the TLB's reach: every load depends on the one before, so its time
/// is the host's memory latency as this guest sees it at this moment. The packet engines are bound by the
/// same thing (tens of MiB of node state touched at random), which is why
/// a reading tracks their speed where the integer spin kernel does not.
#[derive(Debug)]
pub struct Chase {
    /// One cycle through all entries: `table[i]` is the entry after `i`.
    table: Vec<u32>,
    at: u32,
}

/// The chase reading at which a scaled timing equals the raw one: about
/// what this host reads in its slower, more common phase.
pub const REFERENCE_CHASE_NS: f64 = 240.0;

/// The factor that scales a time taken at chase reading `chase_ns` to
/// the reference reading. Proportional on purpose: within one process an
/// engine's time moves 1.1 to 1.8 % per 1 % of chase, but across
/// processes (each with its own page placement) an exponent of 1.5
/// widened the same-code spread of two workloads, and 1 gave the smallest
/// worst case over the four.
pub fn to_reference(chase_ns: f64) -> f64 {
    REFERENCE_CHASE_NS / chase_ns
}

impl Chase {
    /// 64 MiB of `u32`. Build it after `VmHWM` has been read.
    const ENTRIES: usize = 16 << 20;
    /// Loads per reading: about 10 ms.
    const STEPS: u32 = 50_000;

    pub fn new() -> Self {
        // Sattolo's shuffle: a single cycle, so a walk never falls into a
        // short loop that fits a cache.
        let mut table: Vec<u32> = (0..Self::ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..Self::ENTRIES).rev() {
            table.swap(i, (xorshift(&mut x) % i as u64) as usize);
        }
        Chase { table, at: 0 }
    }

    /// Nanoseconds per dependent load over the next [`Self::STEPS`] loads.
    pub fn sample_ns(&mut self) -> f64 {
        let start = Instant::now();
        let mut i = self.at;
        for _ in 0..Self::STEPS {
            i = self.table[i as usize];
        }
        self.at = black_box(i);
        start.elapsed().as_nanos() as f64 / f64::from(Self::STEPS)
    }
}

impl Default for Chase {
    fn default() -> Self {
        Chase::new()
    }
}
