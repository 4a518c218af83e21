//! The output check: one 64-bit digest over the raw bits of everything a
//! packet run reports that the determinism invariants pin.

use ww_core::packetsim::PacketSimReport;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Digest of a report: the convergence trace, the served rates, the four
/// event/request counters and the ledger totals, floats as raw bits.
/// Partition-dependent fields (`shard_event_counts`, `imbalance`,
/// overflow parks) are left out, so the sequential, parallel and
/// distributed engines must agree on it.
pub fn report_digest(report: &PacketSimReport) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.word(report.trace.distances().len() as u64);
    for d in report.trace.distances() {
        h.word(d.to_bits());
    }
    h.word(report.served_rates.len() as u64);
    for r in report.served_rates.as_slice() {
        h.word(r.to_bits());
    }
    h.word(report.processed_events);
    h.word(report.served_requests);
    h.word(report.copy_pushes);
    h.word(report.tunnel_fetches);
    h.word(report.ledger.total_messages());
    h.word(report.ledger.total_bytes());
    h.0
}
