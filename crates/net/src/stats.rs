//! Link- and message-level traffic accounting.
//!
//! The paper's scalability argument is about *overhead*: directory-based
//! schemes pay per-request control traffic, WebWave pays only periodic
//! per-edge gossip. [`TrafficLedger`] counts both so the baseline
//! comparison (experiment A1) can report messages and bytes per served
//! request.

/// Classes of control/data traffic the simulators account for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Client request packets traveling up the tree.
    Request,
    /// Document responses traveling back down.
    Response,
    /// Periodic load gossip between tree neighbors.
    Gossip,
    /// Cache-copy pushes (document payload moving down the tree).
    CopyPush,
    /// Tunneling fetches across potential barriers.
    Tunnel,
    /// Directory lookups/updates (baseline schemes only).
    Directory,
}

/// All traffic classes, for iteration in reports.
pub const ALL_TRAFFIC_CLASSES: [TrafficClass; 6] = [
    TrafficClass::Request,
    TrafficClass::Response,
    TrafficClass::Gossip,
    TrafficClass::CopyPush,
    TrafficClass::Tunnel,
    TrafficClass::Directory,
];

/// Message/byte counters per traffic class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficLedger {
    counts: [u64; 6],
    bytes: [u64; 6],
    hop_messages: u64,
}

#[inline]
fn class_index(c: TrafficClass) -> usize {
    match c {
        TrafficClass::Request => 0,
        TrafficClass::Response => 1,
        TrafficClass::Gossip => 2,
        TrafficClass::CopyPush => 3,
        TrafficClass::Tunnel => 4,
        TrafficClass::Directory => 5,
    }
}

impl TrafficLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        TrafficLedger::default()
    }

    /// Records one message of class `class` carrying `bytes` over
    /// `hops` links.
    #[inline]
    pub fn record(&mut self, class: TrafficClass, bytes: u64, hops: u32) {
        let i = class_index(class);
        self.counts[i] += 1;
        self.bytes[i] += bytes;
        self.hop_messages += u64::from(hops);
    }

    /// Number of messages recorded for `class`.
    pub fn count(&self, class: TrafficClass) -> u64 {
        self.counts[class_index(class)]
    }

    /// Bytes recorded for `class`.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class_index(class)]
    }

    /// Total messages across all classes.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total link-level transmissions (message x hop count).
    pub fn link_transmissions(&self) -> u64 {
        self.hop_messages
    }

    /// Control overhead per served request: non-request/response messages
    /// divided by the number of responses. Returns 0 when nothing was
    /// served yet.
    pub fn control_overhead_per_request(&self) -> f64 {
        let served = self.count(TrafficClass::Response);
        if served == 0 {
            return 0.0;
        }
        let control = self.count(TrafficClass::Gossip)
            + self.count(TrafficClass::CopyPush)
            + self.count(TrafficClass::Tunnel)
            + self.count(TrafficClass::Directory);
        control as f64 / served as f64
    }

    /// The raw counter arrays, `(counts, bytes, hop_messages)` — for
    /// wire serialization by out-of-process drivers.
    pub fn to_raw(&self) -> ([u64; 6], [u64; 6], u64) {
        (self.counts, self.bytes, self.hop_messages)
    }

    /// Rebuilds a ledger from [`TrafficLedger::to_raw`] output.
    pub fn from_raw(counts: [u64; 6], bytes: [u64; 6], hop_messages: u64) -> Self {
        TrafficLedger {
            counts,
            bytes,
            hop_messages,
        }
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &TrafficLedger) {
        for i in 0..6 {
            self.counts[i] += other.counts[i];
            self.bytes[i] += other.bytes[i];
        }
        self.hop_messages += other.hop_messages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_records_by_class() {
        let mut l = TrafficLedger::new();
        l.record(TrafficClass::Request, 64, 3);
        l.record(TrafficClass::Request, 64, 1);
        l.record(TrafficClass::Gossip, 32, 1);
        assert_eq!(l.count(TrafficClass::Request), 2);
        assert_eq!(l.bytes(TrafficClass::Request), 128);
        assert_eq!(l.count(TrafficClass::Gossip), 1);
        assert_eq!(l.total_messages(), 3);
        assert_eq!(l.link_transmissions(), 5);
    }

    #[test]
    fn control_overhead_ratio() {
        let mut l = TrafficLedger::new();
        for _ in 0..10 {
            l.record(TrafficClass::Response, 1024, 2);
        }
        for _ in 0..5 {
            l.record(TrafficClass::Gossip, 32, 1);
        }
        l.record(TrafficClass::Directory, 48, 2);
        assert!((l.control_overhead_per_request() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overhead_zero_before_service() {
        let mut l = TrafficLedger::new();
        l.record(TrafficClass::Gossip, 32, 1);
        assert_eq!(l.control_overhead_per_request(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = TrafficLedger::new();
        a.record(TrafficClass::Tunnel, 100, 2);
        let mut b = TrafficLedger::new();
        b.record(TrafficClass::Tunnel, 50, 1);
        a.merge(&b);
        assert_eq!(a.count(TrafficClass::Tunnel), 2);
        assert_eq!(a.bytes(TrafficClass::Tunnel), 150);
        assert_eq!(a.link_transmissions(), 3);
    }
}
