//! Injectable packet filters.
//!
//! "A WebWave cache server needs to be able to insert a packet filter into
//! the router associated with it, so that only document request packets
//! that are highly likely to hit in the cache are extracted from their
//! normal path" (Section 1). Engler & Kaashoek's DPF demonstrates 1.51 us
//! per filtered packet; our filters model that architecture: O(1) match,
//! dynamic insert/remove as cache contents change.
//!
//! The implementation is [`CountingBloomFilter`]: constant space and
//! removal support, with a tunable false-positive rate — false positives
//! only cost an extra lookup at the cache, never a wrong answer.

use ww_model::DocId;

/// A router-resident packet filter over document ids.
///
/// Implementations must never report a false *negative*: if a document was
/// inserted (and not removed), `matches` must return `true`, otherwise
/// requests would sail past a cache that could serve them.
pub trait PacketFilter {
    /// Begins intercepting requests for `doc`.
    fn insert(&mut self, doc: DocId);

    /// Stops intercepting requests for `doc`.
    fn remove(&mut self, doc: DocId);

    /// Should a request for `doc` be extracted from its path?
    fn matches(&self, doc: DocId) -> bool;

    /// Number of documents the filter currently intends to intercept.
    fn len(&self) -> usize;

    /// `true` when no documents are being intercepted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A counting Bloom filter: fixed space, supports removal, never reports a
/// false negative, and reports false positives at a rate governed by its
/// size.
///
/// A false positive merely diverts one request to a cache that then misses
/// and forwards it onward — correctness is unaffected, matching the
/// paper's "highly likely to hit" phrasing.
///
/// # Saturation
///
/// Counters are 16-bit. A counter that reaches `u16::MAX` is **pinned**:
/// it can no longer be incremented *or decremented*. Pinning is what
/// preserves the no-false-negative contract — a saturated counter has
/// lost count of how many insertions it absorbed, so any decrement could
/// drop it to zero while live documents still hash to the slot, turning
/// the overflow into false negatives. The price is a permanently "hot"
/// slot (a small, bounded false-positive rate increase), which is the
/// safe side of the trade. Reaching saturation takes 65 535 overlapping
/// insertions on one slot, far beyond any realistic filter load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingBloomFilter {
    counters: Vec<u16>,
    hashes: u32,
    items: usize,
}

impl CountingBloomFilter {
    /// Creates a filter with `slots` counters and `hashes` hash functions.
    ///
    /// A common sizing is `slots = 10 * expected_items`, `hashes = 7`
    /// (~1% false positives).
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or `hashes == 0`.
    pub fn new(slots: usize, hashes: u32) -> Self {
        assert!(slots > 0, "bloom filter needs at least one slot");
        assert!(hashes > 0, "bloom filter needs at least one hash");
        CountingBloomFilter {
            counters: vec![0; slots],
            hashes,
            items: 0,
        }
    }

    /// Sizes a filter for `expected_items` with roughly 1% false positives.
    pub fn for_capacity(expected_items: usize) -> Self {
        CountingBloomFilter::new(expected_items.max(1) * 10, 7)
    }

    fn slot(&self, doc: DocId, i: u32) -> usize {
        // Two independent 64-bit mixes combined Kirsch-Mitzenmacher style.
        let h1 = splitmix(doc.value() ^ 0x51_7C_C1_B7_27_22_0A_95);
        let h2 = splitmix(doc.value().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDEAD_BEEF);
        let combined = h1.wrapping_add((i as u64).wrapping_mul(h2 | 1));
        (combined % self.counters.len() as u64) as usize
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl PacketFilter for CountingBloomFilter {
    fn insert(&mut self, doc: DocId) {
        for i in 0..self.hashes {
            let s = self.slot(doc, i);
            self.counters[s] = self.counters[s].saturating_add(1);
        }
        self.items += 1;
    }

    fn remove(&mut self, doc: DocId) {
        // Only decrement if currently present, to keep counters sane when
        // remove is called for an absent document.
        if !self.matches(doc) {
            return;
        }
        for i in 0..self.hashes {
            let s = self.slot(doc, i);
            // A saturated counter is pinned forever: it stopped counting
            // at the cap, so decrementing it could reach zero while other
            // inserted documents still hash here — a false negative,
            // violating the PacketFilter contract. Leaving it at the cap
            // only costs false positives. (The saturating_sub guards the
            // remove-of-a-false-positive case, which may decrement slots
            // the document never incremented.)
            if self.counters[s] != u16::MAX {
                self.counters[s] = self.counters[s].saturating_sub(1);
            }
        }
        self.items = self.items.saturating_sub(1);
    }

    fn matches(&self, doc: DocId) -> bool {
        (0..self.hashes).all(|i| self.counters[self.slot(doc, i)] > 0)
    }

    fn len(&self) -> usize {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_no_false_negatives() {
        let mut f = CountingBloomFilter::for_capacity(1000);
        for i in 0..1000u64 {
            f.insert(DocId::new(i));
        }
        for i in 0..1000u64 {
            assert!(f.matches(DocId::new(i)), "false negative for {i}");
        }
    }

    #[test]
    fn bloom_false_positive_rate_reasonable() {
        let mut f = CountingBloomFilter::for_capacity(1000);
        for i in 0..1000u64 {
            f.insert(DocId::new(i));
        }
        let false_positives = (1000..11_000u64)
            .filter(|&i| f.matches(DocId::new(i)))
            .count();
        let rate = false_positives as f64 / 10_000.0;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn bloom_removal_restores_misses() {
        let mut f = CountingBloomFilter::for_capacity(100);
        for i in 0..50u64 {
            f.insert(DocId::new(i));
        }
        for i in 0..50u64 {
            f.remove(DocId::new(i));
        }
        assert_eq!(f.len(), 0);
        let survivors = (0..50u64).filter(|&i| f.matches(DocId::new(i))).count();
        assert_eq!(survivors, 0, "all removed docs must miss");
    }

    #[test]
    fn bloom_remove_absent_is_harmless() {
        let mut f = CountingBloomFilter::for_capacity(10);
        f.insert(DocId::new(1));
        f.remove(DocId::new(999)); // likely absent; must not corrupt doc 1
        assert!(f.matches(DocId::new(1)));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn bloom_zero_slots_rejected() {
        let _ = CountingBloomFilter::new(0, 3);
    }

    #[test]
    fn saturated_counter_never_yields_false_negative() {
        // Regression: with saturating_add + unconditional decrement, a
        // counter that clips at u16::MAX forgets insertions; removing the
        // overflow documents then drags it to zero and documents that are
        // still inserted vanish from the filter — a false negative. The
        // fix pins saturated counters: they never decrement again.
        let mut f = CountingBloomFilter::new(1, 1); // everything shares slot 0
        let resident = DocId::new(42);
        f.insert(resident); // counter = 1
        let churn = u16::MAX as u64; // enough inserts to clip the counter
        for i in 0..churn {
            f.insert(DocId::new(1_000_000 + i));
        }
        for i in 0..churn {
            f.remove(DocId::new(1_000_000 + i));
        }
        // `resident` was inserted and never removed: the filter contract
        // says it MUST still match, however battered the counter is.
        assert!(
            f.matches(resident),
            "saturation + removal churn produced a false negative"
        );
    }

    #[test]
    fn pinned_slot_stays_pinned_but_bookkeeping_survives() {
        let mut f = CountingBloomFilter::new(1, 1);
        for i in 0..(u16::MAX as u64 + 10) {
            f.insert(DocId::new(i));
        }
        for i in 0..(u16::MAX as u64 + 10) {
            f.remove(DocId::new(i));
        }
        // The slot saturated, so it is pinned hot: matches() stays true
        // (false positives only — the safe failure mode), and the item
        // count still reaches zero.
        assert_eq!(f.len(), 0);
        assert!(f.matches(DocId::new(7)));
    }

    #[test]
    fn filters_usable_as_trait_objects() {
        let mut f: Box<dyn PacketFilter> = Box::new(CountingBloomFilter::for_capacity(16));
        f.insert(DocId::new(5));
        assert!(f.matches(DocId::new(5)));
    }
}
