//! Property-based tests for the network substrate.

use proptest::prelude::*;
use ww_model::{DocId, NodeId};
use ww_net::{CountingBloomFilter, DocRequest, PacketFilter, RequestId, TrafficLedger};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bloom filters never report false negatives, regardless of the
    /// insert set, and removals of inserted items restore misses.
    #[test]
    fn bloom_no_false_negatives(
        docs in proptest::collection::hash_set(0u64..10_000, 1..200)
    ) {
        let mut f = CountingBloomFilter::for_capacity(docs.len());
        for &d in &docs {
            f.insert(DocId::new(d));
        }
        for &d in &docs {
            prop_assert!(f.matches(DocId::new(d)), "false negative for d{d}");
        }
        for &d in &docs {
            f.remove(DocId::new(d));
        }
        prop_assert_eq!(f.len(), 0);
    }

    /// Ledger merge is associative in effect: counts add up.
    #[test]
    fn ledger_merge_adds(
        events in proptest::collection::vec((0usize..6, 0u64..10_000, 0u32..20), 0..50)
    ) {
        let classes = ww_net::ALL_TRAFFIC_CLASSES;
        let mut all = TrafficLedger::new();
        let mut split_a = TrafficLedger::new();
        let mut split_b = TrafficLedger::new();
        for (i, &(c, bytes, hops)) in events.iter().enumerate() {
            all.record(classes[c], bytes, hops);
            if i % 2 == 0 {
                split_a.record(classes[c], bytes, hops);
            } else {
                split_b.record(classes[c], bytes, hops);
            }
        }
        split_a.merge(&split_b);
        prop_assert_eq!(split_a.total_messages(), all.total_messages());
        prop_assert_eq!(split_a.total_bytes(), all.total_bytes());
        prop_assert_eq!(split_a.link_transmissions(), all.link_transmissions());
        for c in classes {
            prop_assert_eq!(split_a.count(c), all.count(c));
        }
    }

    /// Responses mirror their requests exactly.
    #[test]
    fn response_mirrors_request(id in any::<u64>(), hops in 0u32..100) {
        let mut req = DocRequest::new(RequestId::new(id), NodeId::new(0));
        for _ in 0..hops {
            req = req.hop();
        }
        let resp = ww_net::DocResponse::serve(&req, NodeId::new(1));
        prop_assert_eq!(resp.id, RequestId::new(id));
        prop_assert_eq!(resp.up_hops, hops);
        prop_assert_eq!(resp.round_trip_hops, hops * 2);
    }
}
