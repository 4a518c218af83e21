//! # ww-net — network substrate: packets, injectable filters, traffic ledger
//!
//! WebWave's architectural premise (paper, Sections 1 and 7) is that cache
//! servers inject *packet filters* into their co-located routers so that
//! document requests "stumble on" cache copies en route to the home
//! server — no directory lookup, no redirect, no discovery protocol. The
//! packet engines run that walk in `ww_core::packet::on_packet` over each
//! node's filter bits; this crate supplies the pieces around it:
//!
//! * [`DocRequest`] / [`DocResponse`] — request packets climbing the
//!   routing tree and their responses,
//! * [`PacketFilter`] with [`CountingBloomFilter`] — the injectable
//!   filter (O(1) match, removal, no false negatives),
//! * [`TrafficLedger`] / [`TrafficClass`] — the message/byte accounting
//!   behind the scalability comparisons.
//!
//! # Example
//!
//! ```
//! use ww_model::{DocId, NodeId};
//! use ww_net::{
//!     CountingBloomFilter, DocRequest, DocResponse, PacketFilter, RequestId, TrafficClass,
//!     TrafficLedger,
//! };
//!
//! // A cache at node 1 injects a filter for d7; a request from node 2
//! // climbs one hop and is intercepted there.
//! let mut filter = CountingBloomFilter::for_capacity(16);
//! filter.insert(DocId::new(7));
//! let req = DocRequest::new(RequestId::new(0), NodeId::new(2)).hop();
//! assert!(filter.matches(DocId::new(7)));
//! let resp = DocResponse::serve(&req, NodeId::new(1));
//! assert_eq!(resp.round_trip_hops, 2);
//!
//! let mut ledger = TrafficLedger::new();
//! ledger.record(TrafficClass::Request, req.wire_bytes(), req.hops);
//! assert_eq!(ledger.link_transmissions(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod packet;
pub mod stats;

pub use filter::{CountingBloomFilter, PacketFilter};
pub use packet::{DocRequest, DocResponse, RequestId};
pub use stats::{TrafficClass, TrafficLedger, ALL_TRAFFIC_CLASSES};
