//! Request/response packets flowing on the routing tree.
//!
//! A document request enters the network at its origin node and travels up
//! the tree toward the home server; any node whose packet filter matches
//! may extract and serve it (paper, Sections 1 and 3). Packets carry hop
//! counters so response-time and network-traffic metrics can be derived.

use ww_model::NodeId;

/// Unique identifier of one request in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id.
    pub const fn new(value: u64) -> Self {
        RequestId(value)
    }

    /// The raw value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A document request packet climbing the routing tree.
///
/// The request does not name its document: the packet that carries it
/// does, once, as the document's dense index in the world's table,
/// which a universe growth never moves. That keeps a request in flight
/// at 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocRequest {
    /// Unique id of this request.
    pub id: RequestId,
    /// The node whose client issued the request.
    pub origin: NodeId,
    /// Hops traveled so far (incremented at each router).
    pub hops: u32,
}

impl DocRequest {
    /// Creates a fresh request at its origin (zero hops).
    pub fn new(id: RequestId, origin: NodeId) -> Self {
        DocRequest {
            id,
            origin,
            hops: 0,
        }
    }

    /// Returns the packet advanced by one hop.
    pub fn hop(self) -> Self {
        DocRequest {
            hops: self.hops + 1,
            ..self
        }
    }

    /// Approximate wire size in bytes (header + ids), for traffic
    /// accounting.
    pub const fn wire_bytes(&self) -> u64 {
        64
    }
}

/// The response to a [`DocRequest`]: where it was served and the total
/// round-trip hop count (up to the server, back down to the origin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocResponse {
    /// Id of the request being answered.
    pub id: RequestId,
    /// The node that served it (home server or a cache).
    pub served_by: NodeId,
    /// Hops from origin up to the serving node.
    pub up_hops: u32,
    /// Total round-trip hops (2 * up_hops on a tree).
    pub round_trip_hops: u32,
}

impl DocResponse {
    /// Builds the response for a request served at `served_by` after
    /// `request.hops` upward hops.
    pub fn serve(request: &DocRequest, served_by: NodeId) -> Self {
        DocResponse {
            id: request.id,
            served_by,
            up_hops: request.hops,
            round_trip_hops: request.hops * 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_increments_only_hops() {
        let r = DocRequest::new(RequestId::new(1), NodeId::new(3));
        let r2 = r.hop().hop();
        assert_eq!(r2.hops, 2);
        assert_eq!(r2.origin, r.origin);
        assert_eq!(r2.id, r.id);
    }

    #[test]
    fn response_mirrors_request() {
        let r = DocRequest::new(RequestId::new(9), NodeId::new(5))
            .hop()
            .hop()
            .hop();
        let resp = DocResponse::serve(&r, NodeId::new(1));
        assert_eq!(resp.id, RequestId::new(9));
        assert_eq!(resp.up_hops, 3);
        assert_eq!(resp.round_trip_hops, 6);
        assert_eq!(resp.served_by, NodeId::new(1));
    }

    #[test]
    fn request_id_display() {
        assert_eq!(RequestId::new(4).to_string(), "r4");
    }

    #[test]
    fn zero_hop_service_at_origin() {
        let r = DocRequest::new(RequestId::new(0), NodeId::new(2));
        let resp = DocResponse::serve(&r, NodeId::new(2));
        assert_eq!(resp.round_trip_hops, 0);
    }
}
