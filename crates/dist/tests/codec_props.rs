//! Codec round-trip properties: every message of the distributed
//! protocol survives encode → arbitrary re-chunking → decode unchanged,
//! and malformed frames always yield typed errors, never panics. A
//! demand mix, which the codec streams row by row, is held to the
//! reference encoding and decoder of its `(usize, Vec<(usize, u64,
//! f64)>)` layout.

use proptest::prelude::*;
use ww_core::packet::{BarrierOp, PacketEvent, PacketSimConfig};
use ww_dist::{
    decode_msg, encode_msg, Assign, CodecError, FrameBuffer, Msg, WorkerReport, MAX_FRAME,
};
use ww_model::{DocId, NodeId};
use ww_net::{DocRequest, RequestId};
use ww_pdes::{Wire, PDES_KEYS};
use ww_sim::SimTime;
use ww_workload::DocMix;

fn arb_time() -> impl Strategy<Value = SimTime> {
    (0.0f64..1.0e9).prop_map(SimTime::from_secs)
}

/// Finite rates/loads — `f64` travels as raw bits, but `PartialEq`
/// can't witness a NaN round trip, so the equality property sticks to
/// comparable values (bit-exactness of the payload is checked
/// separately below).
fn arb_f64() -> impl Strategy<Value = f64> {
    (-1.0e12f64..1.0e12).boxed()
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..24).prop_map(|v| String::from_utf8(v).expect("ascii"))
}

fn arb_event() -> BoxedStrategy<PacketEvent> {
    (0u8..6)
        .prop_flat_map(|variant| match variant {
            0 => (0usize..1000, any::<u32>())
                .prop_map(|(node, stream)| PacketEvent::Arrival {
                    node: NodeId::new(node),
                    stream,
                })
                .boxed(),
            1 => (
                0usize..1000,
                proptest::option::of(0u64..1000),
                any::<u64>(),
                0usize..1000,
                any::<u32>(),
                any::<u32>(),
            )
                .prop_map(
                    |(node, from, id, origin, hops, index)| PacketEvent::Packet {
                        node: NodeId::new(node),
                        from: from.map(|f| NodeId::new(f as usize)),
                        request: DocRequest {
                            id: RequestId::new(id),
                            origin: NodeId::new(origin),
                            hops,
                        },
                        index,
                    },
                )
                .boxed(),
            2 => (0usize..1000, 0usize..1000, arb_f64())
                .prop_map(|(to, from, load)| PacketEvent::GossipDeliver {
                    to: NodeId::new(to),
                    from: NodeId::new(from),
                    load,
                })
                .boxed(),
            3 => (0usize..1000, any::<u32>(), arb_f64())
                .prop_map(|(node, index, rate)| PacketEvent::CopyInstall {
                    node: NodeId::new(node),
                    index,
                    rate,
                })
                .boxed(),
            4 => (
                0usize..1000,
                0usize..1000,
                any::<u32>(),
                arb_f64(),
                any::<u32>(),
            )
                .prop_map(
                    |(node, origin, index, rate, hops)| PacketEvent::TunnelProbe {
                        node: NodeId::new(node),
                        origin: NodeId::new(origin),
                        index,
                        rate,
                        hops,
                    },
                )
                .boxed(),
            _ => (0usize..1000, 0usize..1000, any::<u32>(), arb_f64())
                .prop_map(|(node, target, index, rate)| PacketEvent::TunnelGrant {
                    node: NodeId::new(node),
                    target: NodeId::new(target),
                    index,
                    rate,
                })
                .boxed(),
        })
        .boxed()
}

fn arb_wire() -> BoxedStrategy<Wire> {
    (0u8..3)
        .prop_flat_map(|variant| match variant {
            0 => (arb_time(), any::<u64>(), arb_event())
                .prop_map(|(at, counter, ev)| Wire::Event { at, counter, ev })
                .boxed(),
            1 => arb_time().prop_map(|until| Wire::Promise { until }).boxed(),
            _ => Just(Wire::EpochEnd).boxed(),
        })
        .boxed()
}

fn arb_demands() -> impl Strategy<Value = Vec<(usize, u64, f64)>> {
    proptest::collection::vec((0usize..200, 0u64..200, arb_f64()), 0..16)
}

/// A mix over `1..200` nodes (some rows empty), demands folded into
/// its node range and onto valid rates.
fn arb_mix() -> impl Strategy<Value = DocMix> {
    (1usize..200, arb_demands()).prop_map(|(nodes, demands)| {
        let mut mix = DocMix::new(nodes);
        for (node, doc, rate) in demands {
            mix.set(NodeId::new(node % nodes), DocId::new(doc), rate.abs());
        }
        mix
    })
}

fn arb_op() -> BoxedStrategy<BarrierOp> {
    let node = || (0usize..1000).prop_map(NodeId::new);
    let doc = || (0u64..1000).prop_map(DocId::new);
    (0u8..7)
        .prop_flat_map(move |variant| match variant {
            0 => node().prop_map(|node| BarrierOp::FailLink { node }).boxed(),
            1 => node().prop_map(|node| BarrierOp::HealLink { node }).boxed(),
            2 => doc().prop_map(|doc| BarrierOp::Invalidate { doc }).boxed(),
            3 => (node(), arb_f64())
                .prop_map(|(parent, rate)| BarrierOp::AddLeaf { parent, rate })
                .boxed(),
            4 => node()
                .prop_map(|node| BarrierOp::RemoveLeaf { node })
                .boxed(),
            5 => (doc(), node(), arb_f64())
                .prop_map(|(doc, origin, rate)| BarrierOp::PublishDoc { doc, origin, rate })
                .boxed(),
            _ => arb_mix().prop_map(|mix| BarrierOp::SetMix { mix }).boxed(),
        })
        .boxed()
}

fn arb_assign() -> impl Strategy<Value = Assign> {
    (
        (0usize..8, 1usize..9, proptest::option::of(0u64..100_000)),
        proptest::collection::vec(proptest::option::of(0usize..64), 0..24),
        arb_mix(),
        (any::<u64>(), 0.0001f64..10.0, 0.001f64..10.0, any::<u64>()),
        proptest::collection::vec((0usize..8, arb_string()), 0..8),
    )
        .prop_map(
            |((shard_id, shard_hint, stall_ms), parents, mix, cfg, peers)| {
                let (seed, link_delay, diffusion_period, partition_digest) = cfg;
                Assign {
                    shard_id,
                    shard_hint,
                    partition_digest,
                    stall_ms,
                    parents,
                    mix,
                    config: PacketSimConfig {
                        seed,
                        link_delay,
                        diffusion_period,
                        ..PacketSimConfig::default()
                    },
                    peers,
                }
            },
        )
}

fn arb_report() -> impl Strategy<Value = WorkerReport> {
    (
        proptest::collection::vec(arb_f64(), 0..32),
        proptest::collection::vec(any::<u64>(), 13..=13),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        proptest::collection::vec(any::<u64>(), PDES_KEYS.len()),
    )
        .prop_map(|(rates, raw, counters, rest, pdes)| {
            let mut counts = [0u64; 6];
            let mut bytes = [0u64; 6];
            counts.copy_from_slice(&raw[0..6]);
            bytes.copy_from_slice(&raw[6..12]);
            let (processed, parks, peak_parked, data_msgs, data_bytes) = rest;
            WorkerReport {
                rates,
                ledger: (counts, bytes, raw[12]),
                counters,
                processed,
                parks,
                peak_parked,
                data_msgs,
                data_bytes,
                pdes,
            }
        })
}

/// One message of any protocol variant.
fn arb_msg() -> BoxedStrategy<Msg> {
    (0u8..16)
        .prop_flat_map(|variant| match variant {
            0 => arb_wire().prop_map(Msg::Wire).boxed(),
            1 => (0usize..16)
                .prop_map(|from_shard| Msg::DataHello { from_shard })
                .boxed(),
            2 => arb_string()
                .prop_map(|data_addr| Msg::Hello { data_addr })
                .boxed(),
            3 => arb_assign().prop_map(Msg::Assign).boxed(),
            4 => Just(Msg::Surplus).boxed(),
            5 => Just(Msg::Ready).boxed(),
            6 => (arb_time(), any::<bool>())
                .prop_map(|(t_end, sample)| Msg::RunEpoch { t_end, sample })
                .boxed(),
            7 => proptest::option::of(proptest::collection::vec(any::<u64>(), 0..40))
                .prop_map(|partial| Msg::EpochDone { partial })
                .boxed(),
            8 => arb_op().prop_map(Msg::Apply).boxed(),
            9 => proptest::option::of(arb_string())
                .prop_map(|err| Msg::Applied { err })
                .boxed(),
            10 => arb_f64().prop_map(|now| Msg::ReportRequest { now }).boxed(),
            11 => arb_report().prop_map(Msg::Report).boxed(),
            12 => Just(Msg::Shutdown).boxed(),
            13 => Just(Msg::BatchBegin).boxed(),
            14 => Just(Msg::BatchCommit).boxed(),
            _ => arb_string().prop_map(|msg| Msg::Fatal { msg }).boxed(),
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(256))]

    /// Every message round-trips through one frame unchanged.
    #[test]
    fn every_variant_roundtrips(msg in arb_msg()) {
        let mut frame = Vec::new();
        encode_msg(&msg, &mut frame);
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len + 4, frame.len(), "length prefix covers the body");
        let back = decode_msg(&frame[4..]).expect("well-formed frame decodes");
        prop_assert_eq!(back, msg);
    }

    /// A stream of frames cut at arbitrary byte boundaries reassembles
    /// into exactly the original message sequence — the property the
    /// socket reader relies on, since TCP reads are arbitrary chunks.
    #[test]
    fn chunked_streams_reassemble(
        msgs in proptest::collection::vec(arb_msg(), 1..12),
        cuts in proptest::collection::vec(1usize..64, 1..64),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            encode_msg(m, &mut stream);
        }
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        let mut at = 0;
        let mut k = 0;
        while at < stream.len() {
            let n = cuts[k % cuts.len()].min(stream.len() - at);
            k += 1;
            fb.feed(&stream[at..at + n]);
            at += n;
            while let Some(m) = fb.next_msg().expect("valid stream") {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(fb.pending(), 0, "no stray bytes left over");
    }

    /// Arbitrary bytes never panic the decoder: every outcome is either
    /// a message or a typed [`CodecError`].
    #[test]
    fn malformed_bodies_never_panic(body in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_msg(&body);
    }

    /// Every strict prefix of a valid body is itself an error (or, for
    /// tag-only messages, a shorter valid message) — never a panic, and
    /// never an out-of-bounds read.
    #[test]
    fn truncated_bodies_are_typed_errors(msg in arb_msg()) {
        let mut frame = Vec::new();
        encode_msg(&msg, &mut frame);
        let body = &frame[4..];
        for cut in 0..body.len() {
            let _ = decode_msg(&body[..cut]);
        }
    }
}

/// 64-bit FNV-1a of a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One frame of every message, event and barrier-op variant, with both
/// arms of every `Option` field.
fn one_of_everything() -> Vec<Msg> {
    let (t, node, doc) = (SimTime::from_secs, NodeId::new, DocId::new);
    let request = |origin, hops| DocRequest {
        id: RequestId::new(9),
        origin: node(origin),
        hops,
    };
    let events = [
        PacketEvent::Arrival {
            node: node(3),
            stream: 2,
        },
        PacketEvent::Packet {
            node: node(4),
            from: None,
            request: request(4, 0),
            index: 1,
        },
        PacketEvent::Packet {
            node: node(1),
            from: Some(node(4)),
            request: request(4, 1),
            index: 1,
        },
        PacketEvent::GossipDeliver {
            to: node(1),
            from: node(0),
            load: 12.5,
        },
        PacketEvent::CopyInstall {
            node: node(5),
            index: 3,
            rate: 0.25,
        },
        PacketEvent::TunnelProbe {
            node: node(2),
            origin: node(7),
            index: 0,
            rate: 1.5,
            hops: 3,
        },
        PacketEvent::TunnelGrant {
            node: node(6),
            target: node(7),
            index: 0,
            rate: 1.5,
        },
    ];
    let mut mix = DocMix::new(3);
    mix.set(node(1), doc(4), 2.0);
    mix.set(node(2), doc(0), 0.5);
    mix.set(node(2), doc(4), 7.0);
    let ops = [
        BarrierOp::FailLink { node: node(2) },
        BarrierOp::HealLink { node: node(2) },
        BarrierOp::Invalidate { doc: doc(4) },
        BarrierOp::AddLeaf {
            parent: node(0),
            rate: 3.0,
        },
        BarrierOp::RemoveLeaf { node: node(2) },
        BarrierOp::PublishDoc {
            doc: doc(8),
            origin: node(1),
            rate: 4.5,
        },
        BarrierOp::SetMix { mix: mix.clone() },
    ];
    let assign = |stall_ms, alpha| {
        Msg::Assign(Assign {
            shard_id: 1,
            shard_hint: 2,
            partition_digest: 0xfeed_beef,
            stall_ms,
            parents: vec![None, Some(0), Some(0)],
            mix: mix.clone(),
            config: PacketSimConfig {
                alpha,
                ..PacketSimConfig::default()
            },
            peers: vec![(0, "127.0.0.1:7001".into()), (1, "127.0.0.1:7002".into())],
        })
    };
    let mut msgs: Vec<Msg> = (0u64..)
        .zip(events)
        .map(|(i, ev)| {
            Msg::Wire(Wire::Event {
                at: t(0.5 + i as f64),
                counter: i,
                ev,
            })
        })
        .collect();
    msgs.extend([
        Msg::Wire(Wire::Promise { until: t(9.0) }),
        Msg::Wire(Wire::EpochEnd),
        Msg::DataHello { from_shard: 1 },
        Msg::Hello {
            data_addr: "127.0.0.1:7002".into(),
        },
        assign(Some(250), None),
        assign(None, Some(0.2)),
        Msg::Surplus,
        Msg::Ready,
        Msg::RunEpoch {
            t_end: t(10.0),
            sample: true,
        },
        Msg::EpochDone { partial: None },
        Msg::EpochDone {
            partial: Some(vec![1, u64::MAX, 0]),
        },
        Msg::BatchBegin,
    ]);
    msgs.extend(ops.into_iter().map(Msg::Apply));
    msgs.extend([
        Msg::BatchCommit,
        Msg::Applied { err: None },
        Msg::Applied {
            err: Some("no such leaf".into()),
        },
        Msg::ReportRequest { now: 12.0 },
        Msg::Report(WorkerReport {
            rates: vec![1.0, 2.5],
            ledger: ([1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12], 13),
            counters: (14, 15, 16, 17),
            processed: 18,
            parks: 19,
            peak_parked: 20,
            data_msgs: 21,
            data_bytes: 22,
            pdes: (0..PDES_KEYS.len() as u64).collect(),
        }),
        Msg::Shutdown,
        Msg::Fatal {
            msg: "stalled".into(),
        },
    ]);
    msgs
}

/// The protocol's bytes, pinned: tags, field order, length prefixes and
/// option flags of every frame kind. A layout edit that round-trips
/// (two fields swapped on both sides) still fails here. The `Report`
/// frame carries one counter per `PDES_KEYS` entry, so a key added to
/// that table re-records the pin.
#[test]
fn the_wire_bytes_are_pinned() {
    let msgs = one_of_everything();
    let mut stream = Vec::new();
    for msg in &msgs {
        let at = stream.len();
        encode_msg(msg, &mut stream);
        assert_eq!(decode_msg(&stream[at + 4..]).as_ref(), Ok(msg));
    }
    assert_eq!(
        (msgs.len(), stream.len(), fnv1a(&stream)),
        (33, 1543, 0xd0ed_da20_ebad_e2a5),
        "digest {:#018x}",
        fnv1a(&stream)
    );
}

/// An `Assign` carries its demand mix in `SetMix`'s layout and under
/// its checks: a demand outside the mix, a rate `DocMix` refuses, or a
/// node count no frame could describe decodes to a typed error instead
/// of panicking the worker that rebuilds the world from it.
#[test]
fn a_malformed_assign_mix_is_typed() {
    let mut mix = DocMix::new(2);
    mix.set(NodeId::new(1), DocId::new(5), 3.0);
    let assign = Assign {
        shard_id: 0,
        shard_hint: 1,
        partition_digest: 0,
        stall_ms: None,
        parents: vec![None, Some(0)],
        mix,
        config: PacketSimConfig::default(),
        peers: Vec::new(),
    };
    let mut frame = Vec::new();
    encode_msg(&Msg::Assign(assign), &mut frame);
    let body = &frame[4..];
    // tag, shard id, hint, digest, `stall_ms` flag, two parents behind
    // their count (`None`: a flag, `Some(0)`: a flag and a u64); then
    // the mix: nodes: u64, demand count: u32, then the demand.
    let nodes_at = 1 + 8 + 8 + 8 + 1 + (4 + 1 + 9);
    let (node_at, rate_at) = (nodes_at + 12, nodes_at + 12 + 16);
    let mut stray = body.to_vec();
    stray[node_at] = 2;
    let mut negative = body.to_vec();
    negative[rate_at..rate_at + 8].copy_from_slice(&(-3.0f64).to_bits().to_le_bytes());
    let mut nan = body.to_vec();
    nan[rate_at..rate_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    let mut huge = body.to_vec();
    huge[nodes_at..nodes_at + 8].copy_from_slice(&(1u64 << 31).to_le_bytes());
    assert!(decode_msg(body).is_ok());
    for (bad, what) in [
        (stray, "mix demand"),
        (negative, "mix demand"),
        (nan, "mix demand"),
        (huge, "mix nodes"),
    ] {
        assert_eq!(decode_msg(&bad), Err(CodecError::BadValue { what }));
    }
}

/// A node id travels as eight bytes, but a `NodeId` holds indices
/// below `u32::MAX`: a frame naming a wider one — an event's `node`,
/// `from` or request `origin`, or an `Assign` parent — decodes to a
/// typed error instead of panicking in `NodeId::new`. The widest id
/// that fits decodes.
#[test]
fn a_node_id_that_does_not_fit_is_typed() {
    let refusal = Err(CodecError::BadValue { what: "node id" });
    let patched = |body: &[u8], at: usize, id: u64| {
        let mut bad = body.to_vec();
        bad[at..at + 8].copy_from_slice(&id.to_le_bytes());
        decode_msg(&bad)
    };
    let widest = u64::from(u32::MAX) - 1;

    let event = |id: usize| {
        Msg::Wire(Wire::Event {
            at: SimTime::from_secs(1.0),
            counter: 1,
            ev: PacketEvent::Packet {
                node: NodeId::new(id),
                from: Some(NodeId::new(id)),
                request: DocRequest {
                    id: RequestId::new(9),
                    origin: NodeId::new(id),
                    hops: 1,
                },
                index: 0,
            },
        })
    };
    let mut frame = Vec::new();
    encode_msg(&event(3), &mut frame);
    let body = &frame[4..];
    // wire tag, time, counter, event tag; then `node`, the `from` flag
    // and `from`, the request id and `origin`.
    let (node_at, from_at, origin_at) = (18, 27, 43);
    for at in [node_at, from_at, origin_at] {
        assert_eq!(patched(body, at, 3), Ok(event(3)));
        assert_eq!(patched(body, at, u64::from(u32::MAX)), refusal, "at {at}");
        assert_eq!(patched(body, at, u64::MAX), refusal, "at {at}");
    }
    let mut frame = Vec::new();
    encode_msg(&event(widest as usize), &mut frame);
    assert_eq!(decode_msg(&frame[4..]), Ok(event(widest as usize)));

    let mut mix = DocMix::new(2);
    mix.set(NodeId::new(1), DocId::new(5), 3.0);
    let assign = |parent| {
        Msg::Assign(Assign {
            shard_id: 0,
            shard_hint: 1,
            partition_digest: 0,
            stall_ms: None,
            parents: vec![None, Some(parent)],
            mix: mix.clone(),
            config: PacketSimConfig::default(),
            peers: Vec::new(),
        })
    };
    let mut frame = Vec::new();
    encode_msg(&assign(0), &mut frame);
    // tag, shard id, hint, digest, `stall_ms` flag, the parent count,
    // `None`'s flag, then `Some`'s flag and the parent.
    let parent_at = 1 + 8 + 8 + 8 + 1 + 4 + 1 + 1;
    assert_eq!(
        patched(&frame[4..], parent_at, widest),
        Ok(assign(widest as usize))
    );
    assert_eq!(
        patched(&frame[4..], parent_at, u64::from(u32::MAX)),
        refusal
    );
}

/// An `Assign` whose config the worker's world or timers would refuse
/// is a typed decode error naming the field — one case per checked
/// field, on both sides of each range's edge. Values at the edge decode.
#[test]
fn an_out_of_range_assign_config_is_typed() {
    let assign = |config| {
        let mut mix = DocMix::new(2);
        mix.set(NodeId::new(1), DocId::new(5), 3.0);
        let mut frame = Vec::new();
        let msg = Msg::Assign(Assign {
            shard_id: 0,
            shard_hint: 1,
            partition_digest: 0,
            stall_ms: None,
            parents: vec![None, Some(0)],
            mix,
            config,
            peers: Vec::new(),
        });
        encode_msg(&msg, &mut frame);
        (decode_msg(&frame[4..]), msg)
    };
    type Edit = fn(&mut PacketSimConfig);
    let refused: [(Edit, &str); 12] = [
        (|c| c.link_delay = -0.001, "link delay"),
        (|c| c.link_delay = f64::NAN, "link delay"),
        (|c| c.link_delay = f64::INFINITY, "link delay"),
        (|c| c.gossip_period = 0.0, "gossip period"),
        (|c| c.gossip_period = f64::INFINITY, "gossip period"),
        (|c| c.diffusion_period = -1.0, "diffusion period"),
        (|c| c.measure_window = 0.0, "measure window"),
        (|c| c.alpha = Some(1.0), "diffusion alpha"),
        (|c| c.alpha = Some(0.0), "diffusion alpha"),
        (|c| c.alpha = Some(f64::NAN), "diffusion alpha"),
        (|c| c.gossip_loss = 1.5, "gossip loss"),
        (|c| c.gossip_loss = -0.1, "gossip loss"),
    ];
    let accepted: [Edit; 5] = [
        |_| {},
        |c| c.link_delay = 0.0,
        |c| c.alpha = Some(0.5),
        |c| c.gossip_loss = 0.0,
        |c| c.gossip_loss = 1.0,
    ];
    let config = |edit: Edit| {
        let mut config = PacketSimConfig::default();
        edit(&mut config);
        config
    };
    for (edit, what) in refused {
        let config = config(edit);
        let refusal = Err(CodecError::BadValue { what });
        assert_eq!(assign(config).0, refusal, "{config:?}");
    }
    for edit in accepted {
        let (decoded, msg) = assign(config(edit));
        assert_eq!(decoded, Ok(msg));
    }
}

#[test]
fn f64_payloads_are_bit_exact() {
    // Denormals, negative zero, and exact dyadics all survive: floats
    // travel as raw bits, never through text.
    for &bits in &[
        0u64,
        f64::MIN_POSITIVE.to_bits() >> 3, // subnormal
        (-0.0f64).to_bits(),
        1.0f64.to_bits(),
        (1.0f64 / 3.0).to_bits(),
    ] {
        let msg = Msg::ReportRequest {
            now: f64::from_bits(bits),
        };
        let mut frame = Vec::new();
        encode_msg(&msg, &mut frame);
        match decode_msg(&frame[4..]).unwrap() {
            Msg::ReportRequest { now } => assert_eq!(now.to_bits(), bits),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}

#[test]
fn oversize_length_prefix_is_rejected_before_buffering() {
    let mut fb = FrameBuffer::new();
    fb.feed(&u32::MAX.to_le_bytes());
    match fb.next_msg() {
        Err(CodecError::Oversize { len }) => assert_eq!(len, u64::from(u32::MAX)),
        other => panic!("expected Oversize, got {other:?}"),
    }
}

#[test]
fn bad_tag_and_bad_values_are_typed() {
    assert_eq!(decode_msg(&[0xEE]), Err(CodecError::BadTag { tag: 0xEE }));
    assert_eq!(decode_msg(&[]), Err(CodecError::Truncated));

    // A Promise carrying NaN: a typed domain error, not a poisoned
    // SimTime.
    let mut frame = Vec::new();
    encode_msg(
        &Msg::RunEpoch {
            t_end: SimTime::from_secs(1.0),
            sample: false,
        },
        &mut frame,
    );
    let mut body = frame[4..].to_vec();
    body[1..9].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    assert_eq!(
        decode_msg(&body),
        Err(CodecError::BadValue { what: "sim time" })
    );

    // A mix whose demand names a node outside it (or carries a rate
    // `DocMix` would refuse): a typed error, not a worker panic.
    let mut mix = DocMix::new(2);
    mix.set(NodeId::new(1), DocId::new(5), 3.0);
    let mut frame = Vec::new();
    encode_msg(&Msg::Apply(BarrierOp::SetMix { mix }), &mut frame);
    let body = &frame[4..];
    // tag, subtag, nodes: u64, demand count: u32, then the demand.
    let (node_at, rate_at) = (14, 14 + 16);
    let mut stray = body.to_vec();
    stray[node_at] = 2;
    let mut negative = body.to_vec();
    negative[rate_at..rate_at + 8].copy_from_slice(&(-3.0f64).to_bits().to_le_bytes());
    let mut huge = body.to_vec();
    huge[2..10].copy_from_slice(&(1u64 << 31).to_le_bytes());
    assert!(decode_msg(body).is_ok());
    for (bad, what) in [
        (stray, "mix demand"),
        (negative, "mix demand"),
        (huge, "mix nodes"),
    ] {
        assert_eq!(decode_msg(&bad), Err(CodecError::BadValue { what }));
    }

    // A worker's counter slab one value short or one long: a typed
    // error, not a coordinator that merges slabs of different tables.
    for len in [PDES_KEYS.len() - 1, PDES_KEYS.len() + 1] {
        let report = WorkerReport {
            rates: vec![1.0],
            ledger: ([0; 6], [0; 6], 0),
            counters: (0, 0, 0, 0),
            processed: 0,
            parks: 0,
            peak_parked: 0,
            data_msgs: 0,
            data_bytes: 0,
            pdes: vec![7; len],
        };
        let mut frame = Vec::new();
        encode_msg(&Msg::Report(report), &mut frame);
        assert_eq!(
            decode_msg(&frame[4..]),
            Err(CodecError::BadValue {
                what: "pdes counter slab"
            })
        );
    }

    // Trailing garbage after a complete message.
    let mut frame = Vec::new();
    encode_msg(&Msg::Ready, &mut frame);
    let mut body = frame[4..].to_vec();
    body.push(0);
    assert_eq!(decode_msg(&body), Err(CodecError::Truncated));
}

/// A mix with empty rows, zero rates and a universe wider than 64
/// documents: `1..120` nodes, up to 300 demands over ids below 400, a
/// quarter of them at rate zero.
fn arb_wide_mix() -> impl Strategy<Value = DocMix> {
    let demand = (0usize..120, 0u64..400, 0u8..4, 0.0f64..1.0e6);
    (1usize..120, proptest::collection::vec(demand, 0..300)).prop_map(|(nodes, demands)| {
        let mut mix = DocMix::new(nodes);
        for (node, doc, kind, rate) in demands {
            let rate = if kind == 0 { 0.0 } else { rate };
            mix.set(NodeId::new(node % nodes), DocId::new(doc), rate);
        }
        mix
    })
}

/// The reference encoding of a mix: its node count, then its demands
/// collected into one `Vec<(usize, u64, f64)>` in node-major order and
/// written in that vector's layout.
fn reference_mix_bytes(mix: &DocMix) -> Vec<u8> {
    let demands: Vec<(usize, u64, f64)> = (0..mix.len())
        .flat_map(|j| {
            let row = mix.demands_of(NodeId::new(j));
            row.iter().map(move |(doc, rate)| (j, doc.value(), rate))
        })
        .collect();
    let mut out = (mix.len() as u64).to_le_bytes().to_vec();
    out.extend((demands.len() as u32).to_le_bytes());
    for (node, doc, rate) in demands {
        out.extend((node as u64).to_le_bytes());
        out.extend(doc.to_le_bytes());
        out.extend(rate.to_bits().to_le_bytes());
    }
    out
}

/// The reference decoder of an `Apply(SetMix)` frame body: the node
/// count (checked), the whole demand vector (its claimed length checked
/// against the body, then every triple read), and only then every
/// demand checked and set in order.
fn reference_set_mix(body: &[u8]) -> Result<Msg, CodecError> {
    assert_eq!(body[..2], [22, 6], "an Apply(SetMix) body");
    let mut rest = &body[2..];
    let mut word = |n: usize| {
        if rest.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = rest.split_at(n);
        rest = tail;
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(head);
        Ok(u64::from_le_bytes(le))
    };
    let nodes = word(8)? as usize;
    if nodes > MAX_FRAME / 8 {
        return Err(CodecError::BadValue { what: "mix nodes" });
    }
    let count = word(4)? as usize;
    if count.saturating_mul(24) > body.len() {
        return Err(CodecError::Truncated);
    }
    let mut demands = Vec::with_capacity(count);
    for _ in 0..count {
        demands.push((word(8)? as usize, word(8)?, f64::from_bits(word(8)?)));
    }
    let mut mix = DocMix::new(nodes);
    for (node, doc, rate) in demands {
        if node >= nodes || !rate.is_finite() || rate < 0.0 {
            return Err(CodecError::BadValue { what: "mix demand" });
        }
        mix.set(NodeId::new(node), DocId::new(doc), rate);
    }
    if !rest.is_empty() {
        return Err(CodecError::Truncated);
    }
    Ok(Msg::Apply(BarrierOp::SetMix { mix }))
}

/// One of the ways a mix frame goes bad, applied to `body` (an
/// `Apply(SetMix)` body) at demand `pick` of `count` and position
/// `cut`: a stray node, a NaN, negative, infinite or negative-zero
/// rate, an impossible or a shrunken node count, a wrong demand count,
/// a cut body, and a bad demand ahead of a cut.
fn spoil(body: &mut Vec<u8>, kind: u8, pick: usize, cut: usize) {
    const NODES: usize = 2;
    const COUNT: usize = NODES + 8;
    let count = u32::from_le_bytes(body[COUNT..COUNT + 4].try_into().unwrap()) as usize;
    let demand = |field: usize| COUNT + 4 + (pick % count.max(1)) * 24 + field * 8;
    let put = |body: &mut Vec<u8>, at: usize, bytes: [u8; 8]| {
        if count > 0 {
            body[at..at + 8].copy_from_slice(&bytes);
        }
    };
    let nodes = u64::from_le_bytes(body[NODES..NODES + 8].try_into().unwrap());
    match kind {
        0 => {}
        1 => put(body, demand(0), (nodes + pick as u64).to_le_bytes()),
        2 => put(body, demand(2), f64::NAN.to_bits().to_le_bytes()),
        3 => put(
            body,
            demand(2),
            (-1.0 - pick as f64).to_bits().to_le_bytes(),
        ),
        4 => put(body, demand(2), f64::INFINITY.to_bits().to_le_bytes()),
        5 => put(body, demand(2), (-0.0f64).to_bits().to_le_bytes()),
        6 => {
            let huge = (MAX_FRAME / 8 + 1 + pick) as u64;
            body[NODES..NODES + 8].copy_from_slice(&huge.to_le_bytes());
        }
        7 => {
            let fewer = pick as u64 % nodes;
            body[NODES..NODES + 8].copy_from_slice(&fewer.to_le_bytes());
        }
        8 => {
            let claimed = match pick % 3 {
                0 => count + 1,
                1 => count.saturating_sub(1),
                _ => u32::MAX as usize,
            };
            body[COUNT..COUNT + 4].copy_from_slice(&(claimed as u32).to_le_bytes());
        }
        9 => body.truncate(cut % (body.len() + 1)),
        _ => {
            put(body, demand(0), (nodes + 1).to_le_bytes());
            body.truncate(body.len() - 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(256))]

    /// The streamed mix encoding is byte for byte the reference's.
    #[test]
    fn a_streamed_mix_is_the_reference_encoding(mix in arb_wide_mix()) {
        let mut frame = Vec::new();
        encode_msg(&Msg::Apply(BarrierOp::SetMix { mix: mix.clone() }), &mut frame);
        let mut expected = vec![22, 6];
        expected.extend(reference_mix_bytes(&mix));
        prop_assert_eq!(u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize, expected.len());
        prop_assert_eq!(&frame[4..], &expected[..]);
    }

    /// The streamed decoder accepts what the reference accepts, into the
    /// same mix, and refuses what it refuses, with the same error.
    #[test]
    fn the_streamed_decoder_refuses_what_the_reference_refuses(
        mix in arb_wide_mix(),
        kind in 0u8..11,
        pick in 0usize..1000,
        cut in any::<usize>(),
    ) {
        let mut frame = Vec::new();
        encode_msg(&Msg::Apply(BarrierOp::SetMix { mix }), &mut frame);
        let mut body = frame[4..].to_vec();
        spoil(&mut body, kind, pick, cut);
        // A cut through the tags is no mix frame at all.
        if body.len() >= 2 {
            prop_assert_eq!(decode_msg(&body), reference_set_mix(&body), "kind {}", kind);
        }
    }

    /// Codes never reach the wire: the same demands set in reverse, so
    /// that the mix codes its documents in another order, encode to the
    /// same bytes, and so does the mix the frame decodes into.
    #[test]
    fn a_mix_encodes_the_same_whatever_its_codes(mix in arb_wide_mix()) {
        let frame_of = |mix: DocMix| {
            let mut frame = Vec::new();
            encode_msg(&Msg::Apply(BarrierOp::SetMix { mix }), &mut frame);
            frame
        };
        let demands: Vec<(NodeId, DocId, f64)> = (0..mix.len())
            .map(NodeId::new)
            .flat_map(|u| mix.demands_of(u).iter().map(move |(d, r)| (u, d, r)))
            .collect();
        let mut reversed = DocMix::new(mix.len());
        for &(u, d, r) in demands.iter().rev() {
            reversed.set(u, d, r);
        }
        let frame = frame_of(mix);
        prop_assert_eq!(&frame_of(reversed), &frame);
        let Ok(Msg::Apply(BarrierOp::SetMix { mix: decoded })) = decode_msg(&frame[4..]) else {
            panic!("the frame decodes");
        };
        prop_assert_eq!(&frame_of(decoded), &frame);
    }

    /// A frame whose triples come in any order decodes into a mix `==`
    /// to the node-major frame's: the decoder sets each demand where it
    /// belongs, whatever row the mix's buffer last grew.
    #[test]
    fn shuffled_mix_triples_decode_to_the_node_major_mix(
        mix in arb_wide_mix(),
        keys in proptest::collection::vec(any::<u64>(), 300),
    ) {
        let mut frame = Vec::new();
        encode_msg(&Msg::Apply(BarrierOp::SetMix { mix: mix.clone() }), &mut frame);
        let body = &frame[4..];
        // The tags, the node count and the triple count, then the triples.
        let (head, triples) = body.split_at(2 + 8 + 4);
        let mut order: Vec<(u64, &[u8])> = keys.iter().copied().zip(triples.chunks(24)).collect();
        order.sort_by_key(|&(key, _)| key);
        let mut shuffled = head.to_vec();
        shuffled.extend(order.iter().flat_map(|&(_, triple)| triple));
        let decoded = decode_msg(&shuffled).expect("a shuffled frame decodes");
        prop_assert_eq!(&decoded, &decode_msg(body).expect("the frame decodes"));
        prop_assert_eq!(decoded, Msg::Apply(BarrierOp::SetMix { mix }));
    }
}
