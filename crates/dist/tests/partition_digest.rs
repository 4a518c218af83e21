//! Version skew between coordinator and worker fails at the handshake.
//!
//! Both ends derive the partition independently from
//! `(tree, shard_hint)`; a worker one build apart used to run a
//! *permuted* partition without a word (per-node loads swapped in the
//! report, or a member-count mismatch only at report time). `Assign`
//! now carries a digest of the coordinator's node → shard map, and a
//! worker that derives a different one refuses — typed, on both ends,
//! within the reply timeout.

use std::net::TcpListener;
use std::time::{Duration, Instant};
use ww_core::packetsim::PacketSimConfig;
use ww_dist::codec::partition_digest;
use ww_dist::{run_worker, Assign, DistError, DistMode, DistOptions, DistPacketSim};
use ww_dist::{FramedStream, Msg};
use ww_model::{DocId, NodeId};
use ww_pdes::partition_subtrees;
use ww_workload::DocMix;

fn world() -> (ww_model::Tree, DocMix) {
    let tree = ww_topology::two_level(4, 3);
    let mut mix = DocMix::new(tree.len());
    mix.set(NodeId::new(7), DocId::new(1), 50.0);
    (tree, mix)
}

#[test]
fn a_worker_handed_a_wrong_digest_refuses_typed() {
    let (tree, mix) = world();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || run_worker(&addr));

    // A coordinator whose partitioner disagrees with the worker's.
    let (stream, _) = listener.accept().unwrap();
    let mut ctrl = FramedStream::new(stream).unwrap();
    let data_addr = match ctrl.read_msg().unwrap() {
        Msg::Hello { data_addr } => data_addr,
        other => panic!("expected Hello, got {other:?}"),
    };
    let truth = partition_digest(&partition_subtrees(&tree, 2).shard_of);
    ctrl.write_msg(&Msg::Assign(Assign {
        shard_id: 0,
        shard_hint: 2,
        partition_digest: truth ^ 1,
        stall_ms: Some(1_000),
        parents: tree.to_parents(),
        mix,
        config: PacketSimConfig::default(),
        peers: vec![(0, data_addr.clone()), (1, data_addr)],
    }))
    .unwrap();
    match ctrl.read_msg().unwrap() {
        Msg::Fatal { msg } => assert!(msg.contains("partition mismatch"), "{msg}"),
        other => panic!("expected Fatal, got {other:?}"),
    }
    match worker.join().unwrap() {
        Err(DistError::Protocol { detail }) => {
            assert!(detail.starts_with("partition mismatch"), "{detail}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn a_refusing_worker_fails_the_launch_within_the_reply_timeout() {
    let (tree, mix) = world();
    // An externally launched worker from another build: it connects,
    // reads its assignment, and answers as `run_worker` answers a
    // digest it cannot reproduce.
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let listen = probe.local_addr().unwrap().to_string();
    drop(probe);
    let coordinator = listen.clone();
    let skewed = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match std::net::TcpStream::connect(&coordinator) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("coordinator never listened: {e}"),
            }
        };
        let mut ctrl = FramedStream::new(stream).unwrap();
        ctrl.write_msg(&Msg::Hello {
            data_addr: "127.0.0.1:1".to_string(),
        })
        .unwrap();
        let digest = match ctrl.read_msg().unwrap() {
            Msg::Assign(assign) => assign.partition_digest,
            other => panic!("expected Assign, got {other:?}"),
        };
        ctrl.write_msg(&Msg::Fatal {
            msg: format!("protocol violation: partition mismatch: got {digest:#x}"),
        })
        .unwrap();
        digest
    });
    let options = DistOptions {
        mode: DistMode::External,
        listen,
        reply_timeout: Duration::from_secs(20),
        ..DistOptions::default()
    };
    let started = Instant::now();
    let launch = DistPacketSim::launch(&tree, &mix, PacketSimConfig::default(), 1, options);
    match launch {
        Err(DistError::Protocol { detail }) => {
            assert!(
                detail.contains("worker 0 refused its assignment"),
                "{detail}"
            );
            assert!(detail.contains("partition mismatch"), "{detail}");
        }
        Err(other) => panic!("expected a protocol error, got {other}"),
        Ok(_) => panic!("the launch must fail"),
    }
    assert!(started.elapsed() < Duration::from_secs(20), "not a timeout");
    // What the coordinator sent is the digest of its own map.
    let sent = skewed.join().unwrap();
    assert_eq!(
        sent,
        partition_digest(&partition_subtrees(&tree, 1).shard_of)
    );
}
