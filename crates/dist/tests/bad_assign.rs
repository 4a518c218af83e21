//! A worker handed an assignment it cannot run refuses it typed.
//!
//! The worker rebuilds the world from its `Assign`. A config value the
//! world or its timers assert on used to panic the worker, and so did a
//! mix covering a different node count than `parents`. Now the first
//! fails the decode and the second fails `build_host`; either way the
//! coordinator reads a `Fatal` naming the cause and `run_worker` returns
//! a typed `DistError` instead of panicking.

use std::net::TcpListener;
use std::time::Duration;
use ww_core::packetsim::PacketSimConfig;
use ww_dist::codec::partition_digest;
use ww_dist::{run_worker, Assign, CodecError, DistError, FramedStream, Msg};
use ww_model::{DocId, NodeId, Tree};
use ww_pdes::partition_forest;
use ww_workload::DocMix;

fn tree() -> Tree {
    ww_topology::two_level(4, 3)
}

/// A valid one-shard assignment of [`tree`]'s world.
fn assignment() -> Assign {
    let tree = tree();
    let mut mix = DocMix::new(tree.len());
    mix.set(NodeId::new(7), DocId::new(1), 50.0);
    Assign {
        shard_id: 0,
        shard_hint: 1,
        partition_digest: partition_digest(&partition_forest(&tree, 1).0.shard_of),
        stall_ms: Some(1_000),
        parents: tree.to_parents(),
        mix,
        config: PacketSimConfig::default(),
        peers: Vec::new(),
    }
}

/// Plays the coordinator for one `run_worker`: reads its `Hello`,
/// hands it `assign`, and returns the worker's answer and how
/// `run_worker` ended. A worker that panics fails the test here.
fn hand_out(assign: Assign) -> (String, DistError) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || run_worker(&addr));
    let (stream, _) = listener.accept().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut ctrl = FramedStream::new(stream).unwrap();
    match ctrl.read_msg().unwrap() {
        Msg::Hello { .. } => {}
        other => panic!("expected Hello, got {other:?}"),
    }
    ctrl.write_msg(&Msg::Assign(assign)).unwrap();
    let answer = match ctrl.read_msg().unwrap() {
        Msg::Fatal { msg } => msg,
        other => panic!("expected Fatal, got {other:?}"),
    };
    let ended = worker
        .join()
        .expect("the worker refuses, it does not panic");
    (answer, ended.expect_err("the worker must not run"))
}

#[test]
fn an_out_of_range_config_is_refused_at_decode() {
    let mut assign = assignment();
    assign.config.gossip_loss = 2.0;
    let (answer, ended) = hand_out(assign);
    assert!(answer.contains("gossip loss"), "{answer}");
    match ended {
        DistError::Codec(CodecError::BadValue { what }) => assert_eq!(what, "gossip loss"),
        other => panic!("expected a codec error, got {other:?}"),
    }
}

#[test]
fn a_mix_that_does_not_cover_the_tree_is_refused() {
    let n = tree().len();
    let mut assign = assignment();
    assign.mix = DocMix::new(n - 1);
    let (answer, ended) = hand_out(assign);
    let cause = format!("demand mix covers {} nodes, its tree {n}", n - 1);
    assert!(answer.contains(&cause), "{answer}");
    assert!(matches!(ended, DistError::Protocol { .. }), "{ended:?}");
}

#[test]
fn an_assignment_for_zero_shards_is_refused() {
    let mut assign = assignment();
    assign.shard_hint = 0;
    let (answer, ended) = hand_out(assign);
    assert!(answer.contains("zero shards"), "{answer}");
    assert!(matches!(ended, DistError::Protocol { .. }), "{ended:?}");
}

#[test]
fn a_sharded_run_without_link_delay_is_refused() {
    let mut assign = assignment();
    assign.shard_hint = 2;
    assign.partition_digest = partition_digest(&partition_forest(&tree(), 2).0.shard_of);
    assign.config.link_delay = 0.0;
    let (answer, ended) = hand_out(assign);
    assert!(answer.contains("positive link delay"), "{answer}");
    assert!(matches!(ended, DistError::Protocol { .. }), "{ended:?}");
}
