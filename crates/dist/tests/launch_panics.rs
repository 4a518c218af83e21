//! `DistPacketSim::launch`'s `# Panics` contract: input no world can be
//! built from panics with the message the world's constructor gives,
//! before any worker is contacted. The replica's world is built only
//! once the assignments are out, so the launch checks its inputs first;
//! these tests pin that in both self-spawning modes.

use ww_core::packet::PacketSimConfig;
use ww_dist::{DistMode, DistOptions, DistPacketSim};
use ww_model::{DocId, NodeId};
use ww_workload::DocMix;

/// Launches `two_level(2, 2)` (seven nodes) under a mix over
/// `mix_nodes` nodes.
fn launch(mix_nodes: usize, config: PacketSimConfig, workers: usize, mode: DistMode) {
    launch_at(mix_nodes, config, workers, mode, "127.0.0.1:0");
}

fn launch_at(
    mix_nodes: usize,
    config: PacketSimConfig,
    workers: usize,
    mode: DistMode,
    listen: &str,
) {
    let tree = ww_topology::two_level(2, 2);
    let mut mix = DocMix::new(mix_nodes);
    mix.set(NodeId::new(mix_nodes - 1), DocId::new(1), 5.0);
    let options = DistOptions {
        mode,
        listen: listen.to_string(),
        ..DistOptions::default()
    };
    let _ = DistPacketSim::launch(&tree, &mix, config, workers, options);
}

fn refused_config() -> PacketSimConfig {
    PacketSimConfig {
        gossip_period: 0.0,
        ..PacketSimConfig::default()
    }
}

#[test]
#[should_panic(expected = "config gossip period out of range")]
fn a_refused_config_panics_in_thread_mode() {
    launch(7, refused_config(), 2, DistMode::Threads);
}

#[test]
#[should_panic(expected = "config gossip period out of range")]
fn a_refused_config_panics_in_process_mode() {
    launch(7, refused_config(), 2, DistMode::Processes);
}

#[test]
#[should_panic(expected = "doc mix must cover the tree")]
fn a_mix_short_of_the_tree_panics_in_thread_mode() {
    launch(6, PacketSimConfig::default(), 2, DistMode::Threads);
}

#[test]
#[should_panic(expected = "doc mix must cover the tree")]
fn a_mix_short_of_the_tree_panics_in_process_mode() {
    launch(6, PacketSimConfig::default(), 2, DistMode::Processes);
}

#[test]
#[should_panic(expected = "need at least one worker")]
fn zero_workers_panic_in_thread_mode() {
    launch(7, PacketSimConfig::default(), 0, DistMode::Threads);
}

#[test]
#[should_panic(expected = "need at least one worker")]
fn zero_workers_panic_in_process_mode() {
    launch(7, PacketSimConfig::default(), 0, DistMode::Processes);
}

/// The launch binds its control listener before it can reach any worker.
/// Pointed at an address this test already holds, it would fail that
/// bind with a typed error; each bad input panics instead, so it was
/// refused before the launch contacted anyone.
#[test]
fn bad_input_panics_before_the_control_listener_binds() {
    let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = held.local_addr().unwrap().to_string();
    let cases = [
        (7, refused_config(), 2, "config gossip period out of range"),
        (
            6,
            PacketSimConfig::default(),
            2,
            "doc mix must cover the tree",
        ),
        (7, PacketSimConfig::default(), 0, "need at least one worker"),
    ];
    for (mix_nodes, config, workers, expected) in cases {
        let panic = std::panic::catch_unwind(|| {
            launch_at(mix_nodes, config, workers, DistMode::External, &addr)
        })
        .expect_err(expected);
        let message = (panic.downcast_ref::<String>().cloned())
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(message.contains(expected), "{message:?}");
    }
}
