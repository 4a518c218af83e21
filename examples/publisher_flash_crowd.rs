//! A publisher's flash crowd: a hot document suddenly draws Zipf-skewed
//! demand from access networks all over a large routing tree. Compare how
//! the schemes of the paper's related-work section cope, then watch the
//! packet-level WebWave system absorb the crowd.
//!
//! Both halves are declarative: the baseline shoot-out is a `baselines`
//! spec built in place, and the packet-level run is the shipped
//! `scenarios/flash_crowd.json` — the same file
//! `webwave-exp run scenarios/flash_crowd.json` executes.
//!
//! Run with: `cargo run --release --example publisher_flash_crowd`

use webwave::scenario::{BaselineParams, EngineSpec, Runner, ScenarioSpec, Termination};

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/flash_crowd.json");
    let spec = ScenarioSpec::from_json(&std::fs::read_to_string(path).expect("spec file"))
        .expect("valid spec");
    println!(
        "flash crowd \"{}\": 9600 req/s Zipf-skewed over a 96-node depth-7 routing tree",
        spec.name
    );

    // How would each scheme handle it? Same topology, same workload, same
    // seed — only the engine differs. That is the point of the spec API.
    let mut shootout = spec.clone();
    shootout.name = "flash-crowd-baselines".to_string();
    shootout.engine = EngineSpec::Baselines {
        schemes: webwave::scenario::BaselineScheme::all(),
        params: BaselineParams::default(),
    };
    shootout.termination = Termination::Rounds { max: 1 };
    println!("\nscheme comparison (rate level):");
    let baseline_report = Runner::new().run(&shootout).expect("shoot-out runs");
    println!(
        "{:<16} {:>10} {:>14} {:>15} {:>10}",
        "scheme", "max load", "ctrl msgs/req", "data hops/req", "directory?"
    );
    for r in &baseline_report.rows[0].outcome.schemes {
        println!(
            "{:<16} {:>10.1} {:>14.3} {:>15.2} {:>10}",
            r.name,
            r.max_load,
            r.control_msgs_per_request,
            r.data_hops_per_request,
            if r.violates_nss { "needed" } else { "no" }
        );
    }

    // Now the real thing: the packet-level WebWave system, Poisson
    // arrivals over 20 shared-Zipf documents, 30 diffusion epochs.
    println!("\npacket-level WebWave absorbing the crowd...");
    let report = Runner::new().run(&spec).expect("packet run");
    let row = &report.rows[0];
    println!(
        "  served {} requests; mean upward hops {:.2}",
        row.outcome.metric("served_requests").unwrap_or(0.0),
        row.outcome.metric("mean_hops").unwrap_or(0.0),
    );
    println!(
        "  distance to TLB: initial {:.0} -> final {:.0}",
        row.outcome.initial_distance().unwrap_or(0.0),
        row.outcome.metric("final_distance").unwrap_or(0.0),
    );
    println!(
        "  copies pushed: {}; tunnel fetches: {}",
        row.outcome.metric("copy_pushes").unwrap_or(0.0),
        row.outcome.metric("tunnel_fetches").unwrap_or(0.0),
    );
    println!(
        "  control overhead: {:.4} control msgs per served request",
        row.outcome
            .metric("control_msgs_per_request")
            .unwrap_or(0.0),
    );
    let loads = row.outcome.load.as_ref().expect("served rates");
    let root_share = loads.as_slice()[0] / loads.total().max(1e-9);
    println!(
        "  home server now serves only {:.1}% of the demand",
        100.0 * root_share
    );
}
