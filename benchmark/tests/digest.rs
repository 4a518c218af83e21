//! The output check itself: digests repeat for a seed, differ between
//! seeds, and agree across the three engines on a shared world.

use ww_sysbench::rep::{repetition, EngineChoice, RepSpec};
use ww_sysbench::spans::Tracer;
use ww_sysbench::worlds::{Scale, Workload};

fn run(workload: Workload, seed: u64, choice: EngineChoice, traced: bool) -> (u64, u64) {
    let spec = RepSpec {
        workload,
        scale: Scale::Smoke,
        seed,
        choice,
        traced,
    };
    let rep = repetition(spec, &mut Tracer::new(traced), None);
    assert_eq!(
        rep.ops.failed,
        0,
        "{} had failed operations",
        workload.name()
    );
    assert!(rep.events > 0);
    (rep.digest, rep.tlb_distance.to_bits())
}

#[test]
fn digests_repeat_for_a_seed_and_differ_between_seeds() {
    for workload in [Workload::SeqCdn, Workload::ChurnCdn] {
        let a = run(workload, 11, EngineChoice::Native, false);
        assert_eq!(a, run(workload, 11, EngineChoice::Native, false));
        assert_ne!(a.0, run(workload, 12, EngineChoice::Native, false).0);
    }
}

#[test]
fn every_engine_agrees_with_its_sequential_twin() {
    let seq = run(Workload::SeqCdn, 5, EngineChoice::Native, false);
    assert_eq!(
        seq,
        run(Workload::DistCdnW2, 5, EngineChoice::Native, false)
    );
    assert_eq!(
        seq,
        run(Workload::DistCdnW2, 5, EngineChoice::SeqTwin, false)
    );
    let par = run(Workload::ParSkewW2, 5, EngineChoice::Native, false);
    assert_eq!(
        par,
        run(Workload::ParSkewW2, 5, EngineChoice::ParStatic, false)
    );
    assert_eq!(
        par,
        run(Workload::ParSkewW2, 5, EngineChoice::SeqTwin, false)
    );
}

#[test]
fn tracing_is_observation_only() {
    for workload in Workload::ALL {
        assert_eq!(
            run(workload, 3, EngineChoice::Native, true),
            run(workload, 3, EngineChoice::Native, false),
            "{}",
            workload.name()
        );
    }
}
