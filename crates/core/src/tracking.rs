//! WebWave under *erratic request rates* — the paper's announced
//! follow-up study ("the dynamics of WebWave under erratic request rates
//! is the subject of an ongoing simulation study", Section 5.1).
//!
//! [`track`] drives a [`RateWave`] while the spontaneous demand evolves
//! under any [`RateProcess`] (step changes, diurnal drift, random walks,
//! from `ww-workload`), re-deriving the TLB oracle each epoch and
//! recording how closely the protocol *tracks* the moving optimum.

use crate::wave::{RateWave, WaveConfig};
use ww_model::Tree;
use ww_workload::RateProcess;

/// Configuration of a tracking run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingConfig {
    /// Protocol rounds executed per epoch (between demand re-samples).
    pub rounds_per_epoch: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Wall-clock seconds of simulated time per epoch (the argument fed
    /// to the rate process).
    pub epoch_secs: f64,
    /// Underlying protocol configuration.
    pub wave: WaveConfig,
}

impl Default for TrackingConfig {
    fn default() -> Self {
        TrackingConfig {
            rounds_per_epoch: 50,
            epochs: 40,
            epoch_secs: 1.0,
            wave: WaveConfig::default(),
        }
    }
}

/// Outcome of a tracking run.
#[derive(Debug, Clone)]
pub struct TrackingResult {
    /// Distance to the *current* TLB oracle at the end of each epoch.
    pub epoch_errors: Vec<f64>,
    /// The same errors normalized by each epoch's total demand.
    pub relative_errors: Vec<f64>,
    /// Mean relative error across epochs (the headline tracking metric).
    pub mean_relative_error: f64,
    /// Worst relative error across epochs.
    pub max_relative_error: f64,
}

/// Runs WebWave against time-varying demand and measures tracking error.
///
/// Each epoch: sample the demand process at the epoch's start time,
/// re-target the protocol (recomputing the TLB oracle), run
/// `rounds_per_epoch` protocol rounds, then record the distance to the
/// current oracle.
///
/// # Panics
///
/// Panics if the process produces rate vectors that do not validate
/// against `tree`, or if `epochs == 0`.
pub fn track<P: RateProcess>(
    tree: &Tree,
    process: &mut P,
    config: TrackingConfig,
) -> TrackingResult {
    assert!(config.epochs > 0, "need at least one epoch");
    let initial = process.rates_at(0.0);
    let mut wave = RateWave::new(tree, &initial, config.wave);
    let mut epoch_errors = Vec::with_capacity(config.epochs);
    let mut relative_errors = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let t = epoch as f64 * config.epoch_secs;
        let rates = process.rates_at(t);
        wave.set_spontaneous(&rates);
        wave.run(config.rounds_per_epoch);
        let err = wave.distance_to_tlb();
        epoch_errors.push(err);
        let total = rates.total().max(1e-12);
        relative_errors.push(err / total);
    }
    let mean_relative_error = relative_errors.iter().sum::<f64>() / relative_errors.len() as f64;
    let max_relative_error = relative_errors
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    TrackingResult {
        epoch_errors,
        relative_errors,
        mean_relative_error,
        max_relative_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_model::RateVector;
    use ww_topology::paper;
    use ww_workload::{ConstantRates, DiurnalDrift, StepChange};

    #[test]
    fn constant_demand_tracks_perfectly() {
        let s = paper::fig6();
        let mut process = ConstantRates::new(s.spontaneous.clone());
        let result = track(
            &s.tree,
            &mut process,
            TrackingConfig {
                rounds_per_epoch: 200,
                epochs: 10,
                ..TrackingConfig::default()
            },
        );
        // After the first few epochs the error is essentially zero.
        assert!(result.epoch_errors[9] < 1e-6);
        assert!(result.mean_relative_error < 0.2);
    }

    #[test]
    fn step_process_tracking_error_spikes_then_decays() {
        let s = paper::fig2b();
        let flipped = RateVector::from(vec![0.0, 0.0, 0.0, 10.0, 90.0]);
        let mut process = StepChange::new(s.spontaneous.clone(), flipped, 10.0);
        let result = track(
            &s.tree,
            &mut process,
            TrackingConfig {
                rounds_per_epoch: 30,
                epochs: 40,
                epoch_secs: 1.0,
                wave: WaveConfig::default(),
            },
        );
        // Error right after the flip (only 30 rounds in) exceeds the
        // settled error 30 epochs later.
        let spike = result.epoch_errors[10];
        let settled = result.epoch_errors[39];
        assert!(
            settled < spike * 0.2,
            "settled {settled} should be well below spike {spike}"
        );
    }

    #[test]
    fn drift_is_tracked_within_a_bounded_error() {
        let s = paper::fig6();
        let mut process = DiurnalDrift::new(s.spontaneous.clone(), 0.3, 40.0);
        let result = track(
            &s.tree,
            &mut process,
            TrackingConfig {
                rounds_per_epoch: 120,
                epochs: 40,
                epoch_secs: 1.0,
                wave: WaveConfig::default(),
            },
        );
        assert!(
            result.mean_relative_error < 0.05,
            "mean relative error {}",
            result.mean_relative_error
        );
        assert!(result.max_relative_error < 0.5);
    }

    #[test]
    fn faster_diffusion_tracks_drift_better() {
        let s = paper::fig6();
        let run = |rounds_per_epoch: usize| {
            let mut process = DiurnalDrift::new(s.spontaneous.clone(), 0.4, 40.0);
            track(
                &s.tree,
                &mut process,
                TrackingConfig {
                    rounds_per_epoch,
                    epochs: 40,
                    epoch_secs: 1.0,
                    wave: WaveConfig::default(),
                },
            )
            .mean_relative_error
        };
        let slow = run(5);
        let fast = run(100);
        assert!(
            fast < slow,
            "more rounds per epoch must track better: fast {fast} vs slow {slow}"
        );
    }
}
