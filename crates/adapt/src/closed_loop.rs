//! Closed-loop adaptation: the detector observes *noisy* anomaly windows
//! generated from ground truth, and the controller follows the detector —
//! no oracle labels. This measures what §II-D actually deploys: detection
//! lag, false alarms, and hysteresis all show up in the ledger.

use crate::controller::{AdaptReport, LADDER};
use crate::detector::{AnomalySample, ThreatDetector, ThreatLevel};
use rsoc_sim::SimRng;

/// Mean equivocation detections per window per active Byzantine fault.
const EQUIVOCATIONS_PER_FAULT: f64 = 1.5;
/// Mean MAC failures per window per active Byzantine fault.
const MAC_FAILURES_PER_FAULT: f64 = 2.5;
/// Mean SEU events per window (environment noise).
const BACKGROUND_SEU: f64 = 0.2;

/// Ground truth for one observation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundTruthWindow {
    /// Window length in cycles.
    pub duration: u64,
    /// Attacker strength (simultaneously compromisable replicas).
    pub byz_faults: u32,
}

/// Noise model mapping ground truth to observed anomaly counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservationModel {
    /// Mean benign timeouts per window (congestion noise, independent of
    /// the attacker — the false-alarm channel).
    pub background_timeouts: f64,
}

impl Default for ObservationModel {
    fn default() -> Self {
        ObservationModel { background_timeouts: 0.3 }
    }
}

impl ObservationModel {
    /// Draws one noisy window (Poisson-ish via per-unit Bernoulli splits).
    pub fn observe(&self, truth: GroundTruthWindow, rng: &mut SimRng) -> AnomalySample {
        let draw = |mean: f64, rng: &mut SimRng| -> u32 {
            // Sum of 8 Bernoulli(mean/8) — cheap bounded Poisson surrogate.
            let p = (mean / 8.0).min(1.0);
            (0..8).filter(|_| rng.chance(p)).count() as u32
        };
        let f = truth.byz_faults as f64;
        AnomalySample {
            equivocations: draw(EQUIVOCATIONS_PER_FAULT * f, rng),
            mac_failures: draw(MAC_FAILURES_PER_FAULT * f, rng),
            timeouts: draw(self.background_timeouts + 0.4 * f, rng),
            seu_events: draw(BACKGROUND_SEU, rng),
        }
    }
}

/// Result of a closed-loop run: the standard ledger plus detector quality.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClosedLoopReport {
    /// Protection/cost ledger.
    pub ledger: AdaptReport,
    /// Windows where an active attacker (`byz_faults > 0`) was masked by
    /// the deployment in force after the window's switch.
    pub attacks_masked: u32,
    /// Windows where an active attacker exceeded the deployment.
    pub attacks_missed: u32,
    /// Windows with no attacker where more than the quiet deployment was
    /// provisioned (false-alarm cost).
    pub false_alarm_windows: u32,
}

/// Runs the detector+controller closed loop over ground truth windows.
pub fn run_closed_loop(
    truth: &[GroundTruthWindow],
    observation: ObservationModel,
    rng: &mut SimRng,
) -> ClosedLoopReport {
    let mut detector = ThreatDetector::new();
    let quiet = LADDER[ThreatLevel::Low as usize];
    let mut current = quiet;
    let mut report = ClosedLoopReport::default();
    for w in truth {
        let level = detector.observe(observation.observe(*w, rng));
        report.ledger.charge(&mut current, LADDER[level as usize], w.duration, w.byz_faults);
        if w.byz_faults > 0 {
            if current.masks(w.byz_faults) {
                report.attacks_masked += 1;
            } else {
                report.attacks_missed += 1;
            }
        } else if current.replicas() > quiet.replicas() {
            report.false_alarm_windows += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{simulate_adaptation, AdaptPolicy, TraceSegment};

    fn storm_truth() -> Vec<GroundTruthWindow> {
        let mut t = Vec::new();
        for _ in 0..30 {
            t.push(GroundTruthWindow { duration: 1_000, byz_faults: 0 });
        }
        for _ in 0..10 {
            t.push(GroundTruthWindow { duration: 1_000, byz_faults: 1 });
        }
        for _ in 0..6 {
            t.push(GroundTruthWindow { duration: 1_000, byz_faults: 2 });
        }
        for _ in 0..30 {
            t.push(GroundTruthWindow { duration: 1_000, byz_faults: 0 });
        }
        t
    }

    #[test]
    fn detector_in_the_loop_masks_most_attack_windows() {
        let mut rng = SimRng::new(1);
        let report = run_closed_loop(&storm_truth(), ObservationModel::default(), &mut rng);
        let total_attacks = report.attacks_masked + report.attacks_missed;
        assert_eq!(total_attacks, 16);
        assert!(
            report.attacks_masked >= 12,
            "most attack windows must be masked: {}/{}",
            report.attacks_masked,
            total_attacks
        );
        // Lag means the first window or two may be missed — but not many.
        assert!(report.attacks_missed <= 4, "missed {}", report.attacks_missed);
    }

    #[test]
    fn quiet_truth_keeps_footprint_small() {
        let truth = vec![GroundTruthWindow { duration: 1_000, byz_faults: 0 }; 50];
        let mut rng = SimRng::new(2);
        let report = run_closed_loop(&truth, ObservationModel::default(), &mut rng);
        assert_eq!(report.attacks_missed, 0);
        assert!(
            report.ledger.mean_replicas() < 3.0,
            "background noise must not inflate the fleet: {}",
            report.ledger.mean_replicas()
        );
        assert!(report.false_alarm_windows < 10);
    }

    #[test]
    fn noisy_background_costs_false_alarms_not_safety() {
        let truth = vec![GroundTruthWindow { duration: 1_000, byz_faults: 0 }; 50];
        let loud = ObservationModel { background_timeouts: 3.0 }; // heavy congestion noise
        let mut rng = SimRng::new(3);
        let report = run_closed_loop(&truth, loud, &mut rng);
        assert_eq!(report.ledger.underprotected_time, 0, "false alarms are never unsafe");
        assert!(
            report.false_alarm_windows > 5,
            "heavy noise must show up as over-provisioning: {}",
            report.false_alarm_windows
        );
    }

    #[test]
    fn the_ledger_is_the_scripted_replay_of_the_detected_levels() {
        let truth = storm_truth();
        let observation = ObservationModel::default();
        let closed = run_closed_loop(&truth, observation, &mut SimRng::new(1));
        // The same draws through a fresh detector give each window's level.
        let mut rng = SimRng::new(1);
        let mut detector = ThreatDetector::new();
        let scripted: Vec<TraceSegment> = truth
            .iter()
            .map(|w| TraceSegment {
                duration: w.duration,
                byz_faults: w.byz_faults,
                detected: detector.observe(observation.observe(*w, &mut rng)),
            })
            .collect();
        assert!(closed.ledger.switches > 0, "the storm must make the loop switch");
        assert_eq!(closed.ledger, simulate_adaptation(&scripted, AdaptPolicy::Adaptive));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            run_closed_loop(&storm_truth(), ObservationModel::default(), &mut rng)
        };
        assert_eq!(run(7), run(7));
    }
}
