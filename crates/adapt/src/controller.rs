//! The adaptive controller and the static-vs-adaptive comparison harness.

use crate::detector::ThreatLevel;
use rsoc_bft::Protocol;

/// A deployed configuration: protocol plus fault threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Deployment {
    /// Protocol in use: §II-D's "switching to a backup protocol that is
    /// more adequate to the current conditions" changes this.
    pub protocol: Protocol,
    /// Fault threshold the deployment is sized for.
    pub f: u32,
}

impl Deployment {
    /// Tiles/replicas this deployment occupies.
    pub fn replicas(&self) -> u32 {
        self.protocol.replicas(self.f)
    }

    /// Whether the deployment masks an attacker able to compromise
    /// `byz_faults` replicas (Byzantine).
    pub fn masks(&self, byz_faults: u32) -> bool {
        if byz_faults == 0 {
            return true;
        }
        self.protocol.tolerates_byzantine() && self.f >= byz_faults
    }
}

/// The controller's ladder: the deployment for each [`ThreatLevel`]
/// (index = level order).
pub const LADDER: [Deployment; 4] = [
    Deployment { protocol: Protocol::Passive, f: 1 },
    Deployment { protocol: Protocol::MinBft, f: 1 },
    Deployment { protocol: Protocol::MinBft, f: 2 },
    Deployment { protocol: Protocol::Pbft, f: 3 },
];

/// Cycles of degraded service while switching deployments.
pub const SWITCH_COST: u64 = 500;

/// Comparison policies for [`simulate_adaptation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptPolicy {
    /// Keep one deployment forever.
    Static(Deployment),
    /// Follow [`LADDER`] as the detected level changes.
    Adaptive,
}

/// Outcome of replaying a threat trace under a policy (the §II-D claim;
/// `tests::adaptive_gets_both` pins it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptReport {
    /// Total trace duration.
    pub duration: u64,
    /// Time during which the deployment could NOT mask the actual threat.
    pub underprotected_time: u64,
    /// Integral of replicas over time (resource cost, replica-cycles).
    pub replica_cycles: u64,
    /// Deployment switches performed.
    pub switches: u32,
    /// Time spent in degraded switching state.
    pub switching_time: u64,
}

impl AdaptReport {
    /// Charges one window of `duration` cycles against an attacker of
    /// `byz_faults`, switching `current` to `want` at the window's start
    /// when they differ. Both replays ([`simulate_adaptation`] and
    /// [`crate::run_closed_loop`]) charge every window here.
    pub(crate) fn charge(
        &mut self,
        current: &mut Deployment,
        want: Deployment,
        duration: u64,
        byz_faults: u32,
    ) {
        let mut degraded = 0;
        if want != *current {
            self.switches += 1;
            degraded = SWITCH_COST.min(duration);
            self.switching_time += degraded;
            // During the switch the *larger* footprint is reserved but
            // protection is the weaker of the two configurations.
            if !(current.masks(byz_faults) && want.masks(byz_faults)) {
                self.underprotected_time += degraded;
            }
            self.replica_cycles += degraded * current.replicas().max(want.replicas()) as u64;
            *current = want;
        }
        // The rest of the window runs the new deployment.
        let rest = duration - degraded;
        self.duration += duration;
        self.replica_cycles += rest * want.replicas() as u64;
        if !want.masks(byz_faults) {
            self.underprotected_time += rest;
        }
    }

    /// Fraction of time under-protected.
    pub fn underprotected_fraction(&self) -> f64 {
        if self.duration == 0 {
            return 0.0;
        }
        self.underprotected_time as f64 / self.duration as f64
    }

    /// Mean replicas deployed.
    pub fn mean_replicas(&self) -> f64 {
        if self.duration == 0 {
            return 0.0;
        }
        self.replica_cycles as f64 / self.duration as f64
    }
}

/// A threat trace segment: for `duration` cycles, an attacker capable of
/// Byzantine-compromising `byz_faults` replicas is active, and the detector
/// reports `detected` (the detector may lag or misjudge;
/// `tests::adaptive_with_lagging_detector_pays_in_protection` feeds it a
/// blind one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSegment {
    /// Segment length in cycles.
    pub duration: u64,
    /// Ground-truth attacker strength (simultaneously compromisable
    /// replicas; 0 = no attacker).
    pub byz_faults: u32,
    /// Threat level the detector reports during this segment.
    pub detected: ThreatLevel,
}

/// Replays `trace` under `policy`.
pub fn simulate_adaptation(trace: &[TraceSegment], policy: AdaptPolicy) -> AdaptReport {
    let pick = |level| match policy {
        AdaptPolicy::Static(d) => d,
        AdaptPolicy::Adaptive => LADDER[level as usize],
    };
    let mut report = AdaptReport::default();
    let mut current = pick(ThreatLevel::Low);
    for seg in trace {
        // Adaptive: react to the detected level at segment start.
        report.charge(&mut current, pick(seg.detected), seg.duration, seg.byz_faults);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<TraceSegment> {
        vec![
            // Long quiet period.
            TraceSegment { duration: 80_000, byz_faults: 0, detected: ThreatLevel::Low },
            // Attacker ramps up: can compromise one replica.
            TraceSegment { duration: 8_000, byz_faults: 1, detected: ThreatLevel::High },
            // Full campaign: two replicas.
            TraceSegment { duration: 8_000, byz_faults: 2, detected: ThreatLevel::High },
            // Attack subsides.
            TraceSegment { duration: 80_000, byz_faults: 0, detected: ThreatLevel::Low },
        ]
    }

    #[test]
    fn replica_requirements() {
        assert_eq!(Protocol::Passive.replicas(3), 2);
        assert_eq!(Protocol::MinBft.replicas(2), 5);
        assert_eq!(Protocol::Pbft.replicas(2), 7);
    }

    #[test]
    fn masking_logic() {
        let passive = Deployment { protocol: Protocol::Passive, f: 1 };
        assert!(passive.masks(0));
        assert!(!passive.masks(1), "passive cannot mask Byzantine faults");
        let minbft2 = Deployment { protocol: Protocol::MinBft, f: 2 };
        assert!(minbft2.masks(2));
        assert!(!minbft2.masks(3));
    }

    #[test]
    fn static_small_is_cheap_but_underprotected() {
        let small = Deployment { protocol: Protocol::MinBft, f: 1 };
        let r = simulate_adaptation(&trace(), AdaptPolicy::Static(small));
        assert_eq!(r.underprotected_time, 8_000, "the f=2 phase defeats f=1");
        assert_eq!(r.mean_replicas(), 3.0);
        assert_eq!(r.switches, 0);
    }

    #[test]
    fn static_large_is_protected_but_expensive() {
        let big = Deployment { protocol: Protocol::Pbft, f: 2 };
        let r = simulate_adaptation(&trace(), AdaptPolicy::Static(big));
        assert_eq!(r.underprotected_time, 0);
        assert_eq!(r.mean_replicas(), 7.0, "7 replicas burn all the time");
    }

    #[test]
    fn adaptive_gets_both() {
        let r = simulate_adaptation(&trace(), AdaptPolicy::Adaptive);
        // Under-protection only during switch windows (≤ 2 switches here).
        assert!(r.underprotected_time <= 2 * SWITCH_COST);
        // Mean cost close to the quiet deployment's 2 replicas.
        assert!(r.mean_replicas() < 3.0, "adaptation amortizes to cheap: {}", r.mean_replicas());
        assert!(r.switches >= 2);
    }

    #[test]
    fn adaptive_with_lagging_detector_pays_in_protection() {
        // Detector stuck at Low while the attacker is active.
        let blind =
            vec![TraceSegment { duration: 10_000, byz_faults: 1, detected: ThreatLevel::Low }];
        let r = simulate_adaptation(&blind, AdaptPolicy::Adaptive);
        assert_eq!(r.underprotected_time, 10_000, "no detection, no protection");
    }

    #[test]
    fn empty_trace_is_zeroes() {
        let r = simulate_adaptation(&[], AdaptPolicy::Adaptive);
        assert_eq!(r.duration, 0);
        assert_eq!(r.underprotected_fraction(), 0.0);
        assert_eq!(r.mean_replicas(), 0.0);
    }
}
