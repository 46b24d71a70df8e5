//! # rsoc-adapt — threat detection and adaptive resilience control
//!
//! §II-D of the paper: "Yet, another way to withstand a varying number of
//! faults f is to adapt the resilient system accordingly. Among the
//! adaptation forms are scaling out/in the system when f may change, e.g.,
//! upon experiencing more threats, or switching to a backup protocol that
//! is more adequate to the current conditions ... This would require
//! research on the aforementioned adaptation mechanisms and, importantly,
//! on severity detectors that can trigger adaptation actions once needed."
//!
//! Three pieces:
//!
//! * [`ThreatDetector`] — an EWMA fusion of anomaly signals (MAC-
//!   verification failures, request timeouts, detected equivocations, SEU
//!   rate) into a [`ThreatLevel`] with hysteresis;
//! * [`LADDER`] + [`simulate_adaptation`] — maps threat level to a
//!   deployment (an [`rsoc_bft::Protocol`] + f), and replays a scripted
//!   threat trace to compare static vs adaptive configurations on
//!   *under-protection time* and *resource cost* (§II-D; pinned by
//!   `controller::tests::adaptive_gets_both` and its neighbours);
//! * [`run_closed_loop`] — the detector observes noisy windows drawn from
//!   ground truth ([`ObservationModel`]) and the ladder follows it, so
//!   detection lag and false alarms show up in the same ledger.
//!
//! Both replays charge every window through one rule: a switch costs
//! [`SWITCH_COST`] cycles at the weaker deployment's protection and the
//! larger one's footprint
//! (`closed_loop::tests::the_ledger_is_the_scripted_replay_of_the_detected_levels`).
//!
//! ## Example
//!
//! ```
//! use rsoc_adapt::{AnomalySample, ThreatDetector, ThreatLevel};
//!
//! let mut det = ThreatDetector::new();
//! assert_eq!(det.level(), ThreatLevel::Low);
//! for _ in 0..20 {
//!     det.observe(AnomalySample { mac_failures: 5, equivocations: 2, ..Default::default() });
//! }
//! assert!(det.level() >= ThreatLevel::High);
//! ```

pub mod closed_loop;
pub mod controller;
pub mod detector;

pub use closed_loop::{run_closed_loop, ClosedLoopReport, GroundTruthWindow, ObservationModel};
pub use controller::{
    simulate_adaptation, AdaptPolicy, AdaptReport, Deployment, TraceSegment, LADDER, SWITCH_COST,
};
pub use detector::{AnomalySample, ThreatDetector, ThreatLevel};
