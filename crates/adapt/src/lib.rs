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
//! Two pieces:
//!
//! * [`ThreatDetector`] — an EWMA fusion of anomaly signals (MAC-
//!   verification failures, request timeouts, detected equivocations, SEU
//!   rate) into a [`ThreatLevel`] with hysteresis;
//! * [`AdaptiveController`] + [`simulate_adaptation`] — maps threat level
//!   to a deployment (an [`rsoc_bft::Protocol`] + f), and replays a ground-truth threat
//!   trace to compare static vs adaptive configurations on
//!   *under-protection time* and *resource cost* (§II-D; pinned by
//!   `controller::tests::adaptive_gets_both` and its neighbours).
//!
//! ## Example
//!
//! ```
//! use rsoc_adapt::{AnomalySample, DetectorConfig, ThreatDetector, ThreatLevel};
//!
//! let mut det = ThreatDetector::new(DetectorConfig::default());
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
    simulate_adaptation, AdaptPolicy, AdaptReport, AdaptiveController, Deployment,
};
pub use detector::{AnomalySample, DetectorConfig, ThreatDetector, ThreatLevel};
