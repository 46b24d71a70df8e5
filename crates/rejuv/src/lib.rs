//! # rsoc-rejuv — rejuvenation policies under advanced persistent threats
//!
//! §II-C of the paper: "Rejuvenation is the third complementary ingredient
//! to replication and diversity. These latter techniques can only maintain
//! resilience as long as the assumed number of failing replicas f is fixed.
//! ... This would even be more effective when rejuvenation is simultaneous
//! with diversity, which allows the rejuvenation to a different
//! implementation with identical functionality, in consequence, reducing
//! the success rate of APTs."
//!
//! The simulator pits a replicated system (n replicas on tiles, f-threshold)
//! against an APT adversary who develops exploits per *variant*; developed
//! exploits are kept in an inventory, so rejuvenating to the **same**
//! variant invites instant re-compromise while **diverse** rejuvenation
//! forces fresh exploit development — exactly the paper's argument.
//! `apt`'s tests pin the policies' order (§II-C).
//!
//! ## Example
//!
//! ```
//! use rsoc_rejuv::apt::mean_time_to_failure;
//! use rsoc_rejuv::{AptConfig, Policy};
//! use rsoc_sim::SimRng;
//!
//! let cfg = AptConfig { n_replicas: 4, f: 1, horizon: 50_000, ..Default::default() };
//! let rng = SimRng::new(1);
//! let none = mean_time_to_failure(&cfg, Policy::None, 10, &rng);
//! let diverse =
//!     mean_time_to_failure(&cfg, Policy::PeriodicDiverse { interval: 2_000 }, 10, &rng);
//! assert!(diverse > none);
//! ```

pub mod apt;

pub use apt::{
    analytic_mttf_no_rejuvenation, mean_time_to_failure, simulate, AptConfig, Policy, RejuvReport,
};
