//! # manycore-resilience
//!
//! Umbrella crate for the reproduction of *"The Path to Fault- and
//! Intrusion-Resilient Manycore Systems on a Chip"* (Shoker,
//! Esteves-Verissimo, Völp — DSN 2023). Re-exports every subsystem crate
//! and hosts the cross-crate integration tests (`tests/`).
//!
//! See `README.md`: *Architecture tour* is the system inventory,
//! *Claims* the index from each paper claim to the tier-1 tests that hold
//! it, and *Performance* onwards the paper-claim-vs-measured results,
//! backed by the committed, regenerable `BENCH_*.json` records.
//!
//! ## Layer map (paper Fig. 1 → crates)
//!
//! | layer | crate |
//! |---|---|
//! | simulation kernel | [`sim`] |
//! | gates, ECC, registers | [`hw`] |
//! | crypto primitives | [`crypto`] |
//! | trusted hybrids (USIG, TrInc, A2M) | [`hybrid`] |
//! | network-on-chip | [`noc`] |
//! | replication protocols | [`bft`] |
//! | implementation diversity | [`diversity`] |
//! | rejuvenation vs APTs | [`rejuv`] |
//! | threat-adaptive control | [`adapt`] |
//! | FPGA fabric & reconfiguration | [`fpga`] |
//! | the integrated resilient SoC | [`soc`] |
//!
//! ## Quickstart
//!
//! ```
//! use manycore_resilience::bft::Protocol;
//! use manycore_resilience::soc::{ResilientSoc, SocConfig};
//!
//! let mut soc = ResilientSoc::new(SocConfig::default());
//! let report = soc.run_workload(Protocol::MinBft, 1, 1, 3);
//! assert!(report.safety_ok);
//! ```

pub use rsoc_adapt as adapt;
pub use rsoc_bft as bft;
pub use rsoc_crypto as crypto;
pub use rsoc_diversity as diversity;
pub use rsoc_fpga as fpga;
pub use rsoc_hw as hw;
pub use rsoc_hybrid as hybrid;
pub use rsoc_noc as noc;
pub use rsoc_rejuv as rejuv;
pub use rsoc_sim as sim;
pub use rsoc_soc as soc;
