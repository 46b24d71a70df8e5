//! # rsoc-soc — the fault- and intrusion-resilient manycore SoC
//!
//! The paper's integrated contribution: a manycore system-on-chip whose
//! tiles run replicated state machines over the NoC, anchored in per-tile
//! hardware hybrids, kept alive by diversity, rejuvenation, adaptation, and
//! consensually-voted reconfiguration. Every ingredient comes from a
//! sibling crate; this crate is the vertical slice of Fig. 1:
//!
//! | Fig. 1 layer | provided by |
//! |---|---|
//! | gates / ECC registers | `rsoc-hw` |
//! | trusted hybrids (USIG) | `rsoc-hybrid` |
//! | FPGA fabric + reconfiguration | `rsoc-fpga` |
//! | NoC | `rsoc-noc` |
//! | BFT/CFT replication | `rsoc-bft` |
//! | diversity / rejuvenation / adaptation | `rsoc-diversity`, `rsoc-rejuv`, `rsoc-adapt` |
//!
//! Key pieces here:
//!
//! * [`Tile`] — a processing tile with health, variant, and mesh position;
//! * [`PrivilegeGate`] — the trusted-trustworthy vote checker of Gouveia
//!   et al. (the paper's \[55\]): privileged operations (reconfigure, grant,
//!   rejuvenate) execute only with a quorum of kernel-replica votes;
//! * [`ResilientSoc`] — tile inventory + replica placement + protocol runs
//!   over NoC-derived latencies;
//! * [`SocManager`] — the epoch control loop wiring detector → controller
//!   → rejuvenation/relocation through the gate (Fig. 1; the root
//!   package's `tests/layered_stack.rs`).
//!
//! ## Example
//!
//! ```
//! use rsoc_soc::{ResilientSoc, SocConfig};
//! use rsoc_bft::Protocol;
//!
//! let mut soc = ResilientSoc::new(SocConfig { mesh_width: 4, mesh_height: 4, seed: 7 });
//! let report = soc.run_workload(Protocol::MinBft, 1, 2, 5);
//! assert!(report.safety_ok);
//! assert_eq!(report.committed, 10);
//! ```

pub mod manager;
pub mod privilege;
pub mod soc;
pub mod tile;

pub use manager::{EpochReport, EpochThreat, ManagerConfig, SocManager};
pub use privilege::{GateError, PrivilegeGate, PrivilegedOp, Vote};
pub use soc::{ResilientSoc, SocConfig};
pub use tile::{Tile, TileHealth, TileId};
