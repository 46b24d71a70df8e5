//! # rsoc-fpga — FPGA grid fabric with resilient reconfiguration
//!
//! §II-E of the paper: reconfiguration must be **internal, partial and
//! dynamic** — driven from within the fabric, bound to the reconfigured
//! frames, and concurrent with the rest of the chip — and it must be
//! *resilient*: bitstreams validated, configuration ports access-controlled,
//! privilege changes trusted.
//!
//! This crate models:
//!
//! * [`FpgaFabric`] — a grid of configuration frames with hidden backdoored
//!   locations (the §II-C "potential backdoors in the FPGA grid fabric");
//! * [`Bitstream`] — CRC-32 + HMAC-authenticated configuration payloads;
//! * [`Icap`] — the internal configuration access port with per-principal
//!   region ACLs;
//! * [`ReconfigEngine`] — disable → write → readback-validate → enable
//!   partial dynamic reconfiguration, plus relocation and spatial
//!   rejuvenation of softcore blocks.
//!
//! The root package's `tests/voted_reconfig.rs` (voted privilege change,
//! with `rsoc-soc`) and `tests/fabric_properties.rs` (relocation vs grid
//! backdoors) hold the paper claims built on this crate.
//!
//! ## Example
//!
//! ```
//! use rsoc_crypto::MacKey;
//! use rsoc_fpga::{Bitstream, FpgaFabric, Icap, Principal, ReconfigEngine, Region};
//!
//! let fabric = FpgaFabric::new(4, 4, 8);
//! let key = MacKey::derive(1, "bitstream");
//! let mut icap = Icap::new(key.clone());
//! icap.allow(Principal(0), Region::new(0, 4));
//! let mut engine = ReconfigEngine::new(fabric, icap);
//! let bs = Bitstream::for_variant(7, Region::new(0, 4), 8, &key);
//! let receipt = engine.reconfigure(Principal(0), Region::new(0, 4), &bs, 42).unwrap();
//! assert!(receipt.cycles > 0);
//! assert_eq!(engine.fabric().block_region(42), Some(Region::new(0, 4)));
//! ```

pub mod bitstream;
pub mod fabric;
pub mod icap;
pub mod reconfig;

pub use bitstream::{crc32, Bitstream};
pub use fabric::{BlockId, FpgaFabric, FrameId, FrameState, Region};
pub use icap::{Icap, IcapError, Principal};
pub use reconfig::{ReconfigEngine, ReconfigError, ReconfigReceipt};
