//! # rsoc-hw — gate-level hardware substrate
//!
//! Models the bottom layers of the paper's Fig. 1: logic gates and simple
//! circuits, stochastic fault injection (stuck-at and transient), N-modular
//! redundancy with *fault-prone* majority voters, Hamming SEC-DED error
//! correction, and register cells with plain / parity / ECC protection.
//!
//! These models back the paper's gate-level redundancy claim (§I, pinned
//! by `reliability`'s and `diverse`'s tests) and hybrid register
//! protection (§III, pinned by `rsoc_hybrid::usig`'s), and provide the gate-equivalent complexity
//! accounting that §III of the paper uses to argue for "exactly right
//! complexity" hybrids.
//!
//! ## Example: triple-modular redundancy masking a fault
//!
//! ```
//! use rsoc_hw::circuits::ripple_carry_adder;
//! use rsoc_hw::faults::{FaultKind, FaultMap};
//! use rsoc_hw::redundancy::nmr;
//! use rsoc_hw::netlist::GateId;
//!
//! let adder = ripple_carry_adder(4);
//! let tmr = nmr(&adder, 3);
//! // Break one internal gate of one replica copy.
//! let mut faults = FaultMap::new();
//! faults.insert(GateId::new(tmr.input_count() as u32 + 3), FaultKind::Flip);
//! let inputs = vec![true, false, true, false, false, true, false, true, false];
//! assert_eq!(
//!     tmr.eval_with_faults(&inputs, &faults),
//!     adder.eval(&inputs[..adder.input_count()]),
//! );
//! ```

pub mod circuits;
pub mod diverse;
pub mod ecc;
pub mod faults;
pub mod netlist;
pub mod redundancy;
pub mod register;
pub mod reliability;

pub use diverse::{nmr_diverse, DesignFlaw};
pub use ecc::{DecodeOutcome, Hamming};
pub use faults::{FaultKind, FaultMap, FaultSampler};
pub use netlist::{GateId, GateKind, Netlist};
pub use redundancy::nmr;
pub use register::{EccRegister, LoadOutcome, ParityRegister, PlainRegister, RegisterCell};
