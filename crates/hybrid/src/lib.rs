//! # rsoc-hybrid — trusted-trustworthy hardware components
//!
//! §III of the paper: architectural hybridization "aims at benefiting from
//! small easy-to-verify and therefore more trustworthy components, called
//! hybrids ... components (registers, memory, trusted execution
//! environments or networks) such as USIG, A2M, TrInc, SGX and others, used
//! in hybrid BFT-SMR protocols."
//!
//! This crate implements the three classic hybrids as *circuits with
//! state*, not oracles:
//!
//! * [`Usig`] — MinBFT's Unique Sequential Identifier Generator: a
//!   monotonic counter + HMAC. Its counter register is a pluggable
//!   [`rsoc_hw::RegisterCell`], so `usig`'s tests flip its bits and
//!   watch plain registers break consensus while SEC-DED survives.
//! * [`TrInc`] — trusted incremental counters with interval attestations.
//! * [`A2m`] — attested append-only memory with hash-chained certificates.
//!
//! [`complexity`] carries the paper's "exactly right complexity" argument:
//! gate-equivalent accounting and the hard-circuit vs isolated-core
//! recommendation rule.
//!
//! ## Example
//!
//! ```
//! use rsoc_crypto::MacKey;
//! use rsoc_hw::PlainRegister;
//! use rsoc_hybrid::{KeyRing, Usig, UsigId};
//!
//! let mut ring = KeyRing::new();
//! ring.register(UsigId(0), MacKey::derive(1, "usig-0"));
//! // Clusters share one immutable ring; cloning the Arc is a refcount bump.
//! let ring = std::sync::Arc::new(ring);
//! let mut usig = Usig::new(UsigId(0), ring.clone(), Box::new(PlainRegister::new(64)));
//! let ui1 = usig.create_ui(b"prepare #1").unwrap();
//! let ui2 = usig.create_ui(b"prepare #2").unwrap();
//! assert_eq!(ui1.counter + 1, ui2.counter); // unique, sequential
//! assert!(usig.verify_ui(UsigId(0), &ui1, b"prepare #1"));
//! assert!(!usig.verify_ui(UsigId(0), &ui1, b"prepare #X"));
//! ```

pub mod a2m;
pub mod complexity;
pub mod trinc;
pub mod usig;

pub use a2m::{A2m, A2mCert};
pub use complexity::{recommend_realization, ComponentComplexity, Realization};
pub use trinc::{TrInc, TrIncAttestation};
pub use usig::{KeyRing, UiWindow, Usig, UsigError, UsigId, UI};
