//! # rsoc-crypto — from-scratch crypto for on-chip trusted components
//!
//! The paper's hybrids (USIG, TrInc, A2M — §III) and authenticated FPGA
//! bitstreams (§II-E) need message authentication. Real deployments use an
//! HMAC circuit inside the trusted perimeter; we implement SHA-256 and
//! HMAC-SHA-256 from scratch so the workspace has no external crypto
//! dependencies and the hybrid's behaviour (including its failure modes
//! under register bit-flips, which `rsoc_hybrid::usig`'s tests pin) is
//! fully under our control.
//! The CRC-32 that guards bitstreams and on-disk records against accidental
//! damage lives here too ([`crc32()`]), so both share one kernel.
//!
//! ## Example
//!
//! ```
//! use rsoc_crypto::{hmac_sha256, sha256, MacKey};
//!
//! let digest = sha256(b"abc");
//! assert_eq!(digest[0], 0xba);
//!
//! let key = MacKey::from_bytes([7u8; 32]);
//! let tag = hmac_sha256(key.as_bytes(), b"message");
//! assert!(rsoc_crypto::hmac_verify(key.as_bytes(), b"message", &tag));
//! assert!(!rsoc_crypto::hmac_verify(key.as_bytes(), b"forged", &tag));
//! ```

pub mod crc32;
pub mod hmac;
pub mod sha256;

pub use crc32::{crc32, Crc32};
pub use hmac::{hmac_sha256, hmac_verify, MacKey, Tag};
pub use sha256::{sha256, Sha256};
