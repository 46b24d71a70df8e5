//! # rsoc-diversity — implementation diversity modeling
//!
//! §II-B of the paper: "Resiliency through active replication is only
//! guaranteed as long as the replicas fail independently. Diversity helps
//! building replicas of the same functionality but with different
//! implementations. The aim is to avoid common-mode benign failures and
//! intrusions."
//!
//! This crate models implementation variants with *vulnerability sets*
//! drawn from a shared universe (standard in diversity research: two
//! variants sharing a vulnerability fail together when it is exploited).
//! Vendor families share base vulnerabilities, capturing the paper's
//! multi-vendor/COTS argument, and a seeded generator produces fresh
//! variants on demand ("IP compilers \[that\] generate diverse versions of
//! identical softcores ... on the fly", §II-B).
//!
//! The §II-B claim (diversity vs common-mode compromise) is pinned by
//! `metrics`' tests; §II-C's diverse rejuvenation builds on these types
//! in `rsoc_rejuv::apt`.
//!
//! ## Example
//!
//! ```
//! use rsoc_diversity::{PoolConfig, VariantPool};
//! use rsoc_sim::SimRng;
//!
//! let mut rng = SimRng::new(7);
//! let mut pool = VariantPool::generate(PoolConfig::default(), &mut rng);
//! let a = pool.fresh_variant(&mut rng);
//! let b = pool.fresh_variant(&mut rng);
//! assert_ne!(a, b, "generator never hands out the same variant id twice in a row");
//! ```

pub mod metrics;
pub mod variant;

pub use metrics::{common_mode_exposure, distinct_variants, greedy_exploits_to_defeat};
pub use variant::{PoolConfig, Variant, VariantId, VariantPool, VendorId, VulnId};
