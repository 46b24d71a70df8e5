//! # rsoc-sim — deterministic discrete-event simulation kernel
//!
//! Foundation for every simulator in the workspace: virtual time in cycles,
//! a deterministic O(1) event queue, a seeded pseudo-random number
//! generator with stream forking, and online statistics collectors.
//!
//! All higher layers (NoC, BFT protocols, FPGA fabric, rejuvenation epochs)
//! run on this kernel so that every experiment in the paper reproduction is
//! bit-reproducible from a single seed.
//!
//! ## Example
//!
//! ```
//! use rsoc_sim::TimingWheel;
//!
//! // World state: a counter bumped by scheduled events; an event is the
//! // amount to add, and may schedule a follow-up.
//! let mut world = 0u32;
//! let mut queue: TimingWheel<u32> = TimingWheel::new();
//! queue.push(10, 1);
//! let mut now = 0;
//! while let Some((at, add)) = queue.pop() {
//!     now = at;
//!     world += add;
//!     if add == 1 {
//!         queue.push(now + 5, 10);
//!     }
//! }
//! assert_eq!(world, 11);
//! assert_eq!(now, 15);
//! ```

pub mod rng;
pub mod script;
pub mod slab;
pub mod stats;
pub mod wheel;
pub mod workload;

pub use rng::SimRng;
pub use script::{PulseTrain, Window};
pub use slab::Slab;
pub use stats::{Histogram, LogHistogram, OnlineStats};
pub use wheel::TimingWheel;
pub use workload::{Arrival, ArrivalGen, KeyDist, KeyPicker, RateMod};
