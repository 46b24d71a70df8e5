//! # rsoc-sim — deterministic discrete-event simulation kernel
//!
//! Foundation for every simulator in the workspace: virtual time in cycles,
//! a deterministic discrete-event engine, a seeded pseudo-random number
//! generator with stream forking, and online statistics collectors.
//!
//! All higher layers (NoC, BFT protocols, FPGA fabric, rejuvenation epochs)
//! run on this kernel so that every experiment in the paper reproduction is
//! bit-reproducible from a single seed.
//!
//! ## Example
//!
//! ```
//! use rsoc_sim::{Engine, SimTime};
//!
//! // World state: a counter bumped by scheduled events.
//! let mut world = 0u32;
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::from_cycles(10), Box::new(|w: &mut u32, e| {
//!     *w += 1;
//!     // Events may schedule follow-up events.
//!     e.schedule_in(5, Box::new(|w: &mut u32, _| *w += 10));
//! }));
//! engine.run(&mut world);
//! assert_eq!(world, 11);
//! assert_eq!(engine.now(), SimTime::from_cycles(15));
//! ```

pub mod engine;
pub mod rng;
pub mod script;
pub mod slab;
pub mod stats;
pub mod time;
pub mod wheel;
pub mod workload;

pub use engine::{Action, Engine};
pub use rng::SimRng;
pub use script::{PulseTrain, Window};
pub use slab::Slab;
pub use stats::{Histogram, LogHistogram, OnlineStats};
pub use time::SimTime;
pub use wheel::TimingWheel;
pub use workload::{Arrival, ArrivalGen, KeyDist, KeyPicker, RateMod};
