//! # rsoc-transport — the real-transport plane for the sans-io core
//!
//! The protocol crates ([`rsoc_bft`]) are sans-io: a node consumes
//! [`Input`](rsoc_bft::api::Input)s and emits into an
//! [`Outbox`](rsoc_bft::api::Outbox); a *plane* owns delivery, timers,
//! and time behind the [`Transport`](rsoc_bft::plane::Transport) /
//! [`Clock`](rsoc_bft::plane::Clock) boundary. The deterministic
//! simulator is the first plane; this crate is the second — the same
//! protocol bytes over real TCP:
//!
//! * [`frame`] — length-framed codec (`u32` LE length + versioned body),
//!   total against malformed input;
//! * [`wire`] — the [`wire::Envelope`] that crosses a
//!   connection: hello handshakes, protocol messages, digest queries;
//! * [`clock`] — [`clock::WallClock`], mapping wall time onto
//!   the protocols' virtual-cycle timeline;
//! * [`pool`] — outbound connections with reconnect and backoff;
//! * [`listen`] — `SO_REUSEADDR` binding so a restarted replica
//!   reclaims its advertised address through `TIME_WAIT`;
//! * [`node`] — the threaded serve loop and [`node::TcpPlane`], the
//!   `Transport` implementation — durable when given an `rsoc_store`
//!   data directory (persist before dispatch); every frame is bound to
//!   the connection its hello opened, so a message names only that
//!   connection's replica or clients as its sender;
//! * [`client`] — the external cluster client issuing the simulator's
//!   exact request log and checking digest convergence;
//! * [`run`] — the `rsoc-serve` / `rsoc-client` entry points over
//!   [`rsoc_bft::Protocol`], and the simulator digest a TCP cluster must
//!   reproduce.
//!
//! Because both planes share one codec ([`rsoc_bft::codec`]) and one
//! workload ([`rsoc_bft::runner::client_payload`]), a TCP cluster run
//! and a simulator run with the same parameters commit the same
//! operations and converge to the same state digest — the smoke driver
//! asserts exactly that.

pub mod client;
pub mod clock;
pub mod frame;
pub mod listen;
pub mod node;
pub mod pool;
pub mod run;
pub mod wire;

pub use client::{run_cluster_client, ClientConfig, ClientReport, LatencySummary};
pub use clock::WallClock;
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use listen::bind_reuseaddr;
pub use node::{serve, ServeReport, TcpPlane};
pub use pool::PeerPool;
pub use run::simulator_digest;
pub use wire::{decode_envelope, encode_envelope, Envelope};
