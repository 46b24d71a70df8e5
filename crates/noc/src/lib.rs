//! # rsoc-noc — network-on-chip simulator
//!
//! The paper's tiles talk over an on-chip interconnect; its replication
//! protocols (§II-A) and "networked systems of systems on chip" (§I) assume
//! message delivery across the die. This crate provides:
//!
//! * a 2D mesh topology with per-link fault states,
//! * dimension-ordered (XY) and fault-adaptive routing,
//! * a cycle-accurate-ish packet network with link contention,
//! * a windowed link-fault script on its indexed queue path, and
//! * an end-to-end retransmission layer.
//!
//! Protocol experiments need latencies, not flit traces: the BFT runner's
//! `LatencyModel::MeshHops` prices a message in closed form instead.
//!
//! The §I claim that the interconnect is itself a fault point is pinned
//! by `network`'s and `retransmit`'s tests over this simulator.
//!
//! ## Example
//!
//! ```
//! use rsoc_noc::{Mesh2d, Network, NetworkConfig, Routing};
//!
//! let mesh = Mesh2d::new(4, 4);
//! let mut net = Network::new(mesh, NetworkConfig { routing: Routing::Xy, ..Default::default() });
//! let src = net.mesh().node_at(0, 0).unwrap();
//! let dst = net.mesh().node_at(3, 3).unwrap();
//! let id = net.inject(src, dst, 0);
//! while net.in_flight() > 0 { net.tick(); }
//! assert!(net.stats().delivered.iter().any(|d| d.packet == id));
//! ```

pub mod network;
pub mod reference;
pub mod retransmit;
pub mod router;
pub mod topology;
pub mod traffic;

pub use network::{LinkFaultWindow, LinkScript, Network, NetworkConfig, NetworkStats};
pub use reference::ReferenceNetwork;
pub use router::Routing;
pub use topology::{Coord, Direction, LinkId, Mesh2d, NodeId};
pub use traffic::TrafficPattern;
