//! # rsoc-bft — replication protocols for tiles on a chip
//!
//! §II-A of the paper: "Active replication masks faults through building a
//! deterministic replicated state machine, composed of replicas of
//! identical functionality, which execute an agreement protocol, e.g. Paxos
//! or PBFT. The number of required replicas is typically 2f+1/3f+1 in order
//! to tolerate f faults. Interestingly, several works make use of hardware
//! hybrids as root-of-trust to simplify these protocols ... requiring only
//! 2f+1 replicas to tolerate f Byzantine ones."
//!
//! This crate implements, message-precisely and over a deterministic
//! discrete-event harness:
//!
//! * [`pbft`] — PBFT (Castro & Liskov): 3f+1 replicas, three-phase commit,
//!   view change on primary failure;
//! * [`minbft`] — MinBFT (Veronese et al.): 2f+1 replicas, two-phase commit
//!   anchored in the [`rsoc_hybrid::Usig`] trusted component;
//! * [`passive`] — primary-backup (passive) replication with a heartbeat
//!   failure detector — cheap but with a visible failover window;
//! * [`protocol`] — [`Protocol`], the one value naming a protocol (its
//!   name, replica count and reply quorum), and [`Protocol::build`], the
//!   workspace's only `match` that constructs a cluster: it hands the
//!   cluster to a [`ClusterJob`] generic over the cluster type;
//! * [`checkpoint`] — the data types of the recovery story: certified
//!   checkpoints (f+1 MAC'd vouchers), the transfer response and its
//!   quorum-voting buffer, the checkpoint image, the truncating log
//!   (enabled via [`runner::RunConfig::checkpoint_interval`]);
//! * `statetree` (crate-private) — the paged Merkle radix tree the
//!   [`KvStore`] and the client-session table live in: its root is what
//!   a certificate certifies, a checkpoint rehashes only the pages
//!   written since the last one, and a retained checkpoint is an O(1)
//!   clone whose pages the live state copies on write;
//! * `chassis` (crate-private) — the one replica all three protocols are:
//!   `Replica<P>` owns the id, `n`/`f`, the fault script, the outage flag
//!   and the shell, and is the one [`api::ReplicaNode`] impl — the crash
//!   window, timer start and revival, the output gate of a muted script,
//!   wipe and recovery, the one link resolution (the link is the sender:
//!   every message but a client request is taken only over the link of
//!   another replica of the cluster, which the handler receives as the
//!   voter, requester or responder) and the one router of every
//!   [`ShellMsg`] (a voucher to the shell, a state request served to its
//!   link, a state response admitted at f+1 links and installed) — while
//!   `P` (a crate-private `Core`) holds a protocol's own state and
//!   handlers. `Replicas<P>` is the one [`api::Cluster`]
//!   impl and provisioning loop; `PbftReplica`, `PbftCluster` and their
//!   siblings are aliases of the two;
//! * `agreement` (crate-private) — the agreement front-end PBFT and
//!   MinBFT share, one `Core` for both: the slot window and the stored
//!   proposals, proposal admission (view, horizon, non-empty batch, first
//!   digest wins), in-order execution, request intake and the patience and
//!   flush timers, the view change from vote to install, the NEW-VIEW gate
//!   (a higher view, from its primary) and the transfer and recovery
//!   tails. A protocol supplies a `Discipline`: its quorum, which slots
//!   are prepared and executable, how it certifies a proposal, and how its
//!   new primary leads and a backup follows;
//! * `shell` (crate-private) — the one replica shell inside the chassis.
//!   It *owns* the request accumulator, the op → slot assignments, the
//!   backup watchlist and the next free sequence number, the committed
//!   log, the state machine, the client sessions (the exactly-once
//!   table), the checkpoint store, the state-transfer replay ring and
//!   response buffer, and the [`durable`] event queue, and holds — once —
//!   the code over them: request `intake` (cached reply / re-announce /
//!   accumulate-and-seal / watch) and its flush timer, execute-and-reply,
//!   checkpoint + voucher + truncation, transfer request / serve / admit /
//!   install, WAL `recover`, and `wipe`. A protocol file keeps only its
//!   **ordering core** (how to propose sealed requests, slots and
//!   quorums, USIG and ingress windows, passive ship/sync/promote) and
//!   calls the shell at fixed points (the table in `shell.rs`; the
//!   chassis makes the per-input, shell-message and lifecycle calls).
//!   The replica's role, quorums and fault-script flags are call-site
//!   arguments — the shell never asks which protocol it serves. Its four
//!   messages are one [`ShellMsg`], carried by every protocol's message
//!   enum in a single `Shell` variant;
//! * [`viewchange`] — the view-change ledger PBFT and MinBFT share: the
//!   [`viewchange::VcVote`] both carry on the wire, who demands which
//!   view (a vote's voter is the link it arrives on), the rate-limited
//!   patience escalation, and the new primary's re-proposal plan (merge,
//!   certified-floor discard, no-op hole filling, re-batching of pending
//!   requests). The cores keep their install quorum, their notion of
//!   "prepared", and how a plan is installed;
//! * [`adversary`] — composable, time-phased fault scripts (crash/recover
//!   windows, partitions, link degradation, DoS floods, stale replay),
//!   the named one-fault [`adversary::Behavior`] presets that lower onto
//!   them, and the safety/liveness [`adversary::ScenarioOracle`];
//! * [`runner`] — the deterministic harness: one event loop under two load
//!   sources (closed-loop clients, [`runner::run_scenario`]; an open-loop
//!   arrival schedule, [`runner::run_open_loop`]), latency models, message
//!   accounting, the scenario interpreter and the cross-replica safety
//!   checker; its clients count reply quorums with [`plane::ReplyTally`],
//!   per link.
//!
//! The root package's `tests/smr_over_soc.rs` (replica/message cost),
//! `tests/adversary_scenarios.rs` (passive vs active) and
//! `tests/properties.rs` (resilient broadcast) hold this crate's paper
//! claims; the README's *Claims* table names each test.
//!
//! ## Example: MinBFT committing under a Byzantine backup
//!
//! ```
//! use rsoc_bft::adversary::Behavior;
//! use rsoc_bft::api::Cluster;
//! use rsoc_bft::minbft::MinBftCluster;
//! use rsoc_bft::runner::{RunConfig, run};
//!
//! let config = RunConfig::builder().f(1).clients(2).requests_per_client(5).seed(42).build();
//! let mut cluster = MinBftCluster::new(&config);
//! cluster.set_script(rsoc_bft::api::ReplicaId(2), Behavior::Silent.into());
//! let report = run(&mut cluster, &config);
//! assert!(report.safety_ok);
//! assert_eq!(report.committed, 10);
//! ```

pub mod adversary;
mod agreement;
pub mod api;
pub mod broadcast;
mod chassis;
pub mod checkpoint;
pub mod codec;
#[cfg(test)]
mod cycle;
pub mod dense;
pub mod durable;
pub mod harness;
pub mod minbft;
pub mod passive;
pub mod pbft;
pub mod plane;
pub mod protocol;
pub mod runner;
mod shell;
pub mod statemachine;
mod statetree;
pub mod viewchange;

pub use adversary::{
    Behavior, Flood, LinkFault, OracleVerdict, Partition, ReplaySpec, ReplicaScript, Scenario,
    ScenarioOracle, Window,
};
pub use api::{ClientId, LogEntry, OpId, ReplicaId, Reply, Request};
pub use checkpoint::{CheckpointCert, CheckpointStats, CheckpointVoucher, CkptKeys, LogView};
pub use codec::{decode_frame, encode_frame, Wire, WIRE_VERSION};
pub use durable::{DurableEvent, RecoveredState, RecoveryReport};
pub use plane::{step_node, Clock, Transport};
pub use protocol::{ClusterJob, Protocol};
pub use runner::{
    run, run_open_loop, run_scenario, OpenLoopReport, OpenLoopSpec, RunConfig, RunConfigBuilder,
    RunReport, ScenarioOutcome,
};
pub use shell::ShellMsg;
pub use statemachine::{KvStore, StateMachine};
