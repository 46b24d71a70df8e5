//! The durability boundary between a protocol core and a persistent
//! store.
//!
//! The sans-io cores never touch a disk, exactly as they never touch a
//! socket: a core *emits* [`DurableEvent`]s describing what must survive
//! a crash, [`step_node`] hands them to [`Transport::persist`] (the
//! `rsoc_transport` plane writes them to its `rsoc_store` data
//! directory) **before** dispatching the outbox — so no execution ack
//! leaves the replica until the commit it acknowledges is on disk — and
//! on restart the plane feeds the replayed [`RecoveredState`] back
//! through [`ReplicaNode::recover`].
//!
//! The simulator never enables durability, so these hooks are
//! byte-invisible there: `drain_durable` on a core that was never
//! [`enable_durability`]'d is a no-op on an empty buffer, and
//! `persist` is never called.
//!
//! Three event classes cover the three kinds of state a restart must not
//! lose:
//!
//! * [`DurableEvent::Commit`] — one agreement slot's committed batch.
//!   Replaying the contiguous run of these from the last snapshot
//!   reconstructs the committed log, the client sessions, and the state
//!   machine byte-identically (log-entry digests are recomputed from the
//!   batch, which carries its own digest preimage — see
//!   [`Batch`]).
//! * [`DurableEvent::Stable`] — a stable [`CheckpointCert`] with the
//!   snapshot it certifies. Recovery re-*verifies* the certificate and
//!   the snapshot digest before installing: disk contents are ingress,
//!   not trusted state. **Not one per stable checkpoint**: the commit
//!   records already hold every change since the last image, so the next
//!   image is emitted (and only then serialized) at the first stable
//!   checkpoint at which the commit bytes queued since the last emitted
//!   image have reached that image's length. The first stable checkpoint
//!   and every installed state transfer always emit. The rule is a
//!   constant, not a setting: images sum to at most the commit bytes plus
//!   one image, and a restart replays at most about one image's worth of
//!   commits on top of the image it installs.
//! * [`DurableEvent::UsigCounter`] — the MinBFT USIG's issued counter.
//!   The USIG abstracts a *hardware-monotonic* counter; a process
//!   restart must resume it at or above the highest value ever certified
//!   or the replica would sign two messages under one counter value —
//!   the exact equivocation the hybrid exists to prevent.
//!
//! [`enable_durability`]: crate::api::ReplicaNode::enable_durability
//! [`step_node`]: crate::plane::step_node
//! [`Transport::persist`]: crate::plane::Transport::persist
//! [`ReplicaNode::recover`]: crate::api::ReplicaNode::recover

use crate::api::Batch;
use crate::checkpoint::CheckpointCert;
use std::sync::Arc;

/// One fact a protocol core needs persisted before its outbox for the
/// same input is dispatched.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableEvent {
    /// Agreement slot `seq` committed `batch` (slot domain, not log
    /// domain: one event per batch, not per request).
    Commit {
        /// Agreement sequence of the slot.
        seq: u64,
        /// The committed batch (shared with the slot, never copied).
        batch: Arc<Batch>,
    },
    /// A checkpoint certificate became stable with a locally held
    /// snapshot, and the commits since the last such event outweigh that
    /// event's snapshot (see the module docs): persist both and let the
    /// store garbage-collect the WAL prefix the snapshot covers.
    Stable {
        /// The stable certificate.
        cert: CheckpointCert,
        /// Committed-log length at the certificate watermark.
        log_len: u64,
        /// The certified snapshot bytes.
        snapshot: Arc<Vec<u8>>,
    },
    /// The USIG issued counter value `0..=counter` (MinBFT only).
    UsigCounter(u64),
}

/// What a store replayed from disk, handed to
/// [`ReplicaNode::recover`](crate::api::ReplicaNode::recover) before the
/// serve loop starts.
///
/// Everything here is **ingress**: the WAL may have been truncated,
/// bit-flipped, or swapped wholesale. The store already dropped records
/// that fail CRC/framing; the core re-verifies the certificate and
/// snapshot digest and replays only the contiguous commit run — anything
/// else is abandoned to collaborative state transfer.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Newest snapshot that decoded cleanly: certificate, log length at
    /// the watermark, snapshot bytes.
    pub snapshot: Option<(CheckpointCert, u64, Vec<u8>)>,
    /// Commit records replayed from the WAL, in write order.
    pub commits: Vec<(u64, Arc<Batch>)>,
    /// Highest persisted USIG counter (0 when none was recorded).
    pub usig_counter: u64,
}

impl RecoveredState {
    /// True when nothing at all was recovered (first boot, or a WAL so
    /// damaged that no record survived).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.commits.is_empty() && self.usig_counter == 0
    }
}

/// What [`recover`](crate::api::ReplicaNode::recover) actually applied —
/// printed by `rsoc-serve` so the chaos harness can see a restart
/// replayed its WAL rather than silently starting fresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Watermark of the installed snapshot certificate (0 if none
    /// installed).
    pub installed_seq: u64,
    /// Commit records replayed into the core.
    pub replayed: u64,
    /// Total committed operations after recovery.
    pub committed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovered_state_emptiness() {
        assert!(RecoveredState::default().is_empty());
        let with_counter = RecoveredState { usig_counter: 3, ..Default::default() };
        assert!(!with_counter.is_empty());
    }
}
