//! Common SMR types shared by all protocols.
//!
//! The message plane is allocation-free end to end: client requests travel
//! as [`Arc<Request>`] (issuing a request allocates its payload exactly
//! once — every fan-out send, retransmission, batch slot, and pending-map
//! entry afterwards is a refcount bump), batches as [`Arc<Batch>`]
//! (PR 3), and execution results as `Arc<Vec<u8>>` shared between the
//! exactly-once dedup index and every [`Reply`] that carries them.

use rsoc_crypto::{sha256, Sha256};
use std::fmt;
use std::sync::Arc;

pub use crate::codec::{decode_frame, encode_frame, request_fields, Reader, Wire, WIRE_VERSION};

/// Replica identity (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Client identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Globally unique operation identity: (client, client-sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId {
    /// Issuing client.
    pub client: ClientId,
    /// Client-local sequence number (1-based).
    pub seq: u64,
}

/// A client request carrying an opaque state-machine command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Operation identity (used for exactly-once execution).
    pub op: OpId,
    /// Opaque command payload.
    pub payload: Vec<u8>,
}

impl Request {
    /// Length of the request's [`Wire`] encoding (see [`request_fields`]):
    /// client, sequence number and payload length, then the payload.
    pub fn wire_len(&self) -> u64 {
        4 + 8 + 8 + self.payload.len() as u64
    }

    /// SHA-256 digest of the request (identity + payload), used in
    /// prepare/commit certificates: `client u32 LE · seq u64 LE · payload`.
    /// Nothing is allocated: a request of up to 256 such bytes is framed on
    /// the stack and hashed in one pass (the hasher's staging costs more
    /// than the copy at these sizes), a longer one incrementally.
    pub fn digest(&self) -> [u8; 32] {
        let mut frame = [0u8; 256];
        frame[..4].copy_from_slice(&self.op.client.0.to_le_bytes());
        frame[4..12].copy_from_slice(&self.op.seq.to_le_bytes());
        if let Some(body) = frame.get_mut(12..12 + self.payload.len()) {
            body.copy_from_slice(&self.payload);
            return sha256(&frame[..12 + self.payload.len()]);
        }
        let mut h = Sha256::new();
        h.update(&frame[..12]);
        h.update(&self.payload);
        h.finalize()
    }
}

/// An ordered batch of client requests agreed on as *one* consensus unit.
///
/// Batching amortizes the per-agreement cost (protocol messages, MAC
/// creation/verification, digest computation) over `len()` requests: a
/// batch of B requests needs one pre-prepare/prepare/commit exchange
/// instead of B, so per-request protocol overhead drops to `1/B`.
///
/// The digest is computed **once** at construction, in a single
/// incremental SHA-256 pass over every request (length-framed, so request
/// boundaries are unambiguous), and cached — replicas hash a batch's
/// payload once, not once per protocol phase.
///
/// **Invariant: a `Batch`'s digest is a pure function of its requests.**
/// [`Batch::new`] is the only constructor and the fields are private, so
/// no value of this type pairs content with another content's digest —
/// a batch decoded off the wire or out of a WAL was sealed by
/// [`Batch::new`] from the bytes received, and carries *their* digest. A
/// receiver therefore never re-hashes a batch; what it checks is the
/// digest itself, against the slot's quorum and against any proposal it
/// already holds for that slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    requests: Vec<Arc<Request>>,
    digest: [u8; 32],
}

impl Batch {
    /// Seals `requests` into a batch, computing the cached digest. The
    /// requests are shared, not copied: sealing a batch of B requests
    /// performs zero payload allocations.
    pub fn new(requests: Vec<Arc<Request>>) -> Self {
        let digest = Self::compute_digest(&requests);
        Batch { requests, digest }
    }

    /// A batch of one (the unbatched fast path).
    pub fn single(req: Arc<Request>) -> Self {
        Self::new(vec![req])
    }

    /// The requests, in execution order.
    pub fn requests(&self) -> &[Arc<Request>] {
        &self.requests
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True for an empty batch (never proposed by correct replicas).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The cached batch digest.
    pub fn digest(&self) -> [u8; 32] {
        self.digest
    }

    /// Length of the batch's [`Wire`] encoding — the request count, then
    /// each request — without encoding it.
    pub fn wire_len(&self) -> u64 {
        8 + self.requests.iter().map(|r| r.wire_len()).sum::<u64>()
    }

    /// Hashes the batch's canonical wire bytes incrementally (no
    /// allocation): `count u64 LE`, then each request's
    /// [`request_fields`]. The codec's [`Wire`] impl for `Batch` emits the
    /// *same* bytes to a frame, so `sha256(encode(batch)) == batch.digest()` —
    /// the simulator's digest path and the socket framing share one
    /// definition.
    fn compute_digest(requests: &[Arc<Request>]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&(requests.len() as u64).to_le_bytes());
        for r in requests {
            crate::codec::request_fields(r, &mut |bytes| h.update(bytes));
        }
        h.finalize()
    }
}

/// What a [`Batcher`] wants done after admitting a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDecision {
    /// The accumulator reached `batch_size`: seal and propose now.
    Seal,
    /// First request of a fresh accumulation: arm the flush timer, passing
    /// the carried epoch token back via [`Batcher::on_flush_timer`].
    ArmTimer(u64),
    /// Waiting for more requests; a flush timer is already armed.
    Wait,
    /// Duplicate of a request already accumulated: drop it.
    Duplicate,
}

/// Primary-side batching front-end shared by every protocol: accumulates
/// incoming requests and decides when to seal them into a [`Batch`] —
/// at `batch_size` requests, or when the protocol's flush timer (armed on
/// [`BatchDecision::ArmTimer`], acknowledged via
/// [`Batcher::on_flush_timer`]) fires, whichever comes first.
///
/// The *protocol* owns what sealing means (propose, certify, execute);
/// this type owns only the accumulate/arm bookkeeping so the three
/// implementations cannot drift.
///
/// # Flush epochs
///
/// Every [`drain`](Self::drain) starts a new *epoch*, and flush timers
/// are tokenized with the epoch they were armed in. A timer that fires
/// after its accumulation was already sealed (by reaching `batch_size`)
/// is recognized as stale and ignored, and the next lone request arms a
/// fresh, full-patience timer of its own. Without this, a request
/// arriving just after a size-seal would ride whatever remained of the
/// *previous* accumulation's timer — its flush deadline would depend on
/// arrival interleaving, which under pipelined clients (many requests in
/// flight per client) made partial-batch flush timing an accident of
/// event order rather than a deterministic function of the accumulation.
#[derive(Debug)]
pub struct Batcher {
    accum: Vec<Arc<Request>>,
    /// Bumped on every drain; tokens from older epochs are stale.
    epoch: u64,
    /// The epoch a flush timer is currently armed for, if any.
    armed_for: Option<u64>,
    batch_size: usize,
    batch_flush: u64,
}

impl Default for Batcher {
    fn default() -> Self {
        Batcher { accum: Vec::new(), epoch: 0, armed_for: None, batch_size: 1, batch_flush: 200 }
    }
}

impl Batcher {
    /// An unbatched front-end (`batch_size` 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconfigures the seal threshold and flush patience (both clamped
    /// to at least 1).
    pub fn configure(&mut self, batch_size: usize, batch_flush: u64) {
        self.batch_size = batch_size.max(1);
        self.batch_flush = batch_flush.max(1);
    }

    /// Cycles the flush timer should be armed for.
    pub fn flush_cycles(&self) -> u64 {
        self.batch_flush
    }

    /// The configured seal threshold (also used to re-chunk pending
    /// requests during a view change).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Admits `req` (a refcount bump, not a payload copy), returning what
    /// the caller must do next.
    pub fn offer(&mut self, req: Arc<Request>) -> BatchDecision {
        if self.accum.iter().any(|r| r.op == req.op) {
            return BatchDecision::Duplicate;
        }
        self.accum.push(req);
        if self.accum.len() >= self.batch_size {
            BatchDecision::Seal
        } else if self.armed_for.is_none() {
            self.armed_for = Some(self.epoch);
            BatchDecision::ArmTimer(self.epoch)
        } else {
            BatchDecision::Wait
        }
    }

    /// Acknowledges a flush timer firing for epoch `token`. Returns `true`
    /// when the timer is current (the caller should seal what has
    /// accumulated); `false` for a stale timer from an accumulation that
    /// was already sealed — ignore it.
    pub fn on_flush_timer(&mut self, token: u64) -> bool {
        if self.armed_for == Some(token) && token == self.epoch {
            self.armed_for = None;
            true
        } else {
            false
        }
    }

    /// Forgets the accumulation and its flush epochs, keeping the
    /// configuration (rejuvenation).
    pub fn reset(&mut self) {
        self.accum.clear();
        self.epoch = 0;
        self.armed_for = None;
    }

    /// Takes the accumulated requests, keeping only those `admit` accepts
    /// (protocols drop requests that went stale across a view change).
    /// Starts a new flush epoch: any armed timer becomes stale.
    pub fn drain(&mut self, mut admit: impl FnMut(&Request) -> bool) -> Vec<Arc<Request>> {
        self.epoch += 1;
        self.armed_for = None;
        std::mem::take(&mut self.accum).into_iter().filter(|r| admit(r)).collect()
    }
}

/// The reserved client id of no-op filler requests (never a real client;
/// the harness drops replies addressed to it).
pub const NOOP_CLIENT: u32 = u32::MAX;

/// A no-op filler batch for sequence `seq`: executing it leaves the state
/// machine untouched (`NOOP` is not a KvStore command) and its reply goes
/// to [`NOOP_CLIENT`], which the harness ignores. New primaries use it to
/// fill sequence holes left by proposals that died unprepared below a
/// prepared neighbour (the checkpoint-less analogue of PBFT's null
/// requests; see [`crate::viewchange`]).
pub fn noop_batch(seq: u64) -> Arc<Batch> {
    Arc::new(Batch::single(Arc::new(Request {
        op: OpId { client: ClientId(NOOP_CLIENT), seq },
        payload: b"NOOP".to_vec(),
    })))
}

/// A reply from a replica to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Responding replica.
    pub replica: ReplicaId,
    /// Operation being answered.
    pub op: OpId,
    /// State-machine result — shared with the replica's exactly-once
    /// dedup index, so answering a retry clones a refcount, not bytes.
    pub result: Arc<Vec<u8>>,
}

/// One committed slot of a replica's totally-ordered log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Global sequence number (1-based, dense).
    pub seq: u64,
    /// Which operation was committed here.
    pub op: OpId,
    /// Digest of the committed request.
    pub digest: [u8; 32],
}

/// Addressable endpoints in the protocol harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// A replica.
    Replica(ReplicaId),
    /// A client.
    Client(ClientId),
}

/// Input delivered to a replica by the harness.
#[derive(Debug, Clone)]
pub enum Input<M> {
    /// A protocol message from another endpoint.
    Message {
        /// Sender.
        from: Endpoint,
        /// Payload.
        msg: M,
    },
    /// A timer the replica had set has fired.
    Timer {
        /// Protocol-defined timer class.
        kind: u32,
        /// Protocol-defined token (e.g., a sequence number).
        token: u64,
    },
}

/// Outgoing effects collected from a replica handler.
#[derive(Debug)]
pub struct Outbox<M> {
    /// Messages to send: (destination, payload).
    pub msgs: Vec<(Endpoint, M)>,
    /// Timers to arm: (delay cycles, kind, token).
    pub timers: Vec<(u64, u32, u64)>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox { msgs: Vec::new(), timers: Vec::new() }
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message.
    pub fn send(&mut self, to: Endpoint, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Queues a message to every replica in `0..n` except `me`.
    pub fn broadcast(&mut self, n: u32, me: ReplicaId, msg: M)
    where
        M: Clone,
    {
        for i in 0..n {
            if i != me.0 {
                self.msgs.push((Endpoint::Replica(ReplicaId(i)), msg.clone()));
            }
        }
    }

    /// Arms a timer.
    pub fn arm(&mut self, delay: u64, kind: u32, token: u64) {
        self.timers.push((delay, kind, token));
    }

    /// Empties both queues, keeping their capacity — the harness reuses
    /// one outbox across every delivered event, so the steady state does
    /// not allocate per event.
    pub fn clear(&mut self) {
        self.msgs.clear();
        self.timers.clear();
    }
}

/// The protocol-node interface the harness drives.
///
/// A node is one replica of one protocol. The harness delivers inputs in
/// deterministic virtual-time order and routes the outbox.
pub trait ReplicaNode {
    /// Protocol message type (must embed client requests and replies).
    type Msg: Clone + fmt::Debug;

    /// This node's id.
    fn id(&self) -> ReplicaId;

    /// Handles one input, emitting effects into `out`.
    fn on_input(&mut self, input: Input<Self::Msg>, now: u64, out: &mut Outbox<Self::Msg>);

    /// The committed log so far (dense, in sequence order).
    fn committed_log(&self) -> &[LogEntry];

    /// Wraps a client request into a protocol message. The `Arc` makes
    /// client fan-out (n sends per issue, plus every retransmission)
    /// allocation-free: each wire copy shares the one payload buffer.
    fn make_request(req: Arc<Request>) -> Self::Msg;

    /// Extracts a reply if `msg` is one (used by the client harness).
    fn as_reply(msg: &Self::Msg) -> Option<&Reply>;

    /// SHA-256 digest of the replica's state-machine state. The scenario
    /// oracle compares equally-advanced correct replicas at quiesce.
    fn state_digest(&self) -> [u8; 32];

    /// Monotone view/epoch marker (0 in the initial configuration). Each
    /// increment is one detection-and-recovery round — a PBFT/MinBFT view
    /// change or a passive failover — which the campaign records per cell.
    fn current_view(&self) -> u64;

    /// Total committed operations. With checkpointing enabled the
    /// committed log truncates below the stable watermark, so this is
    /// `truncated prefix + committed_log().len()`, **not** the retained
    /// suffix length. The default covers untruncated logs (entry seqs are
    /// dense and 1-based, so the last seq is the count).
    fn committed_seq(&self) -> u64 {
        self.committed_log().last().map(|e| e.seq).unwrap_or(0)
    }

    /// Rejuvenation: discard all volatile protocol and application state
    /// (log, state machine, agreement slots, dedup indices) while keeping
    /// identity and trusted-component state (keys, USIG counter, stable
    /// checkpoint certificate). A wiped replica re-joins through state
    /// transfer. Default: no-op, for protocols without a recovery path.
    fn wipe(&mut self) {}

    /// Checkpoint/state-transfer counters for campaign rows. Default:
    /// zeros, for protocols without checkpointing.
    fn checkpoint_stats(&self) -> crate::checkpoint::CheckpointStats {
        crate::checkpoint::CheckpointStats::default()
    }

    /// Certificates formed or adopted this run, in order (`(seq, digest)`
    /// pairs — the boundaries the checkpoint-agreement proptest compares
    /// across replicas). Default: empty.
    fn checkpoint_history(&self) -> &[(u64, [u8; 32])] {
        &[]
    }

    /// Turns on [`DurableEvent`](crate::durable::DurableEvent) emission.
    /// Off by default (the simulator never persists), so the hooks are
    /// byte-invisible to every existing plane. Default: no-op, for
    /// protocols without a durability path.
    fn enable_durability(&mut self) {}

    /// Moves the events queued since the last drain into `out` (appended;
    /// the caller owns clearing). The embedding plane persists them
    /// **before** dispatching the same input's outbox — that ordering is
    /// what "committed before acked" means. Default: no-op.
    fn drain_durable(&mut self, _out: &mut Vec<crate::durable::DurableEvent>) {}

    /// Rebuilds core state from a store's replay, **before** the serve
    /// loop starts and before [`enable_durability`](Self::enable_durability)
    /// (recovery must not re-persist what it replays). Disk contents are
    /// ingress: implementations re-verify certificates and snapshot
    /// digests, replay only the contiguous commit prefix, and leave any
    /// remaining gap to collaborative state transfer. Default: no-op.
    fn recover(
        &mut self,
        _state: crate::durable::RecoveredState,
    ) -> crate::durable::RecoveryReport {
        crate::durable::RecoveryReport::default()
    }
}

/// A cluster: the set of nodes plus protocol-level metadata the harness
/// needs (quorum sizes, client targeting).
pub trait Cluster {
    /// Node type.
    type Node: ReplicaNode;

    /// All nodes (index = replica id).
    fn nodes_mut(&mut self) -> &mut [Self::Node];

    /// All nodes, immutable.
    fn nodes(&self) -> &[Self::Node];

    /// Number of matching replies a client needs before accepting a result.
    fn reply_quorum(&self) -> usize;

    /// Human-readable protocol name for reports.
    fn protocol_name(&self) -> &'static str;

    /// Ids of replicas considered *correct* (Byzantine ones — content
    /// attackers — excluded from safety checking; benign crash/omission
    /// faults keep a replica's state honest, so it stays in the set).
    fn correct_replicas(&self) -> Vec<ReplicaId>;

    /// Installs a fault script on one replica (the scenario engine's
    /// uniform entry point; presets go through the same path).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    fn set_script(&mut self, id: ReplicaId, script: crate::adversary::ReplicaScript);

    /// Dissolves the cluster into its nodes (index = replica id).
    ///
    /// The real-transport plane runs one replica per OS process: every
    /// process constructs the *same* cluster from the shared `(seed, f)`
    /// configuration — key provisioning is deterministic in the seed, so
    /// all processes derive identical key material — then extracts and
    /// owns just its own node. The simulator keeps driving the intact
    /// cluster through [`nodes_mut`](Self::nodes_mut).
    fn into_nodes(self) -> Vec<Self::Node>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_digest_is_stable_and_sensitive() {
        let r1 = Request { op: OpId { client: ClientId(1), seq: 5 }, payload: b"set x=1".to_vec() };
        let r2 = r1.clone();
        assert_eq!(r1.digest(), r2.digest());
        let r3 = Request { op: OpId { client: ClientId(1), seq: 6 }, payload: b"set x=1".to_vec() };
        assert_ne!(r1.digest(), r3.digest(), "op id is part of identity");
        let r4 = Request { op: OpId { client: ClientId(1), seq: 5 }, payload: b"set x=2".to_vec() };
        assert_ne!(r1.digest(), r4.digest());
        // The bytes hashed, pinned: client u32 LE · seq u64 LE · payload,
        // on both sides of the stack frame's 256 bytes.
        for len in [0, 7, 243, 244, 245, 1000] {
            let r = Request { op: OpId { client: ClientId(1), seq: 5 }, payload: vec![0xA5; len] };
            let bytes = [&1u32.to_le_bytes()[..], &5u64.to_le_bytes(), &r.payload].concat();
            assert_eq!(r.digest(), sha256(&bytes), "payload of {len} bytes");
        }
    }

    #[test]
    fn batch_digest_is_cached_order_sensitive_and_framed() {
        let r1 =
            Arc::new(Request { op: OpId { client: ClientId(1), seq: 1 }, payload: b"ab".to_vec() });
        let r2 =
            Arc::new(Request { op: OpId { client: ClientId(1), seq: 2 }, payload: b"c".to_vec() });
        let b12 = Batch::new(vec![r1.clone(), r2.clone()]);
        let b21 = Batch::new(vec![r2.clone(), r1.clone()]);
        assert_ne!(b12.digest(), b21.digest(), "order is part of identity");
        assert_eq!(b12.len(), 2);
        // Length framing: moving a byte across a request boundary changes
        // the digest even though the concatenation is identical.
        let r1b =
            Arc::new(Request { op: OpId { client: ClientId(1), seq: 1 }, payload: b"a".to_vec() });
        let r2b =
            Arc::new(Request { op: OpId { client: ClientId(1), seq: 2 }, payload: b"bc".to_vec() });
        assert_ne!(b12.digest(), Batch::new(vec![r1b, r2b]).digest());
        // Singleton helper shares the request, never copies it.
        let singleton = Batch::single(r1.clone());
        assert!(Arc::ptr_eq(&singleton.requests()[0], &r1));
    }

    #[test]
    fn batcher_seals_arms_and_dedups() {
        let req = |seq| {
            Arc::new(Request { op: OpId { client: ClientId(1), seq }, payload: vec![seq as u8] })
        };
        let mut b = Batcher::new();
        // Unbatched default: every request seals immediately.
        assert_eq!(b.offer(req(1)), BatchDecision::Seal);
        b.configure(3, 50);
        assert_eq!(b.batch_size(), 3);
        assert_eq!(b.flush_cycles(), 50);
        // (req(1) is still accumulated from before the reconfigure.)
        assert_eq!(b.offer(req(2)), BatchDecision::ArmTimer(0));
        assert_eq!(b.offer(req(2)), BatchDecision::Duplicate);
        assert_eq!(b.offer(req(3)), BatchDecision::Seal);
        let drained = b.drain(|r| r.op.seq != 2);
        assert_eq!(drained.len(), 2, "filter drops stale entries");
        // The epoch-0 timer is stale after the drain; a fresh accumulation
        // arms its own epoch-1 timer, which flushes normally.
        assert_eq!(b.offer(req(4)), BatchDecision::ArmTimer(1));
        assert!(!b.on_flush_timer(0), "stale epoch-0 timer is ignored");
        assert!(b.on_flush_timer(1), "current timer triggers the flush");
        assert_eq!(b.drain(|_| true).len(), 1);
        // Degenerate configs clamp instead of wedging.
        b.configure(0, 0);
        assert_eq!(b.batch_size(), 1);
        assert_eq!(b.flush_cycles(), 1);
    }

    #[test]
    fn batcher_flush_timing_is_epoch_deterministic() {
        // Pipelined-client scenario: a size-seal consumes the accumulation
        // while its flush timer is still pending. The straggler that
        // arrives next must get a full-patience timer of its own — its
        // flush deadline is a function of ITS accumulation epoch, not of
        // when the previous accumulation happened to arm a timer.
        let req =
            |seq| Arc::new(Request { op: OpId { client: ClientId(2), seq }, payload: vec![] });
        let mut b = Batcher::new();
        b.configure(2, 100);
        assert_eq!(b.offer(req(1)), BatchDecision::ArmTimer(0));
        assert_eq!(b.offer(req(2)), BatchDecision::Seal);
        assert_eq!(b.drain(|_| true).len(), 2);
        // Straggler after the seal: new epoch, new timer.
        assert_eq!(b.offer(req(3)), BatchDecision::ArmTimer(1));
        // The old epoch-0 timer fires mid-accumulation: no early flush.
        assert!(!b.on_flush_timer(0));
        assert!(b.on_flush_timer(1));
        let flushed = b.drain(|_| true);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].op.seq, 3);
        // A re-fire of an already-acknowledged timer is also stale.
        assert!(!b.on_flush_timer(1));
    }

    #[test]
    fn outbox_broadcast_skips_self() {
        let mut out: Outbox<u32> = Outbox::new();
        out.broadcast(4, ReplicaId(2), 7);
        assert_eq!(out.msgs.len(), 3);
        assert!(out.msgs.iter().all(|(to, _)| *to != Endpoint::Replica(ReplicaId(2))));
    }

    #[test]
    fn outbox_timers() {
        let mut out: Outbox<u32> = Outbox::new();
        out.arm(10, 1, 99);
        assert_eq!(out.timers, vec![(10, 1, 99)]);
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", ReplicaId(3)), "r3");
        assert_eq!(format!("{}", ClientId(1)), "c1");
    }
}
