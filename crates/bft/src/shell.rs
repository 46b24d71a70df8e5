//! The replica shell: everything a replica does *before* its protocol
//! orders a request and *after* it has ordered a batch, written once for
//! all three protocols.
//!
//! PBFT, MinBFT and passive replication are three **ordering**
//! disciplines between one **intake** and one **recovery** story (§II-A /
//! §III-C of the paper: rejuvenation is wipe + state transfer, independent
//! of how agreement is reached). The [`Shell`] owns both — the request
//! accumulator, the op → slot assignments, the backup watchlist and its
//! patience, the next free sequence number; the committed log, the state
//! machine, the client sessions (the exactly-once table: a window of
//! replies per client), certified checkpoints, the state-transfer replay
//! ring and buffer, and the durable event queue — and the code that runs
//! over them. The shell sits inside the replica chassis
//! ([`Replica`](crate::chassis::Replica)), which gates a faulty script's
//! outputs and makes the calls every input or lifecycle event makes; the
//! protocol core makes the rest:
//!
//! | the core (or the chassis) calls…  | when                                          |
//! |-----------------------------------|-----------------------------------------------|
//! | [`Shell::intake`]                 | a client request arrives                      |
//! | [`Shell::on_flush_timer`]         | a [`TIMER_FLUSH`] fires                       |
//! | [`Shell::open_slot`] / [`Shell::assign`] | it proposes / accepts a proposal       |
//! | [`Shell::execute`]                | a slot is ordered and every earlier one ran   |
//! | [`Shell::checkpoint`]             | right after each executed slot                |
//! | [`Shell::on_voucher`]             | chassis: a peer's checkpoint voucher arrives  |
//! | [`Shell::accept_cert`]            | a certificate rides a view change or hint     |
//! | [`Shell::request_transfer`]       | chassis: after every input (rate-limited)     |
//! | [`Shell::serve_transfer`]         | chassis: a peer's state request arrives       |
//! | [`Shell::admit_transfer`] then [`Shell::install`] | chassis: a state response arrives |
//! | [`Shell::rearm_patience`]         | after an outage (chassis), an install or a new view |
//! | [`Shell::recover`]                | chassis: once, before the first input, on restart |
//! | [`Shell::wipe`]                   | chassis: rejuvenation                         |
//!
//! What legitimately differs between protocols is a call-site argument,
//! never a branch in here: the replica's [`Role`] towards a request, the
//! voucher and install quorums, and whether a fault script forges
//! vouchers or corrupts served transfers. Every protocol logs a slot
//! under its batch's digest. What a core does with sealed requests is its
//! own: PBFT pre-prepares them, MinBFT stamps a UI on a PREPARE, passive
//! executes and ships them. After an install or a recovery the protocol
//! runs its own tail — retire its windows below [`Shell::exec_upto`],
//! join the view, re-arm patience, resume execution.
//! Provisioning (batching, patience, checkpoint keys) is the chassis's.

use crate::api::{
    Batch, BatchDecision, Batcher, Endpoint, OpId, Outbox, ReplicaId, Reply, Request,
};
use crate::checkpoint::{
    tamper_suffix, verify_image, CheckpointCert, CheckpointImage, CheckpointStore,
    CheckpointVoucher, CkptKeys, ClientSessions, CommittedLog, CstBuffer, CstInstall, LogView,
    StateTransfer,
};
use crate::codec::Wire;
use crate::dense::{op_token, token_op, OpIndex, SeqWindow};
use crate::durable::{DurableEvent, RecoveredState, RecoveryReport};
use crate::statemachine::{KvStore, StateMachine};
use rsoc_crypto::{sha256, Tag};
use std::sync::Arc;

/// The four messages every replica's shell sends and receives, whichever
/// protocol orders its requests: each protocol's message enum carries them
/// in one `Shell(ShellMsg)` variant, and the chassis routes them. None
/// names its sender: the chassis takes one only over the link of a replica
/// of the cluster, and that link is the sender (a voucher's `from` is its
/// signer, and must be that link).
#[derive(Debug, Clone, PartialEq)]
pub enum ShellMsg {
    /// Execution result (replica → client).
    Reply(Reply),
    /// A MAC'd checkpoint voucher; a quorum of matching ones forms a
    /// certificate. Boxed — vouchers are periodic, not per-request.
    Checkpoint(Box<CheckpointVoucher>),
    /// A recovering replica asks its peers for the certified state; the
    /// answer goes back over the link the request arrived on.
    StateRequest {
        /// Requester's execution watermark.
        have: u64,
    },
    /// A peer's state-transfer answer (see [`StateTransfer`]). Boxed —
    /// transfers are rare and huge.
    StateResponse(Box<StateTransfer>),
}

crate::wire! {
    enum ShellMsg {
        0 => Reply(reply),
        1 => Checkpoint(voucher),
        2 => StateRequest { have },
        3 => StateResponse(transfer),
    }
}

/// What a message is to the chassis, which routes the first two kinds
/// itself.
pub enum Routed<M> {
    /// A client request: taken over any link.
    Request(Arc<Request>),
    /// A shell message.
    Shell(ShellMsg),
    /// One of the protocol's own messages.
    Own(M),
}

/// A protocol's message enum: its own messages plus a `Request` and a
/// `Shell(ShellMsg)` variant — implemented by [`carries_shell!`], never by
/// hand. (`pub` only so the chassis's public impls may name it; the module
/// is private.)
pub trait Carrier: From<ShellMsg> + From<Arc<Request>> + Clone {
    /// Which kind of message this is.
    fn route(self) -> Routed<Self>;
    /// The shell message this is, if it is one.
    fn as_shell(&self) -> Option<&ShellMsg>;
}

/// Implements [`Carrier`] (and both `From`s) for a message enum with a
/// `Request(Arc<Request>)` and a `Shell(ShellMsg)` variant.
macro_rules! carries_shell {
    ($msg:ident) => {
        impl From<$crate::shell::ShellMsg> for $msg {
            fn from(msg: $crate::shell::ShellMsg) -> Self {
                $msg::Shell(msg)
            }
        }

        impl From<std::sync::Arc<$crate::api::Request>> for $msg {
            fn from(req: std::sync::Arc<$crate::api::Request>) -> Self {
                $msg::Request(req)
            }
        }

        impl $crate::shell::Carrier for $msg {
            fn route(self) -> $crate::shell::Routed<Self> {
                match self {
                    $msg::Request(req) => $crate::shell::Routed::Request(req),
                    $msg::Shell(msg) => $crate::shell::Routed::Shell(msg),
                    other => $crate::shell::Routed::Own(other),
                }
            }

            fn as_shell(&self) -> Option<&$crate::shell::ShellMsg> {
                match self {
                    $msg::Shell(msg) => Some(msg),
                    _ => None,
                }
            }
        }
    };
}
pub(crate) use carries_shell;

/// Timer kind: a backup's patience for a watched request ran out.
pub(crate) const TIMER_REQUEST: u32 = 1;
/// Timer kind: the primary's partially filled batch waited long enough.
pub(crate) const TIMER_FLUSH: u32 = 2;
/// Default cycles a backup waits for a request to commit before
/// suspecting the primary.
const REQUEST_PATIENCE: u64 = 1_500;

/// What a replica is to a client request arriving now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Orders requests: accumulate, seal, propose.
    Primary,
    /// Watches the primary: remember the request and start its patience.
    Backup,
    /// Neither (a passive backup ignores requests — the failover gap the
    /// root package's `tests/adversary_scenarios.rs` pins).
    Idle,
}

/// What [`Shell::intake`] leaves for the ordering core to do.
#[derive(Debug, PartialEq)]
pub(crate) enum Intake {
    /// Nothing: answered from the client's session, accumulated, watched
    /// or dropped.
    Done,
    /// A client retry for an op already in flight at this slot:
    /// re-announce it so replicas that discarded messages during a view
    /// change catch up.
    Reannounce(u64),
    /// The accumulator sealed: propose these requests, in this order.
    Sealed(Vec<Arc<Request>>),
}

/// The protocol-independent half of a replica (see the module docs).
#[derive(Debug)]
pub(crate) struct Shell {
    id: ReplicaId,
    /// Cluster size (voucher and state-request fan-out).
    n: u32,
    /// Matching vouchers that certify a checkpoint (f+1; 2-of-2 for
    /// passive, which has no spare replica to outvote a lie).
    voucher_quorum: usize,
    /// Committed log; truncates below the stable checkpoint watermark.
    log: CommittedLog,
    /// Highest executed agreement slot (passive: its log sequence).
    exec_upto: u64,
    machine: KvStore,
    /// The exactly-once table: each client's window of executed replies,
    /// written by every execution and certified with the state machine,
    /// so a replica that installs or recovers an image answers the
    /// retries its peers would.
    sessions: ClientSessions,
    /// Vouchers, certificates and the transfer backoff (inert at
    /// interval 0).
    ckpt: CheckpointStore,
    /// Executed batches above the stable checkpoint, keyed by slot — the
    /// suffix served with state transfers. Only populated while
    /// checkpointing is enabled.
    replay_ring: SeqWindow<Arc<Batch>>,
    /// Buffered state-transfer responses awaiting their install quorum.
    cst: CstBuffer,
    /// True once the embedding plane persists [`DurableEvent`]s (never in
    /// the simulator — see [`crate::durable`]).
    durability: bool,
    /// Events awaiting [`Shell::drain_durable`].
    durable: Vec<DurableEvent>,
    /// Highest stable watermark already emitted as a
    /// [`DurableEvent::Stable`].
    durable_stable_seq: u64,
    /// Length of the image that event carried (0 before the first).
    durable_image_len: u64,
    /// Commit bytes (each batch's [`Wire::wire_len`]) executed since that
    /// image: the WAL a restart replays on top of it.
    wal_since_image: u64,
    /// Primary-side accumulator: requests waiting to be sealed.
    batcher: Batcher,
    /// Op → agreement slot, for duplicate-proposal suppression.
    assigned: OpIndex<u64>,
    /// Backup watchlist: requests awaiting commit, one patience timer each.
    pending: OpIndex<Arc<Request>>,
    /// The next sequence number free for a proposal; always above
    /// `exec_upto`.
    next_seq: u64,
    /// Cycles a backup waits for a watched request to commit before
    /// suspecting the primary (see [`RunConfig::request_patience`](crate::runner::RunConfig::request_patience)).
    patience: u64,
}

// Vouchers, certificates, transfer responses and disk contents are all
// attacker-controlled, so the whole shell is an ingress region: a panic
// here is a remote crash (`rsoc_lint` enforces the contract).
// lint: ingress
impl Shell {
    /// A shell for replica `id` of `n`, checkpointing disabled.
    pub(crate) fn new(id: ReplicaId, n: u32, voucher_quorum: usize) -> Self {
        Shell {
            id,
            n,
            voucher_quorum,
            log: CommittedLog::new(),
            exec_upto: 0,
            machine: KvStore::new(),
            sessions: ClientSessions::new(),
            ckpt: CheckpointStore::new(id, voucher_quorum, 0, CkptKeys::provision(0, 1)),
            replay_ring: SeqWindow::with_base(1),
            cst: CstBuffer::new(),
            durability: false,
            durable: Vec::new(),
            durable_stable_seq: 0,
            durable_image_len: 0,
            wal_since_image: 0,
            batcher: Batcher::new(),
            assigned: OpIndex::new(),
            pending: OpIndex::new(),
            next_seq: 1,
            patience: REQUEST_PATIENCE,
        }
    }

    /// Enables certified checkpoints every `interval` executed slots under
    /// the cluster-shared `keys` (0 disables — the byte-invisible default).
    pub(crate) fn set_checkpointing(&mut self, interval: u64, keys: Arc<CkptKeys>) {
        self.ckpt = CheckpointStore::new(self.id, self.voucher_quorum, interval, keys);
    }

    /// Configures the batching front-end: seal a batch at `batch_size`
    /// requests, or after `batch_flush` cycles, whichever comes first.
    pub(crate) fn set_batching(&mut self, batch_size: usize, batch_flush: u64) {
        self.batcher.configure(batch_size, batch_flush);
    }

    /// Sets the backup's request patience (clamped to ≥ 1).
    pub(crate) fn set_patience(&mut self, cycles: u64) {
        self.patience = cycles.max(1);
    }

    /// The backup's request patience.
    pub(crate) fn patience(&self) -> u64 {
        self.patience
    }

    /// The configured seal threshold.
    pub(crate) fn batch_size(&self) -> usize {
        self.batcher.batch_size()
    }

    /// The next sequence number free for a proposal.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// A new primary resumes proposing at `seq` (never moves backwards).
    pub(crate) fn resume_at(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Highest executed agreement slot.
    pub(crate) fn exec_upto(&self) -> u64 {
        self.exec_upto
    }

    /// Total committed operations (truncated prefix included).
    pub(crate) fn committed(&self) -> u64 {
        self.log.committed()
    }

    /// The retained committed-log suffix.
    pub(crate) fn log(&self) -> LogView<'_> {
        self.log.view()
    }

    /// Digest of the state machine.
    pub(crate) fn state_digest(&self) -> [u8; 32] {
        self.machine.state_digest()
    }

    /// Checkpoint store, read-only (stable certificate, stats, history).
    pub(crate) fn ckpt(&self) -> &CheckpointStore {
        &self.ckpt
    }

    /// Whether a stable certificate is ahead of local execution — history
    /// below it is truncated cluster-wide, so only transfer closes the gap.
    pub(crate) fn behind(&self) -> bool {
        self.ckpt.behind(self.exec_upto)
    }

    /// Whether `op` already executed here.
    pub(crate) fn has_executed(&self, op: &OpId) -> bool {
        self.sessions.get(*op).is_some()
    }

    /// The byte-identical reply to a retry of an already-executed `op`.
    fn cached_reply(&self, op: OpId) -> Option<Reply> {
        let result = Arc::new(self.sessions.get(op)?.to_vec());
        Some(Reply { replica: self.id, op, result })
    }

    /// Counts a `CheckpointHint` fast-forward (MinBFT).
    pub(crate) fn note_hint_resync(&mut self) {
        self.ckpt.note_hint_resync();
    }

    /// Turns on [`DurableEvent`] emission.
    pub(crate) fn enable_durability(&mut self) {
        self.durability = true;
    }

    /// Moves the queued durable events into `out`.
    pub(crate) fn drain_durable(&mut self, out: &mut Vec<DurableEvent>) {
        out.append(&mut self.durable);
    }

    /// Queues a protocol-owned durable event (MinBFT's USIG counter).
    pub(crate) fn persist(&mut self, event: DurableEvent) {
        if self.durability {
            self.durable.push(event);
        }
    }

    /// Takes one client request in. A retry of an executed op is answered
    /// from its client's session whatever the role. A primary then either
    /// finds the op already in flight ([`Intake::Reannounce`]) or offers it
    /// to the accumulator, which seals at `batch_size` ([`Intake::Sealed`])
    /// or arms the flush timer; a backup puts it on its watchlist and
    /// starts its patience timer.
    pub(crate) fn intake<M: From<ShellMsg>>(
        &mut self,
        req: Arc<Request>,
        role: Role,
        out: &mut Outbox<M>,
    ) -> Intake {
        if let Some(reply) = self.cached_reply(req.op) {
            out.send(Endpoint::Client(req.op.client), ShellMsg::Reply(reply).into());
            return Intake::Done;
        }
        match role {
            Role::Primary => {
                if let Some(seq) = self.assigned.get(&req.op) {
                    return Intake::Reannounce(*seq);
                }
                match self.batcher.offer(req) {
                    BatchDecision::Seal => return self.seal().map_or(Intake::Done, Intake::Sealed),
                    BatchDecision::ArmTimer(token) => {
                        out.arm(self.batcher.flush_cycles(), TIMER_FLUSH, token)
                    }
                    BatchDecision::Wait | BatchDecision::Duplicate => {}
                }
            }
            Role::Backup => {
                if !self.pending.contains_key(&req.op) {
                    let token = op_token(req.op);
                    self.pending.insert(req.op, req);
                    out.arm(self.patience, TIMER_REQUEST, token);
                }
            }
            Role::Idle => {}
        }
        Intake::Done
    }

    /// A [`TIMER_FLUSH`] fired: the requests to propose, if the timer is
    /// the current accumulation's (stale tokens, from accumulations
    /// already sealed by size, are ignored) and this replica still leads.
    pub(crate) fn on_flush_timer(
        &mut self,
        token: u64,
        primary: bool,
    ) -> Option<Vec<Arc<Request>>> {
        if self.batcher.on_flush_timer(token) && primary {
            self.seal()
        } else {
            None
        }
    }

    /// Drains the accumulator. Requests can go stale in it across a view
    /// change (proposed by the new primary, then this replica re-elected):
    /// those already executed or in flight are dropped.
    fn seal(&mut self) -> Option<Vec<Arc<Request>>> {
        let (sessions, assigned) = (&self.sessions, &self.assigned);
        let reqs =
            self.batcher.drain(|r| sessions.get(r.op).is_none() && !assigned.contains_key(&r.op));
        (!reqs.is_empty()).then_some(reqs)
    }

    /// Seals `reqs` into one batch at the next free sequence number — one
    /// agreement round (and one digest computation) for the lot.
    pub(crate) fn open_slot(&mut self, reqs: Vec<Arc<Request>>) -> (u64, Arc<Batch>) {
        let batch = Arc::new(Batch::new(reqs));
        let seq = self.next_seq;
        self.next_seq += 1;
        self.assign(seq, &batch);
        (seq, batch)
    }

    /// Marks every op of `batch` as in flight at slot `seq`.
    pub(crate) fn assign(&mut self, seq: u64, batch: &Batch) {
        for r in batch.requests() {
            self.assigned.insert(r.op, seq);
        }
    }

    /// Whether the op behind patience-timer `token` is still unexecuted.
    pub(crate) fn watching(&self, token: u64) -> bool {
        self.pending.contains_key(&token_op(token))
    }

    /// The watchlist in canonical (op id) order.
    pub(crate) fn pending_canonical(&self) -> Vec<(OpId, &Arc<Request>)> {
        self.pending.iter_canonical()
    }

    /// Arms one patience timer per watched request (canonical order keeps
    /// the timer schedule deterministic) — after an outage, a transfer or
    /// a new view killed or outdated the running ones.
    pub(crate) fn rearm_patience<M>(&self, out: &mut Outbox<M>) {
        for (op, _) in self.pending.iter_canonical() {
            out.arm(self.patience, TIMER_REQUEST, op_token(op));
        }
    }

    /// Executes ordered slot `seq`: apply → session → watchlist and
    /// assignment, per request, then log → replay ring →
    /// [`DurableEvent::Commit`]. One agreement slot commits the whole
    /// batch: the log appends its requests at the next dense global seqs
    /// and keeps the batch's digest once for the slot.
    /// `executed(reply)` runs once per request, in order: the live path
    /// sends the reply there, replay paths (transfer suffix, WAL) pass a
    /// no-op — those replies went out before the crash or will be
    /// re-requested.
    pub(crate) fn execute(
        &mut self,
        seq: u64,
        batch: &Arc<Batch>,
        mut executed: impl FnMut(Reply),
    ) {
        self.advance_to(seq);
        for req in batch.requests() {
            let result = self.machine.apply(&req.payload);
            self.sessions.note(req.op, &result);
            self.pending.remove(&req.op);
            // Unreachable from here on: `intake` and `seal` ask the
            // session first.
            self.assigned.remove(&req.op);
            executed(Reply { replica: self.id, op: req.op, result });
        }
        self.log.append(batch.requests().iter().map(|r| r.op), batch.digest());
        if self.ckpt.enabled() {
            self.replay_ring.insert(seq, batch.clone());
        }
        self.wal_since_image += batch.wire_len() as u64;
        if self.durability {
            self.durable.push(DurableEvent::Commit { seq, batch: batch.clone() });
        }
    }

    /// Moves the execution watermark to `seq`; fresh proposals stay above
    /// it.
    fn advance_to(&mut self, seq: u64) {
        self.exec_upto = seq;
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Takes a certified checkpoint when execution crossed a watermark
    /// boundary: capture the state (the sessions written since the last
    /// checkpoint go into their tree, then two O(1) clones the live state
    /// copies on write), digest it (rehashing only the pages written since
    /// the last checkpoint), retain the capture for serving transfers,
    /// broadcast the MAC'd voucher, and count our own. The digest covers
    /// the state machine *and* the client sessions, so a recovered
    /// replica's dedup state is covered by the same vouchers as the
    /// application state. Returns `true` when this made a certificate
    /// stable (the log was truncated).
    ///
    /// `forge` is the Byzantine script path: vouch for fabricated state —
    /// one voucher with a garbage MAC (an outsider forgery, rejected by
    /// key verification) and one properly MAC'd over a lying digest (a
    /// colluder, isolated in its own digest group, never quorate). The
    /// retained image stays honest, so the forger can still serve a
    /// transfer if its peers certify the honest digest.
    pub(crate) fn checkpoint<M: From<ShellMsg> + Clone>(
        &mut self,
        exec_seq: u64,
        forge: bool,
        out: &mut Outbox<M>,
    ) -> bool {
        if !self.ckpt.due(exec_seq) {
            return false;
        }
        let image = CheckpointImage::capture(&self.machine, &mut self.sessions);
        if forge {
            let lie = sha256(b"forged-checkpoint-state");
            let garbage = CheckpointVoucher {
                seq: exec_seq,
                digest: lie,
                from: self.id,
                tag: Tag([0xEE; 32]),
            };
            out.broadcast(self.n, self.id, ShellMsg::Checkpoint(Box::new(garbage)).into());
            let colluder = self.ckpt.record_local(exec_seq, lie, self.log.committed(), image);
            out.broadcast(self.n, self.id, ShellMsg::Checkpoint(Box::new(colluder)).into());
            return false;
        }
        let digest = image.digest();
        let voucher = self.ckpt.record_local(exec_seq, digest, self.log.committed(), image);
        out.broadcast(self.n, self.id, ShellMsg::Checkpoint(Box::new(voucher.clone())).into());
        self.on_voucher(&voucher)
    }

    /// Ingests a checkpoint voucher (MAC-verified by the store); returns
    /// `true` when it completed a certificate.
    pub(crate) fn on_voucher(&mut self, voucher: &CheckpointVoucher) -> bool {
        let stable = self.ckpt.record(voucher).is_some();
        if stable {
            self.apply_truncation();
        }
        stable
    }

    /// Weighs a certificate carried by a view-change vote or a checkpoint
    /// hint, verifying it before it influences anything: a fresh valid one
    /// is adopted (the stable watermark catches up and the log truncates),
    /// a valid-but-stale one still counts at its seq, a forged one is
    /// `None` (the store counts the rejection).
    pub(crate) fn accept_cert(&mut self, cert: &CheckpointCert) -> Option<u64> {
        if self.ckpt.adopt_cert(cert) {
            self.apply_truncation();
            Some(cert.seq)
        } else {
            self.ckpt.verify_cert(cert).then_some(cert.seq)
        }
    }

    /// Truncates the log and replay ring below the stable checkpoint
    /// (no-op while this replica has no locally recorded watermark — a
    /// laggard keeps its suffix until state transfer resets it). With
    /// durability on, a newly stable certificate we hold the snapshot for
    /// is also emitted as a [`DurableEvent::Stable`] — once the commits
    /// executed since the last emitted image weigh as much as that image
    /// did. The WAL holds every change since then, so until it does a new
    /// image would only save replaying less than one image's worth of
    /// commits, at the price of writing (and, before that, materialising)
    /// the whole state: under the rule the images written sum to at most
    /// the WAL written plus one, whatever the checkpoint interval, and a
    /// restart replays about one image's worth of WAL at most (the rule
    /// is checked at stable checkpoints, so up to an interval more) on
    /// top of the image it installs.
    fn apply_truncation(&mut self) {
        if let Some(log_len) = self.ckpt.stable_log_len() {
            self.log.truncate_below(log_len);
            self.replay_ring.retire_below(self.ckpt.stable_seq() + 1);
        }
        if self.durability
            && self.ckpt.stable_seq() > self.durable_stable_seq
            && self.wal_since_image >= self.durable_image_len
        {
            if let Some((cert, log_len, snapshot)) = self.ckpt.serve() {
                let cert = cert.clone();
                self.emit_stable(cert, log_len, snapshot);
            }
        }
    }

    /// Queues `snapshot` for the disk and restarts the count of commit
    /// bytes on top of it.
    fn emit_stable(&mut self, cert: CheckpointCert, log_len: u64, snapshot: Arc<Vec<u8>>) {
        self.image_on_disk(cert.seq, snapshot.len());
        self.durable.push(DurableEvent::Stable { cert, log_len, snapshot });
    }

    /// The disk's newest image is the one at `seq`, `len` bytes long, with
    /// no commit on top of it yet.
    fn image_on_disk(&mut self, seq: u64, len: usize) {
        self.durable_stable_seq = seq;
        self.durable_image_len = len as u64;
        self.wal_since_image = 0;
    }

    /// Broadcasts a state-transfer request if the stable certificate is
    /// ahead of local execution (rate-limited by the CST backoff).
    pub(crate) fn request_transfer<M: From<ShellMsg> + Clone>(
        &mut self,
        now: u64,
        out: &mut Outbox<M>,
    ) {
        if self.behind() && self.ckpt.may_request(now) {
            out.broadcast(self.n, self.id, ShellMsg::StateRequest { have: self.exec_upto }.into());
        }
    }

    /// Serves a state-transfer request from `to`: stable certificate + the
    /// image it certifies + the executed suffix above it. Only answered
    /// when we hold the certified image ourselves and it would actually
    /// advance the requester. The `corrupt_*` flags are the Byzantine
    /// responder scripts: a flipped snapshot byte must be caught by the
    /// requester's digest cross-check against the certificate; a tampered
    /// suffix under an honest certificate and snapshot survives every
    /// check a single responder can be subjected to, so only the
    /// requester's slot-by-slot quorum vote can out-vote it.
    pub(crate) fn serve_transfer<M: From<ShellMsg>>(
        &self,
        have: u64,
        to: ReplicaId,
        view: u64,
        corrupt_snapshot: bool,
        corrupt_suffix: bool,
        out: &mut Outbox<M>,
    ) {
        let Some((cert, log_base, mut snapshot)) = self.ckpt.serve() else { return };
        if cert.seq <= have {
            return; // requester is not behind our certificate
        }
        let cert = cert.clone();
        let mut suffix = Vec::new();
        for slot in cert.seq + 1..=self.exec_upto {
            match self.replay_ring.get(slot) {
                Some(batch) => suffix.push((slot, batch.clone())),
                None => return, // suffix gap (mid-install): let another peer serve
            }
        }
        if corrupt_snapshot {
            let mut bytes = (*snapshot).clone();
            match bytes.first_mut() {
                Some(b) => *b ^= 0xFF,
                None => bytes.push(0xFF),
            }
            snapshot = Arc::new(bytes);
        }
        if corrupt_suffix {
            tamper_suffix(&mut suffix, cert.seq);
        }
        let suffix = Arc::new(suffix);
        let transfer = StateTransfer { cert, snapshot, log_base, suffix, view };
        out.send(Endpoint::Replica(to), ShellMsg::StateResponse(Box::new(transfer)).into());
    }

    /// Validates `responder`'s transfer response — the certificate
    /// verifies and the state rebuilt from the image digests to what it
    /// certifies; everything in the response is adversarial until both
    /// pass, and a failure of either is counted, once — and buffers it with
    /// the rebuilt state. Returns the install once `quorum` distinct
    /// responders agree on the watermark, with the suffix voted slot by
    /// slot (see [`CstBuffer`]).
    pub(crate) fn admit_transfer(
        &mut self,
        responder: ReplicaId,
        st: StateTransfer,
        quorum: usize,
    ) -> Option<CstInstall> {
        if !self.ckpt.enabled() || st.cert.seq <= self.exec_upto {
            return None; // not ahead of us: nothing to install
        }
        let Some(state) = self.certified_state(&st.cert, &st.snapshot) else {
            self.ckpt.note_rejected();
            return None;
        };
        self.cst.admit(responder, st, state, self.exec_upto);
        let plan = self.cst.install_plan(quorum)?;
        self.cst.clear();
        Some(plan)
    }

    /// The state `image` rebuilds to, if `cert` verifies and certifies it —
    /// the one gate a peer's image and a disk's image both pass through.
    fn certified_state(
        &self,
        cert: &CheckpointCert,
        image: &[u8],
    ) -> Option<(KvStore, ClientSessions)> {
        if !self.ckpt.verify_cert(cert) {
            return None;
        }
        verify_image(cert, image)
    }

    /// Installs a quorum-voted transfer: the state admission rebuilt from
    /// the image, the certificate, then the voted suffix replayed through
    /// [`execute`](Self::execute) (every slot matched at the install
    /// quorum).
    pub(crate) fn install(&mut self, plan: &CstInstall) {
        self.restore(&plan.cert, plan.log_base, plan.state.clone());
        // An installed image always goes to disk: the WAL below it was
        // never ours to replay.
        if self.durability && plan.cert.seq > self.durable_stable_seq {
            self.emit_stable(plan.cert.clone(), plan.log_base, Arc::clone(&plan.snapshot));
        }
        for (slot, batch) in &plan.suffix {
            self.execute(*slot, batch, |_| {});
        }
        self.ckpt.note_transfer();
    }

    /// Replaces state machine, sessions, log base and replay ring with the
    /// state [`verify_image`] rebuilt from a certified image at `cert.seq`:
    /// a client retrying an op of its window below the watermark gets its
    /// original reply back instead of a re-execution (or a silent wait on
    /// a backup's watchlist).
    fn restore(
        &mut self,
        cert: &CheckpointCert,
        log_len: u64,
        (machine, sessions): (KvStore, ClientSessions),
    ) {
        self.ckpt.adopt_cert(cert);
        self.machine = machine;
        self.sessions = sessions;
        self.assigned = OpIndex::new();
        self.log.reset_to(log_len);
        self.replay_ring = SeqWindow::with_base(cert.seq + 1);
        self.advance_to(cert.seq);
    }

    /// Rebuilds state from a store's replay before the first input. Disk
    /// contents are ingress: the certificate and image are re-verified
    /// exactly as a transfer response would be (a snapshot that fails is
    /// skipped — WAL replay and state transfer cover for it), and only
    /// the dense, CRC-checked commit run above the snapshot replays — the
    /// first gap or empty batch abandons the rest to state transfer.
    pub(crate) fn recover(&mut self, state: &RecoveredState) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if let Some((cert, log_len, image)) = &state.snapshot {
            if let Some(rebuilt) = self.certified_state(cert, image) {
                self.restore(cert, *log_len, rebuilt);
                self.image_on_disk(cert.seq, image.len());
                report.installed_seq = cert.seq;
            }
        }
        for (seq, batch) in &state.commits {
            if *seq <= self.exec_upto {
                continue; // covered by the snapshot
            }
            if *seq != self.exec_upto + 1 || batch.is_empty() {
                break;
            }
            self.execute(*seq, batch, |_| {});
            report.replayed += 1;
        }
        report.committed = self.log.committed();
        report
    }

    /// Rejuvenation: volatile execution and intake state goes (the
    /// batching and patience configuration stays). The stable certificate
    /// (self-verifying; a real tile keeps it in trusted persistent store)
    /// stays inside the checkpoint store, and so do `durable_stable_seq`,
    /// `durable_image_len` and `wal_since_image` — they mirror what the
    /// disk already holds, and a wipe does not erase the disk.
    pub(crate) fn wipe(&mut self) {
        self.log = CommittedLog::new();
        self.exec_upto = 0;
        self.next_seq = 1;
        self.assigned = OpIndex::new();
        self.pending = OpIndex::new();
        self.batcher.reset();
        self.machine = KvStore::new();
        self.sessions = ClientSessions::new();
        self.replay_ring = SeqWindow::with_base(1);
        self.cst.clear();
        self.durable.clear();
        self.ckpt.wipe();
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ClientId, Request};
    use crate::checkpoint::SESSION_WINDOW;

    const N: u32 = 4;
    const QUORUM: usize = 2;
    const INTERVAL: u64 = 4;

    fn shells(keys: &Arc<CkptKeys>) -> Vec<Shell> {
        (0..N)
            .map(|i| {
                let mut shell = Shell::new(ReplicaId(i), N, QUORUM);
                shell.set_checkpointing(INTERVAL, Arc::clone(keys));
                shell
            })
            .collect()
    }

    /// Slot `seq` carries two writes, one per client; client 7's latest op
    /// is therefore always `seq`.
    fn batch(seq: u64) -> Arc<Batch> {
        let req = |client: u32| {
            Arc::new(Request {
                op: OpId { client: ClientId(client), seq },
                payload: format!("SET k{client} v{seq}").into_bytes(),
            })
        };
        Arc::new(Batch::new(vec![req(7), req(8)]))
    }

    /// Executes slots `from..=to` with a checkpoint after each; returns
    /// the replies and the vouchers the shell broadcast.
    fn run(shell: &mut Shell, from: u64, to: u64) -> (Vec<Reply>, Vec<CheckpointVoucher>) {
        run_with(shell, from, to, batch)
    }

    /// [`run`] over the batches `make` builds.
    fn run_with(
        shell: &mut Shell,
        from: u64,
        to: u64,
        make: fn(u64) -> Arc<Batch>,
    ) -> (Vec<Reply>, Vec<CheckpointVoucher>) {
        let mut replies = Vec::new();
        let mut out = Outbox::<ShellMsg>::new();
        for seq in from..=to {
            let b = make(seq);
            shell.execute(seq, &b, |reply| replies.push(reply));
            shell.checkpoint(seq, false, &mut out);
        }
        // One copy per peer, adjacent: collapse each broadcast to one.
        let mut vouchers = Vec::new();
        for (_, msg) in out.msgs {
            if let ShellMsg::Checkpoint(v) = msg {
                vouchers.push(*v);
            }
        }
        vouchers.dedup();
        (replies, vouchers)
    }

    fn served(shell: &Shell, have: u64, snapshot: bool, suffix: bool) -> StateTransfer {
        let mut out = Outbox::<ShellMsg>::new();
        shell.serve_transfer(have, ReplicaId(3), 5, snapshot, suffix, &mut out);
        match out.msgs.pop() {
            Some((Endpoint::Replica(ReplicaId(3)), ShellMsg::StateResponse(st))) => *st,
            other => panic!("expected one state response to r3, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_transfer_install_round_trip() {
        let keys = CkptKeys::provision(11, N as usize);
        let mut s = shells(&keys);
        let mut laggard = s.pop().unwrap();
        // r0..r2 execute slots 1..=6 (checkpoint due at 4): each broadcasts
        // exactly one voucher, to every peer.
        let mut vouchers = Vec::new();
        for shell in &mut s {
            let (replies, mut v) = run(shell, 1, 6);
            assert_eq!(replies.len(), 12, "one reply per request");
            assert_eq!(v.len(), 1, "one voucher per due watermark");
            vouchers.append(&mut v);
            assert_eq!(shell.ckpt().stable_seq(), 0, "own voucher alone is below quorum");
        }
        assert_eq!((s[0].exec_upto(), s[0].committed()), (6, 12));
        // Vouchers cross: the certificate forms exactly at the quorum-th
        // matching voucher, and the log truncates below it.
        assert!(!s[0].on_voucher(&vouchers[0]), "own voucher again: still 1 of 2");
        assert!(s[0].on_voucher(&vouchers[1]), "second distinct voucher completes the quorum");
        assert!(!s[0].on_voucher(&vouchers[2]), "already stable");
        assert_eq!(s[0].ckpt().stable_seq(), 4);
        assert_eq!(s[0].log().first().map(|e| e.seq), Some(9), "8 entries truncated");
        assert_eq!(s[0].committed(), 12);
        assert!(s[1].on_voucher(&vouchers[0]));
        assert!(s[2].on_voucher(&vouchers[0]));

        // The laggard learns the certificate and asks, once per backoff.
        let cert = s[0].ckpt().stable().unwrap().clone();
        assert_eq!(laggard.accept_cert(&cert), Some(4));
        assert!(laggard.behind());
        let mut out = Outbox::<ShellMsg>::new();
        laggard.request_transfer(0, &mut out);
        laggard.request_transfer(1, &mut out);
        assert_eq!(out.msgs.len(), (N - 1) as usize, "one broadcast inside the backoff");
        assert_eq!(out.msgs[0].1, ShellMsg::StateRequest { have: 0 });

        // The served image is exactly the framed snapshot + sessions of the
        // state at the watermark.
        let mut at_4 = shells(&keys).remove(0);
        run(&mut at_4, 1, 4);
        let image = crate::checkpoint::encode_image(&at_4.machine.snapshot(), &mut at_4.sessions);
        assert_eq!(*served(&s[0], 0, false, false).snapshot, image);

        // A peer that is not behind gets no answer.
        s[0].serve_transfer(4, ReplicaId(3), 5, false, false, &mut out);
        assert_eq!(out.msgs.len(), (N - 1) as usize);

        // Flipped snapshot byte and bad-MAC certificate: rejected, counted.
        assert!(laggard.admit_transfer(ReplicaId(0), served(&s[0], 0, true, false), 1).is_none());
        let mut forged = served(&s[0], 0, false, false);
        forged.cert.vouchers[0].tag = Tag([0; 32]);
        assert!(laggard.admit_transfer(ReplicaId(0), forged, 1).is_none());
        assert_eq!(laggard.ckpt().stats().rejected, 2);
        assert_eq!(laggard.exec_upto(), 0, "nothing installed");

        // Installs only at the given quorum. Against one honest responder
        // a tampered suffix can stall the contested tail (slot 6 is 1–1)
        // but never install it …
        let tampered = served(&s[0], 0, false, true);
        assert_ne!(tampered.suffix, served(&s[1], 0, false, false).suffix);
        assert!(
            laggard.admit_transfer(ReplicaId(0), tampered.clone(), QUORUM).is_none(),
            "1 of 2 responders"
        );
        let stalled =
            laggard.admit_transfer(ReplicaId(1), served(&s[1], 0, false, false), QUORUM).unwrap();
        assert_eq!(stalled.suffix.len(), 1, "only slot 5 is quorate");
        // … and a second honest responder out-votes it.
        assert!(laggard.admit_transfer(ReplicaId(0), tampered, 3).is_none());
        assert!(laggard.admit_transfer(ReplicaId(1), served(&s[1], 0, false, false), 3).is_none());
        let plan =
            laggard.admit_transfer(ReplicaId(2), served(&s[2], 0, false, false), QUORUM).unwrap();
        assert_eq!(plan.suffix.iter().map(|(slot, _)| *slot).collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(plan.view, 5);
        // A proposal the laggard accepted for a slot it will never execute
        // (the others did, below the watermark) goes with the install.
        laggard.assign(2, &batch(2));
        laggard.install(&plan);
        assert_eq!(laggard.assigned.len(), 0);

        // Same state, same log position, and the transfer is counted.
        assert_eq!(laggard.state_digest(), s[1].state_digest());
        assert_eq!((laggard.exec_upto(), laggard.committed()), (6, 12));
        assert_eq!(laggard.log(), s[1].log());
        assert_eq!(laggard.ckpt().stats().transfers, 1);
        assert!(!laggard.behind());
        // A retry of an op *below* the watermark gets the original reply
        // (client 7's op at the checkpoint was seq 4) …
        let op = OpId { client: ClientId(7), seq: 4 };
        let original = s[1].cached_reply(op).unwrap();
        let retried = laggard.cached_reply(op).unwrap();
        assert_eq!((retried.replica, &retried.result), (ReplicaId(3), &original.result));
        // … and so do older ops of the session window and the replayed ones.
        assert!(laggard.has_executed(&OpId { client: ClientId(7), seq: 1 }));
        assert!(laggard.has_executed(&OpId { client: ClientId(8), seq: 6 }));
        assert!(!laggard.has_executed(&OpId { client: ClientId(7), seq: 7 }));
    }

    /// The check a byte flip cannot reach: an image that frames, parses
    /// and rebuilds — into state the certificate does not sign. It is the
    /// rebuilt state's digest that is compared, so it is refused, from a
    /// peer and from disk alike, and counted once.
    #[test]
    fn a_well_formed_image_of_other_state_is_rejected_and_counted_once() {
        let keys = CkptKeys::provision(11, N as usize);
        let mut s = shells(&keys);
        let mut laggard = s.pop().unwrap();
        let (_, v0) = run(&mut s[0], 1, 5);
        let (_, v1) = run(&mut s[1], 1, 5);
        assert!(s[0].on_voucher(&v1[0]) && s[1].on_voucher(&v0[0]));
        // Replica 0's *current* state (slot 5 applied) under the honest
        // certificate for slot 4.
        let mut st = served(&s[0], 0, false, false);
        let newer = crate::checkpoint::encode_image(&s[0].machine.snapshot(), &mut s[0].sessions);
        assert_ne!(*st.snapshot, newer);
        st.snapshot = Arc::new(newer);
        let on_disk = RecoveredState {
            snapshot: Some((st.cert.clone(), st.log_base, (*st.snapshot).clone())),
            ..Default::default()
        };
        assert!(laggard.admit_transfer(ReplicaId(0), st, 1).is_none());
        assert_eq!(laggard.ckpt().stats().rejected, 1);
        assert_eq!(laggard.recover(&on_disk), RecoveryReport::default());
        assert_eq!(
            (laggard.exec_upto(), laggard.state_digest()),
            (0, shells(&keys)[0].state_digest())
        );
        // The honest image still installs afterwards.
        let plan = laggard.admit_transfer(ReplicaId(1), served(&s[1], 0, false, false), 1).unwrap();
        laggard.install(&plan);
        assert_eq!(laggard.state_digest(), s[1].state_digest());
    }

    #[test]
    fn forged_vouchers_lie_without_poisoning_the_served_image() {
        let keys = CkptKeys::provision(11, N as usize);
        let mut s = shells(&keys);
        let mut out = Outbox::<ShellMsg>::new();
        for seq in 1..=4 {
            let b = batch(seq);
            s[0].execute(seq, &b, |_| {});
            assert!(!s[0].checkpoint(seq, true, &mut out));
        }
        // Two vouchers per peer: a garbage MAC and a properly MAC'd lie.
        assert_eq!(out.msgs.len(), 2 * (N - 1) as usize);
        let (_, honest) = run(&mut s[1], 1, 4);
        for (_, msg) in &out.msgs {
            if let ShellMsg::Checkpoint(v) = msg {
                assert!(!s[1].on_voucher(v), "neither forgery completes a quorum");
            }
        }
        assert_eq!(s[1].ckpt().stats().rejected, (N - 1) as u64, "garbage MACs are counted");
        // The honest digest certifies, and the forger still holds the
        // honest image for it.
        assert!(s[1].on_voucher(&keys.sign(ReplicaId(2), 4, honest[0].digest)));
        let cert = s[1].ckpt().stable().unwrap().clone();
        assert_eq!(s[0].accept_cert(&cert), Some(4));
        let st = served(&s[0], 0, false, false);
        assert!(verify_image(&st.cert, &st.snapshot).is_some());
    }

    #[test]
    fn durable_events_mirror_execution_and_recover_replays_the_dense_prefix() {
        let keys = CkptKeys::provision(11, N as usize);
        let mut s = shells(&keys);
        s[0].enable_durability();
        let (_, v0) = run(&mut s[0], 1, 6);
        let (_, v1) = run(&mut s[1], 1, 6);
        assert!(s[0].on_voucher(&v1[0]));
        assert!(s[1].on_voucher(&v0[0]));
        let mut events = Vec::new();
        s[0].drain_durable(&mut events);
        // Six commits in slot order, one Stable at the watermark.
        let mut disk = RecoveredState::default();
        for event in events {
            match event {
                DurableEvent::Commit { seq, batch } => disk.commits.push((seq, batch)),
                DurableEvent::Stable { cert, log_len, snapshot } => {
                    assert_eq!((cert.seq, log_len), (4, 8));
                    assert!(disk.snapshot.is_none(), "emitted once");
                    disk.snapshot = Some((cert, log_len, (*snapshot).clone()));
                }
                DurableEvent::UsigCounter(_) => unreachable!("the shell never emits one"),
            }
        }
        assert_eq!(disk.commits.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [1, 2, 3, 4, 5, 6]);

        // Clean restart: snapshot at 4, commits 5 and 6 replayed above it.
        let fresh = || shells(&keys).remove(0);
        let mut r = fresh();
        let report = r.recover(&disk);
        assert_eq!(report, RecoveryReport { installed_seq: 4, replayed: 2, committed: 12 });
        assert_eq!(r.state_digest(), s[0].state_digest());
        assert_eq!(r.log(), s[0].log());

        // A gap stops the replay: 5 is missing, so 6 is abandoned.
        let mut gapped = RecoveredState { commits: disk.commits.clone(), ..Default::default() };
        gapped.snapshot = disk.snapshot.clone();
        gapped.commits.retain(|(seq, _)| *seq != 5);
        let mut r = fresh();
        let report = r.recover(&gapped);
        assert_eq!(report, RecoveryReport { installed_seq: 4, replayed: 0, committed: 8 });

        // A garbage record stops it too, and a snapshot whose bytes no
        // longer match its certificate is not installed: without it the
        // WAL replays from slot 1 as far as it is dense and well-formed.
        // (A decoded batch always carries the digest of its own content —
        // see `Batch` — so the garbage a WAL can hold is an empty batch.)
        let mut torn = RecoveredState { commits: disk.commits.clone(), ..Default::default() };
        torn.snapshot = disk.snapshot.clone().map(|(cert, len, mut bytes)| {
            bytes[0] ^= 0xFF;
            (cert, len, bytes)
        });
        torn.commits[2] = (3, Arc::new(Batch::new(Vec::new())));
        let mut r = fresh();
        let report = r.recover(&torn);
        assert_eq!(report, RecoveryReport { installed_seq: 0, replayed: 2, committed: 4 });
        assert_eq!(r.exec_upto(), 2);
    }

    /// Slot `seq` writes one fresh key with a 500-byte value: every
    /// checkpoint interval adds the same bytes to the WAL and (a little
    /// less, the framing differs) to the image.
    fn fresh(seq: u64) -> Arc<Batch> {
        let mut payload = format!("SET key{seq:05} ").into_bytes();
        payload.resize(payload.len() + 500, b'v');
        Arc::new(Batch::single(Arc::new(Request {
            op: OpId { client: ClientId(7), seq },
            payload,
        })))
    }

    /// Runs every shell through stable checkpoint number `k` of the
    /// [`fresh`] workload (slots `4k-3..=4k`; each shell's voucher is
    /// completed by one from another replica id) and returns what each one
    /// queued for its disk.
    fn stabilise(shells: &mut [&mut Shell], k: u64) -> Vec<Vec<DurableEvent>> {
        let (from, to) = (INTERVAL * (k - 1) + 1, INTERVAL * k);
        let vouchers: Vec<CheckpointVoucher> =
            shells.iter_mut().map(|s| run_with(s, from, to, fresh).1.remove(0)).collect();
        let mut queued = Vec::new();
        for shell in shells.iter_mut() {
            let other = vouchers.iter().find(|v| v.from != shell.id).expect("two replica ids");
            assert!(shell.on_voucher(other));
            assert_eq!(shell.ckpt().stable_seq(), to);
            let mut events = Vec::new();
            shell.drain_durable(&mut events);
            queued.push(events);
        }
        queued
    }

    fn image_lens(events: &[DurableEvent]) -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                DurableEvent::Stable { snapshot, .. } => Some(snapshot.len() as u64),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn an_image_is_written_only_when_the_wal_since_the_last_one_outweighs_it() {
        const CHECKPOINTS: u64 = 40;
        let keys = CkptKeys::provision(11, N as usize);
        let mut s = shells(&keys);
        let (mut live, mut peer) = (s.remove(0), s.remove(0));
        live.enable_durability();
        let mut written = Vec::new(); // stable checkpoints that put an image on disk
        let (mut wal, mut images) = (0u64, Vec::new());
        let mut disk = RecoveredState::default();
        for k in 1..=CHECKPOINTS {
            for event in stabilise(&mut [&mut live, &mut peer], k).swap_remove(0) {
                match event {
                    DurableEvent::Commit { seq, batch } => {
                        wal += batch.wire_len() as u64;
                        disk.commits.push((seq, batch));
                    }
                    DurableEvent::Stable { cert, log_len, snapshot } => {
                        assert_eq!(cert.seq, INTERVAL * k, "never an older image");
                        written.push(k);
                        images.push(snapshot.len() as u64);
                        // What the store does: the image replaces the WAL
                        // below it.
                        disk.commits.retain(|(seq, _)| *seq > cert.seq);
                        disk.snapshot = Some((cert, log_len, (*snapshot).clone()));
                    }
                    DurableEvent::UsigCounter(_) => unreachable!("the shell never emits one"),
                }
            }
        }
        // The state grows by as much as the WAL does, so the gap between
        // images about doubles (the image also carries the client's session
        // window, which stops growing at 16 replies): logarithmically many,
        // and never more image bytes than WAL bytes plus one image.
        assert_eq!(written, [1, 3, 6, 12, 24]);
        assert!(written.len() as u32 <= CHECKPOINTS.ilog2() + 2);
        let largest = *images.last().unwrap();
        assert!(images.iter().sum::<u64>() <= 2 * wal + largest);
        assert!(images.iter().sum::<u64>() <= wal + largest, "the bound the rule itself gives");

        // A restart installs the last image written, replays the sixteen
        // skipped checkpoints' worth of WAL above it, and stands where the
        // live replica does — including on when the next image is due:
        // recovery queues nothing, and the disk's image is not written
        // again until the WAL on top of it (replayed and new) outweighs it.
        let mut restarted = shells(&keys).remove(0);
        let report = restarted.recover(&disk);
        assert_eq!(report, RecoveryReport { installed_seq: 96, replayed: 64, committed: 160 });
        assert_eq!(restarted.state_digest(), live.state_digest());
        restarted.enable_durability();
        for k in CHECKPOINTS + 1..=64 {
            let queued = stabilise(&mut [&mut live, &mut peer, &mut restarted], k);
            assert_eq!(image_lens(&queued[0]).len(), usize::from(k == 47), "checkpoint {k}");
            assert_eq!(image_lens(&queued[2]), image_lens(&queued[0]), "checkpoint {k}");
        }

        // An installed image always goes to disk, whatever the counters
        // say: a replica whose disk holds a large image and no WAL yet
        // falls behind and is brought back by transfer.
        let mut behind = shells(&keys).remove(0);
        behind.recover(&disk);
        behind.enable_durability();
        let before = (behind.durable_image_len, behind.wal_since_image);
        assert!(before.0 > before.1, "its own next checkpoint would be skipped");
        let cert = live.ckpt().stable().unwrap().clone();
        assert_eq!(behind.accept_cert(&cert), Some(256));
        let plan = behind.admit_transfer(live.id, served(&live, 160, false, false), 1).unwrap();
        behind.install(&plan);
        let mut events = Vec::new();
        behind.drain_durable(&mut events);
        assert_eq!(image_lens(&events), [plan.snapshot.len() as u64]);
        assert_eq!(behind.state_digest(), live.state_digest());
    }

    /// `assigned` answers "is this op in flight?", so it holds the ops in
    /// flight — not every op ever proposed; and a session keeps its
    /// client's newest ops, not every op it ever ran.
    #[test]
    fn assignments_are_dropped_at_execution_and_retries_still_hit_the_reply_cache() {
        let (mut shell, mut out) = front_end();
        let mut last = None;
        for seq in 1..=5_000 {
            shell.intake(req(1, seq), Role::Primary, &mut out);
            let Intake::Sealed(reqs) = shell.intake(req(2, seq), Role::Primary, &mut out) else {
                panic!("two requests seal");
            };
            let (slot, batch) = shell.open_slot(reqs);
            assert_eq!(shell.assigned.len(), 2, "the open slot's two ops");
            let mut replies = Vec::new();
            shell.execute(slot, &batch, |reply| replies.push(reply));
            assert_eq!(shell.assigned.len(), 0, "slot {slot}");
            last = replies.pop();
        }
        assert_eq!(shell.committed(), 10_000);
        // An executed op of the window is answered from the session — the
        // oldest and the newest alike, whatever the role — and never
        // re-proposed.
        out.clear();
        let oldest = 5_000 - SESSION_WINDOW as u64 + 1;
        for role in [Role::Primary, Role::Backup, Role::Idle] {
            assert_eq!(shell.intake(req(1, oldest), role, &mut out), Intake::Done);
            assert_eq!(shell.intake(req(2, 5_000), role, &mut out), Intake::Done);
        }
        assert_eq!(out.msgs.len(), 6);
        assert_eq!(
            out.msgs[5],
            (Endpoint::Client(ClientId(2)), ShellMsg::Reply(last.expect("5 000 slots ran")))
        );
        assert!(out.timers.is_empty() && shell.assigned.is_empty());
        // An op below its client's window is unknown.
        assert!(shell.has_executed(&req(1, oldest).op));
        assert!(!shell.has_executed(&req(1, oldest - 1).op));
        assert!(!shell.has_executed(&req(1, 1).op));
    }

    /// What a client retrying `op` is sent, through the intake path.
    fn retry(shell: &mut Shell, op: OpId) -> Option<Reply> {
        let mut out = Outbox::<ShellMsg>::new();
        let resent = Arc::new(Request { op, payload: b"GET resent".to_vec() });
        assert_eq!(shell.intake(resent, Role::Idle, &mut out), Intake::Done);
        match out.msgs.pop() {
            Some((Endpoint::Client(client), ShellMsg::Reply(reply))) if client == op.client => {
                Some(reply)
            }
            None => None,
            other => panic!("a retry is answered to its client or not at all, got {other:?}"),
        }
    }

    /// Executes `payloads` as client 9's ops 1, 2, … , one slot each;
    /// returns the replies the live path sent.
    fn execute_all(shell: &mut Shell, payloads: &[Vec<u8>]) -> Vec<Reply> {
        let mut replies = Vec::new();
        for (seq, payload) in (1..).zip(payloads) {
            let op = OpId { client: ClientId(9), seq };
            let b = Arc::new(Batch::single(Arc::new(Request { op, payload: payload.clone() })));
            shell.execute(seq, &b, |reply| replies.push(reply));
        }
        replies
    }

    #[test]
    fn a_retry_gets_the_byte_identical_reply_of_a_live_execution() {
        let (mut shell, _) = front_end();
        let big = vec![b'x'; 64 * 1024 + 3];
        let payloads = [
            b"SET empty ".to_vec(),
            b"GET empty".to_vec(),
            [&b"SET big "[..], &big].concat(),
            b"GET big".to_vec(),
            b"SET empty again".to_vec(),
            b"GET missing".to_vec(),
        ];
        let replies = execute_all(&mut shell, &payloads);
        let results: Vec<&[u8]> = replies.iter().map(|r| &r.result[..]).collect();
        assert_eq!(results, [&b"(nil)"[..], b"", b"(nil)", &big, b"", b"(nil)"]);
        for reply in &replies {
            assert_eq!(retry(&mut shell, reply.op).as_ref(), Some(reply), "op {:?}", reply.op);
        }
        assert_eq!(retry(&mut shell, OpId { client: ClientId(9), seq: 7 }), None, "never ran");
    }

    #[test]
    fn a_retry_of_a_re_executed_op_gets_its_latest_result() {
        let (mut shell, _) = front_end();
        let op = OpId { client: ClientId(9), seq: 1 };
        let first = execute_all(&mut shell, &[b"SET r first".to_vec()]);
        assert_eq!(retry(&mut shell, op), first.first().cloned());
        let b = Arc::new(Batch::single(Arc::new(Request { op, payload: b"SET r again".to_vec() })));
        let mut again = Vec::new();
        shell.execute(2, &b, |reply| again.push(reply));
        assert_eq!(again[0].result[..], *b"first");
        assert_eq!(retry(&mut shell, op), again.pop());
    }

    /// The `replies` as replica `id` sends them.
    fn sent_by(replies: Vec<Reply>, id: ReplicaId) -> Vec<Reply> {
        replies.into_iter().map(|r| Reply { replica: id, ..r }).collect()
    }

    #[test]
    fn a_retry_gets_the_original_reply_after_a_transfer_install() {
        let keys = CkptKeys::provision(11, N as usize);
        let mut s = shells(&keys);
        let mut laggard = s.pop().unwrap();
        let (_, v0) = run(&mut s[0], 1, 6);
        let (replies, v1) = run(&mut s[1], 1, 6);
        assert!(s[0].on_voucher(&v1[0]) && s[1].on_voucher(&v0[0]));
        assert_eq!(laggard.accept_cert(&s[0].ckpt().stable().unwrap().clone()), Some(4));
        assert!(laggard.admit_transfer(ReplicaId(0), served(&s[0], 0, false, false), 2).is_none());
        let plan = laggard.admit_transfer(ReplicaId(1), served(&s[1], 0, false, false), 2).unwrap();
        laggard.install(&plan);
        // Clients 7 and 8 run ops 1..=6, one per slot, so a window-4
        // client may have all of ops 1..=4 in flight at the watermark:
        // they come back from the image's sessions, 5 and 6 from the
        // replayed suffix.
        for original in sent_by(replies, ReplicaId(3)) {
            assert_eq!(retry(&mut laggard, original.op), Some(original));
        }
    }

    #[test]
    fn a_retry_gets_the_original_reply_after_recovery() {
        let keys = CkptKeys::provision(11, N as usize);
        let mut s = shells(&keys);
        s[0].enable_durability();
        let (replies, v0) = run(&mut s[0], 1, 6);
        let (_, v1) = run(&mut s[1], 1, 6);
        assert!(s[0].on_voucher(&v1[0]) && s[1].on_voucher(&v0[0]));
        let mut events = Vec::new();
        s[0].drain_durable(&mut events);
        let mut disk = RecoveredState::default();
        for event in events {
            match event {
                DurableEvent::Commit { seq, batch } => disk.commits.push((seq, batch)),
                DurableEvent::Stable { cert, log_len, snapshot } => {
                    disk.snapshot = Some((cert, log_len, (*snapshot).clone()));
                }
                DurableEvent::UsigCounter(_) => unreachable!("the shell never emits one"),
            }
        }
        let mut restarted = shells(&keys).remove(0);
        let report = restarted.recover(&disk);
        assert_eq!((report.installed_seq, report.replayed), (4, 2));
        // Ops 1..=4 of a window-4 client come back from the snapshot's
        // sessions, 5 and 6 from the replayed WAL.
        for original in sent_by(replies, ReplicaId(0)) {
            assert_eq!(retry(&mut restarted, original.op), Some(original));
        }
    }

    #[test]
    fn wipe_empties_the_reply_cache() {
        let (mut shell, _) = front_end();
        let replies = execute_all(&mut shell, &[b"SET a 1".to_vec(), b"GET a".to_vec()]);
        shell.wipe();
        for reply in replies {
            assert!(!shell.has_executed(&reply.op));
            assert_eq!(retry(&mut shell, reply.op), None);
        }
    }

    /// The exactly-once table holds a window per client, not a reply per
    /// op: after 10⁴ and after 10⁵ `SET`s of fresh keys over 16 clients
    /// (each answered `(nil)`) it holds the same bytes, give or take a
    /// buffer's spare capacity — with checkpoints off (every window in the
    /// flat index) and on (in the tree, the last interval's in the index).
    #[test]
    fn the_session_table_costs_the_same_after_10k_and_100k_ops() {
        const CLIENTS: u64 = 16;
        const SEQS: u64 = 100_000 / CLIENTS;
        let op = |client: u64, seq| OpId { client: ClientId(client as u32), seq };
        for interval in [0, INTERVAL] {
            let (mut shell, mut out) = front_end();
            shell.set_checkpointing(interval, CkptKeys::provision(11, N as usize));
            let mut footprints = Vec::new();
            for seq in 1..=SEQS {
                for client in 0..CLIENTS {
                    let slot = (seq - 1) * CLIENTS + client + 1;
                    let payload = format!("SET key{slot} v").into_bytes();
                    let req = Arc::new(Request { op: op(client, seq), payload });
                    let b = Arc::new(Batch::single(req));
                    shell.execute(slot, &b, |r| assert_eq!(r.result[..], *b"(nil)"));
                    shell.checkpoint(slot, false, &mut out);
                    out.clear();
                }
                if seq == SEQS / 10 || seq == SEQS {
                    footprints.push(shell.sessions.footprint());
                }
            }
            let (small, large) = (footprints[0], footprints[1]);
            assert!(large.abs_diff(small) <= 1024, "interval {interval}: {small} B, {large} B");
            assert!(large <= 16 * 1024, "interval {interval}: {large} B for {CLIENTS} clients");
            // Every client's window is answered, and the op below it is not.
            let oldest = SEQS - SESSION_WINDOW as u64 + 1;
            for client in 0..CLIENTS {
                let reply = retry(&mut shell, op(client, oldest)).map(|r| r.result);
                assert_eq!(reply, Some(Arc::new(b"(nil)".to_vec())), "client {client}");
                assert!(!shell.has_executed(&op(client, oldest - 1)), "client {client}");
            }
        }
    }

    fn req(client: u32, seq: u64) -> Arc<Request> {
        Arc::new(Request {
            op: OpId { client: ClientId(client), seq },
            payload: format!("SET k{client} v{seq}").into_bytes(),
        })
    }

    /// A shell sealing at two requests, flushing after 50 cycles, with a
    /// patience of 300.
    fn front_end() -> (Shell, Outbox<ShellMsg>) {
        let mut shell = Shell::new(ReplicaId(0), N, QUORUM);
        shell.set_batching(2, 50);
        shell.set_patience(300);
        (shell, Outbox::new())
    }

    #[test]
    fn intake_as_primary_accumulates_seals_and_reannounces() {
        let (mut shell, mut out) = front_end();
        // First request of an accumulation: arm the flush timer.
        assert_eq!(shell.intake(req(1, 1), Role::Primary, &mut out), Intake::Done);
        assert_eq!(out.timers, vec![(50, TIMER_FLUSH, 0)]);
        // A duplicate of an accumulated request is dropped.
        assert_eq!(shell.intake(req(1, 1), Role::Primary, &mut out), Intake::Done);
        // The second distinct request seals by size, in arrival order.
        let Intake::Sealed(reqs) = shell.intake(req(2, 1), Role::Primary, &mut out) else {
            panic!("batch_size requests must seal");
        };
        assert_eq!(reqs, vec![req(1, 1), req(2, 1)]);
        let (seq, batch) = shell.open_slot(reqs);
        assert_eq!((seq, batch.len(), shell.next_seq()), (1, 2, 2));
        // A retry of an op in flight is re-announced, not re-proposed.
        assert_eq!(shell.intake(req(2, 1), Role::Primary, &mut out), Intake::Reannounce(1));
        // Once executed, the retry is answered from the session — for
        // every role — and nothing else happens.
        let mut executed = Vec::new();
        shell.execute(seq, &batch, |reply| executed.push(reply));
        out.clear();
        for role in [Role::Primary, Role::Backup, Role::Idle] {
            assert_eq!(shell.intake(req(2, 1), role, &mut out), Intake::Done);
        }
        assert_eq!(out.msgs.len(), 3);
        for (to, msg) in &out.msgs {
            assert_eq!(
                (to, msg),
                (&Endpoint::Client(ClientId(2)), &ShellMsg::Reply(executed[1].clone()))
            );
        }
        assert!(out.timers.is_empty());
    }

    #[test]
    fn flush_timer_seals_a_partial_batch_only_when_current_and_primary() {
        let (mut shell, mut out) = front_end();
        shell.intake(req(1, 1), Role::Primary, &mut out);
        assert_eq!(shell.on_flush_timer(7, true), None, "a token from another epoch is stale");
        assert_eq!(shell.on_flush_timer(0, true), Some(vec![req(1, 1)]));
        assert_eq!(shell.on_flush_timer(0, true), None, "already acknowledged");
        // Deposed before the timer fired: the accumulation stays put.
        shell.intake(req(1, 2), Role::Primary, &mut out);
        assert_eq!(out.timers.last(), Some(&(50, TIMER_FLUSH, 1)));
        assert_eq!(shell.on_flush_timer(1, false), None);
    }

    #[test]
    fn accumulated_requests_gone_stale_across_a_view_change_are_not_proposed() {
        let (mut shell, mut out) = front_end();
        shell.intake(req(1, 1), Role::Primary, &mut out);
        // Another primary took over and proposed the request at slot 5 …
        shell.assign(5, &Batch::single(req(1, 1)));
        // … then this replica is re-elected and its accumulator fills.
        let sealed = shell.intake(req(2, 1), Role::Primary, &mut out);
        assert_eq!(sealed, Intake::Sealed(vec![req(2, 1)]));
        // An accumulation that is stale throughout proposes nothing and
        // consumes no sequence number.
        shell.intake(req(3, 1), Role::Primary, &mut out);
        let b = Arc::new(Batch::single(req(3, 1)));
        shell.execute(1, &b, |_| {});
        shell.assign(6, &Batch::single(req(4, 1)));
        assert_eq!(shell.intake(req(4, 1), Role::Primary, &mut out), Intake::Reannounce(6));
        assert_eq!(shell.on_flush_timer(1, true), None);
        assert_eq!(shell.next_seq(), 2, "only execution moved it");
    }

    #[test]
    fn intake_as_backup_watches_each_request_once_until_it_executes() {
        let (mut shell, mut out) = front_end();
        let token = op_token(req(3, 9).op);
        assert_eq!(shell.intake(req(3, 9), Role::Backup, &mut out), Intake::Done);
        assert_eq!(shell.intake(req(3, 9), Role::Backup, &mut out), Intake::Done);
        assert_eq!(out.timers, vec![(300, TIMER_REQUEST, token)], "one patience timer per op");
        assert!(shell.watching(token));
        // An idle replica (a passive backup) neither watches nor queues.
        assert_eq!(shell.intake(req(4, 1), Role::Idle, &mut out), Intake::Done);
        assert!(!shell.watching(op_token(req(4, 1).op)));
        out.clear();
        shell.intake(req(2, 2), Role::Backup, &mut out);
        out.clear();
        shell.rearm_patience(&mut out);
        let rearmed =
            vec![(300, TIMER_REQUEST, op_token(req(2, 2).op)), (300, TIMER_REQUEST, token)];
        assert_eq!(out.timers, rearmed, "canonical op order");
        // Execution — live or replayed — takes the op off the watchlist.
        let b = Arc::new(Batch::single(req(3, 9)));
        shell.execute(1, &b, |_| {});
        assert!(!shell.watching(token));
        assert_eq!(shell.pending_canonical().len(), 1);
        // Rejuvenation forgets watchlist, assignments and accumulator, and
        // keeps the configuration.
        shell.intake(req(5, 1), Role::Primary, &mut out);
        shell.wipe();
        assert!(shell.pending_canonical().is_empty());
        assert_eq!((shell.next_seq(), shell.batch_size(), shell.patience()), (1, 2, 300));
        out.clear();
        assert_eq!(shell.intake(req(5, 1), Role::Primary, &mut out), Intake::Done);
        assert_eq!(out.timers, vec![(50, TIMER_FLUSH, 0)], "a fresh accumulation, epoch 0");
    }

    #[test]
    fn wipe_keeps_the_certificate_and_nothing_else() {
        let keys = CkptKeys::provision(11, N as usize);
        let mut s = shells(&keys);
        run(&mut s[0], 1, 5);
        let (_, v1) = run(&mut s[1], 1, 5);
        assert!(s[0].on_voucher(&v1[0]));
        let before = s[0].state_digest();
        s[0].wipe();
        assert_eq!((s[0].exec_upto(), s[0].committed()), (0, 0));
        assert_ne!(s[0].state_digest(), before);
        assert!(!s[0].has_executed(&OpId { client: ClientId(7), seq: 5 }));
        assert_eq!(s[0].ckpt().stable_seq(), 4, "the certificate survives");
        assert!(s[0].behind(), "which is what sends a wiped replica to state transfer");
        // The image went with the wipe: this replica can no longer serve.
        let mut out = Outbox::<ShellMsg>::new();
        s[0].serve_transfer(0, ReplicaId(3), 0, false, false, &mut out);
        assert!(out.msgs.is_empty());
    }
}
