//! PBFT (Castro & Liskov, OSDI'99): the classic 3f+1 Byzantine
//! fault-tolerant state-machine replication protocol — the paper's baseline
//! for "active replication ... execute an agreement protocol, e.g. Paxos or
//! PBFT" (§II-A).
//!
//! Implemented message-precisely for the steady state (pre-prepare /
//! prepare / commit with 2f+1 quorums) plus an operational view change
//! (request timeouts → VIEW-CHANGE → NEW-VIEW re-proposal). With
//! [`RunConfig::checkpoint_interval`] set, replicas additionally take
//! **certified checkpoints** every `interval` executed slots (f+1 MAC'd
//! [`CheckpointVoucher`]s form a certificate), truncate their logs and
//! retention rings below the stable watermark, recover long-crashed or
//! rejuvenated peers through **collaborative state transfer**
//! (certificate plus snapshot plus log suffix, the snapshot
//! cross-checked against the certificate before install), and carry the
//! stable certificate in view changes — a verified certificate floors
//! the new view, so forged prepared sets at or below certified history
//! are rejected (see [`crate::checkpoint`]). View-change content
//! *above* the stable checkpoint remains trusted as honest.
//!
//! Wire format: every message that carries request content carries an
//! [`Arc<Batch>`] — broadcasting a pre-prepare to `n-1` peers bumps a
//! refcount per peer instead of deep-cloning the batch, so fan-out cost
//! is O(1) per replica regardless of batch size. Client requests travel
//! as `Arc<Request>` and execution results as `Arc<Vec<u8>>` (see
//! [`crate::api`]), so the steady-state message plane performs no payload
//! copies at all.
//!
//! Replica state is *dense* (see [`crate::dense`]): agreement slots live
//! in a [`SeqWindow`] anchored at the execution watermark (executed slots
//! are retired — garbage-collected and structurally unresurrectable),
//! per-op dedup/assignment in open-addressed [`OpIndex`]es, and quorum
//! tallies in [`ReplicaSet`] bitmasks.

use crate::adversary::ReplicaScript;
use crate::api::{
    noop_batch, Batch, BatchDecision, Batcher, Cluster, Endpoint, Input, LogEntry, OpId, Outbox,
    ReplicaId, ReplicaNode, Reply, Request, VcRound,
};
use crate::checkpoint::{
    CheckpointCert, CheckpointStats, CheckpointVoucher, CkptKeys, StateTransfer,
};
use crate::dense::{op_token, token_op, OpIndex, ReplicaSet, SeqWindow};
use crate::durable::{DurableEvent, RecoveredState, RecoveryReport};
use crate::runner::RunConfig;
use crate::shell::{Shell, ShellMsg};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Timer kind: a backup's patience for a pending request ran out.
const TIMER_REQUEST: u32 = 1;
/// Timer kind: the primary's partially filled batch waited long enough.
const TIMER_FLUSH: u32 = 2;
/// Default cycles a backup waits for a request to commit before
/// suspecting the primary (see [`RunConfig::request_patience`]).
const REQUEST_PATIENCE: u64 = 1_500;

/// Prepared-but-unexecuted `(seq, batch)` entries carried by view changes.
type PreparedSet = Vec<(u64, Arc<Batch>)>;

/// PBFT wire messages.
///
/// Rare, bulky variants (checkpoint vouchers/certs, state transfers) live
/// behind `Box` so the enum's size — and with it every per-event memcpy
/// through the timing-wheel arena — is pinned by the hot agreement
/// variants (see `message_enums_stay_small` in `minbft`).
#[derive(Debug, Clone, PartialEq)]
pub enum PbftMsg {
    /// Client request (client → all replicas; shared across the fan-out).
    Request(Arc<Request>),
    /// Primary's ordering proposal: one agreement slot per *batch*.
    PrePrepare {
        /// View the proposal belongs to.
        view: u64,
        /// Global sequence number.
        seq: u64,
        /// The full request batch (shared, not deep-copied, across the
        /// broadcast fan-out).
        batch: Arc<Batch>,
    },
    /// Backup's agreement to the proposal.
    Prepare {
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Request digest.
        digest: [u8; 32],
        /// Voting replica.
        from: ReplicaId,
    },
    /// Commit vote after the prepared certificate is reached.
    Commit {
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Request digest.
        digest: [u8; 32],
        /// Voting replica.
        from: ReplicaId,
    },
    /// Execution result (replica → client).
    Reply(Reply),
    /// Suspicion of the primary; vote to move to `new_view`.
    ViewChange {
        /// Proposed view.
        new_view: u64,
        /// Voter.
        from: ReplicaId,
        /// Entries prepared at the voter (must survive the view change).
        prepared: Vec<(u64, Arc<Batch>)>,
        /// The voter's execution watermark — the quorum's maximum is the
        /// floor above which sequence holes may be safely no-op-filled
        /// (the checkpoint-less stand-in for PBFT's stable-checkpoint
        /// `min-s`).
        executed_upto: u64,
        /// The voter's stable checkpoint certificate, if any. Verified by
        /// the receiver; the certified watermark floors the new view, so
        /// prepared entries at or below certified history are discarded.
        /// Boxed — certificates are rare and bulky.
        cert: Option<Box<CheckpointCert>>,
    },
    /// New primary's installation message.
    NewView {
        /// The installed view.
        view: u64,
        /// Re-proposed `(seq, batch)` pairs.
        preprepares: Vec<(u64, Arc<Batch>)>,
    },
    /// Periodic checkpoint voucher: "my state digested to `digest` after
    /// executing slot `seq`" (MAC'd; f+1 matching form a certificate).
    /// Boxed — vouchers are periodic, not per-request.
    Checkpoint(Box<CheckpointVoucher>),
    /// A recovering replica asks peers for the latest certificate +
    /// snapshot + log suffix (`have` = its execution watermark).
    StateRequest {
        /// Requester's execution watermark.
        have: u64,
        /// Requesting replica.
        from: ReplicaId,
    },
    /// A peer's state-transfer answer (see [`StateTransfer`]).
    /// Boxed — transfers are rare and huge.
    StateResponse(Box<StateTransfer>),
}

impl ShellMsg for PbftMsg {
    fn checkpoint(voucher: Box<CheckpointVoucher>) -> Self {
        PbftMsg::Checkpoint(voucher)
    }

    fn state_request(have: u64, from: ReplicaId) -> Self {
        PbftMsg::StateRequest { have, from }
    }

    fn state_response(transfer: Box<StateTransfer>) -> Self {
        PbftMsg::StateResponse(transfer)
    }
}

/// One agreement slot. Slots live in the [`SeqWindow`]; execution removes
/// and retires them, so an "executed" slot is simply one below the window
/// watermark — no flag needed.
#[derive(Debug, Default)]
struct Slot {
    batch: Option<Arc<Batch>>,
    digest: Option<[u8; 32]>,
    prepares: ReplicaSet,
    commits: ReplicaSet,
    sent_commit: bool,
}

/// One PBFT replica.
#[derive(Debug)]
pub struct PbftReplica {
    id: ReplicaId,
    n: u32,
    f: u32,
    view: u64,
    script: ReplicaScript,
    /// Virtual time of the input being handled (scripts are time-phased).
    now: u64,
    next_seq: u64,
    /// Agreement slots, watermarked at `shell.exec_upto() + 1` (sequence
    /// 0 is never used, so the window starts at base 1).
    slots: SeqWindow<Slot>,
    /// Op → agreement slot, for duplicate-proposal suppression.
    assigned: OpIndex<u64>,
    /// Backup watchlist: requests awaiting commit, with patience timers.
    pending: OpIndex<Arc<Request>>,
    stored_preprepares: SeqWindow<PbftMsg>,
    /// Execution, checkpoints, state transfer, durability (f+1 vouchers
    /// certify a checkpoint; f+1 responders install a transfer).
    shell: Shell,
    vc_votes: Vec<VcRound>,
    vc_sent_for: u64,
    /// When `vc_sent_for` was last raised — the escalation rate limiter.
    vc_demanded_at: u64,
    /// Set while a crash window swallows inputs; the first input after
    /// recovery re-arms the per-op patience chains killed in the outage.
    in_outage: bool,
    /// Batching front-end (primary only).
    batcher: Batcher,
    /// Backup patience before suspecting the primary.
    patience: u64,
}

impl PbftReplica {
    /// Creates replica `id` of an `n = 3f+1` cluster (unbatched; see
    /// [`Self::set_batching`]).
    pub fn new(id: ReplicaId, f: u32) -> Self {
        PbftReplica {
            id,
            n: 3 * f + 1,
            f,
            view: 0,
            script: ReplicaScript::correct(),
            now: 0,
            next_seq: 1,
            slots: SeqWindow::with_base(1),
            assigned: OpIndex::new(),
            pending: OpIndex::new(),
            stored_preprepares: SeqWindow::with_base(1),
            shell: Shell::new(id, 3 * f + 1, (f + 1) as usize),
            vc_votes: Vec::new(),
            vc_sent_for: 0,
            vc_demanded_at: 0,
            in_outage: false,
            batcher: Batcher::new(),
            patience: REQUEST_PATIENCE,
        }
    }

    /// Configures the batching front-end: seal a batch at `batch_size`
    /// requests, or after `batch_flush` cycles, whichever comes first.
    pub fn set_batching(&mut self, batch_size: usize, batch_flush: u64) {
        self.batcher.configure(batch_size, batch_flush);
    }

    /// Sets the backup's request patience (clamped to ≥ 1).
    pub fn set_patience(&mut self, cycles: u64) {
        self.patience = cycles.max(1);
    }

    /// Enables certified checkpoints every `interval` executed slots under
    /// the cluster-shared `keys` (0 disables — the default, byte-invisible
    /// configuration).
    pub fn set_checkpointing(&mut self, interval: u64, keys: Arc<CkptKeys>) {
        self.shell.set_checkpointing(interval, keys);
    }

    /// Digest of the replica's current state-machine state (for
    /// batched-vs-unbatched equivalence checks).
    pub fn state_digest(&self) -> [u8; 32] {
        self.shell.state_digest()
    }

    /// Installs a composable, time-phased fault script.
    pub fn set_script(&mut self, script: ReplicaScript) {
        self.script = script;
    }

    /// The active fault script.
    pub fn script(&self) -> &ReplicaScript {
        &self.script
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    fn primary_of(&self, view: u64) -> ReplicaId {
        ReplicaId((view % self.n as u64) as u32)
    }

    fn is_primary(&self) -> bool {
        self.primary_of(self.view) == self.id
    }

    fn quorum(&self) -> usize {
        (2 * self.f + 1) as usize
    }

    // Everything below is reachable from adversarial input: a Byzantine
    // peer (or a forged client) picks the message contents, so a panic
    // here is a remote crash. `rsoc_lint` enforces the no-panic contract;
    // the reasoned allows mark invariants the window/state machine holds.
    // lint: ingress
    fn handle_request(&mut self, req: Arc<Request>, out: &mut Outbox<PbftMsg>) {
        if let Some(reply) = self.shell.cached_reply(req.op) {
            out.send(Endpoint::Client(req.op.client), PbftMsg::Reply(reply));
            return;
        }
        if self.is_primary() {
            if let Some(seq) = self.assigned.get(&req.op).copied() {
                // Client retry for an in-flight op: re-announce so replicas
                // that discarded messages during a view change catch up.
                if let Some(pp) = self.stored_preprepares.get(seq).cloned() {
                    out.broadcast(self.n, self.id, pp);
                }
                self.reannounce_commit(seq, out);
                return;
            }
            match self.batcher.offer(req) {
                BatchDecision::Seal => self.flush_batch(out),
                BatchDecision::ArmTimer(token) => {
                    out.arm(self.batcher.flush_cycles(), TIMER_FLUSH, token)
                }
                BatchDecision::Wait | BatchDecision::Duplicate => {}
            }
        } else {
            // Backup: remember the request and watch the primary.
            if !self.pending.contains_key(&req.op) && !self.shell.has_executed(&req.op) {
                let token = op_token(req.op);
                self.pending.insert(req.op, req);
                out.arm(self.patience, TIMER_REQUEST, token);
            }
        }
    }

    /// Seals the accumulated requests into one batch and proposes it: one
    /// agreement round (and one digest computation) for up to `batch_size`
    /// requests.
    fn flush_batch(&mut self, out: &mut Outbox<PbftMsg>) {
        // Requests can go stale in the accumulator across a view change
        // (proposed by the new primary, then this replica re-elected).
        let shell = &self.shell;
        let assigned = &self.assigned;
        let reqs =
            self.batcher.drain(|r| !shell.has_executed(&r.op) && !assigned.contains_key(&r.op));
        if reqs.is_empty() {
            return;
        }
        let batch = Arc::new(Batch::new(reqs));
        let seq = self.next_seq;
        self.next_seq += 1;
        for r in batch.requests() {
            self.assigned.insert(r.op, seq);
        }
        if self.script.equivocates_at(self.now) {
            self.equivocate(seq, batch, out);
            return;
        }
        let digest = batch.digest();
        let me = self.id;
        // lint: allow(ingress-expect) -- seq is freshly drawn from next_seq, strictly above exec_upto
        let slot = self.slots.get_or_insert_default(seq).expect("fresh seq is above watermark");
        slot.batch = Some(batch.clone());
        slot.digest = Some(digest);
        slot.prepares.insert(me);
        let pp = PbftMsg::PrePrepare { view: self.view, seq, batch };
        self.stored_preprepares.insert(seq, pp.clone());
        out.broadcast(self.n, self.id, pp);
    }

    /// Byzantine primary: proposes conflicting batches for the same
    /// sequence number to two halves of the backups (and votes for both).
    fn equivocate(&mut self, seq: u64, batch: Arc<Batch>, out: &mut Outbox<PbftMsg>) {
        let evil_reqs: Vec<Arc<Request>> = batch
            .requests()
            .iter()
            .map(|r| {
                let mut e = Request::clone(r);
                e.payload.reverse();
                Arc::new(e)
            })
            .collect();
        let evil = Arc::new(Batch::new(evil_reqs));
        let half = self.n / 2;
        for i in 0..self.n {
            if i == self.id.0 {
                continue;
            }
            let b = if i < half { &batch } else { &evil };
            let d = b.digest();
            out.send(
                Endpoint::Replica(ReplicaId(i)),
                PbftMsg::PrePrepare { view: self.view, seq, batch: b.clone() },
            );
            out.send(
                Endpoint::Replica(ReplicaId(i)),
                PbftMsg::Prepare { view: self.view, seq, digest: d, from: self.id },
            );
            out.send(
                Endpoint::Replica(ReplicaId(i)),
                PbftMsg::Commit { view: self.view, seq, digest: d, from: self.id },
            );
        }
    }

    fn handle_preprepare(
        &mut self,
        from: Endpoint,
        view: u64,
        seq: u64,
        batch: Arc<Batch>,
        out: &mut Outbox<PbftMsg>,
    ) {
        if view != self.view {
            return;
        }
        if from != Endpoint::Replica(self.primary_of(view)) {
            return; // only the view's primary may pre-prepare
        }
        if batch.is_empty() || !batch.verify() {
            return; // content does not match the claimed digest
        }
        let digest = batch.digest();
        let primary = self.primary_of(view);
        let me = self.id;
        // Below the watermark = already executed: rejected, never
        // resurrected (the window refuses to store it).
        let Some(slot) = self.slots.get_or_insert_default(seq) else { return };
        if let Some(existing) = slot.digest {
            if existing != digest {
                return; // conflicting proposal for the slot: keep the first
            }
        }
        for r in batch.requests() {
            self.assigned.insert(r.op, seq);
        }
        // lint: allow(ingress-expect) -- get_or_insert_default above returned Some for this seq
        let slot = self.slots.get_mut(seq).expect("slot just ensured");
        slot.batch = Some(batch);
        slot.digest = Some(digest);
        slot.prepares.insert(primary);
        slot.prepares.insert(me);
        out.broadcast(self.n, self.id, PbftMsg::Prepare { view, seq, digest, from: self.id });
        self.reannounce_commit(seq, out);
        self.maybe_advance(seq, out);
    }

    /// Rebroadcasts this replica's COMMIT for `seq` if it has already voted
    /// — heals peers that discarded the original during a view change.
    fn reannounce_commit(&mut self, seq: u64, out: &mut Outbox<PbftMsg>) {
        let view = self.view;
        let me = self.id;
        let n = self.n;
        // Executed slots are retired from the window, so a bare `get`
        // already excludes them.
        if let Some(slot) = self.slots.get(seq) {
            if slot.sent_commit {
                if let Some(digest) = slot.digest {
                    out.broadcast(n, me, PbftMsg::Commit { view, seq, digest, from: me });
                }
            }
        }
    }

    fn handle_prepare(
        &mut self,
        view: u64,
        seq: u64,
        digest: [u8; 32],
        from: ReplicaId,
        out: &mut Outbox<PbftMsg>,
    ) {
        if view != self.view {
            return;
        }
        let Some(slot) = self.slots.get_or_insert_default(seq) else { return };
        if slot.digest.is_none_or(|d| d == digest) {
            slot.prepares.insert(from);
        }
        self.maybe_advance(seq, out);
    }

    fn handle_commit(
        &mut self,
        view: u64,
        seq: u64,
        digest: [u8; 32],
        from: ReplicaId,
        out: &mut Outbox<PbftMsg>,
    ) {
        if view != self.view {
            return;
        }
        let Some(slot) = self.slots.get_or_insert_default(seq) else { return };
        if slot.digest.is_none_or(|d| d == digest) {
            slot.commits.insert(from);
        }
        self.maybe_advance(seq, out);
    }

    /// Drives a slot through prepared → committed → executed.
    fn maybe_advance(&mut self, seq: u64, out: &mut Outbox<PbftMsg>) {
        let quorum = self.quorum();
        let (send_commit, view, digest) = {
            let Some(slot) = self.slots.get_mut(seq) else { return };
            if slot.digest.is_none() {
                return;
            }
            let prepared = slot.prepares.len() >= quorum;
            let send_commit = prepared && !slot.sent_commit;
            if send_commit {
                slot.sent_commit = true;
                slot.commits.insert(self.id);
            }
            // lint: allow(ingress-expect) -- is_none() early-returned two branches up
            (send_commit, self.view, slot.digest.expect("digest set"))
        };
        if send_commit {
            out.broadcast(self.n, self.id, PbftMsg::Commit { view, seq, digest, from: self.id });
        }
        self.try_execute(out);
    }

    fn try_execute(&mut self, out: &mut Outbox<PbftMsg>) {
        let quorum = self.quorum();
        loop {
            let next = self.shell.exec_upto() + 1;
            let ready = match self.slots.get(next) {
                Some(slot) => {
                    slot.batch.is_some() && slot.sent_commit && slot.commits.len() >= quorum
                }
                None => false,
            };
            if !ready {
                break;
            }
            // Execution consumes the slot; retiring the watermark below
            // makes the sequence number permanently dead.
            // lint: allow(ingress-expect) -- `ready` above proved the slot exists in the window
            let slot = self.slots.remove(next).expect("checked");
            // lint: allow(ingress-expect) -- `ready` above proved batch.is_some()
            let batch = slot.batch.expect("checked");
            // lint: allow(ingress-expect) -- sent_commit is only set after the digest is stored
            let digest = slot.digest.expect("checked");
            let pending = &mut self.pending;
            self.shell.execute(next, &batch, digest, |_, reply| {
                pending.remove(&reply.op);
                out.send(Endpoint::Client(reply.op.client), PbftMsg::Reply(reply));
            });
            self.shell.checkpoint(next, self.script.forges_checkpoint_at(self.now), out);
        }
        self.retire_executed();
    }

    /// Retires the agreement windows below the execution watermark:
    /// executed sequence numbers are dead, never resurrected.
    fn retire_executed(&mut self) {
        let floor = self.shell.exec_upto() + 1;
        self.slots.retire_below(floor);
        self.stored_preprepares.retire_below(floor);
    }

    /// Ingests a peer's checkpoint voucher and, if this replica turns out
    /// to be behind the newly stable watermark, starts state transfer.
    fn handle_checkpoint(&mut self, voucher: CheckpointVoucher, out: &mut Outbox<PbftMsg>) {
        self.shell.on_voucher(&voucher);
        self.shell.request_transfer(self.now, out);
    }

    /// Hands a transfer response to the shell; once f+1 responders agree
    /// it installs, and this replica retires its windows, rejoins the
    /// cluster's view and resumes execution.
    fn handle_state_response(&mut self, st: StateTransfer, out: &mut Outbox<PbftMsg>) {
        let Some(plan) = self.shell.admit_transfer(st, (self.f + 1) as usize) else { return };
        let pending = &mut self.pending;
        if !self.shell.install(&plan, Batch::digest, |_, reply| {
            pending.remove(&reply.op);
        }) {
            return;
        }
        self.retire_executed();
        self.next_seq = self.next_seq.max(self.shell.exec_upto() + 1);
        if plan.view > self.view {
            // The cluster moved on while we were down; join its view so the
            // current primary's proposals are accepted.
            self.view = plan.view;
            self.vc_sent_for = self.vc_sent_for.max(plan.view);
            self.vc_votes.retain(|r| r.view > plan.view);
        }
        // Re-arm patience for requests still pending after the replay, and
        // resume normal execution for anything already quorate.
        self.rearm_patience(out);
        self.try_execute(out);
    }

    /// Arms one patience timer per pending request (canonical order keeps
    /// the timer schedule deterministic).
    fn rearm_patience(&self, out: &mut Outbox<PbftMsg>) {
        for (op, _) in self.pending.iter_canonical() {
            out.arm(self.patience, TIMER_REQUEST, op_token(op));
        }
    }

    fn prepared_uncommitted(&self) -> Vec<(u64, Arc<Batch>)> {
        let quorum = self.quorum();
        // Every slot still in the window is unexecuted (execution retires).
        self.slots
            .iter()
            .filter(|(_, s)| s.prepares.len() >= quorum)
            .filter_map(|(seq, s)| s.batch.clone().map(|b| (seq, b)))
            .collect()
    }

    /// The vote round for `view`, created on first use (linear scan: view
    /// changes are rare and the live round count is tiny).
    fn vc_round_mut(&mut self, view: u64) -> &mut VcRound {
        let n = self.n as usize;
        let idx = match self.vc_votes.iter().position(|r| r.view == view) {
            Some(i) => i,
            None => {
                self.vc_votes.push(VcRound::new(view, n));
                self.vc_votes.len() - 1
            }
        };
        // bounds: idx is either a position() hit or the just-pushed last element
        &mut self.vc_votes[idx]
    }

    fn record_vc_vote(
        &mut self,
        view: u64,
        from: ReplicaId,
        prepared: PreparedSet,
        executed_upto: u64,
        cert_seq: u64,
    ) {
        self.vc_round_mut(view).record(from, prepared, executed_upto, cert_seq);
    }

    fn start_view_change(&mut self, new_view: u64, out: &mut Outbox<PbftMsg>) {
        if new_view <= self.view || self.vc_sent_for >= new_view {
            return;
        }
        self.vc_sent_for = new_view;
        self.vc_demanded_at = self.now;
        let prepared = self.prepared_uncommitted();
        self.record_vc_vote(
            new_view,
            self.id,
            prepared.clone(),
            self.shell.exec_upto(),
            self.shell.ckpt().stable_seq(),
        );
        out.broadcast(
            self.n,
            self.id,
            PbftMsg::ViewChange {
                new_view,
                from: self.id,
                prepared,
                executed_upto: self.shell.exec_upto(),
                cert: self.shell.ckpt().stable().cloned().map(Box::new),
            },
        );
        self.maybe_install_view(new_view, out);
    }

    fn handle_view_change(
        &mut self,
        new_view: u64,
        from: ReplicaId,
        prepared: Vec<(u64, Arc<Batch>)>,
        executed_upto: u64,
        cert: Option<CheckpointCert>,
        out: &mut Outbox<PbftMsg>,
    ) {
        if new_view <= self.view {
            return;
        }
        // A carried certificate floors the round only once verified; a
        // forged one contributes 0.
        let cert_seq = cert.and_then(|c| self.shell.accept_cert(&c)).unwrap_or(0);
        self.record_vc_vote(new_view, from, prepared, executed_upto, cert_seq);
        let count = self.vc_round_mut(new_view).count;
        // Join the view change once f+1 replicas demand it.
        if count >= (self.f + 1) as usize {
            self.start_view_change(new_view, out);
        }
        self.maybe_install_view(new_view, out);
    }

    fn maybe_install_view(&mut self, new_view: u64, out: &mut Outbox<PbftMsg>) {
        let quorum = self.quorum();
        let Some(round) = self.vc_votes.iter().find(|r| r.view == new_view) else { return };
        if round.count < quorum || self.primary_of(new_view) != self.id {
            return;
        }
        // Become primary of the new view: gather every prepared entry and
        // re-propose; pending-but-unprepared requests get fresh sequences.
        // Votes are merged in voter-id order (canonical and deterministic).
        let mut repropose: BTreeMap<u64, Arc<Batch>> = BTreeMap::new();
        for entries in round.votes.iter().flatten() {
            for (seq, batch) in entries {
                repropose.entry(*seq).or_insert_with(|| batch.clone());
            }
        }
        // Also re-propose our own prepared-but-unexecuted entries.
        for (seq, batch) in self.prepared_uncommitted() {
            repropose.entry(seq).or_insert(batch);
        }
        // Fill sequence holes with no-op batches. A proposal can die
        // *unprepared* at seq s (its pre-prepare lost to drops) while s+1
        // prepared and survives the view change — execution is strictly
        // in-order, so without a filler every replica wedges at s forever,
        // view change after view change. Filling is safe only above the
        // vote quorum's execution floor: if ANY correct replica executed
        // seq s, then s gathered a commit quorum, whose prepared-set
        // holders intersect every view-change quorum — so s is in
        // `repropose` and is not a hole (the checkpoint-less analogue of
        // PBFT's null requests above the stable checkpoint). Un-certified
        // watermark claims are trusted as honest — see [`VcRound`]'s trust
        // boundary — but the *certified* floor is proven: prepared entries
        // at or below a verified checkpoint certificate are certified
        // history a forger is trying to rewrite, and are discarded.
        let cert_floor = round.cert_floor;
        if cert_floor > 0 {
            repropose.retain(|seq, _| *seq > cert_floor);
        }
        let floor = round.exec_floor.max(self.shell.exec_upto()).max(cert_floor);
        let max_seq = repropose.keys().max().copied().unwrap_or(self.shell.exec_upto());
        for seq in floor.saturating_add(1)..max_seq {
            repropose.entry(seq).or_insert_with(|| noop_batch(seq));
        }
        self.view = new_view;
        // Fresh proposals must start above BOTH the highest re-proposed
        // entry and the quorum's execution floor: a laggard primary that
        // ignored `floor` would re-batch pending requests at sequences its
        // peers already executed and retired — proposals that can never
        // prepare (the watermark rejects them), stalling every pending op
        // until a caught-up replica rotates in.
        self.next_seq = self.next_seq.max(max_seq + 1).max(floor.saturating_add(1));
        // Pending requests not covered get new slots, re-batched at the
        // configured batch size. The pending index is order-canonicalized
        // (sorted by op id) so re-batching is deterministic.
        let covered: BTreeSet<OpId> =
            repropose.values().flat_map(|b| b.requests().iter().map(|r| r.op)).collect();
        let pending: Vec<Arc<Request>> = self
            .pending
            .iter_canonical()
            .into_iter()
            .map(|(_, r)| r)
            .filter(|r| !covered.contains(&r.op) && !self.shell.has_executed(&r.op))
            .cloned()
            .collect();
        for chunk in pending.chunks(self.batcher.batch_size()) {
            let seq = self.next_seq;
            self.next_seq += 1;
            repropose.insert(seq, Arc::new(Batch::new(chunk.to_vec())));
        }
        let preprepares: Vec<(u64, Arc<Batch>)> = repropose.into_iter().collect();
        // Install locally.
        self.install_new_view(new_view, &preprepares, out);
        out.broadcast(self.n, self.id, PbftMsg::NewView { view: new_view, preprepares });
    }

    fn install_new_view(
        &mut self,
        view: u64,
        preprepares: &[(u64, Arc<Batch>)],
        out: &mut Outbox<PbftMsg>,
    ) {
        self.view = view;
        self.vc_sent_for = self.vc_sent_for.max(view);
        // Stale rounds for installed views can never fire again.
        self.vc_votes.retain(|r| r.view > view);
        // Reset vote state for uncommitted slots (everything still in the
        // window); re-run agreement in the new view.
        for slot in self.slots.values_mut() {
            slot.prepares.clear();
            slot.commits.clear();
            slot.sent_commit = false;
        }
        for (seq, batch) in preprepares {
            if self.slots.is_retired(*seq) {
                continue; // already executed: dead, not resurrectable
            }
            let digest = batch.digest();
            let primary = self.primary_of(view);
            let me = self.id;
            for r in batch.requests() {
                self.assigned.insert(r.op, *seq);
            }
            // lint: allow(ingress-expect) -- is_retired() continued the loop just above
            let slot = self.slots.get_or_insert_default(*seq).expect("not retired");
            slot.batch = Some(batch.clone());
            slot.digest = Some(digest);
            slot.prepares.insert(primary);
            slot.prepares.insert(me);
            if primary == me {
                self.stored_preprepares
                    .insert(*seq, PbftMsg::PrePrepare { view, seq: *seq, batch: batch.clone() });
            }
            out.broadcast(
                self.n,
                self.id,
                PbftMsg::Prepare { view, seq: *seq, digest, from: self.id },
            );
        }
        let seqs: Vec<u64> = preprepares.iter().map(|(s, _)| *s).collect();
        for seq in seqs {
            self.maybe_advance(seq, out);
        }
    }

    fn handle_new_view(
        &mut self,
        view: u64,
        preprepares: Vec<(u64, Arc<Batch>)>,
        from: Endpoint,
        out: &mut Outbox<PbftMsg>,
    ) {
        if view <= self.view && self.view != 0 {
            return;
        }
        if from != Endpoint::Replica(self.primary_of(view)) {
            return;
        }
        self.install_new_view(view, &preprepares, out);
        // Re-arm patience for still-pending requests under the new primary.
        self.rearm_patience(out);
    }
    // lint: end
}

// The node-facing input surface: every simulator event enters here.
// lint: ingress
impl ReplicaNode for PbftReplica {
    type Msg = PbftMsg;

    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_input(&mut self, input: Input<PbftMsg>, now: u64, out: &mut Outbox<PbftMsg>) {
        self.now = now;
        if self.script.crashed_at(now) {
            self.in_outage = true;
            return;
        }
        if self.in_outage {
            // Fail-recover: per-op patience timers whose firing landed
            // inside the outage are dead chains (retransmissions do not
            // re-arm an already-pending op) — revive them once, in
            // canonical order, so the recovered backup keeps watching its
            // pending ops.
            self.in_outage = false;
            self.rearm_patience(out);
        }
        if self.script.unconstrained() {
            // Fast path (the overwhelmingly common case): a correct
            // replica's outputs are never gated, so handlers write the
            // caller's outbox directly — no staging buffer, no per-event
            // re-moves of every queued message.
            self.dispatch_input(input, now, out);
            return;
        }
        let mut staged = Outbox::new();
        self.dispatch_input(input, now, &mut staged);
        // Script gate on outputs (timers always pass — they are local).
        if self.script.sends_at(now) {
            out.msgs.extend(staged.msgs);
        }
        out.timers.extend(staged.timers);
    }

    fn committed_log(&self) -> &[LogEntry] {
        self.shell.log()
    }

    fn committed_seq(&self) -> u64 {
        self.shell.committed()
    }

    fn wipe(&mut self) {
        // Rejuvenation: volatile protocol + application state goes; the
        // replica's identity, keys, fault script, and the self-verifying
        // stable checkpoint certificate (trusted persistent store) stay.
        self.next_seq = 1;
        self.slots = SeqWindow::with_base(1);
        self.assigned = OpIndex::new();
        self.pending = OpIndex::new();
        self.stored_preprepares = SeqWindow::with_base(1);
        self.vc_votes.clear();
        self.vc_sent_for = 0;
        self.vc_demanded_at = 0;
        self.in_outage = false;
        self.view = 0;
        let (size, flush) = (self.batcher.batch_size(), self.batcher.flush_cycles());
        self.batcher = Batcher::new();
        self.batcher.configure(size, flush);
        self.shell.wipe();
    }

    fn checkpoint_stats(&self) -> CheckpointStats {
        self.shell.ckpt().stats()
    }

    fn checkpoint_history(&self) -> &[(u64, [u8; 32])] {
        self.shell.ckpt().history()
    }

    fn make_request(req: Arc<Request>) -> PbftMsg {
        PbftMsg::Request(req)
    }

    fn as_reply(msg: &PbftMsg) -> Option<&Reply> {
        match msg {
            PbftMsg::Reply(r) => Some(r),
            _ => None,
        }
    }

    fn state_digest(&self) -> [u8; 32] {
        self.shell.state_digest()
    }

    fn current_view(&self) -> u64 {
        self.view
    }

    fn enable_durability(&mut self) {
        self.shell.enable_durability();
    }

    fn drain_durable(&mut self, out: &mut Vec<DurableEvent>) {
        self.shell.drain_durable(out);
    }

    fn recover(&mut self, state: RecoveredState) -> RecoveryReport {
        let pending = &mut self.pending;
        let report = self.shell.recover(&state, Batch::digest, |_, reply| {
            pending.remove(&reply.op);
        });
        // Executed sequence numbers are dead from the first input on — both
        // below the snapshot and below the replayed WAL tail.
        self.retire_executed();
        self.next_seq = self.next_seq.max(self.shell.exec_upto() + 1);
        report
    }
}

impl PbftReplica {
    /// Routes one input to its handler, emitting effects into `out`.
    fn dispatch_input(&mut self, input: Input<PbftMsg>, now: u64, staged: &mut Outbox<PbftMsg>) {
        match input {
            Input::Message { from, msg } => match msg {
                PbftMsg::Request(req) => self.handle_request(req, staged),
                PbftMsg::PrePrepare { view, seq, batch } => {
                    self.handle_preprepare(from, view, seq, batch, staged)
                }
                PbftMsg::Prepare { view, seq, digest, from } => {
                    self.handle_prepare(view, seq, digest, from, staged)
                }
                PbftMsg::Commit { view, seq, digest, from } => {
                    self.handle_commit(view, seq, digest, from, staged)
                }
                PbftMsg::ViewChange { new_view, from, prepared, executed_upto, cert } => {
                    let cert = cert.map(|c| *c);
                    self.handle_view_change(new_view, from, prepared, executed_upto, cert, staged)
                }
                PbftMsg::NewView { view, preprepares } => {
                    self.handle_new_view(view, preprepares, from, staged)
                }
                PbftMsg::Checkpoint(voucher) => self.handle_checkpoint(*voucher, staged),
                PbftMsg::StateRequest { have, from } => self.shell.serve_transfer(
                    have,
                    from,
                    self.view,
                    self.script.corrupts_snapshot_at(now),
                    self.script.corrupts_suffix_at(now),
                    staged,
                ),
                PbftMsg::StateResponse(st) => self.handle_state_response(*st, staged),
                PbftMsg::Reply(_) => {}
            },
            Input::Timer { kind: TIMER_REQUEST, token } => {
                if self.pending.contains_key(&token_op(token)) {
                    // Demand at most one new view per full patience period
                    // (`vc_demanded_at` is stamped on every demand, own or
                    // joined). The escalation target skips past a
                    // demanded-but-never-installed view, so a CrashAt
                    // firing *mid view-change* — killing the incoming
                    // primary — escalates to a live one instead of wedging
                    // the cluster on a view nobody can install. The rate
                    // limit matters as much as the escalation: every
                    // pending op runs its own patience timer, and demanding
                    // per fire outruns any installation (a view-change
                    // livelock storm that starves re-proposals forever).
                    if now >= self.vc_demanded_at.saturating_add(self.patience) {
                        let next = self.view.max(self.vc_sent_for) + 1;
                        self.start_view_change(next, staged);
                    }
                    // Keep watching: if the new view also stalls, escalate.
                    staged.arm(self.patience, TIMER_REQUEST, token);
                }
            }
            Input::Timer { kind: TIMER_FLUSH, token } => {
                // Stale tokens (from accumulations already sealed by size)
                // are ignored; only the current epoch's timer flushes.
                if self.batcher.on_flush_timer(token) && self.is_primary() {
                    self.flush_batch(staged);
                }
            }
            Input::Timer { .. } => {}
        }
        // Any input may have revealed a stable certificate ahead of us
        // (post-wipe, or crashed past retention): chase it, rate-limited
        // by the CST backoff.
        self.shell.request_transfer(now, staged);
    }
}
// lint: end

/// A PBFT cluster of `3f+1` replicas.
#[derive(Debug)]
pub struct PbftCluster {
    nodes: Vec<PbftReplica>,
    f: u32,
}

impl PbftCluster {
    /// Builds the cluster for `config.f`.
    pub fn new(config: &RunConfig) -> Self {
        let n = 3 * config.f + 1;
        let keys = CkptKeys::provision(config.seed, n as usize);
        PbftCluster {
            nodes: (0..n)
                .map(|i| {
                    let mut r = PbftReplica::new(ReplicaId(i), config.f);
                    r.set_batching(config.batch_size, config.batch_flush);
                    r.set_patience(config.request_patience);
                    r.set_checkpointing(config.checkpoint_interval, Arc::clone(&keys));
                    r
                })
                .collect(),
            f: config.f,
        }
    }

    /// Fault threshold.
    pub fn f(&self) -> u32 {
        self.f
    }
}

impl Cluster for PbftCluster {
    type Node = PbftReplica;

    fn nodes_mut(&mut self) -> &mut [PbftReplica] {
        &mut self.nodes
    }

    fn nodes(&self) -> &[PbftReplica] {
        &self.nodes
    }

    fn into_nodes(self) -> Vec<PbftReplica> {
        self.nodes
    }

    fn reply_quorum(&self) -> usize {
        (self.f + 1) as usize
    }

    fn protocol_name(&self) -> &'static str {
        "pbft"
    }

    fn correct_replicas(&self) -> Vec<ReplicaId> {
        self.nodes.iter().filter(|n| !n.script().is_byzantine()).map(|n| n.id()).collect()
    }

    fn set_script(&mut self, id: ReplicaId, script: ReplicaScript) {
        self.nodes[id.0 as usize].set_script(script);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Behavior;
    use crate::runner::{run, RunConfig};

    fn config(f: u32, clients: u32, reqs: u64, seed: u64) -> RunConfig {
        RunConfig { f, clients, requests_per_client: reqs, seed, ..Default::default() }
    }

    #[test]
    fn fault_free_commits_everything() {
        let cfg = config(1, 2, 10, 7);
        let mut cluster = PbftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 20);
        assert!(report.safety_ok);
        assert_eq!(report.n_replicas, 4);
        // All four replicas executed the same 20-entry log.
        for node in cluster.nodes() {
            assert_eq!(node.committed_log().len(), 20);
        }
    }

    #[test]
    fn batched_commits_everything_with_fewer_messages() {
        let unbatched = config(1, 8, 8, 57);
        let batched = RunConfig { batch_size: 8, batch_flush: 100, ..unbatched.clone() };
        let mut c1 = PbftCluster::new(&unbatched);
        let r1 = run(&mut c1, &unbatched);
        let mut c2 = PbftCluster::new(&batched);
        let r2 = run(&mut c2, &batched);
        assert_eq!(r1.committed, 64);
        assert_eq!(r2.committed, 64);
        assert!(r1.safety_ok && r2.safety_ok);
        assert!(
            r2.messages_per_commit() < r1.messages_per_commit() / 2.0,
            "batch=8 must amortize protocol messages: {:.1} vs {:.1}",
            r2.messages_per_commit(),
            r1.messages_per_commit()
        );
        // Same request schedule -> same final state, batched or not.
        assert_eq!(c1.nodes()[0].state_digest(), c2.nodes()[0].state_digest());
    }

    #[test]
    fn pipelined_clients_fill_batches_and_outrun_closed_loop() {
        // 4 clients against batch_size 8: strictly closed-loop demand can
        // never fill a batch (at most 4 concurrent requests), so progress
        // leans on flush timeouts. A window of 4 gives the primary 16
        // concurrent requests — full batches, higher throughput, same
        // final state.
        let base = RunConfig {
            batch_size: 8,
            batch_flush: 100,
            link_occupancy: 8,
            ..config(1, 4, 16, 67)
        };
        let piped_cfg = RunConfig { client_window: 4, ..base.clone() };
        let mut closed_cluster = PbftCluster::new(&base);
        let closed = run(&mut closed_cluster, &base);
        let mut piped_cluster = PbftCluster::new(&piped_cfg);
        let piped = run(&mut piped_cluster, &piped_cfg);
        assert_eq!(closed.committed, 64);
        assert_eq!(piped.committed, 64);
        assert!(closed.safety_ok && piped.safety_ok);
        assert!(
            piped.throughput_per_kcycle() > closed.throughput_per_kcycle(),
            "window=4 must outrun closed-loop: {:.2} vs {:.2} ops/kcycle",
            piped.throughput_per_kcycle(),
            closed.throughput_per_kcycle()
        );
        assert_eq!(
            closed_cluster.nodes()[0].state_digest(),
            piped_cluster.nodes()[0].state_digest()
        );
    }

    #[test]
    fn pipelined_retransmissions_stay_exactly_once() {
        // Tiny client timeout + window 3: every outstanding op retransmits
        // independently; execution must remain exactly-once per op.
        let cfg = RunConfig {
            client_timeout: 25,
            client_window: 3,
            max_cycles: 5_000_000,
            ..config(1, 2, 6, 71)
        };
        let mut cluster = PbftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 12);
        assert!(report.safety_ok);
        for node in cluster.nodes() {
            assert_eq!(node.committed_log().len(), 12, "exactly-once execution");
        }
        assert!(report.client_retries > 0, "test must actually exercise retries");
    }

    #[test]
    fn partial_batches_flush_on_timeout() {
        // 3 clients with batch_size 8: batches can never fill, so progress
        // relies entirely on the flush timer.
        let cfg = RunConfig { batch_size: 8, batch_flush: 50, ..config(1, 3, 5, 59) };
        let mut cluster = PbftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 15);
        assert!(report.safety_ok);
    }

    #[test]
    fn equivocating_primary_cannot_break_safety_with_batching() {
        let cfg = RunConfig {
            batch_size: 4,
            batch_flush: 80,
            max_cycles: 5_000_000,
            ..config(1, 4, 4, 61)
        };
        let mut cluster = PbftCluster::new(&cfg);
        cluster.set_script(ReplicaId(0), Behavior::Equivocate.into());
        let report = run(&mut cluster, &cfg);
        assert!(report.safety_ok, "batched equivocation must not split logs");
        assert_eq!(report.committed, 16);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = config(1, 2, 8, 99);
        let r1 = run(&mut PbftCluster::new(&cfg), &cfg);
        let r2 = run(&mut PbftCluster::new(&cfg), &cfg);
        assert_eq!(r1.committed, r2.committed);
        assert_eq!(r1.messages_total, r2.messages_total);
        assert_eq!(r1.duration_cycles, r2.duration_cycles);
    }

    #[test]
    fn tolerates_f_silent_replicas() {
        let cfg = config(1, 1, 10, 3);
        let mut cluster = PbftCluster::new(&cfg);
        cluster.set_script(ReplicaId(3), Behavior::Silent.into());
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 10);
        assert!(report.safety_ok);
    }

    #[test]
    fn f2_cluster_tolerates_two_crashes() {
        let cfg = config(2, 1, 6, 5);
        let mut cluster = PbftCluster::new(&cfg);
        cluster.set_script(ReplicaId(5), Behavior::Crashed.into());
        cluster.set_script(ReplicaId(6), Behavior::Crashed.into());
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.n_replicas, 7);
        assert_eq!(report.committed, 6);
        assert!(report.safety_ok);
    }

    #[test]
    fn primary_crash_triggers_view_change_and_recovers() {
        let cfg = RunConfig { max_cycles: 5_000_000, ..config(1, 1, 8, 11) };
        let mut cluster = PbftCluster::new(&cfg);
        // Primary of view 0 is replica 0; crash it mid-run.
        cluster.set_script(ReplicaId(0), Behavior::CrashAt(150).into());
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 8, "all requests commit despite failover");
        assert!(report.safety_ok);
        // Surviving replicas moved past view 0.
        assert!(cluster.nodes()[1].view() >= 1);
    }

    #[test]
    fn crash_at_mid_view_change_still_elects_and_commits() {
        // Regression for the cascading-failure class: the primary of view 0
        // crashes, and while the view change to view 1 is in flight the
        // *incoming* primary crashes too (CrashAt fires mid view-change).
        // The surviving 2f+1 quorum must escalate to view 2, re-propose,
        // and commit every pending batch — not wedge on the half-installed
        // view. f=2 (n=7) so two crashes stay within tolerance.
        let cfg = RunConfig {
            batch_size: 4,
            batch_flush: 80,
            max_cycles: 30_000_000,
            ..config(2, 4, 4, 83)
        };
        let mut cluster = PbftCluster::new(&cfg);
        cluster.set_script(ReplicaId(0), Behavior::CrashAt(150).into());
        // Patience (1500) fires the first view change around cycle ~1510;
        // replica 1 dies while installing/leading view 1.
        cluster.set_script(ReplicaId(1), Behavior::CrashAt(1525).into());
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 16, "pending batches must commit after the double failover");
        assert!(report.safety_ok);
        // The survivors moved past both dead primaries.
        for id in 2..7u32 {
            assert!(
                cluster.nodes()[id as usize].view() >= 2,
                "replica {id} stuck at view {}",
                cluster.nodes()[id as usize].view()
            );
        }
        // Survivors executed identical full logs.
        let len = cluster.nodes()[2].committed_log().len();
        assert_eq!(len, 16);
        for id in 3..7usize {
            assert_eq!(cluster.nodes()[id].committed_log().len(), len);
        }
    }

    #[test]
    fn equivocating_primary_cannot_break_safety() {
        let cfg = RunConfig { max_cycles: 5_000_000, ..config(1, 2, 6, 13) };
        let mut cluster = PbftCluster::new(&cfg);
        cluster.set_script(ReplicaId(0), Behavior::Equivocate.into());
        let report = run(&mut cluster, &cfg);
        assert!(report.safety_ok, "equivocation must never split correct logs");
        assert_eq!(report.committed, 12, "liveness via view change");
    }

    #[test]
    fn message_loss_is_recovered_by_retries() {
        let cfg = RunConfig { drop_rate: 0.05, max_cycles: 5_000_000, ..config(1, 1, 8, 17) };
        let mut cluster = PbftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 8);
        assert!(report.safety_ok);
    }

    #[test]
    fn replies_are_deduplicated_for_retransmitted_requests() {
        // Tiny client timeout forces retransmissions; execution must remain
        // exactly-once (log length == distinct ops).
        let cfg = RunConfig { client_timeout: 25, max_cycles: 5_000_000, ..config(1, 1, 5, 19) };
        let mut cluster = PbftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 5);
        for node in cluster.nodes() {
            assert_eq!(node.committed_log().len(), 5, "exactly-once execution");
        }
        assert!(report.client_retries > 0, "test must actually exercise retries");
    }

    /// A restarted replica must treat every sequence number its WAL
    /// replayed as dead, not only those below its snapshot: retiring the
    /// agreement windows at the snapshot watermark alone would let a
    /// recovered backup PREPARE a conflicting proposal for a slot it had
    /// already executed.
    #[test]
    fn recovered_replica_refuses_proposals_below_its_replayed_wal() {
        let batch = |tag: &str, seq: u64| {
            Arc::new(Batch::single(Arc::new(Request {
                op: OpId { client: crate::api::ClientId(1), seq },
                payload: format!("SET k {tag}{seq}").into_bytes(),
            })))
        };
        let mut r = PbftReplica::new(ReplicaId(1), 1);
        let commits = (1..=3).map(|seq| (seq, batch("wal", seq))).collect();
        let report = r.recover(RecoveredState { commits, ..Default::default() });
        assert_eq!((report.installed_seq, report.replayed, report.committed), (0, 3, 3));
        let mut out = Outbox::new();
        let conflicting = PbftMsg::PrePrepare { view: 0, seq: 2, batch: batch("evil", 2) };
        let from = Endpoint::Replica(ReplicaId(0));
        r.on_input(Input::Message { from, msg: conflicting }, 10, &mut out);
        assert!(out.msgs.is_empty(), "voted on an executed sequence number: {:?}", out.msgs);
        // The next live slot is still accepted.
        let next = PbftMsg::PrePrepare { view: 0, seq: 4, batch: batch("live", 4) };
        r.on_input(Input::Message { from, msg: next }, 11, &mut out);
        assert!(out.msgs.iter().any(|(_, m)| matches!(m, PbftMsg::Prepare { seq: 4, .. })));
    }
}
