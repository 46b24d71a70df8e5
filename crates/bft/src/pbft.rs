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
//! [`CheckpointVoucher`](crate::checkpoint::CheckpointVoucher)s form a
//! certificate), truncate their logs and retention rings below the
//! stable watermark, recover long-crashed or rejuvenated peers through
//! **collaborative state transfer** (certificate plus snapshot plus log
//! suffix, the snapshot cross-checked against the certificate before
//! install), and carry the
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
//! per-op dedup/assignment in the shell's open-addressed
//! [`OpIndex`](crate::dense::OpIndex)es, and quorum tallies in
//! [`ReplicaSet`] bitmasks.

use crate::adversary::conflicting_batch;
use crate::api::{Batch, Endpoint, Input, Outbox, ReplicaId, Request};
use crate::chassis::{Core, Replica, Replicas};
use crate::checkpoint::CstInstall;
use crate::codec::SHELL_TAG;
use crate::dense::{ReplicaSet, SeqWindow};
use crate::durable::RecoveredState;
use crate::protocol::Protocol;
use crate::runner::RunConfig;
use crate::shell::{carries_shell, Intake, ShellMsg, TIMER_FLUSH, TIMER_REQUEST};
use crate::viewchange::{PreparedSet, VcVote, ViewLedger};
use std::sync::Arc;

/// PBFT wire messages.
///
/// Rare, bulky variants (the shell's vouchers and transfers) live behind
/// `Box` so the enum's size — and with it every per-event memcpy through
/// the timing-wheel arena — is pinned by the hot agreement variants (see
/// `message_enums_stay_small` in `minbft`).
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
    /// Suspicion of the primary; vote to move to a new view.
    ViewChange(VcVote),
    /// New primary's installation message.
    NewView {
        /// The installed view.
        view: u64,
        /// Re-proposed `(seq, batch)` pairs.
        preprepares: Vec<(u64, Arc<Batch>)>,
    },
    /// A reply, checkpoint voucher or state transfer (see [`ShellMsg`]).
    Shell(ShellMsg),
}

carries_shell!(PbftMsg);

crate::wire! {
    enum PbftMsg {
        0 => Request(req),
        1 => PrePrepare { view, seq, batch },
        2 => Prepare { view, seq, digest, from },
        3 => Commit { view, seq, digest, from },
        5 => ViewChange(vote),
        6 => NewView { view, preprepares },
        SHELL_TAG => Shell(msg),
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

/// PBFT's ordering state: the agreement slots, the proposals stored for
/// re-announcement, and the view.
#[derive(Debug)]
pub struct Pbft {
    /// Agreement slots, watermarked at `shell.exec_upto() + 1` (sequence
    /// 0 is never used, so the window starts at base 1).
    slots: SeqWindow<Slot>,
    stored_preprepares: SeqWindow<PbftMsg>,
    /// The current view and the view changes under way.
    vc: ViewLedger,
}

/// One PBFT replica.
pub type PbftReplica = Replica<Pbft>;

/// A PBFT cluster of `3f+1` replicas.
pub type PbftCluster = Replicas<Pbft>;

impl PbftCluster {
    /// Builds the cluster for `config.f`.
    pub fn new(config: &RunConfig) -> Self {
        Replicas::provision(config, |id| PbftReplica::new(id, config.f))
    }
}

impl PbftReplica {
    /// Creates replica `id` of an `n = 3f+1` cluster, unbatched and
    /// without checkpoints (f+1 vouchers certify one once enabled).
    pub fn new(id: ReplicaId, f: u32) -> Self {
        let n = Protocol::Pbft.replicas(f);
        let core = Pbft {
            slots: SeqWindow::with_base(1),
            stored_preprepares: SeqWindow::with_base(1),
            vc: ViewLedger::new(id, n),
        };
        Replica::assemble(id, n, f, (f + 1) as usize, core)
    }

    /// View-change votes refused because the voter they named was not the
    /// replica that sent them.
    pub fn rejected_votes(&self) -> u64 {
        self.core.vc.rejected()
    }

    fn quorum(&self) -> usize {
        (2 * self.f + 1) as usize
    }

    // Everything below is reachable from adversarial input: a Byzantine
    // peer (or a forged client) picks the message contents, so a panic
    // here is a remote crash. `rsoc_lint` enforces the no-panic contract;
    // the reasoned allows mark invariants the window/state machine holds.
    // lint: ingress
    /// Proposes `reqs` as one batch: one agreement round (and one digest
    /// computation) for up to `batch_size` requests.
    fn propose(&mut self, reqs: Vec<Arc<Request>>, out: &mut Outbox<PbftMsg>) {
        let (seq, batch) = self.shell.open_slot(reqs);
        if self.script.equivocates_at(self.now) {
            self.equivocate(seq, batch, out);
            return;
        }
        let digest = batch.digest();
        let me = self.id;
        // lint: allow(ingress-expect) -- the shell keeps next_seq strictly above exec_upto
        let slot = self.core.slots.get_or_insert_default(seq).expect("fresh seq above watermark");
        slot.batch = Some(batch.clone());
        slot.digest = Some(digest);
        slot.prepares.insert(me);
        let pp = PbftMsg::PrePrepare { view: self.core.vc.view(), seq, batch };
        self.core.stored_preprepares.insert(seq, pp.clone());
        out.broadcast(self.n, self.id, pp);
    }

    /// Answers a client retry for the op in flight at `seq`: re-announce
    /// so replicas that discarded messages during a view change catch up.
    fn reannounce(&mut self, seq: u64, out: &mut Outbox<PbftMsg>) {
        if let Some(pp) = self.core.stored_preprepares.get(seq).cloned() {
            out.broadcast(self.n, self.id, pp);
        }
        self.reannounce_commit(seq, out);
    }

    /// Byzantine primary: proposes conflicting batches for the same
    /// sequence number to two halves of the backups (and votes for both).
    fn equivocate(&mut self, seq: u64, batch: Arc<Batch>, out: &mut Outbox<PbftMsg>) {
        let evil = conflicting_batch(&batch);
        let half = self.n / 2;
        let view = self.core.vc.view();
        for i in 0..self.n {
            if i == self.id.0 {
                continue;
            }
            let b = if i < half { &batch } else { &evil };
            let d = b.digest();
            out.send(
                Endpoint::Replica(ReplicaId(i)),
                PbftMsg::PrePrepare { view, seq, batch: b.clone() },
            );
            out.send(
                Endpoint::Replica(ReplicaId(i)),
                PbftMsg::Prepare { view, seq, digest: d, from: self.id },
            );
            out.send(
                Endpoint::Replica(ReplicaId(i)),
                PbftMsg::Commit { view, seq, digest: d, from: self.id },
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
        if view != self.core.vc.view() {
            return;
        }
        if from != Endpoint::Replica(self.core.vc.primary_of(view)) {
            return; // only the view's primary may pre-prepare
        }
        if batch.is_empty() {
            return; // never proposed by a correct primary
        }
        // Below the watermark = already executed: rejected, never
        // resurrected; past the horizon: refused before the window grows.
        if !self.core.slots.admits(seq) {
            return;
        }
        // The digest is the received content's own (see `Batch`): what is
        // checked is whether it may take the slot.
        let digest = batch.digest();
        let primary = self.core.vc.primary_of(view);
        let me = self.id;
        let Some(slot) = self.core.slots.get_or_insert_default(seq) else { return };
        if let Some(existing) = slot.digest {
            if existing != digest {
                return; // conflicting proposal for the slot: keep the first
            }
        }
        self.shell.assign(seq, &batch);
        // lint: allow(ingress-expect) -- get_or_insert_default above returned Some for this seq
        let slot = self.core.slots.get_mut(seq).expect("slot just ensured");
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
        let view = self.core.vc.view();
        let me = self.id;
        let n = self.n;
        // Executed slots are retired from the window, so a bare `get`
        // already excludes them.
        if let Some(slot) = self.core.slots.get(seq) {
            if slot.sent_commit {
                if let Some(digest) = slot.digest {
                    out.broadcast(n, me, PbftMsg::Commit { view, seq, digest, from: me });
                }
            }
        }
    }

    /// Counts `from`'s PREPARE — or, with `commit`, its COMMIT — for
    /// `digest` at `seq`.
    fn handle_vote(
        &mut self,
        commit: bool,
        view: u64,
        seq: u64,
        digest: [u8; 32],
        from: ReplicaId,
        out: &mut Outbox<PbftMsg>,
    ) {
        if view != self.core.vc.view() || !self.core.slots.admits(seq) {
            return;
        }
        let Some(slot) = self.core.slots.get_or_insert_default(seq) else { return };
        if slot.digest.is_none_or(|d| d == digest) {
            let votes = if commit { &mut slot.commits } else { &mut slot.prepares };
            votes.insert(from);
        }
        self.maybe_advance(seq, out);
    }

    /// Drives a slot through prepared → committed → executed.
    fn maybe_advance(&mut self, seq: u64, out: &mut Outbox<PbftMsg>) {
        let quorum = self.quorum();
        let (send_commit, view, digest) = {
            let Some(slot) = self.core.slots.get_mut(seq) else { return };
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
            (send_commit, self.core.vc.view(), slot.digest.expect("digest set"))
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
            let ready = match self.core.slots.get(next) {
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
            let slot = self.core.slots.remove(next).expect("checked");
            // lint: allow(ingress-expect) -- `ready` above proved batch.is_some()
            let batch = slot.batch.expect("checked");
            // lint: allow(ingress-expect) -- sent_commit is only set after the digest is stored
            let digest = slot.digest.expect("checked");
            self.shell.execute(next, &batch, digest, |reply| {
                out.send(Endpoint::Client(reply.op.client), ShellMsg::Reply(reply).into());
            });
            self.shell.checkpoint(next, self.script.forges_checkpoint_at(self.now), out);
        }
        self.retire_executed();
    }

    /// Retires the agreement windows below the execution watermark:
    /// executed sequence numbers are dead, never resurrected.
    fn retire_executed(&mut self) {
        let floor = self.shell.exec_upto() + 1;
        self.core.slots.retire_below(floor);
        self.core.stored_preprepares.retire_below(floor);
    }

    fn prepared_uncommitted(&self) -> PreparedSet {
        let quorum = self.quorum();
        // Every slot still in the window is unexecuted (execution retires).
        self.core
            .slots
            .iter()
            .filter(|(_, s)| s.prepares.len() >= quorum)
            .filter_map(|(seq, s)| s.batch.clone().map(|b| (seq, b)))
            .collect()
    }

    /// Votes for `new_view` (once) and checks whether that elects us.
    fn start_view_change(&mut self, new_view: u64, out: &mut Outbox<PbftMsg>) {
        let prepared = self.prepared_uncommitted();
        let Some(vote) = self.core.vc.demand(new_view, self.now, prepared, &self.shell) else {
            return;
        };
        out.broadcast(self.n, self.id, PbftMsg::ViewChange(vote));
        self.maybe_install_view(new_view, out);
    }

    fn handle_view_change(&mut self, from: Endpoint, vote: VcVote, out: &mut Outbox<PbftMsg>) {
        let new_view = vote.new_view;
        let Some(count) = self.core.vc.record(from, vote, &mut self.shell) else { return };
        // Join the view change once f+1 replicas demand it.
        if count >= (self.f + 1) as usize {
            self.start_view_change(new_view, out);
        }
        self.maybe_install_view(new_view, out);
    }

    /// Becomes primary of `new_view` once 2f+1 replicas demand it.
    fn maybe_install_view(&mut self, new_view: u64, out: &mut Outbox<PbftMsg>) {
        let own = self.prepared_uncommitted();
        let Some(plan) = self.core.vc.plan(new_view, self.quorum(), own, &self.shell) else {
            return;
        };
        self.shell.resume_at(plan.next_seq);
        // Install locally.
        self.install_new_view(new_view, &plan.repropose, out);
        out.broadcast(
            self.n,
            self.id,
            PbftMsg::NewView { view: new_view, preprepares: plan.repropose },
        );
    }

    fn install_new_view(
        &mut self,
        view: u64,
        preprepares: &[(u64, Arc<Batch>)],
        out: &mut Outbox<PbftMsg>,
    ) {
        self.core.vc.installed(view);
        // Reset vote state for uncommitted slots (everything still in the
        // window); re-run agreement in the new view.
        for slot in self.core.slots.values_mut() {
            slot.prepares.clear();
            slot.commits.clear();
            slot.sent_commit = false;
        }
        for (seq, batch) in preprepares {
            if !self.core.slots.admits(*seq) {
                continue; // executed (dead, not resurrectable) or past the horizon
            }
            let digest = batch.digest();
            let primary = self.core.vc.primary_of(view);
            let me = self.id;
            self.shell.assign(*seq, batch);
            // lint: allow(ingress-expect) -- admits() continued the loop just above
            let slot = self.core.slots.get_or_insert_default(*seq).expect("not retired");
            slot.batch = Some(batch.clone());
            slot.digest = Some(digest);
            slot.prepares.insert(primary);
            slot.prepares.insert(me);
            if primary == me {
                self.core
                    .stored_preprepares
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
        if view <= self.core.vc.view() && self.core.vc.view() != 0 {
            return;
        }
        if from != Endpoint::Replica(self.core.vc.primary_of(view)) {
            return;
        }
        self.install_new_view(view, &preprepares, out);
        // Re-arm patience for still-pending requests under the new primary.
        self.shell.rearm_patience(out);
    }
}

// The node-facing routing table: every simulator event enters here.
impl Core for Pbft {
    type Msg = PbftMsg;
    const PROTOCOL: Protocol = Protocol::Pbft;
    const REQUEST: fn(Arc<Request>) -> PbftMsg = PbftMsg::Request;

    fn dispatch(r: &mut PbftReplica, input: Input<PbftMsg>, out: &mut Outbox<PbftMsg>) {
        match input {
            Input::Message { from, msg } => match msg {
                PbftMsg::Request(req) => match r.shell.intake(req, r.core.vc.role(), out) {
                    Intake::Sealed(reqs) => r.propose(reqs, out),
                    Intake::Reannounce(seq) => r.reannounce(seq, out),
                    Intake::Done => {}
                },
                PbftMsg::PrePrepare { view, seq, batch } => {
                    r.handle_preprepare(from, view, seq, batch, out)
                }
                // A vote counts only from its voter's own link: one link
                // naming three ids is one replica, not a quorum.
                PbftMsg::Prepare { view, seq, digest, from: voter }
                    if from == Endpoint::Replica(voter) =>
                {
                    r.handle_vote(false, view, seq, digest, voter, out)
                }
                PbftMsg::Commit { view, seq, digest, from: voter }
                    if from == Endpoint::Replica(voter) =>
                {
                    r.handle_vote(true, view, seq, digest, voter, out)
                }
                PbftMsg::ViewChange(vote) => r.handle_view_change(from, vote, out),
                PbftMsg::NewView { view, preprepares } => {
                    r.handle_new_view(view, preprepares, from, out)
                }
                PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } | PbftMsg::Shell(_) => {}
            },
            Input::Timer { kind: TIMER_REQUEST, token } if r.shell.watching(token) => {
                if let Some(next) = r.core.vc.on_patience_timer(r.now, r.shell.patience()) {
                    r.start_view_change(next, out);
                }
                // Keep watching: if the new view also stalls, escalate.
                out.arm(r.shell.patience(), TIMER_REQUEST, token);
            }
            Input::Timer { kind: TIMER_FLUSH, token } => {
                if let Some(reqs) = r.shell.on_flush_timer(token, r.core.vc.is_primary()) {
                    r.propose(reqs, out);
                }
            }
            Input::Timer { .. } => {}
        }
    }

    fn view(&self) -> u64 {
        self.vc.view()
    }

    fn wipe(&mut self) {
        self.slots = SeqWindow::with_base(1);
        self.stored_preprepares = SeqWindow::with_base(1);
        self.vc.wipe();
    }

    fn installed(r: &mut PbftReplica, plan: &CstInstall, out: &mut Outbox<PbftMsg>) {
        // The cluster may have moved on while we were down; join its view,
        // re-arm patience for what is still pending, and resume execution
        // (which retires the windows below the installed watermark).
        r.core.vc.join(plan.view);
        r.shell.rearm_patience(out);
        r.try_execute(out);
    }

    fn recovered(r: &mut PbftReplica, _: &RecoveredState) {
        // Executed sequence numbers are dead from the first input on — both
        // below the snapshot and below the replayed WAL tail.
        r.retire_executed();
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Behavior;
    use crate::api::{ClientId, Cluster, OpId, ReplicaNode};
    use crate::codec::{decode_frame, encode_frame, Wire};
    use crate::dense::SLOT_HORIZON;
    use crate::runner::{run, RunConfig};
    use rsoc_crypto::sha256;

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
                op: OpId { client: ClientId(1), seq },
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

    /// A batch has no digest but its own content's: one decoded from a
    /// tampered frame carries the digest of the bytes received, so it can
    /// neither take a slot prepared for the original nor count toward it.
    #[test]
    fn a_tampered_batch_carries_its_own_digest_and_cannot_take_a_prepared_slot() {
        let good = Arc::new(Batch::single(Arc::new(Request {
            op: OpId { client: ClientId(1), seq: 1 },
            payload: b"SET k good".to_vec(),
        })));
        let proposal = PbftMsg::PrePrepare { view: 0, seq: 1, batch: good.clone() };
        let mut frame = Vec::new();
        encode_frame(&proposal, &mut frame);
        // The frame ends with the payload: flip its last byte.
        if let Some(last) = frame.last_mut() {
            *last ^= 0x01;
        }
        let Some(PbftMsg::PrePrepare { batch: tampered, .. }) = decode_frame(&frame) else {
            panic!("a tampered payload is still a well-formed frame");
        };
        let mut received = Vec::new();
        tampered.encode(&mut received);
        assert_eq!(tampered.digest(), sha256(&received), "the digest of what was received");
        assert_ne!(tampered.digest(), good.digest());

        let mut r = PbftReplica::new(ReplicaId(1), 1);
        let mut out = Outbox::new();
        let mut deliver = |r: &mut PbftReplica, from: u32, msg: PbftMsg| {
            let from = Endpoint::Replica(ReplicaId(from));
            r.on_input(Input::Message { from, msg }, 10, &mut out);
            std::mem::take(&mut out.msgs)
        };
        deliver(&mut r, 0, proposal);
        let mut sent = Vec::new();
        for from in [2, 3] {
            let prepare =
                PbftMsg::Prepare { view: 0, seq: 1, digest: good.digest(), from: ReplicaId(from) };
            sent.extend(deliver(&mut r, from, prepare));
        }
        assert!(sent.iter().any(|(_, m)| matches!(m, PbftMsg::Commit { .. })), "prepared");
        let proposal = PbftMsg::PrePrepare { view: 0, seq: 1, batch: tampered.clone() };
        assert!(deliver(&mut r, 0, proposal).is_empty(), "a second proposal for the slot");
        for from in [0, 2, 3] {
            let commit = PbftMsg::Commit {
                view: 0,
                seq: 1,
                digest: tampered.digest(),
                from: ReplicaId(from),
            };
            deliver(&mut r, from, commit);
        }
        assert_eq!(r.committed_seq(), 0, "votes for the tampered digest do not count");
        for from in [0, 2] {
            let commit =
                PbftMsg::Commit { view: 0, seq: 1, digest: good.digest(), from: ReplicaId(from) };
            deliver(&mut r, from, commit);
        }
        assert_eq!(r.committed_log()[0].digest, good.digest());
    }

    /// One unauthenticated message naming a slot far past the watermark
    /// must not grow the agreement window to it: a COMMIT for slot 2^24
    /// took a replica from 2 MiB to 1 GiB, one for 2^28 aborted it. Every
    /// ingress that names a slot refuses it; a COMMIT exactly at the
    /// horizon is still taken.
    #[test]
    fn a_commit_past_the_slot_horizon_leaves_the_window_alone() {
        let batch = Arc::new(Batch::single(Arc::new(Request {
            op: OpId { client: ClientId(1), seq: 1 },
            payload: b"SET k far".to_vec(),
        })));
        let digest = batch.digest();
        let mut r = PbftReplica::new(ReplicaId(2), 1);
        let capacity = r.core.slots.capacity();
        let mut out = Outbox::new();
        for seq in [SLOT_HORIZON + 2, 1 << 28, u64::MAX] {
            for (from, msg) in [
                (0, PbftMsg::PrePrepare { view: 0, seq, batch: batch.clone() }),
                (3, PbftMsg::Prepare { view: 0, seq, digest, from: ReplicaId(3) }),
                (3, PbftMsg::Commit { view: 0, seq, digest, from: ReplicaId(3) }),
            ] {
                let from = Endpoint::Replica(ReplicaId(from));
                r.on_input(Input::Message { from, msg }, 10, &mut out);
                assert_eq!(
                    (r.core.slots.len(), r.core.slots.capacity()),
                    (0, capacity),
                    "slot {seq}"
                );
            }
        }
        // A NEW-VIEW entry past the horizon is skipped like an executed one.
        let far = vec![(SLOT_HORIZON + 2, batch.clone())];
        let new_view = PbftMsg::NewView { view: 1, preprepares: far };
        r.on_input(
            Input::Message { from: Endpoint::Replica(ReplicaId(1)), msg: new_view },
            11,
            &mut out,
        );
        assert_eq!((r.view(), r.core.slots.len(), r.core.slots.capacity()), (1, 0, capacity));
        assert!(out.msgs.is_empty(), "voted past the horizon: {:?}", out.msgs);

        let at = 1 + SLOT_HORIZON;
        let commit = PbftMsg::Commit { view: 1, seq: at, digest, from: ReplicaId(3) };
        r.on_input(
            Input::Message { from: Endpoint::Replica(ReplicaId(3)), msg: commit },
            12,
            &mut out,
        );
        assert_eq!(r.core.slots.get(at).map(|s| s.commits.len()), Some(1));
    }

    fn vote(new_view: u64, from: u32) -> PbftMsg {
        PbftMsg::ViewChange(VcVote {
            new_view,
            from: ReplicaId(from),
            prepared: Vec::new(),
            executed_upto: 0,
            cert: None,
        })
    }

    /// The voter id is wire-supplied: one naming a replica outside the
    /// cluster must be refused, not used as an index (a remote crash).
    #[test]
    fn view_change_vote_from_outside_the_cluster_is_refused() {
        let mut r = PbftReplica::new(ReplicaId(1), 1);
        let mut out = Outbox::new();
        for link in [3, 99] {
            let from = Endpoint::Replica(ReplicaId(link));
            r.on_input(Input::Message { from, msg: vote(1, 99) }, 10, &mut out);
        }
        assert_eq!((r.rejected_votes(), r.view()), (2, 0));
        assert!(out.msgs.is_empty());
    }

    /// One endpoint is one vote: replica 3 alone, claiming to be 0, 2 and
    /// 3 in turn, must not assemble the 2f+1 demands that make replica 1
    /// install view 1.
    #[test]
    fn one_link_cannot_forge_a_view_change_quorum() {
        let mut r = PbftReplica::new(ReplicaId(1), 1);
        let mut out = Outbox::new();
        let link = Endpoint::Replica(ReplicaId(3));
        for claimed in [0, 2, 3] {
            r.on_input(Input::Message { from: link, msg: vote(1, claimed) }, 10, &mut out);
        }
        assert_eq!((r.rejected_votes(), r.view()), (2, 0));
        assert!(out.msgs.is_empty(), "one real demand is below the f+1 join threshold");
        // The same votes over their voters' own links do install it.
        for voter in [0, 2] {
            let from = Endpoint::Replica(ReplicaId(voter));
            r.on_input(Input::Message { from, msg: vote(1, voter) }, 11, &mut out);
        }
        assert_eq!((r.rejected_votes(), r.view()), (2, 1));
        assert!(out.msgs.iter().any(|(_, m)| matches!(m, PbftMsg::NewView { view: 1, .. })));
    }

    /// The same holds for the agreement votes: replica 3 alone, naming 0,
    /// 2 and 3 in its PREPAREs and COMMITs, must not make replica 1 execute
    /// a slot — on a fresh slot that would let one Byzantine primary commit
    /// both halves of an equivocation.
    #[test]
    fn one_link_cannot_forge_a_commit_quorum() {
        let batch = Arc::new(Batch::single(Arc::new(Request {
            op: OpId { client: ClientId(1), seq: 1 },
            payload: b"SET k v".to_vec(),
        })));
        let digest = batch.digest();
        let mut r = PbftReplica::new(ReplicaId(1), 1);
        let mut out = Outbox::new();
        let proposal = PbftMsg::PrePrepare { view: 0, seq: 1, batch };
        let primary = Endpoint::Replica(ReplicaId(0));
        r.on_input(Input::Message { from: primary, msg: proposal }, 10, &mut out);
        let vote = |r: &mut PbftReplica, link: u32, voter: u32| {
            let (from, voter) = (Endpoint::Replica(ReplicaId(link)), ReplicaId(voter));
            let mut out = Outbox::new();
            for msg in [
                PbftMsg::Prepare { view: 0, seq: 1, digest, from: voter },
                PbftMsg::Commit { view: 0, seq: 1, digest, from: voter },
            ] {
                r.on_input(Input::Message { from, msg }, 11, &mut out);
            }
        };
        for claimed in [0, 2, 3] {
            vote(&mut r, 3, claimed);
        }
        assert_eq!(r.committed_seq(), 0, "one link voted three times");
        // The same votes over their voters' own links do commit it.
        for voter in [0, 2] {
            vote(&mut r, voter, voter);
        }
        assert_eq!(r.committed_seq(), 1);
    }
}
