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
//! The slot window, execution, intake and the view change are the
//! agreement front-end MinBFT shares (`agreement.rs`); this file keeps how
//! PBFT certifies a proposal — PRE-PREPARE, then PREPARE and COMMIT votes
//! tallied in [`ReplicaSet`] bitmasks — and how its new primary leads.

use crate::adversary::{conflicting_batch, Fault};
use crate::agreement::{Agreement, Discipline, Slot};
use crate::api::{Batch, Endpoint, Outbox, ReplicaId, Request};
use crate::chassis::{Replica, Replicas};
use crate::codec::SHELL_TAG;
use crate::dense::ReplicaSet;
use crate::protocol::Protocol;
use crate::runner::RunConfig;
use crate::shell::{carries_shell, ShellMsg};
use crate::viewchange::{PreparedSet, VcVote};
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
    /// Backup's agreement to the proposal (the voter is its link).
    Prepare {
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Request digest.
        digest: [u8; 32],
    },
    /// Commit vote after the prepared certificate is reached (the voter is
    /// its link).
    Commit {
        /// View.
        view: u64,
        /// Sequence.
        seq: u64,
        /// Request digest.
        digest: [u8; 32],
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
        2 => Prepare { view, seq, digest },
        3 => Commit { view, seq, digest },
        5 => ViewChange(vote),
        6 => NewView { view, preprepares },
        SHELL_TAG => Shell(msg),
    }
}

/// PBFT's discipline: a slot is prepared by the PREPARE voters it holds,
/// and PBFT keeps no state of its own beyond the agreement front-end it
/// shares with MinBFT.
#[derive(Debug)]
pub struct Pbft;

/// One PBFT replica.
pub type PbftReplica = Replica<Agreement<Pbft>>;

/// A PBFT cluster of `3f+1` replicas.
pub type PbftCluster = Replicas<Agreement<Pbft>>;

impl PbftCluster {
    /// Builds the cluster for `config.f`.
    pub fn new(config: &RunConfig) -> Self {
        Replicas::provision(config, |id| PbftReplica::new(id, config.f))
    }
}

impl PbftReplica {
    /// Creates replica `id` of an `n = 3f+1` cluster, unbatched and
    /// without checkpoints (f+1 vouchers certify one once enabled). Slots
    /// prepare, commit and views install on 2f+1 votes.
    pub fn new(id: ReplicaId, f: u32) -> Self {
        let n = Protocol::Pbft.replicas(f);
        let core = Agreement::new(id, n, (2 * f + 1) as usize, Pbft);
        Replica::assemble(id, n, f, (f + 1) as usize, core)
    }

    // Everything below is reachable from adversarial input: a Byzantine
    // peer (or a forged client) picks the message contents, so a panic
    // here is a remote crash. `rsoc_lint` enforces the no-panic contract;
    // the reasoned allows mark invariants the window/state machine holds.
    // lint: ingress
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
            let (to, digest) = (Endpoint::Replica(ReplicaId(i)), b.digest());
            out.send(to, PbftMsg::PrePrepare { view, seq, batch: b.clone() });
            out.send(to, PbftMsg::Prepare { view, seq, digest });
            out.send(to, PbftMsg::Commit { view, seq, digest });
        }
    }

    fn handle_preprepare(
        &mut self,
        link: ReplicaId,
        view: u64,
        seq: u64,
        batch: Arc<Batch>,
        out: &mut Outbox<PbftMsg>,
    ) {
        let (primary, me) = (self.core.vc.primary_of(view), self.id);
        if link != primary {
            return; // only the view's primary may pre-prepare
        }
        let Some((digest, slot)) = self.admit(view, seq, &batch) else { return };
        slot.cert.insert(primary);
        slot.cert.insert(me);
        out.broadcast(self.n, self.id, PbftMsg::Prepare { view, seq, digest });
        Pbft::reannounce_commit(self, seq, out);
        self.maybe_advance(seq, out);
    }

    /// Counts `voter`'s PREPARE — or, with `commit`, its COMMIT — for
    /// `digest` at `seq`.
    fn handle_vote(
        &mut self,
        commit: bool,
        view: u64,
        seq: u64,
        digest: [u8; 32],
        voter: ReplicaId,
        out: &mut Outbox<PbftMsg>,
    ) {
        if view != self.core.vc.view() || !self.core.slots.admits(seq) {
            return;
        }
        let Some(slot) = self.core.slots.get_or_insert_default(seq) else { return };
        if slot.digest.is_none_or(|d| d == digest) {
            let votes = if commit { &mut slot.commits } else { &mut slot.cert };
            votes.insert(voter);
        }
        self.maybe_advance(seq, out);
    }

    /// Drives a slot through prepared → committed → executed.
    fn maybe_advance(&mut self, seq: u64, out: &mut Outbox<PbftMsg>) {
        let (quorum, me) = (self.core.quorum, self.id);
        let Some(slot) = self.core.slots.get_mut(seq) else { return };
        let Some(digest) = slot.digest else { return };
        if slot.cert.len() >= quorum && !slot.sent_commit {
            slot.sent_commit = true;
            slot.commits.insert(me);
            let view = self.core.vc.view();
            out.broadcast(self.n, me, PbftMsg::Commit { view, seq, digest });
        }
        self.try_execute(out);
    }

    /// Re-runs agreement on `preprepares` in the view just installed: every
    /// vote for a slot still in the window is reset, and each entry is
    /// PREPARED afresh — the primary keeps it for re-announcement.
    fn reprepare(&mut self, preprepares: &[(u64, Arc<Batch>)], out: &mut Outbox<PbftMsg>) {
        let view = self.core.vc.view();
        for slot in self.core.slots.values_mut() {
            slot.cert.clear();
            slot.commits.clear();
            slot.sent_commit = false;
        }
        let (primary, me) = (self.core.vc.primary_of(view), self.id);
        for (seq, batch) in preprepares {
            if !self.core.slots.admits(*seq) {
                continue; // executed (dead, not resurrectable) or past the horizon
            }
            let digest = batch.digest();
            self.shell.assign(*seq, batch);
            // lint: allow(ingress-expect) -- admits() continued the loop just above
            let slot = self.core.slots.get_or_insert_default(*seq).expect("admitted");
            slot.batch = Some(batch.clone());
            slot.digest = Some(digest);
            slot.cert.insert(primary);
            slot.cert.insert(me);
            if primary == me {
                let pp = PbftMsg::PrePrepare { view, seq: *seq, batch: batch.clone() };
                self.core.proposals.insert(*seq, pp);
            }
            out.broadcast(self.n, me, PbftMsg::Prepare { view, seq: *seq, digest });
        }
        for (seq, _) in preprepares {
            self.maybe_advance(*seq, out);
        }
    }
}

impl Discipline for Pbft {
    type Msg = PbftMsg;
    /// The replicas whose PREPARE (or PRE-PREPARE) for the slot's digest
    /// arrived in the current view.
    type Cert = ReplicaSet;
    const PROTOCOL: Protocol = Protocol::Pbft;
    const VIEW_CHANGE: fn(VcVote) -> PbftMsg = PbftMsg::ViewChange;

    fn prepared(slot: &Slot<ReplicaSet>, quorum: usize) -> bool {
        slot.cert.len() >= quorum
    }

    fn executable(slot: &Slot<ReplicaSet>, quorum: usize) -> bool {
        slot.sent_commit && slot.commits.len() >= quorum
    }

    fn on_message(r: &mut PbftReplica, link: ReplicaId, msg: PbftMsg, out: &mut Outbox<PbftMsg>) {
        match msg {
            PbftMsg::PrePrepare { view, seq, batch } => {
                r.handle_preprepare(link, view, seq, batch, out)
            }
            PbftMsg::Prepare { view, seq, digest } => {
                r.handle_vote(false, view, seq, digest, link, out)
            }
            PbftMsg::Commit { view, seq, digest } => {
                r.handle_vote(true, view, seq, digest, link, out)
            }
            PbftMsg::ViewChange(vote) => r.on_view_change(link, vote, out),
            PbftMsg::NewView { view, preprepares } => r.on_new_view(link, view, preprepares, out),
            PbftMsg::Request(_) | PbftMsg::Shell(_) => {}
        }
    }

    /// Proposes `reqs` as one batch: one agreement round (and one digest
    /// computation) for up to `batch_size` requests.
    fn propose(r: &mut PbftReplica, reqs: Vec<Arc<Request>>, out: &mut Outbox<PbftMsg>) {
        let (seq, batch) = r.shell.open_slot(reqs);
        if r.script.active(r.now, Fault::Equivocate) {
            r.equivocate(seq, batch, out);
            return;
        }
        let me = r.id;
        r.own_slot(seq, &batch, batch.digest()).cert.insert(me);
        let pp = PbftMsg::PrePrepare { view: r.core.vc.view(), seq, batch };
        r.core.proposals.insert(seq, pp.clone());
        out.broadcast(r.n, me, pp);
    }

    /// Rebroadcasts this replica's COMMIT for `seq` if it has already voted
    /// — heals peers that discarded the original during a view change.
    fn reannounce_commit(r: &mut PbftReplica, seq: u64, out: &mut Outbox<PbftMsg>) {
        // Executed slots are retired from the window, so a bare `get`
        // already excludes them.
        let Some(slot) = r.core.slots.get(seq) else { return };
        if let (true, Some(digest)) = (slot.sent_commit, slot.digest) {
            let (view, me) = (r.core.vc.view(), r.id);
            out.broadcast(r.n, me, PbftMsg::Commit { view, seq, digest });
        }
    }

    /// Re-prepares the plan, then announces it.
    fn lead(r: &mut PbftReplica, plan: PreparedSet, out: &mut Outbox<PbftMsg>) {
        r.reprepare(&plan, out);
        let view = r.core.vc.view();
        out.broadcast(r.n, r.id, PbftMsg::NewView { view, preprepares: plan });
    }

    fn follow(r: &mut PbftReplica, preprepares: PreparedSet, out: &mut Outbox<PbftMsg>) {
        r.reprepare(&preprepares, out);
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Behavior, LinkFault, Scenario, Window};
    use crate::api::{ClientId, Cluster, Input, OpId, ReplicaNode};
    use crate::codec::{decode_frame, encode_frame, Wire};
    use crate::dense::SLOT_HORIZON;
    use crate::durable::RecoveredState;
    use crate::runner::{run, run_scenario, RunConfig};
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
        let cfg = RunConfig { max_cycles: 5_000_000, ..config(1, 1, 8, 17) };
        let loss = Scenario::none().link_fault(LinkFault {
            source: None,
            dest: None,
            window: Window::ALWAYS,
            drop_rate: 0.05,
            extra_delay: 0,
        });
        let mut cluster = PbftCluster::new(&cfg);
        let out = run_scenario(&mut cluster, &cfg, &loss);
        assert_eq!(out.report.committed, 8);
        assert!(out.report.safety_ok);
        assert!(out.script_drops > 0, "the link fault must actually drop messages");
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
            let prepare = PbftMsg::Prepare { view: 0, seq: 1, digest: good.digest() };
            sent.extend(deliver(&mut r, from, prepare));
        }
        assert!(sent.iter().any(|(_, m)| matches!(m, PbftMsg::Commit { .. })), "prepared");
        let proposal = PbftMsg::PrePrepare { view: 0, seq: 1, batch: tampered.clone() };
        assert!(deliver(&mut r, 0, proposal).is_empty(), "a second proposal for the slot");
        for from in [0, 2, 3] {
            deliver(&mut r, from, PbftMsg::Commit { view: 0, seq: 1, digest: tampered.digest() });
        }
        assert_eq!(r.committed_seq(), 0, "votes for the tampered digest do not count");
        for from in [0, 2] {
            deliver(&mut r, from, PbftMsg::Commit { view: 0, seq: 1, digest: good.digest() });
        }
        assert_eq!(r.committed_log().first().map(|e| e.digest), Some(good.digest()));
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
                (3, PbftMsg::Prepare { view: 0, seq, digest }),
                (3, PbftMsg::Commit { view: 0, seq, digest }),
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
        let commit = PbftMsg::Commit { view: 1, seq: at, digest };
        r.on_input(
            Input::Message { from: Endpoint::Replica(ReplicaId(3)), msg: commit },
            12,
            &mut out,
        );
        assert_eq!(r.core.slots.get(at).map(|s| s.commits.len()), Some(1));
    }

    /// Replica 1 of four, holding the primary's PRE-PREPARE for slot 1 and
    /// a vote-casting helper: `vote(r, link)` delivers a PREPARE and a
    /// COMMIT for the slot over `link`.
    fn preprepared() -> (PbftReplica, impl Fn(&mut PbftReplica, Endpoint)) {
        let batch = Arc::new(Batch::single(Arc::new(Request {
            op: OpId { client: ClientId(1), seq: 1 },
            payload: b"SET k v".to_vec(),
        })));
        let digest = batch.digest();
        let mut r = PbftReplica::new(ReplicaId(1), 1);
        let proposal = PbftMsg::PrePrepare { view: 0, seq: 1, batch };
        let primary = Endpoint::Replica(ReplicaId(0));
        r.on_input(Input::Message { from: primary, msg: proposal }, 10, &mut Outbox::new());
        let vote = move |r: &mut PbftReplica, from: Endpoint| {
            let mut out = Outbox::new();
            for msg in [
                PbftMsg::Prepare { view: 0, seq: 1, digest },
                PbftMsg::Commit { view: 0, seq: 1, digest },
            ] {
                r.on_input(Input::Message { from, msg }, 11, &mut out);
            }
        };
        (r, vote)
    }

    /// The same holds for the agreement votes: replica 3 alone, voting
    /// three times over its link, must not make replica 1 execute a slot —
    /// on a fresh slot that would let one Byzantine primary commit both
    /// halves of an equivocation.
    #[test]
    fn one_link_cannot_forge_a_commit_quorum() {
        let (mut r, vote) = preprepared();
        for _ in 0..3 {
            vote(&mut r, Endpoint::Replica(ReplicaId(3)));
        }
        assert_eq!(r.committed_seq(), 0, "one link voted three times");
        // The votes over links 0 and 2 do commit it.
        for voter in [0, 2] {
            vote(&mut r, Endpoint::Replica(ReplicaId(voter)));
        }
        assert_eq!(r.committed_seq(), 1);
    }

    /// Links 4 and 5 are no replicas of an f = 1 cluster (ids 0–3): their
    /// PREPAREs and COMMITs are refused and counted, not the two votes
    /// that would complete replica 1's quorums without any other replica
    /// of the cluster.
    #[test]
    fn votes_over_links_outside_the_cluster_cannot_commit_a_slot() {
        let (mut r, vote) = preprepared();
        for link in [4, 5] {
            vote(&mut r, Endpoint::Replica(ReplicaId(link)));
        }
        assert_eq!((r.committed_seq(), r.refused()), (0, 4));
        for voter in [0, 2] {
            vote(&mut r, Endpoint::Replica(ReplicaId(voter)));
        }
        assert_eq!(r.committed_seq(), 1);
    }

    /// A view-change vote over a link outside the cluster is refused.
    #[test]
    fn view_change_vote_from_outside_the_cluster_is_refused() {
        crate::agreement::tests::refuses_votes_from_outside_the_cluster(PbftCluster::new);
    }

    /// One link is one vote: one link voting once per other replica must
    /// not assemble the demands that install the next view.
    #[test]
    fn one_link_cannot_forge_a_view_change_quorum() {
        use crate::agreement::tests::{counts_one_vote_per_link, pbft_new_view};
        counts_one_vote_per_link(PbftCluster::new, pbft_new_view);
    }
}
