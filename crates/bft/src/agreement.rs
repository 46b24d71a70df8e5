//! The agreement front-end PBFT and MinBFT share: one slot window, one
//! execution loop and one view change, written once.
//!
//! §II-A's active replication runs one ordering pattern under two trust
//! models — 3f+1 PBFT, and 2f+1 MinBFT over a trusted USIG. Both have a
//! primary propose one batch per sequence number, count votes, execute a
//! slot once its quorum is in and every earlier slot has executed, and
//! vote a stalled primary out. [`Agreement<D>`] is the [`Core`] of both:
//! it owns the slots, the stored proposals and the [`ViewLedger`], and a
//! [`Discipline`] `D` supplies what differs.
//!
//! | the front-end owns…                                          | the discipline supplies…        |
//! |--------------------------------------------------------------|---------------------------------|
//! | the slot window and the stored-proposal window               | [`Discipline::Cert`]            |
//! | proposal admission: view, horizon, non-empty batch, first digest wins, assignment | how it certifies the proposal ([`Discipline::on_message`]) |
//! | in-order execution and window retirement                     | [`Discipline::executable`]      |
//! | request intake, re-announcement, the patience and flush timers | [`Discipline::propose`]       |
//! | the prepared-set walk, votes, the f+1 join, the install plan  | [`Discipline::prepared`], [`Discipline::lead`] |
//! | the NEW-VIEW gate: a higher view, from that view's primary   | [`Discipline::follow`]          |
//! | the state-transfer tail and the recovery retirement          | [`Discipline::recovered`]       |
//!
//! The quorum is a constructor argument (PBFT 2f+1, MinBFT f+1). Emission
//! order stays the discipline's: PBFT's new primary sends its PREPAREs
//! before NEW-VIEW, MinBFT's after — outbox order drives the simulator's
//! latency draws.

use crate::adversary::Fault;
use crate::api::{Batch, Endpoint, Outbox, ReplicaId, Request};
use crate::chassis::{Core, Replica};
use crate::checkpoint::CstInstall;
use crate::dense::{ReplicaSet, SeqWindow};
use crate::durable::RecoveredState;
use crate::protocol::Protocol;
use crate::shell::{Carrier, Intake, ShellMsg, TIMER_FLUSH, TIMER_REQUEST};
use crate::viewchange::{PreparedSet, VcVote, ViewLedger};
use std::fmt;
use std::sync::Arc;

/// One agreement slot: the proposal held for a sequence number, the
/// commit votes for it, and the discipline's evidence `C` that it is
/// prepared. Execution removes the slot and retires the window below it,
/// so an executed sequence number is dead, not flagged. (`pub` only so
/// the [`Discipline`] signatures may name it; the module is private.)
#[derive(Debug, Default)]
pub struct Slot<C> {
    pub(crate) batch: Option<Arc<Batch>>,
    pub(crate) digest: Option<[u8; 32]>,
    pub(crate) commits: ReplicaSet,
    pub(crate) sent_commit: bool,
    pub(crate) cert: C,
}

/// What differs between PBFT and MinBFT inside the shared front-end.
pub trait Discipline: Sized + fmt::Debug {
    /// The protocol's wire messages.
    type Msg: Carrier + fmt::Debug;
    /// A slot's evidence that its proposal is prepared.
    type Cert: Default + fmt::Debug;
    /// Which protocol this is.
    const PROTOCOL: Protocol;
    /// Wraps a view-change vote.
    const VIEW_CHANGE: fn(VcVote) -> Self::Msg;

    /// Whether `slot`'s proposal is prepared: it must survive a view change.
    fn prepared(slot: &Slot<Self::Cert>, quorum: usize) -> bool;

    /// Whether `slot`, holding a batch, may execute once every earlier
    /// slot has.
    fn executable(slot: &Slot<Self::Cert>, quorum: usize) -> bool;

    /// Routes one protocol message from replica `link` (never a request or
    /// a [`ShellMsg`]: the chassis routes those).
    fn on_message(
        r: &mut Replica<Agreement<Self>>,
        link: ReplicaId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg>,
    );

    /// Proposes sealed requests as the current view's primary.
    fn propose(
        r: &mut Replica<Agreement<Self>>,
        reqs: Vec<Arc<Request>>,
        out: &mut Outbox<Self::Msg>,
    );

    /// Re-announces this replica's own votes for `seq` after its stored
    /// proposal went out again. By default nothing.
    fn reannounce_commit(_: &mut Replica<Agreement<Self>>, _: u64, _: &mut Outbox<Self::Msg>) {}

    /// Leads the view just installed here, re-proposing `plan`.
    fn lead(r: &mut Replica<Agreement<Self>>, plan: PreparedSet, out: &mut Outbox<Self::Msg>);

    /// Follows the NEW-VIEW of the view just installed here, which carried
    /// `preprepares`.
    fn follow(
        r: &mut Replica<Agreement<Self>>,
        preprepares: PreparedSet,
        out: &mut Outbox<Self::Msg>,
    );

    /// Rejuvenation: forgets the discipline's volatile state.
    fn wipe(&mut self) {}

    /// The discipline's tail after the shell replayed `state` on restart,
    /// before the windows retire below it.
    fn recovered(_: &mut Replica<Agreement<Self>>, _: &RecoveredState) {}

    /// MAC operations performed so far.
    fn mac_count(&self) -> u64 {
        0
    }
}

/// The ordering state PBFT and MinBFT share, around the discipline's own
/// (see the module docs).
#[derive(Debug)]
pub struct Agreement<D: Discipline> {
    /// Agreement slots, watermarked at `shell.exec_upto() + 1` (sequence
    /// 0 is never used, so the window starts at base 1).
    pub(crate) slots: SeqWindow<Slot<D::Cert>>,
    /// This primary's proposals, kept to re-announce on a client retry.
    pub(crate) proposals: SeqWindow<D::Msg>,
    /// The current view and the view changes under way.
    pub(crate) vc: ViewLedger,
    /// Votes that make a slot executable and install a view.
    pub(crate) quorum: usize,
    /// The discipline's own state.
    pub(crate) own: D,
}

impl<D: Discipline> Agreement<D> {
    /// Replica `id`'s front-end in a cluster of `n`, at view 0, deciding
    /// on `quorum` votes.
    pub(crate) fn new(id: ReplicaId, n: u32, quorum: usize, own: D) -> Self {
        Agreement {
            slots: SeqWindow::with_base(1),
            proposals: SeqWindow::with_base(1),
            vc: ViewLedger::new(id, n),
            quorum,
            own,
        }
    }
}

// Everything below is reachable from adversarial input: a Byzantine peer
// (or a forged client) picks the message contents, so a panic here is a
// remote crash. `rsoc_lint` enforces the no-panic contract.
// lint: ingress
impl<D: Discipline> Replica<Agreement<D>> {
    /// The slot of this primary's own proposal `batch` at the fresh `seq`.
    pub(crate) fn own_slot(
        &mut self,
        seq: u64,
        batch: &Arc<Batch>,
        digest: [u8; 32],
    ) -> &mut Slot<D::Cert> {
        // lint: allow(ingress-expect) -- the shell keeps next_seq strictly above exec_upto
        let slot = self.core.slots.get_or_insert_default(seq).expect("fresh seq above watermark");
        slot.batch = Some(batch.clone());
        slot.digest = Some(digest);
        slot
    }

    /// Admits a proposal of `batch` for `seq` in `view`, whoever certified
    /// it: the view must be current, the slot unexecuted and inside the
    /// horizon (refused before the window grows), the batch non-empty
    /// (never proposed by a correct primary), and the first digest to take
    /// the slot keeps it. Returns the digest — the received content's own
    /// (see `Batch`) — and the slot, which now holds the batch.
    pub(crate) fn admit(
        &mut self,
        view: u64,
        seq: u64,
        batch: &Arc<Batch>,
    ) -> Option<([u8; 32], &mut Slot<D::Cert>)> {
        if view != self.core.vc.view() || !self.core.slots.admits(seq) || batch.is_empty() {
            return None;
        }
        let digest = batch.digest();
        let slot = self.core.slots.get_or_insert_default(seq)?;
        if slot.digest.is_some_and(|d| d != digest) {
            return None;
        }
        self.shell.assign(seq, batch);
        slot.batch = Some(batch.clone());
        slot.digest = Some(digest);
        Some((digest, slot))
    }

    /// Executes every slot that is ready, in sequence order, then retires
    /// the windows below the execution watermark.
    pub(crate) fn try_execute(&mut self, out: &mut Outbox<D::Msg>) {
        loop {
            let next = self.shell.exec_upto() + 1;
            let quorum = self.core.quorum;
            let ready = |s: &Slot<D::Cert>| s.batch.is_some() && D::executable(s, quorum);
            if !self.core.slots.get(next).is_some_and(ready) {
                break;
            }
            // Execution consumes the slot; retiring the watermark below
            // makes the sequence number permanently dead.
            let Some(Slot { batch: Some(batch), .. }) = self.core.slots.remove(next) else {
                break; // `ready` saw the batch
            };
            self.shell.execute(next, &batch, |reply| {
                out.send(Endpoint::Client(reply.op.client), ShellMsg::Reply(reply).into());
            });
            self.shell.checkpoint(next, self.script.active(self.now, Fault::ForgeCheckpoint), out);
        }
        self.retire_executed();
    }

    /// Retires the agreement windows below the execution watermark:
    /// executed sequence numbers are dead, never resurrected.
    fn retire_executed(&mut self) {
        let floor = self.shell.exec_upto() + 1;
        self.core.slots.retire_below(floor);
        self.core.proposals.retire_below(floor);
    }

    /// The prepared entries a view change must carry. Every slot still in
    /// the window is unexecuted (execution retires).
    fn prepared_uncommitted(&self) -> PreparedSet {
        self.core
            .slots
            .iter()
            .filter(|(_, s)| D::prepared(s, self.core.quorum))
            .filter_map(|(seq, s)| s.batch.clone().map(|b| (seq, b)))
            .collect()
    }

    /// Votes for `new_view` (once) and checks whether that elects us.
    fn start_view_change(&mut self, new_view: u64, out: &mut Outbox<D::Msg>) {
        let prepared = self.prepared_uncommitted();
        let Some(vote) = self.core.vc.demand(new_view, self.now, prepared, &self.shell) else {
            return;
        };
        out.broadcast(self.n, self.id, D::VIEW_CHANGE(vote));
        self.maybe_install_view(new_view, out);
    }

    /// Counts `voter`'s view-change vote.
    pub(crate) fn on_view_change(
        &mut self,
        voter: ReplicaId,
        vote: VcVote,
        out: &mut Outbox<D::Msg>,
    ) {
        let new_view = vote.new_view;
        let Some(count) = self.core.vc.record(voter, vote, &mut self.shell) else { return };
        // Join once f+1 replicas demand the view: at least one of them is
        // correct, so f Byzantine replicas cannot start a view change
        // alone. (MinBFT could join on one suspicion — UI certificates make
        // false accusations non-amplifiable — but takes the same
        // conservative rule.)
        if count >= (self.f + 1) as usize {
            self.start_view_change(new_view, out);
        }
        self.maybe_install_view(new_view, out);
    }

    /// Installs `new_view` and leads it once its quorum demands it and
    /// this replica is its primary.
    fn maybe_install_view(&mut self, new_view: u64, out: &mut Outbox<D::Msg>) {
        let own = self.prepared_uncommitted();
        let Some(plan) = self.core.vc.plan(new_view, self.core.quorum, own, &self.shell) else {
            return;
        };
        self.shell.resume_at(plan.next_seq);
        self.core.vc.installed(new_view);
        D::lead(self, plan.repropose, out);
    }

    /// Follows a NEW-VIEW for `view`, carrying `preprepares`, if it is
    /// above the current view and came from that view's primary `link`. A
    /// replayed NEW-VIEW for the view in force would reset its votes and
    /// re-run agreement on slots another correct replica may already have
    /// executed.
    pub(crate) fn on_new_view(
        &mut self,
        link: ReplicaId,
        view: u64,
        preprepares: PreparedSet,
        out: &mut Outbox<D::Msg>,
    ) {
        if view <= self.core.vc.view() || link != self.core.vc.primary_of(view) {
            return;
        }
        self.core.vc.installed(view);
        // Re-arm patience for still-pending requests under the new primary.
        self.shell.rearm_patience(out);
        D::follow(self, preprepares, out);
    }
}

// The node-facing routing table: every simulator event enters here.
impl<D: Discipline> Core for Agreement<D> {
    type Msg = D::Msg;
    const PROTOCOL: Protocol = D::PROTOCOL;

    /// Proposes what the shell sealed, or re-announces an op in flight so
    /// replicas that discarded messages during a view change catch up.
    fn intake(r: &mut Replica<Self>, req: Arc<Request>, out: &mut Outbox<D::Msg>) {
        match r.shell.intake(req, r.core.vc.role(), out) {
            Intake::Sealed(reqs) => D::propose(r, reqs, out),
            Intake::Reannounce(seq) => {
                if let Some(proposal) = r.core.proposals.get(seq).cloned() {
                    out.broadcast(r.n, r.id, proposal);
                }
                D::reannounce_commit(r, seq, out);
            }
            Intake::Done => {}
        }
    }

    fn on_message(r: &mut Replica<Self>, link: ReplicaId, msg: D::Msg, out: &mut Outbox<D::Msg>) {
        D::on_message(r, link, msg, out);
    }

    fn on_timer(r: &mut Replica<Self>, kind: u32, token: u64, out: &mut Outbox<D::Msg>) {
        match kind {
            TIMER_REQUEST if r.shell.watching(token) => {
                if let Some(next) = r.core.vc.on_patience_timer(r.now, r.shell.patience()) {
                    r.start_view_change(next, out);
                }
                // Keep watching: if the new view also stalls, escalate.
                out.arm(r.shell.patience(), TIMER_REQUEST, token);
            }
            TIMER_FLUSH => {
                if let Some(reqs) = r.shell.on_flush_timer(token, r.core.vc.is_primary()) {
                    D::propose(r, reqs, out);
                }
            }
            _ => {}
        }
    }

    fn view(&self) -> u64 {
        self.vc.view()
    }

    fn wipe(&mut self) {
        self.slots = SeqWindow::with_base(1);
        self.proposals = SeqWindow::with_base(1);
        self.vc.wipe();
        self.own.wipe();
    }

    fn installed(r: &mut Replica<Self>, plan: &CstInstall, out: &mut Outbox<D::Msg>) {
        // The cluster may have moved on while we were down; join its view,
        // re-arm patience for what is still pending, and resume execution
        // (which retires the windows below the installed watermark).
        r.core.vc.join(plan.view);
        r.shell.rearm_patience(out);
        r.try_execute(out);
    }

    fn recovered(r: &mut Replica<Self>, state: &RecoveredState) {
        D::recovered(r, state);
        // Executed sequence numbers are dead from the first input on — both
        // below the snapshot and below the replayed WAL tail.
        r.retire_executed();
    }

    fn mac_count(&self) -> u64 {
        self.own.mac_count()
    }
}
// lint: end

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::{ClientId, Cluster, Input, OpId, ReplicaNode};
    use crate::chassis::Replicas;
    use crate::dense::SLOT_HORIZON;
    use crate::minbft::{MinBftCluster, MinBftMsg};
    use crate::pbft::{PbftCluster, PbftMsg};
    use crate::runner::RunConfig;

    type Make<D> = fn(&RunConfig) -> Replicas<Agreement<D>>;
    /// Builds a protocol's NEW-VIEW message.
    type NewView<D> = fn(u64, PreparedSet) -> <D as Discipline>::Msg;
    /// Messages in flight: `(sender, destination, message)`.
    type Round<M> = Vec<(ReplicaId, Endpoint, M)>;

    fn vote<D: Discipline>(new_view: u64) -> D::Msg {
        D::VIEW_CHANGE(VcVote { new_view, prepared: Vec::new(), executed_upto: 0, cert: None })
    }

    pub(crate) fn pbft_new_view(view: u64, preprepares: PreparedSet) -> PbftMsg {
        PbftMsg::NewView { view, preprepares }
    }

    pub(crate) fn minbft_new_view(view: u64, _: PreparedSet) -> MinBftMsg {
        MinBftMsg::NewView { view }
    }

    /// The voter is the link, so a vote over a link that is no replica of
    /// the cluster — replica 99's, or a client's — must be refused and
    /// counted, not used as an index (a remote crash).
    pub(crate) fn refuses_votes_from_outside_the_cluster<D: Discipline>(make: Make<D>) {
        let name = D::PROTOCOL.name();
        let mut nodes = make(&RunConfig::default()).into_nodes();
        let r = &mut nodes[1];
        let mut out = Outbox::new();
        for from in [Endpoint::Replica(ReplicaId(99)), Endpoint::Client(ClientId(3))] {
            r.on_input(Input::Message { from, msg: vote::<D>(1) }, 10, &mut out);
        }
        assert_eq!((r.refused(), r.view()), (2, 0), "{name}");
        assert!(out.msgs.is_empty(), "{name}");
    }

    /// One link is one vote: the last replica alone, voting once per
    /// other replica, must not assemble the demands that make replica 1
    /// install view 1 (PBFT: three of four; MinBFT: two of three).
    pub(crate) fn counts_one_vote_per_link<D: Discipline>(make: Make<D>, new_view: NewView<D>)
    where
        D::Msg: PartialEq,
    {
        let name = D::PROTOCOL.name();
        let mut nodes = make(&RunConfig::default()).into_nodes();
        let n = nodes.len() as u32;
        let r = &mut nodes[1];
        let mut out = Outbox::new();
        let link = Endpoint::Replica(ReplicaId(n - 1));
        let others: Vec<u32> = (0..n).filter(|&id| id != 1).collect();
        for _ in &others {
            r.on_input(Input::Message { from: link, msg: vote::<D>(1) }, 10, &mut out);
        }
        assert_eq!((r.refused(), r.view()), (0, 0), "{name}");
        assert!(out.msgs.is_empty(), "{name}: one real demand is below the f+1 join threshold");
        // The other voters, each over its own link, do install it.
        for &voter in &others[..others.len() - 1] {
            let from = Endpoint::Replica(ReplicaId(voter));
            r.on_input(Input::Message { from, msg: vote::<D>(1) }, 11, &mut out);
        }
        assert_eq!((r.refused(), r.view()), (0, 1), "{name}");
        assert!(out.msgs.iter().any(|(_, m)| *m == new_view(1, Vec::new())), "{name}");
    }

    /// View-change votes are trusted above the stable checkpoint, but a
    /// prepared entry past the slot horizon is skipped when the new primary
    /// re-proposes the plan, as an executed one is: the window does not
    /// grow past the horizon (MinBFT's new primary stored it).
    fn skips_reproposals_past_the_horizon<D: Discipline>(make: Make<D>) {
        let name = D::PROTOCOL.name();
        let mut nodes = make(&RunConfig::default()).into_nodes();
        let voters: Vec<u32> = (0..nodes.len() as u32).filter(|&id| id != 1).collect();
        let far = SLOT_HORIZON + 2;
        let r = &mut nodes[1];
        let mut out = Outbox::new();
        for voter in voters {
            let prepared = if voter == 0 { vec![(far, batch_of("far"))] } else { Vec::new() };
            let from = Endpoint::Replica(ReplicaId(voter));
            let msg =
                D::VIEW_CHANGE(VcVote { new_view: 1, prepared, executed_upto: 0, cert: None });
            r.on_input(Input::Message { from, msg }, 10, &mut out);
        }
        assert_eq!(r.view(), 1, "{name}");
        assert_eq!(r.core.slots.len() as u64, far - 1, "{name}: the no-op fillers below it");
        assert!(r.core.slots.get(far).is_none(), "{name}");
    }

    #[test]
    fn a_new_primary_skips_reproposals_past_the_slot_horizon() {
        skips_reproposals_past_the_horizon(PbftCluster::new);
        skips_reproposals_past_the_horizon(MinBftCluster::new);
    }

    /// Delivers every message of `round` addressed to a replica, returning
    /// what the replicas send in reply (client replies are dropped).
    fn deliver<D: Discipline>(
        nodes: &mut [Replica<Agreement<D>>],
        round: Round<D::Msg>,
    ) -> Round<D::Msg> {
        let mut next = Vec::new();
        for (sender, to, msg) in round {
            let Endpoint::Replica(id) = to else { continue };
            let mut out = Outbox::new();
            let from = Endpoint::Replica(sender);
            nodes[id.0 as usize].on_input(Input::Message { from, msg }, 10, &mut out);
            next.extend(out.msgs.into_iter().map(|(to, msg)| (id, to, msg)));
        }
        next
    }

    fn batch_of(tag: &str) -> Arc<Batch> {
        let op = OpId { client: ClientId(1), seq: 1 };
        Arc::new(Batch::single(Arc::new(Request {
            op,
            payload: format!("SET k {tag}").into_bytes(),
        })))
    }

    /// The view-0 primary proposes A at slot 1 and replica 1 alone executes
    /// it: the round of votes that completes replica 1's quorum reaches no
    /// other replica. The primary then replays `NEW-VIEW(0, [(1, B)])` to
    /// the rest. At f = 2 a backup's own vote plus the primary's is below
    /// every commit quorum, so each of them still holds votes for A that
    /// the replay could reset — and, in PBFT, enough of them to re-prepare
    /// and execute B at slot 1 without the primary.
    fn refuses_a_replayed_new_view<D: Discipline>(make: Make<D>, new_view: NewView<D>) {
        let name = D::PROTOCOL.name();
        let mut nodes = make(&RunConfig { f: 2, ..RunConfig::default() }).into_nodes();
        let a = batch_of("A");
        let mut out = Outbox::new();
        let request = D::Msg::from(a.requests()[0].clone());
        nodes[0].on_input(
            Input::Message { from: Endpoint::Client(ClientId(1)), msg: request },
            1,
            &mut out,
        );
        let mut round: Round<D::Msg> =
            out.msgs.into_iter().map(|(to, m)| (ReplicaId(0), to, m)).collect();
        let one = Endpoint::Replica(ReplicaId(1));
        while nodes[1].committed_seq() == 0 && !round.is_empty() {
            let (to_one, rest): (Round<D::Msg>, _) =
                round.into_iter().partition(|(_, to, _)| *to == one);
            round = deliver(&mut nodes, to_one);
            if nodes[1].committed_seq() == 0 {
                round.extend(deliver(&mut nodes, rest));
            }
        }
        assert_eq!(nodes[1].committed_log().first().map(|e| e.digest), Some(a.digest()), "{name}");
        let votes = |r: &Replica<Agreement<D>>| {
            r.core
                .slots
                .iter()
                .map(|(seq, s)| (seq, s.commits.len(), s.sent_commit))
                .collect::<Vec<_>>()
        };
        let held: Vec<_> = nodes[2..].iter().map(votes).collect();
        assert!(held.iter().all(|v| v.len() == 1 && v[0].1 > 0), "{name}: {held:?}");

        let replay = new_view(0, vec![(1, batch_of("B"))]);
        let round: Round<D::Msg> = (2..nodes.len() as u32)
            .map(|id| (ReplicaId(0), Endpoint::Replica(ReplicaId(id)), replay.clone()))
            .collect();
        let mut traffic = deliver(&mut nodes, round);
        let after: Vec<_> = nodes[2..].iter().map(votes).collect();
        for _ in 0..8 {
            traffic = deliver(&mut nodes, traffic);
        }
        for r in &nodes[1..] {
            let digest = r.committed_log().first().map(|e| e.digest);
            assert!(digest.is_none_or(|d| d == a.digest()), "{name}: {:?} executed B", r.id());
        }
        assert_eq!(after, held, "{name}: the replay reset votes");
        assert!(nodes.iter().all(|r| r.view() == 0), "{name}");
    }

    #[test]
    fn a_replayed_new_view_for_the_current_view_is_refused() {
        refuses_a_replayed_new_view(PbftCluster::new, pbft_new_view);
        refuses_a_replayed_new_view(MinBftCluster::new, minbft_new_view);
    }
}
