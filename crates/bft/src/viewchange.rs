//! The view-change ledger: which replicas demand which view, when this
//! replica last demanded one, and what a newly elected primary must
//! re-propose — written once for PBFT and MinBFT.
//!
//! Both protocols replace a suspected primary the same way: a backup whose
//! request patience runs out broadcasts a [`VcVote`] for the next view
//! (carrying its prepared-but-unexecuted entries, its execution watermark
//! and its stable checkpoint certificate), replicas that see f+1 demands
//! join in, and the primary-elect installs the view once its quorum of
//! votes is in, re-proposing everything that may have committed anywhere.
//! The `ViewLedger` owns that bookkeeping:
//!
//! | the agreement front-end calls…              | when                                      |
//! |----------------------------------------------|-------------------------------------------|
//! | `ViewLedger::on_patience_timer`              | a watched request's patience timer fires  |
//! | `ViewLedger::demand`                         | it decides to vote for a view             |
//! | `ViewLedger::record`                         | a peer's vote arrives                     |
//! | `ViewLedger::plan`                           | after either, to see whether it now leads |
//! | `ViewLedger::installed` / `ViewLedger::join` | a view took effect here                   |
//!
//! The front-end (`crate::agreement`) makes those calls once for both
//! protocols; what differs stays with each protocol's discipline: the
//! install quorum (2f+1 against f+1), which slots count as prepared, and
//! how a plan is installed (PBFT re-runs agreement under a NEW-VIEW,
//! MinBFT re-issues UI-certified PREPAREs).
//!
//! # Trust boundary
//!
//! A vote names no voter: the voter is the replica whose link it arrived
//! on, which the chassis resolved to a replica of this cluster, so one
//! link is one vote. Beyond that, `executed_upto` claims and prepared sets are
//! **unauthenticated and trusted as honest**: this model measures
//! resilience against replica misbehaviour in the agreement path
//! (equivocation, forgery, crashes, omission, transport faults), not
//! against arbitrarily forged view-change content. The boundary is
//! partially defended by certified checkpoints (Castro–Liskov): the
//! receiver verifies a vote's [`CheckpointCert`] (f+1 MAC'd vouchers)
//! before it counts, and the verified `cert_floor` caps the round from
//! below — prepared entries and watermark claims **at or below the stable
//! checkpoint are discarded**, so a fabricated prepared set cannot rewrite
//! certified history. Claims *above* the stable checkpoint remain trusted;
//! USIG-signing the view-change messages themselves (Veronese et al.) is
//! the remaining step, recorded in the ROADMAP.

use crate::api::{noop_batch, Batch, OpId, ReplicaId, Request};
use crate::checkpoint::CheckpointCert;
use crate::shell::{Role, Shell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Prepared-but-unexecuted `(seq, batch)` entries, in sequence order.
pub(crate) type PreparedSet = Vec<(u64, Arc<Batch>)>;

/// One replica's vote to replace the primary, carried by
/// [`PbftMsg::ViewChange`](crate::pbft::PbftMsg::ViewChange) and
/// [`MinBftMsg::ReqViewChange`](crate::minbft::MinBftMsg::ReqViewChange).
#[derive(Debug, Clone, PartialEq)]
pub struct VcVote {
    /// Proposed view.
    pub new_view: u64,
    /// Entries prepared at the voter (must survive the view change).
    pub prepared: Vec<(u64, Arc<Batch>)>,
    /// The voter's execution watermark — the quorum's maximum is the
    /// floor above which sequence holes may be safely no-op-filled (the
    /// checkpoint-less stand-in for PBFT's stable-checkpoint `min-s`).
    pub executed_upto: u64,
    /// The voter's stable checkpoint certificate, if any. Verified by the
    /// receiver; the certified watermark floors the new view, so prepared
    /// entries at or below certified history are discarded.
    /// Boxed — certificates are rare and bulky.
    pub cert: Option<Box<CheckpointCert>>,
}

crate::wire! { struct VcVote { new_view, prepared, executed_upto, cert } }

/// What the primary-elect re-proposes when it installs a view.
#[derive(Debug, PartialEq)]
pub(crate) struct NewViewPlan {
    /// `(seq, batch)` in sequence order: surviving prepared entries, no-op
    /// fillers for the holes between them, then the still-pending requests
    /// re-batched at fresh sequence numbers.
    pub repropose: PreparedSet,
    /// The first sequence number free for proposals in the new view.
    pub next_seq: u64,
}

/// Votes of one in-progress view change, indexed by voter id.
#[derive(Debug)]
struct VcRound {
    /// The view this round votes for.
    view: u64,
    /// Per-voter prepared sets (`None` until the voter is heard).
    votes: Vec<Option<PreparedSet>>,
    /// Distinct voters recorded.
    count: usize,
    /// Highest execution watermark any recorded voter reported — the
    /// floor above which sequence holes may be no-op-filled, and the
    /// bound fresh proposals must start above.
    exec_floor: u64,
    /// Highest **verified** stable-checkpoint watermark carried by any
    /// vote. Unlike `exec_floor` this floor is authenticated: prepared
    /// entries at or below it are certified history and are dropped.
    cert_floor: u64,
}

/// The view a replica is in and every view change it knows to be under
/// way (see the module docs).
#[derive(Debug)]
pub(crate) struct ViewLedger {
    id: ReplicaId,
    n: u32,
    view: u64,
    /// Live rounds (linear scans: view changes are rare and the live
    /// round count is tiny).
    rounds: Vec<VcRound>,
    /// Highest view this replica has voted for.
    sent_for: u64,
    /// When `sent_for` was last raised — the escalation rate limiter.
    demanded_at: u64,
}

// Votes are attacker-controlled, so the whole ledger is an ingress region:
// a panic here is a remote crash (`rsoc_lint` enforces the contract).
// lint: ingress
impl ViewLedger {
    /// The ledger of replica `id` in a cluster of `n`, at view 0.
    pub(crate) fn new(id: ReplicaId, n: u32) -> Self {
        ViewLedger { id, n, view: 0, rounds: Vec::new(), sent_for: 0, demanded_at: 0 }
    }

    /// Current view.
    pub(crate) fn view(&self) -> u64 {
        self.view
    }

    /// The primary of `view` (round-robin).
    pub(crate) fn primary_of(&self, view: u64) -> ReplicaId {
        ReplicaId((view % self.n as u64) as u32)
    }

    /// Whether this replica leads the current view.
    pub(crate) fn is_primary(&self) -> bool {
        self.primary_of(self.view) == self.id
    }

    /// What this replica is to a client request arriving now.
    pub(crate) fn role(&self) -> Role {
        if self.is_primary() {
            Role::Primary
        } else {
            Role::Backup
        }
    }

    /// A watched request ran out of `patience`: the view to demand now, if
    /// any. At most one new view is demanded per full patience period
    /// (`demanded_at` is stamped on every demand, own or joined). The
    /// target skips past a demanded-but-never-installed view, so a CrashAt
    /// firing *mid view-change* — killing the incoming primary — escalates
    /// to a live one instead of wedging the cluster on a view nobody can
    /// install. The rate limit matters as much as the escalation: every
    /// pending op runs its own patience timer, and demanding per fire
    /// outruns any installation (a view-change livelock storm that starves
    /// re-proposals forever).
    pub(crate) fn on_patience_timer(&self, now: u64, patience: u64) -> Option<u64> {
        (now >= self.demanded_at.saturating_add(patience)).then(|| self.view.max(self.sent_for) + 1)
    }

    /// Casts this replica's own vote for `new_view` unless it already
    /// voted that far. The returned vote is recorded here; the caller
    /// broadcasts it.
    pub(crate) fn demand(
        &mut self,
        new_view: u64,
        now: u64,
        prepared: PreparedSet,
        shell: &Shell,
    ) -> Option<VcVote> {
        if new_view <= self.view || self.sent_for >= new_view {
            return None;
        }
        self.sent_for = new_view;
        self.demanded_at = now;
        let executed_upto = shell.exec_upto();
        self.tally(new_view, self.id, prepared.clone(), executed_upto, shell.ckpt().stable_seq());
        let cert = shell.ckpt().stable().cloned().map(Box::new);
        Some(VcVote { new_view, prepared, executed_upto, cert })
    }

    /// Records the vote of `voter`, a replica of this cluster; returns how
    /// many distinct replicas now demand `vote.new_view`, or `None` when
    /// the vote was stale. A carried certificate floors the round only once
    /// `shell` verified it; a forged one contributes 0.
    pub(crate) fn record(
        &mut self,
        voter: ReplicaId,
        vote: VcVote,
        shell: &mut Shell,
    ) -> Option<usize> {
        if vote.new_view <= self.view {
            return None;
        }
        let cert_seq = vote.cert.and_then(|c| shell.accept_cert(&c)).unwrap_or(0);
        Some(self.tally(vote.new_view, voter, vote.prepared, vote.executed_upto, cert_seq))
    }

    /// Stores one voter's prepared set and watermark claims in the round
    /// for `view` (created on first use); `cert_seq` is already verified.
    /// Returns the round's distinct-voter count.
    fn tally(
        &mut self,
        view: u64,
        from: ReplicaId,
        prepared: PreparedSet,
        executed_upto: u64,
        cert_seq: u64,
    ) -> usize {
        let idx = self.rounds.iter().position(|r| r.view == view).unwrap_or_else(|| {
            let votes = vec![None; self.n as usize];
            self.rounds.push(VcRound { view, votes, count: 0, exec_floor: 0, cert_floor: 0 });
            self.rounds.len() - 1
        });
        let Some(round) = self.rounds.get_mut(idx) else { return 0 };
        let Some(slot) = round.votes.get_mut(from.0 as usize) else { return round.count };
        if slot.is_none() {
            round.count += 1;
        }
        *slot = Some(prepared);
        round.exec_floor = round.exec_floor.max(executed_upto);
        round.cert_floor = round.cert_floor.max(cert_seq);
        round.count
    }

    /// What this replica must re-propose to install `new_view` — `None`
    /// until `quorum` replicas demand it, or if another replica leads it.
    ///
    /// Every prepared entry any voter (or this replica, `own_prepared`)
    /// reports is re-proposed, merged in voter-id order (canonical and
    /// deterministic); still-pending requests no entry covers get fresh
    /// sequence numbers, re-batched at the configured batch size in
    /// canonical op order.
    ///
    /// Sequence holes are filled with no-op batches. A proposal can die
    /// *unprepared* at seq s (its pre-prepare lost to drops) while s+1
    /// prepared and survives the view change — execution is strictly
    /// in-order, so without a filler every replica wedges at s forever,
    /// view change after view change. Filling is safe only above the vote
    /// quorum's execution floor: if ANY correct replica executed seq s,
    /// then s gathered a commit quorum, whose prepared-set holders
    /// intersect every view-change quorum — so s is re-proposed and is not
    /// a hole (the checkpoint-less analogue of PBFT's null requests above
    /// the stable checkpoint). Un-certified watermark claims are trusted
    /// as honest (see the module's trust boundary), but the *certified*
    /// floor is proven: prepared entries at or below a verified checkpoint
    /// certificate are certified history a forger is trying to rewrite,
    /// and are discarded.
    pub(crate) fn plan(
        &self,
        new_view: u64,
        quorum: usize,
        own_prepared: PreparedSet,
        shell: &Shell,
    ) -> Option<NewViewPlan> {
        let round = self.rounds.iter().find(|r| r.view == new_view)?;
        if round.count < quorum || self.primary_of(new_view) != self.id {
            return None;
        }
        let mut repropose: BTreeMap<u64, Arc<Batch>> = BTreeMap::new();
        for (seq, batch) in round.votes.iter().flatten().flatten() {
            repropose.entry(*seq).or_insert_with(|| batch.clone());
        }
        for (seq, batch) in own_prepared {
            repropose.entry(seq).or_insert(batch);
        }
        let cert_floor = round.cert_floor;
        if cert_floor > 0 {
            repropose.retain(|seq, _| *seq > cert_floor);
        }
        let floor = round.exec_floor.max(shell.exec_upto()).max(cert_floor);
        let max_seq = repropose.keys().max().copied().unwrap_or(shell.exec_upto());
        for seq in floor.saturating_add(1)..max_seq {
            repropose.entry(seq).or_insert_with(|| noop_batch(seq));
        }
        // Fresh proposals must start above BOTH the highest re-proposed
        // entry and the quorum's execution floor: a laggard primary that
        // ignored `floor` would re-batch pending requests at sequences its
        // peers already executed and retired — proposals that can never
        // prepare (the watermark rejects them), stalling every pending op
        // until a caught-up replica rotates in.
        let mut next_seq =
            shell.next_seq().max(max_seq.saturating_add(1)).max(floor.saturating_add(1));
        let covered: BTreeSet<OpId> =
            repropose.values().flat_map(|b| b.requests().iter().map(|r| r.op)).collect();
        let pending: Vec<Arc<Request>> = shell
            .pending_canonical()
            .into_iter()
            .map(|(_, r)| r)
            .filter(|r| !covered.contains(&r.op) && !shell.has_executed(&r.op))
            .cloned()
            .collect();
        for chunk in pending.chunks(shell.batch_size()) {
            repropose.insert(next_seq, Arc::new(Batch::new(chunk.to_vec())));
            next_seq += 1;
        }
        Some(NewViewPlan { repropose: repropose.into_iter().collect(), next_seq })
    }

    /// `view` took effect at this replica: rounds for it and for earlier
    /// views can never fire again.
    pub(crate) fn installed(&mut self, view: u64) {
        self.view = view;
        self.sent_for = self.sent_for.max(view);
        self.rounds.retain(|r| r.view > view);
    }

    /// Joins `view` if the cluster moved past this replica while it was
    /// down (learned from a state transfer).
    pub(crate) fn join(&mut self, view: u64) {
        if view > self.view {
            self.installed(view);
        }
    }

    /// Rejuvenation: back to view 0 with no round in progress.
    pub(crate) fn wipe(&mut self) {
        self.view = 0;
        self.rounds.clear();
        self.sent_for = 0;
        self.demanded_at = 0;
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ClientId, Outbox, NOOP_CLIENT};
    use crate::pbft::PbftMsg;

    fn req(client: u32, seq: u64) -> Arc<Request> {
        Arc::new(Request { op: OpId { client: ClientId(client), seq }, payload: b"GET k".to_vec() })
    }

    fn batch(ops: &[(u32, u64)]) -> Arc<Batch> {
        Arc::new(Batch::new(ops.iter().map(|&(c, s)| req(c, s)).collect()))
    }

    /// The shell of replica 1 of 4: slots `1..=exec_upto` executed (client
    /// 9's ops), `pending` on the watchlist in the given arrival order.
    fn shell(exec_upto: u64, pending: &[(u32, u64)], batch_size: usize) -> Shell {
        let mut shell = Shell::new(ReplicaId(1), 4, 2);
        shell.set_batching(batch_size, 100);
        for seq in 1..=exec_upto {
            let b = batch(&[(9, seq)]);
            shell.execute(seq, &b, |_| {});
        }
        let mut out = Outbox::<PbftMsg>::new();
        for &(client, seq) in pending {
            shell.intake(req(client, seq), Role::Backup, &mut out);
        }
        shell
    }

    /// `(seq, ops of the batch there)`, each op a `(client, client seq)`.
    type Slots = &'static [(u64, &'static [(u32, u64)])];

    /// One row of the [`ViewLedger::plan`] table: the votes of replicas 0,
    /// 2 and 3 for view 1 (which replica 1 leads) as `(prepared slots,
    /// executed_upto, verified cert seq)`, replica 1's own state, and the
    /// plan it must produce — each re-proposed slot with its op ids.
    struct Case {
        name: &'static str,
        votes: [(Slots, u64, u64); 3],
        own_prepared: Slots,
        exec_upto: u64,
        pending: &'static [(u32, u64)],
        batch_size: usize,
        repropose: Slots,
        next_seq: u64,
    }

    const NOOP: u32 = NOOP_CLIENT;

    fn prepared(slots: Slots) -> PreparedSet {
        let filler = |ops: &[(u32, u64)]| ops.first().is_some_and(|&(client, _)| client == NOOP);
        slots
            .iter()
            .map(|&(seq, ops)| (seq, if filler(ops) { noop_batch(seq) } else { batch(ops) }))
            .collect()
    }

    #[test]
    fn plan_merges_fills_floors_and_rebatches() {
        let cases = [
            Case {
                name: "a hole below a surviving prepared slot is no-op-filled",
                votes: [(&[(3, &[(5, 1)])], 1, 0), (&[], 1, 0), (&[], 0, 0)],
                own_prepared: &[],
                exec_upto: 1,
                pending: &[],
                batch_size: 1,
                repropose: &[(2, &[(NOOP, 2)]), (3, &[(5, 1)])],
                next_seq: 4,
            },
            Case {
                name: "the first voter's entry wins a slot; own prepared entries join",
                votes: [(&[(2, &[(5, 1)])], 1, 0), (&[(2, &[(6, 1)])], 1, 0), (&[], 1, 0)],
                own_prepared: &[(2, &[(7, 1)]), (3, &[(7, 2)])],
                exec_upto: 1,
                pending: &[],
                batch_size: 1,
                repropose: &[(2, &[(5, 1)]), (3, &[(7, 2)])],
                next_seq: 4,
            },
            Case {
                name: "entries at or below a verified certificate are dropped",
                votes: [(&[(3, &[(5, 1)]), (6, &[(5, 2)])], 2, 4), (&[], 2, 0), (&[], 2, 0)],
                own_prepared: &[(4, &[(6, 1)])],
                exec_upto: 2,
                pending: &[],
                batch_size: 1,
                repropose: &[(5, &[(NOOP, 5)]), (6, &[(5, 2)])],
                next_seq: 7,
            },
            Case {
                name: "a laggard primary resumes above the quorum's execution floor",
                votes: [(&[], 10, 0), (&[], 9, 0), (&[], 10, 0)],
                own_prepared: &[],
                exec_upto: 2,
                pending: &[(5, 1)],
                batch_size: 1,
                repropose: &[(11, &[(5, 1)])],
                next_seq: 12,
            },
            Case {
                name: "uncovered pending requests re-batch in canonical op order",
                votes: [(&[(1, &[(1, 2)])], 0, 0), (&[], 0, 0), (&[], 0, 0)],
                own_prepared: &[],
                exec_upto: 0,
                pending: &[(2, 1), (1, 2), (3, 1), (1, 1)],
                batch_size: 2,
                repropose: &[(1, &[(1, 2)]), (2, &[(1, 1), (2, 1)]), (3, &[(3, 1)])],
                next_seq: 4,
            },
        ];
        for case in cases {
            let shell = shell(case.exec_upto, case.pending, case.batch_size);
            let mut ledger = ViewLedger::new(ReplicaId(1), 4);
            for (voter, (slots, executed_upto, cert_seq)) in [0, 2, 3].into_iter().zip(case.votes) {
                assert!(
                    ledger.plan(1, 3, prepared(case.own_prepared), &shell).is_none(),
                    "{}: planned below quorum",
                    case.name
                );
                ledger.tally(1, ReplicaId(voter), prepared(slots), executed_upto, cert_seq);
            }
            let plan = ledger.plan(1, 3, prepared(case.own_prepared), &shell);
            let want = NewViewPlan { repropose: prepared(case.repropose), next_seq: case.next_seq };
            assert_eq!(plan, Some(want), "{}", case.name);
        }
    }

    #[test]
    fn only_the_primary_elect_plans_and_only_for_a_live_round() {
        let shell = shell(0, &[], 1);
        let mut ledger = ViewLedger::new(ReplicaId(1), 4);
        for view in [1, 2] {
            for voter in [0, 2, 3] {
                ledger.tally(view, ReplicaId(voter), Vec::new(), 0, 0);
            }
        }
        assert!(ledger.plan(2, 3, Vec::new(), &shell).is_none(), "replica 2 leads view 2");
        assert!(ledger.plan(1, 3, Vec::new(), &shell).is_some());
        assert!(ledger.plan(5, 0, Vec::new(), &shell).is_none(), "nobody demanded view 5");
        ledger.installed(1);
        assert!(ledger.plan(1, 3, Vec::new(), &shell).is_none(), "the round is spent");
        assert_eq!((ledger.view(), ledger.is_primary()), (1, true));
    }

    #[test]
    fn demands_escalate_once_per_patience_period() {
        let shell = shell(0, &[], 1);
        let mut ledger = ViewLedger::new(ReplicaId(2), 4);
        assert_eq!(ledger.on_patience_timer(1_500, 1_500), Some(1));
        let vote = ledger.demand(1, 1_500, Vec::new(), &shell).expect("first demand for view 1");
        assert_eq!((vote.new_view, vote.executed_upto), (1, 0));
        assert!(ledger.demand(1, 1_600, Vec::new(), &shell).is_none(), "one vote per view");
        assert_eq!(ledger.on_patience_timer(2_999, 1_500), None, "inside the patience period");
        // View 1 never installed: escalate past it, not to it again.
        assert_eq!(ledger.on_patience_timer(3_000, 1_500), Some(2));
        // A state transfer reveals the cluster is already at view 4.
        ledger.join(4);
        ledger.join(3);
        assert_eq!(ledger.view(), 4);
        assert!(ledger.demand(4, 3_000, Vec::new(), &shell).is_none(), "not past the view");
        assert_eq!(ledger.on_patience_timer(3_000, 1_500), Some(5));
    }

    /// The voter is the link the chassis resolved: one link is one vote
    /// however often it votes, and a vote for an installed view is stale.
    #[test]
    fn votes_count_once_per_voter_and_only_from_the_voters_own_link() {
        let mut shell = shell(0, &[], 1);
        let mut ledger = ViewLedger::new(ReplicaId(1), 4);
        let vote = || VcVote { new_view: 1, prepared: Vec::new(), executed_upto: 0, cert: None };
        assert_eq!(ledger.record(ReplicaId(3), vote(), &mut shell), Some(1));
        assert_eq!(ledger.record(ReplicaId(3), vote(), &mut shell), Some(1), "a duplicate");
        assert_eq!(ledger.record(ReplicaId(0), vote(), &mut shell), Some(2));
        ledger.installed(1);
        assert_eq!(ledger.record(ReplicaId(2), vote(), &mut shell), None, "stale");
    }
}
