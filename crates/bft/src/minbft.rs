//! MinBFT (Veronese et al., "Efficient Byzantine Fault-Tolerance", IEEE
//! ToC 2011) — the hybrid 2f+1 protocol the paper holds up as the payoff of
//! architectural hybridization (§II-A, §III).
//!
//! Each replica owns a [`rsoc_hybrid::Usig`]; every PREPARE (primary) and
//! COMMIT (backup) carries a USIG certificate. Because the USIG counter is
//! monotonic and certified, a Byzantine primary cannot assign the same
//! counter to two different messages — equivocation is structurally
//! impossible — which is what shrinks the replica requirement from 3f+1 to
//! 2f+1 and the commit quorum to f+1.
//!
//! Out-of-order delivery is handled with a per-sender hold-back queue (the
//! USIG contiguity window only advances in counter order). The view change
//! follows the same operational shape as our PBFT: request-patience timers,
//! `ReqViewChange` votes (carrying prepared-but-unexecuted entries), and a
//! re-proposal round by the new primary.
//!
//! Wire format: PREPARE and COMMIT carry [`Arc<Batch>`] — the broadcast
//! fan-out bumps a refcount per peer instead of deep-cloning the batch.

use crate::adversary::conflicting_batch;
use crate::api::{Batch, Endpoint, Input, Outbox, ReplicaId, Request};
use crate::chassis::{Core, Replica, Replicas};
use crate::checkpoint::{CheckpointCert, CstInstall};
use crate::codec::SHELL_TAG;
use crate::dense::{ReplicaSet, SeqWindow};
use crate::durable::{DurableEvent, RecoveredState};
use crate::protocol::Protocol;
use crate::runner::RunConfig;
use crate::shell::{carries_shell, Intake, ShellMsg, TIMER_FLUSH, TIMER_REQUEST};
use crate::viewchange::{PreparedSet, VcVote, ViewLedger};
use rsoc_crypto::Tag;
use rsoc_hw::{EccRegister, PlainRegister, RegisterCell};
use rsoc_hybrid::{KeyRing, Usig, UsigId, UI};
use std::sync::Arc;

/// A backup's UI-certified commit vote (carries the batch so replicas
/// that missed the PREPARE can still execute on a commit quorum).
///
/// Shared behind an [`Arc`] in [`MinBftMsg::Commit`]: the vote carries
/// *two* 48-byte USIG certificates, and inlining them made `Commit` the
/// enum's largest variant by far — every event memcpy'd through the
/// simulator's timing-wheel arena paid for it. Behind the `Arc`, the
/// per-peer broadcast clone is a refcount bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitVote {
    /// View.
    pub view: u64,
    /// Sequence.
    pub seq: u64,
    /// Full request batch (shared across the fan-out).
    pub batch: Arc<Batch>,
    /// The primary's UI from the PREPARE (evidence of assignment).
    pub primary_ui: UI,
    /// Voting replica.
    pub from: ReplicaId,
    /// Voter's own USIG certificate.
    pub ui: UI,
}

crate::wire! { struct CommitVote { view, seq, batch, primary_ui, from, ui } }

/// MinBFT wire messages.
///
/// Rare, bulky variants (commit votes, checkpoint hints, the shell's
/// vouchers and transfers) live behind `Arc`/`Box` so the enum's size —
/// and with it every per-event memcpy through the timing-wheel arena — is
/// pinned by the hot `Prepare` variant (see `message_enums_stay_small`).
#[derive(Debug, Clone, PartialEq)]
pub enum MinBftMsg {
    /// Client request (shared across the fan-out).
    Request(Arc<Request>),
    /// Primary's UI-certified ordering proposal: one slot per *batch*.
    Prepare {
        /// View.
        view: u64,
        /// Global sequence number.
        seq: u64,
        /// Full request batch (shared across the fan-out).
        batch: Arc<Batch>,
        /// Primary's USIG certificate over `(view, seq, batch digest)`.
        ui: UI,
    },
    /// Backup's UI-certified commit vote (see [`CommitVote`]).
    Commit(Arc<CommitVote>),
    /// Vote to replace the primary.
    ReqViewChange(VcVote),
    /// New primary's installation message (re-proposals follow as normal
    /// UI-certified PREPAREs).
    NewView {
        /// Installed view.
        view: u64,
        /// Re-proposed entries.
        preprepares: Vec<(u64, Arc<Batch>)>,
    },
    /// Reliable-FIFO-channel emulation: `from` asks `sender` to resend its
    /// UI-certified messages with counters in `[from_counter, upto]`.
    ///
    /// MinBFT's system model assumes eventually-reliable channels; a
    /// dropped PREPARE/COMMIT otherwise poisons the sender's counter
    /// stream at the receiver forever (the contiguity hold-back can never
    /// advance, and USIGs cannot re-sign old counters). The F5 drop-storm
    /// scenario exposed exactly that wedge. Resends are the *original*
    /// stored messages, so their UIs re-verify unchanged.
    FillGap {
        /// Whose counter stream has the gap.
        sender: ReplicaId,
        /// First missing counter.
        from_counter: u64,
        /// Last missing counter (inclusive; responders cap the burst).
        upto: u64,
        /// The requesting replica (resends go only to it).
        from: ReplicaId,
    },
    /// FillGap answer for counters already retired from the resend ring:
    /// the responder cannot resend (USIGs never re-sign old counters), so
    /// it hands over its stable checkpoint certificate instead. The
    /// requester adopts the certificate, resyncs the responder's counter
    /// stream at `ring_base`, and escalates to state transfer — the only
    /// path that can close a gap older than `SENT_RETENTION`.
    CheckpointHint {
        /// The responder's stable checkpoint certificate (f+1 vouchers).
        /// Boxed — certificates are rare and bulky.
        cert: Box<CheckpointCert>,
        /// Lowest counter still in the responder's resend ring; the
        /// requester fast-forwards `accepted[from]` to just below it.
        ring_base: u64,
        /// The responder (whose counter stream the requester resyncs).
        from: ReplicaId,
    },
    /// A reply, checkpoint voucher or state transfer (see [`ShellMsg`]).
    Shell(ShellMsg),
}

carries_shell!(MinBftMsg);

crate::wire! {
    enum MinBftMsg {
        0 => Request(req),
        1 => Prepare { view, seq, batch, ui },
        2 => Commit(vote),
        4 => ReqViewChange(vote),
        5 => NewView { view, preprepares },
        6 => FillGap { sender, from_counter, upto, from },
        7 => CheckpointHint { cert, ring_base, from },
        SHELL_TAG => Shell(msg),
    }
}

/// One agreement slot; executed slots are *retired* from the window
/// instead of flagged (see [`SeqWindow::retire_below`]).
#[derive(Debug, Default)]
struct Slot {
    batch: Option<Arc<Batch>>,
    digest: Option<[u8; 32]>,
    /// The primary certificate `(view, UI)` over `digest` that this replica
    /// has verified (or, as primary, issued) for the slot. A COMMIT quoting
    /// exactly this pair needs no second MAC; the view is part of the pair
    /// because the same UI quoted in a later view names another primary's
    /// key and must fail under it.
    primary_cert: Option<(u64, UI)>,
    prepare_ok: bool,
    commits: ReplicaSet,
    sent_commit: bool,
}

impl Slot {
    /// Takes the PREPARE `(view, batch, ui)` whose certificate the caller
    /// has verified or issued.
    fn prepare(&mut self, view: u64, batch: Arc<Batch>, digest: [u8; 32], ui: UI) {
        self.batch = Some(batch);
        self.digest = Some(digest);
        self.primary_cert = Some((view, ui));
        self.prepare_ok = true;
    }
}

/// How many of its own UI-certified sends a replica keeps for gap-fill
/// resends (older counters have long been accepted everywhere in any
/// realistic window; a gap below the retention horizon stays a laggard,
/// which quorums already tolerate).
const SENT_RETENTION: u64 = 512;
/// Cycles between gap-fill requests for the same sender (the request or
/// the resend can itself be lost — re-ask, but do not spam every packet).
const GAP_REQ_BACKOFF: u64 = 100;
/// Maximum counters resent per gap-fill request.
const GAP_FILL_BURST: u64 = 32;

/// The UI-signed PREPARE statement, on the stack: certificates are
/// created and verified on every protocol message, so this must not
/// allocate.
fn prepare_bytes(view: u64, seq: u64, digest: &[u8; 32]) -> [u8; 56] {
    let mut b = [0u8; 56];
    b[..8].copy_from_slice(b"PREPARE|");
    b[8..16].copy_from_slice(&view.to_le_bytes());
    b[16..24].copy_from_slice(&seq.to_le_bytes());
    b[24..].copy_from_slice(digest);
    b
}

/// The UI-signed COMMIT statement, on the stack (see [`prepare_bytes`]).
fn commit_bytes(view: u64, seq: u64, digest: &[u8; 32], primary_counter: u64) -> [u8; 63] {
    let mut b = [0u8; 63];
    b[..7].copy_from_slice(b"COMMIT|");
    b[7..15].copy_from_slice(&view.to_le_bytes());
    b[15..23].copy_from_slice(&seq.to_le_bytes());
    b[23..31].copy_from_slice(&primary_counter.to_le_bytes());
    b[31..].copy_from_slice(digest);
    b
}

/// Which register protects each replica's USIG counter (experiment E2 /
/// ablations swap this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CounterProtection {
    /// Unprotected flip-flops.
    Plain,
    /// Hamming SEC-DED.
    #[default]
    SecDed,
}

impl CounterProtection {
    fn build(self) -> Box<dyn RegisterCell> {
        match self {
            CounterProtection::Plain => Box::new(PlainRegister::new(64)),
            CounterProtection::SecDed => Box::new(EccRegister::new(64)),
        }
    }
}

/// MinBFT's ordering state: the USIG, the per-sender counter streams and
/// their hold-back, the resend ring, the agreement slots, and the view.
#[derive(Debug)]
pub struct MinBft {
    usig: Usig,
    /// Hold-back ingress: per-sender buffered UI-bearing messages, each a
    /// counter-keyed window anchored just past the accepted counter.
    ingress: Vec<SeqWindow<MinBftMsg>>,
    /// UI-certified messages for views we have not installed yet (a NewView
    /// may still be in flight), in arrival order with the replica whose
    /// counter stream each belongs to; re-dispatched on installation. Only
    /// messages whose certificate verifies are held, at most
    /// [`SENT_RETENTION`] per sender.
    future: Vec<(ReplicaId, MinBftMsg)>,
    /// Certified future-view messages dropped because their sender's share
    /// of the stash was full.
    future_dropped: u64,
    /// Last accepted USIG counter per sender (dense by replica id).
    accepted: Vec<u64>,
    /// This replica's own UI-certified sends, keyed by counter — the
    /// resend store behind [`MinBftMsg::FillGap`] (bounded retention).
    sent_ui: SeqWindow<MinBftMsg>,
    /// Per-sender time of the last gap-fill request (rate limiter).
    gap_req_at: Vec<u64>,
    /// Agreement slots, watermarked at `shell.exec_upto() + 1`.
    slots: SeqWindow<Slot>,
    stored_prepares: SeqWindow<MinBftMsg>,
    /// The current view and the view changes under way.
    vc: ViewLedger,
}

/// One MinBFT replica.
pub type MinBftReplica = Replica<MinBft>;

/// A MinBFT cluster of `2f+1` replicas sharing a provisioned key ring.
pub type MinBftCluster = Replicas<MinBft>;

impl MinBftCluster {
    /// Builds the cluster for `config.f` with SEC-DED-protected USIGs.
    pub fn new(config: &RunConfig) -> Self {
        Self::with_protection(config, CounterProtection::SecDed)
    }

    /// Builds the cluster with an explicit USIG counter protection level.
    pub fn with_protection(config: &RunConfig, protection: CounterProtection) -> Self {
        // One provisioning pass (key derivation + HMAC key-schedule
        // precomputation) shared by every replica via Arc.
        let ring = KeyRing::provision(config.seed, Protocol::MinBft.replicas(config.f));
        Replicas::provision(config, |id| MinBftReplica::new(id, config.f, ring.clone(), protection))
    }
}

impl MinBftReplica {
    /// Creates replica `id` of an `n = 2f+1` cluster sharing `ring`
    /// (a refcount bump, not a key-material copy). f+1 matching vouchers
    /// certify a checkpoint, mirroring the commit quorum.
    pub fn new(id: ReplicaId, f: u32, ring: Arc<KeyRing>, protection: CounterProtection) -> Self {
        let n = Protocol::MinBft.replicas(f);
        let core = MinBft {
            usig: Usig::new(UsigId(id.0), ring, protection.build()),
            ingress: (0..n).map(|_| SeqWindow::with_base(1)).collect(),
            future: Vec::new(),
            future_dropped: 0,
            accepted: vec![0; n as usize],
            sent_ui: SeqWindow::with_base(1),
            gap_req_at: vec![0; n as usize],
            slots: SeqWindow::with_base(1),
            stored_prepares: SeqWindow::with_base(1),
            vc: ViewLedger::new(id, n),
        };
        Replica::assemble(id, n, f, (f + 1) as usize, core)
    }

    /// `(created, verified)` USIG certificate counts — the replica's MAC
    /// operations, for authentication-cost accounting.
    pub fn mac_ops(&self) -> (u64, u64) {
        (self.core.usig.issued(), self.core.usig.verified())
    }

    /// Votes refused: view-change votes whose named voter was not the
    /// replica that sent them, and certified PREPAREs / COMMITs for a view
    /// not yet installed that arrived after their sender had filled its
    /// share of the stash.
    pub fn rejected_votes(&self) -> u64 {
        self.core.vc.rejected() + self.core.future_dropped
    }

    /// SEU injection into the USIG counter register (E2 / F1).
    pub fn inject_usig_flip(&mut self, bit: u32) {
        self.core.usig.inject_counter_flip(bit);
    }

    fn commit_quorum(&self) -> usize {
        (self.f + 1) as usize
    }

    /// Remembers one of this replica's own UI-certified sends so a peer
    /// with a counter gap can ask for a verbatim resend.
    fn record_sent(&mut self, counter: u64, msg: MinBftMsg) {
        self.core.sent_ui.insert(counter, msg);
        if counter > SENT_RETENTION {
            self.core.sent_ui.retire_below(counter - SENT_RETENTION);
        }
        // Every honest UI issue passes through here, so the persisted
        // counter watermark tracks the USIG exactly: a restart resumes
        // *above* it and can never certify two statements under one
        // counter value.
        self.shell.persist(DurableEvent::UsigCounter(counter));
    }

    /// Verifies a UI and enforces per-sender counter contiguity, buffering
    /// out-of-order arrivals. Returns `true` when the message should be
    /// processed now; one ahead of its turn is queued (`held_back` builds
    /// the copy, on that branch only) and drained by the caller via
    /// [`Self::take_ready`]. Buffering a counter gap emits a rate-limited
    /// [`MinBftMsg::FillGap`] so a *lost* message (the channels are not
    /// reliable) cannot poison the sender's stream forever.
    // Everything below is reachable from adversarial input: a Byzantine
    // peer (or a forged client) picks the message contents, so a panic
    // here is a remote crash. `rsoc_lint` enforces the no-panic contract;
    // the reasoned allows mark invariants the window/USIG layer holds.
    // lint: ingress
    fn ingest_ui(
        &mut self,
        sender: ReplicaId,
        ui: &UI,
        signed: &[u8],
        held_back: impl FnOnce() -> MinBftMsg,
        out: &mut Outbox<MinBftMsg>,
    ) -> bool {
        if !self.core.usig.verify_ui(UsigId(sender.0), ui, signed) {
            return false; // forged or corrupted certificate
        }
        let s = sender.0 as usize;
        // bounds: verify_ui above rejects senders without a ring key, so
        // s < n for every line that indexes the per-sender arrays here.
        let last = self.core.accepted[s];
        match ui.counter.cmp(&(last + 1)) {
            std::cmp::Ordering::Equal => {
                self.core.accepted[s] = ui.counter; // bounds: s < n (verify_ui)
                self.core.ingress[s].retire_below(ui.counter + 1); // bounds: s < n (verify_ui)
                true
            }
            std::cmp::Ordering::Greater => {
                // bounds: s < n (verify_ui)
                self.core.ingress[s].insert(ui.counter, held_back());
                // bounds: s < n (verify_ui)
                if self.now >= self.core.gap_req_at[s].saturating_add(GAP_REQ_BACKOFF) {
                    // bounds: s < n (verify_ui)
                    self.core.gap_req_at[s] = self.now;
                    out.send(
                        Endpoint::Replica(sender),
                        MinBftMsg::FillGap {
                            sender,
                            from_counter: last + 1,
                            upto: ui.counter - 1,
                            from: self.id,
                        },
                    );
                }
                false
            }
            std::cmp::Ordering::Less => false, // replay / duplicate counter
        }
    }

    /// Holds a UI-certified message for a view not installed yet. The
    /// certificate is checked first — an unauthenticated stash is a remote
    /// memory DoS — but `accepted` does not move: `replay_future` sends the
    /// message through [`Self::ingest_ui`] once its view is installed. A
    /// sender may hold [`SENT_RETENTION`] entries, the horizon past which
    /// its counters could not be gap-filled anyway; later ones are dropped
    /// and counted.
    fn stash_future(&mut self, sender: ReplicaId, ui: &UI, signed: &[u8], msg: MinBftMsg) {
        if !self.core.usig.verify_ui(UsigId(sender.0), ui, signed) {
            return;
        }
        let held = self.core.future.iter().filter(|(s, _)| *s == sender).count() as u64;
        if held >= SENT_RETENTION {
            self.core.future_dropped += 1;
            return;
        }
        self.core.future.push((sender, msg));
    }

    /// Pops the next contiguous buffered message from any sender, if ready
    /// (ascending sender order, matching the old map-keyed scan).
    fn take_ready(&mut self) -> Option<MinBftMsg> {
        for s in 0..self.core.ingress.len() {
            // bounds: s iterates 0..len; accepted/ingress share length n
            let next = self.core.accepted[s] + 1;
            // bounds: s iterates 0..len
            if let Some(msg) = self.core.ingress[s].remove(next) {
                // bounds: s iterates 0..len
                self.core.accepted[s] = next;
                // bounds: s iterates 0..len
                self.core.ingress[s].retire_below(next + 1);
                return Some(msg);
            }
        }
        None
    }

    /// Proposes `reqs` as one batch under a single USIG certificate — MAC
    /// creation and verification are amortized `1/B` across the batch.
    fn propose(&mut self, reqs: Vec<Arc<Request>>, out: &mut Outbox<MinBftMsg>) {
        let (seq, batch) = self.shell.open_slot(reqs);
        let view = self.core.vc.view();
        if self.script.forges_ui_at(self.now) {
            self.forge_equivocation(seq, batch, out);
            return;
        }
        let digest = batch.digest();
        let Ok(ui) = self.core.usig.create_ui(&prepare_bytes(view, seq, &digest)) else {
            return; // fail-stopped USIG: replica can no longer lead
        };
        let prep = MinBftMsg::Prepare { view, seq, batch: batch.clone(), ui };
        self.core.stored_prepares.insert(seq, prep.clone());
        self.record_sent(ui.counter, prep.clone());
        let me = self.id;
        // lint: allow(ingress-expect) -- the shell keeps next_seq strictly above exec_upto
        let slot = self.core.slots.get_or_insert_default(seq).expect("fresh seq above watermark");
        slot.prepare(view, batch, digest, ui);
        slot.commits.insert(me); // the PREPARE is the primary's commit
        slot.sent_commit = true;
        out.broadcast(self.n, self.id, prep);
    }

    /// Answers a client retry for the op in flight at `seq`: retransmit
    /// the stored PREPARE (heals backups with counter gaps).
    fn reannounce(&self, seq: u64, out: &mut Outbox<MinBftMsg>) {
        if let Some(prep) = self.core.stored_prepares.get(seq).cloned() {
            out.broadcast(self.n, self.id, prep);
        }
    }

    /// Byzantine primary attempting equivocation: a valid PREPARE for the
    /// batch to half the backups and a *forged* certificate (same counter,
    /// fabricated tag — the USIG refuses to sign twice) for a conflicting
    /// batch to the rest. The hybrid makes the forgery detectable.
    fn forge_equivocation(&mut self, seq: u64, batch: Arc<Batch>, out: &mut Outbox<MinBftMsg>) {
        let view = self.core.vc.view();
        let digest = batch.digest();
        let Ok(ui) = self.core.usig.create_ui(&prepare_bytes(view, seq, &digest)) else {
            return;
        };
        let evil = conflicting_batch(&batch);
        let forged_ui = UI { id: UsigId(self.id.0), counter: ui.counter, tag: Tag([0xEE; 32]) };
        let half = self.n / 2 + 1;
        for i in 0..self.n {
            if i == self.id.0 {
                continue;
            }
            let msg = if i < half {
                MinBftMsg::Prepare { view, seq, batch: batch.clone(), ui }
            } else {
                MinBftMsg::Prepare { view, seq, batch: evil.clone(), ui: forged_ui }
            };
            out.send(Endpoint::Replica(ReplicaId(i)), msg);
        }
        let me = self.id;
        // lint: allow(ingress-expect) -- the shell keeps next_seq strictly above exec_upto
        let slot = self.core.slots.get_or_insert_default(seq).expect("fresh seq above watermark");
        slot.prepare(view, batch, digest, ui);
        slot.commits.insert(me);
        slot.sent_commit = true;
    }

    fn handle_prepare(
        &mut self,
        view: u64,
        seq: u64,
        batch: Arc<Batch>,
        ui: UI,
        out: &mut Outbox<MinBftMsg>,
    ) {
        // Below the watermark = already executed: rejected, not resurrected;
        // past the horizon: refused before the window grows. (Stash replays
        // and held-back messages come through here too.)
        if view != self.core.vc.view() || !self.core.slots.admits(seq) {
            return;
        }
        if batch.is_empty() {
            return; // never proposed by a correct primary
        }
        // The digest the UI certifies is the carried requests' own (see
        // `Batch`), so the certificate already covers the content.
        let digest = batch.digest();
        let primary = self.core.vc.primary_of(view);
        let me = self.id;
        let Some(slot) = self.core.slots.get_or_insert_default(seq) else { return };
        if let Some(d) = slot.digest {
            if d != digest {
                return; // conflicts with already-evidenced assignment
            }
        }
        self.shell.assign(seq, &batch);
        // lint: allow(ingress-expect) -- get_or_insert_default above returned Some for this seq
        let slot = self.core.slots.get_mut(seq).expect("slot just ensured");
        slot.prepare(view, batch.clone(), digest, ui);
        slot.commits.insert(primary);
        if !slot.sent_commit {
            slot.sent_commit = true;
            slot.commits.insert(me);
            let Ok(my_ui) = self.core.usig.create_ui(&commit_bytes(view, seq, &digest, ui.counter))
            else {
                return;
            };
            let commit = MinBftMsg::Commit(Arc::new(CommitVote {
                view,
                seq,
                batch,
                primary_ui: ui,
                from: self.id,
                ui: my_ui,
            }));
            self.record_sent(my_ui.counter, commit.clone());
            out.broadcast(self.n, self.id, commit);
        }
        self.try_execute(out);
    }

    fn handle_commit(&mut self, vote: &CommitVote, out: &mut Outbox<MinBftMsg>) {
        let CommitVote { view, seq, primary_ui, from, .. } = *vote;
        if view != self.core.vc.view() || !self.core.slots.admits(seq) {
            return; // an executed slot, or one past the horizon: no MAC for it
        }
        // The commit must reference a genuine primary certificate — checked
        // once per slot: whichever of the PREPARE or a COMMIT delivered
        // `(view, seq, digest, UI)` first paid for the MAC, and a COMMIT
        // quoting that very certificate is compared, not re-verified.
        // Anything else (another tag, counter or id, the same UI under a
        // later view's primary, no PREPARE accepted yet) pays in full.
        let digest = vote.batch.digest();
        let primary = self.core.vc.primary_of(view);
        let verified = self.core.slots.get(seq).is_some_and(|slot| {
            slot.digest == Some(digest) && slot.primary_cert == Some((view, primary_ui))
        });
        if !verified
            && !self.core.usig.verify_ui(
                UsigId(primary.0),
                &primary_ui,
                &prepare_bytes(view, seq, &digest),
            )
        {
            return;
        }
        let Some(slot) = self.core.slots.get_or_insert_default(seq) else { return };
        if let Some(d) = slot.digest {
            if d != digest {
                return;
            }
        }
        if slot.batch.is_none() {
            // Adopting content we never saw a PREPARE for: the primary
            // certificate verified above is over this content's digest.
            slot.batch = Some(vote.batch.clone());
        }
        slot.digest = Some(digest);
        slot.primary_cert = Some((view, primary_ui));
        slot.commits.insert(from);
        slot.commits.insert(primary);
        self.try_execute(out);
    }

    fn try_execute(&mut self, out: &mut Outbox<MinBftMsg>) {
        let quorum = self.commit_quorum();
        loop {
            let next = self.shell.exec_upto() + 1;
            let ready = match self.core.slots.get(next) {
                Some(s) => s.batch.is_some() && s.commits.len() >= quorum,
                None => false,
            };
            if !ready {
                break;
            }
            // Execution consumes the slot; the watermark retirement below
            // makes the sequence number permanently dead.
            // lint: allow(ingress-expect) -- `ready` above proved the slot exists in the window
            let slot = self.core.slots.remove(next).expect("checked");
            // lint: allow(ingress-expect) -- `ready` above proved batch.is_some()
            let batch = slot.batch.expect("checked");
            // lint: allow(ingress-expect) -- the digest is stored alongside the batch, never alone
            let digest = slot.digest.expect("digest follows batch");
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
        self.core.stored_prepares.retire_below(floor);
    }

    /// Ingests a [`MinBftMsg::CheckpointHint`] — the FillGap escalation
    /// for counters older than the resend ring. A verified certificate is
    /// adopted (state transfer chases it from the dispatch tail) and the
    /// responder's counter stream is resynced at its ring base; lying
    /// about one's own `ring_base` only disrupts one's own stream.
    fn handle_checkpoint_hint(
        &mut self,
        from: Endpoint,
        cert: CheckpointCert,
        ring_base: u64,
        sender: ReplicaId,
    ) {
        if from != Endpoint::Replica(sender) {
            return; // a replica may resync only its own stream
        }
        if self.shell.accept_cert(&cert).is_none() {
            return; // forged hint (the shell counted the rejection)
        }
        let s = sender.0 as usize;
        let Some(accepted) = self.core.accepted.get_mut(s) else { return };
        if ring_base > 0 && *accepted + 1 < ring_base {
            // Counters below the ring can never be resent; skip to the
            // resendable range so the stream un-wedges. The certificate
            // (plus state transfer) covers what those counters ordered.
            *accepted = ring_base - 1;
            // bounds: accepted and ingress share length n; s indexed accepted above
            self.core.ingress[s].retire_below(ring_base);
            self.shell.note_hint_resync();
        }
    }

    fn prepared_uncommitted(&self) -> PreparedSet {
        // Every slot still in the window is unexecuted (execution retires).
        self.core
            .slots
            .iter()
            .filter(|(_, s)| s.prepare_ok)
            .filter_map(|(seq, s)| s.batch.clone().map(|b| (seq, b)))
            .collect()
    }

    /// Votes for `new_view` (once) and checks whether that elects us.
    fn start_view_change(&mut self, new_view: u64, out: &mut Outbox<MinBftMsg>) {
        let prepared = self.prepared_uncommitted();
        let Some(vote) = self.core.vc.demand(new_view, self.now, prepared, &self.shell) else {
            return;
        };
        out.broadcast(self.n, self.id, MinBftMsg::ReqViewChange(vote));
        self.maybe_install_view(new_view, out);
    }

    fn handle_req_view_change(
        &mut self,
        from: Endpoint,
        vote: VcVote,
        out: &mut Outbox<MinBftMsg>,
    ) {
        let new_view = vote.new_view;
        let Some(count) = self.core.vc.record(from, vote, &mut self.shell) else { return };
        // In MinBFT a single valid suspicion suffices to join, because
        // UI certificates make false accusations non-amplifiable; we
        // require our own patience timer OR f+1 votes, matching the
        // conservative reading:
        if count >= (self.f + 1) as usize {
            self.start_view_change(new_view, out);
        }
        self.maybe_install_view(new_view, out);
    }

    /// Becomes primary of `new_view` once f+1 replicas demand it. (With
    /// f+1 quorums, full defense of the view change itself needs the
    /// USIG-signed view-change messages of the original protocol, a
    /// ROADMAP next step.)
    fn maybe_install_view(&mut self, new_view: u64, out: &mut Outbox<MinBftMsg>) {
        let own = self.prepared_uncommitted();
        let Some(plan) = self.core.vc.plan(new_view, self.commit_quorum(), own, &self.shell) else {
            return;
        };
        self.core.vc.installed(new_view);
        self.shell.resume_at(plan.next_seq);
        let preprepares = plan.repropose.clone();
        out.broadcast(self.n, self.id, MinBftMsg::NewView { view: new_view, preprepares });
        // Re-propose everything with fresh UIs as the new primary.
        self.install_as_primary(plan.repropose, out);
        self.replay_future(out);
    }

    fn install_as_primary(&mut self, entries: PreparedSet, out: &mut Outbox<MinBftMsg>) {
        let view = self.core.vc.view();
        for (seq, batch) in entries {
            if self.core.slots.is_retired(seq) {
                continue; // already executed: dead, not resurrectable
            }
            let digest = batch.digest();
            let Ok(ui) = self.core.usig.create_ui(&prepare_bytes(view, seq, &digest)) else {
                return;
            };
            let prep = MinBftMsg::Prepare { view, seq, batch: batch.clone(), ui };
            self.core.stored_prepares.insert(seq, prep.clone());
            self.record_sent(ui.counter, prep.clone());
            self.shell.assign(seq, &batch);
            let me = self.id;
            // lint: allow(ingress-expect) -- is_retired() continued the loop just above
            let slot = self.core.slots.get_or_insert_default(seq).expect("not retired");
            // Reset stale votes from the old view.
            slot.commits.clear();
            slot.prepare(view, batch, digest, ui);
            slot.commits.insert(me);
            slot.sent_commit = true;
            out.broadcast(self.n, self.id, prep);
        }
        self.try_execute(out);
    }

    fn handle_new_view(&mut self, view: u64, from: Endpoint, out: &mut Outbox<MinBftMsg>) {
        if view <= self.core.vc.view() {
            return;
        }
        if from != Endpoint::Replica(self.core.vc.primary_of(view)) {
            return;
        }
        // Adopt the view; actual agreement re-runs via the primary's fresh
        // PREPAREs (which carry verifiable UIs). Clear stale votes.
        self.core.vc.installed(view);
        for slot in self.core.slots.values_mut() {
            slot.commits.clear();
            slot.prepare_ok = false;
            slot.sent_commit = false;
        }
        self.shell.rearm_patience(out);
        self.replay_future(out);
    }

    /// Re-dispatches messages stashed for views we had not installed yet.
    fn replay_future(&mut self, out: &mut Outbox<MinBftMsg>) {
        let current = self.core.vc.view();
        let stash = std::mem::take(&mut self.core.future);
        for (sender, msg) in stash {
            let msg_view = match &msg {
                MinBftMsg::Prepare { view, .. } => *view,
                MinBftMsg::Commit(vote) => vote.view,
                _ => continue,
            };
            if msg_view > current {
                self.core.future.push((sender, msg)); // still ahead of us
            } else {
                // From a generic peer endpoint: dispatch re-checks everything.
                self.dispatch(Endpoint::Replica(self.core.vc.primary_of(msg_view)), msg, out);
            }
        }
    }

    fn dispatch(&mut self, from: Endpoint, msg: MinBftMsg, out: &mut Outbox<MinBftMsg>) {
        match msg {
            MinBftMsg::Request(req) => match self.shell.intake(req, self.core.vc.role(), out) {
                Intake::Sealed(reqs) => self.propose(reqs, out),
                Intake::Reannounce(seq) => self.reannounce(seq, out),
                Intake::Done => {}
            },
            MinBftMsg::Prepare { view, seq, batch, ui } => {
                // The UI certifies the batch digest, which is a function of
                // the carried requests (see `Batch`).
                let signed = prepare_bytes(view, seq, &batch.digest());
                let sender = self.core.vc.primary_of(view);
                if view > self.core.vc.view() {
                    // The installing NewView may still be in flight. Do NOT
                    // consume the sender's UI counter yet.
                    let msg = MinBftMsg::Prepare { view, seq, batch, ui };
                    self.stash_future(sender, &ui, &signed, msg);
                    return;
                }
                let held_back = || MinBftMsg::Prepare { view, seq, batch: Arc::clone(&batch), ui };
                if self.ingest_ui(sender, &ui, &signed, held_back, out) {
                    self.handle_prepare(view, seq, batch, ui, out);
                    self.drain_ready(out);
                }
            }
            MinBftMsg::Commit(vote) => {
                let digest = vote.batch.digest();
                let signed = commit_bytes(vote.view, vote.seq, &digest, vote.primary_ui.counter);
                if vote.view > self.core.vc.view() {
                    let (sender, ui) = (vote.from, vote.ui);
                    self.stash_future(sender, &ui, &signed, MinBftMsg::Commit(vote));
                    return;
                }
                let held_back = || MinBftMsg::Commit(Arc::clone(&vote));
                if self.ingest_ui(vote.from, &vote.ui, &signed, held_back, out) {
                    self.handle_commit(&vote, out);
                    self.drain_ready(out);
                }
            }
            MinBftMsg::ReqViewChange(vote) => self.handle_req_view_change(from, vote, out),
            MinBftMsg::NewView { view, preprepares } => {
                let _ = preprepares; // re-proposals arrive as fresh PREPAREs
                self.handle_new_view(view, from, out)
            }
            MinBftMsg::FillGap { sender, from_counter, upto, from: requester } => {
                // Serve only gaps in OUR stream, only over the requester's
                // own link, with a bounded burst; the resends are the
                // original UI-certified messages, which the requester
                // re-verifies and ingests in counter order.
                if sender == self.id && requester != self.id && from == Endpoint::Replica(requester)
                {
                    if from_counter < self.core.sent_ui.base() {
                        // The gap starts below the resend ring: those
                        // counters are gone and USIGs never re-sign them.
                        // Hand over the stable certificate (if any) so the
                        // requester resyncs and escalates to state
                        // transfer instead of backing off forever.
                        if let Some(cert) = self.shell.ckpt().stable() {
                            out.send(
                                Endpoint::Replica(requester),
                                MinBftMsg::CheckpointHint {
                                    cert: Box::new(cert.clone()),
                                    ring_base: self.core.sent_ui.base(),
                                    from: self.id,
                                },
                            );
                        }
                    }
                    let hi = upto.min(from_counter.saturating_add(GAP_FILL_BURST - 1));
                    for counter in from_counter..=hi {
                        if let Some(m) = self.core.sent_ui.get(counter) {
                            out.send(Endpoint::Replica(requester), m.clone());
                        }
                    }
                }
            }
            MinBftMsg::CheckpointHint { cert, ring_base, from: sender } => {
                self.handle_checkpoint_hint(from, *cert, ring_base, sender)
            }
            MinBftMsg::Shell(_) => {}
        }
    }

    fn drain_ready(&mut self, out: &mut Outbox<MinBftMsg>) {
        while let Some(msg) = self.take_ready() {
            match msg {
                MinBftMsg::Prepare { view, seq, batch, ui } => {
                    self.handle_prepare(view, seq, batch, ui, out)
                }
                MinBftMsg::Commit(vote) => self.handle_commit(&vote, out),
                _ => {}
            }
        }
    }
}

// The node-facing routing table: every simulator event enters here.
impl Core for MinBft {
    type Msg = MinBftMsg;
    const PROTOCOL: Protocol = Protocol::MinBft;
    const REQUEST: fn(Arc<Request>) -> MinBftMsg = MinBftMsg::Request;

    fn dispatch(r: &mut MinBftReplica, input: Input<MinBftMsg>, out: &mut Outbox<MinBftMsg>) {
        match input {
            Input::Message { from, msg } => r.dispatch(from, msg, out),
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
        // The USIG stays: the trusted counter is hardware-monotonic, it
        // survives software rejuvenation, and resuming it (rather than
        // resetting) is what keeps the replica's counter stream acceptable
        // to peers.
        for window in &mut self.ingress {
            *window = SeqWindow::with_base(1);
        }
        self.future = Vec::new();
        self.accepted.fill(0);
        self.sent_ui = SeqWindow::with_base(1);
        self.gap_req_at.fill(0);
        self.slots = SeqWindow::with_base(1);
        self.stored_prepares = SeqWindow::with_base(1);
        self.vc.wipe();
    }

    fn installed(r: &mut MinBftReplica, plan: &CstInstall, out: &mut Outbox<MinBftMsg>) {
        // The cluster may have moved on while we were down; join its view,
        // re-arm patience for what is still pending, and resume execution
        // (which retires the windows below the installed watermark).
        r.core.vc.join(plan.view);
        r.shell.rearm_patience(out);
        r.try_execute(out);
    }

    fn recovered(r: &mut MinBftReplica, state: &RecoveredState) {
        // Resume the USIG at or above the highest persisted counter: the
        // restarted process must never certify two statements under one
        // counter value. Anchoring the resend ring *above* that watermark
        // makes peers' FillGap requests for pre-crash counters escalate
        // to CheckpointHint (exactly as after a rejuvenation wipe), so
        // their streams resync instead of wedging.
        if state.usig_counter > 0 {
            r.core.usig.resume(state.usig_counter);
            r.core.sent_ui = SeqWindow::with_base(state.usig_counter + 1);
        }
        // Executed sequence numbers are dead from the first input on — both
        // below the snapshot and below the replayed WAL tail.
        r.retire_executed();
    }

    fn mac_count(&self) -> u64 {
        self.usig.issued() + self.usig.verified()
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Behavior;
    use crate::api::{ClientId, Cluster, OpId, ReplicaNode};
    use crate::dense::SLOT_HORIZON;
    use crate::runner::{run, RunConfig};

    fn config(f: u32, clients: u32, reqs: u64, seed: u64) -> RunConfig {
        RunConfig { f, clients, requests_per_client: reqs, seed, ..Default::default() }
    }

    #[test]
    fn fault_free_commits_with_2f_plus_1() {
        let cfg = config(1, 2, 10, 21);
        let mut cluster = MinBftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.n_replicas, 3, "MinBFT needs only 2f+1 replicas");
        assert_eq!(report.committed, 20);
        assert!(report.safety_ok);
    }

    #[test]
    fn cheaper_than_pbft_in_messages() {
        let cfg = config(1, 1, 10, 23);
        let minbft = run(&mut MinBftCluster::new(&cfg), &cfg);
        let pbft = run(&mut crate::pbft::PbftCluster::new(&cfg), &cfg);
        assert!(
            minbft.messages_per_commit() < pbft.messages_per_commit(),
            "minbft {:.1} msgs/op must beat pbft {:.1}",
            minbft.messages_per_commit(),
            pbft.messages_per_commit()
        );
    }

    #[test]
    fn batching_amortizes_usig_certificates() {
        let unbatched = config(1, 8, 8, 71);
        let batched = RunConfig { batch_size: 8, batch_flush: 100, ..unbatched.clone() };
        let mut c1 = MinBftCluster::new(&unbatched);
        let r1 = run(&mut c1, &unbatched);
        let mut c2 = MinBftCluster::new(&batched);
        let r2 = run(&mut c2, &batched);
        assert_eq!(r1.committed, 64);
        assert_eq!(r2.committed, 64);
        assert!(r1.safety_ok && r2.safety_ok);
        let macs = |c: &MinBftCluster| -> u64 {
            c.nodes()
                .iter()
                .map(|n| {
                    let (i, v) = n.mac_ops();
                    i + v
                })
                .sum()
        };
        let (m1, m2) = (macs(&c1), macs(&c2));
        assert!(m2 * 2 < m1, "batch=8 must cut MAC operations by well over half: {m2} vs {m1}");
        assert_eq!(c1.nodes()[0].state_digest(), c2.nodes()[0].state_digest());
    }

    #[test]
    fn pipelined_clients_amortize_usig_further() {
        // Same client count, batch 8: windowed clients raise concurrent
        // demand, so batches actually fill and per-op USIG work drops.
        let base = RunConfig {
            batch_size: 8,
            batch_flush: 100,
            link_occupancy: 8,
            ..config(1, 4, 16, 77)
        };
        let piped_cfg = RunConfig { client_window: 4, ..base.clone() };
        let mut c1 = MinBftCluster::new(&base);
        let r1 = run(&mut c1, &base);
        let mut c2 = MinBftCluster::new(&piped_cfg);
        let r2 = run(&mut c2, &piped_cfg);
        assert_eq!(r1.committed, 64);
        assert_eq!(r2.committed, 64);
        assert!(r1.safety_ok && r2.safety_ok);
        let macs = |c: &MinBftCluster| -> u64 {
            c.nodes()
                .iter()
                .map(|n| {
                    let (i, v) = n.mac_ops();
                    i + v
                })
                .sum()
        };
        assert!(
            macs(&c2) < macs(&c1),
            "fuller batches mean fewer USIG ops: {} vs {}",
            macs(&c2),
            macs(&c1)
        );
        assert_eq!(c1.nodes()[0].state_digest(), c2.nodes()[0].state_digest());
    }

    #[test]
    fn forged_ui_equivocation_is_contained_with_batching() {
        let cfg = RunConfig {
            batch_size: 4,
            batch_flush: 80,
            max_cycles: 8_000_000,
            ..config(1, 4, 4, 73)
        };
        let mut cluster = MinBftCluster::new(&cfg);
        cluster.set_script(ReplicaId(0), Behavior::ForgeUi.into());
        let report = run(&mut cluster, &cfg);
        assert!(report.safety_ok, "forged batch certificates must not split logs");
        assert_eq!(report.committed, 16);
    }

    #[test]
    fn tolerates_silent_backup() {
        let cfg = config(1, 1, 10, 25);
        let mut cluster = MinBftCluster::new(&cfg);
        cluster.set_script(ReplicaId(2), Behavior::Silent.into());
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 10);
        assert!(report.safety_ok);
    }

    #[test]
    fn primary_crash_recovers_via_view_change() {
        let cfg = RunConfig { max_cycles: 8_000_000, ..config(1, 1, 8, 27) };
        let mut cluster = MinBftCluster::new(&cfg);
        cluster.set_script(ReplicaId(0), Behavior::CrashAt(150).into());
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 8);
        assert!(report.safety_ok);
        assert!(cluster.nodes()[1].view() >= 1, "view advanced past the dead primary");
    }

    #[test]
    fn crash_at_mid_view_change_still_elects_and_commits() {
        // Same cascading-failure regression as PBFT's: the view-0 primary
        // crashes, then the view-1 primary's CrashAt fires mid view-change.
        // With f=2 (n=5) the remaining f+1=3 replicas are exactly a commit
        // quorum: view 2 must install and the pending batches must commit.
        let cfg = RunConfig {
            batch_size: 4,
            batch_flush: 80,
            max_cycles: 30_000_000,
            ..config(2, 4, 4, 85)
        };
        let mut cluster = MinBftCluster::new(&cfg);
        // Crash the primary *during* the proposal burst (cycle 40) so
        // batches are genuinely pending when the failover chain starts.
        cluster.set_script(ReplicaId(0), Behavior::CrashAt(40).into());
        cluster.set_script(ReplicaId(1), Behavior::CrashAt(1525).into());
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 16, "pending batches must commit after the double failover");
        assert!(report.safety_ok);
        for id in 2..5usize {
            assert!(
                cluster.nodes()[id].view() >= 2,
                "replica {id} stuck at view {}",
                cluster.nodes()[id].view()
            );
        }
    }

    #[test]
    fn forged_ui_equivocation_is_contained() {
        let cfg = RunConfig { max_cycles: 8_000_000, ..config(1, 2, 6, 29) };
        let mut cluster = MinBftCluster::new(&cfg);
        cluster.set_script(ReplicaId(0), Behavior::ForgeUi.into());
        let report = run(&mut cluster, &cfg);
        assert!(report.safety_ok, "forged certificates must not split the log");
        assert_eq!(report.committed, 12, "correct replicas still make progress");
    }

    #[test]
    fn message_loss_recovered_by_prepare_retransmission() {
        let cfg = RunConfig { drop_rate: 0.05, max_cycles: 8_000_000, ..config(1, 1, 8, 31) };
        let mut cluster = MinBftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 8);
        assert!(report.safety_ok);
    }

    #[test]
    fn f2_scales_to_five_replicas() {
        let cfg = config(2, 1, 6, 33);
        let mut cluster = MinBftCluster::new(&cfg);
        cluster.set_script(ReplicaId(4), Behavior::Crashed.into());
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.n_replicas, 5);
        assert_eq!(report.committed, 6);
        assert!(report.safety_ok);
    }

    #[test]
    fn fillgap_below_ring_escalates_via_checkpoint_hint() {
        // Satellite path of the checkpoint subsystem: a FillGap for
        // counters older than the resend ring cannot be served (USIGs
        // never re-sign), so the responder hands over its stable
        // certificate and the requester resyncs the stream and escalates
        // to state transfer. The ring never ages out in short runs, so
        // the retirement is staged white-box here.
        let cfg = RunConfig { checkpoint_interval: 3, ..config(1, 2, 12, 29) };
        let mut cluster = MinBftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 24);

        // Responder side: age replica 1's ring past its early counters
        // and ask for a gap entirely below the new base.
        let ring_base = 5;
        let requester = ReplicaId(2);
        let responder = &mut cluster.nodes_mut()[1];
        responder.core.sent_ui.retire_below(ring_base);
        let mut out = Outbox::new();
        responder.on_input(
            Input::Message {
                from: Endpoint::Replica(requester),
                msg: MinBftMsg::FillGap {
                    sender: ReplicaId(1),
                    from_counter: 1,
                    upto: 4,
                    from: requester,
                },
            },
            10_000,
            &mut out,
        );
        let hint = out
            .msgs
            .iter()
            .find_map(|(to, m)| match m {
                MinBftMsg::CheckpointHint { cert, ring_base: rb, from } => {
                    Some((*to, cert.clone(), *rb, *from))
                }
                _ => None,
            })
            .expect("a gap below the ring must answer with a checkpoint hint");
        let (to, cert, rb, from) = hint;
        assert_eq!(to, Endpoint::Replica(requester));
        assert_eq!(from, ReplicaId(1));
        assert_eq!(rb, ring_base);
        assert!(cert.seq > 0, "the hint must carry the stable certificate");

        // Requester side: a freshly wiped replica ingests the hint — it
        // must resync the responder's stream at the ring base and chase
        // the certificate with a state-transfer request.
        let node = &mut cluster.nodes_mut()[2];
        node.wipe();
        let mut out = Outbox::new();
        node.on_input(
            Input::Message {
                from: Endpoint::Replica(ReplicaId(1)),
                msg: MinBftMsg::CheckpointHint {
                    cert: cert.clone(),
                    ring_base,
                    from: ReplicaId(1),
                },
            },
            10_001,
            &mut out,
        );
        assert_eq!(node.core.accepted[1], ring_base - 1, "stream resynced at the ring base");
        assert!(
            out.msgs
                .iter()
                .any(|(_, m)| matches!(m, MinBftMsg::Shell(ShellMsg::StateRequest { .. }))),
            "the adopted certificate must trigger a state-transfer request"
        );

        // A spoofed hint (relayed for someone else's stream) is inert.
        let accepted_before = node.core.accepted[0];
        let mut out = Outbox::new();
        node.on_input(
            Input::Message {
                from: Endpoint::Replica(ReplicaId(1)),
                msg: MinBftMsg::CheckpointHint { cert, ring_base: 400, from: ReplicaId(0) },
            },
            10_002,
            &mut out,
        );
        assert_eq!(node.core.accepted[0], accepted_before, "only the sender may resync its stream");
    }

    #[test]
    fn plain_counter_protection_is_available_for_e2() {
        let cfg = config(1, 1, 4, 35);
        let mut cluster = MinBftCluster::with_protection(&cfg, CounterProtection::Plain);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 4);
        assert_eq!(cluster.nodes()[0].core.usig.protection_name(), "plain");
    }

    /// Every queued event memcpys the whole message enum through the
    /// timing-wheel arena, so the enum's size is a hot-path constant. The
    /// rare bulky variants (commit votes with two 48-byte UIs, checkpoint
    /// vouchers/certs, state transfers) are boxed to pin the ceiling at
    /// the hot agreement variants; this test keeps it pinned.
    #[test]
    fn message_enums_stay_small() {
        use std::mem::size_of;
        // MinBFT's ceiling is Prepare { u64, u64, Arc<Batch>, UI } — two
        // words of header, one pointer, one 48-byte certificate. The
        // ceilings are the sizes today: a variant that grows an enum must
        // raise its number here, on purpose.
        assert!(size_of::<MinBftMsg>() <= 80, "MinBftMsg grew to {}", size_of::<MinBftMsg>());
        assert!(
            size_of::<CommitVote>() > size_of::<MinBftMsg>(),
            "boxing CommitVote is earning its keep"
        );
        assert!(
            size_of::<crate::pbft::PbftMsg>() <= 64,
            "PbftMsg grew to {}",
            size_of::<crate::pbft::PbftMsg>()
        );
        assert!(
            size_of::<crate::passive::PassiveMsg>() <= 40,
            "PassiveMsg grew to {}",
            size_of::<crate::passive::PassiveMsg>()
        );
    }

    /// MinBFT twin of PBFT's
    /// `recovered_replica_refuses_proposals_below_its_replayed_wal`: a
    /// genuine, in-order PREPARE for a slot the restarted backup already
    /// replayed from its WAL must not draw a COMMIT vote.
    #[test]
    fn recovered_replica_refuses_proposals_below_its_replayed_wal() {
        let cfg = config(1, 1, 1, 5);
        let mut nodes = MinBftCluster::new(&cfg).into_nodes();
        let request = |tag: &str| {
            Arc::new(Request {
                op: OpId { client: ClientId(1), seq: 1 },
                payload: format!("SET k {tag}").into_bytes(),
            })
        };
        // The primary proposes slot 1 under its first USIG counter.
        let mut out = Outbox::new();
        let client = Endpoint::Client(ClientId(1));
        nodes[0].on_input(
            Input::Message { from: client, msg: MinBftMsg::Request(request("live")) },
            1,
            &mut out,
        );
        let (_, prepare) = out
            .msgs
            .iter()
            .find(|(to, m)| {
                *to == Endpoint::Replica(ReplicaId(1)) && matches!(m, MinBftMsg::Prepare { .. })
            })
            .cloned()
            .expect("primary proposed");
        // The backup restarts with slot 1 already in its WAL.
        let wal = vec![(1, Arc::new(Batch::single(request("wal"))))];
        let report = nodes[1].recover(RecoveredState { commits: wal, ..Default::default() });
        assert_eq!(report.replayed, 1);
        let mut out = Outbox::new();
        nodes[1].on_input(
            Input::Message { from: Endpoint::Replica(ReplicaId(0)), msg: prepare },
            10,
            &mut out,
        );
        assert!(out.msgs.is_empty(), "voted on an executed sequence number: {:?}", out.msgs);
    }

    fn vote(new_view: u64, from: u32) -> MinBftMsg {
        MinBftMsg::ReqViewChange(VcVote {
            new_view,
            from: ReplicaId(from),
            prepared: Vec::new(),
            executed_upto: 0,
            cert: None,
        })
    }

    fn replica(id: u32) -> MinBftReplica {
        MinBftReplica::new(ReplicaId(id), 1, KeyRing::provision(5, 3), CounterProtection::SecDed)
    }

    /// Replica `id` of an f = 2 cluster: five replicas, commit quorum 3, so
    /// an accepted PREPARE (primary + own vote) leaves its slot open.
    fn replica_of_five(id: u32) -> MinBftReplica {
        MinBftReplica::new(ReplicaId(id), 2, KeyRing::provision(5, 5), CounterProtection::SecDed)
    }

    fn batch_of(tag: &str) -> Arc<Batch> {
        Arc::new(Batch::single(Arc::new(Request {
            op: OpId { client: ClientId(1), seq: 1 },
            payload: format!("SET k {tag}").into_bytes(),
        })))
    }

    /// A PREPARE certified by `signer`'s own USIG (its next counter).
    fn prepare_from(signer: &mut MinBftReplica, view: u64, seq: u64, batch: &Arc<Batch>) -> UI {
        signer.core.usig.create_ui(&prepare_bytes(view, seq, &batch.digest())).unwrap()
    }

    /// A COMMIT from `signer` quoting `primary_ui`, its own UI genuine.
    fn commit_from(
        signer: &mut MinBftReplica,
        view: u64,
        seq: u64,
        batch: &Arc<Batch>,
        primary_ui: UI,
    ) -> MinBftMsg {
        let statement = commit_bytes(view, seq, &batch.digest(), primary_ui.counter);
        let ui = signer.core.usig.create_ui(&statement).unwrap();
        let (batch, from) = (batch.clone(), signer.id);
        MinBftMsg::Commit(Arc::new(CommitVote { view, seq, batch, primary_ui, from, ui }))
    }

    /// Delivers `msg` from replica `from`; returns how many MACs it cost.
    fn deliver(
        r: &mut MinBftReplica,
        from: u32,
        msg: MinBftMsg,
        out: &mut Outbox<MinBftMsg>,
    ) -> u64 {
        let before = r.core.usig.verified();
        r.on_input(Input::Message { from: Endpoint::Replica(ReplicaId(from)), msg }, 10, out);
        r.core.usig.verified() - before
    }

    fn votes(r: &MinBftReplica, seq: u64) -> usize {
        r.core.slots.get(seq).map_or(0, |s| s.commits.len())
    }

    /// Verify-once is not verify-never: only a COMMIT quoting *exactly* the
    /// certificate the PREPARE delivered skips the primary's MAC.
    #[test]
    fn commit_quoting_another_primary_certificate_is_verified_and_refused() {
        let (mut p, mut r) = (replica_of_five(0), replica_of_five(2));
        let batch = batch_of("a");
        let ui = prepare_from(&mut p, 0, 1, &batch);
        let mut out = Outbox::new();
        let prepare = MinBftMsg::Prepare { view: 0, seq: 1, batch: batch.clone(), ui };
        assert_eq!(deliver(&mut r, 0, prepare, &mut out), 1);
        assert_eq!(votes(&r, 1), 2, "primary + own vote, below the quorum of 3");

        let mut bad_tag = ui;
        bad_tag.tag.0[0] ^= 1;
        let bad_counter = UI { counter: ui.counter + 1, ..ui };
        let bad_id = UI { id: UsigId(3), ..ui };
        for (sender, quoted, macs) in [(1, bad_tag, 2), (3, bad_counter, 2), (4, bad_id, 1)] {
            let commit = commit_from(&mut replica_of_five(sender), 0, 1, &batch, quoted);
            // The sender's UI is genuine and costs one MAC; the quoted one is
            // checked too (a foreign id is refused before its MAC) and fails.
            assert_eq!(deliver(&mut r, sender, commit, &mut out), macs, "sender {sender}");
            assert_eq!(votes(&r, 1), 2, "sender {sender}: a forged quote must not count");
        }
        assert_eq!(r.committed_seq(), 0);

        // The accepted certificate itself: the sender's MAC only, and the
        // vote counts — the third of three, so the slot executes.
        let mut honest = replica_of_five(1);
        honest.core.usig.resume(1); // its counter 1 was spent above
        let commit = commit_from(&mut honest, 0, 1, &batch, ui);
        assert_eq!(deliver(&mut r, 1, commit, &mut out), 1);
        assert_eq!(r.committed_seq(), 1);
    }

    /// The remembered pair includes the view: the same UI quoted in a later
    /// view is a different statement (and may be another primary's to make).
    #[test]
    fn accepted_ui_replayed_in_a_later_view_is_verified_and_refused() {
        for (later, macs) in [(1, 1), (5, 2)] {
            let (mut p, mut r) = (replica_of_five(0), replica_of_five(2));
            let batch = batch_of("a");
            let ui = prepare_from(&mut p, 0, 1, &batch);
            let mut out = Outbox::new();
            let prepare = MinBftMsg::Prepare { view: 0, seq: 1, batch: batch.clone(), ui };
            deliver(&mut r, 0, prepare, &mut out);
            let new_view = MinBftMsg::NewView { view: later, preprepares: Vec::new() };
            deliver(&mut r, (later % 5) as u32, new_view, &mut out);
            assert_eq!((r.view(), votes(&r, 1)), (later, 0));

            // View 1 belongs to replica 1: replica 0's UI is refused by id.
            // View 5 is replica 0's again, but its UI certifies "view 0":
            // under "view 5" the MAC is computed and does not match.
            let commit = commit_from(&mut replica_of_five(3), later, 1, &batch, ui);
            assert_eq!(deliver(&mut r, 3, commit, &mut out), macs, "view {later}");
            assert_eq!(votes(&r, 1), 0, "view {later}: the stale certificate must not count");
        }
    }

    #[test]
    fn commit_before_its_prepare_pays_the_check_and_the_prepare_is_still_ingested() {
        let (mut p, mut r) = (replica_of_five(0), replica_of_five(2));
        let batch = batch_of("a");
        let ui = prepare_from(&mut p, 0, 1, &batch);
        let mut out = Outbox::new();
        // No PREPARE accepted yet: sender's MAC + the primary's.
        let first = commit_from(&mut replica_of_five(1), 0, 1, &batch, ui);
        assert_eq!(deliver(&mut r, 1, first, &mut out), 2);
        assert_eq!(votes(&r, 1), 2, "the voter and the primary it quotes");
        // A forged quote is still refused while the slot waits.
        let forged = UI { tag: Tag([0xEE; 32]), ..ui };
        let second = commit_from(&mut replica_of_five(3), 0, 1, &batch, forged);
        assert_eq!(deliver(&mut r, 3, second, &mut out), 2);
        assert_eq!(votes(&r, 1), 2);
        // The PREPARE's own UI is always checked — the primary's counter
        // stream depends on it — and advances that stream in order.
        assert_eq!(r.core.accepted[0], 0);
        let prepare = MinBftMsg::Prepare { view: 0, seq: 1, batch: batch.clone(), ui };
        assert_eq!(deliver(&mut r, 0, prepare, &mut out), 1);
        assert_eq!(r.core.accepted[0], 1);
        assert_eq!(r.committed_seq(), 1, "primary + replica 1 + own vote");
        assert!(out.msgs.iter().any(|(_, m)| matches!(m, MinBftMsg::Commit(v) if v.from == r.id)));
        // A vote for the executed slot: the sender's MAC, nothing more.
        let late = commit_from(&mut replica_of_five(4), 0, 1, &batch, ui);
        assert_eq!(deliver(&mut r, 4, late, &mut out), 1);
    }

    /// A valid UI is all an intruded replica needs to name any slot: one
    /// COMMIT far past the watermark, quoting a genuine primary
    /// certificate, must not grow the agreement window to it. It costs the
    /// sender's MAC only, its counter is consumed, and a COMMIT exactly at
    /// the horizon is still taken.
    #[test]
    fn a_certified_commit_past_the_slot_horizon_leaves_the_window_alone() {
        let (mut p, mut r, mut voter) = (replica(0), replica(1), replica(2));
        let batch = batch_of("far");
        let capacity = r.core.slots.capacity();
        let mut out = Outbox::new();
        for seq in [SLOT_HORIZON + 2, 1 << 28] {
            let ui = prepare_from(&mut p, 0, seq, &batch);
            let commit = commit_from(&mut voter, 0, seq, &batch, ui);
            assert_eq!(deliver(&mut r, 2, commit, &mut out), 1, "slot {seq}");
            assert_eq!((r.core.slots.len(), r.core.slots.capacity()), (0, capacity), "slot {seq}");
        }
        assert_eq!(r.core.accepted[2], 2, "the voter's stream moved on: nothing is held back");

        let at = 1 + SLOT_HORIZON;
        let ui = prepare_from(&mut p, 0, at, &batch);
        let commit = commit_from(&mut voter, 0, at, &batch, ui);
        assert_eq!(deliver(&mut r, 2, commit, &mut out), 2);
        assert_eq!(votes(&r, at), 2, "the voter and the primary it quotes");
    }

    /// The stash for views not installed yet holds certified messages only:
    /// forged ones cost their sender nothing to make and must cost the
    /// receiver nothing to keep.
    #[test]
    fn forged_future_view_prepares_are_not_stashed() {
        let mut r = replica(1);
        let mut out = Outbox::new();
        let batch = batch_of("a");
        for i in 0..10_000u64 {
            let view = if i % 2 == 0 { u64::MAX } else { 2 + i };
            let ui = UI { id: UsigId((view % 3) as u32), counter: i + 1, tag: Tag([0xEE; 32]) };
            let prepare = MinBftMsg::Prepare { view, seq: i + 1, batch: batch.clone(), ui };
            deliver(&mut r, 0, prepare, &mut out);
            let forged = UI { id: UsigId(0), ..ui };
            let vote = CommitVote {
                view,
                seq: i + 1,
                batch: batch.clone(),
                primary_ui: ui,
                from: ReplicaId(0),
                ui: forged,
            };
            deliver(&mut r, 0, MinBftMsg::Commit(Arc::new(vote)), &mut out);
        }
        assert!(r.core.future.is_empty());
        assert_eq!(r.rejected_votes(), 0, "forgeries are refused, not counted as drops");
        assert!(out.msgs.is_empty());
    }

    #[test]
    fn certified_future_view_messages_stop_at_the_per_sender_cap() {
        let mut r = replica(1);
        let mut sender = replica(2); // primary of view 2
        let mut out = Outbox::new();
        let batch = batch_of("a");
        let extra = 88;
        for seq in 1..=SENT_RETENTION + extra {
            let ui = prepare_from(&mut sender, 2, seq, &batch);
            let prepare = MinBftMsg::Prepare { view: 2, seq, batch: batch.clone(), ui };
            assert_eq!(deliver(&mut r, 2, prepare, &mut out), 1);
        }
        assert_eq!(r.core.future.len() as u64, SENT_RETENTION);
        assert_eq!(r.rejected_votes(), extra, "the newest beyond the cap are dropped and counted");
        assert_eq!(r.core.accepted[2], 0, "stashing must not consume the sender's counters");
        // The cap is per sender: another replica's stream still has room.
        let mut other = replica(0);
        let commit = commit_from(&mut other, 2, 1, &batch, prepare_from(&mut sender, 2, 1, &batch));
        deliver(&mut r, 0, commit, &mut out);
        assert_eq!(r.core.future.len() as u64, SENT_RETENTION + 1);
        assert_eq!(r.rejected_votes(), extra);
    }

    #[test]
    fn early_prepare_for_the_next_view_is_replayed_and_committed_after_the_new_view() {
        let mut r = replica(2);
        let mut next_primary = replica(1); // primary of view 1
        let mut out = Outbox::new();
        let batch = batch_of("a");
        let ui = prepare_from(&mut next_primary, 1, 1, &batch);
        let prepare = MinBftMsg::Prepare { view: 1, seq: 1, batch, ui };
        deliver(&mut r, 1, prepare, &mut out);
        assert_eq!((r.core.future.len(), r.core.accepted[1], r.committed_seq()), (1, 0, 0));
        let new_view = MinBftMsg::NewView { view: 1, preprepares: Vec::new() };
        deliver(&mut r, 1, new_view, &mut out);
        assert_eq!((r.core.future.len(), r.core.accepted[1], r.view()), (0, 1, 1));
        assert_eq!(r.committed_seq(), 1, "primary + own vote is the f+1 quorum");
        assert!(out.msgs.iter().any(|(_, m)| matches!(m, MinBftMsg::Commit(v) if v.view == 1)));
        assert!(out.msgs.iter().any(|(_, m)| matches!(m, MinBftMsg::Shell(ShellMsg::Reply(_)))));
    }

    /// The voter id is wire-supplied: one naming a replica outside the
    /// cluster must be refused, not used as an index (a remote crash).
    #[test]
    fn view_change_vote_from_outside_the_cluster_is_refused() {
        let mut r = replica(1);
        let mut out = Outbox::new();
        for link in [2, 99] {
            let from = Endpoint::Replica(ReplicaId(link));
            r.on_input(Input::Message { from, msg: vote(1, 99) }, 10, &mut out);
        }
        assert_eq!((r.rejected_votes(), r.view()), (2, 0));
        assert!(out.msgs.is_empty());
    }

    /// One endpoint is one vote: replica 2 alone, claiming to be 0 and 2
    /// in turn, must not assemble the f+1 demands that make replica 1
    /// install view 1.
    #[test]
    fn one_link_cannot_forge_a_view_change_quorum() {
        let mut r = replica(1);
        let mut out = Outbox::new();
        let link = Endpoint::Replica(ReplicaId(2));
        for claimed in [0, 2] {
            r.on_input(Input::Message { from: link, msg: vote(1, claimed) }, 10, &mut out);
        }
        assert_eq!((r.rejected_votes(), r.view()), (1, 0));
        assert!(out.msgs.is_empty(), "one real demand is below the f+1 join threshold");
        // The same vote over its voter's own link does install it.
        let from = Endpoint::Replica(ReplicaId(0));
        r.on_input(Input::Message { from, msg: vote(1, 0) }, 11, &mut out);
        assert_eq!((r.rejected_votes(), r.view()), (1, 1));
        assert!(out.msgs.iter().any(|(_, m)| matches!(m, MinBftMsg::NewView { view: 1, .. })));
    }

    /// A gap fill resends to the replica that asked, over its own link: one
    /// naming another requester is not served to it.
    #[test]
    fn fillgap_is_served_only_over_the_requesters_link() {
        let cfg = config(1, 2, 4, 37);
        let mut cluster = MinBftCluster::new(&cfg);
        run(&mut cluster, &cfg);
        let responder = &mut cluster.nodes_mut()[1];
        let requester = ReplicaId(2);
        let fill =
            MinBftMsg::FillGap { sender: ReplicaId(1), from_counter: 1, upto: 4, from: requester };
        let mut out = Outbox::new();
        for link in [Endpoint::Replica(ReplicaId(0)), Endpoint::Client(ClientId(1))] {
            responder.on_input(Input::Message { from: link, msg: fill.clone() }, 10_000, &mut out);
        }
        assert!(out.msgs.is_empty(), "resent over a forged link: {:?}", out.msgs);
        let from = Endpoint::Replica(requester);
        responder.on_input(Input::Message { from, msg: fill }, 10_001, &mut out);
        assert_eq!(out.msgs.len(), 4, "counters 1..=4 resent");
        assert!(out.msgs.iter().all(|(to, _)| *to == from));
    }
}
