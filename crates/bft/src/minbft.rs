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
//! USIG contiguity window only advances in counter order). The slot
//! window, execution, intake and the view change — request-patience
//! timers, `ReqViewChange` votes carrying prepared-but-unexecuted entries,
//! a re-proposal round by the new primary — are the agreement front-end
//! PBFT shares (`agreement.rs`); this file keeps the USIG certification,
//! `FillGap`, `CheckpointHint`, the future-view stash, and how its new
//! primary leads.
//!
//! Wire format: PREPARE and COMMIT carry [`Arc<Batch>`] — the broadcast
//! fan-out bumps a refcount per peer instead of deep-cloning the batch.

use crate::adversary::{conflicting_batch, Fault};
use crate::agreement::{Agreement, Discipline, Slot};
use crate::api::{Batch, Endpoint, Outbox, ReplicaId, Request};
use crate::chassis::{Replica, Replicas};
use crate::checkpoint::CheckpointCert;
use crate::codec::SHELL_TAG;
use crate::dense::SeqWindow;
use crate::durable::{DurableEvent, RecoveredState};
use crate::protocol::Protocol;
use crate::runner::RunConfig;
use crate::shell::{carries_shell, ShellMsg};
use crate::viewchange::{PreparedSet, VcVote};
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
    /// Voter's own USIG certificate; its `id` is the voter.
    pub ui: UI,
}

crate::wire! { struct CommitVote { view, seq, batch, primary_ui, ui } }

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
    /// New primary's installation message. It carries no entries: the
    /// re-proposals follow as normal UI-certified PREPAREs.
    NewView {
        /// Installed view.
        view: u64,
    },
    /// Reliable-FIFO-channel emulation: the requester (its link) asks the
    /// receiver to resend its own UI-certified messages with counters in
    /// `[from_counter, upto]`.
    ///
    /// MinBFT's system model assumes eventually-reliable channels; a
    /// dropped PREPARE/COMMIT otherwise poisons the sender's counter
    /// stream at the receiver forever (the contiguity hold-back can never
    /// advance, and USIGs cannot re-sign old counters). The F5 drop-storm
    /// scenario exposed exactly that wedge. Resends are the *original*
    /// stored messages, so their UIs re-verify unchanged.
    FillGap {
        /// First missing counter.
        from_counter: u64,
        /// Last missing counter (inclusive; responders cap the burst).
        upto: u64,
    },
    /// FillGap answer for counters already retired from the resend ring:
    /// the responder cannot resend (USIGs never re-sign old counters), so
    /// it hands over its stable checkpoint certificate instead. The
    /// requester adopts the certificate, resyncs the responder's (its
    /// link's) counter stream at `ring_base`, and escalates to state
    /// transfer — the only path that can close a gap older than
    /// `SENT_RETENTION`.
    CheckpointHint {
        /// The responder's stable checkpoint certificate (f+1 vouchers).
        /// Boxed — certificates are rare and bulky.
        cert: Box<CheckpointCert>,
        /// Lowest counter still in the responder's resend ring; the
        /// requester fast-forwards the responder's `accepted` to just
        /// below it.
        ring_base: u64,
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
        5 => NewView { view },
        6 => FillGap { from_counter, upto },
        7 => CheckpointHint { cert, ring_base },
        SHELL_TAG => Shell(msg),
    }
}

/// MinBFT's evidence that a slot is prepared: the primary certificate the
/// slot's PREPARE carried.
#[derive(Debug, Default)]
pub struct PrimaryCert {
    /// The primary certificate `(view, UI)` over the slot's digest that
    /// this replica has verified (or, as primary, issued). A COMMIT quoting
    /// exactly this pair needs no second MAC; the view is part of the pair
    /// because the same UI quoted in a later view names another primary's
    /// key and must fail under it.
    primary: Option<(u64, UI)>,
    /// Whether the slot's PREPARE was taken in the current view.
    prepared: bool,
}

impl PrimaryCert {
    /// Takes the PREPARE certificate `(view, ui)` the caller has verified
    /// or issued.
    fn prepare(&mut self, view: u64, ui: UI) {
        self.primary = Some((view, ui));
        self.prepared = true;
    }
}

impl Slot<PrimaryCert> {
    /// Takes this primary's own PREPARE `(view, ui)`, which is also its
    /// commit vote.
    fn issued(&mut self, view: u64, ui: UI, me: ReplicaId) {
        self.cert.prepare(view, ui);
        self.commits.insert(me);
        self.sent_commit = true;
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

/// Which register protects each replica's USIG counter (ablations swap
/// this; `rsoc_hybrid::usig`'s tests pin what each does with a flipped bit).
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

/// MinBFT's own ordering state: the USIG, the per-sender counter streams
/// and their hold-back, the future-view stash and the resend ring.
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
    /// Last accepted USIG counter per sender (dense by replica id).
    accepted: Vec<u64>,
    /// This replica's own UI-certified sends, keyed by counter — the
    /// resend store behind [`MinBftMsg::FillGap`] (bounded retention).
    sent_ui: SeqWindow<MinBftMsg>,
    /// Per-sender time of the last gap-fill request (rate limiter).
    gap_req_at: Vec<u64>,
}

/// One MinBFT replica.
pub type MinBftReplica = Replica<Agreement<MinBft>>;

/// A MinBFT cluster of `2f+1` replicas sharing a provisioned key ring.
pub type MinBftCluster = Replicas<Agreement<MinBft>>;

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
    /// (a refcount bump, not a key-material copy). Slots commit and views
    /// install on f+1 votes, and f+1 matching vouchers certify a
    /// checkpoint.
    pub fn new(id: ReplicaId, f: u32, ring: Arc<KeyRing>, protection: CounterProtection) -> Self {
        let n = Protocol::MinBft.replicas(f);
        let own = MinBft {
            usig: Usig::new(UsigId(id.0), ring, protection.build()),
            ingress: (0..n).map(|_| SeqWindow::with_base(1)).collect(),
            future: Vec::new(),
            accepted: vec![0; n as usize],
            sent_ui: SeqWindow::with_base(1),
            gap_req_at: vec![0; n as usize],
        };
        let quorum = (f + 1) as usize;
        Replica::assemble(id, n, f, quorum, Agreement::new(id, n, quorum, own))
    }

    /// `(created, verified)` USIG certificate counts — the replica's MAC
    /// operations, for authentication-cost accounting.
    pub fn mac_ops(&self) -> (u64, u64) {
        (self.core.own.usig.issued(), self.core.own.usig.verified())
    }

    /// SEU injection into the USIG counter register (the §III failure mode
    /// `rsoc_hybrid::usig`'s tests pin on a lone USIG).
    pub fn inject_usig_flip(&mut self, bit: u32) {
        self.core.own.usig.inject_counter_flip(bit);
    }

    /// Remembers one of this replica's own UI-certified sends so a peer
    /// with a counter gap can ask for a verbatim resend.
    fn record_sent(&mut self, counter: u64, msg: MinBftMsg) {
        self.core.own.sent_ui.insert(counter, msg);
        if counter > SENT_RETENTION {
            self.core.own.sent_ui.retire_below(counter - SENT_RETENTION);
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
        if !self.core.own.usig.verify_ui(UsigId(sender.0), ui, signed) {
            return false; // forged or corrupted certificate
        }
        let s = sender.0 as usize;
        // bounds: verify_ui above rejects senders without a ring key, so
        // s < n for every line that indexes the per-sender arrays here.
        let last = self.core.own.accepted[s];
        match ui.counter.cmp(&(last + 1)) {
            std::cmp::Ordering::Equal => {
                self.core.own.accepted[s] = ui.counter; // bounds: s < n (verify_ui)
                self.core.own.ingress[s].retire_below(ui.counter + 1); // bounds: s < n (verify_ui)
                true
            }
            std::cmp::Ordering::Greater => {
                // bounds: s < n (verify_ui)
                self.core.own.ingress[s].insert(ui.counter, held_back());
                // bounds: s < n (verify_ui)
                if self.now >= self.core.own.gap_req_at[s].saturating_add(GAP_REQ_BACKOFF) {
                    // bounds: s < n (verify_ui)
                    self.core.own.gap_req_at[s] = self.now;
                    let gap = MinBftMsg::FillGap { from_counter: last + 1, upto: ui.counter - 1 };
                    out.send(Endpoint::Replica(sender), gap);
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
    /// its counters could not be gap-filled anyway; later ones are refused
    /// and counted.
    fn stash_future(&mut self, sender: ReplicaId, ui: &UI, signed: &[u8], msg: MinBftMsg) {
        if !self.core.own.usig.verify_ui(UsigId(sender.0), ui, signed) {
            return;
        }
        let held = self.core.own.future.iter().filter(|(s, _)| *s == sender).count() as u64;
        if held >= SENT_RETENTION {
            self.refused += 1;
            return;
        }
        self.core.own.future.push((sender, msg));
    }

    /// Pops the next contiguous buffered message from any sender, if ready
    /// (ascending sender order, matching the old map-keyed scan).
    fn take_ready(&mut self) -> Option<MinBftMsg> {
        for s in 0..self.core.own.ingress.len() {
            // bounds: s iterates 0..len; accepted/ingress share length n
            let next = self.core.own.accepted[s] + 1;
            // bounds: s iterates 0..len
            if let Some(msg) = self.core.own.ingress[s].remove(next) {
                // bounds: s iterates 0..len
                self.core.own.accepted[s] = next;
                // bounds: s iterates 0..len
                self.core.own.ingress[s].retire_below(next + 1);
                return Some(msg);
            }
        }
        None
    }

    /// Byzantine primary attempting equivocation: its PREPARE of `batch`
    /// under `ui` to half the backups and a *forged* certificate (same
    /// counter, fabricated tag — the USIG refuses to sign twice) for a
    /// conflicting batch to the rest. The hybrid makes the forgery
    /// detectable.
    fn forge_equivocation(
        &self,
        view: u64,
        seq: u64,
        batch: &Arc<Batch>,
        ui: UI,
        out: &mut Outbox<MinBftMsg>,
    ) {
        let evil = conflicting_batch(batch);
        let forged_ui = UI { id: UsigId(self.id.0), counter: ui.counter, tag: Tag([0xEE; 32]) };
        let half = self.n / 2 + 1;
        for i in (0..self.n).filter(|&i| i != self.id.0) {
            let (batch, ui) =
                if i < half { (batch.clone(), ui) } else { (evil.clone(), forged_ui) };
            out.send(Endpoint::Replica(ReplicaId(i)), MinBftMsg::Prepare { view, seq, batch, ui });
        }
    }

    fn handle_prepare(
        &mut self,
        view: u64,
        seq: u64,
        batch: Arc<Batch>,
        ui: UI,
        out: &mut Outbox<MinBftMsg>,
    ) {
        // Stash replays and held-back messages come through here too. The
        // UI the caller verified certifies the carried requests' own digest
        // (see `Batch`), so the certificate already covers the content.
        let (primary, me) = (self.core.vc.primary_of(view), self.id);
        let Some((digest, slot)) = self.admit(view, seq, &batch) else { return };
        slot.cert.prepare(view, ui);
        slot.commits.insert(primary);
        if !slot.sent_commit {
            slot.sent_commit = true;
            slot.commits.insert(me);
            let statement = commit_bytes(view, seq, &digest, ui.counter);
            let Ok(my_ui) = self.core.own.usig.create_ui(&statement) else {
                return;
            };
            let commit = MinBftMsg::Commit(Arc::new(CommitVote {
                view,
                seq,
                batch,
                primary_ui: ui,
                ui: my_ui,
            }));
            self.record_sent(my_ui.counter, commit.clone());
            out.broadcast(self.n, me, commit);
        }
        self.try_execute(out);
    }

    fn handle_commit(&mut self, vote: &CommitVote, out: &mut Outbox<MinBftMsg>) {
        let CommitVote { view, seq, primary_ui, ui, .. } = *vote;
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
            slot.digest == Some(digest) && slot.cert.primary == Some((view, primary_ui))
        });
        if !verified
            && !self.core.own.usig.verify_ui(
                UsigId(primary.0),
                &primary_ui,
                &prepare_bytes(view, seq, &digest),
            )
        {
            return;
        }
        let Some(slot) = self.core.slots.get_or_insert_default(seq) else { return };
        if slot.digest.is_some_and(|d| d != digest) {
            return;
        }
        if slot.batch.is_none() {
            // Adopting content we never saw a PREPARE for: the primary
            // certificate verified above is over this content's digest.
            slot.batch = Some(vote.batch.clone());
        }
        slot.digest = Some(digest);
        slot.cert.primary = Some((view, primary_ui));
        slot.commits.insert(ReplicaId(ui.id.0));
        slot.commits.insert(primary);
        self.try_execute(out);
    }

    /// Ingests responder `sender`'s [`MinBftMsg::CheckpointHint`] — the
    /// FillGap escalation for counters older than the resend ring. A
    /// verified certificate is adopted (state transfer chases it from the
    /// dispatch tail) and the responder's own counter stream is resynced at
    /// its ring base; lying about one's own `ring_base` only disrupts one's
    /// own stream.
    fn handle_checkpoint_hint(&mut self, sender: ReplicaId, cert: CheckpointCert, ring_base: u64) {
        if self.shell.accept_cert(&cert).is_none() {
            return; // forged hint (the shell counted the rejection)
        }
        let s = sender.0 as usize;
        let Some(accepted) = self.core.own.accepted.get_mut(s) else { return };
        if ring_base > 0 && *accepted + 1 < ring_base {
            // Counters below the ring can never be resent; skip to the
            // resendable range so the stream un-wedges. The certificate
            // (plus state transfer) covers what those counters ordered.
            *accepted = ring_base - 1;
            // bounds: accepted and ingress share length n; s indexed accepted above
            self.core.own.ingress[s].retire_below(ring_base);
            self.shell.note_hint_resync();
        }
    }

    /// Re-proposes `entries` under fresh UIs as the new primary.
    fn install_as_primary(&mut self, entries: PreparedSet, out: &mut Outbox<MinBftMsg>) {
        let view = self.core.vc.view();
        for (seq, batch) in entries {
            if !self.core.slots.admits(seq) {
                continue; // executed (dead, not resurrectable) or past the horizon
            }
            let digest = batch.digest();
            let Ok(ui) = self.core.own.usig.create_ui(&prepare_bytes(view, seq, &digest)) else {
                return;
            };
            let prep = MinBftMsg::Prepare { view, seq, batch: batch.clone(), ui };
            self.core.proposals.insert(seq, prep.clone());
            self.record_sent(ui.counter, prep.clone());
            self.shell.assign(seq, &batch);
            let me = self.id;
            // lint: allow(ingress-expect) -- admits() continued the loop just above
            let slot = self.core.slots.get_or_insert_default(seq).expect("admitted");
            slot.batch = Some(batch);
            slot.digest = Some(digest);
            slot.commits.clear(); // stale votes from the old view
            slot.issued(view, ui, me);
            out.broadcast(self.n, me, prep);
        }
        self.try_execute(out);
    }

    /// Re-dispatches messages stashed for views we had not installed yet.
    fn replay_future(&mut self, out: &mut Outbox<MinBftMsg>) {
        let current = self.core.vc.view();
        let stash = std::mem::take(&mut self.core.own.future);
        for (sender, msg) in stash {
            let msg_view = match &msg {
                MinBftMsg::Prepare { view, .. } => *view,
                MinBftMsg::Commit(vote) => vote.view,
                _ => continue,
            };
            if msg_view > current {
                self.core.own.future.push((sender, msg)); // still ahead of us
            } else {
                // Dispatch re-checks everything.
                MinBft::on_message(self, sender, msg, out);
            }
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

impl Discipline for MinBft {
    type Msg = MinBftMsg;
    type Cert = PrimaryCert;
    const PROTOCOL: Protocol = Protocol::MinBft;
    const VIEW_CHANGE: fn(VcVote) -> MinBftMsg = MinBftMsg::ReqViewChange;

    fn prepared(slot: &Slot<PrimaryCert>, _: usize) -> bool {
        slot.cert.prepared
    }

    fn executable(slot: &Slot<PrimaryCert>, quorum: usize) -> bool {
        slot.commits.len() >= quorum
    }

    fn on_message(
        r: &mut MinBftReplica,
        link: ReplicaId,
        msg: MinBftMsg,
        out: &mut Outbox<MinBftMsg>,
    ) {
        match msg {
            MinBftMsg::Prepare { view, seq, batch, ui } => {
                // The UI certifies the batch digest, which is a function of
                // the carried requests (see `Batch`).
                let signed = prepare_bytes(view, seq, &batch.digest());
                let sender = r.core.vc.primary_of(view);
                if view > r.core.vc.view() {
                    // The installing NewView may still be in flight. Do NOT
                    // consume the sender's UI counter yet.
                    let msg = MinBftMsg::Prepare { view, seq, batch, ui };
                    r.stash_future(sender, &ui, &signed, msg);
                    return;
                }
                let held_back = || MinBftMsg::Prepare { view, seq, batch: Arc::clone(&batch), ui };
                if r.ingest_ui(sender, &ui, &signed, held_back, out) {
                    r.handle_prepare(view, seq, batch, ui, out);
                    r.drain_ready(out);
                }
            }
            MinBftMsg::Commit(vote) => {
                // The voter is whoever's USIG certified the vote.
                let digest = vote.batch.digest();
                let signed = commit_bytes(vote.view, vote.seq, &digest, vote.primary_ui.counter);
                let (voter, ui) = (ReplicaId(vote.ui.id.0), vote.ui);
                if vote.view > r.core.vc.view() {
                    r.stash_future(voter, &ui, &signed, MinBftMsg::Commit(vote));
                    return;
                }
                let held_back = || MinBftMsg::Commit(Arc::clone(&vote));
                if r.ingest_ui(voter, &ui, &signed, held_back, out) {
                    r.handle_commit(&vote, out);
                    r.drain_ready(out);
                }
            }
            MinBftMsg::ReqViewChange(vote) => r.on_view_change(link, vote, out),
            MinBftMsg::NewView { view } => r.on_new_view(link, view, PreparedSet::new(), out),
            MinBftMsg::FillGap { from_counter, upto } => {
                // Gaps in OUR stream, served to the requester's link with a
                // bounded burst; the resends are the original UI-certified
                // messages, which the requester re-verifies and ingests in
                // counter order.
                let requester = Endpoint::Replica(link);
                if from_counter < r.core.own.sent_ui.base() {
                    // The gap starts below the resend ring: those counters
                    // are gone and USIGs never re-sign them. Hand over the
                    // stable certificate (if any) so the requester resyncs
                    // and escalates to state transfer instead of backing
                    // off forever.
                    if let Some(cert) = r.shell.ckpt().stable() {
                        let (cert, ring_base) = (Box::new(cert.clone()), r.core.own.sent_ui.base());
                        out.send(requester, MinBftMsg::CheckpointHint { cert, ring_base });
                    }
                }
                let hi = upto.min(from_counter.saturating_add(GAP_FILL_BURST - 1));
                for counter in from_counter..=hi {
                    if let Some(m) = r.core.own.sent_ui.get(counter) {
                        out.send(requester, m.clone());
                    }
                }
            }
            MinBftMsg::CheckpointHint { cert, ring_base } => {
                r.handle_checkpoint_hint(link, *cert, ring_base)
            }
            MinBftMsg::Request(_) | MinBftMsg::Shell(_) => {}
        }
    }

    /// Proposes `reqs` as one batch under a single USIG certificate — MAC
    /// creation and verification are amortized `1/B` across the batch.
    fn propose(r: &mut MinBftReplica, reqs: Vec<Arc<Request>>, out: &mut Outbox<MinBftMsg>) {
        let (seq, batch) = r.shell.open_slot(reqs);
        let (view, digest, me) = (r.core.vc.view(), batch.digest(), r.id);
        let Ok(ui) = r.core.own.usig.create_ui(&prepare_bytes(view, seq, &digest)) else {
            return; // fail-stopped USIG: replica can no longer lead
        };
        r.own_slot(seq, &batch, digest).issued(view, ui, me);
        if r.script.active(r.now, Fault::ForgeUi) {
            r.forge_equivocation(view, seq, &batch, ui, out);
            return;
        }
        let prep = MinBftMsg::Prepare { view, seq, batch, ui };
        r.core.proposals.insert(seq, prep.clone());
        r.record_sent(ui.counter, prep.clone());
        out.broadcast(r.n, me, prep);
    }

    /// Announces the view, then re-proposes the plan under fresh UIs.
    fn lead(r: &mut MinBftReplica, plan: PreparedSet, out: &mut Outbox<MinBftMsg>) {
        let view = r.core.vc.view();
        out.broadcast(r.n, r.id, MinBftMsg::NewView { view });
        r.install_as_primary(plan, out);
        r.replay_future(out);
    }

    /// Agreement re-runs under the new primary's fresh PREPAREs, which
    /// carry verifiable UIs — the NEW-VIEW's entries are not used — so
    /// following is clearing the old view's votes.
    fn follow(r: &mut MinBftReplica, _: PreparedSet, out: &mut Outbox<MinBftMsg>) {
        for slot in r.core.slots.values_mut() {
            slot.commits.clear();
            slot.cert.prepared = false;
            slot.sent_commit = false;
        }
        r.replay_future(out);
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
    }

    fn recovered(r: &mut MinBftReplica, state: &RecoveredState) {
        // Resume the USIG at or above the highest persisted counter: the
        // restarted process must never certify two statements under one
        // counter value. Anchoring the resend ring *above* that watermark
        // makes peers' FillGap requests for pre-crash counters escalate
        // to CheckpointHint (exactly as after a rejuvenation wipe), so
        // their streams resync instead of wedging.
        if state.usig_counter > 0 {
            r.core.own.usig.resume(state.usig_counter);
            r.core.own.sent_ui = SeqWindow::with_base(state.usig_counter + 1);
        }
    }

    fn mac_count(&self) -> u64 {
        self.usig.issued() + self.usig.verified()
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Behavior, LinkFault, Scenario, Window};
    use crate::api::{ClientId, Cluster, Input, OpId, ReplicaNode};
    use crate::dense::SLOT_HORIZON;
    use crate::runner::{run, run_scenario, RunConfig};

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
        let cfg = RunConfig { max_cycles: 8_000_000, ..config(1, 1, 8, 31) };
        let loss = Scenario::none().link_fault(LinkFault {
            source: None,
            dest: None,
            window: Window::ALWAYS,
            drop_rate: 0.05,
            extra_delay: 0,
        });
        let mut cluster = MinBftCluster::new(&cfg);
        let out = run_scenario(&mut cluster, &cfg, &loss);
        assert_eq!(out.report.committed, 8);
        assert!(out.report.safety_ok);
        assert!(out.script_drops > 0, "the link fault must actually drop messages");
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
        responder.core.own.sent_ui.retire_below(ring_base);
        let mut out = Outbox::new();
        let fill = MinBftMsg::FillGap { from_counter: 1, upto: 4 };
        responder.on_input(
            Input::Message { from: Endpoint::Replica(requester), msg: fill },
            10_000,
            &mut out,
        );
        let hint = out
            .msgs
            .iter()
            .find_map(|(to, m)| match m {
                MinBftMsg::CheckpointHint { cert, ring_base: rb } => Some((*to, cert.clone(), *rb)),
                _ => None,
            })
            .expect("a gap below the ring must answer with a checkpoint hint");
        let (to, cert, rb) = hint;
        assert_eq!(to, Endpoint::Replica(requester));
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
                msg: MinBftMsg::CheckpointHint { cert: cert.clone(), ring_base },
            },
            10_001,
            &mut out,
        );
        assert_eq!(node.core.own.accepted[1], ring_base - 1, "stream resynced at the ring base");
        assert!(
            out.msgs
                .iter()
                .any(|(_, m)| matches!(m, MinBftMsg::Shell(ShellMsg::StateRequest { .. }))),
            "the adopted certificate must trigger a state-transfer request"
        );

        // A hint resyncs only its link's own stream: one over a link that
        // is no replica of the cluster is refused and counted.
        let accepted_before = node.core.own.accepted.clone();
        let mut out = Outbox::new();
        node.on_input(
            Input::Message {
                from: Endpoint::Client(ClientId(0)),
                msg: MinBftMsg::CheckpointHint { cert, ring_base: 400 },
            },
            10_002,
            &mut out,
        );
        assert_eq!(node.core.own.accepted, accepted_before, "a client link resynced a stream");
        assert_eq!(node.refused(), 1);
    }

    #[test]
    fn plain_counter_cluster_commits_and_reports_plain() {
        let cfg = config(1, 1, 4, 35);
        let mut cluster = MinBftCluster::with_protection(&cfg, CounterProtection::Plain);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 4);
        assert_eq!(cluster.nodes()[0].core.own.usig.protection_name(), "plain");
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
        signer.core.own.usig.create_ui(&prepare_bytes(view, seq, &batch.digest())).unwrap()
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
        let ui = signer.core.own.usig.create_ui(&statement).unwrap();
        let batch = batch.clone();
        MinBftMsg::Commit(Arc::new(CommitVote { view, seq, batch, primary_ui, ui }))
    }

    /// Delivers `msg` from replica `from`; returns how many MACs it cost.
    fn deliver(
        r: &mut MinBftReplica,
        from: u32,
        msg: MinBftMsg,
        out: &mut Outbox<MinBftMsg>,
    ) -> u64 {
        let before = r.core.own.usig.verified();
        r.on_input(Input::Message { from: Endpoint::Replica(ReplicaId(from)), msg }, 10, out);
        r.core.own.usig.verified() - before
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
        honest.core.own.usig.resume(1); // its counter 1 was spent above
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
            let new_view = MinBftMsg::NewView { view: later };
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
        assert_eq!(r.core.own.accepted[0], 0);
        let prepare = MinBftMsg::Prepare { view: 0, seq: 1, batch: batch.clone(), ui };
        assert_eq!(deliver(&mut r, 0, prepare, &mut out), 1);
        assert_eq!(r.core.own.accepted[0], 1);
        assert_eq!(r.committed_seq(), 1, "primary + replica 1 + own vote");
        assert!(out
            .msgs
            .iter()
            .any(|(_, m)| matches!(m, MinBftMsg::Commit(v) if v.ui.id.0 == r.id.0)));
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
        assert_eq!(r.core.own.accepted[2], 2, "the voter's stream moved on: nothing is held back");

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
            let vote =
                CommitVote { view, seq: i + 1, batch: batch.clone(), primary_ui: ui, ui: forged };
            deliver(&mut r, 0, MinBftMsg::Commit(Arc::new(vote)), &mut out);
        }
        assert!(r.core.own.future.is_empty());
        assert_eq!(r.refused(), 0, "forgeries are refused, not counted as drops");
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
        assert_eq!(r.core.own.future.len() as u64, SENT_RETENTION);
        assert_eq!(r.refused(), extra, "the newest beyond the cap are dropped and counted");
        assert_eq!(r.core.own.accepted[2], 0, "stashing must not consume the sender's counters");
        // The cap is per sender: another replica's stream still has room.
        let mut other = replica(0);
        let commit = commit_from(&mut other, 2, 1, &batch, prepare_from(&mut sender, 2, 1, &batch));
        deliver(&mut r, 0, commit, &mut out);
        assert_eq!(r.core.own.future.len() as u64, SENT_RETENTION + 1);
        assert_eq!(r.refused(), extra);
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
        assert_eq!((r.core.own.future.len(), r.core.own.accepted[1], r.committed_seq()), (1, 0, 0));
        let new_view = MinBftMsg::NewView { view: 1 };
        deliver(&mut r, 1, new_view, &mut out);
        assert_eq!((r.core.own.future.len(), r.core.own.accepted[1], r.view()), (0, 1, 1));
        assert_eq!(r.committed_seq(), 1, "primary + own vote is the f+1 quorum");
        assert!(out.msgs.iter().any(|(_, m)| matches!(m, MinBftMsg::Commit(v) if v.view == 1)));
        assert!(out.msgs.iter().any(|(_, m)| matches!(m, MinBftMsg::Shell(ShellMsg::Reply(_)))));
    }

    /// A gap fill resends to the link that asked: a request over a
    /// client's link is refused and counted, one over replica 2's link is
    /// answered to replica 2 alone.
    #[test]
    fn fillgap_is_served_only_over_the_requesters_link() {
        let cfg = config(1, 2, 4, 37);
        let mut cluster = MinBftCluster::new(&cfg);
        run(&mut cluster, &cfg);
        let responder = &mut cluster.nodes_mut()[1];
        let fill = MinBftMsg::FillGap { from_counter: 1, upto: 4 };
        let mut out = Outbox::new();
        let client = Endpoint::Client(ClientId(1));
        responder.on_input(Input::Message { from: client, msg: fill.clone() }, 10_000, &mut out);
        assert!(out.msgs.is_empty(), "resent to a client link: {:?}", out.msgs);
        assert_eq!(responder.refused(), 1);
        let from = Endpoint::Replica(ReplicaId(2));
        responder.on_input(Input::Message { from, msg: fill }, 10_001, &mut out);
        assert_eq!(out.msgs.len(), 4, "counters 1..=4 resent");
        assert!(out.msgs.iter().all(|(to, _)| *to == from));
    }

    /// A view-change vote over a link outside the cluster is refused.
    #[test]
    fn view_change_vote_from_outside_the_cluster_is_refused() {
        crate::agreement::tests::refuses_votes_from_outside_the_cluster(MinBftCluster::new);
    }

    /// One link is one vote: one link voting once per other replica must
    /// not assemble the demands that install the next view.
    #[test]
    fn one_link_cannot_forge_a_view_change_quorum() {
        use crate::agreement::tests::{counts_one_vote_per_link, minbft_new_view};
        counts_one_vote_per_link(MinBftCluster::new, minbft_new_view);
    }
}
