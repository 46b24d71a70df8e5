//! The replica shell: everything a replica does *after* its protocol has
//! ordered a batch, written once for all three protocols.
//!
//! PBFT, MinBFT and passive replication are three **ordering**
//! disciplines over one **recovery** story (§II-A / §III-C of the paper:
//! rejuvenation is wipe + state transfer, independent of how agreement is
//! reached). The [`Shell`] owns that story — the committed log, the state
//! machine, the exactly-once reply index, client sessions, certified
//! checkpoints, the state-transfer replay ring and buffer, and the durable
//! event queue — and the code that runs over them:
//!
//! | a protocol core calls…            | when                                          |
//! |-----------------------------------|-----------------------------------------------|
//! | [`Shell::execute`]                | a slot is ordered and every earlier one ran   |
//! | [`Shell::checkpoint`]             | right after each executed slot                |
//! | [`Shell::on_voucher`]             | a peer's checkpoint voucher arrives           |
//! | [`Shell::accept_cert`]            | a certificate rides a view change or hint     |
//! | [`Shell::request_transfer`]       | at the tail of every input (rate-limited)     |
//! | [`Shell::serve_transfer`]         | a peer's state request arrives                |
//! | [`Shell::admit_transfer`] then [`Shell::install`] | a state response arrives      |
//! | [`Shell::recover`]                | once, before the first input, on restart      |
//! | [`Shell::wipe`]                   | rejuvenation                                  |
//!
//! What legitimately differs between protocols is a call-site argument,
//! never a branch in here: the voucher and install quorums, the log-entry
//! digest, the per-executed-op hook (PBFT drops the op from its watchlist,
//! MinBFT also marks it assigned), and whether a fault script forges
//! vouchers or corrupts served transfers. After an install or a recovery
//! the protocol runs its own tail — retire its windows below
//! [`Shell::exec_upto`], join the view, re-arm patience, resume execution.

use crate::api::{Batch, Endpoint, LogEntry, OpId, Outbox, ReplicaId, Reply};
use crate::checkpoint::{
    decode_image, encode_image_with, snapshot_matches, tamper_suffix, CheckpointCert,
    CheckpointStore, CheckpointVoucher, CkptKeys, ClientSessions, CommittedLog, CstBuffer,
    CstInstall, StateTransfer,
};
use crate::dense::{OpIndex, SeqWindow};
use crate::durable::{DurableEvent, RecoveredState, RecoveryReport};
use crate::statemachine::{KvStore, StateMachine};
use rsoc_crypto::{sha256, Tag};
use std::sync::Arc;

/// Constructors for the shell-emitted variants every protocol's message
/// enum carries, so the shell writes straight into the caller's
/// [`Outbox`] (no returned `Vec`, no per-op allocation).
pub(crate) trait ShellMsg: Clone {
    /// Wraps a checkpoint voucher.
    fn checkpoint(voucher: Box<CheckpointVoucher>) -> Self;
    /// A state-transfer request from `from`, which has executed `have`.
    fn state_request(have: u64, from: ReplicaId) -> Self;
    /// Wraps a state-transfer response.
    fn state_response(transfer: Box<StateTransfer>) -> Self;
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
    /// Exactly-once dedup: op → shared execution result.
    executed: OpIndex<Arc<Vec<u8>>>,
    /// Latest executed reply per client, snapshotted into checkpoint
    /// images so a transfer-recovered replica answers client retries for
    /// ops below the watermark. Maintained only while checkpointing is
    /// enabled (byte-invisible otherwise).
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
            executed: OpIndex::new(),
            sessions: ClientSessions::new(),
            ckpt: CheckpointStore::new(id, voucher_quorum, 0, CkptKeys::provision(0, 1)),
            replay_ring: SeqWindow::with_base(1),
            cst: CstBuffer::new(),
            durability: false,
            durable: Vec::new(),
            durable_stable_seq: 0,
        }
    }

    /// Enables certified checkpoints every `interval` executed slots under
    /// the cluster-shared `keys` (0 disables — the byte-invisible default).
    pub(crate) fn set_checkpointing(&mut self, interval: u64, keys: Arc<CkptKeys>) {
        self.ckpt = CheckpointStore::new(self.id, self.voucher_quorum, interval, keys);
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
    pub(crate) fn log(&self) -> &[LogEntry] {
        self.log.entries()
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
        self.executed.contains_key(op)
    }

    /// The byte-identical reply to a retry of an already-executed `op`.
    pub(crate) fn cached_reply(&self, op: OpId) -> Option<Reply> {
        let result = self.executed.get(&op)?.clone();
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

    /// Executes ordered slot `seq`: apply → log → dedup index → session →
    /// replay ring → [`DurableEvent::Commit`]. One agreement slot commits
    /// the whole batch; the log stays per-request (dense global sequence,
    /// each entry stamped `digest`). `executed(seq, reply)` runs once per
    /// request, in order: the live path sends the reply there, replay
    /// paths (transfer suffix, WAL) only do their protocol bookkeeping —
    /// those replies went out before the crash or will be re-requested.
    pub(crate) fn execute(
        &mut self,
        seq: u64,
        batch: &Arc<Batch>,
        digest: [u8; 32],
        mut executed: impl FnMut(u64, Reply),
    ) {
        self.exec_upto = seq;
        for req in batch.requests() {
            let log_seq = self.log.committed() + 1;
            let result = Arc::new(self.machine.apply(&req.payload));
            self.log.push(LogEntry { seq: log_seq, op: req.op, digest });
            self.executed.insert(req.op, result.clone());
            if self.ckpt.enabled() {
                self.sessions.note(req.op.client, req.op.seq, result.clone());
            }
            executed(seq, Reply { replica: self.id, op: req.op, result });
        }
        if self.ckpt.enabled() {
            self.replay_ring.insert(seq, batch.clone());
        }
        if self.durability {
            self.durable.push(DurableEvent::Commit { seq, batch: batch.clone() });
        }
    }

    /// Takes a certified checkpoint when execution crossed a watermark
    /// boundary: image + digest the state, retain the image for serving
    /// transfers, broadcast the MAC'd voucher, and count our own. The
    /// certificate digests the full *image* — KV snapshot plus client
    /// sessions — so a recovered replica's dedup state is covered by the
    /// same vouchers as the application state. Returns `true` when this
    /// made a certificate stable (the log was truncated).
    ///
    /// `forge` is the Byzantine script path: vouch for fabricated state —
    /// one voucher with a garbage MAC (an outsider forgery, rejected by
    /// key verification) and one properly MAC'd over a lying digest (a
    /// colluder, isolated in its own digest group, never quorate). The
    /// retained image stays honest, so the forger can still serve a
    /// transfer if its peers certify the honest digest.
    pub(crate) fn checkpoint<M: ShellMsg>(
        &mut self,
        exec_seq: u64,
        forge: bool,
        out: &mut Outbox<M>,
    ) -> bool {
        if !self.ckpt.due(exec_seq) {
            return false;
        }
        let image = Arc::new(encode_image_with(
            self.machine.snapshot_len(),
            |out| self.machine.write_snapshot(out),
            &self.sessions,
        ));
        if forge {
            let lie = sha256(b"forged-checkpoint-state");
            let garbage = CheckpointVoucher {
                seq: exec_seq,
                digest: lie,
                from: self.id,
                tag: Tag([0xEE; 32]),
            };
            out.broadcast(self.n, self.id, M::checkpoint(Box::new(garbage)));
            let colluder = self.ckpt.record_local(exec_seq, lie, self.log.committed(), image);
            out.broadcast(self.n, self.id, M::checkpoint(Box::new(colluder)));
            return false;
        }
        let digest = sha256(&image);
        let voucher = self.ckpt.record_local(exec_seq, digest, self.log.committed(), image);
        out.broadcast(self.n, self.id, M::checkpoint(Box::new(voucher.clone())));
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
    /// is also emitted once as a [`DurableEvent::Stable`].
    fn apply_truncation(&mut self) {
        if let Some(log_len) = self.ckpt.stable_log_len() {
            self.log.truncate_below(log_len);
            self.replay_ring.retire_below(self.ckpt.stable_seq() + 1);
        }
        if self.durability && self.ckpt.stable_seq() > self.durable_stable_seq {
            if let Some((cert, log_len, snapshot)) = self.ckpt.serve() {
                self.durable_stable_seq = cert.seq;
                let cert = cert.clone();
                self.durable.push(DurableEvent::Stable { cert, log_len, snapshot });
            }
        }
    }

    /// Broadcasts a state-transfer request if the stable certificate is
    /// ahead of local execution (rate-limited by the CST backoff).
    pub(crate) fn request_transfer<M: ShellMsg>(&mut self, now: u64, out: &mut Outbox<M>) {
        if self.behind() && self.ckpt.may_request(now) {
            out.broadcast(self.n, self.id, M::state_request(self.exec_upto, self.id));
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
    pub(crate) fn serve_transfer<M: ShellMsg>(
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
        let transfer = StateTransfer { cert, snapshot, log_base, suffix, view, from: self.id };
        out.send(Endpoint::Replica(to), M::state_response(Box::new(transfer)));
    }

    /// Validates a transfer response — certificate verifies, snapshot
    /// digest matches the certificate, image parses; everything in the
    /// response is adversarial until those pass, and every failure is
    /// counted — and buffers it. Returns the install once `quorum`
    /// distinct responders agree on the watermark, with the suffix voted
    /// slot by slot (see [`CstBuffer`]).
    pub(crate) fn admit_transfer(
        &mut self,
        st: StateTransfer,
        quorum: usize,
    ) -> Option<CstInstall> {
        if !self.ckpt.enabled() || st.cert.seq <= self.exec_upto {
            return None; // not ahead of us: nothing to install
        }
        // Digest collision is out of scope; malformed framing is not.
        let valid = self.ckpt.verify_cert(&st.cert)
            && snapshot_matches(&st.cert, &st.snapshot)
            && decode_image(&st.snapshot)
                .is_some_and(|(kv, _)| KvStore::install_snapshot(kv).is_some());
        if !valid {
            self.ckpt.note_rejected();
            return None;
        }
        self.cst.admit(st, self.exec_upto);
        let plan = self.cst.install_plan(quorum)?;
        self.cst.clear();
        Some(plan)
    }

    /// Installs a quorum-voted transfer: image, certificate, then the
    /// voted suffix replayed through [`execute`](Self::execute) (every
    /// slot matched at the install quorum). Returns `false`, changing
    /// nothing, if the image does not parse.
    pub(crate) fn install(
        &mut self,
        plan: &CstInstall,
        entry_digest: fn(&Batch) -> [u8; 32],
        mut executed: impl FnMut(u64, Reply),
    ) -> bool {
        if !self.restore(&plan.cert, plan.log_base, &plan.snapshot) {
            return false;
        }
        if self.durability && plan.cert.seq > self.durable_stable_seq {
            self.durable_stable_seq = plan.cert.seq;
            self.durable.push(DurableEvent::Stable {
                cert: plan.cert.clone(),
                log_len: plan.log_base,
                snapshot: Arc::clone(&plan.snapshot),
            });
        }
        for (slot, batch) in &plan.suffix {
            self.execute(*slot, batch, entry_digest(batch), &mut executed);
        }
        self.ckpt.note_transfer();
        true
    }

    /// Replaces state machine, sessions, dedup index, log base and replay
    /// ring with a certified image at `cert.seq`.
    fn restore(&mut self, cert: &CheckpointCert, log_len: u64, image: &[u8]) -> bool {
        let Some((kv, sessions)) = decode_image(image) else { return false };
        let Some(machine) = KvStore::install_snapshot(kv) else { return false };
        self.ckpt.adopt_cert(cert);
        self.machine = machine;
        self.sessions = sessions;
        // Restore the dedup index for ops below the watermark: a client
        // retrying a committed op gets its original reply back instead of
        // a re-execution (or a silent wait on a backup's watchlist).
        for (client, seq, result) in self.sessions.iter() {
            self.executed.insert(OpId { client, seq }, result.clone());
        }
        self.log.reset_to(log_len);
        self.replay_ring = SeqWindow::with_base(cert.seq + 1);
        self.exec_upto = cert.seq;
        true
    }

    /// Rebuilds state from a store's replay before the first input. Disk
    /// contents are ingress: the certificate and snapshot are re-verified
    /// exactly as a transfer response would be, and only the dense,
    /// integrity-checked commit run above the snapshot replays — the
    /// first gap or garbage batch abandons the rest to state transfer.
    pub(crate) fn recover(
        &mut self,
        state: &RecoveredState,
        entry_digest: fn(&Batch) -> [u8; 32],
        mut executed: impl FnMut(u64, Reply),
    ) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if let Some((cert, log_len, snapshot)) = &state.snapshot {
            if self.ckpt.verify_cert(cert)
                && snapshot_matches(cert, snapshot)
                && self.restore(cert, *log_len, snapshot)
            {
                report.installed_seq = cert.seq;
            }
        }
        for (seq, batch) in &state.commits {
            if *seq <= self.exec_upto {
                continue; // covered by the snapshot
            }
            if *seq != self.exec_upto + 1 || batch.is_empty() || !batch.verify() {
                break;
            }
            self.execute(*seq, batch, entry_digest(batch), &mut executed);
            report.replayed += 1;
        }
        report.committed = self.log.committed();
        report
    }

    /// Rejuvenation: volatile execution state goes. The stable certificate
    /// (self-verifying; a real tile keeps it in trusted persistent store)
    /// stays inside the checkpoint store, and so does
    /// `durable_stable_seq` — it mirrors what the disk already holds, and
    /// a wipe does not erase the disk.
    pub(crate) fn wipe(&mut self) {
        self.log = CommittedLog::new();
        self.exec_upto = 0;
        self.machine = KvStore::new();
        self.executed = OpIndex::new();
        self.sessions.clear();
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

    /// The three shell-emitted variants, nothing else: no protocol, no
    /// runner.
    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Checkpoint(Box<CheckpointVoucher>),
        StateRequest { have: u64, from: ReplicaId },
        StateResponse(Box<StateTransfer>),
    }

    impl ShellMsg for Msg {
        fn checkpoint(voucher: Box<CheckpointVoucher>) -> Self {
            Msg::Checkpoint(voucher)
        }

        fn state_request(have: u64, from: ReplicaId) -> Self {
            Msg::StateRequest { have, from }
        }

        fn state_response(transfer: Box<StateTransfer>) -> Self {
            Msg::StateResponse(transfer)
        }
    }

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
        let mut replies = Vec::new();
        let mut out = Outbox::<Msg>::new();
        for seq in from..=to {
            let b = batch(seq);
            shell.execute(seq, &b, b.digest(), |_, reply| replies.push(reply));
            shell.checkpoint(seq, false, &mut out);
        }
        // One copy per peer, adjacent: collapse each broadcast to one.
        let mut vouchers = Vec::new();
        for (_, msg) in out.msgs {
            if let Msg::Checkpoint(v) = msg {
                vouchers.push(*v);
            }
        }
        vouchers.dedup();
        (replies, vouchers)
    }

    fn served(shell: &Shell, have: u64, snapshot: bool, suffix: bool) -> StateTransfer {
        let mut out = Outbox::<Msg>::new();
        shell.serve_transfer(have, ReplicaId(3), 5, snapshot, suffix, &mut out);
        match out.msgs.pop() {
            Some((Endpoint::Replica(ReplicaId(3)), Msg::StateResponse(st))) => *st,
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
        let mut out = Outbox::<Msg>::new();
        laggard.request_transfer(0, &mut out);
        laggard.request_transfer(1, &mut out);
        assert_eq!(out.msgs.len(), (N - 1) as usize, "one broadcast inside the backoff");
        assert_eq!(out.msgs[0].1, Msg::StateRequest { have: 0, from: ReplicaId(3) });

        // The served image is exactly the framed snapshot + sessions of the
        // state at the watermark.
        let mut at_4 = shells(&keys).remove(0);
        run(&mut at_4, 1, 4);
        let image = crate::checkpoint::encode_image(&at_4.machine.snapshot(), &at_4.sessions);
        assert_eq!(*served(&s[0], 0, false, false).snapshot, image);

        // A peer that is not behind gets no answer.
        s[0].serve_transfer(4, ReplicaId(3), 5, false, false, &mut out);
        assert_eq!(out.msgs.len(), (N - 1) as usize);

        // Flipped snapshot byte and bad-MAC certificate: rejected, counted.
        assert!(laggard.admit_transfer(served(&s[0], 0, true, false), 1).is_none());
        let mut forged = served(&s[0], 0, false, false);
        forged.cert.vouchers[0].tag = Tag([0; 32]);
        assert!(laggard.admit_transfer(forged, 1).is_none());
        assert_eq!(laggard.ckpt().stats().rejected, 2);
        assert_eq!(laggard.exec_upto(), 0, "nothing installed");

        // Installs only at the given quorum. Against one honest responder
        // a tampered suffix can stall the contested tail (slot 6 is 1–1)
        // but never install it …
        let tampered = served(&s[0], 0, false, true);
        assert_ne!(tampered.suffix, served(&s[1], 0, false, false).suffix);
        assert!(laggard.admit_transfer(tampered.clone(), QUORUM).is_none(), "1 of 2 responders");
        let stalled = laggard.admit_transfer(served(&s[1], 0, false, false), QUORUM).unwrap();
        assert_eq!(stalled.suffix.len(), 1, "only slot 5 is quorate");
        // … and a second honest responder out-votes it.
        assert!(laggard.admit_transfer(tampered, 3).is_none());
        assert!(laggard.admit_transfer(served(&s[1], 0, false, false), 3).is_none());
        let plan = laggard.admit_transfer(served(&s[2], 0, false, false), QUORUM).unwrap();
        assert_eq!(plan.suffix.iter().map(|(slot, _)| *slot).collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(plan.view, 5);
        let mut replayed = Vec::new();
        assert!(laggard.install(&plan, Batch::digest, |seq, reply| replayed.push((seq, reply.op))));
        assert_eq!(replayed.len(), 4, "the hook sees every replayed op with its slot");
        assert_eq!(replayed[0].0, 5);

        // Same state, same log position, and the transfer is counted.
        assert_eq!(laggard.state_digest(), s[1].state_digest());
        assert_eq!((laggard.exec_upto(), laggard.committed()), (6, 12));
        assert_eq!(laggard.log(), s[1].log());
        assert_eq!(laggard.ckpt().stats().transfers, 1);
        assert!(!laggard.behind());
        // A retry of an op *below* the watermark gets the original reply
        // (client 7's latest op at the checkpoint was seq 4) …
        let op = OpId { client: ClientId(7), seq: 4 };
        let original = s[1].cached_reply(op).unwrap();
        let retried = laggard.cached_reply(op).unwrap();
        assert_eq!((retried.replica, &retried.result), (ReplicaId(3), &original.result));
        // … and so do the replayed ones; older ops aged out of the session.
        assert!(laggard.has_executed(&OpId { client: ClientId(8), seq: 6 }));
        assert!(!laggard.has_executed(&OpId { client: ClientId(7), seq: 3 }));
    }

    #[test]
    fn forged_vouchers_lie_without_poisoning_the_served_image() {
        let keys = CkptKeys::provision(11, N as usize);
        let mut s = shells(&keys);
        let mut out = Outbox::<Msg>::new();
        for seq in 1..=4 {
            let b = batch(seq);
            s[0].execute(seq, &b, b.digest(), |_, _| {});
            assert!(!s[0].checkpoint(seq, true, &mut out));
        }
        // Two vouchers per peer: a garbage MAC and a properly MAC'd lie.
        assert_eq!(out.msgs.len(), 2 * (N - 1) as usize);
        let (_, honest) = run(&mut s[1], 1, 4);
        for (_, msg) in &out.msgs {
            if let Msg::Checkpoint(v) = msg {
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
        assert!(snapshot_matches(&st.cert, &st.snapshot));
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
        let mut hooked = 0;
        let report = r.recover(&disk, Batch::digest, |_, _| hooked += 1);
        assert_eq!(report, RecoveryReport { installed_seq: 4, replayed: 2, committed: 12 });
        assert_eq!(hooked, 4);
        assert_eq!(r.state_digest(), s[0].state_digest());
        assert_eq!(r.log(), s[0].log());

        // A gap stops the replay: 5 is missing, so 6 is abandoned.
        let mut gapped = RecoveredState { commits: disk.commits.clone(), ..Default::default() };
        gapped.snapshot = disk.snapshot.clone();
        gapped.commits.retain(|(seq, _)| *seq != 5);
        let mut r = fresh();
        let report = r.recover(&gapped, Batch::digest, |_, _| {});
        assert_eq!(report, RecoveryReport { installed_seq: 4, replayed: 0, committed: 8 });

        // A garbage record stops it too, and a snapshot whose bytes no
        // longer match its certificate is not installed: without it the
        // WAL replays from slot 1 as far as it is dense and well-formed.
        // (A decoded batch always carries the digest of its own content —
        // see `Wire for Batch` — so the garbage a WAL can hold is an empty
        // batch; a spliced digest is covered by `Batch::verify`'s own test.)
        let mut torn = RecoveredState { commits: disk.commits.clone(), ..Default::default() };
        torn.snapshot = disk.snapshot.clone().map(|(cert, len, mut bytes)| {
            bytes[0] ^= 0xFF;
            (cert, len, bytes)
        });
        torn.commits[2] = (3, Arc::new(Batch::new(Vec::new())));
        let mut r = fresh();
        let report = r.recover(&torn, Batch::digest, |_, _| {});
        assert_eq!(report, RecoveryReport { installed_seq: 0, replayed: 2, committed: 4 });
        assert_eq!(r.exec_upto(), 2);
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
        let mut out = Outbox::<Msg>::new();
        s[0].serve_transfer(0, ReplicaId(3), 0, false, false, &mut out);
        assert!(out.msgs.is_empty());
    }
}
