//! Passive (primary-backup) replication — §II-A's cheap baseline:
//! "Passive replication allows a failing system to failover into a backup
//! replica. This is a cheap solution that typically requires one passive
//! backup replica. However, recovery is slow, requires reliable detection
//! and is not seamless to the user."
//!
//! The primary executes requests and ships state updates to the backup;
//! a heartbeat failure detector promotes the backup when the primary goes
//! quiet. Experiment E4 measures exactly the paper's trade-off: steady-state
//! cost (2 replicas, 2 messages/op) vs the failover unavailability window.

use crate::api::{Batch, Endpoint, Input, Outbox, ReplicaId, Reply, Request};
use crate::chassis::{Protocol, Replica, Replicas};
use crate::checkpoint::{CheckpointVoucher, StateTransfer};
use crate::dense::SeqWindow;
use crate::durable::RecoveredState;
use crate::runner::RunConfig;
use crate::shell::{Intake, Role, ShellMsg, TIMER_FLUSH};
use std::sync::Arc;

/// Timer kind: primary sends its next heartbeat (kinds 1 and 2 are the
/// shell's).
const TIMER_HEARTBEAT: u32 = 3;
/// Timer kind: backup checks heartbeat freshness.
const TIMER_DETECT: u32 = 4;

/// Passive-replication wire messages.
///
/// Rare, bulky variants (checkpoint vouchers, state transfers) live behind
/// `Box` so the enum's size — and with it every per-event memcpy through
/// the timing-wheel arena — is pinned by the hot sync-path variants.
#[derive(Debug, Clone, PartialEq)]
pub enum PassiveMsg {
    /// Client request (shared across the fan-out).
    Request(Arc<Request>),
    /// Primary → backup: a contiguous run of executed operations and their
    /// results, shipped as one message (batching amortizes the per-message
    /// cost; `ops.len() == 1` is the unbatched case).
    StateUpdate {
        /// Epoch of the sending primary.
        epoch: u64,
        /// Log sequence of `ops[0]`; `ops[i]` has sequence `first_seq + i`.
        first_seq: u64,
        /// Executed `(request, result)` pairs in log order (results let the
        /// backup answer retries identically) — both shared, not copied.
        ops: Vec<(Arc<Request>, Arc<Vec<u8>>)>,
    },
    /// Primary liveness signal, advertising the primary's log length so a
    /// recovering backup can detect that it missed state updates.
    Heartbeat {
        /// Sender's epoch.
        epoch: u64,
        /// Sender.
        from: ReplicaId,
        /// Sender's committed-log length.
        log_len: u64,
    },
    /// Backup → primary: resend state updates from `from_seq` (the backup
    /// detected a gap — it crashed through, or the network lost, some
    /// updates; without a resync a later failover would promote a stale
    /// log, diverging committed history).
    SyncRequest {
        /// First missing log sequence.
        from_seq: u64,
        /// The requesting replica.
        from: ReplicaId,
    },
    /// Execution result (replica → client).
    Reply(Reply),
    /// A replica's MAC'd vouch for its state digest at a log watermark
    /// (passive checkpoints are per log sequence — the two domains
    /// coincide here). Boxed — vouchers are periodic, not per-request.
    Checkpoint(Box<CheckpointVoucher>),
    /// A laggard asks its peer for the latest certified state (emitted
    /// when a sync gap exceeds the shipped-window retention).
    StateRequest {
        /// The requester's committed-log length.
        have: u64,
        /// The requester.
        from: ReplicaId,
    },
    /// Certificate + certified snapshot + committed suffix (see
    /// [`StateTransfer`]). Boxed — transfers are rare and huge.
    StateResponse(Box<StateTransfer>),
}

impl ShellMsg for PassiveMsg {
    fn reply(reply: Reply) -> Self {
        PassiveMsg::Reply(reply)
    }

    fn checkpoint(voucher: Box<CheckpointVoucher>) -> Self {
        PassiveMsg::Checkpoint(voucher)
    }

    fn state_request(have: u64, from: ReplicaId) -> Self {
        PassiveMsg::StateRequest { have, from }
    }

    fn state_response(transfer: Box<StateTransfer>) -> Self {
        PassiveMsg::StateResponse(transfer)
    }
}

/// Passive's slot and log domains coincide: every operation is its own
/// single-request batch (which is also how suffixes and durable commits
/// ship), logged under the *request* digest.
fn single(req: Arc<Request>) -> Arc<Batch> {
    Arc::new(Batch::single(req))
}

/// The log-entry digest of a [`single`] batch.
fn entry_digest(batch: &Batch) -> [u8; 32] {
    batch.requests().first().map_or_else(|| batch.digest(), |req| req.digest())
}

/// How many shipped `(request, result)` pairs the primary retains for
/// backup resync (beyond this horizon a gapped backup stays a laggard).
const SHIP_RETENTION: u64 = 512;
/// Cycles between a gapped backup's sync requests (request or response
/// can be lost — re-ask, but do not spam).
const SYNC_REQ_BACKOFF: u64 = 100;
/// Maximum operations resent per sync request.
const SYNC_BURST: u64 = 64;

/// Passive replication's own state: the epoch, the heartbeat detector,
/// the update hold-back and the shipped-update retention.
#[derive(Debug)]
pub struct Passive {
    /// Current primary epoch; primary is `epoch % 2`.
    epoch: u64,
    bootstrapped: bool,
    last_heartbeat: u64,
    heartbeat_interval: u64,
    detect_timeout: u64,
    /// Out-of-order state updates held back until their predecessors
    /// apply; the window watermark tracks the applied log prefix.
    held_updates: SeqWindow<Arc<Request>>,
    /// Count of failovers this replica performed.
    failovers: u32,
    /// Shipped updates retained for backup resync, keyed by log sequence.
    shipped: SeqWindow<(Arc<Request>, Arc<Vec<u8>>)>,
    /// When this backup last asked for a resync (rate limiter).
    sync_req_at: u64,
}

/// One passive-replication replica (two per cluster).
pub type PassiveReplica = Replica<Passive>;

/// A primary-backup pair.
pub type PassiveCluster = Replicas<Passive>;

impl PassiveCluster {
    /// Builds the pair with default detector settings (heartbeat every 200
    /// cycles, suspect after 800).
    pub fn new(config: &RunConfig) -> Self {
        Replicas::provision(config, 2, |id| PassiveReplica::new(id, 200, 800))
    }

    /// Builds the pair with explicit detector settings.
    pub fn with_detector(heartbeat_interval: u64, detect_timeout: u64) -> Self {
        Replicas::provision(&RunConfig::default(), 2, |id| {
            PassiveReplica::new(id, heartbeat_interval, detect_timeout)
        })
    }
}

impl PassiveReplica {
    /// Creates a replica; `id.0` must be 0 (initial primary) or 1 (backup).
    /// Passive replication masks no Byzantine fault (f = 0: one reply
    /// suffices), and both replicas must vouch for a checkpoint — there is
    /// no spare quorum to outvote a lie. Checkpoints are per log sequence.
    ///
    /// Content-attack script windows (equivocation, UI or checkpoint
    /// forgery, transfer corruption) are inert here: passive replication
    /// has no votes or certificates to forge — a compromised tile manifests
    /// as silence or crash (see the
    /// [`rsoc_soc`-level mapping](crate::adversary::Behavior)).
    ///
    /// # Panics
    /// Panics for ids other than 0 and 1.
    pub fn new(id: ReplicaId, heartbeat_interval: u64, detect_timeout: u64) -> Self {
        assert!(id.0 < 2, "passive replication uses exactly two replicas");
        let core = Passive {
            epoch: 0,
            bootstrapped: false,
            last_heartbeat: 0,
            heartbeat_interval,
            detect_timeout,
            held_updates: SeqWindow::with_base(1),
            failovers: 0,
            shipped: SeqWindow::with_base(1),
            sync_req_at: 0,
        };
        Replica::assemble(id, 2, 0, 2, core)
    }

    /// Whether this replica currently believes it is the primary.
    pub fn is_primary(&self) -> bool {
        (self.core.epoch % 2) as u32 == self.id.0
    }

    /// Number of failovers this replica performed.
    pub fn failovers(&self) -> u32 {
        self.core.failovers
    }

    fn peer(&self) -> ReplicaId {
        ReplicaId(1 - self.id.0)
    }

    fn bootstrap(&mut self, out: &mut Outbox<PassiveMsg>) {
        if !self.core.bootstrapped {
            self.core.bootstrapped = true;
            self.start_detector(out);
        }
    }

    /// Starts this replica's self-re-arming timer chain — heartbeats as
    /// primary, freshness checks as backup — granting the primary a fresh
    /// detection period from now.
    fn start_detector(&mut self, out: &mut Outbox<PassiveMsg>) {
        self.core.last_heartbeat = self.now;
        if self.is_primary() {
            out.arm(self.core.heartbeat_interval, TIMER_HEARTBEAT, 0);
        } else {
            out.arm(self.core.detect_timeout, TIMER_DETECT, 0);
        }
    }

    // Everything below is reachable from adversarial input: the scenario
    // engine can forge clients and replay/reorder replica traffic, so a
    // panic here is a remote crash (`rsoc_lint` enforces the contract).
    // lint: ingress
    /// Executes `reqs` and ships them to the backup as a single state
    /// update.
    fn propose(&mut self, reqs: Vec<Arc<Request>>, out: &mut Outbox<PassiveMsg>) {
        let first_seq = self.shell.next_seq();
        let mut ops = Vec::with_capacity(reqs.len());
        for req in reqs {
            let seq = self.shell.next_seq();
            let batch = single(req.clone());
            self.shell.execute(seq, &batch, entry_digest(&batch), |reply| {
                ops.push((req.clone(), reply.result.clone()));
                out.send(Endpoint::Client(reply.op.client), PassiveMsg::Reply(reply));
            });
            self.checkpoint(seq, out);
        }
        for (i, op) in ops.iter().enumerate() {
            self.core.shipped.insert(first_seq + i as u64, op.clone());
        }
        if self.shell.next_seq() > SHIP_RETENTION {
            self.core.shipped.retire_below(self.shell.next_seq() - SHIP_RETENTION);
        }
        out.send(
            Endpoint::Replica(self.peer()),
            PassiveMsg::StateUpdate { epoch: self.core.epoch, first_seq, ops },
        );
    }

    /// Takes a certified checkpoint when the committed log crosses a
    /// watermark boundary. Content-attack scripts are inert here (no votes
    /// to forge), so never the forged-voucher path.
    fn checkpoint(&mut self, seq: u64, out: &mut Outbox<PassiveMsg>) {
        if self.shell.checkpoint(seq, false, out) {
            self.retire_shipped();
        }
    }

    /// The shipped-window retention is keyed off the certified watermark:
    /// below it [`PassiveMsg::SyncRequest`] replay is superseded by state
    /// transfer.
    fn retire_shipped(&mut self) {
        if let Some(log_len) = self.shell.ckpt().stable_log_len() {
            self.core.shipped.retire_below(log_len + 1);
        }
    }

    /// Installs a transferred state once the shell has checked it out.
    /// With n = 2 there is no second responder to cross-check, so the
    /// install quorum is 1 — the shell still enforces batch integrity and
    /// density on the suffix (the documented passive residual: a lying
    /// primary can feed a recovering backup). Promotion is gated on this
    /// completing: a backup behind the certified watermark refuses to
    /// fail over until the transfer lands (see the `TIMER_DETECT` arm).
    fn handle_state_response(&mut self, st: StateTransfer, now: u64) {
        let Some(plan) = self.shell.admit_transfer(st, 1) else { return };
        self.shell.install(&plan, entry_digest);
        self.resume_above_log();
        if plan.view > self.core.epoch {
            // The peer's epoch moved on while we were down; adopt it so
            // role accounting (primary = epoch % 2) stays coherent.
            self.core.epoch = plan.view;
        }
        self.core.last_heartbeat = now;
    }

    /// Re-anchors update hold-back just above the committed log after an
    /// install or a recovery moved it.
    fn resume_above_log(&mut self) {
        self.core.held_updates = SeqWindow::with_base(self.shell.committed() + 1);
    }

    /// Emits a rate-limited resync request when this backup's applied log
    /// is behind what the primary has shipped/advertised.
    fn maybe_request_sync(&mut self, now: u64, out: &mut Outbox<PassiveMsg>) {
        if now >= self.core.sync_req_at.saturating_add(SYNC_REQ_BACKOFF) {
            self.core.sync_req_at = now;
            out.send(
                Endpoint::Replica(self.peer()),
                PassiveMsg::SyncRequest { from_seq: self.shell.committed() + 1, from: self.id },
            );
        }
    }

    fn handle_state_update(
        &mut self,
        epoch: u64,
        first_seq: u64,
        ops: Vec<(Arc<Request>, Arc<Vec<u8>>)>,
        now: u64,
        out: &mut Outbox<PassiveMsg>,
    ) {
        if epoch < self.core.epoch || self.is_primary() {
            return; // stale update from a deposed primary
        }
        // Updates can be reordered by the interconnect; hold back until the
        // predecessor applied so the backup's log mirrors the primary's.
        // Re-deliveries of already-applied sequences fall below the window
        // watermark and are rejected outright.
        // The shipped results are not kept: the backup executes every
        // update itself and answers retries with its own (deterministically
        // identical) result, like every other execution path.
        for (i, (req, _)) in ops.into_iter().enumerate() {
            if self.shell.has_executed(&req.op) {
                continue;
            }
            self.core.held_updates.insert(first_seq + i as u64, req);
        }
        loop {
            let next = self.shell.committed() + 1;
            let Some(req) = self.core.held_updates.remove(next) else { break };
            let batch = single(req);
            self.shell.execute(next, &batch, entry_digest(&batch), |_| {});
            self.checkpoint(next, out);
        }
        self.core.held_updates.retire_below(self.shell.committed() + 1);
        // A gap below the held-back updates means earlier updates were
        // lost (network drop, or this backup crashed through them): ask
        // the primary to replay from our log head.
        if first_seq > self.shell.committed() + 1 {
            self.maybe_request_sync(now, out);
        }
    }
}

impl PassiveReplica {
    /// Routes one input to its handler, emitting effects into `staged`.
    fn dispatch_input(&mut self, input: Input<PassiveMsg>, staged: &mut Outbox<PassiveMsg>) {
        let now = self.now;
        self.bootstrap(staged);
        match input {
            Input::Message { from, msg } => match msg {
                PassiveMsg::Request(req) => {
                    let role = if self.is_primary() { Role::Primary } else { Role::Idle };
                    if let Intake::Sealed(reqs) = self.shell.intake(req, role, staged) {
                        self.propose(reqs, staged);
                    }
                }
                PassiveMsg::StateUpdate { epoch, first_seq, ops } => {
                    self.handle_state_update(epoch, first_seq, ops, now, staged)
                }
                PassiveMsg::Heartbeat { epoch, from: _, log_len } => {
                    if epoch >= self.core.epoch {
                        self.core.epoch = epoch;
                        self.core.last_heartbeat = now;
                        // The advertised log length exposes updates this
                        // backup never saw (e.g. lost during its own crash
                        // window) — resync before any failover promotes a
                        // stale log into committed history.
                        if !self.is_primary() && log_len > self.shell.committed() {
                            self.maybe_request_sync(now, staged);
                        }
                    }
                }
                PassiveMsg::SyncRequest { from_seq, from: requester } => {
                    // Replayed only to the requester's own link.
                    if self.is_primary()
                        && requester != self.id
                        && from == Endpoint::Replica(requester)
                    {
                        if from_seq < self.core.shipped.base() {
                            // The gap starts below the shipped-window
                            // retention: those updates are gone, and a
                            // partial replay from `shipped.base()` would
                            // leave the backup with a hole it can never
                            // fill (it would silently stay promotable with
                            // a shorter log). Serve a full state transfer
                            // instead — the certificate-checked path.
                            self.serve_transfer(from_seq.saturating_sub(1), requester, staged);
                            return;
                        }
                        // Replay the retained contiguous run from the
                        // requested sequence (bounded burst).
                        let mut ops = Vec::new();
                        for seq in from_seq..from_seq.saturating_add(SYNC_BURST) {
                            match self.core.shipped.get(seq) {
                                Some(op) => ops.push(op.clone()),
                                None => break,
                            }
                        }
                        if !ops.is_empty() {
                            staged.send(
                                Endpoint::Replica(requester),
                                PassiveMsg::StateUpdate {
                                    epoch: self.core.epoch,
                                    first_seq: from_seq,
                                    ops,
                                },
                            );
                        }
                    }
                }
                PassiveMsg::Checkpoint(voucher) => {
                    if self.shell.on_voucher(&voucher) {
                        self.retire_shipped();
                    }
                }
                PassiveMsg::StateRequest { have, from: requester }
                    if from == Endpoint::Replica(requester) =>
                {
                    self.serve_transfer(have, requester, staged)
                }
                PassiveMsg::StateResponse(st) => self.handle_state_response(*st, now),
                PassiveMsg::StateRequest { .. } | PassiveMsg::Reply(_) => {}
            },
            Input::Timer { kind: TIMER_FLUSH, token } => {
                if let Some(reqs) = self.shell.on_flush_timer(token, self.is_primary()) {
                    self.propose(reqs, staged);
                }
            }
            Input::Timer { kind: TIMER_HEARTBEAT, .. } => {
                if self.is_primary() {
                    staged.send(
                        Endpoint::Replica(self.peer()),
                        PassiveMsg::Heartbeat {
                            epoch: self.core.epoch,
                            from: self.id,
                            log_len: self.shell.committed(),
                        },
                    );
                    staged.arm(self.core.heartbeat_interval, TIMER_HEARTBEAT, 0);
                }
            }
            Input::Timer { kind: TIMER_DETECT, .. } => {
                if !self.is_primary() {
                    if now.saturating_sub(self.core.last_heartbeat) > self.core.detect_timeout {
                        if self.shell.behind() {
                            // Promotion gate: a certified checkpoint ahead
                            // of our log proves committed history we do
                            // not hold — promoting now would install a
                            // shorter log as the new committed prefix.
                            // Keep detecting; the transfer is chased after
                            // every input. (If the only snapshot holder is
                            // dead, the pair stays safely unavailable — the
                            // documented 2-replica residual.)
                            staged.arm(self.core.detect_timeout, TIMER_DETECT, 0);
                            return;
                        }
                        // Failure detected: promote self.
                        self.core.epoch += 1;
                        self.core.failovers += 1;
                        debug_assert!(self.is_primary());
                        staged.send(
                            Endpoint::Replica(self.peer()),
                            PassiveMsg::Heartbeat {
                                epoch: self.core.epoch,
                                from: self.id,
                                log_len: self.shell.committed(),
                            },
                        );
                        staged.arm(self.core.heartbeat_interval, TIMER_HEARTBEAT, 0);
                    } else {
                        staged.arm(self.core.detect_timeout, TIMER_DETECT, 0);
                    }
                }
            }
            Input::Timer { .. } => {}
        }
    }

    /// Serves a state transfer; snapshot/suffix corruption scripts are
    /// inert for passive replication, like every content attack.
    fn serve_transfer(&self, have: u64, to: ReplicaId, out: &mut Outbox<PassiveMsg>) {
        self.shell.serve_transfer(have, to, self.core.epoch, false, false, out);
    }
}

impl Protocol for Passive {
    type Msg = PassiveMsg;
    const NAME: &'static str = "passive";
    const ENTRY_DIGEST: fn(&Batch) -> [u8; 32] = entry_digest;

    fn dispatch(r: &mut PassiveReplica, input: Input<PassiveMsg>, out: &mut Outbox<PassiveMsg>) {
        r.dispatch_input(input, out);
    }

    fn revive(r: &mut PassiveReplica, out: &mut Outbox<PassiveMsg>) {
        // A duplicate chain from a timer that survived the window is
        // harmless: each fire re-arms exactly one successor.
        r.start_detector(out);
    }

    fn view(&self) -> u64 {
        self.epoch
    }

    fn wipe(&mut self) {
        // Re-bootstrap re-arms the timer chains, and the first heartbeat
        // re-teaches us the epoch; the detector configuration stays.
        self.epoch = 0;
        self.bootstrapped = false;
        self.last_heartbeat = 0;
        self.held_updates = SeqWindow::with_base(1);
        self.shipped = SeqWindow::with_base(1);
        self.sync_req_at = 0;
    }

    fn recovered(r: &mut PassiveReplica, _: &RecoveredState) {
        r.resume_above_log();
    }

    fn request(req: Arc<Request>) -> PassiveMsg {
        PassiveMsg::Request(req)
    }

    fn reply_of(msg: &PassiveMsg) -> Option<&Reply> {
        match msg {
            PassiveMsg::Reply(r) => Some(r),
            _ => None,
        }
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Behavior;
    use crate::api::{ClientId, Cluster, ReplicaNode};
    use crate::runner::{run, RunConfig};

    fn config(clients: u32, reqs: u64, seed: u64) -> RunConfig {
        RunConfig { f: 1, clients, requests_per_client: reqs, seed, ..Default::default() }
    }

    #[test]
    fn fault_free_serves_from_primary() {
        let cfg = config(2, 10, 41);
        let mut cluster = PassiveCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 20);
        assert!(report.safety_ok);
        assert_eq!(report.n_replicas, 2, "passive needs one backup only");
        assert!(cluster.nodes()[0].is_primary());
        // Backup mirrors the primary's log via state updates.
        assert_eq!(cluster.nodes()[1].committed_log().len(), 20);
    }

    #[test]
    fn cheapest_steady_state_of_all_protocols() {
        let cfg = config(1, 10, 43);
        let passive = run(&mut PassiveCluster::new(&cfg), &cfg);
        let minbft = run(&mut crate::minbft::MinBftCluster::new(&cfg), &cfg);
        assert!(passive.messages_per_commit() < minbft.messages_per_commit());
    }

    #[test]
    fn batched_state_updates_mirror_the_log() {
        let cfg = RunConfig { batch_size: 4, batch_flush: 60, ..config(4, 8, 53) };
        let mut cluster = PassiveCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 32);
        assert!(report.safety_ok);
        assert_eq!(cluster.nodes()[1].committed_log().len(), 32);
        assert_eq!(
            cluster.nodes()[0].state_digest(),
            cluster.nodes()[1].state_digest(),
            "backup replays batched updates to the identical state"
        );
    }

    #[test]
    fn primary_crash_fails_over_to_backup() {
        let cfg = RunConfig { max_cycles: 10_000_000, ..config(1, 10, 45) };
        let mut cluster = PassiveCluster::new(&cfg);
        cluster.set_script(ReplicaId(0), Behavior::CrashAt(100).into());
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 10, "backup finishes the workload");
        assert!(report.safety_ok);
        assert_eq!(cluster.nodes()[1].failovers(), 1);
        assert!(cluster.nodes()[1].is_primary());
    }

    #[test]
    fn failover_window_visible_in_latency_tail() {
        let cfg = RunConfig { max_cycles: 10_000_000, client_timeout: 500, ..config(1, 10, 47) };
        let mut cluster = PassiveCluster::new(&cfg);
        cluster.set_script(ReplicaId(0), Behavior::CrashAt(100).into());
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 10);
        let p_max = report.commit_latency.quantile(1.0).unwrap();
        let p50 = report.commit_latency.median().unwrap();
        // The op in flight during failover pays detector timeout + retries.
        assert!(p_max > p50 * 10.0, "failover is not seamless: max {p_max} vs median {p50}");
        assert!(report.client_retries > 0);
    }

    #[test]
    fn no_failover_when_primary_healthy() {
        let cfg = config(1, 20, 49);
        let mut cluster = PassiveCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 20);
        assert_eq!(cluster.nodes()[1].failovers(), 0, "no spurious failovers");
    }

    #[test]
    #[should_panic(expected = "exactly two replicas")]
    fn rejects_third_replica() {
        PassiveReplica::new(ReplicaId(2), 100, 400);
    }

    /// The primary replays shipped updates to the backup that asked, over
    /// its own link: a request naming the backup from a client's link is
    /// not answered.
    #[test]
    fn sync_requests_are_replayed_only_over_the_requesters_link() {
        let cfg = config(1, 4, 51);
        let mut cluster = PassiveCluster::new(&cfg);
        run(&mut cluster, &cfg);
        let primary = &mut cluster.nodes_mut()[0];
        let sync = PassiveMsg::SyncRequest { from_seq: 1, from: ReplicaId(1) };
        let mut out = Outbox::new();
        let client = Endpoint::Client(ClientId(1));
        primary.on_input(Input::Message { from: client, msg: sync.clone() }, 1 << 30, &mut out);
        assert!(out.msgs.is_empty(), "replayed over a forged link: {:?}", out.msgs);
        let backup = Endpoint::Replica(ReplicaId(1));
        primary.on_input(Input::Message { from: backup, msg: sync }, 1 << 30, &mut out);
        assert!(matches!(
            out.msgs.as_slice(),
            [(to, PassiveMsg::StateUpdate { first_seq: 1, ops, .. })] if *to == backup && ops.len() == 4
        ));
    }
}
