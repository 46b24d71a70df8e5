//! Passive (primary-backup) replication — §II-A's cheap baseline:
//! "Passive replication allows a failing system to failover into a backup
//! replica. This is a cheap solution that typically requires one passive
//! backup replica. However, recovery is slow, requires reliable detection
//! and is not seamless to the user."
//!
//! The primary executes requests and ships state updates to the backup;
//! a heartbeat failure detector promotes the backup when the primary goes
//! quiet. This is the paper's trade-off: steady-state cost (2 replicas,
//! 2 messages/op) vs a failover unavailability window that grows with the
//! detector timeout, as the root package's `tests/adversary_scenarios.rs`
//! pins.

use crate::api::{Batch, Endpoint, Outbox, ReplicaId, Request};
use crate::chassis::{Core, Replica, Replicas};
use crate::checkpoint::CstInstall;
use crate::codec::SHELL_TAG;
use crate::dense::SeqWindow;
use crate::durable::RecoveredState;
use crate::protocol::Protocol;
use crate::runner::RunConfig;
use crate::shell::{carries_shell, Intake, Role, ShellMsg, TIMER_FLUSH};
use std::sync::Arc;

/// Timer kind: primary sends its next heartbeat (kinds 1 and 2 are the
/// shell's).
const TIMER_HEARTBEAT: u32 = 3;
/// Timer kind: backup checks heartbeat freshness.
const TIMER_DETECT: u32 = 4;

/// Passive-replication wire messages.
///
/// Rare, bulky variants (the shell's vouchers and transfers) live behind
/// `Box` so the enum's size — and with it every per-event memcpy through
/// the timing-wheel arena — is pinned by the hot sync-path variants.
#[derive(Debug, Clone, PartialEq)]
pub enum PassiveMsg {
    /// Client request (shared across the fan-out).
    Request(Arc<Request>),
    /// Primary → backup: a contiguous run of executed operations, shipped
    /// as one message (batching amortizes the per-message cost;
    /// `ops.len() == 1` is the unbatched case).
    StateUpdate {
        /// Epoch of the sending primary.
        epoch: u64,
        /// Log sequence of `ops[0]`; `ops[i]` has sequence `first_seq + i`.
        first_seq: u64,
        /// Executed requests in log order, shared, not copied. The backup
        /// executes each itself, so no result ships. A boxed slice, not a
        /// `Vec`: it keeps this variant small enough for the enum to stay
        /// the size of its [`ShellMsg`].
        ops: Box<[Shipped]>,
    },
    /// Primary liveness signal, advertising the primary's log length so a
    /// recovering backup can detect that it missed state updates.
    Heartbeat {
        /// Sender's epoch.
        epoch: u64,
        /// Sender's committed-log length.
        log_len: u64,
    },
    /// Backup → primary: resend state updates from `from_seq` to the
    /// backup's link (the backup detected a gap — it crashed through, or
    /// the network lost, some updates; without a resync a later failover
    /// would promote a stale log, diverging committed history).
    SyncRequest {
        /// First missing log sequence.
        from_seq: u64,
    },
    /// A reply, checkpoint voucher or state transfer (see [`ShellMsg`]).
    /// Passive checkpoints are per log sequence — the slot and log domains
    /// coincide here.
    Shell(ShellMsg),
}

carries_shell!(PassiveMsg);

crate::wire! {
    enum PassiveMsg {
        0 => Request(req),
        1 => StateUpdate { epoch, first_seq, ops },
        2 => Heartbeat { epoch, log_len },
        3 => SyncRequest { from_seq },
        SHELL_TAG => Shell(msg),
    }
}

/// One executed operation as the primary ships it: the request alone.
pub type Shipped = Arc<Request>;

/// Passive's slot and log domains coincide: every operation is its own
/// single-request batch (which is also how suffixes and durable commits
/// ship), logged under that batch's digest like every other slot.
fn single(req: Arc<Request>) -> Arc<Batch> {
    Arc::new(Batch::single(req))
}

/// How many shipped requests the primary retains for backup resync
/// (beyond this horizon a gapped backup stays a laggard).
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
    last_heartbeat: u64,
    heartbeat_interval: u64,
    detect_timeout: u64,
    /// Out-of-order state updates held back until their predecessors
    /// apply; the window watermark tracks the applied log prefix.
    held_updates: SeqWindow<Arc<Request>>,
    /// Count of failovers this replica performed.
    failovers: u32,
    /// Shipped updates retained for backup resync, keyed by log sequence.
    shipped: SeqWindow<Shipped>,
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
        Self::with_detector(config, 200, 800)
    }

    /// Builds the pair from `config` with explicit detector settings.
    pub fn with_detector(config: &RunConfig, heartbeat_interval: u64, detect_timeout: u64) -> Self {
        Replicas::provision(config, |id| {
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
    /// [`rsoc_soc`-level mapping](crate::adversary::Behavior)). The
    /// chassis derives the transfer half from
    /// [`Protocol::tolerates_byzantine`].
    ///
    /// # Panics
    /// Panics for ids other than 0 and 1.
    pub fn new(id: ReplicaId, heartbeat_interval: u64, detect_timeout: u64) -> Self {
        assert!(id.0 < 2, "passive replication uses exactly two replicas");
        let core = Passive {
            epoch: 0,
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
            self.shell.execute(seq, &batch, |reply| {
                ops.push(req.clone());
                out.send(Endpoint::Client(reply.op.client), ShellMsg::Reply(reply).into());
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
            PassiveMsg::StateUpdate { epoch: self.core.epoch, first_seq, ops: ops.into() },
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

    /// Sends the peer a heartbeat and arms the next one.
    fn beat(&self, out: &mut Outbox<PassiveMsg>) {
        let heartbeat =
            PassiveMsg::Heartbeat { epoch: self.core.epoch, log_len: self.shell.committed() };
        out.send(Endpoint::Replica(self.peer()), heartbeat);
        out.arm(self.core.heartbeat_interval, TIMER_HEARTBEAT, 0);
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
            let from_seq = self.shell.committed() + 1;
            out.send(Endpoint::Replica(self.peer()), PassiveMsg::SyncRequest { from_seq });
        }
    }

    fn handle_state_update(
        &mut self,
        epoch: u64,
        first_seq: u64,
        ops: Box<[Shipped]>,
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
        // The backup executes every update itself and answers retries with
        // its own (deterministically identical) result, like every other
        // execution path.
        for (i, req) in ops.into_vec().into_iter().enumerate() {
            if self.shell.has_executed(&req.op) {
                continue;
            }
            self.core.held_updates.insert(first_seq + i as u64, req);
        }
        loop {
            let next = self.shell.committed() + 1;
            let Some(req) = self.core.held_updates.remove(next) else { break };
            let batch = single(req);
            self.shell.execute(next, &batch, |_| {});
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

impl Core for Passive {
    type Msg = PassiveMsg;
    const PROTOCOL: Protocol = Protocol::Passive;

    fn intake(r: &mut PassiveReplica, req: Arc<Request>, out: &mut Outbox<PassiveMsg>) {
        let role = if r.is_primary() { Role::Primary } else { Role::Idle };
        if let Intake::Sealed(reqs) = r.shell.intake(req, role, out) {
            r.propose(reqs, out);
        }
    }

    fn on_message(
        r: &mut PassiveReplica,
        link: ReplicaId,
        msg: PassiveMsg,
        out: &mut Outbox<PassiveMsg>,
    ) {
        let now = r.now;
        match msg {
            PassiveMsg::StateUpdate { epoch, first_seq, ops } => {
                r.handle_state_update(epoch, first_seq, ops, now, out)
            }
            PassiveMsg::Heartbeat { epoch, log_len } => {
                if epoch >= r.core.epoch {
                    r.core.epoch = epoch;
                    r.core.last_heartbeat = now;
                    // The advertised log length exposes updates this
                    // backup never saw (e.g. lost during its own crash
                    // window) — resync before any failover promotes a
                    // stale log into committed history.
                    if !r.is_primary() && log_len > r.shell.committed() {
                        r.maybe_request_sync(now, out);
                    }
                }
            }
            // Replayed only to the requester's own link.
            PassiveMsg::SyncRequest { from_seq } if r.is_primary() => {
                if from_seq < r.core.shipped.base() {
                    // The gap starts below the shipped-window retention:
                    // those updates are gone, and a partial replay from
                    // `shipped.base()` would leave the backup with a hole
                    // it can never fill (it would silently stay promotable
                    // with a shorter log). Answer the state request this
                    // stands for — the certificate-checked path.
                    let have = from_seq.saturating_sub(1);
                    r.route(link, ShellMsg::StateRequest { have }, out);
                    return;
                }
                // Replay the retained contiguous run from the requested
                // sequence (bounded burst).
                let ops: Box<[Shipped]> = (from_seq..from_seq.saturating_add(SYNC_BURST))
                    .map_while(|seq| r.core.shipped.get(seq).cloned())
                    .collect();
                if !ops.is_empty() {
                    let update =
                        PassiveMsg::StateUpdate { epoch: r.core.epoch, first_seq: from_seq, ops };
                    out.send(Endpoint::Replica(link), update);
                }
            }
            PassiveMsg::Request(_) | PassiveMsg::SyncRequest { .. } | PassiveMsg::Shell(_) => {}
        }
    }

    fn on_timer(r: &mut PassiveReplica, kind: u32, token: u64, out: &mut Outbox<PassiveMsg>) {
        let now = r.now;
        match kind {
            TIMER_FLUSH => {
                if let Some(reqs) = r.shell.on_flush_timer(token, r.is_primary()) {
                    r.propose(reqs, out);
                }
            }
            TIMER_HEARTBEAT if r.is_primary() => {
                r.beat(out);
            }
            TIMER_DETECT if !r.is_primary() => {
                if now.saturating_sub(r.core.last_heartbeat) <= r.core.detect_timeout {
                    out.arm(r.core.detect_timeout, TIMER_DETECT, 0);
                    return;
                }
                if r.shell.behind() {
                    // Promotion gate: a certified checkpoint ahead of our
                    // log proves committed history we do not hold —
                    // promoting now would install a shorter log as the new
                    // committed prefix. Keep detecting; the transfer is
                    // chased after every input. (If the only snapshot
                    // holder is dead, the pair stays safely unavailable —
                    // the documented 2-replica residual.)
                    out.arm(r.core.detect_timeout, TIMER_DETECT, 0);
                    return;
                }
                // Failure detected: promote r.
                r.core.epoch += 1;
                r.core.failovers += 1;
                debug_assert!(r.is_primary());
                r.beat(out);
            }
            _ => {}
        }
    }

    /// Starts the replica's timer chain — heartbeats as primary,
    /// freshness checks as backup — granting the primary a fresh detection
    /// period from now. A duplicate chain from a timer that survived an
    /// outage is harmless: each fire re-arms exactly one successor.
    fn revive(r: &mut PassiveReplica, out: &mut Outbox<PassiveMsg>) {
        r.core.last_heartbeat = r.now;
        if r.is_primary() {
            out.arm(r.core.heartbeat_interval, TIMER_HEARTBEAT, 0);
        } else {
            out.arm(r.core.detect_timeout, TIMER_DETECT, 0);
        }
    }

    fn view(&self) -> u64 {
        self.epoch
    }

    fn wipe(&mut self) {
        // The chassis restarts the timer chains on the next input, and the
        // first heartbeat re-teaches us the epoch; the detector
        // configuration stays.
        self.epoch = 0;
        self.last_heartbeat = 0;
        self.held_updates = SeqWindow::with_base(1);
        self.shipped = SeqWindow::with_base(1);
        self.sync_req_at = 0;
    }

    fn certified(r: &mut PassiveReplica) {
        r.retire_shipped();
    }

    /// With n = 2 there is no second responder to cross-check, so the
    /// install quorum is f+1 = 1 — the shell still enforces batch
    /// integrity and density on the suffix (the documented passive
    /// residual: a lying primary can feed a recovering backup). Promotion
    /// is gated on this completing: a backup behind the certified
    /// watermark refuses to fail over until the transfer lands (see the
    /// `TIMER_DETECT` arm).
    fn installed(r: &mut PassiveReplica, plan: &CstInstall, _: &mut Outbox<PassiveMsg>) {
        r.resume_above_log();
        if plan.view > r.core.epoch {
            // The peer's epoch moved on while we were down; adopt it so
            // role accounting (primary = epoch % 2) stays coherent.
            r.core.epoch = plan.view;
        }
        r.core.last_heartbeat = r.now;
    }

    fn recovered(r: &mut PassiveReplica, _: &RecoveredState) {
        r.resume_above_log();
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Behavior;
    use crate::api::{ClientId, Cluster, Input, ReplicaNode};
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

    /// The primary replays shipped updates to the link that asked: a
    /// request over a client's link is refused and counted, one over the
    /// backup's link is answered to the backup alone.
    #[test]
    fn sync_requests_are_replayed_only_over_the_requesters_link() {
        let cfg = config(1, 4, 51);
        let mut cluster = PassiveCluster::new(&cfg);
        run(&mut cluster, &cfg);
        let primary = &mut cluster.nodes_mut()[0];
        let sync = PassiveMsg::SyncRequest { from_seq: 1 };
        let mut out = Outbox::new();
        let client = Endpoint::Client(ClientId(1));
        primary.on_input(Input::Message { from: client, msg: sync.clone() }, 1 << 30, &mut out);
        assert!(out.msgs.is_empty(), "replayed to a client link: {:?}", out.msgs);
        assert_eq!(primary.refused(), 1);
        let backup = Endpoint::Replica(ReplicaId(1));
        primary.on_input(Input::Message { from: backup, msg: sync }, 1 << 30, &mut out);
        assert!(matches!(
            out.msgs.as_slice(),
            [(to, PassiveMsg::StateUpdate { first_seq: 1, ops, .. })] if *to == backup && ops.len() == 4
        ));
    }
}
