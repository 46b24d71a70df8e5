//! The deterministic protocol harness: one event loop under two load
//! sources, message latencies, message accounting, and the cross-replica
//! safety checker.
//!
//! [`run`], [`run_scenario`] and [`run_open_loop`] are the same private
//! `drive` loop over the same `Sim` — the plane that owns the event queue,
//! the RNG streams, the message counters, the scenario state and the
//! client side (pending table, [`ReplyTally`] quorums, retransmission),
//! and that *is* the [`Transport`] the replicas emit into. They differ
//! only in their `Load`, *who issues the next request*: closed-loop
//! clients, whose next request is gated on a reply quorum, or an open-loop
//! arrival schedule that never waits. Everything else exists once.
//!
//! The event queue is allocation-free *and* O(1) on the hot path: events
//! live in a [`TimingWheel`] — bodies in a freelist arena, ordering in
//! cycle-indexed FIFO buckets — so a message pays a bucket append and a
//! bucket unlink instead of two O(log n) heap sifts, while pop order
//! stays exactly `(delivery time, push order)`.
//!
//! The message plane is allocation-free too: each client op allocates its
//! [`Request`] exactly once and every send — the n-way fan-out *and*
//! every retransmission — shares it through an `Arc`; one [`Outbox`] is
//! reused across all delivered events (cleared, never reallocated). That
//! path is a `lint: hot-path` region: `rsoc_lint` holds it to this claim.
//!
//! # Scenario interpretation
//!
//! The driver interprets an adversarial [`Scenario`] uniformly for every
//! protocol and load: replica fault scripts are installed on the cluster
//! (crash/silence/content-attack windows are interpreted where the
//! replica's behaviour lives), while every *transport-level* fault is
//! interpreted here — partitions sever replica↔replica deliveries, link
//! faults drop and delay crossing messages, per-replica send scripts
//! delay/duplicate/reorder outbox bursts, replay schedules re-inject
//! recorded stale messages, and DoS floods synthesize attacker client
//! traffic. All scenario randomness comes from a dedicated fault RNG
//! stream, so an **empty scenario leaves the virtual-time trace
//! bit-identical** to the unscripted path (the committed BENCH records
//! regenerate unchanged).

use crate::adversary::{Fault, Scenario};
use crate::api::{
    ClientId, Cluster, Endpoint, Input, OpId, Outbox, ReplicaId, ReplicaNode, Request,
};
use crate::dense::OpIndex;
use crate::plane::{step_node, ReplyTally, Transport};
use rsoc_sim::{
    Arrival, ArrivalGen, Histogram, KeyDist, KeyPicker, LogHistogram, RateMod, SimRng, TimingWheel,
};
use std::sync::Arc;

/// Messages per replica kept for stale-replay injection (oldest kept:
/// early-run messages are the interesting stale ones — old views, consumed
/// USIG counters, already-applied state updates).
const REPLAY_RECORD_CAP: usize = 64;

/// Deliveries the quiesce drain handles before it gives up (without
/// timers every protocol's message cascades are finite).
const QUIESCE_EVENT_CAP: u64 = 5_000_000;

/// `Sim` keeps [`Transport::persist`]'s default and simulator replicas
/// never enable durability, so a simulator step cannot fail.
const SIM_PERSISTS_NOTHING: &str = "the simulator persists nothing";

/// RNG stream salts, XORed into [`RunConfig::seed`] — one stream per
/// consumer, so no subsystem's draws perturb another's: latencies;
/// scenario faults; the open loop's arrivals and users.
const SALT_MAIN: u64 = 0xB07_F00D;
const SALT_FAULT: u64 = 0xADD_FA017;
const SALT_WORKLOAD: u64 = 0x0A22_17A1;

/// Message latency models for the on-chip interconnect.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Every message takes exactly this many cycles.
    Fixed(u64),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Minimum cycles.
        min: u64,
        /// Maximum cycles (inclusive).
        max: u64,
    },
    /// NoC-style: `overhead + per_hop * manhattan(position(from), position(to))`.
    /// Endpoint positions: replicas use `replica_at[id]`; clients sit at
    /// `client_at`.
    MeshHops {
        /// Tile coordinate of each replica.
        replica_at: Vec<(u16, u16)>,
        /// Tile coordinate shared by clients (e.g., an I/O tile).
        client_at: (u16, u16),
        /// Cycles per hop.
        per_hop: u64,
        /// Fixed endpoint overhead.
        overhead: u64,
    },
}

impl LatencyModel {
    fn sample(&self, from: Endpoint, to: Endpoint, rng: &mut SimRng) -> u64 {
        match self {
            LatencyModel::Fixed(c) => *c,
            LatencyModel::Uniform { min, max } => rng.range(*min, *max + 1),
            LatencyModel::MeshHops { replica_at, client_at, per_hop, overhead } => {
                let pos = |e: Endpoint| match e {
                    Endpoint::Replica(r) => {
                        replica_at.get(r.0 as usize).copied().unwrap_or(*client_at)
                    }
                    Endpoint::Client(_) => *client_at,
                };
                let (ax, ay) = pos(from);
                let (bx, by) = pos(to);
                let hops = (ax.abs_diff(bx) + ay.abs_diff(by)) as u64;
                overhead + per_hop * hops
            }
        }
    }
}

/// Configuration of one protocol run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Fault threshold; each protocol derives its replica count from this
    /// (PBFT: 3f+1, MinBFT: 2f+1, passive: 2).
    pub f: u32,
    /// Number of closed-loop clients.
    pub clients: u32,
    /// Requests each client issues.
    pub requests_per_client: u64,
    /// RNG seed (drives latencies and payloads).
    pub seed: u64,
    /// Message latency model.
    pub latency: LatencyModel,
    /// Client retransmission timeout in cycles.
    pub client_timeout: u64,
    /// Hard stop for the run.
    pub max_cycles: u64,
    /// Payload bytes per request.
    pub payload_size: usize,
    /// Maximum requests agreed on as one consensus unit (1 = unbatched).
    /// The primary seals a batch as soon as this many requests accumulate.
    pub batch_size: usize,
    /// Cycles a partially filled batch may wait before the primary flushes
    /// it anyway (bounds batching's latency cost). Must stay well below the
    /// backups' request-patience and the client timeout.
    pub batch_flush: u64,
    /// Cycles a replica's egress port is occupied serializing each outgoing
    /// message (NoC packetization, header flits, MAC check-in). This is the
    /// per-message fixed cost that batching amortizes; 0 models infinite
    /// interface bandwidth (messages are free in virtual time).
    pub link_occupancy: u64,
    /// Requests each client keeps outstanding (clamped to ≥ 1). At 1 the
    /// client is strictly closed-loop: it waits for a reply quorum before
    /// issuing the next request. A window of `k` lets a client pipeline
    /// `k` requests, so a batching primary sees enough concurrent demand
    /// to actually fill `batch_size` slots without extra client tiles.
    pub client_window: usize,
    /// Cycles a backup waits for a pending request to commit before
    /// suspecting the primary (view-change trigger). Must exceed the
    /// steady-state tail commit latency: pipelined windows multiply the
    /// in-flight population, so deep windows need proportionally more
    /// patience or correct primaries get deposed in a permanent storm.
    pub request_patience: u64,
    /// Executed watermark units between certified checkpoints (agreement
    /// slots for PBFT/MinBFT, log entries for passive). 0 — the default —
    /// disables the checkpoint/state-transfer subsystem entirely and is
    /// byte-invisible: no checkpoint messages, timers, or RNG draws, so
    /// fault-free traces match the checkpoint-less build exactly.
    pub checkpoint_interval: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            f: 1,
            clients: 1,
            requests_per_client: 10,
            seed: 1,
            latency: LatencyModel::Uniform { min: 5, max: 15 },
            client_timeout: 4_000,
            max_cycles: 2_000_000,
            payload_size: 16,
            batch_size: 1,
            batch_flush: 200,
            link_occupancy: 0,
            client_window: 1,
            request_patience: 1_500,
            checkpoint_interval: 0,
        }
    }
}

impl RunConfig {
    /// Starts a [`RunConfigBuilder`] seeded with the defaults documented
    /// on each setter.
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder { config: RunConfig::default() }
    }
}

/// Builder-style construction of a [`RunConfig`].
///
/// Every setter overrides one documented default; `build()` never fails.
/// Experiments name only the knobs they vary:
///
/// ```
/// use rsoc_bft::runner::RunConfig;
///
/// let config = RunConfig::builder().f(2).clients(4).batch_size(8).build();
/// assert_eq!(config.requests_per_client, 10, "untouched knobs keep their defaults");
/// ```
///
/// The struct's fields stay public — literal construction and field
/// tweaks of an existing config remain possible — but harness call sites
/// go through the builder so adding a knob no longer churns every
/// experiment.
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    config: RunConfig,
}

impl RunConfigBuilder {
    /// Fault threshold; each protocol derives its replica count from this
    /// (PBFT: 3f+1, MinBFT: 2f+1, passive: 2). Default 1.
    pub fn f(mut self, f: u32) -> Self {
        self.config.f = f;
        self
    }

    /// Number of closed-loop clients. Default 1.
    pub fn clients(mut self, clients: u32) -> Self {
        self.config.clients = clients;
        self
    }

    /// Requests each client issues. Default 10.
    pub fn requests_per_client(mut self, requests: u64) -> Self {
        self.config.requests_per_client = requests;
        self
    }

    /// RNG seed (drives latencies and payloads). Default 1.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Message latency model. Default `Uniform { min: 5, max: 15 }`.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.config.latency = latency;
        self
    }

    /// Client retransmission timeout in cycles. Default 4_000.
    pub fn client_timeout(mut self, cycles: u64) -> Self {
        self.config.client_timeout = cycles;
        self
    }

    /// Hard stop for the run. Default 2_000_000 cycles.
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.config.max_cycles = cycles;
        self
    }

    /// Payload bytes per request. Default 16.
    pub fn payload_size(mut self, bytes: usize) -> Self {
        self.config.payload_size = bytes;
        self
    }

    /// Maximum requests agreed on as one consensus unit (1 = unbatched).
    /// Default 1.
    pub fn batch_size(mut self, size: usize) -> Self {
        self.config.batch_size = size;
        self
    }

    /// Cycles a partially filled batch may wait before the primary
    /// flushes it anyway. Default 200.
    pub fn batch_flush(mut self, cycles: u64) -> Self {
        self.config.batch_flush = cycles;
        self
    }

    /// Cycles a replica's egress port is occupied per outgoing message
    /// (0 = infinite interface bandwidth). Default 0.
    pub fn link_occupancy(mut self, cycles: u64) -> Self {
        self.config.link_occupancy = cycles;
        self
    }

    /// Requests each client keeps outstanding (clamped to ≥ 1). Default 1
    /// (strictly closed-loop).
    pub fn client_window(mut self, window: usize) -> Self {
        self.config.client_window = window;
        self
    }

    /// Cycles a backup waits for a pending request to commit before
    /// suspecting the primary. Default 1_500.
    pub fn request_patience(mut self, cycles: u64) -> Self {
        self.config.request_patience = cycles;
        self
    }

    /// Executed watermark units between certified checkpoints (0 disables
    /// the checkpoint/state-transfer subsystem, byte-invisibly). Default 0.
    pub fn checkpoint_interval(mut self, interval: u64) -> Self {
        self.config.checkpoint_interval = interval;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> RunConfig {
        self.config
    }
}

/// Outcome of one protocol run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Replica count used.
    pub n_replicas: usize,
    /// Operations acknowledged to clients (reply quorum reached).
    pub committed: u64,
    /// Operations requested in total.
    pub requested: u64,
    /// Client-observed commit latencies (cycles).
    pub commit_latency: Histogram,
    /// All messages sent (client + protocol + replies).
    pub messages_total: u64,
    /// Replica→replica protocol messages only.
    pub messages_protocol: u64,
    /// Client retransmissions observed.
    pub client_retries: u64,
    /// Whether all correct replicas' logs were prefix-compatible.
    pub safety_ok: bool,
    /// Virtual duration of the run.
    pub duration_cycles: u64,
    /// Batch size the run was configured with (for reports).
    pub batch_size: usize,
}

impl RunReport {
    /// Protocol messages per committed operation.
    pub fn messages_per_commit(&self) -> f64 {
        if self.committed == 0 {
            return f64::INFINITY;
        }
        self.messages_protocol as f64 / self.committed as f64
    }

    /// Committed operations per 1000 cycles.
    pub fn throughput_per_kcycle(&self) -> f64 {
        if self.duration_cycles == 0 {
            return 0.0;
        }
        self.committed as f64 * 1000.0 / self.duration_cycles as f64
    }
}

#[derive(Debug)]
enum Queued<M> {
    Deliver {
        from: Endpoint,
        to: Endpoint,
        msg: M,
    },
    ReplicaTimer {
        replica: ReplicaId,
        kind: u32,
        token: u64,
    },
    /// The retransmit timer of one client operation.
    ClientTimer {
        op: OpId,
    },
    /// Scenario: the next injection of flood `flood` (k requests sent so
    /// far). Never queued by the fault-free path.
    FloodTick {
        flood: u32,
        k: u64,
    },
    /// Scenario: the next stale-replay burst of the replay schedule at
    /// position `fault` of `replica`'s script (k bursts injected so far).
    ReplayTick {
        replica: u32,
        fault: u32,
        k: u64,
    },
    /// Scenario: rejuvenate (wipe) `replica` — it re-joins through state
    /// transfer. Never queued by the fault-free path.
    RejuvTick {
        replica: u32,
    },
    /// Open loop: the next arrival is due (the generator lives in the load).
    Arrival,
}

/// Runtime state of one scenario interpretation: the dense per-replica
/// scripts, the replay recording rings, the dedicated fault RNG stream,
/// and the attack counters reported in [`ScenarioOutcome`].
struct FaultCtx<'a, M> {
    scenario: &'a Scenario,
    /// False for the empty scenario: every hook short-circuits on this.
    active: bool,
    /// Scenario randomness — a separate stream so the main RNG's draw
    /// sequence (and with it the whole fault-free trace) is untouched.
    rng: SimRng,
    /// Per-replica scripts, dense by id (unconstrained when unscripted).
    scripts: Vec<crate::adversary::ReplicaScript>,
    /// Per-replica recorded protocol sends for stale replay.
    recorded: Vec<Vec<(Endpoint, M)>>,
    flood_requests: u64,
    script_drops: u64,
    duplicates: u64,
    replays: u64,
    rejuvenations: u64,
}

impl<'a, M: Clone> FaultCtx<'a, M> {
    fn new(scenario: &'a Scenario, n: usize, seed: u64) -> Self {
        FaultCtx {
            scenario,
            active: !scenario.is_empty(),
            rng: SimRng::new(seed ^ SALT_FAULT),
            scripts: (0..n as u32)
                .map(|i| scenario.script_for(i).cloned().unwrap_or_default())
                .collect(),
            recorded: (0..n).map(|_| Vec::new()).collect(),
            flood_requests: 0,
            script_drops: 0,
            duplicates: 0,
            replays: 0,
            rejuvenations: 0,
        }
    }

    /// Whether an active partition severs `a` from `b` at cycle `at`.
    fn severed(&self, at: u64, a: ReplicaId, b: ReplicaId) -> bool {
        self.scenario.partitions.iter().any(|p| {
            p.window.contains(at) && (p.members.contains(&a.0) != p.members.contains(&b.0))
        })
    }
}

/// Outcome of a scripted run: the plain report plus the scenario's attack
/// accounting (how much adversarial traffic the run actually absorbed —
/// a scenario that injected nothing proves nothing).
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The measured run report (workload clients only).
    pub report: RunReport,
    /// Flood requests injected by attacker clients.
    pub flood_requests: u64,
    /// Messages lost to partitions and link-fault drops.
    pub script_drops: u64,
    /// Extra copies injected by duplication windows.
    pub duplicates: u64,
    /// Stale messages re-injected by replay schedules.
    pub replays: u64,
    /// Rejuvenation wipes performed (leave/wipe/re-join cycles).
    pub rejuvenations: u64,
}

/// One in-flight client operation: the request (shared with every wire
/// copy, retransmissions included), when it was first sent (a
/// retransmission does not reset the latency clock), and its quorum so far.
struct PendingOp {
    request: Arc<Request>,
    sent_at: u64,
    tally: ReplyTally,
}

/// The simulator plane: what a run owns besides the cluster and the load.
/// It is the [`Transport`] the replicas emit into — delivery (latency
/// sampling, egress serialization, baseline loss, every scripted transport
/// fault) and timers go straight onto its wheel — and the client side of
/// every load: in-flight operations, reply quorums, retransmit timers.
struct Sim<'a, N: ReplicaNode> {
    config: &'a RunConfig,
    n: usize,
    quorum: usize,
    /// Cycle-indexed wheel: O(1) push/pop, (time, push-order) pop order.
    queue: TimingWheel<Queued<N::Msg>>,
    rng: SimRng,
    egress_free: Vec<u64>,
    messages_total: u64,
    messages_protocol: u64,
    fault: FaultCtx<'a, N::Msg>,
    /// Quiesce: deliveries keep flowing, timers die with the run.
    draining: bool,
    /// In-flight ops, keyed sparsely by identity: a hot user may have many
    /// at once, and a million idle users must cost no per-user state.
    pending: OpIndex<PendingOp>,
    committed: u64,
    retries: u64,
    /// First client id past the load's population: flood `i` attacks as
    /// client `attackers_from + i`, so an attacker never aliases a user.
    attackers_from: u32,
}

// The steady state: a fault-free workload runs here and in the replicas.
// lint: hot-path
impl<N: ReplicaNode> Sim<'_, N> {
    /// Sends client operation `op` for the first time.
    fn issue(&mut self, op: OpId, now: u64) {
        let payload =
            client_payload(self.config.seed, op.client.0, op.seq, self.config.payload_size);
        // The op's single allocation: every wire copy (and every later
        // retransmission) shares this Arc.
        let request = Arc::new(Request { op, payload });
        self.fan_out(&request, now, false);
        self.queue.push(now + self.config.client_timeout, Queued::ClientTimer { op });
        self.pending.insert(op, PendingOp { request, sent_at: now, tally: ReplyTally::default() });
    }

    /// One wire copy of `request` to every replica, latency-sampled (from
    /// the fault stream for an `attack`: main-stream draws stay unscripted).
    fn fan_out(&mut self, request: &Arc<Request>, now: u64, attack: bool) {
        let from = Endpoint::Client(request.op.client);
        for i in 0..self.n {
            let to = Endpoint::Replica(ReplicaId(i as u32));
            let rng = if attack { &mut self.fault.rng } else { &mut self.rng };
            let delay = self.config.latency.sample(from, to, rng);
            self.messages_total += 1;
            let msg = N::make_request(Arc::clone(request));
            self.queue.push(now + delay, Queued::Deliver { from, to, msg });
        }
    }

    /// Counts a reply to one of `to`'s in-flight ops as a vote of the link
    /// it came in on; the vote that completes the quorum retires the op and
    /// returns it. Attackers have no pending ops.
    fn on_reply(&mut self, from: Endpoint, to: ClientId, msg: &N::Msg) -> Option<PendingOp> {
        let Endpoint::Replica(link) = from else { return None };
        let reply = N::as_reply(msg).filter(|reply| reply.op.client == to)?;
        let tally = &mut self.pending.get_mut(&reply.op)?.tally;
        if !tally.record(link, self.n, self.quorum, reply) {
            return None;
        }
        self.committed += 1;
        self.pending.remove(&reply.op)
    }

    /// `op`'s timer fired: if it is still in flight, every replica gets
    /// another copy of its one request — refcount bumps, no payload clone.
    fn retransmit(&mut self, op: OpId, now: u64) {
        let Some(pending) = self.pending.get(&op) else { return };
        let request = Arc::clone(&pending.request);
        self.retries += 1;
        self.fan_out(&request, now, false);
        self.queue.push(now + self.config.client_timeout, Queued::ClientTimer { op });
    }

    /// Routes one outgoing message: egress serialization, baseline loss,
    /// then — only under an active scenario — partition severing,
    /// link-fault drop/delay, duplication, and replay recording. The
    /// fault-free tail is exactly the pre-scenario harness (same main-RNG
    /// draws in the same order).
    fn route_one(&mut self, from: ReplicaId, to: Endpoint, msg: N::Msg, now: u64) {
        let config = self.config;
        // Sender-side serialization: each message occupies the replica's
        // egress port for `link_occupancy` cycles, so a burst departs
        // back-to-back rather than simultaneously. This charges the
        // per-message fixed cost that batching amortizes; lost messages
        // still occupy the port (they were physically sent).
        let depart = if config.link_occupancy > 0 {
            let free = self.egress_free[from.0 as usize].max(now) + config.link_occupancy;
            self.egress_free[from.0 as usize] = free;
            free
        } else {
            now
        };
        if let Endpoint::Replica(_) = to {
            self.messages_protocol += 1;
        }
        if self.fault.active {
            let script = &self.fault.scripts[from.0 as usize];
            // Record protocol sends for stale-replay schedules (oldest kept).
            if script.faults().iter().any(|(_, f)| matches!(f, Fault::Replay { .. }))
                && matches!(to, Endpoint::Replica(_))
                && self.fault.recorded[from.0 as usize].len() < REPLAY_RECORD_CAP
            {
                // lint: allow(hot-clone) -- scripted replay schedules only: the ring keeps its own copy
                self.fault.recorded[from.0 as usize].push((to, msg.clone()));
            }
            // Partition severing, judged at departure time: the message was
            // sent (and charged) but never crosses the boundary.
            if let Endpoint::Replica(dst) = to {
                if self.fault.severed(depart, from, dst) {
                    self.fault.script_drops += 1;
                    self.messages_total += 1;
                    return;
                }
            }
            // Link faults: probabilistic drops plus fixed extra delay on
            // matching (source, dest) pairs. All randomness from the fault
            // stream — the main RNG's draw order is scenario-independent.
            let mut extra = 0;
            let duplicate = script.active(now, Fault::Duplicate);
            for l in &self.fault.scenario.links {
                let src_match = l.source.is_none_or(|s| s == from.0);
                let dst_match = match (l.dest, to) {
                    (None, _) => true,
                    (Some(d), Endpoint::Replica(r)) => d == r.0,
                    (Some(_), Endpoint::Client(_)) => false,
                };
                if src_match && dst_match && l.window.contains(depart) {
                    if l.drop_rate > 0.0 && self.fault.rng.chance(l.drop_rate) {
                        self.fault.script_drops += 1;
                        self.messages_total += 1;
                        return;
                    }
                    extra += l.extra_delay;
                }
            }
            self.messages_total += 1;
            let delay = config.latency.sample(Endpoint::Replica(from), to, &mut self.rng);
            // lint: allow(hot-clone) -- scripted runs only: a duplication window sends `msg` again below
            let first = Queued::Deliver { from: Endpoint::Replica(from), to, msg: msg.clone() };
            self.queue.push(depart + delay + extra, first);
            if duplicate {
                // The copy takes its own (fault-stream) latency draw: the
                // two arrivals interleave arbitrarily with other traffic.
                let dup_delay =
                    config.latency.sample(Endpoint::Replica(from), to, &mut self.fault.rng);
                self.messages_total += 1;
                if matches!(to, Endpoint::Replica(_)) {
                    self.messages_protocol += 1;
                }
                self.fault.duplicates += 1;
                self.queue.push(
                    depart + dup_delay + extra,
                    Queued::Deliver { from: Endpoint::Replica(from), to, msg },
                );
            }
            return;
        }
        self.messages_total += 1;
        let delay = config.latency.sample(Endpoint::Replica(from), to, &mut self.rng);
        self.queue.push(depart + delay, Queued::Deliver { from: Endpoint::Replica(from), to, msg });
    }
}
// lint: end

impl<N: ReplicaNode> Transport<N::Msg> for Sim<'_, N> {
    fn dispatch(&mut self, from: ReplicaId, out: &mut Outbox<N::Msg>, now: u64) {
        // A reorder window flips the departure order of this whole burst —
        // later-queued messages grab the egress port (and their latency
        // samples) first. Only taken when a scenario scripts it.
        if self.fault.active && self.fault.scripts[from.0 as usize].active(now, Fault::Reorder) {
            out.msgs.reverse();
        }
        for (to, msg) in out.msgs.drain(..) {
            self.route_one(from, to, msg, now);
        }
        for (delay, kind, token) in out.timers.drain(..) {
            if !self.draining {
                self.queue.push(now + delay, Queued::ReplicaTimer { replica: from, kind, token });
            }
        }
    }
}

/// The scenario schedules: taken only when a scenario scripts them.
impl<N: ReplicaNode> Sim<'_, N> {
    /// Arms the first tick of every flood, replay and rejuvenation
    /// schedule. The empty scenario schedules nothing — the event stream
    /// (every wheel push sequence number) stays exactly the fault-free one.
    fn arm_schedules(&mut self) {
        if !self.fault.active {
            return;
        }
        for (i, f) in self.fault.scenario.floods.iter().enumerate() {
            if let Some(at) = f.train().first() {
                self.queue.push(at, Queued::FloodTick { flood: i as u32, k: 0 });
            }
        }
        for (r, script) in self.fault.scripts.iter().enumerate() {
            let replica = r as u32;
            for i in 0..script.faults().len() {
                if let Some(at) = script.replay(i).and_then(|spec| spec.train().first()) {
                    self.queue.push(at, Queued::ReplayTick { replica, fault: i as u32, k: 0 });
                }
            }
            for &(window, f) in script.faults() {
                if f == Fault::Rejuvenate {
                    self.queue.push(window.from, Queued::RejuvTick { replica });
                }
            }
        }
    }

    /// Injection `k` of flood `flood`: a well-formed request from a
    /// non-workload client id. Replicas order and execute it like any
    /// other (that is the attack — it consumes agreement and egress
    /// capacity), but it is never pending: no reply quorum is tallied.
    fn flood_tick(&mut self, flood: u32, k: u64, now: u64) {
        let f = self.fault.scenario.floods[flood as usize];
        if !f.window.contains(now) {
            return;
        }
        let seq = k + 1;
        let client = ClientId(self.attackers_from + flood);
        let text = format!("SET f{flood}.{seq} v{seq}");
        let mut payload = text.into_bytes();
        payload.resize(payload.len().max(f.payload_size), b'_');
        self.fan_out(&Arc::new(Request { op: OpId { client, seq }, payload }), now, true);
        self.fault.flood_requests += 1;
        if let Some(next) = f.train().next_after(now) {
            self.queue.push(next, Queued::FloodTick { flood, k: seq });
        }
    }

    /// Burst `k` of the replay schedule at position `fault` of
    /// `replica`'s script.
    fn replay_tick(&mut self, replica: u32, fault: u32, k: u64, now: u64) {
        let Some(s) = self.fault.scripts[replica as usize].replay(fault as usize) else {
            return;
        };
        if !s.window.contains(now) {
            return;
        }
        let burst = s.burst.max(1);
        let rec_len = self.fault.recorded[replica as usize].len();
        let from = Endpoint::Replica(ReplicaId(replica));
        // Cycle through the recorded ring, oldest first: stale views,
        // consumed USIG counters, and already-applied state updates come
        // back from the network's past.
        for j in 0..burst.min(rec_len) {
            let idx = (k as usize * burst + j) % rec_len;
            let (to, msg) = self.fault.recorded[replica as usize][idx].clone();
            let delay = self.config.latency.sample(from, to, &mut self.fault.rng);
            self.messages_total += 1;
            if matches!(to, Endpoint::Replica(_)) {
                self.messages_protocol += 1;
            }
            self.fault.replays += 1;
            self.queue.push(now + delay, Queued::Deliver { from, to, msg });
        }
        if let Some(next) = s.train().next_after(now) {
            self.queue.push(next, Queued::ReplayTick { replica, fault, k: k + 1 });
        }
    }
}

/// Who issues the next request — all the closed and the open loop disagree
/// on. A load acts through [`Sim::issue`]: the run cannot tell them apart.
trait Load<N: ReplicaNode> {
    /// Client ids below this belong to the load.
    fn population(&self) -> u32;
    /// Operations the run commits before it ends.
    fn total_ops(&self) -> u64;
    /// Cycle 0: issue the first requests, or schedule the first arrival.
    fn start(&mut self, sim: &mut Sim<'_, N>);
    /// `op` got its reply quorum at `now`, `latency` cycles after first sent.
    fn on_commit(&mut self, op: OpId, latency: u64, now: u64, sim: &mut Sim<'_, N>);
    /// A [`Queued::Arrival`] is due (only a load schedules them).
    fn on_arrival(&mut self, _now: u64, _sim: &mut Sim<'_, N>) {}
}

/// The one event loop: installs `scenario`'s replica scripts, lets `load`
/// start, dispatches events until every operation of the load has its
/// reply quorum (or `max_cycles` strikes), and drains what is in flight.
/// `commit_latency` comes back empty: latencies go to the load as ops
/// commit, into the histogram its report exposes.
fn drive<C: Cluster, L: Load<C::Node>>(
    cluster: &mut C,
    config: &RunConfig,
    scenario: &Scenario,
    load: &mut L,
) -> ScenarioOutcome {
    let n = cluster.nodes().len();
    for (r, s) in &scenario.replicas {
        if (*r as usize) < n {
            cluster.set_script(ReplicaId(*r), s.clone());
        }
    }
    let mut sim: Sim<'_, C::Node> = Sim {
        config,
        n,
        quorum: cluster.reply_quorum(),
        queue: TimingWheel::new(),
        rng: SimRng::new(config.seed ^ SALT_MAIN),
        egress_free: vec![0; n],
        messages_total: 0,
        messages_protocol: 0,
        fault: FaultCtx::new(scenario, n, config.seed),
        draining: false,
        pending: OpIndex::new(),
        committed: 0,
        retries: 0,
        attackers_from: load.population(),
    };
    // One outbox reused for every delivered event: cleared (capacity
    // kept), so the steady state allocates nothing per event.
    let mut out: Outbox<<C::Node as ReplicaNode>::Msg> = Outbox::new();
    let total_ops = load.total_ops();
    let mut now: u64 = 0;

    load.start(&mut sim);
    sim.arm_schedules();

    while let Some((at, ev)) = sim.queue.pop() {
        if at > config.max_cycles {
            now = config.max_cycles;
            break;
        }
        now = at;
        match ev {
            Queued::Deliver { from, to: Endpoint::Replica(r), msg } => {
                let node = &mut cluster.nodes_mut()[r.0 as usize];
                step_node(node, Input::Message { from, msg }, now, &mut out, &mut sim)
                    .expect(SIM_PERSISTS_NOTHING);
            }
            Queued::Deliver { from, to: Endpoint::Client(c), msg } => {
                if let Some(done) = sim.on_reply(from, c, &msg) {
                    load.on_commit(done.request.op, now - done.sent_at, now, &mut sim);
                }
            }
            Queued::ReplicaTimer { replica, kind, token } => {
                let node = &mut cluster.nodes_mut()[replica.0 as usize];
                step_node(node, Input::Timer { kind, token }, now, &mut out, &mut sim)
                    .expect(SIM_PERSISTS_NOTHING);
            }
            Queued::ClientTimer { op } => sim.retransmit(op, now),
            Queued::Arrival => load.on_arrival(now, &mut sim),
            Queued::FloodTick { flood, k } => sim.flood_tick(flood, k, now),
            Queued::ReplayTick { replica, fault, k } => sim.replay_tick(replica, fault, k, now),
            Queued::RejuvTick { replica } => {
                // Leave/wipe/re-join: all volatile state goes; the replica
                // discovers it is behind (its kept stable certificate, or a
                // peer's next checkpoint/view-change) and re-joins through
                // state transfer.
                cluster.nodes_mut()[replica as usize].wipe();
                sim.fault.rejuvenations += 1;
            }
        }
        if sim.committed >= total_ops {
            break;
        }
    }

    // Quiesce: the workload is over, but messages already in flight (the
    // final commit round, a checkpoint or state-transfer exchange) still
    // reach their replicas, as do the cascades they trigger. Timers are
    // dropped — no new workload can start — and `now` stays frozen at the
    // break point so throughput is measured over the active phase only.
    if sim.committed >= total_ops {
        sim.draining = true;
        let mut drained = 0u64;
        while let Some((at, ev)) = sim.queue.pop() {
            if at > config.max_cycles || drained > QUIESCE_EVENT_CAP {
                break;
            }
            drained += 1;
            let Queued::Deliver { from, to: Endpoint::Replica(r), msg } = ev else { continue };
            let node = &mut cluster.nodes_mut()[r.0 as usize];
            step_node(node, Input::Message { from, msg }, at, &mut out, &mut sim)
                .expect(SIM_PERSISTS_NOTHING);
        }
    }

    ScenarioOutcome {
        report: RunReport {
            protocol: cluster.protocol_name(),
            n_replicas: n,
            committed: sim.committed,
            requested: sim.committed + sim.pending.len() as u64,
            commit_latency: Histogram::new(),
            messages_total: sim.messages_total,
            messages_protocol: sim.messages_protocol,
            client_retries: sim.retries,
            safety_ok: check_safety(cluster),
            duration_cycles: now,
            batch_size: config.batch_size,
        },
        flood_requests: sim.fault.flood_requests,
        script_drops: sim.fault.script_drops,
        duplicates: sim.fault.duplicates,
        replays: sim.fault.replays,
        rejuvenations: sim.fault.rejuvenations,
    }
}

/// The closed-loop load: clients that each keep up to `window` requests
/// outstanding until they have issued `target`. A completed op frees a
/// slot and the client fills it at once: the pipeline stays full.
struct ClosedLoop {
    /// Per client: the next sequence number and the ops in flight.
    clients: Vec<(u64, usize)>,
    target: u64,
    window: usize,
    latency: Histogram,
}

impl ClosedLoop {
    /// Issues `client`'s next request if target and window leave room for it.
    fn refill<N: ReplicaNode>(&mut self, client: ClientId, now: u64, sim: &mut Sim<'_, N>) -> bool {
        let (next_seq, outstanding) = &mut self.clients[client.0 as usize];
        if *next_seq > self.target || *outstanding >= self.window {
            return false;
        }
        sim.issue(OpId { client, seq: *next_seq }, now);
        *next_seq += 1;
        *outstanding += 1;
        true
    }
}

impl<N: ReplicaNode> Load<N> for ClosedLoop {
    fn population(&self) -> u32 {
        self.clients.len() as u32
    }

    fn total_ops(&self) -> u64 {
        self.clients.len() as u64 * self.target
    }

    /// Every client fills its pipeline window at cycle 0.
    fn start(&mut self, sim: &mut Sim<'_, N>) {
        for c in 0..self.clients.len() as u32 {
            while self.refill(ClientId(c), 0, sim) {}
        }
    }

    fn on_commit(&mut self, op: OpId, latency: u64, now: u64, sim: &mut Sim<'_, N>) {
        self.latency.record(latency as f64);
        self.clients[op.client.0 as usize].1 -= 1;
        self.refill(op.client, now, sim);
    }
}

/// Runs `cluster` under `config`, returning the measured report.
///
/// Deterministic: identical `(cluster initial state, config)` gives an
/// identical report. Equivalent to [`run_scenario`] with the empty
/// [`Scenario`], whose every hook short-circuits on an inactive context.
pub fn run<C: Cluster>(cluster: &mut C, config: &RunConfig) -> RunReport {
    run_scenario(cluster, config, &Scenario::none()).report
}

/// Runs `cluster` under `config`'s closed-loop clients while interpreting
/// `scenario`: replica fault scripts are installed on the cluster,
/// transport faults (partitions, link degradation, send
/// delay/duplication/reordering, stale replay, DoS floods) are interpreted
/// by the driver, uniformly for every protocol.
///
/// Scenario replica ids beyond the cluster size are ignored, so one
/// scenario can target protocols with different replica counts.
pub fn run_scenario<C: Cluster>(
    cluster: &mut C,
    config: &RunConfig,
    scenario: &Scenario,
) -> ScenarioOutcome {
    let mut load = ClosedLoop {
        clients: vec![(1, 0); config.clients as usize],
        target: config.requests_per_client,
        window: config.client_window.max(1),
        latency: Histogram::new(),
    };
    let mut outcome = drive(cluster, config, scenario, &mut load);
    outcome.report.commit_latency = load.latency;
    outcome
}

/// The deterministic payload of request `(client, seq)` under `seed` — a
/// pure function of the request's *identity*, shared by the simulator's
/// clients and the real-transport client driver (`rsoc-client`). Feeding
/// both planes the same `(seed, clients, requests, payload_size)` makes
/// them execute the identical request log, which is what lets a TCP
/// cluster's state digests be checked against a simulator run.
///
/// Filler bytes come from a PRNG keyed by `(seed, client, seq)`, NOT any
/// shared run RNG: runs that interleave differently (batched vs
/// unbatched, different latency models, real sockets) still execute
/// identical commands. The printable `SET k{client}.{seq} v{seq}` prefix
/// makes state machines do real work, and each op writing its own key
/// keeps the final KV state a pure function of the op *set*, independent
/// of commit order.
pub fn client_payload(seed: u64, client: u32, seq: u64, payload_size: usize) -> Vec<u8> {
    let mut payload_rng =
        SimRng::new(seed ^ ((client as u64 + 1) << 40) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut payload = vec![0u8; payload_size];
    for b in payload.iter_mut() {
        *b = payload_rng.next_u32() as u8;
    }
    let text = format!("SET k{client}.{seq} v{seq}");
    let tlen = text.len().min(payload.len().max(text.len()));
    payload.resize(tlen.max(payload_size), b'_');
    let copy_len = text.len().min(payload.len());
    payload[..copy_len].copy_from_slice(&text.as_bytes()[..copy_len]);
    payload
}

// ------------------------------------------------------------- open loop

/// Users per page of the dense per-user sequence table.
const USER_PAGE: usize = 4096;

/// Dense per-user sequence counters, paged so a million-user population
/// costs memory proportional to the pages actually *touched* — no
/// per-user allocation, no hashing on the arrival hot path. A `u32`
/// per user bounds each user at 2^32 ops, far beyond any finite run.
struct UserTable {
    pages: Vec<Option<Box<[u32; USER_PAGE]>>>,
    /// Users that have issued at least one op.
    distinct: u64,
}

impl UserTable {
    fn new(users: u32) -> Self {
        let n_pages = (users.max(1) as usize).div_ceil(USER_PAGE);
        UserTable { pages: (0..n_pages).map(|_| None).collect(), distinct: 0 }
    }

    /// Bumps and returns user `u`'s next 1-based sequence number.
    fn bump(&mut self, u: u32) -> u64 {
        let (p, i) = (u as usize / USER_PAGE, u as usize % USER_PAGE);
        let page = self.pages[p].get_or_insert_with(|| Box::new([0u32; USER_PAGE]));
        page[i] += 1;
        if page[i] == 1 {
            self.distinct += 1;
        }
        page[i] as u64
    }
}

/// The open-loop workload: an arrival process (modulated by rate
/// envelopes) decides *when* ops are injected, a key distribution decides
/// *which user* issues each one. Unlike the closed-loop clients, arrivals
/// never wait for replies — a saturated cluster accumulates in-flight ops
/// instead of back-pressuring the generator, which is what exposes
/// queueing-delay tails (and long-run state like the MinBFT resend ring)
/// that a closed loop structurally cannot reach.
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// Inter-arrival process.
    pub arrival: Arrival,
    /// Rate envelopes composed on top of `arrival` (diurnal ramps, flash
    /// crowds). Empty = the bare process.
    pub mods: Vec<RateMod>,
    /// User-identity distribution: its keyspace is the client population,
    /// its shape the access skew (hot users issue more traffic).
    pub users: KeyDist,
    /// Total ops to inject; the run ends when all are committed (or
    /// `max_cycles` strikes).
    pub total_ops: u64,
}

/// Outcome of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Replica count used.
    pub n_replicas: usize,
    /// Ops injected by the arrival process.
    pub issued: u64,
    /// Ops acknowledged (reply quorum reached).
    pub committed: u64,
    /// Users that issued at least one op.
    pub distinct_users: u64,
    /// Commit latencies in virtual cycles, log-bucketed and mergeable.
    pub latency: LogHistogram,
    /// All messages sent (client + protocol + replies).
    pub messages_total: u64,
    /// Replica→replica protocol messages only.
    pub messages_protocol: u64,
    /// Client retransmissions observed.
    pub retries: u64,
    /// Whether all correct replicas' logs were prefix-compatible.
    pub safety_ok: bool,
    /// Virtual duration of the run.
    pub duration_cycles: u64,
    /// Batch size the run was configured with (for reports).
    pub batch_size: usize,
}

/// The open-loop load: an arrival issues one op for the user it draws and
/// schedules the next arrival; commits only feed the histogram.
struct OpenLoop {
    total_ops: u64,
    arrivals: ArrivalGen,
    picker: KeyPicker,
    pick_rng: SimRng,
    users: UserTable,
    issued: u64,
    latency: LogHistogram,
}

impl<N: ReplicaNode> Load<N> for OpenLoop {
    fn population(&self) -> u32 {
        self.picker.keyspace()
    }

    fn total_ops(&self) -> u64 {
        self.total_ops
    }

    fn start(&mut self, sim: &mut Sim<'_, N>) {
        if self.total_ops > 0 {
            sim.queue.push(self.arrivals.next_arrival(), Queued::Arrival);
        }
    }

    fn on_commit(&mut self, _op: OpId, latency: u64, _now: u64, _sim: &mut Sim<'_, N>) {
        self.latency.record(latency);
    }

    fn on_arrival(&mut self, now: u64, sim: &mut Sim<'_, N>) {
        let user = self.picker.pick(&mut self.pick_rng);
        let seq = self.users.bump(user);
        self.issued += 1;
        sim.issue(OpId { client: ClientId(user), seq }, now);
        if self.issued < self.total_ops {
            // Absolute times: the generator's clock *is* the arrival
            // schedule, strictly increasing past `now`.
            sim.queue.push(self.arrivals.next_arrival(), Queued::Arrival);
        }
    }
}

/// Runs `cluster` under an open-loop workload, optionally scripted by
/// `scenario`. Deterministic for identical `(cluster, config, spec,
/// scenario)` — the workload draws from its own RNG streams
/// (`SALT_WORKLOAD`), so the arrival schedule and user sequence are
/// invariant across protocols, batch sizes and scenarios.
///
/// The scenario is interpreted exactly as in [`run_scenario`]; flood
/// attackers take client ids past `spec.users`' keyspace.
pub fn run_open_loop<C: Cluster>(
    cluster: &mut C,
    config: &RunConfig,
    spec: &OpenLoopSpec,
    scenario: &Scenario,
) -> OpenLoopReport {
    // Dedicated workload streams: other subsystems' draws (latencies,
    // faults) never perturb the arrival schedule or the user sequence.
    let workload_rng = SimRng::new(config.seed ^ SALT_WORKLOAD);
    let picker = KeyPicker::new(spec.users);
    let mut load = OpenLoop {
        total_ops: spec.total_ops,
        arrivals: ArrivalGen::new(spec.arrival, spec.mods.clone(), workload_rng.fork(0)),
        pick_rng: workload_rng.fork(1),
        users: UserTable::new(picker.keyspace()),
        picker,
        issued: 0,
        latency: LogHistogram::new(),
    };
    let report = drive(cluster, config, scenario, &mut load).report;
    OpenLoopReport {
        protocol: report.protocol,
        n_replicas: report.n_replicas,
        issued: load.issued,
        committed: report.committed,
        distinct_users: load.users.distinct,
        latency: load.latency,
        messages_total: report.messages_total,
        messages_protocol: report.messages_protocol,
        retries: report.client_retries,
        safety_ok: report.safety_ok,
        duration_cycles: report.duration_cycles,
        batch_size: report.batch_size,
    }
}

/// Checks that all correct replicas' committed logs agree: for every pair,
/// entries at the same sequence number have the same op and digest (prefix
/// compatibility — one replica may simply be behind). Comparison is
/// **sequence-aligned**, not index-aligned: with checkpointing enabled a
/// log is a contiguous suffix of history (truncated below the stable
/// watermark, at possibly different watermarks per replica), so only the
/// overlap of the retained ranges is comparable.
pub fn check_safety<C: Cluster>(cluster: &C) -> bool {
    let correct = cluster.correct_replicas();
    for (i, &a) in correct.iter().enumerate() {
        for &b in &correct[i + 1..] {
            let la = cluster.nodes()[a.0 as usize].committed_log();
            let lb = cluster.nodes()[b.0 as usize].committed_log();
            let (Some(fa), Some(fb)) = (la.first(), lb.first()) else { continue };
            // Retained entries are dense in seq: skipping to the later first
            // seq aligns the two walks, and the shorter one ends the overlap.
            let lo = fa.seq.max(fb.seq);
            let ea = la.iter().skip((lo - fa.seq) as usize);
            let eb = lb.iter().skip((lo - fb.seq) as usize);
            if ea.zip(eb).any(|(x, y)| x != y) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ReplicaScript;
    use crate::api::Reply;
    use crate::checkpoint::{CommittedLog, LogView};

    /// A replica that is nothing but its committed log.
    struct Logged(CommittedLog);

    impl ReplicaNode for Logged {
        type Msg = u64;

        fn id(&self) -> ReplicaId {
            ReplicaId(0)
        }

        fn on_input(&mut self, _input: Input<u64>, _now: u64, _out: &mut Outbox<u64>) {}

        fn committed_log(&self) -> LogView<'_> {
            self.0.view()
        }

        fn make_request(_req: Arc<Request>) -> u64 {
            0
        }

        fn as_reply(_msg: &u64) -> Option<&Reply> {
            None
        }

        fn state_digest(&self) -> [u8; 32] {
            [0; 32]
        }

        fn current_view(&self) -> u64 {
            0
        }
    }

    /// Two correct replicas.
    struct Pair([Logged; 2]);

    impl Cluster for Pair {
        type Node = Logged;

        fn nodes_mut(&mut self) -> &mut [Logged] {
            &mut self.0
        }

        fn nodes(&self) -> &[Logged] {
            &self.0
        }

        fn reply_quorum(&self) -> usize {
            1
        }

        fn protocol_name(&self) -> &'static str {
            "logged"
        }

        fn correct_replicas(&self) -> Vec<ReplicaId> {
            vec![ReplicaId(0), ReplicaId(1)]
        }

        fn set_script(&mut self, _id: ReplicaId, _script: ReplicaScript) {}

        fn into_nodes(self) -> Vec<Logged> {
            self.0.into()
        }
    }

    /// A log of `slots`, each its ops (client 1's seqs) and a digest byte,
    /// truncated below `watermark`.
    fn log(slots: &[(&[u64], u8)], watermark: u64) -> Logged {
        let mut log = CommittedLog::new();
        for &(seqs, digest) in slots {
            log.append(seqs.iter().map(|&seq| OpId { client: ClientId(1), seq }), [digest; 32]);
        }
        log.truncate_below(watermark);
        Logged(log)
    }

    fn safe(a: Logged, b: Logged) -> bool {
        check_safety(&Pair([a, b]))
    }

    /// Every op of a slot is compared at its own seq — op and slot digest —
    /// and only where both retained logs overlap.
    #[test]
    fn check_safety_compares_every_overlapping_seq() {
        let four: &[(&[u64], u8)] = &[(&[1, 2], 1), (&[3, 4], 2)];
        assert!(safe(log(four, 0), log(four, 0)));
        assert!(safe(log(four, 0), log(&four[..1], 0)), "one replica is behind");
        assert!(safe(log(four, 0), log(&[], 0)));

        let other_op: &[(&[u64], u8)] = &[(&[1, 2], 1), (&[3, 9], 2)];
        assert!(!safe(log(four, 0), log(other_op, 0)), "a different op at seq 4");
        let split: &[(&[u64], u8)] = &[(&[1, 2], 1), (&[3], 2), (&[4], 7)];
        assert!(!safe(log(four, 0), log(split, 0)), "a different digest on slot 2's second op");

        // Truncated inside slot 2 (seqs 4..) and inside slot 3 (seqs 6..):
        // the overlap is 6..=8.
        let eight: &[(&[u64], u8)] = &[(&[1, 2], 1), (&[3, 4], 2), (&[5, 6], 3), (&[7, 8], 4)];
        assert!(safe(log(eight, 3), log(eight, 5)));
        let late: &[(&[u64], u8)] = &[(&[1, 2], 1), (&[3, 4], 2), (&[5, 6], 3), (&[7, 9], 4)];
        assert!(!safe(log(eight, 3), log(late, 5)), "a different op at seq 8");
        let early: &[(&[u64], u8)] = &[(&[1, 2], 1), (&[3, 4], 2), (&[5, 6], 5), (&[7, 8], 4)];
        assert!(!safe(log(eight, 3), log(early, 5)), "a different digest at seq 6");
        let below: &[(&[u64], u8)] = &[(&[1, 2], 1), (&[3, 9], 2), (&[5, 6], 3), (&[7, 8], 4)];
        assert!(safe(log(eight, 3), log(below, 5)), "seq 4 is truncated on one side");
    }
}
