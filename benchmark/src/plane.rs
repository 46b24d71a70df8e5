//! The benchmark's own plane: a single-threaded [`Transport`] that drives
//! the real-plane code without sockets or threads.
//!
//! In **wire** mode every outbox message goes through
//! `encode_envelope → write_frame →` an in-memory byte queue, delivered
//! [`WIRE_HOP_CYCLES`] virtual cycles later in FIFO order, `→ read_frame →
//! decode_envelope → on_input`; each replica owns a `DataDir`, and
//! `drain_durable → DataDir::persist` runs between `on_input` and
//! `dispatch`, the order `rsoc_transport::node` keeps ("committed before
//! acked"). The client is `rsoc_transport::client` without its sockets: it
//! encodes a request once, frames it to every replica, and tallies f+1
//! matching replies per operation.
//!
//! In **direct** mode messages cross the queue as values — no codec, no
//! frames, no store — which isolates `on_input` for the simulator
//! workloads' trace pass.
//!
//! Because every message takes the same delay, send order is delivery
//! order and one FIFO queue is the whole network. Timers live in a heap.
//! Ties at one instant resolve arrivals, then messages, then timers.

use crate::os::cpu_seconds;
use crate::trace::{Layer, Tracer};
use crate::workloads::{
    minbft_macs, with_node_facts, Load, Outcome, Protocol, Workload, WIRE_HOP_CYCLES,
};
use rsoc_bft::api::{ClientId, Cluster, Endpoint, Input, OpId, Outbox, ReplicaId, ReplicaNode};
use rsoc_bft::codec::{encode_frame, Wire};
use rsoc_bft::harness::{client_payload, RunConfig, Transport};
use rsoc_bft::minbft::MinBftCluster;
use rsoc_bft::passive::PassiveCluster;
use rsoc_bft::pbft::PbftCluster;
use rsoc_bft::{DurableEvent, Request};
use rsoc_sim::{ArrivalGen, KeyPicker, SimRng};
use rsoc_store::{DataDir, WalRecord};
use rsoc_transport::{decode_envelope, encode_envelope, read_frame, write_frame, Envelope};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Consumed prefix of the byte queue beyond which it is compacted.
const WIRE_COMPACT_AT: usize = 1 << 20;
/// Bound on deliveries after the last commit, as in the simulator.
const QUIESCE_LIMIT: u64 = 5_000_000;

/// How messages cross the plane.
#[derive(Debug, Clone)]
pub enum Mode {
    /// As values.
    Direct,
    /// Encoded and framed, with one data directory per replica under
    /// this root.
    WireDurable(PathBuf),
}

/// The requests of one run, generated before the timed phase.
pub struct Traffic {
    /// Closed loop: each client's requests in issue order.
    per_client: Vec<Vec<Arc<Request>>>,
    /// Open loop: `(due cycle, request)` in arrival order.
    schedule: Vec<(u64, Arc<Request>)>,
}

impl Traffic {
    /// Generates the operation set the simulator would issue for the same
    /// `(workload, config)`: payloads from [`client_payload`], and for the
    /// open loop the arrival times and users of `run_open_loop`'s
    /// documented workload streams (`seed ^ 0x0A22_17A1`, forks 0 and 1).
    /// The digest check against a simulator run holds the two together.
    pub fn generate(w: &Workload, config: &RunConfig, ops: u64) -> Self {
        let request = |client: u32, seq: u64| {
            let payload = client_payload(config.seed, client, seq, config.payload_size);
            Arc::new(Request { op: OpId { client: ClientId(client), seq }, payload })
        };
        match w.open_spec(ops) {
            None => Traffic {
                per_client: (0..config.clients)
                    .map(|c| (1..=config.requests_per_client).map(|s| request(c, s)).collect())
                    .collect(),
                schedule: Vec::new(),
            },
            Some(spec) => {
                let rng = SimRng::new(config.seed ^ 0x0A22_17A1);
                let mut arrivals = ArrivalGen::new(spec.arrival, spec.mods.clone(), rng.fork(0));
                let mut pick_rng = rng.fork(1);
                let picker = KeyPicker::new(spec.users);
                let mut next_seq = vec![0u64; picker.keyspace() as usize];
                let schedule = (0..ops)
                    .map(|_| {
                        let due = arrivals.next_arrival();
                        let user = picker.pick(&mut pick_rng);
                        next_seq[user as usize] += 1;
                        (due, request(user, next_seq[user as usize]))
                    })
                    .collect();
                Traffic { per_client: Vec::new(), schedule }
            }
        }
    }

    fn total(&self) -> u64 {
        (self.schedule.len() + self.per_client.iter().map(Vec::len).sum::<usize>()) as u64
    }
}

/// Work counted at the plane's boundaries. Identical for identical inputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub frames: u64,
    /// Frame bytes written, length prefixes included.
    pub bytes: u64,
    pub persist_calls: u64,
    /// Bytes of WAL records appended (counted in the trace pass only).
    pub wal_bytes: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    /// Agreement slots committed by the last replica, and the operations
    /// in them.
    pub batches: u64,
    pub batch_ops: u64,
}

/// What a finished run hands back.
pub struct PlaneRun {
    pub outcome: Outcome,
    pub counts: Counts,
    pub tracer: Tracer,
    /// CPU seconds `DataDir::open` + `recover` took on the finished
    /// directories, summed over replicas (wire mode).
    pub recover_cpu_s: f64,
}

impl PlaneRun {
    /// A simulator run seen as a plane run: no plane-side counts.
    pub fn of_sim(outcome: Outcome) -> Self {
        PlaneRun { outcome, counts: Counts::default(), tracer: Tracer::off(), recover_cpu_s: 0.0 }
    }
}

/// A fully set-up run: cluster built, inputs generated, stores open.
pub trait Prepared {
    /// The timed phase, recording spans into `tracer`.
    fn run(&mut self, tracer: Tracer) -> io::Result<()>;
    /// Reads the outcome off the finished plane and, in wire mode,
    /// reopens every data directory into a fresh replica.
    fn finish(self: Box<Self>) -> io::Result<PlaneRun>;
}

/// Builds everything the timed phase needs and nothing it measures.
pub fn prepare(w: &Workload, seed: u64, ops: u64, mode: &Mode) -> io::Result<Box<dyn Prepared>> {
    let config = w.config(seed, ops);
    match w.protocol {
        Protocol::Pbft => prepare_nodes(w, &config, ops, mode, PbftCluster::new, |_| (0, 0)),
        Protocol::Passive => prepare_nodes(w, &config, ops, mode, PassiveCluster::new, |_| (0, 0)),
        Protocol::MinBft => prepare_nodes(w, &config, ops, mode, MinBftCluster::new, minbft_macs),
    }
}

fn prepare_nodes<C>(
    w: &Workload,
    config: &RunConfig,
    ops: u64,
    mode: &Mode,
    build: fn(&RunConfig) -> C,
    macs: fn(&[C::Node]) -> (u64, u64),
) -> io::Result<Box<dyn Prepared>>
where
    C: Cluster + 'static,
    <C::Node as ReplicaNode>::Msg: Wire,
{
    let traffic = Traffic::generate(w, config, ops);
    let mut cluster = build(config);
    let quorum = cluster.reply_quorum();
    if w.crash_primary {
        // Crash windows are interpreted inside the replica, as under
        // `run_scenario`: a crashed replica ignores its inputs.
        cluster.set_script(ReplicaId(0), w.plane_crash_script());
    }
    let mut nodes = cluster.into_nodes();
    let mut stores = Vec::new();
    if let Mode::WireDurable(root) = mode {
        for i in 0..nodes.len() {
            let (store, state) = DataDir::open(replica_dir(root, i))?;
            if !state.is_empty() {
                return Err(io::Error::other(format!(
                    "{} is not a fresh data root",
                    root.display()
                )));
            }
            stores.push(store);
        }
    }
    // Durable events are drained in both modes: in direct mode only to
    // count the committed batches, which nothing else exposes.
    for node in &mut nodes {
        node.enable_durability();
    }
    let total = traffic.total();
    let plane = Plane {
        net: Net {
            codec: matches!(mode, Mode::WireDurable(_)),
            queue: VecDeque::with_capacity(1024),
            wire: Vec::with_capacity(WIRE_COMPACT_AT),
            wire_off: 0,
            timers: BinaryHeap::new(),
            order: 0,
            arming: true,
            cause: 0,
            msgs_protocol: 0,
            msgs_total: 0,
            counts: Counts::default(),
            tracer: Tracer::off(),
        },
        nodes,
        stores,
        events: Vec::new(),
        record: Vec::new(),
        out: Outbox::new(),
        window: match w.load {
            Load::Closed => w.window,
            Load::Open { .. } => 0,
        },
        next_request: vec![0; traffic.per_client.len()],
        next_arrival: 0,
        traffic,
        pending: HashMap::new(),
        client_timeout: config.client_timeout,
        quorum,
        latencies: Vec::with_capacity(total as usize),
        issued: 0,
        retries: 0,
        now: 0,
    };
    let root = match mode {
        Mode::Direct => None,
        Mode::WireDurable(root) => Some(root.clone()),
    };
    Ok(Box::new(Ready::<C> { plane, macs, root, config: config.clone(), build }))
}

struct Ready<C: Cluster> {
    plane: Plane<C::Node>,
    macs: fn(&[C::Node]) -> (u64, u64),
    root: Option<PathBuf>,
    config: RunConfig,
    build: fn(&RunConfig) -> C,
}

impl<C> Prepared for Ready<C>
where
    C: Cluster,
    <C::Node as ReplicaNode>::Msg: Wire,
{
    fn run(&mut self, tracer: Tracer) -> io::Result<()> {
        self.plane.net.tracer = tracer;
        self.plane.run()
    }

    fn finish(self: Box<Self>) -> io::Result<PlaneRun> {
        let mut run = self.plane.finish(self.macs);
        if let Some(root) = &self.root {
            let t0 = cpu_seconds();
            recover_all((self.build)(&self.config).into_nodes(), root, &run.outcome)?;
            run.recover_cpu_s = cpu_seconds() - t0;
        }
        Ok(run)
    }
}

fn replica_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("replica-{i}"))
}

/// A message on its way: due time, endpoints, the client operation that
/// caused it, and — in direct mode — the value itself (in wire mode the
/// bytes are next in the byte queue).
struct InFlight<M> {
    at: u64,
    from: Endpoint,
    to: Endpoint,
    cause: u64,
    msg: Option<M>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    Replica { replica: u32, kind: u32, token: u64 },
    Client { op: OpId },
}

/// The network half of the plane: what a replica's outbox is handed to.
struct Net<M> {
    codec: bool,
    queue: VecDeque<InFlight<M>>,
    /// The byte queue: frames in delivery order from `wire_off` on.
    wire: Vec<u8>,
    wire_off: usize,
    /// `(due, arming order, timer)`: equal deadlines fire in arming order.
    timers: BinaryHeap<Reverse<(u64, u64, Timer)>>,
    order: u64,
    /// False while quiescing: timers die with the run.
    arming: bool,
    /// The client operation on whose behalf the current event runs.
    cause: u64,
    msgs_protocol: u64,
    msgs_total: u64,
    counts: Counts,
    tracer: Tracer,
}

impl<M: Wire> Net<M> {
    /// Puts one message on the network: encode and frame it in wire mode,
    /// move it in direct mode.
    fn send(&mut self, from: Endpoint, to: Endpoint, msg: M, now: u64) {
        self.msgs_total += 1;
        let msg = if self.codec {
            self.tracer.enter(Layer::Encode, self.cause);
            let body = encode_envelope(&Envelope::Msg { from, msg });
            self.tracer.enter(Layer::FrameWrite, self.cause);
            self.frame(&body);
            self.tracer.leave();
            None
        } else {
            Some(msg)
        };
        self.queue.push_back(InFlight {
            at: now + WIRE_HOP_CYCLES,
            from,
            to,
            cause: self.cause,
            msg,
        });
    }

    fn frame(&mut self, body: &[u8]) {
        write_frame(&mut self.wire, body).expect("a Vec<u8> accepts every write");
        self.counts.frames += 1;
        self.counts.bytes += body.len() as u64 + 4;
    }

    /// Takes the next message off the network, through `read_frame` and
    /// `decode_envelope` in wire mode — where it returns inside the decode
    /// span, for the caller to enter the layer that consumes the message
    /// with the same clock read.
    fn receive(&mut self, m: InFlight<M>) -> io::Result<M> {
        if let Some(msg) = m.msg {
            return Ok(msg);
        }
        self.tracer.enter(Layer::FrameRead, m.cause);
        let mut unread = &self.wire[self.wire_off..];
        let body =
            read_frame(&mut unread)?.ok_or_else(|| io::Error::other("byte queue ran dry"))?;
        self.wire_off = self.wire.len() - unread.len();
        if self.wire_off >= WIRE_COMPACT_AT {
            self.wire.drain(..self.wire_off);
            self.wire_off = 0;
        }
        self.tracer.enter(Layer::Decode, m.cause);
        match decode_envelope::<M>(&body) {
            Some(Envelope::Msg { from, msg }) if from == m.from => Ok(msg),
            _ => Err(io::Error::other("a frame did not decode to the message that was sent")),
        }
    }

    /// Enters a span that exists in wire mode only (see [`Plane::step`]).
    fn wire_enter(&mut self, layer: Layer) {
        if self.codec {
            self.tracer.enter(layer, self.cause);
        }
    }

    fn wire_leave(&mut self) {
        if self.codec {
            self.tracer.leave();
        }
    }

    fn arm(&mut self, at: u64, timer: Timer) {
        if self.arming {
            self.timers.push(Reverse((at, self.order, timer)));
            self.order += 1;
        }
    }
}

impl<M: Wire> Transport<M> for Net<M> {
    fn dispatch(&mut self, from: ReplicaId, out: &mut Outbox<M>, now: u64) {
        for (to, msg) in out.msgs.drain(..) {
            match to {
                // The protocols never self-send; the TCP plane drops it too.
                Endpoint::Replica(r) if r == from => continue,
                Endpoint::Replica(_) => self.msgs_protocol += 1,
                Endpoint::Client(_) => {}
            }
            self.send(Endpoint::Replica(from), to, msg, now);
        }
        for (delay, kind, token) in out.timers.drain(..) {
            self.arm(now.saturating_add(delay), Timer::Replica { replica: from.0, kind, token });
        }
    }
}

/// One operation a client is waiting on: per distinct result, the mask
/// of replicas that returned it.
struct Pending {
    request: Arc<Request>,
    sent_at: u64,
    tallies: Vec<(Arc<Vec<u8>>, u64)>,
}

struct Plane<N: ReplicaNode> {
    net: Net<N::Msg>,
    nodes: Vec<N>,
    /// One per replica in wire mode, empty in direct mode.
    stores: Vec<DataDir>,
    events: Vec<DurableEvent>,
    /// Reused buffer for sizing WAL records.
    record: Vec<u8>,
    out: Outbox<N::Msg>,
    traffic: Traffic,
    /// Requests each closed-loop client keeps outstanding (0: open loop).
    window: usize,
    next_request: Vec<usize>,
    next_arrival: usize,
    pending: HashMap<OpId, Pending>,
    client_timeout: u64,
    quorum: usize,
    latencies: Vec<u64>,
    issued: u64,
    retries: u64,
    now: u64,
}

fn op_key(op: OpId) -> u64 {
    u64::from(op.client.0) << 32 | (op.seq & 0xFFFF_FFFF)
}

impl<N> Plane<N>
where
    N: ReplicaNode,
    N::Msg: Wire,
{
    /// The timed phase: every request issued, committed and acknowledged,
    /// then the messages still in flight delivered.
    fn run(&mut self) -> io::Result<()> {
        self.net.tracer.start();
        for client in 0..self.traffic.per_client.len() {
            for _ in 0..self.window {
                self.issue_next(client);
            }
        }
        let total = self.traffic.total();
        while (self.latencies.len() as u64) < total {
            let arrival = self.traffic.schedule.get(self.next_arrival).map(|a| a.0);
            let message = self.net.queue.front().map(|m| m.at);
            let timer = self.net.timers.peek().map(|Reverse((at, _, _))| *at);
            let Some(at) = [arrival, message, timer].into_iter().flatten().min() else {
                return Err(io::Error::other(
                    "the plane went idle before every operation committed",
                ));
            };
            self.now = at;
            if arrival == Some(at) {
                let request = self.traffic.schedule[self.next_arrival].1.clone();
                self.next_arrival += 1;
                self.issue(request);
            } else if message == Some(at) {
                let m = self.net.queue.pop_front().expect("peeked");
                self.deliver(m)?;
            } else {
                let Reverse((_, _, timer)) = self.net.timers.pop().expect("peeked");
                self.fire(timer)?;
            }
        }
        // Quiesce, as the simulator does: what is already in flight still
        // arrives (the last commit round, a checkpoint exchange), and the
        // cascades it triggers; timers are dropped.
        self.net.arming = false;
        self.net.timers.clear();
        let mut drained = 0;
        while let Some(m) = self.net.queue.pop_front() {
            drained += 1;
            if drained > QUIESCE_LIMIT {
                return Err(io::Error::other("the plane did not quiesce"));
            }
            self.now = m.at;
            self.deliver(m)?;
        }
        self.net.tracer.stop();
        Ok(())
    }

    fn issue_next(&mut self, client: usize) {
        if let Some(request) = self.traffic.per_client[client].get(self.next_request[client]) {
            self.next_request[client] += 1;
            self.issue(request.clone());
        }
    }

    /// A client sends `request` to every replica and arms its
    /// retransmission timer.
    fn issue(&mut self, request: Arc<Request>) {
        let op = request.op;
        self.issued += 1;
        self.pending.insert(
            op,
            Pending { request: request.clone(), sent_at: self.now, tallies: Vec::new() },
        );
        self.broadcast(&request);
        self.net.arm(self.now + self.client_timeout, Timer::Client { op });
    }

    /// As `rsoc_transport::client::broadcast`: encode once, frame to each.
    fn broadcast(&mut self, request: &Arc<Request>) {
        let (cause, from) = (op_key(request.op), Endpoint::Client(request.op.client));
        let net = &mut self.net;
        net.cause = cause;
        let body = net.codec.then(|| {
            net.tracer.enter(Layer::ClientIssue, cause);
            let msg = N::make_request(request.clone());
            net.tracer.enter(Layer::Encode, cause);
            let body = encode_envelope(&Envelope::Msg { from, msg });
            net.tracer.enter(Layer::FrameWrite, cause);
            body
        });
        for i in 0..self.nodes.len() as u32 {
            let msg = match &body {
                Some(body) => {
                    net.frame(body);
                    None
                }
                None => Some(N::make_request(request.clone())),
            };
            net.msgs_total += 1;
            let (at, to) = (self.now + WIRE_HOP_CYCLES, Endpoint::Replica(ReplicaId(i)));
            net.queue.push_back(InFlight { at, from, to, cause, msg });
        }
        net.wire_leave();
    }

    fn deliver(&mut self, m: InFlight<N::Msg>) -> io::Result<()> {
        let (from, to) = (m.from, m.to);
        self.net.cause = m.cause;
        match to {
            Endpoint::Replica(r) => {
                let msg = self.net.receive(m)?;
                let layer = match from {
                    Endpoint::Client(_) => Layer::OnInputClient,
                    Endpoint::Replica(_) => Layer::OnInputPeer,
                };
                self.step(r.0 as usize, Input::Message { from, msg }, layer)?;
            }
            Endpoint::Client(c) => {
                let msg = self.net.receive(m)?;
                self.net.wire_enter(Layer::ClientTally);
                let committed = N::as_reply(&msg).and_then(|reply| self.tally(c, reply));
                self.net.wire_leave();
                if let Some(client) = committed {
                    if self.window > 0 {
                        self.issue_next(client.0 as usize);
                    }
                }
            }
        }
        Ok(())
    }

    /// Counts one reply; returns the client when this one completes its
    /// operation's quorum.
    fn tally(&mut self, to: ClientId, reply: &rsoc_bft::Reply) -> Option<ClientId> {
        if reply.op.client != to {
            return None;
        }
        let op = self.pending.get_mut(&reply.op)?;
        let voters = match op.tallies.iter_mut().find(|(result, _)| *result == reply.result) {
            Some((_, voters)) => voters,
            None => {
                op.tallies.push((reply.result.clone(), 0));
                &mut op.tallies.last_mut().expect("just pushed").1
            }
        };
        *voters |= 1u64 << (reply.replica.0 & 63);
        if (voters.count_ones() as usize) < self.quorum {
            return None;
        }
        self.latencies.push(self.now - op.sent_at);
        self.pending.remove(&reply.op);
        Some(to)
    }

    fn fire(&mut self, timer: Timer) -> io::Result<()> {
        match timer {
            Timer::Replica { replica, kind, token } => {
                self.net.cause = 0;
                self.step(replica as usize, Input::Timer { kind, token }, Layer::OnInputTimer)?;
            }
            Timer::Client { op } => {
                if let Some(p) = self.pending.get(&op) {
                    self.retries += 1;
                    let request = p.request.clone();
                    self.broadcast(&request);
                    self.net.arm(self.now + self.client_timeout, Timer::Client { op });
                }
            }
        }
        Ok(())
    }

    /// One replica step in the durable order: deliver the input, persist
    /// what the core marked durable, then hand the outbox to the network.
    ///
    /// In direct mode only `on_input` gets a span: there the drain merely
    /// counts batches, and a span would cost more than it wraps. Whatever
    /// no span covers is the harness's own time, which the root collects.
    fn step(&mut self, r: usize, input: Input<N::Msg>, layer: Layer) -> io::Result<()> {
        let cause = self.net.cause;
        let node = &mut self.nodes[r];
        self.net.tracer.enter(layer, cause);
        self.out.clear();
        node.on_input(input, self.now, &mut self.out);
        self.net.tracer.leave();
        self.net.wire_enter(Layer::Drain);
        self.events.clear();
        node.drain_durable(&mut self.events);
        self.net.wire_leave();
        if !self.events.is_empty() {
            self.count_events(r);
            if let Some(store) = self.stores.get_mut(r) {
                let stable = self.events.iter().any(|e| matches!(e, DurableEvent::Stable { .. }));
                let layer = if stable { Layer::PersistStable } else { Layer::PersistCommit };
                self.net.tracer.enter(layer, cause);
                store.persist(&self.events)?;
                self.net.tracer.leave();
                self.net.counts.persist_calls += 1;
            }
        }
        self.net.dispatch(ReplicaId(r as u32), &mut self.out, self.now);
        Ok(())
    }

    fn count_events(&mut self, r: usize) {
        let last = r + 1 == self.nodes.len();
        let counts = &mut self.net.counts;
        for event in &self.events {
            match event {
                DurableEvent::Commit { seq, batch } => {
                    if last {
                        counts.batches += 1;
                        counts.batch_ops += batch.len() as u64;
                    }
                    // The record the store appends, re-encoded with the
                    // store's own type: exact bytes, and only in the trace
                    // pass, where this harness time is accounted for.
                    if self.net.tracer.is_on() && !self.stores.is_empty() {
                        self.record.clear();
                        let record = WalRecord::Commit { seq: *seq, batch: batch.clone() };
                        encode_frame(&record, &mut self.record);
                        // `len | crc | payload`, as `rsoc_store` frames it.
                        counts.wal_bytes += self.record.len() as u64 + 8;
                    }
                }
                DurableEvent::Stable { snapshot, .. } => {
                    if !self.stores.is_empty() {
                        counts.snapshots += 1;
                        counts.snapshot_bytes += snapshot.len() as u64;
                    }
                }
                DurableEvent::UsigCounter(_) => {}
            }
        }
    }

    /// Reads the outcome off the finished plane and closes the stores.
    fn finish(mut self, macs: fn(&[N]) -> (u64, u64)) -> PlaneRun {
        self.latencies.sort_unstable();
        let rank = |q: f64| {
            let n = self.latencies.len();
            let i = ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1;
            self.latencies.get(i).copied().unwrap_or(0)
        };
        let outcome = Outcome {
            issued: self.issued,
            committed: self.latencies.len() as u64,
            duration_cycles: self.now,
            p50_cycles: rank(0.5),
            p99_cycles: rank(0.99),
            worst_cycles: rank(1.0),
            latency_samples: self.latencies.len() as u64,
            client_retries: self.retries,
            // Every replica holds one digest, checked by the caller; the
            // simulator's log-prefix checker needs a `Cluster`.
            safety_ok: true,
            msgs_protocol: self.net.msgs_protocol,
            msgs_total: self.net.msgs_total,
            macs: macs(&self.nodes),
            ..Outcome::default()
        };
        let outcome = with_node_facts(outcome, &self.nodes);
        PlaneRun { outcome, counts: self.net.counts, tracer: self.net.tracer, recover_cpu_s: 0.0 }
    }
}

/// Reopens each finished data directory into a fresh replica: the store
/// must replay a non-empty state, `recover` must accept it, and the
/// recovered replica must stand where the live one stopped.
fn recover_all<N: ReplicaNode>(fresh: Vec<N>, root: &Path, live: &Outcome) -> io::Result<()> {
    for (i, mut node) in fresh.into_iter().enumerate() {
        let (_store, state) = DataDir::open(replica_dir(root, i))?;
        if state.is_empty() {
            return Err(io::Error::other(format!("replica {i}: data directory replayed nothing")));
        }
        let snapshot_seq = state.snapshot.as_ref().map(|(cert, _, _)| cert.seq);
        let report = node.recover(state);
        let accepted = report.committed == live.committed_seqs[i]
            && snapshot_seq.is_none_or(|seq| report.installed_seq == seq)
            && node.state_digest() == live.digests[i];
        if !accepted {
            return Err(io::Error::other(format!(
                "replica {i}: recovery diverged from the live replica ({report:?}, live committed {})",
                live.committed_seqs[i]
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{sim_once, WORKLOADS};

    /// A short run of every workload on the direct plane, and of the wire
    /// workload on the wire plane, must commit everything and leave every
    /// replica on the simulator's digest for the same operation set.
    #[test]
    fn planes_reach_the_simulators_digest() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("test-data");
        for w in &WORKLOADS {
            // Long enough for the fault workload's crash window to open
            // and close on the plane.
            let ops = w.ops_for(if w.crash_primary { 12 } else { 1 });
            let sim = sim_once(w, 11, ops);
            let mut modes = vec![Mode::Direct];
            if w.plane == crate::workloads::Plane::WireDurable {
                modes.push(Mode::WireDurable(root.clone()));
            }
            for mode in modes {
                let mut prepared = prepare(w, 11, ops, &mode).expect("prepare");
                prepared.run(Tracer::on()).expect("run");
                let run = prepared.finish().expect("finish and recover");
                let o = &run.outcome;
                assert_eq!((o.issued, o.committed), (ops, ops), "{} {mode:?}", w.name);
                assert!(o.digests.iter().all(|d| *d == sim.digests[0]), "{} {mode:?}", w.name);
                assert_eq!(o.view_changes > 0, w.crash_primary, "{} {mode:?}", w.name);
                assert_eq!(run.counts.batch_ops, ops, "{} {mode:?}", w.name);
                assert!(run.tracer.total_us() > 0.0);
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
