//! The replica side of the real-transport plane: a threaded TCP serve
//! loop driving one sans-io protocol node.
//!
//! Thread layout per replica process:
//!
//! * an **acceptor** thread takes inbound connections (peers and client
//!   processes) and spawns a **reader** thread per connection;
//! * readers decode length-framed envelopes and funnel them into one
//!   mpsc channel — the node loop's single ingress;
//! * the **node loop** (the caller's thread) owns the protocol node and
//!   a [`TcpPlane`], popping due timers and delivering network events
//!   through [`step_node`], the step the simulator takes too. With a
//!   data directory the plane's
//!   [`persist`](rsoc_bft::plane::Transport::persist) writes each step's
//!   durable events before its outbox is dispatched;
//! * a [`PeerPool`] writer thread per peer owns outbound delivery with
//!   reconnect and backoff; client-facing writers are spawned per
//!   client connection.
//!
//! The node loop never touches a socket: protocol code stays sans-io,
//! and every byte entering it went through the total frame + envelope
//! decoders. Every message is bound to the connection it arrived on: a
//! peer connection speaks only as the replica its hello named, a client
//! connection only as the client ids it registered, so the protocols'
//! per-link vote counting holds on real sockets too. (The hello itself is
//! not yet authenticated.)

use crate::clock::WallClock;
use crate::frame::{read_frame, write_frame};
use crate::pool::PeerPool;
use crate::wire::{decode_envelope, encode_envelope, Envelope};
use rsoc_bft::api::{Endpoint, Input, Outbox, ReplicaId, ReplicaNode};
use rsoc_bft::codec::Wire;
use rsoc_bft::durable::DurableEvent;
use rsoc_bft::plane::{step_node, Clock, Transport};
use rsoc_store::DataDir;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::thread;
use std::time::Duration;

/// Queued reply frames per client connection before sends shed.
const CLIENT_QUEUE_DEPTH: usize = 1024;
/// Idle wait when no timer is armed (keeps the loop responsive to a
/// disconnected channel without spinning).
const IDLE_WAIT: Duration = Duration::from_millis(25);

/// One event entering the node loop from the network threads.
enum NetEvent<M> {
    /// A protocol message (from a peer replica or a client process).
    Deliver { from: Endpoint, msg: M },
    /// A client connection announced the ids it owns; replies to them
    /// route over `tx`.
    RegisterClients { ids: Vec<u32>, tx: SyncSender<Vec<u8>> },
    /// A client connection asked for the replica's digest.
    Query { tx: SyncSender<Vec<u8>> },
    /// A client connection ended the run.
    Shutdown,
}

/// The real-transport implementation of the sans-io [`Transport`]
/// boundary: durable events into the replica's [`DataDir`] (when it has
/// one), peers over the [`PeerPool`], clients over their registered
/// connection writers, timers in a local heap the serve loop pops.
pub struct TcpPlane<M> {
    me: ReplicaId,
    store: Option<DataDir>,
    pool: PeerPool,
    clients: HashMap<u32, SyncSender<Vec<u8>>>,
    timers: BinaryHeap<Reverse<(u64, u32, u64)>>,
    _msg: std::marker::PhantomData<fn() -> M>,
}

impl<M: Wire> TcpPlane<M> {
    /// Builds the plane over an already-connected pool, persisting into
    /// `store` when there is one.
    pub fn new(me: ReplicaId, pool: PeerPool, store: Option<DataDir>) -> Self {
        TcpPlane {
            me,
            store,
            pool,
            clients: HashMap::new(),
            timers: BinaryHeap::new(),
            _msg: std::marker::PhantomData,
        }
    }

    /// Routes replies for `ids` over `tx` (last registration wins — a
    /// reconnecting client process re-announces its ids).
    fn register_clients(&mut self, ids: Vec<u32>, tx: SyncSender<Vec<u8>>) {
        for id in ids {
            self.clients.insert(id, tx.clone());
        }
    }

    /// Earliest armed timer deadline, in cycles.
    fn next_timer(&self) -> Option<u64> {
        self.timers.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Pops the earliest timer if it is due at `now`.
    fn pop_due_timer(&mut self, now: u64) -> Option<(u32, u64)> {
        match self.timers.peek() {
            Some(Reverse((at, _, _))) if *at <= now => {
                self.timers.pop().map(|Reverse((_, kind, token))| (kind, token))
            }
            _ => None,
        }
    }
}

impl<M: Wire> Transport<M> for TcpPlane<M> {
    fn persist(&mut self, _from: ReplicaId, events: &[DurableEvent]) -> io::Result<()> {
        match self.store.as_mut() {
            Some(store) => store.persist(events),
            None => Ok(()),
        }
    }

    fn dispatch(&mut self, from: ReplicaId, out: &mut Outbox<M>, now: u64) {
        for (to, msg) in out.msgs.drain(..) {
            let body = encode_envelope(&Envelope::Msg { from: Endpoint::Replica(from), msg });
            match to {
                Endpoint::Replica(r) => {
                    if r != self.me {
                        self.pool.send(r.0 as usize, body);
                    }
                }
                Endpoint::Client(c) => {
                    if let Some(tx) = self.clients.get(&c.0) {
                        // Shedding is safe: clients retransmit on timeout.
                        let _ = tx.try_send(body);
                    }
                }
            }
        }
        for (delay, kind, token) in out.timers.drain(..) {
            self.timers.push(Reverse((now.saturating_add(delay), kind, token)));
        }
    }
}

/// What the serve loop reports after a clean shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// The replica that served.
    pub replica: u32,
    /// Total committed operations at shutdown.
    pub committed: u64,
    /// SHA-256 state-machine digest at shutdown.
    pub digest: [u8; 32],
}

/// Runs one protocol node against real TCP until a client sends
/// [`Envelope::Shutdown`].
///
/// `listener` must already be bound (the caller advertises its address);
/// `peer_addrs[i]` is replica `i`'s listen address — the entry at the
/// node's own index is ignored. The caller's thread becomes the node
/// loop.
///
/// With a `store`, the node runs durable: the caller has already
/// replayed the store's [`RecoveredState`](rsoc_bft::durable) into the
/// node, and every step persists before it dispatches. A failed persist
/// ends the loop with its error (fail-stop beats acking unpersisted
/// state).
pub fn serve<N>(
    mut node: N,
    listener: TcpListener,
    mut peer_addrs: Vec<String>,
    clock: WallClock,
    store: Option<DataDir>,
) -> io::Result<ServeReport>
where
    N: ReplicaNode,
    N::Msg: Wire + Send + 'static,
{
    if store.is_some() {
        node.enable_durability();
    }
    let me = node.id();
    // Never dial ourselves: inbound handles everything addressed to us,
    // and the protocols never self-send anyway.
    if let Some(own) = peer_addrs.get_mut(me.0 as usize) {
        own.clear();
    }
    let hello = encode_envelope::<N::Msg>(&Envelope::HelloReplica(me.0));
    let pool = PeerPool::connect(peer_addrs, hello);
    let mut plane: TcpPlane<N::Msg> = TcpPlane::new(me, pool, store);

    let (tx, rx) = channel::<NetEvent<N::Msg>>();
    spawn_acceptor::<N::Msg>(listener, tx);

    let mut out: Outbox<N::Msg> = Outbox::new();
    loop {
        // Fire everything due before blocking again.
        let now = clock.now();
        while let Some((kind, token)) = plane.pop_due_timer(now) {
            step_node(&mut node, Input::Timer { kind, token }, clock.now(), &mut out, &mut plane)?;
        }
        let wait = match plane.next_timer() {
            Some(at) => clock.cycles_to_duration(at.saturating_sub(clock.now())).min(IDLE_WAIT),
            None => IDLE_WAIT,
        };
        match rx.recv_timeout(wait) {
            Ok(NetEvent::Deliver { from, msg }) => {
                step_node(
                    &mut node,
                    Input::Message { from, msg },
                    clock.now(),
                    &mut out,
                    &mut plane,
                )?;
            }
            Ok(NetEvent::RegisterClients { ids, tx }) => plane.register_clients(ids, tx),
            Ok(NetEvent::Query { tx }) => {
                let reply = Envelope::<N::Msg>::DigestReply {
                    replica: me.0,
                    committed: node.committed_seq(),
                    digest: node.state_digest(),
                };
                let _ = tx.try_send(encode_envelope(&reply));
            }
            Ok(NetEvent::Shutdown) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    Ok(ServeReport { replica: me.0, committed: node.committed_seq(), digest: node.state_digest() })
}

/// Accepts inbound connections forever, one reader thread each. The
/// thread parks on `accept` and dies with the process (or when the
/// listener is closed by the OS); readers outlive a finished serve loop
/// harmlessly — their sends fail and they exit.
fn spawn_acceptor<M: Wire + Send + 'static>(listener: TcpListener, tx: Sender<NetEvent<M>>) {
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            let _ = stream.set_nodelay(true);
            let tx = tx.clone();
            thread::spawn(move || reader_loop::<M>(stream, &tx));
        }
    });
}

/// Reads frames off one inbound connection until EOF or error.
///
/// The first frame must be a hello; it decides whether the connection is
/// a peer replica (messages only) or a client process (messages, digest
/// queries, shutdown — with a writer half for replies), and whom its
/// messages may name as their sender: the replica the hello named, or one
/// of the client ids it registered. A message naming anyone else is
/// dropped, as are malformed bodies: framing stays intact, so one bad body
/// never desyncs the stream.
fn reader_loop<M: Wire + Send>(mut stream: TcpStream, tx: &Sender<NetEvent<M>>) {
    let Ok(Some(first)) = read_frame(&mut stream) else { return };
    match decode_envelope::<M>(&first) {
        Some(Envelope::HelloReplica(id)) => {
            let link = Endpoint::Replica(ReplicaId(id));
            while let Ok(Some(body)) = read_frame(&mut stream) {
                let Some(Envelope::Msg { from, msg }) = decode_envelope::<M>(&body) else {
                    continue;
                };
                if from == link && tx.send(NetEvent::Deliver { from, msg }).is_err() {
                    return;
                }
            }
        }
        Some(Envelope::HelloClient { ids }) => {
            let Ok(write_half) = stream.try_clone() else { return };
            let (wtx, wrx) = sync_channel::<Vec<u8>>(CLIENT_QUEUE_DEPTH);
            thread::spawn(move || client_writer_loop(write_half, &wrx));
            let owned = ids.clone();
            if tx.send(NetEvent::RegisterClients { ids, tx: wtx.clone() }).is_err() {
                return;
            }
            while let Ok(Some(body)) = read_frame(&mut stream) {
                let event = match decode_envelope::<M>(&body) {
                    Some(Envelope::Msg { from: Endpoint::Client(c), msg })
                        if owned.contains(&c.0) =>
                    {
                        NetEvent::Deliver { from: Endpoint::Client(c), msg }
                    }
                    Some(Envelope::DigestQuery) => NetEvent::Query { tx: wtx.clone() },
                    Some(Envelope::Shutdown) => {
                        let _ = tx.send(NetEvent::Shutdown);
                        return;
                    }
                    _ => continue,
                };
                if tx.send(event).is_err() {
                    return;
                }
            }
        }
        _ => {} // not a hello: drop the connection
    }
}

/// Writes queued reply frames to one client connection until it dies or
/// the queue's senders are gone.
fn client_writer_loop(mut stream: TcpStream, rx: &Receiver<Vec<u8>>) {
    while let Ok(body) = rx.recv() {
        if write_frame(&mut stream, &body).is_err() {
            return;
        }
    }
}
