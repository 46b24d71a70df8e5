//! The external cluster client: issues the deterministic request log
//! over TCP, tallies reply quorums, and checks cross-replica digest
//! convergence.
//!
//! A reply is a vote of the *connection* it was read from: the client
//! dialled `addrs[i]` itself, so whatever arrives there speaks for replica
//! `i` and for no one else, whatever id it claims ([`ReplyTally`]). One
//! intruded replica answering under f+1 ids is still one vote.
//!
//! The workload is *the same request log the simulator issues*:
//! [`client_payload`] is shared with the deterministic harness, so a
//! cluster run over real sockets and a simulator run with the same
//! `(seed, clients, requests, payload_size)` execute identical
//! operations — which is what makes the final state digests comparable
//! across planes.

use crate::frame::{read_frame, write_frame};
use crate::wire::{decode_envelope, encode_envelope, Envelope};
use rsoc_bft::api::{ClientId, Endpoint, OpId, ReplicaId, ReplicaNode, Request};
use rsoc_bft::codec::Wire;
use rsoc_bft::plane::ReplyTally;
use rsoc_bft::runner::client_payload;
use rsoc_sim::LogHistogram;
use std::io;
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long the client keeps redialing a replica that is not up yet.
const DIAL_BUDGET: Duration = Duration::from_secs(30);
/// Delay between dial attempts.
const DIAL_RETRY: Duration = Duration::from_millis(100);
/// Poll interval while waiting for digest convergence.
const SETTLE_POLL: Duration = Duration::from_millis(200);

/// Client-side run parameters.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Replica listen addresses, index = replica id.
    pub addrs: Vec<String>,
    /// Number of logical clients this process issues for.
    pub clients: u32,
    /// Operations per logical client.
    pub requests_per_client: u64,
    /// Request payload size in bytes (see [`client_payload`]).
    pub payload_size: usize,
    /// Workload seed shared with the simulator run being mirrored.
    pub seed: u64,
    /// Matching replies required to accept a result (f+1).
    pub quorum: usize,
    /// Retransmit interval for an unanswered operation.
    pub op_timeout: Duration,
    /// Retransmissions per operation before the run fails.
    pub max_retries: u32,
    /// Budget for all replicas to converge on one digest at the end.
    pub settle_timeout: Duration,
}

/// What a completed cluster run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    /// Operations committed (always `clients * requests_per_client` on
    /// success — the run fails rather than under-commit).
    pub committed: u64,
    /// The digest every replica converged to.
    pub digest: [u8; 32],
    /// Total retransmissions across the run (observability).
    pub retransmits: u64,
    /// Wall-clock per-operation latency percentiles.
    pub latency: LatencySummary,
    /// The full log-bucketed wall-clock latency distribution, in
    /// microseconds — the same mergeable structure the simulator's
    /// open-loop plane records in virtual cycles, so multi-process
    /// client fleets can merge their distributions before taking
    /// percentiles (percentiles themselves do not merge).
    pub latency_hist: LogHistogram,
}

/// Wall-clock latency percentiles over every completed operation
/// (broadcast to reply quorum, retransmissions included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Median, in microseconds.
    pub p50_us: u64,
    /// 99th percentile, in microseconds.
    pub p99_us: u64,
    /// 99.9th percentile, in microseconds.
    pub p999_us: u64,
    /// Largest observed latency, in microseconds (bucket-quantized).
    pub max_us: u64,
}

impl LatencySummary {
    /// Reads the percentiles out of a log-bucketed distribution (empty
    /// → all zeros). Quantiles are nearest-rank over buckets, so a
    /// summary is reproducible from a merged histogram — unlike sorting
    /// raw samples, which a multi-process fleet no longer has.
    fn from_histogram(hist: &LogHistogram) -> Self {
        LatencySummary {
            p50_us: hist.quantile(0.5).unwrap_or(0),
            p99_us: hist.quantile(0.99).unwrap_or(0),
            p999_us: hist.quantile(0.999).unwrap_or(0),
            max_us: hist.max().unwrap_or(0),
        }
    }
}

/// Runs the full closed-loop workload against a live cluster.
///
/// Generic over the protocol node type only for its message wrapping
/// ([`ReplicaNode::make_request`] / [`ReplicaNode::as_reply`]); no node
/// state exists client-side.
pub fn run_cluster_client<N>(config: &ClientConfig) -> io::Result<ClientReport>
where
    N: ReplicaNode,
    N::Msg: Wire + Send + 'static,
{
    let n = config.addrs.len();
    let mut conns = Vec::with_capacity(n);
    let (tx, rx) = channel::<Tagged<N::Msg>>();
    let hello = Arc::new(encode_envelope::<N::Msg>(&Envelope::HelloClient {
        ids: (0..config.clients).collect(),
    }));
    for (link, addr) in config.addrs.iter().enumerate() {
        let stream = dial(addr)?;
        let mut conn = ReplicaConn::<N> {
            link: ReplicaId(link as u32),
            addr: addr.clone(),
            hello: hello.clone(),
            tx: tx.clone(),
            stream: None,
        };
        conn.adopt(stream)?;
        conns.push(conn);
    }

    // Closed-loop issue: one op at a time, round-robin over clients —
    // requests stay maximally spread across batching windows, and the
    // tally below never has to demux concurrent ops.
    let mut retransmits = 0u64;
    let mut latency_hist = LogHistogram::new();
    for seq in 1..=config.requests_per_client {
        for client in 0..config.clients {
            let payload = client_payload(config.seed, client, seq, config.payload_size);
            let op = OpId { client: ClientId(client), seq };
            let request = Arc::new(Request { op, payload });
            let start = Instant::now();
            retransmits += run_one_op::<N>(config, &mut conns, &rx, &request)?;
            latency_hist.record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
    }

    let (committed, digest) = settle::<N>(config, &mut conns, &rx)?;
    let shutdown = encode_envelope::<N::Msg>(&Envelope::Shutdown);
    for conn in &mut conns {
        conn.send(&shutdown);
    }
    Ok(ClientReport {
        committed,
        digest,
        retransmits,
        latency: LatencySummary::from_histogram(&latency_hist),
        latency_hist,
    })
}

/// An envelope and the link it was read from.
type Tagged<M> = (ReplicaId, Envelope<M>);

/// One replica connection that survives the replica dying and coming
/// back: a failed write drops the stream, and the next send redials,
/// replays the hello, and spawns a fresh reader thread. While the
/// replica is down, sends shed — every caller path retransmits or
/// re-polls, so a dead replica costs retries, not the run.
struct ReplicaConn<N: ReplicaNode> {
    /// The replica this connection was dialled to: its index in
    /// [`ClientConfig::addrs`].
    link: ReplicaId,
    addr: String,
    hello: Arc<Vec<u8>>,
    tx: Sender<Tagged<N::Msg>>,
    stream: Option<TcpStream>,
}

impl<N> ReplicaConn<N>
where
    N: ReplicaNode,
    N::Msg: Wire + Send + 'static,
{
    /// Takes ownership of a freshly-dialed stream: sends the hello and
    /// attaches a reader thread feeding the shared channel.
    fn adopt(&mut self, mut stream: TcpStream) -> io::Result<()> {
        write_frame(&mut stream, &self.hello)?;
        let reader = stream.try_clone()?;
        let (link, tx) = (self.link, self.tx.clone());
        thread::spawn(move || reader_loop::<N>(link, reader, &tx));
        self.stream = Some(stream);
        Ok(())
    }

    /// Sends one frame, reconnecting once on failure (a single
    /// non-blocking dial attempt — a dead replica fails fast with
    /// connection-refused and the send is shed).
    fn send(&mut self, body: &[u8]) {
        for _ in 0..2 {
            if self.stream.is_none() {
                let Ok(stream) = TcpStream::connect(&self.addr) else { return };
                stream.set_nodelay(true).ok();
                if self.adopt(stream).is_err() {
                    self.stream = None;
                    return;
                }
            }
            // `adopt` just set the stream; a failed write clears it so
            // the retry (or the next send) redials.
            let Some(stream) = self.stream.as_mut() else { return };
            if write_frame(stream, body).is_ok() {
                return;
            }
            self.stream = None;
        }
    }
}

/// Dials with retry: replicas may still be binding when the client
/// starts.
fn dial(addr: &str) -> io::Result<TcpStream> {
    let deadline = Instant::now() + DIAL_BUDGET;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                return Ok(s);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                thread::sleep(DIAL_RETRY);
            }
        }
    }
}

/// Broadcasts one request and blocks until `quorum` replicas agree on a
/// result, retransmitting on timeout. Returns the retransmission count.
fn run_one_op<N>(
    config: &ClientConfig,
    conns: &mut [ReplicaConn<N>],
    rx: &Receiver<Tagged<N::Msg>>,
    request: &Arc<Request>,
) -> io::Result<u64>
where
    N: ReplicaNode,
    N::Msg: Wire + Send + 'static,
{
    let op = request.op;
    let mut retries = 0u64;
    broadcast::<N>(conns, request);
    let mut deadline = Instant::now() + config.op_timeout;
    let mut tally = ReplyTally::default();
    loop {
        let now = Instant::now();
        if now >= deadline {
            if retries >= u64::from(config.max_retries) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("op {op:?}: no quorum after {retries} retransmissions"),
                ));
            }
            retries += 1;
            broadcast::<N>(conns, request);
            deadline = now + config.op_timeout;
            continue;
        }
        let (link, envelope) = match rx.recv_timeout(deadline - now) {
            Ok(tagged) => tagged,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "all replica readers died"));
            }
        };
        // The envelope's self-declared `from` is ignored: the link is who
        // spoke.
        let Envelope::Msg { from: _, msg } = envelope else { continue };
        let Some(reply) = N::as_reply(&msg) else { continue };
        if reply.op != op {
            continue; // stale reply from an earlier (already decided) op
        }
        if tally.record(link, conns.len(), config.quorum, reply) {
            return Ok(retries);
        }
    }
}

/// Sends the request to every replica (dead ones shed — quorum covers
/// the rest, and the retransmit loop reaches a restarted replica).
fn broadcast<N>(conns: &mut [ReplicaConn<N>], request: &Arc<Request>)
where
    N: ReplicaNode,
    N::Msg: Wire + Send + 'static,
{
    let body = encode_envelope(&Envelope::Msg {
        from: Endpoint::Client(request.op.client),
        msg: N::make_request(request.clone()),
    });
    for conn in conns.iter_mut() {
        conn.send(&body);
    }
}

/// Polls digests until every replica reports the full committed count
/// and all digests agree.
fn settle<N>(
    config: &ClientConfig,
    conns: &mut [ReplicaConn<N>],
    rx: &Receiver<Tagged<N::Msg>>,
) -> io::Result<(u64, [u8; 32])>
where
    N: ReplicaNode,
    N::Msg: Wire + Send + 'static,
{
    let n = conns.len();
    let expected = u64::from(config.clients) * config.requests_per_client;
    let deadline = Instant::now() + config.settle_timeout;
    let query = encode_envelope::<N::Msg>(&Envelope::DigestQuery);
    let mut latest: Vec<Option<(u64, [u8; 32])>> = vec![None; n];
    loop {
        for conn in conns.iter_mut() {
            conn.send(&query);
        }
        let round_end = Instant::now() + SETTLE_POLL;
        loop {
            let now = Instant::now();
            if now >= round_end {
                break;
            }
            match rx.recv_timeout(round_end - now) {
                // A digest speaks for the link it came in on, like a reply.
                Ok((link, Envelope::DigestReply { replica, committed, digest })) => {
                    if replica == link.0 {
                        latest[link.0 as usize] = Some((committed, digest));
                    }
                }
                Ok(_) => {} // late replies from the workload phase
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "all replica readers died",
                    ));
                }
            }
        }
        let done = latest.iter().all(|s| matches!(s, Some((c, _)) if *c >= expected));
        if done {
            let first = latest[0].map(|(_, d)| d).unwrap_or_default();
            if latest.iter().all(|s| matches!(s, Some((_, d)) if *d == first)) {
                return Ok((expected, first));
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("digest settle timed out: {latest:?} (expected committed={expected})"),
            ));
        }
    }
}

/// Decodes frames from the connection to replica `link` into the shared
/// channel, tagged with that link.
fn reader_loop<N>(link: ReplicaId, mut stream: TcpStream, tx: &Sender<Tagged<N::Msg>>)
where
    N: ReplicaNode,
    N::Msg: Wire,
{
    while let Ok(Some(body)) = read_frame(&mut stream) {
        if let Some(env) = decode_envelope::<N::Msg>(&body) {
            if tx.send((link, env)).is_err() {
                return;
            }
        }
    }
}
