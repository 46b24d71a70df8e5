//! The sans-io plane boundary: protocol cores against pluggable planes.
//!
//! A protocol node ([`ReplicaNode`]) is pure with respect to I/O and time:
//! it consumes [`Input`]s and emits messages and timer requests into an
//! [`Outbox`]. Everything on the other side of that line — message
//! delivery, timer expiry, and the passage of (wall or virtual) time —
//! belongs to a *plane*. This module names the boundary:
//!
//! * [`Clock`] — the plane's time source, in protocol cycles. The
//!   deterministic simulator advances a virtual counter; the TCP plane
//!   (`rsoc_transport`) divides a monotonic wall clock into cycles.
//! * [`Transport`] — the plane's effect sink: after a node handles one
//!   input, the plane persists what the node marked durable, then takes
//!   the outbox and owns delivery of every message and the scheduling of
//!   every armed timer.
//! * [`step_node`] — the one way to drive a node, on every plane: clear
//!   the (reused) outbox, deliver the input, hand the step's durable
//!   events to [`Transport::persist`], and only then hand the effects to
//!   [`Transport::dispatch`]. A failed persist ends the step before
//!   anything leaves: no ack for a commit that is not on disk.
//! * [`ReplyTally`] — the client's side of the same line: when f+1
//!   matching replies are a result. Both planes' clients count with it,
//!   and both hand it the *link* a reply arrived on, never the id the
//!   reply claims.
//!
//! Two planes implement [`Transport`]: the deterministic simulator in
//! [`runner`](crate::runner) (virtual time, latency models, fault
//! injection — the first and reference implementation) and the threaded
//! TCP plane in the `rsoc_transport` crate (real sockets, real time). The
//! protocol cores cannot tell which one is driving them — that is the
//! point: the same `rsoc_bft` cores that pass the scenario oracle serve
//! real request traffic over sockets unchanged.

use crate::api::{Input, Outbox, ReplicaId, ReplicaNode, Reply};
use crate::dense::ReplicaSet;
use crate::durable::DurableEvent;
use std::io;
use std::sync::Arc;

/// A plane's time source, in protocol cycles.
///
/// Cycles are the only unit protocols speak: timeouts, patience windows
/// and flush deadlines are all cycle counts. What a cycle *is* belongs to
/// the plane — the simulator's virtual counter advances event by event,
/// while the TCP plane maps cycles onto a monotonic wall clock at a
/// configurable `ns / cycle` rate.
pub trait Clock {
    /// Current time in cycles (monotone, starts near 0).
    fn now(&self) -> u64;
}

/// The plane side of the sans-io boundary.
///
/// After a node handles one input, the plane first receives the durable
/// events the input produced (if any), then the node's [`Outbox`], and
/// owns everything in it: each `(endpoint, message)` pair must be
/// delivered (or deliberately dropped — loss is the plane's prerogative,
/// and every protocol here tolerates it), and each `(delay, kind, token)`
/// timer must fire back into the node as an [`Input::Timer`] no earlier
/// than `now + delay`.
///
/// Implementations drain `out` and may keep its allocations: the driver
/// reuses one outbox across every delivered event.
pub trait Transport<M> {
    /// Makes `from`'s durable `events` survive a crash before any of the
    /// same step's effects are dispatched. Called only with a non-empty
    /// slice, which only a node whose durability is enabled produces. The
    /// default keeps nothing: a plane without a store never sees an event.
    ///
    /// # Errors
    /// The store failing; the step then dispatches nothing.
    fn persist(&mut self, _from: ReplicaId, _events: &[DurableEvent]) -> io::Result<()> {
        Ok(())
    }

    /// Takes ownership of the effects `from` emitted at cycle `now`.
    fn dispatch(&mut self, from: ReplicaId, out: &mut Outbox<M>, now: u64);
}

// The simulator steps a node once per event: the drain reuses the
// outbox's buffer and allocates nothing.
// lint: hot-path
/// Drives one node through one input: clears the reused outbox, delivers
/// the input, persists the durable events it produced, and only then
/// hands the collected effects to the plane.
///
/// This is the single step every plane shares — having it in one place
/// keeps the clear/deliver/persist/dispatch order (and with it the
/// simulator's byte-identity and the TCP plane's "committed before
/// acked") from drifting between them.
///
/// # Errors
/// [`Transport::persist`] failing. The step returns before dispatching:
/// none of its messages or timers reach the plane (fail-stop).
pub fn step_node<N, P>(
    node: &mut N,
    input: Input<N::Msg>,
    now: u64,
    out: &mut Outbox<N::Msg>,
    plane: &mut P,
) -> io::Result<()>
where
    N: ReplicaNode,
    P: Transport<N::Msg> + ?Sized,
{
    out.clear();
    node.on_input(input, now, out);
    node.drain_durable(&mut out.durable);
    if !out.durable.is_empty() {
        plane.persist(node.id(), &out.durable)?;
    }
    plane.dispatch(node.id(), out, now);
    Ok(())
}
// lint: end

/// One client operation's reply quorum: which links vouched for which
/// result. f+1 matching replies mask f intruded replicas only if each
/// replica is counted once, so a vote belongs to the **link** it arrived
/// on — the simulator's delivering replica, the TCP connection the client
/// dialled itself — and a reply that names another replica is refused:
/// otherwise one intruded replica answers under f+1 ids and is a quorum
/// by itself.
///
/// Distinct results per op are almost always one, so the buckets are a
/// linear-scan list; a vote shares the replica's result buffer and sets
/// one bit. The empty tally (`default()`) allocates nothing.
#[derive(Debug, Default)]
pub struct ReplyTally {
    results: Vec<(Arc<Vec<u8>>, ReplicaSet)>,
}

impl ReplyTally {
    /// Counts `reply`, which arrived on the link to replica `link` of an
    /// `n`-replica cluster. Returns `true` when this vote is the one that
    /// brings its result to `quorum` distinct links. Refused — and never
    /// counted — when the reply claims a replica other than `link` or
    /// `link` is not one of the `n`; a link's repeated vote for a result
    /// counts once.
    pub fn record(&mut self, link: ReplicaId, n: usize, quorum: usize, reply: &Reply) -> bool {
        if reply.replica != link || link.0 as usize >= n {
            return false;
        }
        let at = match self.results.iter().position(|(result, _)| *result == reply.result) {
            Some(at) => at,
            None => {
                self.results.push((Arc::clone(&reply.result), ReplicaSet::new()));
                self.results.len() - 1
            }
        };
        let voters = &mut self.results[at].1;
        voters.insert(link) && voters.len() >= quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ClientId, Endpoint, OpId, Request};
    use crate::checkpoint::LogView;

    /// A node that echoes every message back to its sender, marks each
    /// message durable and arms one timer per input — just enough surface
    /// to exercise the step.
    struct Echo {
        id: ReplicaId,
        inputs: u64,
        durable: Vec<DurableEvent>,
    }

    impl Echo {
        fn new(id: u32) -> Self {
            Echo { id: ReplicaId(id), inputs: 0, durable: Vec::new() }
        }
    }

    impl ReplicaNode for Echo {
        type Msg = u64;

        fn id(&self) -> ReplicaId {
            self.id
        }

        fn on_input(&mut self, input: Input<u64>, _now: u64, out: &mut Outbox<u64>) {
            self.inputs += 1;
            if let Input::Message { from, msg } = input {
                out.send(from, msg + 1);
                self.durable.push(DurableEvent::UsigCounter(msg));
            }
            out.arm(10, 1, self.inputs);
        }

        fn drain_durable(&mut self, out: &mut Vec<DurableEvent>) {
            out.append(&mut self.durable);
        }

        fn committed_log(&self) -> LogView<'_> {
            LogView::default()
        }

        fn make_request(_req: Arc<Request>) -> u64 {
            0
        }

        fn as_reply(_msg: &u64) -> Option<&crate::api::Reply> {
            None
        }

        fn state_digest(&self) -> [u8; 32] {
            [0; 32]
        }

        fn current_view(&self) -> u64 {
            0
        }
    }

    /// A plane that records what it was handed, and in which order; its
    /// store fails while `fail` is set.
    #[derive(Default)]
    struct Recording {
        calls: Vec<&'static str>,
        persisted: Vec<(ReplicaId, Vec<DurableEvent>)>,
        msgs: Vec<(ReplicaId, Endpoint, u64)>,
        timers: Vec<(u64, u32, u64)>,
        fail: bool,
    }

    impl Transport<u64> for Recording {
        fn persist(&mut self, from: ReplicaId, events: &[DurableEvent]) -> io::Result<()> {
            self.calls.push("persist");
            if self.fail {
                return Err(io::Error::other("disk full"));
            }
            self.persisted.push((from, events.to_vec()));
            Ok(())
        }

        fn dispatch(&mut self, from: ReplicaId, out: &mut Outbox<u64>, now: u64) {
            self.calls.push("dispatch");
            for (to, msg) in out.msgs.drain(..) {
                self.msgs.push((from, to, msg));
            }
            for (delay, kind, token) in out.timers.drain(..) {
                self.timers.push((now + delay, kind, token));
            }
        }
    }

    #[test]
    fn step_node_clears_delivers_and_dispatches() {
        let mut node = Echo::new(2);
        let mut plane = Recording::default();
        let mut out = Outbox::new();
        // Pre-soil the outbox: step_node must clear stale effects first.
        out.send(Endpoint::Replica(ReplicaId(9)), 99);
        let from = Endpoint::Replica(ReplicaId(0));
        step_node(&mut node, Input::Message { from, msg: 5 }, 100, &mut out, &mut plane).unwrap();
        step_node(&mut node, Input::Timer { kind: 1, token: 1 }, 110, &mut out, &mut plane)
            .unwrap();
        assert_eq!(plane.msgs, vec![(ReplicaId(2), from, 6)]);
        assert_eq!(plane.timers, vec![(110, 1, 1), (120, 1, 2)]);
        assert!(out.msgs.is_empty() && out.timers.is_empty(), "plane drained the outbox");
    }

    #[test]
    fn step_node_persists_exactly_the_steps_events_before_it_dispatches() {
        let mut node = Echo::new(2);
        let mut plane = Recording::default();
        let mut out = Outbox::new();
        let from = Endpoint::Replica(ReplicaId(0));
        step_node(&mut node, Input::Message { from, msg: 5 }, 100, &mut out, &mut plane).unwrap();
        // A timer marks nothing durable: the plane's store is not called.
        step_node(&mut node, Input::Timer { kind: 1, token: 1 }, 110, &mut out, &mut plane)
            .unwrap();
        step_node(&mut node, Input::Message { from, msg: 7 }, 120, &mut out, &mut plane).unwrap();
        assert_eq!(plane.calls, ["persist", "dispatch", "dispatch", "persist", "dispatch"]);
        let step = |msg| (ReplicaId(2), vec![DurableEvent::UsigCounter(msg)]);
        assert_eq!(plane.persisted, vec![step(5), step(7)]);
    }

    #[test]
    fn a_failed_persist_is_returned_and_dispatches_nothing() {
        let mut node = Echo::new(2);
        let mut plane = Recording { fail: true, ..Recording::default() };
        let mut out = Outbox::new();
        let from = Endpoint::Replica(ReplicaId(0));
        let step = step_node(&mut node, Input::Message { from, msg: 5 }, 100, &mut out, &mut plane);
        assert_eq!(step.unwrap_err().to_string(), "disk full");
        assert_eq!(plane.calls, ["persist"]);
        assert!(plane.msgs.is_empty() && plane.timers.is_empty(), "fail-stop: nothing left");
    }

    fn reply(replica: u32, result: &[u8]) -> Reply {
        Reply {
            replica: ReplicaId(replica),
            op: OpId { client: ClientId(0), seq: 1 },
            result: Arc::new(result.to_vec()),
        }
    }

    #[test]
    fn tally_reaches_quorum_on_distinct_links_with_one_result() {
        let mut tally = ReplyTally::default();
        assert!(!tally.record(ReplicaId(0), 3, 2, &reply(0, b"ok")));
        assert!(!tally.record(ReplicaId(1), 3, 2, &reply(1, b"other")), "results count apart");
        assert!(tally.record(ReplicaId(2), 3, 2, &reply(2, b"ok")));
    }

    #[test]
    fn tally_binds_a_vote_to_its_link() {
        // One link answering as replicas 0 and 1 is one voter, not two.
        let mut tally = ReplyTally::default();
        assert!(!tally.record(ReplicaId(0), 3, 2, &reply(0, b"forged")));
        assert!(!tally.record(ReplicaId(0), 3, 2, &reply(1, b"forged")));
        // A resent reply does not double-count either.
        assert!(!tally.record(ReplicaId(0), 3, 2, &reply(0, b"forged")));
        // An id outside the cluster is refused even on its "own" link.
        assert!(!tally.record(ReplicaId(3), 3, 2, &reply(3, b"forged")));
        assert!(!tally.record(ReplicaId(64), 3, 2, &reply(64, b"forged")));
        // The honest second link still completes the quorum.
        assert!(tally.record(ReplicaId(1), 3, 2, &reply(1, b"forged")));
    }
}
