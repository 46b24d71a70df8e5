//! Regression: retry dedup must survive a rejuvenation wipe + CST re-join.
//!
//! The replies a replica keeps for retries are volatile unless they are
//! certified state; before client sessions were snapshotted into the
//! checkpoint image, a wiped replica that re-joined
//! through state transfer lost every reply below the certified watermark.
//! A client retrying one of those ops then got *silence* from the
//! re-joined replica (on a backup the request parks in `pending`
//! forever). These tests pin the fix: after the re-join, the retry of a
//! committed op below the installed watermark must draw the
//! byte-identical reply a never-wiped replica serves, without touching
//! the state machine.
//!
//! The re-join is driven white-box — wipe after the workload completes,
//! then pump the replica-to-replica traffic (state request → certified
//! responses → install) by hand — so the retried op is *guaranteed* to
//! sit at or below the installed watermark. Only the session snapshot
//! inside the checkpoint image can know its reply.

use rsoc_bft::adversary::ReplicaScript;
use rsoc_bft::api::{ClientId, Cluster, Endpoint, Input, OpId, Outbox, ReplicaNode, Request};
use rsoc_bft::minbft::MinBftCluster;
use rsoc_bft::passive::PassiveCluster;
use rsoc_bft::pbft::PbftCluster;
use rsoc_bft::runner::{client_payload, run, RunConfig};
use std::sync::Arc;

/// Checkpoint every 3 executed slots so the final watermark certifies
/// (or nearly certifies) the whole run before the wipe.
fn config(seed: u64) -> RunConfig {
    RunConfig {
        f: 1,
        clients: 4,
        requests_per_client: 12,
        seed,
        checkpoint_interval: 3,
        max_cycles: 20_000_000,
        ..RunConfig::default()
    }
}

type Sends<C> = Vec<(Endpoint, Endpoint, <<C as Cluster>::Node as ReplicaNode>::Msg)>;

/// Delivers one message to replica `id`, returning the reply it emits for
/// `op` (if any) and its outgoing messages (timers are dropped — the run
/// is over, this is a hand-driven exchange).
fn deliver<C: Cluster>(
    cluster: &mut C,
    id: usize,
    from: Endpoint,
    msg: <C::Node as ReplicaNode>::Msg,
    op: OpId,
    now: u64,
) -> (Option<Vec<u8>>, Sends<C>) {
    let mut out = Outbox::new();
    cluster.nodes_mut()[id].on_input(Input::Message { from, msg }, now, &mut out);
    let reply = out.msgs.iter().find_map(|(to, m)| {
        let r = <C::Node as ReplicaNode>::as_reply(m)?;
        (*to == Endpoint::Client(op.client) && r.op == op).then(|| r.result.to_vec())
    });
    let me = Endpoint::Replica(rsoc_bft::ReplicaId(id as u32));
    (reply, out.msgs.into_iter().map(|(to, m)| (me, to, m)).collect())
}

/// Sends the retry of `req` to replica `id` and pumps the resulting
/// replica-to-replica traffic to quiescence (bounded rounds). Returns the
/// reply `id` itself emitted for the retried op, at any point.
fn retry_and_pump<C: Cluster>(cluster: &mut C, id: usize, req: &Arc<Request>) -> Option<Vec<u8>> {
    let op = req.op;
    let msg = <C::Node as ReplicaNode>::make_request(req.clone());
    let mut now = 30_000_000u64;
    let (mut reply, mut inflight) = deliver(cluster, id, Endpoint::Client(op.client), msg, op, now);
    for _ in 0..12 {
        if inflight.is_empty() {
            break;
        }
        now += 100;
        let mut next: Sends<C> = Vec::new();
        for (from, to, m) in std::mem::take(&mut inflight) {
            let Endpoint::Replica(r) = to else { continue };
            let (rep, sends) = deliver(cluster, r.0 as usize, from, m, op, now);
            if r.0 as usize == id && rep.is_some() {
                reply = reply.or(rep);
            }
            next.extend(sends);
        }
        inflight = next;
    }
    reply
}

/// Full workload → wipe the last replica → the retry itself is the
/// traffic that makes it chase the kept stable certificate and re-join
/// through state transfer → the retry must then be answered from the
/// snapshotted sessions, byte-identically to a never-wiped peer.
fn assert_retry_survives_rejoin<C: Cluster>(mut cluster: C, cfg: &RunConfig) {
    let report = run(&mut cluster, cfg);
    let total = cfg.clients as u64 * cfg.requests_per_client;
    assert_eq!(report.committed, total);
    assert!(report.safety_ok);
    let wiped = cluster.nodes().len() - 1;
    let stable = cluster.nodes()[wiped].checkpoint_stats().stable_seq;
    assert!(stable > 0, "a certificate must have stabilised during the run");

    // The latest op of client 0 — the one the session snapshot keeps.
    let seq = cfg.requests_per_client;
    let op = OpId { client: ClientId(0), seq };
    let req = Arc::new(Request { op, payload: client_payload(cfg.seed, 0, seq, cfg.payload_size) });
    let expected = retry_and_pump(&mut cluster, 0, &req)
        .expect("a never-wiped replica answers the retry from its session");

    cluster.nodes_mut()[wiped].wipe();
    let digest_wiped = cluster.nodes()[wiped].state_digest();
    // First retransmission finds the replica freshly wiped and doubles as
    // the traffic that makes it chase its kept stable certificate; the
    // client's next retransmission must then be answered from the
    // installed session snapshot.
    let got = retry_and_pump(&mut cluster, wiped, &req)
        .or_else(|| retry_and_pump(&mut cluster, wiped, &req))
        .expect("the re-joined replica must answer the retry (reply lost across wipe + CST)");
    assert_eq!(got, expected, "retry reply must be byte-identical across the re-join");

    let stats = cluster.nodes()[wiped].checkpoint_stats();
    assert!(stats.transfers >= 1, "re-join must install a state transfer, got {stats:?}");
    assert_ne!(
        cluster.nodes()[wiped].state_digest(),
        digest_wiped,
        "the transfer must restore the application state"
    );
    assert_eq!(
        cluster.nodes()[wiped].state_digest(),
        cluster.nodes()[0].state_digest(),
        "re-joined state must match the cluster"
    );
}

#[test]
fn pbft_retry_survives_rejoin() {
    let cfg = config(61);
    assert_retry_survives_rejoin(PbftCluster::new(&cfg), &cfg);
}

#[test]
fn minbft_retry_survives_rejoin() {
    let cfg = config(63);
    assert_retry_survives_rejoin(MinBftCluster::new(&cfg), &cfg);
}

#[test]
fn passive_retry_survives_rejoin() {
    let cfg = config(65);
    assert_retry_survives_rejoin(PassiveCluster::new(&cfg), &cfg);
}

/// The scenario-driven twin (the F6 rejuvenation cell shape): a wipe in
/// the middle of live load, re-join through state transfer under real
/// interleavings, and the workload still finishes exactly once per op.
#[test]
fn rejuvenation_under_load_stays_exactly_once() {
    use rsoc_bft::adversary::Scenario;
    use rsoc_bft::runner::run_scenario;
    for (seed, wipe_at) in [(61u64, 150u64), (67, 350)] {
        let cfg = config(seed);
        let mut cluster = PbftCluster::new(&cfg);
        let n = cluster.nodes().len() as u32;
        let scenario =
            Scenario::none().script(n - 1, ReplicaScript::correct().rejuvenate_at(wipe_at));
        let outcome = run_scenario(&mut cluster, &cfg, &scenario);
        assert_eq!(outcome.rejuvenations, 1);
        assert_eq!(
            outcome.report.committed,
            cfg.clients as u64 * cfg.requests_per_client,
            "every op commits exactly once around the wipe (seed {seed})"
        );
        assert!(outcome.report.safety_ok);
    }
}
