//! One connection must not be a quorum by itself, in either direction.
//!
//! The client counts a reply as a vote of the *connection* it arrived on,
//! and a replica takes a message only in the name its connection's hello
//! gave: one intruded replica answering as two is one reply vote, and one
//! client connection voting as two replicas casts no vote at all.

use rsoc_bft::api::{Batch, ClientId, Endpoint, OpId, ReplicaId, Reply, Request};
use rsoc_bft::minbft::MinBftMsg;
use rsoc_bft::pbft::PbftMsg;
use rsoc_bft::runner::RunConfig;
use rsoc_bft::{Protocol, ShellMsg};
use rsoc_transport::run::{client, serve};
use rsoc_transport::{
    decode_envelope, encode_envelope, read_frame, write_frame, ClientConfig, Envelope, WallClock,
};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Serves every connection `listener` accepts with `serve`, forever (the
/// threads die with the test process).
fn spawn_listener(listener: TcpListener, serve: fn(TcpStream)) {
    thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            thread::spawn(move || serve(stream));
        }
    });
}

/// Reads and ignores everything.
fn mute(mut stream: TcpStream) {
    while let Ok(Some(_)) = read_frame(&mut stream) {}
}

/// Answers each request as replica 0 *and* as replica 1, same bogus result.
fn liar(mut stream: TcpStream) {
    while let Ok(Some(body)) = read_frame(&mut stream) {
        let Some(Envelope::Msg { msg: MinBftMsg::Request(request), .. }) =
            decode_envelope::<MinBftMsg>(&body)
        else {
            continue;
        };
        let result = Arc::new(b"forged".to_vec());
        for claimed in [0, 1] {
            let replica = ReplicaId(claimed);
            let reply = Reply { replica, op: request.op, result: result.clone() };
            let msg = MinBftMsg::Shell(ShellMsg::Reply(reply));
            let envelope = Envelope::Msg { from: Endpoint::Replica(replica), msg };
            if write_frame(&mut stream, &encode_envelope(&envelope)).is_err() {
                return;
            }
        }
    }
}

/// The listener at index 0 lies: it answers every request twice, as
/// replicas 0 and 1, with a result no state machine produced, while the
/// real replicas 1 and 2 stay mute. Counting the ids the replies claim
/// would hand the client f+1 = 2 matching votes and a forged result; bound
/// to their link they are one vote, and the operation must fail.
#[test]
fn one_link_claiming_two_ids_is_not_a_quorum() {
    let f = 1;
    let mut addrs = Vec::new();
    for serve in [liar, mute, mute] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        addrs.push(listener.local_addr().expect("addr").to_string());
        spawn_listener(listener, serve);
    }
    assert_eq!(addrs.len(), Protocol::MinBft.replicas(f) as usize);

    let config = ClientConfig {
        addrs,
        clients: 1,
        requests_per_client: 1,
        payload_size: 32,
        seed: 7,
        quorum: Protocol::MinBft.reply_quorum(f),
        op_timeout: Duration::from_millis(100),
        max_retries: 2,
        settle_timeout: Duration::from_secs(1),
    };
    let err = client(Protocol::MinBft, &config).expect_err("a forged quorum was accepted");
    assert!(
        err.to_string().contains("no quorum after 2 retransmissions"),
        "failed otherwise: {err}"
    );
}

/// A lone PBFT primary (f = 1, its three peers unreachable) gets one
/// request and then PREPARE and COMMIT votes for it in the names of
/// replicas 1 and 2 — all over one client connection. Taken at their word
/// they are the 2f+1 votes that commit the slot; bound to the connection
/// they are a client speaking for replicas, and nothing commits.
#[test]
fn a_client_connection_cannot_vote_as_replicas() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let unreachable = || {
        let gone = TcpListener::bind("127.0.0.1:0").expect("bind");
        gone.local_addr().expect("addr").to_string()
    };
    let peers = vec![addr.clone(), unreachable(), unreachable(), unreachable()];
    let config = RunConfig { f: 1, clients: 1, requests_per_client: 1, ..RunConfig::default() };
    let replica = thread::spawn(move || {
        let clock = WallClock::new(WallClock::DEFAULT_CYCLE_NS);
        serve(Protocol::Pbft, 0, &config, listener, peers, clock, None).expect("serve")
    });

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let send = |stream: &mut TcpStream, envelope: Envelope<PbftMsg>| {
        write_frame(stream, &encode_envelope(&envelope)).expect("write");
    };
    send(&mut stream, Envelope::HelloClient { ids: vec![0] });
    let request = Arc::new(Request {
        op: OpId { client: ClientId(0), seq: 1 },
        payload: b"SET k forged".to_vec(),
    });
    let digest = Batch::single(request.clone()).digest();
    let msg = PbftMsg::Request(request);
    send(&mut stream, Envelope::Msg { from: Endpoint::Client(ClientId(0)), msg });
    for voter in [ReplicaId(1), ReplicaId(2)] {
        for msg in [
            PbftMsg::Prepare { view: 0, seq: 1, digest },
            PbftMsg::Commit { view: 0, seq: 1, digest },
        ] {
            send(&mut stream, Envelope::Msg { from: Endpoint::Replica(voter), msg });
        }
    }
    // One connection, one ingress channel: the query is answered after
    // every vote was handled.
    send(&mut stream, Envelope::DigestQuery);
    let committed = loop {
        let body = read_frame(&mut stream).expect("read").expect("the replica answers");
        if let Some(Envelope::DigestReply { committed, .. }) = decode_envelope::<PbftMsg>(&body) {
            break committed;
        }
    };
    send(&mut stream, Envelope::Shutdown);
    replica.join().expect("serve thread");
    assert_eq!(committed, 0, "a client connection voted as replicas 1 and 2");
}
