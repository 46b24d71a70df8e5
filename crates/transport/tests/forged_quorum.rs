//! One intruded replica must not be a reply quorum by itself.
//!
//! The client counts a reply as a vote of the *connection* it arrived on.
//! Here the listener at index 0 lies: it answers every request twice, as
//! replicas 0 and 1, with a result no state machine produced, while the
//! real replicas 1 and 2 stay mute. Counting the ids the replies claim
//! would hand the client f+1 = 2 matching votes and a forged result; bound
//! to their link they are one vote, and the operation must fail.

use rsoc_bft::api::{Endpoint, ReplicaId, Reply};
use rsoc_bft::minbft::MinBftMsg;
use rsoc_bft::Protocol;
use rsoc_transport::run::client;
use rsoc_transport::{
    decode_envelope, encode_envelope, read_frame, write_frame, ClientConfig, Envelope,
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
            let envelope =
                Envelope::Msg { from: Endpoint::Replica(replica), msg: MinBftMsg::Reply(reply) };
            if write_frame(&mut stream, &encode_envelope(&envelope)).is_err() {
                return;
            }
        }
    }
}

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
