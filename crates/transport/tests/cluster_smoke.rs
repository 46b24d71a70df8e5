//! In-process cluster smoke: real sockets, real threads, one process.
//!
//! Each replica's serve loop runs on its own thread against an ephemeral
//! localhost port; the cluster client runs on the test thread. The final
//! digest every replica converges to must equal the digest a
//! *simulator* run of the same request log produces — the two-planes,
//! one-core property the sans-io split exists for.

use rsoc_bft::runner::RunConfig;
use rsoc_bft::Protocol;
use rsoc_transport::run::{client, serve};
use rsoc_transport::{simulator_digest, ClientConfig, WallClock};
use std::net::TcpListener;
use std::process::Command;
use std::thread;
use std::time::Duration;

const SEED: u64 = 42;
const CLIENTS: u32 = 2;
const REQUESTS: u64 = 5;
const PAYLOAD: usize = 48;

fn smoke(protocol: Protocol) {
    let f = 1u32;
    let n = protocol.replicas(f) as usize;

    // Bind every listener first so the peer address list is complete
    // before any serve loop starts.
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<String> =
        listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();

    let config = RunConfig::builder().f(f).seed(SEED).build();
    let mut replicas = Vec::new();
    for (id, listener) in listeners.into_iter().enumerate() {
        let peer_addrs = addrs.clone();
        let config = config.clone();
        replicas.push(thread::spawn(move || {
            // 50 µs cycles: timer patience ~75 ms, snappy for a test.
            let clock = WallClock::new(50_000);
            let (report, _) =
                serve(protocol, id as u32, &config, listener, peer_addrs, clock, None)
                    .expect("serve");
            report
        }));
    }

    let client_config = ClientConfig {
        addrs,
        clients: CLIENTS,
        requests_per_client: REQUESTS,
        payload_size: PAYLOAD,
        seed: SEED,
        quorum: protocol.reply_quorum(f),
        op_timeout: Duration::from_millis(1_000),
        max_retries: 10,
        settle_timeout: Duration::from_secs(20),
    };
    let report = client(protocol, &client_config).expect("cluster client");
    assert_eq!(report.committed, u64::from(CLIENTS) * REQUESTS);

    // Every replica exits through Shutdown and reports the same digest
    // the client saw.
    for handle in replicas {
        let serve_report = handle.join().expect("replica thread");
        assert_eq!(serve_report.committed, report.committed, "replica under-committed");
        assert_eq!(serve_report.digest, report.digest, "replica digest diverged");
    }

    // The two-planes property: the TCP cluster's digest equals the
    // simulator's for the same request log.
    let simulated = RunConfig::builder()
        .f(f)
        .clients(CLIENTS)
        .requests_per_client(REQUESTS)
        .payload_size(PAYLOAD)
        .seed(SEED)
        .build();
    let expected = simulator_digest(protocol, &simulated).expect("simulator run");
    assert_eq!(report.digest, expected, "plane digests diverged");
}

#[test]
fn pbft_cluster_over_tcp_matches_the_simulator() {
    smoke(Protocol::Pbft);
}

#[test]
fn minbft_cluster_over_tcp_matches_the_simulator() {
    smoke(Protocol::MinBft);
}

#[test]
fn passive_is_refused_before_any_socket_is_bound() {
    let serve = [env!("CARGO_BIN_EXE_rsoc-serve"), "--protocol", "passive", "--id", "0"];
    let client = [env!("CARGO_BIN_EXE_rsoc-client"), "--protocol", "passive", "--addrs", "x,y"];
    for argv in [&serve[..], &client[..]] {
        let out = Command::new(argv[0]).args(&argv[1..]).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{argv:?} accepted passive");
        assert!(stderr.contains("not served over TCP"), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} bound before refusing: {:?}", out.stdout);
    }
}

/// A vote tally holds 64 replicas, so a PBFT cluster at f = 22 (67
/// replicas) is refused before any socket is bound — as is an `--f` whose
/// `3f+1` overflows `u32`.
#[test]
fn a_cluster_past_64_replicas_is_refused_before_any_socket_is_bound() {
    let serve = env!("CARGO_BIN_EXE_rsoc-serve");
    let client = env!("CARGO_BIN_EXE_rsoc-client");
    let argvs: [&[&str]; 3] = [
        &[serve, "--f", "22"],
        &[serve, "--f", "4294967295"],
        &[client, "--f", "22", "--addrs", "x"],
    ];
    for argv in argvs {
        let out = Command::new(argv[0]).args(&argv[1..]).output().expect("spawn");
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert!(!out.status.success(), "{argv:?} accepted the cluster");
        assert!(!stdout.contains("LISTENING"), "{argv:?} bound before refusing: {stdout}");
        assert!(stderr.contains("at most 64 replicas"), "{argv:?}: {stderr}");
    }
}
