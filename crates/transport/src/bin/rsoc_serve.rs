//! One replica of a real-TCP cluster.
//!
//! Two-phase ephemeral-port rendezvous (no fixed ports, so parallel CI
//! runs never collide):
//!
//! 1. the process binds `127.0.0.1:0`, prints `LISTENING <addr>` on
//!    stdout, and waits;
//! 2. the launcher collects every replica's address and writes one
//!    `PEERS <addr0> <addr1> ...` line to each process's stdin;
//! 3. the serve loop runs until a client sends `Shutdown`, then the
//!    process prints `DONE replica=<id> committed=<n> digest=<hex>`
//!    (preceded by a `RECOVERED installed=<seq> replayed=<n>
//!    committed=<n>` line when `--data-dir` replayed prior state).
//!
//! ```text
//! rsoc-serve --protocol pbft --id 0 --f 1 --seed 42
//! ```
//!
//! `--data-dir DIR` makes the replica durable (WAL + snapshots via
//! `rsoc_store`, persisted before acks). `--listen ADDR` binds a fixed
//! address with `SO_REUSEADDR` instead of an ephemeral port — a
//! restarted replica reclaims the address its peers already hold.

use rsoc_bft::runner::RunConfig;
use rsoc_bft::Protocol;
use rsoc_transport::run::{cluster_size, digest_hex, parse_protocol, serve};
use rsoc_transport::{bind_reuseaddr, WallClock};
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rsoc-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut protocol = Protocol::Pbft;
    let mut id = 0u32;
    let mut f = 1u32;
    let mut seed = 42u64;
    let mut cycle_ns = WallClock::DEFAULT_CYCLE_NS;
    let mut checkpoint_interval = 0u64;
    let mut data_dir: Option<PathBuf> = None;
    let mut listen: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--protocol" => protocol = parse_protocol(value("--protocol")?)?,
            "--id" => id = parse(value("--id")?, "--id")?,
            "--f" => f = parse(value("--f")?, "--f")?,
            "--seed" => seed = parse(value("--seed")?, "--seed")?,
            "--cycle-ns" => cycle_ns = parse(value("--cycle-ns")?, "--cycle-ns")?,
            "--checkpoint-interval" => {
                checkpoint_interval =
                    parse(value("--checkpoint-interval")?, "--checkpoint-interval")?;
            }
            "--data-dir" => data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--listen" => listen = Some(value("--listen")?.to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    let n = cluster_size(protocol, f)?;
    if id >= n {
        return Err(format!("--id {id} out of range for n={n}"));
    }

    // A restarted replica rebinds its advertised address (through
    // TIME_WAIT, hence SO_REUSEADDR); a fresh one takes an ephemeral
    // port for collision-free parallel runs.
    let listener = match &listen {
        Some(addr) => bind_reuseaddr(addr).map_err(|e| format!("bind {addr}: {e}"))?,
        None => TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind 127.0.0.1:0: {e}"))?,
    };
    let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    println!("LISTENING {addr}");
    std::io::stdout().flush().ok();

    let peers = read_peers(n as usize)?;

    let config =
        RunConfig::builder().f(f).seed(seed).checkpoint_interval(checkpoint_interval).build();
    let clock = WallClock::new(cycle_ns);
    let (report, recovery) =
        serve(protocol, id, &config, listener, peers, clock, data_dir.as_deref())
            .map_err(|e| format!("serve: {e}"))?;
    if let Some(r) = recovery {
        println!(
            "RECOVERED installed={} replayed={} committed={}",
            r.installed_seq, r.replayed, r.committed
        );
    }
    println!(
        "DONE replica={} committed={} digest={}",
        report.replica,
        report.committed,
        digest_hex(&report.digest)
    );
    Ok(())
}

/// Reads the `PEERS <addr> ...` rendezvous line from stdin.
fn read_peers(n: usize) -> Result<Vec<String>, String> {
    let stdin = std::io::stdin();
    let mut line = String::new();
    stdin.lock().read_line(&mut line).map_err(|e| format!("reading PEERS line from stdin: {e}"))?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some("PEERS") {
        return Err(format!("expected 'PEERS <addr> ...' on stdin, got {line:?}"));
    }
    let peers: Vec<String> = parts.map(str::to_string).collect();
    if peers.len() != n {
        return Err(format!("PEERS line has {} addresses, cluster needs {n}", peers.len()));
    }
    Ok(peers)
}

fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}
