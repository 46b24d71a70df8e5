//! External cluster client: issues the deterministic request log against
//! a live `rsoc-serve` cluster, checks digest convergence, and shuts the
//! cluster down.
//!
//! ```text
//! rsoc-client --protocol pbft --f 1 --seed 42 --clients 4 --requests 60 \
//!     --addrs 127.0.0.1:4000,127.0.0.1:4001,127.0.0.1:4002,127.0.0.1:4003 \
//!     --expect-digest <hex from a simulator run of the same log>
//! ```
//!
//! On success prints a `LATENCY p50_us=<n> p99_us=<n> p999_us=<n>
//! max_us=<n> samples=<n>` line (wall-clock request latency percentiles,
//! read from the same log-bucketed histogram the simulator's open-loop
//! plane records in virtual cycles) followed by `CLIENT_DONE
//! committed=<n> digest=<hex> retransmits=<n>`; any quorum failure,
//! divergence, or digest mismatch exits nonzero.

use rsoc_bft::Protocol;
use rsoc_transport::run::{client, cluster_size, digest_hex, parse_digest_hex, parse_protocol};
use rsoc_transport::ClientConfig;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rsoc-client: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut protocol = Protocol::Pbft;
    let mut f = 1u32;
    let mut seed = 42u64;
    let mut clients = 2u32;
    let mut requests = 10u64;
    let mut payload = 64usize;
    let mut addrs: Vec<String> = Vec::new();
    let mut expect_digest: Option<[u8; 32]> = None;
    let mut op_timeout_ms = 2_000u64;
    let mut settle_timeout_ms = 30_000u64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--protocol" => protocol = parse_protocol(value("--protocol")?)?,
            "--f" => f = parse(value("--f")?, "--f")?,
            "--seed" => seed = parse(value("--seed")?, "--seed")?,
            "--clients" => clients = parse(value("--clients")?, "--clients")?,
            "--requests" => requests = parse(value("--requests")?, "--requests")?,
            "--payload" => payload = parse(value("--payload")?, "--payload")?,
            "--addrs" => {
                addrs = value("--addrs")?.split(',').map(str::to_string).collect();
            }
            "--expect-digest" => {
                let v = value("--expect-digest")?;
                expect_digest =
                    Some(parse_digest_hex(v).ok_or_else(|| format!("bad digest hex {v:?}"))?);
            }
            "--op-timeout-ms" => {
                op_timeout_ms = parse(value("--op-timeout-ms")?, "--op-timeout-ms")?
            }
            "--settle-timeout-ms" => {
                settle_timeout_ms = parse(value("--settle-timeout-ms")?, "--settle-timeout-ms")?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    let n = cluster_size(protocol, f)? as usize;
    if addrs.len() != n {
        return Err(format!(
            "--addrs has {} entries, {} cluster needs {n}",
            addrs.len(),
            protocol.name()
        ));
    }

    let config = ClientConfig {
        addrs,
        clients,
        requests_per_client: requests,
        payload_size: payload,
        seed,
        quorum: protocol.reply_quorum(f),
        op_timeout: Duration::from_millis(op_timeout_ms),
        max_retries: 10,
        settle_timeout: Duration::from_millis(settle_timeout_ms),
    };
    let report = client(protocol, &config).map_err(|e| format!("cluster run: {e}"))?;
    if let Some(expected) = expect_digest {
        if report.digest != expected {
            return Err(format!(
                "digest mismatch: cluster {}, expected {}",
                digest_hex(&report.digest),
                digest_hex(&expected)
            ));
        }
    }
    println!(
        "LATENCY p50_us={} p99_us={} p999_us={} max_us={} samples={}",
        report.latency.p50_us,
        report.latency.p99_us,
        report.latency.p999_us,
        report.latency.max_us,
        report.latency_hist.count()
    );
    println!(
        "CLIENT_DONE committed={} digest={} retransmits={}",
        report.committed,
        digest_hex(&report.digest),
        report.retransmits
    );
    Ok(())
}

fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}
