//! Real-transport smoke: a localhost TCP cluster of separate OS
//! processes must commit the full workload and converge to the *same*
//! state digest a simulator run of the identical request log computes.
//!
//! For each protocol (PBFT f=1 → 4 replicas, MinBFT f=1 → 3 replicas):
//!
//! 1. run the deterministic simulator with the exact cluster workload to
//!    obtain the expected digest;
//! 2. spawn one `rsoc-serve` process per replica (ephemeral ports,
//!    collected from their `LISTENING` lines, rendezvoused via a `PEERS`
//!    stdin line);
//! 3. spawn `rsoc-client` with `--expect-digest` — it fails unless every
//!    replica converges to the simulator's digest;
//! 4. check every process exits cleanly.
//!
//! Usage: `transport_smoke [--clients N] [--requests N]` (defaults
//! 4×60 = 240 committed ops per protocol, above the 200-op gate); a bad
//! flag exits 2 before any process starts.

use rsoc_bench::tcp_cluster::{client_command, load_from_args, spawn_replica, workload, Replica};
use rsoc_bft::Protocol;
use rsoc_transport::run::digest_hex;
use rsoc_transport::simulator_digest;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (clients, requests) = load_from_args();
    for &protocol in Protocol::BFT {
        if let Err(e) = smoke(protocol, clients, requests) {
            eprintln!("transport_smoke[{}]: {e}", protocol.name());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn smoke(protocol: Protocol, clients: u32, requests: u64) -> Result<(), String> {
    let cfg = workload(clients, requests, 0);
    let expected = simulator_digest(protocol, &cfg)?;
    let n = protocol.replicas(cfg.f);
    println!(
        "[{}] n={n}, {clients} clients x {requests} ops, expecting digest {}",
        protocol.name(),
        digest_hex(&expected)
    );

    // Phase 1: start every replica and collect its ephemeral address.
    let mut replicas: Vec<Replica> = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    for id in 0..n {
        let (replica, addr) = spawn_replica(protocol, id, &cfg, None, None)?;
        replicas.push(replica);
        addrs.push(addr);
    }

    // Phase 2: rendezvous — every replica learns every address.
    for replica in &mut replicas {
        replica.send_peers(&addrs)?;
    }

    // Phase 3: the external client drives the run and gates on digest.
    let status = client_command(protocol, &cfg, &addrs, &expected)?
        .status()
        .map_err(|e| format!("spawning rsoc-client: {e}"))?;
    let client_failed = !status.success();

    // Phase 4: replicas exit through the client's Shutdown.
    let mut failures = Vec::new();
    if client_failed {
        failures.push("rsoc-client exited nonzero".to_string());
    }
    for (id, replica) in replicas.iter_mut().enumerate() {
        if client_failed {
            // No Shutdown was sent; don't hang on a live serve loop.
            let _ = replica.child.kill();
        }
        match replica.child.wait() {
            Ok(s) if s.success() || client_failed => {}
            Ok(s) => failures.push(format!("replica {id} exited with {s}")),
            Err(e) => failures.push(format!("replica {id} wait: {e}")),
        }
    }
    if failures.is_empty() {
        println!(
            "[{}] ok: {} ops, digest matches the simulator",
            protocol.name(),
            u64::from(clients) * requests
        );
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}
