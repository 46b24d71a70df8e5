//! Process-level chaos: SIGKILL a durable replica mid-commit, mutate its
//! WAL tail, restart it on the same address, and require the cluster to
//! re-converge to the exact simulator digest.
//!
//! For each protocol (PBFT f=1 → 4 replicas, MinBFT f=1 → 3 replicas)
//! and each WAL variant:
//!
//! * `clean`   — the kill alone; recovery replays the WAL as written;
//! * `torn`    — the last WAL segment loses its final bytes, the torn
//!   record must be truncated away on open;
//! * `corrupt` — the last WAL segment's final byte is flipped, the
//!   garbage record must fail its CRC and end replay at the longest
//!   valid prefix;
//!
//! the driver:
//!
//! 1. runs the deterministic simulator with the identical workload to
//!    obtain the expected digest;
//! 2. spawns one `rsoc-serve --data-dir --checkpoint-interval 8` per
//!    replica (ephemeral ports, `PEERS` rendezvous);
//! 3. starts `rsoc-client --expect-digest` and, while it is issuing,
//!    waits for the victim backup's WAL to grow, then SIGKILLs it
//!    mid-commit;
//! 4. applies the variant's WAL mutation and restarts the victim with
//!    `--listen <same addr>` and the same data directory — it must print
//!    a `RECOVERED` line (disk replay) and close the remaining gap via
//!    state transfer from its peers;
//! 5. requires the client to succeed (every replica settled on the
//!    simulator digest) and every surviving process — including the
//!    restarted victim — to exit cleanly reporting that digest.
//!
//! Usage: `f7_chaos [--clients N] [--requests N]` (defaults 4×60 = 240
//! committed ops per cell); a bad flag exits 2 before any process starts.

use rsoc_bench::tcp_cluster::{client_command, load_from_args, spawn_replica, workload, Replica};
use rsoc_bft::Protocol;
use rsoc_transport::run::digest_hex;
use rsoc_transport::simulator_digest;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const CHECKPOINT_INTERVAL: u64 = 8;
/// Replica to kill: a backup in view 0 for both protocols, so the
/// cluster keeps committing through the outage.
const VICTIM: u32 = 2;
/// Kill once this many WAL bytes are durable — a few committed batches,
/// so every variant's mutation still leaves a valid prefix. Snapshot GC
/// caps the live WAL near one checkpoint interval of records, so the
/// threshold must sit well below that ceiling (and the kill then lands
/// early, while the client still has most of the workload to issue).
const KILL_WAL_BYTES: u64 = 400;

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Clean,
    Torn,
    Corrupt,
}

impl Variant {
    const ALL: [Variant; 3] = [Variant::Clean, Variant::Torn, Variant::Corrupt];

    fn name(self) -> &'static str {
        match self {
            Variant::Clean => "clean",
            Variant::Torn => "torn",
            Variant::Corrupt => "corrupt",
        }
    }
}

fn main() -> ExitCode {
    let (clients, requests) = load_from_args();
    for &protocol in Protocol::BFT {
        for variant in Variant::ALL {
            if let Err(e) = chaos(protocol, variant, clients, requests) {
                eprintln!("f7_chaos[{}/{}]: {e}", protocol.name(), variant.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Total durable WAL bytes under `dir` (0 while the dir is still empty).
fn wal_bytes(dir: &Path) -> u64 {
    let Ok(segs) = rsoc_store::wal_segments(dir) else { return 0 };
    segs.iter().filter_map(|p| fs::metadata(p).ok()).map(|m| m.len()).sum()
}

/// The newest WAL segment that actually holds records.
fn last_nonempty_segment(dir: &Path) -> Result<PathBuf, String> {
    rsoc_store::wal_segments(dir)
        .map_err(|e| format!("listing WAL segments: {e}"))?
        .into_iter()
        .rev()
        .find(|p| fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
        .ok_or_else(|| "no non-empty WAL segment to mutate".to_string())
}

/// Applies the variant's damage to the victim's WAL tail.
fn mutate_wal(dir: &Path, variant: Variant) -> Result<(), String> {
    match variant {
        Variant::Clean => Ok(()),
        Variant::Torn => {
            // Chop a few bytes off the tail — a record now ends mid-CRC
            // or mid-payload, exactly what a crash during a page-cache
            // flush leaves behind.
            let seg = last_nonempty_segment(dir)?;
            let len = fs::metadata(&seg).map_err(|e| format!("stat {}: {e}", seg.display()))?.len();
            let file = fs::OpenOptions::new()
                .write(true)
                .open(&seg)
                .map_err(|e| format!("open {}: {e}", seg.display()))?;
            file.set_len(len.saturating_sub(3))
                .map_err(|e| format!("truncate {}: {e}", seg.display()))?;
            Ok(())
        }
        Variant::Corrupt => {
            // Flip the final byte — the last record's CRC no longer
            // matches, so replay must reject it (not panic, not apply).
            let seg = last_nonempty_segment(dir)?;
            let mut file = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&seg)
                .map_err(|e| format!("open {}: {e}", seg.display()))?;
            let len = file.metadata().map_err(|e| format!("stat: {e}"))?.len();
            let mut byte = [0u8; 1];
            file.seek(SeekFrom::Start(len - 1)).map_err(|e| format!("seek: {e}"))?;
            file.read_exact(&mut byte).map_err(|e| format!("read tail byte: {e}"))?;
            byte[0] ^= 0xFF;
            file.seek(SeekFrom::Start(len - 1)).map_err(|e| format!("seek: {e}"))?;
            file.write_all(&byte).map_err(|e| format!("write tail byte: {e}"))?;
            Ok(())
        }
    }
}

fn chaos(protocol: Protocol, variant: Variant, clients: u32, requests: u64) -> Result<(), String> {
    let cfg = workload(clients, requests, CHECKPOINT_INTERVAL);
    let expected = simulator_digest(protocol, &cfg)?;
    let n = protocol.replicas(cfg.f);
    println!(
        "[{}/{}] n={n}, {clients} clients x {requests} ops, expecting digest {}",
        protocol.name(),
        variant.name(),
        digest_hex(&expected)
    );

    // Fresh per-cell data directories.
    let root = std::env::temp_dir().join(format!(
        "rsoc-chaos-{}-{}-{}",
        std::process::id(),
        protocol.name(),
        variant.name()
    ));
    let _ = fs::remove_dir_all(&root);
    let data_dir = |id: u32| root.join(format!("replica-{id}"));

    // Phase 1: start every replica durable, collect addresses.
    let mut replicas: Vec<Replica> = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    for id in 0..n {
        let (replica, addr) = spawn_replica(protocol, id, &cfg, Some(&data_dir(id)), None)?;
        replicas.push(replica);
        addrs.push(addr);
    }
    for replica in &mut replicas {
        replica.send_peers(&addrs)?;
    }

    // Phase 2: the client starts issuing the workload in the background.
    let mut client = client_command(protocol, &cfg, &addrs, &expected)?
        .args(["--settle-timeout-ms", "60000"])
        .spawn()
        .map_err(|e| format!("spawning rsoc-client: {e}"))?;

    // Phase 3: wait for the victim's WAL to take commits, then SIGKILL
    // it mid-run. The threshold guarantees the mutation below damages at
    // most the final record of a multi-record log.
    let victim_dir = data_dir(VICTIM);
    let deadline = Instant::now() + Duration::from_secs(30);
    while wal_bytes(&victim_dir) < KILL_WAL_BYTES {
        if Instant::now() > deadline {
            let _ = client.kill();
            for r in &mut replicas {
                let _ = r.child.kill();
            }
            return Err(format!(
                "victim WAL never reached {KILL_WAL_BYTES} bytes (has {})",
                wal_bytes(&victim_dir)
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut victim = replicas.remove(VICTIM as usize);
    victim.child.kill().map_err(|e| format!("SIGKILL victim: {e}"))?;
    victim.child.wait().map_err(|e| format!("reaping victim: {e}"))?;
    drop(victim);
    println!(
        "[{}/{}] killed replica {VICTIM} at {} WAL bytes",
        protocol.name(),
        variant.name(),
        wal_bytes(&victim_dir)
    );

    // Phase 4: damage the WAL tail per the variant, restart the victim
    // on its original address, and re-run the rendezvous for it.
    mutate_wal(&victim_dir, variant)?;
    let victim_addr = addrs[VICTIM as usize].as_str();
    let (mut restarted, addr) =
        spawn_replica(protocol, VICTIM, &cfg, Some(&victim_dir), Some(victim_addr))?;
    if addr != victim_addr {
        return Err(format!("restarted victim bound {addr}, wanted {victim_addr}"));
    }
    restarted.send_peers(&addrs)?;
    replicas.insert(VICTIM as usize, restarted);

    // Phase 5: the client must finish — its --expect-digest settle gate
    // only passes once every replica (victim included) reports the
    // simulator digest.
    let status = client.wait().map_err(|e| format!("waiting for client: {e}"))?;
    let client_failed = !status.success();

    let mut failures = Vec::new();
    if client_failed {
        failures.push("rsoc-client exited nonzero".to_string());
    }
    let mut recovered_line = None;
    for (idx, replica) in replicas.into_iter().enumerate() {
        let Replica { mut child, mut reader } = replica;
        if client_failed {
            let _ = child.kill();
        }
        match child.wait() {
            Ok(s) if s.success() || client_failed => {}
            Ok(s) => failures.push(format!("replica {idx} exited with {s}")),
            Err(e) => failures.push(format!("replica {idx} wait: {e}")),
        }
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        for line in rest.lines() {
            if idx == VICTIM as usize && line.starts_with("RECOVERED ") {
                recovered_line = Some(line.to_string());
            }
            if let Some(done) = line.strip_prefix("DONE ") {
                if !done.contains(&format!("digest={}", digest_hex(&expected))) {
                    failures.push(format!("replica {idx} DONE digest diverged: {done}"));
                }
            }
        }
    }

    // The restarted victim must have replayed durable state from disk,
    // not just joined empty.
    match &recovered_line {
        Some(line) => {
            let committed = line
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("committed="))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            if committed == 0 {
                failures.push(format!("victim recovered nothing from its WAL: {line}"));
            } else {
                println!("[{}/{}] victim {line}", protocol.name(), variant.name());
            }
        }
        None => failures.push("restarted victim printed no RECOVERED line".to_string()),
    }

    let _ = fs::remove_dir_all(&root);
    if failures.is_empty() {
        println!(
            "[{}/{}] ok: {} ops, cluster re-converged to the simulator digest",
            protocol.name(),
            variant.name(),
            u64::from(clients) * requests
        );
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}
