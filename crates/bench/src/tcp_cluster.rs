//! The real-socket harness `transport_smoke` and `f7_chaos` share: their
//! command line, the workload both serve, and the `rsoc-serve` /
//! `rsoc-client` processes that carry it.
//!
//! A replica process binds an ephemeral port (or `--listen`), prints
//! `LISTENING <addr>` and waits for one `PEERS <addr>...` line on stdin;
//! [`spawn_replica`] reads the first line and [`Replica::send_peers`]
//! writes the second. [`client_command`] issues the simulator's exact
//! request log and gates on its digest.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use rsoc_bft::runner::RunConfig;
use rsoc_bft::Protocol;
use rsoc_transport::run::digest_hex;

/// The workload's seed, shared by the simulator and every process.
const SEED: u64 = 42;
/// Request payload bytes.
const PAYLOAD: usize = 64;

/// Parses `[--clients N] [--requests N]` (defaults 4 × 60 = 240 ops).
///
/// # Errors
/// An unknown flag, or a missing or malformed value.
pub fn parse_load<S: AsRef<str>>(args: &[S]) -> Result<(u32, u64), String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&str>) -> Result<T, String> {
        let v = v.ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag} needs an integer, got {v:?}"))
    }
    let (mut clients, mut requests) = (4u32, 60u64);
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(flag) = args.next() {
        match flag {
            "--clients" => clients = value(flag, args.next())?,
            "--requests" => requests = value(flag, args.next())?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok((clients, requests))
}

/// Parses `std::env::args` with [`parse_load`], or prints the error and
/// a usage line and exits with status 2.
pub fn load_from_args() -> (u32, u64) {
    let args: Vec<String> = std::env::args().collect();
    parse_load(&args[1..]).unwrap_or_else(|e| {
        let bin = Path::new(&args[0]).file_name().unwrap_or_default().to_string_lossy();
        eprintln!("error: {e}\nusage: {bin} [--clients N] [--requests N]");
        std::process::exit(2);
    })
}

/// The workload: f = 1, `clients` × `requests` ops, checkpoints every
/// `checkpoint_interval` (0: none).
pub fn workload(clients: u32, requests: u64, checkpoint_interval: u64) -> RunConfig {
    RunConfig::builder()
        .f(1)
        .clients(clients)
        .requests_per_client(requests)
        .payload_size(PAYLOAD)
        .seed(SEED)
        .checkpoint_interval(checkpoint_interval)
        .build()
}

/// Locates a cluster binary next to the running driver (same target
/// profile).
///
/// # Errors
/// The binary has not been built.
pub fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.parent().ok_or("current_exe has no parent")?.join(name);
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found — build it first: cargo build -p rsoc_transport --bin {name}",
            path.display()
        ))
    }
}

/// A serve process and the reader of its stdout, kept so the `RECOVERED`
/// and `DONE` lines can be read at exit.
#[derive(Debug)]
pub struct Replica {
    /// The process.
    pub child: Child,
    /// Its stdout, past the `LISTENING` line.
    pub reader: BufReader<ChildStdout>,
}

impl Replica {
    /// Writes the `PEERS` rendezvous line.
    ///
    /// # Errors
    /// The process's stdin is gone.
    pub fn send_peers(&mut self, addrs: &[String]) -> Result<(), String> {
        let stdin = self.child.stdin.as_mut().ok_or("no stdin")?;
        let line = format!("PEERS {}\n", addrs.join(" "));
        stdin.write_all(line.as_bytes()).map_err(|e| format!("writing PEERS line: {e}"))
    }
}

/// Spawns `rsoc-serve` for replica `id` of `protocol` serving `cfg`,
/// durable under `data_dir` if given, bound to `listen` if given, and
/// returns it with the address it printed.
///
/// # Errors
/// The spawn failed or the first line was not `LISTENING <addr>`.
pub fn spawn_replica(
    protocol: Protocol,
    id: u32,
    cfg: &RunConfig,
    data_dir: Option<&Path>,
    listen: Option<&str>,
) -> Result<(Replica, String), String> {
    let bin = sibling_binary("rsoc-serve")?;
    let mut cmd = Command::new(&bin);
    cmd.args(["--protocol", protocol.name()])
        .args(["--id", &id.to_string()])
        .args(["--f", &cfg.f.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--checkpoint-interval", &cfg.checkpoint_interval.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    if let Some(dir) = data_dir {
        cmd.arg("--data-dir").arg(dir);
    }
    if let Some(addr) = listen {
        cmd.args(["--listen", addr]);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut reader = BufReader::new(child.stdout.take().ok_or("no stdout")?);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("reading LISTENING line: {e}"))?;
    let addr = line
        .strip_prefix("LISTENING ")
        .ok_or_else(|| format!("replica {id}: expected LISTENING line, got {line:?}"))?
        .trim()
        .to_string();
    Ok((Replica { child, reader }, addr))
}

/// The `rsoc-client` command issuing `cfg`'s request log to the replicas
/// at `addrs`; it exits nonzero unless every replica settles on
/// `expected`.
///
/// # Errors
/// The client binary has not been built.
pub fn client_command(
    protocol: Protocol,
    cfg: &RunConfig,
    addrs: &[String],
    expected: &[u8; 32],
) -> Result<Command, String> {
    let mut cmd = Command::new(sibling_binary("rsoc-client")?);
    cmd.args(["--protocol", protocol.name()])
        .args(["--f", &cfg.f.to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--clients", &cfg.clients.to_string()])
        .args(["--requests", &cfg.requests_per_client.to_string()])
        .args(["--payload", &cfg.payload_size.to_string()])
        .args(["--addrs", &addrs.join(",")])
        .args(["--expect-digest", &digest_hex(expected)]);
    Ok(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Refusals are pinned by the exit-2 table in `tests/campaign.rs`.
    #[test]
    fn load_flags_default_and_override() {
        assert_eq!(parse_load::<&str>(&[]), Ok((4, 60)));
        assert_eq!(parse_load(&["--requests", "7", "--clients", "2"]), Ok((2, 7)));
    }
}
