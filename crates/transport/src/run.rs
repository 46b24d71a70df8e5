//! Protocol selection for the cluster binaries, the smoke drivers and
//! the in-process smoke test.
//!
//! `rsoc-serve` and `rsoc-client` are protocol-generic: [`serve`] and
//! [`client`] build the named [`Protocol`]'s cluster through
//! [`Protocol::build`] and run the TCP plane on its node type, and
//! [`simulator_digest`] is the deterministic run a TCP cluster must
//! reproduce.

use crate::client::{run_cluster_client, ClientConfig, ClientReport};
use crate::clock::WallClock;
use crate::node::{serve as serve_loop, ServeReport};
use rsoc_bft::api::{Cluster, ReplicaNode};
use rsoc_bft::codec::Wire;
use rsoc_bft::dense::MAX_REPLICAS;
use rsoc_bft::durable::RecoveryReport;
use rsoc_bft::runner::{run, RunConfig};
use rsoc_bft::{ClusterJob, Protocol};
use rsoc_store::DataDir;
use std::io;
use std::net::TcpListener;
use std::path::Path;

/// Parses the binaries' `--protocol` value. Only the Byzantine-tolerant
/// protocols serve over TCP: passive replication has no real-socket
/// coverage, so it is refused before anything is bound.
///
/// # Errors
/// An unknown name, or `passive`.
pub fn parse_protocol(name: &str) -> Result<Protocol, String> {
    match Protocol::parse(name) {
        Some(p) if Protocol::BFT.contains(&p) => Ok(p),
        Some(_) => Err(format!("protocol {name:?} is not served over TCP (use pbft or minbft)")),
        None => Err(format!("unknown protocol {name:?}")),
    }
}

/// The size of `protocol`'s cluster for the binaries' `--f`, refused
/// before anything is bound or dialled where it exceeds
/// [`MAX_REPLICAS`] (or `u32`).
///
/// # Errors
/// A cluster of more than [`MAX_REPLICAS`] replicas.
pub fn cluster_size(protocol: Protocol, f: u32) -> Result<u32, String> {
    protocol.checked_replicas(f).ok_or_else(|| {
        format!("--f {f}: a {} cluster holds at most {MAX_REPLICAS} replicas", protocol.name())
    })
}

/// Runs replica `id`'s serve loop. Every process constructs the same
/// cluster from the shared deterministic `config` (key provisioning is a
/// pure function of the seed) and extracts its own node.
///
/// With a `data_dir`, the node first replays whatever the store
/// recovered from a previous incarnation (the returned
/// [`RecoveryReport`] says how much), then serves durably: commits and
/// stable checkpoints hit disk before their acks leave.
///
/// # Errors
/// `id` out of range, or the store or the serve loop failing.
pub fn serve(
    protocol: Protocol,
    id: u32,
    config: &RunConfig,
    listener: TcpListener,
    peer_addrs: Vec<String>,
    clock: WallClock,
    data_dir: Option<&Path>,
) -> io::Result<(ServeReport, Option<RecoveryReport>)> {
    struct Serve<'a>(u32, TcpListener, Vec<String>, WallClock, Option<&'a Path>);
    impl ClusterJob for Serve<'_> {
        type Output = io::Result<(ServeReport, Option<RecoveryReport>)>;
        fn run<C: Cluster>(self, cluster: C) -> Self::Output
        where
            <C::Node as ReplicaNode>::Msg: Wire + Send + 'static,
        {
            let Serve(id, listener, peers, clock, data_dir) = self;
            let mut nodes = cluster.into_nodes();
            if (id as usize) >= nodes.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("replica id {id} out of range for n={}", nodes.len()),
                ));
            }
            let mut node = nodes.swap_remove(id as usize);
            let (store, recovery) = match data_dir {
                Some(dir) => {
                    let (store, state) = DataDir::open(dir)?;
                    let report = node.recover(state);
                    (Some(store), Some(report))
                }
                None => (None, None),
            };
            Ok((serve_loop(node, listener, peers, clock, store)?, recovery))
        }
    }
    protocol.build(config, Serve(id, listener, peer_addrs, clock, data_dir))
}

/// Runs the external cluster client against a live `protocol` cluster.
/// The client drives no replica: it builds a default cluster only to
/// name the node type whose messages it speaks.
///
/// # Errors
/// A connection, quorum or convergence failure.
pub fn client(protocol: Protocol, config: &ClientConfig) -> io::Result<ClientReport> {
    struct Client<'a>(&'a ClientConfig);
    impl ClusterJob for Client<'_> {
        type Output = io::Result<ClientReport>;
        fn run<C: Cluster>(self, _: C) -> Self::Output
        where
            <C::Node as ReplicaNode>::Msg: Wire + Send + 'static,
        {
            run_cluster_client::<C::Node>(self.0)
        }
    }
    protocol.build(&RunConfig::default(), Client(config))
}

/// The digest a TCP cluster serving `config`'s workload must converge
/// to: replica 0's state after a simulator run of the same request log.
///
/// # Errors
/// The simulator run lost operations or broke safety.
pub fn simulator_digest(protocol: Protocol, config: &RunConfig) -> Result<[u8; 32], String> {
    struct Digest<'a>(&'a RunConfig);
    impl ClusterJob for Digest<'_> {
        type Output = Result<[u8; 32], String>;
        fn run<C: Cluster>(self, mut cluster: C) -> Self::Output {
            let report = run(&mut cluster, self.0);
            let expected = u64::from(self.0.clients) * self.0.requests_per_client;
            if report.committed != expected || !report.safety_ok {
                return Err(format!(
                    "simulator committed {} of {expected} ops (safety_ok={})",
                    report.committed, report.safety_ok
                ));
            }
            Ok(cluster.nodes()[0].state_digest())
        }
    }
    protocol.build(config, Digest(config))
}

/// Lowercase hex of a digest (for the binaries' line protocol).
pub fn digest_hex(digest: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    for b in digest {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Parses a 64-char lowercase/uppercase hex digest.
pub fn parse_digest_hex(s: &str) -> Option<[u8; 32]> {
    if s.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
        let hi = (chunk[0] as char).to_digit(16)?;
        let lo = (chunk[1] as char).to_digit(16)?;
        out[i] = ((hi << 4) | lo) as u8;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_sizes() {
        assert_eq!(parse_protocol("pbft"), Ok(Protocol::Pbft));
        assert_eq!(parse_protocol("minbft"), Ok(Protocol::MinBft));
        assert!(parse_protocol("passive").unwrap_err().contains("not served over TCP"));
        assert!(parse_protocol("raft").unwrap_err().contains("unknown protocol"));
        assert_eq!(Protocol::Pbft.replicas(1), 4);
        assert_eq!(Protocol::MinBft.replicas(1), 3);
        assert_eq!(Protocol::Pbft.reply_quorum(1), 2);
    }

    #[test]
    fn digest_hex_round_trips() {
        let mut d = [0u8; 32];
        for (i, b) in d.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        let s = digest_hex(&d);
        assert_eq!(s.len(), 64);
        assert_eq!(parse_digest_hex(&s), Some(d));
        assert_eq!(parse_digest_hex("zz"), None);
        assert_eq!(parse_digest_hex(&s[..62]), None);
    }
}
