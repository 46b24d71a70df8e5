//! A data directory whose snapshot cannot be trusted is not the end of a
//! replica: whether the file was written under an older wire version (its
//! certificate certifies a digest this build does not compute) or is a
//! well-formed image of the wrong state, recovery skips it, the replica
//! comes up behind, and collaborative state transfer brings it back onto
//! the cluster's digest.
//!
//! Four PBFT replicas are driven by hand over a FIFO in-memory network
//! (no timers: the primary is correct), each persisting its durable
//! events to its own [`DataDir`] before its messages leave.

use rsoc_bft::api::{
    ClientId, Cluster, Endpoint, Input, OpId, Outbox, ReplicaId, ReplicaNode, Request,
};
use rsoc_bft::codec::WIRE_VERSION;
use rsoc_bft::pbft::{PbftCluster, PbftMsg, PbftReplica};
use rsoc_bft::runner::RunConfig;
use rsoc_store::{crc32, DataDir};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const N: usize = 4;
const INTERVAL: u64 = 4;

fn fresh_nodes() -> Vec<PbftReplica> {
    let config = RunConfig::builder().f(1).seed(23).checkpoint_interval(INTERVAL).build();
    PbftCluster::new(&config).into_nodes()
}

struct Net {
    nodes: Vec<PbftReplica>,
    stores: Vec<DataDir>,
    now: u64,
}

impl Net {
    /// Delivers client op `seq` to every replica and runs the network
    /// until it is quiet.
    fn commit(&mut self, seq: u64) {
        let request = Arc::new(Request {
            op: OpId { client: ClientId(1), seq },
            payload: format!("SET k1.{seq} v{seq}").into_bytes(),
        });
        let from = Endpoint::Client(ClientId(1));
        let mut queue: VecDeque<(usize, Endpoint, PbftMsg)> =
            (0..N).map(|to| (to, from, PbftReplica::make_request(request.clone()))).collect();
        let mut out = Outbox::new();
        let mut events = Vec::new();
        while let Some((to, from, msg)) = queue.pop_front() {
            self.now += 1;
            out.clear();
            self.nodes[to].on_input(Input::Message { from, msg }, self.now, &mut out);
            self.nodes[to].drain_durable(&mut events);
            self.stores[to].persist(&events).expect("persist");
            events.clear();
            let from = Endpoint::Replica(ReplicaId(to as u32));
            for (dest, msg) in out.msgs.drain(..) {
                if let Endpoint::Replica(r) = dest {
                    queue.push_back((r.0 as usize, from, msg));
                }
            }
        }
    }

    /// Kills replica `id` and restarts it from its data directory.
    /// Returns whether the store replayed anything at all, and how many
    /// operations recovery then committed.
    fn restart(&mut self, id: usize, dir: &Path) -> (bool, u64) {
        let (store, state) = DataDir::open(dir).expect("reopen");
        let replayed = !state.is_empty();
        let mut node = fresh_nodes().swap_remove(id);
        let report = node.recover(state);
        node.enable_durability();
        self.nodes[id] = node;
        self.stores[id] = store;
        (replayed, report.committed)
    }
}

fn cluster(root: &Path) -> Net {
    let _ = std::fs::remove_dir_all(root);
    let mut nodes = fresh_nodes();
    nodes.iter_mut().for_each(|n| n.enable_durability());
    let stores = (0..N).map(|i| DataDir::open(dir_of(root, i)).expect("open").0).collect();
    Net { nodes, stores, now: 0 }
}

fn dir_of(root: &Path, i: usize) -> PathBuf {
    root.join(format!("replica-{i}"))
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rsoc_stale_snapshot_{name}_{}", std::process::id()))
}

/// The one snapshot file in `dir`.
fn snapshot_file(dir: &Path) -> PathBuf {
    let mut snaps = std::fs::read_dir(dir)
        .expect("data dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("snap-")));
    let snap = snaps.next().expect("a stable checkpoint was persisted");
    assert!(snaps.next().is_none(), "steady state keeps one snapshot");
    snap
}

/// Commits ten ops (stable checkpoints at 4 and 8), lets `damage` loose
/// on replica 3's snapshot file, restarts replica 3 from the directory
/// (the store must hand the core something exactly if `store_replays`)
/// and runs twelve more ops past it.
fn rejoin_after(name: &str, store_replays: bool, damage: impl FnOnce(&Path)) {
    let root = scratch(name);
    let mut net = cluster(&root);
    (1..=10).for_each(|seq| net.commit(seq));
    assert!(net.nodes.iter().all(|n| n.committed_seq() == 10));

    let victim = dir_of(&root, 3);
    damage(&snapshot_file(&victim));
    let (replayed, committed) = net.restart(3, &victim);
    assert_eq!(replayed, store_replays);
    assert_eq!(committed, 0, "nothing on disk may be installed or replayed");
    assert_eq!(net.nodes[3].checkpoint_stats().transfers, 0);

    (11..=22).for_each(|seq| net.commit(seq));
    let digest = net.nodes[0].state_digest();
    for node in &net.nodes {
        assert_eq!((node.committed_seq(), node.state_digest()), (22, digest), "{:?}", node.id());
    }
    assert!(net.nodes[3].checkpoint_stats().transfers >= 1, "re-joined by state transfer");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_version_2_snapshot_is_skipped_and_the_replica_rejoins_by_state_transfer() {
    // Refused at the frame and deleted; the WAL below it was collected
    // long ago and what is left starts past a gap, so nothing replays.
    rejoin_after("v2", false, |snap| {
        // Re-frame the record as wire version 2, checksum and all: only
        // the version byte stands between it and the decoder.
        let mut bytes = std::fs::read(snap).expect("read");
        assert_eq!(bytes[8], WIRE_VERSION);
        bytes[8] = 2;
        let crc = crc32(&bytes[8..]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(snap, bytes).expect("write");
    });
}

#[test]
fn a_well_framed_snapshot_of_the_wrong_state_is_not_installed() {
    rejoin_after("swapped", true, |snap| {
        // One value byte changed inside the image, checksum re-taken: the
        // record frames and decodes, the image parses, and the state it
        // rebuilds is not the one the certificate signs. The WAL segment
        // the snapshot names survives, and replay alone must not carry
        // the replica across the gap below it either.
        let mut bytes = std::fs::read(snap).expect("read");
        let at = bytes.windows(2).rposition(|w| w == b"v8").expect("the last value written");
        bytes[at + 1] = b'9';
        let crc = crc32(&bytes[8..]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(snap, bytes).expect("write");
    });
}
