//! A data directory whose snapshot cannot be trusted is not the end of a
//! replica: whether the file was written under an older wire version (its
//! certificate certifies a digest this build does not compute) or is a
//! well-formed image of the wrong state, recovery skips it, the replica
//! comes up behind, and collaborative state transfer brings it back onto
//! the cluster's digest.
//!
//! The cluster is [`common::Net`]: four PBFT replicas driven by hand,
//! each persisting its durable events before its messages leave.

mod common;

use common::{cluster, dir_of, scratch};
use rsoc_bft::api::ReplicaNode;
use rsoc_store::{crc32, RECORD_VERSION};
use std::path::{Path, PathBuf};

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

/// Commits eighteen ops (stable checkpoints at 4, 8, 12 and 16), lets
/// `damage` loose on replica 3's snapshot file, restarts replica 3 from the directory
/// (the store must hand the core something exactly if `store_replays`)
/// and runs twelve more ops past it.
fn rejoin_after(name: &str, store_replays: bool, damage: impl FnOnce(&Path)) {
    let root = scratch(name);
    let mut net = cluster(&root);
    (1..=18).for_each(|seq| net.commit(seq));
    assert!(net.nodes.iter().all(|n| n.committed_seq() == 18));

    // The premise of both tests: the WAL below the snapshot about to be
    // damaged is gone, because the checkpoint at 16 did write its image
    // (the commits since the image at 8 outweigh it; those since it at 12
    // did not, as the image carries the client's session window) and
    // collected it.
    let victim = dir_of(&root, 3);
    assert!(snapshot_file(&victim).ends_with("snap-16.bin"));
    damage(&snapshot_file(&victim));
    let (replayed, committed) = net.restart(3, &victim);
    assert_eq!(replayed, store_replays);
    assert_eq!(committed, 0, "nothing on disk may be installed or replayed");
    assert_eq!(net.nodes[3].checkpoint_stats().transfers, 0);

    (19..=30).for_each(|seq| net.commit(seq));
    let digest = net.nodes[0].state_digest();
    for node in &net.nodes {
        assert_eq!((node.committed_seq(), node.state_digest()), (30, digest), "{:?}", node.id());
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
        assert_eq!(bytes[8], RECORD_VERSION);
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
        let at = bytes.windows(3).rposition(|w| w == b"v16").expect("the last value written");
        bytes[at + 1] = b'9';
        let crc = crc32(&bytes[8..]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(snap, bytes).expect("write");
    });
}
