//! A stable checkpoint no longer always writes an image: the WAL holds
//! every change since the last one, so the image waits until that WAL
//! outweighs it. What a restart finds on disk is then an *older* image
//! and a *longer* WAL, possibly laid down by a build that wrote an image
//! at every checkpoint — and recovery must land exactly where the live
//! replica stands either way.

mod common;

use common::{cluster, dir_of, fresh_nodes, scratch};
use rsoc_bft::api::ReplicaNode;
use rsoc_bft::durable::RecoveryReport;
use rsoc_store::DataDir;
use std::path::Path;

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("data dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    names.sort();
    names
}

#[test]
fn a_kill_after_a_skipped_checkpoint_recovers_to_where_the_live_replica_stands() {
    let root = scratch("skipped");
    let mut net = cluster(&root);
    // Every op writes a fresh key, so the image grows with the WAL: the
    // checkpoints at 4 and 8 write theirs, the one at 12 finds less WAL
    // since the image at 8 than that image weighs and writes nothing.
    (1..=14).for_each(|seq| net.commit(seq));
    assert!(net
        .nodes
        .iter()
        .all(|n| n.committed_seq() == 14 && n.checkpoint_stats().stable_seq == 12));
    let victim = dir_of(&root, 3);
    assert_eq!(file_names(&victim), ["snap-8.bin", "wal-1.log", "wal-2.log"]);

    // Kill, reopen: the last image written, then every commit above it —
    // across the skipped checkpoint — through the ordinary replay path.
    let (_store, state) = DataDir::open(&victim).expect("reopen");
    let mut node = fresh_nodes().swap_remove(3);
    let report = node.recover(state);
    assert_eq!(report, RecoveryReport { installed_seq: 8, replayed: 6, committed: 14 });
    assert_eq!(node.state_digest(), net.nodes[3].state_digest());

    // Back in the cluster it keeps up without a state transfer, and the
    // checkpoint at 16 — eight commits above the image at 8 — writes.
    net.restart(3, &victim);
    (15..=18).for_each(|seq| net.commit(seq));
    let digest = net.nodes[0].state_digest();
    for node in &net.nodes {
        assert_eq!((node.committed_seq(), node.state_digest()), (18, digest), "{:?}", node.id());
    }
    assert_eq!(net.nodes[3].checkpoint_stats().transfers, 0);
    assert_eq!(file_names(&victim), ["snap-16.bin", "wal-2.log", "wal-3.log"]);
    let _ = std::fs::remove_dir_all(&root);
}

/// `fixtures/pr17_data_dir` is replica 3's directory as the parent of
/// this change left it after the same ten ops (an image at every stable
/// checkpoint, a segment rolled at each): the file formats did not move,
/// so it opens, verifies and replays under this build.
#[test]
fn a_data_directory_written_before_the_rule_opens_under_it() {
    let root = scratch("pr17");
    let mut net = cluster(&root);
    (1..=10).for_each(|seq| net.commit(seq));

    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr17_data_dir");
    let old = dir_of(&root, 3);
    // The same ops under this build leave the same files, byte for byte.
    for name in file_names(&fixture) {
        assert_eq!(
            std::fs::read(old.join(&name)).ok(),
            std::fs::read(fixture.join(&name)).ok(),
            "{name}"
        );
    }
    // `open` truncates and collects in place: work on a copy.
    let copy = root.join("pr17-copy");
    std::fs::create_dir_all(&copy).expect("copy dir");
    for name in file_names(&fixture) {
        std::fs::copy(fixture.join(&name), copy.join(&name)).expect("copy");
    }
    let (_store, state) = DataDir::open(&copy).expect("open");
    let mut node = fresh_nodes().swap_remove(3);
    let report = node.recover(state);
    assert_eq!(report, RecoveryReport { installed_seq: 8, replayed: 2, committed: 10 });
    assert_eq!(node.state_digest(), net.nodes[3].state_digest());
    let _ = std::fs::remove_dir_all(&root);
}
