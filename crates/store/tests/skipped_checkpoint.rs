//! A stable checkpoint no longer always writes an image: the WAL holds
//! every change since the last one, so the image waits until that WAL
//! outweighs it. What a restart finds on disk is then an *older* image
//! and a *longer* WAL, and recovery must land exactly where the live
//! replica stands. A directory an older build laid down (an image at
//! every checkpoint, in an image format this build no longer verifies)
//! still opens, and its replica re-joins by state transfer.

mod common;

use common::{cluster, dir_of, fresh_nodes, scratch};
use rsoc_bft::api::{Batch, ReplicaNode};
use rsoc_bft::durable::{RecoveredState, RecoveryReport};
use rsoc_store::DataDir;
use std::path::Path;
use std::sync::Arc;

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
    // checkpoint at 4 writes its image, the one at 8 finds as much WAL
    // since then as that image weighs and writes its own, and the one at
    // 12 finds less WAL since 8 than the image at 8 weighs (it also
    // carries the client's session window) and writes nothing.
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

/// `fixtures/pr17_data_dir` is replica 3's directory as an older build
/// left it after the same ten ops (an image at every stable checkpoint, a
/// segment rolled at each, the image in the `CKIMG1` framing that carried
/// one reply per client). It still opens under this build: its WAL
/// records decode to the batches this build commits, its image is
/// refused — this build certifies a session window per client, which a
/// `CKIMG1` image cannot rebuild — and the commits past the gap below it
/// do not replay, so the replica comes up empty and re-joins by state
/// transfer.
#[test]
fn a_data_directory_written_before_the_rule_opens_under_it() {
    let root = scratch("pr17");
    let mut net = cluster(&root);
    (1..=10).for_each(|seq| net.commit(seq));

    // `open` truncates and collects in place: work on copies.
    let copy = |from: &Path, name: &str| {
        let to = root.join(name);
        std::fs::create_dir_all(&to).expect("copy dir");
        for file in file_names(from) {
            std::fs::copy(from.join(&file), to.join(&file)).expect("copy");
        }
        to
    };
    let fixture = copy(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr17_data_dir"),
        "pr17-copy",
    );
    let (_store, old) = DataDir::open(&fixture).expect("open");
    let (_store, new) = DataDir::open(copy(&dir_of(&root, 3), "replica-3-copy")).expect("open");
    let above_4 = |state: &RecoveredState| -> Vec<(u64, Arc<Batch>)> {
        state.commits.iter().filter(|(seq, _)| *seq > 4).cloned().collect()
    };
    assert_eq!(old.commits.first().map(|(seq, _)| *seq), Some(5));
    assert_eq!(above_4(&old), above_4(&new));
    assert!(old.snapshot.as_ref().is_some_and(|(cert, _, _)| cert.seq == 8));
    let mut node = fresh_nodes().swap_remove(3);
    assert_eq!(node.recover(old), RecoveryReport::default());

    assert_eq!(net.restart(3, &fixture), (true, 0));
    (11..=22).for_each(|seq| net.commit(seq));
    let digest = net.nodes[0].state_digest();
    for node in &net.nodes {
        assert_eq!((node.committed_seq(), node.state_digest()), (22, digest), "{:?}", node.id());
    }
    assert!(net.nodes[3].checkpoint_stats().transfers >= 1, "re-joined by state transfer");
    let _ = std::fs::remove_dir_all(&root);
}
