//! Deterministic state machines replicated by the protocols.
//!
//! The paper's SMR claims are payload-agnostic; the one machine here, a
//! key-value store, gives every protocol, campaign and plane realistic
//! commands.

use crate::statetree::{StateTree, MAX_KEY_LEN};
use std::sync::Arc;

/// A deterministic state machine: same command sequence → same results.
pub trait StateMachine: std::fmt::Debug {
    /// Applies a command, returning its result — shared, as the reply
    /// that carries it shares it. Must be deterministic.
    fn apply(&mut self, command: &[u8]) -> Arc<Vec<u8>>;

    /// A digest of current state (for divergence checks in tests).
    fn state_digest(&self) -> [u8; 32];
}

/// A simple ordered key-value store.
///
/// Wire format (text, for debuggability):
/// `SET key value` | `GET key` | `DEL key`. A `SET` whose key is longer
/// than 256 bytes answers `ERR` (the bound is what keeps the state tree's
/// depth, and so every walk over it, bounded).
///
/// The pairs live in a paged Merkle radix tree (the crate-private
/// `statetree` module), which is what makes a certified checkpoint cost
/// what changed since the last one:
///
/// * [`state_digest`](StateMachine::state_digest) is the tree's root —
///   a function of the *contents* alone, whatever order the writes came
///   in — and rehashes only the pages written since it was last asked;
/// * `clone()` is O(1): the clone shares every page, and a later write
///   copies only the pages on its own path;
/// * [`snapshot`](Self::snapshot) is the pages in key order, whose bytes
///   are the length-framed sorted `(key, value)` pairs.
///
/// The digest is therefore **not** `sha256(snapshot)`. What ties the two
/// together is [`install_snapshot`](Self::install_snapshot): it rebuilds
/// the tree from the bytes, and equal bytes rebuild an equal root.
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    tree: StateTree,
    replies: Replies,
}

/// The constant replies, allocated once per store: a fresh-key `SET`, a
/// `DEL` and an `ERR` hand out a clone, so only a returned value
/// allocates.
#[derive(Debug, Clone)]
struct Replies {
    nil: Arc<Vec<u8>>,
    deleted: Arc<Vec<u8>>,
    absent: Arc<Vec<u8>>,
    err: Arc<Vec<u8>>,
}

impl Default for Replies {
    fn default() -> Self {
        let reply = |bytes: &[u8]| Arc::new(bytes.to_vec());
        Replies {
            nil: reply(b"(nil)"),
            deleted: reply(b"1"),
            absent: reply(b"0"),
            err: reply(b"ERR"),
        }
    }
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tree.len() == 0
    }

    /// Serializes the store for state transfer: length-framed
    /// `(key, value)` pairs (`key_len · key · value_len · value`, each
    /// length a minimal LEB128 varint) in ascending key order. O(state) —
    /// a checkpoint does not call it; a served transfer or a persisted
    /// stable checkpoint does.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.snapshot_len());
        self.write_snapshot(&mut bytes);
        bytes
    }

    /// Byte length of [`snapshot`](Self::snapshot).
    pub(crate) fn snapshot_len(&self) -> usize {
        self.tree.byte_len()
    }

    /// Appends the [`snapshot`](Self::snapshot) bytes to `out`. A
    /// checkpoint image frames them straight into its exactly-sized
    /// buffer: a state-sized temporary grown by doubling, allocated
    /// between the long-lived small allocations of execution, fragments
    /// the heap by tens of MiB once the state is a few MiB.
    pub(crate) fn write_snapshot(&self, out: &mut Vec<u8>) {
        self.tree.write_to(out);
    }

    /// Parses a transferred snapshot (adversarial input: the bytes come
    /// from a peer or from disk) and rebuilds the store from scratch, so
    /// its digest is computed here, from the bytes, never taken from the
    /// sender. Returns `None` for any malformed framing — truncated
    /// lengths, trailing bytes, keys out of order or repeated (an honest
    /// snapshot is always sorted), or a key longer than `SET` accepts.
    pub fn install_snapshot(bytes: &[u8]) -> Option<KvStore> {
        Some(KvStore { tree: StateTree::from_snapshot(bytes)?, replies: Replies::default() })
    }
}

impl StateMachine for KvStore {
    fn apply(&mut self, command: &[u8]) -> Arc<Vec<u8>> {
        let mut parts = command.splitn(3, |b| *b == b' ');
        let r = &self.replies;
        match (parts.next(), parts.next(), parts.next()) {
            (Some(b"SET"), Some(key), Some(value)) if key.len() <= MAX_KEY_LEN => {
                let mut old = None;
                self.tree.insert(key, value, |replaced| old = Some(replaced.to_vec()));
                old.map_or_else(|| Arc::clone(&r.nil), Arc::new)
            }
            (Some(b"GET"), Some(key), None) => {
                self.tree.get(key).map_or_else(|| Arc::clone(&r.nil), |v| Arc::new(v.to_vec()))
            }
            (Some(b"DEL"), Some(key), None) => {
                Arc::clone(if self.tree.remove(key).is_some() { &r.deleted } else { &r.absent })
            }
            _ => Arc::clone(&r.err),
        }
    }

    fn state_digest(&self) -> [u8; 32] {
        self.tree.root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statetree::{hostile_varint_snapshots, varint};

    #[test]
    fn kv_set_get_del() {
        let mut kv = KvStore::new();
        assert_eq!(*kv.apply(b"GET x"), b"(nil)");
        assert_eq!(*kv.apply(b"SET x 42"), b"(nil)");
        assert_eq!(*kv.apply(b"GET x"), b"42");
        assert_eq!(*kv.apply(b"SET x 43"), b"42");
        assert_eq!(*kv.apply(b"DEL x"), b"1");
        assert_eq!(*kv.apply(b"DEL x"), b"0");
        assert!(kv.is_empty());
    }

    /// A constant reply is one allocation per store, whatever the number
    /// of commands that return it; a returned value is its own.
    #[test]
    fn constant_replies_share_one_allocation() {
        let mut kv = KvStore::new();
        let (first, second) = (kv.apply(b"SET a 1"), kv.apply(b"SET b 2"));
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&first, &kv.apply(b"GET c")));
        assert!(Arc::ptr_eq(&kv.apply(b"DEL a"), &kv.apply(b"DEL b")));
        assert!(Arc::ptr_eq(&kv.apply(b"FROB"), &kv.apply(b"")));
        assert_eq!(*kv.apply(b"SET c 3"), b"(nil)");
        assert!(!Arc::ptr_eq(&kv.apply(b"SET c 4"), &kv.apply(b"GET c")));
    }

    #[test]
    fn kv_values_may_contain_spaces() {
        let mut kv = KvStore::new();
        kv.apply(b"SET msg hello world");
        assert_eq!(*kv.apply(b"GET msg"), b"hello world");
    }

    #[test]
    fn kv_bad_commands_err() {
        let mut kv = KvStore::new();
        assert_eq!(*kv.apply(b"FROB x"), b"ERR");
        assert_eq!(*kv.apply(b""), b"ERR");
    }

    #[test]
    fn determinism_and_digest() {
        let commands: &[&[u8]] = &[b"SET a 1", b"SET b 2", b"DEL a", b"SET c 3"];
        let mut kv1 = KvStore::new();
        let mut kv2 = KvStore::new();
        for c in commands {
            assert_eq!(kv1.apply(c), kv2.apply(c));
        }
        assert_eq!(kv1.state_digest(), kv2.state_digest());
        kv2.apply(b"SET d 4");
        assert_ne!(kv1.state_digest(), kv2.state_digest());
    }

    #[test]
    fn snapshot_len_tracks_every_mutation() {
        let mut kv = KvStore::new();
        let commands: &[&[u8]] = &[
            b"SET a 1",
            b"SET msg hello world",
            b"SET a a-longer-value",
            b"SET msg x",
            b"DEL nope",
            b"GET a",
            b"DEL a",
            b"FROB",
        ];
        assert_eq!(kv.snapshot_len(), 0);
        for c in commands {
            kv.apply(c);
            assert_eq!(kv.snapshot_len(), kv.snapshot().len(), "after {:?}", c);
        }
        let installed = KvStore::install_snapshot(&kv.snapshot()).unwrap();
        assert_eq!(installed.snapshot_len(), kv.snapshot_len());
    }

    #[test]
    fn snapshot_roundtrips_and_matches_the_digest() {
        let mut kv = KvStore::new();
        kv.apply(b"SET a 1");
        kv.apply(b"SET msg hello world");
        kv.apply(b"SET b 2");
        kv.apply(b"DEL a");
        let snap = kv.snapshot();
        // The framing: sorted pairs, each length a one-byte varint here.
        let framed = [&[1][..], b"b", &[1], b"2", &[3], b"msg", &[11], b"hello world"].concat();
        assert_eq!(snap, framed);
        // The digest is the root of the page tree, not a hash of those
        // bytes. What a certificate over it certifies about a snapshot is
        // that the store *rebuilt from the bytes* has that root …
        assert_ne!(rsoc_crypto::sha256(&snap), kv.state_digest());
        let restored = KvStore::install_snapshot(&snap).expect("well-formed");
        assert_eq!(restored.state_digest(), kv.state_digest());
        assert_eq!((restored.len(), restored.snapshot()), (kv.len(), snap));
        // … and a store rebuilt from any other bytes does not.
        let mut other = kv.clone();
        other.apply(b"SET b 3");
        let rebuilt = KvStore::install_snapshot(&other.snapshot()).expect("well-formed");
        assert_ne!(rebuilt.state_digest(), kv.state_digest());
        // Empty store: empty snapshot, still round-trips.
        let empty = KvStore::new();
        assert_eq!(empty.snapshot(), Vec::<u8>::new());
        let installed = KvStore::install_snapshot(&[]).expect("empty is well-formed");
        assert_eq!(installed.state_digest(), empty.state_digest());
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        let mut kv = KvStore::new();
        kv.apply(b"SET a 1");
        kv.apply(b"SET b 2");
        let snap = kv.snapshot();
        assert_eq!(snap, [1, b'a', 1, b'1', 1, b'b', 1, b'2']);
        assert!(KvStore::install_snapshot(&snap[..snap.len() - 1]).is_none(), "truncated value");
        assert!(KvStore::install_snapshot(&snap[..5]).is_none(), "truncated pair");
        let mut trailing = snap.clone();
        trailing.push(0);
        assert!(KvStore::install_snapshot(&trailing).is_none(), "trailing bytes");
        let absurd = [&varint(u64::MAX)[..], &snap[1..]].concat();
        assert!(KvStore::install_snapshot(&absurd).is_none(), "absurd length field");
        for (what, bytes) in hostile_varint_snapshots() {
            assert!(KvStore::install_snapshot(&bytes).is_none(), "{what}");
        }
        // The non-minimal one spells a state that does install.
        assert!(KvStore::install_snapshot(&[0x00, 0x01, b'1']).is_some());
        // Out-of-order pairs can't have come from digest framing.
        let unsorted = [1, b'b', 1, b'x', 1, b'a', 1, b'x'];
        assert!(KvStore::install_snapshot(&unsorted).is_none(), "unsorted keys");
    }

    /// Every branch of the state tree consumes a key byte, so nested
    /// prefixes are what drive it deep — and the key bound is what stops
    /// them: neither 300 nested prefixes nor a 64 KiB key may overflow a
    /// stack or panic, and what `SET` refuses, a snapshot may not smuggle
    /// in.
    #[test]
    fn long_and_nested_keys_are_bounded() {
        let mut kv = KvStore::new();
        for len in 1..=300 {
            let set = [b"SET ", &vec![b'a'; len][..], b" v"].concat();
            let expected: &[u8] = if len <= MAX_KEY_LEN { b"(nil)" } else { b"ERR" };
            assert_eq!(kv.apply(&set)[..], *expected, "key of {len} bytes");
        }
        assert_eq!(kv.len(), MAX_KEY_LEN);
        let huge = vec![b'k'; 64 << 10];
        assert_eq!(*kv.apply(&[b"SET ", &huge[..], b" v"].concat()), b"ERR");
        assert_eq!(*kv.apply(&[b"GET ", &huge[..]].concat()), b"(nil)");
        assert_eq!(*kv.apply(&[b"DEL ", &huge[..]].concat()), b"0");
        let restored = KvStore::install_snapshot(&kv.snapshot()).expect("well-formed");
        assert_eq!(restored.state_digest(), kv.state_digest());
        let smuggled = [&varint(huge.len() as u64)[..], &huge, &[1], b"v"].concat();
        assert!(KvStore::install_snapshot(&smuggled).is_none());
        for len in (1..=MAX_KEY_LEN).rev() {
            assert_eq!(*kv.apply(&[b"DEL ", &vec![b'a'; len][..]].concat()), b"1");
        }
        assert_eq!(kv.state_digest(), KvStore::new().state_digest());
    }
}
