//! The replicated state as one persistent, paged Merkle radix tree.
//!
//! A certified checkpoint has to digest the state and keep an image of it
//! while execution moves on. Over a flat map both cost O(state) every
//! time; over this tree they cost what *changed* since the last one —
//! the partition tree of Castro–Liskov's proactive-recovery PBFT, keyed
//! by the entries' own key bytes so it stays ordered:
//!
//! * a subtree holding at most [`PAGE_CAP`] entries is one **leaf page**:
//!   a byte buffer in exactly the snapshot framing
//!   (`varint key_len · key · varint value_len · value`, keys ascending,
//!   every length a minimal LEB128 [`varint`]);
//! * a larger subtree is a **branch** on the byte that follows the
//!   longest prefix all of its keys share (a key that *is* the prefix
//!   takes slot 0, byte `b` takes slot `b + 1`, so slot order is key
//!   order). A branch therefore always has at least two children.
//!
//! Which of the two a subtree is depends on its contents alone, never on
//! the order of the writes that produced them, so equal contents give an
//! equal shape and an equal root:
//!
//! ```text
//! digest(page)   = sha256(0x00 · page bytes)
//! digest(branch) = sha256(0x01 · (slot u16 LE · digest(child))*)
//! ```
//!
//! Nodes are `Arc`-shared and cache their digest. A write copies and
//! invalidates the nodes on its own path only — and copies only those a
//! retained clone still shares — so [`StateTree::clone`] is O(1),
//! [`StateTree::root`] rehashes the pages written since it was last
//! asked, and the in-order concatenation of the pages *is* the snapshot.
//!
//! Keys are capped at [`MAX_KEY_LEN`] bytes: every branch consumes at
//! least one key byte, so the cap bounds the depth of the tree and with
//! it the recursion of every walk over it.

use rsoc_crypto::Sha256;
use std::sync::{Arc, OnceLock};

/// Most entries one leaf page holds. Part of the digest definition:
/// changing it changes every root.
pub(crate) const PAGE_CAP: usize = 32;

/// Longest key the tree stores (see the module docs).
pub(crate) const MAX_KEY_LEN: usize = 256;

/// Domain tags of the two node hashes — part of the digest definition.
const PAGE_TAG: u8 = 0x00;
const BRANCH_TAG: u8 = 0x01;

#[cfg(test)]
thread_local! {
    /// Bytes fed to node hashes on this thread (the rehash-work tests).
    static HASHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One framed pair occupying `start..end` of a page or snapshot.
#[derive(Clone, Copy)]
struct Entry<'a> {
    start: usize,
    key: &'a [u8],
    value: &'a [u8],
    end: usize,
}

/// A length or a seq as the replicated state's byte encodings write it
/// (the tree's pages and the client-session windows): minimal LEB128,
/// seven bits a byte, low bits first, the top bit set on every byte but
/// the last — one byte below 128, ten for the largest `u64`.
pub(crate) struct Varint {
    bytes: [u8; 10],
    len: u8,
}

/// Encodes `n` as a [`Varint`].
pub(crate) fn varint(mut n: u64) -> Varint {
    let mut out = Varint { bytes: [0; 10], len: 0 };
    for byte in &mut out.bytes {
        out.len += 1;
        if n < 0x80 {
            *byte = n as u8;
            break;
        }
        *byte = n as u8 | 0x80;
        n >>= 7;
    }
    out
}

impl std::ops::Deref for Varint {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// The framing's length field of `chunk`.
fn len_of(chunk: &[u8]) -> Varint {
    varint(chunk.len() as u64)
}

/// Bytes a chunk of `len` bytes takes framed: its length, then itself.
fn framed(len: usize) -> usize {
    varint(len as u64).len() + len
}

/// Appends `key → value` to `out` in the snapshot framing.
pub(crate) fn write_pair(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    for chunk in [key, value] {
        out.extend_from_slice(&len_of(chunk));
        out.extend_from_slice(chunk);
    }
}

// Snapshots arrive from peers and from disk: the framing is checked
// before a single byte of it is interpreted.
// lint: ingress
/// Reads the [`varint`] at `bytes[*at..]` and moves `at` past it; `None`
/// if it is truncated, longer than ten bytes, above `u64::MAX` or not
/// minimal (so a value has one encoding, and equal state equal bytes).
pub(crate) fn read_varint(bytes: &[u8], at: &mut usize) -> Option<u64> {
    // The common case, every length below 128: one byte, one branch.
    let first = *bytes.get(*at)?;
    if first < 0x80 {
        *at += 1;
        return Some(u64::from(first));
    }
    let mut value = 0u64;
    for (i, byte) in bytes.get(*at..)?.iter().take(10).enumerate() {
        // The tenth byte holds bit 63 alone: a larger one is a value
        // above `u64::MAX`, or an eleventh byte to come.
        if i == 9 && *byte > 1 {
            return None;
        }
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            // A zero last byte adds nothing: a shorter encoding exists.
            if *byte == 0 {
                return None;
            }
            *at += i + 1;
            return Some(value);
        }
    }
    None
}

/// Reads the framed pair at `bytes[start..]`; `None` if it is truncated
/// or a length field is malformed or overruns the buffer.
fn read_entry(bytes: &[u8], start: usize) -> Option<Entry<'_>> {
    fn chunk<'a>(bytes: &'a [u8], at: &mut usize) -> Option<&'a [u8]> {
        let len = usize::try_from(read_varint(bytes, at)?).ok()?;
        let end = at.checked_add(len)?;
        let chunk = bytes.get(*at..end)?;
        *at = end;
        Some(chunk)
    }
    let mut at = start;
    let key = chunk(bytes, &mut at)?;
    let value = chunk(bytes, &mut at)?;
    Some(Entry { start, key, value, end: at })
}

/// Parses a whole snapshot into its run of entries. `None` for any framing
/// violation: a truncated pair, trailing bytes, keys not strictly
/// ascending (order is part of the framing, so an honest snapshot is
/// always sorted and free of duplicates), or a key no honest store holds.
fn parse(bytes: &[u8]) -> Option<Vec<Entry<'_>>> {
    let mut run: Vec<Entry<'_>> = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let entry = read_entry(bytes, at)?;
        if entry.key.len() > MAX_KEY_LEN || run.last().is_some_and(|p| p.key >= entry.key) {
            return None;
        }
        at = entry.end;
        run.push(entry);
    }
    Some(run)
}
// lint: end

/// The pairs of a page, in order.
fn entries(page: &[u8]) -> impl Iterator<Item = Entry<'_>> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let entry = read_entry(page, at)?;
        at = entry.end;
        Some(entry)
    })
}

/// Finds `key` in a page: its entry, or the offset it would be framed at.
fn locate<'a>(page: &'a [u8], key: &[u8]) -> Result<Entry<'a>, usize> {
    for entry in entries(page) {
        match entry.key.cmp(key) {
            std::cmp::Ordering::Less => {}
            std::cmp::Ordering::Equal => return Ok(entry),
            std::cmp::Ordering::Greater => return Err(entry.start),
        }
    }
    Err(page.len())
}

/// Rewrites `bytes` as `bytes[from..at] · parts · bytes[at + old..]`: it
/// drops its first `from` bytes and replaces `old` bytes at `at` with the
/// concatenation of `parts`. The buffer is exactly its bytes, so one that
/// keeps its length is written in place, and one that changes it is
/// rebuilt once at its new length.
pub(crate) fn splice(bytes: &mut Box<[u8]>, from: usize, at: usize, old: usize, parts: &[&[u8]]) {
    let new: usize = parts.iter().map(|p| p.len()).sum();
    if from + old == new {
        if from > 0 {
            bytes.copy_within(from..at, 0);
        }
        let mut to = at - from;
        for part in parts {
            bytes[to..to + part.len()].copy_from_slice(part);
            to += part.len();
        }
        return;
    }
    let mut out = Vec::with_capacity(bytes.len() - from - old + new);
    out.extend_from_slice(&bytes[from..at]);
    parts.iter().for_each(|part| out.extend_from_slice(part));
    out.extend_from_slice(&bytes[at + old..]);
    *bytes = out.into_boxed_slice();
}

/// The child slot `key` falls in under a branch whose prefix is `depth`
/// bytes long: 0 if the key ends there, else one past its next byte.
fn slot_of(key: &[u8], depth: usize) -> u16 {
    key.get(depth).map_or(0, |b| 1 + u16::from(*b))
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// One subtree. Every page holds exactly its framed bytes, and a branch's
/// parts sit behind one pointer, so a node is 56 bytes and its `Arc`
/// allocation 72: most nodes are pages.
#[derive(Clone)]
struct Node {
    /// Cached digest of this subtree, cleared along the path of a write.
    digest: OnceLock<[u8; 32]>,
    /// Entries in this subtree.
    entries: u32,
    body: Body,
}

const _: () = assert!(std::mem::size_of::<Node>() <= 56, "a node outgrew its 56 bytes");

#[derive(Clone)]
enum Body {
    /// At most [`PAGE_CAP`] entries, in snapshot framing.
    Page(Box<[u8]>),
    /// More than [`PAGE_CAP`] entries, split on the byte after its prefix.
    Branch(Box<Branch>),
}

#[derive(Clone)]
struct Branch {
    /// The longest prefix every key below shares.
    prefix: Box<[u8]>,
    /// Snapshot bytes of the subtree.
    bytes: usize,
    /// `(slot, subtree)`, ascending; at least two.
    children: Vec<(u16, Arc<Node>)>,
}

/// The canonical subtree over `run`, a sorted run of entries of `src`.
fn build(src: &[u8], run: &[Entry<'_>]) -> Node {
    let (Some(first), Some(last)) = (run.first(), run.last()) else {
        return Node::page(Box::default(), 0);
    };
    if run.len() <= PAGE_CAP {
        return Node::page(src[first.start..last.end].into(), run.len());
    }
    // Sorted, so what the first and last key share, every key shares.
    let depth = common_prefix_len(first.key, last.key);
    let children = run
        .chunk_by(|a, b| slot_of(a.key, depth) == slot_of(b.key, depth))
        .map(|group| (slot_of(group[0].key, depth), Arc::new(build(src, group))))
        .collect();
    Node::branch(first.key[..depth].into(), children)
}

impl Node {
    fn page(bytes: Box<[u8]>, entries: usize) -> Node {
        Node { digest: OnceLock::new(), entries: entries as u32, body: Body::Page(bytes) }
    }

    fn single(key: &[u8], value: &[u8]) -> Node {
        let mut bytes = Box::default();
        splice(&mut bytes, 0, 0, 0, &[&len_of(key), key, &len_of(value), value]);
        Node::page(bytes, 1)
    }

    fn branch(prefix: Box<[u8]>, children: Vec<(u16, Arc<Node>)>) -> Node {
        Node {
            digest: OnceLock::new(),
            entries: children.iter().map(|(_, c)| c.entries).sum(),
            body: Body::Branch(Box::new(Branch {
                prefix,
                bytes: children.iter().map(|(_, c)| c.byte_len()).sum(),
                children,
            })),
        }
    }

    /// Entries in this subtree.
    fn len(&self) -> usize {
        self.entries as usize
    }

    fn byte_len(&self) -> usize {
        match &self.body {
            Body::Page(bytes) => bytes.len(),
            Body::Branch(branch) => branch.bytes,
        }
    }

    fn digest(&self) -> [u8; 32] {
        *self.digest.get_or_init(|| {
            let mut h = Sha256::new();
            let mut feed = |bytes: &[u8]| {
                #[cfg(test)]
                HASHED.with(|n| n.set(n.get() + bytes.len() as u64));
                h.update(bytes);
            };
            match &self.body {
                Body::Page(bytes) => {
                    feed(&[PAGE_TAG]);
                    feed(bytes);
                }
                Body::Branch(branch) => {
                    feed(&[BRANCH_TAG]);
                    for (slot, child) in &branch.children {
                        feed(&slot.to_le_bytes());
                        feed(&child.digest());
                    }
                }
            }
            h.finalize()
        })
    }

    /// Visits the pages of this subtree in key order.
    fn pages<F: FnMut(&[u8])>(&self, visit: &mut F) {
        match &self.body {
            Body::Page(bytes) => visit(bytes),
            Body::Branch(branch) => branch.children.iter().for_each(|(_, c)| c.pages(visit)),
        }
    }

    /// Bytes this subtree holds: each node, each branch's parts, prefix
    /// and child list, and each page's bytes.
    #[cfg(test)]
    fn footprint(&self) -> usize {
        std::mem::size_of::<Node>()
            + match &self.body {
                Body::Page(bytes) => bytes.len(),
                Body::Branch(branch) => {
                    let Branch { prefix, children, .. } = &**branch;
                    std::mem::size_of::<Branch>()
                        + prefix.len()
                        + children.capacity() * std::mem::size_of::<(u16, Arc<Node>)>()
                        + children.iter().map(|(_, c)| c.footprint()).sum::<usize>()
                }
            }
    }

    /// Writes `key → value` beneath `slot`, lending the value it replaces
    /// to `replaced`; returns that value's length.
    fn insert(
        slot: &mut Arc<Node>,
        key: &[u8],
        value: &[u8],
        replaced: impl FnOnce(&[u8]),
    ) -> Option<usize> {
        // A key outside a branch's prefix becomes its sibling under a new,
        // shorter-prefixed parent; the branch itself is shared, untouched.
        if let Body::Branch(branch) = &slot.body {
            let shared = common_prefix_len(&branch.prefix, key);
            if shared < branch.prefix.len() {
                let mut children = vec![
                    (slot_of(&branch.prefix, shared), Arc::clone(slot)),
                    (slot_of(key, shared), Arc::new(Node::single(key, value))),
                ];
                children.sort_unstable_by_key(|(s, _)| *s);
                *slot = Arc::new(Node::branch(key[..shared].into(), children));
                return None;
            }
        }
        let node = Arc::make_mut(slot);
        node.digest = OnceLock::new();
        let old = match &mut node.body {
            Body::Page(page) => match locate(page, key) {
                Ok(e) => {
                    let (old, size) = (e.value.len(), framed(e.value.len()));
                    replaced(e.value);
                    splice(page, 0, e.end - size, size, &[&len_of(value), value]);
                    Some(old)
                }
                Err(at) => {
                    splice(page, 0, at, 0, &[&len_of(key), key, &len_of(value), value]);
                    None
                }
            },
            Body::Branch(branch) => {
                let Branch { prefix, bytes, children } = &mut **branch;
                let s = slot_of(key, prefix.len());
                let old = match children.binary_search_by_key(&s, |(s, _)| *s) {
                    // bounds: `i` is the position binary_search just found
                    Ok(i) => Node::insert(&mut children[i].1, key, value, replaced),
                    Err(i) => {
                        children.insert(i, (s, Arc::new(Node::single(key, value))));
                        None
                    }
                };
                *bytes += framed(value.len());
                match old {
                    Some(old) => *bytes -= framed(old),
                    None => *bytes += framed(key.len()),
                }
                old
            }
        };
        if old.is_none() {
            node.entries += 1;
            if let Body::Page(page) = &node.body {
                if node.len() > PAGE_CAP {
                    *node = build(page, &entries(page).collect::<Vec<_>>());
                }
            }
        }
        old
    }

    /// Deletes `key` beneath `slot`; returns the value it held.
    fn remove(slot: &mut Arc<Node>, key: &[u8]) -> Option<Vec<u8>> {
        let node = Arc::make_mut(slot);
        let old = match &mut node.body {
            Body::Page(page) => {
                let (at, size, old) =
                    locate(page, key).map(|e| (e.start, e.end - e.start, e.value.to_vec())).ok()?;
                splice(page, 0, at, size, &[]);
                old
            }
            Body::Branch(branch) => {
                let Branch { prefix, bytes, children } = &mut **branch;
                if !key.starts_with(prefix) {
                    return None;
                }
                let s = slot_of(key, prefix.len());
                let i = children.binary_search_by_key(&s, |(s, _)| *s).ok()?;
                // bounds: `i` is the position binary_search just found
                let old = Node::remove(&mut children[i].1, key)?;
                *bytes -= framed(key.len()) + framed(old.len());
                // bounds: as above; nothing moved since
                if children[i].1.entries == 0 {
                    children.remove(i);
                }
                old
            }
        };
        node.digest = OnceLock::new();
        node.entries -= 1;
        if let Body::Branch(branch) = &mut node.body {
            let Branch { bytes, children, .. } = &mut **branch;
            if node.entries as usize <= PAGE_CAP {
                // Small enough for one page again; so is every child.
                let mut page = Vec::with_capacity(*bytes);
                children.iter().for_each(|(_, c)| c.pages(&mut |p| page.extend_from_slice(p)));
                node.body = Body::Page(page.into_boxed_slice());
            } else if children.len() == 1 {
                // One slot left: the keys share a longer prefix, which is
                // the prefix the remaining child (a branch) already has.
                if let Some((_, only)) = children.pop() {
                    *slot = only;
                }
            }
        }
        Some(old)
    }
}

/// An ordered byte-string map with an incrementally maintained Merkle
/// root and O(1) copy-on-write clones (see the module docs).
#[derive(Clone)]
pub(crate) struct StateTree {
    root: Arc<Node>,
}

impl Default for StateTree {
    fn default() -> Self {
        StateTree { root: Arc::new(Node::page(Box::default(), 0)) }
    }
}

impl std::fmt::Debug for StateTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateTree")
            .field("entries", &self.len())
            .field("bytes", &self.byte_len())
            .finish_non_exhaustive()
    }
}

/// Equal contents have equal roots, so trees compare by root.
impl PartialEq for StateTree {
    fn eq(&self, other: &Self) -> bool {
        self.root() == other.root()
    }
}

impl Eq for StateTree {}

impl StateTree {
    /// Rebuilds a tree from snapshot bytes, from scratch; `None` unless
    /// they are exactly the framing [`write_to`](Self::write_to) emits.
    pub(crate) fn from_snapshot(bytes: &[u8]) -> Option<StateTree> {
        let run = parse(bytes)?;
        Some(StateTree { root: Arc::new(build(bytes, &run)) })
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.root.len()
    }

    /// Byte length of the snapshot [`write_to`](Self::write_to) produces.
    pub(crate) fn byte_len(&self) -> usize {
        self.root.byte_len()
    }

    /// The Merkle root. Rehashes only nodes written since they were last
    /// digested.
    pub(crate) fn root(&self) -> [u8; 32] {
        self.root.digest()
    }

    /// The value stored under `key`.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let mut node = &*self.root;
        loop {
            match &node.body {
                Body::Page(page) => return locate(page, key).ok().map(|e| e.value),
                Body::Branch(branch) => {
                    if !key.starts_with(&branch.prefix) {
                        return None;
                    }
                    let s = slot_of(key, branch.prefix.len());
                    let i = branch.children.binary_search_by_key(&s, |(s, _)| *s).ok()?;
                    node = &branch.children.get(i)?.1;
                }
            }
        }
    }

    /// Stores `key → value`. The value it replaces, if any, is lent to
    /// `replaced` just before it is overwritten: a caller that wants it
    /// copies it there, one that does not pays nothing. `key` must be at
    /// most [`MAX_KEY_LEN`] bytes: callers refuse longer ones.
    pub(crate) fn insert(&mut self, key: &[u8], value: &[u8], replaced: impl FnOnce(&[u8])) {
        debug_assert!(key.len() <= MAX_KEY_LEN, "callers bound keys: depth is bounded by it");
        Node::insert(&mut self.root, key, value, replaced);
    }

    /// Deletes `key` and returns the value it held.
    pub(crate) fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        // A miss must not copy shared pages or drop cached digests.
        self.get(key)?;
        Node::remove(&mut self.root, key)
    }

    /// Appends the snapshot — every pair, framed, in key order — to `out`.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        self.root.pages(&mut |page| out.extend_from_slice(page));
    }

    /// Bytes the tree holds (see `Node::footprint`).
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        self.root.footprint()
    }

    /// Visits every `(key, value)` in key order.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(&[u8], &[u8])) {
        self.root.pages(&mut |page| entries(page).for_each(|e| visit(e.key, e.value)));
    }
}

/// Snapshots framed with a hostile varint in each way one can be, each
/// named; every one must be refused wherever snapshot bytes are read.
/// The first, under a reader that accepted it, would be the one-entry
/// snapshot `[0x00, 0x01, b'1']` (`"" → "1"`).
#[cfg(test)]
pub(crate) fn hostile_varint_snapshots() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("a non-minimal length", vec![0x80, 0x00, 0x01, b'1']),
        ("an 11-byte varint", [&[0x80; 10][..], &[0x01, b'1']].concat()),
        ("a 10-byte varint above u64::MAX", [&[0xFF; 9][..], &[0x02, b'1']].concat()),
        ("a varint cut off mid-value", vec![0x01, b'a', 0x81]),
        ("a length past the buffer", [&[0x01, b'a'][..], &varint(u64::MAX), b"1"].concat()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The snapshot framing of a reference map.
    fn framing(model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<u8> {
        let mut out = Vec::new();
        model.iter().for_each(|(k, v)| write_pair(&mut out, k, v));
        out
    }

    fn snapshot(tree: &StateTree) -> Vec<u8> {
        let mut out = Vec::new();
        tree.write_to(&mut out);
        out
    }

    fn hashed_by(work: impl FnOnce()) -> u64 {
        HASHED.with(|n| n.set(0));
        work();
        HASHED.with(|n| n.get())
    }

    /// Every structural rule of the module docs, checked node by node.
    fn check_shape(node: &Node, inherited: &[u8]) {
        match &node.body {
            Body::Page(page) => {
                assert!(node.len() <= PAGE_CAP);
                assert_eq!(entries(page).count(), node.len());
                assert_eq!(entries(page).last().map_or(0, |e| e.end), page.len());
                assert!(entries(page).all(|e| e.key.starts_with(inherited)));
            }
            Body::Branch(branch) => {
                let Branch { prefix, bytes, children } = &**branch;
                assert!(node.len() > PAGE_CAP && children.len() >= 2);
                assert!(prefix.starts_with(inherited));
                assert!(children.windows(2).all(|w| w[0].0 < w[1].0));
                assert_eq!(children.iter().map(|(_, c)| c.len()).sum::<usize>(), node.len());
                assert_eq!(children.iter().map(|(_, c)| c.byte_len()).sum::<usize>(), *bytes);
                for (slot, child) in children {
                    assert!(child.entries > 0);
                    let mut below = prefix.to_vec();
                    match slot.checked_sub(1) {
                        Some(byte) => below.push(byte as u8),
                        None => assert_eq!(child.entries, 1, "only the prefix itself ends here"),
                    }
                    check_shape(child, &below);
                }
            }
        }
    }

    /// A long mixed run over keys built to collide: the empty key, keys
    /// that are prefixes of one another, 0x00 and 0xFF bytes, and enough
    /// of them under one prefix that pages split, split again, and — as
    /// deletes outnumber writes in the second half — collapse.
    #[test]
    fn a_mixed_run_tracks_the_reference_map_and_keeps_the_canonical_shape() {
        let mut tree = StateTree::default();
        let mut model = BTreeMap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let alphabet = [0x00u8, b'a', b'b', 0xFF];
        for step in 0..6_000 {
            let key: Vec<u8> = (0..next() % 7).map(|_| alphabet[next() % 4]).collect();
            let deletes = if step < 3_000 { 1 } else { 3 };
            if next() % 4 < deletes {
                assert_eq!(tree.remove(&key), model.remove(&key), "step {step}");
            } else {
                let value = vec![step as u8; next() % 24];
                let mut old = None;
                tree.insert(&key, &value, |v| old = Some(v.to_vec()));
                assert_eq!(old, model.insert(key, value), "step {step}");
            }
            assert_eq!((tree.len(), tree.byte_len()), (model.len(), framing(&model).len()));
            if step % 50 == 0 {
                check_shape(&tree.root, b"");
                let bytes = snapshot(&tree);
                assert_eq!(bytes, framing(&model), "step {step}");
                let rebuilt = StateTree::from_snapshot(&bytes).expect("own snapshot");
                assert_eq!(rebuilt.root(), tree.root(), "step {step}");
                for (k, v) in &model {
                    assert_eq!(tree.get(k), Some(v.as_slice()));
                }
            }
        }
        assert!(model.len() > 4 * PAGE_CAP, "the run must have split pages: {}", model.len());
        let full: Vec<Vec<u8>> = model.keys().cloned().collect();
        for key in &full {
            tree.remove(key);
            check_shape(&tree.root, b"");
        }
        assert_eq!((tree.len(), tree.byte_len(), tree.root()), (0, 0, StateTree::default().root()));
    }

    #[test]
    fn the_root_depends_on_the_contents_not_on_their_history() {
        let keys: Vec<Vec<u8>> =
            (0..5 * PAGE_CAP).map(|i| format!("user/{i:03}").into_bytes()).collect();
        let mut ascending = StateTree::default();
        let mut descending = StateTree::default();
        let mut churned = StateTree::default();
        for key in &keys {
            ascending.insert(key, b"v", |_| {});
        }
        for key in keys.iter().rev() {
            descending.insert(key, b"v", |_| {});
        }
        for key in &keys {
            churned.insert(key, b"another value", |_| {});
            churned.insert(&[key.as_slice(), b"/tmp"].concat(), b"x", |_| {});
        }
        churned.insert(b"unrelated", b"x", |_| {});
        for key in &keys {
            churned.remove(&[key.as_slice(), b"/tmp"].concat());
            churned.insert(key, b"v", |_| {});
        }
        churned.remove(b"unrelated");
        assert_eq!(ascending.root(), descending.root());
        assert_eq!(ascending.root(), churned.root());
        assert_eq!(snapshot(&ascending), snapshot(&churned));
        // And on nothing else: one value differs, the root differs.
        churned.insert(&keys[7], b"w", |_| {});
        assert_ne!(ascending.root(), churned.root());
    }

    #[test]
    fn a_clone_shares_pages_until_they_are_written_and_never_moves() {
        let mut live = StateTree::default();
        for i in 0..2_000 {
            live.insert(format!("k{}.{i}", i % 8).as_bytes(), b"value", |_| {});
        }
        let retained = live.clone();
        let (root, bytes) = (retained.root(), snapshot(&retained));
        // Rehashing after one write touches one path, not the state.
        let one_write = hashed_by(|| {
            live.insert(b"k3.500", b"other", |_| {});
            live.root();
        });
        assert!(one_write < (bytes.len() / 20) as u64, "{one_write} of {} bytes", bytes.len());
        for i in 0..2_000 {
            live.insert(format!("k{}.{i}", i % 8).as_bytes(), b"overwritten", |_| {});
            live.remove(format!("k{}.{}", i % 8, i + 1).as_bytes());
        }
        assert_eq!((retained.root(), snapshot(&retained)), (root, bytes));
        assert_ne!(live.root(), root);
        // An unchanged tree rehashes nothing at all.
        assert_eq!(hashed_by(|| _ = live.root()), 0);
        // A miss changes nothing, so it invalidates nothing.
        assert_eq!(live.remove(b"absent"), None);
        assert_eq!(hashed_by(|| _ = live.root()), 0);
    }

    /// The point of the tree: digesting after 256 fresh writes costs the
    /// pages those writes touched, whatever the size of the state. Keys
    /// and values have the shape of the harness's workload (8 clients,
    /// `k{client}.{seq}`, each op a new key).
    #[test]
    fn rehash_work_follows_the_writes_not_the_state() {
        let write = |tree: &mut StateTree, op: usize| {
            let key = format!("k{}.{}", op % 8, op / 8);
            tree.insert(key.as_bytes(), &[op as u8; 100], |_| {});
        };
        let rehash_after_256 = |keys: usize| {
            let mut tree = StateTree::default();
            (0..keys).for_each(|op| write(&mut tree, op));
            tree.root();
            let hashed = hashed_by(|| {
                (keys..keys + 256).for_each(|op| write(&mut tree, op));
                tree.root();
            });
            (hashed, tree.byte_len() as u64)
        };
        let (small, _) = rehash_after_256(10_000);
        let (large, state) = rehash_after_256(100_000);
        assert!(small <= 2 * large && large <= 2 * small, "10^4: {small} B, 10^5: {large} B");
        assert!(large * 20 < state, "{large} B rehashed of a {state} B state");
    }

    /// A page holds its framed pairs and nothing more: after 10⁵ writes of
    /// `k{user}.{seq}` keys scattered over 40 000 users, each page counts
    /// exactly its pairs' framing, and the tree costs at most 36 bytes a
    /// pair: 33.4, 29.7 of them the framing (48.9 while pages kept a
    /// growing buffer's slack and nodes were 104 bytes).
    #[test]
    fn scattered_writes_leave_pages_at_their_framed_length() {
        fn check(node: &Node) {
            match &node.body {
                Body::Page(page) => {
                    let pairs: usize =
                        entries(page).map(|e| framed(e.key.len()) + framed(e.value.len())).sum();
                    assert_eq!(node.footprint() - std::mem::size_of::<Node>(), pairs);
                }
                Body::Branch(branch) => branch.children.iter().for_each(|(_, c)| check(c)),
            }
        }
        let mut tree = StateTree::default();
        for i in 0..100_000u64 {
            let key = format!("k{}.{}", (i * 7_919) % 40_000, i / 40_000);
            tree.insert(key.as_bytes(), &[b'v'; 20], |_| {});
        }
        check(&tree.root);
        let per_pair = tree.footprint() as f64 / 1e5;
        assert!(per_pair <= 36.0, "{per_pair:.1} bytes per pair");
    }

    #[test]
    fn malformed_snapshots_do_not_build() {
        let pair = |k: &[u8], v: &[u8]| [&len_of(k)[..], k, &len_of(v)[..], v].concat();
        let good = [pair(b"a", b"1"), pair(b"ab", b"2")].concat();
        assert!(StateTree::from_snapshot(&good).is_some());
        assert!(StateTree::from_snapshot(&good[..good.len() - 1]).is_none(), "truncated");
        assert!(StateTree::from_snapshot(&[&good[..], &[0]].concat()).is_none(), "trailing byte");
        let swapped = [pair(b"ab", b"2"), pair(b"a", b"1")].concat();
        assert!(StateTree::from_snapshot(&swapped).is_none(), "descending");
        let twice = [pair(b"a", b"1"), pair(b"a", b"1")].concat();
        assert!(StateTree::from_snapshot(&twice).is_none(), "duplicate");
        for (what, bytes) in hostile_varint_snapshots() {
            assert!(StateTree::from_snapshot(&bytes).is_none(), "{what}");
        }
        let long = pair(&[b'k'; MAX_KEY_LEN + 1], b"v");
        assert!(StateTree::from_snapshot(&long).is_none(), "a key no store accepts");
        assert!(StateTree::from_snapshot(&pair(&[b'k'; MAX_KEY_LEN], b"v")).is_some());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every `u64` — of every encoded length, as the shift picks it —
        /// reads back from its own bytes, and from no longer spelling of
        /// the same value.
        #[test]
        fn varints_round_trip_and_have_one_encoding(
            n in any::<u64>(), shift in 0u32..64,
        ) {
            let n = n >> shift;
            let bytes = varint(n);
            let mut at = 0;
            prop_assert_eq!(read_varint(&bytes, &mut at), Some(n));
            prop_assert_eq!(at, bytes.len());
            // Pad it: the last byte continues into zero-valued bytes.
            let mut padded = bytes.to_vec();
            while padded.len() < 11 {
                if let Some(last) = padded.last_mut() {
                    *last |= 0x80;
                }
                padded.push(0);
                prop_assert_eq!(read_varint(&padded, &mut 0), None, "{:?}", padded);
            }
        }
    }
}
