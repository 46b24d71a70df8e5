//! Dense replica-state containers for the protocol hot path.
//!
//! PR 3 profiling left per-message replica bookkeeping as the largest
//! non-crypto cost on the mesh cells (~5–7 µs/op): every protocol phase
//! touched `BTreeMap`s keyed by sequence numbers and [`OpId`]s, paying a
//! pointer-chasing tree walk plus a node allocation per insert. The three
//! containers here replace those maps with flat storage:
//!
//! * [`SeqWindow`] — a ring-buffer map for *dense, monotonically
//!   advancing* sequence-number keys (agreement slots, stored proposals,
//!   hold-back queues). Anchored at a low-watermark: entries below it are
//!   *retired* and can never be resurrected, which doubles as slot GC.
//! * [`OpIndex`] — an open-addressed hash index for *sparse* [`OpId`]
//!   keys (op→slot assignment, pending watchlists), or [`ClientId`] keys
//!   (recently written client sessions). Linear probing with tombstones,
//!   power-of-two capacity, vendored so the workspace keeps its
//!   no-external-deps invariant.
//! * [`ReplicaSet`] — a bitset over replica ids for quorum tallies
//!   (prepare/commit certificates), replacing per-vote `BTreeSet` nodes
//!   with a single word.
//!
//! All three are deterministic: iteration order is a pure function of the
//! operation history, never of pointer values or random hash seeds.

use crate::api::{ClientId, OpId};

// ---------------------------------------------------------------- SeqWindow

/// How far above its watermark an agreement window takes a slot that a
/// peer's message names. The ring grows to the highest slot it stores, so
/// without this bound one PBFT COMMIT naming slot 2^24 took its receiver
/// from 2 MiB to 1 GiB, and slot 2^28 aborted it on a 16 GiB allocation.
/// Correct replicas stay far inside it: the largest lead any f2 / f5 / f6 /
/// f8 campaign cell or ledger workload reaches is 47 slots.
pub(crate) const SLOT_HORIZON: u64 = 4096;

/// A map from `u64` sequence numbers to `T`, backed by a ring buffer and
/// anchored at a *low-watermark* (`base`).
///
/// Keys at or above `base` live in a power-of-two ring indexed by
/// `seq & mask`; the window grows automatically when a key beyond the
/// current capacity arrives. Keys below `base` are **retired**: lookups
/// miss, and inserts are rejected (`get_or_insert_default` returns
/// `None`). Advancing the watermark with [`retire_below`](Self::retire_below)
/// drops every entry underneath it — this is how replicas garbage-collect
/// executed agreement slots while structurally refusing to resurrect them.
#[derive(Debug, Clone)]
pub struct SeqWindow<T> {
    /// Ring storage; capacity is always a power of two (or zero).
    ring: Vec<Option<T>>,
    /// Low-watermark: keys below this are retired.
    base: u64,
    /// One past the highest key ever occupied (iteration bound).
    high: u64,
    /// Occupied entry count.
    len: usize,
}

impl<T> Default for SeqWindow<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SeqWindow<T> {
    /// An empty window with watermark 0.
    pub fn new() -> Self {
        SeqWindow { ring: Vec::new(), base: 0, high: 0, len: 0 }
    }

    /// An empty window whose watermark starts at `base` (keys below it are
    /// retired from the start — e.g. USIG counters start at 1).
    pub fn with_base(base: u64) -> Self {
        SeqWindow { ring: Vec::new(), base, high: base, len: 0 }
    }

    /// The low-watermark: the smallest key that can still be stored.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// True when `seq` is below the watermark (rejected forever).
    pub fn is_retired(&self, seq: u64) -> bool {
        seq < self.base
    }

    /// Whether a message from the wire may name slot `seq`: not retired,
    /// and at most [`SLOT_HORIZON`] above the watermark. The protocols ask
    /// before they touch an agreement window on every ingress that names a
    /// slot; their own proposals do not ask.
    pub(crate) fn admits(&self, seq: u64) -> bool {
        seq >= self.base && seq - self.base <= SLOT_HORIZON
    }

    /// Slots the ring can hold without growing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Occupied entry count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> u64 {
        self.ring.len() as u64 - 1
    }

    /// Grows the ring so `seq` is representable alongside every live key.
    fn grow_for(&mut self, seq: u64) {
        let needed = (seq - self.base + 1).max(8);
        let new_cap = needed.next_power_of_two() as usize;
        let mut ring: Vec<Option<T>> = Vec::with_capacity(new_cap);
        ring.resize_with(new_cap, || None);
        let old = std::mem::replace(&mut self.ring, ring);
        if !old.is_empty() {
            let old_mask = old.len() as u64 - 1;
            let new_mask = self.mask();
            for (i, slot) in old.into_iter().enumerate() {
                if slot.is_some() {
                    // Recover the key: within the old window, the low bits
                    // identify the slot and base..high brackets the key.
                    let mut key = (self.base & !old_mask) + i as u64;
                    if key < self.base {
                        key += old_mask + 1;
                    }
                    debug_assert!(key >= self.base && key < self.high);
                    self.ring[(key & new_mask) as usize] = slot;
                }
            }
        }
    }

    fn in_window(&self, seq: u64) -> bool {
        !self.ring.is_empty() && seq >= self.base && seq - self.base < self.ring.len() as u64
    }

    // The window probe path runs once per protocol message; `rsoc_lint`
    // keeps it allocation-free (growth lives in `grow_for`, off-path).
    // lint: hot-path
    /// Shared-ref lookup; `None` for vacant or retired keys.
    pub fn get(&self, seq: u64) -> Option<&T> {
        if !self.in_window(seq) {
            return None;
        }
        self.ring[(seq & self.mask()) as usize].as_ref()
    }

    /// Mutable lookup; `None` for vacant or retired keys.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        if !self.in_window(seq) {
            return None;
        }
        let mask = self.mask();
        self.ring[(seq & mask) as usize].as_mut()
    }

    /// Inserts `value` at `seq`, returning the previous occupant. Retired
    /// keys are rejected (`None`, value dropped).
    pub fn insert(&mut self, seq: u64, value: T) -> Option<T> {
        if seq < self.base {
            return None;
        }
        if !self.in_window(seq) {
            self.grow_for(seq);
        }
        let mask = self.mask();
        let old = self.ring[(seq & mask) as usize].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        self.high = self.high.max(seq + 1);
        old
    }

    /// Removes and returns the entry at `seq` (watermark unchanged).
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        if !self.in_window(seq) {
            return None;
        }
        let mask = self.mask();
        let old = self.ring[(seq & mask) as usize].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The occupied entry at `seq`, default-initializing a vacant slot.
    /// Returns `None` — and stores nothing — when `seq` is retired.
    pub fn get_or_insert_default(&mut self, seq: u64) -> Option<&mut T>
    where
        T: Default,
    {
        if seq < self.base {
            return None;
        }
        if !self.in_window(seq) {
            self.grow_for(seq);
        }
        let mask = self.mask();
        let slot = &mut self.ring[(seq & mask) as usize];
        if slot.is_none() {
            *slot = Some(T::default());
            self.len += 1;
            self.high = self.high.max(seq + 1);
        }
        slot.as_mut()
    }
    // lint: end

    /// Advances the watermark to `new_base`, dropping every entry below it.
    /// A watermark never moves backwards.
    pub fn retire_below(&mut self, new_base: u64) {
        if new_base <= self.base {
            return;
        }
        if !self.ring.is_empty() {
            let mask = self.mask();
            let stop = new_base.min(self.high);
            for seq in self.base..stop {
                if self.ring[(seq & mask) as usize].take().is_some() {
                    self.len -= 1;
                }
            }
        }
        self.base = new_base;
        self.high = self.high.max(new_base);
    }

    /// Iterates occupied `(seq, &value)` pairs in ascending sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let mask = if self.ring.is_empty() { 0 } else { self.mask() };
        (self.base..self.high).filter_map(move |seq| {
            if self.ring.is_empty() {
                return None;
            }
            self.ring[(seq & mask) as usize].as_ref().map(|v| (seq, v))
        })
    }

    /// Iterates occupied values mutably, in ring order (NOT sequence
    /// order) — for order-insensitive passes like vote resets.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.ring.iter_mut().filter_map(|s| s.as_mut())
    }
}

// ------------------------------------------------------------------ OpIndex

/// SplitMix64's finalizer: a well-mixed 64-bit value. Fixed, seedless:
/// determinism across runs and processes is a feature here (sweep JSON
/// must be byte-identical).
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An [`OpId`] packed losslessly into three words: the client, then the
/// seq's low and high halves. It has no padding, so a bucket holding it
/// beside a `u64` or an `Arc` is 24 bytes (an `OpId`'s 4 bytes of padding
/// would leave the tag no room and make it 32), and a committed log keeps
/// 12 bytes per op, not 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key([u32; 3]);

/// A key an [`OpIndex`] holds: stored packed, hashed without a seed.
pub trait IndexKey: Copy {
    /// What a bucket stores: the key without padding.
    type Packed: Copy + Eq + std::fmt::Debug;
    /// The key as a bucket stores it.
    fn pack(self) -> Self::Packed;
    /// The key a bucket stored as `packed`.
    fn unpack(packed: Self::Packed) -> Self;
    /// A well-mixed 64-bit hash of the key.
    fn hash(self) -> u64;
}

impl IndexKey for OpId {
    type Packed = Key;

    fn pack(self) -> Key {
        Key([self.client.0, self.seq as u32, (self.seq >> 32) as u32])
    }

    fn unpack(Key([client, lo, hi]): Key) -> Self {
        OpId { client: ClientId(client), seq: (u64::from(hi) << 32) | u64::from(lo) }
    }

    fn hash(self) -> u64 {
        mix((u64::from(self.client.0) << 48) ^ self.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl IndexKey for ClientId {
    type Packed = ClientId;

    fn pack(self) -> ClientId {
        self
    }

    fn unpack(packed: ClientId) -> Self {
        packed
    }

    fn hash(self) -> u64 {
        mix(u64::from(self.0))
    }
}

#[derive(Debug, Clone)]
enum Bucket<P, V> {
    Empty,
    /// A deleted entry: probe chains continue through it, inserts reuse it.
    Tombstone,
    Full(P, V),
}

/// An open-addressed hash map from an [`OpId`] (or another [`IndexKey`])
/// to `V` — the replica-side index for op→slot assignment (`assigned`)
/// and backup watchlists (`pending`), and, keyed by [`ClientId`], for the
/// client sessions' windows written since their last checkpoint.
///
/// Linear probing over a power-of-two table with tombstone deletion:
/// removals leave a tombstone so later probes keep walking, and the
/// next insert along the chain reuses the grave. The table
/// rehashes (dropping all tombstones) when live + dead entries exceed 7/8
/// of capacity. No SipHash, no random state: the same operation history
/// always produces the same table — callers may iterate, but any
/// result that feeds protocol decisions must be order-canonicalized
/// first (sorted), which the view-change paths do. A bucket keeps an
/// `OpId` packed into three `u32`s, so with a `u64` or an `Arc` value it
/// is 24 bytes; keyed by a 4-byte `ClientId` with a `(u64, Box<[u8]>)`
/// value (a session's newest seq and its exactly sized window) it is 32.
#[derive(Debug, Clone)]
pub struct OpIndex<V, K: IndexKey = OpId> {
    buckets: Vec<Bucket<K::Packed, V>>,
    /// Live entries.
    len: usize,
    /// Tombstones (graves still blocking probe chains).
    graves: usize,
}

impl<V, K: IndexKey> Default for OpIndex<V, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, K: IndexKey> OpIndex<V, K> {
    /// An empty index (allocates on first insert).
    pub fn new() -> Self {
        OpIndex { buckets: Vec::new(), len: 0, graves: 0 }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live entries exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// Grows (or initially allocates) to `cap` buckets and rehashes every
    /// live entry, dropping tombstones.
    fn rehash_to(&mut self, cap: usize) {
        let mut buckets: Vec<Bucket<K::Packed, V>> = Vec::with_capacity(cap);
        buckets.resize_with(cap, || Bucket::Empty);
        let old = std::mem::replace(&mut self.buckets, buckets);
        self.graves = 0;
        let mask = self.mask();
        for b in old {
            if let Bucket::Full(key, v) = b {
                let mut i = (K::unpack(key).hash() as usize) & mask;
                loop {
                    if matches!(self.buckets[i], Bucket::Empty) {
                        self.buckets[i] = Bucket::Full(key, v);
                        break;
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    fn ensure_capacity(&mut self) {
        if self.buckets.is_empty() {
            self.rehash_to(16);
        } else if (self.len + self.graves + 1) * 8 > self.buckets.len() * 7 {
            // Live entries drive the new size; tombstones evaporate in the
            // rehash, so a delete-heavy workload shrinks back naturally.
            let cap = ((self.len + 1) * 2).next_power_of_two().max(16);
            self.rehash_to(cap);
        }
    }

    // The probe chains run once per request lookup; `rsoc_lint` keeps
    // them allocation-free (growth lives in `rehash_to`, off-path).
    // lint: hot-path
    /// Index of `op`'s bucket if present.
    fn find(&self, op: K) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let (key, mask) = (op.pack(), self.mask());
        let mut i = (op.hash() as usize) & mask;
        loop {
            match &self.buckets[i] {
                Bucket::Empty => return None,
                Bucket::Full(k, _) if *k == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Shared-ref lookup.
    pub fn get(&self, op: &K) -> Option<&V> {
        self.find(*op).map(|i| match &self.buckets[i] {
            Bucket::Full(_, v) => v,
            _ => unreachable!("find returns full buckets"),
        })
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, op: &K) -> Option<&mut V> {
        let i = self.find(*op)?;
        match &mut self.buckets[i] {
            Bucket::Full(_, v) => Some(v),
            _ => unreachable!("find returns full buckets"),
        }
    }

    /// True when `op` has a live entry.
    pub fn contains_key(&self, op: &K) -> bool {
        self.find(*op).is_some()
    }

    /// Inserts `op → value`, returning the displaced value if any. The
    /// first tombstone along the probe chain is reused for new keys.
    pub fn insert(&mut self, op: K, value: V) -> Option<V> {
        self.ensure_capacity();
        let (key, mask) = (op.pack(), self.mask());
        let mut i = (op.hash() as usize) & mask;
        let mut grave: Option<usize> = None;
        loop {
            match &mut self.buckets[i] {
                Bucket::Full(k, v) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Bucket::Tombstone => {
                    if grave.is_none() {
                        grave = Some(i);
                    }
                    i = (i + 1) & mask;
                }
                Bucket::Empty => {
                    let slot = match grave {
                        Some(g) => {
                            self.graves -= 1;
                            g
                        }
                        None => i,
                    };
                    self.buckets[slot] = Bucket::Full(key, value);
                    self.len += 1;
                    return None;
                }
                Bucket::Full(..) => i = (i + 1) & mask,
            }
        }
    }

    /// Removes `op`, leaving a tombstone so probe chains stay intact.
    pub fn remove(&mut self, op: &K) -> Option<V> {
        let i = self.find(*op)?;
        let old = std::mem::replace(&mut self.buckets[i], Bucket::Tombstone);
        self.len -= 1;
        self.graves += 1;
        match old {
            Bucket::Full(_, v) => Some(v),
            _ => unreachable!("find returns full buckets"),
        }
    }

    // lint: end

    /// Iterates live `(key, &V)` entries in *table* order — deterministic
    /// for a given operation history, but NOT canonical. Callers whose
    /// results depend on order must sort (see `OpIndex` docs).
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.buckets.iter().filter_map(|b| match b {
            Bucket::Full(k, v) => Some((K::unpack(*k), v)),
            _ => None,
        })
    }

    /// Live `(key, &V)` entries in key order — for an `OpId` `(client,
    /// seq)`, the canonical order for protocol decisions (view-change
    /// re-batching).
    pub fn iter_canonical(&self) -> Vec<(K, &V)>
    where
        K: Ord,
    {
        let mut all: Vec<(K, &V)> = self.iter().collect();
        all.sort_unstable_by_key(|(key, _)| *key);
        all
    }

    /// Bytes the table holds: buckets × bucket size.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<Bucket<K::Packed, V>>()
    }
}

/// Packs an `OpId` into the `u64` timer-token space (client in the high
/// 32 bits). A replica refuses a request whose client seq exceeds
/// `u32::MAX` before intake, so every op minted here fits; the debug
/// assert enforces that instead of letting a truncated token silently
/// dead-letter a patience timer.
pub fn op_token(op: OpId) -> u64 {
    debug_assert!(op.seq >> 32 == 0, "client sequence exceeds the token space");
    ((op.client.0 as u64) << 32) | (op.seq & 0xFFFF_FFFF)
}

/// Recovers the [`OpId`] a timer token was minted from.
pub fn token_op(token: u64) -> OpId {
    OpId { client: ClientId((token >> 32) as u32), seq: token & 0xFFFF_FFFF }
}

// --------------------------------------------------------------- ReplicaSet

/// The largest cluster a [`ReplicaSet`] can tally: 64 replicas (f ≤ 21 for
/// PBFT, f ≤ 31 for MinBFT), far beyond any on-chip configuration in the
/// experiments. Cluster provisioning and the TCP binaries refuse more.
pub const MAX_REPLICAS: u32 = 64;

/// A set of replica ids as a 64-bit mask — quorum tallies without a heap
/// allocation per vote, for clusters of up to [`MAX_REPLICAS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaSet(u64);

impl ReplicaSet {
    /// The empty set.
    pub fn new() -> Self {
        ReplicaSet(0)
    }

    /// Adds replica `id`; returns `true` when newly inserted.
    ///
    /// # Panics
    /// Debug-panics for ids ≥ 64.
    pub fn insert(&mut self, id: crate::api::ReplicaId) -> bool {
        debug_assert!(id.0 < MAX_REPLICAS, "ReplicaSet supports up to 64 replicas");
        let bit = 1u64 << (id.0 & 63);
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// True when `id` is in the set.
    pub fn contains(&self, id: crate::api::ReplicaId) -> bool {
        self.0 & (1u64 << (id.0 & 63)) != 0
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True for the empty set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.0 = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ClientId, ReplicaId, Request};
    use std::sync::Arc;

    fn op(client: u32, seq: u64) -> OpId {
        OpId { client: ClientId(client), seq }
    }

    // ---------------- SeqWindow ----------------

    #[test]
    fn seq_window_basic_ops() {
        let mut w: SeqWindow<String> = SeqWindow::new();
        assert!(w.is_empty());
        assert_eq!(w.insert(3, "three".into()), None);
        assert_eq!(w.insert(1, "one".into()), None);
        assert_eq!(w.get(3).map(String::as_str), Some("three"));
        assert_eq!(w.get(2), None);
        assert_eq!(w.insert(3, "THREE".into()).as_deref(), Some("three"));
        assert_eq!(w.len(), 2);
        assert_eq!(w.remove(1).as_deref(), Some("one"));
        assert_eq!(w.remove(1), None);
        assert_eq!(w.len(), 1);
        *w.get_mut(3).unwrap() = "iii".into();
        assert_eq!(w.get(3).map(String::as_str), Some("iii"));
    }

    #[test]
    fn seq_window_grows_preserving_entries() {
        let mut w: SeqWindow<u64> = SeqWindow::new();
        for seq in 1..=200 {
            w.insert(seq, seq * 10);
        }
        assert_eq!(w.len(), 200);
        for seq in 1..=200 {
            assert_eq!(w.get(seq), Some(&(seq * 10)), "seq {seq} lost in growth");
        }
        let collected: Vec<u64> = w.iter().map(|(s, _)| s).collect();
        let expected: Vec<u64> = (1..=200).collect();
        assert_eq!(collected, expected, "iteration is ascending and complete");
    }

    #[test]
    fn seq_window_watermark_rejects_not_resurrects() {
        let mut w: SeqWindow<u32> = SeqWindow::new();
        for seq in 1..=10 {
            w.insert(seq, seq as u32);
        }
        w.retire_below(6);
        assert_eq!(w.base(), 6);
        assert_eq!(w.len(), 5);
        for seq in 1..=5 {
            assert!(w.is_retired(seq));
            assert_eq!(w.get(seq), None, "retired entry visible");
            // A late message for a retired slot must be rejected, not
            // resurrected into a fresh slot.
            assert_eq!(w.insert(seq, 99), None);
            assert_eq!(w.get(seq), None, "retired slot resurrected");
            assert!(w.get_or_insert_default(seq).is_none());
        }
        for seq in 6..=10 {
            assert_eq!(w.get(seq), Some(&(seq as u32)));
        }
        // Watermark never regresses.
        w.retire_below(2);
        assert_eq!(w.base(), 6);
    }

    #[test]
    fn seq_window_reuses_ring_slots_after_retirement() {
        let mut w: SeqWindow<u64> = SeqWindow::new();
        // Sliding-window usage: the ring capacity must stay bounded by the
        // window span, not the total key count.
        for seq in 0..10_000u64 {
            w.insert(seq, seq);
            if seq >= 8 {
                w.retire_below(seq - 7);
            }
        }
        assert!(w.ring.len() <= 32, "ring grew unbounded: {}", w.ring.len());
        assert_eq!(w.len(), 8, "final window spans keys 9992..=9999");
    }

    #[test]
    fn seq_window_with_base_and_default_entry() {
        let mut w: SeqWindow<Vec<u8>> = SeqWindow::with_base(1);
        assert!(w.get_or_insert_default(0).is_none(), "below initial base");
        w.get_or_insert_default(4).unwrap().push(7);
        assert_eq!(w.get(4), Some(&vec![7]));
        w.get_or_insert_default(4).unwrap().push(8);
        assert_eq!(w.get(4), Some(&vec![7, 8]));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn seq_window_values_mut_visits_all() {
        let mut w: SeqWindow<u32> = SeqWindow::new();
        for seq in [2u64, 5, 9] {
            w.insert(seq, 1);
        }
        for v in w.values_mut() {
            *v += 1;
        }
        assert_eq!(w.iter().map(|(_, v)| *v).sum::<u32>(), 6);
    }

    // ---------------- OpIndex ----------------

    #[test]
    fn op_index_basic_ops() {
        let mut m: OpIndex<u64> = OpIndex::new();
        assert!(m.is_empty());
        assert_eq!(m.get(&op(1, 1)), None);
        assert_eq!(m.insert(op(1, 1), 10), None);
        assert_eq!(m.insert(op(2, 1), 20), None);
        assert_eq!(m.insert(op(1, 1), 11), Some(10));
        assert_eq!(m.len(), 2);
        assert!(m.contains_key(&op(1, 1)));
        assert!(!m.contains_key(&op(3, 1)));
        *m.get_mut(&op(2, 1)).unwrap() += 5;
        assert_eq!(m.get(&op(2, 1)), Some(&25));
        assert_eq!(m.remove(&op(2, 1)), Some(25));
        assert_eq!(m.remove(&op(2, 1)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn op_index_tombstones_are_reused_and_chains_survive() {
        let mut m: OpIndex<u64> = OpIndex::new();
        // Build a cluster of keys, then punch holes in it: lookups past the
        // graves must still succeed (probe chains run through tombstones).
        for seq in 1..=12 {
            m.insert(op(7, seq), seq);
        }
        let cap_before = m.buckets.len();
        for seq in [2u64, 5, 8, 11] {
            assert_eq!(m.remove(&op(7, seq)), Some(seq));
        }
        assert_eq!(m.graves, 4, "removals leave tombstones");
        for seq in [1u64, 3, 4, 6, 7, 9, 10, 12] {
            assert_eq!(m.get(&op(7, seq)), Some(&seq), "chain broken at {seq}");
        }
        // Re-inserting reuses graves instead of consuming fresh buckets.
        for seq in [2u64, 5, 8, 11] {
            m.insert(op(7, seq), seq * 100);
        }
        assert_eq!(m.graves, 0, "graves reused by inserts");
        assert_eq!(m.buckets.len(), cap_before, "no growth needed");
        for seq in 1..=12 {
            assert!(m.contains_key(&op(7, seq)));
        }
    }

    #[test]
    fn op_index_growth_rehash_preserves_entries_and_drops_graves() {
        let mut m: OpIndex<u64> = OpIndex::new();
        for seq in 1..=500 {
            m.insert(op((seq % 13) as u32, seq), seq);
            if seq % 3 == 0 {
                m.remove(&op((seq % 13) as u32, seq));
            }
        }
        let live = 500 - 500 / 3;
        assert_eq!(m.len(), live);
        assert!(m.buckets.len().is_power_of_two());
        assert!(m.len() * 8 <= m.buckets.len() * 7, "load factor respected");
        for seq in 1..=500u64 {
            let key = op((seq % 13) as u32, seq);
            if seq % 3 == 0 {
                assert!(!m.contains_key(&key));
            } else {
                assert_eq!(m.get(&key), Some(&seq), "entry lost in rehash");
            }
        }
    }

    #[test]
    fn op_index_iteration_order_does_not_leak_into_results() {
        // Two different operation histories with the same final content:
        // raw iteration order may differ, but any order-canonicalized
        // result (and all lookups) must be identical.
        let keys: Vec<OpId> = (1..=50).map(|s| op((s % 5) as u32, s)).collect();
        let mut a: OpIndex<u64> = OpIndex::new();
        for k in &keys {
            a.insert(*k, k.seq);
        }
        let mut b: OpIndex<u64> = OpIndex::new();
        // History B: insert in reverse with interleaved delete/re-insert
        // churn (different tombstone layout, possibly different capacity).
        for k in keys.iter().rev() {
            b.insert(*k, 0);
            b.remove(k);
            b.insert(*k, k.seq);
        }
        assert_eq!(a.len(), b.len());
        let canon = |m: &OpIndex<u64>| -> Vec<(u32, u64, u64)> {
            m.iter_canonical().iter().map(|(k, v)| (k.client.0, k.seq, **v)).collect()
        };
        assert_eq!(canon(&a), canon(&b), "canonical views must agree");
        for k in &keys {
            assert_eq!(a.get(k), b.get(k));
        }
    }

    #[test]
    fn op_index_buckets_are_24_bytes_and_keys_round_trip() {
        assert_eq!(std::mem::size_of::<Bucket<Key, u64>>(), 24);
        assert_eq!(std::mem::size_of::<Bucket<Key, Arc<Request>>>(), 24);
        // A session's bucket: keyed by client, its newest seq and window.
        assert_eq!(std::mem::size_of::<Bucket<ClientId, (u64, Box<[u8]>)>>(), 32);
        let mut m: OpIndex<u64> = OpIndex::new();
        let keys = [op(u32::MAX, u64::MAX), op(1, 1 << 32), op(1, 0), op(0, u64::MAX >> 1)];
        for (v, k) in (0..).zip(keys) {
            m.insert(k, v);
        }
        for (v, k) in (0..).zip(keys) {
            assert_eq!(m.get(&k), Some(&v));
        }
        let mut iterated: Vec<OpId> = m.iter().map(|(k, _)| k).collect();
        iterated.sort_unstable_by_key(|k| (k.client.0, k.seq));
        let mut sorted = keys;
        sorted.sort_unstable_by_key(|k| (k.client.0, k.seq));
        assert_eq!(iterated, sorted);
    }

    #[test]
    fn op_token_roundtrip() {
        let k = op(0xDEAD, 0xBEEF);
        assert_eq!(token_op(op_token(k)), k);
    }

    // ---------------- ReplicaSet ----------------

    #[test]
    fn replica_set_tallies_votes() {
        let mut s = ReplicaSet::new();
        assert!(s.is_empty());
        assert!(s.insert(ReplicaId(3)));
        assert!(!s.insert(ReplicaId(3)), "duplicate vote not double-counted");
        assert!(s.insert(ReplicaId(0)));
        assert!(s.insert(ReplicaId(63)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(ReplicaId(63)));
        assert!(!s.contains(ReplicaId(7)));
        s.clear();
        assert!(s.is_empty());
    }
}
