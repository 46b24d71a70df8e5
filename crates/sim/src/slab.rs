//! Slab arena with an intrusive freelist — the allocation-free backing
//! store for event queues.
//!
//! Discrete-event hot paths (the BFT protocol harness, the NoC flight
//! table) previously paid one heap allocation per queued event (`BTreeMap` nodes keyed by a monotonically
//! growing id). A [`Slab`] keeps every entry in one contiguous `Vec`:
//! freed slots are chained into an intrusive freelist and reused by the
//! next insert, so steady-state event traffic allocates nothing and both
//! insert and remove are O(1).
//!
//! Slot indices are *stable* (an entry never moves while it is live) but
//! *reused* after removal — a slab index identifies a slot, not an event.
//! Callers that need a total order over events (tie-breaking a priority
//! queue) must carry their own monotone sequence number alongside the
//! index; reusing the index as the tiebreak would reorder events.

/// A slot entry: either a live value or a link in the freelist.
#[derive(Debug)]
enum Entry<T> {
    Occupied(T),
    /// Free slot; `next` is the index of the next free slot, or
    /// [`Slab::NIL`] at the end of the freelist.
    Free {
        next: u32,
    },
}

/// A vector-backed arena with O(1) insert and remove and stable indices.
///
/// # Example
/// ```
/// use rsoc_sim::Slab;
/// let mut slab: Slab<&str> = Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.remove(a), Some("alpha"));
/// // Freed slots are reused before the vector grows.
/// let c = slab.insert("gamma");
/// assert_eq!(c, a);
/// assert_eq!(slab.get(b), Some(&"beta"));
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Freelist terminator (also the maximum representable slot count).
    const NIL: u32 = u32::MAX;

    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab { entries: Vec::new(), free_head: Self::NIL, len: 0 }
    }

    /// Creates an empty slab with room for `cap` entries before growing.
    pub fn with_capacity(cap: usize) -> Self {
        Slab { entries: Vec::with_capacity(cap), free_head: Self::NIL, len: 0 }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots owned (live + free), i.e. the high-water mark.
    pub fn slot_count(&self) -> usize {
        self.entries.len()
    }

    /// Inserts `value`, returning its slot index. Reuses a freed slot when
    /// one exists; grows the backing vector (amortized O(1)) otherwise.
    ///
    /// # Panics
    /// Panics if the slab would exceed `u32::MAX - 1` slots.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free_head != Self::NIL {
            let slot = self.free_head;
            match self.entries[slot as usize] {
                Entry::Free { next } => self.free_head = next,
                Entry::Occupied(_) => unreachable!("freelist head must be free"),
            }
            self.entries[slot as usize] = Entry::Occupied(value);
            slot
        } else {
            let slot = self.entries.len();
            assert!(slot < Self::NIL as usize, "slab exhausted u32 index space");
            self.entries.push(Entry::Occupied(value));
            slot as u32
        }
    }

    /// Removes and returns the value at `slot`, or `None` if the slot is
    /// vacant (or out of range). The slot becomes reusable immediately.
    pub fn remove(&mut self, slot: u32) -> Option<T> {
        let entry = self.entries.get_mut(slot as usize)?;
        if matches!(entry, Entry::Free { .. }) {
            return None;
        }
        let taken = std::mem::replace(entry, Entry::Free { next: self.free_head });
        self.free_head = slot;
        self.len -= 1;
        match taken {
            Entry::Occupied(v) => Some(v),
            Entry::Free { .. } => unreachable!("checked occupied above"),
        }
    }

    /// Borrows the value at `slot`, if live.
    pub fn get(&self, slot: u32) -> Option<&T> {
        match self.entries.get(slot as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Mutably borrows the value at `slot`, if live.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        match self.entries.get_mut(slot as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Drops every entry and resets the freelist, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.free_head = Self::NIL;
        self.len = 0;
    }

    /// Iterates over `(slot, &value)` for every live entry, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| match e {
            Entry::Occupied(v) => Some((i as u32, v)),
            Entry::Free { .. } => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: Slab<u64> = Slab::new();
        assert!(s.is_empty());
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&10));
        assert_eq!(s.get_mut(b).map(|v| std::mem::replace(v, 21)), Some(20));
        assert_eq!(s.remove(b), Some(21));
        assert_eq!(s.get(b), None, "vacated slot reads as empty");
        assert_eq!(s.remove(b), None, "double remove is refused");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slots_are_reused_after_free_lifo() {
        let mut s: Slab<&str> = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        let c = s.insert("c");
        assert_eq!(s.slot_count(), 3);
        s.remove(a);
        s.remove(c);
        // LIFO freelist: most recently freed slot comes back first, and no
        // new slots are allocated until the freelist is exhausted.
        assert_eq!(s.insert("c2"), c);
        assert_eq!(s.insert("a2"), a);
        assert_eq!(s.slot_count(), 3, "no growth while free slots exist");
        let d = s.insert("d");
        assert_eq!(d, 3, "freelist empty -> vector grows");
        assert_eq!(s.get(b), Some(&"b"), "live entries survive neighbours' churn");
    }

    #[test]
    fn reuse_does_not_resurrect_old_values() {
        let mut s: Slab<Vec<u8>> = Slab::new();
        let a = s.insert(vec![1, 2, 3]);
        s.remove(a);
        let b = s.insert(vec![9]);
        assert_eq!(a, b);
        assert_eq!(s.get(b), Some(&vec![9]), "slot carries only the new value");
    }

    #[test]
    fn heavy_churn_stays_compact() {
        let mut s: Slab<u64> = Slab::new();
        let mut live: Vec<u32> = Vec::new();
        // Interleave inserts and removes; the arena footprint must track
        // the peak live population, not the total event count.
        for i in 0..10_000u64 {
            live.push(s.insert(i));
            if i % 3 == 0 {
                let idx = live.remove((i as usize * 7) % live.len());
                assert!(s.remove(idx).is_some());
            }
        }
        assert_eq!(s.len(), live.len());
        assert!(s.slot_count() <= live.len() + 1, "footprint tracks peak live set");
    }

    #[test]
    fn out_of_range_access_is_none() {
        let mut s: Slab<u8> = Slab::new();
        assert_eq!(s.get(0), None);
        assert_eq!(s.remove(99), None);
        s.insert(1);
        assert_eq!(s.get(7), None);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.insert(1);
        s.insert(2);
        s.remove(a);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.slot_count(), 0);
        assert_eq!(s.insert(9), 0, "indices restart after clear");
    }

    #[test]
    fn iter_visits_live_entries_in_slot_order() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.insert(1);
        s.insert(2);
        let c = s.insert(3);
        s.remove(a);
        s.remove(c);
        s.insert(4); // reuses slot c (LIFO)
        let seen: Vec<(u32, u8)> = s.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(seen, vec![(1, 2), (2, 4)]);
    }
}
