//! Deterministic state machines replicated by the protocols.
//!
//! The paper's SMR claims are payload-agnostic; these machines give the
//! examples and experiments realistic commands (a key-value store for
//! generic services, a counter for quick tests, and an actuator-command
//! arbiter for the automotive scenario).

use std::collections::BTreeMap;

/// A deterministic state machine: same command sequence → same results.
pub trait StateMachine: std::fmt::Debug {
    /// Applies a command, returning its result. Must be deterministic.
    fn apply(&mut self, command: &[u8]) -> Vec<u8>;

    /// A digest of current state (for divergence checks in tests).
    fn state_digest(&self) -> [u8; 32];
}

/// A simple ordered key-value store.
///
/// Wire format (text, for debuggability):
/// `SET key value` | `GET key` | `DEL key`.
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Byte length of [`snapshot`](Self::snapshot), kept current by
    /// `apply` so a checkpoint sizes its image without walking the map.
    snapshot_len: usize,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Serializes the store for state transfer. The framing is **exactly**
    /// the byte stream [`state_digest`](StateMachine::state_digest) hashes
    /// (length-framed `(key, value)` pairs in `BTreeMap` order), so
    /// `sha256(snapshot) == state_digest()` — a checkpoint certificate
    /// over the digest certifies the snapshot bytes directly, with no
    /// second serialization format to keep in sync.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.snapshot_len);
        self.write_snapshot(&mut bytes);
        bytes
    }

    /// Byte length of [`snapshot`](Self::snapshot).
    pub(crate) fn snapshot_len(&self) -> usize {
        self.snapshot_len
    }

    /// Appends the [`snapshot`](Self::snapshot) bytes to `out`. A
    /// checkpoint frames them straight into its exactly-sized image: a
    /// state-sized temporary grown by doubling, allocated between the
    /// long-lived small allocations of execution, fragments the heap by
    /// tens of MiB once the state is a few MiB.
    pub(crate) fn write_snapshot(&self, out: &mut Vec<u8>) {
        for (k, v) in &self.map {
            out.extend_from_slice(&(k.len() as u64).to_le_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(&(v.len() as u64).to_le_bytes());
            out.extend_from_slice(v);
        }
    }

    // lint: ingress
    /// Parses a transferred snapshot (adversarial input: the bytes come
    /// from a peer). Returns `None` for any malformed framing — truncated
    /// lengths, trailing bytes, or keys out of order (order is part of the
    /// digest contract, so an honest snapshot is always sorted).
    pub fn install_snapshot(bytes: &[u8]) -> Option<KvStore> {
        let mut map = BTreeMap::new();
        let mut at = 0usize;
        let mut prev_key: Option<Vec<u8>> = None;
        let read_chunk = |at: &mut usize| -> Option<Vec<u8>> {
            let len_end = at.checked_add(8)?;
            let len_bytes = bytes.get(*at..len_end)?;
            // lint: allow(ingress-expect) -- get() above proved the slice is 8 bytes
            let len = u64::from_le_bytes(len_bytes.try_into().expect("8-byte slice"));
            let len = usize::try_from(len).ok()?;
            let end = len_end.checked_add(len)?;
            let chunk = bytes.get(len_end..end)?.to_vec();
            *at = end;
            Some(chunk)
        };
        while at < bytes.len() {
            let key = read_chunk(&mut at)?;
            let value = read_chunk(&mut at)?;
            if let Some(prev) = &prev_key {
                if *prev >= key {
                    return None; // unsorted or duplicate: not digest framing
                }
            }
            prev_key = Some(key.clone());
            map.insert(key, value);
        }
        // Every byte was consumed by exactly one framed, distinct pair.
        Some(KvStore { map, snapshot_len: bytes.len() })
    }
    // lint: end
}

impl StateMachine for KvStore {
    fn apply(&mut self, command: &[u8]) -> Vec<u8> {
        let parts: Vec<&[u8]> = command.splitn(3, |b| *b == b' ').collect();
        match parts.as_slice() {
            [op, key, value] if *op == b"SET" => {
                self.snapshot_len += value.len();
                match self.map.insert(key.to_vec(), value.to_vec()) {
                    Some(old) => {
                        self.snapshot_len -= old.len();
                        old
                    }
                    None => {
                        self.snapshot_len += 16 + key.len();
                        b"(nil)".to_vec()
                    }
                }
            }
            [op, key] if *op == b"GET" => {
                self.map.get(*key).cloned().unwrap_or_else(|| b"(nil)".to_vec())
            }
            [op, key] if *op == b"DEL" => match self.map.remove(*key) {
                Some(old) => {
                    self.snapshot_len -= 16 + key.len() + old.len();
                    b"1".to_vec()
                }
                None => b"0".to_vec(),
            },
            _ => b"ERR".to_vec(),
        }
    }

    fn state_digest(&self) -> [u8; 32] {
        let mut h = rsoc_crypto::Sha256::new();
        for (k, v) in &self.map {
            h.update(&(k.len() as u64).to_le_bytes());
            h.update(k);
            h.update(&(v.len() as u64).to_le_bytes());
            h.update(v);
        }
        h.finalize()
    }
}

/// A saturating counter machine: `ADD n` / `READ`.
#[derive(Debug, Clone, Default)]
pub struct CounterMachine {
    value: u64,
}

impl CounterMachine {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        CounterMachine::default()
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl StateMachine for CounterMachine {
    fn apply(&mut self, command: &[u8]) -> Vec<u8> {
        let text = std::str::from_utf8(command).unwrap_or("");
        if let Some(rest) = text.strip_prefix("ADD ") {
            if let Ok(n) = rest.trim().parse::<u64>() {
                self.value = self.value.saturating_add(n);
                return self.value.to_string().into_bytes();
            }
        } else if text == "READ" {
            return self.value.to_string().into_bytes();
        }
        b"ERR".to_vec()
    }

    fn state_digest(&self) -> [u8; 32] {
        rsoc_crypto::sha256(&self.value.to_le_bytes())
    }
}

/// Actuator-command arbiter for the automotive example: keeps the latest
/// command per actuator and rejects stale timestamps (`CMD actuator ts value`).
#[derive(Debug, Clone, Default)]
pub struct ActuatorArbiter {
    latest: BTreeMap<String, (u64, String)>,
}

impl ActuatorArbiter {
    /// Creates an empty arbiter.
    pub fn new() -> Self {
        ActuatorArbiter::default()
    }

    /// Latest accepted (timestamp, value) for an actuator.
    pub fn current(&self, actuator: &str) -> Option<&(u64, String)> {
        self.latest.get(actuator)
    }
}

impl StateMachine for ActuatorArbiter {
    fn apply(&mut self, command: &[u8]) -> Vec<u8> {
        let text = match std::str::from_utf8(command) {
            Ok(t) => t,
            Err(_) => return b"ERR".to_vec(),
        };
        let mut it = text.split(' ');
        match (it.next(), it.next(), it.next(), it.next()) {
            (Some("CMD"), Some(act), Some(ts), Some(value)) => {
                let Ok(ts) = ts.parse::<u64>() else { return b"ERR".to_vec() };
                match self.latest.get(act) {
                    Some((cur, _)) if *cur >= ts => b"STALE".to_vec(),
                    _ => {
                        self.latest.insert(act.to_string(), (ts, value.to_string()));
                        b"OK".to_vec()
                    }
                }
            }
            _ => b"ERR".to_vec(),
        }
    }

    fn state_digest(&self) -> [u8; 32] {
        let mut h = rsoc_crypto::Sha256::new();
        for (k, (ts, v)) in &self.latest {
            h.update(k.as_bytes());
            h.update(&ts.to_le_bytes());
            h.update(v.as_bytes());
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_set_get_del() {
        let mut kv = KvStore::new();
        assert_eq!(kv.apply(b"GET x"), b"(nil)");
        assert_eq!(kv.apply(b"SET x 42"), b"(nil)");
        assert_eq!(kv.apply(b"GET x"), b"42");
        assert_eq!(kv.apply(b"SET x 43"), b"42");
        assert_eq!(kv.apply(b"DEL x"), b"1");
        assert_eq!(kv.apply(b"DEL x"), b"0");
        assert!(kv.is_empty());
    }

    #[test]
    fn kv_values_may_contain_spaces() {
        let mut kv = KvStore::new();
        kv.apply(b"SET msg hello world");
        assert_eq!(kv.apply(b"GET msg"), b"hello world");
    }

    #[test]
    fn kv_bad_commands_err() {
        let mut kv = KvStore::new();
        assert_eq!(kv.apply(b"FROB x"), b"ERR");
        assert_eq!(kv.apply(b""), b"ERR");
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
        // The snapshot IS the digest pre-image: a certificate over the
        // state digest certifies the snapshot bytes.
        assert_eq!(rsoc_crypto::sha256(&snap), kv.state_digest());
        let restored = KvStore::install_snapshot(&snap).expect("well-formed");
        assert_eq!(restored.state_digest(), kv.state_digest());
        assert_eq!(restored.len(), kv.len());
        // Empty store: empty snapshot, still round-trips.
        let empty = KvStore::new();
        assert_eq!(empty.snapshot(), Vec::<u8>::new());
        assert!(KvStore::install_snapshot(&[]).is_some());
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        let mut kv = KvStore::new();
        kv.apply(b"SET a 1");
        kv.apply(b"SET b 2");
        let snap = kv.snapshot();
        assert!(KvStore::install_snapshot(&snap[..snap.len() - 1]).is_none(), "truncated value");
        assert!(KvStore::install_snapshot(&snap[..9]).is_none(), "truncated key length");
        let mut trailing = snap.clone();
        trailing.push(0);
        assert!(KvStore::install_snapshot(&trailing).is_none(), "trailing bytes");
        let mut absurd = snap.clone();
        absurd[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(KvStore::install_snapshot(&absurd).is_none(), "absurd length field");
        // Out-of-order pairs can't have come from digest framing.
        let mut unsorted = Vec::new();
        for key in [b"b", b"a"] {
            unsorted.extend_from_slice(&1u64.to_le_bytes());
            unsorted.extend_from_slice(key);
            unsorted.extend_from_slice(&1u64.to_le_bytes());
            unsorted.extend_from_slice(b"x");
        }
        assert!(KvStore::install_snapshot(&unsorted).is_none(), "unsorted keys");
    }

    #[test]
    fn counter_machine() {
        let mut c = CounterMachine::new();
        assert_eq!(c.apply(b"ADD 5"), b"5");
        assert_eq!(c.apply(b"ADD 3"), b"8");
        assert_eq!(c.apply(b"READ"), b"8");
        assert_eq!(c.apply(b"ADD x"), b"ERR");
        assert_eq!(c.value(), 8);
    }

    #[test]
    fn arbiter_rejects_stale() {
        let mut a = ActuatorArbiter::new();
        assert_eq!(a.apply(b"CMD brake 10 engage"), b"OK");
        assert_eq!(a.apply(b"CMD brake 9 release"), b"STALE");
        assert_eq!(a.apply(b"CMD brake 10 release"), b"STALE");
        assert_eq!(a.apply(b"CMD brake 11 release"), b"OK");
        assert_eq!(a.current("brake").unwrap().1, "release");
        assert_eq!(a.apply(b"CMD brake nope x"), b"ERR");
    }
}
