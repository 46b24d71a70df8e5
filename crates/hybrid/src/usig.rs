//! USIG — Unique Sequential Identifier Generator (Veronese et al., MinBFT).
//!
//! The USIG assigns each outgoing message a *unique, monotonic, verifiable*
//! counter value, certified with an HMAC computed inside the trusted
//! perimeter. With it, a Byzantine replica cannot equivocate (send two
//! different messages with the same counter), which is what lets MinBFT run
//! with 2f+1 replicas instead of 3f+1 (§II-A, §III of the paper).
//!
//! The counter lives in a pluggable [`RegisterCell`]: this module's tests
//! flip its bits to reproduce §III's observation that "any bitflip in the
//! counter will have catastrophic effects on the consensus problem".

use rsoc_crypto::{sha256, MacKey, Tag};
use rsoc_hw::{LoadOutcome, RegisterCell};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identity of a USIG instance (one per replica/tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UsigId(pub u32);

impl fmt::Display for UsigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "usig{}", self.0)
    }
}

/// A certified unique identifier: `(signer, counter, HMAC)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UI {
    /// Which USIG issued this identifier.
    pub id: UsigId,
    /// The (claimed) monotonic counter value.
    pub counter: u64,
    /// HMAC over `(id, counter, message)` — short messages are MACed
    /// directly, long ones through their SHA-256 digest (see
    /// `ui_payload`).
    pub tag: Tag,
}

/// Errors from USIG operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsigError {
    /// The counter register reported uncorrectable corruption; the USIG
    /// fail-stops rather than emit a certificate over garbage.
    CounterCorrupted,
    /// Counter overflow (astronomically unlikely; modeled for totality).
    CounterExhausted,
}

impl fmt::Display for UsigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsigError::CounterCorrupted => write!(f, "counter register corrupted beyond repair"),
            UsigError::CounterExhausted => write!(f, "counter exhausted"),
        }
    }
}

impl std::error::Error for UsigError {}

/// Shared-key registry held *inside* trusted components.
///
/// MinBFT's USIGs verify each other's certificates through symmetric keys
/// provisioned at manufacturing; the registry never leaves the trusted
/// perimeter in the model (no accessor exposes raw keys except to the
/// crypto routines in this module).
#[derive(Debug, Clone, Default)]
pub struct KeyRing {
    keys: BTreeMap<UsigId, MacKey>,
}

impl KeyRing {
    /// Creates an empty ring.
    pub fn new() -> Self {
        KeyRing::default()
    }

    /// Provisions `key` for `id`.
    pub fn register(&mut self, id: UsigId, key: MacKey) {
        self.keys.insert(id, key);
    }

    /// Builds a ring for replicas `0..n` from a provisioning seed.
    ///
    /// Returns the ring behind an [`Arc`]: every replica of a cluster
    /// shares the same immutable ring, so handing it out is a refcount
    /// bump — key derivation (and the HMAC key-schedule precomputation
    /// inside [`MacKey`]) happens once per cluster, not once per replica.
    pub fn provision(seed: u64, n: u32) -> Arc<Self> {
        let mut ring = KeyRing::new();
        for i in 0..n {
            ring.register(UsigId(i), MacKey::derive(seed, &format!("usig-{i}")));
        }
        Arc::new(ring)
    }

    fn key(&self, id: UsigId) -> Option<&MacKey> {
        self.keys.get(&id)
    }
}

/// The USIG trusted component.
#[derive(Debug)]
pub struct Usig {
    id: UsigId,
    ring: Arc<KeyRing>,
    counter: Box<dyn RegisterCell>,
    issued: u64,
    verified: Cell<u64>,
}

impl Usig {
    /// Creates a USIG with the given identity, shared key ring (which must
    /// contain this id's key), and counter register backend.
    ///
    /// # Panics
    /// Panics if the ring has no key for `id`.
    pub fn new(id: UsigId, ring: Arc<KeyRing>, mut counter: Box<dyn RegisterCell>) -> Self {
        assert!(ring.key(id).is_some(), "key ring must contain own key");
        counter.store(0);
        Usig { id, ring, counter, issued: 0, verified: Cell::new(0) }
    }

    /// This USIG's identity.
    pub fn id(&self) -> UsigId {
        self.id
    }

    /// Number of `create_ui` calls that succeeded.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Number of `verify_ui` calls performed (MAC accounting for the
    /// authentication-cost experiments).
    pub fn verified(&self) -> u64 {
        self.verified.get()
    }

    // One `create_ui` or `verify_ui` per protocol message per replica, and
    // nothing in them but the register access and the MAC: `rsoc_lint`
    // keeps both allocation-free.
    // lint: hot-path
    /// Creates a certified unique identifier for `message`.
    ///
    /// Loads the counter (detecting/correcting upsets per the register's
    /// protection), increments, stores back, and certifies. With a plain
    /// register an undetected flip silently yields a duplicate or skipped
    /// counter — the §III failure mode
    /// `tests::plain_register_flip_causes_duplicate_or_gap` pins.
    ///
    /// # Errors
    /// [`UsigError::CounterCorrupted`] when the register detects
    /// uncorrectable corruption (fail-stop), [`UsigError::CounterExhausted`]
    /// on overflow.
    pub fn create_ui(&mut self, message: &[u8]) -> Result<UI, UsigError> {
        let current = match self.counter.load() {
            LoadOutcome::Value(v) => v,
            LoadOutcome::Detected => return Err(UsigError::CounterCorrupted),
        };
        let next = current.checked_add(1).ok_or(UsigError::CounterExhausted)?;
        self.counter.store(next);
        self.issued += 1;
        let tag = certify(self.ring.key(self.id).expect("own key present"), self.id, next, message);
        Ok(UI { id: self.id, counter: next, tag })
    }

    /// Verifies a UI allegedly issued by `sender` over `message`.
    ///
    /// Returns `false` for unknown senders or bad tags. Monotonicity /
    /// contiguity across UIs is the receiver's job — see [`UiWindow`].
    pub fn verify_ui(&self, sender: UsigId, ui: &UI, message: &[u8]) -> bool {
        if ui.id != sender {
            return false;
        }
        let Some(key) = self.ring.key(sender) else { return false };
        self.verified.set(self.verified.get() + 1);
        let (payload, len) = ui_payload(sender, ui.counter, message);
        key.verify(&payload[..len], &ui.tag)
    }
    // lint: end

    /// Resumes the counter at or above `counter` after a process restart.
    ///
    /// The USIG models a *hardware-monotonic* counter that outlives the
    /// software stack; a restarted replica hands back the highest counter
    /// value it persisted before the crash so the trusted component never
    /// certifies two statements under one value (the exact equivocation
    /// the hybrid exists to prevent). Resuming never moves the counter
    /// backwards, and a corrupted register stays fail-stopped.
    pub fn resume(&mut self, counter: u64) {
        let current = match self.counter.load() {
            LoadOutcome::Value(v) => v,
            LoadOutcome::Detected => return, // fail-stopped: stay that way
        };
        if counter > current {
            self.counter.store(counter);
        }
    }

    /// Flips a bit of the counter register (SEU injection).
    pub fn inject_counter_flip(&mut self, bit: u32) {
        self.counter.inject_flip(bit);
    }

    /// The protection scheme of the backing register.
    pub fn protection_name(&self) -> &'static str {
        self.counter.protection_name()
    }

    /// Gate-equivalent complexity: register + HMAC core + control.
    pub fn gate_cost(&self) -> u64 {
        self.counter.gate_cost() + crate::complexity::HMAC_CORE_GATES + 400
    }
}

// lint: hot-path
fn ui_payload(id: UsigId, counter: u64, message: &[u8]) -> ([u8; 85], usize) {
    // Fixed-size stack buffer: this runs once per MAC operation on the
    // consensus hot path, so it must not allocate. Short messages (every
    // PREPARE/COMMIT statement the protocols certify) are MACed directly
    // — pre-hashing them cost two extra SHA-256 compressions per
    // certificate for nothing; long messages still compress to a digest.
    // The leading form byte (0x01 raw / 0x02 hashed) plus the explicit
    // length keep the two encodings unambiguous.
    let mut payload = [0u8; 85];
    payload[1..5].copy_from_slice(&id.0.to_le_bytes());
    payload[5..13].copy_from_slice(&counter.to_le_bytes());
    if message.len() <= 64 {
        payload[0] = 0x01;
        payload[13..21].copy_from_slice(&(message.len() as u64).to_le_bytes());
        payload[21..21 + message.len()].copy_from_slice(message);
        (payload, 21 + message.len())
    } else {
        payload[0] = 0x02;
        payload[13..45].copy_from_slice(&sha256(message));
        (payload, 45)
    }
}

fn certify(key: &MacKey, id: UsigId, counter: u64, message: &[u8]) -> Tag {
    // Cached key schedule: no per-call pad-block compressions.
    let (payload, len) = ui_payload(id, counter, message);
    key.mac(&payload[..len])
}
// lint: end

/// Receiver-side monotonicity window: accepts each sender's UIs only in
/// strict counter order (`last + 1`), which MinBFT requires so a faulty
/// primary can neither replay nor skip certified messages.
#[derive(Debug, Clone, Default)]
pub struct UiWindow {
    last: BTreeMap<UsigId, u64>,
}

impl UiWindow {
    /// Creates an empty window (all senders start before counter 1).
    pub fn new() -> Self {
        UiWindow::default()
    }

    /// Checks-and-advances: returns `true` iff `ui.counter` is exactly the
    /// successor of the last accepted counter from this sender.
    pub fn accept(&mut self, ui: &UI) -> bool {
        let last = self.last.entry(ui.id).or_insert(0);
        if ui.counter == *last + 1 {
            *last = ui.counter;
            true
        } else {
            false
        }
    }

    /// Last accepted counter for `sender` (0 = none yet).
    pub fn last_accepted(&self, sender: UsigId) -> u64 {
        self.last.get(&sender).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsoc_hw::{EccRegister, ParityRegister, PlainRegister};

    fn usig_with(reg: Box<dyn RegisterCell>) -> Usig {
        Usig::new(UsigId(0), KeyRing::provision(7, 4), reg)
    }

    #[test]
    fn uis_are_sequential_and_verifiable() {
        let mut u = usig_with(Box::new(PlainRegister::new(64)));
        let mut prev = 0;
        for i in 0..10 {
            let msg = format!("msg {i}");
            let ui = u.create_ui(msg.as_bytes()).unwrap();
            assert_eq!(ui.counter, prev + 1, "strictly sequential");
            prev = ui.counter;
            assert!(u.verify_ui(UsigId(0), &ui, msg.as_bytes()));
        }
        assert_eq!(u.issued(), 10);
    }

    #[test]
    fn verification_rejects_wrong_message_sender_or_counter() {
        let ring = KeyRing::provision(7, 4);
        let mut u0 = Usig::new(UsigId(0), ring.clone(), Box::new(PlainRegister::new(64)));
        let u1 = Usig::new(UsigId(1), ring, Box::new(PlainRegister::new(64)));
        let ui = u0.create_ui(b"hello").unwrap();
        // Any replica can verify through its own USIG.
        assert!(u1.verify_ui(UsigId(0), &ui, b"hello"));
        assert!(!u1.verify_ui(UsigId(0), &ui, b"evil"));
        assert!(!u1.verify_ui(UsigId(1), &ui, b"hello"), "sender mismatch");
        let mut forged = ui;
        forged.counter += 1;
        assert!(!u1.verify_ui(UsigId(0), &forged, b"hello"), "counter not covered by tag");
    }

    #[test]
    fn forgery_without_key_fails() {
        let ring = KeyRing::provision(7, 2);
        let u0 = Usig::new(UsigId(0), ring, Box::new(PlainRegister::new(64)));
        // Attacker fabricates a tag with a guessed key.
        let fake_tag = MacKey::derive(999, "attacker").mac(b"whatever");
        let forged = UI { id: UsigId(0), counter: 1, tag: fake_tag };
        assert!(!u0.verify_ui(UsigId(0), &forged, b"whatever"));
    }

    #[test]
    fn plain_register_flip_causes_duplicate_or_gap() {
        let mut u = usig_with(Box::new(PlainRegister::new(64)));
        let ui1 = u.create_ui(b"a").unwrap(); // counter = 1
        u.inject_counter_flip(0); // 1 -> 0
        let ui2 = u.create_ui(b"b").unwrap(); // counter = 1 again!
        assert_eq!(ui1.counter, ui2.counter, "silent duplicate — equivocation now possible");
        // Both certify fine: the hybrid's guarantee is broken undetectably.
        assert!(u.verify_ui(UsigId(0), &ui1, b"a"));
        assert!(u.verify_ui(UsigId(0), &ui2, b"b"));
    }

    #[test]
    fn parity_register_fail_stops_on_flip() {
        let mut u = usig_with(Box::new(ParityRegister::new(64)));
        u.create_ui(b"a").unwrap();
        u.inject_counter_flip(5);
        assert_eq!(u.create_ui(b"b"), Err(UsigError::CounterCorrupted));
    }

    #[test]
    fn ecc_register_rides_through_flip() {
        let mut u = usig_with(Box::new(EccRegister::new(64)));
        let ui1 = u.create_ui(b"a").unwrap();
        u.inject_counter_flip(13);
        let ui2 = u.create_ui(b"b").unwrap();
        assert_eq!(ui2.counter, ui1.counter + 1, "ECC corrects, sequence intact");
    }

    #[test]
    fn window_enforces_contiguity() {
        let mut u = usig_with(Box::new(PlainRegister::new(64)));
        let ui1 = u.create_ui(b"a").unwrap();
        let ui2 = u.create_ui(b"b").unwrap();
        let ui3 = u.create_ui(b"c").unwrap();
        let mut w = UiWindow::new();
        assert!(w.accept(&ui1));
        assert!(!w.accept(&ui3), "gap rejected");
        assert!(w.accept(&ui2));
        assert!(w.accept(&ui3));
        assert!(!w.accept(&ui2), "replay rejected");
        assert_eq!(w.last_accepted(UsigId(0)), 3);
    }

    #[test]
    fn verify_calls_are_counted() {
        let mut u = usig_with(Box::new(PlainRegister::new(64)));
        let ui = u.create_ui(b"m").unwrap();
        assert_eq!(u.verified(), 0);
        assert!(u.verify_ui(UsigId(0), &ui, b"m"));
        assert!(!u.verify_ui(UsigId(0), &ui, b"x"));
        assert_eq!(u.verified(), 2, "both MAC checks hit the counter");
    }

    #[test]
    fn resume_never_regresses_the_counter() {
        let mut u = usig_with(Box::new(PlainRegister::new(64)));
        u.create_ui(b"a").unwrap(); // counter = 1
        u.create_ui(b"b").unwrap(); // counter = 2
        u.resume(7); // restart persisted watermark 7
        assert_eq!(u.create_ui(b"c").unwrap().counter, 8);
        u.resume(3); // stale watermark: must not move backwards
        assert_eq!(u.create_ui(b"d").unwrap().counter, 9);
    }

    #[test]
    fn gate_cost_tracks_register_protection() {
        let plain = usig_with(Box::new(PlainRegister::new(64)));
        let ecc = usig_with(Box::new(EccRegister::new(64)));
        assert!(ecc.gate_cost() > plain.gate_cost());
        assert_eq!(plain.protection_name(), "plain");
        assert_eq!(ecc.protection_name(), "secded");
    }

    #[test]
    #[should_panic(expected = "own key")]
    fn requires_own_key() {
        Usig::new(UsigId(9), KeyRing::provision(7, 2), Box::new(PlainRegister::new(64)));
    }
}
