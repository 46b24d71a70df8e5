//! HMAC-SHA-256 (RFC 2104) and MAC key/tag newtypes.

use crate::sha256::{digest_from, Sha256};
use std::fmt;

/// A 256-bit MAC key held by a hybrid or the reconfiguration controller.
///
/// The key is deliberately *not* `Copy`, offers no `Display`, and redacts
/// its `Debug` output, modelling the paper's requirement that hybrid
/// secrets never leave the trusted perimeter except through explicit
/// sharing at provisioning time.
///
/// Construction precomputes the HMAC key schedule — the SHA-256
/// compression states of the key's inner (`⊕ 0x36`) and outer (`⊕ 0x5c`)
/// pad blocks — so [`MacKey::mac`] / [`MacKey::verify`] pay zero
/// key-dependent compressions per message instead of two. On the consensus
/// hot path (one MAC per protocol message per replica) this is the
/// difference between 4 and 2 compressions for a short message.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MacKey {
    key: [u8; 32],
    /// Compression state after absorbing the inner pad block.
    inner: [u32; 8],
    /// Compression state after absorbing the outer pad block.
    outer: [u32; 8],
}

impl fmt::Debug for MacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MacKey(..)")
    }
}

impl MacKey {
    /// Wraps raw key bytes and precomputes the pad-block key schedule.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..32 {
            ipad[i] ^= bytes[i];
            opad[i] ^= bytes[i];
        }
        let mut hi = Sha256::new();
        hi.update(&ipad);
        let mut ho = Sha256::new();
        ho.update(&opad);
        MacKey { key: bytes, inner: hi.midstate(), outer: ho.midstate() }
    }

    /// Derives a key from a 64-bit provisioning seed and a role label.
    ///
    /// Deterministic, so simulations can re-derive replica keys from the
    /// experiment seed.
    pub fn derive(seed: u64, label: &str) -> Self {
        let mut h = Sha256::new();
        h.update(&seed.to_le_bytes());
        h.update(b"/rsoc-key/");
        h.update(label.as_bytes());
        Self::from_bytes(h.finalize())
    }

    /// Raw key material (for the HMAC circuit inside the trusted perimeter).
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.key
    }

    // One MAC per protocol message per replica: `rsoc_lint` keeps it
    // allocation-free.
    // lint: hot-path
    /// HMAC-SHA-256 over `msg` using the cached key schedule.
    ///
    /// Bit-identical to [`hmac_sha256`] with this key, but resumes from the
    /// precomputed pad midstates instead of re-absorbing both 64-byte pad
    /// blocks per call, and hashes straight from `msg` and the stack: the
    /// outer hash is always one block (32-byte digest ‖ padding), the inner
    /// one `msg.len() / 64 + 1` or `+ 2`.
    ///
    /// ```
    /// let key = rsoc_crypto::MacKey::derive(7, "replica-0");
    /// let msg = b"prepare view=0 seq=1";
    /// assert_eq!(key.mac(msg), rsoc_crypto::hmac_sha256(key.as_bytes(), msg));
    /// ```
    pub fn mac(&self, msg: &[u8]) -> Tag {
        let inner_digest = digest_from(self.inner, 64, msg);
        Tag(digest_from(self.outer, 64, &inner_digest))
    }

    /// Constant-shape verification against the cached key schedule.
    pub fn verify(&self, msg: &[u8], tag: &Tag) -> bool {
        ct_eq(&self.mac(msg).0, &tag.0)
    }
    // lint: end
}

/// A 256-bit authentication tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub [u8; 32]);

impl Tag {
    /// First 8 bytes as `u64` — handy for compact logging in experiments.
    pub fn prefix64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

/// Computes HMAC-SHA-256 over `msg` with `key`.
///
/// ```
/// // RFC 4231 test case 2 (key = "Jefe").
/// let mut key = [0u8; 32];
/// key[..4].copy_from_slice(b"Jefe");
/// // HMAC spec pads short keys with zeros, so a zero-extended key is equivalent.
/// let tag = rsoc_crypto::hmac_sha256(&key, b"what do ya want for nothing?");
/// assert_eq!(tag.0[0], 0x5b);
/// ```
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Tag {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        let d = crate::sha256::sha256(key);
        key_block[..32].copy_from_slice(&d);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0u8; 64];
    let mut opad = [0u8; 64];
    for i in 0..64 {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
    }

    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    Tag(outer.finalize())
}

/// Constant-shape verification of an HMAC tag.
///
/// Uses a branch-free byte comparison; timing side channels are out of scope
/// for the simulation but the discipline costs nothing.
pub fn hmac_verify(key: &[u8], msg: &[u8], tag: &Tag) -> bool {
    ct_eq(&hmac_sha256(key, msg).0, &tag.0)
}

/// Branch-free 32-byte comparison.
fn ct_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(hex(&tag.0), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag.0), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(hex(&tag.0), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    }

    #[test]
    fn rfc4231_long_key() {
        // Case 6: 131-byte key forces the key-hashing path.
        let key = [0xaau8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(hex(&tag.0), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let key = MacKey::derive(42, "replica-0");
        let tag = hmac_sha256(key.as_bytes(), b"commit #5");
        assert!(hmac_verify(key.as_bytes(), b"commit #5", &tag));
        assert!(!hmac_verify(key.as_bytes(), b"commit #6", &tag));
        let other = MacKey::derive(42, "replica-1");
        assert!(!hmac_verify(other.as_bytes(), b"commit #5", &tag));
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        assert_eq!(MacKey::derive(7, "a"), MacKey::derive(7, "a"));
        assert_ne!(MacKey::derive(7, "a"), MacKey::derive(7, "b"));
        assert_ne!(MacKey::derive(7, "a"), MacKey::derive(8, "a"));
    }

    #[test]
    fn cached_schedule_matches_reference_at_all_boundary_lengths() {
        // Every message length across the first three padding/block
        // boundaries (the protocol's UI payloads are 77 and 84 bytes).
        let key = MacKey::derive(0xC0FFEE, "schedule");
        for len in (0..=200).chain([1000]) {
            let msg: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
            let reference = hmac_sha256(key.as_bytes(), &msg);
            assert_eq!(key.mac(&msg), reference, "len {len}");
            assert!(key.verify(&msg, &reference));
        }
    }

    #[test]
    fn cached_schedule_matches_rfc4231_zero_extended() {
        // RFC 4231 case 2 with the short key zero-extended to 32 bytes
        // (HMAC pads short keys with zeros, so the tags coincide).
        let mut key = [0u8; 32];
        key[..4].copy_from_slice(b"Jefe");
        let k = MacKey::from_bytes(key);
        assert_eq!(
            hex(&k.mac(b"what do ya want for nothing?").0),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn cached_verify_rejects_tampering() {
        let key = MacKey::derive(9, "v");
        let tag = key.mac(b"payload");
        assert!(key.verify(b"payload", &tag));
        assert!(!key.verify(b"payloae", &tag));
        let mut bad = tag;
        bad.0[31] ^= 1;
        assert!(!key.verify(b"payload", &bad));
    }

    #[test]
    fn debug_is_redacted() {
        let key = MacKey::derive(1, "secret");
        assert_eq!(format!("{key:?}"), "MacKey(..)");
    }

    #[test]
    fn tag_prefix() {
        let t = Tag([1u8; 32]);
        assert_eq!(t.prefix64(), u64::from_le_bytes([1; 8]));
    }
}
