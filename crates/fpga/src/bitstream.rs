//! Authenticated configuration bitstreams.
//!
//! A bitstream is bound to its target region (no replay onto other
//! frames), integrity-checked with CRC-32 (accidental corruption) and
//! authenticated with HMAC (malicious substitution) — the §II-E requirement
//! of "validating that a correct bitstream is written".

use crate::fabric::Region;
use rsoc_crypto::{MacKey, Tag};

/// CRC-32 (IEEE 802.3) over bytes — the workspace's one kernel.
pub use rsoc_crypto::crc32;

/// A configuration payload for one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    /// Target region (bound into the signature).
    pub region: Region,
    /// Configuration words (`region.len * frame_words`).
    pub words: Vec<u64>,
    /// CRC-32 over the words.
    pub crc: u32,
    /// HMAC over `(region, crc, words)`.
    pub tag: Tag,
}

impl Bitstream {
    /// Builds and signs a bitstream for `region`.
    ///
    /// # Panics
    /// Panics if `words.len() != region.len * frame_words`.
    pub fn build(words: Vec<u64>, region: Region, frame_words: usize, key: &MacKey) -> Self {
        assert_eq!(
            words.len(),
            region.len as usize * frame_words,
            "word count must match region capacity"
        );
        let bytes = words_bytes(&words);
        let crc = crc32(&bytes);
        let tag = key.mac(&signing_payload(region, crc, &bytes));
        Bitstream { region, words, crc, tag }
    }

    /// Deterministic synthetic bitstream for a softcore `variant`
    /// (different variants → different configuration contents), used by the
    /// rejuvenation/relocation experiments.
    pub fn for_variant(variant: u64, region: Region, frame_words: usize, key: &MacKey) -> Self {
        let n = region.len as usize * frame_words;
        let words: Vec<u64> = (0..n)
            .map(|i| {
                let mut x = variant.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
                x ^= x >> 31;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^ (x >> 29)
            })
            .collect();
        Self::build(words, region, frame_words, key)
    }

    /// Re-targets this bitstream to a different region of the same size
    /// (relocation), re-signing with `key`.
    ///
    /// # Panics
    /// Panics if the new region has a different length.
    pub fn retarget(&self, to: Region, key: &MacKey) -> Bitstream {
        assert_eq!(self.region.len, to.len, "relocation requires equal region sizes");
        let bytes = words_bytes(&self.words);
        let tag = key.mac(&signing_payload(to, self.crc, &bytes));
        Bitstream { region: to, words: self.words.clone(), crc: self.crc, tag }
    }

    /// Full validation: CRC matches the words and the HMAC matches
    /// `(region, crc, words)` under `key`, and the claimed region equals
    /// the region being written.
    pub fn verify(&self, target: Region, key: &MacKey) -> bool {
        if self.region != target {
            return false;
        }
        let bytes = words_bytes(&self.words);
        if crc32(&bytes) != self.crc {
            return false;
        }
        key.verify(&signing_payload(self.region, self.crc, &bytes), &self.tag)
    }
}

fn words_bytes(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn signing_payload(region: Region, crc: u32, bytes: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(12 + bytes.len());
    p.extend_from_slice(&region.start.to_le_bytes());
    p.extend_from_slice(&region.len.to_le_bytes());
    p.extend_from_slice(&crc.to_le_bytes());
    p.extend_from_slice(bytes);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_reference_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    fn key() -> MacKey {
        MacKey::derive(5, "bs")
    }

    #[test]
    fn build_and_verify() {
        let r = Region::new(2, 3);
        let bs = Bitstream::for_variant(9, r, 4, &key());
        assert_eq!(bs.words.len(), 12);
        assert!(bs.verify(r, &key()));
    }

    #[test]
    fn verification_rejects_wrong_region_key_or_corruption() {
        let r = Region::new(2, 3);
        let bs = Bitstream::for_variant(9, r, 4, &key());
        assert!(!bs.verify(Region::new(3, 3), &key()), "region binding");
        assert!(!bs.verify(r, &MacKey::derive(6, "bs")), "key binding");
        let mut corrupted = bs.clone();
        corrupted.words[0] ^= 1;
        assert!(!corrupted.verify(r, &key()), "CRC catches corruption");
        let mut resigned = bs.clone();
        resigned.crc ^= 1;
        assert!(!resigned.verify(r, &key()), "CRC/tag mismatch");
    }

    #[test]
    fn variants_produce_distinct_contents() {
        let r = Region::new(0, 2);
        let a = Bitstream::for_variant(1, r, 4, &key());
        let b = Bitstream::for_variant(2, r, 4, &key());
        assert_ne!(a.words, b.words);
    }

    #[test]
    fn retarget_preserves_words_and_verifies_at_new_region() {
        let from = Region::new(0, 2);
        let to = Region::new(6, 2);
        let bs = Bitstream::for_variant(3, from, 4, &key());
        let moved = bs.retarget(to, &key());
        assert_eq!(moved.words, bs.words);
        assert!(moved.verify(to, &key()));
        assert!(!moved.verify(from, &key()));
    }

    #[test]
    #[should_panic(expected = "equal region sizes")]
    fn retarget_rejects_size_mismatch() {
        let bs = Bitstream::for_variant(3, Region::new(0, 2), 4, &key());
        bs.retarget(Region::new(4, 3), &key());
    }
}
