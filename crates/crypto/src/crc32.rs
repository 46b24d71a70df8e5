//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), incremental
//! and one-shot.
//!
//! A CRC is a torn-write and bit-rot detector, not an authenticator — the
//! workspace pairs it with HMAC wherever an adversary can reach the bytes
//! (FPGA bitstreams, §II-E) or re-verifies certificates and digests on top
//! (WAL records and snapshot files). It lives here so that both users share
//! one kernel: slicing-by-8, which folds eight input bytes into the
//! register per step through eight 256-entry tables instead of one byte
//! through one.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// register after byte `b` followed by `k` zero bytes, which is what lets
/// eight bytes be looked up independently and xor-ed together.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC-32, for a checksum over parts that never sit in one
/// buffer.
///
/// ```
/// use rsoc_crypto::Crc32;
/// let mut c = Crc32::new();
/// c.feed(b"1234");
/// c.feed(b"56789");
/// assert_eq!(c.finish(), rsoc_crypto::crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    reg: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh checksum.
    pub fn new() -> Self {
        Crc32 { reg: !0 }
    }

    /// Absorbs `bytes`, eight at a step; a tail shorter than eight goes
    /// byte by byte.
    pub fn feed(&mut self, bytes: &[u8]) {
        let mut c = self.reg;
        let mut steps = bytes.chunks_exact(8);
        for s in &mut steps {
            let lo = c ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
            let hi = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
            c = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in steps.remainder() {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.reg = c;
    }

    /// The checksum of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.reg
    }
}

/// One-shot CRC-32 of `bytes`. Detects any single-burst error shorter than
/// 32 bits, which covers torn and bit-flipped tails.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.feed(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook bit-at-a-time definition the kernel must equal.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c: u32 = !0;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        // IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Eight bytes a step equals one bit a step, wherever in memory the
        /// slice starts and whatever tail it leaves.
        #[test]
        fn sliced_kernel_equals_the_reference_at_every_alignment(
            buf in proptest::collection::vec(any::<u8>(), 8..4104),
        ) {
            for start in 0..8 {
                prop_assert_eq!(crc32(&buf[start..]), reference(&buf[start..]));
            }
        }

        /// Feeding parts equals feeding the whole — what a checksum over
        /// `head · image · tail` relies on.
        #[test]
        fn feed_over_any_split_equals_one_shot(
            buf in proptest::collection::vec(any::<u8>(), 0..4096),
            a in any::<usize>(),
            b in any::<usize>(),
        ) {
            let (a, b) = (a % (buf.len() + 1), b % (buf.len() + 1));
            let (a, b) = (a.min(b), a.max(b));
            let whole = crc32(&buf);
            let mut two = Crc32::new();
            two.feed(&buf[..a]);
            two.feed(&buf[a..]);
            prop_assert_eq!(two.finish(), whole);
            let mut three = Crc32::new();
            three.feed(&buf[..a]);
            three.feed(&buf[a..b]);
            three.feed(&buf[b..]);
            prop_assert_eq!(three.finish(), whole);
        }
    }
}
