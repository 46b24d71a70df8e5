//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), incremental
//! and one-shot.
//!
//! A CRC is a torn-write and bit-rot detector, not an authenticator — the
//! workspace pairs it with HMAC wherever an adversary can reach the bytes
//! (FPGA bitstreams, §II-E) or re-verifies certificates and digests on top
//! (WAL records and snapshot files). It lives here so that both users share
//! one kernel, with two lanes:
//!
//! * **Folding**, on x86-64 CPUs with carry-less multiply (PCLMULQDQ,
//!   detected per call like the SHA extension). A run of at least 64 bytes
//!   is held as four 128-bit lanes; each step multiplies every lane by a
//!   constant `x^k mod P` that moves it 512 bits forward and xors it onto
//!   the next 64 input bytes. The lanes then fold into one, the one into
//!   64 and 32 bits, and a Barrett reduction yields the register. This is
//!   Intel's "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ" in its bit-reflected form, with the constants Linux's
//!   `crc32-pclmul` uses; the tests derive every one of them from the
//!   polynomial.
//! * **Slicing-by-8**, which folds eight input bytes into the register per
//!   step through eight 256-entry tables. It takes the sub-16-byte tail of
//!   a folded run, every input on CPUs without the instruction, and is the
//!   reference the folding lane is tested against.

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

/// Shortest run the folding lane takes: its four lanes are loaded from the
/// first 64 bytes.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 64;

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

    // Every WAL record, snapshot file and bitstream passes through here;
    // `rsoc_lint` keeps both lanes allocation-free.
    // lint: hot-path
    /// Absorbs `bytes`: a run of at least 64 bytes is folded 16 bytes at a
    /// time where the CPU multiplies carry-less, and whatever is left goes
    /// eight bytes a step, then byte by byte.
    pub fn feed(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let bytes = if bytes.len() >= FOLD_MIN && fold::available() {
            let (run, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: the required target features were verified at
            // runtime, and `run` is a multiple of 16 bytes, at least 64.
            self.reg = unsafe { fold::fold(self.reg, run) };
            tail
        } else {
            bytes
        };
        self.reg = sliced(self.reg, bytes);
    }
    // lint: end

    /// The checksum of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.reg
    }
}

// lint: hot-path
/// The portable lane: advances register `c` over `bytes`, eight at a step
/// through the tables, a tail shorter than eight byte by byte.
fn sliced(mut c: u32, bytes: &[u8]) -> u32 {
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
    c
}
// lint: end

/// The folding lane, runtime-detected. In the bit-reflected domain a
/// constant `x^n mod P` becomes its 32 bits reversed and shifted up one,
/// so each is a 33-bit number (see the module docs; the tests rebuild
/// them from `P`).
#[cfg(target_arch = "x86_64")]
mod fold {
    use core::arch::x86_64::*;

    /// `x^(4·128+32) mod P` and `x^(4·128−32) mod P`: a lane's low and
    /// high halves moved 512 bits forward.
    pub(super) const K1: u64 = 0x1_5444_2BD4;
    pub(super) const K2: u64 = 0x1_C6E4_1596;
    /// `x^(128+32) mod P` and `x^(128−32) mod P`: moved 128 bits forward.
    pub(super) const K3: u64 = 0x1_7519_97D0;
    pub(super) const K4: u64 = 0x0_CCAA_009E;
    /// `x^64 mod P`: 64 bits down to 32.
    pub(super) const K5: u64 = 0x1_63CD_6124;
    /// `P` itself and `μ = ⌊x^64 / P⌋`, the Barrett pair.
    pub(super) const P: u64 = 0x1_DB71_0641;
    pub(super) const MU: u64 = 0x1_F701_1641;

    /// Whether carry-less multiply (and the SSE level the final extract
    /// uses) is present on this CPU.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    // lint: hot-path
    /// Advances register `reg` over `data`.
    ///
    /// # Safety
    /// Callers must have verified [`available`] returns `true`, and
    /// `data.len()` must be a multiple of 16 and at least 64.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub unsafe fn fold(reg: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16), "whole lanes only");
        let load = |at: usize| _mm_loadu_si128(data.as_ptr().add(at) as *const __m128i);
        // One lane moved forward by the distance `k` encodes, onto `next`.
        let step = |lane: __m128i, k: __m128i, next: __m128i| {
            let lo = _mm_clmulepi64_si128(lane, k, 0x00);
            let hi = _mm_clmulepi64_si128(lane, k, 0x11);
            _mm_xor_si128(_mm_xor_si128(lo, hi), next)
        };

        let by_512 = _mm_set_epi64x(K2 as i64, K1 as i64);
        let mut lanes = [load(0), load(16), load(32), load(48)];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(reg as i32));
        let mut at = 64;
        while data.len() - at >= 64 {
            lanes = [
                step(lanes[0], by_512, load(at)),
                step(lanes[1], by_512, load(at + 16)),
                step(lanes[2], by_512, load(at + 32)),
                step(lanes[3], by_512, load(at + 48)),
            ];
            at += 64;
        }

        let by_128 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut acc = step(lanes[0], by_128, lanes[1]);
        acc = step(acc, by_128, lanes[2]);
        acc = step(acc, by_128, lanes[3]);
        while at < data.len() {
            acc = step(acc, by_128, load(at));
            at += 16;
        }

        // 128 → 64 bits: the low half times x^96 onto the high half, which
        // also appends the 32 zero bits a CRC is defined over.
        let acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, by_128, 0x10));
        // 64 → 32 (+32) bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k5 = _mm_set_epi64x(0, K5 as i64);
        let acc = _mm_xor_si128(
            _mm_srli_si128(acc, 4),
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
        );
        // Barrett: q = ⌊acc · μ⌋ (low 32 bits), register = acc − q · P.
        let poly = _mm_set_epi64x(MU as i64, P as i64);
        let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
        _mm_extract_epi32(_mm_xor_si128(qp, acc), 1) as u32
    }
    // lint: end
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

    /// The textbook bit-at-a-time register update.
    fn bitwise(mut c: u32, b: u8) -> u32 {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
        c
    }

    /// The textbook definition both lanes must equal.
    fn reference(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |c, &b| bitwise(c, b))
    }

    /// The portable lane alone, as a CPU without carry-less multiply runs.
    fn portable(bytes: &[u8]) -> u32 {
        !sliced(!0, bytes)
    }

    fn pseudo_random(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (seed >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        // IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(portable(b"123456789"), 0xCBF4_3926);
        // Past the folding threshold: a kilobyte of one byte.
        assert_eq!(crc32(&[0x5A; 1024]), reference(&[0x5A; 1024]));
    }

    /// Every folding constant, rebuilt from `P = x^32 + … + 1`
    /// (`0x1_04C1_1DB7`) rather than trusted: `x^n mod P` reflected, and
    /// the Barrett pair `P` and `⌊x^64 / P⌋` reflected over 33 bits.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_follow_from_the_polynomial() {
        const POLY: u64 = 0x1_04C1_1DB7;
        let x_pow_mod = |n: u32| {
            let mut r: u64 = 1;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= POLY;
                }
            }
            r as u32
        };
        let reflected = |n: u32| (x_pow_mod(n).reverse_bits() as u64) << 1;
        let reflect33 = |v: u64| v.reverse_bits() >> 31;
        assert_eq!(reflected(4 * 128 + 32), fold::K1);
        assert_eq!(reflected(4 * 128 - 32), fold::K2);
        assert_eq!(reflected(128 + 32), fold::K3);
        assert_eq!(reflected(128 - 32), fold::K4);
        assert_eq!(reflected(64), fold::K5);
        // Long division of x^64 by P over GF(2).
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        for shift in (0..=32).rev() {
            if rem & (1u128 << (32 + shift)) != 0 {
                rem ^= (POLY as u128) << shift;
                quot |= 1 << shift;
            }
        }
        assert_eq!(reflect33(quot), fold::MU);
        assert_eq!(reflect33(POLY), fold::P);
        // The reflected table polynomial is the same P.
        assert_eq!((POLY as u32).reverse_bits(), 0xEDB8_8320);
    }

    /// Both lanes equal the bit-wise definition at every length up to
    /// 4 KiB — every fold count and every tail — from every offset of a
    /// 16-byte lane.
    #[test]
    fn every_length_at_every_offset_equals_the_reference() {
        let buf = pseudo_random(4096 + 16, 0x0C0F_FEE0);
        for offset in 0..16 {
            // The reference register of each prefix, one byte on from the
            // last.
            let mut reg = !0;
            for len in 0..=4096 {
                let part = &buf[offset..offset + len];
                if let Some(&last) = part.last() {
                    reg = bitwise(reg, last);
                }
                let want = !reg;
                assert_eq!(crc32(part), want, "len {len} at offset {offset}");
                assert_eq!(portable(part), want, "portable, len {len} at offset {offset}");
            }
        }
    }

    /// Feeding parts equals feeding the whole at every split of a buffer
    /// that crosses the folding threshold, and at every pair of splits —
    /// what a checksum over `head · image · tail` relies on.
    #[test]
    fn every_two_and_three_way_split_equals_one_shot() {
        let buf = pseudo_random(200, 0xFEED);
        let whole = reference(&buf);
        for a in 0..=buf.len() {
            let mut two = Crc32::new();
            two.feed(&buf[..a]);
            two.feed(&buf[a..]);
            assert_eq!(two.finish(), whole, "split at {a}");
            for b in a..=buf.len() {
                let mut three = Crc32::new();
                three.feed(&buf[..a]);
                three.feed(&buf[a..b]);
                three.feed(&buf[b..]);
                assert_eq!(three.finish(), whole, "split at {a}, {b}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Eight bytes a step, and sixteen a fold, equal one bit a step,
        /// wherever in memory the slice starts and whatever tail it leaves.
        #[test]
        fn sliced_kernel_equals_the_reference_at_every_alignment(
            buf in proptest::collection::vec(any::<u8>(), 8..4104),
        ) {
            for start in 0..8 {
                prop_assert_eq!(crc32(&buf[start..]), reference(&buf[start..]));
                prop_assert_eq!(portable(&buf[start..]), reference(&buf[start..]));
            }
        }

        /// Feeding parts equals feeding the whole.
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
