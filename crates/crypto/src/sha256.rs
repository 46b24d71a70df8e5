//! SHA-256 (FIPS 180-4), incremental and one-shot.

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use rsoc_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), rsoc_crypto::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0; 64], buf_len: 0, total_len: 0 }
    }

    /// Resumes hashing from a precomputed compression state after `blocks`
    /// whole 64-byte blocks have been absorbed.
    ///
    /// This is the building block for amortized keyed hashing: HMAC's
    /// inner/outer pad blocks depend only on the key, so their compression
    /// states can be computed once per key and resumed per message (see
    /// [`crate::MacKey`]).
    pub fn from_midstate(state: [u32; 8], blocks: u64) -> Self {
        Sha256 { state, buf: [0; 64], buf_len: 0, total_len: blocks * 64 }
    }

    /// The compression state after the data absorbed so far.
    ///
    /// # Panics
    /// Panics unless the absorbed length is a whole number of 64-byte
    /// blocks (otherwise the buffered tail would be silently dropped).
    pub fn midstate(&self) -> [u32; 8] {
        assert_eq!(self.buf_len, 0, "midstate requires block-aligned input");
        self.state
    }

    /// Absorbs `data`.
    ///
    /// Whole 64-byte blocks are compressed directly from `data` in one
    /// kernel call; only a sub-block tail is staged through the internal
    /// buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (whole, tail) = rest.split_at(rest.len() & !63);
        compress_blocks(&mut self.state, whole);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        finish(self.state, &self.buf[..self.buf_len], self.total_len)
    }
}

/// SHA-256 of `data` absorbed after `absorbed` bytes (a whole number of
/// blocks) already brought the compression state to `state`: whole blocks
/// straight from `data`, the padded tail from the stack, no staging buffer.
/// [`sha256`] is this from `H0`; [`crate::MacKey`] resumes its pad
/// midstates through it.
#[inline]
pub(crate) fn digest_from(mut state: [u32; 8], absorbed: u64, data: &[u8]) -> [u8; 32] {
    let (whole, tail) = data.split_at(data.len() & !63);
    compress_blocks(&mut state, whole);
    finish(state, tail, absorbed.wrapping_add(data.len() as u64))
}

/// Pads the sub-block `tail` of a `total_len`-byte message (0x80, zeros,
/// 64-bit big-endian bit length), compresses the one or two blocks that
/// makes in a single kernel call, and serialises the state.
#[inline]
fn finish(mut state: [u32; 8], tail: &[u8], total_len: u64) -> [u8; 32] {
    let n = tail.len();
    debug_assert!(n < 64, "the tail is what is left after whole blocks");
    let mut padded = [0u8; 128];
    padded[..n].copy_from_slice(tail);
    padded[n] = 0x80;
    // The length field needs 8 bytes after the 0x80: a tail of 56+ bytes
    // spills it into a second block.
    let end = if n < 56 { 64 } else { 128 };
    padded[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress_blocks(&mut state, &padded[..end]);

    let mut out = [0u8; 32];
    for (bytes, w) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&w.to_be_bytes());
    }
    out
}

// The block function dominates MAC cost (3 compressions per protocol
// message); `rsoc_lint` keeps both lanes allocation-free.
// lint: hot-path
/// Compresses every 64-byte block of `blocks` into `state`: one feature
/// test per call, and on the accelerated lane one state repack with the
/// state held in registers across blocks.
///
/// `blocks.len()` must be a multiple of 64 (a trailing partial block would
/// be silently ignored).
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if accel::available() {
        // SAFETY: the required target features were verified at runtime.
        unsafe { accel::compress_blocks(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_soft(state, block.try_into().expect("64-byte chunk"));
    }
}

/// Portable scalar compression (FIPS 180-4 reference shape) — the
/// fallback when no hardware SHA extension is present, and the
/// specification the accelerated path is tested against.
fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}
// lint: end

/// SHA-NI accelerated compression, runtime-detected.
///
/// Every MAC on the consensus hot path is 3 compressions, so the block
/// function dominates authentication cost; the x86 SHA extension runs a
/// round quartet per instruction. Detection is cached by the stdlib
/// feature-detection macro; non-x86 targets (and CPUs without the
/// extension) use [`compress_soft`] unchanged.
#[cfg(target_arch = "x86_64")]
mod accel {
    use super::K;
    use core::arch::x86_64::*;

    /// Whether the SHA extension (and the SSE levels the kernel below
    /// uses) is present on this CPU.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    // lint: hot-path
    /// Compresses every whole 64-byte block of `blocks` into `state`.
    ///
    /// # Safety
    /// Callers must have verified [`available`] returns `true`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte shuffle turning little-endian loads into big-endian words.
        let be_mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);

        // Repack [a,b,c,d]/[e,f,g,h] into the ABEF/CDGH lane layout the
        // sha256rnds2 instruction expects — once per call, not per block.
        let tmp = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let tmp = _mm_shuffle_epi32(tmp, 0xB1);
        let st1 = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let st1 = _mm_shuffle_epi32(st1, 0x1B);
        let mut state0 = _mm_alignr_epi8(tmp, st1, 8);
        let mut state1 = _mm_blend_epi16(st1, tmp, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_save, cdgh_save) = (state0, state1);

            // Message schedule ring: msgs[g % 4] holds words w[4g..4g+4].
            let load = |offset: usize| {
                let raw = _mm_loadu_si128(block.as_ptr().add(offset * 16) as *const __m128i);
                _mm_shuffle_epi8(raw, be_mask)
            };
            let mut msgs = [load(0), load(1), load(2), load(3)];

            for g in 0..16 {
                let k = _mm_loadu_si128(K.as_ptr().add(4 * g) as *const __m128i);
                let wk = _mm_add_epi32(msgs[g % 4], k);
                state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
                state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0E));
                if (3..15).contains(&g) {
                    // Produce w[4(g+1)..4(g+1)+4] into the oldest ring slot:
                    // w[t] = σ1(w[t-2]) + w[t-7] + σ0(w[t-15]) + w[t-16].
                    let newest = msgs[g % 4];
                    let w_minus_7 = _mm_alignr_epi8(newest, msgs[(g + 3) % 4], 4);
                    let partial = _mm_add_epi32(
                        _mm_sha256msg1_epu32(msgs[(g + 1) % 4], msgs[(g + 2) % 4]),
                        w_minus_7,
                    );
                    msgs[(g + 1) % 4] = _mm_sha256msg2_epu32(partial, newest);
                }
            }

            state0 = _mm_add_epi32(state0, abef_save);
            state1 = _mm_add_epi32(state1, cdgh_save);
        }

        // Repack ABEF/CDGH back to [a,b,c,d]/[e,f,g,h].
        let tmp = _mm_shuffle_epi32(state0, 0x1B);
        let state1 = _mm_shuffle_epi32(state1, 0xB1);
        let out0 = _mm_blend_epi16(tmp, state1, 0xF0);
        let out1 = _mm_alignr_epi8(state1, tmp, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, out0);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, out1);
    }
    // lint: end
}

/// One-shot SHA-256.
///
/// ```
/// let d = rsoc_crypto::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    digest_from(H0, 0, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 by the book, sharing nothing with the code under test but
    /// the scalar block function: pad into a `Vec`, compress every block.
    fn soft_sha256(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress_soft(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn pseudo_random(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (seed >> 56) as u8
            })
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_compress_matches_scalar_reference() {
        if !accel::available() {
            return; // nothing to cross-check on this CPU
        }
        // Pseudo-random multi-block inputs and chained states: the SHA-NI
        // kernel must be bit-identical to the scalar specification whether
        // it sees the blocks one call at a time or all in one.
        let (mut fast, mut soft) = (H0, H0);
        for blocks in 0..=9usize {
            let data = pseudo_random(64 * blocks, 0x1234_5678_9abc_def0 + blocks as u64);
            // SAFETY: availability checked above.
            unsafe { accel::compress_blocks(&mut fast, &data) };
            let mut stepped = soft;
            for block in data.chunks_exact(64) {
                compress_soft(&mut soft, block.try_into().unwrap());
                // SAFETY: availability checked above.
                unsafe { accel::compress_blocks(&mut stepped, block) };
            }
            assert_eq!(fast, soft, "{blocks} blocks in one call");
            assert_eq!(stepped, soft, "{blocks} blocks, one call each");
        }
    }

    #[test]
    fn every_length_matches_the_scalar_reference() {
        // 0..=200 crosses every padding shape: tail < 56 (one block),
        // 56..=63 (length spills into a second), exact multiples of 64.
        let data = pseudo_random(200, 7);
        for len in 0..=data.len() {
            let want = soft_sha256(&data[..len]);
            assert_eq!(sha256(&data[..len]), want, "one-shot, len {len}");
            let mut h = Sha256::new();
            h.update(&data[..len]);
            assert_eq!(h.finalize(), want, "incremental, len {len}");
        }
    }

    #[test]
    fn every_split_around_the_block_boundaries_matches_the_reference() {
        let data = pseudo_random(200, 11);
        for len in [55, 56, 63, 64, 65, 119, 120, 127, 128, 129, 200] {
            let want = soft_sha256(&data[..len]);
            for first in 0..=len {
                // Two-way split at every point…
                let mut h = Sha256::new();
                h.update(&data[..first]);
                h.update(&data[first..len]);
                assert_eq!(h.finalize(), want, "len {len} split at {first}");
                // …and a three-way one that leaves a partial buffer to top up.
                for second in [55, 56, 63, 64, 119, 120, 128] {
                    if (first..=len).contains(&second) {
                        let mut h = Sha256::new();
                        h.update(&data[..first]);
                        h.update(&data[first..second]);
                        h.update(&data[second..len]);
                        assert_eq!(h.finalize(), want, "len {len} split at {first}, {second}");
                    }
                }
            }
        }
    }

    #[test]
    fn digest_from_resumes_a_midstate_like_the_incremental_hasher() {
        let data = pseudo_random(64 + 200, 13);
        let mut h = Sha256::new();
        h.update(&data[..64]);
        let mid = h.midstate();
        for len in 0..=200 {
            let rest = &data[64..64 + len];
            assert_eq!(digest_from(mid, 64, rest), soft_sha256(&data[..64 + len]), "len {len}");
        }
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_block() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let reference = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn midstate_roundtrip_resumes_exactly() {
        // Hash 128 bytes, snapshot after the first two blocks, resume.
        let data: Vec<u8> = (0..200u16).map(|i| (i % 241) as u8).collect();
        let mut h = Sha256::new();
        h.update(&data[..128]);
        let mid = h.midstate();
        let mut resumed = Sha256::from_midstate(mid, 2);
        resumed.update(&data[128..]);
        assert_eq!(resumed.finalize(), sha256(&data));
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn midstate_rejects_partial_blocks() {
        let mut h = Sha256::new();
        h.update(b"short");
        let _ = h.midstate();
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Sanity (not a security proof): small perturbations change the digest.
        let base = sha256(b"tile-0 message 1");
        for i in 0..64u8 {
            let mut m = b"tile-0 message 1".to_vec();
            m[(i % 16) as usize] ^= 1 << (i % 8);
            assert_ne!(sha256(&m), base);
        }
    }
}
