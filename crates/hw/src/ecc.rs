//! Hamming SEC-DED (single-error-correct, double-error-detect) codec.
//!
//! This is the ECC the paper's §III proposes for hybrid registers: "ECC
//! registers add extra bits and the logic required for correction, which
//! both increase the complexity of the circuit at the benefit of tolerating
//! a certain number of bitflips."
//!
//! Layout: extended Hamming code. Codeword bit positions are 1-indexed;
//! positions that are powers of two hold parity bits; position 0 (stored as
//! the top bit here) holds the overall parity for double-error detection.

/// Outcome of decoding a possibly corrupted codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// No error detected; payload returned.
    Clean(u64),
    /// A single bit error was corrected; payload plus the corrupted
    /// codeword bit position (1-indexed; `0` = overall parity bit).
    Corrected(u64, u32),
    /// Two-bit error detected; data unrecoverable.
    DoubleError,
}

impl DecodeOutcome {
    /// Payload if recoverable.
    pub fn value(self) -> Option<u64> {
        match self {
            DecodeOutcome::Clean(v) | DecodeOutcome::Corrected(v, _) => Some(v),
            DecodeOutcome::DoubleError => None,
        }
    }
}

/// An extended Hamming SEC-DED code for payloads of 1..=64 bits.
///
/// ```
/// use rsoc_hw::ecc::{DecodeOutcome, Hamming};
/// let code = Hamming::new(32);
/// let cw = code.encode(0xDEAD_BEEF);
/// assert_eq!(code.decode(cw), DecodeOutcome::Clean(0xDEAD_BEEF));
/// // Any single flipped bit is corrected:
/// let corrupted = cw ^ (1 << 7);
/// assert_eq!(code.decode(corrupted).value(), Some(0xDEAD_BEEF));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hamming {
    data_bits: u32,
    parity_bits: u32,
    /// Scatter/gather map. Payload bits sit at the non-power-of-two
    /// codeword positions, which form one contiguous run between each pair
    /// of parity positions (3 | 5–7 | 9–15 | 17–31 | 33–63 | 65–71 for 64
    /// bits), so the payload moves a run at a time, not a bit at a time.
    /// Unused trailing entries are empty (`mask == 0`).
    runs: [Run; 6],
    /// Coverage mask per Hamming parity bit: the set of codeword
    /// positions whose 1-indexed position has bit `p` set. Parity and
    /// syndrome computations reduce to `count_ones` over these masks —
    /// the software analogue of the hardware XOR tree — instead of
    /// per-bit scans (this codec runs on every USIG counter access, so
    /// it is squarely on the consensus hot path).
    masks: [u128; 7],
}

/// One contiguous run of payload bits inside the codeword: payload bits
/// `shift..shift + mask.count_ones()` live at codeword positions `pos..`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Run {
    pos: u8,
    shift: u8,
    /// The run's width as a right-aligned bit mask.
    mask: u64,
}

impl Hamming {
    /// Creates a code for `data_bits`-bit payloads.
    ///
    /// # Panics
    /// Panics unless `1 <= data_bits <= 64`.
    pub fn new(data_bits: u32) -> Self {
        assert!((1..=64).contains(&data_bits), "data width must be 1..=64");
        let mut r = 0u32;
        while (1u64 << r) < (data_bits + r + 1) as u64 {
            r += 1;
        }
        let total = data_bits + r;
        // Run `k` starts just above parity position 2^(k+1) and ends below
        // the next one (or at the codeword's end).
        let mut runs = [Run::default(); 6];
        let mut shift = 0u32;
        for (k, run) in runs.iter_mut().enumerate() {
            let pos = (2u32 << k) + 1;
            if pos > total {
                break;
            }
            let len = ((4u32 << k) - 1).min(total) - pos + 1;
            *run = Run { pos: pos as u8, shift: shift as u8, mask: u64::MAX >> (64 - len) };
            shift += len;
        }
        debug_assert_eq!(shift, data_bits, "the runs cover the payload exactly");
        let mut masks = [0u128; 7];
        for (p, mask) in masks.iter_mut().enumerate().take(r as usize) {
            for pos in 1..=total {
                if pos & (1u32 << p) != 0 {
                    *mask |= 1u128 << pos;
                }
            }
        }
        Hamming { data_bits, parity_bits: r, runs, masks }
    }

    /// Payload width in bits.
    pub fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Number of Hamming parity bits (excluding the overall parity bit).
    pub fn parity_bits(&self) -> u32 {
        self.parity_bits
    }

    /// Total codeword width: data + parity + 1 overall-parity bit.
    pub fn codeword_bits(&self) -> u32 {
        self.data_bits + self.parity_bits + 1
    }

    /// Rough gate-equivalent cost of the encoder+decoder (XOR trees plus a
    /// correction decoder), for §III complexity accounting.
    pub fn gate_cost(&self) -> u64 {
        let n = self.codeword_bits() as u64;
        // Each parity bit XORs ~n/2 positions; syndrome decode ~n AND-OR; correction n XOR.
        (self.parity_bits as u64 + 1) * (n / 2) + 2 * n
    }

    // Every USIG certificate loads and stores the counter through these
    // two: `rsoc_lint` keeps them allocation-free.
    // lint: hot-path
    /// Encodes `data` into a codeword (stored in the low
    /// [`codeword_bits`](Self::codeword_bits) bits of the return value).
    ///
    /// # Panics
    /// Panics if `data` has bits beyond the payload width.
    pub fn encode(&self, data: u64) -> u128 {
        if self.data_bits < 64 {
            assert!(data < (1u64 << self.data_bits), "payload too wide");
        }
        // Scatter the payload into the non-power-of-two positions.
        let mut word: u128 = 0;
        for run in &self.runs {
            word |= (((data >> run.shift) & run.mask) as u128) << run.pos;
        }
        // Each Hamming parity bit is one masked popcount (the XOR tree).
        // Position `2^p` is still zero in `word`, so including it in the
        // mask is harmless here and required for the decode syndrome.
        for p in 0..self.parity_bits as usize {
            if (word & self.masks[p]).count_ones() & 1 == 1 {
                word |= 1u128 << (1u32 << p);
            }
        }
        // Overall parity over positions 1..=total, stored at bit 0.
        if (word >> 1).count_ones() % 2 == 1 {
            word |= 1;
        }
        word
    }

    /// Decodes a codeword, correcting single-bit and detecting double-bit
    /// errors.
    pub fn decode(&self, mut word: u128) -> DecodeOutcome {
        let total = self.data_bits + self.parity_bits;
        // Syndrome bit `p` is the parity of the set positions whose index
        // has bit `p` set — one masked popcount per parity bit.
        let mut syndrome: u32 = 0;
        for p in 0..self.parity_bits as usize {
            syndrome |= ((word & self.masks[p]).count_ones() & 1) << p;
        }
        // Overall parity check (positions 0..=total).
        let mask = if total + 1 >= 128 { u128::MAX } else { (1u128 << (total + 1)) - 1 };
        let overall_odd = (word & mask).count_ones() % 2 == 1;

        let corrected_pos = if syndrome == 0 && !overall_odd {
            None // clean
        } else if overall_odd {
            // Single-bit error: at `syndrome` (or the overall parity bit when 0).
            if syndrome > total {
                return DecodeOutcome::DoubleError; // syndrome points outside codeword
            }
            word ^= 1u128 << syndrome;
            Some(syndrome)
        } else {
            // Syndrome nonzero but overall parity even: double error.
            return DecodeOutcome::DoubleError;
        };

        // Gather the payload back through the scatter map.
        let mut data: u64 = 0;
        for run in &self.runs {
            data |= ((word >> run.pos) as u64 & run.mask) << run.shift;
        }
        match corrected_pos {
            None => DecodeOutcome::Clean(data),
            Some(p) => DecodeOutcome::Corrected(data, p),
        }
    }
    // lint: end
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsoc_sim::SimRng;

    #[test]
    fn parity_bit_counts() {
        assert_eq!(Hamming::new(1).parity_bits(), 2);
        assert_eq!(Hamming::new(4).parity_bits(), 3);
        assert_eq!(Hamming::new(11).parity_bits(), 4);
        assert_eq!(Hamming::new(26).parity_bits(), 5);
        assert_eq!(Hamming::new(32).parity_bits(), 6);
        assert_eq!(Hamming::new(57).parity_bits(), 6);
        assert_eq!(Hamming::new(64).parity_bits(), 7);
        assert_eq!(Hamming::new(64).codeword_bits(), 72);
    }

    #[test]
    fn roundtrip_clean() {
        for width in [1u32, 4, 8, 16, 32, 48, 64] {
            let code = Hamming::new(width);
            let mut rng = SimRng::new(width as u64);
            for _ in 0..200 {
                let data = if width == 64 {
                    rng.next_u64()
                } else {
                    rng.next_u64() & ((1u64 << width) - 1)
                };
                assert_eq!(code.decode(code.encode(data)), DecodeOutcome::Clean(data));
            }
        }
    }

    #[test]
    fn corrects_every_single_bit_error() {
        for width in [4u32, 16, 64] {
            let code = Hamming::new(width);
            let mut rng = SimRng::new(100 + width as u64);
            for _ in 0..50 {
                let data = rng.next_u64() & if width == 64 { u64::MAX } else { (1 << width) - 1 };
                let cw = code.encode(data);
                for bit in 0..code.codeword_bits() {
                    let corrupted = cw ^ (1u128 << bit);
                    match code.decode(corrupted) {
                        DecodeOutcome::Corrected(v, pos) => {
                            assert_eq!(v, data, "width={width} bit={bit}");
                            assert_eq!(pos, bit, "reported position");
                        }
                        other => panic!("width={width} bit={bit}: got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn detects_every_double_bit_error() {
        let code = Hamming::new(16);
        let mut rng = SimRng::new(7);
        for _ in 0..20 {
            let data = rng.next_u64() & 0xFFFF;
            let cw = code.encode(data);
            let n = code.codeword_bits();
            for b1 in 0..n {
                for b2 in (b1 + 1)..n {
                    let corrupted = cw ^ (1u128 << b1) ^ (1u128 << b2);
                    assert_eq!(
                        code.decode(corrupted),
                        DecodeOutcome::DoubleError,
                        "bits {b1},{b2}"
                    );
                }
            }
        }
    }

    /// The code bit by bit, as the module doc states it: payload bit `i`
    /// at the `i`-th non-power-of-two position, Hamming parity `p` at
    /// position `2^p` over every position with bit `p` set, overall parity
    /// at position 0.
    fn reference_encode(width: u32, data: u64) -> u128 {
        let code = Hamming::new(width);
        let total = width + code.parity_bits();
        let mut word = 0u128;
        for (i, pos) in (1..=total).filter(|pos| !pos.is_power_of_two()).enumerate() {
            word |= (((data >> i) & 1) as u128) << pos;
        }
        for p in 0..code.parity_bits() {
            let ones = (1..=total).filter(|pos| pos & (1 << p) != 0 && (word >> pos) & 1 == 1);
            word |= ((ones.count() & 1) as u128) << (1u32 << p);
        }
        word | ((word.count_ones() & 1) as u128)
    }

    fn reference_gather(width: u32, word: u128) -> u64 {
        let total = width + Hamming::new(width).parity_bits();
        let mut data = 0u64;
        for (i, pos) in (1..=total).filter(|pos| !pos.is_power_of_two()).enumerate() {
            data |= (((word >> pos) & 1) as u64) << i;
        }
        data
    }

    #[test]
    fn run_scatter_matches_the_bit_by_bit_reference_at_every_width() {
        for width in 1..=64u32 {
            let code = Hamming::new(width);
            let top = if width == 64 { u64::MAX } else { (1 << width) - 1 };
            let mut rng = SimRng::new(900 + width as u64);
            // Walking ones, the extremes, and random payloads.
            let walking = (0..width).map(|bit| 1u64 << bit);
            let random: Vec<u64> = (0..32).map(|_| rng.next_u64() & top).collect();
            for data in walking.chain([0, top]).chain(random) {
                let cw = code.encode(data);
                assert_eq!(cw, reference_encode(width, data), "width={width} data={data:#x}");
                assert_eq!(reference_gather(width, cw), data);
                assert_eq!(code.decode(cw), DecodeOutcome::Clean(data));
            }
        }
    }

    #[test]
    fn every_width_corrects_all_single_and_detects_all_double_flips() {
        for width in 1..=64u32 {
            let code = Hamming::new(width);
            let top = if width == 64 { u64::MAX } else { (1 << width) - 1 };
            let data = SimRng::new(width as u64).next_u64() & top;
            let cw = code.encode(data);
            let n = code.codeword_bits();
            for b1 in 0..n {
                let one = cw ^ (1u128 << b1);
                assert_eq!(code.decode(one), DecodeOutcome::Corrected(data, b1), "width={width}");
                for b2 in (b1 + 1)..n {
                    let two = one ^ (1u128 << b2);
                    assert_eq!(
                        code.decode(two),
                        DecodeOutcome::DoubleError,
                        "width={width} bits {b1},{b2}"
                    );
                }
            }
        }
    }

    #[test]
    fn triple_errors_may_miscorrect_but_never_panic() {
        // SEC-DED gives no guarantee beyond 2 flips; just assert totality.
        let code = Hamming::new(8);
        let cw = code.encode(0xA5);
        let mut rng = SimRng::new(13);
        for _ in 0..500 {
            let mut corrupted = cw;
            for _ in 0..3 {
                corrupted ^= 1u128 << rng.below(code.codeword_bits() as u64);
            }
            let _ = code.decode(corrupted);
        }
    }

    #[test]
    fn gate_cost_grows_with_width() {
        assert!(Hamming::new(64).gate_cost() > Hamming::new(16).gate_cost());
        assert!(Hamming::new(16).gate_cost() > Hamming::new(4).gate_cost());
    }

    #[test]
    #[should_panic(expected = "payload too wide")]
    fn encode_rejects_oversized_payload() {
        Hamming::new(4).encode(0x1F);
    }
}
