//! Register cells with three protection levels (§III of the paper):
//!
//! * [`PlainRegister`] — lowest complexity; a bit-flip silently corrupts the
//!   stored value ("any bitflip in the counter will have catastrophic
//!   effects on the consensus problem").
//! * [`ParityRegister`] — detects an odd number of flips but cannot correct.
//! * [`EccRegister`] — Hamming SEC-DED; corrects one flip, detects two.
//!
//! Each reports a gate-equivalent cost so tests can pin the paper's
//! complexity-vs-resilience middle-ground argument (§III; see
//! `rsoc_hybrid::usig`'s `gate_cost_tracks_register_protection`).

use crate::ecc::{DecodeOutcome, Hamming};
use rsoc_sim::SimRng;

/// Result of reading a register that may have experienced upsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// A value was read. For a [`PlainRegister`] it may be silently wrong!
    Value(u64),
    /// The cell detected corruption it could not correct; the reader must
    /// treat the content as lost (fail-stop behaviour).
    Detected,
}

impl LoadOutcome {
    /// The read value, if any.
    pub fn value(self) -> Option<u64> {
        match self {
            LoadOutcome::Value(v) => Some(v),
            LoadOutcome::Detected => None,
        }
    }
}

/// Common interface of protected and unprotected register cells.
///
/// This trait is object-safe so hybrids can be built over `Box<dyn
/// RegisterCell>` and experiments can swap protection levels at runtime.
/// `Send` is a supertrait so replicas owning a boxed cell can move onto
/// transport-plane node threads; every cell is plain data, so the bound
/// costs implementors nothing.
pub trait RegisterCell: std::fmt::Debug + Send {
    /// Writes a value (re-encoding clears any accumulated upsets).
    fn store(&mut self, value: u64);
    /// Reads the value, applying whatever detection/correction the cell has.
    fn load(&mut self) -> LoadOutcome;
    /// Flips one physical storage bit (for SEU injection). `bit` is reduced
    /// modulo the physical width.
    fn inject_flip(&mut self, bit: u32);
    /// Flips a uniformly random physical bit.
    fn inject_random_flip(&mut self, rng: &mut SimRng) {
        let w = self.physical_bits();
        let bit = rng.below(w as u64) as u32;
        self.inject_flip(bit);
    }
    /// Number of physical storage bits (payload + check bits).
    fn physical_bits(&self) -> u32;
    /// Gate-equivalent complexity of the cell including codec logic.
    fn gate_cost(&self) -> u64;
    /// Short name for experiment output rows.
    fn protection_name(&self) -> &'static str;
}

/// Unprotected register: cheapest, silently corruptible.
#[derive(Debug, Clone)]
pub struct PlainRegister {
    width: u32,
    bits: u64,
}

impl PlainRegister {
    /// Creates a zeroed register of `width` bits (1..=64).
    ///
    /// # Panics
    /// Panics if `width` is outside `1..=64`.
    pub fn new(width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        PlainRegister { width, bits: 0 }
    }
}

impl RegisterCell for PlainRegister {
    fn store(&mut self, value: u64) {
        self.bits = mask(value, self.width);
    }

    fn load(&mut self) -> LoadOutcome {
        LoadOutcome::Value(self.bits)
    }

    fn inject_flip(&mut self, bit: u32) {
        self.bits ^= 1 << (bit % self.width);
        self.bits = mask(self.bits, self.width);
    }

    fn physical_bits(&self) -> u32 {
        self.width
    }

    fn gate_cost(&self) -> u64 {
        // ~6 gate equivalents per flip-flop.
        6 * self.width as u64
    }

    fn protection_name(&self) -> &'static str {
        "plain"
    }
}

/// Parity-protected register: detects odd numbers of flips (fail-stop),
/// corrects nothing.
#[derive(Debug, Clone)]
pub struct ParityRegister {
    width: u32,
    bits: u64,
    parity: bool,
}

impl ParityRegister {
    /// Creates a zeroed parity register of `width` payload bits (1..=64).
    ///
    /// # Panics
    /// Panics if `width` is outside `1..=64`.
    pub fn new(width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        ParityRegister { width, bits: 0, parity: false }
    }
}

impl RegisterCell for ParityRegister {
    fn store(&mut self, value: u64) {
        self.bits = mask(value, self.width);
        self.parity = self.bits.count_ones() % 2 == 1;
    }

    fn load(&mut self) -> LoadOutcome {
        let now = self.bits.count_ones() % 2 == 1;
        if now == self.parity {
            LoadOutcome::Value(self.bits)
        } else {
            LoadOutcome::Detected
        }
    }

    fn inject_flip(&mut self, bit: u32) {
        let phys = self.physical_bits();
        let bit = bit % phys;
        if bit < self.width {
            self.bits ^= 1 << bit;
        } else {
            self.parity = !self.parity;
        }
    }

    fn physical_bits(&self) -> u32 {
        self.width + 1
    }

    fn gate_cost(&self) -> u64 {
        // Flip-flops plus an XOR parity tree on each side.
        6 * (self.width as u64 + 1) + 2 * self.width as u64
    }

    fn protection_name(&self) -> &'static str {
        "parity"
    }
}

/// Hamming-SEC-DED-protected register: corrects one flip, detects two.
#[derive(Debug, Clone)]
pub struct EccRegister {
    code: Hamming,
    codeword: u128,
}

impl EccRegister {
    /// Creates a zeroed ECC register of `width` payload bits (1..=64).
    ///
    /// # Panics
    /// Panics if `width` is outside `1..=64`.
    pub fn new(width: u32) -> Self {
        let code = Hamming::new(width);
        EccRegister { code, codeword: code.encode(0) }
    }

    /// The underlying code parameters.
    pub fn code(&self) -> Hamming {
        self.code
    }
}

impl RegisterCell for EccRegister {
    fn store(&mut self, value: u64) {
        self.codeword = self.code.encode(mask(value, self.code.data_bits()));
    }

    fn load(&mut self) -> LoadOutcome {
        match self.code.decode(self.codeword) {
            DecodeOutcome::Clean(v) => LoadOutcome::Value(v),
            DecodeOutcome::Corrected(v, _) => {
                // Scrub: rewrite the corrected codeword so upsets don't accumulate.
                self.codeword = self.code.encode(v);
                LoadOutcome::Value(v)
            }
            DecodeOutcome::DoubleError => LoadOutcome::Detected,
        }
    }

    fn inject_flip(&mut self, bit: u32) {
        let bit = bit % self.physical_bits();
        self.codeword ^= 1u128 << bit;
    }

    fn physical_bits(&self) -> u32 {
        self.code.codeword_bits()
    }

    fn gate_cost(&self) -> u64 {
        6 * self.code.codeword_bits() as u64 + self.code.gate_cost()
    }

    fn protection_name(&self) -> &'static str {
        "secded"
    }
}

fn mask(v: u64, width: u32) -> u64 {
    if width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_silently_corrupts() {
        let mut r = PlainRegister::new(16);
        r.store(0x1234);
        assert_eq!(r.load(), LoadOutcome::Value(0x1234));
        r.inject_flip(0);
        // Reads fine — but wrong. This is the §III catastrophe.
        assert_eq!(r.load(), LoadOutcome::Value(0x1235));
    }

    #[test]
    fn parity_detects_single_flip() {
        let mut r = ParityRegister::new(16);
        r.store(0xBEEF);
        assert_eq!(r.load(), LoadOutcome::Value(0xBEEF));
        r.inject_flip(3);
        assert_eq!(r.load(), LoadOutcome::Detected);
    }

    #[test]
    fn parity_misses_double_flip() {
        let mut r = ParityRegister::new(16);
        r.store(0xBEEF);
        r.inject_flip(0);
        r.inject_flip(1);
        // Even number of flips — parity is fooled, value silently wrong.
        assert_eq!(r.load(), LoadOutcome::Value(0xBEEF ^ 0b11));
    }

    #[test]
    fn parity_flip_of_parity_bit_detected() {
        let mut r = ParityRegister::new(8);
        r.store(0xFF);
        r.inject_flip(8); // the parity bit itself
        assert_eq!(r.load(), LoadOutcome::Detected);
    }

    #[test]
    fn ecc_corrects_single_flip_everywhere() {
        let mut r = EccRegister::new(32);
        r.store(0xCAFEBABE);
        for bit in 0..r.physical_bits() {
            r.inject_flip(bit);
            assert_eq!(r.load(), LoadOutcome::Value(0xCAFEBABE), "bit={bit}");
        }
    }

    #[test]
    fn ecc_scrubs_after_correction() {
        let mut r = EccRegister::new(8);
        r.store(0x5A);
        r.inject_flip(2);
        assert_eq!(r.load(), LoadOutcome::Value(0x5A));
        // Another flip after scrubbing is again a single error.
        r.inject_flip(5);
        assert_eq!(r.load(), LoadOutcome::Value(0x5A));
    }

    #[test]
    fn ecc_detects_double_flip() {
        let mut r = EccRegister::new(8);
        r.store(0x5A);
        r.inject_flip(2);
        r.inject_flip(7);
        assert_eq!(r.load(), LoadOutcome::Detected);
    }

    #[test]
    fn store_clears_accumulated_damage() {
        let mut r = EccRegister::new(8);
        r.store(0x5A);
        r.inject_flip(1);
        r.inject_flip(2);
        r.store(0x33);
        assert_eq!(r.load(), LoadOutcome::Value(0x33));
    }

    #[test]
    fn cost_ordering_matches_protection() {
        let plain = PlainRegister::new(64);
        let parity = ParityRegister::new(64);
        let ecc = EccRegister::new(64);
        assert!(plain.gate_cost() < parity.gate_cost());
        assert!(parity.gate_cost() < ecc.gate_cost());
        assert_eq!(plain.protection_name(), "plain");
        assert_eq!(parity.protection_name(), "parity");
        assert_eq!(ecc.protection_name(), "secded");
    }

    #[test]
    fn random_flip_stays_in_width() {
        let mut rng = rsoc_sim::SimRng::new(3);
        let mut r = PlainRegister::new(8);
        r.store(0);
        for _ in 0..100 {
            r.inject_random_flip(&mut rng);
        }
        let v = r.load().value().unwrap();
        assert!(v < 256, "flips must stay within the declared width");
    }

    #[test]
    fn trait_object_usable() {
        let mut cells: Vec<Box<dyn RegisterCell>> = vec![
            Box::new(PlainRegister::new(16)),
            Box::new(ParityRegister::new(16)),
            Box::new(EccRegister::new(16)),
        ];
        for c in &mut cells {
            c.store(42);
            assert_eq!(c.load(), LoadOutcome::Value(42));
        }
    }
}
