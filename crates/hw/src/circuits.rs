//! Library of combinational circuits used by experiments and hybrids:
//! ripple-carry adder, equality comparator, multiplexer, parity tree,
//! and majority voters.

use crate::netlist::{GateId, Netlist};

/// Builds a `width`-bit ripple-carry adder.
///
/// Inputs: `a[0..width]` (LSB first), `b[0..width]`, carry-in.
/// Outputs: `sum[0..width]`, carry-out.
///
/// # Panics
/// Panics if `width == 0`.
pub fn ripple_carry_adder(width: usize) -> Netlist {
    assert!(width > 0, "adder width must be positive");
    let mut n = Netlist::new(format!("rca{width}"));
    let a: Vec<GateId> = (0..width).map(|_| n.input()).collect();
    let b: Vec<GateId> = (0..width).map(|_| n.input()).collect();
    let mut carry = n.input();
    let mut sums = Vec::with_capacity(width);
    for i in 0..width {
        // Full adder: sum = a ^ b ^ cin; cout = (a&b) | (cin & (a^b)).
        let axb = n.xor(a[i], b[i]);
        let sum = n.xor(axb, carry);
        let ab = n.and(a[i], b[i]);
        let cx = n.and(carry, axb);
        carry = n.or(ab, cx);
        sums.push(sum);
    }
    for s in sums {
        n.expose(s);
    }
    n.expose(carry);
    n
}

/// Builds a `width`-bit equality comparator: output 1 iff `a == b`.
///
/// Inputs: `a[0..width]`, `b[0..width]`. One output.
///
/// This is the shape of the "counter matches expected value" check inside a
/// USIG-style hybrid (§III).
///
/// # Panics
/// Panics if `width == 0`.
pub fn equality_comparator(width: usize) -> Netlist {
    assert!(width > 0, "comparator width must be positive");
    let mut n = Netlist::new(format!("eq{width}"));
    let a: Vec<GateId> = (0..width).map(|_| n.input()).collect();
    let b: Vec<GateId> = (0..width).map(|_| n.input()).collect();
    let mut acc: Option<GateId> = None;
    for i in 0..width {
        let bit_eq = n.gate(crate::netlist::GateKind::Xnor, &[a[i], b[i]]);
        acc = Some(match acc {
            None => bit_eq,
            Some(prev) => n.and(prev, bit_eq),
        });
    }
    n.expose(acc.expect("width > 0"));
    n
}

/// Builds a 2:1 multiplexer over `width`-bit words.
///
/// Inputs: select, `a[0..width]`, `b[0..width]`. Outputs: `width` bits
/// (`a` when select=0, `b` when select=1).
///
/// # Panics
/// Panics if `width == 0`.
pub fn mux2(width: usize) -> Netlist {
    assert!(width > 0, "mux width must be positive");
    let mut n = Netlist::new(format!("mux2x{width}"));
    let sel = n.input();
    let a: Vec<GateId> = (0..width).map(|_| n.input()).collect();
    let b: Vec<GateId> = (0..width).map(|_| n.input()).collect();
    let nsel = n.not(sel);
    let mut outs = Vec::with_capacity(width);
    for i in 0..width {
        let pa = n.and(a[i], nsel);
        let pb = n.and(b[i], sel);
        outs.push(n.or(pa, pb));
    }
    for o in outs {
        n.expose(o);
    }
    n
}

/// Builds an XOR parity tree over `width` inputs (1 output).
///
/// # Panics
/// Panics if `width == 0`.
pub fn parity_tree(width: usize) -> Netlist {
    assert!(width > 0, "parity width must be positive");
    let mut n = Netlist::new(format!("parity{width}"));
    let mut layer: Vec<GateId> = (0..width).map(|_| n.input()).collect();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(n.xor(pair[0], pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    n.expose(layer[0]);
    n
}

/// Appends a 3-input majority function (`(a&b)|(a&c)|(b&c)`) to `n`,
/// returning the output gate. The voter is built from ordinary gates and is
/// therefore itself fault-prone — TMR analyses that assume perfect voters
/// overstate reliability, which `reliability::tests::ideal_voter_beats_gate_voter`
/// pins.
pub fn majority3(n: &mut Netlist, a: GateId, b: GateId, c: GateId) -> GateId {
    let ab = n.and(a, b);
    let ac = n.and(a, c);
    let bc = n.and(b, c);
    let t = n.or(ab, ac);
    n.or(t, bc)
}

/// Appends a majority-of-N function for odd `N` (vote is 1 when more than
/// half of `xs` are 1), returning the output gate.
///
/// Implemented as an OR over all `(N+1)/2`-subsets ANDed together; fine for
/// the small N (3, 5, 7) used in modular redundancy.
///
/// # Panics
/// Panics if `xs` has even length or is empty.
pub fn majority_n(n: &mut Netlist, xs: &[GateId]) -> GateId {
    assert!(!xs.is_empty() && xs.len() % 2 == 1, "majority needs odd N");
    if xs.len() == 1 {
        return xs[0];
    }
    if xs.len() == 3 {
        return majority3(n, xs[0], xs[1], xs[2]);
    }
    let k = xs.len() / 2 + 1;
    // Enumerate k-subsets of xs; AND each, OR the lot.
    let mut subsets: Vec<GateId> = Vec::new();
    let mut pick = vec![0usize; k];
    fn rec(
        n: &mut Netlist,
        xs: &[GateId],
        k: usize,
        start: usize,
        depth: usize,
        pick: &mut Vec<usize>,
        out: &mut Vec<GateId>,
    ) {
        if depth == k {
            let mut acc = xs[pick[0]];
            for p in &pick[1..] {
                acc = n.and(acc, xs[*p]);
            }
            out.push(acc);
            return;
        }
        for i in start..=(xs.len() - (k - depth)) {
            pick[depth] = i;
            rec(n, xs, k, i + 1, depth + 1, pick, out);
        }
    }
    rec(n, xs, k, 0, 0, &mut pick, &mut subsets);
    let mut acc = subsets[0];
    for s in &subsets[1..] {
        acc = n.or(acc, *s);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: u64, width: usize) -> Vec<bool> {
        (0..width).map(|i| (v >> i) & 1 == 1).collect()
    }

    fn val(bits: &[bool]) -> u64 {
        bits.iter().enumerate().fold(0, |acc, (i, &b)| acc | ((b as u64) << i))
    }

    #[test]
    fn adder_is_correct_for_exhaustive_4bit() {
        let n = ripple_carry_adder(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                for cin in 0..2u64 {
                    let mut inputs = bits(a, 4);
                    inputs.extend(bits(b, 4));
                    inputs.push(cin == 1);
                    let out = n.eval(&inputs);
                    assert_eq!(val(&out), a + b + cin, "{a}+{b}+{cin}");
                }
            }
        }
    }

    #[test]
    fn comparator_matches_equality() {
        let n = equality_comparator(5);
        for a in 0..32u64 {
            for b in [a, (a + 1) % 32, a ^ 0x10] {
                let mut inputs = bits(a, 5);
                inputs.extend(bits(b, 5));
                assert_eq!(n.eval(&inputs), vec![a == b], "{a} vs {b}");
            }
        }
    }

    #[test]
    fn mux_selects() {
        let n = mux2(3);
        let a = bits(0b101, 3);
        let b = bits(0b010, 3);
        let mut in0 = vec![false];
        in0.extend(a.iter().copied());
        in0.extend(b.iter().copied());
        assert_eq!(val(&n.eval(&in0)), 0b101);
        let mut in1 = vec![true];
        in1.extend(a);
        in1.extend(b);
        assert_eq!(val(&n.eval(&in1)), 0b010);
    }

    #[test]
    fn parity_counts_ones() {
        let n = parity_tree(6);
        for v in 0..64u64 {
            let inputs = bits(v, 6);
            let expect = v.count_ones() % 2 == 1;
            assert_eq!(n.eval(&inputs), vec![expect], "v={v}");
        }
    }

    #[test]
    fn majority3_truth_table() {
        let mut n = Netlist::new("m3");
        let a = n.input();
        let b = n.input();
        let c = n.input();
        let m = majority3(&mut n, a, b, c);
        n.expose(m);
        for v in 0..8u64 {
            let inputs = bits(v, 3);
            let expect = v.count_ones() >= 2;
            assert_eq!(n.eval(&inputs), vec![expect], "v={v:03b}");
        }
    }

    #[test]
    fn majority5_truth_table() {
        let mut n = Netlist::new("m5");
        let xs: Vec<GateId> = (0..5).map(|_| n.input()).collect();
        let m = majority_n(&mut n, &xs);
        n.expose(m);
        for v in 0..32u64 {
            let inputs = bits(v, 5);
            let expect = v.count_ones() >= 3;
            assert_eq!(n.eval(&inputs), vec![expect], "v={v:05b}");
        }
    }

    #[test]
    fn majority1_is_identity() {
        let mut n = Netlist::new("m1");
        let a = n.input();
        let m = majority_n(&mut n, &[a]);
        n.expose(m);
        assert_eq!(n.eval(&[true]), vec![true]);
        assert_eq!(n.eval(&[false]), vec![false]);
    }
}
