//! N-modular redundancy transforms (§I of the paper: "backup gates,
//! replicated parallel gates, or diverse gates").
//!
//! [`nmr`] replicates a module N times and votes each output with a majority
//! circuit built from ordinary — fault-prone — gates. This keeps the analysis
//! honest: reliability gains saturate once voter failures dominate, the
//! crossover `reliability::tests::tmr_loses_at_extreme_fault_rates` pins.

use crate::circuits::majority_n;
use crate::netlist::{GateId, Netlist};

/// Builds the N-modular-redundant version of `module` for odd `n >= 1`.
///
/// The result has the same interface as `module` (same input and output
/// counts); internally it instantiates `n` structural copies sharing the
/// primary inputs and votes each output bit with [`majority_n`].
///
/// `nmr(m, 1)` is a structural copy of `m` (no voters).
///
/// # Panics
/// Panics if `n` is even or zero.
///
/// ```
/// use rsoc_hw::circuits::equality_comparator;
/// use rsoc_hw::redundancy::nmr;
/// let eq = equality_comparator(3);
/// let tmr = nmr(&eq, 3);
/// assert_eq!(tmr.input_count(), eq.input_count());
/// assert_eq!(tmr.output_count(), eq.output_count());
/// assert!(tmr.logic_gate_count() > 3 * eq.logic_gate_count());
/// ```
pub fn nmr(module: &Netlist, n: usize) -> Netlist {
    assert!(n >= 1 && n % 2 == 1, "NMR requires odd n >= 1, got {n}");
    let mut out = Netlist::new(format!("{}x{}", module.name(), n));
    let inputs: Vec<GateId> = (0..module.input_count()).map(|_| out.input()).collect();
    let mut copies: Vec<Vec<GateId>> = Vec::with_capacity(n);
    for _ in 0..n {
        copies.push(out.instantiate(module, &inputs));
    }
    for bit in 0..module.output_count() {
        let votes: Vec<GateId> = copies.iter().map(|c| c[bit]).collect();
        let voted = majority_n(&mut out, &votes);
        out.expose(voted);
    }
    out
}

/// Gate-count overhead factor of `nmr(module, n)` relative to `module`,
/// the "space" cost in the paper's space/energy/time-vs-resilience tradeoff.
pub fn nmr_overhead(module: &Netlist, n: usize) -> f64 {
    let base = module.logic_gate_count().max(1) as f64;
    nmr(module, n).logic_gate_count() as f64 / base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::ripple_carry_adder;
    use crate::faults::{FaultKind, FaultMap};
    use rsoc_sim::SimRng;

    fn adder_inputs(rng: &mut SimRng, width: usize) -> Vec<bool> {
        (0..2 * width + 1).map(|_| rng.chance(0.5)).collect()
    }

    #[test]
    fn nmr_preserves_function() {
        let base = ripple_carry_adder(4);
        let mut rng = SimRng::new(5);
        for n in [1, 3, 5] {
            let red = nmr(&base, n);
            for _ in 0..50 {
                let inputs = adder_inputs(&mut rng, 4);
                assert_eq!(red.eval(&inputs), base.eval(&inputs), "n={n}");
            }
        }
    }

    #[test]
    fn tmr_masks_any_single_gate_fault() {
        let base = ripple_carry_adder(2);
        let tmr = nmr(&base, 3);
        let mut rng = SimRng::new(9);
        let inputs: Vec<Vec<bool>> = (0..8).map(|_| adder_inputs(&mut rng, 2)).collect();
        for gate_idx in 0..tmr.gate_count() {
            let id = crate::netlist::GateId::new(gate_idx as u32);
            if tmr.inputs().contains(&id) {
                continue; // input corruption is not maskable by modular redundancy
            }
            // Voter gates (after the three copies) are NOT masked — skip the
            // final voter region and assert masking only for copy-internal faults.
            let copies_end = tmr.input_count() + 3 * (base.gate_count() - base.input_count());
            if gate_idx >= copies_end {
                continue;
            }
            for kind in [FaultKind::StuckAt0, FaultKind::StuckAt1, FaultKind::Flip] {
                let mut faults = FaultMap::new();
                faults.insert(id, kind);
                for input in &inputs {
                    assert_eq!(
                        tmr.eval_with_faults(input, &faults),
                        base.eval(input),
                        "gate {gate_idx} {kind:?} must be masked"
                    );
                }
            }
        }
    }

    #[test]
    fn simplex_does_not_mask() {
        let base = ripple_carry_adder(2);
        let simplex = nmr(&base, 1);
        // Fault the first logic gate; at least one input pattern must differ.
        let first_logic = (0..simplex.gate_count())
            .map(|i| crate::netlist::GateId::new(i as u32))
            .find(|id| !simplex.inputs().contains(id))
            .unwrap();
        let mut faults = FaultMap::new();
        faults.insert(first_logic, FaultKind::Flip);
        let mut rng = SimRng::new(11);
        let mut any_diff = false;
        for _ in 0..64 {
            let inputs = adder_inputs(&mut rng, 2);
            if simplex.eval_with_faults(&inputs, &faults) != base.eval(&inputs) {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "an unprotected fault must be observable");
    }

    #[test]
    fn overhead_grows_with_n() {
        let base = ripple_carry_adder(4);
        let o3 = nmr_overhead(&base, 3);
        let o5 = nmr_overhead(&base, 5);
        assert!(o3 > 3.0, "TMR overhead includes voters: {o3}");
        assert!(o5 > o3, "5-MR costs more than TMR");
    }

    #[test]
    #[should_panic(expected = "odd n")]
    fn rejects_even_n() {
        nmr(&ripple_carry_adder(2), 2);
    }
}
