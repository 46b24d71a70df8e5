//! Monte-Carlo reliability estimation for netlists under stochastic gate
//! faults — the measurement engine behind the §I gate-redundancy claim
//! this module's tests pin.

use crate::faults::FaultSampler;
use crate::netlist::Netlist;
use rsoc_sim::{OnlineStats, SimRng};

/// Result of a Monte-Carlo reliability run.
#[derive(Debug, Clone)]
pub struct ReliabilityReport {
    /// Circuit evaluated.
    pub circuit: String,
    /// Per-gate fault probability used.
    pub p_fault: f64,
    /// Trials executed.
    pub trials: u64,
    /// Fraction of trials whose outputs matched the golden (fault-free) run.
    pub correct_fraction: f64,
    /// Average number of faulty gates per trial.
    pub mean_faults: f64,
    /// Logic gate count of the circuit (area proxy).
    pub logic_gates: usize,
}

impl ReliabilityReport {
    /// Probability of an incorrect output.
    pub fn failure_probability(&self) -> f64 {
        1.0 - self.correct_fraction
    }
}

/// Estimates the probability that `netlist` produces correct outputs when
/// each logic gate fails independently with `sampler`'s probability.
///
/// Every trial draws fresh random inputs and a fresh fault map; correctness
/// is judged against the fault-free evaluation on the same inputs.
///
/// # Panics
/// Panics if `trials == 0`.
pub fn estimate_reliability(
    netlist: &Netlist,
    sampler: &FaultSampler,
    trials: u64,
    rng: &mut SimRng,
) -> ReliabilityReport {
    assert!(trials > 0, "need at least one trial");
    let mut correct = 0u64;
    let mut fault_stats = OnlineStats::new();
    for _ in 0..trials {
        let inputs: Vec<bool> = (0..netlist.input_count()).map(|_| rng.chance(0.5)).collect();
        let golden = netlist.eval(&inputs);
        let faults = sampler.sample(netlist, rng);
        fault_stats.push(faults.len() as f64);
        let observed = netlist.eval_with_faults(&inputs, &faults);
        if observed == golden {
            correct += 1;
        }
    }
    ReliabilityReport {
        circuit: netlist.name().to_string(),
        p_fault: sampler.p_fault(),
        trials,
        correct_fraction: correct as f64 / trials as f64,
        mean_faults: fault_stats.mean(),
        logic_gates: netlist.logic_gate_count(),
    }
}

/// Estimates N-modular-redundancy reliability with a *protected* (ideal)
/// voter: each of the `n` copies evaluates with independently sampled
/// faults and the outputs are majority-voted functionally, i.e. the voter
/// itself never fails.
///
/// This is the classic Lyons–Vanderkulk TMR model. Comparing it against
/// [`estimate_reliability`] of [`crate::redundancy::nmr`] (whose voter is
/// built from fault-prone gates) quantifies how much of the redundancy
/// budget the voter itself consumes — `tests::ideal_voter_beats_gate_voter`
/// compares both.
///
/// # Panics
/// Panics if `trials == 0` or `n` is even.
pub fn estimate_nmr_ideal_voter(
    module: &Netlist,
    n: usize,
    sampler: &FaultSampler,
    trials: u64,
    rng: &mut SimRng,
) -> ReliabilityReport {
    assert!(trials > 0, "need at least one trial");
    assert!(n >= 1 && n % 2 == 1, "NMR requires odd n");
    let mut correct = 0u64;
    let mut fault_stats = OnlineStats::new();
    for _ in 0..trials {
        let inputs: Vec<bool> = (0..module.input_count()).map(|_| rng.chance(0.5)).collect();
        let golden = module.eval(&inputs);
        let mut vote_counts = vec![0u32; module.output_count()];
        let mut total_faults = 0usize;
        for _ in 0..n {
            let faults = sampler.sample(module, rng);
            total_faults += faults.len();
            let out = module.eval_with_faults(&inputs, &faults);
            for (i, bit) in out.iter().enumerate() {
                if *bit {
                    vote_counts[i] += 1;
                }
            }
        }
        fault_stats.push(total_faults as f64);
        let voted: Vec<bool> = vote_counts.iter().map(|c| *c as usize * 2 > n).collect();
        if voted == golden {
            correct += 1;
        }
    }
    ReliabilityReport {
        circuit: format!("{}x{}(ideal-voter)", module.name(), n),
        p_fault: sampler.p_fault(),
        trials,
        correct_fraction: correct as f64 / trials as f64,
        mean_faults: fault_stats.mean(),
        logic_gates: module.logic_gate_count() * n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::ripple_carry_adder;
    use crate::redundancy::nmr;

    #[test]
    fn zero_fault_rate_is_perfect() {
        let n = ripple_carry_adder(4);
        let mut rng = SimRng::new(1);
        let rep = estimate_reliability(&n, &FaultSampler::new(0.0), 200, &mut rng);
        assert_eq!(rep.correct_fraction, 1.0);
        assert_eq!(rep.mean_faults, 0.0);
    }

    #[test]
    fn tmr_beats_simplex_at_low_fault_rates() {
        let base = ripple_carry_adder(4);
        let tmr = nmr(&base, 3);
        let rng = SimRng::new(2);
        let p = 0.002;
        let mut r1 = rng.fork(1);
        let mut r2 = rng.fork(2);
        let simplex_rep = estimate_reliability(&base, &FaultSampler::new(p), 4000, &mut r1);
        let tmr_rep = estimate_reliability(&tmr, &FaultSampler::new(p), 4000, &mut r2);
        assert!(
            tmr_rep.correct_fraction > simplex_rep.correct_fraction,
            "TMR {:.4} must beat simplex {:.4} at p={p}",
            tmr_rep.correct_fraction,
            simplex_rep.correct_fraction
        );
    }

    #[test]
    fn tmr_loses_at_extreme_fault_rates() {
        // When faults are ubiquitous, the (larger) TMR circuit fails more:
        // the paper's redundancy-is-not-free crossover.
        let base = ripple_carry_adder(4);
        let tmr = nmr(&base, 3);
        let rng = SimRng::new(3);
        let p = 0.3;
        let mut r1 = rng.fork(1);
        let mut r2 = rng.fork(2);
        let simplex_rep = estimate_reliability(&base, &FaultSampler::new(p), 3000, &mut r1);
        let tmr_rep = estimate_reliability(&tmr, &FaultSampler::new(p), 3000, &mut r2);
        assert!(
            tmr_rep.correct_fraction < simplex_rep.correct_fraction,
            "at p={p} TMR {:.3} should trail simplex {:.3}",
            tmr_rep.correct_fraction,
            simplex_rep.correct_fraction
        );
    }

    #[test]
    fn ideal_voter_tmr_clearly_beats_simplex() {
        let base = ripple_carry_adder(8);
        let rng = SimRng::new(21);
        let p = 0.002;
        let mut r1 = rng.fork(1);
        let mut r2 = rng.fork(2);
        let simplex = estimate_reliability(&base, &FaultSampler::new(p), 5000, &mut r1);
        let tmr = estimate_nmr_ideal_voter(&base, 3, &FaultSampler::new(p), 5000, &mut r2);
        assert!(
            tmr.failure_probability() < simplex.failure_probability() * 0.5,
            "protected-voter TMR must at least halve the failure rate: {} vs {}",
            tmr.failure_probability(),
            simplex.failure_probability()
        );
    }

    #[test]
    fn ideal_voter_beats_gate_voter() {
        let base = ripple_carry_adder(4);
        let gate_voter = nmr(&base, 3);
        let rng = SimRng::new(22);
        let p = 0.001;
        let mut r1 = rng.fork(1);
        let mut r2 = rng.fork(2);
        let real = estimate_reliability(&gate_voter, &FaultSampler::new(p), 20_000, &mut r1);
        let ideal = estimate_nmr_ideal_voter(&base, 3, &FaultSampler::new(p), 20_000, &mut r2);
        assert!(
            ideal.correct_fraction >= real.correct_fraction,
            "the fault-prone voter can only hurt: ideal {} vs real {}",
            ideal.correct_fraction,
            real.correct_fraction
        );
    }

    #[test]
    fn reports_are_reproducible() {
        let n = ripple_carry_adder(2);
        let a = estimate_reliability(&n, &FaultSampler::new(0.05), 500, &mut SimRng::new(9));
        let b = estimate_reliability(&n, &FaultSampler::new(0.05), 500, &mut SimRng::new(9));
        assert_eq!(a.correct_fraction, b.correct_fraction);
        assert_eq!(a.mean_faults, b.mean_faults);
    }
}
