//! Gate-level fault models: permanent stuck-at faults (fabrication defects,
//! aging, §I of the paper) and transient flips (SEUs, overheating glitches).

use crate::netlist::{GateId, Netlist};
use rsoc_sim::SimRng;
use std::collections::BTreeMap;

/// How a faulty gate misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Output tied to logic 0 (classic fabrication/aging defect).
    StuckAt0,
    /// Output tied to logic 1.
    StuckAt1,
    /// Output inverted for this evaluation (transient upset).
    Flip,
}

/// A set of gate faults applied during one evaluation. A `BTreeMap` so
/// iteration order is a pure function of content (the determinism
/// contract `rsoc_lint` enforces), not of a per-process hash seed.
pub type FaultMap = BTreeMap<GateId, FaultKind>;

/// Samples random fault maps for Monte-Carlo reliability runs
/// ([`crate::reliability`]).
///
/// Each *logic* gate fails independently with probability `p_fault`; a
/// failing gate draws uniformly among the enabled fault kinds. Input
/// pseudo-gates never fail (input corruption is a separate concern modeled
/// at the NoC/register layers).
#[derive(Debug, Clone)]
pub struct FaultSampler {
    p_fault: f64,
    kinds: Vec<FaultKind>,
}

impl FaultSampler {
    /// Creates a sampler with the given per-gate fault probability drawing
    /// from all three fault kinds.
    ///
    /// # Panics
    /// Panics if `p_fault` is not within `[0, 1]`.
    pub fn new(p_fault: f64) -> Self {
        Self::with_kinds(p_fault, vec![FaultKind::StuckAt0, FaultKind::StuckAt1, FaultKind::Flip])
    }

    /// Creates a sampler restricted to the given fault kinds.
    ///
    /// # Panics
    /// Panics if `p_fault` is outside `[0,1]` or `kinds` is empty.
    pub fn with_kinds(p_fault: f64, kinds: Vec<FaultKind>) -> Self {
        assert!((0.0..=1.0).contains(&p_fault), "probability out of range");
        assert!(!kinds.is_empty(), "need at least one fault kind");
        FaultSampler { p_fault, kinds }
    }

    /// Per-gate fault probability.
    pub fn p_fault(&self) -> f64 {
        self.p_fault
    }

    /// Draws a fault map for one evaluation of `netlist`.
    pub fn sample(&self, netlist: &Netlist, rng: &mut SimRng) -> FaultMap {
        let mut map = FaultMap::new();
        if self.p_fault <= 0.0 {
            return map;
        }
        let input_count = netlist.input_count();
        for idx in 0..netlist.gate_count() {
            let id = GateId::new(idx as u32);
            // Skip primary-input pseudo-gates: ids 0..input_count are the
            // inputs only when created first, so check structurally instead.
            if netlist.inputs().contains(&id) {
                continue;
            }
            if rng.chance(self.p_fault) {
                let kind = *rng.choose(&self.kinds).expect("kinds nonempty");
                map.insert(id, kind);
            }
        }
        let _ = input_count;
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn toy() -> Netlist {
        let mut n = Netlist::new("toy");
        let a = n.input();
        let b = n.input();
        let g = n.and(a, b);
        let h = n.or(g, a);
        n.expose(h);
        n
    }

    #[test]
    fn zero_probability_yields_empty_map() {
        let n = toy();
        let mut rng = SimRng::new(1);
        let sampler = FaultSampler::new(0.0);
        assert!(sampler.sample(&n, &mut rng).is_empty());
    }

    #[test]
    fn certainty_faults_all_logic_gates() {
        let n = toy();
        let mut rng = SimRng::new(2);
        let sampler = FaultSampler::new(1.0);
        let map = sampler.sample(&n, &mut rng);
        // 2 logic gates, inputs excluded.
        assert_eq!(map.len(), 2);
        assert!(!map.contains_key(&GateId::new(0)));
        assert!(!map.contains_key(&GateId::new(1)));
    }

    #[test]
    fn fault_rate_is_plausible() {
        let n = toy();
        let mut rng = SimRng::new(3);
        let sampler = FaultSampler::new(0.25);
        let total: usize = (0..4000).map(|_| sampler.sample(&n, &mut rng).len()).sum();
        let rate = total as f64 / (4000.0 * 2.0);
        assert!((rate - 0.25).abs() < 0.03, "rate={rate}");
    }

    #[test]
    fn restricted_kinds_respected() {
        let n = toy();
        let mut rng = SimRng::new(4);
        let sampler = FaultSampler::with_kinds(1.0, vec![FaultKind::StuckAt0]);
        let map = sampler.sample(&n, &mut rng);
        assert!(map.values().all(|k| *k == FaultKind::StuckAt0));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn rejects_bad_probability() {
        FaultSampler::new(1.5);
    }
}
