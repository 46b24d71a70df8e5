//! The APT-vs-rejuvenation epoch simulator.

use rsoc_diversity::{PoolConfig, VariantId, VariantPool};
use rsoc_sim::SimRng;
use std::collections::BTreeSet;

/// Rejuvenation policies (§II-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Never rejuvenate — the paper's doomed baseline.
    None,
    /// Restart each replica every `interval`, keeping its variant
    /// (classic software rejuvenation: clears the compromise, not the
    /// vulnerability).
    PeriodicSame {
        /// Cycles between rejuvenations of the same replica.
        interval: u64,
    },
    /// Restart each replica every `interval` onto a *different* variant
    /// (diverse rejuvenation — the paper's recommended combination).
    PeriodicDiverse {
        /// Cycles between rejuvenations of the same replica.
        interval: u64,
    },
    /// Rejuvenate (diversely) when a compromise is detected; detection of a
    /// compromised replica succeeds per check with the given probability.
    ReactiveDiverse {
        /// Cycles between intrusion-detector sweeps.
        check_interval: u64,
        /// Per-sweep probability that a compromised replica is spotted.
        detection_prob: f64,
    },
}

/// APT scenario parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AptConfig {
    /// Replica count.
    pub n_replicas: usize,
    /// Fault threshold: the system fails when more than `f` replicas are
    /// simultaneously compromised.
    pub f: usize,
    /// Mean exploit-development time per variant (exponential).
    pub mean_exploit_time: f64,
    /// Cycles a replica is offline while rejuvenating.
    pub rejuvenation_downtime: u64,
    /// Simulation horizon.
    pub horizon: u64,
    /// Variant pool parameters.
    pub pool: PoolConfig,
    /// Whether the initial assignment is diverse (distinct variants) or a
    /// monoculture (all replicas run variant 0).
    pub initial_diverse: bool,
}

impl Default for AptConfig {
    fn default() -> Self {
        AptConfig {
            n_replicas: 4,
            f: 1,
            mean_exploit_time: 3_000.0,
            rejuvenation_downtime: 50,
            horizon: 200_000,
            pool: PoolConfig::default(),
            initial_diverse: true,
        }
    }
}

/// Outcome of one APT campaign simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RejuvReport {
    /// First time more than `f` replicas were simultaneously compromised
    /// (== horizon when the system survived).
    pub time_to_failure: u64,
    /// Whether the system survived the horizon.
    pub survived: bool,
    /// Fraction of time the service had at most `f` replicas unavailable
    /// (compromised or rejuvenating).
    pub availability: f64,
    /// Rejuvenations performed.
    pub rejuvenations: u64,
    /// Exploits the adversary finished developing.
    pub exploits_developed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ReplicaState {
    Healthy,
    Compromised,
    Rejuvenating { until: u64 },
}

/// Runs one campaign of the APT against the replicated system under
/// `policy`.
///
/// Adversary model (the crate docs give the paper's argument for it; the
/// README's *Claims* table names the tests that pin it): the APT is
/// *effort-bounded* — it develops one exploit at a time, greedily targeting
/// the deployed variant that covers the most currently-healthy replicas.
/// Development takes an `Exp(mean_exploit_time)` delay; if the target
/// variant disappears from the fleet mid-campaign (diverse rejuvenation!)
/// the effort is wasted and the adversary re-targets. Finished exploits
/// enter a permanent inventory and instantly compromise every replica
/// running that variant — now or whenever one rejuvenates back onto it.
///
/// # Panics
/// Panics if `f >= n_replicas`.
pub fn simulate(config: &AptConfig, policy: Policy, rng: &mut SimRng) -> RejuvReport {
    assert!(config.f < config.n_replicas, "need n > f");
    let mut pool = VariantPool::generate(config.pool, rng);
    // Initial assignment.
    let mut assignment: Vec<VariantId> = (0..config.n_replicas)
        .map(|i| {
            if config.initial_diverse {
                VariantId((i as u32) % config.pool.initial_variants)
            } else {
                VariantId(0)
            }
        })
        .collect();
    let mut state = vec![ReplicaState::Healthy; config.n_replicas];

    // Adversary: one sequential campaign plus the finished-exploit inventory.
    let mut campaign: Option<(VariantId, u64)> = None;
    let mut inventory: BTreeSet<VariantId> = BTreeSet::new();

    let step: u64 = 10; // simulation tick granularity
    let mut time_to_failure = config.horizon;
    let mut survived = true;
    let mut up_time: u64 = 0;
    let mut rejuvenations: u64 = 0;
    let mut exploits_developed: u64 = 0;
    let mut last_check: u64 = 0;

    let mut now: u64 = 0;
    while now < config.horizon {
        now += step;

        // 1. Adversary (re-)targets and finishes exploits.
        if let Some((target, _)) = campaign {
            // Diverse rejuvenation may have retired the target variant:
            // the campaign's remaining effort is wasted.
            if !assignment.contains(&target) {
                campaign = None;
            }
        }
        if campaign.is_none() {
            // Greedy: deployed variant (not yet exploited) covering the most
            // replicas; deterministic tie-break by id.
            let mut counts: std::collections::BTreeMap<VariantId, usize> =
                std::collections::BTreeMap::new();
            for &v in &assignment {
                if !inventory.contains(&v) {
                    *counts.entry(v).or_insert(0) += 1;
                }
            }
            if let Some((&best, _)) =
                counts.iter().max_by_key(|(v, c)| (**c, std::cmp::Reverse(v.0)))
            {
                let deadline = now + rng.exponential(config.mean_exploit_time).ceil() as u64 + 1;
                campaign = Some((best, deadline));
            }
        }
        if let Some((target, deadline)) = campaign {
            if deadline <= now {
                inventory.insert(target);
                exploits_developed += 1;
                campaign = None;
            }
        }

        // 2. Rejuvenations finish.
        for s in state.iter_mut() {
            if let ReplicaState::Rejuvenating { until } = *s {
                if until <= now {
                    *s = ReplicaState::Healthy;
                }
            }
        }

        // 3. Inventory exploits strike everything running a broken variant.
        for i in 0..config.n_replicas {
            if state[i] == ReplicaState::Healthy && inventory.contains(&assignment[i]) {
                state[i] = ReplicaState::Compromised;
            }
        }

        // 4. Policy acts.
        match policy {
            Policy::None => {}
            Policy::PeriodicSame { interval } | Policy::PeriodicDiverse { interval } => {
                // Staggered: replica i rejuvenates at phase i*interval/n.
                for i in 0..config.n_replicas {
                    let phase = (interval / config.n_replicas as u64).max(1) * i as u64;
                    let due = now >= phase && (now - phase) % interval < step;
                    if due && !matches!(state[i], ReplicaState::Rejuvenating { .. }) {
                        rejuvenations += 1;
                        state[i] = ReplicaState::Rejuvenating {
                            until: now + config.rejuvenation_downtime,
                        };
                        if matches!(policy, Policy::PeriodicDiverse { .. }) {
                            let avoid: Vec<VariantId> = assignment
                                .iter()
                                .copied()
                                .chain(inventory.iter().copied())
                                .collect();
                            assignment[i] = pool.diverse_replacement(&avoid, rng);
                        }
                    }
                }
            }
            Policy::ReactiveDiverse { check_interval, detection_prob } => {
                if now - last_check >= check_interval {
                    last_check = now;
                    for i in 0..config.n_replicas {
                        if state[i] == ReplicaState::Compromised && rng.chance(detection_prob) {
                            rejuvenations += 1;
                            state[i] = ReplicaState::Rejuvenating {
                                until: now + config.rejuvenation_downtime,
                            };
                            let avoid: Vec<VariantId> = assignment
                                .iter()
                                .copied()
                                .chain(inventory.iter().copied())
                                .collect();
                            assignment[i] = pool.diverse_replacement(&avoid, rng);
                        }
                    }
                }
            }
        }

        // 5. Bookkeeping.
        let compromised = state.iter().filter(|s| **s == ReplicaState::Compromised).count();
        let unavailable = state.iter().filter(|s| !matches!(s, ReplicaState::Healthy)).count();
        if compromised > config.f && survived {
            survived = false;
            time_to_failure = now;
        }
        if unavailable <= config.f {
            up_time += step;
        }
        if !survived {
            // Keep accumulating availability so reports compare fairly, but
            // the campaign's headline number is fixed; stop early to save work.
            break;
        }
    }

    RejuvReport {
        time_to_failure,
        survived,
        availability: up_time as f64 / time_to_failure.max(1) as f64,
        rejuvenations,
        exploits_developed,
    }
}

/// Convenience: mean time-to-failure over `trials` independent campaigns.
pub fn mean_time_to_failure(config: &AptConfig, policy: Policy, trials: u32, rng: &SimRng) -> f64 {
    assert!(trials > 0, "need at least one trial");
    (0..trials)
        .map(|t| {
            let mut stream = rng.fork(t as u64 + 1);
            simulate(config, policy, &mut stream).time_to_failure as f64
        })
        .sum::<f64>()
        / trials as f64
}

/// Closed-form MTTF for the no-rejuvenation baseline, used to
/// cross-validate the simulator.
///
/// With a monoculture, one exploit fells everything: MTTF = mean exploit
/// time. With a fully diverse fleet (every variant on ≤ f replicas and
/// uniform coverage), the sequential adversary needs `ceil((f+1) /
/// replicas_per_variant)` exploits; with one replica per variant that is
/// `f+1` sequential campaigns: MTTF = (f+1) · mean exploit time.
pub fn analytic_mttf_no_rejuvenation(config: &AptConfig) -> f64 {
    if !config.initial_diverse {
        return config.mean_exploit_time;
    }
    let distinct = (config.n_replicas as u32).min(config.pool.initial_variants) as usize;
    let per_variant = config.n_replicas.div_ceil(distinct);
    let exploits_needed = (config.f + 1).div_ceil(per_variant);
    exploits_needed as f64 * config.mean_exploit_time
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> AptConfig {
        AptConfig {
            n_replicas: 4,
            f: 1,
            mean_exploit_time: 2_000.0,
            horizon: 60_000,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = fast_config();
        let a = simulate(&cfg, Policy::None, &mut SimRng::new(3));
        let b = simulate(&cfg, Policy::None, &mut SimRng::new(3));
        assert_eq!(a, b);
    }

    #[test]
    fn no_rejuvenation_eventually_falls() {
        let cfg = AptConfig { horizon: 2_000_000, ..fast_config() };
        let rng = SimRng::new(4);
        let mut failures = 0;
        for t in 0..20 {
            let mut stream = rng.fork(t);
            if !simulate(&cfg, Policy::None, &mut stream).survived {
                failures += 1;
            }
        }
        assert!(failures >= 18, "without rejuvenation the APT should win: {failures}/20");
    }

    #[test]
    fn diverse_rejuvenation_beats_none() {
        let cfg = fast_config();
        let rng = SimRng::new(5);
        let mttf_none = mean_time_to_failure(&cfg, Policy::None, 30, &rng);
        let mttf_div =
            mean_time_to_failure(&cfg, Policy::PeriodicDiverse { interval: 1_500 }, 30, &rng);
        assert!(
            mttf_div > mttf_none * 1.2,
            "diverse rejuvenation must clearly extend survival: {mttf_div} vs {mttf_none}"
        );
    }

    #[test]
    fn diverse_beats_same_variant_rejuvenation() {
        // Same-variant restarts don't clear the vulnerability: the exploit
        // inventory re-compromises instantly.
        let cfg = fast_config();
        let rng = SimRng::new(6);
        let mttf_same =
            mean_time_to_failure(&cfg, Policy::PeriodicSame { interval: 1_500 }, 30, &rng);
        let mttf_div =
            mean_time_to_failure(&cfg, Policy::PeriodicDiverse { interval: 1_500 }, 30, &rng);
        assert!(
            mttf_div > mttf_same,
            "diversity is what defeats the APT: diverse {mttf_div} vs same {mttf_same}"
        );
    }

    #[test]
    fn monoculture_falls_faster_than_diverse_start() {
        let rng = SimRng::new(7);
        let mono = AptConfig { initial_diverse: false, horizon: 2_000_000, ..fast_config() };
        let div = AptConfig { initial_diverse: true, horizon: 2_000_000, ..fast_config() };
        let mttf_mono = mean_time_to_failure(&mono, Policy::None, 30, &rng);
        let mttf_div = mean_time_to_failure(&div, Policy::None, 30, &rng);
        assert!(mttf_div > mttf_mono, "one exploit kills a monoculture: {mttf_div} vs {mttf_mono}");
    }

    #[test]
    fn reactive_policy_rejuvenates_only_on_detection() {
        let cfg = fast_config();
        let mut rng = SimRng::new(8);
        let report = simulate(
            &cfg,
            Policy::ReactiveDiverse { check_interval: 200, detection_prob: 0.9 },
            &mut rng,
        );
        // Rejuvenation count is bounded by compromises, not by elapsed time.
        assert!(report.rejuvenations <= report.exploits_developed * cfg.n_replicas as u64 + 4);
    }

    #[test]
    fn availability_accounts_for_downtime() {
        let cfg = AptConfig {
            mean_exploit_time: 1e12, // adversary effectively absent
            rejuvenation_downtime: 5_000,
            horizon: 50_000,
            ..fast_config()
        };
        let mut rng = SimRng::new(9);
        // Very aggressive rejuvenation with huge downtime hurts availability.
        let report = simulate(&cfg, Policy::PeriodicDiverse { interval: 6_000 }, &mut rng);
        assert!(report.survived);
        assert!(
            report.availability < 1.0,
            "downtime must show up: availability={}",
            report.availability
        );
        // While doing nothing keeps availability at 1.
        let idle = simulate(&cfg, Policy::None, &mut SimRng::new(9));
        assert_eq!(idle.availability, 1.0);
    }

    #[test]
    fn simulation_matches_analytic_mttf() {
        // Cross-validation against the closed forms of
        // `analytic_mttf_no_rejuvenation`: the
        // simulator's mean TTF without rejuvenation should sit within 15%
        // of the analytic expectation for both extremes.
        let rng = SimRng::new(42);
        let horizon = 10_000_000; // effectively unbounded
        let mono = AptConfig { initial_diverse: false, horizon, ..fast_config() };
        let sim_mono = mean_time_to_failure(&mono, Policy::None, 300, &rng);
        let ana_mono = analytic_mttf_no_rejuvenation(&mono);
        assert!(
            (sim_mono - ana_mono).abs() / ana_mono < 0.15,
            "monoculture: simulated {sim_mono} vs analytic {ana_mono}"
        );
        let diverse = AptConfig { initial_diverse: true, horizon, ..fast_config() };
        let sim_div = mean_time_to_failure(&diverse, Policy::None, 300, &rng.fork(1));
        let ana_div = analytic_mttf_no_rejuvenation(&diverse);
        assert!(
            (sim_div - ana_div).abs() / ana_div < 0.15,
            "diverse: simulated {sim_div} vs analytic {ana_div}"
        );
        // And the ratio between them is the predicted (f+1)x.
        assert!((sim_div / sim_mono - 2.0).abs() < 0.35, "ratio {}", sim_div / sim_mono);
    }

    #[test]
    #[should_panic(expected = "need n > f")]
    fn rejects_degenerate_threshold() {
        let cfg = AptConfig { n_replicas: 2, f: 2, ..Default::default() };
        simulate(&cfg, Policy::None, &mut SimRng::new(1));
    }
}
