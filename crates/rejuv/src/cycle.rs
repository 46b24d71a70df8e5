//! A full rejuvenation cycle on a *live* replicated cluster — the bridge
//! between this crate's APT-level rejuvenation policies (when to recycle a
//! replica) and the protocol-level machinery that makes recycling safe
//! (certified checkpoints + collaborative state transfer in
//! [`rsoc_bft::checkpoint`]).
//!
//! The cycle the paper's §II-C sketches: a replica **leaves** the group
//! (its volatile state is wiped — the rejuvenation proper, standing in for
//! reload-from-clean-image), then **re-joins** and discovers via peer
//! checkpoint vouchers that certified history exists beyond its empty log,
//! completes a **state transfer** (certificate-checked snapshot + suffix
//! replay), and resumes ordering. The [`ScenarioOracle`] judges the run:
//! safety and digest convergence are unconditional, liveness is expected
//! (the cluster must absorb the rejuvenation without losing the workload).

use rsoc_bft::adversary::{ReplicaScript, Scenario, ScenarioOracle};
use rsoc_bft::api::{Cluster, ClusterStats};
use rsoc_bft::runner::{run_scenario, RunConfig};
use rsoc_bft::{ClusterJob, Protocol};

/// Parameters of one rejuvenation cycle.
#[derive(Debug, Clone)]
pub struct CycleConfig {
    /// Protocol under test (MinBFT's USIG survives rejuvenation — it is
    /// the trusted component).
    pub protocol: Protocol,
    /// Fault threshold (passive ignores this — it is always a pair).
    pub f: u32,
    /// Workload clients.
    pub clients: u32,
    /// Requests per client.
    pub requests_per_client: u64,
    /// Run seed (drives payloads, latencies, and MAC keys).
    pub seed: u64,
    /// Certified-checkpoint interval in executed ops (must be > 0 — a
    /// cycle without checkpoints cannot re-join).
    pub checkpoint_interval: u64,
    /// Which replica rejuvenates.
    pub replica: u32,
    /// Virtual time of the wipe (must land inside the active load phase:
    /// re-join is driven by live traffic).
    pub at: u64,
    /// Simulation budget.
    pub max_cycles: u64,
}

impl Default for CycleConfig {
    fn default() -> Self {
        CycleConfig {
            protocol: Protocol::MinBft,
            f: 1,
            clients: 4,
            requests_per_client: 12,
            seed: 0x000C_1C1E,
            checkpoint_interval: 3,
            replica: 1,
            at: 150,
            max_cycles: 20_000_000,
        }
    }
}

/// What one rejuvenation cycle produced.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Workload ops committed (quorum replies observed by clients).
    pub committed: u64,
    /// Wipes actually performed by the harness.
    pub rejuvenations: u64,
    /// Completed state-transfer installs across the cluster (≥ 1 means
    /// the wiped replica genuinely re-joined through transfer).
    pub transfers: u64,
    /// Highest stable certified watermark seen by any replica.
    pub stable_seq: u64,
    /// Vouchers/certificates/snapshots rejected by verification.
    pub rejected: u64,
    /// Virtual duration of the run (cycles) — useful for placing the
    /// wipe inside the active load phase.
    pub duration_cycles: u64,
    /// The oracle's overall verdict (safety + digest convergence +
    /// liveness).
    pub oracle_pass: bool,
    /// Digest convergence specifically: equally-advanced correct replicas
    /// hold byte-identical state digests at quiesce.
    pub converged: bool,
}

impl CycleReport {
    /// The cycle succeeded: the oracle passed AND the re-join went
    /// through state transfer (not a trivial replay).
    pub fn rejoined(&self) -> bool {
        self.oracle_pass && self.converged && self.rejuvenations >= 1 && self.transfers >= 1
    }
}

/// Runs one leave → wipe → re-join → transfer cycle and reports whether
/// the rejuvenated replica re-converged.
pub fn rejuvenation_cycle(cfg: &CycleConfig) -> CycleReport {
    let run = RunConfig::builder()
        .f(cfg.f)
        .clients(cfg.clients)
        .requests_per_client(cfg.requests_per_client)
        .seed(cfg.seed)
        .checkpoint_interval(cfg.checkpoint_interval)
        .max_cycles(cfg.max_cycles)
        .build();
    cfg.protocol.build(&run, Cycle(cfg, &run))
}

/// The cycle on whichever cluster the protocol builds.
struct Cycle<'a>(&'a CycleConfig, &'a RunConfig);

impl ClusterJob for Cycle<'_> {
    type Output = CycleReport;
    fn run<C: Cluster>(self, mut cluster: C) -> CycleReport {
        let Cycle(cfg, run) = self;
        let scenario =
            Scenario::none().script(cfg.replica, ReplicaScript::correct().rejuvenate_at(cfg.at));
        let expected = cfg.clients as u64 * cfg.requests_per_client;
        let outcome = run_scenario(&mut cluster, run, &scenario);
        let verdict =
            ScenarioOracle::expecting_liveness().judge(&cluster, &outcome.report, expected);
        let stats = ClusterStats::of(&cluster);
        CycleReport {
            committed: outcome.report.committed,
            rejuvenations: outcome.rejuvenations,
            transfers: stats.transfers,
            stable_seq: stats.stable_seq,
            rejected: stats.rejected,
            duration_cycles: outcome.report.duration_cycles,
            oracle_pass: verdict.pass(),
            converged: verdict.digests_ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minbft_cycle_rejoins_via_state_transfer() {
        let report = rejuvenation_cycle(&CycleConfig::default());
        assert!(report.oracle_pass, "oracle failed: {report:?}");
        assert!(report.rejoined(), "no genuine re-join: {report:?}");
        assert_eq!(report.committed, 48);
    }

    #[test]
    fn pbft_cycle_rejoins_via_state_transfer() {
        let cfg = CycleConfig { protocol: Protocol::Pbft, ..CycleConfig::default() };
        let report = rejuvenation_cycle(&cfg);
        assert!(report.oracle_pass, "oracle failed: {report:?}");
        assert!(report.rejoined(), "no genuine re-join: {report:?}");
    }

    #[test]
    fn passive_backup_cycle_reconverges() {
        let cfg = CycleConfig { protocol: Protocol::Passive, ..CycleConfig::default() };
        let report = rejuvenation_cycle(&cfg);
        assert!(report.oracle_pass, "oracle failed: {report:?}");
        assert!(report.rejoined(), "no genuine re-join: {report:?}");
        assert_eq!(report.committed, 48);
    }

    #[test]
    fn cycle_without_checkpoints_cannot_transfer() {
        let cfg = CycleConfig { checkpoint_interval: 0, ..CycleConfig::default() };
        let report = rejuvenation_cycle(&cfg);
        assert_eq!(report.transfers, 0, "transfer requires certified checkpoints");
        assert_eq!(report.stable_seq, 0);
    }
}
