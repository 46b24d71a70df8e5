//! The paper's §II-C rejuvenation cycle on a live cluster, checked for
//! every protocol (F6's `rejuvenate_under_load` at one fixed point).
//!
//! Replica 1 of an f = 1 cluster **leaves** (its volatile state is wiped,
//! standing in for a reload from a clean image) at cycle 150 while
//! 4 clients × 12 requests run, then **re-joins**: peer checkpoint vouchers
//! tell it certified history exists beyond its empty log, and it completes
//! a **state transfer** (certificate-checked snapshot + suffix replay)
//! before it resumes ordering. The
//! [`ScenarioOracle`](crate::adversary::ScenarioOracle) judges the run.

#[cfg(test)]
mod tests {
    use crate::adversary::{OracleVerdict, ReplicaScript, Scenario, ScenarioOracle};
    use crate::api::{Cluster, ClusterStats};
    use crate::runner::{run_scenario, RunConfig, ScenarioOutcome};
    use crate::{ClusterJob, Protocol};

    struct WipeAndRejoin<'a>(&'a RunConfig);

    impl ClusterJob for WipeAndRejoin<'_> {
        type Output = (OracleVerdict, ScenarioOutcome, ClusterStats);
        fn run<C: Cluster>(self, mut cluster: C) -> Self::Output {
            let scenario = Scenario::none().script(1, ReplicaScript::correct().rejuvenate_at(150));
            let out = run_scenario(&mut cluster, self.0, &scenario);
            let verdict = ScenarioOracle::expecting_liveness().judge(&cluster, &out.report, 48);
            (verdict, out, ClusterStats::of(&cluster))
        }
    }

    fn wipe_and_rejoin(
        protocol: Protocol,
        checkpoint_interval: u64,
    ) -> (OracleVerdict, ScenarioOutcome, ClusterStats) {
        let cfg = RunConfig::builder()
            .f(1)
            .clients(4)
            .requests_per_client(12)
            .seed(0x000C_1C1E)
            .checkpoint_interval(checkpoint_interval)
            .max_cycles(20_000_000)
            .build();
        protocol.build(&cfg, WipeAndRejoin(&cfg))
    }

    /// The oracle passes, the wipe fired, the wiped replica re-joined
    /// through at least one state transfer, and all 48 ops committed.
    fn assert_rejoins(protocol: Protocol) {
        let (verdict, out, stats) = wipe_and_rejoin(protocol, 3);
        assert!(verdict.pass(), "oracle failed: {verdict:?}");
        assert!(out.rejuvenations >= 1, "the wipe must fire");
        assert!(stats.transfers >= 1, "no genuine re-join: {stats:?}");
        assert_eq!(out.report.committed, 48);
    }

    #[test]
    fn minbft_cycle_rejoins_via_state_transfer() {
        assert_rejoins(Protocol::MinBft);
    }

    #[test]
    fn pbft_cycle_rejoins_via_state_transfer() {
        assert_rejoins(Protocol::Pbft);
    }

    #[test]
    fn passive_backup_cycle_reconverges() {
        assert_rejoins(Protocol::Passive);
    }

    #[test]
    fn cycle_without_checkpoints_cannot_transfer() {
        let (_, out, stats) = wipe_and_rejoin(Protocol::MinBft, 0);
        assert!(out.rejuvenations >= 1, "the wipe must fire");
        assert_eq!(stats.transfers, 0, "transfer requires certified checkpoints");
        assert_eq!(stats.stable_seq, 0);
    }
}
