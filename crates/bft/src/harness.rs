//! Stable facade over the run entry points and plane API.
//!
//! Experiments, campaign drivers, and external crates should import from
//! here: the facade re-exports the deterministic-harness entry points
//! ([`run`], [`run_scenario`]), their configuration ([`RunConfig`] and its
//! [builder](RunConfigBuilder)), the sans-io plane boundary ([`Clock`],
//! [`Transport`], [`step_node`]), and the deterministic client workload
//! ([`client_payload`]) behind one path that stays put while the
//! implementing modules evolve. `rsoc_bft::runner` and `rsoc_bft::plane`
//! remain public, but new call sites should prefer this module.

pub use crate::adversary::Scenario;
pub use crate::api::{Cluster, Endpoint, Input, Outbox, ReplicaId, ReplicaNode};
pub use crate::plane::{step_node, Clock, Transport};
pub use crate::runner::{
    check_safety, client_payload, run, run_scenario, LatencyModel, RunConfig, RunConfigBuilder,
    RunReport, ScenarioOutcome,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_builds_and_runs() {
        let config = RunConfig::builder().f(1).clients(1).requests_per_client(3).seed(5).build();
        let mut cluster = crate::pbft::PbftCluster::new(&config);
        let report = run(&mut cluster, &config);
        assert!(report.safety_ok);
        assert_eq!(report.committed, 3);
    }

    #[test]
    fn builder_defaults_match_struct_defaults() {
        let built = RunConfig::builder().build();
        let defaulted = RunConfig::default();
        // Spot-check every knob (RunConfig has no PartialEq because of the
        // latency model's float-free variants; compare field-wise).
        assert_eq!(built.f, defaulted.f);
        assert_eq!(built.clients, defaulted.clients);
        assert_eq!(built.requests_per_client, defaulted.requests_per_client);
        assert_eq!(built.seed, defaulted.seed);
        assert_eq!(built.client_timeout, defaulted.client_timeout);
        assert_eq!(built.max_cycles, defaulted.max_cycles);
        assert_eq!(built.payload_size, defaulted.payload_size);
        assert_eq!(built.batch_size, defaulted.batch_size);
        assert_eq!(built.batch_flush, defaulted.batch_flush);
        assert_eq!(built.link_occupancy, defaulted.link_occupancy);
        assert_eq!(built.client_window, defaulted.client_window);
        assert_eq!(built.request_patience, defaulted.request_patience);
        assert_eq!(built.checkpoint_interval, defaulted.checkpoint_interval);
    }

    #[test]
    fn builder_setters_override() {
        let config = RunConfig::builder()
            .f(2)
            .clients(6)
            .requests_per_client(40)
            .seed(99)
            .latency(LatencyModel::Fixed(7))
            .client_timeout(9_000)
            .max_cycles(500_000)
            .payload_size(64)
            .batch_size(8)
            .batch_flush(150)
            .link_occupancy(3)
            .client_window(16)
            .request_patience(2_500)
            .checkpoint_interval(128)
            .build();
        assert_eq!(config.f, 2);
        assert_eq!(config.clients, 6);
        assert_eq!(config.requests_per_client, 40);
        assert_eq!(config.seed, 99);
        assert!(matches!(config.latency, LatencyModel::Fixed(7)));
        assert_eq!(config.client_timeout, 9_000);
        assert_eq!(config.max_cycles, 500_000);
        assert_eq!(config.payload_size, 64);
        assert_eq!(config.batch_size, 8);
        assert_eq!(config.batch_flush, 150);
        assert_eq!(config.link_occupancy, 3);
        assert_eq!(config.client_window, 16);
        assert_eq!(config.request_patience, 2_500);
        assert_eq!(config.checkpoint_interval, 128);
    }
}
