//! The one switch naming the replication protocols.
//!
//! §II-D adapts a deployment by "switching to a backup protocol that is
//! more adequate to the current conditions". [`Protocol`] is the value
//! that switch turns: the adaptive controller picks one, the SoC runs
//! one, a campaign cell, a rejuvenation cycle and a TCP replica each
//! build one — and [`Protocol::build`] is the workspace's only `match`
//! that constructs a cluster. Whatever runs on the cluster is a
//! [`ClusterJob`], generic over the cluster it is handed.

use crate::api::{Cluster, ReplicaNode};
use crate::codec::Wire;
use crate::dense::MAX_REPLICAS;
use crate::minbft::MinBftCluster;
use crate::passive::PassiveCluster;
use crate::pbft::PbftCluster;
use crate::runner::RunConfig;

/// A replication protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// PBFT: Byzantine tolerance at 3f+1 replicas, no hybrid assumption.
    Pbft,
    /// MinBFT: Byzantine tolerance at 2f+1 replicas over USIG hybrids.
    MinBft,
    /// Primary-backup: a pair, cheapest, crash faults only.
    Passive,
}

impl Protocol {
    /// Every protocol, in canonical grid order.
    pub const ALL: &'static [Protocol] = &[Protocol::Pbft, Protocol::MinBft, Protocol::Passive];
    /// The Byzantine-tolerant protocols.
    pub const BFT: &'static [Protocol] = &[Protocol::Pbft, Protocol::MinBft];

    /// The name reports, rows and the `--protocol` flag carry.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Pbft => "pbft",
            Protocol::MinBft => "minbft",
            Protocol::Passive => "passive",
        }
    }

    /// The protocol [`name`](Self::name) names.
    pub fn parse(name: &str) -> Option<Protocol> {
        Protocol::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// Replicas in a cluster configured for `f` faults.
    pub fn replicas(self, f: u32) -> u32 {
        match self {
            Protocol::Pbft => 3 * f + 1,
            Protocol::MinBft => 2 * f + 1,
            Protocol::Passive => 2,
        }
    }

    /// [`replicas`](Self::replicas), if a cluster of that size fits
    /// [`MAX_REPLICAS`]: `None` beyond it, or where `3f+1` overflows.
    pub fn checked_replicas(self, f: u32) -> Option<u32> {
        let n = match self {
            Protocol::Pbft => f.checked_mul(3)?.checked_add(1)?,
            Protocol::MinBft => f.checked_mul(2)?.checked_add(1)?,
            Protocol::Passive => 2,
        };
        (n <= MAX_REPLICAS).then_some(n)
    }

    /// Matching replies a client needs: f+1, or one for passive
    /// replication, which masks no Byzantine fault.
    pub fn reply_quorum(self, f: u32) -> usize {
        if self.tolerates_byzantine() {
            f as usize + 1
        } else {
            1
        }
    }

    /// Whether the protocol masks Byzantine (not just crash) faults.
    pub fn tolerates_byzantine(self) -> bool {
        self != Protocol::Passive
    }

    /// Builds this protocol's cluster from `cfg` and hands it to `job`.
    pub fn build<J: ClusterJob>(self, cfg: &RunConfig, job: J) -> J::Output {
        match self {
            Protocol::Pbft => job.run(PbftCluster::new(cfg)),
            Protocol::MinBft => job.run(MinBftCluster::new(cfg)),
            Protocol::Passive => job.run(PassiveCluster::new(cfg)),
        }
    }
}

/// Work on a freshly built cluster of whichever protocol a caller names.
pub trait ClusterJob {
    /// What the work yields.
    type Output;
    /// Does the work. Every protocol's messages cross the wire codec, so a
    /// job may also hand the cluster's nodes to a real transport.
    fn run<C: Cluster>(self, cluster: C) -> Self::Output
    where
        <C::Node as ReplicaNode>::Msg: Wire + Send + 'static;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ClusterStats;
    use crate::runner::run;

    /// What the built cluster says of itself, and the MAC operations a
    /// short workload costs it.
    struct Shape(RunConfig);
    impl ClusterJob for Shape {
        type Output = (usize, usize, &'static str, u64);
        fn run<C: Cluster>(self, mut cluster: C) -> Self::Output {
            run(&mut cluster, &self.0);
            let macs = ClusterStats::of(&cluster).mac_ops;
            (cluster.nodes().len(), cluster.reply_quorum(), cluster.protocol_name(), macs)
        }
    }

    #[test]
    fn one_dispatch_builds_every_protocol_at_every_f() {
        for &p in Protocol::ALL {
            assert_eq!(Protocol::parse(p.name()), Some(p));
            for f in 1..=3 {
                let cfg = RunConfig::builder().f(f).clients(1).requests_per_client(2).build();
                let (n, quorum, name, macs) = p.build(&cfg, Shape(cfg.clone()));
                let at = format!("{} f={f}", p.name());
                let promised = (p.replicas(f) as usize, p.reply_quorum(f), p.name());
                assert_eq!((n, quorum, name), promised, "{at}");
                assert_eq!(macs > 0, p == Protocol::MinBft, "{at}: {macs} MAC ops");
            }
        }
        assert_eq!(Protocol::parse("raft"), None);
        assert!(Protocol::BFT.iter().all(|p| p.tolerates_byzantine()));
        assert!(!Protocol::Passive.tolerates_byzantine());
    }
}
