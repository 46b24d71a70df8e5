//! Integration: replication protocols running over the SoC's NoC-derived
//! latencies, with tile-level fault injection.

use manycore_resilience::bft::Protocol;
use manycore_resilience::soc::{ResilientSoc, SocConfig, TileId};

fn soc(seed: u64) -> ResilientSoc {
    ResilientSoc::new(SocConfig { mesh_width: 4, mesh_height: 4, seed })
}

#[test]
fn all_protocols_commit_fault_free() {
    for protocol in [Protocol::Passive, Protocol::MinBft, Protocol::Pbft] {
        let mut s = soc(1);
        let report = s.run_workload(protocol, 1, 2, 10);
        assert_eq!(report.committed, 20, "{protocol:?}");
        assert!(report.safety_ok, "{protocol:?}");
    }
}

#[test]
fn replica_counts_match_paper_table() {
    let mut s = soc(2);
    assert_eq!(s.run_workload(Protocol::Passive, 1, 1, 2).n_replicas, 2);
    assert_eq!(s.run_workload(Protocol::MinBft, 1, 1, 2).n_replicas, 3);
    assert_eq!(s.run_workload(Protocol::Pbft, 1, 1, 2).n_replicas, 4);
    assert_eq!(s.run_workload(Protocol::MinBft, 2, 1, 2).n_replicas, 5);
    assert_eq!(s.run_workload(Protocol::Pbft, 2, 1, 2).n_replicas, 7);
}

/// §II-A/§III: a hybrid cuts the replicas from 3f+1 to 2f+1 and an
/// agreement phase, and the message gap widens with f (PBFT vs MinBFT
/// msg/op: 24 vs 6 at f = 1, 180 vs 42 at f = 3 today).
#[test]
fn minbft_cheaper_than_pbft_on_chip() {
    let mut gaps = Vec::new();
    for f in [1, 3] {
        let minbft = soc(3).run_workload(Protocol::MinBft, f, 2, 20);
        let pbft = soc(3).run_workload(Protocol::Pbft, f, 2, 20);
        assert!(minbft.messages_per_commit() < pbft.messages_per_commit(), "f = {f}");
        assert!(minbft.n_replicas < pbft.n_replicas, "f = {f}");
        gaps.push(pbft.messages_per_commit() - minbft.messages_per_commit());
    }
    assert!(gaps[1] > gaps[0], "the msg/op gap widens with f: {gaps:?}");
}

#[test]
fn byzantine_tile_masked_by_both_bft_protocols() {
    for protocol in [Protocol::MinBft, Protocol::Pbft] {
        let mut s = soc(4);
        s.compromise_tile(TileId(0));
        let report = s.run_workload(protocol, 1, 1, 8);
        assert!(report.safety_ok, "{protocol:?} must mask 1 Byzantine tile at f=1");
        assert_eq!(report.committed, 8, "{protocol:?} must stay live");
    }
}

#[test]
fn crashed_tiles_are_excluded_from_placement() {
    let mut s = soc(5);
    s.crash_tile(TileId(0));
    s.crash_tile(TileId(1));
    s.crash_tile(TileId(2));
    let report = s.run_workload(Protocol::MinBft, 1, 1, 5);
    assert_eq!(report.committed, 5, "healthy tiles carry the deployment");
    assert!(report.safety_ok);
}

#[test]
fn far_apart_replicas_pay_noc_latency() {
    // Same protocol on a 2x2 mesh (max 2 hops) vs an 8x8 strip placement.
    let mut small = ResilientSoc::new(SocConfig { mesh_width: 2, mesh_height: 2, seed: 6 });
    let mut large = ResilientSoc::new(SocConfig { mesh_width: 8, mesh_height: 8, seed: 6 });
    // Crash tiles to force the large SoC to place replicas far from (0,0).
    for i in 0..48 {
        large.crash_tile(TileId(i));
    }
    let near = small.run_workload(Protocol::MinBft, 1, 1, 10);
    let far = large.run_workload(Protocol::MinBft, 1, 1, 10);
    let near_lat = near.commit_latency.median().unwrap();
    let far_lat = far.commit_latency.median().unwrap();
    assert!(far_lat > near_lat, "distance must cost cycles: near {near_lat} vs far {far_lat}");
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed| {
        let mut s = soc(seed);
        let r = s.run_workload(Protocol::MinBft, 1, 2, 10);
        (r.committed, r.messages_total, r.duration_cycles)
    };
    assert_eq!(run(7), run(7));
    // Note: with the deterministic MeshHops latency model, different seeds
    // may legitimately produce identical timings — only equality is a
    // guaranteed invariant here.
}
