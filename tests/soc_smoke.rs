//! Top-of-stack smoke test: drives [`ResilientSoc::run_workload`] — the
//! integrated tile-placement → NoC-latency → replication path — for every
//! protocol choice and asserts the cross-replica safety checker stays
//! green. This covers the facade entry point end-to-end beyond what the
//! scenario-specific integration suites exercise.

use manycore_resilience::bft::Protocol;
use manycore_resilience::soc::{ResilientSoc, SocConfig};

/// One committed-workload run; returns the report after asserting the
/// universal invariants every healthy run must satisfy.
fn run(
    protocol: Protocol,
    f: u32,
    clients: u32,
    requests_per_client: u64,
) -> manycore_resilience::bft::runner::RunReport {
    let mut soc = ResilientSoc::new(SocConfig::default());
    let report = soc.run_workload(protocol, f, clients, requests_per_client);
    assert!(report.safety_ok, "{}: correct replicas' logs diverged", report.protocol);
    assert_eq!(
        report.committed,
        u64::from(clients) * requests_per_client,
        "{}: not every requested operation committed",
        report.protocol
    );
    assert!(
        report.committed <= report.requested,
        "{}: committed more than requested",
        report.protocol
    );
    report
}

#[test]
fn minbft_workload_commits_safely() {
    let report = run(Protocol::MinBft, 1, 1, 3);
    assert_eq!(report.n_replicas, 3, "MinBFT is a 2f+1 protocol");
}

#[test]
fn pbft_workload_commits_safely() {
    let report = run(Protocol::Pbft, 1, 1, 3);
    assert_eq!(report.n_replicas, 4, "PBFT is a 3f+1 protocol");
}

#[test]
fn passive_workload_commits_safely() {
    let report = run(Protocol::Passive, 1, 1, 3);
    assert_eq!(report.n_replicas, 2, "passive replication is f+1");
}

#[test]
fn minbft_pays_fewer_messages_than_pbft() {
    let minbft = run(Protocol::MinBft, 1, 2, 5);
    let pbft = run(Protocol::Pbft, 1, 2, 5);
    assert!(
        minbft.messages_protocol < pbft.messages_protocol,
        "hybrid-anchored MinBFT ({} msgs) must beat PBFT ({} msgs)",
        minbft.messages_protocol,
        pbft.messages_protocol
    );
}

#[test]
fn workload_is_deterministic_per_seed() {
    let mut a = ResilientSoc::new(SocConfig { mesh_width: 4, mesh_height: 4, seed: 99 });
    let mut b = ResilientSoc::new(SocConfig { mesh_width: 4, mesh_height: 4, seed: 99 });
    let ra = a.run_workload(Protocol::MinBft, 1, 2, 4);
    let rb = b.run_workload(Protocol::MinBft, 1, 2, 4);
    assert_eq!(ra.committed, rb.committed);
    assert_eq!(ra.messages_total, rb.messages_total);
    assert_eq!(ra.duration_cycles, rb.duration_cycles);
}
