//! Integration: the managed SoC (detector → controller → workload → voted
//! rejuvenation) across multi-epoch campaigns — the Fig. 1 vertical slice.

use manycore_resilience::adapt::ThreatLevel;
use manycore_resilience::bft::Protocol;
use manycore_resilience::soc::{EpochThreat, ManagerConfig, SocConfig, SocManager, TileId};

fn manager(seed: u64, config: ManagerConfig) -> SocManager {
    SocManager::new(SocConfig { mesh_width: 4, mesh_height: 4, seed }, config)
}

#[test]
fn storm_campaign_stays_safe_with_full_stack() {
    let mut mgr = manager(1, ManagerConfig::default());
    let storm = [
        EpochThreat::default(),
        EpochThreat { compromise: vec![TileId(2)], ..Default::default() },
        EpochThreat { compromise: vec![TileId(6)], seu_events: 2, ..Default::default() },
        EpochThreat { compromise: vec![TileId(10), TileId(12)], ..Default::default() },
        EpochThreat { crash: vec![TileId(15)], ..Default::default() },
        EpochThreat::default(),
    ];
    let mut total_rejuvenated = 0;
    for threat in &storm {
        let report = mgr.run_epoch(threat, 1, 5);
        assert!(report.run.safety_ok, "safety must hold every epoch");
        assert_eq!(report.run.committed, 5, "liveness must hold every epoch");
        total_rejuvenated += report.rejuvenated.len();
    }
    assert!(total_rejuvenated >= 4, "every compromised tile gets rejuvenated");
    // After the storm every tile is healthy or benignly crashed — no
    // lingering compromise.
    assert!(mgr
        .soc()
        .tiles()
        .iter()
        .all(|t| t.health != manycore_resilience::soc::TileHealth::Compromised));
}

#[test]
fn adaptation_scales_deployment_with_threat() {
    let mut mgr = manager(2, ManagerConfig::default());
    let quiet = mgr.run_epoch(&EpochThreat::default(), 1, 3);
    assert_eq!(quiet.level, ThreatLevel::Low);
    assert_eq!(quiet.deployment.protocol, Protocol::Passive);
    let attack = EpochThreat { compromise: vec![TileId(3), TileId(5)], ..Default::default() };
    let hot = mgr.run_epoch(&attack, 1, 3);
    assert!(hot.level >= ThreatLevel::High);
    assert!(hot.deployment.replicas() > quiet.deployment.replicas());
    assert!(hot.deployment.protocol.tolerates_byzantine());
}

#[test]
fn rejuvenation_restores_the_fault_budget_across_epochs() {
    // Without rejuvenation, two sequential single-tile compromises
    // accumulate; with it, each epoch starts with a clean fleet.
    let attack_sequence = [
        EpochThreat { compromise: vec![TileId(1)], ..Default::default() },
        EpochThreat { compromise: vec![TileId(2)], ..Default::default() },
        EpochThreat { compromise: vec![TileId(3)], ..Default::default() },
    ];
    let mut with = manager(3, ManagerConfig::default());
    let mut without =
        manager(3, ManagerConfig { enable_rejuvenation: false, ..Default::default() });
    let mut with_max = 0usize;
    let mut without_max = 0usize;
    for threat in &attack_sequence {
        with.run_epoch(threat, 1, 2);
        without.run_epoch(threat, 1, 2);
        let count = |mgr: &SocManager| {
            mgr.soc()
                .tiles()
                .iter()
                .filter(|t| t.health == manycore_resilience::soc::TileHealth::Compromised)
                .count()
        };
        with_max = with_max.max(count(&with));
        without_max = without_max.max(count(&without));
    }
    // Counted at epoch end: rejuvenation has already cleaned the fleet.
    assert_eq!(with_max, 0, "rejuvenation clears each compromise before the next epoch");
    assert_eq!(without_max, 3, "without it the adversary accumulates tiles");
}

#[test]
fn diverse_rejuvenation_retires_compromised_variants() {
    let mut mgr = manager(4, ManagerConfig::default());
    let victim = TileId(5);
    let old_variant = mgr.soc().tiles()[victim.0 as usize].variant;
    mgr.run_epoch(&EpochThreat { compromise: vec![victim], ..Default::default() }, 1, 2);
    let new_variant = mgr.soc().tiles()[victim.0 as usize].variant;
    assert_ne!(new_variant, old_variant, "the broken variant must not return");
}

#[test]
fn fabric_relocation_happens_through_the_gate_only() {
    let mut mgr = manager(5, ManagerConfig::default());
    let before = mgr.engine().fabric().block_region(3).unwrap();
    let report =
        mgr.run_epoch(&EpochThreat { compromise: vec![TileId(3)], ..Default::default() }, 1, 2);
    assert_eq!(report.relocations, 1);
    let after = mgr.engine().fabric().block_region(3).unwrap();
    assert_ne!(before, after);
    let (approved, denied) = report.gate_stats;
    assert!(approved > 0);
    assert_eq!(denied, 0, "all-correct kernels never produce denials");
}

#[test]
fn campaigns_are_reproducible() {
    let campaign = |seed| {
        let mut mgr = manager(seed, ManagerConfig::default());
        let mut summary = Vec::new();
        for threat in [
            EpochThreat::default(),
            EpochThreat { compromise: vec![TileId(7)], seu_events: 1, ..Default::default() },
            EpochThreat::default(),
        ] {
            let r = mgr.run_epoch(&threat, 2, 4);
            summary.push((r.level, r.run.committed, r.run.messages_total, r.rejuvenated));
        }
        summary
    };
    assert_eq!(campaign(11), campaign(11));
}
