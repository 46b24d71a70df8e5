//! Quickstart: a 4×4 resilient SoC running MinBFT across tiles, masking a
//! Byzantine tile, then rejuvenating it through the voted privilege gate.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use manycore_resilience::bft::Protocol;
use manycore_resilience::soc::{
    EpochThreat, ManagerConfig, ResilientSoc, SocConfig, SocManager, TileId,
};

fn main() {
    // --- 1. A bare SoC: tiles on a mesh, MinBFT over NoC latencies. -----
    let mut soc = ResilientSoc::new(SocConfig { mesh_width: 4, mesh_height: 4, seed: 42 });
    println!(
        "SoC: {} tiles on a {}x{} mesh, {} distinct software variants",
        soc.tiles().len(),
        soc.mesh().width(),
        soc.mesh().height(),
        soc.tiles().iter().map(|t| t.variant).collect::<std::collections::BTreeSet<_>>().len(),
    );

    let clean = soc.run_workload(Protocol::MinBft, 1, 2, 10);
    println!(
        "\nfault-free MinBFT (f=1, {} replicas): {} ops committed, \
         {:.1} msgs/op, median latency {:.0} cycles, safety={}",
        clean.n_replicas,
        clean.committed,
        clean.messages_per_commit(),
        clean.commit_latency.median().unwrap_or(0.0),
        clean.safety_ok,
    );

    // --- 2. Compromise a tile: the protocol masks it. -------------------
    soc.compromise_tile(TileId(1));
    let under_attack = soc.run_workload(Protocol::MinBft, 1, 2, 10);
    println!(
        "with tile t1 Byzantine: {} ops committed, safety={} (masked by 2f+1 + USIG)",
        under_attack.committed, under_attack.safety_ok,
    );

    // --- 3. The full managed stack: detect, adapt, rejuvenate. ----------
    let mut mgr = SocManager::new(
        SocConfig { mesh_width: 4, mesh_height: 4, seed: 42 },
        ManagerConfig::default(),
    );
    println!("\nmanaged epochs (detector → controller → voted rejuvenation):");
    let epochs = [
        EpochThreat::default(),
        EpochThreat { compromise: vec![TileId(5)], ..Default::default() },
        EpochThreat { compromise: vec![TileId(9)], seu_events: 2, ..Default::default() },
        EpochThreat::default(),
        EpochThreat::default(),
    ];
    for (i, threat) in epochs.iter().enumerate() {
        let report = mgr.run_epoch(threat, 1, 5);
        println!(
            "  epoch {i}: threat={:?} deployment={:?}(f={}) committed={} \
             rejuvenated={:?} relocations={}",
            report.level,
            report.deployment.protocol,
            report.deployment.f,
            report.run.committed,
            report.rejuvenated,
            report.relocations,
        );
        assert!(report.run.safety_ok, "the stack must stay safe");
    }
    println!("\nall epochs safe; compromised tiles were rejuvenated onto fresh variants");
}
