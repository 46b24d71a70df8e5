//! F1 — The layered-resilience stack of Fig. 1, end to end.
//!
//! The paper's only figure shows resilience forms composing vertically:
//! gate-level redundancy → protected hybrids → replicated tiles over the
//! NoC → diversity/rejuvenation/adaptation → voted reconfiguration. This
//! harness runs the integrated [`rsoc_soc::SocManager`] through a 12-epoch
//! campaign (quiet → escalating compromise + SEUs → quiet) and ablates one
//! layer at a time.

use rsoc_bench::{f3, ExpOptions, Table};
use rsoc_soc::{EpochThreat, ManagerConfig, SocConfig, SocManager, TileId};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    configuration: String,
    epochs_safe: u32,
    epochs_total: u32,
    committed: u64,
    mean_replicas: f64,
    rejuvenations: usize,
}

fn campaign() -> Vec<EpochThreat> {
    let mut epochs = Vec::new();
    // 3 quiet epochs.
    for _ in 0..3 {
        epochs.push(EpochThreat::default());
    }
    // Escalation: one compromised tile, then two, plus SEU weather.
    epochs.push(EpochThreat { compromise: vec![TileId(3)], seu_events: 2, ..Default::default() });
    epochs.push(EpochThreat { compromise: vec![TileId(7)], seu_events: 3, ..Default::default() });
    epochs.push(EpochThreat {
        compromise: vec![TileId(9), TileId(11)],
        seu_events: 3,
        ..Default::default()
    });
    // One benign crash during the storm.
    epochs.push(EpochThreat { crash: vec![TileId(14)], seu_events: 1, ..Default::default() });
    // Cool-down.
    for _ in 0..5 {
        epochs.push(EpochThreat::default());
    }
    epochs
}

fn run_config(name: &str, config: ManagerConfig) -> Row {
    let mut mgr = SocManager::new(SocConfig { mesh_width: 4, mesh_height: 4, seed: 0xF1 }, config);
    let mut safe = 0u32;
    let mut committed = 0u64;
    let mut replica_sum = 0.0;
    let mut rejuvenations = 0usize;
    let epochs = campaign();
    for threat in &epochs {
        let report = mgr.run_epoch(threat, 1, 5);
        if report.run.safety_ok && report.run.committed == 5 {
            safe += 1;
        }
        committed += report.run.committed;
        replica_sum += report.run.n_replicas as f64;
        rejuvenations += report.rejuvenated.len();
    }
    Row {
        configuration: name.to_string(),
        epochs_safe: safe,
        epochs_total: epochs.len() as u32,
        committed,
        mean_replicas: replica_sum / epochs.len() as f64,
        rejuvenations,
    }
}

fn main() {
    let options = ExpOptions::from_args();
    let mut table = Table::new(
        "F1 12-epoch campaign on a 4x4 SoC: full stack vs ablations",
        &["configuration", "safe_epochs", "committed", "mean_replicas", "rejuvenations"],
    );
    let configs: Vec<(&str, ManagerConfig)> = vec![
        ("full stack", ManagerConfig::default()),
        (
            "no adaptation (static minbft f=1)",
            ManagerConfig { enable_adaptation: false, ..Default::default() },
        ),
        ("no rejuvenation", ManagerConfig { enable_rejuvenation: false, ..Default::default() }),
        (
            "no diversity (same-variant restarts)",
            ManagerConfig { enable_diversity: false, ..Default::default() },
        ),
        ("no relocation", ManagerConfig { enable_relocation: false, ..Default::default() }),
    ];
    // Each configuration's campaign is an independent, seeded cell.
    let rows =
        rsoc_bench::run_cells(&configs, options.jobs, |(name, config)| run_config(name, *config));
    for row in rows {
        table.row(
            &[
                row.configuration.clone(),
                format!("{}/{}", row.epochs_safe, row.epochs_total),
                row.committed.to_string(),
                f3(row.mean_replicas),
                row.rejuvenations.to_string(),
            ],
            &row,
        );
    }
    table.print(options.json);
    println!(
        "\nExpected shape (Fig. 1): the full stack stays safe through the\n\
         storm while averaging a small replica footprint (adaptation shrinks\n\
         it in quiet epochs). Removing rejuvenation lets compromised tiles\n\
         accumulate across epochs; removing adaptation either over- or\n\
         under-provisions; diversity/relocation ablations keep this short\n\
         campaign safe but forfeit the APT-horizon protections E6/E9\n\
         quantify."
    );
}
