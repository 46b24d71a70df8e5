//! E4 — Passive vs active replication (§II-A).
//!
//! Claim: passive replication is cheap (one backup, two messages/op) but
//! "recovery is slow, requires reliable detection and is not seamless to
//! the user"; active replication masks failures without a visible gap.
//!
//! Scenario: primary crashes mid-workload. Sweep over failure-detector
//! timeouts for passive; MinBFT (f=1) as the active comparison. Metrics:
//! steady-state cost, median latency, and worst-case (failover) latency.

use rsoc_bench::{f1, ExpOptions, Table};
use rsoc_bft::adversary::Behavior;
use rsoc_bft::api::Cluster;
use rsoc_bft::minbft::MinBftCluster;
use rsoc_bft::passive::PassiveCluster;
use rsoc_bft::runner::{run, RunConfig};
use rsoc_bft::ReplicaId;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scheme: String,
    detect_timeout: u64,
    replicas: usize,
    msgs_per_commit: f64,
    lat_p50: f64,
    lat_max: f64,
    committed: u64,
}

fn main() {
    let options = ExpOptions::from_args();
    let requests = options.trials(100);
    let crash_at = 100u64; // mid-workload even in --quick runs

    let mut table = Table::new(
        "E4 crash of the primary at t=100 (mid-workload): failover gap vs active masking",
        &["scheme", "detect_to", "replicas", "msg/op", "lat_p50", "lat_max", "committed"],
    );

    /// One swept scenario: the passive pair at a detector timeout, or a
    /// MinBFT cluster crashing a backup / the primary.
    #[derive(Clone, Copy)]
    enum Cell {
        Passive { detect: u64 },
        MinBft { crash_primary: bool },
    }
    let cells: Vec<Cell> = [400u64, 800, 1600, 3200]
        .into_iter()
        .map(|detect| Cell::Passive { detect })
        .chain([Cell::MinBft { crash_primary: false }, Cell::MinBft { crash_primary: true }])
        .collect();

    let reports = rsoc_bench::run_cells(&cells, options.jobs, |cell| {
        let config = RunConfig::builder()
            .f(1)
            .clients(1)
            .requests_per_client(requests)
            .seed(0xE4)
            .client_timeout(300)
            .max_cycles(400_000_000)
            .build();
        match *cell {
            Cell::Passive { detect } => {
                let mut cluster = PassiveCluster::with_detector(&config, detect / 4, detect);
                cluster.set_script(ReplicaId(0), Behavior::CrashAt(crash_at).into());
                run(&mut cluster, &config)
            }
            Cell::MinBft { crash_primary } => {
                let mut cluster = MinBftCluster::new(&config);
                // A crashed backup is pure masking; a crashed primary is
                // a view change bounded by the request patience.
                let victim = if crash_primary { ReplicaId(0) } else { ReplicaId(2) };
                cluster.set_script(victim, Behavior::CrashAt(crash_at).into());
                run(&mut cluster, &config)
            }
        }
    });

    for (cell, report) in cells.iter().zip(&reports) {
        let (label, scheme, detect) = match *cell {
            Cell::Passive { detect } => ("passive".to_string(), "passive", detect),
            Cell::MinBft { crash_primary: false } => {
                ("minbft(backup↓)".to_string(), "minbft-backup-crash", 0)
            }
            Cell::MinBft { crash_primary: true } => {
                ("minbft(primary↓)".to_string(), "minbft-primary-crash", 0)
            }
        };
        let p50 = report.commit_latency.median().unwrap_or(0.0);
        let max = report.commit_latency.quantile(1.0).unwrap_or(0.0);
        table.row(
            &[
                label,
                if detect > 0 { detect.to_string() } else { "-".into() },
                report.n_replicas.to_string(),
                f1(report.messages_per_commit()),
                f1(p50),
                f1(max),
                report.committed.to_string(),
            ],
            &Row {
                scheme: scheme.into(),
                detect_timeout: detect,
                replicas: report.n_replicas,
                msgs_per_commit: report.messages_per_commit(),
                lat_p50: p50,
                lat_max: max,
                committed: report.committed,
            },
        );
    }
    table.print(options.json);
    println!(
        "\nExpected shape (paper §II-A): passive is cheapest per op but its\n\
         worst-case latency grows with the detector timeout (the visible\n\
         failover gap); active replication masks a backup crash with no\n\
         latency spike at all, and bounds even a primary crash by the view-\n\
         change patience rather than an end-to-end detector."
    );
}
