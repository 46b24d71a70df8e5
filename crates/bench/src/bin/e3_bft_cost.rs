//! E3 — Replication cost: PBFT (3f+1) vs MinBFT (2f+1) (§II-A, §III).
//!
//! Claim: hardware hybrids cut the replica requirement from 3f+1 to 2f+1
//! and simplify agreement (fewer phases, fewer messages).
//!
//! Sweep: f = 1..=4, closed-loop clients over NoC-hop latencies. Metrics:
//! replicas, protocol messages per committed op, median commit latency,
//! throughput.

use rsoc_bench::{f1, f3, mesh_latency, ExpOptions, Table};
use rsoc_bft::api::Cluster;
use rsoc_bft::runner::{run, RunConfig, RunReport};
use rsoc_bft::{ClusterJob, Protocol};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    protocol: &'static str,
    f: u32,
    replicas: usize,
    msgs_per_commit: f64,
    median_latency: f64,
    p99_latency: f64,
    throughput_per_kcycle: f64,
    committed: u64,
}

/// A closed-loop run on whichever cluster the protocol builds.
struct ClosedLoop<'a>(&'a RunConfig);

impl ClusterJob for ClosedLoop<'_> {
    type Output = RunReport;
    fn run<C: Cluster>(self, mut cluster: C) -> RunReport {
        run(&mut cluster, self.0)
    }
}

fn main() {
    let options = ExpOptions::from_args();
    let requests = options.trials(200);

    let mut table = Table::new(
        "E3 protocol cost vs fault threshold f",
        &["protocol", "f", "replicas", "msg/op", "lat_p50", "lat_p99", "ops/kcycle"],
    );
    // Canonical cell grid; each cell is a pure function of (f, protocol),
    // so the sweep fans out across worker threads.
    let cells: Vec<(u32, Protocol)> =
        (1..=4u32).flat_map(|f| Protocol::BFT.iter().map(move |&p| (f, p))).collect();
    let reports = rsoc_bench::run_cells(&cells, options.jobs, |&(f, protocol)| {
        let n = protocol.replicas(f);
        let config = RunConfig::builder()
            .f(f)
            .clients(4)
            .requests_per_client(requests)
            .seed(0xE3 + f as u64)
            .latency(mesh_latency(n))
            .max_cycles(200_000_000)
            .build();
        protocol.build(&config, ClosedLoop(&config))
    });
    for (&(f, protocol), report) in cells.iter().zip(&reports) {
        let protocol = protocol.name();
        assert!(report.safety_ok, "{protocol} f={f} violated safety");
        let p50 = report.commit_latency.median().unwrap_or(0.0);
        let p99 = report.commit_latency.quantile(0.99).unwrap_or(0.0);
        table.row(
            &[
                protocol.to_string(),
                f.to_string(),
                report.n_replicas.to_string(),
                f1(report.messages_per_commit()),
                f1(p50),
                f1(p99),
                f3(report.throughput_per_kcycle()),
            ],
            &Row {
                protocol,
                f,
                replicas: report.n_replicas,
                msgs_per_commit: report.messages_per_commit(),
                median_latency: p50,
                p99_latency: p99,
                throughput_per_kcycle: report.throughput_per_kcycle(),
                committed: report.committed,
            },
        );
    }
    table.print(options.json);
    println!(
        "\nExpected shape (paper §II-A/§III): MinBFT uses 2f+1 tiles vs PBFT's\n\
         3f+1, with clearly fewer protocol messages per op (two phases, no\n\
         all-to-all prepare), lower latency, higher throughput — the gap\n\
         widening with f."
    );
}
