//! F2 — Batched consensus pipeline: throughput, MAC amortization, latency.
//!
//! Claim (FeBFT / BFT-SMaRt lineage, applied to the paper's midlife
//! layer): agreeing on *batches* of requests amortizes per-agreement
//! protocol messages and per-message authentication `1/B`, buying
//! multiplicative throughput on a bandwidth-limited NoC at a bounded
//! latency cost.
//!
//! Sweep: batch size × protocol (PBFT / MinBFT) × latency model (the
//! `mesh_latency` mesh-hop placement and a uniform-latency interconnect), with the
//! egress-serialization cost (`link_occupancy`) charging the per-message
//! fixed cost that batching amortizes. Metrics: committed ops per kcycle,
//! MAC operations per op (MinBFT USIG create+verify), protocol messages
//! per op, p50/p99 commit latency.
//!
//! Besides the table/`--json` rows, this binary writes **`BENCH_2.json`**
//! (machine-readable, self-validated by re-reading) to seed the repo's
//! recorded perf trajectory, and asserts the headline result: ≥2× ops/cycle
//! at batch=8 vs batch=1 on the mesh workload, safety checker green
//! throughout. The grid has no named scenarios, so `--scenario` and
//! `--list` are refused (see `rsoc_bench::campaign`).

use rsoc_bench::campaign::{self, Axes, Campaign, Cell, Column, Coord};
use rsoc_bench::{f1, f3, mesh_latency, quick_trials};
use rsoc_bft::api::{Cluster, ClusterStats};
use rsoc_bft::runner::{run, LatencyModel, RunConfig};
use rsoc_bft::Protocol;
use serde::Serialize;
use serde_json::Value;

/// Closed-loop clients; must reach the largest batch size so batches can
/// fill, while keeping the batch=1 egress backlog (clients x msgs/op x
/// occupancy) under the backups' 1500-cycle request patience — otherwise
/// the unbatched baseline melts down in view changes instead of just
/// being slow.
const CLIENTS: u32 = 16;
/// Cycles of sender-egress serialization per message (NoC packetization +
/// MAC check-in) — the fixed cost batching amortizes.
const LINK_OCCUPANCY: u64 = 8;
/// Flush patience for partially filled batches.
const BATCH_FLUSH: u64 = 100;

const BATCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];
/// Fault threshold for every swept cell (replica counts derive from it).
const F: u32 = 1;

/// A latency model of the sweep.
struct Spec {
    name: &'static str,
    mesh: bool,
}

#[derive(Serialize)]
struct Row {
    protocol: &'static str,
    latency_model: &'static str,
    batch_size: usize,
    committed: u64,
    ops_per_kcycle: f64,
    macs_per_op: f64,
    msgs_per_op: f64,
    p50_latency: f64,
    p99_latency: f64,
    safety_ok: bool,
}

#[derive(Serialize)]
struct Summary {
    protocol: &'static str,
    latency_model: &'static str,
    speedup_batch8_vs_1: f64,
    mac_ratio_batch8_vs_1: f64,
}

fn requests(quick: bool) -> u64 {
    quick_trials(100, quick)
}

struct F2;

impl Campaign for F2 {
    const NAME: &'static str = "f2_batching";
    const RECORD: &'static str = "BENCH_2.json";
    const NAMED: bool = false;
    const TITLE: &'static str = "F2 batched consensus: batch size x protocol x latency model";
    const COLUMNS: &'static [Column<Row>] = &[
        ("protocol", |r| r.protocol.into()),
        ("latency", |r| r.latency_model.into()),
        ("batch", |r| r.batch_size.to_string()),
        ("ops/kcycle", |r| f3(r.ops_per_kcycle)),
        ("MACs/op", |r| f1(r.macs_per_op)),
        ("msg/op", |r| f1(r.msgs_per_op)),
        ("lat_p50", |r| f1(r.p50_latency)),
        ("lat_p99", |r| f1(r.p99_latency)),
    ];
    const SHAPE: &'static str = "Expected shape: ops/cycle rises steeply with batch size while\n\
         MACs/op and msg/op fall ~1/B; p50 latency pays a bounded batching\n\
         tax at low load. The mesh rows are the 8x8 mesh-hop placement\n\
         under egress serialization - the recorded perf baseline.";
    type Spec = Spec;
    type Row = Row;

    fn specs(&self) -> Vec<Spec> {
        vec![Spec { name: "mesh", mesh: true }, Spec { name: "uniform", mesh: false }]
    }

    fn axes(spec: &Spec) -> Axes {
        Axes { name: spec.name, protocols: Protocol::BFT, batches: &BATCH_SIZES }
    }

    fn seed(_: Coord, batch: usize) -> u64 {
        0xF2 + batch as u64
    }

    fn config(&self, cell: &Cell<Spec>) -> RunConfig {
        let latency = if cell.spec.mesh {
            mesh_latency(cell.protocol.replicas(F))
        } else {
            LatencyModel::Uniform { min: 5, max: 15 }
        };
        RunConfig::builder()
            .f(F)
            .clients(CLIENTS)
            .requests_per_client(requests(cell.quick))
            .seed(cell.seed)
            .latency(latency)
            .max_cycles(50_000_000)
            .batch_size(cell.batch)
            .batch_flush(BATCH_FLUSH)
            .link_occupancy(LINK_OCCUPANCY)
            .build()
    }

    /// MAC ops are USIG create + verify summed over replicas (0 for the
    /// unauthenticated PBFT model).
    fn run<C: Cluster>(&self, cell: &Cell<Spec>, cfg: &RunConfig, cluster: &mut C) -> Row {
        let report = run(cluster, cfg);
        Row {
            protocol: cell.protocol.name(),
            latency_model: cell.spec.name,
            batch_size: report.batch_size,
            committed: report.committed,
            ops_per_kcycle: report.throughput_per_kcycle(),
            macs_per_op: ClusterStats::of(cluster).mac_ops as f64 / report.committed as f64,
            msgs_per_op: report.messages_per_commit(),
            p50_latency: report.commit_latency.median().unwrap_or(0.0),
            p99_latency: report.commit_latency.quantile(0.99).unwrap_or(0.0),
            safety_ok: report.safety_ok,
        }
    }

    fn check(&self, cell: &Cell<Spec>, row: &Row) -> Result<(), String> {
        let at = format!("{}/{} batch={}", row.protocol, row.latency_model, row.batch_size);
        if !row.safety_ok {
            return Err(format!("{at} violated safety"));
        }
        if row.committed != CLIENTS as u64 * requests(cell.quick) {
            return Err(format!("{at} failed to commit the workload"));
        }
        Ok(())
    }

    fn header(&self, quick: bool, _: usize, _: usize) -> String {
        format!(
            ",\"clients\":{CLIENTS},\"requests_per_client\":{},\"link_occupancy\":{LINK_OCCUPANCY},\
             \"batch_flush\":{BATCH_FLUSH}",
            requests(quick)
        )
    }

    /// Headline summaries: batch=8 vs batch=1 per (protocol, latency model).
    fn trailer(&self, rows: &[Value]) -> String {
        let mut summaries = Vec::new();
        for latency_model in ["mesh", "uniform"] {
            for protocol in ["pbft", "minbft"] {
                let at = |batch: u64, key: &str| {
                    let row = rows.iter().find(|r| {
                        (r["protocol"].as_str(), r["latency_model"].as_str())
                            == (Some(protocol), Some(latency_model))
                            && r["batch_size"].as_u64() == Some(batch)
                    });
                    row.and_then(|r| r[key].as_f64()).expect("swept cell")
                };
                let ratio = |key| if at(1, key) > 0.0 { at(8, key) / at(1, key) } else { 0.0 };
                summaries.push(Summary {
                    protocol,
                    latency_model,
                    speedup_batch8_vs_1: ratio("ops_per_kcycle"),
                    mac_ratio_batch8_vs_1: ratio("macs_per_op"),
                });
            }
        }
        format!(",\"summaries\":{}", serde_json::to_string(&summaries).expect("summaries"))
    }

    /// Prints the summaries; full runs must show the ≥2× mesh speedup
    /// (quick runs are too short for a stable ratio).
    fn audit(&self, record: &Value) -> Result<(), String> {
        println!();
        for s in record["summaries"].as_array().ok_or("no summaries")? {
            let (proto, lat) = (s["protocol"].as_str(), s["latency_model"].as_str());
            let (proto, lat) = (proto.unwrap_or("?"), lat.unwrap_or("?"));
            let speedup = s["speedup_batch8_vs_1"].as_f64().unwrap_or(0.0);
            let macs = s["mac_ratio_batch8_vs_1"].as_f64().unwrap_or(0.0);
            let note =
                if macs > 0.0 { format!(" ({macs:.2}x the MACs/op)") } else { String::new() };
            println!("  {proto}/{lat}: batch=8 gives {speedup:.2}x ops/cycle vs batch=1{note}");
            if record["quick"] == Value::Bool(false) && lat == "mesh" && speedup < 2.0 {
                return Err(format!("{proto} mesh speedup {speedup:.2} below the 2x target"));
            }
        }
        Ok(())
    }
}

fn main() {
    campaign::main(F2);
}

#[test]
fn seeds_are_pinned() {
    assert_eq!(F2::seed(Coord { spec: 0, protocol: 0, batch: 0 }, 1), 0xF3);
    assert_eq!(F2::seed(Coord { spec: 1, protocol: 1, batch: 4 }, 16), 0x102);
}
