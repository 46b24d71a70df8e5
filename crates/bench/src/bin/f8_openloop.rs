//! F8 — the open-loop production-scale workload campaign.
//!
//! Every earlier campaign drove the protocols with closed-loop clients: a
//! bounded window of outstanding ops, so a slow cluster simply slows its
//! own load down. Production traffic does not do that — arrivals keep
//! coming whether or not the system keeps up. This campaign drives the
//! [`run_open_loop`] plane: rate-scheduled arrival processes (Poisson,
//! bursty), modulated by diurnal ramps and flash crowds, issued by a
//! skewed population of up to ~10^5.5 distinct users (hot-set / Zipf),
//! with commit latency recorded in log-bucketed mergeable histograms
//! (p50/p99/p999 per cell).
//!
//! The grid (canonical order: generator × protocol × batch):
//!
//! - `steady_poisson` — a plain Poisson plane over every protocol at
//!   batch 1 and 8: the control rows.
//! - `diurnal_hotset` — a diurnal rate swing over a hot-set population:
//!   the queueing tail must follow the ramp, not diverge.
//! - `flash_zipf` — bursty arrivals + a 3× flash crowd over a Zipf
//!   population: short overload absorbed by queueing, p999 visible.
//! - `production_scale` — one **million-op** cell each for pbft and
//!   passive over a 262k-user population (≥ 10^5 distinct identities in
//!   one process, no per-client allocation).
//! - `minbft_ring_aging` — MinBFT's million-op cell, with a backup
//!   crashed through ~940 slots so the peers' 512-counter resend rings
//!   retire past its gap: on heal, FillGap *must* escalate through the
//!   certified-checkpoint hint path (`hint_resyncs ≥ 1` is asserted —
//!   this is the long-run path a short closed-loop run can never age
//!   into).
//!
//! Writes **`BENCH_8.json`** (self-validated by re-reading: every row's
//! histogram bucket counts must sum to its committed count). Virtual-time
//! only: byte-identical for any `--jobs N`. `--scenario NAME` runs one
//! generator's cells, with the full grid's seeds, and writes no record
//! (see `rsoc_bench::campaign`).

use rsoc_bench::campaign::{self, Axes, Campaign, Cell, Column, Coord};
use rsoc_bench::quick_trials;
use rsoc_bft::adversary::{ReplicaScript, Scenario};
use rsoc_bft::api::{Cluster, ClusterStats};
use rsoc_bft::runner::{run_open_loop, LatencyModel, OpenLoopSpec, RunConfig};
use rsoc_bft::Protocol;
use rsoc_sim::{Arrival, KeyDist, RateMod, Window};
use serde::Serialize;
use serde_json::Value;

/// Hard stop per cell — the million-op cells at mean gap 40 span ~40M
/// cycles; a wedged cell shows up as `committed < issued`, not a hang.
const MAX_CYCLES: u64 = 200_000_000;

/// The shared production-scale generator: Poisson arrivals at mean gap
/// 40 under a gentle diurnal swing, issued by a 262144-user hot-set
/// population (half the traffic from 512 hot users, half uniform).
const PRODUCTION_USERS: KeyDist = KeyDist::HotSet { n: 262_144, hot: 512, hot_per_mille: 500 };

/// One generator of the campaign matrix.
struct Spec {
    name: &'static str,
    /// Generator summary (for the table and README matrix).
    generator: &'static str,
    arrival: Arrival,
    /// Rate envelopes (built per cell; `RateMod` is `Copy` but windows
    /// read more clearly constructed in one place).
    mods: fn() -> Vec<RateMod>,
    users: KeyDist,
    /// Full-run op count (scaled by `--quick`).
    total_ops: u64,
    /// Certified-checkpoint interval (0 = subsystem off).
    ckpt_interval: u64,
    protocols: &'static [Protocol],
    batches: &'static [usize],
    /// Scenario for a cluster of `n` replicas.
    build: fn(n: u32) -> Scenario,
}

fn production_mods() -> Vec<RateMod> {
    vec![RateMod::Diurnal { period: 2_000_000, low_per_mille: 700, high_per_mille: 1_400 }]
}

#[derive(Serialize)]
struct Row {
    /// Canonical index in the unfiltered grid.
    cell_index: usize,
    generator: &'static str,
    arrival: &'static str,
    protocol: &'static str,
    batch_size: usize,
    total_ops: u64,
    issued: u64,
    committed: u64,
    distinct_users: u64,
    retries: u64,
    messages_total: u64,
    messages_protocol: u64,
    duration_cycles: u64,
    ops_per_kcycle: f64,
    p50_cycles: u64,
    p99_cycles: u64,
    p999_cycles: u64,
    max_latency_cycles: u64,
    /// Sparse log-bucketed latency histogram: occupied bucket indices…
    hist_bucket_indices: Vec<u64>,
    /// …and their counts. Summing these MUST reproduce `committed` — the
    /// self-check `campaign::verify` makes on every record written.
    hist_bucket_counts: Vec<u64>,
    stable_seq: u64,
    state_transfers: u64,
    hint_resyncs: u64,
    safety_ok: bool,
    pass: bool,
}

struct F8;

impl Campaign for F8 {
    const NAME: &'static str = "f8_openloop";
    const RECORD: &'static str = "BENCH_8.json";
    const TITLE: &'static str =
        "F8 open-loop campaign: rate-scheduled arrivals, skewed populations, latency tails";
    const COLUMNS: &'static [Column<Row>] = &[
        ("generator", |r| r.generator.into()),
        ("protocol", |r| r.protocol.into()),
        ("batch", |r| r.batch_size.to_string()),
        ("committed", |r| format!("{}/{}", r.committed, r.issued)),
        ("users", |r| r.distinct_users.to_string()),
        ("p50", |r| r.p50_cycles.to_string()),
        ("p99", |r| r.p99_cycles.to_string()),
        ("p999", |r| r.p999_cycles.to_string()),
        ("ops/kcyc", |r| format!("{:.1}", r.ops_per_kcycle)),
        ("resyncs", |r| r.hint_resyncs.to_string()),
        ("verdict", |r| if r.pass { "pass" } else { "FAIL" }.into()),
    ];
    const SHAPE: &'static str = "Expected shape: every cell absorbs its full arrival schedule\n\
         (committed == issued) with the histogram accounting for every\n\
         commit. The million-op cells hold >= 10^5 distinct users in one\n\
         process; the MinBFT ring-aging cell re-joins through the\n\
         checkpoint-hint path (resyncs >= 1), which only a long-run\n\
         open-loop plane can exercise.";
    type Spec = Spec;
    type Row = Row;

    fn specs(&self) -> Vec<Spec> {
        vec![
            Spec {
                name: "steady_poisson",
                generator: "poisson(gap 150) / uniform 20k users",
                arrival: Arrival::Poisson { mean_gap: 150 },
                mods: Vec::new,
                users: KeyDist::Uniform { n: 20_000 },
                total_ops: 20_000,
                ckpt_interval: 0,
                protocols: Protocol::ALL,
                batches: &[1, 8],
                build: |_| Scenario::none(),
            },
            Spec {
                name: "diurnal_hotset",
                generator: "poisson(gap 50) * diurnal 0.6-1.8x / hotset 50k users",
                arrival: Arrival::Poisson { mean_gap: 50 },
                mods: || {
                    vec![RateMod::Diurnal {
                        period: 200_000,
                        low_per_mille: 600,
                        high_per_mille: 1_800,
                    }]
                },
                users: KeyDist::HotSet { n: 50_000, hot: 64, hot_per_mille: 800 },
                total_ops: 20_000,
                ckpt_interval: 0,
                protocols: Protocol::ALL,
                batches: &[8],
                build: |_| Scenario::none(),
            },
            Spec {
                name: "flash_zipf",
                generator: "bursty(16 @ gap 2, quiet 1200) * 3x crowd / zipf 30k users",
                arrival: Arrival::Bursty { burst: 16, gap_in: 2, mean_gap_between: 1_200 },
                mods: || {
                    vec![RateMod::FlashCrowd {
                        window: Window::new(100_000, 200_000),
                        mult_per_mille: 3_000,
                    }]
                },
                users: KeyDist::Zipf { n: 30_000, theta_per_mille: 900 },
                total_ops: 20_000,
                ckpt_interval: 0,
                protocols: Protocol::ALL,
                batches: &[8],
                build: |_| Scenario::none(),
            },
            Spec {
                name: "production_scale",
                generator: "poisson(gap 40) * diurnal 0.7-1.4x / hotset 262k users",
                arrival: Arrival::Poisson { mean_gap: 40 },
                mods: production_mods,
                users: PRODUCTION_USERS,
                total_ops: 1_000_000,
                ckpt_interval: 0,
                protocols: &[Protocol::Pbft, Protocol::Passive],
                batches: &[8],
                build: |_| Scenario::none(),
            },
            Spec {
                name: "minbft_ring_aging",
                generator: "poisson(gap 40) * diurnal 0.7-1.4x / hotset 262k users + backup crash",
                arrival: Arrival::Poisson { mean_gap: 40 },
                mods: production_mods,
                users: PRODUCTION_USERS,
                total_ops: 1_000_000,
                // Certified checkpoints every 2048 slots: the healed backup's
                // only way past the retired resend rings is a checkpoint hint.
                ckpt_interval: 2_048,
                protocols: &[Protocol::MinBft],
                batches: &[8],
                // A ~300k-cycle outage ≈ 940 slots ≈ 1900 UI-stamped sends per
                // peer — far past the 512-counter resend ring, so ordinary
                // FillGap replay is structurally impossible when it heals.
                build: |n| {
                    Scenario::none().script(
                        n - 1,
                        ReplicaScript::correct()
                            .crash(rsoc_bft::adversary::Window::new(100_000, 400_000)),
                    )
                },
            },
        ]
    }

    fn axes(spec: &Spec) -> Axes {
        Axes { name: spec.name, protocols: spec.protocols, batches: spec.batches }
    }

    /// A pure function of the cell's coordinates, never a shared
    /// sequential stream — a `--scenario` subset replays exactly the
    /// traces the whole sweep does.
    fn seed(at: Coord, _: usize) -> u64 {
        at.xor_seed(0xF8_0000)
    }

    fn config(&self, cell: &Cell<Spec>) -> RunConfig {
        RunConfig::builder()
            .f(1)
            .seed(cell.seed)
            .latency(LatencyModel::Uniform { min: 5, max: 15 })
            .max_cycles(MAX_CYCLES)
            .batch_size(cell.batch)
            .batch_flush(80)
            .checkpoint_interval(cell.spec.ckpt_interval)
            .build()
    }

    fn run<C: Cluster>(&self, cell: &Cell<Spec>, cfg: &RunConfig, cluster: &mut C) -> Row {
        let spec = cell.spec;
        let total_ops = quick_trials(spec.total_ops, cell.quick);
        let ospec = OpenLoopSpec {
            arrival: spec.arrival,
            mods: (spec.mods)(),
            users: spec.users,
            total_ops,
        };
        let scenario = (spec.build)(cluster.nodes().len() as u32);
        let r = run_open_loop(cluster, cfg, &ospec, &scenario);
        let stats = ClusterStats::of(cluster);
        let (hist_bucket_indices, hist_bucket_counts) = r.latency.to_sparse();
        let q = |q: f64| r.latency.quantile(q).unwrap_or(0);
        let pass = r.committed == r.issued
            && r.issued == total_ops
            && r.safety_ok
            && r.latency.count() == r.committed;
        Row {
            cell_index: cell.index,
            generator: spec.name,
            arrival: spec.generator,
            protocol: cell.protocol.name(),
            batch_size: cell.batch,
            total_ops,
            issued: r.issued,
            committed: r.committed,
            distinct_users: r.distinct_users,
            retries: r.retries,
            messages_total: r.messages_total,
            messages_protocol: r.messages_protocol,
            duration_cycles: r.duration_cycles,
            ops_per_kcycle: if r.duration_cycles == 0 {
                0.0
            } else {
                r.committed as f64 * 1000.0 / r.duration_cycles as f64
            },
            p50_cycles: q(0.5),
            p99_cycles: q(0.99),
            p999_cycles: q(0.999),
            max_latency_cycles: r.latency.max().unwrap_or(0),
            hist_bucket_indices,
            hist_bucket_counts,
            stable_seq: stats.stable_seq,
            state_transfers: stats.transfers,
            hint_resyncs: stats.hint_resyncs,
            safety_ok: r.safety_ok,
            pass,
        }
    }

    fn check(&self, _: &Cell<Spec>, r: &Row) -> Result<(), String> {
        let hist = r.hist_bucket_counts.iter().sum::<u64>();
        r.pass.then_some(()).ok_or_else(|| {
            format!(
                "{}/{}/b{}: committed {}/{} safety={} hist={hist}",
                r.generator, r.protocol, r.batch_size, r.committed, r.issued, r.safety_ok
            )
        })
    }

    fn header(&self, _: bool, _: usize, cells: usize) -> String {
        format!(",\"grid_cells\":{cells}")
    }

    /// The ring-aging cell actually escalated through the hint path, and
    /// (full runs only) the population and million-op floors hold.
    fn audit(&self, record: &Value) -> Result<(), String> {
        let rows = record["rows"].as_array().ok_or("no rows")?;
        let field = |row: &Value, key: &str| row[key].as_u64().unwrap_or(0);
        let aging = rows.iter().filter(|r| r["generator"].as_str() == Some("minbft_ring_aging"));
        if aging.map(|r| field(r, "hint_resyncs")).sum::<u64>() < 1 {
            return Err("the ring-aging cell never escalated through the hint path".into());
        }
        if record["quick"].as_bool() != Some(false) {
            return Ok(());
        }
        let max_users = rows.iter().map(|r| field(r, "distinct_users")).max().unwrap_or(0);
        if max_users < 100_000 {
            return Err(format!("population floor: best cell reached {max_users} users"));
        }
        for p in Protocol::ALL.iter().map(|p| p.name()) {
            let million = |r: &&Value| field(r, "total_ops") >= 1_000_000;
            if !rows.iter().filter(million).any(|r| r["protocol"].as_str() == Some(p)) {
                return Err(format!("no million-op cell recorded for {p}"));
            }
        }
        Ok(())
    }
}

fn main() {
    campaign::main(F8);
}

#[test]
fn seeds_are_pinned() {
    assert_eq!(F8::seed(Coord { spec: 0, protocol: 2, batch: 1 }, 8), 0xF8_0201);
    assert_eq!(F8::seed(Coord { spec: 4, protocol: 0, batch: 0 }, 8), 0xF8_4000);
}
