//! F6 — the recovery campaign: certified checkpoints, collaborative state
//! transfer, and rejuvenation re-join, swept over every protocol and batch
//! size with the safety/liveness oracle judging each cell.
//!
//! The paper's rejuvenation story (§II-C) only works if a recycled replica
//! can *re-join*: wiping volatile state is trivially safe for the replica
//! and trivially unsafe for the group unless the re-joiner can prove what
//! history it missed. This campaign exercises the full machinery end to
//! end: periodic certified checkpoints (f+1 matching MAC vouchers), log
//! truncation below the stable watermark, and collaborative state transfer
//! (certificate-checked snapshot + suffix replay) — and the attacks on it:
//! corrupted snapshots served to a recovering replica and forged
//! checkpoint certificates.
//!
//! Six named scenarios × {pbft, minbft, passive} × batch {1, 8} (the three
//! attack scenarios are BFT-only — passive's single snapshot source makes
//! "all servers corrupt" indistinguishable from source death, its
//! documented 2-replica residual):
//!
//! - `baseline_ckpt` — fault-free with checkpointing on: the voucher /
//!   certificate / truncation machinery must not disturb the workload.
//! - `rejuvenate_under_load` — a backup is wiped mid-load and must
//!   re-join through a genuine state transfer (asserted: ≥ 1 wipe AND
//!   ≥ 1 completed transfer).
//! - `crash_long_rejoin` — a backup sleeps through certified history.
//!   PBFT truncates below the watermark and must escalate to state
//!   transfer; MinBFT's 512-counter resend ring and passive's stability
//!   quorum (which cannot outrun its own lagging backup) absorb a gap
//!   this size by ordinary replay, with the watermark still advancing.
//! - `corrupted_snapshot` — every serving replica corrupts its snapshot
//!   bytes; the re-joiner must reject them all against the certificate
//!   digest (asserted: ≥ 1 rejection, 0 installs) while the rest of the
//!   cluster stays live.
//! - `forged_certificate` — a replica broadcasts forged checkpoint
//!   vouchers (garbage MACs and properly-signed digest lies); honest
//!   replicas must reject them while real certificates still form.
//! - `lying_responder` — one transfer responder serves a tampered log
//!   suffix (digest lies and fabricated slots) to a recovering replica.
//!   Suffix slots are accepted only on f+1 matching batch digests, so a
//!   single liar can at worst stall the tail — never make the re-joiner
//!   execute history the cluster did not commit (asserted: the re-join
//!   still completes via transfer, and every correct replica converges).
//!
//! Writes **`BENCH_6.json`** (self-validated by re-reading). Virtual-time
//! only: byte-identical for any `--jobs N` (checked in CI) and
//! machine-independent. `--scenario NAME` filters to one scenario and
//! writes no record, and `--list` prints the names (see
//! `rsoc_bench::campaign`).
//!
//! [`ScenarioOracle`]: rsoc_bft::adversary::ScenarioOracle

use rsoc_bench::campaign::{self, Axes, Campaign, Cell, Column, Coord};
use rsoc_bft::adversary::{ReplicaScript, Scenario, ScenarioOracle, Window};
use rsoc_bft::api::{Cluster, ClusterStats};
use rsoc_bft::runner::{run_scenario, LatencyModel, RunConfig};
use rsoc_bft::Protocol;
use serde::Serialize;

/// Workload clients per cell.
const CLIENTS: u32 = 4;
/// Requests per client per cell.
const REQUESTS: u64 = 12;
/// Batch sizes swept per scenario × protocol.
const BATCHES: [usize; 2] = [1, 8];
/// Certified-checkpoint interval (executed ops per watermark).
const CKPT_INTERVAL: u64 = 3;
/// Hard stop per cell (a wedged cell shows up as a liveness failure, not
/// a hang).
const MAX_CYCLES: u64 = 20_000_000;

/// Wipe time for the rejuvenation scenarios — inside the active load
/// phase AND after the first certificate stabilises, for every protocol ×
/// batch cell (re-join is traffic-driven, and a wipe before any
/// certificate exists re-joins by ordinary replay, which is not what
/// these rows measure). Batch-8 cells fill slots on the flush timer, so
/// both load and the first watermark land much later than at batch 1.
fn wipe_at(batch: usize) -> u64 {
    if batch == 1 {
        150
    } else {
        600
    }
}

/// One named scenario of the campaign matrix.
struct Spec {
    name: &'static str,
    /// What the scenario exercises (for the table and README matrix).
    attacks: &'static str,
    /// Protocols the scenario applies to.
    protocols: &'static [Protocol],
    /// Builds the scenario for a cluster of `n` replicas at batch size
    /// `batch` (timing-sensitive scripts shift with the batch regime).
    build: fn(n: u32, batch: usize) -> Scenario,
}

#[derive(Serialize)]
struct Row {
    scenario: &'static str,
    attacks: &'static str,
    protocol: &'static str,
    batch_size: usize,
    committed: u64,
    expected_ops: u64,
    duration_cycles: u64,
    view_changes: u64,
    messages_total: u64,
    rejuvenations: u64,
    stable_seq: u64,
    state_transfers: u64,
    vouchers_rejected: u64,
    safety_ok: bool,
    digests_ok: bool,
    liveness_ok: bool,
    pass: bool,
}

struct F6;

impl Campaign for F6 {
    const NAME: &'static str = "f6_recovery";
    const RECORD: &'static str = "BENCH_6.json";
    const TITLE: &'static str =
        "F6 recovery campaign: certified checkpoints, state transfer, rejuvenation re-join";
    const COLUMNS: &'static [Column<Row>] = &[
        ("scenario", |r| r.scenario.into()),
        ("protocol", |r| r.protocol.into()),
        ("batch", |r| r.batch_size.to_string()),
        ("committed", |r| format!("{}/{}", r.committed, r.expected_ops)),
        ("cycles", |r| r.duration_cycles.to_string()),
        ("stable", |r| r.stable_seq.to_string()),
        ("transfers", |r| r.state_transfers.to_string()),
        ("rejuv", |r| r.rejuvenations.to_string()),
        ("rejected", |r| r.vouchers_rejected.to_string()),
        ("verdict", |r| if r.pass { "pass" } else { "FAIL" }.into()),
    ];
    const SHAPE: &'static str = "Expected shape: every cell passes the oracle. Rejuvenation and\n\
         long-crash cells show completed state transfers (the re-join is\n\
         genuine, not a lucky replay); the attack cells show rejections —\n\
         corrupted snapshots never install, forged vouchers never\n\
         certify — while real certificates keep forming.";
    type Spec = Spec;
    type Row = Row;

    fn specs(&self) -> Vec<Spec> {
        vec![
            Spec {
                name: "baseline_ckpt",
                attacks: "nothing (control row: checkpointing on, no faults)",
                protocols: Protocol::ALL,
                build: |_, _| Scenario::none(),
            },
            Spec {
                name: "rejuvenate_under_load",
                attacks: "backup wiped mid-load; must re-join via state transfer",
                protocols: Protocol::ALL,
                build: |n, batch| {
                    // MinBFT (n = 3): the suffix install quorum is f+1 = 2, and
                    // the 512-counter resend ring can replay a freshly-wiped
                    // stream before the second matching responder lands — wipe
                    // later so the re-join is pinned to a genuine transfer.
                    let delay = if n == 3 { 200 } else { 0 };
                    Scenario::none().script(
                        n - 1,
                        ReplicaScript::correct().rejuvenate_at(wipe_at(batch) + delay),
                    )
                },
            },
            Spec {
                name: "crash_long_rejoin",
                attacks: "backup sleeps through certified history; pbft escalates to transfer",
                protocols: Protocol::ALL,
                build: |n, batch| {
                    let heal = if batch == 1 { 180 } else { 700 };
                    Scenario::none()
                        .script(n - 1, ReplicaScript::correct().crash(Window::new(60, heal)))
                },
            },
            Spec {
                name: "corrupted_snapshot",
                attacks: "every server corrupts transfer snapshots; re-joiner must reject all",
                protocols: Protocol::BFT,
                build: |n, batch| {
                    // Wiped a little later than `rejuvenate_under_load`: the
                    // re-joiner must be mid-transfer when the corrupt
                    // responses land (MinBFT's FillGap replay can otherwise
                    // rebuild a very young stream before any response
                    // arrives, leaving the rejection path unexercised).
                    let mut s = Scenario::none().script(
                        n - 1,
                        ReplicaScript::correct().rejuvenate_at(wipe_at(batch) + 200),
                    );
                    for r in 0..n - 1 {
                        s = s.script(
                            r,
                            ReplicaScript::correct().corrupt_snapshots(Window::new(0, MAX_CYCLES)),
                        );
                    }
                    s
                },
            },
            Spec {
                name: "lying_responder",
                attacks: "one transfer responder tampers its suffix; f+1 slot voting outvotes it",
                protocols: Protocol::BFT,
                build: |n, batch| {
                    // Same late wipe as `corrupted_snapshot`: the re-joiner
                    // must be mid-transfer when the lying response lands.
                    Scenario::none()
                        .script(n - 1, ReplicaScript::correct().rejuvenate_at(wipe_at(batch) + 200))
                        .script(
                            1,
                            ReplicaScript::correct().corrupt_suffixes(Window::new(0, MAX_CYCLES)),
                        )
                },
            },
            Spec {
                name: "forged_certificate",
                attacks: "forged checkpoint vouchers (garbage MACs + signed digest lies)",
                protocols: Protocol::BFT,
                build: |_, _| {
                    Scenario::none().script(
                        1,
                        ReplicaScript::correct().forge_checkpoints(Window::new(0, MAX_CYCLES)),
                    )
                },
            },
        ]
    }

    fn axes(spec: &Spec) -> Axes {
        Axes { name: spec.name, protocols: spec.protocols, batches: &BATCHES }
    }

    /// A pure function of the cell's coordinates in the UNFILTERED matrix:
    /// a `--scenario` run replays exactly the same traces as the full
    /// matrix.
    fn seed(at: Coord, _: usize) -> u64 {
        at.xor_seed(0xF6_0000)
    }

    fn config(&self, cell: &Cell<Spec>) -> RunConfig {
        RunConfig::builder()
            .f(1)
            .clients(CLIENTS)
            .requests_per_client(REQUESTS)
            .seed(cell.seed)
            .latency(LatencyModel::Uniform { min: 5, max: 15 })
            .max_cycles(MAX_CYCLES)
            .batch_size(cell.batch)
            .batch_flush(80)
            .checkpoint_interval(CKPT_INTERVAL)
            .build()
    }

    fn run<C: Cluster>(&self, cell: &Cell<Spec>, cfg: &RunConfig, cluster: &mut C) -> Row {
        let expected = CLIENTS as u64 * REQUESTS;
        let scenario = (cell.spec.build)(cluster.nodes().len() as u32, cell.batch);
        let outcome = run_scenario(cluster, cfg, &scenario);
        let verdict =
            ScenarioOracle::expecting_liveness().judge(cluster, &outcome.report, expected);
        let stats = ClusterStats::of(cluster);
        Row {
            scenario: cell.spec.name,
            attacks: cell.spec.attacks,
            protocol: cell.protocol.name(),
            batch_size: cell.batch,
            committed: outcome.report.committed,
            expected_ops: expected,
            duration_cycles: outcome.report.duration_cycles,
            view_changes: stats.max_view,
            messages_total: outcome.report.messages_total,
            rejuvenations: outcome.rejuvenations,
            stable_seq: stats.stable_seq,
            state_transfers: stats.transfers,
            vouchers_rejected: stats.rejected,
            safety_ok: verdict.safety_ok,
            digests_ok: verdict.digests_ok,
            liveness_ok: verdict.liveness_ok,
            pass: verdict.pass(),
        }
    }

    /// The oracle's verdict, then the recovery-specific counters each
    /// scenario exists to produce.
    fn check(&self, _: &Cell<Spec>, r: &Row) -> Result<(), String> {
        let at = format!("{}/{}/b{}", r.scenario, r.protocol, r.batch_size);
        if !r.pass {
            let (safety, digests, liveness) = (r.safety_ok, r.digests_ok, r.liveness_ok);
            let done = format!("{}/{} committed", r.committed, r.expected_ops);
            return Err(format!(
                "{at}: safety={safety} digests={digests} liveness={liveness} ({done})"
            ));
        }
        let (stable, transfers) = (r.stable_seq, r.state_transfers);
        let (rejuv, rejected) = (r.rejuvenations, r.vouchers_rejected);
        let broken: &[(bool, &str)] = match r.scenario {
            "baseline_ckpt" => &[
                (stable == 0, "no certificate ever stabilised"),
                (transfers != 0, "fault-free cell should never need state transfer"),
            ],
            "rejuvenate_under_load" => &[
                (rejuv < 1, "wipe never fired"),
                (transfers < 1, "re-join did not go through state transfer"),
            ],
            // Only PBFT's truncation forces escalation at this run length:
            // MinBFT's 512-counter resend ring and passive's stability
            // quorum (which cannot outrun its own lagging backup) both
            // absorb the gap by ordinary replay — that absorption, with an
            // advancing watermark, is exactly what their rows assert.
            "crash_long_rejoin" => &[
                (
                    r.protocol == "pbft" && transfers < 1,
                    "recovery did not escalate to state transfer",
                ),
                (stable == 0, "no certificate stabilised across the outage"),
            ],
            "corrupted_snapshot" => &[
                (rejected < 1, "corrupted snapshot was never rejected"),
                (transfers != 0, "a corrupted snapshot was installed"),
            ],
            "forged_certificate" => &[
                (rejected < 1, "forged voucher was never rejected"),
                (stable == 0, "forgery suppressed real certificates"),
            ],
            "lying_responder" => &[
                (rejuv < 1, "wipe never fired"),
                (transfers < 1, "the lie blocked the re-join entirely"),
            ],
            _ => &[],
        };
        match broken.iter().find(|(bad, _)| *bad) {
            Some((_, what)) => Err(format!(
                "{at}: {what} (stable={stable} transfers={transfers} rejuv={rejuv} rejected={rejected})"
            )),
            None => Ok(()),
        }
    }

    fn header(&self, _: bool, specs: usize, _: usize) -> String {
        format!(
            ",\"clients\":{CLIENTS},\"requests_per_client\":{REQUESTS},\
             \"checkpoint_interval\":{CKPT_INTERVAL},\"scenarios\":{specs}"
        )
    }
}

fn main() {
    campaign::main(F6);
}

#[test]
fn seeds_are_pinned() {
    assert_eq!(F6::seed(Coord { spec: 0, protocol: 2, batch: 1 }, 8), 0xF6_0201);
    assert_eq!(F6::seed(Coord { spec: 5, protocol: 1, batch: 0 }, 1), 0xF6_5100);
}
