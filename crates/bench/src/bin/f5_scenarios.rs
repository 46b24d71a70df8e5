//! F5 — the adversarial scenario campaign: a named matrix of composable,
//! time-phased fault and intrusion scripts swept over every protocol and
//! batch size, each cell judged by the safety/liveness oracle.
//!
//! The paper's core claim is resilience to *both* accidental faults and
//! targeted intrusions; after four perf-focused PRs the evidence was six
//! hard-coded behaviours poked ad hoc in unit tests. This campaign runs
//! **16 named scenarios** — crash/recover windows, silence, Byzantine
//! content attacks, partitions (blip and healed-minority), DoS-rate
//! client floods, probabilistic drop storms, degraded (slow) links,
//! duplication, reordering, stale replay, and cascading primary crashes —
//! against {pbft, minbft, passive} × batch {1, 8}, deterministically
//! under the parallel sweep runner. Every cell must pass the
//! [`ScenarioOracle`]: safety (and cross-replica digest agreement)
//! unconditionally, liveness because every scripted fault either heals or
//! stays within the protocol's tolerance.
//!
//! Building this campaign (and composing its scenarios) caught five real
//! protocol bugs the ad-hoc tests missed, all fixed and pinned by
//! regression tests: a view-change *wedge* (a `CrashAt` firing mid
//! view-change left the cluster re-demanding a view whose primary was
//! dead), a sequence-hole wedge under message loss (a proposal dying
//! unprepared below a prepared neighbour blocked in-order execution
//! forever — fixed with quorum-floor-guarded no-op fillers, PBFT's null
//! requests), MinBFT counter-stream poisoning (one dropped UI-certified
//! message stalled the sender's hold-back stream forever — fixed with
//! `FillGap` reliable-FIFO-channel emulation), timer-chain death across
//! crash windows (revived on the first post-outage input), and stale-log
//! promotion in passive failover (heartbeat-advertised log lengths plus
//! backup resync shrink the stale window to ~one heartbeat period; the
//! residual is passive's inherent non-seamless recovery). See the
//! README's "Scenario matrix".
//!
//! Writes **`BENCH_5.json`** (self-validated by re-reading). The whole
//! record is virtual-time only, hence byte-identical for any `--jobs N`
//! (checked in CI) and machine-independent. `--quick` sweeps the same
//! matrix (the cells are already small); `--scenario NAME` filters to one
//! scenario (CI uses it for per-scenario log groups) and writes no
//! record, and `--list` prints the scenario names (see
//! `rsoc_bench::campaign`).
//!
//! [`ScenarioOracle`]: rsoc_bft::adversary::ScenarioOracle

use rsoc_bench::campaign::{self, Axes, Campaign, Cell, Column, Coord};
use rsoc_bft::adversary::{
    Flood, LinkFault, ReplaySpec, ReplicaScript, Scenario, ScenarioOracle, Window,
};
use rsoc_bft::api::{Cluster, ClusterStats};
use rsoc_bft::runner::{run_scenario, LatencyModel, RunConfig};
use rsoc_bft::Protocol;
use serde::Serialize;

/// Workload clients per cell.
const CLIENTS: u32 = 4;
/// Requests per client per cell.
const REQUESTS: u64 = 8;
/// Batch sizes swept per scenario × protocol.
const BATCHES: [usize; 2] = [1, 8];
/// Hard stop per cell (a wedged cell shows up as a liveness failure, not
/// a hang).
const MAX_CYCLES: u64 = 20_000_000;

/// One named scenario of the campaign matrix.
struct Spec {
    name: &'static str,
    /// What the scenario attacks (for the table and README matrix).
    attacks: &'static str,
    /// Protocols the scenario applies to (content attacks and
    /// quorum-dependent partitions exclude the 2-replica passive pair,
    /// which tolerates neither by design).
    protocols: &'static [Protocol],
    /// Fault threshold of the cell (2 for the cascading double crash).
    f: u32,
    /// Builds the scenario for a cluster of `n` replicas.
    build: fn(n: u32) -> Scenario,
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
    client_retries: u64,
    messages_total: u64,
    flood_requests: u64,
    script_drops: u64,
    duplicates: u64,
    replays: u64,
    safety_ok: bool,
    digests_ok: bool,
    liveness_ok: bool,
    pass: bool,
}

struct F5;

impl Campaign for F5 {
    const NAME: &'static str = "f5_scenarios";
    const RECORD: &'static str = "BENCH_5.json";
    const TITLE: &'static str =
        "F5 adversarial scenario campaign: safety always, liveness once faults heal";
    const COLUMNS: &'static [Column<Row>] = &[
        ("scenario", |r| r.scenario.into()),
        ("protocol", |r| r.protocol.into()),
        ("batch", |r| r.batch_size.to_string()),
        ("committed", |r| format!("{}/{}", r.committed, r.expected_ops)),
        ("cycles", |r| r.duration_cycles.to_string()),
        ("views", |r| r.view_changes.to_string()),
        ("drops", |r| r.script_drops.to_string()),
        ("floods", |r| r.flood_requests.to_string()),
        ("replays", |r| r.replays.to_string()),
        ("verdict", |r| if r.pass { "pass" } else { "FAIL" }.into()),
    ];
    const SHAPE: &'static str = "Expected shape: every cell passes — safety and digest agreement\n\
         unconditionally; liveness because each scripted fault heals or\n\
         stays within the protocol's tolerance. Fault-heavy cells show\n\
         view changes (detection/recovery rounds), script drops, flood\n\
         and replay volume actually absorbed.";
    type Spec = Spec;
    type Row = Row;

    fn specs(&self) -> Vec<Spec> {
        vec![
            Spec {
                name: "baseline",
                attacks: "nothing (control row)",
                protocols: Protocol::ALL,
                f: 1,
                build: |_| Scenario::none(),
            },
            Spec {
                name: "crash_backup",
                attacks: "fail-stop of one backup",
                protocols: Protocol::ALL,
                f: 1,
                build: |n| {
                    Scenario::none()
                        .script(n - 1, ReplicaScript::correct().crash(Window::from(500)))
                },
            },
            Spec {
                name: "crash_primary",
                attacks: "fail-stop of the initial primary",
                protocols: Protocol::ALL,
                f: 1,
                build: |_| {
                    Scenario::none().script(0, ReplicaScript::correct().crash(Window::from(150)))
                },
            },
            Spec {
                name: "crash_recover_backup",
                attacks: "transient backup outage (fail-recover)",
                protocols: Protocol::ALL,
                f: 1,
                build: |n| {
                    Scenario::none()
                        .script(n - 1, ReplicaScript::correct().crash(Window::new(500, 2_600)))
                },
            },
            Spec {
                name: "crash_recover_primary",
                attacks: "transient primary outage; deposed, then rejoins",
                protocols: Protocol::BFT,
                f: 1,
                build: |_| {
                    Scenario::none()
                        .script(0, ReplicaScript::correct().crash(Window::new(150, 2_600)))
                },
            },
            Spec {
                name: "silent_backup",
                attacks: "omission window (receives, never sends)",
                protocols: Protocol::ALL,
                f: 1,
                build: |n| {
                    Scenario::none()
                        .script(n - 1, ReplicaScript::correct().silence(Window::new(200, 2_600)))
                },
            },
            Spec {
                name: "byzantine_primary",
                attacks: "equivocation + forged UI certificates",
                protocols: Protocol::BFT,
                f: 1,
                build: |_| {
                    Scenario::none().script(
                        0,
                        ReplicaScript::correct()
                            .equivocate(Window::new(0, 3_000))
                            .forge_ui(Window::new(0, 3_000)),
                    )
                },
            },
            Spec {
                name: "partition_blip",
                attacks: "short NoC partition (below detector timeouts)",
                protocols: Protocol::ALL,
                f: 1,
                build: |n| Scenario::none().partition(vec![n - 1], Window::new(400, 900)),
            },
            Spec {
                name: "partition_minority",
                attacks: "minority replica severed for a long window, then healed",
                protocols: Protocol::BFT,
                f: 1,
                build: |n| Scenario::none().partition(vec![n - 1], Window::new(400, 3_400)),
            },
            Spec {
                name: "dos_flood",
                attacks: "attacker client floods well-formed requests",
                protocols: Protocol::ALL,
                f: 1,
                build: |_| {
                    Scenario::none().flood(Flood {
                        window: Window::new(300, 2_700),
                        period: 40,
                        payload_size: 16,
                    })
                },
            },
            Spec {
                name: "drop_storm",
                attacks: "25% loss on every replica link for a window",
                protocols: Protocol::BFT,
                f: 1,
                build: |_| {
                    Scenario::none().link_fault(LinkFault {
                        source: None,
                        dest: None,
                        window: Window::new(200, 2_200),
                        drop_rate: 0.25,
                        extra_delay: 0,
                    })
                },
            },
            Spec {
                name: "slow_primary_egress",
                attacks: "aging/degraded egress link on the primary",
                protocols: Protocol::ALL,
                f: 1,
                build: |_| {
                    Scenario::none().link_fault(LinkFault {
                        source: Some(0),
                        dest: None,
                        window: Window::new(300, 2_300),
                        drop_rate: 0.0,
                        extra_delay: 250,
                    })
                },
            },
            Spec {
                name: "duplicate_deluge",
                attacks: "every send delivered twice (exactly-once stress)",
                protocols: Protocol::ALL,
                f: 1,
                build: |n| {
                    let mut s = Scenario::none();
                    for r in 0..n {
                        s = s.script(
                            r,
                            ReplicaScript::correct().duplicate_sends(Window::new(200, 2_200)),
                        );
                    }
                    s
                },
            },
            Spec {
                name: "reorder_wavefront",
                attacks: "outbox bursts reversed (hold-back/ordering stress)",
                protocols: Protocol::ALL,
                f: 1,
                build: |n| {
                    let mut s = Scenario::none();
                    for r in 0..n {
                        s = s.script(
                            r,
                            ReplicaScript::correct().reorder_sends(Window::new(200, 2_200)),
                        );
                    }
                    s
                },
            },
            Spec {
                name: "stale_replay",
                attacks: "network replays the primary's old protocol messages",
                protocols: Protocol::ALL,
                f: 1,
                build: |_| {
                    Scenario::none().script(
                        0,
                        ReplicaScript::correct().replay_sends(ReplaySpec {
                            window: Window::new(250, 2_500),
                            period: 75,
                            burst: 4,
                        }),
                    )
                },
            },
            Spec {
                name: "cascading_primary_crash",
                attacks: "CrashAt firing mid view-change (double failover)",
                protocols: Protocol::BFT,
                f: 2,
                build: |_| {
                    Scenario::none()
                        .script(0, ReplicaScript::correct().crash(Window::from(40)))
                        .script(1, ReplicaScript::correct().crash(Window::from(1_525)))
                },
            },
        ]
    }

    fn axes(spec: &Spec) -> Axes {
        Axes { name: spec.name, protocols: spec.protocols, batches: &BATCHES }
    }

    /// A pure function of the cell's coordinates in the UNFILTERED matrix:
    /// a `--scenario` run replays exactly the same traces as the full
    /// matrix, so a failing BENCH_5 cell is reproducible from its own CI
    /// log group.
    fn seed(at: Coord, _: usize) -> u64 {
        at.xor_seed(0xF5_0000)
    }

    fn config(&self, cell: &Cell<Spec>) -> RunConfig {
        RunConfig::builder()
            .f(cell.spec.f)
            .clients(CLIENTS)
            .requests_per_client(REQUESTS)
            .seed(cell.seed)
            .latency(LatencyModel::Uniform { min: 5, max: 15 })
            .max_cycles(MAX_CYCLES)
            .batch_size(cell.batch)
            .batch_flush(80)
            .build()
    }

    fn run<C: Cluster>(&self, cell: &Cell<Spec>, cfg: &RunConfig, cluster: &mut C) -> Row {
        let expected = CLIENTS as u64 * REQUESTS;
        let scenario = (cell.spec.build)(cluster.nodes().len() as u32);
        let outcome = run_scenario(cluster, cfg, &scenario);
        let verdict =
            ScenarioOracle::expecting_liveness().judge(cluster, &outcome.report, expected);
        Row {
            scenario: cell.spec.name,
            attacks: cell.spec.attacks,
            protocol: cell.protocol.name(),
            batch_size: cell.batch,
            committed: outcome.report.committed,
            expected_ops: expected,
            duration_cycles: outcome.report.duration_cycles,
            view_changes: ClusterStats::of(cluster).max_view,
            client_retries: outcome.report.client_retries,
            messages_total: outcome.report.messages_total,
            flood_requests: outcome.flood_requests,
            script_drops: outcome.script_drops,
            duplicates: outcome.duplicates,
            replays: outcome.replays,
            safety_ok: verdict.safety_ok,
            digests_ok: verdict.digests_ok,
            liveness_ok: verdict.liveness_ok,
            pass: verdict.pass(),
        }
    }

    fn check(&self, _: &Cell<Spec>, r: &Row) -> Result<(), String> {
        let (safety, digests, liveness) = (r.safety_ok, r.digests_ok, r.liveness_ok);
        r.pass.then_some(()).ok_or_else(|| {
            format!(
                "{}/{}/b{}: safety={safety} digests={digests} liveness={liveness} ({}/{} committed)",
                r.scenario, r.protocol, r.batch_size, r.committed, r.expected_ops
            )
        })
    }

    fn header(&self, _: bool, specs: usize, _: usize) -> String {
        format!(",\"clients\":{CLIENTS},\"requests_per_client\":{REQUESTS},\"scenarios\":{specs}")
    }
}

fn main() {
    campaign::main(F5);
}

#[test]
fn seeds_are_pinned() {
    assert_eq!(F5::seed(Coord { spec: 0, protocol: 0, batch: 0 }, 1), 0xF5_0000);
    assert_eq!(F5::seed(Coord { spec: 15, protocol: 1, batch: 1 }, 8), 0xF5_F101);
}
