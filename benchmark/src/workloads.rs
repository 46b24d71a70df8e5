//! The five workloads: what each one configures, and one repetition of it.
//!
//! Every parameter a workload fixes is written here once. The seed is the
//! only input that varies between runs, and it reaches the measured code
//! only as generated inputs: `RunConfig::seed` (key provisioning, message
//! latencies, request payloads) and the arrival schedule.

use crate::os::cpu_seconds;
use crate::plane::{self, Mode, PlaneRun};
use crate::trace::Tracer;
use rsoc_bft::adversary::{ReplicaScript, Scenario, Window};
use rsoc_bft::api::{Cluster, ReplicaNode};
use rsoc_bft::harness::{run_scenario, LatencyModel, RunConfig};
use rsoc_bft::minbft::{MinBftCluster, MinBftReplica};
use rsoc_bft::passive::PassiveCluster;
use rsoc_bft::pbft::PbftCluster;
use rsoc_bft::runner::{run_open_loop, OpenLoopSpec};
use rsoc_bft::CheckpointStats;
use rsoc_sim::{Arrival, KeyDist};
use std::path::Path;

/// Repetitions per run. CPU-time metrics take their median; virtual-time
/// metrics must be identical across them.
pub const REPS: usize = 5;
/// `--seconds` at which the op counts below apply unscaled.
pub const NOMINAL_SECONDS: u64 = 12;
/// Fixed message delay of the wire plane, in virtual cycles per hop.
pub const WIRE_HOP_CYCLES: u64 = 10;

/// The crash window of `sim_minbft_crash` under the simulator: the primary
/// is down for cycles `[250 000, 350 000)` of a ~1 050 000-cycle run.
const SIM_CRASH: (u64, u64) = (250_000, 350_000);
/// The same fault on the benchmark's plane, whose run of the same
/// operations lasts ~50 000 cycles (no egress occupancy): down long enough
/// for the view change, and far enough behind on return for a state
/// transfer.
const PLANE_CRASH: (u64, u64) = (10_000, 20_000);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    Pbft,
    MinBft,
    Passive,
}

/// How requests enter the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// `clients` callers each keep `window` requests outstanding.
    Closed,
    /// Poisson arrivals with this mean gap (cycles) from a Zipf(θ = 0.9)
    /// population of this many users, whatever the cluster's progress.
    Open { mean_gap: u64, users: u32 },
}

/// Which event loop drives the replicas in the timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// The repository's deterministic simulator (`run`, `run_scenario`,
    /// `run_open_loop`).
    Sim,
    /// The benchmark's wire plane: codec, framing and one durable store
    /// per replica, single-threaded.
    WireDurable,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub protocol: Protocol,
    pub plane: Plane,
    pub load: Load,
    pub clients: u32,
    pub window: usize,
    pub batch: usize,
    pub payload: usize,
    pub link_occupancy: u64,
    pub checkpoint_interval: u64,
    pub request_patience: u64,
    pub client_timeout: u64,
    /// Whether the primary crashes mid-run and rejoins.
    pub crash_primary: bool,
    /// Operations per repetition at [`NOMINAL_SECONDS`].
    pub ops: u64,
    /// The warm-up inside every set-up phase runs the workload at
    /// 1/`warmup_divisor` of its length on a throw-away cluster: 4, except
    /// where the cost per operation grows with the state (a checkpoint
    /// serialises all of it), so that a quarter of the length is far less
    /// than a quarter of the work and too short to time.
    pub warmup_divisor: u64,
}

const BASE: Workload = Workload {
    name: "",
    why: "",
    protocol: Protocol::Pbft,
    plane: Plane::Sim,
    load: Load::Closed,
    clients: 1,
    window: 1,
    batch: 1,
    payload: 32,
    link_occupancy: 8,
    checkpoint_interval: 0,
    request_patience: 1_500,
    client_timeout: 4_000,
    crash_primary: false,
    ops: 0,
    warmup_divisor: 4,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim_minbft_sat",
        why: "saturating closed loop, MinBFT batch 1: the MAC/USIG-bound corner and the capacity number",
        protocol: Protocol::MinBft,
        clients: 16,
        window: 4,
        ops: 144_000,
        ..BASE
    },
    Workload {
        name: "sim_pbft_open",
        why: "open loop at a fixed rate below the knee, PBFT batch 8: latency; bypasses crypto, checkpoint, codec, store",
        protocol: Protocol::Pbft,
        load: Load::Open { mean_gap: 40, users: 100_000 },
        batch: 8,
        ops: 144_000,
        ..BASE
    },
    Workload {
        name: "sim_passive_ckpt",
        why: "passive pair with a checkpoint every 256 ops: snapshot and state digest dominate; only passive coverage",
        protocol: Protocol::Passive,
        clients: 8,
        payload: 128,
        link_occupancy: 0,
        checkpoint_interval: 256,
        ops: 48_000,
        warmup_divisor: 2,
        ..BASE
    },
    Workload {
        name: "sim_minbft_crash",
        why: "primary crashes for 100k cycles then rejoins: view change and state transfer on the blocking path",
        protocol: Protocol::MinBft,
        clients: 16,
        window: 4,
        batch: 8,
        payload: 64,
        checkpoint_interval: 128,
        request_patience: 6_000,
        client_timeout: 16_000,
        crash_primary: true,
        ops: 102_400,
        warmup_divisor: 3,
        ..BASE
    },
    Workload {
        name: "wire_pbft_durable",
        why: "PBFT over encode, frame, decode and a WAL per replica: the only workload where codec, transport and store run",
        protocol: Protocol::Pbft,
        plane: Plane::WireDurable,
        clients: 8,
        window: 4,
        batch: 4,
        payload: 128,
        link_occupancy: 0,
        checkpoint_interval: 2048,
        ops: 64_000,
        ..BASE
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Operations per repetition for a run of `seconds`, rounded to a
    /// whole number of requests per client.
    pub fn ops_for(&self, seconds: u64) -> u64 {
        let per_client = (self.ops * seconds / NOMINAL_SECONDS / self.clients as u64).max(1);
        per_client * self.clients as u64
    }

    pub fn config(&self, seed: u64, ops: u64) -> RunConfig {
        RunConfig::builder()
            .f(1)
            .clients(self.clients)
            .requests_per_client(ops / self.clients as u64)
            .seed(seed)
            .latency(LatencyModel::Uniform { min: 5, max: 15 })
            .client_timeout(self.client_timeout)
            .max_cycles(u64::MAX / 4)
            .payload_size(self.payload)
            .batch_size(self.batch)
            .batch_flush(200)
            .link_occupancy(self.link_occupancy)
            .client_window(self.window)
            .request_patience(self.request_patience)
            .checkpoint_interval(self.checkpoint_interval)
            .build()
    }

    pub fn open_spec(&self, ops: u64) -> Option<OpenLoopSpec> {
        match self.load {
            Load::Closed => None,
            Load::Open { mean_gap, users } => Some(OpenLoopSpec {
                arrival: Arrival::Poisson { mean_gap },
                mods: Vec::new(),
                users: KeyDist::Zipf { n: users, theta_per_mille: 900 },
                total_ops: ops,
            }),
        }
    }

    fn scenario(&self) -> Scenario {
        if self.crash_primary {
            Scenario::none().script(0, crash_script(SIM_CRASH))
        } else {
            Scenario::none()
        }
    }

    /// The primary's fault script on the benchmark's plane.
    pub fn plane_crash_script(&self) -> ReplicaScript {
        crash_script(PLANE_CRASH)
    }
}

fn crash_script((from, until): (u64, u64)) -> ReplicaScript {
    ReplicaScript::correct().crash(Window::new(from, until))
}

/// What one run of a workload observed, in virtual time and in counts.
/// Identical for identical `(workload, seed, ops)` — the ledger fails the
/// run if two repetitions disagree on any field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub issued: u64,
    pub committed: u64,
    pub duration_cycles: u64,
    pub p50_cycles: u64,
    pub p99_cycles: u64,
    pub worst_cycles: u64,
    pub latency_samples: u64,
    pub client_retries: u64,
    pub safety_ok: bool,
    pub msgs_protocol: u64,
    pub msgs_total: u64,
    pub view_changes: u64,
    pub ckpt: CheckpointStats,
    /// MACs `(created, verified)`, summed over replicas (MinBFT only).
    pub macs: (u64, u64),
    /// State digest of every replica.
    pub digests: Vec<[u8; 32]>,
    /// Operations every replica has committed.
    pub committed_seqs: Vec<u64>,
}

/// Completes `o` with what is read off the replicas: view changes,
/// checkpoint counters, digests and committed counts.
pub fn with_node_facts<N: ReplicaNode>(o: Outcome, nodes: &[N]) -> Outcome {
    let mut ckpt = CheckpointStats::default();
    for n in nodes {
        let s = n.checkpoint_stats();
        ckpt.stable_seq = ckpt.stable_seq.max(s.stable_seq);
        ckpt.transfers += s.transfers;
        ckpt.rejected += s.rejected;
        ckpt.hint_resyncs += s.hint_resyncs;
    }
    Outcome {
        view_changes: nodes.iter().map(|n| n.current_view()).max().unwrap_or(0),
        ckpt,
        digests: nodes.iter().map(|n| n.state_digest()).collect(),
        committed_seqs: nodes.iter().map(|n| n.committed_seq()).collect(),
        ..o
    }
}

/// Runs the simulator on `cluster` and reads the outcome off the report
/// and the replicas.
fn sim_run<C: Cluster>(w: &Workload, cluster: &mut C, config: &RunConfig, ops: u64) -> Outcome {
    let o = match w.open_spec(ops) {
        Some(spec) => {
            let r = run_open_loop(cluster, config, &spec, &w.scenario());
            Outcome {
                issued: r.issued,
                committed: r.committed,
                duration_cycles: r.duration_cycles,
                p50_cycles: r.latency.quantile(0.5).unwrap_or(0),
                p99_cycles: r.latency.quantile(0.99).unwrap_or(0),
                worst_cycles: r.latency.max().unwrap_or(0),
                latency_samples: r.latency.count(),
                client_retries: r.retries,
                safety_ok: r.safety_ok,
                msgs_protocol: r.messages_protocol,
                msgs_total: r.messages_total,
                ..Outcome::default()
            }
        }
        None => {
            // With the empty scenario this is `run`, by its definition.
            let r = run_scenario(cluster, config, &w.scenario()).report;
            let q = |q: f64| r.commit_latency.quantile(q).unwrap_or(0.0) as u64;
            Outcome {
                issued: r.requested,
                committed: r.committed,
                duration_cycles: r.duration_cycles,
                p50_cycles: q(0.5),
                p99_cycles: q(0.99),
                worst_cycles: q(1.0),
                latency_samples: r.commit_latency.count() as u64,
                client_retries: r.client_retries,
                safety_ok: r.safety_ok,
                msgs_protocol: r.messages_protocol,
                msgs_total: r.messages_total,
                ..Outcome::default()
            }
        }
    };
    with_node_facts(o, cluster.nodes())
}

pub fn minbft_macs(nodes: &[MinBftReplica]) -> (u64, u64) {
    nodes.iter().map(|n| n.mac_ops()).fold((0, 0), |(c, v), (dc, dv)| (c + dc, v + dv))
}

/// One simulator run of `w` on a fresh cluster.
pub fn sim_once(w: &Workload, seed: u64, ops: u64) -> Outcome {
    let config = w.config(seed, ops);
    match w.protocol {
        Protocol::Pbft => sim_run(w, &mut PbftCluster::new(&config), &config, ops),
        Protocol::Passive => sim_run(w, &mut PassiveCluster::new(&config), &config, ops),
        Protocol::MinBft => {
            let mut cluster = MinBftCluster::new(&config);
            let mut o = sim_run(w, &mut cluster, &config, ops);
            o.macs = minbft_macs(cluster.nodes());
            o
        }
    }
}

/// CPU seconds and outcome of one repetition's two phases.
pub struct Rep {
    pub setup_cpu_s: f64,
    pub timed_cpu_s: f64,
    pub run: PlaneRun,
}

/// One repetition: set-up (construction, input generation, warm-up at
/// 1/`warmup_divisor` length on a throw-away cluster), then the timed
/// phase. `data_root` holds the wire plane's data directories.
pub fn repetition(w: &Workload, seed: u64, ops: u64, data_root: &Path) -> std::io::Result<Rep> {
    let warm_ops = (ops / w.warmup_divisor / w.clients as u64).max(1) * w.clients as u64;
    match w.plane {
        Plane::Sim => {
            // `run` builds its own requests and arrival schedule, so the
            // set-up phase of a simulator workload is the warm-up run
            // (whose first act is the same construction the timed phase
            // repeats) — there is nothing else to prepare.
            let t0 = cpu_seconds();
            std::hint::black_box(sim_once(w, seed, warm_ops));
            let t1 = cpu_seconds();
            let outcome = sim_once(w, seed, ops);
            let t2 = cpu_seconds();
            Ok(Rep { setup_cpu_s: t1 - t0, timed_cpu_s: t2 - t1, run: PlaneRun::of_sim(outcome) })
        }
        Plane::WireDurable => {
            // Fresh directories every repetition: the store appends.
            let _ = std::fs::remove_dir_all(data_root);
            let t0 = cpu_seconds();
            let mut warm =
                plane::prepare(w, seed, warm_ops, &Mode::WireDurable(data_root.join("warm")))?;
            warm.run(Tracer::off())?;
            drop(warm);
            let mut timed =
                plane::prepare(w, seed, ops, &Mode::WireDurable(data_root.join("timed")))?;
            let t1 = cpu_seconds();
            timed.run(Tracer::off())?;
            let t2 = cpu_seconds();
            let run = timed.finish()?;
            std::fs::remove_dir_all(data_root)?;
            Ok(Rep { setup_cpu_s: t1 - t0, timed_cpu_s: t2 - t1, run })
        }
    }
}
