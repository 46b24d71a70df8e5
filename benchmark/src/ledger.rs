//! The two passes over a workload: the untraced run that yields the
//! end-to-end metrics, and the trace pass that yields the per-layer ones.
//! Both check that the program's outputs are correct before any number
//! counts.

use crate::os::{cpu_seconds, peak_rss_mib};
use crate::plane::{self, Counts, Mode, PlaneRun};
use crate::trace::{Layer, Tracer};
use crate::units::{self, Units};
use crate::workloads::{repetition, sim_once, Outcome, Plane, Rep, Workload, REPS};
use std::io;
use std::path::Path;

/// Untraced repetitions the trace pass runs for its CPU baselines.
const TRACE_BASELINE_REPS: usize = 3;
/// Untraced/traced pairs of runs on the plane the spans are recorded on.
const TRACED_REPS: usize = 3;
/// The trace pass fails above this traced-vs-untraced CPU overhead.
const MAX_TRACE_OVERHEAD_PCT: f64 = 15.0;
/// The wire workload's trace pass fails if the harness's own self time
/// exceeds this share of the traced total.
const MAX_HARNESS_SHARE: f64 = 0.25;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one pass reports: the metrics, and why it is not correct if it is
/// not.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub violations: Vec<String>,
    /// Latency samples behind the percentiles (printed beside them).
    pub latency_samples: u64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The correctness checks every finished run must pass.
fn check_outcome(w: &Workload, ops: u64, o: &Outcome, reference: Option<&Outcome>) -> Vec<String> {
    let mut bad = Vec::new();
    if !o.safety_ok {
        bad.push("safety checker: correct replicas' logs diverge".into());
    }
    if o.issued != ops || o.committed != ops {
        bad.push(format!("issued {} committed {} of {ops} operations", o.issued, o.committed));
    }
    if w.crash_primary {
        if o.view_changes < 1 || o.ckpt.transfers < 1 {
            bad.push(format!(
                "fault run without its recovery: {} view changes, {} state transfers",
                o.view_changes, o.ckpt.transfers
            ));
        }
    } else if o.client_retries != 0 {
        bad.push(format!("{} client retransmissions on a fault-free workload", o.client_retries));
    }
    if o.digests.windows(2).any(|pair| pair[0] != pair[1]) {
        bad.push("replicas ended on different state digests".into());
    }
    if let Some(reference) = reference {
        if o.digests.first() != reference.digests.first() {
            bad.push("state digest differs from the simulator's for the same operation set".into());
        }
    }
    bad
}

/// The median: the estimator for every CPU time. The machine has both
/// slow spells and fast ones (a fifth faster for a second or two), so
/// neither extreme of a handful of repetitions repeats; the middle does.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = values.collect();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `(max − min) ÷ min` of the timed phases' CPU seconds, in percent.
fn spread_pct(timed_cpu_s: &[f64]) -> f64 {
    let lo = timed_cpu_s.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = timed_cpu_s.iter().copied().fold(0.0, f64::max);
    (hi - lo) / lo * 100.0
}

/// Runs `n` identical repetitions and checks them: each against the
/// correctness rules, all against each other (virtual time and counts
/// must repeat exactly). Also returns the process's peak resident set
/// after the first repetition, in MiB: what one run of the workload needs.
/// Later repetitions only add the allocator's fragmentation to it (10–25 %,
/// differently every time), which is the harness's doing, not the
/// workload's.
fn repetitions(
    w: &Workload,
    seed: u64,
    ops: u64,
    n: usize,
    data_root: &Path,
    violations: &mut Vec<String>,
) -> io::Result<(Vec<Rep>, f64)> {
    let first = repetition(w, seed, ops, data_root)?;
    let peak_rss = peak_rss_mib().unwrap_or(0.0);
    // The wire plane must land on the simulator's digest for the same
    // operation set: one simulator run, outside every timed interval and
    // after the memory reading.
    let reference = (w.plane == Plane::WireDurable).then(|| sim_once(w, seed, ops));
    violations.extend(check_outcome(w, ops, &first.run.outcome, reference.as_ref()));
    let mut reps = vec![first];
    for i in 1..n {
        let rep = repetition(w, seed, ops, data_root)?;
        if rep.run.outcome != reps[0].run.outcome || rep.run.counts != reps[0].run.counts {
            violations.push(format!(
                "repetition {i} differs from repetition 0 in virtual time or counts"
            ));
        }
        reps.push(rep);
    }
    Ok((reps, peak_rss))
}

/// The untraced pass: [`REPS`] repetitions, the eight end-to-end metrics.
pub fn run(w: &Workload, seed: u64, seconds: u64, data_root: &Path) -> io::Result<Report> {
    let ops = w.ops_for(seconds);
    let mut violations = Vec::new();
    let (reps, peak_rss) = repetitions(w, seed, ops, REPS, data_root, &mut violations)?;
    let o = &reps[0].run.outcome;
    let timed = median(reps.iter().map(|r| r.timed_cpu_s));
    let metrics = vec![
        metric("setup_s", "s", median(reps.iter().map(|r| r.setup_cpu_s))),
        metric("ops_per_cpu_s", "1/s", o.committed as f64 / timed),
        metric("ops_per_kcycle", "1/kcycle", o.committed as f64 * 1e3 / o.duration_cycles as f64),
        metric("commit_p50_cycles", "cycles", o.p50_cycles as f64),
        metric("commit_p99_cycles", "cycles", o.p99_cycles as f64),
        metric("worst_commit_cycles", "cycles", o.worst_cycles as f64),
        metric("committed_op_share", "ratio", o.committed as f64 / o.issued.max(1) as f64),
        metric("peak_rss_mb", "MiB", peak_rss),
    ];
    let timed_cpu: Vec<f64> = reps.iter().map(|r| r.timed_cpu_s).collect();
    eprintln!(
        "# {}: rep spread {:.2}% over {REPS} repetitions {timed_cpu:.3?}",
        w.name,
        spread_pct(&timed_cpu)
    );
    Ok(Report {
        attempted: o.issued,
        failed: o.issued - o.committed.min(o.issued),
        metrics,
        violations,
        latency_samples: o.latency_samples,
    })
}

/// One timed phase on the benchmark's plane: `(cpu seconds, the run)`.
fn plane_once(
    w: &Workload,
    seed: u64,
    ops: u64,
    mode: &Mode,
    tracer: Tracer,
) -> io::Result<(f64, PlaneRun)> {
    if let Mode::WireDurable(root) = mode {
        let _ = std::fs::remove_dir_all(root);
    }
    let mut prepared = plane::prepare(w, seed, ops, mode)?;
    let t0 = cpu_seconds();
    prepared.run(tracer)?;
    let cpu = cpu_seconds() - t0;
    let run = prepared.finish()?;
    if let Mode::WireDurable(root) = mode {
        std::fs::remove_dir_all(root)?;
    }
    Ok((cpu, run))
}

/// The trace pass: untraced baselines, then the same work with spans on.
///
/// A simulator workload is traced on the benchmark's plane in direct mode
/// (same protocol, configuration and operation set; `on_input` isolated),
/// the wire workload on the wire plane it already runs on. Returns the
/// report and the tracer whose spans go to the trace file.
pub fn trace(
    w: &Workload,
    seed: u64,
    seconds: u64,
    data_root: &Path,
) -> io::Result<(Report, Tracer)> {
    let wall = std::time::Instant::now();
    let units = units::measure(seed);
    let ops = w.ops_for(seconds);
    let mut violations = Vec::new();
    // The workload as the untraced pass times it: its CPU per operation
    // and the counts that repeat exactly. The wire workload already runs
    // on the plane that is traced, so its plane runs below serve; of the
    // simulator it needs only the digest for the same operation set.
    let (mut baseline_cpu, sim): (Vec<f64>, Outcome) = match w.plane {
        Plane::Sim => {
            let (reps, _) =
                repetitions(w, seed, ops, TRACE_BASELINE_REPS, data_root, &mut violations)?;
            (reps.iter().map(|r| r.timed_cpu_s).collect(), reps[0].run.outcome.clone())
        }
        Plane::WireDurable => (Vec::new(), sim_once(w, seed, ops)),
    };

    // The plane the spans are recorded on, without and with spans, turn
    // and turn about so that a slow spell of the machine hits both.
    let mode = match w.plane {
        Plane::Sim => Mode::Direct,
        Plane::WireDurable => Mode::WireDurable(data_root.join("traced")),
    };
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    let mut plain: Option<PlaneRun> = None;
    let mut traced: Option<(f64, PlaneRun)> = None;
    for _ in 0..TRACED_REPS {
        let (untraced_cpu, run) = plane_once(w, seed, ops, &mode, Tracer::off())?;
        plain.get_or_insert(run);
        let (traced_cpu, run) = plane_once(w, seed, ops, &mode, Tracer::on())?;
        pairs.push((untraced_cpu, traced_cpu));
        // The per-layer times come from the least disturbed traced run.
        if traced.as_ref().is_none_or(|(least, _)| traced_cpu < *least) {
            traced = Some((traced_cpu, run));
        }
    }
    let plain = plain.expect("TRACED_REPS > 0");
    let (_, run) = traced.expect("TRACED_REPS > 0");
    if w.plane == Plane::WireDurable {
        baseline_cpu.extend(pairs.iter().map(|(untraced_cpu, _)| untraced_cpu));
    }
    // Both plane runs must be correct runs of the simulator's operation
    // set, and tracing must not change what happens, only how long it takes.
    violations.extend(check_outcome(w, ops, &plain.outcome, Some(&sim)));
    if run.outcome != plain.outcome {
        violations
            .push("the traced run's virtual time or counts differ from the untraced run's".into());
    }
    // The counts that describe the workload: the simulator's for a
    // simulator workload, the plane's own for the wire workload.
    let o = match w.plane {
        Plane::Sim => sim,
        Plane::WireDurable => plain.outcome,
    };
    let workload_cpu = median(baseline_cpu.iter().copied());

    let t = &run.tracer;
    let per_op = |us: f64| us / ops as f64;
    let self_us = |layer: Layer| per_op(t.self_us(layer));
    let on_input_us =
        self_us(Layer::OnInputClient) + self_us(Layer::OnInputPeer) + self_us(Layer::OnInputTimer);
    let harness_us = self_us(Layer::Run);
    // Traced against untraced CPU, pair by pair. The reported overhead is
    // the median pair's; the pass fails only if *every* pair is above the
    // limit, because one pair alone is good to ±10 % on this machine.
    let overheads =
        pairs.iter().map(|(untraced_cpu, traced_cpu)| (traced_cpu / untraced_cpu - 1.0) * 100.0);
    let overhead_pct = median(overheads.clone());
    let least_overhead_pct = overheads.fold(f64::INFINITY, f64::min);
    if least_overhead_pct > MAX_TRACE_OVERHEAD_PCT {
        violations.push(format!(
            "tracing cost at least {least_overhead_pct:.1}% CPU in every pair, above {MAX_TRACE_OVERHEAD_PCT}%"
        ));
    }
    if w.plane == Plane::WireDurable && harness_us > MAX_HARNESS_SHARE * per_op(t.total_us()) {
        violations.push(format!(
            "harness self time {harness_us:.2} us/op exceeds {MAX_HARNESS_SHARE} of the traced total"
        ));
    }

    let metrics = layer_metrics(LayerInputs {
        w,
        ops,
        units: &units,
        outcome: &o,
        counts: &run.counts,
        tracer: t,
        recover_cpu_s: run.recover_cpu_s,
        workload_us_per_op: workload_cpu * 1e6 / ops as f64,
        on_input_us,
        harness_us,
        overhead_pct,
        rep_spread_pct: spread_pct(&baseline_cpu),
        wall_s: wall.elapsed().as_secs_f64(),
    });
    let report = Report {
        attempted: o.issued,
        failed: o.issued - o.committed.min(o.issued),
        metrics,
        violations,
        latency_samples: o.latency_samples,
    };
    Ok((report, run.tracer))
}

struct LayerInputs<'a> {
    w: &'a Workload,
    ops: u64,
    units: &'a Units,
    /// Outcome of the untraced workload (counts that repeat exactly).
    outcome: &'a Outcome,
    counts: &'a Counts,
    tracer: &'a Tracer,
    recover_cpu_s: f64,
    workload_us_per_op: f64,
    on_input_us: f64,
    harness_us: f64,
    overhead_pct: f64,
    rep_spread_pct: f64,
    wall_s: f64,
}

/// Every per-layer metric, in the README's order. Times are microseconds
/// of self time per committed operation; a layer that does not run on a
/// workload reports 0.
fn layer_metrics(x: LayerInputs<'_>) -> Vec<Metric> {
    let (o, c, u, t) = (x.outcome, x.counts, x.units, x.tracer);
    let ops = x.ops as f64;
    let per_op = |n: u64| n as f64 / ops;
    let self_us = |layer: Layer| t.self_us(layer) / ops;
    let (made, checked) = o.macs;
    // The simulator's own cost: what `run` spends beyond the replicas.
    let plane_us = match x.w.plane {
        Plane::Sim => x.workload_us_per_op - x.on_input_us,
        Plane::WireDurable => 0.0,
    };
    vec![
        metric("crypto.macs_per_op", "count", per_op(made + checked)),
        metric("unit.crypto.hmac_ns_64b", "ns", u.hmac_ns_64b),
        metric("unit.crypto.sha256_ns_per_byte", "ns", u.sha256_ns_per_byte),
        metric("unit.hybrid.usig_create_ns", "ns", u.usig_create_ns),
        metric("unit.hybrid.usig_verify_ns", "ns", u.usig_verify_ns),
        metric("bft.msgs_per_op", "count", per_op(o.msgs_protocol)),
        metric("bft.msgs_total_per_op", "count", per_op(o.msgs_total)),
        metric("bft.ops_per_batch", "count", c.batch_ops as f64 / c.batches.max(1) as f64),
        metric("bft.client_retries", "count", o.client_retries as f64),
        metric("bft.on_input.client_us_per_op", "us", self_us(Layer::OnInputClient)),
        metric("bft.on_input.peer_us_per_op", "us", self_us(Layer::OnInputPeer)),
        metric("bft.on_input.timer_us_per_op", "us", self_us(Layer::OnInputTimer)),
        metric("bft.on_input.p99_us", "us", t.on_input_quantile_us(0.99)),
        metric("bft.on_input.max_us", "us", t.on_input_quantile_us(1.0)),
        metric("bft.runner.plane_us_per_op", "us", plane_us),
        metric("bft.checkpoint.stable_seq", "count", o.ckpt.stable_seq as f64),
        metric("bft.checkpoint.transfers", "count", o.ckpt.transfers as f64),
        metric("bft.checkpoint.rejected", "count", o.ckpt.rejected as f64),
        metric("bft.checkpoint.hint_resyncs", "count", o.ckpt.hint_resyncs as f64),
        metric("bft.view_changes", "count", o.view_changes as f64),
        metric("unit.statemachine.apply_ns", "ns", u.apply_ns),
        metric("unit.statemachine.snapshot_ns_per_kb", "ns", u.snapshot_ns_per_kb),
        metric("unit.statemachine.digest_ns_per_kb", "ns", u.digest_ns_per_kb),
        metric("bft.codec.encode_us_per_op", "us", self_us(Layer::Encode)),
        metric("bft.codec.decode_us_per_op", "us", self_us(Layer::Decode)),
        metric(
            "transport.frame_us_per_op",
            "us",
            self_us(Layer::FrameWrite) + self_us(Layer::FrameRead),
        ),
        metric("transport.frames_per_op", "count", per_op(c.frames)),
        metric("transport.bytes_per_op", "count", per_op(c.bytes)),
        metric("client.issue_us_per_op", "us", self_us(Layer::ClientIssue)),
        metric("client.tally_us_per_op", "us", self_us(Layer::ClientTally)),
        metric("store.drain_us_per_op", "us", self_us(Layer::Drain)),
        metric("store.persist_commit_us_per_op", "us", self_us(Layer::PersistCommit)),
        metric("store.persist_stable_us_per_op", "us", self_us(Layer::PersistStable)),
        metric("store.persist_calls_per_op", "count", per_op(c.persist_calls)),
        metric("store.wal_bytes_per_op", "count", per_op(c.wal_bytes)),
        metric("store.snapshots", "count", c.snapshots as f64),
        metric("store.snapshot_bytes", "count", c.snapshot_bytes as f64),
        metric("store.recover_s", "s", x.recover_cpu_s),
        metric("unit.store.crc32_ns_per_byte", "ns", u.crc32_ns_per_byte),
        metric("unit.sim.wheel_push_pop_ns", "ns", u.wheel_push_pop_ns),
        metric("unit.sim.loghist_record_ns", "ns", u.loghist_record_ns),
        metric("unit.sim.arrival_next_ns", "ns", u.arrival_next_ns),
        metric("unit.sim.zipf_pick_ns", "ns", u.zipf_pick_ns),
        metric("unit.bft.request_digest_ns", "ns", u.request_digest_ns),
        metric("unit.bft.batch_digest_ns_per_req", "ns", u.batch_digest_ns_per_req),
        metric("unit.bft.codec_ns_per_byte", "ns", u.codec_ns_per_byte),
        metric(
            "model.crypto_us_per_op",
            "us",
            (made as f64 * u.usig_create_ns + checked as f64 * u.usig_verify_ns) / ops / 1e3,
        ),
        metric("model.codec_us_per_op", "us", per_op(c.bytes) * u.codec_ns_per_byte / 1e3),
        metric("model.store_us_per_op", "us", per_op(c.wal_bytes) * u.crc32_ns_per_byte / 1e3),
        metric("harness.self_us_per_op", "us", x.harness_us),
        metric("harness.trace_overhead_pct", "%", x.overhead_pct),
        metric("harness.rep_spread_pct", "%", x.rep_spread_pct),
        metric("harness.wall_s", "s", x.wall_s),
    ]
}
