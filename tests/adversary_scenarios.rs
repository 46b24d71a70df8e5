//! Integration tests for the adversarial scenario engine: composable
//! time-phased fault scripts interpreted uniformly by the runner, judged
//! by the safety/liveness oracle — the machinery under the `f5_scenarios`
//! campaign, exercised here through the public facade.

use manycore_resilience::bft::adversary::{
    Flood, LinkFault, ReplaySpec, ReplicaScript, Scenario, ScenarioOracle, Window,
};
use manycore_resilience::bft::api::{
    ClientId, Cluster, ClusterStats, Endpoint, Input, OpId, Outbox, ReplicaId, ReplicaNode, Request,
};
use manycore_resilience::bft::minbft::{CommitVote, MinBftCluster, MinBftMsg, MinBftReplica};
use manycore_resilience::bft::passive::PassiveCluster;
use manycore_resilience::bft::pbft::PbftCluster;
use manycore_resilience::bft::runner::{
    run, run_open_loop, run_scenario, LatencyModel, OpenLoopSpec, RunConfig, RunReport,
};
use manycore_resilience::sim::{Arrival, KeyDist};
use std::sync::Arc;

fn config(f: u32, clients: u32, reqs: u64, seed: u64) -> RunConfig {
    RunConfig {
        f,
        clients,
        requests_per_client: reqs,
        seed,
        max_cycles: 30_000_000,
        ..Default::default()
    }
}

#[test]
fn empty_scenario_is_bit_identical_to_plain_run() {
    // The scenario hooks must be free when disabled: same committed count,
    // same message count, same virtual duration — the whole trace.
    let cfg = RunConfig { batch_size: 4, batch_flush: 80, ..config(1, 4, 8, 901) };
    let plain = run(&mut PbftCluster::new(&cfg), &cfg);
    let scripted = run_scenario(&mut PbftCluster::new(&cfg), &cfg, &Scenario::none());
    assert_eq!(plain.committed, scripted.report.committed);
    assert_eq!(plain.messages_total, scripted.report.messages_total);
    assert_eq!(plain.messages_protocol, scripted.report.messages_protocol);
    assert_eq!(plain.duration_cycles, scripted.report.duration_cycles);
    assert_eq!(scripted.flood_requests + scripted.script_drops + scripted.replays, 0);
}

/// `(committed, duration_cycles, messages_total, messages_protocol,
/// retries, p50, max)` of one fault-free run.
type TraceRow = (u64, u64, u64, u64, u64, u64, u64);

/// The three load shapes of the pin below, run on a fresh cluster each:
/// closed loop window 1, closed loop window 4 / batch 8 / busy egress
/// port, open-loop Poisson arrivals.
fn fault_free_trace<C: Cluster>(new: impl Fn(&RunConfig) -> C) -> [TraceRow; 3] {
    let closed = |cfg: RunConfig| {
        let r = run(&mut new(&cfg), &cfg);
        let q = |q| r.commit_latency.quantile(q).unwrap_or(0.0) as u64;
        let (p50, max) = (q(0.5), q(1.0));
        (
            r.committed,
            r.duration_cycles,
            r.messages_total,
            r.messages_protocol,
            r.client_retries,
            p50,
            max,
        )
    };
    let open = |cfg: RunConfig| {
        let spec = OpenLoopSpec {
            arrival: Arrival::Poisson { mean_gap: 40 },
            mods: vec![],
            users: KeyDist::Zipf { n: 1_000, theta_per_mille: 900 },
            total_ops: 300,
        };
        let r = run_open_loop(&mut new(&cfg), &cfg, &spec, &Scenario::none());
        (
            r.committed,
            r.duration_cycles,
            r.messages_total,
            r.messages_protocol,
            r.retries,
            r.latency.quantile(0.5).unwrap_or(0),
            r.latency.max().unwrap_or(0),
        )
    };
    [
        closed(config(1, 3, 20, 977)),
        closed(RunConfig {
            client_window: 4,
            batch_size: 8,
            link_occupancy: 8,
            ..config(1, 4, 40, 977)
        }),
        open(RunConfig { batch_size: 4, ..config(1, 1, 0, 977) }),
    ]
}

/// The fault-free virtual-time trace, pinned: a reordered wheel push or
/// main-RNG draw anywhere in the driver moves at least one of these
/// numbers. `cargo test` says so in seconds; the full BENCH_2/5/6/8
/// regenerations that also would are CI-only.
#[test]
fn fault_free_trace_is_pinned() {
    assert_eq!(
        fault_free_trace(PbftCluster::new),
        [
            (60, 979, 1920, 1440, 0, 48, 61),
            (160, 2361, 1760, 480, 0, 229, 266),
            (300, 11924, 4272, 1872, 0, 91, 263),
        ]
    );
    assert_eq!(
        fault_free_trace(MinBftCluster::new),
        [
            (60, 660, 764, 402, 0, 32, 41),
            (160, 1814, 1080, 120, 0, 178, 195),
            (300, 11907, 2269, 468, 0, 77, 239),
        ]
    );
    assert_eq!(
        fault_free_trace(PassiveCluster::new),
        [
            (60, 406, 245, 65, 0, 20, 30),
            (160, 1504, 507, 27, 0, 149, 163),
            (300, 11894, 1044, 142, 0, 63, 227),
        ]
    );
}

#[test]
fn crash_recover_window_fails_over_and_passes_oracle() {
    // The primary crashes for a window and comes back: the view change
    // must depose it, the workload must finish, and the recovered replica
    // must do no harm. Works identically for PBFT and MinBFT.
    let cfg = config(1, 2, 6, 903);
    let scenario =
        Scenario::none().script(0, ReplicaScript::correct().crash(Window::new(100, 6_000)));

    let mut pbft = PbftCluster::new(&cfg);
    let out = run_scenario(&mut pbft, &cfg, &scenario);
    let verdict = ScenarioOracle::expecting_liveness().judge(&pbft, &out.report, 12);
    assert!(verdict.pass(), "pbft: {verdict:?}");
    assert!(pbft.nodes()[1].view() >= 1, "crash window must trigger a view change");

    let mut minbft = MinBftCluster::new(&cfg);
    let out = run_scenario(&mut minbft, &cfg, &scenario);
    let verdict = ScenarioOracle::expecting_liveness().judge(&minbft, &out.report, 12);
    assert!(verdict.pass(), "minbft: {verdict:?}");
}

#[test]
fn passive_failover_from_scripted_crash_window() {
    let cfg = config(1, 1, 8, 905);
    let scenario = Scenario::none().script(0, ReplicaScript::correct().crash(Window::from(120)));
    let mut cluster = PassiveCluster::new(&cfg);
    let out = run_scenario(&mut cluster, &cfg, &scenario);
    let verdict = ScenarioOracle::expecting_liveness().judge(&cluster, &out.report, 8);
    assert!(verdict.pass(), "{verdict:?}");
    assert!(cluster.nodes()[1].is_primary(), "backup must have promoted itself");
}

/// §II-A: passive replication's recovery "requires reliable detection and
/// is not seamless to the user", while active replication masks a crash.
/// The primary (passive) or a backup (MinBFT) crashes at cycle 100,
/// mid-workload; the worst commit latency is the visible gap.
#[test]
fn passive_failover_gap_grows_with_the_detector_timeout_while_minbft_masks_a_backup_crash() {
    let cfg = RunConfig::builder()
        .f(1)
        .clients(1)
        .requests_per_client(10)
        .seed(0xE4)
        .client_timeout(300)
        .max_cycles(400_000_000)
        .build();
    let crash =
        |victim| Scenario::none().script(victim, ReplicaScript::correct().crash(Window::from(100)));
    let worst = |report: &RunReport| {
        assert_eq!(report.committed, 10, "{}: every op commits", report.protocol);
        report.commit_latency.quantile(1.0).expect("ops committed")
    };
    let passive_worst = |detect: u64| {
        let mut cluster = PassiveCluster::with_detector(&cfg, detect / 4, detect);
        worst(&run_scenario(&mut cluster, &cfg, &crash(0)).report)
    };
    // 915 and 6 622 cycles today.
    let (short, long) = (passive_worst(400), passive_worst(3_200));
    assert!(short > 400.0, "the failover gap spans the detector timeout: {short}");
    assert!(long > 3_200.0 && long > short, "the gap grows with the timeout: {short} -> {long}");

    // 50 cycles today, 41 fault-free: the client never times out.
    let masked = run_scenario(&mut MinBftCluster::new(&cfg), &cfg, &crash(2)).report;
    assert_eq!(masked.client_retries, 0, "a crashed MinBFT backup is invisible to the client");
    assert!(worst(&masked) < 300.0, "no op waits out the client timeout: {}", worst(&masked));
}

#[test]
fn recovered_backup_can_still_fail_over() {
    // Composition regression: the backup's detector timer fires *inside*
    // its own crash window (chain swallowed), and the primary dies later.
    // Recovery must revive the self-re-arming detector chain, or the
    // composed scenario — each fault individually tolerated — loses
    // liveness forever.
    let cfg = config(1, 1, 100, 923);
    let scenario = Scenario::none()
        .script(1, ReplicaScript::correct().crash(Window::new(300, 900)))
        .script(0, ReplicaScript::correct().crash(Window::from(1_200)));
    let mut cluster = PassiveCluster::new(&cfg);
    let out = run_scenario(&mut cluster, &cfg, &scenario);
    let verdict = ScenarioOracle::expecting_liveness().judge(&cluster, &out.report, 100);
    assert!(verdict.pass(), "{verdict:?}");
    assert_eq!(cluster.nodes()[1].failovers(), 1, "revived detector must promote the backup");
    assert!(cluster.nodes()[1].is_primary());
}

#[test]
fn healed_partition_restores_liveness_and_keeps_prefix_safety() {
    // Isolate one PBFT backup for a window: the quorum keeps committing,
    // the isolated replica's log stays a (possibly shorter) prefix, and
    // the oracle passes with liveness expected.
    let cfg = config(1, 2, 8, 907);
    let scenario = Scenario::none().partition(vec![3], Window::new(300, 4_000));
    let mut cluster = PbftCluster::new(&cfg);
    let out = run_scenario(&mut cluster, &cfg, &scenario);
    assert!(out.script_drops > 0, "the partition must actually sever traffic");
    let verdict = ScenarioOracle::expecting_liveness().judge(&cluster, &out.report, 16);
    assert!(verdict.pass(), "{verdict:?}");
    let full = cluster.nodes()[0].committed_log().len();
    assert_eq!(full, 16);
    assert!(cluster.nodes()[3].committed_log().len() <= full);
}

#[test]
fn dos_flood_consumes_capacity_but_workload_commits() {
    let cfg = RunConfig { batch_size: 4, batch_flush: 80, ..config(1, 2, 6, 909) };
    let scenario = Scenario::none().flood(Flood {
        window: Window::new(100, 2_000),
        period: 50,
        payload_size: 16,
    });
    for protocol in 0..3u8 {
        let (verdict, flood_requests, digests_agree) = match protocol {
            0 => {
                let mut c = PbftCluster::new(&cfg);
                let out = run_scenario(&mut c, &cfg, &scenario);
                let v = ScenarioOracle::expecting_liveness().judge(&c, &out.report, 12);
                let d = c.nodes()[0].state_digest() == c.nodes()[1].state_digest();
                (v, out.flood_requests, d)
            }
            1 => {
                let mut c = MinBftCluster::new(&cfg);
                let out = run_scenario(&mut c, &cfg, &scenario);
                let v = ScenarioOracle::expecting_liveness().judge(&c, &out.report, 12);
                let d = c.nodes()[0].state_digest() == c.nodes()[1].state_digest();
                (v, out.flood_requests, d)
            }
            _ => {
                let mut c = PassiveCluster::new(&cfg);
                let out = run_scenario(&mut c, &cfg, &scenario);
                let v = ScenarioOracle::expecting_liveness().judge(&c, &out.report, 12);
                let d = c.nodes()[0].state_digest() == c.nodes()[1].state_digest();
                (v, out.flood_requests, d)
            }
        };
        assert!(verdict.pass(), "protocol {protocol}: {verdict:?}");
        assert!(flood_requests >= 5, "protocol {protocol}: flood too small ({flood_requests})");
        assert!(digests_agree, "protocol {protocol}: flood ops must replicate identically");
    }
}

#[test]
fn duplicated_sends_stay_exactly_once() {
    let cfg = config(1, 2, 6, 911);
    let all_duplicating = |n: u32| {
        let mut s = Scenario::none();
        for r in 0..n {
            s = s.script(r, ReplicaScript::correct().duplicate_sends(Window::ALWAYS));
        }
        s
    };
    let mut cluster = MinBftCluster::new(&cfg);
    let out = run_scenario(&mut cluster, &cfg, &all_duplicating(3));
    assert!(out.duplicates > 0);
    let verdict = ScenarioOracle::expecting_liveness().judge(&cluster, &out.report, 12);
    assert!(verdict.pass(), "{verdict:?}");
    for node in cluster.nodes() {
        assert_eq!(node.committed_log().len(), 12, "exactly-once under duplication");
    }
}

#[test]
fn reordered_bursts_are_absorbed_by_holdback() {
    // Reverse every outbox burst of every replica: MinBFT's per-sender
    // USIG contiguity window must reorder them back; PBFT's vote tallies
    // are order-insensitive.
    let cfg = config(1, 2, 6, 913);
    for pbft in [true, false] {
        let mut s = Scenario::none();
        let n = if pbft { 4 } else { 3 };
        for r in 0..n {
            s = s.script(r, ReplicaScript::correct().reorder_sends(Window::ALWAYS));
        }
        let verdict = if pbft {
            let mut c = PbftCluster::new(&cfg);
            let out = run_scenario(&mut c, &cfg, &s);
            ScenarioOracle::expecting_liveness().judge(&c, &out.report, 12)
        } else {
            let mut c = MinBftCluster::new(&cfg);
            let out = run_scenario(&mut c, &cfg, &s);
            ScenarioOracle::expecting_liveness().judge(&c, &out.report, 12)
        };
        assert!(verdict.pass(), "pbft={pbft}: {verdict:?}");
    }
}

#[test]
fn stale_replay_is_rejected_by_every_protocol() {
    let cfg = RunConfig { batch_size: 2, batch_flush: 60, ..config(1, 2, 8, 915) };
    // The window must open while the workload is still running (a batch=2
    // run of 16 ops lasts ~600 cycles) or nothing gets replayed.
    let replay = ReplicaScript::correct().replay_sends(ReplaySpec {
        window: Window::new(250, 3_000),
        period: 40,
        burst: 3,
    });
    // PBFT: replayed pre-prepares/commits for retired slots are inert.
    let mut pbft = PbftCluster::new(&cfg);
    let out = run_scenario(&mut pbft, &cfg, &Scenario::none().script(0, replay.clone()));
    assert!(out.replays > 0, "the attack must actually inject stale messages");
    let verdict = ScenarioOracle::expecting_liveness().judge(&pbft, &out.report, 16);
    assert!(verdict.pass(), "pbft: {verdict:?}");
    for node in pbft.nodes() {
        assert_eq!(node.committed_log().len(), 16, "replay must not re-execute");
    }
    // MinBFT: replayed (consumed) USIG counters are dropped at ingest.
    let mut minbft = MinBftCluster::new(&cfg);
    let out = run_scenario(&mut minbft, &cfg, &Scenario::none().script(0, replay.clone()));
    assert!(out.replays > 0);
    let verdict = ScenarioOracle::expecting_liveness().judge(&minbft, &out.report, 16);
    assert!(verdict.pass(), "minbft: {verdict:?}");
    for node in minbft.nodes() {
        assert_eq!(node.committed_log().len(), 16);
    }
    // Passive: replayed state updates fall below the backup's watermark.
    let mut passive = PassiveCluster::new(&cfg);
    let out = run_scenario(&mut passive, &cfg, &Scenario::none().script(0, replay));
    let verdict = ScenarioOracle::expecting_liveness().judge(&passive, &out.report, 16);
    assert!(verdict.pass(), "passive: {verdict:?}");
    assert_eq!(passive.nodes()[1].committed_log().len(), 16);
}

#[test]
fn degraded_links_slow_but_do_not_stall() {
    let cfg = config(1, 2, 6, 917);
    let scenario = Scenario::none().link_fault(LinkFault {
        source: Some(0),
        dest: None,
        window: Window::new(100, 2_500),
        drop_rate: 0.2,
        extra_delay: 120,
    });
    let mut cluster = PbftCluster::new(&cfg);
    let out = run_scenario(&mut cluster, &cfg, &scenario);
    let verdict = ScenarioOracle::expecting_liveness().judge(&cluster, &out.report, 12);
    assert!(verdict.pass(), "{verdict:?}");
    assert!(out.script_drops > 0, "the fault must actually drop messages");
    let healthy = run(&mut PbftCluster::new(&cfg), &cfg);
    assert!(
        out.report.duration_cycles > healthy.duration_cycles,
        "degradation must cost virtual time: {} vs {}",
        out.report.duration_cycles,
        healthy.duration_cycles
    );
}

#[test]
fn byzantine_window_is_judged_safe_and_live() {
    // An equivocation window on the initial primary: safety must hold,
    // the view change restores liveness, and the oracle's digest check
    // compares only the correct replicas.
    let cfg = config(1, 2, 6, 919);
    let scenario = Scenario::none().script(
        0,
        ReplicaScript::correct().equivocate(Window::new(0, 2_000)).forge_ui(Window::new(0, 2_000)),
    );
    let mut pbft = PbftCluster::new(&cfg);
    let out = run_scenario(&mut pbft, &cfg, &scenario.clone());
    let verdict = ScenarioOracle::expecting_liveness().judge(&pbft, &out.report, 12);
    assert!(verdict.pass(), "pbft: {verdict:?}");
    assert_eq!(pbft.correct_replicas().len(), 3, "the attacker is excluded from checks");

    let mut minbft = MinBftCluster::new(&cfg);
    let out = run_scenario(&mut minbft, &cfg, &scenario);
    let verdict = ScenarioOracle::expecting_liveness().judge(&minbft, &out.report, 12);
    assert!(verdict.pass(), "minbft: {verdict:?}");
    assert_eq!(minbft.correct_replicas().len(), 2);
}

#[test]
fn scenario_runs_are_deterministic() {
    let cfg = RunConfig { batch_size: 4, batch_flush: 80, ..config(1, 4, 6, 921) };
    let scenario = Scenario::none()
        .script(0, ReplicaScript::correct().crash(Window::new(200, 3_000)))
        .partition(vec![2], Window::new(500, 2_500))
        .flood(Flood { window: Window::new(100, 1_500), period: 70, payload_size: 16 })
        .link_fault(LinkFault {
            source: None,
            dest: Some(1),
            window: Window::new(50, 4_000),
            drop_rate: 0.1,
            extra_delay: 15,
        });
    let run_once = || {
        let mut c = PbftCluster::new(&cfg);
        let out = run_scenario(&mut c, &cfg, &scenario);
        (
            out.report.committed,
            out.report.messages_total,
            out.report.duration_cycles,
            out.flood_requests,
            out.script_drops,
        )
    };
    assert_eq!(run_once(), run_once(), "identical scenario, identical trace");
}

#[test]
fn corrupted_transfer_snapshots_are_rejected_never_installed() {
    // A rejuvenated replica asks for state transfer and every serving
    // replica corrupts the snapshot bytes. The certificate digest check
    // must reject every response — the wiped replica would rather stay
    // behind than install state it cannot prove. The rest of the cluster
    // keeps the workload live.
    let cfg = RunConfig { checkpoint_interval: 3, ..config(1, 4, 12, 931) };
    let mut scenario = Scenario::none().script(3, ReplicaScript::correct().rejuvenate_at(150));
    for r in 0..3 {
        scenario = scenario
            .script(r, ReplicaScript::correct().corrupt_snapshots(Window::new(0, 1_000_000)));
    }
    let mut cluster = PbftCluster::new(&cfg);
    let out = run_scenario(&mut cluster, &cfg, &scenario);
    let verdict = ScenarioOracle::expecting_liveness().judge(&cluster, &out.report, 48);
    assert!(verdict.pass(), "{verdict:?}");
    assert_eq!(out.rejuvenations, 1, "the wipe must fire");
    let rejected: u64 = cluster.nodes().iter().map(|n| n.checkpoint_stats().rejected).sum();
    let transfers: u64 = cluster.nodes().iter().map(|n| n.checkpoint_stats().transfers).sum();
    assert!(rejected >= 1, "corrupt snapshots must be rejected, got {rejected}");
    assert_eq!(transfers, 0, "a corrupted snapshot must never install");
    // The wiped replica stayed behind rather than installing garbage.
    let stable = cluster.nodes()[0].checkpoint_stats().stable_seq;
    assert!(
        cluster.nodes()[3].committed_seq() < stable,
        "the re-joiner cannot have caught up without a genuine transfer"
    );
}

#[test]
fn forged_checkpoint_certificates_never_certify() {
    // A Byzantine replica broadcasts forged checkpoint vouchers: garbage
    // MACs (rejected outright) and properly-MAC'd lies about its state
    // digest (isolated in their own digest group, never reaching quorum).
    // Honest replicas still certify the true digests on schedule.
    let cfg = RunConfig { checkpoint_interval: 3, ..config(1, 4, 12, 933) };
    let scenario = Scenario::none()
        .script(1, ReplicaScript::correct().forge_checkpoints(Window::new(0, 1_000_000)));
    let lie = manycore_resilience::crypto::sha256(b"forged-checkpoint-state");

    let mut pbft = PbftCluster::new(&cfg);
    let out = run_scenario(&mut pbft, &cfg, &scenario);
    let verdict = ScenarioOracle::expecting_liveness().judge(&pbft, &out.report, 48);
    assert!(verdict.pass(), "pbft: {verdict:?}");
    let rejected: u64 = pbft.nodes().iter().map(|n| n.checkpoint_stats().rejected).sum();
    assert!(rejected >= 1, "forged vouchers must bump the rejection counter");
    for node in pbft.nodes() {
        assert!(node.checkpoint_stats().stable_seq > 0, "real certificates must still form");
        for (seq, digest) in node.checkpoint_history() {
            assert_ne!(digest, &lie, "forged digest certified at watermark {seq}");
        }
    }

    let mut minbft = MinBftCluster::new(&cfg);
    let out = run_scenario(&mut minbft, &cfg, &scenario);
    let verdict = ScenarioOracle::expecting_liveness().judge(&minbft, &out.report, 48);
    assert!(verdict.pass(), "minbft: {verdict:?}");
    let rejected: u64 = minbft.nodes().iter().map(|n| n.checkpoint_stats().rejected).sum();
    assert!(rejected >= 1, "forged vouchers must bump the rejection counter");
    for node in minbft.nodes() {
        for (seq, digest) in node.checkpoint_history() {
            assert_ne!(digest, &lie, "forged digest certified at watermark {seq}");
        }
    }
}

#[test]
fn minbft_fault_free_costs_exactly_nine_macs_per_op() {
    // f = 1, batch 1: three certificates created (one PREPARE, two
    // COMMITs), two PREPARE receipts and four COMMIT receipts each checked
    // for its sender's UI. The primary certificate a COMMIT quotes is the
    // one the receiver already holds — verified once, with the PREPARE —
    // where the parent paid for it again on every receipt (13 per op).
    // Exact when every PREPARE reaches a backup before the COMMITs that
    // quote it (fixed link latency); under the default jittered links a
    // COMMIT can overtake its PREPARE and pay the full check, and client
    // retries re-announce PREPAREs — never past the parent's 13.
    let fixed = RunConfig { latency: LatencyModel::Fixed(20), ..config(1, 2, 50, 977) };
    for (cfg, exact) in [(fixed, true), (config(1, 2, 50, 977), false)] {
        let mut cluster = MinBftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        assert_eq!(report.committed, 100);
        assert!(report.safety_ok);
        let macs = ClusterStats::of(&cluster).mac_ops;
        if exact {
            assert_eq!(macs, 9 * report.committed);
        }
        assert!(macs <= 13 * report.committed, "{macs} MACs for {} ops", report.committed);
    }
}

#[test]
fn verify_once_still_refuses_a_commit_quoting_a_tampered_primary_certificate() {
    // Hand-stepped f = 2 cluster (commit quorum 3, so an accepted PREPARE
    // leaves its slot open for votes): replica 1 is intruded and relays a
    // genuine COMMIT with the primary's tag altered. Its own UI is valid,
    // the quote differs from the certificate replica 2 accepted, so it is
    // verified — and refused; replica 3's honest vote costs one MAC.
    let cfg = config(2, 1, 1, 5);
    let mut nodes = MinBftCluster::new(&cfg).into_nodes();
    let step = |node: &mut MinBftReplica, from: Endpoint, msg: MinBftMsg| {
        let mut out = Outbox::new();
        let before = node.mac_ops().1;
        node.on_input(Input::Message { from, msg }, 10, &mut out);
        (out, node.mac_ops().1 - before)
    };
    let sent_to = |out: &Outbox<MinBftMsg>, to: u32| {
        let to = Endpoint::Replica(ReplicaId(to));
        out.msgs.iter().find(|(dest, _)| *dest == to).map(|(_, m)| m.clone()).expect("broadcast")
    };
    let request = MinBftMsg::Request(Arc::new(Request {
        op: OpId { client: ClientId(1), seq: 1 },
        payload: b"SET k v".to_vec(),
    }));
    let (proposed, _) = step(&mut nodes[0], Endpoint::Client(ClientId(1)), request);
    let primary = Endpoint::Replica(ReplicaId(0));
    let (voted_1, _) = step(&mut nodes[1], primary, sent_to(&proposed, 1));
    let (voted_3, _) = step(&mut nodes[3], primary, sent_to(&proposed, 3));
    let (_, macs) = step(&mut nodes[2], primary, sent_to(&proposed, 2));
    assert_eq!((macs, nodes[2].committed_seq()), (1, 0));

    let MinBftMsg::Commit(genuine) = sent_to(&voted_1, 2) else { panic!("a COMMIT") };
    let mut tampered = CommitVote::clone(&genuine);
    tampered.primary_ui.tag.0[7] ^= 0x40;
    let relay = MinBftMsg::Commit(Arc::new(tampered));
    let (_, macs) = step(&mut nodes[2], Endpoint::Replica(ReplicaId(1)), relay);
    assert_eq!(macs, 2, "the sender's UI and the certificate it quotes");
    assert_eq!(nodes[2].committed_seq(), 0, "a forged quote is not a vote");

    let honest = sent_to(&voted_3, 2);
    let (_, macs) = step(&mut nodes[2], Endpoint::Replica(ReplicaId(3)), honest);
    assert_eq!(macs, 1, "the quoted certificate is the one already accepted");
    assert_eq!(nodes[2].committed_seq(), 1, "primary + own vote + replica 3");
}
