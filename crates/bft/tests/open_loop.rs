//! The open-loop workload plane: arrivals injected on a rate schedule,
//! users drawn from a skewed population, latencies log-bucketed. These
//! tests pin the plane's contract — every injected op commits exactly
//! once, the histogram accounts for every commit, and the whole report
//! is a pure function of `(config, spec)`.

use rsoc_bft::adversary::{Flood, ReplaySpec, ReplicaScript, Scenario};
use rsoc_bft::api::{Cluster, ReplicaNode};
use rsoc_bft::minbft::MinBftCluster;
use rsoc_bft::passive::PassiveCluster;
use rsoc_bft::pbft::PbftCluster;
use rsoc_bft::runner::{run_open_loop, OpenLoopReport, OpenLoopSpec, RunConfig};
use rsoc_sim::{Arrival, KeyDist, RateMod, Window};

fn spec(total_ops: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        arrival: Arrival::Poisson { mean_gap: 40 },
        mods: vec![RateMod::FlashCrowd { window: Window::new(2_000, 6_000), mult_per_mille: 3000 }],
        users: KeyDist::HotSet { n: 5_000, hot: 16, hot_per_mille: 500 },
        total_ops,
    }
}

fn config(seed: u64) -> RunConfig {
    RunConfig {
        f: 1,
        seed,
        checkpoint_interval: 16,
        batch_size: 4,
        max_cycles: 40_000_000,
        ..RunConfig::default()
    }
}

fn run_one<C: Cluster>(mut cluster: C, seed: u64, total: u64) -> OpenLoopReport {
    let cfg = config(seed);
    run_open_loop(&mut cluster, &cfg, &spec(total), &Scenario::none())
}

fn assert_same_report(a: &OpenLoopReport, b: &OpenLoopReport) {
    assert_eq!(a.issued, b.issued);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.distinct_users, b.distinct_users);
    assert_eq!(a.messages_total, b.messages_total);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.duration_cycles, b.duration_cycles);
    assert_eq!(a.latency.to_sparse(), b.latency.to_sparse());
}

fn assert_plane_contract(r: &OpenLoopReport, total: u64) {
    assert_eq!(r.issued, total, "{}: the generator must inject every op", r.protocol);
    assert_eq!(r.committed, total, "{}: every op commits exactly once", r.protocol);
    assert!(r.safety_ok, "{}: logs must stay prefix-compatible", r.protocol);
    assert_eq!(
        r.latency.count(),
        r.committed,
        "{}: the histogram accounts for every commit",
        r.protocol
    );
    assert!(r.distinct_users > 100, "{}: {} users", r.protocol, r.distinct_users);
    assert!(r.latency.quantile(0.5) <= r.latency.quantile(0.999), "{}", r.protocol);
}

#[test]
fn pbft_open_loop_commits_all_arrivals() {
    let cfg = config(17);
    let r = run_one(PbftCluster::new(&cfg), 17, 600);
    assert_plane_contract(&r, 600);
}

#[test]
fn minbft_open_loop_commits_all_arrivals() {
    let cfg = config(19);
    let r = run_one(MinBftCluster::new(&cfg), 19, 600);
    assert_plane_contract(&r, 600);
}

#[test]
fn passive_open_loop_commits_all_arrivals() {
    let cfg = config(23);
    let r = run_one(PassiveCluster::new(&cfg), 23, 600);
    assert_plane_contract(&r, 600);
}

/// The whole report — counts, distinct users, and the histogram's sparse
/// serialization — must replay bit-identically from the seed. This is
/// the property the campaigns' `--jobs 1` vs `--jobs N` byte-compare
/// rests on.
#[test]
fn open_loop_replays_bit_identically() {
    let cfg = config(29);
    let a = run_one(PbftCluster::new(&cfg), 29, 400);
    let b = run_one(PbftCluster::new(&cfg), 29, 400);
    assert_same_report(&a, &b);
}

/// Flood and replay schedules belong to the driver, not to the closed
/// loop: under open load the attackers' requests are ordered and executed
/// on top of every arrival (under client ids past the user population, so
/// no user's op is shadowed), the stale copies cross the wire, and the
/// scripted run still replays bit-identically.
#[test]
fn open_loop_interprets_flood_and_replay_schedules() {
    let cfg = config(37);
    let total = 600;
    // Both windows close well before the ~20k-cycle run does, so the whole
    // flood train is injected: pulses at 1000, 1100, …, 4900.
    let flood = Flood { window: Window::new(1_000, 5_000), period: 100, payload_size: 32 };
    let injected = 40;
    let replay = ReplaySpec { window: Window::new(2_000, 8_000), period: 50, burst: 3 };
    let flooded = Scenario::none().flood(flood);
    let scenario = flooded.clone().script(1, ReplicaScript::correct().replay_sends(replay));
    let run = |scenario: &Scenario| {
        let mut cluster = PbftCluster::new(&cfg);
        let report = run_open_loop(&mut cluster, &cfg, &spec(total), scenario);
        (report, cluster)
    };

    let (plain, _) = run(&Scenario::none());
    let (scripted, cluster) = run(&scenario);
    assert_plane_contract(&scripted, total);
    for node in cluster.nodes() {
        assert_eq!(node.committed_seq(), total + injected, "replica {:?}", node.id());
    }
    // The report has no attack counters; message totals tell each
    // schedule apart: the flood adds to the plain run, the replays to that.
    let flood_only = run(&flooded).0.messages_total;
    assert!(flood_only > plain.messages_total, "{flood_only} vs {}", plain.messages_total);
    assert!(scripted.messages_total > flood_only, "{} vs {flood_only}", scripted.messages_total);
    assert_same_report(&scripted, &run(&scenario).0);
}

/// A population far beyond the closed-loop client count: the paged user
/// table must track distinct identities without per-user allocation, and
/// uniform traffic over a 200k keyspace must touch a large slice of it.
#[test]
fn open_loop_scales_to_large_sparse_populations() {
    let cfg = RunConfig {
        f: 1,
        seed: 31,
        batch_size: 8,
        max_cycles: 200_000_000,
        ..RunConfig::default()
    };
    let s = OpenLoopSpec {
        arrival: Arrival::Periodic { gap: 12 },
        mods: vec![],
        users: KeyDist::Uniform { n: 200_000 },
        total_ops: 5_000,
    };
    let mut cluster = PassiveCluster::new(&cfg);
    let r = run_open_loop(&mut cluster, &cfg, &s, &Scenario::none());
    assert_eq!(r.committed, 5_000);
    // 5k uniform draws over 200k users: collisions are rare, so nearly
    // every draw is a fresh identity.
    assert!(r.distinct_users > 4_800, "distinct users {}", r.distinct_users);
}
