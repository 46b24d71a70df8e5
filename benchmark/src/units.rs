//! Unit costs of the layers' primitives, for the modelled budget: a count
//! from a workload times one of these is what the layer *should* cost.
//!
//! Each cost is the best of [`ROUNDS`] rounds of a fixed iteration count,
//! in process CPU time, with inputs and results passed through
//! `black_box`.

use crate::os::cpu_seconds;
use rsoc_bft::api::{Batch, ClientId, Endpoint, OpId};
use rsoc_bft::harness::client_payload;
use rsoc_bft::pbft::PbftMsg;
use rsoc_bft::statemachine::{KvStore, StateMachine};
use rsoc_bft::Request;
use rsoc_crypto::{sha256, MacKey};
use rsoc_hw::EccRegister;
use rsoc_hybrid::{KeyRing, Usig, UsigId};
use rsoc_sim::{Arrival, ArrivalGen, KeyDist, KeyPicker, LogHistogram, SimRng, TimingWheel};
use rsoc_transport::{decode_envelope, encode_envelope, Envelope};
use std::hint::black_box;
use std::sync::Arc;

const ROUNDS: usize = 3;

/// Nanoseconds per unit of the primitive, by metric name.
pub struct Units {
    pub hmac_ns_64b: f64,
    pub sha256_ns_per_byte: f64,
    pub usig_create_ns: f64,
    pub usig_verify_ns: f64,
    pub apply_ns: f64,
    pub snapshot_ns_per_kb: f64,
    pub digest_ns_per_kb: f64,
    pub crc32_ns_per_byte: f64,
    pub wheel_push_pop_ns: f64,
    pub loghist_record_ns: f64,
    pub arrival_next_ns: f64,
    pub zipf_pick_ns: f64,
    pub request_digest_ns: f64,
    pub batch_digest_ns_per_req: f64,
    /// Encode plus decode of a request envelope, per encoded byte.
    pub codec_ns_per_byte: f64,
}

/// Best-of-[`ROUNDS`] nanoseconds per iteration of `body`.
fn ns_per_iter(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = cpu_seconds();
        for i in 0..iters {
            body(i);
        }
        best = best.min(cpu_seconds() - t0);
    }
    best * 1e9 / iters as f64
}

fn request(seq: u64, payload: usize) -> Arc<Request> {
    let op = OpId { client: ClientId(3), seq };
    Arc::new(Request { op, payload: client_payload(7, 3, seq, payload) })
}

pub fn measure(seed: u64) -> Units {
    let key = MacKey::derive(seed, "unit");
    let block = vec![0xA5u8; 4096];
    let hmac_ns_64b = ns_per_iter(100_000, |_| {
        black_box(key.mac(black_box(&block[..64])));
    });
    let sha256_ns_per_byte = ns_per_iter(5_000, |_| {
        black_box(sha256(black_box(&block)));
    }) / block.len() as f64;
    let crc32_ns_per_byte = ns_per_iter(5_000, |_| {
        black_box(rsoc_store::crc32(black_box(&block)));
    }) / block.len() as f64;

    // The register MinBFT replicas give their USIG by default (SEC-DED).
    let mut usig =
        Usig::new(UsigId(0), KeyRing::provision(seed, 3), Box::new(EccRegister::new(64)));
    let statement = [0x5Au8; 48];
    let usig_create_ns = ns_per_iter(50_000, |_| {
        black_box(usig.create_ui(black_box(&statement)).expect("a fresh counter"));
    });
    let ui = usig.create_ui(&statement).expect("a fresh counter");
    let usig_verify_ns = ns_per_iter(50_000, |_| {
        black_box(usig.verify_ui(UsigId(0), black_box(&ui), &statement));
    });

    // A store of 4096 keys with 128-byte values, the fault workloads' shape.
    let mut kv = KvStore::new();
    let commands: Vec<Vec<u8>> = (1..=4096).map(|s| client_payload(seed, 1, s, 128)).collect();
    let apply_ns = ns_per_iter(commands.len() as u64, |i| {
        black_box(kv.apply(black_box(&commands[i as usize])));
    });
    let kb = kv.snapshot().len() as f64 / 1024.0;
    let snapshot_ns_per_kb = ns_per_iter(50, |_| {
        black_box(kv.snapshot());
    }) / kb;
    let digest_ns_per_kb = ns_per_iter(50, |_| {
        black_box(kv.state_digest());
    }) / kb;

    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut at = 0u64;
    let wheel_push_pop_ns = ns_per_iter(500_000, |i| {
        wheel.push(at + 5 + (i & 7), i);
        at = black_box(wheel.pop()).expect("just pushed").0;
    });
    let mut hist = LogHistogram::new();
    let loghist_record_ns = ns_per_iter(1_000_000, |i| hist.record(black_box(200 + (i & 255))));
    black_box(hist.count());
    let mut arrivals =
        ArrivalGen::new(Arrival::Poisson { mean_gap: 40 }, Vec::new(), SimRng::new(seed));
    let arrival_next_ns = ns_per_iter(500_000, |_| {
        black_box(arrivals.next_arrival());
    });
    let picker = KeyPicker::new(KeyDist::Zipf { n: 100_000, theta_per_mille: 900 });
    let mut rng = SimRng::new(seed);
    let zipf_pick_ns = ns_per_iter(500_000, |_| {
        black_box(picker.pick(&mut rng));
    });

    let requests: Vec<Arc<Request>> = (1..=8).map(|s| request(s, 32)).collect();
    let request_digest_ns = ns_per_iter(100_000, |i| {
        black_box(black_box(&requests[(i & 7) as usize]).digest());
    });
    let batch_digest_ns_per_req = ns_per_iter(20_000, |_| {
        black_box(Batch::new(black_box(requests.clone())));
    }) / requests.len() as f64;

    let envelope = Envelope::Msg {
        from: Endpoint::Client(ClientId(3)),
        msg: PbftMsg::Request(request(1, 128)),
    };
    let bytes = encode_envelope(&envelope).len() as f64;
    let codec_ns_per_byte = ns_per_iter(100_000, |_| {
        let body = encode_envelope(black_box(&envelope));
        black_box(decode_envelope::<PbftMsg>(&body));
    }) / bytes;

    Units {
        hmac_ns_64b,
        sha256_ns_per_byte,
        usig_create_ns,
        usig_verify_ns,
        apply_ns,
        snapshot_ns_per_kb,
        digest_ns_per_kb,
        crc32_ns_per_byte,
        wheel_push_pop_ns,
        loghist_record_ns,
        arrival_next_ns,
        zipf_pick_ns,
        request_digest_ns,
        batch_digest_ns_per_req,
        codec_ns_per_byte,
    }
}
