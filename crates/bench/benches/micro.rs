//! Criterion micro-benchmarks for the substrate hot paths: crypto, hybrid
//! certificate handling, ECC codec, NoC routing, and single-op protocol
//! commits.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rsoc_bft::api::{
    Batch, ClientId, Cluster, Endpoint, Input, OpId, Outbox, ReplicaId, ReplicaNode, Request,
};
use rsoc_bft::checkpoint::{CheckpointCert, StateTransfer};
use rsoc_bft::codec::{decode_frame, encode_frame, Wire};
use rsoc_bft::durable::{DurableEvent, RecoveredState};
use rsoc_bft::minbft::MinBftCluster;
use rsoc_bft::pbft::{PbftCluster, PbftMsg, PbftReplica};
use rsoc_bft::plane::{step_node, Transport};
use rsoc_bft::runner::{run, RunConfig};
use rsoc_bft::statemachine::{KvStore, StateMachine};
use rsoc_crypto::{hmac_sha256, sha256, MacKey};
use rsoc_fpga::{Bitstream, FpgaFabric, Icap, Principal, ReconfigEngine, Region};
use rsoc_hw::ecc::Hamming;
use rsoc_hw::{EccRegister, PlainRegister, RegisterCell};
use rsoc_hybrid::{KeyRing, Usig, UsigId};
use rsoc_noc::network::{Network, NetworkConfig};
use rsoc_noc::{Mesh2d, Routing};
use rsoc_store::{crc32, frame_record, DataDir, WalRecord};
use rsoc_transport::wire::{decode_envelope, encode_envelope, Envelope};
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data_1k = vec![0xA5u8; 1024];
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("sha256/1KiB", |b| b.iter(|| sha256(black_box(&data_1k))));
    let key = MacKey::derive(1, "bench");
    g.bench_function("hmac_sha256/1KiB", |b| {
        b.iter(|| hmac_sha256(black_box(key.as_bytes()), black_box(&data_1k)))
    });
    // Cached key schedule vs the from-scratch reference. The win is the
    // two skipped pad-block compressions, so it is starkest on the short
    // certificate-sized messages the consensus hot path authenticates.
    g.bench_function("hmac_cached_key/1KiB", |b| b.iter(|| key.mac(black_box(&data_1k))));
    // The sizes the protocols actually hash and MAC: a UI payload is the
    // 21-byte USIG header (form, id, counter, length) plus the 56-byte
    // PREPARE or 63-byte COMMIT statement; a request digest covers ~32
    // bytes and a single-request batch digest ~96.
    for len in [77usize, 84] {
        let payload = vec![0x5Au8; len];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("hmac_sha256/{len}B"), |b| {
            b.iter(|| hmac_sha256(black_box(key.as_bytes()), black_box(&payload)))
        });
        g.bench_function(format!("hmac_cached_key/{len}B"), |b| {
            b.iter(|| key.mac(black_box(&payload)))
        });
    }
    for len in [32usize, 96] {
        let data = vec![0xA5u8; len];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("sha256/{len}B"), |b| b.iter(|| sha256(black_box(&data))));
    }
    g.finish();
}

fn bench_usig(c: &mut Criterion) {
    let mut g = c.benchmark_group("usig");
    let ring = KeyRing::provision(2, 2);
    let mut plain = Usig::new(UsigId(0), ring.clone(), Box::new(PlainRegister::new(64)));
    let mut ecc = Usig::new(UsigId(1), ring.clone(), Box::new(EccRegister::new(64)));
    g.bench_function("create_ui/plain", |b| {
        b.iter(|| plain.create_ui(black_box(b"prepare view=0 seq=1")).unwrap())
    });
    g.bench_function("create_ui/secded", |b| {
        b.iter(|| ecc.create_ui(black_box(b"prepare view=0 seq=1")).unwrap())
    });
    let verifier = Usig::new(UsigId(0), ring, Box::new(PlainRegister::new(64)));
    let mut signer =
        Usig::new(UsigId(1), KeyRing::provision(2, 2), Box::new(PlainRegister::new(64)));
    let ui = signer.create_ui(b"msg").unwrap();
    g.bench_function("verify_ui", |b| {
        b.iter(|| verifier.verify_ui(UsigId(1), black_box(&ui), black_box(b"msg")))
    });
    g.finish();
}

fn bench_ecc(c: &mut Criterion) {
    let mut g = c.benchmark_group("hamming64");
    let code = Hamming::new(64);
    g.bench_function("encode", |b| b.iter(|| code.encode(black_box(0xDEAD_BEEF_CAFE_F00D))));
    let cw = code.encode(0xDEAD_BEEF_CAFE_F00D);
    g.bench_function("decode_clean", |b| b.iter(|| code.decode(black_box(cw))));
    let corrupted = cw ^ (1 << 17);
    g.bench_function("decode_correct1", |b| b.iter(|| code.decode(black_box(corrupted))));
    let mut reg = EccRegister::new(64);
    reg.store(42);
    // The per-certificate path: `create_ui` loads the counter and stores
    // its successor.
    g.bench_function("register_rmw", |b| {
        b.iter(|| {
            let v = reg.load().value().expect("clean register");
            reg.store(black_box(v.wrapping_add(1)));
        })
    });
    g.bench_function("register_load_scrub", |b| {
        b.iter(|| {
            reg.inject_flip(13);
            black_box(reg.load())
        })
    });
    g.finish();
}

fn bench_noc(c: &mut Criterion) {
    let mut g = c.benchmark_group("noc");
    g.bench_function("8x8_xy_100pkts_drain", |b| {
        b.iter(|| {
            let mesh = Mesh2d::new(8, 8);
            let mut net =
                Network::new(mesh, NetworkConfig { routing: Routing::Xy, ..Default::default() });
            for i in 0..100u16 {
                let s = rsoc_noc::NodeId(i % 64);
                let d = rsoc_noc::NodeId((i * 7 + 13) % 64);
                net.inject(s, d, 1);
            }
            net.drain(10_000);
            black_box(net.stats().delivered.len())
        })
    });
    g.finish();
}

fn bench_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocols");
    g.sample_size(20);
    let config = RunConfig::builder().f(1).clients(1).requests_per_client(10).seed(7).build();
    g.bench_function("pbft_f1_10ops", |b| {
        b.iter(|| {
            let mut cluster = PbftCluster::new(&config);
            black_box(run(&mut cluster, &config).committed)
        })
    });
    g.bench_function("minbft_f1_10ops", |b| {
        b.iter(|| {
            let mut cluster = MinBftCluster::new(&config);
            black_box(run(&mut cluster, &config).committed)
        })
    });
    g.finish();
}

/// Batched vs unbatched commit pipeline (wall-clock cost of simulating the
/// same 64-request workload; the *virtual-time* throughput comparison
/// lives in `f2_batching`).
fn bench_commit_batching(c: &mut Criterion) {
    let mut g = c.benchmark_group("commit");
    g.sample_size(20);
    let workload = |batch_size: usize| {
        RunConfig::builder()
            .f(1)
            .clients(8)
            .requests_per_client(8)
            .seed(7)
            .batch_size(batch_size)
            .batch_flush(100)
            .build()
    };
    for batch in [1usize, 8] {
        let config = workload(batch);
        g.bench_function(format!("batch{batch}"), move |b| {
            b.iter(|| {
                let mut cluster = MinBftCluster::new(&config);
                black_box(run(&mut cluster, &config).committed)
            })
        });
    }
    g.finish();
}

/// Write number `op` of the harness's shape: 8 clients, each op writing
/// its own key, a 100-byte value.
fn kv_set(kv: &mut KvStore, command: &mut Vec<u8>, op: u64) -> Arc<Vec<u8>> {
    use std::io::Write as _;
    command.clear();
    write!(command, "SET k{}.{} ", op % 8, op / 8).expect("writing to a Vec");
    command.extend_from_slice(&[0x5A; 100]);
    kv.apply(command)
}

/// The replicated store under a checkpointing replica: one write, one
/// checkpoint's worth of state work (256 writes, then the certified
/// digest and the retained copy-on-write clone) at two state sizes —
/// the same number twice is the point — and the O(state) serialization
/// only transfers and persisted checkpoints still pay.
fn bench_kv(c: &mut Criterion) {
    let mut g = c.benchmark_group("kv");
    let mut command = Vec::new();
    for (label, keys) in [("10k", 10_000u64), ("100k", 100_000)] {
        let mut kv = KvStore::new();
        for op in 0..keys {
            kv_set(&mut kv, &mut command, op);
        }
        let mut next = keys;
        if keys == 10_000 {
            g.throughput(Throughput::Bytes(kv.snapshot().len() as u64));
            g.bench_function("snapshot_bytes/10k", |b| b.iter(|| kv.snapshot()));
            g.throughput(Throughput::Elements(1));
            g.bench_function("apply_set", |b| {
                b.iter(|| {
                    next += 1;
                    kv_set(&mut kv, &mut command, next)
                })
            });
        }
        let mut retained = kv.clone();
        g.throughput(Throughput::Elements(256));
        g.bench_function(format!("checkpoint_after_256_sets/{label}"), |b| {
            b.iter(|| {
                for _ in 0..256 {
                    next += 1;
                    kv_set(&mut kv, &mut command, next);
                }
                retained = kv.clone();
                kv.state_digest()
            })
        });
    }
    g.finish();
}

/// Client 1's write number `seq`: its own key, a `value_len`-byte value.
fn write_request(seq: u64, value_len: usize) -> Arc<Request> {
    let mut payload = format!("SET k{seq} ").into_bytes();
    payload.resize(payload.len() + value_len, 0x5A);
    Arc::new(Request { op: OpId { client: ClientId(1), seq }, payload })
}

/// What every persisted or framed byte costs: the checksum at four
/// lengths (618 B is one `wire_pbft_durable` WAL record), one WAL record
/// framed in place, the frame the primary sends most bytes in, both ways,
/// and a state image taken off the wire.
fn bench_framing(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    for (label, len) in [("64B", 64usize), ("618B", 618), ("4KiB", 4 << 10), ("1MiB", 1 << 20)] {
        let block: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("crc32/{label}"), |b| b.iter(|| crc32(black_box(&block))));
    }
    let record =
        WalRecord::Commit { seq: 9, batch: Arc::new(Batch::single(write_request(9, 600))) };
    let mut pending = Vec::new();
    g.throughput(Throughput::Elements(1));
    g.bench_function("frame_record/600B", |b| {
        b.iter(|| {
            pending.clear();
            frame_record(black_box(&record), &mut pending).expect("a 600-byte record");
            pending.len()
        })
    });
    g.finish();

    let mut g = c.benchmark_group("transport");
    let batch = Arc::new(Batch::new((1..=4).map(|seq| write_request(seq, 600)).collect()));
    let envelope = Envelope::Msg {
        from: Endpoint::Replica(ReplicaId(0)),
        msg: PbftMsg::PrePrepare { view: 0, seq: 1, batch },
    };
    g.bench_function("encode_envelope/preprepare_b4", |b| {
        b.iter(|| encode_envelope(black_box(&envelope)))
    });
    let frame = encode_envelope(&envelope);
    g.bench_function("decode_envelope/preprepare_b4", |b| {
        b.iter(|| decode_envelope::<PbftMsg>(black_box(&frame)).expect("a well-formed frame"))
    });
    g.finish();

    let mut g = c.benchmark_group("codec");
    let image: Vec<u8> = (0..1 << 20).map(|i| (i * 31) as u8).collect();
    let transfer = StateTransfer {
        cert: CheckpointCert { seq: 256, digest: [7; 32], vouchers: Vec::new() },
        snapshot: Arc::new(image),
        log_base: 256,
        suffix: Arc::new(Vec::new()),
        view: 0,
    };
    let mut frame = Vec::new();
    encode_frame(&transfer, &mut frame);
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("state_transfer_decode/1MiB", |b| {
        b.iter(|| decode_frame::<StateTransfer>(black_box(&frame)).expect("a well-formed frame"))
    });
    g.finish();
}

/// Four durable PBFT replicas driven by hand over a FIFO in-memory
/// network, each stepped by [`step_node`], with a checkpoint every 256
/// slots. Only replica 0's durable events reach a [`DataDir`].
struct DurableCluster {
    nodes: Vec<PbftReplica>,
    wire: Fifo,
    now: u64,
    next_seq: u64,
}

/// The cluster's network: one FIFO queue of replica-bound messages, and
/// replica 0's data directory with the bytes it was handed.
struct Fifo {
    queue: VecDeque<(usize, Endpoint, PbftMsg)>,
    store: DataDir,
    /// Commit bytes and image bytes replica 0 handed to its store, and
    /// the length of the last image among them.
    wal_bytes: u64,
    image_bytes: u64,
    last_image: u64,
}

impl Transport<PbftMsg> for Fifo {
    fn persist(&mut self, from: ReplicaId, events: &[DurableEvent]) -> io::Result<()> {
        if from != ReplicaId(0) {
            return Ok(());
        }
        for event in events {
            match event {
                DurableEvent::Commit { batch, .. } => self.wal_bytes += batch.wire_len() as u64,
                DurableEvent::Stable { snapshot, .. } => {
                    self.last_image = snapshot.len() as u64;
                    self.image_bytes += self.last_image;
                }
                DurableEvent::UsigCounter(_) => {}
            }
        }
        self.store.persist(events)
    }

    fn dispatch(&mut self, from: ReplicaId, out: &mut Outbox<PbftMsg>, _now: u64) {
        for (dest, msg) in out.msgs.drain(..) {
            if let Endpoint::Replica(r) = dest {
                self.queue.push_back((r.0 as usize, Endpoint::Replica(from), msg));
            }
        }
    }
}

impl DurableCluster {
    /// A cluster whose state already holds `keys` keys (replayed through
    /// `recover`, as a restart would, not ordered one by one).
    fn preloaded(keys: u64) -> Self {
        let config = RunConfig::builder().f(1).seed(7).checkpoint_interval(256).build();
        let mut nodes = PbftCluster::new(&config).into_nodes();
        let commits: Vec<_> =
            (1..=keys).map(|seq| (seq, Arc::new(Batch::single(write_request(seq, 100))))).collect();
        for node in &mut nodes {
            let state = RecoveredState { commits: commits.clone(), ..Default::default() };
            assert_eq!(node.recover(state).replayed, keys);
            node.enable_durability();
        }
        let dir = std::env::temp_dir()
            .join(format!("rsoc_micro_persist_stable_{keys}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = DataDir::open(&dir).expect("open the data directory");
        let wire =
            Fifo { queue: VecDeque::new(), store, wal_bytes: 0, image_bytes: 0, last_image: 0 };
        DurableCluster { nodes, wire, now: 0, next_seq: keys + 1 }
    }

    /// Orders 256 fresh writes — exactly one stable checkpoint — each run
    /// until the network is quiet.
    fn checkpoint_interval(&mut self) {
        let mut out = Outbox::new();
        for _ in 0..256 {
            let request = write_request(self.next_seq, 100);
            self.next_seq += 1;
            let client = Endpoint::Client(request.op.client);
            let requests = (0..self.nodes.len())
                .map(|to| (to, client, PbftReplica::make_request(request.clone())));
            self.wire.queue.extend(requests);
            while let Some((to, from, msg)) = self.wire.queue.pop_front() {
                self.now += 1;
                let input = Input::Message { from, msg };
                step_node(&mut self.nodes[to], input, self.now, &mut out, &mut self.wire)
                    .expect("persist");
            }
        }
    }
}

impl Drop for DurableCluster {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.wire.store.path());
    }
}

/// One checkpoint interval of a durable replica at two state sizes: 256
/// ordered writes, their WAL records and whatever the stable checkpoint
/// at the end puts on disk. The same number twice is the point — the
/// images written stay within the WAL written plus one, however large the
/// state — and the interval before the timed ones takes the first image,
/// which is always written.
fn bench_persist_stable(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    g.sample_size(10);
    g.throughput(Throughput::Elements(256));
    for (label, keys) in [("10k", 10_000u64), ("100k", 100_000)] {
        let mut cluster = DurableCluster::preloaded(keys);
        cluster.checkpoint_interval();
        assert!(
            cluster.wire.image_bytes > keys * 100,
            "the first stable checkpoint writes the whole state"
        );
        g.bench_function(format!("persist_stable/{label}"), |b| {
            b.iter(|| cluster.checkpoint_interval())
        });
        assert!(
            cluster.wire.image_bytes <= cluster.wire.wal_bytes + cluster.wire.last_image,
            "{} image bytes over {} WAL bytes",
            cluster.wire.image_bytes,
            cluster.wire.wal_bytes
        );
    }
    g.finish();
}

fn bench_fpga(c: &mut Criterion) {
    let mut g = c.benchmark_group("fpga");
    let key = MacKey::derive(3, "bs");
    g.bench_function("reconfigure_2frames", |b| {
        b.iter(|| {
            let mut icap = Icap::new(key.clone());
            icap.allow(Principal(0), Region::new(0, 16));
            let mut engine = ReconfigEngine::new(FpgaFabric::new(4, 4, 8), icap);
            let r = Region::new(0, 2);
            let bs = Bitstream::for_variant(1, r, 8, &key);
            black_box(engine.reconfigure(Principal(0), r, &bs, 1).unwrap().cycles)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_usig,
    bench_ecc,
    bench_noc,
    bench_protocols,
    bench_commit_batching,
    bench_kv,
    bench_framing,
    bench_persist_stable,
    bench_fpga
);
criterion_main!(benches);
