//! Property-based tests (proptest) over the core invariants:
//! crypto round-trips, ECC correction, USIG uniqueness/monotonicity,
//! protocol safety under random fault configurations, NoC delivery.

use manycore_resilience::bft::adversary::Behavior;
use manycore_resilience::bft::api::{Cluster, ClusterStats, ReplicaNode};
use manycore_resilience::bft::broadcast::{run_broadcast, SenderBehavior};
use manycore_resilience::bft::minbft::MinBftCluster;
use manycore_resilience::bft::passive::PassiveCluster;
use manycore_resilience::bft::pbft::PbftCluster;
use manycore_resilience::bft::runner::{run, RunConfig};
use manycore_resilience::bft::ReplicaId;
use manycore_resilience::crypto::{hmac_sha256, hmac_verify, sha256, MacKey, Sha256};
use manycore_resilience::hw::ecc::{DecodeOutcome, Hamming};
use manycore_resilience::hw::{EccRegister, LoadOutcome, RegisterCell};
use manycore_resilience::hybrid::{A2m, KeyRing, TrInc, UiWindow, Usig, UsigId};
use manycore_resilience::noc::network::{Network, NetworkConfig};
use manycore_resilience::noc::{Mesh2d, NodeId, Routing};
use manycore_resilience::sim::LogHistogram;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- crypto ----------------

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_verifies_iff_untampered(key_seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 1..256), flip_byte in 0usize..256, flip_bit in 0u8..8) {
        let key = MacKey::derive(key_seed, "prop");
        let tag = hmac_sha256(key.as_bytes(), &msg);
        prop_assert!(hmac_verify(key.as_bytes(), &msg, &tag));
        let mut tampered = msg.clone();
        let idx = flip_byte % tampered.len();
        tampered[idx] ^= 1 << flip_bit;
        prop_assert!(!hmac_verify(key.as_bytes(), &tampered, &tag));
    }

    // ---------------- ECC ----------------

    #[test]
    fn hamming_roundtrip_any_width(width in 1u32..=64, raw in any::<u64>()) {
        let code = Hamming::new(width);
        let data = if width == 64 { raw } else { raw & ((1u64 << width) - 1) };
        prop_assert_eq!(code.decode(code.encode(data)), DecodeOutcome::Clean(data));
    }

    #[test]
    fn hamming_corrects_any_single_flip(width in 1u32..=64, raw in any::<u64>(), bit in any::<u32>()) {
        let code = Hamming::new(width);
        let data = if width == 64 { raw } else { raw & ((1u64 << width) - 1) };
        let cw = code.encode(data);
        let bit = bit % code.codeword_bits();
        match code.decode(cw ^ (1u128 << bit)) {
            DecodeOutcome::Corrected(v, pos) => {
                prop_assert_eq!(v, data);
                prop_assert_eq!(pos, bit);
            }
            other => prop_assert!(false, "expected correction, got {:?}", other),
        }
    }

    #[test]
    fn hamming_detects_any_double_flip(raw in any::<u64>(), b1 in any::<u32>(), b2 in any::<u32>()) {
        let code = Hamming::new(32);
        let data = raw & 0xFFFF_FFFF;
        let cw = code.encode(data);
        let b1 = b1 % code.codeword_bits();
        let b2 = b2 % code.codeword_bits();
        prop_assume!(b1 != b2);
        prop_assert_eq!(code.decode(cw ^ (1u128 << b1) ^ (1u128 << b2)), DecodeOutcome::DoubleError);
    }

    #[test]
    fn ecc_register_survives_interleaved_single_flips(ops in proptest::collection::vec((any::<u64>(), any::<u32>()), 1..40)) {
        let mut reg = EccRegister::new(64);
        reg.store(0);
        for (value, bit) in ops {
            reg.store(value);
            reg.inject_flip(bit % 72);
            // One flip between stores: always corrected.
            prop_assert_eq!(reg.load(), LoadOutcome::Value(value));
        }
    }

    // ---------------- USIG ----------------

    #[test]
    fn usig_counters_are_unique_and_sequential(seed in any::<u64>(), msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..50)) {
        let ring = KeyRing::provision(seed, 1);
        let mut usig = Usig::new(UsigId(0), ring, Box::new(manycore_resilience::hw::PlainRegister::new(64)));
        let mut window = UiWindow::new();
        let mut last = 0u64;
        for msg in &msgs {
            let ui = usig.create_ui(msg).unwrap();
            prop_assert_eq!(ui.counter, last + 1);
            prop_assert!(usig.verify_ui(UsigId(0), &ui, msg));
            prop_assert!(window.accept(&ui));
            prop_assert!(!window.accept(&ui), "replay must be rejected");
            last = ui.counter;
        }
    }

    #[test]
    fn trinc_attestation_intervals_never_overlap(advances in proptest::collection::vec(1u64..100, 1..30)) {
        let key = MacKey::derive(3, "trinc-prop");
        let mut t = TrInc::new(0, key.clone());
        let c = t.create_counter();
        let mut cursor = 0u64;
        let mut last_end = 0u64;
        for (i, step) in advances.iter().enumerate() {
            cursor += step;
            let msg = format!("m{i}");
            let att = t.attest(c, cursor, msg.as_bytes()).unwrap();
            prop_assert!(att.old >= last_end, "intervals must not overlap");
            prop_assert_eq!(att.new, cursor);
            let ok = TrInc::verify(&key, &att, msg.as_bytes());
            prop_assert!(ok);
            last_end = att.new;
        }
        // Any rollback attempt is refused.
        prop_assert!(t.attest(c, cursor.saturating_sub(1), b"rollback").is_err());
    }

    #[test]
    fn a2m_content_verification_is_exact(values in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..20), tamper_idx in 0usize..20) {
        let key = MacKey::derive(4, "a2m-prop");
        let mut a2m = A2m::new(0, key.clone());
        let log = a2m.create_log();
        for v in &values {
            a2m.append(log, v).unwrap();
        }
        let cert = a2m.end(log).unwrap();
        let refs: Vec<&[u8]> = values.iter().map(|v| v.as_slice()).collect();
        prop_assert!(A2m::verify_content(&key, &cert, &refs));
        // Tampering with any one entry breaks verification.
        let idx = tamper_idx % values.len();
        let mut tampered = values.clone();
        tampered[idx].push(0xFF);
        let trefs: Vec<&[u8]> = tampered.iter().map(|v| v.as_slice()).collect();
        prop_assert!(!A2m::verify_content(&key, &cert, &trefs));
        // Truncation breaks it too.
        prop_assert!(!A2m::verify_content(&key, &cert, &refs[..refs.len() - 1]));
    }

    #[test]
    fn broadcast_is_consistent_under_any_sender_behavior(n in 2u32..8, kind in 0u8..3, k in 0usize..8) {
        let behavior = match kind {
            0 => SenderBehavior::Correct,
            1 => SenderBehavior::PartialSend(k),
            _ => SenderBehavior::Equivocate,
        };
        let report = run_broadcast(n, b"payload", behavior);
        prop_assert!(report.consistent, "no two correct receivers may disagree");
        // Anyone who delivered, delivered the genuine payload.
        for d in report.delivered.iter().flatten() {
            prop_assert_eq!(d.as_slice(), b"payload");
        }
        // Completeness: if any receiver delivered, relays reach everyone.
        if report.delivered.iter().any(|d| d.is_some()) {
            prop_assert!(report.complete);
        }
    }

    #[test]
    fn usig_rejects_cross_message_certificates(seed in any::<u64>(), m1 in proptest::collection::vec(any::<u8>(), 1..64), m2 in proptest::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(m1 != m2);
        let ring = KeyRing::provision(seed, 2);
        let mut u0 = Usig::new(UsigId(0), ring.clone(), Box::new(manycore_resilience::hw::PlainRegister::new(64)));
        let u1 = Usig::new(UsigId(1), ring, Box::new(manycore_resilience::hw::PlainRegister::new(64)));
        let ui = u0.create_ui(&m1).unwrap();
        prop_assert!(u1.verify_ui(UsigId(0), &ui, &m1));
        prop_assert!(!u1.verify_ui(UsigId(0), &ui, &m2));
    }
}

// Protocol safety properties get fewer, heavier cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pbft_safe_under_any_single_fault_config(seed in 1u64..1000, byz_replica in 0u32..4, byz_kind in 0u8..4) {
        let cfg = RunConfig {
            f: 1,
            clients: 1,
            requests_per_client: 5,
            seed,
            max_cycles: 20_000_000,
            ..Default::default()
        };
        let mut cluster = PbftCluster::new(&cfg);
        let behavior = match byz_kind {
            0 => Behavior::Crashed,
            1 => Behavior::Silent,
            2 => Behavior::Equivocate,
            _ => Behavior::CrashAt(seed % 400),
        };
        cluster.set_script(ReplicaId(byz_replica), behavior.into());
        let report = run(&mut cluster, &cfg);
        prop_assert!(report.safety_ok, "seed={} replica={} kind={}", seed, byz_replica, byz_kind);
        prop_assert_eq!(report.committed, 5);
    }

    #[test]
    fn minbft_safe_under_any_single_fault_config(seed in 1u64..1000, byz_replica in 0u32..3, byz_kind in 0u8..4) {
        let cfg = RunConfig {
            f: 1,
            clients: 1,
            requests_per_client: 5,
            seed,
            max_cycles: 20_000_000,
            ..Default::default()
        };
        let mut cluster = MinBftCluster::new(&cfg);
        let behavior = match byz_kind {
            0 => Behavior::Crashed,
            1 => Behavior::Silent,
            2 => Behavior::ForgeUi,
            _ => Behavior::CrashAt(seed % 400),
        };
        cluster.set_script(ReplicaId(byz_replica), behavior.into());
        let report = run(&mut cluster, &cfg);
        prop_assert!(report.safety_ok, "seed={} replica={} kind={}", seed, byz_replica, byz_kind);
        prop_assert_eq!(report.committed, 5);
    }

    #[test]
    fn noc_event_queue_matches_reference_model(
        seed in any::<u64>(), w in 2u16..8, h in 2u16..8, pkts in 1usize..60,
        fault_permille in 0u32..150, adaptive in any::<bool>(),
        hop_cycles in 1u32..4, tight_budget in 1u64..30,
    ) {
        let fault_rate = fault_permille as f64 / 1000.0;
        // The slab + next-event-time queue engine must be observably
        // identical to the retain-loop specification: same packets
        // delivered and dropped, at the same cycles, in the same order,
        // with the same hop counts — under contention, dead links, and
        // staggered injection.
        let mesh = Mesh2d::new(w, h);
        let routing = if adaptive { Routing::FaultAdaptive { max_misroutes: 8 } } else { Routing::Xy };
        let config = NetworkConfig { routing, hop_cycles, ..Default::default() };
        let mut fast = Network::new(mesh, config.clone());
        let mut reference = manycore_resilience::noc::ReferenceNetwork::new(mesh, config);
        let mut rng = manycore_resilience::sim::SimRng::new(seed);
        for link in mesh.links() {
            if rng.chance(fault_rate) {
                fast.kill_link(link);
                reference.kill_link(link);
            }
        }
        // Staggered injection: half up front, a few ticks, then the rest —
        // exercises slot reuse against fresh injections.
        let pairs: Vec<(NodeId, NodeId)> = (0..pkts)
            .map(|_| {
                let s = NodeId(rng.below(mesh.node_count() as u64) as u16);
                let d = NodeId(rng.below(mesh.node_count() as u64) as u16);
                (s, d)
            })
            .collect();
        let (first, second) = pairs.split_at(pkts / 2);
        for &(s, d) in first {
            fast.inject(s, d, 1);
            reference.inject(s, d, 1);
        }
        for _ in 0..3 {
            fast.tick();
            reference.tick();
        }
        for &(s, d) in second {
            fast.inject(s, d, 1);
            reference.inject(s, d, 1);
        }
        // A tight budget first: the budget-crossing tick must behave
        // identically in both models (it executes iff it started within
        // budget), then drain to completion.
        let fast_elapsed = fast.drain(tight_budget);
        let ref_elapsed = reference.drain(tight_budget);
        prop_assert_eq!(fast_elapsed, ref_elapsed, "budget semantics diverged");
        prop_assert_eq!(fast.in_flight(), reference.in_flight(), "post-budget population");
        fast.drain(100_000);
        reference.drain(100_000);
        let fast_deliveries: Vec<(u64, u64, u32)> =
            fast.stats().delivered.iter().map(|d| (d.at, d.packet.0, d.hops)).collect();
        let ref_deliveries: Vec<(u64, u64, u32)> =
            reference.delivered.iter().map(|d| (d.at, d.packet.0, d.hops)).collect();
        prop_assert_eq!(fast_deliveries, ref_deliveries, "delivery sequences diverged");
        let fast_drops: Vec<(u64, u64, bool)> =
            fast.stats().dropped.iter().map(|d| (d.at, d.packet.0, d.dead_end)).collect();
        let ref_drops: Vec<(u64, u64, bool)> =
            reference.dropped.iter().map(|d| (d.at, d.packet.0, d.dead_end)).collect();
        prop_assert_eq!(fast_drops, ref_drops, "drop sequences diverged");
        prop_assert_eq!(fast.in_flight(), reference.in_flight());
    }

    #[test]
    fn noc_delivers_everything_on_a_healthy_mesh(seed in any::<u64>(), w in 2u16..8, h in 2u16..8, pkts in 1usize..40) {
        let mesh = Mesh2d::new(w, h);
        let mut net = Network::new(mesh, NetworkConfig { routing: Routing::Xy, ..Default::default() });
        let mut rng = manycore_resilience::sim::SimRng::new(seed);
        for _ in 0..pkts {
            let s = NodeId(rng.below(mesh.node_count() as u64) as u16);
            let d = NodeId(rng.below(mesh.node_count() as u64) as u16);
            net.inject(s, d, 1);
        }
        net.drain(1_000_000);
        prop_assert_eq!(net.stats().delivered.len(), pkts);
        prop_assert!(net.stats().dropped.is_empty());
        // Every delivery takes at least the Manhattan distance.
        for d in &net.stats().delivered {
            prop_assert!(d.hops as u64 <= 2 * (w + h) as u64);
        }
    }
}

// ---------------- batching / pipelining equivalence ----------------
//
// Batching and client pipelining must be pure performance transforms:
// for any request schedule, a batched+windowed run and an unbatched
// closed-loop run commit the same operations, keep the safety checker
// green, and leave every replica's state machine at the identical digest
// — across all three protocol modes. (Request payloads are a pure
// function of (seed, client, seq) and each op writes its own key, so
// differently interleaved runs execute the same op set to the same final
// state.) The batched run is executed twice with the epoch-tokenized
// flush timers: the repeat must be bit-identical, pinning down that
// partial-batch flush timing is deterministic under pipelined clients.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pbft_batching_preserves_state_and_safety(
        seed in 1u64..5_000, clients in 1u32..=5, reqs in 1u64..=5, batch in 2usize..=8,
        window in 1usize..=4,
    ) {
        let base = RunConfig {
            f: 1, clients, requests_per_client: reqs, seed,
            max_cycles: 20_000_000, ..Default::default()
        };
        let batched_cfg = RunConfig {
            batch_size: batch, batch_flush: 80, client_window: window, ..base.clone()
        };
        let mut plain = PbftCluster::new(&base);
        let r1 = run(&mut plain, &base);
        let mut batched = PbftCluster::new(&batched_cfg);
        let r2 = run(&mut batched, &batched_cfg);
        // Flush-timing determinism: an identical batched+windowed run
        // reproduces the exact trace (duration, messages, commits).
        let mut batched_again = PbftCluster::new(&batched_cfg);
        let r2b = run(&mut batched_again, &batched_cfg);
        prop_assert_eq!(r2.committed, r2b.committed);
        prop_assert_eq!(r2.messages_total, r2b.messages_total);
        prop_assert_eq!(r2.duration_cycles, r2b.duration_cycles);
        prop_assert_eq!(r1.committed, clients as u64 * reqs);
        prop_assert_eq!(r2.committed, clients as u64 * reqs);
        prop_assert!(r1.safety_ok && r2.safety_ok, "safety checker must accept both runs");
        for (a, b) in plain.nodes().iter().zip(batched.nodes()) {
            prop_assert_eq!(a.state_digest(), b.state_digest(), "replica {} diverged", a.id());
        }
    }

    #[test]
    fn minbft_batching_preserves_state_and_safety(
        seed in 1u64..5_000, clients in 1u32..=5, reqs in 1u64..=5, batch in 2usize..=8,
        window in 1usize..=4,
    ) {
        let base = RunConfig {
            f: 1, clients, requests_per_client: reqs, seed,
            max_cycles: 20_000_000, ..Default::default()
        };
        let batched_cfg = RunConfig {
            batch_size: batch, batch_flush: 80, client_window: window, ..base.clone()
        };
        let mut plain = MinBftCluster::new(&base);
        let r1 = run(&mut plain, &base);
        let mut batched = MinBftCluster::new(&batched_cfg);
        let r2 = run(&mut batched, &batched_cfg);
        // Flush-timing determinism: an identical batched+windowed run
        // reproduces the exact trace (duration, messages, commits).
        let mut batched_again = MinBftCluster::new(&batched_cfg);
        let r2b = run(&mut batched_again, &batched_cfg);
        prop_assert_eq!(r2.committed, r2b.committed);
        prop_assert_eq!(r2.messages_total, r2b.messages_total);
        prop_assert_eq!(r2.duration_cycles, r2b.duration_cycles);
        prop_assert_eq!(r1.committed, clients as u64 * reqs);
        prop_assert_eq!(r2.committed, clients as u64 * reqs);
        prop_assert!(r1.safety_ok && r2.safety_ok, "safety checker must accept both runs");
        for (a, b) in plain.nodes().iter().zip(batched.nodes()) {
            prop_assert_eq!(a.state_digest(), b.state_digest(), "replica {} diverged", a.id());
        }
        // Authentication is amortized, never inflated, by batching.
        let macs = |c: &MinBftCluster| ClusterStats::of(c).mac_ops;
        prop_assert!(macs(&batched) <= macs(&plain), "batching must not add MAC work");
    }

    #[test]
    fn passive_batching_preserves_state_and_safety(
        seed in 1u64..5_000, clients in 1u32..=5, reqs in 1u64..=5, batch in 2usize..=8,
        window in 1usize..=4,
    ) {
        let base = RunConfig {
            f: 1, clients, requests_per_client: reqs, seed,
            max_cycles: 20_000_000, ..Default::default()
        };
        let batched_cfg = RunConfig {
            batch_size: batch, batch_flush: 80, client_window: window, ..base.clone()
        };
        let mut plain = PassiveCluster::new(&base);
        let r1 = run(&mut plain, &base);
        let mut batched = PassiveCluster::new(&batched_cfg);
        let r2 = run(&mut batched, &batched_cfg);
        // Flush-timing determinism: an identical batched+windowed run
        // reproduces the exact trace (duration, messages, commits).
        let mut batched_again = PassiveCluster::new(&batched_cfg);
        let r2b = run(&mut batched_again, &batched_cfg);
        prop_assert_eq!(r2.committed, r2b.committed);
        prop_assert_eq!(r2.messages_total, r2b.messages_total);
        prop_assert_eq!(r2.duration_cycles, r2b.duration_cycles);
        prop_assert_eq!(r1.committed, clients as u64 * reqs);
        prop_assert_eq!(r2.committed, clients as u64 * reqs);
        prop_assert!(r1.safety_ok && r2.safety_ok, "safety checker must accept both runs");
        for (a, b) in plain.nodes().iter().zip(batched.nodes()) {
            prop_assert_eq!(a.state_digest(), b.state_digest(), "replica {} diverged", a.id());
        }
    }
}

// ---------------- dense-state churn equivalence (PR 5) ----------------
//
// The open-addressed `OpIndex` must behave exactly like a `BTreeMap`
// reference model under *adversarial churn*: random interleavings of
// insert / overwrite / remove / lookup, including the regimes the
// PR 4 unit tests only probe pointwise — probe chains running through
// tombstones, tombstone graves being reused by later inserts, and a
// growth rehash landing while graves are still outstanding
// (tombstone-reuse-then-rehash). After every batch the full canonical
// view and every individual lookup must agree with the model.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn op_index_churn_matches_btreemap_reference(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u64>()), 1..400),
        rehash_burst in 0usize..200,
    ) {
        use manycore_resilience::bft::api::{ClientId, OpId};
        use manycore_resilience::bft::dense::OpIndex;
        use std::collections::BTreeMap;

        let key = |c: u32, s: u64| OpId { client: ClientId(c % 7), seq: s % 97 };
        let mut dense: OpIndex<u64> = OpIndex::new();
        let mut model: BTreeMap<(u32, u64), u64> = BTreeMap::new();

        let check_key = |dense: &OpIndex<u64>, model: &BTreeMap<(u32, u64), u64>, k: OpId| {
            let m = model.get(&(k.client.0, k.seq)).copied();
            prop_assert_eq!(dense.get(&k).copied(), m, "lookup diverged at {:?}", k);
            prop_assert_eq!(dense.contains_key(&k), m.is_some());
            Ok(())
        };

        for (i, &(kind, c, s)) in ops.iter().enumerate() {
            let k = key(c, s);
            match kind % 4 {
                // Insert / overwrite (reuses the first grave on the chain).
                0 | 1 => {
                    let old_dense = dense.insert(k, i as u64);
                    let old_model = model.insert((k.client.0, k.seq), i as u64);
                    prop_assert_eq!(old_dense, old_model, "displaced value diverged");
                }
                // Remove (leaves a tombstone in the dense table).
                2 => {
                    let got = dense.remove(&k);
                    let want = model.remove(&(k.client.0, k.seq));
                    prop_assert_eq!(got, want, "removed value diverged");
                }
                // Lookup-only step.
                _ => check_key(&dense, &model, k)?,
            }
            prop_assert_eq!(dense.len(), model.len(), "len diverged at step {}", i);
        }

        // Tombstone-reuse-then-rehash interleaving: carve graves into the
        // current table, refill some (grave reuse), then slam in a burst
        // large enough to force a growth rehash while graves remain.
        let keys: Vec<OpId> = model.keys().map(|&(c, s)| OpId { client: ClientId(c), seq: s }).collect();
        for (j, k) in keys.iter().enumerate() {
            if j % 3 == 0 {
                prop_assert_eq!(dense.remove(k).is_some(), model.remove(&(k.client.0, k.seq)).is_some());
            }
        }
        for (j, k) in keys.iter().enumerate() {
            if j % 6 == 0 {
                dense.insert(*k, 7_000 + j as u64);
                model.insert((k.client.0, k.seq), 7_000 + j as u64);
            }
        }
        for j in 0..rehash_burst {
            let k = OpId { client: ClientId(1_000 + (j % 5) as u32), seq: j as u64 };
            dense.insert(k, j as u64);
            model.insert((k.client.0, k.seq), j as u64);
        }

        // Full-state equivalence: canonical iteration equals the model's
        // sorted order, and every key (live or dead) resolves identically.
        let canon: Vec<(u32, u64, u64)> =
            dense.iter_canonical().iter().map(|(k, v)| (k.client.0, k.seq, **v)).collect();
        let want: Vec<(u32, u64, u64)> = model.iter().map(|(&(c, s), &v)| (c, s, v)).collect();
        prop_assert_eq!(canon, want, "canonical views diverged after churn");
        for k in keys {
            check_key(&dense, &model, k)?;
        }
        prop_assert_eq!(dense.len(), model.len());
    }
}

// ---------------- the paged Merkle state tree ----------------
//
// `KvStore` keeps its pairs in a paged Merkle radix tree whose root is
// the certified state digest. Against a `BTreeMap` reference, over keys
// built to collide (the empty key, keys that are prefixes of one
// another, 0x00 and 0xFF bytes, and 160 keys under one prefix so pages
// split going up and collapse coming down), after **every** command:
// the reply, the size and the snapshot bytes are the reference's, and
// the incrementally maintained root is the root of a store rebuilt from
// those bytes from scratch. At the end: the root does not depend on the
// order the contents arrived in, and a clone taken on the way never
// moved.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kv_store_tracks_a_btreemap_reference_and_its_root_is_canonical(
        ops in proptest::collection::vec((0u8..8, any::<u32>(), any::<u8>()), 1..500),
        clone_at in 0usize..500,
    ) {
        use manycore_resilience::bft::statemachine::{KvStore, StateMachine};
        use std::collections::BTreeMap;

        let key_of = |a: u32| -> Vec<u8> {
            if a.is_multiple_of(4) {
                let alphabet = [0x00u8, b'a', 0xFF];
                (0..(a >> 2) % 5).map(|i| alphabet[(a >> (5 + 2 * i)) as usize % 3]).collect()
            } else {
                format!("p/{}", (a >> 2) % 160).into_bytes()
            }
        };
        // Every length a minimal LEB128 varint: seven bits a byte, low
        // first, the top bit on every byte but the last.
        let framing = |model: &BTreeMap<Vec<u8>, Vec<u8>>| {
            let mut out = Vec::new();
            for (k, v) in model {
                for chunk in [k, v] {
                    let mut len = chunk.len();
                    while len >= 0x80 {
                        out.push(len as u8 | 0x80);
                        len >>= 7;
                    }
                    out.push(len as u8);
                    out.extend_from_slice(chunk);
                }
            }
            out
        };
        let command = |op: &[u8], key: &[u8], value: Option<&[u8]>| {
            let mut c = [op, b" ", key].concat();
            if let Some(value) = value {
                c.push(b' ');
                c.extend_from_slice(value);
            }
            c
        };

        let mut kv = KvStore::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut retained = None;
        for (i, &(kind, a, v)) in ops.iter().enumerate() {
            if i == clone_at % ops.len() {
                retained = Some((kv.clone(), kv.state_digest(), kv.snapshot()));
            }
            let key = key_of(a);
            // Writes dominate the first half, deletes the second.
            let deletes = if i < ops.len() / 2 { 1 } else { 4 };
            let (reply, expected) = if kind == 7 {
                let expected = model.get(&key).cloned().unwrap_or_else(|| b"(nil)".to_vec());
                (kv.apply(&command(b"GET", &key, None)), expected)
            } else if kind < deletes {
                let expected = if model.remove(&key).is_some() { b"1" } else { b"0" };
                (kv.apply(&command(b"DEL", &key, None)), expected.to_vec())
            } else {
                let value = vec![v; v as usize % 20];
                let reply = kv.apply(&command(b"SET", &key, Some(&value)));
                (reply, model.insert(key, value).unwrap_or_else(|| b"(nil)".to_vec()))
            };
            prop_assert_eq!(&*reply, &expected, "reply diverged at step {}", i);
            prop_assert_eq!(kv.len(), model.len());
            let snapshot = kv.snapshot();
            prop_assert_eq!(&snapshot, &framing(&model), "snapshot diverged at step {}", i);
            let rebuilt = KvStore::install_snapshot(&snapshot).expect("own snapshot");
            prop_assert_eq!(rebuilt.state_digest(), kv.state_digest(), "root drifted at step {}", i);
        }

        // History independence: the same contents, written in key order
        // and in reverse key order into fresh stores.
        for reverse in [false, true] {
            let mut pairs: Vec<_> = model.iter().collect();
            if reverse {
                pairs.reverse();
            }
            let mut fresh = KvStore::new();
            for (k, v) in pairs {
                fresh.apply(&command(b"SET", k, Some(v)));
            }
            prop_assert_eq!(fresh.state_digest(), kv.state_digest());
        }
        // Copy-on-write isolation.
        let (clone, digest, bytes) = retained.expect("clone_at is within the run");
        prop_assert_eq!(clone.state_digest(), digest);
        prop_assert_eq!(clone.snapshot(), bytes);
    }
}

// ---------------- certified checkpoints (PR 7) ----------------
//
// Checkpoint digests are the protocols' *common knowledge*: at every
// certificate boundary, all correct replicas that crossed it must have
// vouched for byte-identical state digests — otherwise certificates
// could never form (the quorum groups by digest), and a state transfer
// could install a snapshot some replicas would dispute. For any
// fault-free schedule, any protocol, and any batch regime, every pair of
// replicas must agree on the digest at every watermark both reached.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn checkpoint_digests_agree_at_every_boundary(
        seed in 1u64..5_000, clients in 1u32..=4, reqs in 2u64..=6, big_batch in any::<bool>(),
        proto in 0u8..3,
    ) {
        let cfg = RunConfig {
            f: 1, clients, requests_per_client: reqs, seed,
            batch_size: if big_batch { 8 } else { 1 }, batch_flush: 80,
            checkpoint_interval: 2, max_cycles: 20_000_000,
            ..Default::default()
        };
        let histories: Vec<Vec<(u64, [u8; 32])>> = match proto {
            0 => {
                let mut c = PbftCluster::new(&cfg);
                let r = run(&mut c, &cfg);
                prop_assert!(r.safety_ok);
                prop_assert_eq!(r.committed, clients as u64 * reqs);
                c.nodes().iter().map(|n| n.checkpoint_history().to_vec()).collect()
            }
            1 => {
                let mut c = MinBftCluster::new(&cfg);
                let r = run(&mut c, &cfg);
                prop_assert!(r.safety_ok);
                prop_assert_eq!(r.committed, clients as u64 * reqs);
                c.nodes().iter().map(|n| n.checkpoint_history().to_vec()).collect()
            }
            _ => {
                let mut c = PassiveCluster::new(&cfg);
                let r = run(&mut c, &cfg);
                prop_assert!(r.safety_ok);
                prop_assert_eq!(r.committed, clients as u64 * reqs);
                c.nodes().iter().map(|n| n.checkpoint_history().to_vec()).collect()
            }
        };
        // Enough ops ran for at least one watermark everywhere.
        prop_assert!(
            histories.iter().any(|h| !h.is_empty()),
            "no certificate ever stabilised (proto={})", proto
        );
        // Every watermark two replicas both certified carries the same
        // digest — across ALL pairs, at EVERY boundary.
        for (i, a) in histories.iter().enumerate() {
            for (j, b) in histories.iter().enumerate().skip(i + 1) {
                for (seq, da) in a {
                    for (seq_b, db) in b {
                        if seq == seq_b {
                            prop_assert_eq!(
                                da, db,
                                "replicas {} and {} disagree at watermark {} (proto={})",
                                i, j, seq, proto
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------- dense-state slot GC (PR 4) ----------------
//
// The dense rework anchors each replica's agreement slots in a window at
// the execution watermark: executed sequence numbers are *retired* — a
// late or replayed message for one must be rejected outright, never
// resurrected into a fresh-looking slot (which would re-enter agreement,
// pollute the op→slot index, and emit spurious votes). These properties
// complement the digest-equivalence suites above (which pin that the
// dense engines commit the same operations to the same state as before):
// here a completed cluster is poked directly with below-watermark
// messages and must stay silent and unchanged — across all three
// protocols.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pbft_retired_slots_reject_stale_proposals(
        seed in 1u64..5_000, clients in 1u32..=4, reqs in 1u64..=5, batch in 1usize..=4,
        stale_seq in 1u64..=3,
    ) {
        use manycore_resilience::bft::api::{Batch, ClientId, Endpoint, Input, OpId, Outbox, Request};
        use manycore_resilience::bft::pbft::PbftMsg;
        use std::sync::Arc;

        let cfg = RunConfig {
            f: 1, clients, requests_per_client: reqs, seed, batch_size: batch,
            batch_flush: 80, max_cycles: 20_000_000, ..Default::default()
        };
        let mut cluster = PbftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        prop_assert_eq!(report.committed, clients as u64 * reqs);
        let stale_seq = stale_seq.min(reqs); // an agreement slot that executed
        let digests: Vec<[u8; 32]> = cluster.nodes().iter().map(|n| n.state_digest()).collect();
        let logs: Vec<usize> = cluster.nodes().iter().map(|n| n.committed_log().len()).collect();

        // Replay a proposal for the executed slot at a backup (replica 1),
        // from the legitimate primary endpoint, in the current view (0:
        // the run was fault-free). A resurrected slot would accept the
        // digest and broadcast a Prepare; a retired slot stays silent.
        let evil_batch = Arc::new(Batch::new(vec![Arc::new(Request {
            op: OpId { client: ClientId(0), seq: 1 },
            payload: b"SET k0.1 hijacked".to_vec(),
        })]));
        let backup = &mut cluster.nodes_mut()[1];
        let mut out = Outbox::new();
        backup.on_input(
            Input::Message {
                from: Endpoint::Replica(ReplicaId(0)),
                msg: PbftMsg::PrePrepare { view: 0, seq: stale_seq, batch: evil_batch.clone() },
            },
            1, &mut out,
        );
        prop_assert!(out.msgs.is_empty(), "stale pre-prepare must be rejected silently");
        // Stale votes for the retired slot are equally inert.
        let mut out = Outbox::new();
        backup.on_input(
            Input::Message {
                from: Endpoint::Replica(ReplicaId(2)),
                msg: PbftMsg::Prepare { view: 0, seq: stale_seq, digest: evil_batch.digest() },
            },
            2, &mut out,
        );
        backup.on_input(
            Input::Message {
                from: Endpoint::Replica(ReplicaId(2)),
                msg: PbftMsg::Commit { view: 0, seq: stale_seq, digest: evil_batch.digest() },
            },
            3, &mut out,
        );
        prop_assert!(out.msgs.is_empty(), "stale votes must be rejected silently");
        for (node, (d, l)) in cluster.nodes().iter().zip(digests.iter().zip(&logs)) {
            prop_assert_eq!(&node.state_digest(), d, "state mutated by stale messages");
            prop_assert_eq!(&node.committed_log().len(), l, "log grew from stale messages");
        }
    }

    #[test]
    fn minbft_executed_ops_answer_from_dedup_not_reagreement(
        seed in 1u64..5_000, clients in 1u32..=4, reqs in 1u64..=5, batch in 1usize..=4,
    ) {
        use manycore_resilience::bft::api::{ClientId, Endpoint, Input, OpId, Outbox, Request};
        use manycore_resilience::bft::minbft::MinBftMsg;
        use manycore_resilience::bft::ShellMsg;
        use std::sync::Arc;

        let cfg = RunConfig {
            f: 1, clients, requests_per_client: reqs, seed, batch_size: batch,
            batch_flush: 80, max_cycles: 20_000_000, ..Default::default()
        };
        let mut cluster = MinBftCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        prop_assert_eq!(report.committed, clients as u64 * reqs);
        let log_before = cluster.nodes()[0].committed_log().len();
        let digest_before = cluster.nodes()[0].state_digest();

        // A client retry for an executed op must be answered from its
        // client's session window (one Reply, the kept result) without
        // re-entering agreement — the retired slot cannot be reused.
        let op = OpId { client: ClientId(0), seq: 1 };
        let primary = &mut cluster.nodes_mut()[0];
        let mut out = Outbox::new();
        primary.on_input(
            Input::Message {
                from: Endpoint::Client(ClientId(0)),
                msg: MinBftMsg::Request(Arc::new(Request { op, payload: b"retry".to_vec() })),
            },
            1, &mut out,
        );
        prop_assert_eq!(out.msgs.len(), 1, "exactly one cached reply, no re-proposal");
        match &out.msgs[0] {
            (Endpoint::Client(c), MinBftMsg::Shell(ShellMsg::Reply(r))) => {
                prop_assert_eq!(*c, ClientId(0));
                prop_assert_eq!(r.op, op);
            }
            other => prop_assert!(false, "expected a cached Reply, got {other:?}"),
        }
        prop_assert_eq!(cluster.nodes()[0].committed_log().len(), log_before);
        prop_assert_eq!(cluster.nodes()[0].state_digest(), digest_before);
    }

    #[test]
    fn passive_backup_rejects_replayed_state_updates(
        seed in 1u64..5_000, clients in 1u32..=4, reqs in 1u64..=5, batch in 1usize..=4,
    ) {
        use manycore_resilience::bft::api::{ClientId, Endpoint, Input, OpId, Outbox, Request};
        use manycore_resilience::bft::passive::PassiveMsg;
        use std::sync::Arc;

        let cfg = RunConfig {
            f: 1, clients, requests_per_client: reqs, seed, batch_size: batch,
            batch_flush: 80, max_cycles: 20_000_000, ..Default::default()
        };
        let mut cluster = PassiveCluster::new(&cfg);
        let report = run(&mut cluster, &cfg);
        prop_assert_eq!(report.committed, clients as u64 * reqs);
        let log_before = cluster.nodes()[1].committed_log().len();
        let digest_before = cluster.nodes()[1].state_digest();

        // Replay a state update for log sequence 1 (long applied) with
        // *different* content: the held-back window watermark must reject
        // it — re-applying would corrupt the mirrored log.
        let backup = &mut cluster.nodes_mut()[1];
        let mut out = Outbox::new();
        backup.on_input(
            Input::Message {
                from: Endpoint::Replica(ReplicaId(0)),
                msg: PassiveMsg::StateUpdate {
                    epoch: 0,
                    first_seq: 1,
                    ops: Box::new([Arc::new(Request {
                        op: OpId { client: ClientId(9), seq: 999 },
                        payload: b"SET k9.999 forged".to_vec(),
                    })]),
                },
            },
            1, &mut out,
        );
        prop_assert_eq!(cluster.nodes()[1].committed_log().len(), log_before);
        prop_assert_eq!(cluster.nodes()[1].state_digest(), digest_before);
    }
}

// ---------------- latency histogram merges ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Merging per-part histograms in any partition order equals the
    /// histogram of all samples recorded in one place — sparse encoding
    /// included.
    #[test]
    fn histogram_merge_is_partition_invariant(
        samples in proptest::collection::vec(any::<u64>(), 1..400),
        cuts in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let mut whole = LogHistogram::new();
        for &s in &samples {
            whole.record(s);
        }
        // Partition the sample stream at the (sorted, deduped) cut points.
        let mut bounds: Vec<usize> =
            cuts.iter().map(|c| (*c % samples.len() as u64) as usize).collect();
        bounds.push(0);
        bounds.push(samples.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut merged = LogHistogram::new();
        for w in bounds.windows(2) {
            let mut part = LogHistogram::new();
            for &s in &samples[w[0]..w[1]] {
                part.record(s);
            }
            merged.merge(&part);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.to_sparse(), whole.to_sparse());
        prop_assert_eq!(merged.quantile(0.999), whole.quantile(0.999));
    }
}
