//! Property-based tests for the reconfiguration plane: CRC-32, bitstream
//! authentication, region geometry, ICAP access control, and vote-gate
//! soundness under randomized vote sets.

use manycore_resilience::crypto::MacKey;
use manycore_resilience::fpga::{
    crc32, Bitstream, FpgaFabric, Icap, Principal, ReconfigEngine, Region,
};
use manycore_resilience::sim::SimRng;
use manycore_resilience::soc::{PrivilegeGate, PrivilegedOp, Vote};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- CRC-32 ----------------

    #[test]
    fn crc32_detects_any_single_bit_flip(data in proptest::collection::vec(any::<u8>(), 1..128), byte in 0usize..128, bit in 0u8..8) {
        let c1 = crc32(&data);
        let mut tampered = data.clone();
        let idx = byte % tampered.len();
        tampered[idx] ^= 1 << bit;
        prop_assert_ne!(c1, crc32(&tampered), "CRC-32 must catch single-bit flips");
    }

    #[test]
    fn crc32_is_a_function(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(crc32(&data), crc32(&data));
    }

    // ---------------- regions ----------------

    #[test]
    fn region_overlap_is_symmetric_and_reflexive(s1 in 0u32..60, l1 in 1u32..8, s2 in 0u32..60, l2 in 1u32..8) {
        let a = Region::new(s1, l1);
        let b = Region::new(s2, l2);
        prop_assert!(a.overlaps(&a));
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        // Overlap iff some frame is shared.
        let shared = a.frames().any(|f| b.frames().any(|g| g == f));
        prop_assert_eq!(a.overlaps(&b), shared);
    }

    // ---------------- bitstreams ----------------

    #[test]
    fn bitstream_verifies_only_at_its_region_and_key(variant in any::<u64>(), start in 0u32..8, len in 1u32..4, key_seed in any::<u64>(), other_start in 0u32..8) {
        let key = MacKey::derive(key_seed, "bs");
        let region = Region::new(start, len);
        let bs = Bitstream::for_variant(variant, region, 4, &key);
        prop_assert!(bs.verify(region, &key));
        let other = Region::new(other_start, len);
        if other != region {
            prop_assert!(!bs.verify(other, &key), "region binding");
        }
        let wrong_key = MacKey::derive(key_seed.wrapping_add(1), "bs");
        prop_assert!(!bs.verify(region, &wrong_key), "key binding");
    }

    #[test]
    fn bitstream_word_corruption_always_detected(variant in any::<u64>(), word in 0usize..8, flip in any::<u64>()) {
        prop_assume!(flip != 0);
        let key = MacKey::derive(1, "bs");
        let region = Region::new(0, 2);
        let mut bs = Bitstream::for_variant(variant, region, 4, &key);
        let idx = word % bs.words.len();
        bs.words[idx] ^= flip;
        prop_assert!(!bs.verify(region, &key));
    }

    #[test]
    fn retarget_round_trip(variant in any::<u64>(), s1 in 0u32..8, s2 in 0u32..8, len in 1u32..4) {
        let key = MacKey::derive(2, "bs");
        let from = Region::new(s1, len);
        let to = Region::new(s2, len);
        let bs = Bitstream::for_variant(variant, from, 4, &key);
        let back = bs.retarget(to, &key).retarget(from, &key);
        prop_assert_eq!(back, bs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---------------- ICAP + gate soundness ----------------

    #[test]
    fn icap_never_writes_without_a_covering_grant(grant_start in 0u32..12, grant_len in 1u32..5, write_start in 0u32..12, write_len in 1u32..5) {
        let key = MacKey::derive(3, "bs");
        let mut icap = Icap::new(key.clone());
        let grant = Region::new(grant_start, grant_len);
        icap.allow(Principal(0), grant);
        let mut fabric = FpgaFabric::new(4, 4, 4);
        let target = Region::new(write_start, write_len);
        let bs = Bitstream::for_variant(1, target, 4, &key);
        let covered = grant.start <= target.start
            && grant.start + grant.len >= target.start + target.len;
        let in_bounds = fabric.contains(target);
        let result = icap.write(&mut fabric, Principal(0), target, &bs);
        if covered && in_bounds {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }

    #[test]
    fn gate_soundness_random_vote_subsets(
        kernels in 2u32..6,
        threshold_frac in 1u32..=2,
        voters in proptest::collection::vec(0u32..8, 0..10),
        forged in proptest::collection::vec(0u32..8, 0..4),
    ) {
        let threshold = ((kernels / threshold_frac).max(1)) as usize;
        let gate = PrivilegeGate::new(5, kernels, threshold);
        let op = PrivilegedOp::RejuvenateTile { tile: manycore_resilience::soc::TileId(1) };
        let mut votes: Vec<Vote> = Vec::new();
        // Genuine votes from (possibly repeated, possibly unknown) kernels.
        for v in &voters {
            if let Some(k) = gate.kernel_key(*v) {
                votes.push(Vote::sign(*v, k, &op));
            } else {
                // Unknown kernel signs with a derived-but-wrong key.
                votes.push(Vote::sign(*v, &MacKey::derive(999, "ghost"), &op));
            }
        }
        // Forged votes in real kernels' names.
        for v in &forged {
            votes.push(Vote::sign(*v % kernels, &MacKey::derive(123, "forged"), &op));
        }
        // Ground truth: distinct known kernels with genuine signatures.
        let mut genuine: Vec<u32> = voters
            .iter()
            .copied()
            .filter(|v| *v < kernels)
            .collect();
        genuine.sort_unstable();
        genuine.dedup();
        prop_assert_eq!(
            gate.check(&op, &votes),
            genuine.len() >= threshold,
            "gate must count exactly the distinct genuine votes"
        );
    }

    #[test]
    fn reconfigure_is_atomic_under_random_failures(
        start in 0u32..14,
        len in 1u32..4,
        corrupt in proptest::bool::ANY,
    ) {
        let key = MacKey::derive(6, "bs");
        let mut icap = Icap::new(key.clone());
        icap.allow(Principal(0), Region::new(0, 16));
        let mut engine = ReconfigEngine::new(FpgaFabric::new(4, 4, 4), icap);
        let region = Region::new(start, len);
        let mut bs = Bitstream::for_variant(7, region, 4, &key);
        if corrupt {
            bs.words[0] ^= 0xFFFF;
        }
        let in_bounds = engine.fabric().contains(region);
        let result = engine.reconfigure(Principal(0), region, &bs, 1);
        match (in_bounds, corrupt) {
            (true, false) => {
                prop_assert!(result.is_ok());
                prop_assert_eq!(engine.fabric().block_region(1), Some(region));
            }
            _ => {
                prop_assert!(result.is_err());
                prop_assert_eq!(engine.fabric().block_region(1), None, "no half-enabled blocks");
            }
        }
    }
}

/// §II-C/§II-E: "rejuvenate to diverse softcore variants that are loaded in
/// different FPGA spatial locations, which can avoid potential backdoors in
/// the FPGA grid fabric". A softcore spends 40 epochs on an 8x8 fabric
/// whose frames are backdoored with probability 0.2; an epoch on a
/// backdoored frame is a compromised epoch. Relocating every epoch breaks
/// fixed placement's compromised streaks, and relocation that avoids the
/// frames it caught (each compromise is noticed with probability 0.6)
/// lowers the exposure itself. Each trial runs all three policies on the
/// same fabric.
#[test]
fn relocation_breaks_backdoor_streaks_and_avoidance_lowers_exposure() {
    #[derive(Clone, Copy, PartialEq)]
    enum Policy {
        Fixed,
        Random,
        Avoidance,
    }
    const EPOCHS: u32 = 40;
    const TRIALS: u64 = 30;
    const BLOCK: u64 = 1;
    // One mission: (compromised-epoch fraction, longest compromised streak).
    let mission = |policy: Policy, rng: &mut SimRng| {
        let key = MacKey::derive(0xE9, "bs");
        let mut fabric = FpgaFabric::new(8, 8, 4);
        fabric.plant_backdoors(0.2, rng);
        let mut icap = Icap::new(key.clone());
        icap.allow(Principal(0), Region::new(0, 64));
        let mut engine = ReconfigEngine::new(fabric, icap);
        let start = *rng.choose(&engine.fabric().free_regions(2)).expect("fabric has room");
        let bs = Bitstream::for_variant(1, start, 4, &key);
        engine.reconfigure(Principal(0), start, &bs, BLOCK).expect("initial configuration");
        let mut caught = BTreeSet::new();
        let (mut compromised, mut streak, mut max_streak) = (0u32, 0u32, 0u32);
        for _ in 0..EPOCHS {
            let here = engine.fabric().block_region(BLOCK).expect("placed");
            if engine.fabric().region_backdoored(here) {
                compromised += 1;
                streak += 1;
                max_streak = max_streak.max(streak);
                if policy == Policy::Avoidance && rng.chance(0.6) {
                    caught.extend(here.frames().map(|f| f.0));
                }
            } else {
                streak = 0;
            }
            if policy != Policy::Fixed {
                let mut options = engine.fabric().free_regions(2);
                options.retain(|r| r.frames().all(|f| !caught.contains(&f.0)));
                if let Some(&dest) = rng.choose(&options) {
                    engine
                        .relocate(Principal(0), BLOCK, dest)
                        .expect("free region inside the grant");
                }
            }
        }
        (f64::from(compromised) / f64::from(EPOCHS), f64::from(max_streak))
    };
    let root = SimRng::new(0xE9);
    let [fixed, random, avoidance] =
        [Policy::Fixed, Policy::Random, Policy::Avoidance].map(|policy| {
            let (exposure, streak) = (0..TRIALS)
                .map(|t| mission(policy, &mut root.fork(t)))
                .fold((0.0, 0.0), |(e, s), (de, ds)| (e + de, s + ds));
            (exposure / TRIALS as f64, streak / TRIALS as f64)
        });
    // (exposure, streak) today: fixed (0.233, 9.3), random (0.382, 3.6),
    // avoidance (0.281, 2.8).
    assert!(random.1 < fixed.1 / 2.0, "relocation breaks streaks: {random:?} vs fixed {fixed:?}");
    assert!(avoidance.1 < fixed.1 / 2.0, "so does avoidance: {avoidance:?} vs fixed {fixed:?}");
    assert!(
        avoidance.0 < random.0,
        "avoidance lowers exposure: {avoidance:?} vs random {random:?}"
    );
}
