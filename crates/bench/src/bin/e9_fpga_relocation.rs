//! E9 — Spatial rejuvenation vs grid-fabric backdoors (§II-C, §II-E).
//!
//! Claim: "FPGAs allow for even smarter techniques, e.g., to rejuvenate to
//! diverse softcore variants that are loaded in different FPGA spatial
//! locations, which can avoid potential backdoors in the FPGA grid fabric."
//!
//! Scenario: a fabric with hidden backdoored frames (density sweep). A
//! softcore runs for E epochs; a block spending an epoch on a backdoored
//! frame is compromised that epoch (and the operator notices with
//! probability q, learning to avoid those frames). Policies: fixed
//! placement, random relocation each epoch, avoidance relocation
//! (random + blacklist of discovered frames).

use rsoc_bench::{f3, ExpOptions, Table};
use rsoc_crypto::MacKey;
use rsoc_fpga::{Bitstream, FpgaFabric, FrameId, Icap, Principal, ReconfigEngine, Region};
use rsoc_sim::SimRng;
use serde::Serialize;
use std::collections::BTreeSet;

#[derive(Serialize)]
struct Row {
    policy: &'static str,
    backdoor_density: f64,
    compromised_epoch_frac: f64,
    max_compromised_streak: f64,
    reconfig_cycles_per_epoch: f64,
}

const FRAME_WORDS: usize = 4;
const BLOCK: u64 = 1;
const BLOCK_FRAMES: u32 = 2;
const EPOCHS: u32 = 40;
const DETECT_PROB: f64 = 0.6;

#[derive(Clone, Copy, PartialEq)]
enum PolicyKind {
    Fixed,
    Random,
    Avoidance,
}

fn run_campaign(policy: PolicyKind, density: f64, rng: &mut SimRng) -> (f64, f64, f64) {
    let key = MacKey::derive(0xE9, "bs");
    let mut fabric = FpgaFabric::new(8, 8, FRAME_WORDS);
    fabric.plant_backdoors(density, rng);
    let mut icap = Icap::new(key.clone());
    icap.allow(Principal(0), Region::new(0, 64));
    let mut engine = ReconfigEngine::new(fabric, icap);

    // Initial placement at a random free region.
    let choices = engine.fabric().free_regions(BLOCK_FRAMES);
    let region = *rng.choose(&choices).expect("fabric has room");
    let bs = Bitstream::for_variant(1, region, FRAME_WORDS, &key);
    let receipt = engine.reconfigure(Principal(0), region, &bs, BLOCK).expect("initial config");
    let mut cycles = receipt.cycles as f64;

    let mut blacklist: BTreeSet<u32> = BTreeSet::new();
    let mut compromised_epochs = 0u32;
    let mut streak = 0u32;
    let mut max_streak = 0u32;
    for _ in 0..EPOCHS {
        let here = engine.fabric().block_region(BLOCK).expect("placed");
        if engine.fabric().region_backdoored(here) {
            compromised_epochs += 1;
            streak += 1;
            max_streak = max_streak.max(streak);
            if policy == PolicyKind::Avoidance && rng.chance(DETECT_PROB) {
                for f in here.frames() {
                    blacklist.insert(f.0);
                }
            }
        } else {
            streak = 0;
        }
        match policy {
            PolicyKind::Fixed => {}
            PolicyKind::Random | PolicyKind::Avoidance => {
                let mut options: Vec<Region> = engine.fabric().free_regions(BLOCK_FRAMES);
                if policy == PolicyKind::Avoidance {
                    options.retain(|r| r.frames().all(|f: FrameId| !blacklist.contains(&f.0)));
                }
                if let Some(dest) = rng.choose(&options).copied() {
                    if let Ok(receipt) = engine.relocate(Principal(0), BLOCK, dest) {
                        cycles += receipt.cycles as f64;
                    }
                }
            }
        }
    }
    (compromised_epochs as f64 / EPOCHS as f64, max_streak as f64, cycles / EPOCHS as f64)
}

fn main() {
    let options = ExpOptions::from_args();
    let trials = options.trials(300);
    let root = SimRng::new(0xE9);

    let mut table = Table::new(
        "E9 softcore on a backdoored grid: placement policy vs compromised-epoch fraction",
        &["policy", "density", "compromised_frac", "max_streak", "reconf_cyc/epoch"],
    );
    // Cell grid: density × policy, with per-trial RNG streams forked from
    // the root by cell indices — independent, so the sweep fans out.
    let policies = [
        ("fixed", PolicyKind::Fixed),
        ("random-reloc", PolicyKind::Random),
        ("avoidance-reloc", PolicyKind::Avoidance),
    ];
    let cells: Vec<(usize, f64, usize, &'static str, PolicyKind)> = [0.02f64, 0.05, 0.10, 0.20]
        .iter()
        .enumerate()
        .flat_map(|(di, d)| {
            policies
                .iter()
                .enumerate()
                .map(move |(pi, (name, policy))| (di, *d, pi, *name, *policy))
        })
        .collect();
    let sums = rsoc_bench::run_cells(&cells, options.jobs, |&(di, density, pi, _, policy)| {
        let mut frac_sum = 0.0;
        let mut streak_sum = 0.0;
        let mut cyc_sum = 0.0;
        for t in 0..trials {
            let mut rng = root.fork((di * 10 + pi) as u64 * 1_000_000 + t);
            let (frac, streak, cyc) = run_campaign(policy, density, &mut rng);
            frac_sum += frac;
            streak_sum += streak;
            cyc_sum += cyc;
        }
        (frac_sum, streak_sum, cyc_sum)
    });
    for (&(_, density, _, name, _), &(frac_sum, streak_sum, cyc_sum)) in cells.iter().zip(&sums) {
        let n = trials as f64;
        table.row(
            &[
                name.to_string(),
                f3(density),
                f3(frac_sum / n),
                format!("{:.1}", streak_sum / n),
                format!("{:.0}", cyc_sum / n),
            ],
            &Row {
                policy: name,
                backdoor_density: density,
                compromised_epoch_frac: frac_sum / n,
                max_compromised_streak: streak_sum / n,
                reconfig_cycles_per_epoch: cyc_sum / n,
            },
        );
    }
    table.print(options.json);
    println!(
        "\nExpected shape (paper §II-C/E): fixed placement and random\n\
         relocation have the same *mean* exposure (≈ per-region backdoor\n\
         probability), but fixed placement concentrates it: when the initial\n\
         region is backdoored the block is owned for the whole mission\n\
         (max_streak ≈ all epochs), while relocation breaks the streaks into\n\
         short windows. Avoidance relocation additionally *learns* bad frames\n\
         and pushes the mean exposure itself down — the paper's spatial-\n\
         rejuvenation argument — at a constant reconfiguration cost."
    );
}
