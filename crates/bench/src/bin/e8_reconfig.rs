//! E8 — Resilient reconfiguration: voted vs direct privilege change
//! (§II-E, paper's citation \[55\]).
//!
//! Claim: "privilege change must remain a trusted operation executed
//! consensually and enforced by a trusted-trustworthy component."
//!
//! Scenario: k kernel replicas manage the fabric; c of them are
//! compromised and try to install a malicious bitstream. Baseline: each
//! kernel holds a direct ICAP grant (and the signing key). Resilient: only
//! the vote-gate principal can write; operations need a quorum of votes.
//! Metric: contamination rate (malicious block ends up enabled).

use rsoc_bench::{f3, ExpOptions, Table};
use rsoc_crypto::MacKey;
use rsoc_fpga::{Bitstream, FpgaFabric, Icap, Principal, ReconfigEngine, Region};
use rsoc_soc::{PrivilegeGate, PrivilegedOp, Vote};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mode: &'static str,
    kernels: u32,
    compromised: u32,
    contaminated: bool,
    legit_ops_ok: bool,
}

const FRAME_WORDS: usize = 4;
const MALICIOUS_BLOCK: u64 = 0xBAD;

/// Direct-grant baseline: every kernel may write everywhere and knows the
/// signing key (it must, to install legitimate updates).
fn direct_mode(kernels: u32, compromised: u32) -> (bool, bool) {
    let key = MacKey::derive(0xE8, "bitstreams");
    let mut icap = Icap::new(key.clone());
    for k in 0..kernels {
        icap.allow(Principal(k), Region::new(0, 16));
    }
    let mut engine = ReconfigEngine::new(FpgaFabric::new(4, 4, FRAME_WORDS), icap);
    // A legitimate update by kernel 0 (assume kernel 0 correct when c < kernels).
    let legit_region = Region::new(0, 2);
    let legit = Bitstream::for_variant(1, legit_region, FRAME_WORDS, &key);
    let legit_ok = engine.reconfigure(Principal(0), legit_region, &legit, 1).is_ok();
    // Every compromised kernel tries to install its implant.
    let mut contaminated = false;
    for c in 0..compromised {
        let region = Region::new(4 + c * 2, 2);
        let evil = Bitstream::for_variant(0xBAD0 + c as u64, region, FRAME_WORDS, &key);
        if engine
            .reconfigure(Principal(kernels - 1 - c), region, &evil, MALICIOUS_BLOCK + c as u64)
            .is_ok()
        {
            contaminated = true;
        }
    }
    (contaminated, legit_ok)
}

/// Voted mode: only the gate writes; quorum = majority of kernels.
fn voted_mode(kernels: u32, compromised: u32) -> (bool, bool) {
    let key = MacKey::derive(0xE8, "bitstreams");
    let mut icap = Icap::new(key.clone());
    icap.allow(PrivilegeGate::GATE_PRINCIPAL, Region::new(0, 16));
    let mut engine = ReconfigEngine::new(FpgaFabric::new(4, 4, FRAME_WORDS), icap);
    let threshold = (kernels / 2 + 1) as usize;
    let mut gate = PrivilegeGate::new(0xE8, kernels, threshold);

    let correct: Vec<u32> = (0..kernels - compromised).collect();
    let bad: Vec<u32> = (kernels - compromised..kernels).collect();

    // Legitimate update: correct kernels vote for it (compromised abstain —
    // worst case for liveness).
    let legit_region = Region::new(0, 2);
    let legit_op = PrivilegedOp::Reconfigure {
        region: legit_region,
        block: 1,
        bitstream: Bitstream::for_variant(1, legit_region, FRAME_WORDS, &key),
    };
    let votes: Vec<Vote> =
        correct.iter().map(|k| Vote::sign(*k, gate.kernel_key(*k).unwrap(), &legit_op)).collect();
    let legit_ok = gate.execute(&mut engine, &legit_op, &votes).is_ok();

    // Attack: compromised kernels vote for the implant; they also forge
    // votes in correct kernels' names (without those keys).
    let region = Region::new(8, 2);
    let evil_op = PrivilegedOp::Reconfigure {
        region,
        block: MALICIOUS_BLOCK,
        bitstream: Bitstream::for_variant(0xBAD0, region, FRAME_WORDS, &key),
    };
    let mut evil_votes: Vec<Vote> =
        bad.iter().map(|k| Vote::sign(*k, gate.kernel_key(*k).unwrap(), &evil_op)).collect();
    for k in &correct {
        // Forgery attempt with a guessed key.
        evil_votes.push(Vote::sign(*k, &MacKey::derive(999, "guess"), &evil_op));
    }
    let contaminated = gate.execute(&mut engine, &evil_op, &evil_votes).is_ok()
        // Bypass attempt at the raw ICAP.
        || engine
            .reconfigure(Principal(bad.first().copied().unwrap_or(0)), region,
                &Bitstream::for_variant(0xBAD0, region, FRAME_WORDS, &key), MALICIOUS_BLOCK)
            .is_ok();
    (contaminated, legit_ok)
}

fn main() {
    let options = ExpOptions::from_args();
    let mut table = Table::new(
        "E8 malicious reconfiguration: direct grants vs voted privilege gate",
        &["mode", "kernels", "compromised", "contaminated", "legit_ok"],
    );
    // Deterministic scenario grid: kernels × compromised × mode.
    type ModeFn = fn(u32, u32) -> (bool, bool);
    let cells: Vec<(u32, u32, &'static str, ModeFn)> = [3u32, 5]
        .into_iter()
        .flat_map(|kernels| {
            (0..=(kernels / 2)).flat_map(move |compromised| {
                [("direct", direct_mode as ModeFn), ("voted", voted_mode as ModeFn)]
                    .into_iter()
                    .map(move |(mode, f)| (kernels, compromised, mode, f))
            })
        })
        .collect();
    let outcomes = rsoc_bench::run_cells(&cells, options.jobs, |&(kernels, compromised, _, f)| {
        f(kernels, compromised)
    });
    for (&(kernels, compromised, mode, _), &(contaminated, legit_ok)) in cells.iter().zip(&outcomes)
    {
        table.row(
            &[
                mode.to_string(),
                kernels.to_string(),
                compromised.to_string(),
                contaminated.to_string(),
                legit_ok.to_string(),
            ],
            &Row { mode, kernels, compromised, contaminated, legit_ops_ok: legit_ok },
        );
    }
    table.print(options.json);
    let _ = f3(0.0);
    println!(
        "\nExpected shape (paper §II-E / [55]): with direct grants a single\n\
         compromised kernel contaminates the fabric; behind the voted gate\n\
         any minority of compromised kernels achieves nothing — votes can't\n\
         be forged, duplicated, or replayed onto other operations, and the\n\
         raw-ICAP bypass dies at the ACL — while legitimate quorum\n\
         operations continue."
    );
}
