//! The campaign module's contracts, over a small campaign of real
//! clusters and over the shared argument parser:
//!
//! - shard files stitched in any order reproduce the whole-run record
//!   byte for byte, and a missing cell, a repeated cell or shards whose
//!   headers disagree are refused;
//! - a `--scenario` subset runs its cells with the full grid's seeds;
//! - a flag a binary does not honour exits 2 before anything is written
//!   or spawned.

use std::process::Command;

use rsoc_bench::campaign::{self, Axes, Campaign, Cell, Column, Coord};
use rsoc_bench::{ExpOptions, Flags};
use rsoc_bft::api::{Cluster, ClusterStats};
use rsoc_bft::runner::{run, RunConfig};
use rsoc_bft::Protocol;
use serde::Serialize;
use serde_json::Value;

struct Toy;

struct ToySpec(&'static str, &'static [Protocol]);

#[derive(Serialize)]
struct ToyRow {
    spec: &'static str,
    protocol: &'static str,
    batch_size: usize,
    seed: u64,
    replicas: usize,
    committed: u64,
    mac_ops: u64,
    safety_ok: bool,
}

impl Campaign for Toy {
    const NAME: &'static str = "toy";
    const RECORD: &'static str = "BENCH_toy.json";
    const TITLE: &'static str = "toy";
    const COLUMNS: &'static [Column<ToyRow>] = &[("spec", |r| r.spec.into())];
    const SHAPE: &'static str = "";
    type Spec = ToySpec;
    type Row = ToyRow;

    fn specs(&self) -> Vec<ToySpec> {
        vec![ToySpec("all", Protocol::ALL), ToySpec("bft", Protocol::BFT)]
    }

    fn axes(spec: &ToySpec) -> Axes {
        Axes { name: spec.0, protocols: spec.1, batches: &[1, 4] }
    }

    fn seed(at: Coord, _: usize) -> u64 {
        at.xor_seed(0x70_0000)
    }

    fn config(&self, cell: &Cell<ToySpec>) -> RunConfig {
        RunConfig::builder()
            .f(1)
            .clients(2)
            .requests_per_client(3)
            .seed(cell.seed)
            .batch_size(cell.batch)
            .build()
    }

    fn run<C: Cluster>(&self, cell: &Cell<ToySpec>, cfg: &RunConfig, cluster: &mut C) -> ToyRow {
        let report = run(cluster, cfg);
        ToyRow {
            spec: cell.spec.0,
            protocol: cell.protocol.name(),
            batch_size: cell.batch,
            seed: cell.seed,
            replicas: cluster.nodes().len(),
            committed: report.committed,
            mac_ops: ClusterStats::of(cluster).mac_ops,
            safety_ok: report.safety_ok,
        }
    }

    fn check(&self, _: &Cell<ToySpec>, row: &ToyRow) -> Result<(), String> {
        row.safety_ok.then_some(()).ok_or_else(|| format!("{} unsafe", row.protocol))
    }

    fn header(&self, _: bool, specs: usize, cells: usize) -> String {
        format!(",\"specs\":{specs},\"grid_cells\":{cells}")
    }

    fn trailer(&self, rows: &[Value]) -> String {
        let committed: u64 = rows.iter().filter_map(|r| r["committed"].as_u64()).sum();
        format!(",\"committed\":{committed}")
    }
}

fn rows(quick: bool) -> Vec<String> {
    let specs = Toy.specs();
    campaign::grid::<Toy>(&specs, None, quick)
        .iter()
        .map(|cell| serde_json::to_string(&campaign::run_cell(&Toy, cell)).expect("row"))
        .collect()
}

fn shards(rows: &[String], n: usize, quick: bool) -> Vec<String> {
    (0..n)
        .map(|i| {
            let mine: Vec<String> = rows.iter().skip(i).step_by(n).cloned().collect();
            campaign::shard_text(&Toy, quick, (i, n), &mine)
        })
        .collect()
}

#[test]
fn stitched_shards_reproduce_the_whole_record_in_any_order() {
    let rows = rows(false);
    let whole = campaign::record(&Toy, false, &rows);
    assert!(whole.starts_with(
        r#"{"experiment":"toy","schema_version":1,"quick":false,"specs":2,"grid_cells":10,"rows":[{"spec":"all","protocol":"pbft","batch_size":1,"seed":7340032,"#
    ));
    assert!(whole.ends_with(r#""safety_ok":true}],"committed":60}"#), "{whole}");
    campaign::verify(&Toy, &whole).expect("whole record verifies");
    for n in 1..=4 {
        let mut parts = shards(&rows, n, false);
        for _ in 0..n {
            assert_eq!(campaign::stitch(&Toy, &parts).as_ref(), Ok(&whole), "{n} shards");
            parts.rotate_left(1);
        }
        parts.reverse();
        assert_eq!(campaign::stitch(&Toy, &parts).as_ref(), Ok(&whole), "{n} shards reversed");
    }
}

#[test]
fn stitch_refuses_a_missing_or_repeated_cell_and_disagreeing_headers() {
    let rows = rows(false);
    let parts = shards(&rows, 3, false);
    let cover = "shards must cover every grid cell exactly once";
    assert_eq!(campaign::stitch(&Toy, &parts[..2]), Err(cover.into()));
    let short = parts[0].rsplit_once('\n').expect("a row line").0.to_string();
    assert_eq!(
        campaign::stitch(&Toy, &[short, parts[1].clone(), parts[2].clone()]),
        Err(cover.into())
    );
    let repeated = [parts.clone(), vec![parts[1].clone()]].concat();
    assert_eq!(campaign::stitch(&Toy, &repeated), Err(cover.into()));

    let quick = shards(&rows, 3, true);
    let mixed = [parts[0].clone(), quick[1].clone(), parts[2].clone()];
    assert_eq!(campaign::stitch(&Toy, &mixed), Err("shard headers disagree".into()));
    let whole = campaign::record(&Toy, false, &rows);
    assert!(campaign::stitch(&Toy, &[whole]).is_err(), "a whole record is not a shard");
    let forged_tag = format!("\"1/{}\"", usize::MAX);
    let forged = parts[0].lines().next().expect("header").replace("\"0/3\"", &forged_tag);
    let forged = format!("{forged}\n{}\n{}", rows[0], rows[1]);
    assert_eq!(campaign::stitch(&Toy, &[forged]), Err(cover.into()), "index overflow");
    let foreign = parts[0].replacen("\"toy\"", "\"f5_scenarios\"", 1);
    assert!(campaign::stitch(&Toy, &[foreign]).unwrap_err().starts_with("not a toy shard"));
}

#[test]
fn verify_refuses_a_record_that_lost_a_cell() {
    let rows = rows(false);
    let short = campaign::record(&Toy, false, &rows[1..]);
    assert_eq!(campaign::verify(&Toy, &short), Err("9 rows for a 10-cell grid".into()));
}

#[test]
fn a_scenario_subset_runs_the_full_grids_cells() {
    let specs = Toy.specs();
    let full = campaign::grid::<Toy>(&specs, None, false);
    let subset = campaign::grid::<Toy>(&specs, Some("bft"), false);
    assert_eq!(full.len(), 10);
    assert_eq!(subset.iter().map(|c| c.index).collect::<Vec<_>>(), [6, 7, 8, 9]);
    for cell in &subset {
        let twin = &full[cell.index];
        assert_eq!((cell.seed, cell.protocol, cell.batch), (twin.seed, twin.protocol, twin.batch));
    }
    assert_eq!(subset[3].seed, 0x70_1101);
}

const ALL: Flags = Flags { shard: true, scenario: true };
const NONE: Flags = Flags { shard: false, scenario: false };

#[test]
fn parser_accepts_every_documented_invocation() {
    let o = ExpOptions::parse(&["--quick", "--jobs", "4", "--json"], NONE).expect("base flags");
    assert!(o.quick && o.json && o.jobs == 4);
    assert_eq!(ExpOptions::parse(&["--jobs", "0"], NONE).map(|o| o.jobs), Ok(1));
    let o = ExpOptions::parse(&["--quick", "--shard", "1/2"], ALL).expect("shard");
    assert_eq!(o.shard, Some((1, 2)));
    let o = ExpOptions::parse(&["--quick", "--jobs", "2", "--scenario", "drop_storm"], ALL);
    assert_eq!(o.expect("scenario").scenario.as_deref(), Some("drop_storm"));
    assert!(ExpOptions::parse(&["--list"], ALL).expect("list").list);
    let o = ExpOptions::parse(&["--stitch", "out.json", "a.jsonl", "b.jsonl"], ALL);
    assert_eq!(
        o.expect("stitch").stitch,
        Some(vec!["out.json".into(), "a.jsonl".into(), "b.jsonl".into()])
    );
    let o = ExpOptions::parse::<&str>(&[], NONE).expect("no flags");
    assert_eq!(o, ExpOptions { jobs: rsoc_bench::default_jobs(), ..ExpOptions::default() });
}

#[test]
fn parser_refuses_what_the_binary_cannot_honour() {
    let shard_only = Flags { shard: true, scenario: false };
    let refused: &[(&[&str], Flags, &str)] = &[
        (&["--quick", "--scenaro", "drop_storm"], ALL, "unknown argument: --scenaro"),
        (&["--bogus"], NONE, "unknown argument: --bogus"),
        (&["--scenario"], ALL, "--scenario needs a value"),
        (&["--jobs"], NONE, "--jobs needs a value"),
        (&["--jobs", "four"], NONE, "--jobs needs a positive integer"),
        (&["--shard", "2/2"], ALL, "--shard needs i/N"),
        (&["--shard", "0/2"], NONE, "--shard is not supported"),
        (&["--stitch", "out", "a"], NONE, "--stitch is not supported"),
        (&["--scenario", "mesh"], shard_only, "--scenario is not supported"),
        (&["--list"], shard_only, "--list is not supported"),
        (&["--shard", "0/2", "--scenario", "x"], ALL, "does not combine with --scenario"),
        (&["--quick", "--stitch", "out", "a"], ALL, "takes the whole command line"),
        (&["--stitch", "out"], ALL, "takes the whole command line"),
    ];
    for &(args, flags, why) in refused {
        let err = ExpOptions::parse(args, flags).expect_err(&format!("{args:?} accepted"));
        assert!(err.contains(why), "{args:?}: {err}");
    }
}

#[test]
fn refused_flags_exit_2_before_anything_is_written() {
    let dir = std::env::temp_dir().join(format!("rsoc_campaign_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases: &[(&str, &[&str])] = &[
        (env!("CARGO_BIN_EXE_f5_scenarios"), &["--scenaro", "x"]),
        (env!("CARGO_BIN_EXE_f5_scenarios"), &["--quick", "--scenario", "no_such_scenario"]),
        (env!("CARGO_BIN_EXE_f6_recovery"), &["--scenario"]),
        (env!("CARGO_BIN_EXE_f2_batching"), &["--list"]),
        (env!("CARGO_BIN_EXE_f7_chaos"), &["--clients", "abc"]),
        (env!("CARGO_BIN_EXE_f7_chaos"), &["--requests"]),
        (env!("CARGO_BIN_EXE_transport_smoke"), &["--clients", "abc"]),
        (env!("CARGO_BIN_EXE_transport_smoke"), &["--requests"]),
        (env!("CARGO_BIN_EXE_transport_smoke"), &["--bogus"]),
    ];
    for &(bin, args) in cases {
        let out = Command::new(bin).args(args).current_dir(&dir).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
        assert!(written.is_empty(), "{bin} {args:?} wrote {written:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
