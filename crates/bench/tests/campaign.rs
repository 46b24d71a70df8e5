//! The campaign module's contracts, over a small campaign of real
//! clusters and over the shared argument parser:
//!
//! - the whole-run record keeps its layout and verifies, and a record
//!   that lost a cell or a commit, or holds a failed row, is refused;
//! - a `--scenario` subset runs its cells with the full grid's seeds;
//! - a flag a binary does not honour exits 2 before anything is written
//!   or spawned.

use std::process::Command;

use rsoc_bench::campaign::{self, Axes, Campaign, Cell, Column, Coord};
use rsoc_bench::ExpOptions;
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

fn rows() -> Vec<ToyRow> {
    let specs = Toy.specs();
    campaign::grid::<Toy>(&specs, None, false)
        .iter()
        .map(|cell| campaign::run_cell(&Toy, cell))
        .collect()
}

#[test]
fn the_whole_record_keeps_its_layout_and_verifies() {
    let whole = campaign::record(&Toy, false, &rows());
    assert!(whole.starts_with(
        r#"{"experiment":"toy","schema_version":1,"quick":false,"specs":2,"grid_cells":10,"rows":[{"spec":"all","protocol":"pbft","batch_size":1,"seed":7340032,"#
    ));
    assert!(whole.ends_with(r#""safety_ok":true}],"committed":60}"#), "{whole}");
    campaign::verify(&Toy, &whole).expect("whole record verifies");
}

/// Every refusal of [`campaign::verify`], each on the whole record with
/// one thing broken: a lost cell, a failed or an unsafe row, a histogram
/// that lost a commit, and ragged histogram arrays. Each toy row commits 6.
#[test]
fn verify_refuses_a_record_that_lost_a_cell() {
    let rows = rows();
    let whole = campaign::record(&Toy, false, &rows);
    let first_row =
        |fields: &str| whole.replacen(r#"{"spec""#, &format!(r#"{{{fields},"spec""#), 1);
    let hist = |indices: &str, counts: &str| {
        first_row(&format!(r#""hist_bucket_indices":[{indices}],"hist_bucket_counts":[{counts}]"#))
    };
    campaign::verify(&Toy, &hist("3,7", "2,4")).expect("a histogram summing to 6 verifies");
    let refused = [
        (campaign::record(&Toy, false, &rows[1..]), "9 rows for a 10-cell grid"),
        (first_row(r#""pass":false"#), "failed cell recorded"),
        (whole.replacen(r#""safety_ok":true"#, r#""safety_ok":false"#, 1), "failed cell recorded"),
        (hist("3,7", "2,3"), "histogram sums to 5 but committed is 6"),
        (hist("3", "3,3"), "ragged histogram: 1 bucket indices vs 2 counts"),
    ];
    for (doc, why) in refused {
        let err = campaign::verify(&Toy, &doc).expect_err(why);
        assert!(err.contains(why), "{why}: {err}");
    }
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

/// The `scenario` argument of [`ExpOptions::parse`]: whether `--scenario`
/// and `--list` are honoured.
const NAMED: bool = true;
const UNNAMED: bool = false;

#[test]
fn parser_accepts_every_documented_invocation() {
    let o = ExpOptions::parse(&["--quick", "--jobs", "4", "--json"], UNNAMED).expect("base flags");
    assert!(o.quick && o.json && o.jobs == 4);
    assert_eq!(ExpOptions::parse(&["--jobs", "0"], UNNAMED).map(|o| o.jobs), Ok(1));
    let o = ExpOptions::parse(&["--quick", "--jobs", "2", "--scenario", "drop_storm"], NAMED);
    assert_eq!(o.expect("scenario").scenario.as_deref(), Some("drop_storm"));
    assert!(ExpOptions::parse(&["--list"], NAMED).expect("list").list);
    let o = ExpOptions::parse::<&str>(&[], UNNAMED).expect("no flags");
    assert_eq!(o, ExpOptions { jobs: rsoc_bench::default_jobs(), ..ExpOptions::default() });
}

#[test]
fn parser_refuses_what_the_binary_cannot_honour() {
    let refused: &[(&[&str], bool, &str)] = &[
        (&["--quick", "--scenaro", "drop_storm"], NAMED, "unknown argument: --scenaro"),
        (&["--bogus"], UNNAMED, "unknown argument: --bogus"),
        (&["--scenario"], NAMED, "--scenario needs a value"),
        (&["--jobs"], UNNAMED, "--jobs needs a value"),
        (&["--jobs", "four"], UNNAMED, "--jobs needs a positive integer"),
        (&["--shard", "2/2"], NAMED, "unknown argument: --shard"),
        (&["--shard", "0/2"], UNNAMED, "unknown argument: --shard"),
        (&["--stitch", "out", "a"], UNNAMED, "unknown argument: --stitch"),
        (&["--scenario", "mesh"], UNNAMED, "--scenario is not supported"),
        (&["--list"], UNNAMED, "--list is not supported"),
        (&["--shard", "0/2", "--scenario", "x"], NAMED, "unknown argument: --shard"),
        (&["--quick", "--stitch", "out", "a"], NAMED, "unknown argument: --stitch"),
        (&["--stitch", "out"], NAMED, "unknown argument: --stitch"),
    ];
    for &(args, named, why) in refused {
        let err = ExpOptions::parse(args, named).expect_err(&format!("{args:?} accepted"));
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
        (env!("CARGO_BIN_EXE_f5_scenarios"), &["--shard", "0/2"]),
        (env!("CARGO_BIN_EXE_f8_openloop"), &["--stitch", "out", "a"]),
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
