//! One campaign path: grid → run → judge → record.
//!
//! A *campaign* is a grid of seeded cells — spec × protocol × batch —
//! whose rows form a committed `BENCH_*.json` record. A campaign binary
//! is a [`Campaign`] impl (its spec table, its row type, a row oracle and
//! its table columns) handed to [`main`], the one path every campaign
//! takes:
//!
//! 1. parse the command line ([`ExpOptions`]; anything the campaign does
//!    not honour exits 2 before a cell runs or a file is written);
//! 2. enumerate the grid in canonical order ([`grid`]): every cell keeps
//!    the index and seed it has in the unfiltered grid, so a `--scenario`
//!    subset replays exactly the full grid's cells;
//! 3. build each cell's cluster ([`Protocol::build`], the workspace's
//!    only `match` that constructs clusters) and run it;
//! 4. judge every row with the campaign's oracle and print the table;
//! 5. write the whole grid's record ([`record`]), re-read it and
//!    [`verify`] what landed. A `--scenario` subset writes nothing.

use std::fs;

use rsoc_bft::api::Cluster;
use rsoc_bft::runner::RunConfig;
use rsoc_bft::{ClusterJob, Protocol};
use serde::Serialize;
use serde_json::Value;

use crate::{run_cells, usage_error, ExpOptions, Table};

/// Where a spec sits in the grid: its name and the protocols and batch
/// sizes it crosses, each in grid order.
#[derive(Debug, Clone, Copy)]
pub struct Axes {
    /// The name `--scenario` selects and `--list` prints.
    pub name: &'static str,
    /// Protocols the spec runs on.
    pub protocols: &'static [Protocol],
    /// Batch sizes the spec runs at.
    pub batches: &'static [usize],
}

/// A table column: its header and how a row fills it.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// A cell's position in the unfiltered grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coord {
    /// Index into the spec table.
    pub spec: usize,
    /// Index into the spec's protocols.
    pub protocol: usize,
    /// Index into the spec's batch sizes.
    pub batch: usize,
}

impl Coord {
    /// `base ^ spec << 12 ^ protocol << 8 ^ batch`: a pure function of
    /// the position, never a shared sequential stream.
    pub fn xor_seed(self, base: u64) -> u64 {
        base ^ ((self.spec as u64) << 12) ^ ((self.protocol as u64) << 8) ^ (self.batch as u64)
    }
}

/// One cell of a campaign grid.
#[derive(Debug)]
pub struct Cell<'a, S> {
    /// Canonical index in the unfiltered grid.
    pub index: usize,
    /// The spec-table entry.
    pub spec: &'a S,
    /// The protocol.
    pub protocol: Protocol,
    /// The batch size.
    pub batch: usize,
    /// The seed [`Campaign::seed`] gives this position.
    pub seed: u64,
    /// `--quick`: scale the workload with [`quick_trials`](crate::quick_trials).
    pub quick: bool,
}

/// A campaign: its spec table, row type, row oracle and table columns.
pub trait Campaign: Sync {
    /// Binary name, recorded as the record's `"experiment"`.
    const NAME: &'static str;
    /// The record a whole run writes.
    const RECORD: &'static str;
    /// Whether the specs are scenarios `--scenario` and `--list` name.
    const NAMED: bool = true;
    /// Table title.
    const TITLE: &'static str;
    /// Table columns.
    const COLUMNS: &'static [Column<Self::Row>];
    /// What the table should show, printed after a run.
    const SHAPE: &'static str;

    /// A spec-table entry.
    type Spec: Sync;
    /// A recorded row.
    type Row: Serialize + Send + 'static;

    /// The spec table, in canonical order.
    fn specs(&self) -> Vec<Self::Spec>;
    /// The spec's place in the grid.
    fn axes(spec: &Self::Spec) -> Axes;
    /// The seed of the cell at `at`, whose batch size is `batch`.
    fn seed(at: Coord, batch: usize) -> u64;
    /// The cell's run configuration.
    fn config(&self, cell: &Cell<Self::Spec>) -> RunConfig;
    /// Runs the cell on `cluster`, built from `cfg`, and records its row.
    fn run<C: Cluster>(
        &self,
        cell: &Cell<Self::Spec>,
        cfg: &RunConfig,
        cluster: &mut C,
    ) -> Self::Row;
    /// The row oracle: why the cell's row fails, if it does.
    fn check(&self, cell: &Cell<Self::Spec>, row: &Self::Row) -> Result<(), String>;
    /// The record's own header members, between `quick` and `rows`, as
    /// JSON text (`,"name":value…`).
    fn header(&self, quick: bool, specs: usize, cells: usize) -> String;
    /// Members after `rows` (`,"name":value…`), from the parsed rows.
    fn trailer(&self, _rows: &[Value]) -> String {
        String::new()
    }
    /// Acceptance of the whole record beyond [`verify`]'s per-row checks.
    fn audit(&self, _record: &Value) -> Result<(), String> {
        Ok(())
    }
}

/// The grid in canonical order (spec × protocol × batch), keeping only
/// the spec named `only` when given. Indices and seeds are those of the
/// unfiltered grid.
pub fn grid<'a, K: Campaign>(
    specs: &'a [K::Spec],
    only: Option<&str>,
    quick: bool,
) -> Vec<Cell<'a, K::Spec>> {
    let mut cells = Vec::new();
    let mut index = 0;
    for (si, spec) in specs.iter().enumerate() {
        let axes = K::axes(spec);
        for (pi, &protocol) in axes.protocols.iter().enumerate() {
            for (bi, &batch) in axes.batches.iter().enumerate() {
                if only.is_none_or(|name| name == axes.name) {
                    let seed = K::seed(Coord { spec: si, protocol: pi, batch: bi }, batch);
                    cells.push(Cell { index, spec, protocol, batch, seed, quick });
                }
                index += 1;
            }
        }
    }
    cells
}

fn grid_size<K: Campaign>(campaign: &K) -> usize {
    campaign.specs().iter().map(K::axes).map(|a| a.protocols.len() * a.batches.len()).sum()
}

/// Runs one cell: builds its cluster, runs it and records its row.
pub fn run_cell<K: Campaign>(campaign: &K, cell: &Cell<K::Spec>) -> K::Row {
    struct Job<'a, K: Campaign>(&'a K, &'a Cell<'a, K::Spec>, &'a RunConfig);
    impl<K: Campaign> ClusterJob for Job<'_, K> {
        type Output = K::Row;
        fn run<C: Cluster>(self, mut cluster: C) -> K::Row {
            self.0.run(self.1, self.2, &mut cluster)
        }
    }
    let cfg = campaign.config(cell);
    cell.protocol.build(&cfg, Job(campaign, cell, &cfg))
}

/// A campaign binary's `main`.
///
/// # Panics
/// If a row fails its oracle (after the table is printed, before any
/// file is written) or the record fails [`verify`].
pub fn main<K: Campaign>(campaign: K) {
    let o = ExpOptions::from_args_with(K::NAMED);
    let specs = campaign.specs();
    let names: Vec<&str> = specs.iter().map(|s| K::axes(s).name).collect();
    if o.list {
        return names.iter().for_each(|name| println!("{name}"));
    }
    if let Some(name) = o.scenario.as_deref().filter(|n| !names.contains(n)) {
        usage_error(&format!("unknown scenario {name:?}; use --list"), K::NAMED);
    }

    let cells = grid::<K>(&specs, o.scenario.as_deref(), o.quick);
    let rows = run_cells(&cells, o.jobs, |c| run_cell(&campaign, c));
    let mut table = Table::new(K::TITLE, &K::COLUMNS.iter().map(|c| c.0).collect::<Vec<_>>());
    let mut failures = Vec::new();
    for (cell, row) in cells.iter().zip(&rows) {
        table.row(&K::COLUMNS.iter().map(|(_, column)| column(row)).collect::<Vec<_>>(), row);
        failures.extend(campaign.check(cell, row).err());
    }
    table.print(o.json);
    assert!(failures.is_empty(), "{} cell(s) failed:\n  {}", failures.len(), failures.join("\n  "));

    // A subset is for one CI log group; only the whole grid records.
    if o.scenario.is_none() {
        write_verified(&campaign, K::RECORD, &record(&campaign, o.quick, &rows));
    }
    println!("\n{}", K::SHAPE);
}

/// The whole-run record from the grid's rows, in canonical order.
pub fn record<K: Campaign>(campaign: &K, quick: bool, rows: &[K::Row]) -> String {
    let fields = campaign.header(quick, campaign.specs().len(), grid_size(campaign));
    let texts: Vec<String> =
        rows.iter().map(|r| serde_json::to_string(r).expect("serialize row")).collect();
    let rows = texts.join(",");
    let parsed: Value = serde_json::from_str(&format!("[{rows}]")).expect("serialized rows parse");
    let trailer = campaign.trailer(parsed.as_array().map_or(&[], Vec::as_slice));
    let head = format!("{{\"experiment\":\"{}\",\"schema_version\":1,\"quick\":{quick}", K::NAME);
    format!("{head}{fields},\"rows\":[{rows}]{trailer}}}")
}

/// Checks a record: one row per grid cell, no row failed, broke safety
/// or lost commits from its histogram, then [`Campaign::audit`].
///
/// # Errors
/// The first check that fails.
pub fn verify<K: Campaign>(campaign: &K, doc: &str) -> Result<(), String> {
    let record: Value = serde_json::from_str(doc).map_err(|_| "record is not valid JSON")?;
    let rows = record["rows"].as_array().ok_or("record has no rows array")?;
    if rows.len() != grid_size(campaign) {
        return Err(format!("{} rows for a {}-cell grid", rows.len(), grid_size(campaign)));
    }
    let failed = |r: &&Value| [&r["pass"], &r["safety_ok"]].contains(&&Value::Bool(false));
    if let Some(row) = rows.iter().find(failed) {
        return Err(format!("failed cell recorded: {row:?}"));
    }
    rows.iter().find_map(hist_inconsistency).map_or_else(|| campaign.audit(&record), Err)
}

/// Writes `doc` to `path`, re-reads it and [`verify`]s what landed.
fn write_verified<K: Campaign>(campaign: &K, path: &str, doc: &str) {
    fs::write(path, doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let reread = fs::read_to_string(path).unwrap_or_else(|e| panic!("re-read {path}: {e}"));
    verify(campaign, &reread).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("\nwrote {path} ({} cells, validated)", grid_size(campaign));
}

/// Histogram self-consistency: a row carrying a sparse latency histogram
/// (`hist_bucket_indices` / `hist_bucket_counts`) must account for every
/// committed op — ragged arrays or a count-sum ≠ `committed` means the
/// row lost commits on their way into the record. Rows without histogram
/// fields are skipped.
fn hist_inconsistency(row: &Value) -> Option<String> {
    let counts = row["hist_bucket_counts"].as_array()?;
    let (indices, buckets) =
        (row["hist_bucket_indices"].as_array().map_or(0, Vec::len), counts.len());
    if indices != buckets {
        return Some(format!("ragged histogram: {indices} bucket indices vs {buckets} counts"));
    }
    let sum: u64 = counts.iter().filter_map(Value::as_u64).sum();
    let committed = row["committed"].as_u64();
    let shown = committed.map_or("missing".into(), |c| c.to_string());
    (committed != Some(sum)).then(|| format!("histogram sums to {sum} but committed is {shown}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_histogram_passes_and_rows_without_one_are_skipped() {
        let good: Value = serde_json::from_str(
            r#"{"protocol": "pbft", "committed": 10,
                "hist_bucket_indices": [3, 7], "hist_bucket_counts": [4, 6]}"#,
        )
        .unwrap();
        assert_eq!(hist_inconsistency(&good), None);
        // Earlier campaigns carry no histogram: not an inconsistency.
        let legacy: Value =
            serde_json::from_str(r#"{"protocol": "pbft", "ops_per_kcycle": 1.5}"#).unwrap();
        assert_eq!(hist_inconsistency(&legacy), None);
    }

    #[test]
    fn histogram_not_summing_to_committed_is_flagged() {
        let short: Value = serde_json::from_str(
            r#"{"protocol": "pbft", "committed": 10,
                "hist_bucket_indices": [3, 7], "hist_bucket_counts": [4, 5]}"#,
        )
        .unwrap();
        let why = hist_inconsistency(&short).expect("lost commit must be flagged");
        assert!(why.contains("sums to 9"), "{why}");

        let ragged: Value = serde_json::from_str(
            r#"{"protocol": "pbft", "committed": 4,
                "hist_bucket_indices": [3], "hist_bucket_counts": [3, 1]}"#,
        )
        .unwrap();
        let why = hist_inconsistency(&ragged).expect("ragged arrays must be flagged");
        assert!(why.contains("ragged"), "{why}");

        let no_committed: Value = serde_json::from_str(
            r#"{"protocol": "pbft",
                "hist_bucket_indices": [3], "hist_bucket_counts": [3]}"#,
        )
        .unwrap();
        assert!(hist_inconsistency(&no_committed).is_some());
    }
}
