//! One campaign path: grid → run → judge → record → stitch.
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
//!    subset or a `--shard` replays exactly the full grid's cells;
//! 3. build each cell's cluster ([`Protocol::build`], the workspace's
//!    only `match` that constructs clusters) and run it;
//! 4. judge every row with the campaign's oracle and print the table;
//! 5. write the record, a shard of it (`--shard i/N`), or the record
//!    stitched from shards (`--stitch OUT SHARD...`). A whole run and a
//!    stitch assemble the document through the same function, which is
//!    what makes a stitched record byte-identical to a whole run's.

use std::fs;

use rsoc_bft::api::Cluster;
use rsoc_bft::runner::RunConfig;
use rsoc_bft::{ClusterJob, Protocol};
use serde::Serialize;
use serde_json::Value;

use crate::{parse_shard, run_cells_sharded, usage_error, ExpOptions, Flags, Table};

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
    /// The record a whole run writes; shard files go next to it.
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
/// file is written), a record fails [`verify`], or a stitch is refused.
pub fn main<K: Campaign>(campaign: K) {
    let flags = Flags { shard: true, scenario: K::NAMED };
    let o = ExpOptions::from_args_with(flags);
    let specs = campaign.specs();
    if let Some(paths) = &o.stitch {
        let shards: Vec<String> = paths[1..]
            .iter()
            .map(|p| fs::read_to_string(p).unwrap_or_else(|e| panic!("read shard {p}: {e}")))
            .collect();
        let doc = stitch(&campaign, &shards).unwrap_or_else(|e| panic!("stitch refused: {e}"));
        return write_verified(&campaign, &paths[0], &doc);
    }
    let names: Vec<&str> = specs.iter().map(|s| K::axes(s).name).collect();
    if o.list {
        return names.iter().for_each(|name| println!("{name}"));
    }
    if let Some(name) = o.scenario.as_deref().filter(|n| !names.contains(n)) {
        usage_error(&format!("unknown scenario {name:?}; use --list"), flags);
    }

    let cells = grid::<K>(&specs, o.scenario.as_deref(), o.quick);
    let rows = run_cells_sharded(&cells, o.jobs, o.shard, |c| run_cell(&campaign, c));
    let mut table = Table::new(K::TITLE, &K::COLUMNS.iter().map(|c| c.0).collect::<Vec<_>>());
    let mut failures = Vec::new();
    for (c, row) in &rows {
        table.row(&K::COLUMNS.iter().map(|(_, cell)| cell(row)).collect::<Vec<_>>(), row);
        failures.extend(campaign.check(&cells[*c], row).err());
    }
    table.print(o.json);
    assert!(failures.is_empty(), "{} cell(s) failed:\n  {}", failures.len(), failures.join("\n  "));

    let texts: Vec<String> =
        rows.iter().map(|(_, r)| serde_json::to_string(r).expect("serialize row")).collect();
    match (o.shard, &o.scenario) {
        // A subset is for one CI log group; only the whole grid records.
        (_, Some(_)) => {}
        (Some((i, n)), None) => {
            let path = format!("{}.shard{i}of{n}.jsonl", K::RECORD.trim_end_matches(".json"));
            fs::write(&path, shard_text(&campaign, o.quick, (i, n), &texts))
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("\nwrote {path} ({} of {} cells)", texts.len(), grid_size(&campaign));
        }
        (None, None) => write_verified(&campaign, K::RECORD, &record(&campaign, o.quick, &texts)),
    }
    println!("\n{}", K::SHAPE);
}

/// The record's opening, everything before `,"rows"`.
fn head<K: Campaign>(campaign: &K, quick: bool) -> String {
    let fields = campaign.header(quick, campaign.specs().len(), grid_size(campaign));
    format!("{{\"experiment\":\"{}\",\"schema_version\":1,\"quick\":{quick}{fields}", K::NAME)
}

/// The one assembly of a record from its opening and row texts.
fn assemble<K: Campaign>(campaign: &K, head: &str, rows: &[String]) -> Result<String, String> {
    let rows = rows.join(",");
    let parsed = serde_json::from_str(&format!("[{rows}]")).map_err(|_| "malformed row")?;
    let trailer = campaign.trailer(parsed.as_array().map_or(&[], Vec::as_slice));
    Ok(format!("{head},\"rows\":[{rows}]{trailer}}}"))
}

/// The whole-run record from the grid's row texts, in canonical order.
pub fn record<K: Campaign>(campaign: &K, quick: bool, rows: &[String]) -> String {
    assemble(campaign, &head(campaign, quick), rows).expect("serialized rows parse")
}

/// A shard file: the record's opening tagged with the shard, then one
/// row per line.
pub fn shard_text<K: Campaign>(
    campaign: &K,
    quick: bool,
    (i, n): (usize, usize),
    rows: &[String],
) -> String {
    let lines: String = rows.iter().map(|row| format!("\n{row}")).collect();
    format!("{},\"shard\":\"{i}/{n}\"}}{lines}", head(campaign, quick))
}

/// Re-assembles shard files, given in any order, into the whole-run
/// record. Row `k` of shard `i/N` is cell `i + k·N`.
///
/// # Errors
/// A file that is not a shard of this campaign, shards whose headers
/// disagree, or shards that miss or repeat a cell.
pub fn stitch<K: Campaign>(campaign: &K, shards: &[String]) -> Result<String, String> {
    let mut opening: Option<&str> = None;
    let mut rows: Vec<(usize, String)> = Vec::new();
    for shard in shards {
        let mut lines = shard.lines();
        let first = lines.next().unwrap_or_default();
        let (h, (i, n)) = first
            .rsplit_once(",\"shard\":\"")
            .and_then(|(h, tag)| Some((h, parse_shard(tag.strip_suffix("\"}")?)?)))
            .ok_or_else(|| format!("no shard header: {first:?}"))?;
        if [false, true].into_iter().all(|quick| head(campaign, quick) != h) {
            return Err(format!("not a {} shard: {first}", K::NAME));
        }
        if *opening.get_or_insert(h) != h {
            return Err("shard headers disagree".into());
        }
        // Saturating: a forged `i/N` fails the coverage check, not the sum.
        let cell = |k: usize| i.saturating_add(k.saturating_mul(n));
        rows.extend(lines.enumerate().map(|(k, line)| (cell(k), line.to_string())));
    }
    rows.sort_by_key(|&(cell, _)| cell);
    if !rows.iter().map(|&(cell, _)| cell).eq(0..grid_size(campaign)) {
        return Err("shards must cover every grid cell exactly once".into());
    }
    let texts: Vec<String> = rows.into_iter().map(|(_, text)| text).collect();
    assemble(campaign, opening.ok_or("no shard files")?, &texts)
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
/// record was produced by a broken merge (e.g. a bad shard stitch) and
/// cannot be trusted as a baseline or a current run. Rows without
/// histogram fields are skipped.
pub fn hist_inconsistency(row: &Value) -> Option<String> {
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
