//! # rsoc-bench — experiment harness
//!
//! One binary per experiment (the README's *Experiments* section is the
//! index):
//!
//! | binary | paper claim |
//! |---|---|
//! | `e1_gate_redundancy` | gate-level redundancy trades area for masking (§I) |
//! | `e2_hybrid_ecc` | plain vs parity vs SEC-DED USIG counters (§III) |
//! | `e3_bft_cost` | MinBFT 2f+1 vs PBFT 3f+1 cost (§II-A, §III) |
//! | `e4_passive_active` | passive failover gap vs active masking (§II-A) |
//! | `e5_diversity` | diversity vs common-mode compromise (§II-B) |
//! | `e6_rejuvenation` | rejuvenation policies vs APT (§II-C) |
//! | `e7_adaptation` | static vs adaptive deployments (§II-D) |
//! | `e8_reconfig` | voted vs direct privilege change (§II-E) |
//! | `e9_fpga_relocation` | relocation vs grid backdoors (§II-C/E) |
//! | `e10_noc_faults` | routing policies vs link faults (§I) |
//! | `f1_layered_stack` | full-stack ablation (Fig. 1) |
//! | `f2_batching` | batched consensus + amortized authentication (writes `BENCH_2.json`) |
//! | `f5_scenarios` | adversarial scenario campaign, oracle-judged (writes `BENCH_5.json`) |
//!
//! Every binary prints an aligned table to stdout and, with `--json`, one
//! JSON object per row; the `f*` campaigns also write the committed
//! `BENCH_*.json` records the README's results sections quote.
//! `--quick` cuts trial counts for smoke runs.

use serde::Serialize;

pub mod parallel;
pub use parallel::{default_jobs, run_cells, run_cells_sharded};

/// Shared command-line options for experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Emit one JSON object per row after the table.
    pub json: bool,
    /// Reduce trial counts for a fast smoke run.
    pub quick: bool,
    /// Worker threads for the parallel sweep runner (`--jobs N`; defaults
    /// to the machine's available parallelism). Results are merged in
    /// canonical cell order, so output is identical for any value.
    pub jobs: usize,
    /// Cell partition for multi-machine sweeps (`--shard i/N`): this
    /// invocation computes only cells whose canonical index is `i mod N`.
    /// Each cell is a pure function of its parameters, so concatenating
    /// the shards' records in canonical index order reproduces the
    /// unsharded sweep byte-identically. `None` = the whole grid.
    pub shard: Option<(usize, usize)>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions { json: false, quick: false, jobs: default_jobs(), shard: None }
    }
}

impl ExpOptions {
    /// Parses `--json` / `--quick` / `--jobs N` / `--shard i/N` from
    /// `std::env::args`.
    pub fn from_args() -> Self {
        let mut o = ExpOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => o.json = true,
                "--quick" => o.quick = true,
                "--jobs" => {
                    let v = args.next().unwrap_or_default();
                    o.jobs = v.parse().unwrap_or_else(|_| {
                        eprintln!("--jobs needs a positive integer, got {v:?}");
                        std::process::exit(2);
                    });
                    o.jobs = o.jobs.max(1);
                }
                "--shard" => {
                    let v = args.next().unwrap_or_default();
                    o.shard = Some(parse_shard(&v).unwrap_or_else(|| {
                        eprintln!("--shard needs i/N with 0 <= i < N, got {v:?}");
                        std::process::exit(2);
                    }));
                }
                other => eprintln!("ignoring unknown argument: {other}"),
            }
        }
        o
    }

    /// Scales a trial count down in quick mode.
    pub fn trials(&self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// Parses a `i/N` shard designator (`0 <= i < N`, `N >= 1`).
pub fn parse_shard(v: &str) -> Option<(usize, usize)> {
    let (i, n) = v.split_once('/')?;
    let (i, n) = (i.parse::<usize>().ok()?, n.parse::<usize>().ok()?);
    (n >= 1 && i < n).then_some((i, n))
}

/// A table printer that also serializes rows as JSON.
#[derive(Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    json_rows: Vec<String>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            json_rows: Vec::new(),
        }
    }

    /// Adds a row: display cells plus a serializable record for `--json`.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count or the record
    /// fails to serialize (a bug in the experiment).
    pub fn row<T: Serialize>(&mut self, cells: &[String], record: &T) {
        assert_eq!(cells.len(), self.headers.len(), "cell/header mismatch");
        self.rows.push(cells.to_vec());
        self.json_rows.push(serde_json::to_string(record).expect("row serialization"));
    }

    /// Prints the aligned table (and JSON lines when requested).
    pub fn print(&self, options: &ExpOptions) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in &self.rows {
            line(row);
        }
        if options.json {
            for j in &self.json_rows {
                println!("{j}");
            }
        }
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Rec {
        a: u32,
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(&["1".into(), "2".into()], &Rec { a: 1 });
        t.print(&ExpOptions { json: true, quick: false, jobs: 1, shard: None });
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn quick_scales_trials() {
        let q = ExpOptions { json: false, quick: true, jobs: 1, shard: None };
        assert_eq!(q.trials(1000), 100);
        assert_eq!(q.trials(5), 1);
        let f = ExpOptions::default();
        assert_eq!(f.trials(1000), 1000);
    }

    #[test]
    #[should_panic(expected = "cell/header mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(&["1".into()], &Rec { a: 1 });
    }
}
