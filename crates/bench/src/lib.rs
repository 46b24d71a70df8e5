//! # rsoc-bench — campaign harness
//!
//! The paper's claims are held by tier-1 tests (the README's *Claims*
//! table names each one); this crate holds what writes a record or
//! drives a real plane:
//!
//! | binary | what it does |
//! |---|---|
//! | `f2_batching` | batched consensus + amortized authentication (writes `BENCH_2.json`) |
//! | `f5_scenarios` | adversarial scenario campaign, oracle-judged (writes `BENCH_5.json`) |
//! | `f6_recovery` | checkpoints, state transfer and rejuvenation re-join (writes `BENCH_6.json`) |
//! | `f8_openloop` | open-loop arrivals, skewed populations, latency tails (writes `BENCH_8.json`) |
//! | `transport_smoke` | PBFT and MinBFT over real TCP processes, digest-gated |
//! | `f7_chaos` | crash-restart chaos over real TCP processes, digest-gated |
//!
//! The `f*` campaigns share one [`campaign`] module: each prints an
//! aligned table to stdout (with `--json`, one JSON object per row),
//! `--quick` cuts the workload for smoke runs, and a whole run writes
//! the committed `BENCH_*.json` record the README's results sections
//! quote. `transport_smoke` and `f7_chaos` drive real `rsoc-serve` /
//! `rsoc-client` processes through one [`tcp_cluster`] harness.

use rsoc_bft::runner::LatencyModel;
use serde::Serialize;

pub mod campaign;
pub mod parallel;
pub mod tcp_cluster;
pub use campaign::Campaign;
pub use parallel::{default_jobs, run_cells};

/// The command line of every campaign binary: one parser, five
/// options. `--json`, `--quick` and `--jobs N` are always honoured;
/// `--scenario NAME` and `--list` only by a binary with named scenarios.
/// Anything else is refused (exit 2) before a cell runs or a file is
/// written.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpOptions {
    /// Emit one JSON object per row after the table.
    pub json: bool,
    /// Reduce trial counts for a fast smoke run.
    pub quick: bool,
    /// Worker threads for the parallel sweep runner (`--jobs N`; parsing
    /// defaults it to the machine's available parallelism). Results are
    /// merged in canonical cell order, so output is identical for any
    /// value.
    pub jobs: usize,
    /// `--scenario NAME`: run only the named spec's cells.
    pub scenario: Option<String>,
    /// `--list`: print the spec names and exit.
    pub list: bool,
}

impl ExpOptions {
    /// Parses `std::env::args` (`scenario`: whether `--scenario` and
    /// `--list` are honoured), or prints the error and a usage line and
    /// exits with status 2.
    pub fn from_args_with(scenario: bool) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, scenario).unwrap_or_else(|e| usage_error(&e, scenario))
    }

    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    /// An unknown flag, a missing or malformed value, or `--scenario` /
    /// `--list` when `scenario` is false.
    pub fn parse<S: AsRef<str>>(args: &[S], scenario: bool) -> Result<Self, String> {
        let mut o = ExpOptions { jobs: default_jobs(), ..ExpOptions::default() };
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(a) = args.next() {
            if !scenario && matches!(a, "--scenario" | "--list") {
                return Err(format!("{a} is not supported by this binary"));
            }
            let mut value = || args.next().ok_or(format!("{a} needs a value"));
            match a {
                "--json" => o.json = true,
                "--quick" => o.quick = true,
                "--list" => o.list = true,
                "--jobs" => {
                    let v = value()?;
                    let bad = format!("--jobs needs a positive integer, got {v:?}");
                    o.jobs = v.parse::<usize>().map_err(|_| bad)?.max(1);
                }
                "--scenario" => o.scenario = Some(value()?.to_string()),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(o)
    }
}

/// `full`, or a tenth of it (at least 1) in quick mode.
pub fn quick_trials(full: u64, quick: bool) -> u64 {
    if quick {
        (full / 10).max(1)
    } else {
        full
    }
}

/// Reports a command-line error with the binary's usage line and exits 2.
pub fn usage_error(msg: &str, scenario: bool) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&bin).file_name().unwrap_or_default().to_string_lossy();
    let scenario = if scenario { " [--scenario NAME | --list]" } else { "" };
    eprintln!("error: {msg}\nusage: {bin} [--json] [--quick] [--jobs N]{scenario}");
    std::process::exit(2);
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
    pub fn print(&self, json: bool) {
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
        if json {
            for j in &self.json_rows {
                println!("{j}");
            }
        }
    }
}

/// The mesh placement on an 8x8 mesh: replica i on tile (i % 4, i / 4),
/// clients at the I/O corner. F2's mesh rows run over it.
pub fn mesh_latency(n: u32) -> LatencyModel {
    LatencyModel::MeshHops {
        replica_at: (0..n).map(|i| ((i % 4) as u16, (i / 4) as u16)).collect(),
        client_at: (0, 0),
        per_hop: 1,
        overhead: 3,
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
        t.print(true);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn quick_scales_trials() {
        assert_eq!(quick_trials(1000, true), 100);
        assert_eq!(quick_trials(5, true), 1);
        assert_eq!(quick_trials(1000, false), 1000);
    }

    #[test]
    #[should_panic(expected = "cell/header mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(&["1".into()], &Rec { a: 1 });
    }
}
