//! `benchmark` — the performance ledger for both planes.
//!
//! ```text
//! benchmark list
//! benchmark run   <workload> [--seed S] [--seconds N]    end-to-end metrics
//! benchmark trace [<workload>] [--seed S] [--seconds N]  per-layer metrics
//! benchmark all   [--seed S] [--seconds N]               both, every workload
//! benchmark --workload W --seed S --seconds N --trace 0|1
//! ```
//!
//! The last form is the one `BENCHMARK.json` names: one workload, one pass,
//! and the result as one JSON object on the last line of standard output.
//! `run` and `trace <workload>` print the same line after a readable table.
//! `all` and a bare `trace` start one child process per workload and pass,
//! so that each has its own peak-memory reading and address-space guard,
//! and collect the children's lines into `benchmark/out/results.json`.
//!
//! See `benchmark/README.md` for what is measured and why.

mod ledger;
mod os;
mod plane;
mod trace;
mod units;
mod workloads;

use ledger::Report;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Workload, NOMINAL_SECONDS, WORKLOADS};

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 7;
/// Address-space cap of a measuring process: a runaway allocation fails
/// that workload, not the machine.
const ADDRESS_SPACE_LIMIT: u64 = 4 << 30;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(execute) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

enum Pass {
    Run,
    Trace,
}

enum Cli {
    List,
    One {
        workload: &'static Workload,
        pass: Pass,
        seed: u64,
        seconds: u64,
    },
    /// Every workload in child processes: the trace pass, and with `run`
    /// the untraced pass before it.
    Every {
        run: bool,
        seed: u64,
        seconds: u64,
    },
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut positional = Vec::new();
    let (mut workload, mut seed, mut seconds, mut traced) =
        (None, DEFAULT_SEED, NOMINAL_SECONDS, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |s: &String| s.parse::<u64>().map_err(|_| format!("{arg}: not a number: {s}"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?.max(1),
            "--trace" => traced = Some(number(value()?)? != 0),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => positional.push(arg.as_str()),
        }
    }
    let one = |name: &str, pass: Pass| {
        let workload = workloads::find(name)
            .ok_or_else(|| format!("unknown workload {name}; try `benchmark list`"))?;
        Ok(Cli::One { workload, pass, seed, seconds })
    };
    match (positional.as_slice(), workload) {
        ([], Some(name)) if traced == Some(true) => one(&name, Pass::Trace),
        ([], Some(name)) => one(&name, Pass::Run),
        (["list"], None) => Ok(Cli::List),
        (["run", name], None) => one(name, Pass::Run),
        (["trace", name], None) => one(name, Pass::Trace),
        (["trace"], None) => Ok(Cli::Every { run: false, seed, seconds }),
        (["all"], None) => Ok(Cli::Every { run: true, seed, seconds }),
        _ => Err("usage: benchmark list | run <workload> | trace [<workload>] | all  \
                  [--seed S] [--seconds N]"
            .into()),
    }
}

fn execute(cli: Cli) -> Result<ExitCode, String> {
    match cli {
        Cli::List => {
            for w in &WORKLOADS {
                println!("{:18} {}", w.name, w.why);
            }
            Ok(ExitCode::SUCCESS)
        }
        Cli::One { workload, pass, seed, seconds } => one(workload, pass, seed, seconds),
        Cli::Every { run, seed, seconds } => every(run, seed, seconds),
    }
}

/// `benchmark/out`, wherever the benchmark was started from: the
/// repository root (as `BENCHMARK.json`'s command is) or `benchmark/`.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// One workload, one pass, in this process.
fn one(w: &'static Workload, pass: Pass, seed: u64, seconds: u64) -> Result<ExitCode, String> {
    if !os::limit_address_space(ADDRESS_SPACE_LIMIT) {
        eprintln!("# could not cap the address space; running unguarded");
    }
    let out = out_dir();
    let io_error = |e: std::io::Error| format!("{}: {e}", w.name);
    // The wire plane's data directories: one root per process, so that
    // concurrent runs cannot collide.
    let scratch = os::Scratch::create(&out).map_err(io_error)?;
    if w.plane == workloads::Plane::WireDurable && !scratch.on_tmpfs {
        println!(
            "# no usable /dev/shm: data directories are on disk, store timings include device I/O"
        );
    }
    let data_root = scratch.path();
    let report = match pass {
        Pass::Run => ledger::run(w, seed, seconds, data_root).map_err(io_error)?,
        Pass::Trace => {
            let (report, tracer) = ledger::trace(w, seed, seconds, data_root).map_err(io_error)?;
            std::fs::create_dir_all(&out).map_err(io_error)?;
            let path = out.join(format!("trace-{}.json", w.name));
            std::fs::write(&path, tracer.to_json(w.name, seed)).map_err(io_error)?;
            report
        }
    };
    drop(scratch);
    print_table(w, seed, &report);
    println!("{}", result_line(&report));
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn print_table(w: &Workload, seed: u64, report: &Report) {
    println!("{} (seed {seed}, {} latency samples)", w.name, report.latency_samples);
    for m in &report.metrics {
        println!("  {:38} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for v in &report.violations {
        println!("  INCORRECT: {v}");
    }
}

/// The result object: every value as measured, with all its digits.
fn result_line(report: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

/// Every workload, each pass in a child process; the children's result
/// lines go into `results.json` verbatim.
fn every(run: bool, seed: u64, seconds: u64) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let passes: &[&str] = if run { &["run", "trace"] } else { &["trace"] };
    let mut all_correct = true;
    let mut json = format!("{{\"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = write!(json, "{}\n  \"{}\": {{", if i == 0 { "" } else { "," }, w.name);
        for (j, pass) in passes.iter().enumerate() {
            let child = Command::new(&exe)
                .args([
                    pass,
                    w.name,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .output()
                .map_err(|e| format!("{}: could not start the child: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&child.stderr));
            let line = stdout.lines().last().filter(|l| l.starts_with('{'));
            let line = match (child.status.success(), line) {
                (true, Some(line)) => line.to_string(),
                (_, line) => {
                    all_correct = false;
                    println!("{} {pass}: FAILED ({})", w.name, child.status);
                    // A crashed or guard-killed child committed nothing.
                    let ops = w.ops_for(seconds);
                    line.map(str::to_string).unwrap_or_else(|| {
                        format!("{{\"correct\": false, \"attempted\": {ops}, \"failed\": {ops}, \"metrics\": {{}}}}")
                    })
                }
            };
            let _ = write!(json, "{}\n    \"{pass}\": {line}", if j == 0 { "" } else { "," });
        }
        json.push_str("\n  }");
    }
    json.push_str("\n}}\n");
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let path = out.join("results.json");
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
