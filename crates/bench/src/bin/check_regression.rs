//! Perf-regression gate: compares a freshly generated bench record
//! against the committed baseline, cell by cell.
//!
//! The swept metrics are *deterministic* (virtual-time ops/kcycle from a
//! seeded simulation), so a quick CI run reproduces the committed
//! full-run values to within ~2%; the tolerance band exists to absorb
//! that quick-vs-full trial-count difference plus intentional small
//! shifts, while any real regression (>15% by default) fails the job.
//!
//! ```text
//! check_regression --baseline BENCH_2.baseline.json --current BENCH_2.json \
//!     [--metric ops_per_kcycle] [--tolerance 0.15] [--lower-metric macs_per_op]
//! ```
//!
//! Rows are matched on every identity field present (`generator`,
//! `protocol`, `latency_model`, `batch_size`). A
//! baseline row with no matching current row fails (a silently dropped
//! cell is a regression too), as does any current row with
//! `safety_ok = false` — or one whose sparse latency histogram
//! (`hist_bucket_counts`) does not sum to its `committed` count: a
//! record that lost commits in a merge is not a valid measurement.
//!
//! `--metric` is higher-is-better (throughput); a cell fails when it
//! drops below `baseline × (1 − tolerance)`. `--lower-metric` names an
//! additional lower-is-better metric (e.g. `macs_per_op`, so
//! authentication amortization can't silently rot): a cell fails when it
//! *rises* above `baseline × (1 + tolerance)`. Rows lacking the
//! lower-metric field in the baseline are skipped for that check.
//! Exit code: 0 clean, 1 regression, 2 usage/parse error.

use rsoc_bench::hist_inconsistency;
use serde_json::Value;

/// Fields that identify a swept cell (order fixed for stable output).
const KEY_FIELDS: [&str; 4] = ["generator", "protocol", "latency_model", "batch_size"];

fn row_key(row: &Value) -> String {
    let mut parts = Vec::new();
    for f in KEY_FIELDS {
        let v = &row[f];
        if let Some(s) = v.as_str() {
            parts.push(format!("{f}={s}"));
        } else if let Some(n) = v.as_f64() {
            parts.push(format!("{f}={n}"));
        }
    }
    parts.join(" ")
}

fn load_rows(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
    let rows = value["rows"].as_array().ok_or_else(|| format!("{path}: no rows array"))?;
    Ok(rows.clone())
}

/// Usage errors are reported on stderr with exit 2 — never a panic: the
/// gate's exit codes are part of its CI contract (a panic's 101 would be
/// indistinguishable from a crash).
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut baseline_path = None;
    let mut current_path = None;
    let mut metric = "ops_per_kcycle".to_string();
    let mut lower_metric: Option<String> = None;
    let mut tolerance = 0.15f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| usage_error(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--baseline" => baseline_path = Some(take("--baseline")),
            "--current" => current_path = Some(take("--current")),
            "--metric" => metric = take("--metric"),
            "--lower-metric" => lower_metric = Some(take("--lower-metric")),
            "--tolerance" => {
                tolerance = take("--tolerance")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--tolerance must be a float"))
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
        eprintln!(
            "usage: check_regression --baseline <file> --current <file> \
             [--metric m] [--tolerance t] [--lower-metric m]"
        );
        std::process::exit(2);
    };

    let baseline = match load_rows(&baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let current = match load_rows(&current_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let mut failures = 0u32;
    println!(
        "perf gate: {metric}, tolerance {:.0}% ({baseline_path} -> {current_path})",
        tolerance * 100.0
    );
    // Self-consistency before any comparison: a current row whose
    // histogram doesn't account for its committed ops disqualifies the
    // whole record, regardless of how the throughput numbers look.
    for row in &current {
        if let Some(why) = hist_inconsistency(row) {
            println!("  FAIL {}: {why}", row_key(row));
            failures += 1;
        }
    }
    for base_row in &baseline {
        let key = row_key(base_row);
        let Some(cur_row) = current.iter().find(|r| row_key(r) == key) else {
            println!("  FAIL {key}: cell missing from current run");
            failures += 1;
            continue;
        };
        if cur_row["safety_ok"].as_bool() == Some(false) {
            println!("  FAIL {key}: safety violation in current run");
            failures += 1;
            continue;
        }
        let (Some(base), Some(cur)) =
            (base_row[metric.as_str()].as_f64(), cur_row[metric.as_str()].as_f64())
        else {
            println!("  FAIL {key}: metric {metric} missing");
            failures += 1;
            continue;
        };
        let ratio = if base > 0.0 { cur / base } else { 1.0 };
        let verdict = if ratio < 1.0 - tolerance {
            failures += 1;
            "FAIL"
        } else {
            "ok"
        };
        println!("  {verdict:4} {key}: {base:.3} -> {cur:.3} ({:+.1}%)", (ratio - 1.0) * 100.0);

        // Lower-is-better companion metric: fail on a rise beyond band.
        if let Some(lm) = &lower_metric {
            let (Some(lbase), Some(lcur)) =
                (base_row[lm.as_str()].as_f64(), cur_row[lm.as_str()].as_f64())
            else {
                continue; // metric truly absent for this cell
            };
            // A zero baseline records "this cost does not exist here"
            // (e.g. the MAC-free pbft model): ANY appearance is a
            // regression, not a free pass.
            let regressed = if lbase > 0.0 { lcur / lbase > 1.0 + tolerance } else { lcur > 0.0 };
            let lverdict = if regressed {
                failures += 1;
                "FAIL"
            } else {
                "ok"
            };
            let delta = if lbase > 0.0 { (lcur / lbase - 1.0) * 100.0 } else { 0.0 };
            println!("  {lverdict:4} {key} [{lm}]: {lbase:.3} -> {lcur:.3} ({delta:+.1}%)");
        }
    }
    if failures > 0 {
        eprintln!("{failures} cell(s) regressed beyond the {:.0}% band", tolerance * 100.0);
        std::process::exit(1);
    }
    println!("all {} cells within band", baseline.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("check_regression_{}_{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp fixture");
        path
    }

    #[test]
    fn truncated_json_is_an_error_not_a_panic() {
        // A partially written record (interrupted bench run, truncated
        // artifact download) must surface as Err so main exits 2.
        let path = write_temp("truncated.json", r#"{"rows": [{"protocol": "pbft", "ops_per"#);
        let err = load_rows(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("parse"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_rows_array_is_an_error() {
        let path = write_temp("norows.json", r#"{"meta": "no rows here"}"#);
        let err = load_rows(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("no rows array"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unreadable_path_is_an_error() {
        let err = load_rows("/nonexistent/definitely_missing.json").unwrap_err();
        assert!(err.contains("read"), "{err}");
    }

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

    #[test]
    fn generator_field_distinguishes_cells_in_row_keys() {
        let a: Value = serde_json::from_str(
            r#"{"generator": "steady_poisson", "protocol": "pbft", "batch_size": 8}"#,
        )
        .unwrap();
        let b: Value = serde_json::from_str(
            r#"{"generator": "flash_zipf", "protocol": "pbft", "batch_size": 8}"#,
        )
        .unwrap();
        assert_ne!(row_key(&a), row_key(&b));
        assert_eq!(row_key(&a), "generator=steady_poisson protocol=pbft batch_size=8");
    }

    #[test]
    fn well_formed_record_loads_rows() {
        let path = write_temp(
            "good.json",
            r#"{"rows": [{"protocol": "pbft", "batch_size": 8, "ops_per_kcycle": 1.5}]}"#,
        );
        let rows = load_rows(path.to_str().unwrap()).expect("well-formed record");
        assert_eq!(rows.len(), 1);
        assert_eq!(row_key(&rows[0]), "protocol=pbft batch_size=8");
        std::fs::remove_file(path).ok();
    }
}
