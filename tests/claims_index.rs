//! The README's *Claims* table is the index from each paper claim to the
//! tests that hold it. Every backticked `path.rs::name` in a row must name
//! a `fn name` in that file, and every bare `path.rs` must exist, so the
//! index cannot name a test that was renamed or deleted.

use std::path::Path;

/// The table rows under the README's `## Claims` heading.
fn claim_rows(readme: &str) -> Vec<&str> {
    let section = readme.split("\n## Claims\n").nth(1).expect("a ## Claims section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section.lines().filter(|l| l.starts_with('|')).collect()
}

/// The `path.rs` / `path.rs::name` references in `rows` that do not
/// resolve under `root`.
fn unresolved(rows: &[&str], root: &Path) -> Vec<String> {
    let refs = rows.iter().flat_map(|row| row.split('`').skip(1).step_by(2));
    refs.filter(|r| r.contains(".rs"))
        .filter(|r| {
            let (path, name) = r.split_once("::").map_or((*r, None), |(p, n)| (p, Some(n)));
            match (std::fs::read_to_string(root.join(path)), name) {
                (Err(_), _) => true,
                (Ok(source), Some(name)) => !source.contains(&format!("fn {name}(")),
                (Ok(_), None) => false,
            }
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn every_claim_row_names_tests_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let rows = claim_rows(&readme);
    let tested = rows.iter().filter(|r| r.contains(".rs::")).count();
    assert!(tested >= 12, "every paper claim names its tests; {tested} rows do");
    assert_eq!(unresolved(&rows, root), Vec::<String>::new());

    let misspelled = "| c | §I | `tests/claims_index.rs::every_claim_row_names_test_that_exist` |";
    assert_eq!(unresolved(&[misspelled], root).len(), 1, "a misspelled name is caught");
}
