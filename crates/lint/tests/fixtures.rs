//! Fixture-driven self-tests: every rule in the catalog is proven to fire
//! at an exact `(rule, line)` position on a seeded violation, and every
//! sanctioned silencing mechanism (reasoned allow, bounds comment, SAFETY
//! comment, region scoping) is proven to silence it.

use rsoc_lint::{collect, lint_source, Tier};
use std::path::Path;
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn findings(name: &str, tier: Tier) -> Vec<(&'static str, u32)> {
    lint_source(&fixture(name), tier).iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn determinism_fixture_fires_every_rule_at_exact_lines() {
    assert_eq!(
        findings("bad/determinism.rs", Tier::ProtocolCore),
        vec![
            ("det-hashmap", 2),
            ("det-hashset", 3),
            ("det-systemtime", 4),
            ("det-instant", 5),
            ("det-thread-rng", 8),
            ("det-ptr-key", 9),
        ]
    );
    // The same file is clean at harness tier: the determinism catalog is
    // protocol-core-only.
    assert_eq!(findings("bad/determinism.rs", Tier::Harness), vec![]);
}

#[test]
fn ingress_fixture_fires_inside_the_region_only() {
    assert_eq!(
        findings("bad/ingress.rs", Tier::ProtocolCore),
        vec![
            ("ingress-unwrap", 8),
            ("ingress-expect", 9),
            ("ingress-panic", 11),
            ("ingress-index", 13),
            // The same rules reach into a `macro_rules!` body.
            ("ingress-unwrap", 19),
            ("ingress-index", 20),
        ]
    );
}

#[test]
fn hotpath_fixture_fires_inside_the_region_only() {
    assert_eq!(
        findings("bad/hotpath.rs", Tier::ProtocolCore),
        vec![("hot-to-vec", 8), ("hot-clone", 9), ("hot-vec-new", 10), ("hot-format", 11)]
    );
}

#[test]
fn unsafe_fixture_fires_without_a_safety_comment() {
    // The unsafe audit applies at both tiers.
    assert_eq!(findings("bad/unsafe_block.rs", Tier::ProtocolCore), vec![("unsafe-no-safety", 3)]);
    assert_eq!(findings("bad/unsafe_block.rs", Tier::Harness), vec![("unsafe-no-safety", 3)]);
}

#[test]
fn directive_fixture_fires_the_meta_rules() {
    assert_eq!(
        findings("bad/directives.rs", Tier::ProtocolCore),
        vec![
            ("allow-no-reason", 2),
            ("allow-unknown-rule", 7),
            ("lint-directive", 10),
            ("lint-directive", 13),
        ]
    );
}

#[test]
fn good_fixtures_are_silent_at_the_strictest_tier() {
    assert_eq!(findings("good/suppressed.rs", Tier::ProtocolCore), vec![]);
    assert_eq!(findings("good/regions.rs", Tier::ProtocolCore), vec![]);
}

#[test]
fn walker_skips_the_fixture_tree_but_force_tier_collects_it() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures");
    // Forced collection (what the CI seeded-violation step runs) sees every
    // fixture file, deterministically ordered.
    let files = collect(&fixtures, Some(Tier::ProtocolCore)).expect("collect fixtures");
    let mut names: Vec<String> =
        files.iter().map(|f| f.path.file_name().unwrap().to_string_lossy().into_owned()).collect();
    assert_eq!(files.len(), 7, "{names:?}");
    names.sort();
    assert!(names.contains(&"determinism.rs".to_string()));
    // The workspace walk never descends into lint_fixtures/ (the seeded
    // violations must not fail the real audit).
    let crate_root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let own = collect(crate_root, None).expect("collect crate");
    assert!(own.iter().all(|f| !f.path.components().any(|c| c.as_os_str() == "lint_fixtures")));
}

#[test]
fn binary_exits_nonzero_on_the_seeded_fixture_violations() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures/bad");
    let out = Command::new(env!("CARGO_BIN_EXE_rsoc_lint"))
        .args(["--root", fixtures.to_str().unwrap(), "--tier", "protocol-core"])
        .output()
        .expect("spawn rsoc_lint");
    assert_eq!(out.status.code(), Some(1), "seeded violations must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[det-hashmap]"), "{stdout}");
    assert!(stdout.contains("[ingress-unwrap]"), "{stdout}");

    let good = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures/good");
    let out = Command::new(env!("CARGO_BIN_EXE_rsoc_lint"))
        .args(["--root", good.to_str().unwrap(), "--tier", "protocol-core"])
        .output()
        .expect("spawn rsoc_lint");
    assert_eq!(out.status.code(), Some(0), "suppressed fixtures must pass");
}
