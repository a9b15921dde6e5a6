//! Per-rule fixture pairs, the seeded self-test, and pragma round-trips
//! through the public analysis entry points.
//!
//! Every rule ships with a `fixtures/<rule>_bad.rs` that must fire and a
//! `fixtures/<rule>_good.rs` expressing the accepted alternative that
//! must scan clean. The self-test proves the whole catalog goes red on
//! seeded violations — a rule that silently stops firing fails here
//! before it can rubber-stamp the workspace.

use rchls_lint::config::LintConfig;
use rchls_lint::source::SourceFile;
use rchls_lint::{analyze_files, report::Report, rules};
use std::collections::BTreeSet;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn analyze_source(name: &str, is_bin: bool, source: &str) -> Report {
    let file = SourceFile::parse(
        format!("crates/fixture/src/{name}"),
        "rchls-fixture".to_owned(),
        is_bin,
        source,
    );
    analyze_files(vec![file], &LintConfig::default())
}

fn analyze_fixture(name: &str) -> Report {
    analyze_source(name, false, &fixture(name))
}

fn fired(report: &Report) -> BTreeSet<String> {
    report.findings.iter().map(|f| f.rule.to_owned()).collect()
}

/// (rule id, bad fixture's expected finding count).
const PAIRS: &[(&str, usize)] = &[
    ("wall-clock", 2),
    ("float-order", 2),
    ("unordered-iter", 2),
    ("panic-in-serve", 4),
    ("ad-hoc-thread", 3),
    ("print-in-lib", 2),
];

#[test]
fn every_bad_fixture_fires_its_rule_and_only_its_rule() {
    for (rule, expected) in PAIRS {
        let file_stem = rule.replace('-', "_");
        let report = analyze_fixture(&format!("{file_stem}_bad.rs"));
        assert_eq!(
            fired(&report),
            BTreeSet::from([(*rule).to_owned()]),
            "{rule}: wrong rule set fired:\n{}",
            report.render_text()
        );
        assert_eq!(
            report.findings.len(),
            *expected,
            "{rule}: expected {expected} findings:\n{}",
            report.render_text()
        );
        for finding in &report.findings {
            assert!(!finding.message.is_empty());
            assert!(!finding.snippet.is_empty(), "findings carry a snippet");
            assert!(finding.line > 0 && finding.col > 0);
        }
    }
}

#[test]
fn every_good_fixture_scans_clean() {
    for (rule, _) in PAIRS {
        let file_stem = rule.replace('-', "_");
        let report = analyze_fixture(&format!("{file_stem}_good.rs"));
        assert!(
            report.is_clean(),
            "{rule}: the good fixture must scan clean:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn seeded_violations_light_up_the_whole_catalog() {
    // All six bad fixtures in one scan: the set of rules that fire must
    // be exactly the shipped catalog (red-before-green for every rule).
    let files = PAIRS
        .iter()
        .map(|(rule, _)| {
            let name = format!("{}_bad.rs", rule.replace('-', "_"));
            SourceFile::parse(
                format!("crates/fixture/src/{name}"),
                "rchls-fixture".to_owned(),
                false,
                &fixture(&name),
            )
        })
        .collect();
    let report = analyze_files(files, &LintConfig::default());
    let catalog: BTreeSet<String> = rules::catalog().iter().map(|r| r.id().to_owned()).collect();
    assert_eq!(
        fired(&report),
        catalog,
        "every rule in the catalog must fire on its seeded violation:\n{}",
        report.render_text()
    );
}

#[test]
fn printing_is_fine_in_binaries() {
    let report = analyze_source("main.rs", true, &fixture("print_in_lib_bad.rs"));
    assert!(
        report.is_clean(),
        "binaries are the designated printers:\n{}",
        report.render_text()
    );
}

#[test]
fn a_reasoned_pragma_suppresses_exactly_its_line() {
    let marker = "rchls-lint:";
    let source = format!(
        "use std::time::Instant;\n\
         pub fn timed() -> u64 {{\n\
         \x20   // {marker} allow(wall-clock, reason = \"benchmark timer\")\n\
         \x20   let start = Instant::now();\n\
         \x20   let again = Instant::now();\n\
         \x20   (again - start).as_micros() as u64\n\
         }}\n"
    );
    let report = analyze_source("lib.rs", false, &source);
    // The annotated line is suppressed (with its reason recorded); the
    // line below the pragma's reach still fires.
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].reason, "benchmark timer");
    assert_eq!(report.findings.len(), 1, "{}", report.render_text());
    assert_eq!(report.findings[0].rule, "wall-clock");
    assert_eq!(report.findings[0].line, 5);
}

#[test]
fn a_reasonless_pragma_is_a_finding_and_suppresses_nothing() {
    let marker = "rchls-lint:";
    let source = format!(
        "use std::time::Instant;\n\
         pub fn timed() {{\n\
         \x20   // {marker} allow(wall-clock)\n\
         \x20   let _ = Instant::now();\n\
         }}\n"
    );
    let report = analyze_source("lib.rs", false, &source);
    assert!(report.suppressed.is_empty(), "no reason, no suppression");
    let rules_hit = fired(&report);
    assert!(rules_hit.contains("bad-pragma"), "{rules_hit:?}");
    assert!(rules_hit.contains("wall-clock"), "{rules_hit:?}");
}

#[test]
fn a_pragma_for_the_wrong_rule_does_not_suppress() {
    let marker = "rchls-lint:";
    let source = format!(
        "use std::time::Instant;\n\
         pub fn timed() {{\n\
         \x20   // {marker} allow(float-order, reason = \"not the firing rule\")\n\
         \x20   let _ = Instant::now();\n\
         }}\n"
    );
    let report = analyze_source("lib.rs", false, &source);
    assert!(report.suppressed.is_empty());
    assert_eq!(fired(&report), BTreeSet::from(["wall-clock".to_owned()]));
}

#[test]
fn config_scoping_gates_rules_by_crate_and_path() {
    let toml = "schema_version = 1\n\
                [rules.wall-clock]\n\
                crates = [\"rchls-only-this\"]\n\
                [rules.panic-in-serve]\n\
                allow_paths = [\"crates/fixture/src/exempt\"]\n";
    let config = LintConfig::parse(toml).expect("config parses");
    let wall = |crate_name: &str| {
        let file = SourceFile::parse(
            "crates/fixture/src/lib.rs".to_owned(),
            crate_name.to_owned(),
            false,
            &fixture("wall_clock_bad.rs"),
        );
        analyze_files(vec![file], &config)
    };
    assert!(!wall("rchls-only-this").is_clean());
    assert!(wall("rchls-other").is_clean(), "rule scoped to one crate");

    let panics = |path: &str| {
        let file = SourceFile::parse(
            path.to_owned(),
            "rchls-fixture".to_owned(),
            false,
            &fixture("panic_in_serve_bad.rs"),
        );
        analyze_files(vec![file], &config)
    };
    assert!(!panics("crates/fixture/src/handler.rs").is_clean());
    assert!(
        panics("crates/fixture/src/exempt/legacy.rs").is_clean(),
        "allow_paths exempts by prefix"
    );
}
