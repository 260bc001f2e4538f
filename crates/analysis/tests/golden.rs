//! Golden-file test: the six passes over the seeded fixture workspace
//! must produce exactly the findings in `tests/golden/bad-workspace.txt`.
//!
//! Regenerate after an intentional rule change with:
//! `UPDATE_GOLDEN=1 cargo test -p shalom-analysis --test golden`

use std::path::{Path, PathBuf};

use shalom_analysis::render;
use shalom_analysis::workspace::{analyze_repo, AnalysisConfig};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad-workspace")
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bad-workspace.txt")
}

/// The fixture config mirrors `repo_default()` but keeps the
/// unused-tag rule off: the fixture intentionally uses only two of the
/// registered tags, and the golden file should not churn every time a
/// tag is added to the registry. The fixture is a frozen layout: it
/// still has a `crates/telemetry`, which the real tree has since folded
/// into `crates/trace`, so that crate is audited here explicitly.
fn fixture_config() -> AnalysisConfig {
    let mut cfg = AnalysisConfig {
        check_unused_tags: false,
        ..AnalysisConfig::repo_default()
    };
    cfg.scan_roots.push("crates/telemetry/src".into());
    cfg.atomic_paths.push("crates/telemetry/src".into());
    cfg.crate_dirs.push("crates/telemetry".into());
    cfg
}

#[test]
fn fixture_findings_match_golden() {
    let findings = analyze_repo(&fixture_root(), &fixture_config());
    let got = render(&findings);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
        std::fs::write(golden_path(), &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(golden_path())
        .expect("golden file missing — run with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "fixture findings diverged from golden file; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn every_pass_and_seeded_rule_fires_on_the_fixture() {
    let findings = analyze_repo(&fixture_root(), &fixture_config());
    for (pass, rule) in [
        ("atomics", "ordering-tag"),
        ("atomics", "unknown-ordering-tag"),
        ("atomics", "empty-justification"),
        ("atomics", "relaxed-publish"),
        ("protocols", "unpaired-release"),
        ("protocols", "relaxed-only-object"),
        ("panics", "unwrap"),
        ("panics", "panic-macro"),
        ("panics", "index"),
        ("allocs", "alloc-call"),
        ("allocs", "dangling-marker"),
        ("features", "undeclared-feature"),
        ("features", "unused-feature"),
        ("bounds", "span-overflow"),
        ("bounds", "unknown-tag"),
        ("bounds", "spec-mismatch"),
        ("bounds", "stride-split"),
        ("bounds", "unsupported-expr"),
        ("bounds", "unmapped-site"),
    ] {
        assert!(
            findings.iter().any(|f| f.pass == pass && f.rule == rule),
            "expected a seeded {pass}/{rule} finding; got:\n{}",
            render(&findings)
        );
    }
    // No io-error noise: the fixture tree must be complete.
    assert!(
        !findings.iter().any(|f| f.rule == "io-error"),
        "fixture tree incomplete:\n{}",
        render(&findings)
    );
}

/// Each seeded kernel mutation (off-by-one row stride, dropped
/// `V::LANES` scale, swapped `lda`/`ldb`) must produce exactly one
/// bounds finding naming the offending expression, the derived
/// worst-case bound, and the violated contract span.
#[test]
fn each_seeded_mutation_yields_exactly_one_bounds_finding() {
    let findings = analyze_repo(&fixture_root(), &fixture_config());
    for file in [
        "crates/kernels/src/bounds_stride.rs",
        "crates/kernels/src/bounds_lanes.rs",
        "crates/kernels/src/bounds_swap.rs",
    ] {
        let hits: Vec<_> = findings.iter().filter(|f| f.file == file).collect();
        assert_eq!(hits.len(), 1, "{file} findings:\n{}", render(&findings));
        let f = hits[0];
        assert_eq!((f.pass, f.rule), ("bounds", "span-overflow"), "{f}");
        assert!(
            f.message.contains("offset `"),
            "no offending expression: {f}"
        );
        assert!(f.message.contains("can reach `"), "no derived bound: {f}");
        assert!(
            f.message.contains("declared span is"),
            "no violated span: {f}"
        );
    }
}
