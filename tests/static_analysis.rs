//! Tier-1 wiring of the static-analysis engine: the atomic-ordering
//! audit, the panic- and allocation-freedom passes, the feature-gate
//! consistency check and the symbolic pointer-bounds verifier all run
//! under the plain workspace `cargo test -q`, so a violation fails the
//! default test gate — not just the dedicated CI `audit` job (which
//! also runs the `analyze` binary).

use shalom_analysis::source::SourceFile;
use shalom_analysis::workspace::{
    analyze_repo_default, analyze_repo_with_stats, repo_root, AnalysisConfig,
};

#[test]
fn the_repository_passes_all_analysis_passes() {
    let findings = analyze_repo_default(&repo_root());
    assert!(
        findings.is_empty(),
        "static-analysis violations:\n{}",
        shalom_analysis::render(&findings)
    );
}

/// The bounds pass must keep *seeing* the kernels' pointer arithmetic:
/// a refactor that silently stops extracting sites (or drops whole
/// files from the scan) would make "no findings" vacuous. The floor is
/// the current site count: every pointer site of the kernel crates.
#[test]
fn bounds_pass_proves_a_nontrivial_site_population() {
    let (findings, stats) = analyze_repo_with_stats(&repo_root(), &AnalysisConfig::repo_default());
    assert!(
        findings.is_empty(),
        "static-analysis violations:\n{}",
        shalom_analysis::render(&findings)
    );
    assert!(
        stats.sites >= 73,
        "bounds pass extracted only {} pointer sites — the scan has shrunk",
        stats.sites
    );
    assert_eq!(
        stats.proved, stats.sites,
        "every extracted site must be proved in-span when there are no findings"
    );
}

/// Every `.rs`/`.toml` file under `dir`, recursively (build output and
/// the seeded-violation fixture tree excluded).
fn source_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("bad-workspace") {
                source_files(&path, out);
            }
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}

/// Capture is compiled into every build: no cargo feature gates it. No
/// manifest declares or forwards a `capture` feature, and no source file
/// checks it or the retired `telemetry`/`trace` features it replaced.
#[test]
fn capture_is_compiled_into_every_build() {
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml")];
    for dir in ["crates", "src", "tests"] {
        source_files(&root.join(dir), &mut files);
    }
    let this_file = root.join("tests/static_analysis.rs");
    for path in files.iter().filter(|p| **p != this_file) {
        let text = std::fs::read_to_string(path).expect("readable source file");
        for retired in [
            "feature = \"capture\"",
            "feature = \"telemetry\"",
            "feature = \"trace\"",
        ] {
            assert!(
                !text.contains(retired),
                "{} checks the retired `{retired}`",
                path.display()
            );
        }
        if path.extension().and_then(|e| e.to_str()) == Some("toml") {
            for line in text.lines().map(str::trim_start) {
                assert!(
                    !line.starts_with("capture =") && !line.contains("capture\""),
                    "{} declares or forwards a capture feature: {line}",
                    path.display()
                );
            }
        }
    }
}

/// One plan per call and one fork-join engine, as properties of the
/// source text: the effective ISA is computed in one place (where a plan
/// handle is built) and everything downstream inherits it from the
/// handle — no non-test code re-pins a config with `IsaPolicy::Force` —
/// threads are spawned only by the pool, and the retired per-layer plan
/// views and the second fork-join engine are named nowhere.
#[test]
fn one_plan_handle_and_one_fork_join_engine() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        source_files(&root.join(dir), &mut files);
    }
    let core_src = root.join("crates/core/src");
    let mut isa_call_sites = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source file");
        let label = path
            .strip_prefix(&root)
            .expect("under the root")
            .display()
            .to_string();
        for retired in [
            "SHALOM_NO_POOL",
            "ScopedSpawn",
            "SerialPlan",
            "serial_plan",
            "parallel_grid",
            "resolved_runtime",
            "Runtime::",
            "pool_overhead",
        ] {
            assert!(!text.contains(retired), "{label} still names `{retired}`");
        }
        if !path.starts_with(&core_src) || path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        // Comment-stripped code outside `#[cfg(test)]` modules.
        let file = SourceFile::parse(&label, &text);
        let non_test = file
            .code
            .iter()
            .enumerate()
            .filter(|(i, _)| !file.is_test_line(i + 1));
        for (i, code) in non_test {
            let at = format!("{label}:{}", i + 1);
            if code.contains("effective_isa::<") || code.contains("effective_isa(") {
                isa_call_sites.push(at.clone());
            }
            if !path.ends_with("pool.rs") {
                assert!(
                    !code.contains("thread::scope") && !code.contains("thread::spawn"),
                    "{at} starts threads outside the pool"
                );
            }
            if !path.ends_with("config.rs") && code.contains("IsaPolicy::Force(") {
                assert!(
                    path.ends_with("plan.rs") && code.contains("matches!("),
                    "{at} constructs an `IsaPolicy::Force`; only `effective_isa` may test for one"
                );
            }
        }
    }
    assert_eq!(
        isa_call_sites.len(),
        1,
        "`effective_isa` must have exactly one call site: {isa_call_sites:?}"
    );
}
