//! Workspace driver: decides which files each pass sees and runs them
//! all, producing the combined finding list the `analyze` bin and the
//! CI job act on.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::passes::bounds::BoundsStats;
use crate::passes::{allocs, atomics, bounds, features, panics, protocols};
use crate::source::SourceFile;
use crate::spec::Spec;
use crate::{orderings, Finding};

/// What to analyze. `repo_default()` encodes this repository's layout;
/// tests build bespoke configs over fixture trees.
pub struct AnalysisConfig {
    /// Directories scanned recursively for `.rs` files; the panic- and
    /// allocation-freedom passes run on every file found (both are
    /// opt-in per file/range, so scanning broadly costs nothing).
    pub scan_roots: Vec<PathBuf>,
    /// Files under the atomic-ordering audit (relative to the repo
    /// root; directories are scanned recursively).
    pub atomic_paths: Vec<PathBuf>,
    /// Crate directories (each containing a `Cargo.toml` and `src/`)
    /// for the feature-gate pass.
    pub crate_dirs: Vec<PathBuf>,
    /// Directories whose raw-pointer arithmetic the bounds pass proves
    /// against the symbolic operand spans declared in [`Self::bounds_spec`].
    pub bounds_roots: Vec<PathBuf>,
    /// The symbolic footprint spec file (repo-relative) the bounds pass
    /// checks against — the same file the contract registry evaluates
    /// numerically for the conformance harness.
    pub bounds_spec: PathBuf,
    /// Whether to report registry tags no audited file uses. On for the
    /// workspace run, off for fixture tests (which use few tags).
    pub check_unused_tags: bool,
}

impl AnalysisConfig {
    /// The real repository layout.
    pub fn repo_default() -> AnalysisConfig {
        let p = PathBuf::from;
        AnalysisConfig {
            scan_roots: vec![
                p("crates/core/src"),
                p("crates/kernels/src"),
                p("crates/service/src"),
                p("crates/simd/src"),
                p("crates/trace/src"),
            ],
            atomic_paths: vec![
                p("crates/core/src/pool.rs"),
                p("crates/core/src/plan.rs"),
                p("crates/core/src/plan"),
                p("crates/service/src"),
                p("crates/trace/src"),
            ],
            crate_dirs: vec![
                p("crates/core"),
                p("crates/kernels"),
                p("crates/service"),
                p("crates/simd"),
                p("crates/trace"),
                p("crates/contracts"),
                p("crates/analysis"),
                p("."),
            ],
            bounds_roots: vec![p("crates/kernels/src"), p("crates/simd/src")],
            bounds_spec: p("crates/contracts/bounds.spec"),
            check_unused_tags: true,
        }
    }
}

/// Runs every pass over the tree rooted at `root` per `config`.
/// I/O errors (missing roots, unreadable files) become findings rather
/// than panics, so a misconfigured CI job fails loudly.
pub fn analyze_repo(root: &Path, config: &AnalysisConfig) -> Vec<Finding> {
    analyze_repo_with_stats(root, config).0
}

/// [`analyze_repo`] plus the bounds pass's proof statistics (total
/// pointer sites seen and sites proved in-span) — the tier-1 tests pin
/// a floor on these so the pass cannot silently stop seeing sites.
pub fn analyze_repo_with_stats(
    root: &Path,
    config: &AnalysisConfig,
) -> (Vec<Finding>, BoundsStats) {
    let mut out = Vec::new();
    let mut stats = BoundsStats::default();

    // Panic- and alloc-freedom passes over every scanned file.
    for rel in &config.scan_roots {
        for file in load_tree(root, rel, &mut out) {
            out.extend(panics::run(&file));
            out.extend(allocs::run(&file));
        }
    }

    // Atomic-ordering audit + per-object protocol audit over the
    // audited paths.
    let mut used_tags: HashSet<String> = HashSet::new();
    for rel in &config.atomic_paths {
        for file in load_tree(root, rel, &mut out) {
            out.extend(atomics::run(&file));
            out.extend(protocols::run(&file));
            used_tags.extend(atomics::used_tags(&file));
        }
    }
    if config.check_unused_tags {
        for tag in orderings::known_ids() {
            if !used_tags.contains(tag) {
                out.push(Finding::new(
                    "atomics",
                    "unused-ordering-tag",
                    "crates/analysis/src/orderings.rs",
                    0,
                    format!("registered tag `{tag}` is not used by any audited file"),
                ));
            }
        }
    }

    // Symbolic pointer-bounds verification over the kernel crates.
    let spec_label = config.bounds_spec.display().to_string().replace('\\', "/");
    match fs::read_to_string(root.join(&config.bounds_spec)) {
        Err(e) => out.push(Finding::new(
            "bounds",
            "io-error",
            &spec_label,
            0,
            format!("cannot read bounds spec: {e}"),
        )),
        Ok(text) => match Spec::parse(&text) {
            Err(e) => out.push(Finding::new(
                "bounds",
                "spec-mismatch",
                &spec_label,
                0,
                format!("bounds spec does not parse: {e}"),
            )),
            Ok(spec) => {
                let mut anchored: HashSet<String> = HashSet::new();
                for rel in &config.bounds_roots {
                    for file in load_tree(root, rel, &mut out) {
                        let (findings, st) = bounds::check(&file, &spec);
                        out.extend(findings);
                        stats.sites += st.sites;
                        stats.proved += st.proved;
                        anchored.extend(bounds::anchored_tags(&file));
                    }
                }
                if config.check_unused_tags {
                    for con in &spec.contracts {
                        if !anchored.contains(&con.tag) {
                            out.push(Finding::new(
                                "bounds",
                                "unanchored-contract",
                                &spec_label,
                                con.line,
                                format!(
                                    "contract `{}` is not anchored by any scanned \
                                     kernel function",
                                    con.tag
                                ),
                            ));
                        }
                    }
                }
            }
        },
    }

    // Feature-gate consistency per crate.
    for dir in &config.crate_dirs {
        let manifest_path = root.join(dir).join("Cargo.toml");
        let manifest_label = join_label(dir, "Cargo.toml");
        let toml = match fs::read_to_string(&manifest_path) {
            Ok(t) => t,
            Err(e) => {
                out.push(Finding::new(
                    "features",
                    "io-error",
                    &manifest_label,
                    0,
                    format!("cannot read manifest: {e}"),
                ));
                continue;
            }
        };
        let feats = features::parse_manifest(&manifest_label, &toml);
        let src_rel = dir.join("src");
        let files = load_tree(root, &src_rel, &mut out);
        out.extend(features::run(&feats, &files));
    }

    (out, stats)
}

/// [`analyze_repo`] with the default config — what the bin and the
/// tier-1 repo-clean test run.
pub fn analyze_repo_default(root: &Path) -> Vec<Finding> {
    analyze_repo(root, &AnalysisConfig::repo_default())
}

/// The repository root, assuming this crate sits at `crates/analysis`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Loads and parses every `.rs` file under `root/rel` (or the single
/// file if `rel` is one), appending io-error findings on failure.
fn load_tree(root: &Path, rel: &Path, out: &mut Vec<Finding>) -> Vec<SourceFile> {
    let abs = root.join(rel);
    let mut paths = Vec::new();
    if abs.is_file() {
        paths.push(abs);
    } else if abs.is_dir() {
        collect_rs(&abs, &mut paths);
    } else {
        out.push(Finding::new(
            "workspace",
            "io-error",
            &rel.display().to_string(),
            0,
            "configured path does not exist",
        ));
        return Vec::new();
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string()
            .replace('\\', "/");
        match fs::read_to_string(&path) {
            Ok(src) => files.push(SourceFile::parse(&label, &src)),
            Err(e) => out.push(Finding::new(
                "workspace",
                "io-error",
                &label,
                0,
                format!("cannot read file: {e}"),
            )),
        }
    }
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn join_label(dir: &Path, name: &str) -> String {
    if dir == Path::new(".") {
        name.to_string()
    } else {
        format!("{}/{}", dir.display().to_string().replace('\\', "/"), name)
    }
}
