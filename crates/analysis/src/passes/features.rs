//! Pass 4: feature-gate consistency.
//!
//! Each crate's `cfg(feature = "…")` usage must match its `Cargo.toml`:
//!
//! * **undeclared-feature** — a `feature = "x"` check in source for a
//!   feature the manifest never declares silently compiles the gated
//!   code out of *every* build (a typo like `perf_hooks` vs
//!   `perf-hooks` is invisible to the compiler).
//! * **unused-feature** — a pure marker feature (`x = []`, no dep
//!   forwarding) that no source file checks is dead weight in the
//!   feature matrix; every CI feature-combination build pays for it.
//!
//! The manifest parser is deliberately small and hand-rolled (the
//! container is offline — no `toml` crate): sections, `name = …` keys,
//! single- and multi-line array values, and `optional = true`
//! dependency entries are all it needs to understand.

use std::collections::HashSet;

use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::Finding;

const PASS: &str = "features";

/// A crate's feature surface as read from its `Cargo.toml`.
#[derive(Debug, Default)]
pub struct CrateFeatures {
    /// Repo-relative manifest path, for reporting.
    pub manifest_label: String,
    /// Every name usable in `cfg(feature = "…")`: `[features]` entries
    /// plus optional dependencies (their implicit features).
    pub declared: HashSet<String>,
    /// `[features]` entries with an empty value list (`x = []`) — pure
    /// markers that only exist to be checked in source. Ordered for
    /// stable reporting.
    pub pure_markers: Vec<String>,
    /// Line of each pure marker in the manifest.
    pub marker_lines: Vec<usize>,
}

/// Parses the feature-relevant subset of a `Cargo.toml`.
pub fn parse_manifest(label: &str, toml: &str) -> CrateFeatures {
    let mut out = CrateFeatures {
        manifest_label: label.to_string(),
        ..CrateFeatures::default()
    };
    #[derive(PartialEq)]
    enum Section {
        Features,
        Deps,
        Other,
    }
    let mut section = Section::Other;
    let mut in_multiline_array = false;
    for (idx, raw) in toml.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if in_multiline_array {
            if line.contains(']') {
                in_multiline_array = false;
            }
            continue;
        }
        if line.starts_with('[') {
            let name = line.trim_matches(|c| c == '[' || c == ']');
            section = if name == "features" {
                Section::Features
            } else if name.ends_with("dependencies") || name.contains("dependencies.") {
                // `[dependencies.foo]` table form: the dep name itself.
                if let Some(dep) = name.strip_prefix("dependencies.") {
                    out.declared.insert(dep.to_string());
                }
                Section::Deps
            } else {
                Section::Other
            };
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim().trim_matches('"').to_string();
        let value = line[eq + 1..].trim();
        match section {
            Section::Features => {
                out.declared.insert(key.clone());
                if value == "[]" && key != "default" {
                    out.pure_markers.push(key);
                    out.marker_lines.push(idx + 1);
                } else if value.starts_with('[') && !value.contains(']') {
                    in_multiline_array = true;
                }
            }
            Section::Deps => {
                // Inline-table deps: `foo = { …, optional = true }`
                // expose an implicit feature named after the dep.
                if value.contains("optional") && value.contains("true") {
                    out.declared.insert(key);
                }
            }
            Section::Other => {}
        }
    }
    out
}

/// Every feature name checked via `feature = "…"` in one source file,
/// with the line of the first use.
pub fn used_features(file: &SourceFile) -> Vec<(String, usize)> {
    let code: Vec<usize> = file
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect();
    let mut out: Vec<(String, usize)> = Vec::new();
    for w in 0..code.len().saturating_sub(2) {
        let a = &file.tokens[code[w]];
        let b = &file.tokens[code[w + 1]];
        let c = &file.tokens[code[w + 2]];
        if a.kind == TokenKind::Ident
            && a.text(&file.src) == "feature"
            && b.kind == TokenKind::Punct
            && b.text(&file.src) == "="
            && c.kind == TokenKind::Str
        {
            let name = c.text(&file.src).trim_matches('"').to_string();
            out.push((name, a.line));
        }
    }
    out
}

/// Runs the pass for one crate: its manifest plus all its source files.
pub fn run(features: &CrateFeatures, files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut used: HashSet<String> = HashSet::new();
    for file in files {
        for (name, line) in used_features(file) {
            if !features.declared.contains(&name) {
                out.push(Finding::new(
                    PASS,
                    "undeclared-feature",
                    &file.label,
                    line,
                    format!(
                        "`feature = \"{name}\"` is not declared in {} — this cfg can never be \
                         enabled",
                        features.manifest_label
                    ),
                ));
            }
            used.insert(name);
        }
    }
    for (marker, line) in features.pure_markers.iter().zip(&features.marker_lines) {
        if !used.contains(marker) {
            out.push(Finding::new(
                PASS,
                "unused-feature",
                &features.manifest_label,
                *line,
                format!(
                    "feature `{marker}` is a pure marker (`{marker} = []`) but no source file \
                     checks it — drop it or gate code on it"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    const MANIFEST: &str = "\
[package]
name = \"demo\"

[features]
default = [\"fast\"]
fast = []
modelcheck = [\"dep:shalom-modelcheck\"]

[dependencies]
shalom-modelcheck = { workspace = true, optional = true }
plainimpl = \"1.0\"
";

    #[test]
    fn manifest_parse() {
        let f = parse_manifest("crates/demo/Cargo.toml", MANIFEST);
        assert!(f.declared.contains("default"));
        assert!(f.declared.contains("fast"));
        assert!(f.declared.contains("modelcheck"));
        assert!(f.declared.contains("shalom-modelcheck"));
        assert!(!f.declared.contains("plainimpl"));
        assert_eq!(f.pure_markers, vec!["fast"]);
    }

    #[test]
    fn undeclared_feature_flagged() {
        let features = parse_manifest("crates/demo/Cargo.toml", MANIFEST);
        let src = SourceFile::parse(
            "crates/demo/src/lib.rs",
            "#[cfg(feature = \"modelchek\")]\nfn gated() {}\n#[cfg(feature = \"fast\")]\nfn ok() {}\n",
        );
        let f = run(&features, &[src]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "undeclared-feature");
        assert!(f[0].message.contains("modelchek"));
    }

    #[test]
    fn unused_pure_marker_flagged() {
        let features = parse_manifest("crates/demo/Cargo.toml", MANIFEST);
        let src = SourceFile::parse("crates/demo/src/lib.rs", "fn plain() {}\n");
        let f = run(&features, &[src]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unused-feature");
        assert!(f[0].message.contains("fast"));
    }

    #[test]
    fn target_feature_is_not_a_cargo_feature() {
        let features = parse_manifest("crates/demo/Cargo.toml", MANIFEST);
        let src = SourceFile::parse(
            "crates/demo/src/lib.rs",
            "#[cfg(feature = \"fast\")]\n#[cfg(target_feature = \"neon\")]\nfn k() {}\n",
        );
        let f = run(&features, &[src]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn doc_mentions_do_not_count_as_use() {
        let features = parse_manifest("crates/demo/Cargo.toml", MANIFEST);
        let src = SourceFile::parse(
            "crates/demo/src/lib.rs",
            "//! Enable with feature = \"fast\".\nfn plain() {}\n",
        );
        let f = run(&features, &[src]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unused-feature");
    }
}
