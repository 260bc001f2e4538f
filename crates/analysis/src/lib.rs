//! `shalom-analysis` — token-level static analysis for the LibShalom
//! workspace.
//!
//! The crate owns a hand-rolled Rust lexer (no `syn`; the container is
//! offline) that understands line/block comments (including nesting),
//! string/char/byte/raw-string literals, and real brace depths — the
//! exact constructs PR 2's line-based lint documented as
//! approximations. On top of it sit six workspace passes:
//!
//! 1. **atomics** — every `Ordering::` site in the audited concurrency
//!    files must carry a registered `// ORDERING(SHALOM-O-…):`
//!    justification; a pattern rule flags Relaxed stores racing
//!    Acquire loads.
//! 2. **protocols** — resolves each atomic call to the *object* it
//!    touches (receiver-path walk: `self.field`, statics, index and
//!    call projections), groups sites per object, and checks protocol
//!    shape: Release writes need an Acquire consumer, and Relaxed-only
//!    objects need counter-class justifications.
//! 3. **panics** — files opting in via `//! shalom-analysis:
//!    deny(panic)` may not `unwrap`/`expect`/`panic!`/index outside
//!    `debug_assert!` or test code, unless a `// PANIC-OK:` reason
//!    covers the site.
//! 4. **allocs** — `// ALLOC-FREE` ranges may not call allocating
//!    APIs (`Vec::`, `Box::new`, `format!`, `to_vec`, …).
//! 5. **features** — `cfg(feature = "…")` usage must match each
//!    crate's `Cargo.toml` feature declarations.
//! 6. **bounds** — every raw-pointer `.add`/`.offset` site in the
//!    kernel crates is normalized into a symbolic polynomial over the
//!    kernel's parameters (see [`sym`]) and proven contained in the
//!    per-operand footprint the contract registry exports as a
//!    symbolic spec (`crates/contracts/bounds.spec`).
//!
//! The `analyze` bin runs all passes over the repo and exits non-zero
//! on any finding; `shalom-contracts` re-uses the lexer for its
//! unsafe-hygiene lint.

#![deny(missing_docs)]

pub mod lexer;
pub mod orderings;
pub mod passes;
pub mod source;
pub mod spec;
pub mod sym;
pub mod workspace;

use std::fmt;

/// One diagnostic produced by a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Pass that produced the finding (`atomics`, `protocols`,
    /// `panics`, `allocs`, `features`, `bounds`).
    pub pass: &'static str,
    /// Rule id within the pass, e.g. `ordering-tag`.
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file, self.line, self.pass, self.rule, self.message
        )
    }
}

impl Finding {
    /// Convenience constructor.
    pub fn new(
        pass: &'static str,
        rule: &'static str,
        file: &str,
        line: usize,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            pass,
            rule,
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }
}

/// Renders findings one per line, sorted by file/line/rule — the
/// stable format the golden-file tests snapshot.
pub fn render(findings: &[Finding]) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted
        .sort_by(|a, b| (&a.file, a.line, a.pass, a.rule).cmp(&(&b.file, b.line, b.pass, b.rule)));
    let mut out = String::new();
    for f in sorted {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out
}
