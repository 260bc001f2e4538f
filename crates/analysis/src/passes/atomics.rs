//! Pass 1: the atomic-ordering audit.
//!
//! Every `Ordering::…` argument in the audited concurrency files must
//! be covered by a registered `// ORDERING(SHALOM-O-…): why` tag —
//! either on the same line / up to three lines above the site, or a
//! function-level tag in the header block above the enclosing `fn`
//! (which covers every site in that body).
//!
//! On top of tag presence, the **relaxed-publish** pattern rule flags an
//! atomic that is `Acquire`-loaded somewhere in the file but
//! `Relaxed`-stored elsewhere: a publication bug unless the store's tag
//! declares `relaxed_publish_ok` (ordering provided by a mutex,
//! quiescence, or a fence).

use std::collections::{HashMap, HashSet};

use crate::orderings;
use crate::passes::CodeTokens;
use crate::source::{OrderingAnnotation, SourceFile};
use crate::Finding;

const PASS: &str = "atomics";

/// Memory-ordering names as they appear after `Ordering::`.
const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One `.load(…)` / `.store(…)` / RMW call on an atomic, as the pattern
/// rules see it.
#[derive(Debug)]
struct AtomicCall {
    /// Receiver field/variable name (last identifier before the dot).
    receiver: String,
    /// Method name (`load`, `store`, `fetch_add`, `compare_exchange`, …).
    method: String,
    /// Ordering names that appear in the argument list, in order.
    orderings: Vec<String>,
    /// 1-based line of the method identifier.
    line: usize,
}

/// Runs the audit on one file.
pub fn run(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    validate_annotations(file, &mut out);

    let code = CodeTokens::new(file);
    let site_lines = ordering_site_lines(&code);
    for &line in &site_lines {
        if covering_tags(file, line).is_empty() {
            out.push(Finding::new(
                PASS,
                "ordering-tag",
                &file.label,
                line,
                "atomic ordering site has no covering `// ORDERING(SHALOM-O-…):` justification",
            ));
        }
    }

    let calls = atomic_calls(&code);
    relaxed_publish(file, &calls, &mut out);
    out
}

/// Tag ids used (via annotations) in this file — the workspace
/// aggregates these for the unused-tag check.
pub fn used_tags(file: &SourceFile) -> HashSet<String> {
    file.ordering_annotations
        .iter()
        .map(|a| a.tag.clone())
        .collect()
}

fn validate_annotations(file: &SourceFile, out: &mut Vec<Finding>) {
    for a in &file.ordering_annotations {
        if orderings::find(&a.tag).is_none() {
            out.push(Finding::new(
                PASS,
                "unknown-ordering-tag",
                &file.label,
                a.line,
                format!(
                    "`{}` is not in the orderings registry (crates/analysis/src/orderings.rs)",
                    a.tag
                ),
            ));
        }
        if a.justification.is_empty() {
            out.push(Finding::new(
                PASS,
                "empty-justification",
                &file.label,
                a.line,
                format!(
                    "ORDERING({}) has no happens-before justification after the colon",
                    a.tag
                ),
            ));
        }
    }
}

/// Lines (1-based, deduped, non-test, non-`use`) containing an
/// `Ordering::Name` site.
fn ordering_site_lines(code: &CodeTokens<'_>) -> Vec<usize> {
    let file = code.file;
    let mut lines = Vec::new();
    for i in 0..code.len() {
        if !code.is_ident(i, "Ordering") || !code.is_punct(i + 1, ':') || !code.is_punct(i + 2, ':')
        {
            continue;
        }
        let named = (i + 3 < code.len()) && ORDERING_NAMES.iter().any(|n| code.is_ident(i + 3, n));
        if !named {
            continue;
        }
        let line = code.tok(i).line;
        if file.is_test_line(line) || file.in_macro_rules(line) {
            continue;
        }
        let code_line = file.code.get(line - 1).map(String::as_str).unwrap_or("");
        let trimmed = code_line.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue;
        }
        if lines.last() != Some(&line) {
            lines.push(line);
        }
    }
    lines
}

/// Last line an annotation starting at `a_line` covers: the rest of its
/// contiguous comment block (lines with no code on them) plus three
/// code lines below it — tight enough that a stale tag cannot blanket
/// half a function, loose enough for a multi-line justification above a
/// multi-line call.
pub(crate) fn cover_end(file: &SourceFile, a_line: usize) -> usize {
    let mut end = a_line;
    while end < file.code.len() {
        let code_empty = file.code[end].trim().is_empty();
        let raw_nonempty = file.lines.get(end).is_some_and(|l| !l.trim().is_empty());
        if code_empty && raw_nonempty {
            end += 1; // still inside the comment block
        } else {
            break;
        }
    }
    end + 3
}

/// Annotations covering 1-based `line`: same line, a comment block just
/// above (see [`cover_end`]), or a function-level tag in the enclosing
/// fn's header block.
pub(crate) fn covering_tags(file: &SourceFile, line: usize) -> Vec<&OrderingAnnotation> {
    let mut tags: Vec<&OrderingAnnotation> = file
        .ordering_annotations
        .iter()
        .filter(|a| a.line <= line && line <= cover_end(file, a.line))
        .collect();
    if let Some(f) = file.enclosing_fn(line) {
        tags.extend(
            file.ordering_annotations
                .iter()
                .filter(|a| a.line >= f.header_line && a.line < f.decl_line),
        );
    }
    tags
}

/// Extracts every `recv.method(… Ordering::X …)` atomic call.
fn atomic_calls(code: &CodeTokens<'_>) -> Vec<AtomicCall> {
    let file = code.file;
    let mut out = Vec::new();
    for i in 1..code.len() {
        if !code.is_punct(i, '.') {
            continue;
        }
        let Some(open) = Some(i + 2).filter(|&p| code.is_punct(p, '(')) else {
            continue;
        };
        let method = if i + 1 < code.len() {
            code.text(i + 1)
        } else {
            ""
        };
        if !matches!(
            method,
            "load"
                | "store"
                | "swap"
                | "fetch_add"
                | "fetch_sub"
                | "fetch_or"
                | "fetch_and"
                | "fetch_xor"
                | "compare_exchange"
                | "compare_exchange_weak"
        ) {
            continue;
        }
        let line = code.tok(i + 1).line;
        if file.is_test_line(line) || file.in_macro_rules(line) {
            continue;
        }
        let receiver = if code.tok(i - 1).kind == crate::lexer::TokenKind::Ident {
            code.text(i - 1).to_string()
        } else {
            continue;
        };
        let close = code.matching_close(open).unwrap_or(code.len() - 1);
        let mut orderings_seen = Vec::new();
        let mut j = open + 1;
        while j < close {
            if code.is_ident(j, "Ordering")
                && code.is_punct(j + 1, ':')
                && code.is_punct(j + 2, ':')
            {
                if let Some(name) = ORDERING_NAMES.iter().find(|n| code.is_ident(j + 3, n)) {
                    orderings_seen.push((*name).to_string());
                    j += 4;
                    continue;
                }
            }
            // Bare `Relaxed`-style imports: accept a lone ordering name.
            if let Some(name) = ORDERING_NAMES.iter().find(|n| code.is_ident(j, n)) {
                orderings_seen.push((*name).to_string());
            }
            j += 1;
        }
        if orderings_seen.is_empty() {
            continue; // not an atomic call (e.g. `Vec::load` lookalike)
        }
        out.push(AtomicCall {
            receiver,
            method: method.to_string(),
            orderings: orderings_seen,
            line,
        });
    }
    out
}

/// Relaxed-publish rule: same-named atomic `Acquire`-loaded and
/// `Relaxed`-stored within one file.
fn relaxed_publish(file: &SourceFile, calls: &[AtomicCall], out: &mut Vec<Finding>) {
    let mut acquire_loaded: HashMap<&str, usize> = HashMap::new();
    for c in calls {
        if c.method == "load" && c.orderings.iter().any(|o| o == "Acquire" || o == "SeqCst") {
            acquire_loaded.entry(&c.receiver).or_insert(c.line);
        }
    }
    for c in calls {
        if c.method != "store" || !c.orderings.iter().any(|o| o == "Relaxed") {
            continue;
        }
        let Some(&load_line) = acquire_loaded.get(c.receiver.as_str()) else {
            continue;
        };
        let justified = covering_tags(file, c.line)
            .iter()
            .filter_map(|a| orderings::find(&a.tag))
            .any(|t| t.relaxed_publish_ok);
        if !justified {
            out.push(Finding::new(
                PASS,
                "relaxed-publish",
                &file.label,
                c.line,
                format!(
                    "`{}` is stored Relaxed here but Acquire-loaded at line {} — a Relaxed store \
                     publishes nothing; use Release or a tag with `relaxed_publish_ok`",
                    c.receiver, load_line
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run_on(src: &str) -> Vec<Finding> {
        run(&SourceFile::parse("crates/x/src/a.rs", src))
    }

    #[test]
    fn untagged_site_is_flagged_and_tagged_site_is_not() {
        let src = "\
fn f(v: &AtomicUsize) {
    v.store(1, Ordering::Relaxed);
    // ORDERING(SHALOM-O-POOL-NAME): unique-id tick, nothing published.
    let _ = v.fetch_add(1, Ordering::Relaxed);
}
";
        let f = run_on(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "ordering-tag");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn fn_level_tag_covers_whole_body() {
        let src = "\
// ORDERING(SHALOM-O-POOL-NAME): all sites are unique-id ticks.
fn f(v: &AtomicUsize) {
    v.store(1, Ordering::Relaxed);

    let _ = v.load(Ordering::Relaxed);
}
";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn unknown_tag_and_empty_justification() {
        let src = "\
fn f(v: &AtomicUsize) {
    // ORDERING(SHALOM-O-MADE-UP): whatever.
    v.store(1, Ordering::Relaxed);
    // ORDERING(SHALOM-O-POOL-NAME):
    let _ = v.load(Ordering::Relaxed);
}
";
        let f = run_on(src);
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"unknown-ordering-tag"), "{f:?}");
        assert!(rules.contains(&"empty-justification"), "{f:?}");
    }

    #[test]
    fn use_lines_and_test_mods_are_exempt() {
        let src = "\
use std::sync::atomic::Ordering;
#[cfg(test)]
mod tests {
    fn t(v: &AtomicUsize) {
        v.store(1, Ordering::Relaxed);
    }
}
";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn relaxed_publish_is_flagged() {
        let src = "\
// ORDERING(SHALOM-O-PERF-FD): placeholder so tag presence passes.
fn f(v: &AtomicUsize) {
    let _ = v.load(Ordering::Acquire);
    v.store(0, Ordering::Relaxed);
}
";
        let f = run_on(src);
        assert!(f.iter().any(|x| x.rule == "relaxed-publish"), "{f:?}");
    }

    #[test]
    fn relaxed_publish_ok_tag_suppresses() {
        let src = "\
// ORDERING(SHALOM-O-RING-RESET): quiescent wipe; readers hold no refs.
fn f(v: &AtomicUsize) {
    let _ = v.load(Ordering::Acquire);
    v.store(0, Ordering::Relaxed);
}
";
        let f = run_on(src);
        assert!(!f.iter().any(|x| x.rule == "relaxed-publish"), "{f:?}");
    }
}
