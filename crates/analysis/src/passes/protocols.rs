//! Pass 5: the per-object protocol audit.
//!
//! The atomics pass checks each *site* in isolation: the tag exists,
//! the justification is non-empty, the local pattern is sane. This pass
//! takes the whole-protocol view: it resolves every atomic call to the
//! *atomic object* it touches (a
//! struct field, a static, or a getter's return slot) by walking the
//! receiver path backwards through the token stream — `self.head`,
//! `slot.seq`, `self.buckets[c][b]`, `enabled_flag()` — then groups the
//! sites per object and checks that each object's operations and tags
//! tell one coherent happens-before story:
//!
//! * **unpaired-release** — an object with a `Release`/`AcqRel` write
//!   but no `Acquire`/`SeqCst` consumer in the file publishes to
//!   nobody; either the consumer is missing or the Release is wasted.
//! * **relaxed-only-object** — an object whose every operation is
//!   `Relaxed` can only be justified by counter/gate/guarded/quiescent
//!   class tags; a publish-class tag on it promises an edge no
//!   operation provides.
//!
//! Objects are grouped per file and by final path segment: every
//! atomic protocol in this workspace lives inside a single file, and the
//! audited modules do not reuse a field name for two different atomics.

use std::collections::BTreeMap;

use crate::lexer::{self, TokenKind};
use crate::orderings::{self, OrderingTag};
use crate::passes::{atomics, CodeTokens};
use crate::source::SourceFile;
use crate::Finding;

const PASS: &str = "protocols";

/// Atomic method names whose calls the pass resolves to objects.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Memory-ordering names as they appear after `Ordering::`.
const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One atomic call resolved to its object.
#[derive(Debug)]
struct Site {
    /// Object key: final receiver-path segment (`seq`, `NEXT_NAME`,
    /// `enabled_flag()`).
    object: String,
    /// Method name (`load`, `store`, `fetch_add`, …).
    method: String,
    /// Ordering names in the argument list, in order (success then
    /// failure for CAS).
    orderings: Vec<String>,
    /// 1-based line of the method identifier.
    line: usize,
}

impl Site {
    fn has_ordering(&self, names: &[&str]) -> bool {
        self.orderings.iter().any(|o| names.contains(&o.as_str()))
    }

    /// Whether this operation has a release side (publishes prior
    /// writes): any non-load with a `Release`/`AcqRel`/`SeqCst`
    /// ordering.
    fn is_release_write(&self) -> bool {
        self.method != "load" && self.has_ordering(&["Release", "AcqRel", "SeqCst"])
    }

    /// Whether this operation has an acquire side (consumes a
    /// publish): an `Acquire`/`SeqCst` load, or an RMW/CAS with an
    /// acquiring success ordering.
    fn is_acquire_read(&self) -> bool {
        match self.method.as_str() {
            "load" => self.has_ordering(&["Acquire", "SeqCst"]),
            "store" => false,
            _ => self.has_ordering(&["Acquire", "AcqRel", "SeqCst"]),
        }
    }
}

/// Runs the audit on one file.
pub fn run(file: &SourceFile) -> Vec<Finding> {
    let code = CodeTokens::new(file);
    let sites = resolve_sites(&code);

    let mut objects: BTreeMap<&str, Vec<&Site>> = BTreeMap::new();
    for s in &sites {
        objects.entry(&s.object).or_default().push(s);
    }

    let mut out = Vec::new();
    for (object, sites) in &objects {
        check_object(file, object, sites, &mut out);
    }
    out
}

/// Applies every per-object rule.
fn check_object(file: &SourceFile, object: &str, sites: &[&Site], out: &mut Vec<Finding>) {
    let first_line = sites.iter().map(|s| s.line).min().unwrap_or(0);
    let tags = object_tags(file, sites);

    // unpaired-release: structural, needs no tags.
    if let Some(rel) = sites.iter().find(|s| s.is_release_write()) {
        if !sites.iter().any(|s| s.is_acquire_read()) {
            out.push(Finding::new(
                PASS,
                "unpaired-release",
                &file.label,
                rel.line,
                format!(
                    "`{object}` is Release-published here but never Acquire/SeqCst-consumed in \
                     this file — no load synchronizes with the publish, so either the consumer \
                     is missing its Acquire or the Release is ordering nothing"
                ),
            ));
        }
    }

    // relaxed-only-object: every op Relaxed ⇒ only relaxed-story tags.
    let all_relaxed = sites
        .iter()
        .all(|s| s.orderings.iter().all(|o| o == "Relaxed"));
    if all_relaxed {
        if let Some(bad) = tags.iter().find(|t| !t.class.relaxed_only_ok()) {
            out.push(Finding::new(
                PASS,
                "relaxed-only-object",
                &file.label,
                first_line,
                format!(
                    "`{object}` is Relaxed at every site but carries `{}` (class `{}`), which \
                     promises a happens-before edge no operation here provides — retag with a \
                     counter/gate/guarded/quiescent-class justification or add the missing \
                     ordering",
                    bad.id,
                    bad.class.as_str()
                ),
            ));
        }
    }
}

/// The registered tags attributed to the object's sites, first-seen
/// order, deduplicated. Each site contributes only its *nearest*
/// covering annotation line (several annotations' cover windows can
/// overlap one line; the closest one is the site's actual
/// justification — an adjacent site's tag three lines up is not).
/// Same-line ties all count, and a fn-header tag wins only when no
/// site-local tag covers the line.
fn object_tags(file: &SourceFile, sites: &[&Site]) -> Vec<&'static OrderingTag> {
    let mut tags: Vec<&'static OrderingTag> = Vec::new();
    for s in sites {
        let covering = atomics::covering_tags(file, s.line);
        let Some(nearest) = covering
            .iter()
            .map(|a| a.line)
            .filter(|&l| l <= s.line)
            .max()
        else {
            continue;
        };
        for a in covering.iter().filter(|a| a.line == nearest) {
            if let Some(t) = orderings::find(&a.tag) {
                if !tags.iter().any(|have| have.id == t.id) {
                    tags.push(t);
                }
            }
        }
    }
    tags
}

/// Extracts every atomic call with a path-resolved receiver.
fn resolve_sites(code: &CodeTokens<'_>) -> Vec<Site> {
    let file = code.file;
    let mut out = Vec::new();
    for i in 1..code.len() {
        if !code.is_punct(i, '.') || !code.is_punct(i + 2, '(') {
            continue;
        }
        let method = code.text(i + 1);
        if code.tok(i + 1).kind != TokenKind::Ident || !ATOMIC_METHODS.contains(&method) {
            continue;
        }
        let line = code.tok(i + 1).line;
        if file.is_test_line(line) || file.in_macro_rules(line) {
            continue;
        }
        let Some(object) = object_key(code, i) else {
            continue;
        };
        let close = code.matching_close(i + 2).unwrap_or(code.len() - 1);
        let mut orderings_seen = Vec::new();
        let mut j = i + 3;
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
        let method = method.to_string();
        out.push(Site {
            object,
            method,
            orderings: orderings_seen,
            line,
        });
    }
    out
}

/// Resolves the receiver path ending at the `.` token at `dot` to an
/// object key: the final path segment. Handles `self.field`, chained
/// fields (`slot.seq`), index projections (`self.buckets[c][b]` →
/// `buckets`), getter calls (`enabled_flag()` → `enabled_flag()`), and
/// raw identifiers (`s.r#type` → `type`).
fn object_key(code: &CodeTokens<'_>, dot: usize) -> Option<String> {
    let mut k = dot.checked_sub(1)?;
    loop {
        if code.is_punct(k, ')') {
            // A call's return slot: name it after the callee.
            let open = matching_open(code, k)?;
            k = open.checked_sub(1)?;
            return match code.tok(k).kind {
                TokenKind::Ident => Some(format!("{}()", lexer::ident_name(code.text(k)))),
                _ => None,
            };
        }
        if code.is_punct(k, ']') {
            // Index projection: resolve the expression being indexed.
            let open = matching_open(code, k)?;
            k = open.checked_sub(1)?;
            continue;
        }
        return match code.tok(k).kind {
            TokenKind::Ident => Some(lexer::ident_name(code.text(k)).to_string()),
            _ => None,
        };
    }
}

/// Index of the code token opening the delimiter closed at `close`,
/// scanning backwards.
fn matching_open(code: &CodeTokens<'_>, close: usize) -> Option<usize> {
    let (o, c) = match code.text(close) {
        ")" => ('(', ')'),
        "]" => ('[', ']'),
        "}" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i64;
    let mut j = close;
    loop {
        if code.is_punct(j, c) {
            depth += 1;
        } else if code.is_punct(j, o) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run_on(src: &str) -> Vec<Finding> {
        run(&SourceFile::parse("crates/x/src/a.rs", src))
    }

    fn site_objects(src: &str) -> Vec<(String, usize)> {
        let file = SourceFile::parse("crates/x/src/a.rs", src);
        let code = CodeTokens::new(&file);
        resolve_sites(&code)
            .into_iter()
            .map(|s| (s.object, s.line))
            .collect()
    }

    #[test]
    fn object_resolution_handles_paths_indexing_and_calls() {
        let src = "\
fn f(s: &S) {
    s.head.load(Ordering::Relaxed);
    s.slots[i & MASK].seq.store(1, Ordering::Release);
    self.buckets[c][b].fetch_add(1, Ordering::Relaxed);
    enabled_flag().load(Ordering::Relaxed);
    COUNT.fetch_add(1, Ordering::Relaxed);
    s.r#type.load(Ordering::Relaxed);
}
";
        let objects = site_objects(src);
        assert_eq!(
            objects,
            vec![
                ("head".to_string(), 2),
                ("seq".to_string(), 3),
                ("buckets".to_string(), 4),
                ("enabled_flag()".to_string(), 5),
                ("COUNT".to_string(), 6),
                ("type".to_string(), 7),
            ]
        );
    }

    #[test]
    fn unpaired_release_is_flagged() {
        let src = "\
// ORDERING(SHALOM-O-TRACE-PUBLISH): publish with no consumer.
fn f(v: &AtomicUsize) {
    v.store(1, Ordering::Release);
    let _ = v.load(Ordering::Relaxed);
}
";
        let f = run_on(src);
        assert!(f.iter().any(|x| x.rule == "unpaired-release"), "{f:?}");
    }

    #[test]
    fn paired_release_is_clean() {
        let src = "\
// ORDERING(SHALOM-O-TRACE-PUBLISH): Release publish, Acquire consume.
fn f(v: &AtomicUsize) {
    v.store(1, Ordering::Release);
    let _ = v.load(Ordering::Acquire);
}
";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn acqrel_rmw_pairs_itself() {
        // An AcqRel CAS both publishes and consumes; no finding.
        let src = "\
// ORDERING(SHALOM-O-PERF-FD): AcqRel CAS publishes and consumes.
fn f(v: &AtomicI64) {
    let _ = v.compare_exchange(-2, 3, Ordering::AcqRel, Ordering::Acquire);
}
";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn relaxed_only_object_under_publish_tag_is_flagged() {
        let src = "\
// ORDERING(SHALOM-O-PERF-FD): claims publish, provides only Relaxed.
fn f(v: &AtomicUsize) {
    v.fetch_add(1, Ordering::Relaxed);
}
";
        let f = run_on(src);
        assert!(f.iter().any(|x| x.rule == "relaxed-only-object"), "{f:?}");
    }

    #[test]
    fn relaxed_only_object_under_counter_tag_is_clean() {
        let src = "\
// ORDERING(SHALOM-O-POOL-NAME): unique-id tick.
fn f(v: &AtomicUsize) {
    v.fetch_add(1, Ordering::Relaxed);
}
";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn test_code_and_macro_templates_are_exempt() {
        let src = "\
macro_rules! bump {
    ($v:expr) => {
        $v.store(1, Ordering::Release)
    };
}
#[cfg(test)]
mod tests {
    fn t(v: &AtomicUsize) {
        v.store(1, Ordering::Release);
    }
}
";
        assert!(run_on(src).is_empty());
    }
}
