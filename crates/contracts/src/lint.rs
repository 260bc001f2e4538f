//! The unsafe-hygiene lint: a token-level source pass over
//! `crates/kernels` and `crates/core` enforcing the audit rules that tie
//! unsafe code to the contract registry.
//!
//! Rules (rule ids in backticks):
//!
//! * `safety-comment` — every `unsafe { … }` block is preceded by a
//!   `// SAFETY:` comment within four lines (test code included: a test
//!   explains *why* its pointers are valid like any other call site).
//! * `contract-tag` — outside `#[cfg(test)]` regions and `tests/` files,
//!   the SAFETY comment must reference a registered contract tag
//!   (`SHALOM-K-…` from [`crate::registry::registry`] or a driver-layer
//!   tag from [`crate::registry::DRIVER_TAGS`]), so every unsafe block is
//!   mechanically linked to an audited obligation.
//! * `safety-doc` — every non-test `unsafe fn` carries a `# Safety` doc
//!   section (or, for private helpers and trait impls, a `// SAFETY:`
//!   comment) stating its preconditions.
//! * `precondition-assert` — every `pub unsafe fn` in the four kernel
//!   files (`pack.rs`, `nt_pack.rs`, `edge.rs`, `main_kernel.rs`)
//!   restates its preconditions as `debug_assert!`s in its body.
//! * `unsafe-impl` — `unsafe impl` items need a `// SAFETY:` comment
//!   (tagged outside test code).
//! * `ptr-arith` — raw-pointer arithmetic (`.add(`, `.offset(`,
//!   `.byte_add(`, `.byte_offset(`) is confined to the kernel modules and
//!   the dispatch files (`driver.rs`, `parallel.rs`, `batch.rs`,
//!   `pool.rs`) whose obligations the driver tags cover; test code is
//!   exempt.
//! * `contract-anchor` — inside `crates/kernels/src`, every function
//!   that performs raw-pointer arithmetic *on pointer parameters* must
//!   be an `unsafe fn` carrying a `// CONTRACT(TAG)` anchor resolving to
//!   a known tag, so the symbolic bounds pass has a footprint to prove
//!   its offsets against. Safe functions whose arithmetic is confined to
//!   local buffers (no raw-pointer params) are exempt: the bounds pass
//!   checks them against the buffers' own extents without a contract.
//!
//! The pass is built on the shared `shalom-analysis` lexer
//! ([`shalom_analysis::source::SourceFile`]): `unsafe` sites are found in
//! the token stream (an `unsafe` inside a string or comment can no longer
//! fire a rule), `#[cfg(test)]` regions come from real matched braces
//! (braces inside string literals no longer leak a region open or
//! closed — the approximation the original line-based pass documented),
//! and code-text checks run over comment-stripped, literal-blanked lines.
//! Only the SAFETY/tag *comment* searches read raw source lines, since
//! comments are exactly what they look for.

use shalom_analysis::lexer::{Token, TokenKind};
use shalom_analysis::source::SourceFile;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// Explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Lint configuration: scanned roots and per-rule scoping.
pub struct LintConfig {
    /// Directories walked for `.rs` files (paths relative to the repo
    /// root).
    pub roots: Vec<PathBuf>,
    /// Known contract tags (kernel + driver layer).
    pub tags: Vec<&'static str>,
}

impl LintConfig {
    /// The shipped configuration: `crates/kernels` (src and tests) and
    /// `crates/core/src`, tags from the registry. Only the driver files
    /// of `crates/core/src` are inside `ptr_arith_allowed`; the lint
    /// enforces the no-raw-pointer-arithmetic rule on the rest, the plan
    /// layer and its override table among them.
    pub fn repo_default() -> Self {
        Self {
            roots: vec![
                PathBuf::from("crates/kernels/src"),
                PathBuf::from("crates/kernels/tests"),
                PathBuf::from("crates/core/src"),
                PathBuf::from("crates/simd/src"),
            ],
            tags: crate::registry::known_tags(),
        }
    }
}

/// Path of the workspace root, resolved from this crate's manifest (the
/// audit tooling is repo-local by design).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn ptr_arith_allowed(label: &str) -> bool {
    label.contains("crates/kernels/")
        || label.ends_with("core/src/driver.rs")
        || label.ends_with("core/src/parallel.rs")
        || label.ends_with("core/src/batch.rs")
        || label.ends_with("core/src/pool.rs")
}

fn needs_precondition_asserts(label: &str) -> bool {
    label.contains("crates/kernels/src/")
        && ["pack.rs", "nt_pack.rs", "edge.rs", "main_kernel.rs"]
            .iter()
            .any(|f| label.ends_with(f))
}

/// Lints every `.rs` file under the configured roots of `repo_root`.
///
/// # Panics
/// If a configured root cannot be read — the audit must not silently
/// skip files.
pub fn lint_repo(repo_root: &Path, cfg: &LintConfig) -> Vec<Violation> {
    let mut files = Vec::new();
    for root in &cfg.roots {
        collect_rs_files(&repo_root.join(root), &mut files);
    }
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let src = fs::read_to_string(&f)
            .unwrap_or_else(|e| panic!("audit cannot read {}: {e}", f.display()));
        let label = f
            .strip_prefix(repo_root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        out.extend(lint_source(&label, &src, cfg));
    }
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        fs::read_dir(dir).unwrap_or_else(|e| panic!("audit cannot walk {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// True when the snippet declares an `unsafe fn` item (not a fn-pointer
/// type like `unsafe fn(usize)`): in the token stream, `unsafe`
/// [`extern` ["ABI"]] `fn` followed by an identifier (the name).
#[cfg(test)]
pub(crate) fn declares_unsafe_fn(code: &str) -> bool {
    let file = SourceFile::parse("snippet.rs", code);
    let toks: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
    (0..toks.len()).any(|i| unsafe_fn_decl(&toks, &file.src, i).is_some())
}

/// If the code token at `i` is `unsafe` starting an `unsafe fn` item
/// declaration, returns the index of the `fn` token.
fn unsafe_fn_decl(toks: &[&Token], src: &str, i: usize) -> Option<usize> {
    if toks[i].kind != TokenKind::Ident || toks[i].text(src) != "unsafe" {
        return None;
    }
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.text(src) == "extern") {
        j += 1;
        if toks.get(j).is_some_and(|t| t.kind == TokenKind::Str) {
            j += 1;
        }
    }
    if !toks
        .get(j)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text(src) == "fn")
    {
        return None;
    }
    // A fn *item* has a name; `unsafe fn(usize)` is a pointer type.
    toks.get(j + 1)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|_| j)
}

fn safety_comment_nearby(lines: &[&str], idx: usize) -> bool {
    let lo = idx.saturating_sub(4);
    lines[lo..=idx.min(lines.len().saturating_sub(1))]
        .iter()
        .any(|l| l.contains("SAFETY"))
}

fn tag_nearby(lines: &[&str], idx: usize, tags: &[&'static str]) -> bool {
    let lo = idx.saturating_sub(4);
    lines[lo..=idx.min(lines.len().saturating_sub(1))]
        .iter()
        .any(|l| tags.iter().any(|t| l.contains(t)))
}

/// Scans the contiguous doc/attribute block above `idx` (0-based) for a
/// `# Safety` section or `SAFETY:` comment.
fn safety_doc_above(lines: &[&str], idx: usize) -> bool {
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim_start();
        let is_doc = t.starts_with("///")
            || t.starts_with("//!")
            || t.starts_with("//")
            || t.starts_with("#[")
            || t.starts_with("#![")
            || t.is_empty();
        if !is_doc {
            return false;
        }
        if t.contains("# Safety") || t.contains("SAFETY") {
            return true;
        }
    }
    false
}

/// From the `unsafe fn` declared at 1-based `decl_line`, checks its body
/// (resolved through the shared fn-region map, so braces inside strings
/// cannot truncate the scan) for a `debug_assert` in *code* text.
fn fn_body_has_debug_assert(file: &SourceFile, decl_line: usize) -> bool {
    let Some(f) = file.fns.iter().find(|f| f.decl_line == decl_line) else {
        return false;
    };
    let (Some(start), Some(end)) = (f.body_start, f.body_end) else {
        return false; // declaration without a body (trait method)
    };
    file.code[start - 1..end.min(file.code.len())]
        .iter()
        .any(|l| l.contains("debug_assert"))
}

/// Raw-pointer arithmetic methods confined by the `ptr-arith` rule.
const PTR_ARITH: &[&str] = &["add", "offset", "byte_add", "byte_offset"];

/// Lints one source file. `label` is the repo-relative path (used for
/// rule scoping and reporting).
pub fn lint_source(label: &str, src: &str, cfg: &LintConfig) -> Vec<Violation> {
    let file = SourceFile::parse(label, src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let toks: Vec<&Token> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();

    for i in 0..toks.len() {
        let t = toks[i];
        let line_no = t.line;
        let idx = line_no - 1; // raw_lines index
        let in_test = file.is_test_line(line_no);

        if t.kind == TokenKind::Ident && t.text(&file.src) == "unsafe" {
            let next = toks.get(i + 1);
            let next_text = next.map(|n| n.text(&file.src)).unwrap_or("");

            // `unsafe { … }` block.
            if next.is_some_and(|n| n.kind == TokenKind::Punct) && next_text == "{" {
                if !safety_comment_nearby(&raw_lines, idx) {
                    out.push(Violation {
                        file: label.to_string(),
                        line: line_no,
                        rule: "safety-comment",
                        msg: "unsafe block without a // SAFETY: comment".into(),
                    });
                } else if !in_test && !tag_nearby(&raw_lines, idx, &cfg.tags) {
                    out.push(Violation {
                        file: label.to_string(),
                        line: line_no,
                        rule: "contract-tag",
                        msg: "SAFETY comment does not reference a registered contract tag".into(),
                    });
                }
                continue;
            }

            // `unsafe impl … {}`.
            if next.is_some_and(|n| n.kind == TokenKind::Ident) && next_text == "impl" {
                if !safety_comment_nearby(&raw_lines, idx) {
                    out.push(Violation {
                        file: label.to_string(),
                        line: line_no,
                        rule: "unsafe-impl",
                        msg: "unsafe impl without a // SAFETY: comment".into(),
                    });
                } else if !in_test && !tag_nearby(&raw_lines, idx, &cfg.tags) {
                    out.push(Violation {
                        file: label.to_string(),
                        line: line_no,
                        rule: "contract-tag",
                        msg: "unsafe impl's SAFETY comment references no registered tag".into(),
                    });
                }
                continue;
            }

            // `unsafe fn` item declaration.
            if !in_test {
                if let Some(fn_tok) = unsafe_fn_decl(&toks, &file.src, i) {
                    if !safety_doc_above(&raw_lines, idx) {
                        out.push(Violation {
                            file: label.to_string(),
                            line: line_no,
                            rule: "safety-doc",
                            msg: "unsafe fn without a `# Safety` doc section or SAFETY comment"
                                .into(),
                        });
                    }
                    let is_pub = i > 0 && toks[i - 1].text(&file.src) == "pub";
                    if needs_precondition_asserts(label)
                        && is_pub
                        && !fn_body_has_debug_assert(&file, toks[fn_tok].line)
                    {
                        out.push(Violation {
                            file: label.to_string(),
                            line: line_no,
                            rule: "precondition-assert",
                            msg:
                                "pub unsafe kernel entry point without debug_assert! preconditions"
                                    .into(),
                        });
                    }
                }
            }
            continue;
        }

        // `.add(` / `.offset(` / `.byte_add(` / `.byte_offset(`.
        if !in_test
            && !ptr_arith_allowed(label)
            && t.kind == TokenKind::Punct
            && t.text(&file.src) == "."
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokenKind::Ident && PTR_ARITH.contains(&n.text(&file.src))
            })
            && toks.get(i + 2).is_some_and(|n| n.text(&file.src) == "(")
        {
            out.push(Violation {
                file: label.to_string(),
                line: line_no,
                rule: "ptr-arith",
                msg: format!(
                    "raw-pointer arithmetic (`.{}(…`) outside the kernel modules",
                    toks[i + 1].text(&file.src)
                ),
            });
        }
    }

    // `contract-anchor`: kernel functions offsetting their pointer
    // parameters must anchor a contract the bounds pass can prove.
    if label.contains("crates/kernels/src/") {
        for f in shalom_analysis::passes::bounds::fn_summaries(&file) {
            if f.first_site_line.is_none() || !f.has_raw_ptr_params {
                continue;
            }
            if !f.is_unsafe {
                out.push(Violation {
                    file: label.to_string(),
                    line: f.decl_line,
                    rule: "contract-anchor",
                    msg: format!(
                        "fn `{}` offsets raw-pointer parameters but is not an unsafe fn",
                        f.name
                    ),
                });
            } else if !f.tags.iter().any(|t| cfg.tags.iter().any(|k| k == t)) {
                out.push(Violation {
                    file: label.to_string(),
                    line: f.decl_line,
                    rule: "contract-anchor",
                    msg: format!(
                        "unsafe fn `{}` offsets raw-pointer parameters without a \
                         // CONTRACT(TAG) anchor naming a registered tag",
                        f.name
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LintConfig {
        LintConfig::repo_default()
    }

    #[test]
    fn flags_bare_unsafe_block() {
        let src = "fn f() {\n    unsafe { work() };\n}\n";
        let v = lint_source("crates/core/src/x.rs", src, &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn accepts_tagged_safety_comment() {
        let src = "fn f() {\n    // SAFETY: SHALOM-D-DRIVER — views validated above.\n    unsafe { work() };\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn untagged_comment_fails_outside_tests_only() {
        let src = "fn f() {\n    // SAFETY: pointers are fine.\n    unsafe { work() };\n}\n";
        let v = lint_source("crates/core/src/x.rs", src, &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "contract-tag");
        // Same code inside a tests/ file: the tag requirement is waived.
        assert!(lint_source("crates/kernels/tests/x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn cfg_test_region_waives_tag_but_not_comment() {
        let src = "\
fn f() {}
#[cfg(test)]
mod tests {
    fn g() {
        // SAFETY: exact-extent buffers above.
        unsafe { work() };
    }
    fn h() {
        let a = 1;
        let b = 2;
        let c = 3;
        let d = a + b + c;
        unsafe { work(d) };
    }
}
";
        let v = lint_source("crates/kernels/src/x.rs", src, &cfg());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "safety-comment");
        assert_eq!(v[0].line, 13);
    }

    #[test]
    fn unsafe_fn_needs_safety_doc_and_kernel_entry_needs_asserts() {
        let src = "\
/// Does things.
pub unsafe fn k(p: *const f32) {
    let _ = p;
}
";
        let v = lint_source("crates/kernels/src/pack.rs", src, &cfg());
        let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"safety-doc"), "{v:?}");
        assert!(rules.contains(&"precondition-assert"), "{v:?}");
        let ok = "\
/// Does things.
///
/// # Safety
/// `p` valid.
pub unsafe fn k(p: *const f32) {
    debug_assert!(!p.is_null());
    let _ = p;
}
";
        assert!(lint_source("crates/kernels/src/pack.rs", ok, &cfg()).is_empty());
    }

    #[test]
    fn fn_pointer_type_is_not_a_declaration() {
        assert!(!declares_unsafe_fn("type EdgeFn<V> = unsafe fn("));
        assert!(declares_unsafe_fn("pub unsafe fn main_kernel<V: Vector>("));
        assert!(declares_unsafe_fn(
            "pub unsafe extern \"C\" fn shalom_sgemm("
        ));
    }

    #[test]
    fn ptr_arith_confined_to_kernel_modules() {
        let src = "fn f(p: *const f32) -> *const f32 {\n    p.add(3)\n}\n";
        let v = lint_source("crates/core/src/api.rs", src, &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "ptr-arith");
        assert!(lint_source("crates/core/src/driver.rs", src, &cfg()).is_empty());
        assert!(lint_source("crates/core/src/pool.rs", src, &cfg()).is_empty());
        // Kernel modules are exempt from ptr-arith (the contract-anchor
        // rule governs them instead).
        let v = lint_source("crates/kernels/src/main_kernel.rs", src, &cfg());
        assert!(v.iter().all(|x| x.rule != "ptr-arith"), "{v:?}");
    }

    #[test]
    fn kernel_fn_offsetting_params_needs_contract_anchor() {
        // A safe fn offsetting a pointer parameter: flagged.
        let src = "fn f(p: *const f32) -> *const f32 {\n    p.add(3)\n}\n";
        let v = lint_source("crates/kernels/src/x.rs", src, &cfg());
        assert!(v.iter().any(|x| x.rule == "contract-anchor"), "{v:?}");
        // Unsafe but unanchored: flagged.
        let src = "\
/// # Safety
/// `p` valid.
unsafe fn f(p: *const f32) -> *const f32 {
    p.add(3)
}
";
        let v = lint_source("crates/kernels/src/x.rs", src, &cfg());
        assert!(v.iter().any(|x| x.rule == "contract-anchor"), "{v:?}");
        // Anchored with a registered tag: clean.
        let src = "\
/// # Safety
/// `p` valid.
// CONTRACT(SHALOM-K-MAIN)
unsafe fn f(p: *const f32) -> *const f32 {
    p.add(3)
}
";
        assert!(lint_source("crates/kernels/src/x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn local_buffer_arithmetic_without_ptr_params_is_anchor_exempt() {
        // A *safe* fn whose pointer arithmetic is confined to locally
        // owned buffers (a staging pattern). The bounds
        // pass proves those sites against the buffers' own extents, so
        // no contract anchor is required.
        let src = "\
fn g() -> usize {
    let v = [0f32; 8];
    let p = v.as_ptr();
    // SAFETY: SHALOM-K-MAIN — index < 8 by construction.
    unsafe { p.add(3) as usize }
}
";
        assert!(lint_source("crates/kernels/src/x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn unsafe_impl_needs_comment() {
        let src = "unsafe impl<T> Send for P<T> {}\n";
        let v = lint_source("crates/core/src/parallel.rs", src, &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe-impl");
        let ok =
            "// SAFETY: SHALOM-D-SEND — disjoint partitions.\nunsafe impl<T> Send for P<T> {}\n";
        assert!(lint_source("crates/core/src/parallel.rs", ok, &cfg()).is_empty());
    }

    #[test]
    fn split_line_unsafe_block_is_detected() {
        let src = "fn f() {\n    let x = unsafe\n    {\n        work()\n    };\n}\n";
        let v = lint_source("crates/core/src/x.rs", src, &cfg());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_ignored() {
        // An `unsafe {` inside a string literal or a comment is not a
        // site — the token-level rewrite's reason for existing.
        let src = "fn f() {\n    let s = \"unsafe { }\";\n    // unsafe { }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn braces_in_strings_do_not_leak_test_regions() {
        // The `"}"` inside the test mod would, under line-based brace
        // counting, close the region early and re-enable the tag rule
        // for the second block.
        let src = "\
#[cfg(test)]
mod tests {
    fn g() {
        let s = \"}\";
        // SAFETY: exact-extent buffers above.
        unsafe { work() };
    }
}
";
        assert!(lint_source("crates/kernels/src/x.rs", src, &cfg()).is_empty());
    }

    #[test]
    fn the_actual_repo_is_clean() {
        let root = repo_root();
        let v = lint_repo(&root, &cfg());
        assert!(
            v.is_empty(),
            "unsafe-hygiene violations:\n{}",
            v.iter().map(|x| format!("  {x}\n")).collect::<String>()
        );
    }
}
