//! The analyzed view of one source file: token stream, per-line code,
//! test-region map, function regions, and the parsed annotation tags
//! (`ORDERING(SHALOM-O-…)`, `PANIC-OK`, `ALLOC-FREE`, file directives).

use crate::lexer::{self, CodeLines, Token, TokenKind};

/// A function item found in the token stream.
#[derive(Debug, Clone)]
pub struct FnRegion {
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    /// First line of the contiguous doc/attribute/comment block above
    /// the declaration (equals `decl_line` when there is none).
    pub header_line: usize,
    /// 1-based line of the body's opening `{` (None for trait-method
    /// declarations without a body).
    pub body_start: Option<usize>,
    /// 1-based line of the body's closing `}` (None without a body).
    pub body_end: Option<usize>,
}

impl FnRegion {
    /// Whether 1-based `line` falls inside this function's body.
    pub fn body_contains(&self, line: usize) -> bool {
        match (self.body_start, self.body_end) {
            (Some(s), Some(e)) => line >= s && line <= e,
            _ => false,
        }
    }
}

/// One `ORDERING(TAG): justification` annotation.
#[derive(Debug, Clone)]
pub struct OrderingAnnotation {
    /// 1-based line of the comment.
    pub line: usize,
    /// The tag id inside the parentheses.
    pub tag: String,
    /// The justification text after the colon (trimmed; may be empty —
    /// the audit flags that).
    pub justification: String,
}

/// One `CONTRACT(TAG[, TAG…][: key = expr, …])` anchor comment: ties
/// the function whose header block carries it to one or more registered
/// kernel contracts, so the bounds pass knows which footprints govern
/// its pointer sites. Optional bindings after the `:` map spec names to
/// in-function expressions — operand names to the local pointer path
/// (`stream_src = s.src`) and spec symbols to parameter expressions
/// (`m = M`, `nr = NR_VECS * V::LANES`); unbound names map to
/// themselves.
#[derive(Debug, Clone)]
pub struct ContractAnnotation {
    /// 1-based line of the comment.
    pub line: usize,
    /// The comma-separated tags inside the parentheses, trimmed.
    pub tags: Vec<String>,
    /// `key = expr` bindings after the `:`, in written order. Values
    /// are raw expression text; the bounds pass parses them.
    pub bindings: Vec<(String, String)>,
}

/// A parsed `// ALLOC-FREE` range (explicit begin/end pair, or a whole
/// function body when the marker sits in a function's header block).
#[derive(Debug, Clone, Copy)]
pub struct AllocFreeRange {
    /// First checked line (1-based, inclusive).
    pub start: usize,
    /// Last checked line (inclusive).
    pub end: usize,
    /// Line of the marker comment (for reporting unterminated ranges).
    pub marker_line: usize,
}

/// Fully analyzed source file.
pub struct SourceFile {
    /// Repo-relative path (reporting + rule scoping).
    pub label: String,
    /// Raw source lines.
    pub lines: Vec<String>,
    /// Comment-stripped, literal-blanked code lines.
    pub code: Vec<String>,
    /// Brace depth after each line.
    pub depth_after: Vec<i64>,
    /// Parenthesis depth after each line (code tokens only).
    pub paren_depth_after: Vec<i64>,
    /// Bracket depth after each line (code tokens only).
    pub bracket_depth_after: Vec<i64>,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Owned copy of the source the token spans index into.
    pub src: String,
    /// Whether the path is under a `tests/` directory.
    pub is_test_file: bool,
    /// Per-line flag: inside a `#[cfg(test)] mod …` region.
    pub in_test_mod: Vec<bool>,
    /// Function items, in source order.
    pub fns: Vec<FnRegion>,
    /// `ORDERING(…)` annotations, in source order.
    pub ordering_annotations: Vec<OrderingAnnotation>,
    /// `CONTRACT(…)` anchor annotations, in source order.
    pub contract_annotations: Vec<ContractAnnotation>,
    /// Lines carrying a `PANIC-OK:` comment.
    pub panic_ok_lines: Vec<usize>,
    /// Lines carrying a `PANIC-OK(index):` fn-header waiver.
    pub panic_ok_index_lines: Vec<usize>,
    /// `ALLOC-FREE` checked ranges.
    pub alloc_free: Vec<AllocFreeRange>,
    /// Line spans (1-based, inclusive) of `macro_rules!` definitions.
    /// Template tokens are patterns, not executable sites, so the
    /// atomic passes skip lines inside these regions.
    pub macro_rules_regions: Vec<(usize, usize)>,
    /// File-level directives from `//! shalom-analysis: …` comments
    /// (e.g. `deny(panic)`).
    pub directives: Vec<String>,
}

impl SourceFile {
    /// Lexes and analyzes one file.
    pub fn parse(label: &str, src: &str) -> SourceFile {
        let tokens = lexer::lex(src);
        let CodeLines {
            code,
            depth_after,
            paren_depth_after,
            bracket_depth_after,
        } = lexer::code_lines_from(src, &tokens);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let n = lines.len().max(1);
        let is_test_file = label.contains("/tests/") || label.starts_with("tests/");
        let in_test_mod = test_mod_lines(&tokens, src, n);
        let fns = fn_regions(&tokens, src, &lines);
        let macro_rules_regions = macro_rules_regions(&tokens, src);
        let mut file = SourceFile {
            label: label.to_string(),
            lines,
            code,
            depth_after,
            paren_depth_after,
            bracket_depth_after,
            tokens,
            src: src.to_string(),
            is_test_file,
            in_test_mod,
            fns,
            ordering_annotations: Vec::new(),
            contract_annotations: Vec::new(),
            panic_ok_lines: Vec::new(),
            panic_ok_index_lines: Vec::new(),
            alloc_free: Vec::new(),
            macro_rules_regions,
            directives: Vec::new(),
        };
        file.parse_annotations();
        file
    }

    /// Whether 1-based `line` is test code (a `tests/` file or inside a
    /// `#[cfg(test)] mod`).
    pub fn is_test_line(&self, line: usize) -> bool {
        self.is_test_file
            || self
                .in_test_mod
                .get(line.saturating_sub(1))
                .copied()
                .unwrap_or(false)
    }

    /// Whether 1-based `line` falls inside a `macro_rules!` definition.
    pub fn in_macro_rules(&self, line: usize) -> bool {
        self.macro_rules_regions
            .iter()
            .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// The innermost function whose body contains `line`.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnRegion> {
        self.fns
            .iter()
            .filter(|f| f.body_contains(line))
            .max_by_key(|f| f.decl_line)
    }

    /// Whether a `PANIC-OK:` justification covers `line`: the same line,
    /// or within two lines below the end of the contiguous comment block
    /// the justification starts (so a multi-line reason still reaches its
    /// site, but a stale comment cannot blanket half a function).
    pub fn panic_ok_covers(&self, line: usize) -> bool {
        self.panic_ok_lines.iter().any(|&l| {
            let mut end = l;
            while end < self.lines.len() {
                let next = end + 1; // 1-based candidate continuation line
                let raw_nonempty = !self.lines[next - 1].trim().is_empty();
                let code_empty = self.code.get(next - 1).is_none_or(|c| c.trim().is_empty());
                if raw_nonempty && code_empty {
                    end = next;
                } else {
                    break;
                }
            }
            line >= l && line <= end + 2
        })
    }

    /// Whether a fn-header `PANIC-OK(index):` waiver covers `line`.
    /// Unlike the per-site form, this blankets one whole function body —
    /// meant for register-tile kernels whose `acc[i][t]` accumulator
    /// indexing is bounded by const-generic loop limits, where a comment
    /// per line would drown the code.
    pub fn panic_ok_index_covers(&self, line: usize) -> bool {
        self.panic_ok_index_lines.iter().any(|&marker| {
            self.fns
                .iter()
                .filter(|f| marker >= f.header_line && marker < f.decl_line)
                .any(|f| f.body_contains(line))
        })
    }

    fn parse_annotations(&mut self) {
        for tok in &self.tokens {
            if !tok.is_comment() {
                continue;
            }
            let text = tok.text(&self.src);
            // Multi-line block comments can carry one annotation per line.
            for (off, cline) in text.lines().enumerate() {
                let line = tok.line + off;
                if let Some(rest) = find_after(cline, "ORDERING(") {
                    if let Some(close) = rest.find(')') {
                        let tag = rest[..close].trim().to_string();
                        let after = rest[close + 1..].trim_start();
                        let justification =
                            after.strip_prefix(':').unwrap_or("").trim().to_string();
                        self.ordering_annotations.push(OrderingAnnotation {
                            line,
                            tag,
                            justification,
                        });
                    }
                }
                if let Some(rest) = find_after(cline, "CONTRACT(") {
                    // Bindings may contain nested parentheses and
                    // commas, so the close paren is depth-matched and
                    // splits happen at depth 0 only.
                    if let Some(close) = find_depth_matched_close(rest) {
                        let body = &rest[..close];
                        // Tags never contain `:`, so the first top-level
                        // colon (if any) starts the binding list; `::`
                        // inside binding values sits after it.
                        let (tag_part, bind_part) = match body.find(':') {
                            Some(p) => (&body[..p], Some(&body[p + 1..])),
                            None => (body, None),
                        };
                        let tags = tag_part
                            .split(',')
                            .map(|t| t.trim().to_string())
                            .filter(|t| !t.is_empty())
                            .collect();
                        let mut bindings = Vec::new();
                        for piece in bind_part.map(split_top_commas).unwrap_or_default() {
                            if let Some(eq) = piece.find('=') {
                                let key = piece[..eq].trim().to_string();
                                let val = piece[eq + 1..].trim().to_string();
                                if !key.is_empty() && !val.is_empty() {
                                    bindings.push((key, val));
                                }
                            }
                        }
                        self.contract_annotations.push(ContractAnnotation {
                            line,
                            tags,
                            bindings,
                        });
                    }
                }
                if cline.contains("PANIC-OK:") {
                    self.panic_ok_lines.push(line);
                }
                if cline.contains("PANIC-OK(index):") {
                    self.panic_ok_index_lines.push(line);
                }
                if let Some(rest) = find_after(cline, "shalom-analysis:") {
                    let t = cline.trim_start();
                    if t.starts_with("//!") {
                        self.directives.push(rest.trim().to_string());
                    }
                }
            }
        }
        self.alloc_free = alloc_free_ranges(self);
    }

    /// Whether the file opts into a directive (e.g. `deny(panic)`).
    pub fn has_directive(&self, directive: &str) -> bool {
        self.directives.iter().any(|d| d == directive)
    }

    /// The `CONTRACT(…)` tags anchored to the function declared at
    /// `decl_line` — annotations sitting in the contiguous header block
    /// above the declaration.
    pub fn contract_tags_for(&self, f: &FnRegion) -> Vec<String> {
        self.contract_anchors_for(f)
            .into_iter()
            .flat_map(|a| a.tags.iter().cloned())
            .collect()
    }

    /// The full `CONTRACT(…)` anchor annotations (tags + bindings) in
    /// the header block of `f`.
    pub fn contract_anchors_for(&self, f: &FnRegion) -> Vec<&ContractAnnotation> {
        self.contract_annotations
            .iter()
            .filter(|a| a.line >= f.header_line && a.line < f.decl_line)
            .collect()
    }
}

/// Byte index of the `)` closing the group whose contents start at the
/// beginning of `s` (the opening paren was already consumed).
fn find_depth_matched_close(s: &str) -> Option<usize> {
    let mut depth = 0i64;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth == 0 => return Some(i),
            ')' => depth -= 1,
            _ => {}
        }
    }
    None
}

/// Splits at commas sitting outside any parentheses.
fn split_top_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn find_after<'a>(haystack: &'a str, needle: &str) -> Option<&'a str> {
    haystack.find(needle).map(|i| &haystack[i + needle.len()..])
}

/// Computes which lines sit inside `#[cfg(test)] mod …` regions, using
/// real token depths (a `{` in a string can no longer leak a region
/// open or closed — the approximation the PR 2 lint documented).
fn test_mod_lines(tokens: &[Token], src: &str, n_lines: usize) -> Vec<bool> {
    let mut flags = vec![false; n_lines];
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut i = 0usize;
    while i < code.len() {
        // Match `# [ cfg ( test ) ]`.
        if is_punct(code[i], src, '#')
            && matches_seq(&code, src, i + 1, &["[", "cfg", "(", "test", ")", "]"])
        {
            // Scan forward over further attributes to `mod name {`.
            let mut j = i + 7;
            while j < code.len() && is_punct(code[j], src, '#') {
                j = skip_attr(&code, src, j);
            }
            if j < code.len() && code[j].kind == TokenKind::Ident && code[j].text(src) == "mod" {
                // Find the opening brace (skip the name; a `mod x;`
                // declaration has no body to mark).
                let mut k = j + 1;
                while k < code.len() && !is_punct(code[k], src, '{') && !is_punct(code[k], src, ';')
                {
                    k += 1;
                }
                if k < code.len() && is_punct(code[k], src, '{') {
                    if let Some(close) = matching_close(&code, src, k) {
                        let lo = code[k].line.saturating_sub(1);
                        let hi = (code[close].line).min(n_lines);
                        for f in flags.iter_mut().take(hi).skip(lo) {
                            *f = true;
                        }
                        i = close + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    flags
}

fn is_punct(tok: &Token, src: &str, c: char) -> bool {
    tok.kind == TokenKind::Punct && tok.text(src).starts_with(c)
}

fn matches_seq(code: &[&Token], src: &str, start: usize, expect: &[&str]) -> bool {
    for (i, want) in expect.iter().enumerate() {
        match code.get(start + i) {
            Some(t) if t.text(src) == *want => {}
            _ => return false,
        }
    }
    true
}

/// From a `#` token, returns the index one past its `[ … ]` group.
fn skip_attr(code: &[&Token], src: &str, hash: usize) -> usize {
    let mut j = hash + 1;
    // Optional `!` for inner attributes.
    if j < code.len() && is_punct(code[j], src, '!') {
        j += 1;
    }
    if j >= code.len() || !is_punct(code[j], src, '[') {
        return hash + 1;
    }
    let mut depth = 0i64;
    while j < code.len() {
        if is_punct(code[j], src, '[') {
            depth += 1;
        } else if is_punct(code[j], src, ']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    code.len()
}

/// Index of the `}` matching the `{` at `open` (within the
/// comment-stripped token slice), or None when unbalanced.
fn matching_close(code: &[&Token], src: &str, open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in code.iter().enumerate().skip(open) {
        if is_punct(t, src, '{') {
            depth += 1;
        } else if is_punct(t, src, '}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the token closing the delimiter group opened at `open`
/// (`{}`, `()` or `[]`), counting only that pair — macro template
/// bodies are token-tree balanced, so single-pair counting is exact
/// even with nested mixed delimiters inside.
fn matching_close_delim(code: &[&Token], src: &str, open: usize) -> Option<usize> {
    let (o, c) = match code[open].text(src).as_bytes().first()? {
        b'{' => ('{', '}'),
        b'(' => ('(', ')'),
        b'[' => ('[', ']'),
        _ => return None,
    };
    let mut depth = 0i64;
    for (j, t) in code.iter().enumerate().skip(open) {
        if is_punct(t, src, o) {
            depth += 1;
        } else if is_punct(t, src, c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Finds every `macro_rules! name { … }` definition (any of the three
/// outer delimiters) and records its line span. Nested braces inside
/// the transcriber templates — including literal `{ $($t)* }` token
/// trees — are balanced by [`matching_close_delim`], so a template
/// cannot leak the region open or closed.
fn macro_rules_regions(tokens: &[Token], src: &str) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let is_def = code[i].kind == TokenKind::Ident
            && code[i].text(src) == "macro_rules"
            && code.get(i + 1).is_some_and(|t| is_punct(t, src, '!'))
            && code.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident);
        if is_def && i + 3 < code.len() {
            if let Some(close) = matching_close_delim(&code, src, i + 3) {
                out.push((code[i].line, code[close].end_line));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Finds every `fn` item: declaration line, header-comment start, and
/// body span (via matched braces).
fn fn_regions(tokens: &[Token], src: &str, lines: &[String]) -> Vec<FnRegion> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text(src) != "fn" {
            continue;
        }
        // A fn *item* is followed by a name; `fn(` is a fn-pointer type.
        let named = code.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident);
        if !named {
            continue;
        }
        // Body: first `{` before a `;` at signature level (a `;` inside
        // brackets is an array type's, as in `-> [f32; 8]`).
        let mut j = i + 1;
        let mut body = None;
        let mut angle = 0i64;
        let mut paren = 0i64;
        let mut bracket = 0i64;
        while j < code.len() {
            let t = code[j];
            if t.kind == TokenKind::Punct {
                match t.text(src).as_bytes()[0] {
                    b'<' => angle += 1,
                    b'>' => angle -= 1,
                    b'(' => paren += 1,
                    b')' => paren -= 1,
                    b'[' => bracket += 1,
                    b']' => bracket -= 1,
                    b'{' if angle <= 0 && paren == 0 && bracket == 0 => {
                        body = Some(j);
                        break;
                    }
                    b';' if angle <= 0 && paren == 0 && bracket == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let (body_start, body_end) = match body {
            Some(open) => match matching_close(&code, src, open) {
                Some(close) => (Some(code[open].line), Some(code[close].line)),
                None => (Some(code[open].line), Some(lines.len())),
            },
            None => (None, None),
        };
        out.push(FnRegion {
            decl_line: tok.line,
            header_line: header_start(lines, tok.line),
            body_start,
            body_end,
        });
    }
    out
}

/// First line of the contiguous comment/attribute block directly above
/// a declaration at 1-based `decl_line`.
fn header_start(lines: &[String], decl_line: usize) -> usize {
    let mut first = decl_line;
    let mut idx = decl_line.saturating_sub(1); // 0-based line above decl
    while idx > 0 {
        let t = lines[idx - 1].trim_start();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![") || t.starts_with('*')
        {
            first = idx;
            idx -= 1;
        } else {
            break;
        }
    }
    first
}

/// Resolves `ALLOC-FREE` markers into checked line ranges: an explicit
/// `// ALLOC-FREE: begin` … `// ALLOC-FREE: end` pair, or a bare
/// `// ALLOC-FREE` in a function's header block covering its body.
fn alloc_free_ranges(file: &SourceFile) -> Vec<AllocFreeRange> {
    let mut out = Vec::new();
    let mut begin: Option<usize> = None;
    for tok in &file.tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        // A marker is a plain `// ALLOC-FREE…` comment; doc comments
        // (`///`, `//!`) merely *mentioning* the phrase in prose are not
        // markers.
        let Some(body) = tok.text(&file.src).strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let text = body.trim_start();
        if !text.starts_with("ALLOC-FREE") {
            continue;
        }
        if text.starts_with("ALLOC-FREE: begin") {
            begin = Some(tok.line);
        } else if text.starts_with("ALLOC-FREE: end") {
            if let Some(b) = begin.take() {
                out.push(AllocFreeRange {
                    start: b,
                    end: tok.line,
                    marker_line: b,
                });
            }
        } else {
            // Function-body marker: attach to the fn whose header block
            // contains this comment line.
            if let Some(f) = file
                .fns
                .iter()
                .find(|f| tok.line >= f.header_line && tok.line < f.decl_line)
            {
                if let (Some(s), Some(e)) = (f.body_start, f.body_end) {
                    out.push(AllocFreeRange {
                        start: s,
                        end: e,
                        marker_line: tok.line,
                    });
                }
            } else {
                // Dangling marker: record an empty range so the pass can
                // report it instead of silently skipping the check.
                out.push(AllocFreeRange {
                    start: tok.line,
                    end: tok.line.saturating_sub(1),
                    marker_line: tok.line,
                });
            }
        }
    }
    if let Some(b) = begin {
        // Unterminated begin: surface as a dangling marker.
        out.push(AllocFreeRange {
            start: b,
            end: b.saturating_sub(1),
            marker_line: b,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mod_detection_survives_braces_in_strings() {
        let src = r#"
fn f() {
    let s = "}} {{";
}
#[cfg(test)]
mod tests {
    fn g() {
        let t = "}";
    }
}
fn after() {}
"#;
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(!f.is_test_line(2));
        assert!(!f.is_test_line(3));
        assert!(f.is_test_line(6));
        assert!(f.is_test_line(8));
        assert!(f.is_test_line(10));
        assert!(!f.is_test_line(11));
    }

    #[test]
    fn fn_regions_and_headers() {
        let src = "\
/// Doc.
#[inline]
fn one(x: usize) -> usize {
    x + 1
}

fn two();
";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].decl_line, 3);
        assert_eq!(f.fns[0].header_line, 1);
        assert_eq!(f.fns[0].body_start, Some(3));
        assert_eq!(f.fns[0].body_end, Some(5));
        assert!(f.fns[0].body_contains(4));
        assert_eq!(f.fns[1].body_start, None);
    }

    #[test]
    fn an_array_return_type_does_not_end_the_signature() {
        let src = "fn t(rows: [[f32; 4]; 4]) -> [f32; 4] {\n    rows[0]\n}\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert_eq!(f.fns[0].body_start, Some(1));
        assert_eq!(f.fns[0].body_end, Some(3));
        assert!(f.fns[0].body_contains(2));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "type F = fn(usize) -> usize;\nstruct S { f: unsafe fn(u8) }\n";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(f.fns.is_empty());
    }

    #[test]
    fn annotations_parse() {
        let src = "\
//! shalom-analysis: deny(panic)
fn f(v: &std::sync::atomic::AtomicU64) {
    // ORDERING(SHALOM-O-TEST): mutex orders the publish.
    v.store(0, Ordering::Relaxed);
    let x = v.load(Ordering::Relaxed) as usize; // PANIC-OK: bounded by mask above.
}
// ALLOC-FREE
fn g() {
    let _ = 1;
}
";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert!(f.has_directive("deny(panic)"));
        assert_eq!(f.ordering_annotations.len(), 1);
        assert_eq!(f.ordering_annotations[0].tag, "SHALOM-O-TEST");
        assert!(f.ordering_annotations[0].justification.contains("mutex"));
        assert_eq!(f.panic_ok_lines, vec![5]);
        assert_eq!(f.alloc_free.len(), 1);
        assert_eq!((f.alloc_free[0].start, f.alloc_free[0].end), (8, 10));
    }

    #[test]
    fn contract_annotations_anchor_to_their_fn() {
        let src = "\
/// Doc.
// CONTRACT(SHALOM-K-MAIN)
#[inline]
unsafe fn k(p: *const f32) {}

// CONTRACT(SHALOM-K-EDGE-PIPE, SHALOM-K-EDGE-BATCH)
unsafe fn e(p: *const f32) {}

fn plain() {}
";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert_eq!(f.contract_annotations.len(), 2);
        assert_eq!(f.contract_tags_for(&f.fns[0]), vec!["SHALOM-K-MAIN"]);
        assert_eq!(
            f.contract_tags_for(&f.fns[1]),
            vec!["SHALOM-K-EDGE-PIPE", "SHALOM-K-EDGE-BATCH"]
        );
        assert!(f.contract_tags_for(&f.fns[2]).is_empty());
    }

    #[test]
    fn contract_annotation_bindings_parse_depth_matched() {
        let src = "\
// CONTRACT(SHALOM-K-STREAM: stream_src = s.src, stream_rows = s.rows, nr = (NR_VECS) * V::LANES)
unsafe fn k(p: *const f32) {}
";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert_eq!(f.contract_annotations.len(), 1);
        let a = &f.contract_annotations[0];
        assert_eq!(a.tags, vec!["SHALOM-K-STREAM"]);
        assert_eq!(
            a.bindings,
            vec![
                ("stream_src".to_string(), "s.src".to_string()),
                ("stream_rows".to_string(), "s.rows".to_string()),
                ("nr".to_string(), "(NR_VECS) * V::LANES".to_string()),
            ]
        );
        let anchors = f.contract_anchors_for(&f.fns[0]);
        assert_eq!(anchors.len(), 1);
    }

    #[test]
    fn macro_rules_regions_with_nested_braces() {
        let src = "\
fn before() {}
macro_rules! emit {
    ($v:expr) => {
        { let _inner = $v; }
    };
}
fn after() {}
macro_rules! paren_form (
    () => { 1 };
);
";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert_eq!(f.macro_rules_regions, vec![(2, 6), (8, 10)]);
        assert!(!f.in_macro_rules(1));
        assert!(f.in_macro_rules(4), "nested template brace line");
        assert!(!f.in_macro_rules(7));
        assert!(f.in_macro_rules(9));
    }

    #[test]
    fn alloc_free_begin_end_ranges() {
        let src = "\
fn f() {
    setup();
    // ALLOC-FREE: begin
    hot();
    // ALLOC-FREE: end
    teardown();
}
";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert_eq!(f.alloc_free.len(), 1);
        assert_eq!((f.alloc_free[0].start, f.alloc_free[0].end), (3, 5));
    }
}
