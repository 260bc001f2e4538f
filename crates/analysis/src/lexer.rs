//! A hand-rolled Rust lexer — the token-level foundation every pass
//! (and the re-based `shalom-contracts` lint) builds on.
//!
//! Scope: this is a *scanner*, not a parser. It produces a flat token
//! stream with byte spans and line numbers, getting exactly the things
//! right that line-based scanning cannot:
//!
//! * line comments (`//`, `///`, `//!`) vs block comments (`/* … */`),
//!   including **nested** block comments;
//! * string literals with escapes, byte strings, **raw strings**
//!   (`r"…"`, `r#"…"#`, any hash depth) and their byte variants — so a
//!   `{`, `"` or `unsafe` *inside* a literal never reads as code;
//! * char literals vs lifetimes (`'a'` vs `'a`), including escaped
//!   chars (`'\''`, `'\n'`);
//! * raw identifiers (`r#match`).
//!
//! No `syn`, no external crates: the build container is offline by
//! design, and the passes only need token kinds, text and positions.

use std::fmt;

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `Ordering`, `r#match`).
    Ident,
    /// Lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// Numeric literal (`0`, `1_000`, `0x7f`, `1e9` is split as `1e9`).
    Number,
    /// String / byte-string literal with escapes (`"x"`, `b"x"`).
    Str,
    /// Raw (byte) string literal (`r"x"`, `r#"x"#`, `br##"x"##`).
    RawStr,
    /// Char / byte-char literal (`'x'`, `'\n'`, `b'z'`).
    Char,
    /// Line comment, including doc comments (`//`, `///`, `//!`).
    LineComment,
    /// Block comment, nested allowed (`/* /* */ */`, `/** … */`).
    BlockComment,
    /// Any other single character (`{`, `}`, `.`, `#`, `!`, …).
    Punct,
}

/// One lexed token: kind, byte span into the source, and the 1-based
/// line its first byte sits on (multi-line tokens also record their last
/// line).
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first byte in the source.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: usize,
    /// 1-based line of the last byte (differs for multi-line tokens).
    pub end_line: usize,
}

impl Token {
    /// The token's text within `src` (the string it was lexed from).
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    /// Whether this token is any kind of comment.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Normalizes an identifier token's text: raw identifiers (`r#type`)
/// compare equal to their plain spelling (`type`). Passes that match
/// identifiers by name go through this so `r#`-prefixed fields and
/// statics resolve to the same atomic object as their plain uses.
pub fn ident_name(text: &str) -> &str {
    text.strip_prefix("r#").unwrap_or(text)
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TokenKind::Ident => "ident",
            TokenKind::Lifetime => "lifetime",
            TokenKind::Number => "number",
            TokenKind::Str => "str",
            TokenKind::RawStr => "raw-str",
            TokenKind::Char => "char",
            TokenKind::LineComment => "line-comment",
            TokenKind::BlockComment => "block-comment",
            TokenKind::Punct => "punct",
        };
        f.write_str(s)
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

struct Cursor<'s> {
    src: &'s [u8],
    pos: usize,
    line: usize,
}

impl<'s> Cursor<'s> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek(0);
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn eof(&self) -> bool {
        self.pos >= self.src.len()
    }
}

/// Lexes `src` into a flat token stream. Never fails: malformed input
/// (an unterminated literal or comment) produces a token running to end
/// of file, which is the most useful behaviour for an auditing tool —
/// the passes still see every line.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while !cur.eof() {
        let c = cur.peek(0);
        // Whitespace carries no token.
        if c.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        let start = cur.pos;
        let line = cur.line;
        let kind = scan_token(&mut cur);
        out.push(Token {
            kind,
            start,
            end: cur.pos,
            line,
            end_line: cur.line,
        });
    }
    out
}

/// Scans one token starting at the cursor (not whitespace, not EOF).
fn scan_token(cur: &mut Cursor<'_>) -> TokenKind {
    let c = cur.peek(0);

    // Comments.
    if c == b'/' && cur.peek(1) == b'/' {
        while !cur.eof() && cur.peek(0) != b'\n' {
            cur.bump();
        }
        return TokenKind::LineComment;
    }
    if c == b'/' && cur.peek(1) == b'*' {
        cur.bump();
        cur.bump();
        let mut depth = 1usize;
        while !cur.eof() && depth > 0 {
            if cur.peek(0) == b'/' && cur.peek(1) == b'*' {
                cur.bump();
                cur.bump();
                depth += 1;
            } else if cur.peek(0) == b'*' && cur.peek(1) == b'/' {
                cur.bump();
                cur.bump();
                depth -= 1;
            } else {
                cur.bump();
            }
        }
        return TokenKind::BlockComment;
    }

    // Raw strings / raw identifiers / byte strings: the `r`, `b`, `br`
    // prefixes only count when the quote (or `r#`) follows immediately.
    if is_ident_start(c) {
        if let Some(kind) = scan_prefixed_literal(cur) {
            return kind;
        }
        while is_ident_continue(cur.peek(0)) {
            cur.bump();
        }
        return TokenKind::Ident;
    }

    if c.is_ascii_digit() {
        // Numbers: digits plus trailing alphanumerics/underscores covers
        // ints, hex, and suffixed literals; `1.5` lexes as three tokens,
        // which is fine for auditing purposes.
        while is_ident_continue(cur.peek(0)) {
            cur.bump();
        }
        return TokenKind::Number;
    }

    if c == b'"' {
        scan_string(cur);
        return TokenKind::Str;
    }

    if c == b'\'' {
        return scan_quote(cur);
    }

    cur.bump();
    TokenKind::Punct
}

/// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` and raw
/// identifiers (`r#name`). Returns `None` when the cursor sits on a
/// plain identifier.
fn scan_prefixed_literal(cur: &mut Cursor<'_>) -> Option<TokenKind> {
    let c = cur.peek(0);
    match c {
        b'r' => {
            // r"…" / r#…  — raw string or raw identifier.
            if cur.peek(1) == b'"' {
                cur.bump();
                scan_raw_string(cur, 0);
                return Some(TokenKind::RawStr);
            }
            if cur.peek(1) == b'#' {
                let mut hashes = 0usize;
                while cur.peek(1 + hashes) == b'#' {
                    hashes += 1;
                }
                if cur.peek(1 + hashes) == b'"' {
                    cur.bump(); // r
                    for _ in 0..hashes {
                        cur.bump();
                    }
                    scan_raw_string(cur, hashes);
                    return Some(TokenKind::RawStr);
                }
                if is_ident_start(cur.peek(2)) && hashes == 1 {
                    // Raw identifier r#name: lex as Ident.
                    cur.bump(); // r
                    cur.bump(); // #
                    while is_ident_continue(cur.peek(0)) {
                        cur.bump();
                    }
                    return Some(TokenKind::Ident);
                }
            }
            None
        }
        b'b' => {
            if cur.peek(1) == b'"' {
                cur.bump();
                scan_string(cur);
                return Some(TokenKind::Str);
            }
            if cur.peek(1) == b'\'' {
                cur.bump();
                // Byte char is always a char literal, never a lifetime.
                scan_char_body(cur);
                return Some(TokenKind::Char);
            }
            if cur.peek(1) == b'r' {
                let mut hashes = 0usize;
                while cur.peek(2 + hashes) == b'#' {
                    hashes += 1;
                }
                if cur.peek(2 + hashes) == b'"' {
                    cur.bump(); // b
                    cur.bump(); // r
                    for _ in 0..hashes {
                        cur.bump();
                    }
                    scan_raw_string(cur, hashes);
                    return Some(TokenKind::RawStr);
                }
            }
            None
        }
        _ => None,
    }
}

/// Consumes a `"…"` body with escapes; cursor on the opening quote.
fn scan_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while !cur.eof() {
        match cur.bump() {
            b'\\' if !cur.eof() => {
                cur.bump();
            }
            b'"' => return,
            _ => {}
        }
    }
}

/// Consumes a raw-string body; cursor on the opening quote, `hashes`
/// already consumed.
fn scan_raw_string(cur: &mut Cursor<'_>, hashes: usize) {
    cur.bump(); // opening quote
    while !cur.eof() {
        if cur.bump() == b'"' {
            let mut ok = true;
            for i in 0..hashes {
                if cur.peek(i) != b'#' {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..hashes {
                    cur.bump();
                }
                return;
            }
        }
    }
}

/// Cursor on a `'`: decides char literal vs lifetime and consumes it.
fn scan_quote(cur: &mut Cursor<'_>) -> TokenKind {
    // Escaped char is unambiguous.
    if cur.peek(1) == b'\\' {
        scan_char_body(cur);
        return TokenKind::Char;
    }
    // `'X'` (any single byte then a quote) is a char literal; `'ident`
    // without a closing quote right after one ident-char is a lifetime.
    if is_ident_start(cur.peek(1)) && cur.peek(2) != b'\'' {
        cur.bump(); // '
        while is_ident_continue(cur.peek(0)) {
            cur.bump();
        }
        return TokenKind::Lifetime;
    }
    scan_char_body(cur);
    TokenKind::Char
}

/// Consumes a char-literal body from the opening quote (handles
/// escapes; tolerates multi-byte UTF-8 contents by scanning to the
/// closing quote).
fn scan_char_body(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while !cur.eof() {
        match cur.bump() {
            b'\\' if !cur.eof() => {
                cur.bump();
            }
            b'\'' => return,
            _ => {}
        }
    }
}

/// Per-line views of a lexed file that the line-oriented rules (and the
/// re-based contracts lint) consume.
pub struct CodeLines {
    /// Each source line with comments removed and string/char-literal
    /// bodies blanked to spaces — code structure only, so substring
    /// checks (`unsafe`, `.add(`, `{`) can never be fooled by literals
    /// or comment text.
    pub code: Vec<String>,
    /// Brace depth *after* each line, counting only `{`/`}` that are
    /// real code tokens.
    pub depth_after: Vec<i64>,
    /// Parenthesis depth *after* each line — same prefix-sum scheme as
    /// `depth_after`, counting only `(`/`)` code tokens. Lets the
    /// bounds pass know when a multi-line call argument list is still
    /// open.
    pub paren_depth_after: Vec<i64>,
    /// Bracket depth *after* each line (`[`/`]` code tokens only).
    pub bracket_depth_after: Vec<i64>,
}

/// Builds [`CodeLines`] from a source file.
pub fn code_lines(src: &str) -> CodeLines {
    let tokens = lex(src);
    code_lines_from(src, &tokens)
}

/// [`code_lines`] when the caller already holds the token stream.
pub fn code_lines_from(src: &str, tokens: &[Token]) -> CodeLines {
    let n_lines = src.lines().count().max(1);
    // Start from an all-blank copy and re-materialize only code tokens.
    let mut masked: Vec<u8> = src
        .bytes()
        .map(|b| if b == b'\n' { b'\n' } else { b' ' })
        .collect();
    let mut delta = vec![0i64; n_lines];
    let mut paren_delta = vec![0i64; n_lines];
    let mut bracket_delta = vec![0i64; n_lines];
    for tok in tokens {
        match tok.kind {
            TokenKind::LineComment | TokenKind::BlockComment => continue,
            TokenKind::Str | TokenKind::RawStr | TokenKind::Char => {
                // Keep literal delimiters so the line still shows "a
                // literal sits here", but blank the body.
                masked[tok.start] = src.as_bytes()[tok.start];
                masked[tok.end - 1] = src.as_bytes()[tok.end - 1];
            }
            _ => {
                masked[tok.start..tok.end].copy_from_slice(&src.as_bytes()[tok.start..tok.end]);
                if tok.kind == TokenKind::Punct {
                    let at = (tok.line - 1).min(n_lines - 1);
                    match src.as_bytes()[tok.start] {
                        b'{' => delta[at] += 1,
                        b'}' => delta[at] -= 1,
                        b'(' => paren_delta[at] += 1,
                        b')' => paren_delta[at] -= 1,
                        b'[' => bracket_delta[at] += 1,
                        b']' => bracket_delta[at] -= 1,
                        _ => {}
                    }
                }
            }
        }
    }
    let prefix_sum = |delta: &[i64]| {
        let mut depth = 0i64;
        delta
            .iter()
            .map(|d| {
                depth += d;
                depth
            })
            .collect::<Vec<i64>>()
    };
    let depth_after = prefix_sum(&delta);
    let paren_depth_after = prefix_sum(&paren_delta);
    let bracket_depth_after = prefix_sum(&bracket_delta);
    let code = String::from_utf8(masked)
        .unwrap_or_default()
        .lines()
        .map(str::to_string)
        .collect();
    CodeLines {
        code,
        depth_after,
        paren_depth_after,
        bracket_depth_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn comments_and_idents() {
        let src = "fn f() {} // tail\n/* block */ let x = 1;";
        let k = kinds(src);
        assert_eq!(k[0], (TokenKind::Ident, "fn".into()));
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokenKind::LineComment && t == "// tail"));
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokenKind::BlockComment && t == "/* block */"));
    }

    #[test]
    fn nested_block_comment_is_one_token() {
        let src = "/* a /* b */ c */ fn";
        let k = kinds(src);
        assert_eq!(k.len(), 2);
        assert_eq!(k[0], (TokenKind::BlockComment, "/* a /* b */ c */".into()));
        assert_eq!(k[1], (TokenKind::Ident, "fn".into()));
    }

    #[test]
    fn string_with_brace_and_comment_lookalike() {
        let src = r#"let s = "{ // not a comment }";"#;
        let k = kinds(src);
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokenKind::Str && t.contains("not a comment")));
        assert!(!k.iter().any(|(kk, _)| *kk == TokenKind::LineComment));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let src = r###"let a = r"x"; let b = r#"y " inner"#; let c = br##"z"# still"##;"###;
        let k = kinds(src);
        let raws: Vec<_> = k
            .iter()
            .filter(|(kk, _)| *kk == TokenKind::RawStr)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(raws.len(), 3, "{k:?}");
        assert_eq!(raws[0], "r\"x\"");
        assert_eq!(raws[1], "r#\"y \" inner\"#");
        assert_eq!(raws[2], "br##\"z\"# still\"##");
    }

    #[test]
    fn char_vs_lifetime() {
        let src =
            "let a: &'static str = x; let c = 'x'; let n = '\\n'; let q = '\\''; let u = '_';";
        let k = kinds(src);
        let lifetimes: Vec<_> = k
            .iter()
            .filter(|(kk, _)| *kk == TokenKind::Lifetime)
            .map(|(_, t)| t.clone())
            .collect();
        let chars: Vec<_> = k
            .iter()
            .filter(|(kk, _)| *kk == TokenKind::Char)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(lifetimes, vec!["'static"]);
        assert_eq!(chars, vec!["'x'", "'\\n'", "'\\''", "'_'"]);
    }

    #[test]
    fn byte_literals() {
        let src = "let a = b\"bytes\"; let b = b'z';";
        let k = kinds(src);
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokenKind::Str && t == "b\"bytes\""));
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokenKind::Char && t == "b'z'"));
    }

    #[test]
    fn raw_identifier() {
        let src = "let r#match = 1;";
        let k = kinds(src);
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokenKind::Ident && t == "r#match"));
    }

    #[test]
    fn raw_identifier_keywords_lex_whole_and_normalize() {
        let src = "struct S { r#type: u32 } fn f(s: &S) -> u32 { s.r#type }";
        let k = kinds(src);
        let raws = k
            .iter()
            .filter(|(kk, t)| *kk == TokenKind::Ident && t == "r#type")
            .count();
        assert_eq!(raws, 2, "{k:?}");
        // `r#type` never splits into `r` + `#` + `type`.
        assert!(!k.iter().any(|(kk, t)| *kk == TokenKind::Punct && t == "#"));
        assert_eq!(ident_name("r#type"), "type");
        assert_eq!(ident_name("plain"), "plain");
    }

    #[test]
    fn raw_ident_vs_raw_string_disambiguation() {
        // `r#"…"#` is a raw string; `r#name` is an identifier.
        let src = r##"let r#fn = r#"body"#;"##;
        let k = kinds(src);
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokenKind::Ident && t == "r#fn"));
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokenKind::RawStr && t == "r#\"body\"#"));
    }

    #[test]
    fn line_numbers_across_multiline_tokens() {
        let src = "fn a() {}\n/* one\ntwo\nthree */\nfn b() {}\n";
        let toks = lex(src);
        let block = toks
            .iter()
            .find(|t| t.kind == TokenKind::BlockComment)
            .unwrap();
        assert_eq!((block.line, block.end_line), (2, 4));
        let b = toks
            .iter()
            .find(|t| t.kind == TokenKind::Ident && t.text(src) == "b")
            .unwrap();
        assert_eq!(b.line, 5);
    }

    #[test]
    fn code_lines_blank_comments_and_literal_bodies() {
        let src = "let s = \"{{{\"; // }}}\nunsafe { work(); }\n";
        let cl = code_lines(src);
        // The literal's braces and the comment's braces are gone...
        assert!(!cl.code[0].contains('{'));
        // ...the quotes remain as literal markers...
        assert!(cl.code[0].contains('"'));
        // ...and real code survives.
        assert!(cl.code[1].contains("unsafe {"));
        assert_eq!(cl.depth_after[0], 0);
        assert_eq!(cl.depth_after[1], 0);
    }

    #[test]
    fn depth_ignores_braces_in_strings_and_comments() {
        let src = "fn f() { // {{{\n    let s = \"}}}}\";\n    g(); /* } */\n}\n";
        let cl = code_lines(src);
        assert_eq!(cl.depth_after, vec![1, 1, 1, 0]);
    }

    #[test]
    fn paren_and_bracket_depths_track_code_tokens_only() {
        let src = "call(a,\n  b[i],\n  \"(((\" , // )))\n);\n";
        let cl = code_lines(src);
        // Line 1 opens the call; the string and comment parens on line 3
        // are invisible; line 4 closes it.
        assert_eq!(cl.paren_depth_after, vec![1, 1, 1, 0]);
        // The bracket pair opens and closes within line 2.
        assert_eq!(cl.bracket_depth_after, vec![0, 0, 0, 0]);
    }

    #[test]
    fn nested_call_args_keep_balanced_depths() {
        let src = "b.add((k + 1) * ldb);\nv[idx(\n  j\n)] = 0;\n";
        let cl = code_lines(src);
        assert_eq!(cl.paren_depth_after, vec![0, 1, 1, 0]);
        assert_eq!(cl.bracket_depth_after, vec![0, 1, 1, 0]);
    }

    #[test]
    fn unterminated_literal_reaches_eof_without_panic() {
        let src = "let s = \"never closed";
        let toks = lex(src);
        assert_eq!(toks.last().unwrap().kind, TokenKind::Str);
    }
}
