//! The six workspace passes plus the token-walking helpers they share.
//!
//! Each pass is a function from an analyzed [`SourceFile`] (plus any
//! pass-specific context) to a list of [`Finding`](crate::Finding)s. The
//! workspace layer decides which files each pass sees; passes themselves only
//! look at the file handed to them, which keeps them trivially testable
//! against string fixtures.

pub mod allocs;
pub mod atomics;
pub mod bounds;
pub mod features;
pub mod panics;
pub mod protocols;

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// A comment-free view of a file's token stream with convenience
/// accessors — the shape every pass walks.
pub struct CodeTokens<'f> {
    /// The analyzed file.
    pub file: &'f SourceFile,
    /// Indices into `file.tokens` of non-comment tokens, in order.
    pub idx: Vec<usize>,
}

impl<'f> CodeTokens<'f> {
    /// Builds the comment-free view.
    pub fn new(file: &'f SourceFile) -> CodeTokens<'f> {
        let idx = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        CodeTokens { file, idx }
    }

    /// Number of code tokens.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// The `i`-th code token.
    pub fn tok(&self, i: usize) -> &Token {
        &self.file.tokens[self.idx[i]]
    }

    /// The `i`-th code token's text.
    pub fn text(&self, i: usize) -> &str {
        self.tok(i).text(&self.file.src)
    }

    /// Whether code token `i` exists and equals `want` exactly.
    pub fn is(&self, i: usize, want: &str) -> bool {
        i < self.len() && self.text(i) == want
    }

    /// Whether code token `i` is an identifier equal to `want`.
    pub fn is_ident(&self, i: usize, want: &str) -> bool {
        i < self.len() && self.tok(i).kind == TokenKind::Ident && self.text(i) == want
    }

    /// Whether code token `i` is a punct of the given char.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        i < self.len() && self.tok(i).kind == TokenKind::Punct && self.text(i).starts_with(c)
    }

    /// Index of the code token closing the delimiter opened at `open`
    /// (`(`/`)`, `[`/`]` or `{`/`}`), or `None` when unbalanced.
    pub fn matching_close(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.text(open) {
            "(" => ('(', ')'),
            "[" => ('[', ']'),
            "{" => ('{', '}'),
            _ => return None,
        };
        let mut depth = 0i64;
        for j in open..self.len() {
            if self.is_punct(j, o) {
                depth += 1;
            } else if self.is_punct(j, c) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }
}

/// Rust keywords that can directly precede a `[` without it being an
/// index expression (`&mut [f64]`, `dyn [..]`-ish positions, `box`),
/// plus control-flow words after which `[` starts an array literal.
pub const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "dyn", "ref", "in", "return", "as", "else", "match", "if", "box", "move", "unsafe",
    "let", "const", "static", "use", "pub", "fn", "where", "impl", "for", "while", "loop", "break",
    "continue", "yield", "await",
];
