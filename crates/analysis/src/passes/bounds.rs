//! The `bounds` pass — a symbolic pointer-bounds verifier for the
//! kernel crates.
//!
//! Every raw-pointer `.add(…)`/`.offset(…)` site in a scanned file is
//! normalized into a [`SymExpr`] polynomial over the kernel's
//! parameters, the facts the surrounding code establishes (loop
//! ranges, `let` equalities, guards, `div_ceil` definitions) are
//! collected into an [`Env`], and the access is proven contained in
//! the operand footprint the contract registry exports symbolically
//! via `crates/contracts/bounds.spec` (parsed by [`crate::spec`]).
//!
//! A kernel opts in by carrying a `// CONTRACT(TAG[: key = expr, …])`
//! anchor in its header comment block. Bindings map spec names to
//! in-function expressions: an operand name to the local pointer path
//! it is reached through (`stream_src = s.src`), a spec symbol to a
//! parameter expression (`m = MR_`, `n = NRV_ * V::LANES`). Unbound
//! names map to themselves, so a kernel whose parameters already use
//! the spec's names needs no bindings at all.
//!
//! What a site must prove depends on its shape. A dereference or
//! `V::load`/`V::store` of width `w` against a `rows R stride S at C
//! width W` operand decomposes the offset as `q*S + r` and proves
//! `0 <= q <= R-1`, `C <= r` and `r + w <= C + W`; against a `solid L`
//! operand it proves `0 <= O` and `O + w <= L`. A bare pointer
//! *formation* (a call argument, a `let p = base.add(…)`) only proves
//! the one-past-the-end bound, which is what Rust's provenance rules
//! require of `add` itself.
//!
//! Rules: `span-overflow` (an obligation failed — the finding names
//! the offending expression, the derived worst-case bound and the
//! violated span), `unsupported-expr` (an offset the polynomial
//! grammar cannot represent), `unmapped-site` (pointer arithmetic on a
//! raw-pointer parameter no operand binding covers), `stride-split`
//! (the offset cannot be decomposed by the declared stride),
//! `spec-mismatch` (anchor bindings or `ceildiv` definitions that do
//! not line up with the code), `unknown-tag` (an anchor naming a tag
//! the spec does not declare), and `unanchored-contract` (a spec
//! contract no scanned function anchors — reported by the workspace
//! layer).

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::passes::CodeTokens;
use crate::source::{FnRegion, SourceFile};
use crate::spec::{Spec, SpecShape};
use crate::sym::{Env, SymExpr, VarBound};
use crate::Finding;

/// Aggregate statistics over one run of the pass, exposed so the
/// tier-1 suite can pin a floor on proof coverage (a refactor that
/// silently stops mapping sites must fail loudly, not pass vacuously).
#[derive(Debug, Default, Clone, Copy)]
pub struct BoundsStats {
    /// Pointer-arithmetic sites that mapped to a contract operand or a
    /// local buffer and produced proof obligations.
    pub sites: usize,
    /// Mapped sites whose every obligation was proven.
    pub proved: usize,
}

/// Per-function facts the `shalom-contracts` unsafe-hygiene lint
/// consumes: which functions do pointer arithmetic, whether they take
/// raw-pointer parameters, and which contract tags anchor them.
#[derive(Debug, Clone)]
pub struct FnPtrSummary {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    /// Line of the first `.add`/`.offset` site on a plausible pointer
    /// receiver, when any exists.
    pub first_site_line: Option<usize>,
    /// Whether the signature has at least one `*const`/`*mut` param.
    pub has_raw_ptr_params: bool,
    /// Whether the function is declared `unsafe`.
    pub is_unsafe: bool,
    /// `CONTRACT(…)` tags anchored in the header block.
    pub tags: Vec<String>,
}

/// Where a resolved pointer receiver bottoms out.
#[derive(Debug, Clone, PartialEq)]
enum Root {
    /// A parameter or operand pointer path (`a`, `s.src`).
    Path(String),
    /// A local `vec![…]`/array buffer accessed through `as_ptr`.
    Array(String),
}

/// A `let p = base.add(expr)` pointer alias: `root` is fully resolved
/// (never another alias) and `offset` accumulates the whole chain.
#[derive(Debug, Clone)]
struct Alias {
    name: String,
    root: Root,
    offset: SymExpr,
}

/// Everything one `{ … }` scope contributed.
#[derive(Debug, Default)]
struct Scope {
    vars: Vec<VarBound>,
    eqs: Vec<(String, SymExpr)>,
    ges: Vec<(String, SymExpr)>,
    polys: Vec<SymExpr>,
    /// Guard-derived extra upper bounds for variables defined in outer
    /// scopes (`while i < mp` bounds the outer `let mut i`).
    extra_hi: Vec<(String, SymExpr)>,
    aliases: Vec<Alias>,
    /// Local buffer lengths (`let ap = vec![Z; mp * k]`).
    arrays: Vec<(String, SymExpr)>,
    /// `let q = a.div_ceil(b)` definitions seen in this scope.
    ceildivs: Vec<(String, SymExpr, SymExpr)>,
    /// Condition text when this scope is a plain `if` block (for
    /// early-return negation).
    if_cond: Option<String>,
    saw_return: bool,
    saw_loop_exit: bool,
}

/// One anchored contract with its bindings applied: operand shapes,
/// precondition facts and `ceildiv` definitions all rewritten into the
/// function's own symbols.
struct TagCtx {
    tag: String,
    /// operand name -> whitespace-normalized pointer-path binding.
    op_bindings: Vec<(String, String)>,
    /// `(name, access kind is irrelevant here, shape, description)`.
    operands: Vec<(String, SpecShape, String)>,
    ges: Vec<(String, SymExpr)>,
    polys: Vec<SymExpr>,
    ceildivs: Vec<(String, SymExpr, SymExpr)>,
}

/// The access width a site was classified as.
enum Width {
    /// A load/store of `w` elements starting at the offset.
    Elems(SymExpr),
    /// Pointer formation only — one-past-the-end is legal.
    Formation,
}

/// Runs the pass over one file against the parsed spec.
pub fn check(file: &SourceFile, spec: &Spec) -> (Vec<Finding>, BoundsStats) {
    let toks = CodeTokens::new(file);
    let mut findings = Vec::new();
    let mut stats = BoundsStats::default();
    for f in &file.fns {
        if f.body_start.is_none()
            || file.is_test_line(f.decl_line)
            || file.in_macro_rules(f.decl_line)
        {
            continue;
        }
        check_fn(file, &toks, f, spec, &mut findings, &mut stats);
    }
    (findings, stats)
}

/// The tags anchored anywhere in `file` (for the workspace's
/// `unanchored-contract` rule).
pub fn anchored_tags(file: &SourceFile) -> Vec<String> {
    let mut out = Vec::new();
    for a in &file.contract_annotations {
        for t in &a.tags {
            if !out.contains(t) {
                out.push(t.clone());
            }
        }
    }
    out
}

/// Builds the per-function summaries the contracts lint consumes.
pub fn fn_summaries(file: &SourceFile) -> Vec<FnPtrSummary> {
    let toks = CodeTokens::new(file);
    let mut out = Vec::new();
    for f in &file.fns {
        if file.is_test_line(f.decl_line) || file.in_macro_rules(f.decl_line) {
            continue;
        }
        let Some(sig) = parse_signature(&toks, f) else {
            continue;
        };
        let mut first_site_line = None;
        if let (Some(open), Some(close)) = (
            sig.body_open,
            sig.body_open.and_then(|o| toks.matching_close(o)),
        ) {
            for j in open..=close {
                if is_ptr_arith_ident(&toks, j) && receiver_range(&toks, j).is_some() {
                    first_site_line = Some(toks.tok(j).line);
                    break;
                }
            }
        }
        out.push(FnPtrSummary {
            name: sig.name.clone(),
            decl_line: f.decl_line,
            first_site_line,
            has_raw_ptr_params: sig.params.iter().any(|(_, raw)| *raw),
            is_unsafe: sig.is_unsafe,
            tags: file.contract_tags_for(f),
        });
    }
    out
}

/// Parsed function signature facts.
struct Signature {
    name: String,
    is_unsafe: bool,
    /// `(name, is_raw_pointer)` per parameter.
    params: Vec<(String, bool)>,
    /// Code-token index of the body's `{`, when the fn has one.
    body_open: Option<usize>,
}

/// Whether code token `j` is an `add`/`offset`/`byte_add`/`byte_offset`
/// method-call ident (`.name(`).
fn is_ptr_arith_ident(toks: &CodeTokens<'_>, j: usize) -> bool {
    if toks.tok(j).kind != TokenKind::Ident {
        return false;
    }
    let t = toks.text(j);
    (t == "add" || t == "offset" || t == "byte_add" || t == "byte_offset")
        && j >= 1
        && toks.is_punct(j - 1, '.')
        && toks.is_punct(j + 1, '(')
}

/// Locates the `fn` keyword token of `f` and parses its signature.
fn parse_signature(toks: &CodeTokens<'_>, f: &FnRegion) -> Option<Signature> {
    let mut fn_idx = None;
    for i in 0..toks.len() {
        let t = toks.tok(i);
        if t.line > f.decl_line {
            break;
        }
        if t.line == f.decl_line
            && t.kind == TokenKind::Ident
            && toks.text(i) == "fn"
            && i + 1 < toks.len()
            && toks.tok(i + 1).kind == TokenKind::Ident
        {
            fn_idx = Some(i);
            break;
        }
    }
    let i = fn_idx?;
    let name = toks.text(i + 1).to_string();
    // Qualifiers sit directly before `fn` (`pub(crate) unsafe fn`).
    let mut is_unsafe = false;
    let mut back = i;
    for _ in 0..8 {
        if back == 0 {
            break;
        }
        back -= 1;
        let t = toks.text(back);
        match t {
            "unsafe" => {
                is_unsafe = true;
                break;
            }
            "pub" | "const" | "extern" | "(" | ")" | "crate" | "super" | "in" => {}
            _ => break,
        }
    }
    // Find the parameter list `(` at angle depth 0 after the name.
    let mut j = i + 2;
    let mut angle = 0i64;
    let mut p0 = None;
    while j < toks.len() {
        match toks.text(j) {
            "<" => angle += 1,
            ">" => angle -= 1,
            "(" if angle <= 0 => {
                p0 = Some(j);
                break;
            }
            "{" | ";" => break,
            _ => {}
        }
        j += 1;
    }
    let p0 = p0?;
    let pc = toks.matching_close(p0)?;
    let mut params = Vec::new();
    // Split the list at top-level commas; `(name, is_raw)` per entry.
    let mut entry_start = p0 + 1;
    let mut depth = (0i64, 0i64, 0i64); // paren, bracket, angle
    for k in p0 + 1..=pc {
        let t = toks.text(k);
        let top = depth == (0, 0, 0);
        match t {
            "(" => depth.0 += 1,
            ")" => {
                if k == pc && top {
                    if let Some(p) = parse_param(toks, entry_start, k) {
                        params.push(p);
                    }
                    break;
                }
                depth.0 -= 1;
            }
            "[" => depth.1 += 1,
            "]" => depth.1 -= 1,
            "<" => depth.2 += 1,
            ">" => depth.2 = (depth.2 - 1).max(0),
            "," if top => {
                if let Some(p) = parse_param(toks, entry_start, k) {
                    params.push(p);
                }
                entry_start = k + 1;
            }
            _ => {}
        }
    }
    // Body `{` after the param list, before any `;`, outside generics.
    let mut body_open = None;
    let mut angle = 0i64;
    let mut paren = 0i64;
    let mut k = pc + 1;
    while k < toks.len() {
        match toks.text(k) {
            "<" => angle += 1,
            ">" => angle -= 1,
            "(" => paren += 1,
            ")" => paren -= 1,
            "{" if angle <= 0 && paren == 0 => {
                body_open = Some(k);
                break;
            }
            ";" if angle <= 0 && paren == 0 => break,
            _ => {}
        }
        k += 1;
    }
    Some(Signature {
        name,
        is_unsafe,
        params,
        body_open,
    })
}

/// Parses one `name: Type` parameter entry; `is_raw` when the type
/// starts with `*const`/`*mut` (possibly behind `mut name`).
fn parse_param(toks: &CodeTokens<'_>, start: usize, end: usize) -> Option<(String, bool)> {
    let mut k = start;
    if toks.is_ident(k, "mut") {
        k += 1;
    }
    if k >= end || toks.tok(k).kind != TokenKind::Ident {
        return None;
    }
    let name = toks.text(k).to_string();
    if !toks.is_punct(k + 1, ':') || k + 1 >= end {
        return None;
    }
    let mut t = k + 2;
    while t < end && toks.is_punct(t, '&') {
        t += 1;
    }
    let is_raw = t + 1 < end
        && toks.is_punct(t, '*')
        && (toks.is_ident(t + 1, "const") || toks.is_ident(t + 1, "mut"));
    Some((name, is_raw))
}

/// Normalizes binding-value / path text for comparison (whitespace
/// removed, so `s . src` equals `s.src`).
fn norm_path(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Builds the [`TagCtx`]s for one function from its anchors, reporting
/// unknown tags and malformed bindings.
fn build_tag_ctxs(
    file: &SourceFile,
    f: &FnRegion,
    spec: &Spec,
    findings: &mut Vec<Finding>,
) -> Vec<TagCtx> {
    let mut out = Vec::new();
    for anchor in file.contract_anchors_for(f) {
        for tag in &anchor.tags {
            let Some(con) = spec.find(tag) else {
                findings.push(Finding::new(
                    "bounds",
                    "unknown-tag",
                    &file.label,
                    anchor.line,
                    format!("CONTRACT anchor names `{tag}`, which bounds.spec does not declare"),
                ));
                continue;
            };
            // Split bindings into operand-pointer vs symbol bindings.
            let mut op_bindings = Vec::new();
            let mut sym_bindings: Vec<(String, SymExpr)> = Vec::new();
            let mut ok = true;
            for (key, val) in &anchor.bindings {
                if con.operand(key).is_some() {
                    op_bindings.push((key.clone(), norm_path(val)));
                } else {
                    match SymExpr::parse(val) {
                        Ok(e) => sym_bindings.push((key.clone(), e)),
                        Err(err) => {
                            findings.push(Finding::new(
                                "bounds",
                                "spec-mismatch",
                                &file.label,
                                anchor.line,
                                format!(
                                    "binding `{key} = {val}` for {tag} is not a \
                                     polynomial expression: {err}"
                                ),
                            ));
                            ok = false;
                        }
                    }
                }
            }
            if !ok {
                continue;
            }
            let subst_all = |e: &SymExpr| -> SymExpr {
                let mut e = e.clone();
                for (k, v) in &sym_bindings {
                    e = e.subst(k, v);
                }
                e
            };
            // A bound stride must itself rebind to a single symbol —
            // the row decomposition divides by it.
            let rebind_sym = |s: &str| -> Result<String, String> {
                match sym_bindings.iter().find(|(k, _)| k == s) {
                    None => Ok(s.to_string()),
                    Some((_, v)) => {
                        let syms = v.symbols();
                        if syms.len() == 1 && v == &SymExpr::symbol(syms[0]) {
                            Ok(syms[0].to_string())
                        } else {
                            Err(format!("stride `{s}` rebound to non-symbol `{v}`"))
                        }
                    }
                }
            };
            let mut operands = Vec::new();
            for op in &con.operands {
                let shape = match &op.shape {
                    SpecShape::Rows {
                        rows,
                        stride,
                        at,
                        width,
                    } => {
                        let stride = match rebind_sym(stride) {
                            Ok(s) => s,
                            Err(msg) => {
                                findings.push(Finding::new(
                                    "bounds",
                                    "stride-split",
                                    &file.label,
                                    anchor.line,
                                    format!("{tag} operand `{}`: {msg}", op.name),
                                ));
                                continue;
                            }
                        };
                        SpecShape::Rows {
                            rows: subst_all(rows),
                            stride,
                            at: subst_all(at),
                            width: subst_all(width),
                        }
                    }
                    SpecShape::Solid { len } => SpecShape::Solid {
                        len: subst_all(len),
                    },
                };
                let desc = shape_desc(&shape);
                operands.push((op.name.clone(), shape, desc));
            }
            let mut ges = Vec::new();
            let mut polys = Vec::new();
            for (sym, rhs) in &con.requires {
                let rhs = subst_all(rhs);
                match rebind_sym(sym) {
                    Ok(s) => ges.push((s, rhs)),
                    Err(_) => {
                        // A require on a compound-bound symbol becomes a
                        // plain polynomial fact `bound - rhs >= 0`.
                        if let Some((_, v)) = sym_bindings.iter().find(|(k, _)| k == sym) {
                            polys.push(v.sub(&rhs));
                        }
                    }
                }
            }
            let ceildivs = con
                .ceildivs
                .iter()
                .map(|c| (c.name.clone(), subst_all(&c.a), subst_all(&c.b)))
                .collect();
            out.push(TagCtx {
                tag: tag.clone(),
                op_bindings,
                operands,
                ges,
                polys,
                ceildivs,
            });
        }
    }
    out
}

/// Walks one function body: maintains the scope stack, harvests facts
/// from `let`s, loop headers and guards, and discharges every pointer
/// site against the anchored contracts.
fn check_fn(
    file: &SourceFile,
    toks: &CodeTokens<'_>,
    f: &FnRegion,
    spec: &Spec,
    findings: &mut Vec<Finding>,
    stats: &mut BoundsStats,
) {
    let Some(sig) = parse_signature(toks, f) else {
        return;
    };
    let Some(body_open) = sig.body_open else {
        return;
    };
    let Some(body_close) = toks.matching_close(body_open) else {
        return;
    };
    let ctxs = build_tag_ctxs(file, f, spec, findings);
    let mut w = Walker {
        file,
        toks,
        sig: &sig,
        ctxs: &ctxs,
        scopes: Vec::new(),
        pending: Vec::new(),
        consumed: BTreeSet::new(),
        reported_mismatch: BTreeSet::new(),
        findings,
        stats,
        paren: 0,
        bracket: 0,
    };
    w.run(body_open, body_close);
}

struct Walker<'a, 'f> {
    file: &'f SourceFile,
    toks: &'a CodeTokens<'f>,
    sig: &'a Signature,
    ctxs: &'a [TagCtx],
    scopes: Vec<Scope>,
    /// `(block-open token index, prebuilt scope)` from control headers.
    pending: Vec<(usize, Scope)>,
    /// Token indices of `add`/`offset` idents already handled by a
    /// specialized form (alias lets, `copy_nonoverlapping` args).
    consumed: BTreeSet<usize>,
    reported_mismatch: BTreeSet<(String, String)>,
    findings: &'a mut Vec<Finding>,
    stats: &'a mut BoundsStats,
    paren: i64,
    bracket: i64,
}

impl Walker<'_, '_> {
    fn run(&mut self, body_open: usize, body_close: usize) {
        let mut j = body_open;
        while j <= body_close {
            let kind = self.toks.tok(j).kind;
            let text = self.toks.text(j).to_string();
            if kind == TokenKind::Punct {
                match text.as_str() {
                    "(" => self.paren += 1,
                    ")" => self.paren -= 1,
                    "[" => self.bracket += 1,
                    "]" => self.bracket -= 1,
                    "{" if self.paren == 0 && self.bracket == 0 => {
                        let scope = match self.pending.iter().position(|(o, _)| *o == j) {
                            Some(p) => self.pending.remove(p).1,
                            None => Scope::default(),
                        };
                        self.scopes.push(scope);
                    }
                    "}" if self.paren == 0 && self.bracket == 0 => {
                        if let Some(sc) = self.scopes.pop() {
                            self.negate_if_returned(&sc);
                        }
                    }
                    _ => {}
                }
                j += 1;
                continue;
            }
            if kind == TokenKind::Ident {
                // Pointer sites fire at any nesting depth.
                if is_ptr_arith_ident(self.toks, j) && !self.consumed.contains(&j) {
                    self.handle_generic_site(j);
                    j += 1;
                    continue;
                }
                if (text == "copy_nonoverlapping" || text == "write_bytes")
                    && self.toks.is_punct(j + 1, '(')
                {
                    self.handle_copy_call(j, &text);
                    j += 1;
                    continue;
                }
                // Statement-level constructs only at top nesting.
                if self.paren == 0 && self.bracket == 0 && !self.scopes.is_empty() {
                    match text.as_str() {
                        "let" => {
                            let prev_if = j > 0
                                && (self.toks.is_ident(j - 1, "if")
                                    || self.toks.is_ident(j - 1, "while"));
                            if !prev_if {
                                self.handle_let(j);
                            }
                        }
                        "if" | "while" => self.handle_cond_header(j, &text),
                        "for" => self.handle_for_header(j),
                        "return" => {
                            if let Some(sc) = self.scopes.last_mut() {
                                if !sc.saw_loop_exit {
                                    sc.saw_return = true;
                                }
                            }
                        }
                        "break" | "continue" => {
                            if let Some(sc) = self.scopes.last_mut() {
                                sc.saw_loop_exit = true;
                            }
                        }
                        "fn" => {
                            // Nested fn item: analyzed on its own pass
                            // over `file.fns`; skip its tokens here.
                            if let Some(skip) = (self.toks.tok(j + 1).kind == TokenKind::Ident)
                                .then(|| skip_nested_fn(self.toks, j))
                                .flatten()
                            {
                                j = skip + 1;
                                continue;
                            }
                        }
                        _ => {}
                    }
                }
            }
            j += 1;
        }
    }

    /// After an `if C { …; return; }` block closes, `!C` holds. Only
    /// the disjunctive zero-test shape is harvested: each top-level
    /// `||` clause of the form `SYM == 0` contributes `SYM >= 1`.
    fn negate_if_returned(&mut self, sc: &Scope) {
        let Some(cond) = &sc.if_cond else { return };
        if !sc.saw_return || sc.saw_loop_exit {
            return;
        }
        if !split_top(cond, "&&").1.is_empty() {
            return;
        }
        let mut clauses = vec![cond.as_str()];
        let (first, rest) = split_top(cond, "||");
        if !rest.is_empty() {
            clauses = vec![first];
            clauses.extend(rest);
        }
        let Some(parent) = self.scopes.last_mut() else {
            return;
        };
        for cl in clauses {
            let Some((lhs, rhs)) = cl.split_once("==") else {
                continue;
            };
            if rhs.contains('=') {
                continue;
            }
            let (Ok(l), Ok(r)) = (SymExpr::parse(lhs), SymExpr::parse(rhs)) else {
                continue;
            };
            if r.as_constant() != Some(0) {
                continue;
            }
            let syms = l.symbols();
            if syms.len() == 1 && l == SymExpr::symbol(syms[0]) {
                parent.ges.push((syms[0].to_string(), SymExpr::constant(1)));
            }
        }
    }

    /// Names of every variable currently in scope.
    fn scoped_var_names(&self) -> Vec<String> {
        self.scopes
            .iter()
            .flat_map(|s| s.vars.iter().map(|v| v.name.clone()))
            .collect()
    }

    /// Handles `if COND {` / `while COND {`: builds the block's scope
    /// payload from the condition's top-level `&&` clauses.
    fn handle_cond_header(&mut self, j: usize, kw: &str) {
        // `if let` / `while let` bind patterns we treat as opaque.
        let is_let = self.toks.is_ident(j + 1, "let");
        let Some(open) = find_block_open(self.toks, j + 1) else {
            return;
        };
        let mut payload = Scope::default();
        if !is_let {
            let cond = self.slice_text(j + 1, open);
            self.parse_guard(&cond, &mut payload);
            if kw == "if" {
                payload.if_cond = Some(cond);
            }
        }
        self.pending.push((open, payload));
    }

    /// Raw source text covering code tokens `from..to` (exclusive).
    fn slice_text(&self, from: usize, to: usize) -> String {
        if from >= to {
            return String::new();
        }
        let a = self.toks.tok(from).start;
        let b = self.toks.tok(to - 1).end;
        self.file.src[a..b].to_string()
    }

    /// Splits `cond` at top-level `&&` and harvests each comparison
    /// clause into the payload as a polynomial fact, a `sym >= expr`
    /// fact, or an extra upper bound on the latest-defined variable.
    fn parse_guard(&self, cond: &str, payload: &mut Scope) {
        let (first, rest) = split_top(cond, "&&");
        let mut clauses = vec![first];
        clauses.extend(rest);
        let scoped = self.scoped_var_names();
        for cl in clauses {
            let Some(e) = comparison_ge0(cl) else {
                continue;
            };
            let in_scope: Vec<&String> = scoped.iter().filter(|v| e.contains(v)).collect();
            if in_scope.is_empty() {
                for s in e.symbols() {
                    if e.linear_coeff(s) == 1 {
                        payload
                            .ges
                            .push((s.to_string(), SymExpr::symbol(s).sub(&e)));
                    }
                }
                payload.polys.push(e);
            } else {
                // Bound the latest-defined variable when it appears
                // linearly with coefficient -1: `v <= e + v`.
                let v = scoped
                    .iter()
                    .rev()
                    .find(|n| e.contains(n))
                    .expect("nonempty");
                let lin = e.linear_coeff(v);
                let without = e.sub(&SymExpr::symbol(v).mul(&SymExpr::constant(lin)));
                if lin == -1 && !without.contains(v) {
                    payload
                        .extra_hi
                        .push((v.clone(), e.add(&SymExpr::symbol(v))));
                }
            }
        }
    }

    /// Handles `for PAT in EXPR {`.
    fn handle_for_header(&mut self, j: usize) {
        // Find `in` at top nesting relative to the header.
        let mut k = j + 1;
        let mut depth = (0i64, 0i64);
        let mut in_idx = None;
        while k < self.toks.len() {
            match self.toks.text(k) {
                "(" => depth.0 += 1,
                ")" => depth.0 -= 1,
                "[" => depth.1 += 1,
                "]" => depth.1 -= 1,
                "{" if depth == (0, 0) => break,
                "in" if depth == (0, 0) && self.toks.tok(k).kind == TokenKind::Ident => {
                    in_idx = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(in_idx) = in_idx else { return };
        let Some(open) = find_block_open(self.toks, in_idx + 1) else {
            return;
        };
        let mut payload = Scope::default();
        let expr = self.slice_text(in_idx + 1, open);
        // `for v in A..B` / `A..=B`.
        let mut pat_start = j + 1;
        if self.toks.is_ident(pat_start, "mut") {
            pat_start += 1;
        }
        if self.toks.tok(pat_start).kind == TokenKind::Ident && pat_start + 1 == in_idx {
            let v = self.toks.text(pat_start).to_string();
            if let Some((a, b, inclusive)) = split_range(&expr) {
                let lo = SymExpr::parse(a).unwrap_or_else(|_| SymExpr::zero());
                let hi = match SymExpr::parse(b) {
                    Ok(e) if inclusive => vec![e],
                    Ok(e) => vec![e.sub(&SymExpr::constant(1))],
                    Err(_) => vec![],
                };
                payload.vars.push(VarBound { name: v, lo, hi });
            } else {
                payload.vars.push(VarBound {
                    name: v,
                    lo: SymExpr::zero(),
                    hi: vec![],
                });
            }
        } else if self.toks.is_punct(pat_start, '(')
            && self.toks.tok(pat_start + 1).kind == TokenKind::Ident
            && expr.contains(".enumerate()")
        {
            // `for (i, x) in NAME.iter().enumerate()[.take(n)]`.
            let v = self.toks.text(pat_start + 1).to_string();
            let mut hi = Vec::new();
            let root: String = expr
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            for sc in self.scopes.iter().rev() {
                if let Some((_, len)) = sc.arrays.iter().rev().find(|(n, _)| *n == root) {
                    hi.push(len.sub(&SymExpr::constant(1)));
                    break;
                }
            }
            if let Some(pos) = expr.find(".take(") {
                let tail = &expr[pos + ".take(".len()..];
                if let Some(close) = find_close_paren(tail) {
                    if let Ok(n) = SymExpr::parse(&tail[..close]) {
                        hi.push(n.sub(&SymExpr::constant(1)));
                    }
                }
            }
            payload.vars.push(VarBound {
                name: v,
                lo: SymExpr::zero(),
                hi,
            });
        }
        self.pending.push((open, payload));
    }

    /// Backward scan for the `(` matching the `)` at `close`.
    fn matching_open(&self, close: usize) -> Option<usize> {
        let mut depth = 0i64;
        let mut i = close;
        loop {
            match self.toks.text(i) {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
    }

    /// Handles a `let` statement: harvests variable bounds, equalities,
    /// pointer aliases, buffer lengths and `div_ceil` definitions.
    fn handle_let(&mut self, j: usize) {
        let mut k = j + 1;
        let is_mut = self.toks.is_ident(k, "mut");
        if is_mut {
            k += 1;
        }
        if k >= self.toks.len() || self.toks.tok(k).kind != TokenKind::Ident {
            return; // tuple/struct patterns are opaque
        }
        let name = self.toks.text(k).to_string();
        // Locate the initializer `=` and the terminating `;`, both at
        // the statement's own nesting level. Single-char punct lexing
        // means `==` is two `=` tokens; `<` generics in a type
        // annotation are angle-tracked until the `=` is found.
        let mut depth = (0i64, 0i64, 0i64); // paren, bracket, brace
        let mut angle = 0i64;
        let mut eq = None;
        let mut end = None;
        let mut i = k + 1;
        while i < self.toks.len() {
            match self.toks.text(i) {
                "(" => depth.0 += 1,
                ")" => depth.0 -= 1,
                "[" => depth.1 += 1,
                "]" => depth.1 -= 1,
                "{" => depth.2 += 1,
                "}" => depth.2 -= 1,
                "<" if eq.is_none() => angle += 1,
                ">" if eq.is_none() => angle = (angle - 1).max(0),
                "=" if depth == (0, 0, 0) && angle == 0 && eq.is_none() => {
                    let prev = self.toks.text(i - 1);
                    if !self.toks.is_punct(i + 1, '=')
                        && prev != "="
                        && prev != "<"
                        && prev != ">"
                        && prev != "!"
                    {
                        eq = Some(i);
                    }
                }
                ";" if depth == (0, 0, 0) => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let (Some(eq), Some(end)) = (eq, end) else {
            return;
        };
        if is_mut {
            // A `mut` array's *length* is still fixed — register it so
            // `enumerate` loops over it stay bounded.
            if eq + 1 < end && self.register_buffer(&name, eq + 1) {
                return;
            }
            // A `mut` scalar may be reassigned below its definition, so
            // only the universal usize lower bound survives; guards add
            // upper bounds via `extra_hi`.
            if let Some(sc) = self.scopes.last_mut() {
                sc.vars.push(VarBound {
                    name,
                    lo: SymExpr::zero(),
                    hi: vec![],
                });
            }
            return;
        }
        if eq + 1 < end {
            self.handle_let_rhs(&name, eq + 1, end);
        }
    }

    /// Length expression of a `[expr; LEN]`-style initializer: the text
    /// after the last `;` at the initializer's own bracket level.
    fn literal_len(&self, open: usize, close: usize) -> Option<SymExpr> {
        let mut depth = (0i64, 0i64, 0i64);
        let mut semi = None;
        for i in open + 1..close {
            match self.toks.text(i) {
                "(" => depth.0 += 1,
                ")" => depth.0 -= 1,
                "[" => depth.1 += 1,
                "]" => depth.1 -= 1,
                "{" => depth.2 += 1,
                "}" => depth.2 -= 1,
                ";" if depth == (0, 0, 0) => semi = Some(i),
                _ => {}
            }
        }
        let semi = semi?;
        SymExpr::parse(&self.slice_text(semi + 1, close)).ok()
    }

    /// Records a `vec![Z; LEN]` / `[Z; LEN]` initializer starting at
    /// token `rs` as a named buffer of length `LEN`. Returns whether
    /// the initializer had buffer shape (even if the length did not
    /// parse — such buffers stay opaque rather than fall through to
    /// the scalar rules).
    fn register_buffer(&mut self, name: &str, rs: usize) -> bool {
        let open = if self.toks.is_ident(rs, "vec")
            && self.toks.is_punct(rs + 1, '!')
            && self.toks.is_punct(rs + 2, '[')
        {
            rs + 2
        } else if self.toks.is_punct(rs, '[') {
            rs
        } else {
            return false;
        };
        if let Some(close) = self.toks.matching_close(open) {
            if let Some(len) = self.literal_len(open, close) {
                if let Some(sc) = self.scopes.last_mut() {
                    sc.arrays.push((name.to_string(), len));
                }
            }
        }
        true
    }

    /// Dispatches on the shape of a non-`mut` `let` initializer
    /// (tokens `rs..re`, exclusive).
    fn handle_let_rhs(&mut self, name: &str, rs: usize, re: usize) {
        // `vec![Z; LEN]` and `[Z; LEN]` buffers.
        if self.register_buffer(name, rs) {
            return;
        }
        // A deref initializer's inner site is the generic scan's job.
        if self.toks.is_punct(rs, '*') {
            return;
        }
        // A chain ending in a method call: `base.add(e)`,
        // `a.div_ceil(b)`, `a.min(b)`, `buf.as_ptr()`.
        if self.toks.is_punct(re - 1, ')') {
            if let Some(open) = self.matching_open(re - 1) {
                if open >= 2
                    && open > rs
                    && self.toks.tok(open - 1).kind == TokenKind::Ident
                    && self.toks.is_punct(open - 2, '.')
                {
                    let method = self.toks.text(open - 1).to_string();
                    match method.as_str() {
                        "add" | "offset" => {
                            self.consumed.insert(open - 1);
                            self.alias_from_add(name, rs, open, re);
                            return;
                        }
                        "div_ceil" => {
                            let a = SymExpr::parse(&self.slice_text(rs, open - 2));
                            let b = SymExpr::parse(&self.slice_text(open + 1, re - 1));
                            if let (Ok(a), Ok(b)) = (a, b) {
                                let q = SymExpr::symbol(name);
                                if let Some(sc) = self.scopes.last_mut() {
                                    sc.polys.push(q.mul(&b).sub(&a));
                                    sc.polys
                                        .push(a.add(&b).sub(&SymExpr::constant(1)).sub(&q.mul(&b)));
                                    sc.ceildivs.push((name.to_string(), a, b));
                                }
                            }
                            return;
                        }
                        "min" => {
                            let a = SymExpr::parse(&self.slice_text(rs, open - 2));
                            let b = SymExpr::parse(&self.slice_text(open + 1, re - 1));
                            if let (Ok(a), Ok(b)) = (a, b) {
                                if let Some(sc) = self.scopes.last_mut() {
                                    sc.vars.push(VarBound {
                                        name: name.to_string(),
                                        lo: SymExpr::zero(),
                                        hi: vec![a, b],
                                    });
                                }
                            }
                            return;
                        }
                        "as_ptr" | "as_mut_ptr" => {
                            if open == rs + 3 && self.toks.tok(rs).kind == TokenKind::Ident {
                                let recv = self.toks.text(rs).to_string();
                                let known = self
                                    .scopes
                                    .iter()
                                    .any(|sc| sc.arrays.iter().any(|(n, _)| *n == recv));
                                if known {
                                    if let Some(sc) = self.scopes.last_mut() {
                                        sc.aliases.push(Alias {
                                            name: name.to_string(),
                                            root: Root::Array(recv),
                                            offset: SymExpr::zero(),
                                        });
                                    }
                                }
                            }
                            return;
                        }
                        _ => return, // opaque
                    }
                }
            }
            return;
        }
        // A bare (possibly dotted) path: a pointer rebinding when it
        // resolves to an alias or raw-pointer parameter.
        let mut all_path = true;
        for i in rs..re {
            let want_ident = (i - rs).is_multiple_of(2);
            if want_ident {
                if self.toks.tok(i).kind != TokenKind::Ident {
                    all_path = false;
                    break;
                }
            } else if !self.toks.is_punct(i, '.') {
                all_path = false;
                break;
            }
        }
        if all_path && (re - rs) % 2 == 1 {
            let path = norm_path(&self.slice_text(rs, re));
            let aliased = self
                .scopes
                .iter()
                .rev()
                .find_map(|sc| sc.aliases.iter().rev().find(|a| a.name == path).cloned());
            if let Some(al) = aliased {
                if let Some(sc) = self.scopes.last_mut() {
                    sc.aliases.push(Alias {
                        name: name.to_string(),
                        root: al.root,
                        offset: al.offset,
                    });
                }
                return;
            }
            let is_raw_param =
                re - rs == 1 && self.sig.params.iter().any(|(n, raw)| *raw && *n == path);
            if is_raw_param {
                if let Some(sc) = self.scopes.last_mut() {
                    sc.aliases.push(Alias {
                        name: name.to_string(),
                        root: Root::Path(path),
                        offset: SymExpr::zero(),
                    });
                }
                return;
            }
        }
        // A polynomial initializer: an exact variable when it references
        // scoped variables (they may fall out of scope or be guarded),
        // otherwise a plain equality.
        if let Ok(rhs) = SymExpr::parse(&self.slice_text(rs, re)) {
            let scoped = self.scoped_var_names();
            let uses_var = rhs.symbols().iter().any(|s| scoped.iter().any(|v| v == s));
            if let Some(sc) = self.scopes.last_mut() {
                if uses_var {
                    sc.vars.push(VarBound {
                        name: name.to_string(),
                        lo: rhs.clone(),
                        hi: vec![rhs],
                    });
                } else {
                    sc.eqs.push((name.to_string(), rhs));
                }
            }
        }
    }

    /// `let p = RECV.add(E)`: records the alias and checks the
    /// formation itself.
    fn alias_from_add(&mut self, name: &str, rs: usize, open: usize, re: usize) {
        let Some((start, recv)) = receiver_range(self.toks, open - 1) else {
            return;
        };
        if start != rs {
            return;
        }
        let Some((root, base)) = self.resolve_recv(&recv) else {
            return;
        };
        let line = self.toks.tok(open - 1).line;
        let off_text = self.slice_text(open + 1, re - 1);
        let off = match SymExpr::parse(&off_text) {
            Ok(o) => base.add(&o),
            Err(err) => {
                self.findings.push(Finding::new(
                    "bounds",
                    "unsupported-expr",
                    &self.file.label,
                    line,
                    format!("offset `{off_text}` is outside the polynomial grammar: {err}"),
                ));
                return;
            }
        };
        if let Some(sc) = self.scopes.last_mut() {
            sc.aliases.push(Alias {
                name: name.to_string(),
                root: root.clone(),
                offset: off.clone(),
            });
        }
        self.record_site(line, &root, &off, &Width::Formation, &off_text);
    }

    /// `copy_nonoverlapping(src, dst, n)` / `write_bytes(dst, v, n)`:
    /// the pointer arguments are accesses of `n` elements.
    fn handle_copy_call(&mut self, j: usize, which: &str) {
        let Some(close) = self.toks.matching_close(j + 1) else {
            return;
        };
        let mut depth = (0i64, 0i64, 0i64);
        let mut args: Vec<(usize, usize)> = Vec::new();
        let mut start = j + 2;
        for i in j + 2..=close {
            let t = self.toks.text(i);
            let top = depth == (0, 0, 0);
            match t {
                "(" => depth.0 += 1,
                ")" if i < close => depth.0 -= 1,
                "[" => depth.1 += 1,
                "]" => depth.1 -= 1,
                "{" => depth.2 += 1,
                "}" => depth.2 -= 1,
                "," if top => {
                    args.push((start, i));
                    start = i + 1;
                }
                _ => {}
            }
            if i == close {
                args.push((start, i));
            }
        }
        if args.len() != 3 {
            return;
        }
        let count_text = self.slice_text(args[2].0, args[2].1);
        let count = match SymExpr::parse(&count_text) {
            Ok(c) => c,
            Err(err) => {
                self.findings.push(Finding::new(
                    "bounds",
                    "unsupported-expr",
                    &self.file.label,
                    self.toks.tok(j).line,
                    format!(
                        "element count `{count_text}` of `{which}` is outside \
                         the polynomial grammar: {err}"
                    ),
                ));
                return;
            }
        };
        let ptr_args: &[usize] = if which == "copy_nonoverlapping" {
            &[0, 1]
        } else {
            &[0]
        };
        for &ai in ptr_args {
            let (s, e) = args[ai];
            self.check_ptr_arg(s, e, &count);
        }
    }

    /// One pointer argument of a bulk call: either `RECV.add(E)` or a
    /// bare pointer path, accessed with width `count`.
    fn check_ptr_arg(&mut self, s: usize, e: usize, count: &SymExpr) {
        if e > s && self.toks.is_punct(e - 1, ')') {
            let Some(open) = self.matching_open(e - 1) else {
                return;
            };
            if open >= 2
                && (self.toks.is_ident(open - 1, "add") || self.toks.is_ident(open - 1, "offset"))
                && self.toks.is_punct(open - 2, '.')
            {
                self.consumed.insert(open - 1);
                let Some((start, recv)) = receiver_range(self.toks, open - 1) else {
                    return;
                };
                if start != s {
                    return;
                }
                let Some((root, base)) = self.resolve_recv(&recv) else {
                    return;
                };
                let line = self.toks.tok(open - 1).line;
                let off_text = self.slice_text(open + 1, e - 1);
                match SymExpr::parse(&off_text) {
                    Ok(o) => {
                        let off = base.add(&o);
                        self.record_site(
                            line,
                            &root,
                            &off,
                            &Width::Elems(count.clone()),
                            &off_text,
                        );
                    }
                    Err(err) => {
                        self.findings.push(Finding::new(
                            "bounds",
                            "unsupported-expr",
                            &self.file.label,
                            line,
                            format!("offset `{off_text}` is outside the polynomial grammar: {err}"),
                        ));
                    }
                }
            }
            return;
        }
        // Bare path argument (the pointer itself, offset 0).
        let mut all_path = true;
        for i in s..e {
            let want_ident = (i - s).is_multiple_of(2);
            if want_ident {
                if i >= self.toks.len() || self.toks.tok(i).kind != TokenKind::Ident {
                    all_path = false;
                    break;
                }
            } else if !self.toks.is_punct(i, '.') {
                all_path = false;
                break;
            }
        }
        if !all_path || (e - s) % 2 != 1 {
            return;
        }
        let path = norm_path(&self.slice_text(s, e));
        let Some((root, base)) = self.resolve_recv(&Recv::Path(path)) else {
            return;
        };
        let line = self.toks.tok(s).line;
        self.record_site(line, &root, &base, &Width::Elems(count.clone()), "0");
    }

    /// A free-standing `.add`/`.offset` site found by the generic scan.
    fn handle_generic_site(&mut self, j: usize) {
        let Some((start, recv)) = receiver_range(self.toks, j) else {
            return;
        };
        let Some((root, base)) = self.resolve_recv(&recv) else {
            return;
        };
        let Some(close) = self.toks.matching_close(j + 1) else {
            return;
        };
        let line = self.toks.tok(j).line;
        let off_text = self.slice_text(j + 2, close);
        if self.toks.text(j).starts_with("byte") {
            self.findings.push(Finding::new(
                "bounds",
                "unsupported-expr",
                &self.file.label,
                line,
                format!(
                    "`{}` offsets in bytes; the element-granular spans cannot \
                     check `{off_text}`",
                    self.toks.text(j)
                ),
            ));
            return;
        }
        let off = match SymExpr::parse(&off_text) {
            Ok(o) => base.add(&o),
            Err(err) => {
                self.findings.push(Finding::new(
                    "bounds",
                    "unsupported-expr",
                    &self.file.label,
                    line,
                    format!("offset `{off_text}` is outside the polynomial grammar: {err}"),
                ));
                return;
            }
        };
        let width = self.classify_width(start, close);
        self.record_site(line, &root, &off, &width, &off_text);
    }

    /// The last top-level argument of the call whose `(` is code token
    /// `open`, when it parses as a polynomial (an element count).
    fn last_call_arg(&self, open: usize) -> Option<SymExpr> {
        let close = self.toks.matching_close(open)?;
        let mut depth = (0i64, 0i64, 0i64);
        let mut last_comma = None;
        for i in open + 1..close {
            match self.toks.text(i) {
                "(" => depth.0 += 1,
                ")" => depth.0 -= 1,
                "[" => depth.1 += 1,
                "]" => depth.1 -= 1,
                "{" => depth.2 += 1,
                "}" => depth.2 -= 1,
                "," if depth == (0, 0, 0) => last_comma = Some(i),
                _ => {}
            }
        }
        SymExpr::parse(&self.slice_text(last_comma? + 1, close)).ok()
    }

    /// How many elements the site touches: a deref or `V::load`/`store`
    /// wrapper reads through the pointer (a `*_partial` wrapper only its
    /// trailing lane count); a plain call argument or assignment RHS only
    /// forms it.
    fn classify_width(&self, start: usize, close: usize) -> Width {
        if start > 0 {
            let prev = self.toks.text(start - 1);
            if prev == "*" {
                return Width::Elems(SymExpr::constant(1));
            }
            if prev == "(" && start >= 2 && self.toks.tok(start - 2).kind == TokenKind::Ident {
                let f = self.toks.text(start - 2);
                if f == "load_partial" || f == "store_partial" {
                    // `V::load_partial(p.add(o), n)` touches `n <= LANES`
                    // lanes; without a parsable count fall back to the
                    // full vector, which can only over-approximate.
                    return Width::Elems(
                        self.last_call_arg(start - 1)
                            .unwrap_or_else(|| SymExpr::symbol("V::LANES")),
                    );
                }
                if f.starts_with("load") || f.starts_with("store") {
                    return Width::Elems(SymExpr::symbol("V::LANES"));
                }
                if f.starts_with("prefetch") {
                    return Width::Formation;
                }
            }
        }
        if self.toks.is_punct(close + 1, '.')
            && close + 2 < self.toks.len()
            && self.toks.tok(close + 2).kind == TokenKind::Ident
        {
            let m = self.toks.text(close + 2);
            if m == "write_bytes"
                || m == "copy_from_nonoverlapping"
                || m == "copy_to_nonoverlapping"
            {
                // `p.add(o).copy_from_nonoverlapping(q, n)`: width is the
                // last argument when it parses; else fall back to one
                // element (the start stays checked).
                let count = self
                    .toks
                    .is_punct(close + 3, '(')
                    .then(|| self.last_call_arg(close + 3))
                    .flatten();
                return Width::Elems(count.unwrap_or_else(|| SymExpr::constant(1)));
            }
            if m.starts_with("read") || m.starts_with("write") {
                return Width::Elems(SymExpr::constant(1));
            }
        }
        Width::Formation
    }

    /// Resolves a receiver through the alias chain to its root.
    fn resolve_recv(&self, recv: &Recv) -> Option<(Root, SymExpr)> {
        match recv {
            Recv::AsPtr(name) => Some((Root::Array(name.clone()), SymExpr::zero())),
            Recv::Path(p) => {
                for sc in self.scopes.iter().rev() {
                    if let Some(al) = sc.aliases.iter().rev().find(|a| a.name == *p) {
                        return Some((al.root.clone(), al.offset.clone()));
                    }
                }
                Some((Root::Path(p.clone()), SymExpr::zero()))
            }
        }
    }

    /// Maps a resolved site to operands and discharges its obligations.
    fn record_site(&mut self, line: usize, root: &Root, off: &SymExpr, width: &Width, raw: &str) {
        match root {
            Root::Array(name) => {
                let mut len = None;
                for sc in self.scopes.iter().rev() {
                    if let Some((_, l)) = sc.arrays.iter().rev().find(|(n, _)| n == name) {
                        len = Some(l.clone());
                        break;
                    }
                }
                // An unknown buffer (slice parameter, re-borrow) has no
                // declared span to check against.
                let Some(len) = len else { return };
                self.stats.sites += 1;
                let shape = SpecShape::Solid { len };
                let desc = format!("local buffer `{name}`, {}", shape_desc(&shape));
                let all: Vec<&TagCtx> = self.ctxs.iter().collect();
                let name = name.clone();
                if self.discharge(line, &all, "local", &name, &shape, &desc, off, width, raw) {
                    self.stats.proved += 1;
                }
            }
            Root::Path(p) => {
                let mut matches: Vec<(usize, String, SpecShape, String)> = Vec::new();
                for (ci, ctx) in self.ctxs.iter().enumerate() {
                    let bound = ctx
                        .op_bindings
                        .iter()
                        .find(|(_, v)| v == p)
                        .map(|(k, _)| k.clone());
                    let opname = match bound {
                        Some(k) => Some(k),
                        None if ctx.op_bindings.iter().all(|(k, _)| k != p)
                            && ctx.operands.iter().any(|(n, _, _)| n == p) =>
                        {
                            Some(p.clone())
                        }
                        None => None,
                    };
                    if let Some(opname) = opname {
                        if let Some((_, shape, desc)) =
                            ctx.operands.iter().find(|(n, _, _)| *n == opname)
                        {
                            matches.push((ci, opname, shape.clone(), desc.clone()));
                        }
                    }
                }
                if matches.is_empty() {
                    let is_raw_param = self.sig.params.iter().any(|(n, r)| *r && n == p);
                    if !self.ctxs.is_empty() && is_raw_param {
                        self.findings.push(Finding::new(
                            "bounds",
                            "unmapped-site",
                            &self.file.label,
                            line,
                            format!(
                                "pointer arithmetic on parameter `{p}` maps to no \
                                 operand of the anchored contract(s); bind it with \
                                 `CONTRACT(TAG: operand = {p})` or register a span"
                            ),
                        ));
                    }
                    return;
                }
                self.stats.sites += 1;
                let ctxs = self.ctxs;
                let mut all_proved = true;
                for (ci, opname, shape, desc) in matches {
                    let ctx = &ctxs[ci];
                    if !self.discharge(
                        line,
                        &[ctx],
                        &ctx.tag,
                        &opname,
                        &shape,
                        &desc,
                        off,
                        width,
                        raw,
                    ) {
                        all_proved = false;
                    }
                }
                if all_proved {
                    self.stats.proved += 1;
                }
            }
        }
    }

    /// Proves one site against one span; pushes findings on failure and
    /// returns whether every obligation held.
    #[allow(clippy::too_many_arguments)]
    fn discharge(
        &mut self,
        line: usize,
        ctxs: &[&TagCtx],
        tag: &str,
        opname: &str,
        shape: &SpecShape,
        desc: &str,
        off: &SymExpr,
        width: &Width,
        raw: &str,
    ) -> bool {
        let obls = match obligations(off, width, shape) {
            Ok(o) => o,
            Err(msg) => {
                self.findings.push(Finding::new(
                    "bounds",
                    "stride-split",
                    &self.file.label,
                    line,
                    format!("offset `{off}` on operand `{opname}` of {tag}: {msg} ({desc})"),
                ));
                return false;
            }
        };
        let mut needed: BTreeSet<String> = BTreeSet::new();
        for (_, e, limit, _) in &obls {
            for s in e.symbols() {
                needed.insert(s.to_string());
            }
            for s in limit.symbols() {
                needed.insert(s.to_string());
            }
        }
        let (env, missing) = self.build_env(ctxs, &needed);
        if !missing.is_empty() {
            for (mtag, sname) in missing {
                if self.reported_mismatch.insert((mtag.clone(), sname.clone())) {
                    self.findings.push(Finding::new(
                        "bounds",
                        "spec-mismatch",
                        &self.file.label,
                        line,
                        format!(
                            "{mtag} defines `{sname}` via ceildiv but no matching \
                             `div_ceil` definition is in scope at the use site"
                        ),
                    ));
                }
            }
            return false;
        }
        let mut ok = true;
        for (is_le, e, limit, what) in &obls {
            let res = if *is_le {
                env.prove_le(e, limit)
            } else {
                env.prove_ge(e, limit)
            };
            if let Err(cand) = res {
                ok = false;
                let worst = match cand {
                    Some(c) => format!("`{c}`"),
                    None => "unbounded".to_string(),
                };
                let rel = if *is_le {
                    format!("can reach {worst}, above the span limit `{limit}`")
                } else {
                    format!("can reach {worst}, below the span minimum `{limit}`")
                };
                self.findings.push(Finding::new(
                    "bounds",
                    "span-overflow",
                    &self.file.label,
                    line,
                    format!(
                        "offset `{raw}` on operand `{opname}` of {tag}: \
                         {what} `{e}` {rel}; declared span is {desc}"
                    ),
                ));
            }
        }
        ok
    }

    /// Assembles the [`Env`] visible at the current site: scoped
    /// variables (with guard-derived extra bounds), equalities and
    /// facts from every enclosing scope, plus the contract contexts'
    /// preconditions. Returns `(env, missing)` where `missing` lists
    /// spec `ceildiv` symbols the obligations need but no in-scope
    /// `div_ceil` definition matches.
    fn build_env(
        &self,
        ctxs: &[&TagCtx],
        needed: &BTreeSet<String>,
    ) -> (Env, Vec<(String, String)>) {
        let mut env = Env::default();
        for sc in &self.scopes {
            env.vars.extend(sc.vars.iter().cloned());
            env.eqs.extend(sc.eqs.iter().cloned());
            env.ges.extend(sc.ges.iter().cloned());
            env.polys.extend(sc.polys.iter().cloned());
        }
        for sc in &self.scopes {
            for (name, hi) in &sc.extra_hi {
                if let Some(v) = env.vars.iter_mut().rev().find(|v| v.name == *name) {
                    v.hi.push(hi.clone());
                }
            }
        }
        let mut missing = Vec::new();
        for ctx in ctxs {
            env.ges.extend(ctx.ges.iter().cloned());
            env.polys.extend(ctx.polys.iter().cloned());
            for (sname, sa, sb) in &ctx.ceildivs {
                let mut found = None;
                for sc in &self.scopes {
                    for (cname, a, b) in &sc.ceildivs {
                        if a == sa && b == sb {
                            found = Some(cname.clone());
                        }
                    }
                }
                match found {
                    Some(cname) => {
                        if cname != *sname {
                            env.eqs.push((sname.clone(), SymExpr::symbol(&cname)));
                        }
                    }
                    None => {
                        if needed.contains(sname) {
                            missing.push((ctx.tag.clone(), sname.clone()));
                        }
                    }
                }
            }
        }
        (env, missing)
    }
}

/// The proof obligations for an access of `width` at `off` into
/// `shape`, as `(is_le, expr, limit, what)` tuples; `Err` when the
/// offset cannot be decomposed by the declared row stride.
fn obligations(
    off: &SymExpr,
    width: &Width,
    shape: &SpecShape,
) -> Result<Vec<(bool, SymExpr, SymExpr, &'static str)>, String> {
    let one = SymExpr::constant(1);
    Ok(match (shape, width) {
        (
            SpecShape::Rows {
                rows,
                stride,
                at,
                width: w,
            },
            Width::Elems(n),
        ) => {
            let Some((q, rem)) = off.split_stride(stride) else {
                return Err(format!(
                    "cannot decompose the offset by row stride `{stride}`"
                ));
            };
            vec![
                (false, q.clone(), SymExpr::zero(), "row index"),
                (true, q, rows.sub(&one), "row index"),
                (false, rem.clone(), at.clone(), "column start"),
                (true, rem.add(n), at.add(w), "column end"),
            ]
        }
        (
            SpecShape::Rows {
                rows,
                stride,
                at,
                width: w,
            },
            Width::Formation,
        ) => {
            // A formed pointer may sit anywhere up to one past the
            // footprint's final element.
            let end = rows.sub(&one).mul(&SymExpr::symbol(stride)).add(at).add(w);
            vec![
                (false, off.clone(), SymExpr::zero(), "formed offset"),
                (true, off.clone(), end, "formed offset"),
            ]
        }
        (SpecShape::Solid { len }, Width::Elems(n)) => vec![
            (false, off.clone(), SymExpr::zero(), "access start"),
            (true, off.add(n), len.clone(), "access end"),
        ],
        (SpecShape::Solid { len }, Width::Formation) => vec![
            (false, off.clone(), SymExpr::zero(), "formed offset"),
            (true, off.clone(), len.clone(), "formed offset"),
        ],
    })
}

/// A syntactic pointer receiver.
enum Recv {
    /// `NAME.as_ptr()` / `NAME.as_mut_ptr()`.
    AsPtr(String),
    /// A dotted identifier path (`a`, `s.src`).
    Path(String),
}

/// The receiver of the `.add`/`.offset` ident at `j`: its first token
/// index and classification, or `None` for receivers the pass does not
/// track (call results, index expressions, tuple-field floats — SIMD
/// wrappers call `.add` on `self.0`, which must not be mistaken for
/// pointer arithmetic).
fn receiver_range(toks: &CodeTokens<'_>, j: usize) -> Option<(usize, Recv)> {
    if j < 2 {
        return None;
    }
    let prev = j - 2; // the token before the `.`
    match toks.tok(prev).kind {
        TokenKind::Punct if toks.text(prev) == ")" => {
            // `NAME.as_ptr().add(…)`: [Ident][.][as_ptr][(][)] ends here.
            if j >= 6
                && toks.is_punct(prev - 1, '(')
                && toks.tok(prev - 2).kind == TokenKind::Ident
                && (toks.text(prev - 2) == "as_ptr" || toks.text(prev - 2) == "as_mut_ptr")
                && toks.is_punct(prev - 3, '.')
                && toks.tok(prev - 4).kind == TokenKind::Ident
            {
                let start = prev - 4;
                if start >= 1 && toks.is_punct(start - 1, '.') {
                    return None; // deeper chain: `x.buf.as_ptr()`
                }
                return Some((start, Recv::AsPtr(toks.text(start).to_string())));
            }
            None
        }
        TokenKind::Ident => {
            let mut start = prev;
            while start >= 2
                && toks.is_punct(start - 1, '.')
                && toks.tok(start - 2).kind == TokenKind::Ident
            {
                start -= 2;
            }
            if start >= 1 && toks.is_punct(start - 1, '.') {
                return None; // rooted in a call/tuple field: `f().x`, `self.0.x`
            }
            let mut path = String::new();
            let mut i = start;
            while i <= prev {
                path.push_str(toks.text(i));
                if i < prev {
                    path.push('.');
                }
                i += 2;
            }
            Some((start, Recv::Path(path)))
        }
        _ => None,
    }
}

/// Byte index of the `)` closing the group whose body starts at the
/// beginning of `s`.
fn find_close_paren(s: &str) -> Option<usize> {
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

/// Splits `s` at top-level (outside parens/brackets) occurrences of the
/// two-char operator `op`; returns the first piece and the rest.
fn split_top<'s>(s: &'s str, op: &str) -> (&'s str, Vec<&'s str>) {
    let b = s.as_bytes();
    let o = op.as_bytes();
    let mut depth = 0i64;
    let mut cuts = Vec::new();
    let mut i = 0usize;
    while i + 1 < b.len() {
        match b[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            _ => {}
        }
        if depth == 0 && b[i] == o[0] && b[i + 1] == o[1] {
            cuts.push(i);
            i += 2;
            continue;
        }
        i += 1;
    }
    if cuts.is_empty() {
        return (s, Vec::new());
    }
    let mut rest = Vec::new();
    let mut prev = cuts[0] + 2;
    for &c in &cuts[1..] {
        rest.push(&s[prev..c]);
        prev = c + 2;
    }
    rest.push(&s[prev..]);
    (&s[..cuts[0]], rest)
}

/// Turns one comparison clause into an expression that is `>= 0` when
/// the clause holds, or `None` for shapes the prover cannot use.
fn comparison_ge0(clause: &str) -> Option<SymExpr> {
    let b = clause.as_bytes();
    let mut depth = 0i64;
    for i in 0..b.len() {
        match b[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            _ => {}
        }
        if depth != 0 {
            continue;
        }
        let two = if i + 1 < b.len() {
            &b[i..i + 2]
        } else {
            &b[i..i + 1]
        };
        let (l, r, kind) = match two {
            b"<=" => (&clause[..i], &clause[i + 2..], 0),
            b">=" => (&clause[..i], &clause[i + 2..], 1),
            b"==" | b"!=" => return None,
            _ => match b[i] {
                b'<' => (&clause[..i], &clause[i + 1..], 2),
                b'>' if i > 0 && b[i - 1] != b'-' => (&clause[..i], &clause[i + 1..], 3),
                _ => continue,
            },
        };
        let (Ok(a), Ok(c)) = (SymExpr::parse(l), SymExpr::parse(r)) else {
            return None;
        };
        return Some(match kind {
            0 => c.sub(&a),                            // a <= c
            1 => a.sub(&c),                            // a >= c
            2 => c.sub(&a).sub(&SymExpr::constant(1)), // a < c
            _ => a.sub(&c).sub(&SymExpr::constant(1)), // a > c
        });
    }
    None
}

/// Splits a `A..B` / `A..=B` range expression at the top-level `..`.
fn split_range(s: &str) -> Option<(&str, &str, bool)> {
    let b = s.as_bytes();
    let mut depth = 0i64;
    for i in 0..b.len().saturating_sub(1) {
        match b[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            _ => {}
        }
        if depth == 0 && b[i] == b'.' && b[i + 1] == b'.' {
            let inclusive = b.get(i + 2) == Some(&b'=');
            let rest = if inclusive { &s[i + 3..] } else { &s[i + 2..] };
            return Some((&s[..i], rest, inclusive));
        }
    }
    None
}

/// From the token after a control keyword, finds its block-open `{` at
/// the keyword's nesting level.
fn find_block_open(toks: &CodeTokens<'_>, from: usize) -> Option<usize> {
    let mut depth = (0i64, 0i64);
    for k in from..toks.len() {
        match toks.text(k) {
            "(" => depth.0 += 1,
            ")" => depth.0 -= 1,
            "[" => depth.1 += 1,
            "]" => depth.1 -= 1,
            "{" if depth == (0, 0) => return Some(k),
            ";" if depth == (0, 0) => return None,
            _ => {}
        }
    }
    None
}

/// From a `fn` keyword token, the index of its body's closing `}` (for
/// skipping nested items).
fn skip_nested_fn(toks: &CodeTokens<'_>, fn_idx: usize) -> Option<usize> {
    let mut angle = 0i64;
    let mut paren = 0i64;
    for k in fn_idx + 1..toks.len() {
        match toks.text(k) {
            "<" => angle += 1,
            ">" => angle -= 1,
            "(" => paren += 1,
            ")" => paren -= 1,
            "{" if angle <= 0 && paren == 0 => return toks.matching_close(k),
            ";" if angle <= 0 && paren == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// Human-readable span description for findings.
fn shape_desc(shape: &SpecShape) -> String {
    match shape {
        SpecShape::Rows {
            rows,
            stride,
            at,
            width,
        } => {
            if at.is_zero() {
                format!("rows {rows} stride {stride} width {width}")
            } else {
                format!("rows {rows} stride {stride} at {at} width {width}")
            }
        }
        SpecShape::Solid { len } => format!("solid {len}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    const SPEC: &str = "\
contract T-BASIC
require lda >= n
require ldc >= n
require n >= 1
operand a read rows m stride lda width n
operand c readwrite rows m stride ldc width n

contract T-SOLID
operand a read solid k

contract T-PACK
require nr >= 1
let slivers = ceildiv(n, nr)
operand dst write solid slivers * nr
";

    fn run_on(src: &str) -> (Vec<Finding>, BoundsStats) {
        let spec = Spec::parse(SPEC).expect("test spec");
        check(&SourceFile::parse("crates/k/src/a.rs", src), &spec)
    }

    fn assert_clean(src: &str, sites: usize) {
        let (f, stats) = run_on(src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(stats.sites, sites, "sites");
        assert_eq!(stats.proved, sites, "proved");
    }

    #[test]
    fn row_loop_proves_clean() {
        assert_clean(
            "\
// CONTRACT(T-BASIC)
unsafe fn k(a: *const f32, c: *mut f32, m: usize, n: usize, lda: usize, ldc: usize) {
    for i in 0..m {
        for j in 0..n {
            let x = *a.add(i * lda + j);
            *c.add(i * ldc + j) = x;
        }
    }
}
",
            2,
        );
    }

    #[test]
    fn off_by_one_column_overflows() {
        let (f, stats) = run_on(
            "\
// CONTRACT(T-BASIC)
unsafe fn k(a: *const f32, m: usize, n: usize, lda: usize) {
    for i in 0..m {
        let x = *a.add(i * lda + n);
    }
}
",
        );
        assert_eq!(stats.sites, 1);
        assert_eq!(stats.proved, 0);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "span-overflow");
        assert!(f[0].message.contains("i * lda + n"), "{}", f[0].message);
        assert!(
            f[0].message.contains("rows m stride lda width n"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn formation_allows_one_past_the_end() {
        assert_clean(
            "\
// CONTRACT(T-BASIC)
unsafe fn k(a: *const f32, m: usize, n: usize, lda: usize) {
    for i in 0..m {
        let p = a.add(i * lda + n);
        let _ = p;
    }
}
",
            1,
        );
    }

    #[test]
    fn alias_accumulates_offsets() {
        assert_clean(
            "\
// CONTRACT(T-BASIC)
unsafe fn k(a: *const f32, m: usize, n: usize, lda: usize) {
    for i in 0..m {
        let row = a.add(i * lda);
        for j in 0..n {
            let x = *row.add(j);
        }
    }
}
",
            2,
        );
    }

    #[test]
    fn min_guard_correlates_tail_rows() {
        assert_clean(
            "\
// CONTRACT(T-BASIC)
unsafe fn k(a: *const f32, m: usize, n: usize, lda: usize, mr: usize) {
    for i in 0..m {
        let nrows = mr.min(m - i);
        for r in 0..nrows {
            let x = *a.add((i + r) * lda);
        }
    }
}
",
            1,
        );
    }

    #[test]
    fn while_guard_bounds_mut_counter() {
        assert_clean(
            "\
// CONTRACT(T-BASIC)
unsafe fn k(a: *const f32, m: usize, n: usize, lda: usize) {
    let mut i = 0;
    while i < m {
        let x = *a.add(i * lda);
        i += 1;
    }
}
",
            1,
        );
    }

    #[test]
    fn early_return_establishes_nonzero() {
        assert_clean(
            "\
// CONTRACT(T-SOLID)
unsafe fn kk(a: *const f32, k: usize) {
    if k == 0 {
        return;
    }
    let p = a.add(k - 1);
    let _ = p;
}
",
            1,
        );
    }

    #[test]
    fn missing_early_return_fails_lower_bound() {
        let (f, stats) = run_on(
            "\
// CONTRACT(T-SOLID)
unsafe fn kk(a: *const f32, k: usize) {
    let p = a.add(k - 1);
    let _ = p;
}
",
        );
        assert_eq!(stats.sites, 1);
        assert_eq!(stats.proved, 0);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "span-overflow");
    }

    #[test]
    fn local_vec_buffer_is_a_solid_span() {
        assert_clean(
            "\
// CONTRACT(T-BASIC)
unsafe fn k(a: *const f32, m: usize, n: usize, lda: usize) {
    let buf = vec![0.0f32; m * n];
    let p = buf.as_mut_ptr();
    for i in 0..m {
        for j in 0..n {
            *p.add(i * n + j) = *a.add(i * lda + j);
        }
    }
}
",
            2,
        );
    }

    #[test]
    fn mut_array_accumulator_bounds_its_enumerate_loop() {
        // `let mut acc = [[Z; W]; H]` keeps its length even though the
        // contents are mutable, so `acc.iter().enumerate()` row loops
        // stay bounded — the register-writeback pattern in the real
        // micro-kernels.
        assert_clean(
            "\
// CONTRACT(T-BASIC: m = 8)
unsafe fn k(c: *mut f32, n: usize, ldc: usize) {
    let mut acc = [[0.0f32; 2]; 8];
    for (i, row) in acc.iter().enumerate() {
        let p = c.add(i * ldc);
        let _ = (p, row);
    }
}
",
            1,
        );
    }

    #[test]
    fn copy_nonoverlapping_checks_both_pointers() {
        assert_clean(
            "\
// CONTRACT(T-BASIC)
unsafe fn k(a: *const f32, c: *mut f32, m: usize, n: usize, lda: usize, ldc: usize) {
    for i in 0..m {
        copy_nonoverlapping(a.add(i * lda), c.add(i * ldc), n);
    }
}
",
            2,
        );
    }

    #[test]
    fn ceildiv_definition_links_spec_symbol() {
        assert_clean(
            "\
// CONTRACT(T-PACK)
unsafe fn pack(dst: *mut f32, n: usize, nr: usize) {
    let full = n.div_ceil(nr);
    for s in 0..full {
        let p = dst.add(s * nr);
        let _ = p;
    }
}
",
            1,
        );
    }

    #[test]
    fn missing_ceildiv_definition_is_a_mismatch() {
        let (f, _) = run_on(
            "\
// CONTRACT(T-PACK)
unsafe fn pack(dst: *mut f32, n: usize, nr: usize, full: usize) {
    for s in 0..full {
        let p = dst.add(s * nr);
        let _ = p;
    }
}
",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "spec-mismatch");
        assert!(f[0].message.contains("slivers"), "{}", f[0].message);
    }

    #[test]
    fn unknown_tag_is_reported() {
        let (f, _) = run_on(
            "\
// CONTRACT(T-NOPE)
unsafe fn k(a: *const f32) {
    let p = a.add(1);
    let _ = p;
}
",
        );
        assert!(f.iter().any(|x| x.rule == "unknown-tag"), "{f:?}");
    }

    #[test]
    fn unmapped_raw_param_is_reported() {
        let (f, _) = run_on(
            "\
// CONTRACT(T-SOLID)
unsafe fn kk(a: *const f32, q: *const f32, k: usize) {
    let x = *q.add(0);
    let _ = (x, a);
}
",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unmapped-site");
        assert!(f[0].message.contains('q'), "{}", f[0].message);
    }

    #[test]
    fn quadratic_stride_cannot_split() {
        let (f, _) = run_on(
            "\
// CONTRACT(T-BASIC)
unsafe fn k(a: *const f32, m: usize, n: usize, lda: usize) {
    let x = *a.add(lda * lda);
}
",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "stride-split");
    }

    #[test]
    fn non_polynomial_offset_is_unsupported() {
        let (f, _) = run_on(
            "\
// CONTRACT(T-BASIC)
unsafe fn k(a: *const f32, m: usize, n: usize, lda: usize, i: usize) {
    let x = *a.add(i.wrapping_mul(lda));
}
",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unsupported-expr");
    }

    #[test]
    fn binding_rewrites_spec_symbols() {
        assert_clean(
            "\
// CONTRACT(T-BASIC: m = MR, n = NV * LANES, a = ap)
unsafe fn micro(ap: *const f32, c: *mut f32, lda: usize, ldc: usize) {
    for i in 0..MR {
        for j in 0..NV * LANES {
            let x = *ap.add(i * lda + j);
            *c.add(i * ldc + j) = x;
        }
    }
}
",
            2,
        );
    }

    #[test]
    fn partial_vector_width_is_the_lane_count_argument() {
        // `load_partial`/`store_partial` touch their trailing `n` lanes,
        // not a whole vector: in-span exactly when `NV*LANES + ns` is.
        let src = |tail: &str| {
            format!(
                "\
// CONTRACT(T-BASIC: m = M, n = NV * V::LANES + ns)
unsafe fn edge(ns: usize, a: *const f32, c: *mut f32, lda: usize, ldc: usize) {{
    for i in 0..M {{
        let v = V::load_partial(a.add(i * lda + NV * V::LANES), {tail});
        v.store_partial(c.add(i * ldc + NV * V::LANES), {tail});
    }}
}}
"
            )
        };
        assert_clean(&src("ns"), 2);
        let (f, _) = run_on(&src("ns + 1"));
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "span-overflow"), "{f:?}");
    }

    #[test]
    fn bad_binding_value_is_a_mismatch() {
        let (f, _) = run_on(
            "\
// CONTRACT(T-BASIC: m = mr.min(4))
unsafe fn k(a: *const f32, n: usize, lda: usize) {
    let x = *a.add(0);
}
",
        );
        assert!(f.iter().any(|x| x.rule == "spec-mismatch"), "{f:?}");
    }

    #[test]
    fn simd_tuple_field_add_is_not_pointer_arithmetic() {
        let (f, stats) = run_on(
            "\
fn vadd(x: F32x4, y: F32x4) -> F32x4 {
    F32x4(x.0.add(y.0))
}
",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(stats.sites, 0);
    }

    #[test]
    fn unanchored_fn_sites_are_silent_here() {
        // The hygiene lint (shalom-contracts) owns this case; the pass
        // itself stays quiet so plain helper code is not spammed.
        let (f, stats) = run_on("unsafe fn helper(p: *const f32) { let x = *p.add(3); }\n");
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(stats.sites, 0);
    }

    #[test]
    fn summaries_expose_hygiene_facts() {
        let file = SourceFile::parse(
            "crates/k/src/a.rs",
            "\
// CONTRACT(T-SOLID)
unsafe fn anchored(a: *const f32, k: usize) {
    let x = *a.add(0);
}

unsafe fn bare(p: *mut f32) {
    *p.add(1) = 0.0;
}

fn safe_helper(n: usize) -> usize {
    n + 1
}
",
        );
        let sums = fn_summaries(&file);
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0].name, "anchored");
        assert_eq!(sums[0].tags, vec!["T-SOLID".to_string()]);
        assert!(sums[0].is_unsafe && sums[0].has_raw_ptr_params);
        assert!(sums[0].first_site_line.is_some());
        assert_eq!(sums[1].name, "bare");
        assert!(sums[1].tags.is_empty());
        assert!(sums[1].first_site_line.is_some());
        assert_eq!(sums[2].name, "safe_helper");
        assert!(!sums[2].has_raw_ptr_params && sums[2].first_site_line.is_none());
        assert_eq!(anchored_tags(&file), vec!["T-SOLID".to_string()]);
    }
}
