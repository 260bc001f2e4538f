//! Parser for `crates/contracts/bounds.spec` — the symbolic footprint
//! spec shared by the contract registry and the `bounds` pass.
//!
//! The spec is the single source of truth for per-operand kernel
//! footprints: `shalom-contracts` embeds it with `include_str!` and
//! evaluates it numerically to build the [`OperandFootprint`] tables
//! the NaN-poison harness allocates from, while the `bounds` pass reads
//! the same file symbolically and proves every extracted pointer offset
//! contained in the declared spans for *all* parameter values.
//!
//! Grammar (line-oriented, `#` comments):
//!
//! ```text
//! contract TAG
//!   require SYM >= EXPR
//!   let NAME = ceildiv(EXPR, EXPR)
//!   operand NAME ACCESS [when SYM] rows EXPR stride SYM [at EXPR] width EXPR
//!   operand NAME ACCESS [when SYM] solid EXPR
//! ```
//!
//! `ACCESS` is `read`, `write` or `readwrite`. Expressions use the
//! [`SymExpr`] grammar (`+ - *`, parentheses, integer literals, symbol
//! paths). A `when SYM` operand only exists when the named parameter
//! resolves non-zero. `ceildiv` lets introduce an opaque symbol `q`
//! plus the two polynomial facts `q*b - a >= 0` and
//! `a + b - 1 - q*b >= 0` (valid whenever `b >= 1`, which a `require`
//! line must establish); numerically they evaluate as
//! `a.div_ceil(b.max(1))`.
//!
//! [`OperandFootprint`]: https://docs.rs/ — see `shalom-contracts`.

use crate::sym::SymExpr;

/// Operand access mode, mirroring `shalom-contracts`' `Access`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecAccess {
    /// Loads only.
    Read,
    /// Stores only (complete: every declared element is written).
    Write,
    /// Loads and stores (complete).
    ReadWrite,
}

/// The declared shape of one operand's footprint.
#[derive(Debug, Clone)]
pub enum SpecShape {
    /// `rows` intervals of `width` elements spaced `stride` apart,
    /// each shifted right by `at` columns (`at = 0` when absent).
    Rows {
        /// Number of rows touched.
        rows: SymExpr,
        /// Stride symbol (must be a single parameter, not a compound
        /// expression — the prover's span decomposition divides by it).
        stride: String,
        /// First column of each row touched.
        at: SymExpr,
        /// Elements touched per row.
        width: SymExpr,
    },
    /// One contiguous interval `[0, len)`.
    Solid {
        /// Interval length.
        len: SymExpr,
    },
}

/// One operand's declared footprint.
#[derive(Debug, Clone)]
pub struct SpecOperand {
    /// Operand name as bound at the kernel (`a`, `bc`, `copy_src`…).
    pub name: String,
    /// Access mode.
    pub access: SpecAccess,
    /// When present, the operand only exists if this parameter
    /// resolves non-zero (`pack`, `copy`).
    pub when: Option<String>,
    /// The footprint shape.
    pub shape: SpecShape,
}

/// A `let NAME = ceildiv(a, b)` definition.
#[derive(Debug, Clone)]
pub struct SpecCeilDiv {
    /// The introduced symbol.
    pub name: String,
    /// Dividend.
    pub a: SymExpr,
    /// Divisor (a `require` line must make it `>= 1`).
    pub b: SymExpr,
}

/// One contract's symbolic footprint declaration.
#[derive(Debug, Clone)]
pub struct SpecContract {
    /// Registry tag (`SHALOM-K-MAIN`…).
    pub tag: String,
    /// 1-based line of the `contract` header (for findings).
    pub line: usize,
    /// Precondition facts `sym >= expr`.
    pub requires: Vec<(String, SymExpr)>,
    /// `ceildiv` definitions, in order.
    pub ceildivs: Vec<SpecCeilDiv>,
    /// Operands, in declaration order.
    pub operands: Vec<SpecOperand>,
}

impl SpecContract {
    /// Looks up an operand by name.
    pub fn operand(&self, name: &str) -> Option<&SpecOperand> {
        self.operands.iter().find(|o| o.name == name)
    }
}

/// A parsed spec file.
#[derive(Debug, Clone, Default)]
pub struct Spec {
    /// Contracts in file order.
    pub contracts: Vec<SpecContract>,
}

impl Spec {
    /// Looks up a contract by tag.
    pub fn find(&self, tag: &str) -> Option<&SpecContract> {
        self.contracts.iter().find(|c| c.tag == tag)
    }

    /// Parses the spec text. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let mut spec = Spec::default();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let err = |msg: &str| format!("bounds.spec:{lineno}: {msg}");
            match words[0] {
                "contract" => {
                    let [_, tag] = words[..] else {
                        return Err(err("expected `contract TAG`"));
                    };
                    if spec.contracts.iter().any(|c| c.tag == tag) {
                        return Err(err(&format!("duplicate contract `{tag}`")));
                    }
                    spec.contracts.push(SpecContract {
                        tag: tag.to_string(),
                        line: lineno,
                        requires: Vec::new(),
                        ceildivs: Vec::new(),
                        operands: Vec::new(),
                    });
                }
                "require" => {
                    let c = spec
                        .contracts
                        .last_mut()
                        .ok_or_else(|| err("`require` before any `contract`"))?;
                    if words.len() < 4 || words[2] != ">=" {
                        return Err(err("expected `require SYM >= EXPR`"));
                    }
                    let rhs = SymExpr::parse(&words[3..].join(" "))
                        .map_err(|e| format!("bounds.spec:{lineno}: {e}"))?;
                    c.requires.push((words[1].to_string(), rhs));
                }
                "let" => {
                    let c = spec
                        .contracts
                        .last_mut()
                        .ok_or_else(|| err("`let` before any `contract`"))?;
                    if words.len() < 4 || words[2] != "=" {
                        return Err(err("expected `let NAME = ceildiv(EXPR, EXPR)`"));
                    }
                    let rhs = words[3..].join(" ");
                    let body = rhs
                        .strip_prefix("ceildiv(")
                        .and_then(|r| r.strip_suffix(')'))
                        .ok_or_else(|| err("only `ceildiv(a, b)` lets are supported"))?;
                    let (a, b) = split_top_comma(body)
                        .ok_or_else(|| err("ceildiv takes exactly two arguments"))?;
                    let parse = |s: &str| {
                        SymExpr::parse(s).map_err(|e| format!("bounds.spec:{lineno}: {e}"))
                    };
                    c.ceildivs.push(SpecCeilDiv {
                        name: words[1].to_string(),
                        a: parse(a)?,
                        b: parse(b)?,
                    });
                }
                "operand" => {
                    let c = spec
                        .contracts
                        .last_mut()
                        .ok_or_else(|| err("`operand` before any `contract`"))?;
                    let op = parse_operand(&words, lineno)?;
                    if c.operand(&op.name).is_some() {
                        return Err(err(&format!("duplicate operand `{}`", op.name)));
                    }
                    c.operands.push(op);
                }
                other => return Err(err(&format!("unknown directive `{other}`"))),
            }
        }
        Ok(spec)
    }
}

/// Splits `a, b` at the top-level comma (commas inside parentheses do
/// not count).
fn split_top_comma(s: &str) -> Option<(&str, &str)> {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            ',' if depth == 0 => return Some((&s[..i], &s[i + 1..])),
            _ => {}
        }
    }
    None
}

fn parse_operand(words: &[&str], lineno: usize) -> Result<SpecOperand, String> {
    let err = |msg: String| format!("bounds.spec:{lineno}: {msg}");
    if words.len() < 4 {
        return Err(err("operand line too short".into()));
    }
    let name = words[1].to_string();
    let access = match words[2] {
        "read" => SpecAccess::Read,
        "write" => SpecAccess::Write,
        "readwrite" => SpecAccess::ReadWrite,
        other => return Err(err(format!("unknown access `{other}`"))),
    };
    let mut at = 3usize;
    let mut when = None;
    if words[at] == "when" {
        when = Some(
            words
                .get(at + 1)
                .ok_or_else(|| err("`when` needs a parameter".into()))?
                .to_string(),
        );
        at += 2;
    }
    // The remaining words are `KEYWORD expr...` groups; expressions may
    // span several words, so cut at the next keyword.
    const KEYWORDS: &[&str] = &["rows", "stride", "at", "width", "solid"];
    let mut fields: Vec<(String, String)> = Vec::new();
    let mut i = at;
    while i < words.len() {
        let kw = words[i];
        if !KEYWORDS.contains(&kw) {
            return Err(err(format!("expected a shape keyword, found `{kw}`")));
        }
        let mut j = i + 1;
        while j < words.len() && !KEYWORDS.contains(&words[j]) {
            j += 1;
        }
        fields.push((kw.to_string(), words[i + 1..j].join(" ")));
        i = j;
    }
    let get = |kw: &str| {
        fields
            .iter()
            .find(|(k, _)| k == kw)
            .map(|(_, v)| v.as_str())
    };
    let parse = |s: &str| SymExpr::parse(s).map_err(|e| format!("bounds.spec:{lineno}: {e}"));
    let shape = if let Some(len) = get("solid") {
        if fields.len() != 1 {
            return Err(err("`solid` excludes other shape fields".into()));
        }
        SpecShape::Solid { len: parse(len)? }
    } else {
        let rows = get("rows").ok_or_else(|| err("missing `rows`".into()))?;
        let stride = get("stride").ok_or_else(|| err("missing `stride`".into()))?;
        if stride.split_whitespace().count() != 1 || SymExpr::parse(stride)?.as_constant().is_some()
        {
            return Err(err("`stride` must be a single parameter symbol".into()));
        }
        let width = get("width").ok_or_else(|| err("missing `width`".into()))?;
        SpecShape::Rows {
            rows: parse(rows)?,
            stride: stride.to_string(),
            at: match get("at") {
                Some(a) => parse(a)?,
                None => SymExpr::zero(),
            },
            width: parse(width)?,
        }
    };
    Ok(SpecOperand {
        name,
        access,
        when,
        shape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# sample spec
contract SHALOM-K-MAIN
  require lda >= kc
  operand a read rows m stride lda width kc
  operand c readwrite rows m stride ldc width n

contract SHALOM-K-PACK-B
  require nr >= 1
  let slivers = ceildiv(n, nr)
  operand b read rows kc stride ldb width n
  operand dst write solid slivers * kc * nr
  operand extra read when ahead rows kc stride ldb at nr width nr
";

    #[test]
    fn parses_contracts_operands_and_lets() {
        let spec = Spec::parse(SAMPLE).unwrap();
        assert_eq!(spec.contracts.len(), 2);
        let main = spec.find("SHALOM-K-MAIN").unwrap();
        assert_eq!(main.requires.len(), 1);
        assert_eq!(main.operands.len(), 2);
        match &main.operand("a").unwrap().shape {
            SpecShape::Rows { stride, at, .. } => {
                assert_eq!(stride, "lda");
                assert!(at.is_zero());
            }
            s => panic!("wrong shape {s:?}"),
        }
        let packb = spec.find("SHALOM-K-PACK-B").unwrap();
        assert_eq!(packb.ceildivs.len(), 1);
        assert_eq!(packb.ceildivs[0].name, "slivers");
        match &packb.operand("dst").unwrap().shape {
            SpecShape::Solid { len } => {
                assert_eq!(len, &SymExpr::parse("slivers*kc*nr").unwrap());
            }
            s => panic!("wrong shape {s:?}"),
        }
        let extra = packb.operand("extra").unwrap();
        assert_eq!(extra.when.as_deref(), Some("ahead"));
        match &extra.shape {
            SpecShape::Rows { at, .. } => assert_eq!(at, &SymExpr::parse("nr").unwrap()),
            s => panic!("wrong shape {s:?}"),
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Spec::parse("operand a read solid n").is_err()); // no contract
        assert!(Spec::parse("contract T\noperand a peek solid n").is_err());
        assert!(Spec::parse("contract T\nlet q = n / 2").is_err());
        assert!(Spec::parse("contract T\noperand a read rows m width n").is_err());
        assert!(Spec::parse("contract T\noperand a read rows m stride 4 width n").is_err());
        assert!(Spec::parse("contract T\ncontract T").is_err());
        let err = Spec::parse("contract T\nrequire kc > 0").unwrap_err();
        assert!(err.contains(":2:"), "{err}");
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let spec = Spec::parse("# top\n\ncontract X # tail\n  operand a read solid n # c\n");
        let spec = spec.unwrap();
        assert_eq!(spec.contracts.len(), 1);
        assert_eq!(spec.contracts[0].operands.len(), 1);
    }
}
