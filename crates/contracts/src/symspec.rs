//! Numeric evaluation of the shared symbolic footprint spec.
//!
//! `bounds.spec` (this crate's root) is the single source of truth for
//! per-operand spans. The `bounds` static pass in `shalom-analysis`
//! proves every raw-pointer offset in `crates/kernels` contained in
//! those spans *symbolically*; this module evaluates the same shapes
//! *numerically* against a concrete [`KernelParams`] so the registry's
//! footprint functions — and through them the shadow-memory conformance
//! harness — check the exact intervals the prover verified. A drift
//! between the harness and the prover is therefore impossible by
//! construction: both read the same file.

use std::sync::{Mutex, OnceLock};

use shalom_analysis::spec::{Spec, SpecAccess, SpecContract, SpecShape};

use crate::contract::{row_spans_at, solid, KernelParams, OperandFootprint};

/// The spec source, compiled in so the harness needs no runtime I/O.
pub const SPEC_TEXT: &str = include_str!("../bounds.spec");

/// The parsed spec (parsed once; the text is compile-time constant).
///
/// # Panics
/// If `bounds.spec` does not parse — a build artifact error, caught by
/// every test that touches the registry.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        Spec::parse(SPEC_TEXT).unwrap_or_else(|e| panic!("crates/contracts/bounds.spec: {e}"))
    })
}

/// Evaluates contract `tag`'s operand footprints at `p`.
///
/// `when`-guarded operands are dropped when their parameter is zero,
/// matching the kernels (the guarded pointers are only formed under the
/// corresponding runtime branch).
///
/// # Panics
/// If `tag` is not declared in the spec or a shape references a symbol
/// that is neither a [`KernelParams`] field nor a `let` definition —
/// both are spec/registry consistency bugs, not runtime conditions.
pub fn footprint(tag: &str, p: &KernelParams) -> Vec<OperandFootprint> {
    let con = spec()
        .find(tag)
        .unwrap_or_else(|| panic!("no contract `{tag}` in bounds.spec"));
    eval_contract(con, p)
}

fn eval_contract(con: &SpecContract, p: &KernelParams) -> Vec<OperandFootprint> {
    // `let NAME = ceildiv(a, b)` definitions extend the parameter scope
    // in order; the `.max(1)` mirrors the registry's historical guard
    // for degenerate divisor parameters (the spec's `require b >= 1`
    // documents the real precondition).
    let mut lets: Vec<(String, usize)> = Vec::new();
    for cd in &con.ceildivs {
        let a = eval_expr(&cd.a, con, p, &lets);
        let b = eval_expr(&cd.b, con, p, &lets);
        lets.push((cd.name.clone(), a.div_ceil(b.max(1))));
    }

    let mut out = Vec::new();
    for op in &con.operands {
        if let Some(w) = &op.when {
            if resolve(w, p, &lets).unwrap_or_else(|| missing(&con.tag, w)) == 0 {
                continue;
            }
        }
        let spans = match &op.shape {
            SpecShape::Rows {
                rows,
                stride,
                at,
                width,
            } => row_spans_at(
                eval_expr(rows, con, p, &lets),
                resolve(stride, p, &lets).unwrap_or_else(|| missing(&con.tag, stride)),
                eval_expr(at, con, p, &lets),
                eval_expr(width, con, p, &lets),
            ),
            SpecShape::Solid { len } => solid(eval_expr(len, con, p, &lets)),
        };
        let name = intern(&op.name);
        out.push(match op.access {
            SpecAccess::Read => OperandFootprint::read(name, spans),
            SpecAccess::Write => OperandFootprint::write(name, spans),
            SpecAccess::ReadWrite => OperandFootprint::read_write(name, spans),
        });
    }
    out
}

fn eval_expr(
    e: &shalom_analysis::sym::SymExpr,
    con: &SpecContract,
    p: &KernelParams,
    lets: &[(String, usize)],
) -> usize {
    let v = e
        .eval(&|s| resolve(s, p, lets).map(|u| u as i64))
        .unwrap_or_else(|| {
            panic!(
                "contract `{}`: shape expression `{e}` references a symbol that is not a \
                 KernelParams field or let definition",
                con.tag
            )
        });
    usize::try_from(v).unwrap_or_else(|_| {
        panic!(
            "contract `{}`: shape expression `{e}` evaluated negative ({v})",
            con.tag
        )
    })
}

/// Maps a spec symbol to its concrete value: a `let` definition first,
/// then a [`KernelParams`] field by name.
fn resolve(name: &str, p: &KernelParams, lets: &[(String, usize)]) -> Option<usize> {
    if let Some((_, v)) = lets.iter().find(|(n, _)| n == name) {
        return Some(*v);
    }
    Some(match name {
        "m" => p.m,
        "n" => p.n,
        "kc" => p.kc,
        "lanes" => p.lanes,
        "lda" => p.lda,
        "ldb" => p.ldb,
        "ldc" => p.ldc,
        "nr" => p.nr,
        "jcol" => p.jcol,
        "pack" => p.pack as usize,
        "mr_sliver" => p.mr_sliver,
        "zpad" => p.zpad,
        _ => return None,
    })
}

fn missing(tag: &str, sym: &str) -> usize {
    panic!("contract `{tag}`: symbol `{sym}` is not a KernelParams field or let definition")
}

/// [`OperandFootprint::name`] is `&'static str`; spec operand names are
/// parsed `String`s. The distinct-name set is tiny (one entry per
/// operand spelling across the whole spec), so interning by leaking once
/// per name is bounded and final.
fn intern(s: &str) -> &'static str {
    static POOL: Mutex<Vec<(&'static str, &'static str)>> = Mutex::new(Vec::new());
    let mut pool = POOL.lock().unwrap();
    if let Some((_, v)) = pool.iter().find(|(k, _)| *k == s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.push((leaked, leaked));
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{registry, SPEC_ONLY_TAGS};

    #[test]
    fn spec_parses_and_covers_exactly_the_registry_plus_spec_only_tags() {
        let spec_tags: Vec<&str> = spec().contracts.iter().map(|c| c.tag.as_str()).collect();
        for c in registry() {
            assert!(
                spec_tags.contains(&c.tag),
                "registry tag {} missing from bounds.spec",
                c.tag
            );
        }
        for t in &spec_tags {
            assert!(
                registry().iter().any(|c| &c.tag == t) || SPEC_ONLY_TAGS.contains(t),
                "spec contract {t} is neither registered nor listed spec-only"
            );
        }
    }

    #[test]
    fn when_guard_drops_operands_at_zero() {
        let p = KernelParams {
            m: 4,
            n: 8,
            kc: 3,
            lanes: 4,
            lda: 5,
            ldb: 9,
            ldc: 8,
            ..Default::default()
        };
        let names = |p: &KernelParams| -> Vec<&str> {
            footprint("SHALOM-K-MAIN", p)
                .iter()
                .map(|f| f.name)
                .collect()
        };
        assert_eq!(names(&p), ["a", "b", "c"]);
        assert_eq!(
            names(&KernelParams { pack: true, ..p }),
            ["a", "b", "c", "bc"]
        );
    }

    #[test]
    fn ceildiv_let_matches_div_ceil() {
        let p = KernelParams {
            m: 10,
            kc: 3,
            lda: 4,
            mr_sliver: 4,
            ..Default::default()
        };
        let fp = footprint("SHALOM-K-PACK-A", &p);
        let dst = fp.iter().find(|f| f.name == "dst").unwrap();
        // ceil(10/4) = 3 slivers of 4 rows x 3 cols.
        assert_eq!(dst.extent(), 3 * 4 * 3);
    }
}
