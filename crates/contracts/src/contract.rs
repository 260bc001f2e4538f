//! The contract schema: declared memory footprints for micro-kernels.
//!
//! A [`KernelContract`] states, as a *pure function of the call
//! parameters*, exactly which element intervals of each operand a kernel
//! may read or write. The intervals are exact, not conservative: the
//! shadow-memory harness (see [`crate::shadow`]) places guard zones
//! immediately beyond the declared extent and fails on any byte that
//! changes outside a declared write span, so an over-approximate write
//! declaration would go unnoticed but an under-approximate one cannot.
//! Read spans are exact in the other direction: everything *outside* a
//! declared read span is poisoned with NaN payloads, so a single stray
//! read corrupts the (checked) numerical result.
//!
//! Offsets and lengths are in **elements** of the kernel's scalar type;
//! [`Span::bytes`] converts to byte intervals for reporting, which is the
//! form the tentpole audit prints (`[lo, hi)` byte ranges per operand).

use core::fmt;

/// How a kernel may touch an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The kernel may load from the operand but never store to it.
    Read,
    /// The kernel may store to the operand but never load from it.
    Write,
    /// The kernel may both load and store (e.g. the `C` tile under
    /// `beta != 0`; contracts declare the union over all `alpha`/`beta`).
    ReadWrite,
}

/// A half-open element interval `[offset, offset + len)` relative to the
/// operand's base pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First element touched.
    pub offset: usize,
    /// Number of elements touched (`0` is allowed and means "no access").
    pub len: usize,
}

impl Span {
    /// One past the last element touched.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }

    /// The same interval as a byte range for an element of `elem_bytes`.
    pub fn bytes(&self, elem_bytes: usize) -> (usize, usize) {
        (self.offset * elem_bytes, self.end() * elem_bytes)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.offset, self.end())
    }
}

/// The declared footprint of one operand of one kernel call.
#[derive(Debug, Clone)]
pub struct OperandFootprint {
    /// Operand name as it appears in the kernel signature (`"a"`, `"bc"`…).
    pub name: &'static str,
    /// Whether the spans may be loaded, stored, or both.
    pub access: Access,
    /// The exact element intervals touched. May be empty (degenerate
    /// calls, e.g. `kc = 0`, touch nothing).
    pub spans: Vec<Span>,
    /// For `Write`/`ReadWrite` operands: `true` if the kernel promises to
    /// store to *every* element of every span (no partially-initialized
    /// output). The harness verifies this by checking that no poison
    /// survives in a complete write-only operand.
    pub complete: bool,
}

impl OperandFootprint {
    /// A read-only operand footprint.
    pub fn read(name: &'static str, spans: Vec<Span>) -> Self {
        Self {
            name,
            access: Access::Read,
            spans: retain_nonempty(spans),
            complete: false,
        }
    }

    /// A write-only operand footprint that covers every declared element.
    pub fn write(name: &'static str, spans: Vec<Span>) -> Self {
        Self {
            name,
            access: Access::Write,
            spans: retain_nonempty(spans),
            complete: true,
        }
    }

    /// A read-write operand footprint that covers every declared element.
    pub fn read_write(name: &'static str, spans: Vec<Span>) -> Self {
        Self {
            name,
            access: Access::ReadWrite,
            spans: retain_nonempty(spans),
            complete: true,
        }
    }

    /// Number of elements the operand allocation must hold: one past the
    /// furthest declared access, or `0` when nothing is touched.
    pub fn extent(&self) -> usize {
        self.spans.iter().map(Span::end).max().unwrap_or(0)
    }

    /// Total declared elements (sum of span lengths; spans never overlap
    /// in the shipped contracts, which [`registry`](mod@crate::registry)
    /// audits).
    pub fn declared_elems(&self) -> usize {
        self.spans.iter().map(|s| s.len).sum()
    }
}

fn retain_nonempty(mut spans: Vec<Span>) -> Vec<Span> {
    spans.retain(|s| s.len > 0);
    spans
}

/// `rows` intervals of `width` elements spaced `ld` apart — the footprint
/// of a strided matrix operand.
pub fn row_spans(rows: usize, ld: usize, width: usize) -> Vec<Span> {
    if width == 0 {
        return Vec::new();
    }
    (0..rows)
        .map(|r| Span {
            offset: r * ld,
            len: width,
        })
        .collect()
}

/// Like [`row_spans`] with every row shifted right by `col0` columns —
/// the footprint of a column slice `[col0, col0 + width)` of a strided
/// matrix (the NT scatter kernel's `C` and `bc` operands).
pub fn row_spans_at(rows: usize, ld: usize, col0: usize, width: usize) -> Vec<Span> {
    if width == 0 {
        return Vec::new();
    }
    (0..rows)
        .map(|r| Span {
            offset: r * ld + col0,
            len: width,
        })
        .collect()
}

/// A single contiguous interval `[0, len)`.
pub fn solid(len: usize) -> Vec<Span> {
    if len == 0 {
        Vec::new()
    } else {
        vec![Span { offset: 0, len }]
    }
}

/// Call parameters a footprint function may depend on. One flat struct is
/// shared by every kernel family; fields irrelevant to a given kernel are
/// left at their [`Default`] values and ignored by its footprint function.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelParams {
    /// Rows of the C tile updated (`mr` for the main kernel, `1..=7` for
    /// edges, `mc` for the Goto A-pack).
    pub m: usize,
    /// Columns of the C tile updated (`nr` for the main kernel, `1..=nr`
    /// for edges, `bcols`/`npanel` for the NT kernels, `nc` for the Goto
    /// B-pack, block columns for the plain packers).
    pub n: usize,
    /// Depth of the update (elements accumulated per C entry).
    pub kc: usize,
    /// Vector lanes `j` of the instantiating SIMD type.
    pub lanes: usize,
    /// Row stride of `a` / the pack source.
    pub lda: usize,
    /// Row stride of `b` / the pack destination.
    pub ldb: usize,
    /// Row stride of `c`.
    pub ldc: usize,
    /// Packed-panel row stride (`NR_VECS * lanes` for the shipped tiles;
    /// also the sliver width of the Goto B-pack).
    pub nr: usize,
    /// First packed column the NT scatter kernel touches.
    pub jcol: usize,
    /// Whether the full-tile kernel also stores every B row it reads to
    /// the packed panel (Figure 4 step ①).
    pub pack: bool,
    /// Sliver height `mr` of the Goto A-pack.
    pub mr_sliver: usize,
    /// Zero-padded columns the transposing pack writes after each
    /// destination row's data.
    pub zpad: usize,
}

/// The declared contract of one micro-kernel entry point.
///
/// `footprint` is a pure function: calling it never touches memory other
/// than its output, so the audit can enumerate footprints for the whole
/// edge lattice without running a single kernel.
pub struct KernelContract {
    /// Which entry point this contract describes.
    pub id: crate::registry::KernelId,
    /// Stable contract tag referenced by `// SAFETY:` comments
    /// (e.g. `"SHALOM-K-MAIN"`). The unsafe-hygiene lint resolves tags
    /// against the registry, so a typo in a comment fails the audit.
    pub tag: &'static str,
    /// The Rust path of the audited entry point.
    pub entry: &'static str,
    /// One-line statement of what the kernel computes.
    pub summary: &'static str,
    /// Minimum alignment (bytes) each operand pointer must satisfy. The
    /// shipped kernels use unaligned SIMD loads, so this is the natural
    /// element alignment, never the vector width.
    pub align_elem_bytes: usize,
    /// Operand-name pairs that must not overlap for the declared
    /// footprints to be exact (outputs vs. inputs; the harness allocates
    /// every operand separately, trivially satisfying these).
    pub no_alias: &'static [(&'static str, &'static str)],
    /// The exact footprint for a given parameter assignment.
    pub footprint: fn(&KernelParams) -> Vec<OperandFootprint>,
}

impl KernelContract {
    /// Convenience: evaluate the footprint function.
    pub fn footprint(&self, p: &KernelParams) -> Vec<OperandFootprint> {
        (self.footprint)(p)
    }

    /// Look up one operand of the evaluated footprint by name.
    ///
    /// # Panics
    /// If the contract declares no operand with that name (a registry
    /// audit failure, not a runtime condition).
    pub fn operand(&self, p: &KernelParams, name: &str) -> OperandFootprint {
        self.footprint(p)
            .into_iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("contract {} declares no operand `{name}`", self.tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_display_and_bytes() {
        let s = Span { offset: 3, len: 4 };
        assert_eq!(s.end(), 7);
        assert_eq!(format!("{s}"), "[3, 7)");
        assert_eq!(s.bytes(4), (12, 28));
    }

    #[test]
    fn row_spans_skip_degenerate() {
        assert!(row_spans(5, 8, 0).is_empty());
        assert!(row_spans(0, 8, 3).is_empty());
        let spans = row_spans(3, 8, 5);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2], Span { offset: 16, len: 5 });
    }

    #[test]
    fn footprint_extent_is_furthest_access() {
        let fp = OperandFootprint::read("a", row_spans(2, 10, 4));
        assert_eq!(fp.extent(), 14);
        assert_eq!(fp.declared_elems(), 8);
        let empty = OperandFootprint::write("bc", solid(0));
        assert_eq!(empty.extent(), 0);
    }

    #[test]
    fn shifted_rows() {
        let spans = row_spans_at(2, 6, 4, 2);
        assert_eq!(spans[0], Span { offset: 4, len: 2 });
        assert_eq!(spans[1], Span { offset: 10, len: 2 });
    }
}
