//! Shadow-memory operands: guard-zoned, poison-filled buffers that detect
//! any access outside a kernel's declared footprint.
//!
//! Each operand of a kernel call is materialized as one allocation:
//!
//! ```text
//! [ guard | declared extent | guard ]
//!    ^ poison   ^ read spans hold sample data,     ^ poison
//!               everything else poison
//! ```
//!
//! * **Stray writes** — to a guard zone, to a read-only operand, or to any
//!   element outside a declared write span — are caught by comparing a
//!   full bit-level snapshot taken before the call against the buffer
//!   after it: any changed bit outside the write mask is a violation.
//! * **Stray reads** are caught through poison propagation: every element
//!   not covered by a declared read span holds a NaN with a distinctive
//!   payload, so one out-of-footprint load makes the (separately checked)
//!   numerical result non-finite.
//! * **Incomplete writes** — a `complete` write span the kernel skipped —
//!   are caught because the poison fill survives where no store landed.
//!
//! Poison values are bit-exact NaNs; sample data is finite and derived
//! from a deterministic splitmix64 stream so failures reproduce.

use crate::contract::{Access, OperandFootprint, Span};
use shalom_matrix::Scalar;

/// Elements of poison padding on each side of the declared extent. Large
/// enough to catch off-by-one-vector over-runs of every shipped SIMD type
/// (widest vector is 16 lanes).
pub const GUARD: usize = 32;

/// Scalar types the shadow harness can poison and bit-compare. The base
/// [`Scalar`] trait deliberately has no bit-level access, so the harness
/// carries its own.
pub trait ContractElem: Scalar {
    /// A quiet NaN whose payload encodes `tag` — distinguishable from any
    /// finite sample value and from arithmetic-produced NaNs' payloads.
    fn poison(tag: u64) -> Self;
    /// The raw bits, widened to `u64`, for exact change detection.
    fn to_bits64(self) -> u64;
    /// True for any NaN (poison or poison-contaminated arithmetic).
    fn is_poison(self) -> bool;
    /// A finite sample value in roughly `[-0.5, 0.5]`, deterministic in
    /// `seed`.
    fn sample(seed: u64) -> Self;
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit_sample(seed: u64) -> f64 {
    // 53 mantissa bits -> [0, 1), shifted to [-0.5, 0.5).
    (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

impl ContractElem for f32 {
    fn poison(tag: u64) -> Self {
        // Quiet-NaN exponent + quiet bit, payload from the tag. The quiet
        // bit guarantees NaN-ness for any payload.
        f32::from_bits(0x7FC0_0000 | ((tag as u32) & 0x003F_FFFF))
    }
    fn to_bits64(self) -> u64 {
        self.to_bits() as u64
    }
    fn is_poison(self) -> bool {
        self.is_nan()
    }
    fn sample(seed: u64) -> Self {
        unit_sample(seed) as f32
    }
}

impl ContractElem for f64 {
    fn poison(tag: u64) -> Self {
        f64::from_bits(0x7FF8_0000_0000_0000 | (tag & 0x0007_FFFF_FFFF_FFFF))
    }
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }
    fn is_poison(self) -> bool {
        self.is_nan()
    }
    fn sample(seed: u64) -> Self {
        unit_sample(seed)
    }
}

/// One operand under shadow: the guarded buffer, its declared footprint,
/// and the pre-call snapshot.
pub struct ShadowOperand<T> {
    name: &'static str,
    access: Access,
    spans: Vec<Span>,
    complete: bool,
    guard: usize,
    buf: Vec<T>,
    before: Vec<u64>,
}

impl<T: ContractElem> ShadowOperand<T> {
    /// Builds the guarded buffer for `fp`: poison everywhere, sample data
    /// in the declared read spans (a `ReadWrite` operand's spans hold
    /// sample data too — the kernel may legitimately load them).
    pub fn new(fp: &OperandFootprint, seed: u64) -> Self {
        let extent = fp.extent();
        let len = extent + 2 * GUARD;
        let mut buf: Vec<T> = (0..len).map(|i| T::poison(seed ^ (i as u64))).collect();
        if fp.access != Access::Write {
            for s in &fp.spans {
                for off in s.offset..s.end() {
                    buf[GUARD + off] =
                        T::sample(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ off as u64);
                }
            }
        }
        let before = buf.iter().map(|v| v.to_bits64()).collect();
        Self {
            name: fp.name,
            access: fp.access,
            spans: fp.spans.clone(),
            complete: fp.complete,
            guard: GUARD,
            buf,
            before,
        }
    }

    /// Base pointer the kernel receives (start of the declared extent,
    /// just past the leading guard).
    pub fn ptr(&mut self) -> *mut T {
        // The buffer always holds at least 2 * GUARD elements, so the
        // guard index is in bounds even for an empty extent.
        &mut self.buf[self.guard] as *mut T
    }

    /// Read-only base pointer.
    pub fn const_ptr(&self) -> *const T {
        &self.buf[self.guard] as *const T
    }

    /// Element at footprint-relative offset `off` (current value).
    pub fn elem(&self, off: usize) -> T {
        self.buf[self.guard + off]
    }

    /// Appends violations found by comparing the buffer against the
    /// declared footprint: out-of-mask bit changes and surviving poison
    /// in complete write-only spans. `ctx` prefixes every message.
    pub fn check(&self, ctx: &str, out: &mut Vec<String>) {
        let mut writable = vec![false; self.buf.len()];
        if self.access != Access::Read {
            for s in &self.spans {
                for off in s.offset..s.end() {
                    writable[self.guard + off] = true;
                }
            }
        }
        let extent_hi = self.buf.len() - self.guard;
        let mut reported = 0usize;
        for (i, v) in self.buf.iter().enumerate() {
            if writable[i] || v.to_bits64() == self.before[i] {
                continue;
            }
            // Cap per-operand detail so a systematic overrun doesn't
            // drown the report.
            if reported < 4 {
                let kind = if i < self.guard {
                    "leading guard zone".to_string()
                } else if i >= extent_hi {
                    "trailing guard zone".to_string()
                } else if self.access == Access::Read {
                    "read-only operand".to_string()
                } else {
                    format!("element {} outside declared write spans", i - self.guard)
                };
                out.push(format!(
                    "{ctx}: operand `{}`: write to {kind} (buffer index {i})",
                    self.name
                ));
            }
            reported += 1;
        }
        if reported > 4 {
            out.push(format!(
                "{ctx}: operand `{}`: …{} further out-of-footprint writes",
                self.name,
                reported - 4
            ));
        }
        if self.complete && self.access == Access::Write {
            for s in &self.spans {
                for off in s.offset..s.end() {
                    if self.elem(off).is_poison() {
                        out.push(format!(
                            "{ctx}: operand `{}`: declared-complete element {off} was never \
                             written (poison survived)",
                            self.name
                        ));
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{row_spans, OperandFootprint};

    #[test]
    fn poison_is_nan_with_payload() {
        assert!(f32::poison(7).is_nan());
        assert!(f64::poison(7).is_nan());
        assert_ne!(f32::poison(1).to_bits(), f32::poison(2).to_bits());
        assert!(f32::sample(9).is_finite());
        assert!(f64::sample(9).abs() <= 0.5);
    }

    #[test]
    fn read_spans_hold_samples_rest_poison() {
        let fp = OperandFootprint::read("a", row_spans(2, 6, 3));
        let op = ShadowOperand::<f32>::new(&fp, 42);
        for r in 0..2 {
            for c in 0..3 {
                assert!(op.elem(r * 6 + c).is_finite());
            }
            // The stride gap is poisoned.
            for c in 3..6 {
                if r * 6 + c < fp.extent() {
                    assert!(op.elem(r * 6 + c).is_poison());
                }
            }
        }
    }

    #[test]
    fn guard_write_is_reported() {
        let fp = OperandFootprint::write("dst", row_spans(1, 4, 4));
        let mut op = ShadowOperand::<f64>::new(&fp, 1);
        // Write the whole declared span, then trample the trailing guard.
        for off in 0..4 {
            unsafe { *op.ptr().add(off) = 1.0 };
        }
        unsafe { *op.ptr().add(4) = 99.0 };
        let mut v = Vec::new();
        op.check("case", &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("guard zone"), "{v:?}");
    }

    #[test]
    fn unwritten_complete_span_is_reported() {
        let fp = OperandFootprint::write("dst", row_spans(1, 4, 4));
        let mut op = ShadowOperand::<f32>::new(&fp, 1);
        for off in 0..3 {
            unsafe { *op.ptr().add(off) = 2.0 };
        }
        let mut v = Vec::new();
        op.check("case", &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("never written"), "{v:?}");
    }

    #[test]
    fn write_to_read_only_operand_is_reported() {
        let fp = OperandFootprint::read("b", row_spans(1, 4, 4));
        let mut op = ShadowOperand::<f32>::new(&fp, 3);
        unsafe { *op.ptr().add(1) = 5.0 };
        let mut v = Vec::new();
        op.check("case", &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("read-only"), "{v:?}");
    }

    #[test]
    fn clean_run_reports_nothing() {
        let fp = OperandFootprint::read_write("c", row_spans(2, 5, 4));
        let mut op = ShadowOperand::<f64>::new(&fp, 8);
        for r in 0..2 {
            for c in 0..4 {
                unsafe { *op.ptr().add(r * 5 + c) = 0.25 };
            }
        }
        let mut v = Vec::new();
        op.check("case", &mut v);
        assert!(v.is_empty(), "{v:?}");
    }
}
