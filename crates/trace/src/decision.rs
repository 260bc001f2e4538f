//! The dispatch decisions, defined once: the §2.1 shape class, the §4
//! B-handling regime, the §5.4 edge schedule and where a plan came from.
//!
//! The planner and the driver in the core crate decide in these types;
//! its override table stores them, its profile files persist their
//! [`code`](BPlan::code)s, and the record sink counts and prints their
//! [`as_str`](BPlan::as_str) labels. They live in this crate, the one
//! every layer depends on, so no layer needs a spelling of its own.
//! Codes and labels are wire formats: append variants, never renumber,
//! and never reuse a retired code.

/// Workload shape class (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShapeClass {
    /// All of `M`, `N` similar and the working set LLC-resident.
    #[default]
    Small,
    /// One of `M` / `N` much smaller than the other (tall-and-skinny).
    Irregular,
    /// Large and regular — the classical libraries' home turf.
    Regular,
}

/// How the driver treats B for a call (the resolved §4 decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BPlan {
    /// Read B in place (NN with `size(B) <= L1`, §4.2 regime 1).
    #[default]
    Direct,
    /// Fused pack, `t = 0` (§4.2 regime 2 / NT Algorithm 3). The paper's
    /// `t = 1` look-ahead (code 2, retired) ran level with it and was
    /// deleted; a stored 2 decodes as this.
    Fused,
    /// Sequential pack-then-compute (ablation / classical behaviour; the
    /// transpose-pack every NT call without a fused panel runs).
    Sequential,
}

/// Which edge-case micro-kernel schedule to use (§5.4, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EdgeSchedule {
    /// Software-pipelined loads between FMAs (Figure 6b — LibShalom).
    #[default]
    Pipelined,
    /// Batched loads before the FMA burst (Figure 6a — the OpenBLAS
    /// schedule; kept for the Figure 13 ablation).
    Batched,
}

/// Where the plan used by a call came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlanSource {
    /// Computed from the signature — what every call does unless an
    /// override is installed under its key.
    #[default]
    Computed,
    /// Served from an installed override (autotune / loaded profile).
    Profile,
}

/// `ALL`, `index`, `as_str`, `code` and `from_code` for one decision
/// enum: variants in declaration order with their codes and labels, then
/// optionally the retired codes `from_code` still reads and what as.
macro_rules! vocabulary {
    ($ty:ident, $($variant:ident = $code:literal => $label:literal),+
     $(; retired $($old:literal => $now:ident),+)?) => {
        impl $ty {
            /// Every variant, in [`Self::index`] order.
            pub const ALL: [$ty; [$($ty::$variant),+].len()] = [$($ty::$variant),+];

            /// Dense index for counter arrays (declaration order).
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable label, as the JSON exports and reports print it.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($ty::$variant => $label),+
                }
            }

            /// Stable numeric code, as the wire formats store it.
            #[inline]
            pub fn code(self) -> u8 {
                match self {
                    $($ty::$variant => $code),+
                }
            }

            /// Inverse of [`Self::code`], plus the retired codes; `None`
            /// for a code no variant has or had.
            pub fn from_code(code: u8) -> Option<$ty> {
                match code {
                    $($code => Some($ty::$variant),)+
                    $($($old => Some($ty::$now),)+)?
                    _ => None,
                }
            }
        }
    };
}

// Profile files store the codes of the first three (`class`, `b_plan`,
// `edge`); a span's 1-byte `src` stores the source's, with 0 for none.
vocabulary!(ShapeClass, Small = 0 => "small", Irregular = 1 => "irregular", Regular = 2 => "regular");
vocabulary!(BPlan,
    Direct = 0 => "no-pack",
    Fused = 1 => "fused-pack",
    Sequential = 3 => "sequential-pack";
    retired 2 => Fused);
vocabulary!(EdgeSchedule, Pipelined = 0 => "pipelined", Batched = 1 => "batched");
vocabulary!(PlanSource, Computed = 1 => "computed", Profile = 2 => "profile");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_labels_and_indices_are_the_wire_formats() {
        let labels = |all: &[&str]| all.join(",");
        assert_eq!(
            labels(&ShapeClass::ALL.map(ShapeClass::as_str)),
            "small,irregular,regular"
        );
        assert_eq!(
            labels(&BPlan::ALL.map(BPlan::as_str)),
            "no-pack,fused-pack,sequential-pack"
        );
        assert_eq!(
            labels(&EdgeSchedule::ALL.map(EdgeSchedule::as_str)),
            "pipelined,batched"
        );
        assert_eq!(
            labels(&PlanSource::ALL.map(PlanSource::as_str)),
            "computed,profile"
        );
        assert_eq!(ShapeClass::ALL.map(ShapeClass::code), [0, 1, 2]);
        assert_eq!(BPlan::ALL.map(BPlan::code), [0, 1, 3]);
        assert_eq!(EdgeSchedule::ALL.map(EdgeSchedule::code), [0, 1]);
        assert_eq!(PlanSource::ALL.map(PlanSource::code), [1, 2]);
        for (i, v) in BPlan::ALL.into_iter().enumerate() {
            assert_eq!(v.index(), i);
            assert_eq!(BPlan::from_code(v.code()), Some(v));
        }
        assert_eq!(ShapeClass::from_code(3), None);
        assert_eq!(BPlan::from_code(4), None);
        // The retired `t = 1` look-ahead's code reads as `Fused`.
        assert_eq!(BPlan::from_code(2), Some(BPlan::Fused));
        assert_eq!(EdgeSchedule::from_code(2), None);
        assert_eq!(PlanSource::from_code(0), None);
        assert_eq!(PlanSource::from_code(2), Some(PlanSource::Profile));
    }
}
