//! Property tests: the vector backends agree with the scalar reference
//! model on arbitrary finite inputs (exactly for non-contracting ops;
//! within one ULP-ish bound for FMA, which may fuse).

use proptest::prelude::*;
use shalom_simd::scalar::{ScalarF32x4, ScalarF64x2};
use shalom_simd::{F32x4, F32x8, F64x2};

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1e6f32..1e6).prop_filter("finite", |x| x.is_finite())
}

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1e12f64..1e12).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn f32x4_add_mul_exact(a in prop::array::uniform4(finite_f32()),
                           b in prop::array::uniform4(finite_f32())) {
        let va = F32x4::from_array(a);
        let vb = F32x4::from_array(b);
        let sa = ScalarF32x4(a);
        let sb = ScalarF32x4(b);
        prop_assert_eq!(va.add(vb).to_array(), sa.add(sb).0);
        prop_assert_eq!(va.mul(vb).to_array(), sa.mul(sb).0);
    }

    #[test]
    fn f32x4_fma_within_one_rounding(c in prop::array::uniform4(finite_f32()),
                                     a in prop::array::uniform4(finite_f32()),
                                     b in prop::array::uniform4(finite_f32())) {
        let got = F32x4::from_array(c).fma(F32x4::from_array(a), F32x4::from_array(b)).to_array();
        for i in 0..4 {
            // Exact (f64) value; fused and unfused both land within one
            // f32 rounding of it for these magnitudes.
            let exact = c[i] as f64 + a[i] as f64 * b[i] as f64;
            let err = (got[i] as f64 - exact).abs();
            let ulp = (exact.abs().max(1e-30) * f32::EPSILON as f64) * 4.0 + 1e-30;
            prop_assert!(err <= ulp, "lane {i}: got {} want {exact} err {err}", got[i]);
        }
    }

    #[test]
    fn f32x4_lane_ops(a in prop::array::uniform4(finite_f32()), lane in 0usize..4) {
        let v = F32x4::from_array(a);
        let s = match lane {
            0 => v.splat_lane::<0>(),
            1 => v.splat_lane::<1>(),
            2 => v.splat_lane::<2>(),
            _ => v.splat_lane::<3>(),
        };
        prop_assert_eq!(s.to_array(), [a[lane]; 4]);
    }

    #[test]
    fn f32x4_reduce_matches_scalar_order(a in prop::array::uniform4(finite_f32())) {
        prop_assert_eq!(F32x4::from_array(a).reduce_sum(), ScalarF32x4(a).reduce_sum());
    }

    #[test]
    fn f64x2_ops_exact(a in prop::array::uniform2(finite_f64()),
                       b in prop::array::uniform2(finite_f64())) {
        let va = F64x2::from_array(a);
        let vb = F64x2::from_array(b);
        let sa = ScalarF64x2(a);
        let sb = ScalarF64x2(b);
        prop_assert_eq!(va.add(vb).to_array(), sa.add(sb).0);
        prop_assert_eq!(va.mul(vb).to_array(), sa.mul(sb).0);
        prop_assert_eq!(va.reduce_sum(), sa.reduce_sum());
    }

    #[test]
    fn f32x8_matches_two_f32x4(a in prop::array::uniform8(finite_f32()),
                               b in prop::array::uniform8(finite_f32())) {
        // The 256-bit type behaves as two concatenated 128-bit halves
        // for lane-wise ops.
        let wa = unsafe { F32x8::load(a.as_ptr()) };
        let wb = unsafe { F32x8::load(b.as_ptr()) };
        let wide = wa.add(wb).to_array();
        for half in 0..2 {
            let lo = unsafe { F32x4::load(a.as_ptr().add(4 * half)) };
            let hi = unsafe { F32x4::load(b.as_ptr().add(4 * half)) };
            let narrow = lo.add(hi).to_array();
            for i in 0..4 {
                prop_assert_eq!(wide[half * 4 + i], narrow[i]);
            }
        }
    }

    #[test]
    fn store_load_roundtrip_all_widths(a in prop::array::uniform8(finite_f32())) {
        let mut out = [0f32; 8];
        unsafe {
            F32x8::load(a.as_ptr()).store(out.as_mut_ptr());
        }
        prop_assert_eq!(out, a);
        let mut out4 = [0f32; 4];
        unsafe { F32x4::load(a.as_ptr()).store(out4.as_mut_ptr()) };
        prop_assert_eq!(out4, [a[0], a[1], a[2], a[3]]);
    }
}
