//! Portable `exp` and `tanh` for `f32` (docs/ARCHITECTURE.md, "Portable
//! transcendentals").
//!
//! [`exp_f32`] and [`tanh_f32`] give, on every one of the 2³² inputs, the
//! bits glibc 2.36 gives on x86-64 with AVX2 and FMA:
//!
//! - `exp_f32` is glibc's `expf` (`sysdeps/ieee754/flt-32/e_expf.c`, the
//!   ARM optimized-routines algorithm with a 32-entry table), evaluated in
//!   plain `f64` operations. glibc builds it with FMA there; without FMA the
//!   result differs on exactly two inputs, `0x4202422f` and `0xc27c65d9`,
//!   whose results a two-entry table holds.
//! - `tanh_f32` is fdlibm's `tanhf` over `expm1f` (glibc's `s_tanhf.c` and
//!   `s_expm1f.c`), in plain `f32` operations.
//!
//! No operation here is fused, and Rust never contracts `a * b + c`, so the
//! bits are the same on every target, whatever its libm.
//!
//! Each function has a scalar body and an AVX2 body over eight lanes. The
//! slice kernels ([`exp_slice`], [`sigmoid_slice`], [`tanh_slice`]) run the
//! body [`simd::isa`] names, and every body gives the same bits. The AVX2
//! body is branch-free on the common inputs: it forms every branch and
//! blends. The rare special lanes (for `exp`, `|x| ≥ 88`, non-finite `x`
//! and the two table inputs; for `tanh`, `|x| < 2⁻⁵⁵`, `|x| ≥ 22` and
//! non-finite `x`) are then fixed up one by one through the scalar
//! branches, only when a block's movemask shows one.

use crate::simd::{self, Isa};

/// `2^(i/32)` as `f64` bits, less `i << 47`, so that the bits of
/// `2^(k/32)` are `EXP2_TABLE[k % 32] + (k << 47)` for `|k| < 150·32`
/// (`__exp2f_data.tab`).
const EXP2_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `32/ln 2` (`0x1.71547652b82fep+0 · 32`).
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `0x1.8p+52`: adding it rounds an `f64` below `2^51` to an integer.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The cubic for `2^(r/32)` on `|r| ≤ 1/2`, highest power first
/// (`__exp2f_data.poly_scaled`).
const EXP_POLY: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];
/// The two inputs whose glibc result, formed with FMA, differs from the
/// plain evaluation: `(input bits, result bits)`.
const EXP_FIXED: [(u32, u32); 2] = [(0x4202_422f, 0x56fc_9f1c), (0xc27c_65d9, 0x11fa_2993)];

/// `e^x`, with the bits of glibc 2.36's `expf` on x86-64.
#[inline]
pub fn exp_f32(x: f32) -> f32 {
    if exp_is_special(x) {
        exp_special(x)
    } else {
        exp_core(x)
    }
}

/// Whether `x` leaves [`exp_core`]'s path: `|x| ≥ 88`, non-finite, or an
/// input of [`EXP_FIXED`].
#[inline(always)]
fn exp_is_special(x: f32) -> bool {
    let bits = x.to_bits();
    bits & 0x7fff_ffff >= EXP_SPECIAL || bits == EXP_FIXED[0].0 || bits == EXP_FIXED[1].0
}

/// `|x|`'s bits from which `expf` leaves its main path: 88.
const EXP_SPECIAL: u32 = 0x42b0_0000;

/// glibc's branches for the inputs [`exp_is_special`] names.
#[cold]
fn exp_special(x: f32) -> f32 {
    let bits = x.to_bits();
    if let Some(&(_, y)) = EXP_FIXED.iter().find(|&&(input, _)| input == bits) {
        return f32::from_bits(y);
    }
    if x == f32::NEG_INFINITY {
        return 0.0;
    }
    if bits & 0x7fff_ffff >= 0x7f80_0000 {
        return x + x;
    }
    // `x > log(0x1p128)`: overflow, formed as glibc's `__math_oflowf`.
    if x > f32::from_bits(0x42b1_7217) {
        let huge = f32::from_bits(0x7000_0000);
        return huge * huge;
    }
    // `x < log(0x1p-150)`: underflow, formed as glibc's `__math_uflowf`.
    if x < f32::from_bits(0xc2cf_f1b4) {
        let tiny = f32::from_bits(0x1000_0000);
        return tiny * tiny;
    }
    exp_core(x)
}

/// glibc's `expf` path for `|x| < 88`: `x·32/ln 2 = k + r` with an integer
/// `k`, then `e^x = 2^(k/32) · 2^(r/32)`, the first factor from
/// [`EXP2_TABLE`] and the second from a cubic in `r`.
#[inline(always)]
fn exp_core(x: f32) -> f32 {
    let z = INV_LN2_N * x as f64;
    let kd = z + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = z - kd;
    let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let [c0, c1, c2] = EXP_POLY;
    let z = c0 * r + c1;
    let r2 = r * r;
    let y = c2 * r + 1.0;
    let y = z * r2 + y;
    (y * s) as f32
}

/// `tanh x`, with the bits of glibc 2.36's `tanhf`.
#[inline]
pub fn tanh_f32(x: f32) -> f32 {
    if tanh_is_special(x) {
        tanh_special(x)
    } else {
        tanh_core(x)
    }
}

/// `|x|`'s bits below which `tanhf` returns `x·(1 + x)`: 2⁻⁵⁵.
const TANH_TINY: u32 = 0x2400_0000;
/// `|x|`'s bits from which `tanhf` returns `±1`: 22.
const TANH_ONE: u32 = 0x41b0_0000;

/// Whether `x` leaves [`tanh_core`]'s path: `|x| < 2⁻⁵⁵` (zero included),
/// `|x| ≥ 22`, or non-finite.
#[inline(always)]
fn tanh_is_special(x: f32) -> bool {
    let ix = x.to_bits() & 0x7fff_ffff;
    !(TANH_TINY..TANH_ONE).contains(&ix)
}

/// `tanhf`'s branches for the inputs [`tanh_is_special`] names.
#[cold]
fn tanh_special(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if x.is_sign_positive() { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }
    if ix == 0 {
        return x;
    }
    if ix < TANH_TINY {
        return x * (1.0 + x);
    }
    // |x| ≥ 22: `1 − 1e-30`, which rounds to 1.
    let z = 1.0 - f32::from_bits(0x0da2_4260);
    if x.is_sign_positive() {
        z
    } else {
        -z
    }
}

/// `tanhf` for `2⁻⁵⁵ ≤ |x| < 22`: `1 − 2/(t + 2)` with `t = expm1(2|x|)`
/// when `|x| ≥ 1`, else `−t/(t + 2)` with `t = expm1(−2|x|)`; then `x`'s
/// sign.
#[inline(always)]
fn tanh_core(x: f32) -> f32 {
    let ax = x.abs();
    let z = if ax >= 1.0 {
        let t = expm1_core(2.0 * ax);
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1_core(-2.0 * ax);
        -t / (t + 2.0)
    };
    if x.is_sign_positive() {
        z
    } else {
        -z
    }
}

// `s_expm1f.c`'s constants.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const EXPM1_Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];
/// `|x|`'s bits below which `expm1f` returns `x`: 2⁻²⁵.
const EXPM1_TINY: u32 = 0x3300_0000;
/// `|x|`'s bits up to which `expm1f` does not reduce `x`: ln 2 / 2.
const EXPM1_HALF_LN2: u32 = 0x3eb1_7218;
/// `|x|`'s bits below which a reduced `expm1f` has `|k| = 1`: 1.5 ln 2.
const EXPM1_ONE_AND_HALF_LN2: u32 = 0x3f85_1592;

/// fdlibm's `expm1f` on the arguments [`tanh_core`] passes: `x ∈ [2, 44)`
/// or `x ∈ (−2, −2⁻⁵⁴]`. These reach every branch but the ones for
/// `|x| ≥ 27 ln 2` with `x < 0`, for overflow and non-finite `x`, and for
/// `k = 1`.
#[inline(always)]
fn expm1_core(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    if hx < EXPM1_TINY {
        return x;
    }
    // Argument reduction: `x = k ln 2 + (hi − lo)`, and `c` the error of
    // `hi − lo`. Below 1.5 ln 2 only `k = −1` occurs here.
    let (k, x, c) = if hx <= EXPM1_HALF_LN2 {
        (0, x, 0.0)
    } else {
        let (k, hi, lo) = if hx < EXPM1_ONE_AND_HALF_LN2 {
            (-1, x + LN2_HI, -LN2_LO)
        } else {
            let k = (INV_LN2 * x + if x > 0.0 { 0.5 } else { -0.5 }) as i32;
            let t = k as f32;
            (k, x - t * LN2_HI, t * LN2_LO)
        };
        let x = hi - lo;
        (k, x, (hi - x) - lo)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let [q1, q2, q3, q4, q5] = EXPM1_Q;
    let r1 = 1.0 + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    // `y·2^k`, formed by adding `k` to `y`'s exponent field.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23));
    if k <= -2 || k > 56 {
        scale(1.0 - (e - x)) - 1.0
    } else if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 − 2⁻ᵏ
        scale(t - (e - x))
    } else {
        let t = f32::from_bits(((0x7f - k) as u32) << 23); // 2⁻ᵏ
        scale((x - (e + t)) + 1.0)
    }
}

/// `xs[i] = exp_f32(xs[i])`.
pub fn exp_slice(xs: &mut [f32]) {
    map(xs, Kernel::Exp);
}

/// `xs[i] = 1/(1 + exp_f32(−xs[i]))`, the logistic sigmoid.
pub fn sigmoid_slice(xs: &mut [f32]) {
    map(xs, Kernel::Sigmoid);
}

/// `xs[i] = tanh_f32(xs[i])`.
pub fn tanh_slice(xs: &mut [f32]) {
    map(xs, Kernel::Tanh);
}

/// The functions a slice kernel can map.
#[derive(Clone, Copy)]
enum Kernel {
    Exp,
    Sigmoid,
    Tanh,
}

/// Maps `xs` through `kernel` on [`simd::isa`].
fn map(xs: &mut [f32], kernel: Kernel) {
    match simd::isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 detected at runtime: `simd::isa` names only an
        // instruction set this CPU supports, and AVX-512 includes AVX2.
        // The AVX2 bodies serve both.
        Isa::Avx2 | Isa::Avx512 => unsafe { avx2::map(xs, kernel) },
        _ => {
            let f = match kernel {
                Kernel::Exp => exp_f32,
                Kernel::Sigmoid => |x: f32| 1.0 / (1.0 + exp_f32(-x)),
                Kernel::Tanh => tanh_f32,
            };
            xs.iter_mut().for_each(|x| *x = f(*x));
        }
    }
}

/// The AVX2 bodies: the scalar bodies' operations, in the same order, on
/// eight lanes, every branch formed and blended.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Lanes of one block: one AVX2 register of `f32`.
    const LANES: usize = 8;

    /// Maps `xs` through `kernel`, eight lanes at a time; the last,
    /// partial block is padded with 1, an input no body treats as special.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn map(xs: &mut [f32], kernel: Kernel) {
        let mut blocks = xs.chunks_exact_mut(LANES);
        for block in &mut blocks {
            // SAFETY: `block` holds LANES `f32`s; the load and store are
            // unaligned.
            unsafe {
                _mm256_storeu_ps(block.as_mut_ptr(), apply(kernel, _mm256_loadu_ps(block.as_ptr())))
            };
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            let mut x = [1.0f32; LANES];
            x[..tail.len()].copy_from_slice(tail);
            // SAFETY: as above, on the padded block `x`.
            unsafe { _mm256_storeu_ps(x.as_mut_ptr(), apply(kernel, _mm256_loadu_ps(x.as_ptr()))) };
            tail.copy_from_slice(&x[..tail.len()]);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn apply(kernel: Kernel, x: __m256) -> __m256 {
        match kernel {
            Kernel::Exp => exp(x),
            Kernel::Sigmoid => sigmoid(x),
            Kernel::Tanh => tanh(x),
        }
    }

    /// `y`, with the lanes whose bit is set in `mask` replaced by `f` of the
    /// same lane of `x`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn fixed_up(x: __m256, y: __m256, mask: i32, f: fn(f32) -> f32) -> __m256 {
        let (mut xs, mut ys) = ([0.0f32; LANES], [0.0f32; LANES]);
        // SAFETY: unaligned stores of LANES `f32`s.
        unsafe {
            _mm256_storeu_ps(xs.as_mut_ptr(), x);
            _mm256_storeu_ps(ys.as_mut_ptr(), y);
        }
        fix_up(&xs, &mut ys, mask, f);
        // SAFETY: an unaligned load of LANES `f32`s.
        unsafe { _mm256_loadu_ps(ys.as_ptr()) }
    }

    #[cold]
    fn fix_up(xs: &[f32; LANES], ys: &mut [f32; LANES], mask: i32, f: fn(f32) -> f32) {
        for l in (0..LANES).filter(|l| mask >> l & 1 == 1) {
            ys[l] = f(xs[l]);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat_i(v: u32) -> __m256i {
        _mm256_set1_epi32(v as i32)
    }

    /// [`exp_f32`] of eight lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn exp(x: __m256) -> __m256 {
        let lo = exp_core4(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = exp_core4(_mm256_cvtps_pd(_mm256_extractf128_ps(x, 1)));
        let y = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
        let bits = _mm256_castps_si256(x);
        let abs = _mm256_and_si256(bits, splat_i(0x7fff_ffff));
        let special = _mm256_or_si256(
            _mm256_cmpgt_epi32(abs, splat_i(EXP_SPECIAL - 1)),
            _mm256_or_si256(
                _mm256_cmpeq_epi32(bits, splat_i(EXP_FIXED[0].0)),
                _mm256_cmpeq_epi32(bits, splat_i(EXP_FIXED[1].0)),
            ),
        );
        match _mm256_movemask_ps(_mm256_castsi256_ps(special)) {
            0 => y,
            mask => fixed_up(x, y, mask, exp_special),
        }
    }

    /// [`exp_core`] of four lanes, before the rounding to `f32`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn exp_core4(xd: __m256d) -> __m256d {
        let z = _mm256_mul_pd(_mm256_set1_pd(INV_LN2_N), xd);
        let kd = _mm256_add_pd(z, _mm256_set1_pd(SHIFT));
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, _mm256_set1_pd(SHIFT));
        let r = _mm256_sub_pd(z, kd);
        let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every index is below 32, the table's length.
        let t = unsafe { _mm256_i64gather_epi64::<8>(EXP2_TABLE.as_ptr().cast(), index) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let [c0, c1, c2] = EXP_POLY.map(|c| _mm256_set1_pd(c));
        let z = _mm256_add_pd(_mm256_mul_pd(c0, r), c1);
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_add_pd(_mm256_mul_pd(c2, r), _mm256_set1_pd(1.0));
        let y = _mm256_add_pd(_mm256_mul_pd(z, r2), y);
        _mm256_mul_pd(y, s)
    }

    /// The logistic sigmoid `1/(1 + exp_f32(−x))` of eight lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sigmoid(x: __m256) -> __m256 {
        let e = exp(_mm256_xor_ps(x, _mm256_set1_ps(-0.0)));
        let one = _mm256_set1_ps(1.0);
        _mm256_div_ps(one, _mm256_add_ps(one, e))
    }

    /// [`tanh_f32`] of eight lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tanh(x: __m256) -> __m256 {
        let sign_bit = _mm256_set1_ps(-0.0);
        let ax = _mm256_andnot_ps(sign_bit, x);
        let big = _mm256_cmp_ps::<_CMP_GE_OQ>(ax, _mm256_set1_ps(1.0));
        // `2|x|` when `|x| ≥ 1`, else `−2|x|`.
        let two = _mm256_set1_ps(2.0);
        let arg = _mm256_xor_ps(_mm256_mul_ps(two, ax), _mm256_andnot_ps(big, sign_bit));
        let t = expm1(arg, big);
        let q = _mm256_div_ps(
            _mm256_blendv_ps(_mm256_xor_ps(t, sign_bit), two, big),
            _mm256_add_ps(t, two),
        );
        let z = _mm256_blendv_ps(q, _mm256_sub_ps(_mm256_set1_ps(1.0), q), big);
        let y = _mm256_xor_ps(z, _mm256_and_ps(x, sign_bit));
        let ix = _mm256_castps_si256(ax);
        let special = _mm256_or_si256(
            _mm256_cmpgt_epi32(splat_i(TANH_TINY), ix),
            _mm256_cmpgt_epi32(ix, splat_i(TANH_ONE - 1)),
        );
        match _mm256_movemask_ps(_mm256_castsi256_ps(special)) {
            0 => y,
            mask => fixed_up(x, y, mask, tanh_special),
        }
    }

    /// [`expm1_core`] of eight lanes; `positive` is all ones on the lanes
    /// where `arg > 0`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn expm1(arg: __m256, positive: __m256) -> __m256 {
        let ps = |v: f32| _mm256_set1_ps(v);
        let x = arg;
        let hx = _mm256_castps_si256(_mm256_andnot_ps(ps(-0.0), x));
        let below = |bound: u32| _mm256_castsi256_ps(_mm256_cmpgt_epi32(splat_i(bound), hx));
        let tiny = below(EXPM1_TINY);
        let unreduced = below(EXPM1_HALF_LN2 + 1);
        let k_minus_1 = below(EXPM1_ONE_AND_HALF_LN2);

        // Argument reduction, both ways, blended.
        let half = _mm256_blendv_ps(ps(-0.5), ps(0.5), positive);
        let k = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(ps(INV_LN2), x), half));
        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_blendv_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(t, ps(LN2_HI))),
            _mm256_add_ps(x, ps(LN2_HI)),
            k_minus_1,
        );
        let lo = _mm256_blendv_ps(_mm256_mul_ps(t, ps(LN2_LO)), ps(-LN2_LO), k_minus_1);
        let k = _mm256_blendv_epi8(k, splat_i(u32::MAX), _mm256_castps_si256(k_minus_1));
        let reduced = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, reduced), lo);
        let x = _mm256_blendv_ps(reduced, x, unreduced);

        let hfx = _mm256_mul_ps(ps(0.5), x);
        let hxs = _mm256_mul_ps(x, hfx);
        let [q1, q2, q3, q4, q5] = EXPM1_Q.map(&ps);
        let poly = _mm256_add_ps(q4, _mm256_mul_ps(hxs, q5));
        let poly = _mm256_add_ps(q3, _mm256_mul_ps(hxs, poly));
        let poly = _mm256_add_ps(q2, _mm256_mul_ps(hxs, poly));
        let poly = _mm256_add_ps(q1, _mm256_mul_ps(hxs, poly));
        let r1 = _mm256_add_ps(ps(1.0), _mm256_mul_ps(hxs, poly));
        let t = _mm256_sub_ps(ps(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(_mm256_sub_ps(r1, t), _mm256_sub_ps(ps(6.0), _mm256_mul_ps(x, t))),
        );
        let y_k0 = _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));

        let e = _mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c);
        let e = _mm256_sub_ps(e, hxs);
        let y_k_minus_1 = _mm256_sub_ps(_mm256_mul_ps(ps(0.5), _mm256_sub_ps(x, e)), ps(0.5));
        let k_exp = _mm256_slli_epi32::<23>(k);
        let scale =
            |y: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k_exp));
        let e_minus_x = _mm256_sub_ps(e, x);
        let far = _mm256_sub_ps(scale(_mm256_sub_ps(ps(1.0), e_minus_x)), ps(1.0));
        let t = _mm256_sub_epi32(splat_i(0x3f80_0000), _mm256_srlv_epi32(splat_i(0x0100_0000), k));
        let near = scale(_mm256_sub_ps(_mm256_castsi256_ps(t), e_minus_x));
        let t = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(splat_i(0x7f), k)));
        let mid = scale(_mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e, t)), ps(1.0)));

        // `k ≤ −2 || k > 56`: far; else `k < 23`: near; else mid.
        let is_far = _mm256_or_si256(
            _mm256_cmpgt_epi32(splat_i(-1i32 as u32), k),
            _mm256_cmpgt_epi32(k, splat_i(56)),
        );
        let is_near = _mm256_cmpgt_epi32(splat_i(23), k);
        let y = _mm256_blendv_ps(mid, near, _mm256_castsi256_ps(is_near));
        let y = _mm256_blendv_ps(y, far, _mm256_castsi256_ps(is_far));
        let y = _mm256_blendv_ps(y, y_k_minus_1, k_minus_1);
        let y = _mm256_blendv_ps(y, y_k0, unreduced);
        _mm256_blendv_ps(y, arg, tiny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One input from every aligned block of 4096 bit patterns, at an offset
    /// that walks the block, then the named cases.
    fn sample_inputs(named: &[u32]) -> Vec<f32> {
        (0..1u32 << 20)
            .map(|i| i << 12 | (i.wrapping_mul(0x9e5) & 0xfff))
            .chain(named.iter().copied())
            .map(f32::from_bits)
            .collect()
    }

    /// The named cases both functions share: signed zeros, subnormals,
    /// the smallest normal, infinities and NaNs.
    #[rustfmt::skip]
    const COMMON: [u32; 14] = [
        0x0000_0000, 0x8000_0000, 0x0000_0001, 0x8000_0001, 0x007f_ffff, 0x807f_ffff,
        0x0080_0000, 0x8080_0000, 0x7f80_0000, 0xff80_0000, 0x7fc0_0000, 0xffc0_0000,
        0x7f80_0001, 0x7fff_ffff,
    ];

    /// `exp`'s named cases: [`COMMON`], then in pairs or triples around
    /// each edge: the special range (±88), glibc's overflow threshold and
    /// its underflow thresholds to 0 and to the least subnormal. Then the
    /// [`EXP_FIXED`] inputs, and the inputs whose unrounded result lies
    /// nearest an `f32` rounding midpoint (within 6·2⁻²⁹ ulp), where a
    /// change in the last bits of the `f64` evaluation shows first. The
    /// first of those and `0xc1d2107a` are the only inputs whose results
    /// show the last bit of `EXP2_TABLE[11]` and of `INV_LN2_N`; that of
    /// any other `f64` constant but `SHIFT` shows in no result (an
    /// exhaustive scan).
    #[rustfmt::skip]
    fn exp_named() -> Vec<u32> {
        let named = [
            0x42af_ffff, 0x42b0_0000, 0xc2af_ffff, 0xc2b0_0000,
            0x42b1_7217, 0x42b1_7218,
            0xc2cf_f1b3, 0xc2cf_f1b4, 0xc2cf_f1b5,
            0xc2ce_8ece, 0xc2ce_8ecf, 0xc2ce_8ed0,
            EXP_FIXED[0].0, EXP_FIXED[1].0,
            0x3e73_ade2, 0xbfde_3004, 0xbbe8_61b2, 0x3d89_32e8,
            0x400d_98c7, 0xc23d_d581, 0x3b37_991a, 0xba25_3b54,
            0xc1d2_107a,
        ];
        COMMON.iter().chain(&named).copied().collect()
    }

    /// `tanh`'s named cases: [`COMMON`], then each sign of: the edges
    /// 2⁻⁵⁵, 1 and 22, an input on each branch of `expm1f` that `tanhf`
    /// reaches, with pairs across the edges between branches, and the
    /// first input whose result shows the last bit of `LN2_LO`. Those of
    /// `LN2_HI` and `EXPM1_Q[0]` show among the other inputs; those of
    /// `INV_LN2` and `EXPM1_Q[1..]` show in no result (an exhaustive scan).
    #[rustfmt::skip]
    fn tanh_named() -> Vec<u32> {
        let positive = [
            0x23ff_ffff, 0x2400_0000, // 2⁻⁵⁵
            0x3f7f_ffff, 0x3f80_0000, // 1
            0x41af_ffff, 0x41b0_0000, // 22
            0x3080_0000,              // 2⁻³⁰: expm1 returns its argument
            0x327f_ffff, 0x3280_0000, // |2x| = 2⁻²⁵
            0x3dcc_cccd,              // 0.1: k = 0
            0x3e31_7218, 0x3e31_7219, // |2x| = ln 2 / 2: k = 0 | k = −1
            0x3e99_999a,              // 0.3: k = −1
            0x3f05_1591, 0x3f05_1592, // |2x| = 1.5 ln 2: k = −1 | k ≤ −2
            0x3f4c_cccd,              // 0.8: k = −2
            0x4040_0000,              // 3: k = 9
            0x40f8_0000, 0x40f9_999a, // 7.75, 7.8: k = 22 | 23
            0x4120_0000,              // 10: k = 29
            0x419c_a3d7, 0x419d_0000, // 19.58, 19.625: k = 56 | 57
            0x41a8_0000,              // 21: k = 61
            0x3e8d_4ed1,              // shows LN2_LO's last bit
        ];
        let negative = positive.map(|b| b | 0x8000_0000);
        COMMON.iter().chain(&positive).chain(&negative).copied().collect()
    }

    /// FNV-1a over the outputs' bits, every NaN counted as `0x7fc0_0000`:
    /// NaN payloads are not part of the contract.
    fn digest(ys: impl IntoIterator<Item = f32>) -> u64 {
        ys.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, y| {
            let bits = if y.is_nan() { 0x7fc0_0000 } else { y.to_bits() };
            bits.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// Digests of `f32::exp` and `f32::tanh` (the host libm, not this
    /// module) over the sample inputs, recorded on x86-64 with glibc 2.36.
    const EXP_DIGEST: u64 = 0x8e09_f2c4_293e_6d6a;
    const TANH_DIGEST: u64 = 0x8cf0_86d4_0338_4645;

    /// `slice` over `xs` on `isa`.
    fn on_isa(isa: Isa, xs: &[f32], slice: fn(&mut [f32])) -> Vec<f32> {
        let mut ys = xs.to_vec();
        simd::with_isa(isa, || slice(&mut ys));
        ys
    }

    #[test]
    fn exp_matches_the_pinned_digest_on_every_body() {
        let xs = sample_inputs(&exp_named());
        assert_eq!(digest(xs.iter().map(|&x| exp_f32(x))), EXP_DIGEST, "scalar");
        for isa in simd::supported() {
            assert_eq!(digest(on_isa(isa, &xs, exp_slice)), EXP_DIGEST, "{}", isa.name());
        }
    }

    #[test]
    fn tanh_matches_the_pinned_digest_on_every_body() {
        let xs = sample_inputs(&tanh_named());
        assert_eq!(digest(xs.iter().map(|&x| tanh_f32(x))), TANH_DIGEST, "scalar");
        for isa in simd::supported() {
            assert_eq!(digest(on_isa(isa, &xs, tanh_slice)), TANH_DIGEST, "{}", isa.name());
        }
    }

    #[test]
    fn sigmoid_is_one_over_one_plus_exp_of_minus_x() {
        let xs = sample_inputs(&exp_named());
        let want = digest(xs.iter().map(|&x| 1.0 / (1.0 + exp_f32(-x))));
        for isa in simd::supported() {
            assert_eq!(digest(on_isa(isa, &xs, sigmoid_slice)), want, "{}", isa.name());
        }
    }

    #[test]
    fn slice_kernels_handle_every_tail_length() {
        // Lengths 0 to 18: no block, partial blocks alone and after one or
        // two whole blocks of eight.
        let xs: Vec<f32> = (0..19).map(|i| i as f32 * 0.37 - 3.0).collect();
        for len in 0..xs.len() {
            for isa in simd::supported() {
                let ys = on_isa(isa, &xs[..len], exp_slice);
                let ok = ys.iter().zip(&xs).all(|(y, &x)| y.to_bits() == exp_f32(x).to_bits());
                assert!(ok, "exp, {len} on {}", isa.name());
                let ys = on_isa(isa, &xs[..len], tanh_slice);
                let ok = ys.iter().zip(&xs).all(|(y, &x)| y.to_bits() == tanh_f32(x).to_bits());
                assert!(ok, "tanh, {len} on {}", isa.name());
            }
        }
    }

    /// Checks `scalar` and `slice` on every body against the host's `libm`
    /// on all 2³² inputs, split over two threads, and prints the wall time.
    /// Run in release: a debug build takes hours.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn exhaustive(name: &str, scalar: fn(f32) -> f32, slice: fn(&mut [f32]), libm: fn(f32) -> f32) {
        const BLOCK: u64 = 1 << 16;
        let start = std::time::Instant::now();
        let half = 1u64 << 31;
        let mismatches: Vec<String> = std::thread::scope(|s| {
            let workers: Vec<_> = [0, half]
                .map(|lo| {
                    s.spawn(move || {
                        let mut bad = Vec::new();
                        for b0 in (lo..lo + half).step_by(BLOCK as usize) {
                            let xs: Vec<f32> =
                                (b0..b0 + BLOCK).map(|b| f32::from_bits(b as u32)).collect();
                            let want: Vec<u32> = xs.iter().map(|&x| libm(x).to_bits()).collect();
                            let mut check = |body: &str, ys: &[f32]| {
                                for ((x, y), w) in xs.iter().zip(ys).zip(&want) {
                                    if y.to_bits() != *w && bad.len() < 16 {
                                        bad.push(format!(
                                            "{body}({:#010x}) = {:#010x}, libm {w:#010x}",
                                            x.to_bits(),
                                            y.to_bits()
                                        ));
                                    }
                                }
                            };
                            check("scalar", &xs.iter().map(|&x| scalar(x)).collect::<Vec<_>>());
                            // AVX-512 runs the AVX2 bodies (see `map`).
                            for isa in simd::supported().filter(|&isa| isa != Isa::Avx512) {
                                check(isa.name(), &on_isa(isa, &xs, slice));
                            }
                        }
                        bad
                    })
                })
                .into();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("an exhaustive worker panicked"))
                .collect()
        });
        println!("{name}: all 2^32 inputs checked in {:.1} s", start.elapsed().as_secs_f64());
        assert!(mismatches.is_empty(), "{name} differs from libm:\n{}", mismatches.join("\n"));
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn exp_equals_libm_expf_on_every_input() {
        exhaustive("exp", exp_f32, exp_slice, f32::exp);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn tanh_equals_libm_tanhf_on_every_input() {
        exhaustive("tanh", tanh_f32, tanh_slice, f32::tanh);
    }
}
