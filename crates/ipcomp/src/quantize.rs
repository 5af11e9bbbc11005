//! Linear-scale error-bounded quantization.
//!
//! The prediction residual `y = x − P(x̂)` is mapped to an integer code
//! `q = round(y / (2·eb))`; dequantizing back to `q·2·eb` guarantees the point-wise
//! error `|y − ŷ| ≤ eb` that the whole error analysis of the paper (Sec. 4.2.2)
//! rests on.

/// Quotients below this magnitude (2^52) still carry a fraction bit, convert
/// to `i64` exactly and dequantize without losing the code's low bits; at or
/// above it the bound `|y − ŷ| ≤ eb` is no longer guaranteed, which is what
/// [`crate::compress`] refuses.
const EXACT_QUOTIENT: f64 = (1u64 << 52) as f64;

/// `x` rounded half away from zero — bit for bit `x.round() as i64` — without
/// the libm call, or `None` when `|x| ≥ 2^52` (or `x` is NaN). Truncation and
/// the fraction `x − trunc(x)` are both exact below 2^52, so comparing the
/// fraction with ±0.5 decides the rounding exactly.
#[inline(always)]
pub(crate) fn round_exact(x: f64) -> Option<i64> {
    if x.abs() < EXACT_QUOTIENT {
        let t = x as i64;
        let frac = x - t as f64;
        Some(t + i64::from(frac >= 0.5) - i64::from(frac <= -0.5))
    } else {
        None
    }
}

/// Quantize a residual with the given error bound. `eb` must be positive.
#[inline]
pub fn quantize(residual: f64, eb: f64) -> i64 {
    debug_assert!(eb > 0.0, "error bound must be positive");
    let x = residual / (2.0 * eb);
    round_exact(x).unwrap_or_else(|| x.round() as i64)
}

/// Dequantize an integer code back to a residual value.
#[inline]
pub fn dequantize(code: i64, eb: f64) -> f64 {
    code as f64 * 2.0 * eb
}

/// Quantize then immediately dequantize — the value the decompressor will see.
#[inline]
pub fn quantize_roundtrip(residual: f64, eb: f64) -> (i64, f64) {
    let q = quantize(residual, eb);
    (q, dequantize(q, eb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_error_within_bound() {
        let eb = 1e-3;
        for i in -10_000..10_000 {
            let v = i as f64 * 7.3e-4;
            let (_, back) = quantize_roundtrip(v, eb);
            assert!((v - back).abs() <= eb + 1e-15, "v={v}");
        }
    }

    #[test]
    fn zero_residual_is_code_zero() {
        assert_eq!(quantize(0.0, 1e-6), 0);
        assert_eq!(dequantize(0, 1e-6), 0.0);
    }

    #[test]
    fn codes_are_symmetric_in_sign() {
        let eb = 0.5;
        for i in 1..100 {
            let v = i as f64 * 0.37;
            assert_eq!(quantize(v, eb), -quantize(-v, eb));
        }
    }

    /// The inline rounding is `round()` itself: ties, the largest fraction
    /// below one half, both sides of the 2^52 hand-over, and the saturating
    /// ends of the `i64` range.
    #[test]
    fn inline_rounding_matches_libm_round() {
        let p52 = (1u64 << 52) as f64;
        let mut xs = vec![
            0.0,
            0.49999999999999994,
            0.5,
            0.5000000000000001,
            1.4999999999999998,
            p52 - 1.0,
            p52 - 0.5,
            p52,
            p52 + 1.0,
            (1u64 << 63) as f64,
            f64::MAX,
            f64::INFINITY,
        ];
        xs.extend((0..2000).map(|k| k as f64 + 0.5));
        xs.extend((0..2000).map(|k| k as f64 * 0.37));
        for x in xs.iter().flat_map(|&x| [x, -x]) {
            // 2·eb = 1 keeps the quotient equal to the residual.
            assert_eq!(quantize(x, 0.5), x.round() as i64, "x = {x:e}");
            for eb in [1e-3, 0.3, 7.0] {
                assert_eq!(
                    quantize(x, eb),
                    (x / (2.0 * eb)).round() as i64,
                    "x = {x:e}, eb = {eb}"
                );
            }
        }
        assert_eq!(quantize(f64::NAN, 0.5), 0);
        assert_eq!(round_exact(p52 - 0.5), Some(1i64 << 52));
        assert_eq!(round_exact(p52), None);
        assert_eq!(round_exact(f64::NAN), None);
    }

    #[test]
    fn small_bound_produces_large_codes() {
        let q = quantize(1.0, 1e-9);
        assert_eq!(q, 500_000_000);
        assert!((dequantize(q, 1e-9) - 1.0).abs() <= 1e-9);
    }
}
