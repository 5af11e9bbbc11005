//! Negabinary (base −2) integer representation.
//!
//! Paper Sec. 4.4.2 selects negabinary over two's complement and sign-magnitude for
//! bitplane coding because (a) values that fluctuate around zero keep their
//! high-order bitplanes full of zeros, and (b) the error uncertainty introduced by
//! truncating the `d` lowest bitplanes is only about two thirds of sign-magnitude's
//! `2^d − 1`.
//!
//! With the standard mapping `nb(x) = (x + M) XOR M` where `M = 0xAAAA…AA`
//! (alternating bit mask), a negabinary word interprets bit `i` with weight `(−2)^i`,
//! so truncating low bits splits the value additively — exactly the property the
//! progressive decoder relies on when it adds late-arriving bitplanes onto an earlier
//! reconstruction.

/// Alternating-bit mask used by the negabinary conversion (`…10101010`).
pub const NEGABINARY_MASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Convert a signed integer to its negabinary (base −2) bit pattern.
///
/// # Examples
///
/// ```
/// use ipc_codecs::negabinary::{to_negabinary, from_negabinary};
/// assert_eq!(to_negabinary(0), 0);
/// assert_eq!(to_negabinary(1), 0b1);
/// assert_eq!(to_negabinary(-1), 0b11);
/// assert_eq!(from_negabinary(to_negabinary(-12345)), -12345);
/// ```
#[inline]
pub fn to_negabinary(value: i64) -> u64 {
    (value as u64).wrapping_add(NEGABINARY_MASK) ^ NEGABINARY_MASK
}

/// Convert a negabinary bit pattern back to the signed integer it encodes.
#[inline]
pub fn from_negabinary(bits: u64) -> i64 {
    (bits ^ NEGABINARY_MASK).wrapping_sub(NEGABINARY_MASK) as i64
}

/// Bulk conversion of signed integers to negabinary words.
///
/// One tight add/xor pass; the compiler auto-vectorizes it, which matters on the
/// bitplane coder's hot path where whole levels are converted at once.
pub fn to_negabinary_slice(values: &[i64]) -> Vec<u64> {
    values.iter().map(|&v| to_negabinary(v)).collect()
}

/// Bulk conversion of negabinary words back to signed integers.
pub fn from_negabinary_slice(words: &[u64]) -> Vec<i64> {
    words.iter().map(|&w| from_negabinary(w)).collect()
}

/// Evaluate a negabinary word keeping only bitplanes `>= lowest_kept`.
///
/// This models the effect of *not loading* the `lowest_kept` least significant
/// bitplanes during progressive retrieval: the decoder sees those bits as zero.
#[inline]
pub fn truncate_negabinary(bits: u64, lowest_kept: u32) -> u64 {
    if lowest_kept >= 64 {
        0
    } else {
        bits & (u64::MAX << lowest_kept)
    }
}

/// Signed value represented by only the discarded low `d` bitplanes of `bits`.
///
/// Because negabinary is positional, `value = kept + discarded`; this helper returns
/// the `discarded` part, which is exactly the reconstruction error contributed by a
/// single coefficient when its `d` low bitplanes are skipped.
#[inline]
pub fn truncation_loss(bits: u64, d: u32) -> i64 {
    if d == 0 {
        return 0;
    }
    let kept = truncate_negabinary(bits, d);
    // Both terms wrap for words beyond the 64-bit negabinary range (a code
    // near `i64::MAX` sets bit 63); their difference, the low planes' value,
    // always fits.
    from_negabinary(bits).wrapping_sub(from_negabinary(kept))
}

/// Worst-case absolute reconstruction error when the `d` lowest negabinary bitplanes
/// are discarded (paper Sec. 4.4.2 closed form).
///
/// * odd `d`:  `2/3·2^d − 1/3`
/// * even `d`: `2/3·2^d − 2/3`
#[inline]
pub fn negabinary_uncertainty(d: u32) -> u64 {
    if d == 0 {
        return 0;
    }
    let p = 1u64 << d;
    if d % 2 == 1 {
        (2 * p - 1) / 3
    } else {
        (2 * p - 2) / 3
    }
}

/// Worst-case absolute reconstruction error for sign-magnitude coding with `d`
/// discarded low bitplanes (`2^d − 1`); used by the coding ablation experiment.
#[inline]
pub fn sign_magnitude_uncertainty(d: u32) -> u64 {
    if d == 0 {
        0
    } else {
        (1u64 << d) - 1
    }
}

/// Number of significant negabinary bitplanes needed to represent every value in
/// `values` exactly (i.e. the position of the highest set bit across the batch).
pub fn required_bitplanes(values: &[i64]) -> u32 {
    let mut max_bits = 0u32;
    for &v in values {
        let nb = to_negabinary(v);
        let bits = 64 - nb.leading_zeros();
        max_bits = max_bits.max(bits);
    }
    max_bits
}

/// [`required_bitplanes`] over already-converted negabinary words. The word
/// OR-reduction lets callers that hold the packed representation avoid a second
/// conversion pass.
pub fn required_bitplanes_words(words: &[u64]) -> u32 {
    let all = words.iter().fold(0u64, |acc, &w| acc | w);
    64 - all.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_match_paper_examples() {
        // Paper: 8-bit representations of 1 and -1 are 00000001 and 00000011 in
        // negabinary.
        assert_eq!(to_negabinary(1) & 0xFF, 0b0000_0001);
        assert_eq!(to_negabinary(-1) & 0xFF, 0b0000_0011);
        assert_eq!(to_negabinary(2) & 0xFF, 0b0000_0110);
        assert_eq!(to_negabinary(-2) & 0xFF, 0b0000_0010);
    }

    #[test]
    fn roundtrip_wide_range() {
        for v in -10_000i64..10_000 {
            assert_eq!(from_negabinary(to_negabinary(v)), v);
        }
        for &v in &[
            i64::MIN / 4,
            i64::MAX / 4,
            0,
            1,
            -1,
            123_456_789,
            -987_654_321,
        ] {
            assert_eq!(from_negabinary(to_negabinary(v)), v);
        }
    }

    #[test]
    fn positional_weights_are_powers_of_minus_two() {
        // bit i alone should decode to (-2)^i.
        for i in 0..20u32 {
            let decoded = from_negabinary(1u64 << i);
            let expected = (-2i64).pow(i);
            assert_eq!(decoded, expected, "bit {i}");
        }
    }

    #[test]
    fn truncation_is_additive() {
        for v in -5000i64..5000 {
            let nb = to_negabinary(v);
            for d in 0..16u32 {
                let kept = from_negabinary(truncate_negabinary(nb, d));
                let loss = truncation_loss(nb, d);
                assert_eq!(kept + loss, v, "v={v} d={d}");
            }
        }
    }

    #[test]
    fn truncation_loss_of_words_past_the_i64_range_is_the_low_planes_value() {
        for v in [i64::MAX, i64::MIN, i64::MAX - 12345, i64::MIN + 77] {
            let nb = to_negabinary(v);
            for d in 0..64u32 {
                assert_eq!(
                    truncation_loss(nb, d),
                    from_negabinary(nb & ((1u64 << d) - 1)),
                    "v={v} d={d}"
                );
            }
        }
    }

    #[test]
    fn truncation_loss_within_uncertainty_bound() {
        for v in -20_000i64..20_000 {
            let nb = to_negabinary(v);
            for d in 0..12u32 {
                let loss = truncation_loss(nb, d).unsigned_abs();
                assert!(
                    loss <= negabinary_uncertainty(d),
                    "v={v} d={d} loss={loss} bound={}",
                    negabinary_uncertainty(d)
                );
            }
        }
    }

    #[test]
    fn uncertainty_closed_forms() {
        assert_eq!(negabinary_uncertainty(0), 0);
        assert_eq!(negabinary_uncertainty(1), 1); // (2*2-1)/3 = 1
        assert_eq!(negabinary_uncertainty(2), 2); // (2*4-2)/3 = 2
        assert_eq!(negabinary_uncertainty(3), 5); // (2*8-1)/3 = 5
        assert_eq!(negabinary_uncertainty(4), 10);
        assert_eq!(sign_magnitude_uncertainty(4), 15);
        // Negabinary uncertainty approaches 2/3 of sign-magnitude's.
        for d in 4..20 {
            let nb = negabinary_uncertainty(d) as f64;
            let sm = sign_magnitude_uncertainty(d) as f64;
            assert!(nb / sm < 0.70, "d={d}: {nb}/{sm}");
        }
    }

    #[test]
    fn bulk_conversions_match_scalar() {
        let values: Vec<i64> = (-500..500).chain([i64::MIN / 4, i64::MAX / 4]).collect();
        let words = to_negabinary_slice(&values);
        assert_eq!(
            words,
            values.iter().map(|&v| to_negabinary(v)).collect::<Vec<_>>()
        );
        assert_eq!(from_negabinary_slice(&words), values);
    }

    #[test]
    fn required_bitplanes_words_agrees_with_scalar_path() {
        for vals in [
            vec![],
            vec![0i64],
            vec![1, -1, 7],
            (-3000..3000).collect::<Vec<i64>>(),
        ] {
            let words = to_negabinary_slice(&vals);
            assert_eq!(required_bitplanes_words(&words), required_bitplanes(&vals));
        }
    }

    #[test]
    fn required_bitplanes_covers_batch() {
        assert_eq!(required_bitplanes(&[]), 0);
        assert_eq!(required_bitplanes(&[0]), 0);
        assert_eq!(required_bitplanes(&[1]), 1);
        assert_eq!(required_bitplanes(&[-1]), 2);
        let vals = [3, -7, 100, -100];
        let bits = required_bitplanes(&vals);
        for &v in &vals {
            assert_eq!(truncate_negabinary(to_negabinary(v), 0) >> bits, 0);
        }
    }
}
