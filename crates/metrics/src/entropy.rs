//! Shannon entropy of bitplanes.
//!
//! Table 2 of the paper reports the per-bit entropy of bitplanes before and after
//! predictive coding; lower entropy means the downstream lossless stage can shrink the
//! plane further. [`bit_entropy`] reproduces that measurement.

/// Entropy (bits per bit) of a binary sequence given the count of ones and the total
/// length. This is the quantity reported in the paper's Table 2.
pub fn bit_entropy(ones: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p1 = ones as f64 / total as f64;
    let p0 = 1.0 - p1;
    let mut h = 0.0;
    if p1 > 0.0 {
        h -= p1 * p1.log2();
    }
    if p0 > 0.0 {
        h -= p0 * p0.log2();
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bits_have_entropy_one() {
        assert!((bit_entropy(500, 1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_bits_have_entropy_zero() {
        assert_eq!(bit_entropy(0, 1000), 0.0);
        assert_eq!(bit_entropy(1000, 1000), 0.0);
        assert_eq!(bit_entropy(0, 0), 0.0);
    }

    #[test]
    fn skew_reduces_entropy() {
        assert!(bit_entropy(100, 1000) < bit_entropy(300, 1000));
        assert!(bit_entropy(300, 1000) < bit_entropy(500, 1000));
    }
}
