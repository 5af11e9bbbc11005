//! Fidelity and efficiency metrics for scientific lossy compression.
//!
//! These are the five metrics the paper defines in Sec. 3.1.1 — compression ratio,
//! bitrate, decompression error (L∞), error bound compliance, and PSNR — plus the
//! bit-level entropy of bitplanes that Table 2 reports.

pub mod entropy;
pub mod error;

pub use entropy::bit_entropy;
pub use error::{linf_error, max_rel_error, mse, psnr, ErrorStats};

/// Compression ratio: original size divided by compressed size.
///
/// Sizes are in bytes. Returns `f64::INFINITY` for an empty compressed buffer.
pub fn compression_ratio(original_bytes: usize, compressed_bytes: usize) -> f64 {
    if compressed_bytes == 0 {
        f64::INFINITY
    } else {
        original_bytes as f64 / compressed_bytes as f64
    }
}

/// Bitrate: average number of stored bits per scalar value.
pub fn bitrate(compressed_bytes: usize, num_elements: usize) -> f64 {
    if num_elements == 0 {
        0.0
    } else {
        compressed_bytes as f64 * 8.0 / num_elements as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_ratio_basic() {
        assert_eq!(compression_ratio(1000, 100), 10.0);
        assert_eq!(compression_ratio(1000, 0), f64::INFINITY);
    }

    #[test]
    fn bitrate_inverse_of_ratio() {
        // 64-bit doubles at CR 16 => 4 bits per value.
        let n = 1024usize;
        let compressed = n * 8 / 16;
        assert!((bitrate(compressed, n) - 4.0).abs() < 1e-12);
    }
}
