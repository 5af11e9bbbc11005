//! Compression entry points.

use ipc_tensor::ArrayD;
use rayon::prelude::*;

use crate::bitplane::{
    encode_level_precincts, encode_level_with, EncodeOptions, EncodedLevel, RegionScheme,
};
use crate::cascade::{sweep_level, PointOp, Quantize};
use crate::config::Config;
use crate::container::{encode_anchors, Compressed, Header, MAX_PRECINCTS};
use crate::error::{IpcompError, Result};
use crate::interp::{anchor_count, level_count, num_levels, process_anchors};
use crate::precinct::PrecinctGrid;
use crate::progressive::{ProgressiveDecoder, RetrievalRequest};

/// Compress a field with an **absolute** point-wise error bound.
///
/// This runs the full IPComp pipeline of the paper: multilevel interpolation
/// prediction, linear-scale quantization, and predictive negabinary bitplane coding
/// into independently loadable blocks.
///
/// # Errors
///
/// Returns [`IpcompError::InvalidInput`] if the error bound is not positive and
/// finite.
pub fn compress(data: &ArrayD<f64>, error_bound: f64, config: &Config) -> Result<Compressed> {
    if !(error_bound.is_finite() && error_bound > 0.0) {
        return Err(IpcompError::InvalidInput(format!(
            "error bound must be positive and finite, got {error_bound}"
        )));
    }
    // One read of the field before encoding: finiteness and the header's
    // value range (the comparisons of `ArrayD::min_max`, so the same bits).
    let (mut lo, mut hi, mut finite) = (f64::INFINITY, f64::NEG_INFINITY, true);
    for &v in data.as_slice() {
        finite &= v.is_finite();
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    if !finite {
        return Err(IpcompError::InvalidInput(
            "input contains non-finite values".into(),
        ));
    }
    if RegionScheme::uniform(data.len(), config.chunk_bytes).is_none() {
        return Err(IpcompError::InvalidInput(format!(
            "chunk_bytes must be a multiple of 8 (64-coefficient transpose alignment), got {}",
            config.chunk_bytes
        )));
    }
    let precinct_grid = match &config.precincts {
        Some(extents) => {
            let grid = PrecinctGrid::new(data.shape().dims(), &extents[..])?;
            if grid.num_precincts() as u64 > MAX_PRECINCTS {
                return Err(IpcompError::InvalidInput(format!(
                    "precinct grid has {} precincts (max {MAX_PRECINCTS})",
                    grid.num_precincts()
                )));
            }
            Some(grid)
        }
        None => None,
    };
    let shape = data.shape().clone();
    let orig = data.as_slice();
    let levels = num_levels(&shape);
    let eb = error_bound;

    // Prediction + quantization pass. The work buffer always holds the values the
    // decompressor will see, so predictions are made from lossy data exactly as they
    // will be at decompression time (paper Sec. 4.2.2). The sweep is the
    // decoder's, run in the encode direction: the cascade's run kernels with
    // `Quantize` as the per-point operation.
    let mut work = vec![0.0f64; shape.len()];
    let mut anchor_codes = vec![0i64; anchor_count(&shape)];
    let mut op = Quantize::new(orig, &mut anchor_codes, eb);
    let mut i = 0usize;
    process_anchors(&shape, &mut work, |off, pred| {
        let stored = op.point(off, i, pred);
        i += 1;
        stored
    });
    let mut inexact = op.inexact;
    let mut level_codes: Vec<Vec<i64>> = Vec::with_capacity(levels as usize);
    for level in (1..=levels).rev() {
        let mut codes = vec![0i64; level_count(&shape, level)];
        let op = Quantize::new(orig, &mut codes, eb);
        inexact |= sweep_level(&shape, level, config.interpolation, &mut work, op).inexact;
        level_codes.push(codes);
    }
    if inexact {
        return Err(IpcompError::InvalidInput(format!(
            "error bound {eb:e} is too small for values in [{lo:e}, {hi:e}]: a residual \
             exceeds 2^52 quantization steps, beyond which the bound cannot be kept"
        )));
    }

    // Entropy / bitplane stage — independent per level, so it can run in parallel.
    let opts = EncodeOptions {
        chunk_bytes: config.chunk_bytes,
    };
    // `level_codes[idx]` holds interpolation level `levels - idx` (coarsest
    // first); the v3 path permutes each level to precinct-major order before
    // encoding, cutting chunks on precinct boundaries.
    let jobs: Vec<(u32, &Vec<i64>)> = level_codes
        .iter()
        .enumerate()
        .map(|(idx, codes)| (levels - idx as u32, codes))
        .collect();
    let encode = |&(level, codes): &(u32, &Vec<i64>)| -> EncodedLevel {
        match &precinct_grid {
            Some(grid) => {
                let layout = grid.level_permutation(&shape, level);
                let permuted = layout.to_precinct_order(codes);
                encode_level_precincts(
                    &permuted,
                    config.prefix_bits,
                    config.predictive_coding,
                    config.parallel_encoding,
                    opts,
                    &layout.spans,
                )
            }
            None => encode_level_with(
                codes,
                config.prefix_bits,
                config.predictive_coding,
                config.parallel_encoding,
                opts,
            ),
        }
    };
    let encoded_levels: Vec<EncodedLevel> = if config.parallel_encoding {
        jobs.par_iter().map(encode).collect()
    } else {
        jobs.iter().map(encode).collect()
    };

    let progressive_levels = config.progressive_levels.unwrap_or(levels).clamp(0, levels);

    Ok(Compressed {
        header: Header {
            dims: shape.dims().to_vec(),
            error_bound: eb,
            interpolation: config.interpolation,
            num_levels: levels,
            progressive_levels,
            prefix_bits: config.prefix_bits,
            predictive_coding: config.predictive_coding,
            value_range: hi - lo,
            precincts: config
                .precincts
                .as_ref()
                .map(|e| e[..shape.dims().len()].to_vec()),
        },
        anchors: encode_anchors(&anchor_codes),
        levels: encoded_levels,
    })
}

/// Compress with an error bound **relative** to the field's value range
/// (`eb = rel_bound · (max − min)`), the convention used throughout the paper's
/// evaluation (e.g. `1e-6` and `1e-9` in Fig. 5).
pub fn compress_rel(data: &ArrayD<f64>, rel_bound: f64, config: &Config) -> Result<Compressed> {
    let range = data.value_range();
    if range == 0.0 {
        // A constant field: any positive bound works; pick the relative bound itself.
        return compress(data, rel_bound.max(f64::MIN_POSITIVE), config);
    }
    compress(data, rel_bound * range, config)
}

impl Compressed {
    /// Full-fidelity decompression (all bitplanes), returning the reconstructed
    /// field. Progressive retrieval goes through [`ProgressiveDecoder`] instead.
    pub fn decompress(&self) -> Result<ArrayD<f64>> {
        let mut dec = ProgressiveDecoder::new(self);
        Ok(dec.retrieve(RetrievalRequest::Full)?.data)
    }

    /// Compression ratio achieved against an uncompressed f64 representation.
    pub fn compression_ratio(&self) -> f64 {
        let original = self.header.num_elements() * std::mem::size_of::<f64>();
        original as f64 / self.total_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Interpolation;
    use ipc_metrics::linf_error;
    use ipc_tensor::Shape;

    fn smooth_field(shape: Shape) -> ArrayD<f64> {
        ArrayD::from_fn(shape, |c| {
            (c[0] as f64 * 0.2).sin()
                + (c.get(1).copied().unwrap_or(0) as f64 * 0.1).cos() * 2.0
                + c.last().copied().unwrap_or(0) as f64 * 0.01
        })
    }

    #[test]
    fn roundtrip_respects_error_bound_1d_2d_3d() {
        for dims in [vec![100usize], vec![33, 57], vec![20, 24, 28]] {
            let data = smooth_field(Shape::new(&dims));
            for eb in [1e-3, 1e-6] {
                let c = compress(&data, eb, &Config::default()).unwrap();
                let out = c.decompress().unwrap();
                let err = linf_error(data.as_slice(), out.as_slice());
                assert!(err <= eb * (1.0 + 1e-9), "dims {dims:?} eb {eb}: err {err}");
            }
        }
    }

    #[test]
    fn linear_and_cubic_both_bounded() {
        let data = smooth_field(Shape::d3(17, 19, 23));
        for interp in [Interpolation::Linear, Interpolation::Cubic] {
            let cfg = Config {
                interpolation: interp,
                ..Config::default()
            };
            let c = compress(&data, 1e-5, &cfg).unwrap();
            let out = c.decompress().unwrap();
            assert!(linf_error(data.as_slice(), out.as_slice()) <= 1e-5 * (1.0 + 1e-9));
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_field(Shape::d3(32, 32, 32));
        let c = compress_rel(&data, 1e-4, &Config::default()).unwrap();
        assert!(
            c.compression_ratio() > 5.0,
            "expected CR > 5, got {}",
            c.compression_ratio()
        );
    }

    #[test]
    fn tighter_bounds_compress_less() {
        let data = smooth_field(Shape::d3(24, 24, 24));
        let loose = compress_rel(&data, 1e-3, &Config::default()).unwrap();
        let tight = compress_rel(&data, 1e-8, &Config::default()).unwrap();
        assert!(loose.compression_ratio() > tight.compression_ratio());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let data = smooth_field(Shape::d2(10, 10));
        assert!(compress(&data, 0.0, &Config::default()).is_err());
        assert!(compress(&data, f64::NAN, &Config::default()).is_err());
        let mut bad = data.clone();
        bad.as_mut_slice()[5] = f64::INFINITY;
        assert!(compress(&bad, 1e-6, &Config::default()).is_err());
    }

    /// A bound the quantizer cannot keep is refused, not silently broken:
    /// beyond 2^52 steps a quotient has no fraction bit left (and past 2^63
    /// the code saturates), so `compress` used to return `Ok` with a
    /// container 33× (1e-17) or 5.7 absolute (1e-19) over its own bound.
    #[test]
    fn unkeepable_bounds_are_refused() {
        let data = ArrayD::from_fn(Shape::d2(33, 33), |c| {
            (c[0] as f64 * 0.37).sin() * (c[1] as f64 * 0.21).cos()
        });
        for eb in [1e-17, 1e-19] {
            match compress(&data, eb, &Config::default()) {
                Err(IpcompError::InvalidInput(msg)) => {
                    assert!(msg.contains(&format!("{eb:e}")), "bound not named: {msg}");
                    assert!(msg.contains("values in ["), "range not named: {msg}");
                }
                other => panic!("eb {eb:e}: expected InvalidInput, got {other:?}"),
            }
        }
        // Quotients up to 5e14 < 2^52: either side of the line is fine, a
        // broken bound is not.
        let eb = 1e-15;
        if let Ok(c) = compress(&data, eb, &Config::default()) {
            let out = c.decompress().unwrap();
            let err = linf_error(data.as_slice(), out.as_slice());
            assert!(err <= eb * (1.0 + 1e-9), "eb {eb:e}: err {err:e}");
        }
        // The anchors are quantized by the same operation.
        let tall = ArrayD::full(Shape::d1(3), 1e10);
        assert!(compress(&tall, 1e-9, &Config::default()).is_err());
        assert!(compress(&tall, 1e-5, &Config::default()).is_ok());
    }

    #[test]
    fn constant_field_roundtrips() {
        let data = ArrayD::full(Shape::d3(8, 8, 8), 3.25);
        let c = compress_rel(&data, 1e-6, &Config::default()).unwrap();
        let out = c.decompress().unwrap();
        assert!(linf_error(data.as_slice(), out.as_slice()) < 1e-6);
        // A constant field should compress extremely well (the container header and
        // level metadata are the only remaining cost on a 4 KiB input).
        assert!(c.compression_ratio() > 25.0, "CR {}", c.compression_ratio());
    }

    #[test]
    fn serialization_preserves_decompression() {
        let data = smooth_field(Shape::d3(16, 18, 14));
        let c = compress(&data, 1e-6, &Config::default()).unwrap();
        let bytes = c.to_bytes();
        let back = Compressed::from_bytes(&bytes).unwrap();
        let a = c.decompress().unwrap();
        let b = back.decompress().unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn parallel_and_serial_compression_agree() {
        let data = smooth_field(Shape::d3(20, 20, 20));
        let serial = compress(
            &data,
            1e-6,
            &Config {
                parallel_encoding: false,
                ..Config::default()
            },
        )
        .unwrap();
        let parallel = compress(
            &data,
            1e-6,
            &Config {
                parallel_encoding: true,
                ..Config::default()
            },
        )
        .unwrap();
        assert_eq!(serial.to_bytes(), parallel.to_bytes());
    }
}
