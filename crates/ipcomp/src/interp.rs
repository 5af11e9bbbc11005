//! Multilevel interpolation predictor (paper Sec. 4.1 and Fig. 3).
//!
//! The input grid is partitioned into orthogonal levels by a shrinking stride: level
//! `l` (1 = finest) owns the points that lie on the `2^(l-1)` lattice but not on the
//! `2^l` lattice, and the *anchor* points (all coordinates multiples of `2^L`) seed
//! the whole cascade and are predicted from zero (Algorithm 1, line 2).
//!
//! Within a level the predictor sweeps the dimensions in order; along the active
//! dimension each target (at an odd multiple of the stride) is interpolated from its
//! already-known neighbours at `±stride` (linear) or `±stride, ±3·stride` (cubic),
//! falling back to lower-order formulas at the domain boundary.
//!
//! This module owns the sweep's *geometry* and its *predictor*: which points a
//! level's dimension passes visit and in what order (`for_each_level_pass`,
//! `sweep_runs`), and what a target is predicted from, boundary fallbacks
//! included (`predict_point_read`). The loop body that walks a run lives once,
//! in [`crate::cascade`]'s run kernels, generic over what happens at a point
//! after it is predicted; [`crate::compress`] (quantize and record), the
//! decoder's [`crate::cascade::CascadeEngine`] (add the dequantized code) and
//! [`process_level`] (the caller's closure) are that one body with three
//! operations — which is what guarantees that the decompressor reproduces the
//! compressor's predictions bit for bit.
//!
//! The referee for all of them is `process_level_pointwise` (tests and the
//! `reference-scalar` feature): [`process_level`]'s contract evaluated one
//! point at a time on a bounds-checked slice, sharing only the geometry and
//! the predictor with the run kernels.

use crate::cascade::{sweep_level, Visit};
use crate::config::Interpolation;
use ipc_tensor::{AxisRange, GridIter, Shape};

/// Number of interpolation levels for a shape: `ceil(log2(max_dim))`, at least 1.
pub fn num_levels(shape: &Shape) -> u32 {
    let max_dim = shape.max_dim();
    if max_dim <= 2 {
        1
    } else {
        (usize::BITS - (max_dim - 1).leading_zeros()).max(1)
    }
}

/// Stride of a level: `2^(level-1)`.
pub fn level_stride(level: u32) -> usize {
    1usize << (level - 1)
}

/// Number of points owned by the anchor grid (stride `2^L` in every dimension).
pub fn anchor_count(shape: &Shape) -> usize {
    let stride = level_stride(num_levels(shape) + 1);
    shape.dims().iter().map(|&d| (d - 1) / stride + 1).product()
}

/// Number of points owned by level `level` (i.e. predicted during that level).
pub fn level_count(shape: &Shape, level: u32) -> usize {
    let mut count = 0usize;
    for_each_level_pass(shape, level_stride(level), |_, ranges| {
        count += GridIter::new(shape, ranges).total();
    });
    count
}

/// Invoke `f` with the active dimension and per-dimension axis ranges of every
/// dimension pass of a level. This is the single source of the level traversal
/// geometry, shared by [`process_level`], [`level_count`], and the streaming
/// cascade engine ([`crate::cascade`]).
pub(crate) fn for_each_level_pass(
    shape: &Shape,
    stride: usize,
    mut f: impl FnMut(usize, Vec<AxisRange>),
) {
    let dims = shape.dims();
    let ndim = dims.len();
    for d in 0..ndim {
        if stride >= dims[d] {
            // No odd multiple of `stride` fits in this dimension.
            continue;
        }
        let mut ranges = Vec::with_capacity(ndim);
        for (e, &len) in dims.iter().enumerate() {
            let range = if e < d {
                // Dimensions already swept in this level: full `stride` lattice.
                AxisRange::strided(0, stride, len)
            } else if e == d {
                // Active dimension: odd multiples of `stride`.
                AxisRange::strided(stride, 2 * stride, len)
            } else {
                // Dimensions not yet swept: still on the coarser `2·stride` lattice.
                AxisRange::strided(0, 2 * stride, len)
            };
            ranges.push(range);
        }
        f(d, ranges);
    }
}

/// The per-dimension axis ranges of the anchor lattice (all coordinates
/// multiples of the anchor stride).
pub(crate) fn anchor_ranges(shape: &Shape) -> Vec<AxisRange> {
    let stride = level_stride(num_levels(shape) + 1);
    shape
        .dims()
        .iter()
        .map(|&len| AxisRange::strided(0, stride, len))
        .collect()
}

/// Compute the interpolation prediction for a target point.
///
/// `offset` is the flat index of the target, `coord` its coordinate along the active
/// dimension `d`, `dim_len`/`dim_stride` the size and flat stride of that dimension,
/// and `read` the access to already-reconstructed values (the run kernels'
/// concurrent sub-pass rows cannot hold an aliased `&[f64]`; the referee
/// indexes its slice). This is the single source of truth for the
/// boundary-fallback semantics: the run kernels evaluate their head and tail
/// points through it and their uniform interiors in its operation order.
#[inline]
pub(crate) fn predict_point_read(
    read: impl Fn(usize) -> f64,
    offset: usize,
    coord: usize,
    dim_len: usize,
    dim_stride: usize,
    stride: usize,
    method: Interpolation,
) -> f64 {
    let prev = read(offset - stride * dim_stride);
    let has_next = coord + stride < dim_len;
    if !has_next {
        // Boundary: only the previous neighbour exists.
        return prev;
    }
    let next = read(offset + stride * dim_stride);
    match method {
        Interpolation::Linear => 0.5 * (prev + next),
        Interpolation::Cubic => {
            let has_prev3 = coord >= 3 * stride;
            let has_next3 = coord + 3 * stride < dim_len;
            if has_prev3 && has_next3 {
                let prev3 = read(offset - 3 * stride * dim_stride);
                let next3 = read(offset + 3 * stride * dim_stride);
                -0.0625 * prev3 + 0.5625 * prev + 0.5625 * next - 0.0625 * next3
            } else {
                0.5 * (prev + next)
            }
        }
    }
}

/// One innermost-dimension run of a sub-lattice sweep: `count` points starting
/// at flat offset `base`, `step` elements apart. The active-dimension
/// coordinate of point `t` is `coord + t · coord_step` (`coord_step` is zero
/// when the active dimension is not the innermost, so the whole run shares one
/// coordinate and therefore one boundary case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SweepRun {
    /// Flat offset of the first point.
    pub base: usize,
    /// Number of points in the run.
    pub count: usize,
    /// Element step between consecutive points.
    pub step: usize,
    /// Active-dimension coordinate of the first point.
    pub coord: usize,
    /// Active-dimension coordinate increment per point (0 unless the active
    /// dimension is the innermost).
    pub coord_step: usize,
}

/// Row-major traversal of the sub-lattice described by `ranges`, invoking `f`
/// once per innermost run. Runs arrive in exactly the order their points are
/// visited by `GridIter::new(shape, ranges)`; concatenating them point by
/// point reproduces that iteration.
///
/// This is the core of the hot loop of both compression and decompression:
/// where the generic [`GridIter`] pays a coordinate-vector clone and an
/// odometer carry chain per point, this sweep specializes the innermost
/// dimension to a direct strided run and only advances the odometer across the
/// outer dimensions once per run — and it exposes whole runs so the run
/// kernels ([`crate::cascade`]) can classify each one once.
pub(crate) fn sweep_runs(
    strides: &[usize],
    ranges: &[AxisRange],
    d: usize,
    mut f: impl FnMut(SweepRun),
) {
    if ranges.iter().any(|r| r.count() == 0) {
        return;
    }
    let last = ranges.len() - 1;
    let inner = ranges[last];
    let inner_count = inner.count();
    let inner_step = inner.step * strides[last];
    // Odometer state over the outer dimensions; `base` already includes the
    // inner dimension's start offset.
    let mut coords: Vec<usize> = ranges[..last].iter().map(|r| r.start).collect();
    let mut base: usize = coords
        .iter()
        .zip(strides)
        .map(|(&c, &s)| c * s)
        .sum::<usize>()
        + inner.start * strides[last];
    loop {
        let (coord, coord_step) = if d == last {
            // The active dimension is the innermost: its coordinate advances
            // with the run.
            (inner.start, inner.step)
        } else {
            // The active coordinate is constant along the innermost run.
            (coords[d], 0)
        };
        f(SweepRun {
            base,
            count: inner_count,
            step: inner_step,
            coord,
            coord_step,
        });
        // Advance the outer odometer (row-major: dimension `last-1` fastest).
        let mut dim = last;
        loop {
            if dim == 0 {
                return;
            }
            dim -= 1;
            let r = ranges[dim];
            let next = coords[dim] + r.step;
            if next < r.end {
                coords[dim] = next;
                base += r.step * strides[dim];
                break;
            }
            base -= (coords[dim] - r.start) * strides[dim];
            coords[dim] = r.start;
        }
    }
}

/// Per-point form of [`sweep_runs`]: `visit(offset, coord_d)` for every point.
#[cfg(any(test, feature = "reference-scalar"))]
fn sweep_ranges(
    strides: &[usize],
    ranges: &[AxisRange],
    d: usize,
    mut visit: impl FnMut(usize, usize),
) {
    sweep_runs(strides, ranges, d, |run| {
        let mut offset = run.base;
        let mut coord = run.coord;
        for _ in 0..run.count {
            visit(offset, coord);
            offset += run.step;
            coord += run.coord_step;
        }
    });
}

/// Visit every anchor point (all coordinates multiples of the anchor stride) in
/// deterministic row-major order. For each anchor, `f(offset, prediction)` is called
/// with a prediction of `0.0` and must return the value to store into `work[offset]`.
pub fn process_anchors(shape: &Shape, work: &mut [f64], mut f: impl FnMut(usize, f64) -> f64) {
    let ranges = anchor_ranges(shape);
    sweep_runs(shape.strides(), &ranges, 0, |run| {
        for offset in (run.base..).step_by(run.step).take(run.count) {
            work[offset] = f(offset, 0.0);
        }
    });
}

/// Visit every target point of `level` in deterministic order. For each target,
/// the prediction is computed from `work` and `f(offset, prediction)` is called; its
/// return value is stored into `work[offset]` before the traversal moves on (so later
/// targets in the same level see reconstructed values, exactly as in decompression).
///
/// This is the run-kernel sweep ([`crate::cascade`]) with `f` as the per-point
/// operation.
///
/// # Panics
///
/// Panics if `work` is shorter than the field.
pub fn process_level(
    shape: &Shape,
    level: u32,
    method: Interpolation,
    work: &mut [f64],
    f: impl FnMut(usize, f64) -> f64,
) {
    sweep_level(shape, level, method, work, Visit(f));
}

/// The referee for [`process_level`] and every sweep built on the run
/// kernels: the same contract evaluated point by point — one
/// `predict_point_read` and one bounds-checked store per target, no run
/// classification, no raw pointers. Tests hold the run kernels (both
/// directions) to it bit for bit; an engine bound to it with
/// `CascadeEngine::with_kernel` decodes through it.
#[cfg(any(test, feature = "reference-scalar"))]
pub fn process_level_pointwise(
    shape: &Shape,
    level: u32,
    method: Interpolation,
    work: &mut [f64],
    mut f: impl FnMut(usize, f64) -> f64,
) {
    let stride = level_stride(level);
    let (dims, strides) = (shape.dims(), shape.strides());
    for_each_level_pass(shape, stride, |d, ranges| {
        sweep_ranges(strides, &ranges, d, |offset, coord_d| {
            let pred = predict_point_read(
                |i| work[i],
                offset,
                coord_d,
                dims[d],
                strides[d],
                stride,
                method,
            );
            work[offset] = f(offset, pred);
        });
    });
}

/// Total number of points across anchors and all levels — must equal `shape.len()`.
///
/// Exposed for tests and for container sanity checks.
pub fn total_points(shape: &Shape) -> usize {
    let levels = num_levels(shape);
    let mut total = anchor_count(shape);
    for l in 1..=levels {
        total += level_count(shape, l);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipc_tensor::ArrayD;

    #[test]
    fn level_count_partition_is_exact() {
        for dims in [
            vec![16usize],
            vec![17],
            vec![8, 8],
            vec![7, 13],
            vec![16, 20, 20],
            vec![5, 9, 33],
            vec![2, 2, 2],
            vec![1, 50, 3],
        ] {
            let shape = Shape::new(&dims);
            assert_eq!(
                total_points(&shape),
                shape.len(),
                "partition mismatch for {dims:?}"
            );
        }
    }

    #[test]
    fn every_point_visited_exactly_once() {
        let shape = Shape::d3(9, 12, 7);
        let mut visits = vec![0u32; shape.len()];
        let mut work = vec![0.0; shape.len()];
        process_anchors(&shape, &mut work, |off, _| {
            visits[off] += 1;
            0.0
        });
        for level in (1..=num_levels(&shape)).rev() {
            process_level(&shape, level, Interpolation::Linear, &mut work, |off, _| {
                visits[off] += 1;
                0.0
            });
        }
        assert!(visits.iter().all(|&v| v == 1), "visits: {visits:?}");
    }

    #[test]
    fn sweep_ranges_matches_grid_iter_order() {
        // The specialized run sweep must visit exactly the offsets GridIter
        // yields, in the same order, with the right active-dimension coordinate.
        for dims in [vec![9usize], vec![5, 8], vec![4, 7, 6], vec![3, 2, 5, 4]] {
            let shape = Shape::new(&dims);
            let ndim = dims.len();
            for d in 0..ndim {
                let ranges: Vec<AxisRange> = dims
                    .iter()
                    .enumerate()
                    .map(|(e, &len)| {
                        if e == d {
                            AxisRange::strided(1, 2, len)
                        } else {
                            AxisRange::strided(0, 2, len)
                        }
                    })
                    .collect();
                let mut got: Vec<(usize, usize)> = Vec::new();
                sweep_ranges(shape.strides(), &ranges, d, |off, coord| {
                    got.push((off, coord));
                });
                let want: Vec<(usize, usize)> = GridIter::new(&shape, ranges)
                    .map(|(coords, off)| (off, coords[d]))
                    .collect();
                assert_eq!(got, want, "dims {dims:?} active dim {d}");
            }
        }
    }

    #[test]
    fn num_levels_grows_with_dimension() {
        assert_eq!(num_levels(&Shape::d1(2)), 1);
        assert_eq!(num_levels(&Shape::d1(3)), 2);
        assert_eq!(num_levels(&Shape::d1(4)), 2);
        assert_eq!(num_levels(&Shape::d1(5)), 3);
        assert_eq!(num_levels(&Shape::d1(9)), 4);
        assert_eq!(num_levels(&Shape::d1(1024)), 10);
        assert_eq!(num_levels(&Shape::d3(256, 384, 384)), 9);
    }

    #[test]
    fn linear_ramp_has_zero_interior_residuals() {
        // A perfectly linear field is predicted exactly by linear interpolation away
        // from boundary fallbacks, so residuals there must vanish.
        let shape = Shape::d2(17, 17);
        let field = ArrayD::from_fn(shape.clone(), |c| c[0] as f64 + 2.0 * c[1] as f64);
        let orig = field.as_slice().to_vec();
        let mut work = orig.clone();
        let mut nonzero = 0usize;
        let mut interior = 0usize;
        process_anchors(&shape, &mut work, |off, _| orig[off]);
        for level in (1..=num_levels(&shape)).rev() {
            process_level(
                &shape,
                level,
                Interpolation::Linear,
                &mut work,
                |off, pred| {
                    let resid = orig[off] - pred;
                    if resid.abs() > 1e-12 {
                        nonzero += 1;
                    }
                    interior += 1;
                    orig[off]
                },
            );
        }
        assert!(interior > 0);
        // Only boundary-fallback targets may have nonzero residuals; they are a thin
        // O(n^(d-1)/n) fraction of the 17x17 grid.
        assert!(
            (nonzero as f64) < 0.30 * interior as f64,
            "nonzero {nonzero} of {interior}"
        );
    }

    #[test]
    fn cubic_reproduces_cubic_polynomial_in_interior() {
        let shape = Shape::d1(33);
        let poly = |x: f64| 0.5 * x * x * x - 2.0 * x * x + 3.0 * x - 7.0;
        let orig: Vec<f64> = (0..33).map(|i| poly(i as f64)).collect();
        let mut work = orig.clone();
        process_anchors(&shape, &mut work, |off, _| orig[off]);
        // Only check the finest level where all four cubic neighbours exist away from
        // boundaries.
        let mut max_err = 0.0f64;
        for level in (1..=num_levels(&shape)).rev() {
            process_level(
                &shape,
                level,
                Interpolation::Cubic,
                &mut work,
                |off, pred| {
                    if level == 1 && off >= 3 && off + 3 < 33 {
                        max_err = max_err.max((orig[off] - pred).abs());
                    }
                    orig[off]
                },
            );
        }
        assert!(max_err < 1e-9, "cubic interior error {max_err}");
    }

    #[test]
    fn reconstruction_matches_when_residuals_are_exact() {
        // Feeding back `pred + residual` with exact residuals reproduces the input.
        let shape = Shape::d3(6, 11, 5);
        let field = ArrayD::from_fn(shape.clone(), |c| {
            (c[0] as f64 * 0.7).sin() + (c[1] as f64 * 0.3).cos() + c[2] as f64
        });
        let orig = field.as_slice().to_vec();

        // Compression pass: record residuals in traversal order.
        let mut residuals = Vec::new();
        let mut work = vec![0.0; shape.len()];
        process_anchors(&shape, &mut work, |off, pred| {
            residuals.push(orig[off] - pred);
            orig[off]
        });
        for level in (1..=num_levels(&shape)).rev() {
            process_level(
                &shape,
                level,
                Interpolation::Cubic,
                &mut work,
                |off, pred| {
                    residuals.push(orig[off] - pred);
                    orig[off]
                },
            );
        }

        // Decompression pass: replay residuals in the same order.
        let mut replay = residuals.into_iter();
        let mut out = vec![0.0; shape.len()];
        process_anchors(&shape, &mut out, |_, pred| pred + replay.next().unwrap());
        for level in (1..=num_levels(&shape)).rev() {
            process_level(&shape, level, Interpolation::Cubic, &mut out, |_, pred| {
                pred + replay.next().unwrap()
            });
        }
        for (a, b) in orig.iter().zip(&out) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// The encode direction on the point-wise referee: anchors, per-level
    /// codes (coarsest first) and the reconstruction the decoder will see.
    fn pointwise_encode(
        data: &ArrayD<f64>,
        method: Interpolation,
        eb: f64,
    ) -> (Vec<i64>, Vec<Vec<i64>>, Vec<f64>) {
        use crate::quantize::dequantize;
        let (shape, orig) = (data.shape(), data.as_slice());
        let mut work = vec![0.0; shape.len()];
        let mut anchors = Vec::new();
        process_anchors(shape, &mut work, |off, pred| {
            let q = ((orig[off] - pred) / (2.0 * eb)).round() as i64;
            anchors.push(q);
            pred + dequantize(q, eb)
        });
        let levels = (1..=num_levels(shape))
            .rev()
            .map(|level| {
                let mut codes = Vec::new();
                process_level_pointwise(shape, level, method, &mut work, |off, pred| {
                    let q = ((orig[off] - pred) / (2.0 * eb)).round() as i64;
                    codes.push(q);
                    pred + dequantize(q, eb)
                });
                codes
            })
            .collect();
        (anchors, levels, work)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Both users of the run-kernel sweep in the encode direction —
        /// `compress` (the `Quantize` operation) and `process_level` (a
        /// closure as the operation) — against the point-wise referee with
        /// libm rounding: codes and reconstruction bit-equal on 1–4-D shapes
        /// down to extents of 1, both predictors, bounds over 12 decades.
        #[test]
        fn prop_encode_sweeps_match_pointwise_referee(
            dims in proptest::collection::vec(1usize..=9, 1..5),
            stretch in 1usize..=8,
            seed in proptest::prelude::any::<u64>(),
            cubic in proptest::prelude::any::<bool>(),
            eb_exp in 0i32..12,
        ) {
            use crate::quantize::{dequantize, quantize};
            // One long axis for the interior kernels; the rest stay small
            // (extents 1, 2, 3 and odd ones all occur).
            let mut dims = dims;
            let at = seed as usize % dims.len();
            dims[at] = (dims[at] * stretch).min(4000 / dims.iter().product::<usize>()).max(1);
            let shape = Shape::new(&dims);
            let method = if cubic { Interpolation::Cubic } else { Interpolation::Linear };
            let eb = 10f64.powi(-eb_exp);
            let data = ArrayD::from_fn(shape.clone(), |c| {
                let mut h = seed;
                let mut smooth = 0.0;
                for (i, &x) in c.iter().enumerate() {
                    h = (h ^ x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    smooth += (x as f64 * (0.3 + 0.1 * i as f64)).sin();
                }
                smooth + (h >> 40) as f64 / (1u64 << 24) as f64 * 0.05
            });
            let (anchors, levels, recon) = pointwise_encode(&data, method, eb);

            // Through `process_level`.
            let orig = data.as_slice();
            let mut work = vec![0.0; shape.len()];
            process_anchors(&shape, &mut work, |off, pred| {
                pred + dequantize(quantize(orig[off] - pred, eb), eb)
            });
            for (idx, want) in levels.iter().enumerate() {
                let mut codes = Vec::new();
                process_level(&shape, num_levels(&shape) - idx as u32, method, &mut work, |off, pred| {
                    let q = quantize(orig[off] - pred, eb);
                    codes.push(q);
                    pred + dequantize(q, eb)
                });
                proptest::prop_assert_eq!(&codes, want, "process_level codes, dims {:?} level idx {}", &dims, idx);
            }
            proptest::prop_assert_eq!(bits(&work), bits(&recon), "process_level field, dims {:?}", &dims);

            // Through `compress` (and back through the decoder's direction
            // of the same sweep).
            let config = crate::Config { interpolation: method, ..crate::Config::default() };
            let c = crate::compress(&data, eb, &config).unwrap();
            proptest::prop_assert_eq!(crate::container::decode_anchors_bounded(&c.anchors, anchors.len()).unwrap(), anchors);
            for (level, want) in c.levels.iter().zip(&levels) {
                let got = crate::bitplane::decode_level(
                    level, level.num_planes, config.prefix_bits, config.predictive_coding,
                ).unwrap();
                proptest::prop_assert_eq!(&got, want, "compress codes, dims {:?}", &dims);
            }
            let out = c.decompress().unwrap();
            proptest::prop_assert_eq!(bits(out.as_slice()), bits(&recon), "compress field, dims {:?}", &dims);
        }
    }

    #[test]
    fn anchor_count_small_relative_to_grid() {
        let shape = Shape::d3(64, 96, 96);
        assert!(anchor_count(&shape) * 100 < shape.len());
    }
}
