//! ZFP: the leading transform-based lossy compressor (paper Sec. 6.1.3), in its
//! fixed-accuracy (error-bounded) mode.
//!
//! ZFP partitions the field into 4^d blocks, decorrelates each block with a small
//! separable orthogonal transform, and codes the transform coefficients. It is the
//! fastest of the baselines because all work is local to a 64-element block, at the
//! price of lower compression ratios than prediction-based compressors on smooth
//! data. This implementation keeps that structure — 4^d blocks, a separable
//! orthonormal 4-point DCT-II transform, per-block coefficient coding — while using
//! the workspace's shared [`ipc_codecs::lzr`] backend for the final byte stream.

use ipc_codecs::byteio::{read_f64, write_f64};
use ipc_codecs::varint::{read_varint, write_varint};
use ipc_codecs::{lzr_compress, lzr_decompress, zigzag_decode, zigzag_encode};
use ipc_tensor::{ArrayD, Shape};

use crate::BaseCompressor;

const MAGIC: &[u8; 4] = b"ZFPr";
const BLOCK: usize = 4;

/// The ZFP baseline compressor (fixed-accuracy mode).
#[derive(Debug, Clone, Copy, Default)]
pub struct Zfp;

/// Orthonormal 4-point DCT-II matrix; `M[k][n]` maps sample `n` to coefficient `k`.
fn dct_matrix() -> [[f64; 4]; 4] {
    let mut m = [[0.0; 4]; 4];
    for (k, row) in m.iter_mut().enumerate() {
        for (n, v) in row.iter_mut().enumerate() {
            let c = if k == 0 { 0.5 } else { (0.5f64).sqrt() };
            *v = c * (std::f64::consts::PI * (2.0 * n as f64 + 1.0) * k as f64 / 8.0).cos();
        }
    }
    m
}

/// Worst-case amplification of coefficient-domain error into sample-domain error for
/// one application of the inverse transform (max absolute column sum of the inverse
/// matrix).
fn transform_gain() -> f64 {
    let m = dct_matrix();
    (0..4)
        .map(|n| (0..4).map(|k| m[k][n].abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Apply the transform (or its inverse) along one axis of a 4^d block stored in
/// row-major order with `extent` total elements.
fn transform_axis(block: &mut [f64], dims: usize, axis: usize, inverse: bool) {
    let m = dct_matrix();
    let stride = BLOCK.pow((dims - 1 - axis) as u32);
    let lines = block.len() / BLOCK;
    // Enumerate the starting offset of every line along `axis`.
    let mut starts = Vec::with_capacity(lines);
    for idx in 0..block.len() {
        let coord = (idx / stride) % BLOCK;
        if coord == 0 {
            starts.push(idx);
        }
    }
    let mut tmp = [0.0f64; BLOCK];
    for &s in &starts {
        for (k, t) in tmp.iter_mut().enumerate() {
            let mut acc = 0.0;
            for n in 0..BLOCK {
                let coef = if inverse { m[n][k] } else { m[k][n] };
                acc += coef * block[s + n * stride];
            }
            *t = acc;
        }
        for (n, &t) in tmp.iter().enumerate() {
            block[s + n * stride] = t;
        }
    }
}

fn forward_transform(block: &mut [f64], dims: usize) {
    for axis in 0..dims {
        transform_axis(block, dims, axis, false);
    }
}

fn inverse_transform(block: &mut [f64], dims: usize) {
    for axis in (0..dims).rev() {
        transform_axis(block, dims, axis, true);
    }
}

/// Iterate the block origins covering `shape` (each dimension stepped by 4).
fn block_origins(shape: &Shape) -> Vec<Vec<usize>> {
    let mut origins = vec![vec![]];
    for &d in shape.dims() {
        let mut next = Vec::new();
        for o in &origins {
            let mut start = 0;
            while start < d {
                let mut v = o.clone();
                v.push(start);
                next.push(v);
                start += BLOCK;
            }
        }
        origins = next;
    }
    origins
}

/// Gather a (possibly clamped) 4^d block starting at `origin`.
fn gather_block(data: &ArrayD<f64>, origin: &[usize]) -> Vec<f64> {
    let dims = data.shape().ndim();
    let n = BLOCK.pow(dims as u32);
    let mut block = vec![0.0; n];
    let sizes = data.shape().dims();
    for (i, v) in block.iter_mut().enumerate() {
        let mut rem = i;
        let mut coords = vec![0usize; dims];
        for d in (0..dims).rev() {
            coords[d] = origin[d] + rem % BLOCK;
            // Clamp (edge replication) for partial blocks at the boundary.
            coords[d] = coords[d].min(sizes[d] - 1);
            rem /= BLOCK;
        }
        *v = *data.get(&coords);
    }
    block
}

/// Scatter the valid part of a reconstructed block back into the output array.
fn scatter_block(out: &mut ArrayD<f64>, origin: &[usize], block: &[f64]) {
    let dims = out.shape().ndim();
    let sizes = out.shape().dims().to_vec();
    for (i, &v) in block.iter().enumerate() {
        let mut rem = i;
        let mut coords = vec![0usize; dims];
        let mut valid = true;
        for d in (0..dims).rev() {
            let c = origin[d] + rem % BLOCK;
            if c >= sizes[d] {
                valid = false;
            }
            coords[d] = c.min(sizes[d] - 1);
            rem /= BLOCK;
        }
        if valid {
            *out.get_mut(&coords) = v;
        }
    }
}

impl BaseCompressor for Zfp {
    fn name(&self) -> &'static str {
        "ZFP"
    }

    fn compress(&self, data: &ArrayD<f64>, error_bound: f64) -> Vec<u8> {
        assert!(
            error_bound.is_finite() && error_bound > 0.0,
            "error bound must be positive"
        );
        let shape = data.shape().clone();
        let dims = shape.ndim();
        let gain = transform_gain().powi(dims as i32);
        let step = 2.0 * error_bound / gain;

        let mut codes: Vec<i64> = Vec::with_capacity(shape.len());
        for origin in block_origins(&shape) {
            let mut block = gather_block(data, &origin);
            forward_transform(&mut block, dims);
            for v in &block {
                codes.push((v / step).round() as i64);
            }
        }

        let mut raw = Vec::with_capacity(codes.len() * 2);
        for &c in &codes {
            write_varint(&mut raw, zigzag_encode(c));
        }
        let packed = lzr_compress(&raw);

        let mut out = Vec::with_capacity(packed.len() + 64);
        out.extend_from_slice(MAGIC);
        write_varint(&mut out, dims as u64);
        for &d in shape.dims() {
            write_varint(&mut out, d as u64);
        }
        write_f64(&mut out, error_bound);
        write_varint(&mut out, packed.len() as u64);
        out.extend_from_slice(&packed);
        out
    }

    fn decompress(&self, bytes: &[u8]) -> ArrayD<f64> {
        let mut pos = 0usize;
        assert_eq!(&bytes[0..4], MAGIC, "not a ZFP stream");
        pos += 4;
        let ndim = read_varint(bytes, &mut pos).expect("ndim") as usize;
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            dims.push(read_varint(bytes, &mut pos).expect("dim") as usize);
        }
        let shape = Shape::new(&dims);
        let error_bound = read_f64(bytes, &mut pos).expect("eb");
        let packed_len = read_varint(bytes, &mut pos).expect("len") as usize;
        let packed = &bytes[pos..pos + packed_len];
        let raw = lzr_decompress(packed).expect("lossless stage");

        let gain = transform_gain().powi(ndim as i32);
        let step = 2.0 * error_bound / gain;
        let mut rpos = 0usize;
        let block_len = BLOCK.pow(ndim as u32);
        let mut out = ArrayD::zeros(shape.clone());
        for origin in block_origins(&shape) {
            let mut block = Vec::with_capacity(block_len);
            for _ in 0..block_len {
                let v = zigzag_decode(read_varint(&raw, &mut rpos).expect("code"));
                block.push(v as f64 * step);
            }
            inverse_transform(&mut block, ndim);
            scatter_block(&mut out, &origin, &block);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipc_metrics::linf_error;

    fn field(shape: Shape) -> ArrayD<f64> {
        ArrayD::from_fn(shape, |c| {
            (c[0] as f64 * 0.3).sin() * 2.0
                + (c.get(1).copied().unwrap_or(0) as f64 * 0.15).cos()
                + c.last().copied().unwrap_or(0) as f64 * 0.02
        })
    }

    #[test]
    fn transform_is_orthonormal() {
        let m = dct_matrix();
        for i in 0..4 {
            for j in 0..4 {
                let dot: f64 = (0..4).map(|n| m[i][n] * m[j][n]).sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-12, "rows {i},{j}: {dot}");
            }
        }
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        for dims in 1..=3usize {
            let n = BLOCK.pow(dims as u32);
            let mut block: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 5.0).collect();
            let orig = block.clone();
            forward_transform(&mut block, dims);
            inverse_transform(&mut block, dims);
            for (a, b) in orig.iter().zip(&block) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn roundtrip_respects_error_bound() {
        for dims in [vec![37usize], vec![17, 23], vec![13, 14, 15]] {
            let data = field(Shape::new(&dims));
            for eb in [1e-2, 1e-5] {
                let blob = Zfp.compress(&data, eb);
                let out = Zfp.decompress(&blob);
                let err = linf_error(data.as_slice(), out.as_slice());
                assert!(err <= eb * (1.0 + 1e-9), "dims {dims:?} eb {eb}: {err}");
            }
        }
    }

    #[test]
    fn non_multiple_of_four_shapes_handled() {
        let data = field(Shape::d3(5, 9, 6));
        let blob = Zfp.compress(&data, 1e-4);
        let out = Zfp.decompress(&blob);
        assert_eq!(out.shape(), data.shape());
        assert!(linf_error(data.as_slice(), out.as_slice()) <= 1e-4 * (1.0 + 1e-9));
    }

    #[test]
    fn smooth_data_compresses() {
        let data = field(Shape::d3(32, 32, 32));
        let blob = Zfp.compress(&data, 1e-3 * data.value_range());
        let cr = (data.len() * 8) as f64 / blob.len() as f64;
        assert!(cr > 2.0, "CR {cr}");
    }
}
