//! PMGARD: progressive retrieval on top of the MGARD decomposition (paper
//! Sec. 6.1.3, after Liang et al. SC'21 and Wu et al. SC'24).
//!
//! The multilevel coefficients of the [`crate::mgard`] decomposition are encoded
//! per level with the same negabinary bitplane machinery IPComp uses, so a retrieval
//! can load only a subset of planes per level. Because the decomposition is a
//! transform of the original data, the error introduced by skipped planes adds
//! linearly across levels, and a greedy most-error-reduction-per-byte loader picks
//! which planes to fetch for a requested bound or byte budget.

use ipc_tensor::{ArrayD, Shape};
use ipcomp::bitplane::{decode_level, encode_level, EncodedLevel};
use ipcomp::interp::num_levels;
use ipcomp::quantize::{dequantize, quantize};

use crate::mgard::{decompose, level_bound, synthesize};
use crate::{ProgressiveArchive, ProgressiveScheme, Retrieved};

/// The PMGARD progressive compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pmgard;

/// Archive produced by [`Pmgard`]: per-section bitplane-encoded coefficients.
pub struct PmgardArchive {
    shape: Shape,
    /// Per-level quantization bound (uniform across levels).
    eb_level: f64,
    /// Anchor coefficients, always loaded (stored quantized for size accounting).
    anchors: Vec<i64>,
    anchor_bytes: usize,
    /// One encoded section per interpolation level, coarse → fine.
    sections: Vec<EncodedLevel>,
    /// Error amplification of each section's coefficient error at the output.
    amplification: Vec<f64>,
}

impl ProgressiveScheme for Pmgard {
    fn name(&self) -> &'static str {
        "PMGARD"
    }

    fn compress(&self, data: &ArrayD<f64>, error_bound: f64) -> Box<dyn ProgressiveArchive> {
        assert!(
            error_bound.is_finite() && error_bound > 0.0,
            "error bound must be positive"
        );
        let shape = data.shape().clone();
        let levels = num_levels(&shape);
        let ndim = shape.ndim();
        let eb_level = level_bound(error_bound, levels, ndim);
        let (anchors_f, coeffs) = decompose(data);

        let anchors: Vec<i64> = anchors_f.iter().map(|&a| quantize(a, eb_level)).collect();
        let anchor_bytes = anchors.len() * 4 + 64;

        let mut sections = Vec::with_capacity(coeffs.len());
        let mut amplification = Vec::with_capacity(coeffs.len());
        for (idx, level_coeffs) in coeffs.iter().enumerate() {
            let codes: Vec<i64> = level_coeffs
                .iter()
                .map(|&c| quantize(c, eb_level))
                .collect();
            sections.push(encode_level(&codes, 2, true, false));
            // Level number: coarsest first. Multilinear prediction has unit gain, so
            // each skipped-plane error can be amplified at most `ndim` times per
            // remaining level on its way to the finest output.
            let level = levels - idx as u32;
            amplification.push(ndim as f64 * (level as f64));
        }

        Box::new(PmgardArchive {
            shape,
            eb_level,
            anchors,
            anchor_bytes,
            sections,
            amplification,
        })
    }
}

impl PmgardArchive {
    /// Worst-case output error when `discard[idx]` planes are dropped per section.
    fn error_for(&self, discard: &[u8]) -> f64 {
        let mut err = self.eb_level * (self.sections.len() as f64 + 1.0) * self.shape.ndim() as f64;
        for (idx, section) in self.sections.iter().enumerate() {
            let loss = section.trunc_loss[discard[idx] as usize] as f64;
            err += self.amplification[idx] * loss * 2.0 * self.eb_level;
        }
        err
    }

    fn bytes_for(&self, discard: &[u8]) -> usize {
        self.anchor_bytes
            + self
                .sections
                .iter()
                .enumerate()
                .map(|(i, s)| s.loaded_bytes(discard[i]))
                .sum::<usize>()
    }

    /// Greedy plane selection: starting from "discard everything", repeatedly load
    /// the plane with the best error-reduction per byte while `keep_going` allows.
    fn greedy_plan(&self, mut keep_going: impl FnMut(f64, usize) -> bool) -> Vec<u8> {
        let mut discard: Vec<u8> = self.sections.iter().map(|s| s.num_planes).collect();
        loop {
            let current_err = self.error_for(&discard);
            let current_bytes = self.bytes_for(&discard);
            if !keep_going(current_err, current_bytes) {
                return discard;
            }
            // Find the single plane whose loading buys the most error per byte.
            let mut best: Option<(usize, f64)> = None;
            for idx in 0..self.sections.len() {
                if discard[idx] == 0 {
                    continue;
                }
                let mut trial = discard.clone();
                trial[idx] -= 1;
                let gain = current_err - self.error_for(&trial);
                let cost = (self.bytes_for(&trial) - current_bytes).max(1);
                let score = gain / cost as f64;
                if best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((idx, score));
                }
            }
            match best {
                Some((idx, _)) => discard[idx] -= 1,
                None => return discard,
            }
        }
    }

    fn reconstruct(&self, discard: &[u8]) -> Retrieved {
        let anchors_f: Vec<f64> = self
            .anchors
            .iter()
            .map(|&q| dequantize(q, self.eb_level))
            .collect();
        let mut coeffs = Vec::with_capacity(self.sections.len());
        for (idx, section) in self.sections.iter().enumerate() {
            let loaded = section.num_planes - discard[idx];
            let codes = decode_level(section, loaded, 2, true).expect("well-formed section");
            coeffs.push(
                codes
                    .into_iter()
                    .map(|q| dequantize(q, self.eb_level))
                    .collect::<Vec<f64>>(),
            );
        }
        Retrieved {
            data: synthesize(&self.shape, &anchors_f, &coeffs),
            bytes_loaded: self.bytes_for(discard),
            passes: 1,
        }
    }
}

impl ProgressiveArchive for PmgardArchive {
    fn total_bytes(&self) -> usize {
        self.anchor_bytes
            + self
                .sections
                .iter()
                .map(EncodedLevel::payload_bytes)
                .sum::<usize>()
    }

    fn retrieve_error_bound(&self, target: f64) -> Retrieved {
        let discard = self.greedy_plan(|err, _| err > target);
        self.reconstruct(&discard)
    }

    fn retrieve_size_budget(&self, max_bytes: usize) -> Retrieved {
        // Load planes in greedy best-error-reduction-per-byte order, applying a load
        // only if it keeps the total within the budget (skipped planes stay skipped —
        // a cheaper plane elsewhere may still fit).
        let mut discard: Vec<u8> = self.sections.iter().map(|s| s.num_planes).collect();
        loop {
            let current_err = self.error_for(&discard);
            let current_bytes = self.bytes_for(&discard);
            let mut best: Option<(usize, f64)> = None;
            for idx in 0..self.sections.len() {
                if discard[idx] == 0 {
                    continue;
                }
                let mut trial = discard.clone();
                trial[idx] -= 1;
                let trial_bytes = self.bytes_for(&trial);
                if trial_bytes > max_bytes {
                    continue;
                }
                let gain = current_err - self.error_for(&trial);
                let cost = (trial_bytes - current_bytes).max(1);
                let score = gain / cost as f64;
                if best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((idx, score));
                }
            }
            match best {
                Some((idx, _)) => discard[idx] -= 1,
                None => break,
            }
        }
        self.reconstruct(&discard)
    }

    fn retrieve_full(&self) -> Retrieved {
        let discard = vec![0u8; self.sections.len()];
        self.reconstruct(&discard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipc_metrics::linf_error;

    fn field() -> ArrayD<f64> {
        ArrayD::from_fn(Shape::d3(14, 16, 12), |c| {
            (c[0] as f64 * 0.3).sin() * 2.0 + (c[1] as f64 * 0.2).cos() + c[2] as f64 * 0.04
        })
    }

    #[test]
    fn full_retrieval_respects_bound() {
        let data = field();
        let eb = 1e-5;
        let archive = Pmgard.compress(&data, eb);
        let out = archive.retrieve_full();
        let err = linf_error(data.as_slice(), out.data.as_slice());
        assert!(err <= eb * (1.0 + 1e-9), "err {err}");
    }

    #[test]
    fn coarse_retrieval_loads_less_and_respects_target() {
        let data = field();
        let archive = Pmgard.compress(&data, 1e-7);
        let coarse = archive.retrieve_error_bound(1e-2);
        let full = archive.retrieve_full();
        assert!(coarse.bytes_loaded < full.bytes_loaded);
        let err = linf_error(data.as_slice(), coarse.data.as_slice());
        assert!(err <= 1e-2 * (1.0 + 1e-9), "err {err}");
    }

    #[test]
    fn size_budget_is_respected() {
        let data = field();
        let archive = Pmgard.compress(&data, 1e-7);
        let total = archive.total_bytes();
        let out = archive.retrieve_size_budget(total / 2);
        assert!(out.bytes_loaded <= total / 2 + 64);
    }
}
