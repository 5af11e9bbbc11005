//! Independent-per-step baseline for the time-series archive experiments.
//!
//! The natural alternative to `ipcomp::archive`'s cross-timestep residual
//! chains is to compress every snapshot as its own standalone container at
//! the same finest bound. [`IndependentSteps`] is exactly that: it is what
//! the archive's `keyframe_interval = 1` degenerates to, and the reference
//! `tests/archive_equivalence.rs` and `bench_e2e`'s `archive_window_remote`
//! workload compare against — both for total archive size and for bytes
//! fetched when a step range is retrieved at a coarse fidelity.

use std::sync::Arc;

use ipc_tensor::ArrayD;
use ipcomp::{
    compress, ChunkSource, Config, ContainerMap, IpcompError, MemorySource, ProgressiveDecoder,
    RetrievalRequest,
};

/// Encode-each-step-standalone baseline scheme.
#[derive(Debug, Clone)]
pub struct IndependentSteps {
    finest_bound: f64,
    config: Config,
}

/// One retrieved step plus its byte accounting.
pub struct IndependentRetrieval {
    /// The reconstructed field.
    pub data: ArrayD<f64>,
    /// Container bytes (metadata + payload) the retrieval loaded.
    pub bytes: usize,
    /// The error bound the decoder actually satisfied.
    pub error_bound: f64,
}

/// The per-step containers produced by [`IndependentSteps::compress_sequence`].
pub struct IndependentArchive {
    containers: Vec<Vec<u8>>,
}

impl IndependentSteps {
    /// Baseline at `finest_bound` with the given codec configuration (use the
    /// same `Config` as the archive under test for a fair comparison).
    pub fn new(finest_bound: f64, config: Config) -> Self {
        Self {
            finest_bound,
            config,
        }
    }

    /// Compress every step as an independent container.
    pub fn compress_sequence(
        &self,
        steps: &[ArrayD<f64>],
    ) -> Result<IndependentArchive, IpcompError> {
        let mut containers = Vec::with_capacity(steps.len());
        for field in steps {
            containers.push(compress(field, self.finest_bound, &self.config)?.to_bytes());
        }
        Ok(IndependentArchive { containers })
    }
}

impl IndependentArchive {
    /// Number of steps stored.
    pub fn num_steps(&self) -> usize {
        self.containers.len()
    }

    /// Serialized size of one step's container.
    pub fn container_bytes(&self, step: usize) -> usize {
        self.containers[step].len()
    }

    /// Sum of all per-step container sizes — the denominator of the
    /// archive-size acceptance criterion.
    pub fn total_bytes(&self) -> usize {
        self.containers.iter().map(Vec::len).sum()
    }

    /// The raw container for one step (byte-identity comparisons).
    pub fn container(&self, step: usize) -> &[u8] {
        &self.containers[step]
    }

    /// Retrieve one step at `request` through the planned read path,
    /// counting the bytes a cold fetch of that step costs.
    pub fn retrieve(
        &self,
        step: usize,
        request: RetrievalRequest,
    ) -> Result<IndependentRetrieval, IpcompError> {
        let source: Arc<dyn ChunkSource> =
            Arc::new(MemorySource::new(self.containers[step].clone()));
        let map = Arc::new(ContainerMap::open(&source)?);
        let mut dec = ProgressiveDecoder::from_shared_source(source, map);
        let out = dec.retrieve(request)?;
        Ok(IndependentRetrieval {
            data: out.data,
            bytes: out.bytes_total,
            error_bound: out.error_bound,
        })
    }

    /// Retrieve `range` of steps at `request`, each through its own cold
    /// decoder (no state is shareable across independent containers); returns
    /// the reconstructions and the total bytes fetched.
    pub fn retrieve_range(
        &self,
        range: std::ops::Range<usize>,
        request: RetrievalRequest,
    ) -> Result<(Vec<ArrayD<f64>>, usize), IpcompError> {
        let mut fields = Vec::with_capacity(range.len());
        let mut bytes = 0usize;
        for step in range {
            let r = self.retrieve(step, request)?;
            bytes += r.bytes;
            fields.push(r.data);
        }
        Ok((fields, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipc_tensor::Shape;

    fn wave(shape: &Shape, t: usize) -> ArrayD<f64> {
        ArrayD::from_fn(shape.clone(), |c| {
            ((c[0] as f64 * 0.4 + t as f64 * 0.3).sin()
                + (c[1] as f64 * 0.25 - t as f64 * 0.2).cos())
                * (1.0 + 0.05 * c[2] as f64)
        })
    }

    #[test]
    fn independent_steps_respect_the_bound_and_count_bytes() {
        let shape = Shape::d3(12, 10, 8);
        let steps: Vec<_> = (0..3).map(|t| wave(&shape, t)).collect();
        let baseline = IndependentSteps::new(1e-5, Config::default());
        let archive = baseline.compress_sequence(&steps).unwrap();
        assert_eq!(archive.num_steps(), 3);
        assert_eq!(
            archive.total_bytes(),
            (0..3).map(|s| archive.container_bytes(s)).sum::<usize>()
        );
        for (t, field) in steps.iter().enumerate() {
            let coarse = archive
                .retrieve(t, RetrievalRequest::ErrorBound(1e-2))
                .unwrap();
            let fine = archive
                .retrieve(t, RetrievalRequest::ErrorBound(1e-5))
                .unwrap();
            assert!(coarse.bytes < fine.bytes);
            for (a, b) in field.as_slice().iter().zip(fine.data.as_slice()) {
                assert!((a - b).abs() <= 1e-5);
            }
        }
    }

    #[test]
    fn range_retrieval_sums_per_step_bytes() {
        let shape = Shape::d3(12, 10, 8);
        let steps: Vec<_> = (0..4).map(|t| wave(&shape, t)).collect();
        let archive = IndependentSteps::new(1e-5, Config::default())
            .compress_sequence(&steps)
            .unwrap();
        let (fields, bytes) = archive
            .retrieve_range(1..3, RetrievalRequest::ErrorBound(1e-3))
            .unwrap();
        assert_eq!(fields.len(), 2);
        let solo: usize = (1..3)
            .map(|s| {
                archive
                    .retrieve(s, RetrievalRequest::ErrorBound(1e-3))
                    .unwrap()
                    .bytes
            })
            .sum();
        assert_eq!(bytes, solo);
    }
}
