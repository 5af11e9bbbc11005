//! Baseline scientific lossy compressors used in the IPComp evaluation.
//!
//! The paper compares IPComp against four state-of-the-art progressive schemes
//! (Sec. 6.1.3): **SZ3-M** (multi-fidelity), **SZ3-R** (residual-progressive SZ3),
//! **ZFP-R** (residual-progressive ZFP) and **PMGARD** (progressive MGARD), plus
//! **SPERR-R** in the speed study. None of those C/C++ codebases is linked here —
//! each algorithm's decorrelation + coding pipeline is re-implemented from scratch in
//! Rust, and each module's docs say what it keeps and what it simplifies.
//!
//! Two small traits give the benchmark harness a uniform view of every compressor:
//!
//! * [`BaseCompressor`] — one-shot error-bounded compress/decompress (SZ3, ZFP,
//!   MGARD, SPERR).
//! * [`ProgressiveScheme`] / [`ProgressiveArchive`] — compress once, then retrieve at
//!   arbitrary fidelity targets while accounting for the bytes each retrieval loads.
//!   Implemented by IPComp (natively), by the residual wrapper ([`residual`]), by the
//!   multi-output wrapper ([`multifidelity`]) and by progressive MGARD ([`pmgard`]).

pub mod mgard;
pub mod multifidelity;
pub mod pmgard;
pub mod residual;
pub mod sperr;
pub mod sz3;
pub mod timeseries;
pub mod wavelet;
pub mod zfp;

use ipc_tensor::ArrayD;

pub use mgard::Mgard;
pub use multifidelity::MultiFidelity;
pub use pmgard::{Pmgard, PmgardArchive};
pub use residual::{Residual, ResidualArchive};
pub use sperr::Sperr;
pub use sz3::Sz3;
pub use timeseries::{IndependentArchive, IndependentRetrieval, IndependentSteps};
pub use zfp::Zfp;

/// A one-shot error-bounded lossy compressor (decompression always returns full
/// fidelity).
pub trait BaseCompressor: Send + Sync {
    /// Short name used in benchmark tables ("SZ3", "ZFP", …).
    fn name(&self) -> &'static str;
    /// Compress `data` so that every reconstructed value differs from the original by
    /// at most `error_bound`.
    fn compress(&self, data: &ArrayD<f64>, error_bound: f64) -> Vec<u8>;
    /// Decompress a buffer produced by [`BaseCompressor::compress`].
    fn decompress(&self, bytes: &[u8]) -> ArrayD<f64>;
}

/// The result of one progressive retrieval.
#[derive(Debug, Clone)]
pub struct Retrieved {
    /// Reconstructed field.
    pub data: ArrayD<f64>,
    /// Bytes that had to be read from the archive for this retrieval (cumulative for
    /// the fidelity level, not incremental).
    pub bytes_loaded: usize,
    /// Number of decompression passes executed to serve the request (1 for IPComp,
    /// up to the residual-ladder length for SZ3-R/ZFP-R).
    pub passes: usize,
}

/// A compressed artifact supporting multi-fidelity retrieval.
pub trait ProgressiveArchive: Send + Sync {
    /// Total stored size in bytes (what the compression-ratio figures use).
    fn total_bytes(&self) -> usize;
    /// Retrieve a reconstruction whose L∞ error is at most `target` (or the best the
    /// archive can do if `target` is tighter than the compression bound).
    fn retrieve_error_bound(&self, target: f64) -> Retrieved;
    /// Retrieve the best reconstruction that reads at most `max_bytes` from the
    /// archive.
    fn retrieve_size_budget(&self, max_bytes: usize) -> Retrieved;
    /// Full-fidelity reconstruction.
    fn retrieve_full(&self) -> Retrieved;
}

/// A compressor that produces a [`ProgressiveArchive`].
pub trait ProgressiveScheme: Send + Sync {
    /// Short name used in benchmark tables ("IPComp", "SZ3-R", …).
    fn name(&self) -> &'static str;
    /// Compress `data` with the given (absolute) finest error bound.
    fn compress(&self, data: &ArrayD<f64>, error_bound: f64) -> Box<dyn ProgressiveArchive>;
}

// ---------------------------------------------------------------------------
// IPComp adapter: the paper's own compressor viewed through the same traits.
// ---------------------------------------------------------------------------

/// IPComp wrapped as a [`ProgressiveScheme`] for side-by-side evaluation.
#[derive(Default)]
pub struct IpCompScheme {
    /// Compressor configuration.
    pub config: ipcomp::Config,
}

/// Archive produced by [`IpCompScheme`].
pub struct IpCompArchive {
    compressed: ipcomp::Compressed,
}

impl IpCompArchive {
    /// Access the underlying IPComp container.
    pub fn inner(&self) -> &ipcomp::Compressed {
        &self.compressed
    }
}

impl ProgressiveScheme for IpCompScheme {
    fn name(&self) -> &'static str {
        "IPComp"
    }

    fn compress(&self, data: &ArrayD<f64>, error_bound: f64) -> Box<dyn ProgressiveArchive> {
        let compressed =
            ipcomp::compress(data, error_bound, &self.config).expect("valid compression inputs");
        Box::new(IpCompArchive { compressed })
    }
}

impl ProgressiveArchive for IpCompArchive {
    fn total_bytes(&self) -> usize {
        self.compressed.total_bytes()
    }

    fn retrieve_error_bound(&self, target: f64) -> Retrieved {
        let mut dec = ipcomp::ProgressiveDecoder::new(&self.compressed);
        let r = dec
            .retrieve(ipcomp::RetrievalRequest::ErrorBound(target))
            .expect("retrieval of a well-formed container");
        Retrieved {
            data: r.data,
            bytes_loaded: r.bytes_total,
            passes: 1,
        }
    }

    fn retrieve_size_budget(&self, max_bytes: usize) -> Retrieved {
        let mut dec = ipcomp::ProgressiveDecoder::new(&self.compressed);
        let r = dec
            .retrieve(ipcomp::RetrievalRequest::SizeBudget(max_bytes))
            .expect("retrieval of a well-formed container");
        Retrieved {
            data: r.data,
            bytes_loaded: r.bytes_total,
            passes: 1,
        }
    }

    fn retrieve_full(&self) -> Retrieved {
        let mut dec = ipcomp::ProgressiveDecoder::new(&self.compressed);
        let r = dec
            .retrieve(ipcomp::RetrievalRequest::Full)
            .expect("retrieval of a well-formed container");
        Retrieved {
            data: r.data,
            bytes_loaded: r.bytes_total,
            passes: 1,
        }
    }
}

/// The residual error-bound ladder used for SZ3-R / ZFP-R / SPERR-R in the paper's
/// experiments: `2^16·eb, 2^14·eb, …, 2^2·eb, eb` (factor-4 steps, 9 bounds).
pub fn paper_residual_ladder(eb: f64) -> Vec<f64> {
    (0..=8).rev().map(|i| eb * 4f64.powi(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipc_tensor::Shape;

    #[test]
    fn residual_ladder_matches_paper_configuration() {
        let ladder = paper_residual_ladder(1e-6);
        assert_eq!(ladder.len(), 9);
        assert!((ladder[0] - 65536e-6).abs() < 1e-12);
        assert!((ladder[8] - 1e-6).abs() < 1e-18);
        for w in ladder.windows(2) {
            assert!((w[0] / w[1] - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ipcomp_scheme_roundtrip_through_trait() {
        let field = ArrayD::from_fn(Shape::d3(12, 14, 10), |c| {
            (c[0] as f64 * 0.4).sin() + c[1] as f64 * 0.1 + c[2] as f64 * 0.01
        });
        let scheme = IpCompScheme::default();
        let archive = scheme.compress(&field, 1e-5);
        let full = archive.retrieve_full();
        let err = ipc_metrics::linf_error(field.as_slice(), full.data.as_slice());
        assert!(err <= 1e-5 * (1.0 + 1e-9));
        assert_eq!(full.passes, 1);
        let coarse = archive.retrieve_error_bound(1e-2);
        assert!(coarse.bytes_loaded <= full.bytes_loaded);
    }
}
