//! Umbrella crate for the IPComp reproduction workspace.
//!
//! This crate only re-exports the member crates so that the workspace-level
//! examples (`examples/`) and integration tests (`tests/`) can reach every
//! public API through one import. The real implementations live in
//! `crates/*`:
//!
//! * [`ipcomp`] — the paper's contribution: the progressive interpolation compressor.
//! * [`ipc_store`] — chunk-addressable storage backends and the retrieval service.
//! * [`ipc_baselines`] — SZ3, SZ3-M, SZ3-R, ZFP, ZFP-R, MGARD, PMGARD, SPERR-R.
//! * [`ipc_tensor`] — N-dimensional strided array substrate.
//! * [`ipc_codecs`] — negabinary, bit slicing, and the LZR and Huffman lossless backends.
//! * [`ipc_datagen`] — synthetic scientific datasets and post-analysis operators.
//! * [`ipc_metrics`] — L∞ / MSE / PSNR / entropy / compression-ratio metrics.
//! * [`ipc_telemetry`] — process-wide metric registry, trace spans, runtime profiles.

pub use ipc_baselines as baselines;
pub use ipc_codecs as codecs;
pub use ipc_datagen as datagen;
pub use ipc_metrics as metrics;
pub use ipc_store as store;
pub use ipc_telemetry as telemetry;
pub use ipc_tensor as tensor;
pub use ipcomp as core;
