//! # IPComp — interpolation based progressive lossy compression
//!
//! A from-scratch Rust implementation of *IPComp: Interpolation Based Progressive
//! Lossy Compression for Scientific Applications* (HPDC 2025). IPComp compresses
//! dense floating-point scientific fields with a strict point-wise error bound and —
//! unlike classic error-bounded compressors — lets the reader retrieve a coarse
//! approximation cheaply and then *refine it incrementally* by loading additional
//! bitplane blocks, without ever re-reading or re-decompressing what was already
//! loaded.
//!
//! ## Pipeline
//!
//! 1. **Interpolation predictor** ([`interp`]): the grid is split into orthogonal
//!    levels by a shrinking stride; each point is predicted by linear or cubic
//!    interpolation from the already-reconstructed coarser lattice (paper Sec. 4.1).
//! 2. **Quantizer** ([`quantize`]): prediction residuals are quantized to integers
//!    with a user-chosen absolute error bound.
//! 3. **Predictive negabinary bitplane coder** ([`bitplane`]): per level, the codes
//!    are converted to negabinary, sliced into bitplanes, XOR-predicted from their
//!    two more-significant neighbours, and each plane is compressed into an
//!    independently loadable block (paper Sec. 4.3–4.4).
//! 4. **Optimized data loader** ([`optimizer`]): a knapsack dynamic program selects
//!    the minimum set of plane blocks for a requested error bound, or the
//!    minimum-error set for a byte/bitrate budget (paper Sec. 5).
//! 5. **Progressive decoder** ([`progressive`]): Algorithm 1 reconstructs from
//!    scratch in a single pass; Algorithm 2 refines an existing reconstruction from
//!    newly loaded planes only. Every decoder reads metadata, costs and chunk
//!    sizes from one [`ContainerMap`]; its backing — a resident container or a
//!    ranged source — only supplies chunk bytes. Every read path decodes a level through one
//!    level loader, **entropy → scatter** per chunk region, from a table of
//!    the level's chunks: a resident level's own, or zero-copy slices of what a
//!    ranged read fetched. It scatters through plane-count-specialized kernels.
//!    Over ranged storage a request lowers its
//!    plan to byte ranges first ([`planner`]); those reads are its fetch, read
//!    in a few byte-budgeted groups ([`planner::fetch_groups`]) — one read per
//!    request where the bytes allow it, not one per level.
//!
//! ## Quick start
//!
//! ```
//! use ipc_tensor::{ArrayD, Shape};
//! use ipcomp::{compress, Config, ProgressiveDecoder, RetrievalRequest};
//!
//! // A small synthetic 3-D field.
//! let field = ArrayD::from_fn(Shape::d3(16, 16, 16), |c| {
//!     (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() + c[2] as f64 * 0.01
//! });
//!
//! // Compress once with a tight error bound.
//! let compressed = compress(&field, 1e-6, &Config::default()).unwrap();
//!
//! // Retrieve progressively: coarse first, then refine.
//! let mut decoder = ProgressiveDecoder::new(&compressed);
//! let coarse = decoder.retrieve(RetrievalRequest::ErrorBound(1e-2)).unwrap();
//! let fine = decoder.retrieve(RetrievalRequest::ErrorBound(1e-5)).unwrap();
//! assert!(fine.bytes_total > coarse.bytes_total);
//! assert!(fine.error_bound <= 1e-5);
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod archive;
pub mod bitplane;
pub mod cascade;
pub mod compressor;
pub mod config;
pub mod container;
pub mod error;
pub mod interp;
pub mod obs;
pub mod optimizer;
mod pipeline;
pub mod planner;
pub mod precinct;
pub mod progressive;
pub mod quantize;
pub mod source;

pub use archive::{
    composition_reference, ArchiveBuilder, ArchiveConfig, ArchiveEntry, ArchiveMap, ArchiveOutcome,
    ArchiveReader, ArchiveRequest, StepKind, StepPlan, StepProgress, StepRetrieval,
    VERSION_ARCHIVE,
};
pub use cascade::{cascade_avx2_available, CascadeEngine, CascadeProgress};
pub use compressor::{compress, compress_rel};
pub use config::{Config, Interpolation};
pub use container::{Compressed, ContainerMap, Header, LevelMap};
pub use error::{IpcompError, Result};
pub use optimizer::LoadPlan;
pub use precinct::{roi_precinct_masks, LevelPrecincts, PrecinctGrid, RoiBox};
pub use progressive::{
    ProgressiveDecoder, Retrieval, RetrievalRequest, StreamEvent, StreamProgress,
};
pub use source::{read_ranges_exact, ByteRange, Bytes, ChunkSource, MemorySource};
