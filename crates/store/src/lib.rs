//! # `ipc_store` — chunk-addressable storage backends and the progressive
//! retrieval service
//!
//! The version-2 IPComp container records every `(level, plane, chunk)`
//! triple's size and offset in its metadata; this crate is the read side
//! that exploits it end to end, so a retrieval touches exactly the bytes its
//! plan selects instead of materializing the whole archive:
//!
//! 1. **Backends** — implementations of [`ChunkSource`] (the trait lives in
//!    `ipcomp::source`, re-exported here): the in-memory [`MemorySource`],
//!    the positioned-read [`FileSource`], and the [`SimulatedObjectStore`]
//!    wrapper that models S3-like per-request latency/throughput, counts
//!    traffic, and can inject short reads for hardening tests.
//! 2. **Planner** — [`planner::plan_request`] resolves a
//!    [`RetrievalRequest`] through the optimizer *over metadata alone* and
//!    lowers the resulting plan to per-chunk byte ranges (the lowering lives
//!    in `ipcomp::planner`: the decoder fetches by the list a session prices
//!    with, one byte-budgeted fetch group at a time);
//!    [`coalesce::coalesce_ranges`] merges adjacent runs under a gap
//!    threshold so a group's fetch becomes few ranged reads.
//! 3. **Service** — [`ContainerStore`] composes a source stack (backend →
//!    coalescing → shared LRU [`CachedSource`]) and hands out
//!    [`RetrievalSession`]s that share the cache; [`StoreService`] is the
//!    long-lived multi-tenant front door: bounded admission, a worker pool
//!    streaming [`StreamEvent`]s back per workload, per-tenant byte budgets
//!    and cache quotas.
//!
//! ```
//! use std::sync::Arc;
//! use ipc_store::{ContainerStore, MemorySource, StoreOptions};
//! use ipcomp::{compress, Config, RetrievalRequest};
//! use ipc_tensor::{ArrayD, Shape};
//!
//! let field = ArrayD::from_fn(Shape::d3(16, 16, 16), |c| {
//!     (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() + c[2] as f64 * 0.01
//! });
//! let compressed = compress(&field, 1e-6, &Config::default()).unwrap();
//!
//! // Any ChunkSource works here — a file, an object-store simulator, ...
//! let base = Arc::new(MemorySource::new(compressed.to_bytes()));
//! let store = ContainerStore::open(base, StoreOptions::default()).unwrap();
//! let mut session = store.session();
//! let coarse = session.retrieve(RetrievalRequest::ErrorBound(1e-2)).unwrap();
//! let fine = session.retrieve(RetrievalRequest::ErrorBound(1e-5)).unwrap();
//! assert!(coarse.bytes_total < fine.bytes_total);
//! ```

pub mod archive;
pub mod cache;
pub mod coalesce;
pub mod file;
pub mod obs;
pub mod planner;
pub mod service;
pub mod session;
pub mod sim;
pub mod testutil;
pub mod whole;

pub use archive::{
    plan_archive_request, ArchiveRangePlan, ArchiveSession, ArchiveStepRanges, ArchiveStore,
};
pub use cache::{CacheStats, CacheTag, CachedSource, TagStats, TaggedRead, TaggedSource};
pub use coalesce::{coalesce_ranges, traffic_model_gap, CoalescingSource};
pub use file::FileSource;
pub use planner::{lower_plan, plan_request, ChunkRead, RangePlan};
pub use service::{
    field_checksum, ArchiveId, ClientOutcome, ClientStep, ContainerId, CostModel, ServiceConfig,
    ServiceError, ServiceEvent, ServiceMetricsSnapshot, StoreService, TenantConfig, TenantId,
    TenantMetricsSnapshot,
};
pub use session::{ContainerStore, RetrievalSession, SharedCache, StoreOptions};
pub use sim::{Fault, FaultSource, SimProfile, SimStats, SimulatedObjectStore};
pub use whole::WholeReadSource;

// The storage abstraction itself lives next to the container format so the
// decoder can consume it; re-export it as part of this crate's surface.
pub use ipcomp::source::{read_ranges_exact, ByteRange, Bytes, ChunkSource, MemorySource};
pub use ipcomp::{ContainerMap, LevelMap};

/// Convenience re-export: requests sessions are driven with, and the spatial
/// types ROI retrievals are scoped by.
pub use ipcomp::{
    roi_precinct_masks, CascadeProgress, PrecinctGrid, RetrievalRequest, RoiBox, StreamEvent,
    StreamProgress,
};

/// Convenience re-export: the archive request/response types
/// [`ArchiveSession`] and [`StoreService::submit_archive`] are driven with.
pub use ipcomp::{
    ArchiveConfig, ArchiveMap, ArchiveOutcome, ArchiveReader, ArchiveRequest, StepKind,
    StepProgress, StepRetrieval,
};
