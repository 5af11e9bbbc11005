//! Session layer: a shared [`ContainerStore`] (source stack + metadata map)
//! and per-client [`RetrievalSession`]s on top of it.
//!
//! One `ContainerStore` composes the source stack once — base backend, then
//! optional coalescing, then an optional shared LRU chunk cache with
//! protected top-plane admission — and hands out any number of sessions.
//! Each session owns its own [`ProgressiveDecoder`] (so per-client progress,
//! monotonicity, and failed-load rollback behave exactly as in the
//! single-reader API) while all sessions draw chunks through the same cache:
//! the first client to request a plane pays the backend cost, the rest hit
//! shared memory.
//!
//! A session's retrieval is **one request** to the stack: the decoder lowers
//! its plan to chunk ranges — those reads are its fetch — cuts them into
//! byte-budgeted fetch groups (`ipcomp::planner::fetch_groups`) and hands
//! each group to the stack in a single `read_ranges`. The cache
//! therefore sees a request's per-chunk keys together — a group whose chunks
//! all hit issues no backend read at all — and the coalescer sees every miss
//! of a group at once, so ranges adjacent across a level boundary merge
//! under its own gap rule instead of arriving in separate calls.

use std::sync::Arc;

use ipcomp::container::ContainerMap;
use ipcomp::progressive::{ProgressiveDecoder, Retrieval, RetrievalRequest, StreamEvent};
use ipcomp::source::ChunkSource;
use ipcomp::Result;

use crate::cache::{CacheStats, CacheTag, CachedSource, TaggedSource};
use crate::coalesce::CoalescingSource;
use crate::planner::plan_request;
use crate::whole::WholeReadSource;

/// The shared chunk cache type a [`ContainerStore`]'s stack composes.
pub type SharedCache = CachedSource<Arc<dyn ChunkSource>>;

/// Configuration of a [`ContainerStore`]'s source stack and sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreOptions {
    /// Byte budget of the shared LRU chunk cache; `0` disables the cache
    /// layer entirely.
    pub cache_bytes: usize,
    /// Merge chunk requests whose byte gap is at most this threshold into
    /// batched reads; `None` disables the coalescing layer (every chunk is
    /// its own backend request).
    pub coalesce_gap: Option<u64>,
    /// Protect the chunks of this many top (most significant) planes per
    /// level from cache eviction, so one-shot low-plane sweeps stop flushing
    /// the coarse prefix every client re-reads. Protection is capped at half
    /// the cache byte budget (topmost planes across all levels first) and is
    /// a no-op without a cache layer. `0` restores pure LRU.
    pub protect_top_planes: u8,
    /// Collapse the whole stack to **one whole-payload GET** when the
    /// container is at most this many bytes. Below the backend's
    /// latency/throughput break-even ([`crate::traffic_model_gap`]) ranged
    /// retrieval loses on simulated wall-clock — latency dominates and the
    /// fixed cost of extra round trips outweighs the bytes ranged reads
    /// skip — so small containers are served from a single resident fetch
    /// instead ([`WholeReadSource`]); the decoder and planner above are
    /// unchanged. `None` (the default) never collapses.
    pub whole_read_below: Option<u64>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            cache_bytes: 64 << 20,
            coalesce_gap: Some(4096),
            protect_top_planes: 2,
            whole_read_below: None,
        }
    }
}

impl StoreOptions {
    /// Derive the traffic-shape knobs from a backend's cost model: both the
    /// coalescing gap and the whole-read collapse threshold are set to the
    /// model's break-even `latency × throughput` (see
    /// [`crate::traffic_model_gap`]), so range merging and the small-container
    /// collapse kick in exactly where the model says a request saved pays for
    /// the bytes it costs.
    pub fn for_backend(
        latency_per_request: std::time::Duration,
        throughput_bytes_per_sec: f64,
    ) -> Self {
        let gap = crate::coalesce::traffic_model_gap(latency_per_request, throughput_bytes_per_sec);
        Self {
            coalesce_gap: Some(gap),
            whole_read_below: Some(gap),
            ..Self::default()
        }
    }
}

/// Compose the layers every store stacks above its backend: optional
/// coalescing, then the optional shared LRU chunk cache (returned separately
/// so the store can protect ranges, set quotas and hand out tagged views).
pub(crate) fn compose_stack(
    base: Arc<dyn ChunkSource>,
    options: &StoreOptions,
) -> (Arc<dyn ChunkSource>, Option<Arc<SharedCache>>) {
    let mut stack = base;
    if let Some(gap) = options.coalesce_gap {
        stack = Arc::new(CoalescingSource::new(stack, gap));
    }
    if options.cache_bytes == 0 {
        return (stack, None);
    }
    let cache = Arc::new(CachedSource::new(stack, options.cache_bytes));
    (Arc::clone(&cache) as Arc<dyn ChunkSource>, Some(cache))
}

/// A container opened for ranged multi-session retrieval: the parsed
/// metadata map plus the composed source stack every session reads through.
pub struct ContainerStore {
    map: Arc<ContainerMap>,
    stack: Arc<dyn ChunkSource>,
    cache: Option<Arc<SharedCache>>,
}

impl ContainerStore {
    /// Open a container over `base`, reading its metadata map and composing
    /// the configured source stack above the backend. When the container
    /// falls under [`StoreOptions::whole_read_below`] the metadata parse
    /// itself triggers the collapse's single fetch, so the backend sees
    /// exactly one GET for the whole store lifetime.
    pub fn open(base: Arc<dyn ChunkSource>, options: StoreOptions) -> Result<Arc<Self>> {
        let (base, collapsed) = Self::collapse_small(base, &options);
        let map = Arc::new(ContainerMap::open(base.as_ref())?);
        Ok(Self::assemble(base, map, options, collapsed))
    }

    /// Like [`ContainerStore::open`] with an already-parsed metadata map.
    pub fn with_map(
        base: Arc<dyn ChunkSource>,
        map: Arc<ContainerMap>,
        options: StoreOptions,
    ) -> Arc<Self> {
        let (base, collapsed) = Self::collapse_small(base, &options);
        Self::assemble(base, map, options, collapsed)
    }

    /// Apply the small-container collapse policy: below the threshold the
    /// whole stack is one lazily-filled resident buffer.
    fn collapse_small(
        base: Arc<dyn ChunkSource>,
        options: &StoreOptions,
    ) -> (Arc<dyn ChunkSource>, bool) {
        match options.whole_read_below {
            Some(t) if base.len() <= t => (Arc::new(WholeReadSource::new(base)), true),
            _ => (base, false),
        }
    }

    fn assemble(
        base: Arc<dyn ChunkSource>,
        map: Arc<ContainerMap>,
        options: StoreOptions,
        collapsed: bool,
    ) -> Arc<Self> {
        // A collapsed container is fully resident after its one GET;
        // coalescing and caching above it would only duplicate memory.
        let (stack, cache) = if collapsed {
            (base, None)
        } else {
            compose_stack(base, &options)
        };
        if options.protect_top_planes > 0 {
            if let Some(cache) = &cache {
                cache.protect(&Self::protected_ranges(
                    &map,
                    options.protect_top_planes,
                    options.cache_bytes / 2,
                ));
            }
        }
        Arc::new(Self { map, stack, cache })
    }

    /// Chunk ranges of the top `depth` planes of every level, topmost tier
    /// first across all levels (the coarse prefix every client reads before
    /// anything else), greedily filled up to `byte_cap` so protection never
    /// crowds out the working set. Whole planes that no longer fit are
    /// skipped rather than aborting the sweep: a deep plane of the finest
    /// level can cost more than every remaining plane of the coarse levels
    /// combined, and those cheap-but-hot planes are exactly what the fleet
    /// re-reads.
    fn protected_ranges(map: &ContainerMap, depth: u8, byte_cap: usize) -> Vec<ipcomp::ByteRange> {
        let mut ranges = Vec::new();
        let mut bytes = 0usize;
        for tier in 0..depth {
            for level in &map.levels {
                if tier >= level.num_planes {
                    continue;
                }
                let p = level.num_planes - 1 - tier;
                let plane_bytes = level.plane_bytes(p);
                if bytes + plane_bytes > byte_cap {
                    continue;
                }
                bytes += plane_bytes;
                for k in 0..level.plane_chunk_count(p) {
                    ranges.push(level.chunk_range(p, k));
                }
            }
        }
        ranges
    }

    /// The container's metadata map.
    pub fn map(&self) -> &Arc<ContainerMap> {
        &self.map
    }

    /// The composed source stack sessions read through.
    pub fn source(&self) -> &Arc<dyn ChunkSource> {
        &self.stack
    }

    /// Shared-cache counters, if a cache layer is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The shared cache layer, if one is configured (absent when
    /// `cache_bytes` is 0 or the store collapsed to a whole read).
    pub fn cache(&self) -> Option<&Arc<SharedCache>> {
        self.cache.as_ref()
    }

    /// Cap the cache bytes reads tagged with `tag` may keep resident (see
    /// [`CachedSource::set_quota`]); a no-op without a cache layer.
    pub fn set_tag_quota(&self, tag: CacheTag, quota: Option<usize>) {
        if let Some(cache) = &self.cache {
            cache.set_quota(tag, quota);
        }
    }

    /// Start a fresh retrieval session (nothing loaded yet).
    pub fn session(self: &Arc<Self>) -> RetrievalSession {
        self.session_over(Arc::clone(&self.stack))
    }

    /// Start a session whose cache traffic is attributed to `tag` — the
    /// tenant entry point: admissions count against the tag's quota and the
    /// per-tag hit/miss/byte counters feed the service layer's accounting.
    /// Without a cache layer this degrades to a plain [`ContainerStore::session`].
    pub fn session_tagged(self: &Arc<Self>, tag: CacheTag) -> RetrievalSession {
        match &self.cache {
            Some(cache) => self.session_over(Arc::new(TaggedSource::new(Arc::clone(cache), tag))),
            None => self.session(),
        }
    }

    /// Start a session reading through a caller-supplied top of stack
    /// (wrapping [`ContainerStore::source`] — e.g. a per-session
    /// [`crate::FaultSource`] for deterministic fault routing, or a meter).
    /// The session still shares this store's metadata map.
    pub fn session_over(self: &Arc<Self>, source: Arc<dyn ChunkSource>) -> RetrievalSession {
        let decoder = ProgressiveDecoder::from_shared_source(source, Arc::clone(&self.map));
        RetrievalSession {
            store: Arc::clone(self),
            decoder,
        }
    }
}

/// One client's progressive retrieval state over a shared [`ContainerStore`].
pub struct RetrievalSession {
    store: Arc<ContainerStore>,
    decoder: ProgressiveDecoder<'static>,
}

impl RetrievalSession {
    /// Retrieve (or refine to) the requested fidelity.
    pub fn retrieve(&mut self, request: RetrievalRequest) -> Result<Retrieval> {
        self.decoder.retrieve(request)
    }

    /// Streaming variant of [`RetrievalSession::retrieve`]: the callback
    /// observes both decoded chunk regions ([`StreamEvent::Region`]) and
    /// completed cascade passes ([`StreamEvent::LevelReconstructed`]) — a
    /// client can render or forward the coarse lattices while the finest
    /// level is still streaming out of the shared store. A
    /// [`RetrievalRequest::Roi`] request streams per-precinct regions and
    /// per-level windowed passes.
    pub fn retrieve_streaming_events(
        &mut self,
        request: RetrievalRequest,
        events: impl FnMut(StreamEvent),
    ) -> Result<Retrieval> {
        self.decoder.retrieve_streaming_events(request, events)
    }

    /// Retrieve a crop-exact region of the domain at the requested fidelity,
    /// fetching only the chunks of precincts intersecting `bounds` plus the
    /// cascade's cross-level ancestor halo. Requires a version-3 (precinct
    /// partitioned) container. ROI retrievals are stateless with respect to
    /// the session's progressive refinement.
    pub fn retrieve_roi(
        &mut self,
        bounds: ipcomp::RoiBox,
        request: RetrievalRequest,
    ) -> Result<Retrieval> {
        self.decoder.retrieve_roi(bounds, request)
    }

    /// The plan lowering this session's next `request` would fetch (for
    /// inspection or cost estimation; does not read anything). ROI requests
    /// lower region-scoped: only chunk ranges of precincts the box (plus
    /// halo) touches.
    pub fn plan_ranges(&self, request: RetrievalRequest) -> Result<crate::planner::RangePlan> {
        plan_request(&self.store.map, self.decoder.planes_loaded(), request, None)
    }

    /// Planes currently loaded per level (coarsest first).
    pub fn planes_loaded(&self) -> &[u8] {
        self.decoder.planes_loaded()
    }

    /// Cumulative container bytes this session has read (logical payload
    /// accounting; backend traffic lives in the source stack's stats).
    pub fn bytes_loaded(&self) -> usize {
        self.decoder.bytes_loaded()
    }
}
