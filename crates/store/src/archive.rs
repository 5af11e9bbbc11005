//! Archive store layer: a shared source stack over a serialized time-series
//! archive (container format v4) plus per-client [`ArchiveSession`]s. The
//! planner that lowers a step-spanning [`ArchiveRequest`] to the exact chunk
//! byte ranges it fetches ([`plan_archive_request`]) lives with the reader
//! that fetches by it, in `ipcomp::archive`, and is re-exported here.
//!
//! The stack mirrors [`ContainerStore`](crate::ContainerStore) — backend,
//! optional coalescing, optional shared LRU cache with per-tag quotas — but
//! addresses the whole archive as **one key space**: every embedded per-step
//! container reads through an [`ipcomp::OffsetSource`] window whose ranges translate
//! to archive-absolute offsets *above* the cache, so the keyframe and
//! coarse-prefix chunks that consecutive-step requests share deduplicate in
//! the shared cache exactly like two sessions sharing one container do
//! (per-[`CacheTag`] stats prove which tenant the reuse belongs to).

use std::sync::Arc;

pub use ipcomp::archive::{plan_archive_request, ArchiveRangePlan, ArchiveStepRanges};
use ipcomp::archive::{ArchiveMap, ArchiveOutcome, ArchiveRequest, StepRetrieval};
use ipcomp::progressive::StreamEvent;
use ipcomp::source::ChunkSource;
use ipcomp::{ArchiveReader, Result};

use crate::cache::{CacheStats, CacheTag, TaggedSource};
use crate::session::{compose_stack, SharedCache, StoreOptions};

/// A time-series archive opened for ranged multi-session retrieval: the
/// parsed [`ArchiveMap`] plus the composed source stack every session reads
/// through.
pub struct ArchiveStore {
    map: Arc<ArchiveMap>,
    stack: Arc<dyn ChunkSource>,
    cache: Option<Arc<SharedCache>>,
}

impl ArchiveStore {
    /// Open an archive over `base`, parsing its metadata (framing header,
    /// directory, and every embedded container's map) and composing the
    /// configured source stack. The small-container collapse and top-plane
    /// protection knobs of [`StoreOptions`] do not apply to archives — the
    /// former because archives are many containers, the latter because the
    /// hot prefix is the keyframe *chain*, which plain LRU plus tag quotas
    /// already keeps resident.
    pub fn open(base: Arc<dyn ChunkSource>, options: StoreOptions) -> Result<Arc<Self>> {
        let map = Arc::new(ArchiveMap::open(&base)?);
        Ok(Self::with_map(base, map, options))
    }

    /// Like [`ArchiveStore::open`] with an already-parsed map.
    pub fn with_map(
        base: Arc<dyn ChunkSource>,
        map: Arc<ArchiveMap>,
        options: StoreOptions,
    ) -> Arc<Self> {
        let (stack, cache) = compose_stack(base, &options);
        Arc::new(Self { map, stack, cache })
    }

    /// The archive's metadata map.
    pub fn map(&self) -> &Arc<ArchiveMap> {
        &self.map
    }

    /// The composed source stack sessions read through.
    pub fn source(&self) -> &Arc<dyn ChunkSource> {
        &self.stack
    }

    /// The shared cache layer, if one is configured.
    pub fn cache(&self) -> Option<&Arc<SharedCache>> {
        self.cache.as_ref()
    }

    /// Shared-cache counters, if a cache layer is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Cap the cache bytes reads tagged with `tag` may keep resident; a
    /// no-op without a cache layer.
    pub fn set_tag_quota(&self, tag: CacheTag, quota: Option<usize>) {
        if let Some(cache) = &self.cache {
            cache.set_quota(tag, quota);
        }
    }

    /// Start a fresh archive session (no chain state yet).
    pub fn session(self: &Arc<Self>) -> ArchiveSession {
        self.session_over(Arc::clone(&self.stack))
    }

    /// Start a session whose cache traffic is attributed to `tag` (the
    /// tenant entry point). Without a cache layer this degrades to a plain
    /// [`ArchiveStore::session`].
    pub fn session_tagged(self: &Arc<Self>, tag: CacheTag) -> ArchiveSession {
        match &self.cache {
            Some(cache) => self.session_over(Arc::new(TaggedSource::new(Arc::clone(cache), tag))),
            None => self.session(),
        }
    }

    /// Start a session reading through a caller-supplied top of stack
    /// (wrapping [`ArchiveStore::source`] — e.g. a fault injector or meter).
    pub fn session_over(self: &Arc<Self>, source: Arc<dyn ChunkSource>) -> ArchiveSession {
        ArchiveSession {
            reader: ArchiveReader::new(source, Arc::clone(&self.map)),
        }
    }
}

/// One client's step-spanning retrieval state over a shared [`ArchiveStore`]:
/// an [`ArchiveReader`] whose chain cache makes consecutive window requests
/// resume instead of re-decoding the keyframe prefix.
pub struct ArchiveSession {
    reader: ArchiveReader,
}

impl ArchiveSession {
    /// Reconstruct every step of `request`, collecting the results.
    pub fn retrieve_steps(&mut self, request: &ArchiveRequest) -> Result<Vec<StepRetrieval>> {
        self.reader.retrieve_steps(request)
    }

    /// Streaming variant: forwards the per-step decoders' events plus one
    /// [`StreamEvent::StepReconstructed`] per output step, handing each
    /// reconstruction to `on_step` as it completes.
    pub fn retrieve_steps_streaming_events(
        &mut self,
        request: &ArchiveRequest,
        on_event: impl FnMut(StreamEvent),
        on_step: impl FnMut(StepRetrieval),
    ) -> Result<ArchiveOutcome> {
        self.reader
            .retrieve_steps_streaming_events(request, on_event, on_step)
    }

    /// The chunk ranges `request` would fetch given this session's current
    /// chain cache (for inspection or budget pricing; reads nothing).
    pub fn plan_ranges(&self, request: &ArchiveRequest) -> Result<ArchiveRangePlan> {
        plan_archive_request(&self.reader, request)
    }

    /// Cumulative archive bytes this session has read.
    pub fn bytes_loaded(&self) -> usize {
        self.reader.bytes_loaded()
    }

    /// Direct access to the underlying reader (chain-cache inspection).
    pub fn reader(&self) -> &ArchiveReader {
        &self.reader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_request;
    use ipc_tensor::{ArrayD, Shape};
    use ipcomp::archive::{ArchiveBuilder, ArchiveConfig};
    use ipcomp::source::MemorySource;
    use ipcomp::{Config, RetrievalRequest};

    fn toy_archive_bytes(steps: usize, interval: usize) -> Vec<u8> {
        toy_archive_with(steps, interval, Config::default())
    }

    fn toy_archive_with(steps: usize, interval: usize, codec: Config) -> Vec<u8> {
        let shape = Shape::d3(14, 12, 10);
        let config = ArchiveConfig {
            keyframe_interval: interval,
            reference_bound: 1e-3,
            finest_bound: 1e-5,
            codec,
        };
        let mut builder = ArchiveBuilder::new(vec!["f".into()], shape.clone(), config).unwrap();
        for t in 0..steps {
            let f = ArrayD::from_fn(shape.clone(), |c| {
                ((c[0] as f64 * 0.3) + t as f64 * 0.1).sin()
                    + (c[1] as f64 * 0.2).cos()
                    + c[2] as f64 * 0.01
            });
            builder.push_step(std::slice::from_ref(&f)).unwrap();
        }
        builder.finish().unwrap()
    }

    #[test]
    fn archive_store_sessions_share_the_cache() {
        let bytes = toy_archive_bytes(6, 3);
        let store = ArchiveStore::open(Arc::new(MemorySource::new(bytes)), StoreOptions::default())
            .unwrap();
        let request = ArchiveRequest::steps(0, 0..6, RetrievalRequest::ErrorBound(1e-3));
        let mut a = store.session();
        let first = a.retrieve_steps(&request).unwrap();
        let misses_after_first = store.cache_stats().unwrap().misses;
        assert!(misses_after_first > 0);
        // A second session replays entirely from the shared cache.
        let mut b = store.session();
        let second = b.retrieve_steps(&request).unwrap();
        let stats = store.cache_stats().unwrap();
        assert_eq!(stats.misses, misses_after_first, "replay must be all hits");
        assert!(stats.hits > 0);
        for (x, y) in first.iter().zip(&second) {
            assert_eq!(x.data.as_slice(), y.data.as_slice());
        }
    }

    #[test]
    fn plan_prices_exactly_what_retrieval_fetches() {
        use ipcomp::RoiBox;
        let open = |bytes: Vec<u8>| {
            let options = StoreOptions {
                cache_bytes: 0,
                coalesce_gap: None,
                ..StoreOptions::default()
            };
            ArchiveStore::open(Arc::new(MemorySource::new(bytes)), options).unwrap()
        };
        let flat = open(toy_archive_bytes(8, 4));
        let tiled = open(toy_archive_with(8, 4, Config::with_precincts(&[7, 6, 5])));
        let window = Some(RoiBox::new(&[2, 3, 1], &[9, 10, 7]));
        let eb = RetrievalRequest::ErrorBound;
        for (store, start, end, fidelity, roi) in [
            (&flat, 0, 3, eb(1e-2), None),
            (&flat, 5, 8, eb(1e-3), None),
            (&flat, 2, 7, eb(1e-4), None),
            // A window prices exactly the fidelities retrieval serves under it.
            (&tiled, 2, 7, eb(1e-4), window),
            (&tiled, 0, 3, RetrievalRequest::RelErrorBound(1e-3), window),
            (&tiled, 5, 8, RetrievalRequest::Full, window),
            (&tiled, 1, 4, RetrievalRequest::SizeBudget(6000), window),
        ] {
            let reference = RetrievalRequest::ErrorBound(store.map().reference_bound());
            let request = ArchiveRequest {
                roi,
                ..ArchiveRequest::steps(0, start..end, fidelity)
            };
            let mut session = store.session();
            let plan = session.plan_ranges(&request).unwrap();
            // Expected logical bytes: each per-step decoder fetches its own
            // plan plus the container's always-loaded base; a step whose
            // chain decode cannot share the output decode pays both.
            let mut expected = 0usize;
            let mut union = 0usize;
            for p in session.reader().step_schedule(&request).unwrap() {
                let cmap = store.map().container(p.step, 0);
                let price = |fidelity| {
                    plan_request(cmap, &[], fidelity, roi)
                        .unwrap()
                        .payload_bytes()
                        + cmap.base_bytes()
                };
                let shared = p.chain && p.output && fidelity == reference;
                if p.output {
                    expected += price(fidelity);
                }
                if p.chain && !shared {
                    expected += price(reference);
                }
                union += cmap.base_bytes();
            }
            let before = session.bytes_loaded();
            session.retrieve_steps(&request).unwrap();
            let fetched = session.bytes_loaded() - before;
            assert_eq!(fetched, expected, "{start}..{end} {fidelity:?} {roi:?}");
            // The plan's union never exceeds the logical bytes and covers at
            // least every step's payload once.
            assert!(plan.payload_bytes() + union <= expected);
            assert!(plan.payload_bytes() > 0);
        }
    }

    #[test]
    fn consecutive_windows_replan_only_new_steps() {
        let bytes = toy_archive_bytes(8, 8);
        let store = ArchiveStore::open(Arc::new(MemorySource::new(bytes)), StoreOptions::default())
            .unwrap();
        let fid = RetrievalRequest::ErrorBound(1e-3);
        let mut session = store.session();
        session
            .retrieve_steps(&ArchiveRequest::steps(0, 0..4, fid))
            .unwrap();
        // The next window resumes from the cached chain (which sits at step
        // 2, the last step of 0..4 that needed to hand a base to a
        // successor): the plan re-decodes only step 3's chain plus the new
        // window, not the whole keyframe prefix.
        assert_eq!(session.reader().chain_cache_step(0), Some(2));
        let plan = session
            .plan_ranges(&ArchiveRequest::steps(0, 4..6, fid))
            .unwrap();
        assert_eq!(
            plan.steps.iter().map(|s| s.step).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        // A cold session must pay for the whole prefix.
        let cold = store.session();
        let cold_plan = cold
            .plan_ranges(&ArchiveRequest::steps(0, 4..6, fid))
            .unwrap();
        assert_eq!(cold_plan.steps.len(), 6);
        assert!(cold_plan.payload_bytes() > plan.payload_bytes());
    }
}
