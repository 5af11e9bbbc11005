//! Every call into the program under test.
//!
//! The workloads compose these functions and name program types only
//! through this module's re-exports, so a later API change (ROADMAP item 3
//! collapses the read path) needs a one-file benchmark follow-up. Nothing
//! here uses what that item retires: no `StoreServer`, `field_checksum`,
//! `to_bytes_v1`, `rans_encode_bytes_legacy`, free-function plan lowering,
//! or `force_*`/`set_*` switch setter.
//!
//! The first half is the five caller entry points (`compress`, `retrieve`,
//! `retrieve_roi`, `retrieve_steps`, `StoreService::submit`) exactly as a
//! caller would drive them; the second half is each layer's public function
//! as the traced replay times it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use ipc_codecs::bitslice::slice_planes;
use ipc_codecs::lzr::lzr_decompress_bounded;
use ipc_codecs::lzr_compress;
use ipc_codecs::negabinary::{required_bitplanes_words, to_negabinary_slice};
use ipc_datagen::{Dataset, SequenceRecipe};
use ipc_store::{
    ArchiveStore, ContainerId, ContainerStore, CostModel, FileSource, ServiceConfig,
    SimulatedObjectStore, StoreService, TenantConfig, TenantId,
};
use ipcomp::bitplane::{
    decode_planes_into, encode_level_precincts, encode_level_with, EncodeOptions, EncodedLevel,
};
use ipcomp::cascade::{delta_codes, residual_codes};
use ipcomp::container::{decode_anchors_bounded, encode_anchors};
use ipcomp::interp::{num_levels, process_anchors, process_level};
use ipcomp::quantize::{dequantize, quantize};
use ipcomp::{
    ArchiveBuilder, ArchiveMap, ArchiveReader, CascadeEngine, Header, LevelPrecincts, PrecinctGrid,
    ProgressiveDecoder,
};

pub use ipc_baselines::IndependentSteps;
pub use ipc_store::{
    ArchiveSession, CacheStats, RangePlan, RetrievalSession, ServiceEvent, SimProfile, SimStats,
    StoreOptions,
};
pub use ipc_tensor::{ArrayD, Shape};
pub use ipcomp::{
    cascade_avx2_available, composition_reference, compress, ArchiveConfig, ArchiveRequest,
    ByteRange, ChunkSource, Compressed, Config, ContainerMap, IpcompError, MemorySource, Retrieval,
    RetrievalRequest, RoiBox, StepRetrieval,
};

pub type Res<T> = Result<T, IpcompError>;

/// The simulated object store every remote workload reads from.
pub type SimStore = SimulatedObjectStore<MemorySource>;

// ---------------------------------------------------------------------------
// Storage model
// ---------------------------------------------------------------------------

/// The storage cost model of every workload: 5 ms per request plus bytes at
/// 200 MB/s, accounted and never slept.
pub fn sim_profile() -> SimProfile {
    SimProfile::object_store()
}

/// Storage time of `gets` requests moving `bytes` bytes under
/// [`sim_profile`] — the simulator's own formula, for the workloads whose
/// backend is a file or a PUT.
pub fn sim_cost_ms(gets: u64, bytes: u64) -> f64 {
    let p = sim_profile();
    gets as f64 * p.latency_per_request.as_secs_f64() * 1e3
        + bytes as f64 / p.throughput_bytes_per_sec * 1e3
}

/// The production stack for a remote backend: cache + coalescer with the gap
/// and whole-read threshold derived from the cost model.
pub fn backend_options() -> StoreOptions {
    let p = sim_profile();
    StoreOptions::for_backend(p.latency_per_request, p.throughput_bytes_per_sec)
}

/// A fresh (cold, zeroed counters) simulated object store over `bytes`.
pub fn sim_store(bytes: &Arc<[u8]>) -> Arc<SimStore> {
    Arc::new(SimulatedObjectStore::new(
        MemorySource::from_arc(Arc::clone(bytes)),
        sim_profile(),
    ))
}

/// Counts what crosses a backend that keeps no statistics of its own (the
/// file source); one range is one request, as in the simulator.
pub struct CountingSource<S> {
    inner: S,
    gets: AtomicU64,
    bytes: AtomicU64,
}

impl<S> CountingSource<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            gets: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> (u64, u64) {
        (
            self.gets.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

impl<S: ChunkSource> ChunkSource for CountingSource<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Res<Vec<ipcomp::Bytes>> {
        self.gets.fetch_add(ranges.len() as u64, Ordering::Relaxed);
        let total: usize = ranges.iter().map(|r| r.len).sum();
        self.bytes.fetch_add(total as u64, Ordering::Relaxed);
        self.inner.read_ranges(ranges)
    }
}

// ---------------------------------------------------------------------------
// Inputs (`ipc_datagen`)
// ---------------------------------------------------------------------------

pub fn density_field(shape: &Shape, seed: u64) -> ArrayD<f64> {
    Dataset::Density.generate(shape, seed)
}

/// `steps` correlated Density steps (correlation 0.98, decay 0.99, no
/// advection: the `bench_timeseries` sequence).
pub fn density_sequence(shape: &Shape, steps: usize, seed: u64) -> Vec<ArrayD<f64>> {
    SequenceRecipe {
        correlation: 0.98,
        advect: [0, 0, 0],
        decay: 0.99,
        ..SequenceRecipe::correlated(Dataset::Density, steps)
    }
    .generate(shape, seed)
}

// ---------------------------------------------------------------------------
// Entry point 1: compress
// ---------------------------------------------------------------------------

/// The write path a caller times: `compress` + `to_bytes`.
pub fn compress_to_bytes(field: &ArrayD<f64>, eb: f64, config: &Config) -> Res<Vec<u8>> {
    Ok(compress(field, eb, config)?.to_bytes())
}

pub fn precinct_config(extent: usize) -> Config {
    Config::with_precincts(&[extent, extent])
}

// ---------------------------------------------------------------------------
// Entry points 2 and 3: retrieve / retrieve_roi through a ContainerStore
// ---------------------------------------------------------------------------

/// Cold full retrieve from a local file: file open, metadata parse, default
/// stack, `retrieve(Full)`. `counter` receives the traffic.
pub fn retrieve_full_from_file(
    path: &std::path::Path,
    counter: &mut Option<Arc<CountingSource<FileSource>>>,
) -> Res<Retrieval> {
    let source = Arc::new(CountingSource::new(FileSource::open(path)?));
    *counter = Some(Arc::clone(&source));
    let store = ContainerStore::open(source, StoreOptions::default())?;
    store.session().retrieve(RetrievalRequest::Full)
}

pub fn open_file(path: &std::path::Path) -> Res<FileSource> {
    FileSource::open(path)
}

/// Open `path` behind a counter and parse its metadata map.
pub fn open_counted_file(
    path: &std::path::Path,
    counter: &mut Option<Arc<CountingSource<FileSource>>>,
) -> Res<(Arc<dyn ChunkSource>, ContainerMap)> {
    let source = Arc::new(CountingSource::new(FileSource::open(path)?));
    *counter = Some(Arc::clone(&source));
    let map = ContainerMap::open(&*source)?;
    Ok((source, map))
}

/// Cold refinement ladder over a remote store: open, then one session
/// retrieving each rung in order.
pub fn retrieve_ladder(sim: Arc<SimStore>, rungs: &[f64]) -> Res<Vec<Retrieval>> {
    let store = ContainerStore::open(sim, backend_options())?;
    let mut session = store.session();
    rungs
        .iter()
        .map(|&eb| session.retrieve(RetrievalRequest::ErrorBound(eb)))
        .collect()
}

/// Cold region retrieve over a remote store.
pub fn retrieve_roi(sim: Arc<SimStore>, tile: RoiBox, eb: f64) -> Res<Retrieval> {
    let store = ContainerStore::open(sim, backend_options())?;
    store
        .session()
        .retrieve_roi(tile, RetrievalRequest::ErrorBound(eb))
}

/// Cold full-domain retrieve at `eb` through the same remote stack (the
/// denominator of `roi.sim_ms_over_full_domain`).
pub fn retrieve_bound(sim: Arc<SimStore>, eb: f64) -> Res<Retrieval> {
    let store = ContainerStore::open(sim, backend_options())?;
    store.session().retrieve(RetrievalRequest::ErrorBound(eb))
}

// ---------------------------------------------------------------------------
// Entry point 4: retrieve_steps through an ArchiveStore
// ---------------------------------------------------------------------------

pub fn build_archive(fields: &[ArrayD<f64>], config: &ArchiveConfig) -> Res<Vec<u8>> {
    let shape = fields[0].shape().clone();
    let mut builder = ArchiveBuilder::new(vec!["density".into()], shape, config.clone())?;
    for field in fields {
        builder.push_step(std::slice::from_ref(field))?;
    }
    builder.finish()
}

pub fn open_archive(sim: Arc<SimStore>) -> Res<Arc<ArchiveStore>> {
    ArchiveStore::open(sim, backend_options())
}

/// Cold step-window retrieve over a remote archive.
pub fn retrieve_window(sim: Arc<SimStore>, request: &ArchiveRequest) -> Res<Vec<StepRetrieval>> {
    open_archive(sim)?.session().retrieve_steps(request)
}

/// Steps a request decodes only for the chain, and steps it outputs.
pub fn schedule_shape(session: &ArchiveSession, request: &ArchiveRequest) -> Res<(usize, usize)> {
    let schedule = session.reader().step_schedule(request)?;
    let output = schedule.iter().filter(|s| s.output).count();
    Ok((schedule.len() - output, output))
}

/// Retrieve `request`, calling `on_step` as each output step completes.
pub fn stream_steps(
    session: &mut ArchiveSession,
    request: &ArchiveRequest,
    mut on_step: impl FnMut(),
) -> Res<()> {
    session
        .retrieve_steps_streaming_events(request, |_| {}, |_| on_step())
        .map(|_| ())
}

// ---------------------------------------------------------------------------
// Entry point 5: StoreService::submit
// ---------------------------------------------------------------------------

/// The multi-tenant front door over `containers`, each behind its own
/// simulated store with a cache of half its size.
pub struct Service {
    pub service: StoreService,
    pub stores: Vec<Arc<ContainerStore>>,
    pub sims: Vec<Arc<SimStore>>,
    containers: Vec<ContainerId>,
    tenants: Vec<TenantId>,
}

pub const SERVICE_WORKERS: usize = 2;

impl Service {
    pub fn new(containers: &[Arc<[u8]>], tenants: usize) -> Res<Self> {
        let sims: Vec<Arc<SimStore>> = containers.iter().map(sim_store).collect();
        let options = |len: usize| StoreOptions {
            cache_bytes: len / 2,
            // 64^3 containers sit under the model's whole-read break-even;
            // collapsing them would remove the cache this workload exists to
            // load, so the collapse stays off here.
            whole_read_below: None,
            ..backend_options()
        };
        let stores = sims
            .iter()
            .zip(containers)
            .map(|(sim, bytes)| {
                ContainerStore::open(
                    Arc::clone(sim) as Arc<dyn ChunkSource>,
                    options(bytes.len()),
                )
            })
            .collect::<Res<Vec<_>>>()?;
        let profile = sim_profile();
        let service = StoreService::new(ServiceConfig {
            workers: SERVICE_WORKERS,
            max_inflight: 64,
            event_depth: 64,
            cost_model: Some(CostModel {
                latency_per_request: profile.latency_per_request,
                throughput_bytes_per_sec: profile.throughput_bytes_per_sec,
                coalesce_gap: backend_options().coalesce_gap.unwrap_or(0),
            }),
        });
        let container_ids = stores
            .iter()
            .map(|s| service.register_container(Arc::clone(s)))
            .collect();
        let tenant_ids = (0..tenants)
            .map(|_| {
                service.register_tenant(TenantConfig {
                    cache_quota: Some(64 << 10),
                    max_inflight: 8,
                    ..TenantConfig::default()
                })
            })
            .collect();
        Ok(Self {
            service,
            stores,
            sims,
            containers: container_ids,
            tenants: tenant_ids,
        })
    }

    /// Submit one workload; blocks only under admission backpressure.
    pub fn submit(
        &self,
        tenant: usize,
        container: usize,
        mix: &[RetrievalRequest],
    ) -> Result<Receiver<ServiceEvent>, String> {
        self.service
            .submit(
                self.tenants[tenant],
                self.containers[container],
                mix.to_vec(),
            )
            .map_err(|e| e.to_string())
    }

    /// A plain tagged session on the same warm store: the layer directly
    /// under the service's workers.
    pub fn tagged_session(&self, tenant: usize, container: usize) -> RetrievalSession {
        self.stores[container].session_tagged(self.tenants[tenant].0)
    }

    pub fn backend_stats(&self) -> SimStats {
        self.sims.iter().map(|s| s.stats()).fold(
            SimStats {
                requests: 0,
                batches: 0,
                bytes: 0,
                simulated_secs: 0.0,
            },
            |a, s| SimStats {
                requests: a.requests + s.requests,
                batches: a.batches + s.batches,
                bytes: a.bytes + s.bytes,
                simulated_secs: a.simulated_secs + s.simulated_secs,
            },
        )
    }

    /// Hits, misses, resident bytes and entries summed over every container's
    /// shared cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.stores.iter().filter_map(|s| s.cache_stats()).fold(
            CacheStats {
                hits: 0,
                misses: 0,
                resident_bytes: 0,
                entries: 0,
                protected_ranges: 0,
            },
            |a, s| CacheStats {
                hits: a.hits + s.hits,
                misses: a.misses + s.misses,
                resident_bytes: a.resident_bytes + s.resident_bytes,
                entries: a.entries + s.entries,
                protected_ranges: a.protected_ranges + s.protected_ranges,
            },
        )
    }
}

/// What draining one workload's event stream saw.
pub struct Drained {
    /// The service's FNV-1a of the final reconstruction; `None` on failure.
    pub checksum: Option<u64>,
    pub error: Option<String>,
    pub events: usize,
}

/// Drain a workload's events to its terminal event.
pub fn drain(rx: &Receiver<ServiceEvent>) -> Drained {
    let mut out = Drained {
        checksum: None,
        error: None,
        events: 0,
    };
    while let Ok(event) = rx.recv() {
        out.events += 1;
        match event {
            ServiceEvent::WorkloadDone { outcome, .. } => out.checksum = Some(outcome.checksum),
            ServiceEvent::WorkloadFailed { error, .. } => out.error = Some(error.to_string()),
            _ => {}
        }
    }
    if out.checksum.is_none() && out.error.is_none() {
        out.error = Some("event stream ended without a terminal event".into());
    }
    out
}

// ---------------------------------------------------------------------------
// Oracles (independent read paths)
// ---------------------------------------------------------------------------

pub fn parse_container(bytes: &[u8]) -> Res<Compressed> {
    Compressed::from_bytes(bytes)
}

/// A decoder over the fully resident container: the slice-backed read path,
/// independent of every `ipc_store` layer.
pub fn resident_decoder(compressed: &Compressed) -> ProgressiveDecoder<'_> {
    ProgressiveDecoder::new(compressed)
}

/// `ProgressiveDecoder::from_source(&MemorySource)` + `retrieve`: the
/// `BENCH_overhead` configuration of a full retrieve.
pub fn memory_source_retrieve(source: &MemorySource, request: RetrievalRequest) -> Res<Retrieval> {
    ProgressiveDecoder::from_source(source)?.retrieve(request)
}

/// A plain single-client session over resident bytes with the default stack.
pub fn plain_session(bytes: &Arc<[u8]>) -> Res<RetrievalSession> {
    let store = ContainerStore::open(
        Arc::new(MemorySource::from_arc(Arc::clone(bytes))),
        StoreOptions::default(),
    )?;
    Ok(store.session())
}

/// The resident archive read path: `ArchiveReader` straight over memory.
pub fn resident_archive_retrieve(
    bytes: &Arc<[u8]>,
    request: &ArchiveRequest,
) -> Res<Vec<StepRetrieval>> {
    let source: Arc<dyn ChunkSource> = Arc::new(MemorySource::from_arc(Arc::clone(bytes)));
    ArchiveReader::open(source)?.retrieve_steps(request)
}

// ---------------------------------------------------------------------------
// Layer calls: encode side
// ---------------------------------------------------------------------------

/// Output of the prediction + quantization sweep.
pub struct Quantized {
    pub anchors: Vec<i64>,
    /// Per-level codes, coarsest level first (the container's order).
    pub levels: Vec<Vec<i64>>,
}

/// `ipcomp::interp` + `quantize`: the `process_anchors` / `process_level`
/// sweep with the quantize/dequantize closure, as `compressor.rs` runs it.
pub fn predict_quantize(field: &ArrayD<f64>, eb: f64, config: &Config) -> Quantized {
    let shape = field.shape();
    let orig = field.as_slice();
    let mut work = vec![0.0f64; shape.len()];
    let mut anchors = Vec::new();
    process_anchors(shape, &mut work, |off, pred| {
        let q = quantize(orig[off] - pred, eb);
        anchors.push(q);
        pred + dequantize(q, eb)
    });
    let levels = (1..=num_levels(shape))
        .rev()
        .map(|level| {
            let mut codes = Vec::new();
            process_level(
                shape,
                level,
                config.interpolation,
                &mut work,
                |off, pred| {
                    let q = quantize(orig[off] - pred, eb);
                    codes.push(q);
                    pred + dequantize(q, eb)
                },
            );
            codes
        })
        .collect();
    Quantized { anchors, levels }
}

fn encode_options(config: &Config) -> EncodeOptions {
    EncodeOptions {
        chunk_bytes: config.chunk_bytes,
        ..EncodeOptions::default()
    }
}

/// `ipcomp::bitplane`: `encode_level_with` over every level (v2 layout).
pub fn encode_levels(q: &Quantized, config: &Config) -> Vec<EncodedLevel> {
    q.levels
        .iter()
        .map(|codes| {
            encode_level_with(
                codes,
                config.prefix_bits,
                config.predictive_coding,
                config.parallel_encoding,
                encode_options(config),
            )
        })
        .collect()
}

/// `ipcomp::precinct`: the per-level precinct-major permutation (v3 layout).
pub fn permute_levels(
    field: &ArrayD<f64>,
    q: &Quantized,
    config: &Config,
) -> Res<Vec<(LevelPrecincts, Vec<i64>)>> {
    let shape = field.shape();
    let extents = config.precincts.expect("v3 config");
    let grid = PrecinctGrid::new(shape.dims(), &extents[..])?;
    let levels = q.levels.len() as u32;
    Ok(q.levels
        .iter()
        .enumerate()
        .map(|(idx, codes)| {
            let layout = grid.level_permutation(shape, levels - idx as u32);
            let permuted = layout.to_precinct_order(codes);
            (layout, permuted)
        })
        .collect())
}

/// `ipcomp::bitplane`: `encode_level_precincts` over every permuted level.
pub fn encode_levels_precincts(
    permuted: &[(LevelPrecincts, Vec<i64>)],
    config: &Config,
) -> Vec<EncodedLevel> {
    permuted
        .iter()
        .map(|(layout, codes)| {
            encode_level_precincts(
                codes,
                config.prefix_bits,
                config.predictive_coding,
                config.parallel_encoding,
                encode_options(config),
                &layout.spans,
            )
        })
        .collect()
}

/// Entropy chunks across all levels.
pub fn chunk_count(levels: &[EncodedLevel]) -> usize {
    levels
        .iter()
        .flat_map(|l| &l.planes)
        .map(|p| p.chunks.len())
        .sum()
}

/// `ipc_codecs` encode stages on every level's codes, one stage at a time
/// (the `profile_stages` split): negabinary conversion, then prediction +
/// bit-slicing into planes, then entropy coding of 64 KiB plane chunks.
/// `mark(stage)` is called before each stage and once at the end with
/// `"done"`; returns packed plane bytes entering the entropy stage.
pub fn codec_stages(q: &Quantized, config: &Config, mut mark: impl FnMut(&'static str)) -> usize {
    mark("negabinary");
    let words: Vec<Vec<u64>> = q.levels.iter().map(|c| to_negabinary_slice(c)).collect();
    mark("bitslice");
    let shift = config.prefix_bits as u32;
    let planes: Vec<Vec<Vec<u8>>> = words
        .iter()
        .map(|nb| {
            let num_planes = required_bitplanes_words(nb).min(63) as usize;
            // The coder's GF(2) prediction for `prefix_bits` more significant
            // neighbours, applied to whole words.
            let predicted: Vec<u64> = nb
                .iter()
                .map(|&w| (1..=shift).fold(w, |acc, s| acc ^ (w >> s)))
                .collect();
            slice_planes(&predicted, num_planes)
        })
        .collect();
    mark("entropy");
    let span = config.chunk_bytes.max(8);
    let mut packed = 0usize;
    for plane in planes.iter().flatten() {
        for chunk in plane.chunks(span) {
            packed += chunk.len();
            std::hint::black_box(lzr_compress(chunk));
        }
    }
    mark("done");
    packed
}

/// `ipcomp::container`: assemble the artifact and serialize it.
pub fn serialize(
    field: &ArrayD<f64>,
    eb: f64,
    config: &Config,
    anchors: &[i64],
    levels: Vec<EncodedLevel>,
) -> (Compressed, Vec<u8>) {
    let dims = field.shape().dims().to_vec();
    let num_levels = levels.len() as u32;
    let compressed = Compressed {
        header: Header {
            precincts: config.precincts.as_ref().map(|e| e[..dims.len()].to_vec()),
            dims,
            error_bound: eb,
            interpolation: config.interpolation,
            num_levels,
            progressive_levels: config
                .progressive_levels
                .unwrap_or(num_levels)
                .min(num_levels),
            prefix_bits: config.prefix_bits,
            predictive_coding: config.predictive_coding,
            value_range: field.value_range(),
        },
        anchors: encode_anchors(anchors),
        levels,
    };
    let bytes = compressed.to_bytes();
    (compressed, bytes)
}

// ---------------------------------------------------------------------------
// Layer calls: read side
// ---------------------------------------------------------------------------

pub fn map_open(source: &dyn ChunkSource) -> Res<ContainerMap> {
    ContainerMap::open(source)
}

pub fn archive_map_open(source: &dyn ChunkSource) -> Res<ArchiveMap> {
    ArchiveMap::open(source)
}

/// A store over an already-parsed map (no I/O), for planning.
pub fn store_with_map(
    base: Arc<dyn ChunkSource>,
    map: ContainerMap,
    options: StoreOptions,
) -> Arc<ContainerStore> {
    ContainerStore::with_map(base, Arc::new(map), options)
}

pub fn archive_store_with_map(base: Arc<dyn ChunkSource>, map: ArchiveMap) -> Arc<ArchiveStore> {
    ArchiveStore::with_map(base, Arc::new(map), backend_options())
}

/// `ipcomp::precinct`: number of precincts an ROI selects, summed over levels.
pub fn roi_mask_selected(header: &Header, bounds: &RoiBox) -> Res<usize> {
    let masks = ipcomp::roi_precinct_masks(header, bounds)?;
    Ok(masks.iter().flatten().filter(|&&m| m).count())
}

/// `ipc_store::coalesce`: the merged reads of `ranges` and the gap bytes the
/// merge adds.
pub fn coalesce(ranges: &[ByteRange], gap: u64) -> (Vec<ByteRange>, u64) {
    let (merged, _) = ipc_store::coalesce_ranges(ranges, gap);
    let wanted: u64 = ranges.iter().map(|r| r.len as u64).sum();
    let fetched: u64 = merged.iter().map(|r| r.len as u64).sum();
    (merged, fetched.saturating_sub(wanted))
}

/// The chunks a plan selects, as `(level, plane, chunk)` triples.
pub fn plan_chunks(plan: &RangePlan) -> Vec<(usize, u8, usize)> {
    plan.reads
        .iter()
        .map(|r| (r.level, r.plane, r.chunk))
        .collect()
}

/// `ipcomp::pipeline` entropy stage: `lzr_decompress_bounded` over the given
/// chunks of the resident container. Returns `(compressed, decoded)` bytes.
pub fn entropy_decode(
    compressed: &Compressed,
    chunks: &[(usize, u8, usize)],
) -> Res<(usize, usize)> {
    let (mut cin, mut cout) = (0usize, 0usize);
    let schemes: Vec<_> = compressed.levels.iter().map(EncodedLevel::scheme).collect();
    for &(level, plane, chunk) in chunks {
        let data = &compressed.levels[level].planes[plane as usize].chunks[chunk];
        if data.is_empty() {
            continue; // an empty precinct stores no bytes for this plane
        }
        let expected = schemes[level].region_byte_range(chunk).len();
        let out = lzr_decompress_bounded(data, expected)
            .map_err(|_| IpcompError::CorruptContainer("entropy chunk failed to decode"))?;
        cin += data.len();
        cout += out.len();
    }
    Ok((cin, cout))
}

/// Decode-side state of one reader across refinement rungs: negabinary
/// accumulators, the codes already cascaded, and the reconstruction.
pub struct ReplayDecoder<'c> {
    compressed: &'c Compressed,
    acc: Vec<Vec<u64>>,
    codes: Vec<Vec<i64>>,
    have: Vec<u8>,
    field: Option<Vec<f64>>,
}

impl<'c> ReplayDecoder<'c> {
    pub fn new(compressed: &'c Compressed) -> Self {
        let n = compressed.levels.len();
        Self {
            compressed,
            acc: compressed
                .levels
                .iter()
                .map(|l| vec![0u64; l.n_values])
                .collect(),
            codes: vec![Vec::new(); n],
            have: vec![0; n],
            field: None,
        }
    }

    /// `bitplane::decode_planes_into` for every plane `want` adds beyond
    /// what is loaded (entropy decode + scatter, the pipeline's two CPU
    /// stages). Returns the levels that gained planes.
    pub fn decode_planes(&mut self, want: &[u8]) -> Res<Vec<usize>> {
        let h = &self.compressed.header;
        let mut touched = Vec::new();
        for (idx, level) in self.compressed.levels.iter().enumerate() {
            let want = want.get(idx).copied().unwrap_or(0).min(level.num_planes);
            if want <= self.have[idx] {
                continue;
            }
            decode_planes_into(
                level,
                level.num_planes - want,
                level.num_planes - self.have[idx],
                h.prefix_bits,
                h.predictive_coding,
                &mut self.acc[idx],
            )?;
            self.have[idx] = want;
            touched.push(idx);
        }
        Ok(touched)
    }

    /// `ipcomp::cascade`: `CascadeEngine::new` + seed + `level_ready` per
    /// level. The first call reconstructs from the codes; later calls
    /// cascade the delta codes from zero anchors and add the result
    /// (Algorithm 2). Returns the number of level passes run.
    pub fn cascade(&mut self, touched: &[usize]) -> Res<usize> {
        let h = &self.compressed.header;
        let mut engine = CascadeEngine::new(h.shape(), h.interpolation, h.error_bound);
        let first = self.field.is_none();
        if first {
            let anchors = decode_anchors_bounded(&self.compressed.anchors, h.num_elements())?;
            engine.seed_anchors(&anchors);
        } else {
            engine.seed_zero();
        }
        for idx in 0..self.compressed.levels.len() {
            let codes = if !touched.contains(&idx) {
                Vec::new()
            } else if first || self.codes[idx].is_empty() {
                // Nothing cascaded for this level yet: the codes themselves.
                residual_codes(&self.acc[idx])
            } else {
                delta_codes(&self.acc[idx], &self.codes[idx])
            };
            engine.level_ready(idx, codes);
        }
        for &idx in touched {
            self.codes[idx] = residual_codes(&self.acc[idx]);
        }
        let passes = engine.num_levels() as usize;
        let out = engine.into_field();
        match &mut self.field {
            None => self.field = Some(out),
            Some(field) => {
                for (f, d) in field.iter_mut().zip(&out) {
                    *f += d;
                }
            }
        }
        Ok(passes)
    }

    pub fn field(&self) -> &[f64] {
        self.field.as_deref().unwrap_or(&[])
    }
}

/// Hit/miss-free fully resident re-read of `ranges` through the store's
/// composed stack (`store.source()`).
pub fn warm_read(store: &ContainerStore, ranges: &[ByteRange]) -> Res<usize> {
    Ok(store.source().read_ranges(ranges)?.len())
}
