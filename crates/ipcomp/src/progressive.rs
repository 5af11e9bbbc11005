//! Progressive reconstruction (Algorithms 1 and 2 of the paper).
//!
//! [`ProgressiveDecoder`] owns the retrieval state for one compressed field: which
//! bitplanes have been loaded per level, the negabinary accumulator of every
//! coefficient, the current reconstruction, and how many bytes have been read so far.
//!
//! * The **first** retrieval runs Algorithm 1: anchors and non-progressive levels are
//!   decoded in full, then each progressive level contributes its loaded planes, and
//!   the interpolation cascade rebuilds the field.
//! * **Subsequent** retrievals run Algorithm 2: only the newly requested planes are
//!   decoded, their dequantized deltas are pushed through the same interpolation
//!   cascade (with zero anchors — the cascade is linear in the residuals), and the
//!   resulting delta field is added onto the existing reconstruction. No previously
//!   loaded block is ever re-read and no previous work is redone.
//!
//! Both algorithms drive the streaming cascade engine ([`crate::cascade`]):
//! each level's interpolation pass runs as soon as that level's planes are
//! decoded and scattered — on ranged bulk retrievals the pass overlaps the
//! *next* level's batched fetch on a scoped worker, and on streaming
//! retrievals [`StreamEvent::LevelReconstructed`] reports each applied pass —
//! instead of one monolithic dequantize + interpolate sweep after the last
//! byte lands.

use std::sync::Arc;

use ipc_codecs::negabinary::{from_negabinary, from_negabinary_slice};
use ipc_tensor::{ArrayD, AxisRange, Shape};

use crate::bitplane::{decode_planes_into, EncodedLevel, PlaneStream};
use crate::cascade::{self, CascadeEngine, CascadeProgress};
use crate::container::{decode_anchors_bounded, Compressed, ContainerMap, Header};
use crate::error::{IpcompError, Result};
use crate::interp::{
    for_each_level_pass, level_stride, num_levels, predict_point, process_anchors, sweep_runs,
};
use crate::optimizer::{LoadPlan, PlanInput, RoiScopedInput};
use crate::pipeline::{DecodeStage, EntropyStage, FetchStage, ScatterStage};
use crate::precinct::{clip_ranges, pass_window, prefix_sums, LevelPrecincts, RoiBox};
use crate::source::ChunkSource;

/// How much fidelity a retrieval should target (paper Sec. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrievalRequest {
    /// Reconstruct with point-wise error no larger than this absolute bound.
    ErrorBound(f64),
    /// Reconstruct with point-wise error no larger than `factor · value_range`.
    RelErrorBound(f64),
    /// Load at most this many bits per scalar value (I/O-constrained retrieval).
    Bitrate(f64),
    /// Load at most this many bytes in total.
    SizeBudget(usize),
    /// Load everything (classic full-fidelity decompression).
    Full,
    /// Reconstruct only an axis-aligned region with point-wise error no
    /// larger than this absolute bound, fetching only the chunks whose
    /// precincts intersect the box (plus the cascade halo). Requires the
    /// precinct-partitioned (version-3) container layout; the retrieval's
    /// `data` is the cropped region. Equivalent to
    /// [`ProgressiveDecoder::retrieve_roi`] with
    /// [`RetrievalRequest::ErrorBound`].
    Roi {
        /// The region to reconstruct, in domain coordinates.
        bounds: RoiBox,
        /// Absolute point-wise error bound inside the region.
        error_bound: f64,
    },
}

/// Progress report emitted once per decoded chunk region during a streaming
/// retrieval ([`ProgressiveDecoder::retrieve_streaming`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamProgress {
    /// Index into the container's level list (coarsest level first).
    pub level_idx: usize,
    /// Chunk region just completed within that level.
    pub region: usize,
    /// Total chunk regions the level will stream for this request.
    pub regions_in_level: usize,
    /// Coefficients of the level fully decoded so far (prefix property:
    /// everything below this index is final for the requested fidelity).
    pub coeffs_decoded: usize,
    /// Total coefficients in the level.
    pub coeffs_in_level: usize,
    /// Cumulative container bytes read by the decoder so far.
    pub bytes_total: usize,
}

/// One event of a streaming retrieval
/// ([`ProgressiveDecoder::retrieve_streaming_events`]): decode progress at
/// chunk-region granularity, interleaved with reconstruction progress at
/// cascade-level granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamEvent {
    /// A chunk region finished decoding and scattering.
    Region(StreamProgress),
    /// The cascade applied a level's interpolation pass: every point of that
    /// level (and all coarser lattices) is final at the requested fidelity.
    LevelReconstructed(CascadeProgress),
    /// An archive retrieval finished reconstructing one output timestep
    /// (emitted by [`crate::archive::ArchiveReader`]; never seen on
    /// single-container retrievals).
    StepReconstructed(crate::archive::StepProgress),
}

/// The result of one retrieval step.
#[derive(Debug, Clone)]
pub struct Retrieval {
    /// The reconstructed field at the requested fidelity.
    pub data: ArrayD<f64>,
    /// Bytes read from the container by this retrieval step alone.
    pub bytes_this_request: usize,
    /// Cumulative bytes read since the decoder was created.
    pub bytes_total: usize,
    /// Cumulative retrieval bitrate (bits per original scalar).
    pub bitrate: f64,
    /// Upper bound on the point-wise reconstruction error of `data`.
    pub error_bound: f64,
}

/// Where a [`ProgressiveDecoder`] reads container bytes from.
///
/// The slice variant preserves the historical fully resident API; the source
/// variant addresses payload through the container's chunk index and fetches
/// exactly the chunk ranges each retrieval step needs via a [`ChunkSource`].
#[derive(Clone)]
enum Store<'a> {
    /// Fully resident container (the historical in-memory path).
    Slice(&'a Compressed),
    /// Metadata map plus ranged access to the serialized bytes.
    Source {
        map: Arc<ContainerMap>,
        source: SourceRef<'a>,
    },
}

/// How the decoder holds its chunk source: borrowed for stack-local use, or
/// shared so sessions can own a `'static` decoder.
#[derive(Clone)]
enum SourceRef<'a> {
    Borrowed(&'a dyn ChunkSource),
    Shared(Arc<dyn ChunkSource>),
}

impl SourceRef<'_> {
    fn get(&self) -> &dyn ChunkSource {
        match self {
            SourceRef::Borrowed(s) => *s,
            SourceRef::Shared(s) => s.as_ref(),
        }
    }
}

impl Store<'_> {
    fn header(&self) -> &Header {
        match self {
            Store::Slice(c) => &c.header,
            Store::Source { map, .. } => &map.header,
        }
    }

    fn anchors(&self) -> &[u8] {
        match self {
            Store::Slice(c) => &c.anchors,
            Store::Source { map, .. } => &map.anchors,
        }
    }

    fn base_bytes(&self) -> usize {
        match self {
            Store::Slice(c) => c.base_bytes(),
            Store::Source { map, .. } => map.base_bytes(),
        }
    }

    fn num_level_entries(&self) -> usize {
        match self {
            Store::Slice(c) => c.levels.len(),
            Store::Source { map, .. } => map.levels.len(),
        }
    }

    fn level_n_values(&self, idx: usize) -> usize {
        match self {
            Store::Slice(c) => c.levels[idx].n_values,
            Store::Source { map, .. } => map.levels[idx].n_values,
        }
    }

    fn level_num_planes(&self, idx: usize) -> u8 {
        match self {
            Store::Slice(c) => c.levels[idx].num_planes,
            Store::Source { map, .. } => map.levels[idx].num_planes,
        }
    }

    fn plan_input(&self) -> &dyn PlanInput {
        match self {
            Store::Slice(c) => *c,
            Store::Source { map, .. } => map.as_ref(),
        }
    }

    /// Compressed bytes of every (level, plane) restricted to the masked
    /// precincts — the byte cost an ROI retrieval actually pays.
    fn roi_plane_bytes(&self, masks: &[Vec<bool>]) -> Vec<Vec<usize>> {
        (0..self.num_level_entries())
            .map(|idx| {
                (0..self.level_num_planes(idx))
                    .map(|p| match self {
                        Store::Slice(c) => c.levels[idx].planes[p as usize]
                            .chunks
                            .iter()
                            .zip(&masks[idx])
                            .filter(|&(_, &m)| m)
                            .map(|(ch, _)| ch.len())
                            .sum(),
                        Store::Source { map, .. } => masks[idx]
                            .iter()
                            .enumerate()
                            .filter(|&(_, &m)| m)
                            .map(|(k, _)| map.levels[idx].chunk_size(p, k))
                            .sum(),
                    })
                    .collect()
            })
            .collect()
    }
}

/// Stateful progressive decoder for one compressed field.
pub struct ProgressiveDecoder<'a> {
    store: Store<'a>,
    shape: Shape,
    /// Negabinary accumulators per level (same ordering as the container's levels).
    acc: Vec<Vec<u64>>,
    /// Planes currently loaded per level (counted from the most significant).
    planes_loaded: Vec<u8>,
    /// Current reconstruction, present after the first retrieval.
    recon: Option<Vec<f64>>,
    /// Current error bound of `recon`.
    current_error_bound: f64,
    bytes_total: usize,
    /// Whether the base read (header + anchors + metadata) has been counted.
    /// It is read once per decoder, so a retry after a failed initial
    /// reconstruction must not charge it again.
    base_bytes_counted: bool,
    /// Per-level precinct layouts of a version-3 container, built lazily on
    /// the first full-domain retrieval (ROI retrievals never need the whole
    /// permutation). `None` for byte-granular containers.
    layouts: Option<Vec<LevelPrecincts>>,
}

impl<'a> ProgressiveDecoder<'a> {
    /// Create a decoder with nothing loaded yet over a fully resident
    /// container.
    pub fn new(compressed: &'a Compressed) -> Self {
        Self::with_store(Store::Slice(compressed))
    }

    /// Create a decoder over ranged container storage, reading the metadata
    /// map from the source up front (payload bytes are only fetched as
    /// retrievals request them).
    pub fn from_source(source: &'a dyn ChunkSource) -> Result<Self> {
        let map = Arc::new(ContainerMap::open(source)?);
        Ok(Self::with_store(Store::Source {
            map,
            source: SourceRef::Borrowed(source),
        }))
    }

    /// Like [`ProgressiveDecoder::from_source`] with an already-parsed
    /// metadata map (e.g. shared across many client sessions) and owning a
    /// shared handle to the source, producing a `'static` decoder that
    /// sessions can hold without borrowing.
    pub fn from_shared_source(
        source: Arc<dyn ChunkSource>,
        map: Arc<ContainerMap>,
    ) -> ProgressiveDecoder<'static> {
        ProgressiveDecoder::with_store(Store::Source {
            map,
            source: SourceRef::Shared(source),
        })
    }

    fn with_store(store: Store<'a>) -> Self {
        let shape = store.header().shape();
        let n_levels = store.num_level_entries();
        let acc = (0..n_levels)
            .map(|i| vec![0u64; store.level_n_values(i)])
            .collect();
        let planes_loaded = vec![0u8; n_levels];
        Self {
            store,
            shape,
            acc,
            planes_loaded,
            recon: None,
            current_error_bound: f64::INFINITY,
            bytes_total: 0,
            base_bytes_counted: false,
            layouts: None,
        }
    }

    /// Build the per-level precinct permutations of a version-3 container on
    /// first use. A no-op for byte-granular containers and once built. Must
    /// run after the level-geometry validation: the interpolation level of
    /// entry `idx` is `num_levels - idx`.
    fn ensure_layouts(&mut self) {
        if self.layouts.is_some() {
            return;
        }
        let Some(grid) = self.store.header().precinct_grid() else {
            return;
        };
        let levels = num_levels(&self.shape);
        let layouts = (0..self.store.num_level_entries())
            .map(|idx| grid.level_permutation(&self.shape, levels - idx as u32))
            .collect();
        self.layouts = Some(layouts);
    }

    /// Cascade codes of one level's accumulators, in the canonical traversal
    /// order the cascade engine consumes: full values on an initial
    /// reconstruction, deltas against the pre-load snapshot `before` on a
    /// refinement. A version-3 level's precinct-major codes are reordered
    /// through its `layout` (`None` for byte-granular containers).
    fn level_codes(
        acc: &[u64],
        before: Option<&[i64]>,
        layout: Option<&LevelPrecincts>,
    ) -> Vec<i64> {
        let codes = match before {
            None => cascade::residual_codes(acc),
            Some(b) => cascade::delta_codes(acc, b),
        };
        match layout {
            Some(lp) if !codes.is_empty() => lp.to_canonical_order(&codes),
            _ => codes,
        }
    }

    /// The metadata map backing a source-based decoder (`None` for the
    /// fully resident slice path).
    pub fn container_map(&self) -> Option<&Arc<ContainerMap>> {
        match &self.store {
            Store::Slice(_) => None,
            Store::Source { map, .. } => Some(map),
        }
    }

    /// Cumulative bytes read so far.
    pub fn bytes_loaded(&self) -> usize {
        self.bytes_total
    }

    /// The current reconstruction, if any retrieval has been performed.
    pub fn current(&self) -> Option<ArrayD<f64>> {
        self.recon
            .as_ref()
            .map(|r| ArrayD::from_vec(self.shape.clone(), r.clone()))
    }

    /// Planes currently loaded per level (coarsest level first).
    pub fn planes_loaded(&self) -> &[u8] {
        &self.planes_loaded
    }

    /// Resolve a request into a loading plan via the optimizer.
    pub fn plan(&self, request: RetrievalRequest) -> Result<LoadPlan> {
        crate::optimizer::plan_for_request(self.store.plan_input(), request)
    }

    /// Retrieve (or refine to) the fidelity described by `request`.
    ///
    /// Retrieval is monotone: if the request asks for less fidelity than what is
    /// already loaded, the current reconstruction is returned unchanged and no data
    /// is read.
    pub fn retrieve(&mut self, request: RetrievalRequest) -> Result<Retrieval> {
        if let RetrievalRequest::Roi {
            bounds,
            error_bound,
        } = request
        {
            return self.retrieve_roi(bounds, RetrievalRequest::ErrorBound(error_bound));
        }
        let plan = self.plan(request)?;
        self.retrieve_with_plan(&plan)
    }

    /// Retrieve (or refine to) the fidelity described by `request`, invoking
    /// `progress` after every decoded chunk region.
    ///
    /// Chunked (version-2) containers stream at entropy-chunk granularity —
    /// 512 Ki coefficients per report — so a caller can surface progress,
    /// meter I/O, or overlap consumption with decoding; version-1 containers
    /// report once per plane. The final reconstruction is identical to
    /// [`ProgressiveDecoder::retrieve`] with the same request. To also
    /// observe reconstruction progress, use
    /// [`ProgressiveDecoder::retrieve_streaming_events`].
    pub fn retrieve_streaming(
        &mut self,
        request: RetrievalRequest,
        mut progress: impl FnMut(StreamProgress),
    ) -> Result<Retrieval> {
        self.retrieve_streaming_events(request, |event| {
            if let StreamEvent::Region(p) = event {
                progress(p);
            }
        })
    }

    /// Retrieve (or refine to) the fidelity described by `request`,
    /// streaming both decode progress (one [`StreamEvent::Region`] per chunk
    /// region) and reconstruction progress (one
    /// [`StreamEvent::LevelReconstructed`] per cascade pass, as soon as the
    /// level's coefficients land — coarse lattices are final while the finest
    /// level is still streaming).
    pub fn retrieve_streaming_events(
        &mut self,
        request: RetrievalRequest,
        mut events: impl FnMut(StreamEvent),
    ) -> Result<Retrieval> {
        if let RetrievalRequest::Roi {
            bounds,
            error_bound,
        } = request
        {
            return self.retrieve_roi_inner(
                bounds,
                RetrievalRequest::ErrorBound(error_bound),
                Some(&mut events),
            );
        }
        let plan = self.plan(request)?;
        self.retrieve_inner(&plan, Some(&mut events))
    }

    /// Retrieve (or refine to) a specific loading plan.
    pub fn retrieve_with_plan(&mut self, plan: &LoadPlan) -> Result<Retrieval> {
        self.retrieve_inner(plan, None)
    }

    /// Reconstruct only the axis-aligned region `bounds` at the fidelity of
    /// `request`, fetching exactly the entropy chunks whose precincts
    /// intersect the region's per-level halo windows.
    ///
    /// Requires a precinct-partitioned (version-3) container. The returned
    /// [`Retrieval::data`] has the region's shape and is bit-identical to
    /// cropping a full-domain retrieval of the same request: fidelity-typed
    /// requests ([`RetrievalRequest::ErrorBound`], `RelErrorBound`, `Full`)
    /// plan against the whole container, so the per-level plane selection is
    /// the one a full retrieval would use. Budget-typed requests
    /// ([`RetrievalRequest::SizeBudget`], and [`RetrievalRequest::Bitrate`]
    /// re-read as bits per *region* scalar) budget only the bytes the region
    /// actually fetches.
    ///
    /// ROI retrievals are stateless with respect to the decoder's
    /// progressive accumulators: they never consume or advance previously
    /// loaded planes, so they interleave freely with full-domain
    /// retrievals. Only the cumulative byte accounting is shared, and a
    /// failed ROI retrieval commits nothing.
    pub fn retrieve_roi(&mut self, bounds: RoiBox, request: RetrievalRequest) -> Result<Retrieval> {
        self.retrieve_roi_inner(bounds, request, None)
    }

    /// Like [`ProgressiveDecoder::retrieve_roi`], reporting one
    /// [`StreamEvent::Region`] per fetched precinct (with `region` counting
    /// fetched precincts and `regions_in_level` their total for the level)
    /// and one [`StreamEvent::LevelReconstructed`] per windowed cascade
    /// pass.
    pub fn retrieve_roi_streaming(
        &mut self,
        bounds: RoiBox,
        request: RetrievalRequest,
        mut events: impl FnMut(StreamEvent),
    ) -> Result<Retrieval> {
        self.retrieve_roi_inner(bounds, request, Some(&mut events))
    }

    fn retrieve_roi_inner(
        &mut self,
        bounds: RoiBox,
        request: RetrievalRequest,
        events: Option<&mut dyn FnMut(StreamEvent)>,
    ) -> Result<Retrieval> {
        let m = crate::obs::metrics();
        let mut span = ipc_telemetry::span_timed("retrieve", "retrieve_roi", m.retrieve_ns);
        let mut noop = |_: StreamEvent| {};
        let events: &mut dyn FnMut(StreamEvent) = match events {
            Some(cb) => cb,
            None => &mut noop,
        };
        if matches!(request, RetrievalRequest::Roi { .. }) {
            return Err(IpcompError::InvalidInput(
                "ROI retrieval cannot nest a second bounding box".into(),
            ));
        }
        let store = self.store.clone();
        let header = store.header().clone();
        let shape = self.shape.clone();
        let dims = shape.dims().to_vec();
        bounds.validate(&dims)?;
        let grid = header.precinct_grid().ok_or_else(|| {
            IpcompError::InvalidInput(
                "ROI retrieval requires the precinct-partitioned (version-3) container layout"
                    .into(),
            )
        })?;
        let n_levels = store.num_level_entries();
        let levels = num_levels(&shape);
        if levels != header.num_levels || n_levels != levels as usize {
            return Err(IpcompError::CorruptContainer(
                "declared level count inconsistent with grid dimensions",
            ));
        }
        for idx in 0..n_levels {
            let expect = crate::interp::level_count(&shape, levels - idx as u32);
            if store.level_n_values(idx) != expect {
                return Err(IpcompError::CorruptContainer(
                    "level size inconsistent with grid dimensions",
                ));
            }
        }
        let method = header.interpolation;

        // The chunks each level must fetch: every precinct intersecting the
        // region expanded by the cascade's cross-level ancestor halo. Shared
        // with the store planner's range lowering.
        let masks = crate::precinct::roi_precinct_masks(&header, &bounds)?;

        // Fidelity-typed requests plan against the full container so the
        // plane selection matches a full-domain retrieval bit for bit;
        // budget-typed requests budget only the bytes the region fetches.
        let plan = match request {
            RetrievalRequest::SizeBudget(bytes) => {
                let scoped = RoiScopedInput::new(store.plan_input(), store.roi_plane_bytes(&masks));
                crate::optimizer::plan_for_bytes(&scoped, bytes)?
            }
            RetrievalRequest::Bitrate(b) => {
                if !(b.is_finite() && b > 0.0) {
                    return Err(IpcompError::InvalidInput(format!(
                        "bitrate must be positive and finite, got {b}"
                    )));
                }
                let scoped = RoiScopedInput::new(store.plan_input(), store.roi_plane_bytes(&masks));
                let bytes = (b * bounds.len() as f64 / 8.0).floor() as usize;
                crate::optimizer::plan_for_bytes(&scoped, bytes)?
            }
            _ => crate::optimizer::plan_for_request(store.plan_input(), request)?,
        };

        let two_eb = 2.0 * header.error_bound;
        let strides = shape.strides().to_vec();
        let mut work = vec![0.0f64; shape.len()];
        let mut codes = vec![0i64; shape.len()];
        let base_add = if self.base_bytes_counted {
            0
        } else {
            store.base_bytes()
        };
        let mut payload_bytes = 0usize;

        // Anchor lattice seed — the same arithmetic the cascade engine uses.
        let anchor_codes = decode_anchors_bounded(store.anchors(), header.num_elements())?;
        {
            let mut it = anchor_codes.iter();
            process_anchors(&shape, &mut work, |_, pred| {
                pred + it.next().map_or(0.0, |&c| c as f64 * two_eb)
            });
        }

        for (idx, mask) in masks.iter().enumerate() {
            let level_no = levels - idx as u32;
            let stride = level_stride(level_no);
            let num_planes = store.level_num_planes(idx);
            let want = plan.planes_loaded[idx].min(num_planes);
            let n_values = store.level_n_values(idx);
            let mut level_has_codes = false;

            if want > 0 && n_values > 0 {
                let lo = num_planes - want;
                // Resolve the level's chunks: resident containers borrow
                // them, ranged stores fetch only the masked precincts in one
                // batched (coalescible) ranged read.
                let owned;
                let level: &EncodedLevel = match &store {
                    Store::Slice(c) => &c.levels[idx],
                    Store::Source { map, source } => {
                        owned = map.levels[idx].fetch_planes_precincts(
                            source.get(),
                            lo,
                            num_planes,
                            mask,
                        )?;
                        &owned
                    }
                };
                let spans =
                    level
                        .precinct_spans
                        .as_deref()
                        .ok_or(IpcompError::CorruptContainer(
                            "precinct container level lacks precinct spans",
                        ))?;
                if spans.len() != grid.num_precincts()
                    || spans != grid.level_spans(&shape, level_no).as_slice()
                {
                    return Err(IpcompError::CorruptContainer(
                        "precinct spans inconsistent with grid geometry",
                    ));
                }
                let mut acc = vec![0u64; n_values];
                let scheme = level.scheme();
                let fetch = FetchStage::Resident {
                    level,
                    plane_lo: lo,
                    plane_hi: num_planes,
                };
                let entropy = EntropyStage::new(scheme.clone());
                let scatter = ScatterStage::new(
                    scheme.clone(),
                    num_planes,
                    lo,
                    num_planes,
                    header.prefix_bits,
                    header.predictive_coding,
                );
                let regions_in_level = mask.iter().filter(|&&m| m).count();
                let mut fetched_regions = 0usize;
                let mut coeffs_decoded = 0usize;
                for (k, &m) in mask.iter().enumerate() {
                    if !m {
                        continue;
                    }
                    if spans[k] > 0 {
                        let compressed = fetch.process(k, ())?;
                        let chunks = entropy.process(k, compressed)?;
                        let range = scheme.region_coeff_range(k);
                        scatter.process(k, (chunks, &mut acc[range]))?;
                    }
                    payload_bytes += fetch.region_compressed_bytes(k);
                    coeffs_decoded += spans[k];
                    events(StreamEvent::Region(StreamProgress {
                        level_idx: idx,
                        region: fetched_regions,
                        regions_in_level,
                        coeffs_decoded,
                        coeffs_in_level: n_values,
                        bytes_total: self.bytes_total + base_add + payload_bytes,
                    }));
                    fetched_regions += 1;
                }

                // Convert each fetched precinct's accumulators to residual
                // codes at their domain offsets: a precinct's slice of the
                // precinct-major layout holds its points in canonical order,
                // which is the canonical sweep clipped to the precinct box.
                let starts = prefix_sums(spans);
                for (k, &m) in mask.iter().enumerate() {
                    if !m || spans[k] == 0 {
                        continue;
                    }
                    let (plo, phi) = grid.precinct_box(k);
                    let window: Vec<(usize, usize)> =
                        plo.iter().zip(&phi).map(|(&a, &b)| (a, b)).collect();
                    let mut i = starts[k];
                    for_each_level_pass(&shape, stride, |d, ranges| {
                        let clipped = clip_ranges(&ranges, &window);
                        sweep_runs(&strides, &clipped, d, |run| {
                            let mut offset = run.base;
                            for _ in 0..run.count {
                                codes[offset] = from_negabinary(acc[i]);
                                i += 1;
                                offset += run.step;
                            }
                        });
                    });
                    debug_assert_eq!(i, starts[k] + spans[k]);
                }
                level_has_codes = true;
            }

            // Windowed interpolation sub-passes: compute exactly the window
            // later passes read, clipped from the full level geometry so the
            // lattice phase (and therefore the arithmetic) matches the
            // engine's full-domain sweep.
            let mut points = 0usize;
            for_each_level_pass(&shape, stride, |d, ranges| {
                let w = pass_window(&bounds, &dims, method, level_no, d);
                let clipped = clip_ranges(&ranges, &w);
                let dim_len = dims[d];
                let dim_stride = strides[d];
                sweep_runs(&strides, &clipped, d, |run| {
                    let mut offset = run.base;
                    let mut coord = run.coord;
                    for _ in 0..run.count {
                        let pred = predict_point(
                            &work, offset, coord, dim_len, dim_stride, stride, method,
                        );
                        let resid = if level_has_codes {
                            codes[offset] as f64 * two_eb
                        } else {
                            0.0
                        };
                        work[offset] = pred + resid;
                        offset += run.step;
                        coord += run.coord_step;
                    }
                    points += run.count;
                });
            });
            events(StreamEvent::LevelReconstructed(CascadeProgress {
                level_idx: idx,
                interp_level: level_no,
                points,
                levels_applied: idx + 1,
                levels_total: n_levels,
            }));
        }

        // Crop the reconstructed window to the requested box.
        let mut out = Vec::with_capacity(bounds.len());
        let unit: Vec<AxisRange> = (0..bounds.ndim)
            .map(|i| AxisRange::strided(bounds.lo[i], 1, bounds.hi[i]))
            .collect();
        sweep_runs(&strides, &unit, 0, |run| {
            let mut offset = run.base;
            for _ in 0..run.count {
                out.push(work[offset]);
                offset += run.step;
            }
        });
        let data = ArrayD::from_vec(Shape::new(&bounds.dims()), out);

        // State commits only on success: an ROI retrieval touches no
        // accumulators, so any failure above leaves the decoder exactly as
        // it was (short-read rollback is the absence of a partial commit).
        self.base_bytes_counted = true;
        self.bytes_total += base_add + payload_bytes;
        let n = header.num_elements();
        m.retrieves.incr();
        m.retrieve_bytes.add((base_add + payload_bytes) as u64);
        span.add_arg("bytes", (base_add + payload_bytes) as u64);
        Ok(Retrieval {
            data,
            bytes_this_request: base_add + payload_bytes,
            bytes_total: self.bytes_total,
            bitrate: self.bytes_total as f64 * 8.0 / n as f64,
            error_bound: header.error_bound + plan.extra_error_bound,
        })
    }

    fn retrieve_inner(
        &mut self,
        plan: &LoadPlan,
        events: Option<&mut dyn FnMut(StreamEvent)>,
    ) -> Result<Retrieval> {
        let m = crate::obs::metrics();
        let mut span = ipc_telemetry::span_timed("retrieve", "retrieve", m.retrieve_ns);
        // Collapse the optional callback to a plain sink: `streaming` keeps
        // the region-streaming path selection the callback's presence implies.
        let mut noop = |_: StreamEvent| {};
        let (events, streaming): (&mut dyn FnMut(StreamEvent), bool) = match events {
            Some(cb) => (cb, true),
            None => (&mut noop, false),
        };
        let n_levels = self.store.num_level_entries();
        if plan.planes_loaded.len() != n_levels {
            return Err(IpcompError::InvalidInput(
                "plan does not match the container's level count".into(),
            ));
        }
        let bytes_before = self.bytes_total;
        let initial = self.recon.is_none();
        let header = self.store.header().clone();
        let shape = self.shape.clone();
        let levels = num_levels(&shape);
        if initial {
            // The cascade maps container level `idx` to interpolation level
            // `num_levels - idx`; a container whose declared level count
            // disagrees with its own grid geometry (possible only through
            // corruption — the compressor derives both from the shape) would
            // underflow that mapping.
            if levels != header.num_levels || n_levels != levels as usize {
                return Err(IpcompError::CorruptContainer(
                    "declared level count inconsistent with grid dimensions",
                ));
            }
            // The cascade kernels index each level's codes by traversal
            // position, so every level's coefficient count must match the
            // grid's level partition exactly (the compressor derives both
            // from the shape; a mismatch is container corruption).
            for idx in 0..n_levels {
                let expect = crate::interp::level_count(&shape, levels - idx as u32);
                if self.store.level_n_values(idx) != expect {
                    return Err(IpcompError::CorruptContainer(
                        "level size inconsistent with grid dimensions",
                    ));
                }
            }
        }
        // Version-3 containers store each level precinct-major; the cascade
        // consumes canonical traversal order, so the permutations must be
        // ready before any codes are fed. (Runs after the geometry checks —
        // an initial retrieval validates them above, and a refinement implies
        // a successful initial retrieval already did.)
        self.ensure_layouts();

        // Per-level work items: (idx, lo, hi, want), coarsest level first.
        // Planes are counted from the most significant: having `have` planes
        // means [num_planes-have, num_planes) present.
        let mut works: Vec<(usize, u8, u8, u8)> = Vec::new();
        for idx in 0..n_levels {
            let num_planes = self.store.level_num_planes(idx);
            let want = plan.planes_loaded[idx].min(num_planes);
            let have = self.planes_loaded[idx];
            if want > have {
                works.push((idx, num_planes - want, num_planes - have, want));
            }
        }
        if !initial && works.is_empty() {
            // Nothing new requested — retrieval is monotone.
            let data = ArrayD::from_vec(
                shape,
                self.recon.as_ref().expect("reconstruction present").clone(),
            );
            let n = header.num_elements();
            m.retrieves.incr();
            span.add_arg("bytes", 0);
            return Ok(Retrieval {
                data,
                bytes_this_request: 0,
                bytes_total: self.bytes_total,
                bitrate: self.bytes_total as f64 * 8.0 / n as f64,
                error_bound: self.current_error_bound,
            });
        }

        // Algorithm 1 seeds the cascade with the anchor codes; Algorithm 2
        // propagates deltas from zero anchors (the cascade is linear in the
        // residuals) and adds the delta field onto the reconstruction.
        let mut engine =
            CascadeEngine::new(shape.clone(), header.interpolation, header.error_bound);
        if initial {
            // Base data: header + anchors + metadata are always read — but
            // only once per decoder, even across retries of a failed initial
            // reconstruction.
            if !self.base_bytes_counted {
                self.bytes_total += self.store.base_bytes();
                self.base_bytes_counted = true;
            }
            let anchor_codes = decode_anchors_bounded(self.store.anchors(), header.num_elements())?;
            engine.seed_anchors(&anchor_codes);
        } else {
            engine.seed_zero();
        }

        let had_planes = self.planes_loaded.clone();
        if let Err(e) = self.drive_levels(&works, initial, &mut engine, events, streaming) {
            if !initial {
                // Refinement must be atomic: the engine holding the applied
                // levels' delta field dies with this error, and `recon` is
                // only updated on success — leaving those levels marked
                // loaded would strand their contribution forever (a retry
                // would skip them). Undo every level this retrieval
                // completed: the planes it added occupy bits `[lo, hi)`
                // that were zero before the call, so clearing them (and
                // restoring the plane counts and byte accounting) restores
                // the pre-call state exactly. The failed level itself was
                // already rolled back by its own decode path, and an initial
                // reconstruction needs none of this — its partial loads are
                // consumed from the accumulators by the retry.
                for &(idx, lo, hi, want) in &works {
                    if self.planes_loaded[idx] == want {
                        let mask = (1u64 << hi) - (1u64 << lo);
                        for w in &mut self.acc[idx] {
                            *w &= !mask;
                        }
                        self.planes_loaded[idx] = had_planes[idx];
                    }
                }
                self.bytes_total = bytes_before;
            }
            return Err(e);
        }

        let field = engine.into_field();
        if initial {
            self.recon = Some(field);
        } else {
            let recon = self
                .recon
                .as_mut()
                .expect("refinement has a reconstruction");
            for (r, d) in recon.iter_mut().zip(&field) {
                *r += d;
            }
        }
        self.current_error_bound = self.error_bound_for_loaded();
        let data = ArrayD::from_vec(
            self.shape.clone(),
            self.recon.as_ref().expect("reconstruction present").clone(),
        );
        let bytes_this = self.bytes_total - bytes_before;
        let n = header.num_elements();
        m.retrieves.incr();
        m.retrieve_bytes.add(bytes_this as u64);
        span.add_arg("bytes", bytes_this as u64);
        Ok(Retrieval {
            data,
            bytes_this_request: bytes_this,
            bytes_total: self.bytes_total,
            bitrate: self.bytes_total as f64 * 8.0 / n as f64,
            error_bound: self.current_error_bound,
        })
    }

    /// Load every level in `works` and drive the cascade engine, coarsest
    /// level first, feeding each level's codes as soon as its planes are
    /// scattered.
    ///
    /// Every path is built from the staged decode pipeline
    /// ([`crate::pipeline`]): with `streaming` set, planes stream region by
    /// region through [`PlaneStream`] (the pipeline driver, which for ranged
    /// sources overlaps region `k + 1`'s fetch with region `k`'s decode) and
    /// the callback observes every chunk region and cascade pass as it
    /// lands. Without it, a level is decoded in bulk — the entropy stage
    /// fans out across the rayon pool — from the resident container's own
    /// level or, for ranged sources, from one batched `read_ranges`; the
    /// *next* level's batched fetch is issued on a scoped worker while the
    /// current level decodes *and runs its interpolation pass*, so backend
    /// latency overlaps both decode and reconstruction compute without
    /// changing the request pattern (still one coalescible `read_ranges` per
    /// level).
    fn drive_levels(
        &mut self,
        works: &[(usize, u8, u8, u8)],
        initial: bool,
        engine: &mut CascadeEngine,
        events: &mut dyn FnMut(StreamEvent),
        streaming: bool,
    ) -> Result<()> {
        // Clone the store handle (a reference or a pair of `Arc`s) so level
        // borrows come from a local, leaving `self` free for field updates.
        let store = self.store.clone();
        let header = store.header();
        let prefix_bits = header.prefix_bits;
        let predictive = header.predictive_coding;
        // A ranged store's next level, fetched while the current one decoded.
        let mut prefetched: Option<Result<EncodedLevel>> = None;
        let mut w = 0usize;
        for idx in 0..store.num_level_entries() {
            let Some(&(_, lo, hi, want)) = works.get(w).filter(|x| x.0 == idx) else {
                // A level this retrieval does not load: its full values on
                // an initial reconstruction that resumes after a failed one,
                // otherwise nothing (all residuals, or all deltas, zero).
                let codes = if initial && self.planes_loaded[idx] > 0 {
                    let layout = self.layouts.as_ref().map(|l| &l[idx]);
                    Self::level_codes(&self.acc[idx], None, layout)
                } else {
                    Vec::new()
                };
                Self::feed(engine, idx, codes, events);
                continue;
            };
            w += 1;
            let before = (!initial).then(|| self.snapshot_level(idx));

            if streaming {
                // Version-3 levels stream in precinct-major order, which is
                // not a canonical-order prefix — their cascade feed waits
                // for the whole level instead of riding the region stream.
                let span_feed = self.layouts.is_none();
                let cascade = span_feed.then_some((&mut *engine, before.as_deref()));
                self.stream_level(
                    &store,
                    events,
                    cascade,
                    idx,
                    lo,
                    hi,
                    prefix_bits,
                    predictive,
                )?;
                self.planes_loaded[idx] = want;
                if span_feed {
                    // Prefix feeding happened region by region inside the
                    // stream; close the level out.
                    for p in engine.level_complete(idx) {
                        events(StreamEvent::LevelReconstructed(p));
                    }
                } else {
                    let layout = self.layouts.as_ref().map(|l| &l[idx]);
                    let codes = Self::level_codes(&self.acc[idx], before.as_deref(), layout);
                    Self::feed(engine, idx, codes, events);
                }
                continue;
            }

            // Bulk: borrow the resident level, or take the ranged level's
            // one batched, coalescible read (prefetched during the previous
            // level's decode when there was one).
            let fetched;
            let level: &EncodedLevel = match &store {
                Store::Slice(c) => &c.levels[idx],
                Store::Source { map, source } => {
                    fetched = match prefetched.take() {
                        Some(res) => res?,
                        None => map.levels[idx].fetch_planes(source.get(), lo, hi)?,
                    };
                    &fetched
                }
            };
            let layout = self.layouts.as_ref().map(|l| &l[idx]);
            let acc = &mut self.acc[idx];
            let mut decode = || -> Result<()> {
                decode_planes_into(level, lo, hi, prefix_bits, predictive, acc)?;
                let codes = Self::level_codes(acc, before.as_deref(), layout);
                Self::feed(engine, idx, codes, events);
                Ok(())
            };
            match (&store, works.get(w)) {
                (Store::Source { map, source }, Some(&(nidx, nlo, nhi, _))) => {
                    let (decoded, next) = crate::pipeline::overlap_fetch(
                        || map.levels[nidx].fetch_planes(source.get(), nlo, nhi),
                        decode,
                    );
                    prefetched = Some(next);
                    decoded?;
                }
                _ => decode()?,
            }
            self.bytes_total += (lo..hi)
                .map(|p| level.planes[p as usize].len())
                .sum::<usize>();
            self.planes_loaded[idx] = want;
        }
        Ok(())
    }

    /// Hand one level's complete codes to the engine, reporting applied
    /// passes to `cb`.
    fn feed(
        engine: &mut CascadeEngine,
        idx: usize,
        codes: Vec<i64>,
        cb: &mut dyn FnMut(StreamEvent),
    ) {
        for p in engine.level_ready(idx, codes) {
            cb(StreamEvent::LevelReconstructed(p));
        }
    }

    /// Negabinary values of one level's accumulators before new planes land
    /// (all zeros while nothing is loaded).
    fn snapshot_level(&self, idx: usize) -> Vec<i64> {
        if self.planes_loaded[idx] == 0 {
            vec![0; self.acc[idx].len()]
        } else {
            from_negabinary_slice(&self.acc[idx])
        }
    }

    /// Stream one level's planes region by region through the pipeline,
    /// reporting progress per region and rolling the accumulators and byte
    /// accounting back exactly on mid-stream failure.
    ///
    /// With `cascade` set, each region's newly final coefficient prefix is
    /// decoded to codes (values, or deltas against the refinement snapshot)
    /// and fed to the engine, so the level's early interpolation sub-passes
    /// run while its later regions are still fetching. A mid-stream failure
    /// needs no engine rollback: the whole retrieval fails and the engine is
    /// discarded with it.
    #[allow(clippy::too_many_arguments)] // decode parameters travel together
    fn stream_level(
        &mut self,
        store: &Store<'a>,
        cb: &mut dyn FnMut(StreamEvent),
        mut cascade: Option<(&mut CascadeEngine, Option<&[i64]>)>,
        idx: usize,
        lo: u8,
        hi: u8,
        prefix_bits: u8,
        predictive: bool,
    ) -> Result<()> {
        let n_values = store.level_n_values(idx);
        let acc = &mut self.acc[idx];
        let mut stream = match store {
            Store::Slice(c) => {
                PlaneStream::new(&c.levels[idx], lo, hi, prefix_bits, predictive, acc.len())?
            }
            Store::Source { map, source } => PlaneStream::from_source(
                &map.levels[idx],
                source.get(),
                lo,
                hi,
                prefix_bits,
                predictive,
                acc.len(),
            )?,
        };
        let mut region = 0usize;
        let bytes_before = self.bytes_total;
        let mut coeffs_done = 0usize;
        let failure = loop {
            let k = region;
            let n_regions = stream.num_regions();
            let region_bytes = if k < n_regions {
                stream.region_compressed_bytes(k)
            } else {
                0
            };
            // Progress reporting and cascade feeding run in the pipeline's
            // post-scatter hook — inside the fetch-overlap window, so the
            // level's early interpolation sub-passes execute while the next
            // region's chunks are still in flight.
            let bytes_total = &mut self.bytes_total;
            let cascade_ref = &mut cascade;
            let result = stream.decode_next_with(acc, |coeffs, acc_region| {
                *bytes_total += region_bytes;
                cb(StreamEvent::Region(StreamProgress {
                    level_idx: idx,
                    region: k,
                    regions_in_level: n_regions,
                    coeffs_decoded: coeffs.end,
                    coeffs_in_level: n_values,
                    bytes_total: *bytes_total,
                }));
                if let Some((engine, before)) = cascade_ref.as_mut() {
                    // The prefix `[0, coeffs.end)` is final across every
                    // streamed plane: append the region's codes and let
                    // covered sub-passes run now.
                    let before_span = before.map(|b| &b[coeffs]);
                    for p in engine.level_span_arrived(idx, acc_region, before_span) {
                        cb(StreamEvent::LevelReconstructed(p));
                    }
                }
            });
            match result {
                Ok(Some(coeffs)) => {
                    coeffs_done = coeffs.end;
                    region += 1;
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        if let Some(e) = failure {
            // Restore the decoder's bulk-path guarantee that a failed load
            // leaves no trace: the planes being added were all zero in the
            // accumulators before this call, so clearing their bit range in
            // the regions already scattered (and rolling back the byte
            // accounting) undoes the partial stream exactly.
            let mask = (1u64 << hi) - (1u64 << lo);
            for w in &mut acc[..coeffs_done] {
                *w &= !mask;
            }
            self.bytes_total = bytes_before;
            return Err(e);
        }
        Ok(())
    }

    /// Upper bound on the reconstruction error given the currently loaded planes.
    fn error_bound_for_loaded(&self) -> f64 {
        let c = self.store.plan_input();
        let mut extra = 0.0;
        for idx in 0..self.store.num_level_entries() {
            let discard = self.store.level_num_planes(idx) - self.planes_loaded[idx];
            extra += crate::optimizer::level_error(c, idx, discard);
        }
        self.store.header().error_bound + extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::compress;
    use crate::config::Config;
    use ipc_metrics::linf_error;
    use ipc_tensor::{ArrayD, Shape};

    fn field() -> ArrayD<f64> {
        let shape = Shape::d3(24, 18, 20);
        ArrayD::from_fn(shape, |c| {
            (c[0] as f64 * 0.21).sin() * 3.0
                + (c[1] as f64 * 0.13).cos() * 2.0
                + (c[2] as f64 * 0.05) * (c[0] as f64 * 0.02)
        })
    }

    #[test]
    fn full_retrieval_respects_error_bound() {
        let data = field();
        let eb = 1e-5;
        let c = compress(&data, eb, &Config::default()).unwrap();
        let mut dec = ProgressiveDecoder::new(&c);
        let out = dec.retrieve(RetrievalRequest::Full).unwrap();
        let err = linf_error(data.as_slice(), out.data.as_slice());
        assert!(err <= eb * (1.0 + 1e-9), "err {err} > eb {eb}");
        assert!(out.error_bound <= eb * (1.0 + 1e-9));
    }

    #[test]
    fn coarse_retrieval_loads_fewer_bytes_and_respects_requested_bound() {
        let data = field();
        let c = compress(&data, 1e-7, &Config::default()).unwrap();

        let mut coarse_dec = ProgressiveDecoder::new(&c);
        let coarse = coarse_dec
            .retrieve(RetrievalRequest::ErrorBound(1e-2))
            .unwrap();
        let coarse_err = linf_error(data.as_slice(), coarse.data.as_slice());
        assert!(coarse_err <= 1e-2 * (1.0 + 1e-9), "coarse err {coarse_err}");

        let mut full_dec = ProgressiveDecoder::new(&c);
        let full = full_dec.retrieve(RetrievalRequest::Full).unwrap();
        assert!(
            coarse.bytes_total < full.bytes_total,
            "coarse {} vs full {}",
            coarse.bytes_total,
            full.bytes_total
        );
    }

    #[test]
    fn incremental_refinement_matches_from_scratch_reconstruction() {
        let data = field();
        let c = compress(&data, 1e-7, &Config::default()).unwrap();

        // Progressive path: coarse, then medium, then full on the same decoder.
        let mut dec = ProgressiveDecoder::new(&c);
        dec.retrieve(RetrievalRequest::ErrorBound(1e-2)).unwrap();
        dec.retrieve(RetrievalRequest::ErrorBound(1e-4)).unwrap();
        let refined = dec.retrieve(RetrievalRequest::Full).unwrap();

        // Reference path: full retrieval on a fresh decoder.
        let mut fresh = ProgressiveDecoder::new(&c);
        let reference = fresh.retrieve(RetrievalRequest::Full).unwrap();

        let diff = linf_error(reference.data.as_slice(), refined.data.as_slice());
        assert!(diff < 1e-9, "incremental vs direct differ by {diff}");
        // And the refined output must still satisfy the compression bound.
        let err = linf_error(data.as_slice(), refined.data.as_slice());
        assert!(err <= 1e-7 * (1.0 + 1e-6), "err {err}");
    }

    #[test]
    fn refinement_loads_only_new_bytes() {
        let data = field();
        let c = compress(&data, 1e-7, &Config::default()).unwrap();
        let mut dec = ProgressiveDecoder::new(&c);
        let first = dec.retrieve(RetrievalRequest::ErrorBound(1e-3)).unwrap();
        let second = dec.retrieve(RetrievalRequest::ErrorBound(1e-5)).unwrap();
        let third = dec.retrieve(RetrievalRequest::Full).unwrap();
        assert!(second.bytes_this_request > 0);
        assert!(third.bytes_this_request > 0);
        // Total bytes equal the sum of per-step bytes (each block read exactly once).
        assert_eq!(
            third.bytes_total,
            first.bytes_this_request + second.bytes_this_request + third.bytes_this_request
        );
        // And never exceed the full container size (within metadata estimation slack).
        assert!(third.bytes_total <= c.total_bytes() + 64);
    }

    #[test]
    fn lower_fidelity_request_after_refinement_is_a_noop() {
        let data = field();
        let c = compress(&data, 1e-6, &Config::default()).unwrap();
        let mut dec = ProgressiveDecoder::new(&c);
        let fine = dec.retrieve(RetrievalRequest::ErrorBound(1e-4)).unwrap();
        let coarse_again = dec.retrieve(RetrievalRequest::ErrorBound(1e-1)).unwrap();
        assert_eq!(coarse_again.bytes_this_request, 0);
        assert_eq!(coarse_again.data.as_slice(), fine.data.as_slice());
    }

    #[test]
    fn bitrate_retrieval_respects_budget() {
        let data = field();
        let c = compress(&data, 1e-8, &Config::default()).unwrap();
        let n = data.len();
        for bitrate in [1.0, 2.0, 4.0] {
            let mut dec = ProgressiveDecoder::new(&c);
            let out = dec.retrieve(RetrievalRequest::Bitrate(bitrate)).unwrap();
            let budget_bytes = (bitrate * n as f64 / 8.0) as usize;
            assert!(
                out.bytes_total <= budget_bytes.max(c.base_bytes()) + 1,
                "bitrate {bitrate}: loaded {} of budget {budget_bytes}",
                out.bytes_total
            );
        }
    }

    #[test]
    fn relative_error_bound_uses_value_range() {
        let data = field();
        let c = compress(&data, 1e-8, &Config::default()).unwrap();
        let mut dec = ProgressiveDecoder::new(&c);
        let out = dec.retrieve(RetrievalRequest::RelErrorBound(1e-3)).unwrap();
        let err = linf_error(data.as_slice(), out.data.as_slice());
        assert!(err <= 1e-3 * data.value_range() * (1.0 + 1e-9));
    }

    #[test]
    fn streaming_retrieval_matches_bulk_and_reports_monotone_progress() {
        let data = field();
        let c = compress(&data, 1e-7, &Config::default()).unwrap();

        let mut bulk_dec = ProgressiveDecoder::new(&c);
        let bulk = bulk_dec.retrieve(RetrievalRequest::Full).unwrap();

        let mut stream_dec = ProgressiveDecoder::new(&c);
        let mut reports: Vec<StreamProgress> = Vec::new();
        let streamed = stream_dec
            .retrieve_streaming(RetrievalRequest::Full, |p| reports.push(p))
            .unwrap();

        assert_eq!(streamed.data.as_slice(), bulk.data.as_slice());
        assert_eq!(streamed.bytes_total, bulk.bytes_total);
        assert!(!reports.is_empty());
        // Bytes and per-level coefficient coverage only ever grow, and every
        // level that holds planes reports completing its final region.
        for w in reports.windows(2) {
            assert!(w[1].bytes_total >= w[0].bytes_total);
        }
        for (idx, level) in c.levels.iter().enumerate() {
            if level.num_planes == 0 {
                continue;
            }
            let last = reports
                .iter()
                .rev()
                .find(|r| r.level_idx == idx)
                .expect("level with planes must report");
            assert_eq!(last.region + 1, last.regions_in_level);
            assert_eq!(last.coeffs_decoded, last.coeffs_in_level);
            assert_eq!(last.coeffs_in_level, level.n_values);
        }
    }

    #[test]
    fn streaming_refinement_matches_bulk_refinement() {
        let data = field();
        let c = compress(&data, 1e-7, &Config::default()).unwrap();

        let mut bulk_dec = ProgressiveDecoder::new(&c);
        bulk_dec
            .retrieve(RetrievalRequest::ErrorBound(1e-2))
            .unwrap();
        let bulk = bulk_dec.retrieve(RetrievalRequest::Full).unwrap();

        let mut stream_dec = ProgressiveDecoder::new(&c);
        stream_dec
            .retrieve_streaming(RetrievalRequest::ErrorBound(1e-2), |_| {})
            .unwrap();
        let mut refine_reports = 0usize;
        let streamed = stream_dec
            .retrieve_streaming(RetrievalRequest::Full, |_| refine_reports += 1)
            .unwrap();

        assert!(refine_reports > 0);
        assert_eq!(streamed.data.as_slice(), bulk.data.as_slice());
        assert_eq!(streamed.bytes_total, bulk.bytes_total);
    }

    #[test]
    fn failed_streaming_retrieval_leaves_no_partial_state() {
        let data = field();
        // Small chunks so every plane spans many regions, then corrupt a
        // *middle* chunk of the finest level's lowest plane: the streaming
        // path scatters several regions before hitting the corruption.
        let config = Config {
            chunk_bytes: 64,
            ..Config::default()
        };
        let mut c = compress(&data, 1e-7, &config).unwrap();
        let finest = c.levels.len() - 1;
        assert!(
            c.levels[finest].num_regions() > 6,
            "need multi-region planes"
        );
        c.levels[finest].planes[0].chunks[5] = vec![0xFF; 3];

        // A plan that stops above the corrupt plane decodes fine.
        let mut partial_plan = crate::optimizer::plan_full(&c);
        partial_plan.planes_loaded[finest] -= 1;
        let mut fresh = ProgressiveDecoder::new(&c);
        let reference = fresh.retrieve_with_plan(&partial_plan).unwrap();

        // The bulk path guarantees a failed load leaves no trace in the
        // accumulators; a failed streaming load must behave identically —
        // same values AND same byte accounting on the retry.
        let mut bulk_dec = ProgressiveDecoder::new(&c);
        assert!(bulk_dec.retrieve(RetrievalRequest::Full).is_err());
        let bulk_after = bulk_dec.retrieve_with_plan(&partial_plan).unwrap();

        let mut stream_dec = ProgressiveDecoder::new(&c);
        let mut regions_before_failure = 0usize;
        assert!(stream_dec
            .retrieve_streaming(RetrievalRequest::Full, |_| regions_before_failure += 1)
            .is_err());
        assert!(regions_before_failure > 0, "failure must be mid-stream");
        let stream_after = stream_dec.retrieve_with_plan(&partial_plan).unwrap();

        assert_eq!(stream_after.data.as_slice(), bulk_after.data.as_slice());
        assert_eq!(stream_after.bytes_total, bulk_after.bytes_total);
        // And the retry output carries no stray bits from the failed pass.
        assert_eq!(stream_after.data.as_slice(), reference.data.as_slice());
    }

    #[test]
    fn misaligned_chunk_bytes_config_is_rejected_not_panicking() {
        let data = field();
        let config = Config {
            chunk_bytes: 100,
            ..Config::default()
        };
        assert!(matches!(
            compress(&data, 1e-6, &config),
            Err(IpcompError::InvalidInput(_))
        ));
    }

    #[test]
    fn source_backed_retrieval_is_byte_identical_to_slice_path() {
        let data = field();
        let c = compress(&data, 1e-7, &Config::default()).unwrap();
        let source = crate::source::MemorySource::new(c.to_bytes());

        for request in [
            RetrievalRequest::ErrorBound(1e-3),
            RetrievalRequest::Bitrate(2.0),
            RetrievalRequest::Full,
        ] {
            let mut slice_dec = ProgressiveDecoder::new(&c);
            let a = slice_dec.retrieve(request).unwrap();
            let mut src_dec = ProgressiveDecoder::from_source(&source).unwrap();
            let b = src_dec.retrieve(request).unwrap();
            assert_eq!(a.data.as_slice(), b.data.as_slice(), "{request:?}");
            assert_eq!(a.bytes_total, b.bytes_total, "{request:?}");
            assert_eq!(a.error_bound, b.error_bound, "{request:?}");
        }
    }

    #[test]
    fn source_backed_refinement_matches_slice_refinement() {
        let data = field();
        let c = compress(&data, 1e-7, &Config::default()).unwrap();
        let source = crate::source::MemorySource::new(c.to_bytes());

        let mut slice_dec = ProgressiveDecoder::new(&c);
        let mut src_dec = ProgressiveDecoder::from_source(&source).unwrap();
        for request in [
            RetrievalRequest::ErrorBound(1e-2),
            RetrievalRequest::ErrorBound(1e-4),
            RetrievalRequest::Full,
        ] {
            let a = slice_dec.retrieve(request).unwrap();
            let b = src_dec.retrieve(request).unwrap();
            assert_eq!(a.data.as_slice(), b.data.as_slice(), "{request:?}");
            assert_eq!(a.bytes_this_request, b.bytes_this_request, "{request:?}");
        }
    }

    #[test]
    fn source_backed_streaming_matches_bulk() {
        let data = field();
        let config = Config {
            chunk_bytes: 64,
            ..Config::default()
        };
        let c = compress(&data, 1e-7, &config).unwrap();
        let source = crate::source::MemorySource::new(c.to_bytes());

        let mut bulk = ProgressiveDecoder::from_source(&source).unwrap();
        let full = bulk.retrieve(RetrievalRequest::Full).unwrap();

        let mut streaming = ProgressiveDecoder::from_source(&source).unwrap();
        let mut reports = 0usize;
        let streamed = streaming
            .retrieve_streaming(RetrievalRequest::Full, |_| reports += 1)
            .unwrap();
        assert!(reports > 1, "tiny chunks must stream many regions");
        assert_eq!(streamed.data.as_slice(), full.data.as_slice());
        assert_eq!(streamed.bytes_total, full.bytes_total);
    }

    #[test]
    fn shared_source_decoder_is_static_and_equivalent() {
        let data = field();
        let c = compress(&data, 1e-6, &Config::default()).unwrap();
        let source: Arc<dyn crate::source::ChunkSource> =
            Arc::new(crate::source::MemorySource::new(c.to_bytes()));
        let map = Arc::new(crate::container::ContainerMap::open(source.as_ref()).unwrap());
        let mut dec: ProgressiveDecoder<'static> =
            ProgressiveDecoder::from_shared_source(source, map);
        let out = dec.retrieve(RetrievalRequest::Full).unwrap();
        let reference = c.decompress().unwrap();
        assert_eq!(out.data.as_slice(), reference.as_slice());
    }

    #[test]
    fn precinct_layout_decodes_identically_to_byte_layout() {
        let data = field();
        let flat = compress(&data, 1e-6, &Config::default()).unwrap();
        let v3 = compress(&data, 1e-6, &Config::with_precincts(&[8, 8, 8])).unwrap();
        let a = flat.decompress().unwrap();
        let b = v3.decompress().unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        // The ranged-source and streaming paths canonicalize too.
        let source = crate::source::MemorySource::new(v3.to_bytes());
        let mut dec = ProgressiveDecoder::from_source(&source).unwrap();
        let out = dec.retrieve(RetrievalRequest::Full).unwrap();
        assert_eq!(out.data.as_slice(), a.as_slice());
        let mut sdec = ProgressiveDecoder::from_source(&source).unwrap();
        let mut regions = 0usize;
        let streamed = sdec
            .retrieve_streaming(RetrievalRequest::Full, |_| regions += 1)
            .unwrap();
        assert!(regions > 0);
        assert_eq!(streamed.data.as_slice(), a.as_slice());
    }

    #[test]
    fn precinct_refinement_converges_like_byte_layout() {
        // Precinct chunk boundaries change per-plane byte sizes, so the
        // optimizer may pick a different (equally valid) plane mix than the
        // byte-granular layout — partial decodes are not bitwise comparable
        // across layouts. The refinement contract is the same as the v2
        // layout's: every step honours its bound and refining to Full lands
        // within float-accumulation noise of a from-scratch full decode.
        let data = field();
        let v3 = compress(&data, 1e-7, &Config::with_precincts(&[8, 8, 8])).unwrap();
        let mut dec = ProgressiveDecoder::new(&v3);
        let mut prev_bytes = 0;
        for eb in [1e-2, 1e-4] {
            let r = dec.retrieve(RetrievalRequest::ErrorBound(eb)).unwrap();
            let err = linf_error(data.as_slice(), r.data.as_slice());
            assert!(err <= eb * (1.0 + 1e-9), "eb {eb}: err {err}");
            assert!(r.bytes_total > prev_bytes);
            prev_bytes = r.bytes_total;
        }
        let refined = dec.retrieve(RetrievalRequest::Full).unwrap();
        let direct = ProgressiveDecoder::new(&v3)
            .retrieve(RetrievalRequest::Full)
            .unwrap();
        let drift = linf_error(refined.data.as_slice(), direct.data.as_slice());
        assert!(drift < 1e-9, "refinement drift {drift}");
        let err = linf_error(data.as_slice(), refined.data.as_slice());
        assert!(err <= 1e-7 * (1.0 + 1e-9), "full err {err}");
    }

    #[test]
    fn roi_retrieval_matches_full_decode_then_crop() {
        let data = field(); // 24 x 18 x 20
        let c = compress(&data, 1e-7, &Config::with_precincts(&[6, 6, 5])).unwrap();
        let source = crate::source::MemorySource::new(c.to_bytes());
        let bounds = RoiBox::new(&[3, 0, 10], &[11, 7, 20]);
        for request in [RetrievalRequest::Full, RetrievalRequest::ErrorBound(1e-3)] {
            let mut full = ProgressiveDecoder::new(&c);
            let whole = full.retrieve(request).unwrap();
            let mut expect = Vec::new();
            for x in 3..11 {
                for y in 0..7 {
                    for z in 10..20 {
                        expect.push(whole.data.as_slice()[(x * 18 + y) * 20 + z]);
                    }
                }
            }
            let mut roi_dec = ProgressiveDecoder::from_source(&source).unwrap();
            let roi = roi_dec.retrieve_roi(bounds, request).unwrap();
            assert_eq!(roi.data.as_slice(), expect.as_slice(), "{request:?}");
            assert!(roi.bytes_total <= whole.bytes_total, "{request:?}");
            let mut roi_slice = ProgressiveDecoder::new(&c);
            let roi2 = roi_slice.retrieve_roi(bounds, request).unwrap();
            assert_eq!(roi2.data.as_slice(), expect.as_slice(), "{request:?}");
            assert_eq!(roi2.bytes_total, roi.bytes_total, "{request:?}");
        }
    }

    #[test]
    fn roi_request_variant_routes_through_retrieve() {
        let data = field();
        let c = compress(&data, 1e-7, &Config::with_precincts(&[6, 6, 5])).unwrap();
        let bounds = RoiBox::new(&[0, 0, 0], &[6, 6, 5]);
        let mut dec = ProgressiveDecoder::new(&c);
        let via_variant = dec
            .retrieve(RetrievalRequest::Roi {
                bounds,
                error_bound: 1e-3,
            })
            .unwrap();
        let mut dec2 = ProgressiveDecoder::new(&c);
        let direct = dec2
            .retrieve_roi(bounds, RetrievalRequest::ErrorBound(1e-3))
            .unwrap();
        assert_eq!(via_variant.data.as_slice(), direct.data.as_slice());
        assert_eq!(via_variant.data.shape().dims(), &[6, 6, 5]);
    }

    #[test]
    fn roi_requires_precinct_layout_and_valid_bounds() {
        let data = field();
        let flat = compress(&data, 1e-6, &Config::default()).unwrap();
        let mut dec = ProgressiveDecoder::new(&flat);
        assert!(matches!(
            dec.retrieve_roi(RoiBox::new(&[0, 0, 0], &[4, 4, 4]), RetrievalRequest::Full),
            Err(IpcompError::InvalidInput(_))
        ));
        let v3 = compress(&data, 1e-6, &Config::with_precincts(&[8, 8, 8])).unwrap();
        let mut dec = ProgressiveDecoder::new(&v3);
        // Out-of-domain and rank-mismatched boxes are rejected.
        assert!(dec
            .retrieve_roi(RoiBox::new(&[0, 0, 0], &[25, 4, 4]), RetrievalRequest::Full)
            .is_err());
        assert!(dec
            .retrieve_roi(RoiBox::new(&[0, 0], &[4, 4]), RetrievalRequest::Full)
            .is_err());
        // And a nested ROI request cannot sneak a second box in.
        assert!(dec
            .retrieve_roi(
                RoiBox::new(&[0, 0, 0], &[4, 4, 4]),
                RetrievalRequest::Roi {
                    bounds: RoiBox::new(&[0, 0, 0], &[4, 4, 4]),
                    error_bound: 1e-3,
                },
            )
            .is_err());
    }

    #[test]
    fn roi_budget_requests_scope_bytes_to_the_region() {
        let data = field();
        let c = compress(&data, 1e-8, &Config::with_precincts(&[6, 6, 5])).unwrap();
        let bounds = RoiBox::new(&[0, 0, 0], &[8, 8, 8]);
        let budget = c.base_bytes() + 2000;
        let mut dec = ProgressiveDecoder::new(&c);
        let out = dec
            .retrieve_roi(bounds, RetrievalRequest::SizeBudget(budget))
            .unwrap();
        assert!(
            out.bytes_total <= budget.max(c.base_bytes()) + 1,
            "loaded {} of budget {budget}",
            out.bytes_total
        );
        assert_eq!(out.data.shape().dims(), &[8, 8, 8]);
    }

    #[test]
    fn plan_mismatch_rejected() {
        let data = field();
        let c = compress(&data, 1e-6, &Config::default()).unwrap();
        let mut dec = ProgressiveDecoder::new(&c);
        let bad = LoadPlan {
            planes_loaded: vec![1],
            extra_error_bound: 0.0,
            payload_bytes: 0,
        };
        assert!(dec.retrieve_with_plan(&bad).is_err());
    }
}
