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
//! Both algorithms run through one level loader and one cascade hand-over:
//! every level loads region by region, entropy-decoded then scattered,
//! through the crate's one level loader (`pipeline::load_level`), then goes
//! to the streaming cascade engine ([`crate::cascade`]) whole, so each
//! level's interpolation pass runs as soon as that level's planes are
//! decoded and scattered — on streaming retrievals
//! [`StreamEvent::LevelReconstructed`] reports each applied pass — instead
//! of one monolithic dequantize + interpolate sweep after the last byte
//! lands. The loader does no rollback: the decoder owns the accumulators,
//! and a failed retrieval's error branch is the one place that undoes its
//! loads, so a failure leaves no trace.
//!
//! Over ranged storage the **request** is the unit of I/O, not the level,
//! and the plan is the fetch: before any level decodes, the retrieval lowers
//! its plan to byte ranges ([`crate::planner::lower_plan`] — the list the
//! store layer prices a request by) and builds one `RequestFetch` from
//! them, cut into the byte-budgeted groups of
//! [`crate::planner::fetch_groups`]. Each level load takes its run buffers
//! from that fetch when the loop reaches the level — the first load of a
//! group reads the whole group, so the levels after it usually find their
//! bytes resident — and the loader decodes them in place: the fetched
//! bytes are never copied into an in-memory level. An archive window
//! builds one fetch for all its steps and lends it to each step's decodes.
//!
//! One map per decoder; the backing only supplies chunk bytes. Every
//! decoder holds one [`ContainerMap`] — opened from its source, or built by
//! [`ContainerMap::from_compressed`] over a resident [`Compressed`] — and
//! reads the header, anchors, level geometry, cost table and chunk sizes
//! from it alone. What differs is where a level's chunks come from: the
//! resident container's own chunk `Vec`s, or ranged reads of a
//! [`ChunkSource`].
//!
//! The read path trusts the map. Whether a container's metadata is
//! consistent — level count and sizes against the dims, loss tables,
//! precinct spans against the header's grid, a resident level's plane and
//! chunk lists — is decided once, where the map is built, and kept as its
//! one verdict (the parser refuses; `from_compressed` records). Every plan
//! and retrieval checks that verdict first and nothing else, and reads the
//! validated precinct grid from the map.
//!
//! There is one read core. Every `retrieve*` spelling resolves its request
//! through the optimizer's one scope rule (`optimizer::plan_for_scope`, over
//! the map's cost table) and runs the same level loop; a spatial region
//! ([`ProgressiveDecoder::retrieve_roi`]) is Algorithm 1 over the precincts
//! the region's halo touches — the same plan, the same level loads with
//! each level's region list cut to those precincts' ids — into scratch
//! state sized by the region, so it never disturbs the progressive state
//! and a failed region read has only the byte accounting to restore. Its
//! cascade (`cascade::RegionCascade`) holds one dense box per level, on
//! that level's own lattice: the points of the level's stride around the
//! region, widened by the predictor's reach — everything the level's
//! windowed sub-passes compute or read. Each box is seeded from the next
//! coarser one, takes the level's residuals from a scratch accumulator of
//! the selected precincts, and is swept in lattice units with the same bits
//! as the whole-field sweep; the region is a copy out of the finest box. No
//! buffer of a region read is sized by the field.
//!
//! A version-3 container stores every level precinct-major; the cascade reads
//! canonical traversal order. Both reads cross between the two through the
//! one precinct walk of [`crate::precinct`], which works from per-dimension
//! cell tables: a full read writes each level's codes to their canonical
//! positions, and a region read places its precincts' codes, by domain
//! offset, into the level's box. The decoder caches no per-level layout.

use std::sync::Arc;

use ipc_codecs::negabinary::from_negabinary;
use ipc_tensor::{ArrayD, Shape};

use crate::bitplane::EncodedLevel;
use crate::cascade::{CascadeEngine, CascadeProgress, RegionCascade};
use crate::container::{decode_anchors_bounded, Compressed, ContainerMap};
use crate::error::{IpcompError, Result};
use crate::interp::num_levels;
use crate::optimizer::{plan_for_scope, LoadPlan, RegionMasks};
use crate::pipeline::{clear_planes, load_level};
use crate::planner::{lower_plan, RequestFetch};
use crate::precinct::{PrecinctGrid, RoiBox};
use crate::source::ChunkSource;

/// Plane mask selecting a coefficient's whole negabinary word.
const ALL_PLANES: u64 = u64::MAX;

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
/// retrieval ([`ProgressiveDecoder::retrieve_streaming_events`]). A region
/// without coefficients (an empty precinct) is never decoded or reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamProgress {
    /// Index into the container's level list (coarsest level first).
    pub level_idx: usize,
    /// Chunk region just completed, counted among the non-empty regions of
    /// the level load's region list (every region of the level, or the
    /// precincts a spatial region reads).
    pub region: usize,
    /// The non-empty regions of the level load's region list: how many
    /// `region` reports the level streams for this request.
    pub regions_in_level: usize,
    /// Coefficients of the level load decoded so far (prefix property:
    /// everything below this index of the load's coefficients — the listed
    /// regions' back to back — is final for the requested fidelity).
    pub coeffs_decoded: usize,
    /// Total coefficients of the level load: the level's own on a full
    /// read, the listed precincts' on a spatial region's.
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

/// Where a [`ProgressiveDecoder`] reads chunk bytes from — the one thing its
/// two kinds differ in. Everything else (header, anchors, level geometry,
/// costs, chunk sizes) is read from the decoder's [`ContainerMap`].
enum Backing<'a> {
    /// The levels of a fully resident [`Compressed`]: each level decodes from
    /// its own chunk `Vec`s, the reference the ranged path is checked against.
    Resident(&'a [EncodedLevel]),
    /// Ranged access to the serialized bytes: a borrowed source (wrapped
    /// through `impl ChunkSource for &S`) or a shared one that lets sessions
    /// own a `'static` decoder. Each retrieval fetches through its own
    /// [`RequestFetch`].
    Ranged(Arc<dyn ChunkSource + 'a>),
    /// No chunk source of its own: every retrieval takes its chunk bytes
    /// from a fetch it is lent (an archive window's).
    Lent,
}

/// Where one retrieval's level loads get their chunk bytes.
enum LevelBytes<'r, 's> {
    /// A resident container's own chunks.
    Resident(&'r [EncodedLevel]),
    /// Level `idx`'s runs are load `(decode, idx)` of a request's fetch.
    Fetched(&'r mut RequestFetch<'s>, usize),
}

/// Stateful progressive decoder for one compressed field.
pub struct ProgressiveDecoder<'a> {
    /// The container's metadata, cost table and chunk index, whatever backs
    /// its chunks.
    map: Arc<ContainerMap>,
    chunks: Backing<'a>,
    shape: Shape,
    /// Negabinary accumulators per level (same ordering as the container's
    /// levels), each allocated by the level's first full-domain load.
    acc: Vec<Vec<u64>>,
    /// Planes currently loaded per level (counted from the most significant).
    planes_loaded: Vec<u8>,
    /// Current reconstruction, present after the first retrieval.
    recon: Option<Vec<f64>>,
    bytes_total: usize,
    /// Whether the base read (header + anchors + metadata) has been counted.
    /// It is read once per decoder, so a retry after a failed initial
    /// reconstruction must not charge it again.
    base_bytes_counted: bool,
    /// `(referee, threads)` for every engine this decoder builds; see
    /// [`ProgressiveDecoder::with_kernel`].
    #[cfg(any(test, feature = "reference-scalar"))]
    kernel: (bool, usize),
}

impl<'a> ProgressiveDecoder<'a> {
    /// Create a decoder with nothing loaded yet over a fully resident
    /// container. One map per decoder: like a ranged decoder's, this one
    /// reads metadata, costs and chunk sizes from a [`ContainerMap`] — here
    /// [`ContainerMap::from_compressed`] — and the backing only supplies
    /// chunk bytes, the container's own chunk `Vec`s.
    pub fn new(compressed: &'a Compressed) -> Self {
        let map = Arc::new(ContainerMap::from_compressed(compressed));
        Self::with_backing(map, Backing::Resident(&compressed.levels))
    }

    /// Create a decoder over ranged container storage, reading the metadata
    /// map from the source up front (payload bytes are only fetched as
    /// retrievals request them).
    pub fn from_source(source: &'a dyn ChunkSource) -> Result<Self> {
        let map = Arc::new(ContainerMap::open(source)?);
        Ok(Self::with_backing(map, Backing::Ranged(Arc::new(source))))
    }

    /// Like [`ProgressiveDecoder::from_source`] with an already-parsed
    /// metadata map (e.g. shared across many client sessions) and owning a
    /// shared handle to the source, producing a `'static` decoder that
    /// sessions can hold without borrowing.
    pub fn from_shared_source(
        source: Arc<dyn ChunkSource>,
        map: Arc<ContainerMap>,
    ) -> ProgressiveDecoder<'static> {
        ProgressiveDecoder::with_backing(map, Backing::Ranged(source))
    }

    /// A decoder over `map` whose retrievals take their chunk bytes from a
    /// lent [`RequestFetch`] (see [`ProgressiveDecoder::retrieve_scoped`]).
    pub(crate) fn lent(map: Arc<ContainerMap>) -> ProgressiveDecoder<'static> {
        ProgressiveDecoder::with_backing(map, Backing::Lent)
    }

    fn with_backing(map: Arc<ContainerMap>, chunks: Backing<'a>) -> Self {
        let shape = map.header.shape();
        let acc = vec![Vec::new(); map.levels.len()];
        let planes_loaded = vec![0u8; map.levels.len()];
        Self {
            map,
            chunks,
            shape,
            acc,
            planes_loaded,
            recon: None,
            bytes_total: 0,
            base_bytes_counted: false,
            #[cfg(any(test, feature = "reference-scalar"))]
            kernel: (false, 0),
        }
    }

    /// Bind every cascade this decoder runs to the point-wise referee
    /// (`referee`) or the run kernels, with `threads` pinned sub-pass workers
    /// (0 = the default schedule): [`CascadeEngine::with_kernel`], per
    /// decoder, so bit-identity suites can sweep the public decode paths
    /// concurrently. Fields are bit-identical either way.
    #[cfg(any(test, feature = "reference-scalar"))]
    pub fn with_kernel(mut self, referee: bool, threads: usize) -> Self {
        self.kernel = (referee, threads);
        self
    }

    /// Cascade codes of level entry `idx`'s accumulators, in the canonical
    /// traversal order the cascade engine consumes: the negabinary value of
    /// the planes in `plane_mask` — every plane ([`ALL_PLANES`]) for the full
    /// values of an initial reconstruction, the planes a refinement just
    /// loaded for its deltas (negabinary is positional, so those planes alone
    /// decode to exactly what they add). A version-3 level's precinct-major
    /// words go straight to their canonical positions in one precinct walk
    /// over the map's grid. Runs past the map's verdict, so entry `idx` is
    /// interpolation level `num_levels - idx`.
    fn level_codes(&self, idx: usize, plane_mask: u64) -> Vec<i64> {
        let acc = &self.acc[idx];
        let code = |w: u64| from_negabinary(w & plane_mask);
        let Some(grid) = self.map.grid() else {
            return acc.iter().map(|&w| code(w)).collect();
        };
        let walk = grid.level_walk(&self.shape, num_levels(&self.shape) - idx as u32);
        let mut codes = vec![0i64; acc.len()];
        let mut i = 0;
        walk.for_each_row(0..walk.num_precincts(), |row| {
            let out = &mut codes[row.canon..row.canon + row.len];
            for (c, &w) in out.iter_mut().zip(&acc[i..i + row.len]) {
                *c = code(w);
            }
            i += row.len;
        });
        codes
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
        self.map.cost()?.plan(request)
    }

    /// Retrieve (or refine to) the fidelity described by `request`.
    ///
    /// Retrieval is monotone: if the request asks for less fidelity than what is
    /// already loaded, the current reconstruction is returned unchanged and no data
    /// is read. A [`RetrievalRequest::Roi`] request is
    /// [`ProgressiveDecoder::retrieve_roi`] at an error bound.
    pub fn retrieve(&mut self, request: RetrievalRequest) -> Result<Retrieval> {
        self.retrieve_scoped(request, None, None, None)
    }

    /// Retrieve (or refine to) the fidelity described by `request`,
    /// streaming both decode progress (one [`StreamEvent::Region`] per chunk
    /// region) and reconstruction progress (one
    /// [`StreamEvent::LevelReconstructed`] per cascade pass, as soon as the
    /// level's coefficients land — coarse lattices are final while the finest
    /// level is still streaming).
    ///
    /// Chunked (version-2) containers stream at entropy-chunk granularity —
    /// 512 Ki coefficients per report — so a caller can surface progress,
    /// meter I/O, or overlap consumption with decoding; whole-plane levels
    /// report once per plane. Precinct (version-3) containers report one
    /// region per precinct that holds coefficients at the level — every one
    /// on a full read, the fetched ones under a [`RetrievalRequest::Roi`]
    /// request, which also reports one windowed cascade pass per level.
    /// The final reconstruction is identical to
    /// [`ProgressiveDecoder::retrieve`] with the same request.
    pub fn retrieve_streaming_events(
        &mut self,
        request: RetrievalRequest,
        mut events: impl FnMut(StreamEvent),
    ) -> Result<Retrieval> {
        self.retrieve_scoped(request, None, Some(&mut events), None)
    }

    /// Retrieve (or refine to) a specific loading plan.
    pub fn retrieve_with_plan(&mut self, plan: &LoadPlan) -> Result<Retrieval> {
        self.retrieve_inner(plan, None, None, None)
    }

    /// Reconstruct only the axis-aligned region `bounds` at the fidelity of
    /// `request`, fetching exactly the entropy chunks whose precincts
    /// intersect the region's per-level halo windows.
    ///
    /// Requires a precinct-partitioned (version-3) container. The returned
    /// [`Retrieval::data`] has the region's shape and is bit-identical to
    /// cropping a full-domain retrieval of the same request; how each request
    /// type plans under a region is the optimizer's scope rule
    /// (`optimizer::plan_for_scope`).
    ///
    /// ROI retrievals are stateless with respect to the decoder's
    /// progressive accumulators: they never consume or advance previously
    /// loaded planes, so they interleave freely with full-domain
    /// retrievals. Only the cumulative byte accounting is shared, and a
    /// failed ROI retrieval commits nothing.
    pub fn retrieve_roi(&mut self, bounds: RoiBox, request: RetrievalRequest) -> Result<Retrieval> {
        self.retrieve_scoped(request, Some(bounds), None, None)
    }

    /// The one read core behind every `retrieve*` spelling: resolve the
    /// request and optional region through the optimizer, then run the
    /// shared loop — with an event sink when the caller passed one, and
    /// taking chunk bytes from `lent`, load `(decode, level)` of a wider
    /// request's fetch, when the caller lends one.
    pub(crate) fn retrieve_scoped(
        &mut self,
        request: RetrievalRequest,
        region: Option<RoiBox>,
        events: Option<&mut dyn FnMut(StreamEvent)>,
        lent: Option<(&mut RequestFetch<'a>, usize)>,
    ) -> Result<Retrieval> {
        let (plan, region) = plan_for_scope(&self.map, request, region)?;
        self.retrieve_inner(&plan, region, events, lent)
    }

    fn retrieve_inner(
        &mut self,
        plan: &LoadPlan,
        region: Option<RegionMasks>,
        events: Option<&mut dyn FnMut(StreamEvent)>,
        lent: Option<(&mut RequestFetch<'a>, usize)>,
    ) -> Result<Retrieval> {
        let m = crate::obs::metrics();
        let name = if region.is_some() {
            "retrieve_roi"
        } else {
            "retrieve"
        };
        let mut span = ipc_telemetry::span_timed("retrieve", name, m.retrieve_ns);
        let events = match events {
            Some(cb) => cb,
            None => &mut |_| {},
        };
        // The map's verdict is the read path's one check: past it, level
        // geometry, loss tables, precinct spans and chunk structure are
        // consistent.
        let map = Arc::clone(&self.map);
        let cost = map.cost()?;
        let n_levels = map.levels.len();
        if plan.planes_loaded.len() != n_levels {
            return Err(IpcompError::InvalidInput(
                "plan does not match the container's level count".into(),
            ));
        }
        // A region retrieval reconstructs from scratch into scratch state,
        // whatever the decoder already holds.
        let initial = region.is_some() || self.recon.is_none();
        let region = region.map(|(bounds, ids)| RegionScope { bounds, ids });

        // Per-level work items: (idx, lo, hi, want), coarsest level first.
        // Planes are counted from the most significant: having `have` planes
        // means [num_planes-have, num_planes) present.
        let mut works: Vec<(usize, u8, u8, u8)> = Vec::new();
        for (idx, level) in map.levels.iter().enumerate() {
            let num_planes = level.num_planes;
            let want = plan.planes_loaded[idx].min(num_planes);
            let have = if region.is_some() {
                0
            } else {
                self.planes_loaded[idx]
            };
            if want > have {
                works.push((idx, num_planes - want, num_planes - have, want));
            }
        }

        let bytes_before = self.bytes_total;
        let base_counted_before = self.base_bytes_counted;
        let had_planes = self.planes_loaded.clone();
        let mut cropped = None;
        // With nothing new requested the retrieval is monotone: no load, the
        // current reconstruction is returned as is.
        if initial || !works.is_empty() {
            // A ranged backing reads by request, not by level: the plan's
            // lowered reads — what it has yet to load, of the region's
            // precincts — are the fetch every level load takes its bytes
            // from.
            let mut own;
            let chunks = match (lent, &self.chunks) {
                (Some((fetch, decode)), _) => LevelBytes::Fetched(fetch, decode),
                (None, Backing::Resident(levels)) => LevelBytes::Resident(levels),
                (None, Backing::Ranged(source)) => {
                    let (have, ids) = match &region {
                        Some(scope) => (&[][..], Some(&scope.ids[..])),
                        None => (&self.planes_loaded[..], None),
                    };
                    let reads = lower_plan(&map, have, plan, ids).reads;
                    own = RequestFetch::new(Arc::clone(source), &[(0, reads)]);
                    LevelBytes::Fetched(&mut own, 0)
                }
                (None, Backing::Lent) => {
                    return Err(IpcompError::InvalidInput(
                        "a lent decoder reads only from a lent fetch".into(),
                    ))
                }
            };
            let loaded = self.drive_levels(&map, chunks, &works, initial, region.as_ref(), events);
            let field = match loaded {
                Ok(field) => field,
                Err(e) => {
                    match &region {
                        // A region retrieval touched only scratch state and
                        // the byte accounting: restoring the latter leaves
                        // the decoder exactly as it was.
                        Some(_) => {
                            self.bytes_total = bytes_before;
                            self.base_bytes_counted = base_counted_before;
                        }
                        // The decoder owns the accumulators, so it undoes
                        // every load it does not keep: the planes a work
                        // level adds occupy bits `[lo, hi)` that were zero
                        // before the call, so clearing them restores the
                        // level exactly. A refinement keeps nothing — the
                        // engine holding the applied levels' delta field
                        // dies with this error and `recon` is only updated
                        // on success, so a level left marked loaded would
                        // strand its contribution (a retry would skip it) —
                        // and restores the plane counts and byte accounting.
                        // An initial read keeps the levels it completed,
                        // which the retry consumes from the accumulators,
                        // and their bytes; the failed level's bytes were
                        // never committed.
                        None => {
                            for &(idx, lo, hi, want) in &works {
                                if !initial || self.planes_loaded[idx] != want {
                                    clear_planes(&mut self.acc[idx], lo, hi);
                                }
                            }
                            if !initial {
                                self.planes_loaded = had_planes;
                                self.bytes_total = bytes_before;
                            }
                        }
                    }
                    return Err(e);
                }
            };
            match (&region, &mut self.recon) {
                (Some(scope), _) => {
                    let dims = Shape::new(&scope.bounds.dims());
                    cropped = Some(ArrayD::from_vec(dims, field));
                }
                (None, Some(recon)) if !initial => {
                    for (r, d) in recon.iter_mut().zip(&field) {
                        *r += d;
                    }
                }
                (None, recon) => *recon = Some(field),
            }
        }

        let header = &map.header;
        let (data, error_bound) = match cropped {
            Some(data) => (data, header.error_bound + plan.extra_error_bound),
            None => (
                self.current().expect("reconstruction present"),
                cost.error_bound(&self.planes_loaded),
            ),
        };
        let bytes_this = self.bytes_total - bytes_before;
        m.retrieves.incr();
        m.retrieve_bytes.add(bytes_this as u64);
        span.add_arg("bytes", bytes_this as u64);
        Ok(Retrieval {
            data,
            bytes_this_request: bytes_this,
            bytes_total: self.bytes_total,
            bitrate: self.bytes_total as f64 * 8.0 / header.num_elements() as f64,
            error_bound,
        })
    }

    /// Seed a cascade, load every level in `works` and drive the cascade
    /// with it, coarsest level first, handing each level over as soon as its
    /// planes are scattered. Returns the cascaded values: the reconstruction
    /// on an initial retrieval, the delta field on a refinement, the
    /// region's crop under a `region`.
    ///
    /// There is one level loader and one input to it, a `LevelChunks`
    /// table under the scheme `map` holds for the level, over the load's
    /// region list: every region of the level, or under a `region` the ids of
    /// the precincts it reads. A resident level's table borrows its chunks; a
    /// fetched level's is cut by [`crate::LevelMap::fetch_planes`] from the
    /// run buffers the level takes from the request's [`RequestFetch`] —
    /// slices of its group's one read, so the first level of a group brings
    /// in every range grouped with it and the levels after it find their
    /// bytes resident. Either way the level then loads region by region
    /// through the one level loader (`pipeline::load_level`), reporting
    /// every non-empty region to `events` — with the decoder's byte total
    /// so far, to which the level's bytes are committed only once it
    /// loads — and goes to the cascade whole: [`CascadeEngine::level_ready`]
    /// over the field, or under a `region` the level's box of the region
    /// cascade (`cascade::RegionCascade`), into which the codes of a scratch
    /// accumulator of the selected precincts are placed first. A version-3
    /// level's precinct-major words reach either through the one precinct
    /// walk (`PrecinctGrid::level_walk`), built per level from the grid `map`
    /// validated when it was built: the decoder keeps no layout. A failed
    /// load is returned as is, planes half-scattered: its caller,
    /// `retrieve_inner`, undoes it.
    fn drive_levels(
        &mut self,
        map: &ContainerMap,
        mut chunks: LevelBytes<'_, '_>,
        works: &[(usize, u8, u8, u8)],
        initial: bool,
        region: Option<&RegionScope>,
        events: &mut dyn FnMut(StreamEvent),
    ) -> Result<Vec<f64>> {
        let header = &map.header;
        // Algorithm 1 seeds the cascade with the anchor codes; Algorithm 2
        // propagates deltas from zero anchors (the cascade is linear in the
        // residuals) and adds the delta field onto the reconstruction.
        let mut anchors = Vec::new();
        if initial {
            // Base data: header + anchors + metadata are always read — but
            // only once per decoder, even across retries of a failed initial
            // reconstruction.
            if !self.base_bytes_counted {
                self.bytes_total += map.base_bytes();
                self.base_bytes_counted = true;
            }
            anchors = decode_anchors_bounded(&map.anchors, header.num_elements())?;
        }
        let (method, eb) = (header.interpolation, header.error_bound);
        let mut cascade = match region {
            Some(scope) => Cascade::Region(
                scope,
                RegionCascade::new(&self.shape, method, eb, scope.bounds, &anchors),
            ),
            None => {
                let mut engine = CascadeEngine::new(self.shape.clone(), method, eb);
                #[cfg(any(test, feature = "reference-scalar"))]
                {
                    let (referee, threads) = self.kernel;
                    engine = engine.with_kernel(referee, threads);
                }
                match initial {
                    true => engine.seed_anchors(&anchors),
                    false => engine.seed_zero(),
                }
                Cascade::Field(engine)
            }
        };
        let mut w = 0usize;
        for (idx, level) in map.levels.iter().enumerate() {
            let work = works.get(w).filter(|x| x.0 == idx).copied();
            w += usize::from(work.is_some());
            // A region decodes into a scratch accumulator holding its
            // precincts' coefficients back to back; a full-domain load
            // into the level's own, allocated by its first load.
            let mut scratch = Vec::new();
            if let Some((_, lo, hi, want)) = work {
                let ids = region.map(|scope| &scope.ids[idx][..]);
                let fetched;
                let chunks = match &mut chunks {
                    LevelBytes::Resident(levels) => {
                        levels[idx].chunk_table(Arc::clone(level.scheme()), lo, hi, ids)?
                    }
                    LevelBytes::Fetched(fetch, decode) => {
                        fetched = fetch.take(*decode, idx)?;
                        level.fetch_planes(lo, hi, ids, &fetched)?
                    }
                };
                let acc = match region {
                    Some(_) => {
                        scratch = vec![0u64; chunks.acc_len()];
                        &mut scratch[..]
                    }
                    None => {
                        let acc = &mut self.acc[idx];
                        if acc.is_empty() {
                            *acc = vec![0u64; level.n_values];
                        }
                        &mut acc[..]
                    }
                };
                // The level's bytes are committed once it loads; each
                // region reports the committed total plus the level's so far.
                let (regions_in_level, coeffs_in_level) = (chunks.regions.len(), acc.len());
                let (mut region_at, mut coeffs_decoded, mut level_bytes) = (0, 0, 0);
                let committed = self.bytes_total;
                let (prefix_bits, predictive) = (header.prefix_bits, header.predictive_coding);
                load_level(&chunks, prefix_bits, predictive, acc, |coeffs, bytes| {
                    level_bytes += bytes;
                    coeffs_decoded += coeffs.len();
                    events(StreamEvent::Region(StreamProgress {
                        level_idx: idx,
                        region: region_at,
                        regions_in_level,
                        coeffs_decoded,
                        coeffs_in_level,
                        bytes_total: committed + level_bytes,
                    }));
                    region_at += 1;
                })?;
                self.bytes_total += level_bytes;
                if region.is_none() {
                    self.planes_loaded[idx] = want;
                }
            }
            let engine = match &mut cascade {
                Cascade::Region(scope, boxes) => {
                    boxes.open_level(idx);
                    if work.is_some() {
                        let grid = map.grid().expect("precinct ids imply a grid");
                        scope.place_codes(&self.shape, idx, grid, &scratch, boxes);
                    }
                    let pass = boxes.close_level(work.is_some());
                    events(StreamEvent::LevelReconstructed(pass));
                    continue;
                }
                Cascade::Field(engine) => engine,
            };
            // Full values on an initial reconstruction — including a level
            // loaded by an earlier, failed one — or the delta the newly
            // loaded planes `[lo, hi)` contribute; nothing (all residuals,
            // or all deltas, zero) for a level with nothing to add.
            let codes = match work {
                Some((_, lo, hi, _)) if !initial => {
                    self.level_codes(idx, (1u64 << hi) - (1u64 << lo))
                }
                _ if initial && self.planes_loaded[idx] > 0 => self.level_codes(idx, ALL_PLANES),
                _ => Vec::new(),
            };
            for pass in engine.level_ready(idx, codes) {
                events(StreamEvent::LevelReconstructed(pass));
            }
        }
        Ok(match cascade {
            Cascade::Region(_, boxes) => boxes.crop(),
            Cascade::Field(engine) => engine.into_field(),
        })
    }
}

/// The cascade one retrieval drives: the whole field's, or a region's
/// per-level boxes.
enum Cascade<'s> {
    Field(CascadeEngine),
    Region(&'s RegionScope, RegionCascade),
}

/// Spatial scope of a region retrieval — the only state a region adds to the
/// shared read loop: which precincts each level loads.
struct RegionScope {
    bounds: RoiBox,
    /// `ids[idx]`: the ascending ids of the precincts level entry `idx` loads
    /// (the box plus the cascade's cross-level halo; see
    /// [`crate::precinct::roi_precinct_masks`]).
    ids: Vec<Vec<usize>>,
}

impl RegionScope {
    /// Place level entry `idx`'s scratch accumulator — its listed
    /// precincts' coefficients back to back, in list order — into the
    /// level's box of the region cascade, in one precinct walk over those
    /// ids. The map's verdict holds the level's spans to be the `grid`'s.
    fn place_codes(
        &self,
        shape: &Shape,
        idx: usize,
        grid: &PrecinctGrid,
        acc: &[u64],
        cascade: &mut RegionCascade,
    ) {
        let walk = grid.level_walk(shape, num_levels(shape) - idx as u32);
        let mut i = 0;
        walk.for_each_row(self.ids[idx].iter().copied(), |row| {
            cascade.place_row(row.offset, row.step, &acc[i..i + row.len]);
            i += row.len;
        });
        debug_assert_eq!(i, acc.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::compress;
    use crate::config::{Config, Interpolation};
    use ipc_metrics::linf_error;
    use ipc_tensor::{ArrayD, Shape};

    /// `retrieve_streaming_events` narrowed to chunk-region progress.
    fn retrieve_regions(
        dec: &mut ProgressiveDecoder<'_>,
        request: RetrievalRequest,
        mut progress: impl FnMut(StreamProgress),
    ) -> Result<Retrieval> {
        dec.retrieve_streaming_events(request, |event| {
            if let StreamEvent::Region(p) = event {
                progress(p);
            }
        })
    }

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
        let streamed =
            retrieve_regions(&mut stream_dec, RetrievalRequest::Full, |p| reports.push(p)).unwrap();

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

        // A region read's progress completes too: each level load's last
        // event covers the load's coefficients, fewer than the level's.
        let v3 = compress(&data, 1e-7, &Config::with_precincts(&[6, 6, 5])).unwrap();
        let roi = RetrievalRequest::Roi {
            bounds: RoiBox::new(&[3, 0, 10], &[11, 7, 20]),
            error_bound: 1e-7,
        };
        let mut roi_reports: Vec<StreamProgress> = Vec::new();
        let mut roi_dec = ProgressiveDecoder::new(&v3);
        retrieve_regions(&mut roi_dec, roi, |p| roi_reports.push(p)).unwrap();
        let mut partial_levels = 0;
        for (idx, level) in v3.levels.iter().enumerate() {
            let Some(last) = roi_reports.iter().rev().find(|r| r.level_idx == idx) else {
                continue;
            };
            assert_eq!(last.region + 1, last.regions_in_level);
            assert_eq!(last.coeffs_decoded, last.coeffs_in_level);
            partial_levels += usize::from(last.coeffs_in_level < level.n_values);
        }
        assert!(partial_levels > 0, "the region reads part of a level");
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
        retrieve_regions(&mut stream_dec, RetrievalRequest::ErrorBound(1e-2), |_| {}).unwrap();
        let mut refine_reports = 0usize;
        let streamed = retrieve_regions(&mut stream_dec, RetrievalRequest::Full, |_| {
            refine_reports += 1
        })
        .unwrap();

        assert!(refine_reports > 0);
        assert_eq!(streamed.data.as_slice(), bulk.data.as_slice());
        assert_eq!(streamed.bytes_total, bulk.bytes_total);
    }

    #[test]
    fn failed_streaming_retrieval_leaves_no_partial_state() {
        let data = field();
        // Small chunks so every plane spans many regions, then corrupt a
        // *middle* chunk of the finest level's lowest plane: the level
        // loader scatters several regions before hitting the corruption.
        let config = Config {
            chunk_bytes: 64,
            ..Config::default()
        };
        let mut c = compress(&data, 1e-7, &config).unwrap();
        let finest = c.levels.len() - 1;
        assert!(
            c.levels[finest].scheme().num_regions() > 6,
            "need multi-region planes"
        );
        c.levels[finest].planes[0].chunks[5] = vec![0xFF; 3];

        // A plan that stops above the corrupt plane decodes fine.
        let mut partial_plan = ProgressiveDecoder::new(&c)
            .plan(RetrievalRequest::Full)
            .unwrap();
        partial_plan.planes_loaded[finest] -= 1;
        let mut fresh = ProgressiveDecoder::new(&c);
        let reference = fresh.retrieve_with_plan(&partial_plan).unwrap();

        // A failed load leaves no trace in the accumulators, with or without
        // an event sink — same values AND same byte accounting on the retry.
        let mut bulk_dec = ProgressiveDecoder::new(&c);
        assert!(bulk_dec.retrieve(RetrievalRequest::Full).is_err());
        let bulk_after = bulk_dec.retrieve_with_plan(&partial_plan).unwrap();

        let mut stream_dec = ProgressiveDecoder::new(&c);
        let mut regions_before_failure = 0usize;
        assert!(
            retrieve_regions(&mut stream_dec, RetrievalRequest::Full, |_| {
                regions_before_failure += 1
            })
            .is_err()
        );
        assert!(regions_before_failure > 0, "failure must be mid-stream");
        let stream_after = stream_dec.retrieve_with_plan(&partial_plan).unwrap();

        assert_eq!(stream_after.data.as_slice(), bulk_after.data.as_slice());
        assert_eq!(stream_after.bytes_total, bulk_after.bytes_total);
        // And the retry output carries no stray bits from the failed pass.
        assert_eq!(stream_after.data.as_slice(), reference.data.as_slice());
    }

    /// A refinement that fails in the middle of a level — after earlier
    /// levels of the same call completed and after regions of the failing
    /// level were scattered — leaves the decoder exactly as the coarse step
    /// left it, with or without an event sink.
    #[test]
    fn failed_refinement_mid_level_rolls_back_exactly() {
        let config = Config {
            chunk_bytes: 64,
            ..Config::default()
        };
        let mut c = compress(&field(), 1e-7, &config).unwrap();
        let finest = c.levels.len() - 1;
        let regions = c.levels[finest].scheme().num_regions();
        assert!(regions > 6, "need multi-region planes");
        c.levels[finest].planes[0].chunks[regions / 2] = vec![0xFF; 3];
        let coarse = RetrievalRequest::ErrorBound(1e-3);

        let mut plan = ProgressiveDecoder::new(&c)
            .plan(RetrievalRequest::Full)
            .unwrap();
        plan.planes_loaded[finest] -= 1;
        let mut fresh = ProgressiveDecoder::new(&c);
        fresh.retrieve(coarse).unwrap();
        let reference = fresh.retrieve_with_plan(&plan).unwrap();

        for sink in [false, true] {
            let mut dec = ProgressiveDecoder::new(&c);
            dec.retrieve(coarse).unwrap();
            let planes = dec.planes_loaded().to_vec();
            assert!(
                planes[finest] < c.levels[finest].num_planes,
                "plane 0 unloaded"
            );
            let (bytes, current) = (dec.bytes_loaded(), dec.current().unwrap());
            let acc = dec.acc.clone();
            let mut seen = vec![0usize; c.levels.len()];
            let failed = if sink {
                retrieve_regions(&mut dec, RetrievalRequest::Full, |p| seen[p.level_idx] += 1)
            } else {
                dec.retrieve(RetrievalRequest::Full)
            };
            assert!(failed.is_err());
            if sink {
                assert!(
                    seen[..finest].iter().any(|&n| n > 0),
                    "an earlier level completed"
                );
                assert!(seen[finest] > 0, "the failing level reported regions");
            }
            // The accumulators hold no bit of the failed call's planes.
            assert!(dec.acc == acc, "sink={sink}: stray accumulator bits");
            assert_eq!(dec.planes_loaded(), &planes[..], "sink={sink}");
            assert_eq!(dec.bytes_loaded(), bytes, "sink={sink}");
            assert_eq!(dec.current().unwrap().as_slice(), current.as_slice());
            let retry = dec.retrieve_with_plan(&plan).unwrap();
            assert_eq!(retry.data.as_slice(), reference.data.as_slice());
            assert_eq!(retry.bytes_total, reference.bytes_total, "sink={sink}");
            assert_eq!(retry.error_bound, reference.error_bound, "sink={sink}");
        }
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
        let streamed =
            retrieve_regions(&mut streaming, RetrievalRequest::Full, |_| reports += 1).unwrap();
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
        let streamed =
            retrieve_regions(&mut sdec, RetrievalRequest::Full, |_| regions += 1).unwrap();
        assert!(regions > 0);
        assert_eq!(streamed.data.as_slice(), a.as_slice());
    }

    /// The same plan ladder — the v2 decoder's plans for `ErrorBound(1e-2)`,
    /// `ErrorBound(1e-4)` and `Full` — refines a v2 resident, a v3 resident
    /// and a v3 ranged decoder bit-identically at every rung: a v3 level's
    /// refinement deltas reach the cascade in canonical order, exactly as
    /// v2's.
    #[test]
    fn precinct_refinement_matches_byte_layout_plan_for_plan() {
        let data = field();
        let v2 = compress(&data, 1e-7, &Config::default()).unwrap();
        let v3 = compress(&data, 1e-7, &Config::with_precincts(&[8, 8, 8])).unwrap();
        let source = crate::source::MemorySource::new(v3.to_bytes());
        let mut decoders = [
            ProgressiveDecoder::new(&v2),
            ProgressiveDecoder::new(&v3),
            ProgressiveDecoder::from_source(&source).unwrap(),
        ];
        for request in [
            RetrievalRequest::ErrorBound(1e-2),
            RetrievalRequest::ErrorBound(1e-4),
            RetrievalRequest::Full,
        ] {
            let plan = decoders[0].plan(request).unwrap();
            let rungs: Vec<Retrieval> = (decoders.iter_mut())
                .map(|dec| dec.retrieve_with_plan(&plan).unwrap())
                .collect();
            assert!(rungs[0].bytes_this_request > 0, "{request:?}");
            for rung in &rungs[1..] {
                assert_eq!(
                    rung.data.as_slice(),
                    rungs[0].data.as_slice(),
                    "{request:?}"
                );
                assert_eq!(rung.error_bound, rungs[0].error_bound, "{request:?}");
            }
        }
    }

    /// A full v3 read reports one region per non-empty precinct of every
    /// level it loads — an empty precinct is never decoded or reported —
    /// resident and ranged alike, and decodes bit-identically to
    /// `decompress`. Over 25 × 17 × 21 in 8 × 8 × 4 precincts, the finest
    /// level's last precinct holds only the point (24, 16, 20), which is a
    /// coarser level's, so it is empty.
    #[test]
    fn full_precinct_read_reports_only_non_empty_precincts() {
        let field = ArrayD::from_fn(Shape::d3(25, 17, 21), |c| {
            (c[0] as f64 * 0.21).sin() * 3.0 + (c[1] as f64 * 0.13).cos() * 2.0
                - (c[2] as f64 * 0.05)
        });
        let v3 = compress(&field, 1e-6, &Config::with_precincts(&[8, 8, 4])).unwrap();
        let want: Vec<usize> = (v3.levels.iter())
            .map(|l| match l.num_planes {
                0 => 0,
                _ => l
                    .precinct_spans
                    .as_ref()
                    .unwrap()
                    .iter()
                    .filter(|&&s| s > 0)
                    .count(),
            })
            .collect();
        assert!(v3
            .levels
            .iter()
            .zip(&want)
            .any(|(l, &n)| n > 0 && n < l.planes[0].chunks.len()));
        let reference = v3.decompress().unwrap();
        let source = crate::source::MemorySource::new(v3.to_bytes());
        let decoders = [
            ProgressiveDecoder::new(&v3),
            ProgressiveDecoder::from_source(&source).unwrap(),
        ];
        for mut dec in decoders {
            let mut seen = vec![0usize; v3.levels.len()];
            let out = retrieve_regions(&mut dec, RetrievalRequest::Full, |p| {
                assert_eq!(p.region, seen[p.level_idx]);
                assert_eq!(p.regions_in_level, want[p.level_idx]);
                seen[p.level_idx] += 1;
            })
            .unwrap();
            assert_eq!(seen, want);
            assert_eq!(out.data.as_slice(), reference.as_slice());
        }
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

    /// A region read computes exactly the windowed points of every level,
    /// coarsest first — not the boxes it holds them in. The counts are
    /// pinned from the windowed pass over whole-field buffers that the
    /// per-level boxes replaced.
    #[test]
    fn roi_passes_compute_exactly_the_windowed_points() {
        let points = |dims: &[usize], extents: &[usize], interpolation, bounds| {
            let data = ArrayD::from_fn(Shape::new(dims), |c| {
                c.iter()
                    .enumerate()
                    .map(|(i, &x)| (x as f64 * (0.1 + 0.03 * i as f64)).sin())
                    .sum()
            });
            let config = Config {
                interpolation,
                ..Config::with_precincts(extents)
            };
            let c = compress(&data, 1e-5, &config).unwrap();
            let mut points = Vec::new();
            let request = RetrievalRequest::Roi {
                bounds,
                error_bound: 1e-3,
            };
            ProgressiveDecoder::new(&c)
                .retrieve_streaming_events(request, |e| {
                    if let StreamEvent::LevelReconstructed(p) = e {
                        assert_eq!(p.level_idx, points.len());
                        points.push(p.points);
                    }
                })
                .unwrap();
            points
        };
        assert_eq!(
            points(
                &[300, 257],
                &[16, 16],
                Interpolation::Cubic,
                RoiBox::new(&[100, 90], &[164, 150])
            ),
            [3, 5, 16, 52, 90, 168, 353, 902, 2976]
        );
        assert_eq!(
            points(
                &[40, 33, 47],
                &[8, 8, 8],
                Interpolation::Linear,
                RoiBox::new(&[10, 5, 12], &[25, 20, 30])
            ),
            [7, 19, 60, 167, 672, 3855]
        );
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
