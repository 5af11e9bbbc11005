//! The lattice sweep's run kernels — one body, two directions — and the
//! streaming reconstruction engine built on them: the level-streamed
//! interpolation cascade that turns decoded bitplane accumulators into a
//! field.
//!
//! **Who shares what.** A level's sweep is the same on the write and the read
//! path: [`crate::interp`] owns the geometry (`for_each_level_pass`,
//! `sweep_runs`) and the boundary-fallback predictor (`predict_point_read`);
//! this module owns the body that walks it — `RunCtx::do_run` classifies each
//! innermost run once (prev-copy / linear / full-cubic interior, branchy head
//! and tail) and the spans under it are generic over a `PointOp`, the one
//! thing that happens at a point after it is predicted. Decoding adds a
//! dequantized code (`AddCodes`, or nothing: `PredictOnly`); encoding
//! quantizes the residual against the original, records the code and stores
//! the decoder's value (`Quantize`); [`crate::interp::process_level`] passes
//! its caller's closure (`Visit`). [`crate::compress`] and `process_level`
//! sweep whole levels serially through `sweep_level`; [`CascadeEngine`] drives
//! the same runs sub-pass by sub-pass, streamed and threaded. There is one
//! span family for both directions and no encoder copy of any loop.
//!
//! **The referee** is `interp::process_level_pointwise`: the same
//! contract evaluated one point at a time through `predict_point_read` with
//! bounds-checked slice accesses — no run classification, no raw pointers, no
//! kernel in common with this module. It is compiled for tests and under the
//! `reference-scalar` feature, where `CascadeEngine::with_kernel` (and
//! `ProgressiveDecoder::with_kernel` above it) binds one engine to it; the
//! equivalence suites hold both directions of the run kernels to it bit for
//! bit.
//!
//! [`CascadeEngine`] structures the reconstruction around two ideas:
//!
//! 1. **Level streaming.** The interpolation cascade consumes levels coarsest
//!    first — exactly the order the decode pipeline produces them — and each
//!    level's pass only reads lattice points finalized by earlier passes. So
//!    the engine runs level `k`'s interpolation as soon as level `k`'s
//!    coefficients are scattered, before the finer levels (the finest holds
//!    7/8 of the bytes in 3-D) are entropy-decoded. There is one hand-over,
//!    [`CascadeEngine::level_ready`], with the level's whole codes: cascade
//!    order is the contract, so a level handed over early is a bug, not a
//!    case. A streaming caller sees the coarse lattices final while the
//!    finest level is still decoding.
//! 2. **Fused passes.** A pass consumes quantization codes directly —
//!    dequantization (`code · 2eb`) is fused into the interpolation kernel,
//!    so the field is touched once per level instead of once per stage, and
//!    no per-level residual `f64` buffer is materialized. The kernels operate
//!    on whole innermost runs ([`crate::interp`]'s sweep geometry): each run
//!    splits into a branchy head/tail (domain-boundary fallbacks, evaluated
//!    point-wise through `interp::predict_point_read`) and a branchless
//!    interior loop, which the compiler vectorizes on its own.
//!
//! **Multi-core execution.** Within one dimension sub-pass every target point
//! sits at an *odd* multiple of the stride along the active dimension, while
//! every value the predictor reads (`±stride`, `±3·stride` along that
//! dimension) sits at an *even* multiple — finalized by an earlier pass and
//! never written by this one. The sub-pass's innermost runs are therefore
//! mutually independent, and [`CascadeEngine`] fans them out across scoped
//! worker threads in contiguous chunks, each thread replaying its runs in the
//! serial traversal order with the serial kernels — so the parallel schedule
//! is bit-identical to the serial one by construction, not by tolerance.
//! The thread count follows [`rayon::current_num_threads`] (so
//! `RAYON_NUM_THREADS` bounds it, and passes already running inside a rayon
//! worker stay serial instead of oversubscribing), clamped to
//! `available_parallelism()`.

use ipc_codecs::negabinary::from_negabinary;
use ipc_tensor::Shape;

use crate::config::Interpolation;
use crate::interp::{
    for_each_level_pass, level_stride, num_levels, predict_point_read, process_anchors, sweep_runs,
    SweepRun,
};
use crate::precinct::{clip_ranges, pass_window, RoiBox};
use crate::quantize::round_exact;

/// Whether this CPU supports the decode pipeline's AVX2 kernels — the
/// bitplane scatter of [`ipc_codecs::bitslice`] (x86_64 only).
pub fn cascade_avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Worker threads an unforced sub-pass splits across: the rayon pool width
/// (1 inside a rayon worker), clamped to `available_parallelism()` — the
/// cascade is CPU-bound, so oversubscribing a host (e.g.
/// `RAYON_NUM_THREADS=8` on one core) only buys context-switch overhead.
fn default_threads() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    rayon::current_num_threads().min(hw)
}

/// Below this many points a sub-pass runs serially: thread spawn/join costs
/// more than the sweep itself (coarse levels are a few hundred points).
const PAR_MIN_POINTS: usize = 1 << 12;

// ---- bulk residual extraction ----------------------------------------------

/// Negabinary-decode a level's accumulators into quantization codes (the
/// values the cascade consumes). One tight xor/subtract pass the compiler
/// auto-vectorizes; the `· 2eb` dequantization half is fused into the
/// interpolation kernels so no per-level `f64` residual buffer exists.
pub fn residual_codes(acc: &[u64]) -> Vec<i64> {
    acc.iter().map(|&w| from_negabinary(w)).collect()
}

/// Codes newly contributed by a refinement step: the negabinary-decoded
/// accumulators minus the pre-load snapshot. Same fused-dequantize contract
/// as [`residual_codes`].
pub fn delta_codes(acc: &[u64], before: &[i64]) -> Vec<i64> {
    acc.iter()
        .zip(before)
        .map(|(&w, &b)| from_negabinary(w) - b)
        .collect()
}

/// Progress report emitted when a level's interpolation pass completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeProgress {
    /// Index into the container's level list (coarsest level first).
    pub level_idx: usize,
    /// Interpolation level the pass covered (`num_levels` = coarsest, 1 =
    /// finest; stride `2^(level-1)`).
    pub interp_level: u32,
    /// Grid points predicted (and finalized) by this pass.
    pub points: usize,
    /// Levels applied so far, including this one.
    pub levels_applied: usize,
    /// Total levels the cascade will apply.
    pub levels_total: usize,
}

// ---- the engine -------------------------------------------------------------

/// Streaming interpolation-cascade engine over one field reconstruction.
///
/// Lifecycle: [`CascadeEngine::new`], then exactly one of
/// [`seed_anchors`](CascadeEngine::seed_anchors) (initial reconstruction) or
/// [`seed_zero`](CascadeEngine::seed_zero) (refinement delta cascade), then
/// per container level, **coarsest first**,
/// [`level_ready`](CascadeEngine::level_ready) with the level's complete
/// quantization codes (values for an initial reconstruction, deltas for a
/// refinement; an empty vector means "all zero" and runs prediction-only
/// passes) — or, for a region, its windowed form
/// [`level_windowed`](CascadeEngine::level_windowed).
///
/// Codes come in the level's traversal order, which is the concatenation of
/// its dimension sub-passes — so each sub-pass consumes a contiguous, known
/// code range. Once every level is applied,
/// [`into_field`](CascadeEngine::into_field) yields the reconstruction.
pub struct CascadeEngine {
    shape: Shape,
    method: Interpolation,
    /// `2 · error_bound`: multiplying a code by this dequantizes it with the
    /// exact rounding of [`crate::quantize::dequantize`] (scaling by 2.0 is
    /// exact, so the product rounds once either way).
    two_eb: f64,
    levels: u32,
    /// Whether levels sweep through the point-wise referee instead of the
    /// run kernels.
    #[cfg(any(test, feature = "reference-scalar"))]
    referee: bool,
    /// Pinned sub-pass thread count (0 = [`default_threads`] behind the size
    /// gate); only `CascadeEngine::with_kernel` pins one.
    forced_threads: usize,
    work: Vec<f64>,
    /// Levels whose pass has run — and so the index of the next one.
    applied: usize,
    /// Per level, its dimension sub-passes in traversal order.
    geoms: Vec<Vec<SubPass>>,
}

/// One dimension pass of one level: the sweep geometry plus the contiguous
/// code range it consumes.
struct SubPass {
    d: usize,
    ranges: Vec<ipc_tensor::AxisRange>,
    /// First code (traversal position within the level) this pass consumes.
    start: usize,
    /// Codes (= points) this pass consumes.
    count: usize,
}

impl CascadeEngine {
    /// Engine over `shape` with `num_levels(shape)` cascade levels.
    pub fn new(shape: Shape, method: Interpolation, error_bound: f64) -> Self {
        let levels = num_levels(&shape);
        let work = vec![0.0f64; shape.len()];
        let geoms = (0..levels)
            .map(|idx| {
                let stride = level_stride(levels - idx);
                let mut subs = Vec::new();
                let mut start = 0usize;
                for_each_level_pass(&shape, stride, |d, ranges| {
                    let count = ipc_tensor::GridIter::new(&shape, ranges.clone()).total();
                    subs.push(SubPass {
                        d,
                        ranges,
                        start,
                        count,
                    });
                    start += count;
                });
                subs
            })
            .collect();
        Self {
            shape,
            method,
            two_eb: 2.0 * error_bound,
            levels,
            #[cfg(any(test, feature = "reference-scalar"))]
            referee: false,
            forced_threads: 0,
            work,
            applied: 0,
            geoms,
        }
    }

    /// Bind a fresh engine to the point-wise referee (`referee`) or the run
    /// kernels, with `threads` pinned sub-pass workers (0 = the default
    /// schedule). A pinned count bypasses both the hardware clamp and the
    /// size gate, so bit-identity suites can drive the concurrent schedule
    /// through arbitrarily small geometries even on a 1-CPU host.
    #[cfg(any(test, feature = "reference-scalar"))]
    pub fn with_kernel(mut self, referee: bool, threads: usize) -> Self {
        self.referee = referee;
        self.forced_threads = threads;
        self
    }

    /// Number of cascade levels (container level `idx` maps to interpolation
    /// level `levels - idx`).
    pub fn num_levels(&self) -> u32 {
        self.levels
    }

    /// Whether every level's pass has run.
    fn is_complete(&self) -> bool {
        self.applied == self.levels as usize
    }

    /// The field under reconstruction (final once every level is applied).
    pub fn field(&self) -> &[f64] {
        &self.work
    }

    /// Consume the engine, yielding the reconstructed field.
    pub fn into_field(self) -> Vec<f64> {
        debug_assert!(self.is_complete(), "cascade incomplete");
        self.work
    }

    /// Seed the anchor lattice from quantization codes (Algorithm 1's
    /// zero-predicted anchors); missing codes read as zero.
    pub fn seed_anchors(&mut self, codes: &[i64]) {
        let two_eb = self.two_eb;
        let mut it = codes.iter();
        process_anchors(&self.shape, &mut self.work, |_, pred| {
            pred + it.next().map_or(0.0, |&c| c as f64 * two_eb)
        });
    }

    /// Seed an all-zero anchor lattice (Algorithm 2's delta cascade: the
    /// cascade is linear in the residuals, so a delta field propagates
    /// through the same passes from zero anchors).
    pub fn seed_zero(&mut self) {
        process_anchors(&self.shape, &mut self.work, |_, _| 0.0);
    }

    /// The cascade-order contract every hand-over checks: `idx` is the next
    /// unapplied level.
    fn expect_next(&self, idx: usize) {
        assert!(idx < self.levels as usize, "level index out of range");
        assert!(
            idx >= self.applied,
            "level {idx} handed to the cascade twice"
        );
        assert_eq!(
            idx, self.applied,
            "levels are handed to the cascade coarsest first"
        );
    }

    /// Hand container level `idx` to the engine with its complete
    /// quantization codes — values on an initial reconstruction, deltas on a
    /// refinement, or an empty vector for an all-zero (prediction-only)
    /// level — and run its passes. Returns the level's progress entry (one;
    /// a `Vec` because the signature is pinned by the benchmark's replay).
    ///
    /// # Panics
    ///
    /// Panics unless `idx` is the next level in cascade order, or if `codes`
    /// is neither empty nor the level's point count.
    pub fn level_ready(&mut self, idx: usize, codes: Vec<i64>) -> Vec<CascadeProgress> {
        self.expect_next(idx);
        let total = self.level_points(idx);
        assert!(
            codes.len() <= total,
            "level {idx} received more codes than its {total} points"
        );
        assert!(
            codes.is_empty() || codes.len() == total,
            "level {idx} received {} of its {total} codes",
            codes.len()
        );
        let interp_level = self.levels - idx as u32;
        self.run_level(interp_level, idx, &codes);
        self.applied += 1;
        vec![CascadeProgress {
            level_idx: idx,
            interp_level,
            points: total,
            levels_applied: self.applied,
            levels_total: self.levels as usize,
        }]
    }

    /// Total points (= codes) of a level.
    fn level_points(&self, idx: usize) -> usize {
        self.geoms[idx].iter().map(|s| s.count).sum()
    }

    /// Run every sub-pass of level `idx` over its `codes` (none at all is
    /// the all-zero level, which runs prediction-only passes).
    fn run_level(&mut self, interp_level: u32, idx: usize, codes: &[i64]) {
        #[cfg(any(test, feature = "reference-scalar"))]
        if self.referee {
            // The point-wise referee sweeps whole levels.
            return self.reference_pass(interp_level, codes);
        }
        for sub_idx in 0..self.geoms[idx].len() {
            self.apply_subpass(interp_level, idx, sub_idx, codes);
        }
    }

    /// Run one dimension sub-pass of a level through the run kernels,
    /// fanning independent runs out across worker threads when the pass is
    /// large enough (see the module docs for why runs never alias).
    /// `codes` are the level's (empty: prediction only).
    fn apply_subpass(&mut self, interp_level: u32, idx: usize, sub_idx: usize, codes: &[i64]) {
        let mut span = ipc_telemetry::span_timed(
            "cascade",
            "cascade.pass",
            crate::obs::metrics().cascade_pass_ns,
        );
        span.add_arg("level", interp_level as u64);
        span.add_arg("dim", sub_idx as u64);
        let field = FieldPtr::of(&mut self.work);
        let sub = &self.geoms[idx][sub_idx];
        let threads = match self.forced_threads {
            0 if sub.count < PAR_MIN_POINTS => 1,
            0 => default_threads(),
            n => n,
        };
        let stride = level_stride(interp_level);
        let (shape, method) = (&self.shape, self.method);
        if codes.is_empty() {
            let ctx = RunCtx::new(field, shape, method, stride, sub.d, PredictOnly);
            run_subpass(ctx, shape.strides(), sub, threads, &mut span);
        } else {
            let op = AddCodes {
                codes: &codes[sub.start..sub.start + sub.count],
                two_eb: self.two_eb,
            };
            let ctx = RunCtx::new(field, shape, method, stride, sub.d, op);
            run_subpass(ctx, shape.strides(), sub, threads, &mut span);
        }
    }

    /// Windowed form of [`CascadeEngine::level_ready`], for reconstructing a
    /// region: apply container level `idx`'s sub-passes only over the points
    /// that later passes — and finally the crop to `window` — read. Each
    /// sub-pass is clipped to the window's halo from the full level geometry,
    /// so the lattice phase (and therefore the arithmetic) matches the
    /// full-domain sweep point for point. `codes` holds the level's
    /// quantization codes **indexed by domain offset** over the whole field
    /// (a region decode never holds a traversal-order prefix); `None` is the
    /// all-zero level.
    ///
    /// Clipped runs start mid-row and mid-lattice, which the interior
    /// kernels' `run.coord == stride` invariant excludes, so every point goes
    /// through the position-independent evaluator the
    /// unclipped kernels use for their head and tail points — same bits,
    /// window-sized work.
    ///
    /// # Panics
    ///
    /// Panics unless `idx` is the next level in cascade order.
    pub fn level_windowed(
        &mut self,
        idx: usize,
        window: &RoiBox,
        codes: Option<&[i64]>,
    ) -> CascadeProgress {
        self.expect_next(idx);
        let interp_level = self.levels - idx as u32;
        let field = FieldPtr::of(&mut self.work);
        let dims = self.shape.dims();
        let strides = self.shape.strides();
        let stride = level_stride(interp_level);
        let mut points = 0usize;
        for (sub_idx, sub) in self.geoms[idx].iter().enumerate() {
            let mut span = ipc_telemetry::span_timed(
                "cascade",
                "cascade.pass",
                crate::obs::metrics().cascade_pass_ns,
            );
            span.add_arg("level", interp_level as u64);
            span.add_arg("dim", sub_idx as u64);
            let halo = pass_window(window, dims, self.method, interp_level, sub.d);
            let op = AddByOffset {
                codes: codes.unwrap_or(&[]),
                two_eb: self.two_eb,
            };
            let mut ctx = RunCtx::new(field, &self.shape, self.method, stride, sub.d, op);
            sweep_runs(strides, &clip_ranges(&sub.ranges, &halo), sub.d, |run| {
                ctx.scalar_span(&run, 0, run.count);
                points += run.count;
            });
        }
        self.applied += 1;
        CascadeProgress {
            level_idx: idx,
            interp_level,
            points,
            levels_applied: self.applied,
            levels_total: self.levels as usize,
        }
    }

    /// The referee: the point-by-point sweep
    /// (`interp::process_level_pointwise`, which shares no kernel
    /// with the run classification) with a closure pulling dequantized codes
    /// off an iterator. Oracle for the run kernels.
    #[cfg(any(test, feature = "reference-scalar"))]
    fn reference_pass(&mut self, interp_level: u32, codes: &[i64]) {
        use crate::interp::process_level_pointwise as process_level;
        let mut span = ipc_telemetry::span_timed(
            "cascade",
            "cascade.pass",
            crate::obs::metrics().cascade_pass_ns,
        );
        span.add_arg("level", interp_level as u64);
        if codes.is_empty() {
            process_level(
                &self.shape,
                interp_level,
                self.method,
                &mut self.work,
                |_, pred| pred,
            );
        } else {
            let two_eb = self.two_eb;
            let mut it = codes.iter();
            process_level(
                &self.shape,
                interp_level,
                self.method,
                &mut self.work,
                |_, pred| pred + it.next().map_or(0.0, |&c| c as f64 * two_eb),
            );
        }
    }
}

// ---- the per-point operation --------------------------------------------------

/// What a sweep does at a point once its prediction is known — the only thing
/// that differs between the two directions of the one sweep body
/// ([`RunCtx::do_run`] and the spans under it): decoding adds a dequantized
/// residual, encoding quantizes the residual against the original, records
/// the code and stores what the decoder will reconstruct.
pub(crate) trait PointOp {
    /// Value to store at flat offset `o`, the `i`-th point of the sweep's
    /// traversal, given its prediction.
    fn point(&mut self, o: usize, i: usize, pred: f64) -> f64;
}

/// Decode: add the dequantized code of traversal position `i`. Multiplying by
/// `two_eb` has the exact rounding of [`crate::quantize::dequantize`]
/// (scaling by 2.0 is exact, so the product rounds once either way).
#[derive(Clone, Copy)]
struct AddCodes<'a> {
    codes: &'a [i64],
    two_eb: f64,
}

impl PointOp for AddCodes<'_> {
    #[inline(always)]
    fn point(&mut self, _: usize, i: usize, pred: f64) -> f64 {
        pred + self.codes[i] as f64 * self.two_eb
    }
}

/// Windowed decode: codes indexed by domain offset (a region decode never
/// holds a traversal-order prefix); no codes = prediction only.
struct AddByOffset<'a> {
    codes: &'a [i64],
    two_eb: f64,
}

impl PointOp for AddByOffset<'_> {
    #[inline(always)]
    fn point(&mut self, o: usize, _: usize, pred: f64) -> f64 {
        if self.codes.is_empty() {
            pred
        } else {
            pred + self.codes[o] as f64 * self.two_eb
        }
    }
}

/// Decode a level that streams no codes: the prediction itself — no `+ 0.0`
/// is applied, so even `-0.0` predictions round-trip.
#[derive(Clone, Copy)]
struct PredictOnly;

impl PointOp for PredictOnly {
    #[inline(always)]
    fn point(&mut self, _: usize, _: usize, pred: f64) -> f64 {
        pred
    }
}

/// Encode: `q = round((orig − pred) / 2eb)` recorded at the point's traversal
/// position, `pred + q·2eb` stored — the value the decoder will see, so later
/// predictions are made from lossy data exactly as at decompression time
/// (paper Sec. 4.2.2). Bit for bit [`crate::quantize::quantize`] followed by
/// [`AddCodes`].
pub(crate) struct Quantize<'a> {
    orig: &'a [f64],
    codes: &'a mut [i64],
    two_eb: f64,
    /// Set once a quotient reaches 2^52, where neither the rounding nor the
    /// error bound is exact any more.
    pub inexact: bool,
}

impl<'a> Quantize<'a> {
    /// Quantize `orig` at bound `eb` into `codes` (one slot per point of the
    /// sweep's traversal).
    pub fn new(orig: &'a [f64], codes: &'a mut [i64], eb: f64) -> Self {
        Self {
            orig,
            codes,
            two_eb: 2.0 * eb,
            inexact: false,
        }
    }
}

impl PointOp for Quantize<'_> {
    #[inline(always)]
    fn point(&mut self, o: usize, i: usize, pred: f64) -> f64 {
        let x = (self.orig[o] - pred) / self.two_eb;
        let q = round_exact(x).unwrap_or_else(|| {
            self.inexact = true;
            x.round() as i64
        });
        self.codes[i] = q;
        pred + q as f64 * self.two_eb
    }
}

/// [`crate::interp::process_level`]'s closure as the operation.
pub(crate) struct Visit<F>(pub F);

impl<F: FnMut(usize, f64) -> f64> PointOp for Visit<F> {
    #[inline(always)]
    fn point(&mut self, o: usize, _: usize, pred: f64) -> f64 {
        (self.0)(o, pred)
    }
}

/// One whole level of the sweep, serially on the portable run kernels: every
/// dimension pass in order, `op` applied at each point with its position in
/// the level's traversal. The write path's entry ([`crate::compress`] with
/// [`Quantize`], [`crate::interp::process_level`] with [`Visit`]); the engine
/// drives the same runs sub-pass by sub-pass. Returns the operation.
///
/// # Panics
///
/// Panics if `work` is shorter than the field.
pub(crate) fn sweep_level<O: PointOp>(
    shape: &Shape,
    level: u32,
    method: Interpolation,
    work: &mut [f64],
    op: O,
) -> O {
    // The run kernels index `work` through a raw pointer on the strength of
    // the sweep geometry alone.
    assert!(work.len() >= shape.len(), "work buffer shorter than field");
    let stride = level_stride(level);
    let mut ctx = RunCtx::new(FieldPtr::of(work), shape, method, stride, 0, op);
    for_each_level_pass(shape, stride, |d, ranges| {
        ctx.dim_stride = shape.strides()[d];
        ctx.dim_len = shape.dims()[d];
        sweep_runs(shape.strides(), &ranges, d, |run| ctx.do_run(run));
    });
    ctx.op
}

// ---- run kernels ------------------------------------------------------------

/// Raw element view of the shared reconstruction buffer, the form the run
/// kernels use so independent runs of one sub-pass can execute on different
/// threads. Every access goes through `get` / `set`, whose indices the sweep
/// geometry keeps inside the field, and every `SAFETY` argument below rests
/// on one invariant: **within a sub-pass, every write is a target point — an
/// odd multiple of the stride along the active dimension — owned by exactly
/// one run, and every read is an even multiple finalized by an earlier
/// pass.** So concurrent kernels never touch the same element, and a shared
/// `&mut [f64]` would over-claim. Bounds are still debug-asserted per access.
#[derive(Clone, Copy)]
struct FieldPtr {
    ptr: *mut f64,
    len: usize,
}

// SAFETY: `ptr` is dereferenced only in `get` / `set`, and by the invariant
// above a worker thread holding a copy writes only the target points of its
// own runs; `len` is a plain count.
unsafe impl Send for FieldPtr {}
// SAFETY: `ptr` is dereferenced only in `get` / `set`, and by the invariant
// above no element is written by one thread while another reads or writes
// it; `len` is a plain count.
unsafe impl Sync for FieldPtr {}

impl FieldPtr {
    /// View of `work`, which must cover the field the sweep geometry is
    /// built for (the engine allocates it so; [`sweep_level`] asserts it).
    fn of(work: &mut [f64]) -> Self {
        Self {
            ptr: work.as_mut_ptr(),
            len: work.len(),
        }
    }

    #[inline(always)]
    fn get(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        // SAFETY: `i` is in bounds (asserted above in debug; the sweep
        // geometry guarantees it structurally) and, by the invariant above,
        // no concurrent run writes it.
        unsafe { *self.ptr.add(i) }
    }

    #[inline(always)]
    fn set(&self, i: usize, v: f64) {
        debug_assert!(i < self.len);
        // SAFETY: `i` is in bounds as in `get` and, by the invariant above,
        // a target point owned by this run alone.
        unsafe { *self.ptr.add(i) = v }
    }
}

/// Run one dimension sub-pass through the run kernels, fanning independent
/// runs out across `threads` workers (see the module docs for why runs never
/// alias).
fn run_subpass<O: PointOp + Clone + Send>(
    mut ctx: RunCtx<O>,
    strides: &[usize],
    sub: &SubPass,
    threads: usize,
    span: &mut ipc_telemetry::Span,
) {
    if threads > 1 {
        // Materialize the runs with their code offsets (the serial sweep
        // order, so offsets are a deterministic prefix sum) and hand each
        // worker a contiguous chunk to replay with the serial kernels.
        let mut runs: Vec<(SweepRun, usize)> = Vec::new();
        let mut off = 0usize;
        sweep_runs(strides, &sub.ranges, sub.d, |run| {
            runs.push((run, off));
            off += run.count;
        });
        debug_assert_eq!(off, sub.count);
        if runs.len() >= 2 {
            let chunks = threads.min(runs.len());
            span.add_arg("threads", chunks as u64);
            let chunk_len = runs.len().div_ceil(chunks);
            let mut parts = runs.chunks(chunk_len);
            let first = parts.next().unwrap();
            std::thread::scope(|scope| {
                for part in parts {
                    let ctx = ctx.clone();
                    scope.spawn(move || run_chunk(ctx, part));
                }
                // The caller thread takes the first chunk instead of
                // idling on the join.
                run_chunk(ctx, first);
            });
            return;
        }
    }
    span.add_arg("threads", 1);
    sweep_runs(strides, &sub.ranges, sub.d, |run| ctx.do_run(run));
    debug_assert_eq!(ctx.ci, sub.count, "sub-pass visited the wrong point count");
}

/// Replay a contiguous chunk of a sub-pass's runs on one worker thread, in
/// the serial traversal order, with each run's traversal cursor pinned to its
/// serial offset — the parallel schedule is a permutation of whole runs, and
/// within a run the scalar operation order is untouched.
fn run_chunk<O: PointOp>(mut ctx: RunCtx<O>, chunk: &[(SweepRun, usize)]) {
    for &(run, off) in chunk {
        ctx.ci = off;
        ctx.do_run(run);
    }
}

/// Shared context of every run kernel in one dimension pass.
#[derive(Clone)]
struct RunCtx<O> {
    field: FieldPtr,
    /// What happens at each point once it is predicted.
    op: O,
    /// Traversal position of the next run's first point.
    ci: usize,
    method: Interpolation,
    stride: usize,
    dim_stride: usize,
    dim_len: usize,
}

impl<O: PointOp> RunCtx<O> {
    /// Context of the pass of lattice `stride` along dimension `d`.
    fn new(
        field: FieldPtr,
        shape: &Shape,
        method: Interpolation,
        stride: usize,
        d: usize,
        op: O,
    ) -> Self {
        Self {
            field,
            op,
            ci: 0,
            method,
            stride,
            dim_stride: shape.strides()[d],
            dim_len: shape.dims()[d],
        }
    }

    /// Predicted point `t` of its run: apply the operation and store.
    #[inline(always)]
    fn finish(&mut self, o: usize, t: usize, pred: f64) {
        let v = self.op.point(o, self.ci + t, pred);
        self.field.set(o, v);
    }

    /// Evaluate points `[t0, t1)` of a run with the fully general (branchy)
    /// reference predictor — the head/tail points where domain-boundary
    /// fallbacks apply.
    fn scalar_span(&mut self, run: &SweepRun, t0: usize, t1: usize) {
        let field = self.field;
        for t in t0..t1 {
            let offset = run.base + t * run.step;
            let coord = run.coord + t * run.coord_step;
            let pred = predict_point_read(
                |i| field.get(i),
                offset,
                coord,
                self.dim_len,
                self.dim_stride,
                self.stride,
                self.method,
            );
            self.finish(offset, t, pred);
        }
    }

    /// Process one innermost run of the active dimension pass.
    fn do_run(&mut self, run: SweepRun) {
        if run.count == 0 {
            return;
        }
        let s = self.stride;
        if run.coord_step != 0 {
            // The active dimension is the innermost: boundary cases vary
            // along the run. Head/tail fall back to the branchy reference;
            // the interior is uniform (full cubic, or full linear).
            debug_assert_eq!(self.dim_stride, 1);
            debug_assert_eq!(run.coord, s);
            debug_assert_eq!(run.coord_step, 2 * s);
            // Points with an existing +stride neighbour: coord s(2t+1)+s < len.
            let t_next = self
                .dim_len
                .div_ceil(2 * s)
                .saturating_sub(1)
                .min(run.count);
            match self.method {
                Interpolation::Linear => {
                    self.interior_linear(run.base, t_next, run.step, s);
                    self.scalar_span(&run, t_next, run.count);
                }
                Interpolation::Cubic => {
                    // Full-cubic interior: coord ≥ 3s (t ≥ 1) and coord+3s < len.
                    let t_hi = self
                        .dim_len
                        .div_ceil(2 * s)
                        .saturating_sub(2)
                        .min(run.count);
                    let t_lo = 1.min(t_hi);
                    self.scalar_span(&run, 0, t_lo);
                    self.interior_cubic(run.base + t_lo * run.step, t_lo, t_hi - t_lo, run.step, s);
                    self.scalar_span(&run, t_hi.max(t_lo), run.count);
                }
            }
        } else {
            // The active coordinate is constant along the run: one boundary
            // case for every point.
            let nd = s * self.dim_stride;
            let has_next = run.coord + s < self.dim_len;
            if !has_next {
                // Boundary: copy the previous neighbour (plus residual).
                self.interior_prev(run.base, run.count, run.step, nd);
            } else if self.method == Interpolation::Cubic
                && run.coord >= 3 * s
                && run.coord + 3 * s < self.dim_len
            {
                self.interior_cubic(run.base, 0, run.count, run.step, nd);
            } else {
                self.interior_linear(run.base, run.count, run.step, nd);
            }
        }
        self.ci += run.count;
    }

    /// Uniform prev-copy span: the prediction is `work[o - nd]`.
    fn interior_prev(&mut self, base: usize, count: usize, step: usize, nd: usize) {
        for t in 0..count {
            let o = base + t * step;
            let pred = self.field.get(o - nd);
            self.finish(o, t, pred);
        }
    }

    /// Uniform linear span over `count` points starting at the run's first
    /// point `base`: neighbours at `±nd`.
    fn interior_linear(&mut self, base: usize, count: usize, step: usize, nd: usize) {
        for t in 0..count {
            let o = base + t * step;
            let pred = 0.5 * (self.field.get(o - nd) + self.field.get(o + nd));
            self.finish(o, t, pred);
        }
    }

    /// Uniform full-cubic span over `count` points starting at `base`:
    /// neighbours at `±nd` and `±3·nd`. `t0` is the span's first traversal
    /// position *within the run* — points before it were handled by the
    /// caller. Operation order matches [`crate::interp::predict_point_read`]
    /// exactly.
    fn interior_cubic(&mut self, base: usize, t0: usize, count: usize, step: usize, nd: usize) {
        for t in 0..count {
            let o = base + t * step;
            let prev3 = self.field.get(o - 3 * nd);
            let prev = self.field.get(o - nd);
            let next = self.field.get(o + nd);
            let next3 = self.field.get(o + 3 * nd);
            let pred = -0.0625 * prev3 + 0.5625 * prev + 0.5625 * next - 0.0625 * next3;
            self.finish(o, t0 + t, pred);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // The batch reference below must stay independent of the run kernels:
    // it sweeps through the point-wise referee.
    use crate::interp::{level_count, process_level_pointwise as process_level};
    use crate::quantize::dequantize;

    use ipc_codecs::negabinary::to_negabinary;
    use ipc_tensor::ArrayD;

    /// PR 4's batch reconstruction, verbatim: dequantize every level into a
    /// residual buffer, then closure-driven passes coarsest to finest.
    fn batch_reference(
        shape: &Shape,
        method: Interpolation,
        eb: f64,
        anchors: &[i64],
        level_codes: &[Vec<i64>],
    ) -> Vec<f64> {
        let levels = num_levels(shape);
        assert_eq!(level_codes.len(), levels as usize);
        let residuals: Vec<Vec<f64>> = level_codes
            .iter()
            .map(|codes| codes.iter().map(|&c| dequantize(c, eb)).collect())
            .collect();
        let mut work = vec![0.0f64; shape.len()];
        let mut it = anchors.iter();
        process_anchors(shape, &mut work, |_, pred| {
            pred + it.next().map_or(0.0, |&c| dequantize(c, eb))
        });
        for level in (1..=levels).rev() {
            let idx = (levels - level) as usize;
            if residuals[idx].is_empty() {
                process_level(shape, level, method, &mut work, |_, pred| pred);
            } else {
                let mut it = residuals[idx].iter();
                process_level(shape, level, method, &mut work, |_, pred| {
                    pred + it.next().copied().unwrap_or(0.0)
                });
            }
        }
        work
    }

    fn sample_codes(n: usize, spread: i64, seed: u64) -> Vec<i64> {
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(seed);
                let m = (h >> 40) as i64 % spread.max(1);
                if h & 1 == 0 {
                    m
                } else {
                    -m
                }
            })
            .collect()
    }

    /// Build per-level code vectors matching a shape's level partition.
    fn codes_for_shape(shape: &Shape, seed: u64) -> (Vec<i64>, Vec<Vec<i64>>) {
        let levels = num_levels(shape);
        let anchors = sample_codes(crate::interp::anchor_count(shape), 1 << 12, seed);
        let per_level: Vec<Vec<i64>> = (0..levels)
            .map(|idx| {
                let level = levels - idx;
                sample_codes(level_count(shape, level), 1 << 10, seed ^ (idx as u64 + 1))
            })
            .collect();
        (anchors, per_level)
    }

    /// Full handover through an engine on the point-wise referee (`referee`)
    /// or the run kernels, with `threads` pinned sub-pass workers (0 = the
    /// default schedule).
    fn run_engine(
        shape: &Shape,
        method: Interpolation,
        eb: f64,
        anchors: &[i64],
        level_codes: &[Vec<i64>],
        referee: bool,
        threads: usize,
    ) -> Vec<f64> {
        let mut engine =
            CascadeEngine::new(shape.clone(), method, eb).with_kernel(referee, threads);
        engine.seed_anchors(anchors);
        for (idx, codes) in level_codes.iter().enumerate() {
            engine.level_ready(idx, codes.clone());
        }
        assert!(engine.is_complete());
        engine.into_field()
    }

    #[test]
    fn all_impls_bit_identical_to_batch_reference() {
        for dims in [
            vec![1usize],
            vec![2],
            vec![5],
            vec![33],
            vec![9, 12],
            vec![17, 9, 11],
            vec![24, 18, 20],
            vec![3, 2, 5, 4],
            vec![1, 50, 3],
        ] {
            let shape = Shape::new(&dims);
            let (anchors, per_level) = codes_for_shape(&shape, 7);
            for method in [Interpolation::Linear, Interpolation::Cubic] {
                let eb = 1e-4;
                let want = batch_reference(&shape, method, eb, &anchors, &per_level);
                for referee in [true, false] {
                    let got = run_engine(&shape, method, eb, &anchors, &per_level, referee, 0);
                    assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "dims {dims:?} method {method:?} referee {referee}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_code_levels_match_prediction_only_reference() {
        // Zero-residual levels (coarse retrievals, refinement passes) take the
        // prediction-only path; it must agree with the closure formulation.
        let shape = Shape::d3(19, 14, 10);
        let (anchors, mut per_level) = codes_for_shape(&shape, 3);
        per_level[1] = Vec::new();
        let last = per_level.len() - 1;
        per_level[last] = Vec::new();
        for method in [Interpolation::Linear, Interpolation::Cubic] {
            let want = batch_reference(&shape, method, 1e-3, &anchors, &per_level);
            let got = run_engine(&shape, method, 1e-3, &anchors, &per_level, false, 0);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "method {method:?}"
            );
        }
    }

    /// Cascade order is the contract, not a convenience: every caller loads
    /// levels coarsest first, so a level handed over early is refused rather
    /// than parked.
    #[test]
    #[should_panic(expected = "levels are handed to the cascade coarsest first")]
    fn out_of_order_readiness_applies_in_cascade_order() {
        let shape = Shape::d2(17, 13);
        let (anchors, per_level) = codes_for_shape(&shape, 11);
        let mut engine = CascadeEngine::new(shape, Interpolation::Cubic, 1e-4);
        engine.seed_anchors(&anchors);
        engine.level_ready(1, per_level[1].clone());
    }

    #[test]
    #[should_panic(expected = "more codes than")]
    fn overfeeding_codes_panics() {
        let shape = Shape::d1(9);
        let mut engine = CascadeEngine::new(shape.clone(), Interpolation::Linear, 1e-3);
        engine.seed_zero();
        let n = level_count(&shape, num_levels(&shape));
        engine.level_ready(0, vec![1i64; n + 1]);
    }

    #[test]
    #[should_panic(expected = "handed to the cascade twice")]
    fn double_handover_panics() {
        let shape = Shape::d1(9);
        let mut engine = CascadeEngine::new(shape, Interpolation::Linear, 1e-3);
        engine.seed_zero();
        engine.level_ready(0, Vec::new());
        engine.level_ready(0, Vec::new());
    }

    #[test]
    fn residual_and_delta_codes_match_scalar_definitions() {
        let codes = sample_codes(513, 1 << 20, 5);
        let acc: Vec<u64> = codes.iter().map(|&c| to_negabinary(c)).collect();
        assert_eq!(residual_codes(&acc), codes);
        let before: Vec<i64> = codes.iter().map(|&c| c / 3).collect();
        let deltas = delta_codes(&acc, &before);
        for ((d, &c), &b) in deltas.iter().zip(&codes).zip(&before) {
            assert_eq!(*d, c - b);
        }
    }

    /// What a refinement feeds the cascade — the negabinary value of just the
    /// planes it loaded — is bit for bit the snapshot-and-subtract form
    /// ([`delta_codes`], which the decoder no longer calls), for every plane
    /// split of words with all 63 planes live; handed over whole, it
    /// cascades to the batch reference's delta field.
    #[test]
    fn newly_loaded_planes_decode_to_the_snapshot_delta() {
        let shape = Shape::d1(257);
        let n = level_count(&shape, 1);
        let acc: Vec<u64> = (1..=n as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29) & (u64::MAX >> 1))
            .collect();
        assert_eq!(acc.iter().fold(0, |a, &w| a | w), u64::MAX >> 1);
        for (lo, hi) in [(0u32, 63u32), (0, 1), (5, 17), (16, 17), (40, 63), (62, 63)] {
            let new_planes = (1u64 << hi) - (1u64 << lo);
            // Before the load the accumulators hold the planes above `hi`.
            let before: Vec<u64> = acc.iter().map(|&w| w & !((1u64 << hi) - 1)).collect();
            let after: Vec<u64> = acc.iter().map(|&w| w & !((1u64 << lo) - 1)).collect();
            let want = delta_codes(&after, &residual_codes(&before));
            let masked: Vec<i64> = after
                .iter()
                .map(|&w| from_negabinary(w & new_planes))
                .collect();
            assert_eq!(masked, want, "planes [{lo}, {hi})");

            let mut engine = CascadeEngine::new(shape.clone(), Interpolation::Linear, 1e-3);
            engine.seed_zero();
            let finest = engine.num_levels() as usize - 1;
            for idx in 0..finest {
                engine.level_ready(idx, Vec::new());
            }
            engine.level_ready(finest, masked);
            let mut per_level = vec![Vec::new(); finest];
            per_level.push(want);
            let reference = batch_reference(&shape, Interpolation::Linear, 1e-3, &[], &per_level);
            assert_eq!(
                engine
                    .into_field()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "cascaded planes [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn parallel_schedule_bit_identical_across_thread_counts() {
        for dims in [
            vec![1usize],
            vec![2],
            vec![33],
            vec![9, 12],
            vec![24, 18, 20],
            vec![1, 50, 3],
            vec![3, 2, 5, 4],
        ] {
            let shape = Shape::new(&dims);
            let (anchors, per_level) = codes_for_shape(&shape, 23);
            for method in [Interpolation::Linear, Interpolation::Cubic] {
                let want = run_engine(&shape, method, 1e-4, &anchors, &per_level, false, 1);
                for threads in [2usize, 3, 8] {
                    for referee in [false, true] {
                        let got = run_engine(
                            &shape, method, 1e-4, &anchors, &per_level, referee, threads,
                        );
                        assert_eq!(
                            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "dims {dims:?} method {method:?} referee {referee} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Random geometry, method, error bound, and worker-thread count
        /// (1 = the serial schedule): the run kernels' cascade is
        /// bit-identical to the batch closure reference.
        #[test]
        fn prop_kernels_bit_identical(
            d0 in 1usize..40,
            d1 in 1usize..16,
            d2 in 1usize..10,
            seed in proptest::prelude::any::<u64>(),
            cubic in proptest::prelude::any::<bool>(),
            eb_exp in 1i32..8,
            threads in 1usize..6,
        ) {
                let shape = Shape::new(&[d0, d1, d2]);
            let method = if cubic { Interpolation::Cubic } else { Interpolation::Linear };
            let eb = 10f64.powi(-eb_exp);
            let (anchors, per_level) = codes_for_shape(&shape, seed);
            let want = batch_reference(&shape, method, eb, &anchors, &per_level);
            let got = run_engine(&shape, method, eb, &anchors, &per_level, false, threads);
            proptest::prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads {}", threads
            );
        }
    }

    /// End-to-end sanity: the engine reproduces a real compression's
    /// reconstruction when fed the compressor's own codes.
    #[test]
    fn engine_reconstructs_compressed_field_within_bound() {
        let shape = Shape::d3(20, 17, 9);
        let data = ArrayD::from_fn(shape.clone(), |c| {
            (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() * 2.0 + c[2] as f64 * 0.05
        });
        let eb = 1e-6;
        let c = crate::compressor::compress(&data, eb, &crate::config::Config::default()).unwrap();
        let out = c.decompress().unwrap();
        let err = data
            .as_slice()
            .iter()
            .zip(out.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(err <= eb * (1.0 + 1e-9), "err {err}");
    }
}
