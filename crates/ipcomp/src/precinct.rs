//! Spatial precinct geometry for the version-3 container layout and the ROI
//! read path.
//!
//! A *precinct grid* partitions each interpolation level into axis-aligned
//! sub-bricks of the domain (the JPEG2000 precinct idea applied to the
//! interpolation lattice). The grid's extents, one per dimension, are the
//! finest level's; level `l`'s are `extent · 2^(l−1)` in domain units,
//! clamped to the domain (`PrecinctGrid::at_level`), as JPEG2000 sizes
//! precincts per resolution level. So a precinct holds about `∏ extent`
//! lattice points at every level, and the coarsest levels are one precinct.
//! A version-3 container orders every level's coefficients precinct-major —
//! all coefficients of the level's precinct 0 (in canonical traversal
//! order), then precinct 1, … — and cuts entropy chunks exactly on precinct
//! boundaries, so the chunks covering a bounding box can be fetched and
//! decoded without touching the rest of the domain.
//!
//! One *precinct walk* maps that order onto the lattice: for a list of
//! precinct ids, it yields the rows of each precinct's level points, each
//! with its canonical traversal position and its domain offset. It works
//! from per-dimension cell tables ([`PrecinctGrid::level_permutation`]), with
//! no per-coefficient table. The compressor reorders codes through it
//! ([`LevelPrecincts::to_precinct_order`]). A full read sends a level's codes
//! to their canonical positions through it, and a region read sends its
//! precincts' codes, by domain offset, into the level's box.
//!
//! The module also owns the *halo* arithmetic: reconstructing a region of
//! interest bit-identically requires the interpolation cascade's neighbour
//! reads to land on correct values, which grows the window by the predictor's
//! reach at every level. See `fetch_window` / `pass_window` for the exact
//! recurrence, and `level_window` for the box a region read holds per level.

use crate::config::Interpolation;
use crate::container::Header;
use crate::error::{IpcompError, Result};
use crate::interp::{for_each_level_pass, level_stride};
use ipc_tensor::{AxisRange, Shape, MAX_DIMS};

/// An axis-aligned bounding box (half-open, `lo[i] <= x_i < hi[i]`) selecting
/// a region of the domain for retrieval. Dimensions beyond `ndim` are unused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoiBox {
    /// Inclusive lower corner per dimension.
    pub lo: [usize; MAX_DIMS],
    /// Exclusive upper corner per dimension.
    pub hi: [usize; MAX_DIMS],
    /// Number of meaningful dimensions.
    pub ndim: usize,
}

impl RoiBox {
    /// Build a box from per-dimension bounds. Panics if `lo`/`hi` lengths
    /// differ or exceed [`MAX_DIMS`].
    pub fn new(lo: &[usize], hi: &[usize]) -> Self {
        assert_eq!(lo.len(), hi.len(), "RoiBox lo/hi rank mismatch");
        assert!(
            lo.len() <= MAX_DIMS,
            "RoiBox supports at most {MAX_DIMS} dims"
        );
        let mut b = Self {
            lo: [0; MAX_DIMS],
            hi: [0; MAX_DIMS],
            ndim: lo.len(),
        };
        b.lo[..lo.len()].copy_from_slice(lo);
        b.hi[..hi.len()].copy_from_slice(hi);
        b
    }

    /// Check the box against the domain: matching rank, non-empty, in bounds.
    pub fn validate(&self, dims: &[usize]) -> Result<()> {
        if self.ndim != dims.len() {
            return Err(IpcompError::InvalidInput(format!(
                "ROI rank {} does not match domain rank {}",
                self.ndim,
                dims.len()
            )));
        }
        for (i, &d) in dims.iter().enumerate() {
            if self.lo[i] >= self.hi[i] || self.hi[i] > d {
                return Err(IpcompError::InvalidInput(format!(
                    "ROI bounds [{}, {}) invalid for dimension {i} of size {d}",
                    self.lo[i], self.hi[i]
                )));
            }
        }
        Ok(())
    }

    /// Size of the box along each dimension.
    pub fn dims(&self) -> Vec<usize> {
        (0..self.ndim).map(|i| self.hi[i] - self.lo[i]).collect()
    }

    /// Number of points inside the box.
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// True when the box selects no points (never the case once validated).
    pub fn is_empty(&self) -> bool {
        (0..self.ndim).any(|i| self.lo[i] >= self.hi[i])
    }
}

/// Neighbour reach of the predictor along the active dimension, in units of
/// the level stride: cubic reads `±3·stride`, linear `±stride`.
pub(crate) fn reach(method: Interpolation) -> usize {
    match method {
        Interpolation::Linear => 1,
        Interpolation::Cubic => 3,
    }
}

/// A per-dimension half-open window `[lo, hi)` clamped to the domain.
pub(crate) type Window = Vec<(usize, usize)>;

fn expand(roi: &RoiBox, dims: &[usize], halo: impl Fn(usize) -> usize) -> Window {
    (0..roi.ndim)
        .map(|i| {
            let h = halo(i);
            (roi.lo[i].saturating_sub(h), (roi.hi[i] + h).min(dims[i]))
        })
        .collect()
}

/// The window of level-`level` lattice points whose codes an ROI decode must
/// fetch: the ROI expanded by `reach·(stride−1)` in every dimension plus a
/// further `reach·stride` in every dimension *after the first swept one* —
/// the first sub-pass of a level reads its not-yet-swept dimensions on the
/// coarser `2·stride` lattice, so their halo is one level wider.
pub(crate) fn fetch_window(
    roi: &RoiBox,
    dims: &[usize],
    method: Interpolation,
    level: u32,
) -> Window {
    let r = reach(method);
    let s = level_stride(level);
    expand(roi, dims, |i| r * (s - 1) + if i > 0 { r * s } else { 0 })
}

/// The window a dimension sub-pass `d` of level `level` must *compute* so
/// that every later pass (same level, later dimension, or any finer level)
/// reads only correct values: `reach·(stride−1)` everywhere plus
/// `reach·stride` along dimensions not yet swept by this level.
pub(crate) fn pass_window(
    roi: &RoiBox,
    dims: &[usize],
    method: Interpolation,
    level: u32,
    d: usize,
) -> Window {
    let r = reach(method);
    let s = level_stride(level);
    expand(roi, dims, |i| r * (s - 1) + if i > d { r * s } else { 0 })
}

/// The window of level-`level` points a region read holds: every point the
/// level's sub-passes compute or read, which is each sub-pass's
/// [`pass_window`] widened by `reach·stride` along its active dimension —
/// `reach·(2·stride − 1)` around the box in every dimension. The windows
/// shrink level by level, so a level's window holds every coarser-lattice
/// point of the next finer level's.
pub(crate) fn level_window(
    roi: &RoiBox,
    dims: &[usize],
    method: Interpolation,
    level: u32,
) -> Window {
    let r = reach(method);
    let s = level_stride(level);
    expand(roi, dims, |_| r * (2 * s - 1))
}

/// A domain window in lattice-index units of the `stride` lattice: the
/// indices `k` whose points `k·stride` lie inside it.
pub(crate) fn on_lattice(window: Window, stride: usize) -> Window {
    (window.into_iter())
        .map(|(lo, hi)| (lo.div_ceil(stride), hi.div_ceil(stride)))
        .collect()
}

/// Per-level precinct fetch masks of an ROI retrieval: `masks[idx][k]` is
/// true iff precinct `k` of container level entry `idx` intersects that
/// entry's fetch window (the box plus the cascade's cross-level ancestor
/// halo). Each level's vector has that level's precinct count as its length
/// (entry `idx` is interpolation level `num_levels - idx`). A view of
/// the per-level precinct id lists the decoder fetches by and the store
/// planner lowers byte ranges from, so the three can never disagree.
///
/// # Errors
///
/// [`IpcompError::InvalidInput`] if the box is invalid for the container's
/// domain, or the container has no precinct grid (pre-v3 layout) or an
/// invalid one ([`Header::precinct_grid`]).
pub fn roi_precinct_masks(header: &Header, bounds: &RoiBox) -> Result<Vec<Vec<bool>>> {
    let grid = header.precinct_grid()?;
    let ids = roi_precinct_ids(header, grid.as_ref(), bounds)?;
    let mask = |(level, ids): (u32, Vec<usize>)| {
        let n = grid
            .as_ref()
            .map_or(0, |g| g.at_level(level).num_precincts());
        (0..n).map(|k| ids.binary_search(&k).is_ok()).collect()
    };
    Ok((1..=header.num_levels).rev().zip(ids).map(mask).collect())
}

/// The precincts an ROI retrieval reads, per container level entry: `ids[idx]`
/// lists, ascending, the precincts of the entry's level intersecting its
/// fetch window (the box plus the cascade's cross-level ancestor halo), over
/// the header's `grid` — a map's validated one, or [`roi_precinct_masks`]'s —
/// at that level's scale ([`PrecinctGrid::at_level`]). This is the
/// single source of truth for *which chunks an ROI touches*.
pub(crate) fn roi_precinct_ids(
    header: &Header,
    grid: Option<&PrecinctGrid>,
    bounds: &RoiBox,
) -> Result<Vec<Vec<usize>>> {
    bounds.validate(&header.dims)?;
    let grid = grid.ok_or_else(|| {
        IpcompError::InvalidInput(
            "ROI retrieval requires the precinct-partitioned (version-3) container layout".into(),
        )
    })?;
    Ok((0..header.num_levels)
        .map(|idx| {
            let level = header.num_levels - idx;
            let w = fetch_window(bounds, &header.dims, header.interpolation, level);
            grid.at_level(level).intersecting(&w)
        })
        .collect())
}

/// Clip each [`AxisRange`] of a lattice sweep to a window, preserving the
/// lattice phase: the clipped range starts at the first on-lattice coordinate
/// `>= window.lo` and ends at `min(end, window.hi)`.
pub(crate) fn clip_ranges(ranges: &[AxisRange], window: &[(usize, usize)]) -> Vec<AxisRange> {
    ranges
        .iter()
        .zip(window)
        .map(|(r, &(lo, hi))| {
            let start = if lo > r.start {
                r.start + (lo - r.start).div_ceil(r.step) * r.step
            } else {
                r.start
            };
            AxisRange::strided(start, r.step, r.end.min(hi))
        })
        .collect()
}

/// The spatial precinct grid of a version-3 container: the finest level's
/// partition of the *domain*, from which every level's is scaled by its
/// lattice stride (`PrecinctGrid::at_level`). A precinct id names a brick
/// of space at one level; the same id at a coarser level is a larger brick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecinctGrid {
    dims: Vec<usize>,
    extents: Vec<usize>,
    counts: Vec<usize>,
}

impl PrecinctGrid {
    /// Build the grid over a domain from the finest level's extents. Every
    /// extent must be at least 1; extents larger than the dimension collapse
    /// to a single precinct along it.
    pub fn new(dims: &[usize], extents: &[usize]) -> Result<Self> {
        if extents.len() < dims.len() || extents[..dims.len()].contains(&0) {
            return Err(IpcompError::InvalidInput(format!(
                "precinct extents {extents:?} invalid for domain {dims:?}"
            )));
        }
        Ok(Self::with_extents(dims, extents[..dims.len()].to_vec()))
    }

    /// The grid of `extents` (each at least 1) over `dims`.
    fn with_extents(dims: &[usize], extents: Vec<usize>) -> Self {
        let counts = dims
            .iter()
            .zip(&extents)
            .map(|(&d, &e)| d.div_ceil(e))
            .collect();
        Self {
            dims: dims.to_vec(),
            extents,
            counts,
        }
    }

    /// Per-dimension precinct extents of the finest level.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Number of the finest level's precincts along each dimension.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Number of the finest level's precincts, the most of any level.
    pub fn num_precincts(&self) -> usize {
        self.counts.iter().product()
    }

    /// Domain bounding box `[lo, hi)` of a precinct of the finest level
    /// (clamped to the domain).
    pub fn precinct_box(&self, id: usize) -> (Vec<usize>, Vec<usize>) {
        let cell = cell_of(&self.counts, id);
        (0..self.dims.len())
            .map(|i| self.cell_span(i, cell[i]))
            .unzip()
    }

    /// Domain interval `[lo, hi)` of precinct cell `c` along dimension `i`
    /// (clamped to the domain).
    fn cell_span(&self, i: usize, c: usize) -> (usize, usize) {
        let lo = c * self.extents[i];
        (lo, (lo + self.extents[i]).min(self.dims[i]))
    }

    /// The precinct ids, ascending, whose boxes intersect the half-open
    /// window.
    pub(crate) fn intersecting(&self, window: &[(usize, usize)]) -> Vec<usize> {
        let ndim = self.dims.len();
        // Per-dimension range of intersecting precinct cells.
        let cell_ranges: Vec<(usize, usize)> = (0..ndim)
            .map(|i| {
                let (lo, hi) = window[i];
                if lo >= hi {
                    return (0, 0);
                }
                (lo / self.extents[i], ((hi - 1) / self.extents[i]) + 1)
            })
            .collect();
        let mut ids = Vec::new();
        let mut cell: Vec<usize> = cell_ranges.iter().map(|&(l, _)| l).collect();
        if cell_ranges.iter().any(|&(l, h)| l >= h) {
            return ids;
        }
        // Row-major ids, last dimension fastest: the odometer visits them in
        // ascending order.
        loop {
            let mut id = 0usize;
            for (&count, &c) in self.counts.iter().zip(&cell) {
                id = id * count + c;
            }
            ids.push(id);
            let mut dim = ndim;
            loop {
                if dim == 0 {
                    return ids;
                }
                dim -= 1;
                cell[dim] += 1;
                if cell[dim] < cell_ranges[dim].1 {
                    break;
                }
                cell[dim] = cell_ranges[dim].0;
            }
        }
    }

    /// Number of level-`level` lattice points inside each of the level's
    /// precincts, in precinct-id order. These are the coefficient spans of
    /// the level's precinct-major layout; an empty precinct (one whose
    /// lattice points are all a coarser level's, as at a ragged domain edge)
    /// gets a zero span and a zero-byte chunk per plane.
    pub fn level_spans(&self, shape: &Shape, level: u32) -> Vec<usize> {
        self.level_walk(shape, level).spans()
    }

    /// The precinct-major layout of a level: its spans and the precinct walk
    /// that [`LevelPrecincts::to_precinct_order`] reorders through. Within a
    /// precinct, coefficients keep their canonical relative order, so the
    /// layout is the stable bucket sort of the canonical sweep by precinct
    /// id — worked out per dimension and precinct cell, never per
    /// coefficient: nothing in it is sized by the level.
    pub fn level_permutation(&self, shape: &Shape, level: u32) -> LevelPrecincts {
        let walk = self.level_walk(shape, level);
        LevelPrecincts {
            spans: walk.spans(),
            walk,
        }
    }

    /// The partition of level `level`: every extent scaled by the level's
    /// lattice stride and clamped to the domain, so a precinct holds about
    /// `∏ extent` lattice points at every level, the finest level's
    /// partition is the grid itself, and the coarsest levels are one
    /// precinct. The crate's one rule for which precinct of a level a point
    /// falls in.
    pub(crate) fn at_level(&self, level: u32) -> PrecinctGrid {
        let stride = level_stride(level);
        let extents = (self.dims.iter().zip(&self.extents))
            .map(|(&d, &e)| e.saturating_mul(stride).min(d).max(1))
            .collect();
        Self::with_extents(&self.dims, extents)
    }

    /// The precinct walk of a level: per dimension sub-pass, the lattice-index
    /// interval of every precinct cell of the level's partition
    /// ([`PrecinctGrid::at_level`]) along every dimension.
    pub(crate) fn level_walk(&self, shape: &Shape, level: u32) -> LevelWalk {
        let grid = self.at_level(level);
        let strides = shape.strides();
        let mut passes = Vec::new();
        let mut base = 0usize;
        for_each_level_pass(shape, level_stride(level), |_, ranges| {
            // A precinct's points in one sub-pass are the sub-pass lattice
            // clipped to its box, which factorizes into one lattice-index
            // interval per dimension and precinct cell.
            let counts: Vec<usize> = ranges.iter().map(AxisRange::count).collect();
            let axes = (ranges.iter().enumerate())
                .map(|(i, r)| {
                    // Lattice indices below domain coordinate `x`.
                    let below =
                        |x: usize| AxisRange::strided(r.start, r.step, x.min(r.end)).count();
                    let cells = (0..grid.counts[i])
                        .map(|c| grid.cell_span(i, c))
                        .map(|(lo, hi)| (below(lo), below(hi)))
                        .collect();
                    PassAxis {
                        weight: counts[i + 1..].iter().product(),
                        pitch: r.step * strides[i],
                        cells,
                    }
                })
                .collect();
            let origin = ranges.iter().zip(strides).map(|(r, s)| r.start * s).sum();
            passes.push(PassCells { base, origin, axes });
            base += counts.iter().product::<usize>();
        });
        LevelWalk {
            counts: grid.counts,
            passes,
        }
    }
}

/// Precinct layout of one level: its coefficient spans per precinct and the
/// precinct walk over its per-dimension cell tables. It holds no
/// per-coefficient table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelPrecincts {
    /// Level coefficients per precinct (precinct-id order).
    pub spans: Vec<usize>,
    /// The walk [`LevelPrecincts::to_precinct_order`] reorders through.
    walk: LevelWalk,
}

impl LevelPrecincts {
    /// Reorder canonical-order per-coefficient values into precinct-major
    /// container order, one precinct walk row at a time.
    pub fn to_precinct_order<T: Copy>(&self, canonical: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(canonical.len());
        self.walk.for_each_row(0..self.spans.len(), |row| {
            out.extend_from_slice(&canonical[row.canon..row.canon + row.len]);
        });
        out
    }
}

/// The crate's one precinct walk over a level
/// ([`PrecinctGrid::level_walk`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LevelWalk {
    /// Precinct cells along each dimension (the grid's counts).
    counts: Vec<usize>,
    /// The level's dimension sub-passes, in canonical traversal order.
    passes: Vec<PassCells>,
}

/// One dimension sub-pass of a level as the precinct walk reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PassCells {
    /// Canonical traversal position of the sub-pass's first point.
    base: usize,
    /// Domain offset of the sub-pass's first point.
    origin: usize,
    /// Per dimension, outermost first.
    axes: Vec<PassAxis>,
}

/// One dimension of a sub-pass lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PassAxis {
    /// Canonical positions between consecutive lattice indices (the product
    /// of the later dimensions' point counts).
    weight: usize,
    /// Domain offset between consecutive lattice indices.
    pitch: usize,
    /// Per precinct cell along this dimension, the half-open lattice-index
    /// interval inside it.
    cells: Vec<(usize, usize)>,
}

/// One row of the precinct walk: a run of a precinct's lattice points along
/// the innermost dimension, holding consecutive canonical positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PrecinctRow {
    /// Canonical traversal position of the first point.
    pub canon: usize,
    /// Flat domain offset of the first point.
    pub offset: usize,
    /// Domain offset between consecutive points.
    pub step: usize,
    /// Number of points.
    pub len: usize,
}

impl LevelWalk {
    /// Number of precincts of the level's partition.
    pub(crate) fn num_precincts(&self) -> usize {
        self.counts.iter().product()
    }

    /// Level points per precinct, in id order: per sub-pass, the product of
    /// the precinct's cell intervals (an odometer over the cells, last
    /// dimension fastest, visits the ids in order).
    fn spans(&self) -> Vec<usize> {
        let n = self.num_precincts();
        let mut cell = [0usize; MAX_DIMS];
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            let points = |p: &PassCells| -> usize {
                let sizes = p.axes.iter().zip(&cell);
                sizes.map(|(a, &c)| a.cells[c].1 - a.cells[c].0).product()
            };
            spans.push(self.passes.iter().map(points).sum());
            for d in (0..self.counts.len()).rev() {
                cell[d] += 1;
                if cell[d] < self.counts[d] {
                    break;
                }
                cell[d] = 0;
            }
        }
        spans
    }

    /// For each precinct of `ids`, in list order, the rows of its lattice
    /// points in precinct-major order (sub-pass by sub-pass, row-major within
    /// one). The rows of all precincts, in id order, are the level's
    /// container layout; a row's points sit at `canon..canon + len` in
    /// canonical order and at `offset + k·step` in the domain.
    pub(crate) fn for_each_row(
        &self,
        ids: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(PrecinctRow),
    ) {
        let mut index = [0usize; MAX_DIMS];
        for id in ids {
            let cell = cell_of(&self.counts, id);
            for pass in &self.passes {
                let interval = |i: usize| pass.axes[i].cells[cell[i]];
                if (0..pass.axes.len()).any(|i| interval(i).0 >= interval(i).1) {
                    continue;
                }
                let last = pass.axes.len() - 1;
                let (lo, hi) = interval(last);
                let pitch = pass.axes[last].pitch;
                for (i, x) in index[..last].iter_mut().enumerate() {
                    *x = interval(i).0;
                }
                // Odometer over the outer dimensions' intervals.
                'rows: loop {
                    let (mut canon, mut offset) = (pass.base + lo, pass.origin + lo * pitch);
                    for (a, &x) in pass.axes[..last].iter().zip(&index) {
                        canon += x * a.weight;
                        offset += x * a.pitch;
                    }
                    f(PrecinctRow {
                        canon,
                        offset,
                        step: pitch,
                        len: hi - lo,
                    });
                    let mut dim = last;
                    loop {
                        if dim == 0 {
                            break 'rows;
                        }
                        dim -= 1;
                        index[dim] += 1;
                        if index[dim] < interval(dim).1 {
                            break;
                        }
                        index[dim] = interval(dim).0;
                    }
                }
            }
        }
    }
}

/// Per-dimension cell coordinates of a row-major precinct id on a grid of
/// `counts` cells per dimension.
fn cell_of(counts: &[usize], id: usize) -> [usize; MAX_DIMS] {
    let mut cell = [0usize; MAX_DIMS];
    let mut rem = id;
    for (c, &n) in cell[..counts.len()].iter_mut().zip(counts).rev() {
        *c = rem % n;
        rem /= n;
    }
    cell
}

/// Exclusive prefix sums of `spans` (the start offset of every precinct).
#[cfg(test)]
pub(crate) fn prefix_sums(spans: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(spans.len());
    let mut acc = 0usize;
    for &s in spans {
        out.push(acc);
        acc += s;
    }
    out
}

#[cfg(test)]
impl PrecinctGrid {
    /// Row-major id of the level-`level` precinct holding a domain
    /// coordinate: the bucket key of the referee the precinct walk is
    /// checked against. It scales the extents itself, by the level's lattice
    /// stride and clamped to the domain, rather than through
    /// [`PrecinctGrid::at_level`].
    pub(crate) fn precinct_of(&self, level: u32, coords: &[usize]) -> usize {
        let stride = level_stride(level);
        let mut id = 0usize;
        for ((&c, &d), &e) in coords.iter().zip(&self.dims).zip(&self.extents) {
            let extent = (e * stride).min(d);
            id = id * d.div_ceil(extent) + c / extent;
        }
        id
    }
}

/// Visit every level-`level` lattice point in canonical traversal order
/// (sub-pass-major, row-major within a sub-pass) with its coordinates and
/// flat offset — the order the compressor records codes in. With
/// [`PrecinctGrid::precinct_of`], the bucket-sort referee the precinct walk
/// is checked against.
#[cfg(test)]
pub(crate) fn for_each_canonical_point(
    shape: &Shape,
    level: u32,
    mut f: impl FnMut(&[usize], usize),
) {
    let strides = shape.strides().to_vec();
    for_each_level_pass(shape, level_stride(level), |_, ranges| {
        if ranges.iter().any(|r| r.count() == 0) {
            return;
        }
        let ndim = ranges.len();
        let mut coords: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        let mut offset: usize = coords.iter().zip(&strides).map(|(&c, &s)| c * s).sum();
        loop {
            f(&coords, offset);
            let mut dim = ndim;
            loop {
                if dim == 0 {
                    return;
                }
                dim -= 1;
                let r = ranges[dim];
                let next = coords[dim] + r.step;
                if next < r.end {
                    coords[dim] = next;
                    offset += r.step * strides[dim];
                    break;
                }
                offset -= (coords[dim] - r.start) * strides[dim];
                coords[dim] = r.start;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{level_count, num_levels};
    use ipc_tensor::GridIter;

    #[test]
    fn grid_counts_and_boxes() {
        let g = PrecinctGrid::new(&[20, 16], &[8, 8]).unwrap();
        assert_eq!(g.counts(), &[3, 2]);
        assert_eq!(g.num_precincts(), 6);
        let (lo, hi) = g.precinct_box(4); // cell (2, 0)
        assert_eq!(lo, vec![16, 0]);
        assert_eq!(hi, vec![20, 8]); // clamped to dim 20
        assert_eq!(g.precinct_of(1, &[17, 3]), 4);
        assert_eq!(g.precinct_of(1, &[0, 0]), 0);
        assert_eq!(g.precinct_of(1, &[19, 15]), 5);
        // Level 2's precincts are 16 × 16, clamped to the domain: 2 × 1.
        let l2 = g.at_level(2);
        assert_eq!(l2.extents(), &[16, 16]);
        assert_eq!(l2.counts(), &[2, 1]);
        assert_eq!(g.precinct_of(2, &[17, 3]), 1);
        // From level 3 on, one precinct as large as the domain.
        assert_eq!(g.at_level(3).extents(), &[20, 16]);
        assert_eq!(g.at_level(3).num_precincts(), 1);
    }

    /// Every level's partition at its own scale, on 1- to 4-D ragged
    /// domains: no precinct holds more than `∏ extent` level points, and
    /// level `l` has `∏ ceil(d / min(e·2^(l−1), d))` precincts. A 1024²
    /// domain in 32² precincts is one precinct from level 6 on.
    #[test]
    fn level_partitions_scale_with_the_stride() {
        let cases: [(&[usize], &[usize]); 6] = [
            (&[100], &[24]),
            (&[17], &[5]),
            (&[40, 33], &[3, 2]),
            (&[50, 30], &[24, 7]),
            (&[9, 12, 7], &[3, 5, 7]),
            (&[5, 6, 4, 7], &[2, 3, 1, 100]),
        ];
        for (dims, extents) in cases {
            let shape = Shape::new(dims);
            let g = PrecinctGrid::new(dims, extents).unwrap();
            let cap: usize = (dims.iter().zip(extents))
                .map(|(&d, &e)| e.min(d))
                .product();
            for level in 1..=num_levels(&shape) {
                let at = format!("dims {dims:?} extents {extents:?} level {level}");
                let spans = g.level_spans(&shape, level);
                assert!(spans.iter().all(|&s| s <= cap), "{at}: {spans:?}");
                let want: usize = (dims.iter().zip(extents))
                    .map(|(&d, &e)| d.div_ceil((e << (level - 1)).min(d)))
                    .product();
                assert_eq!(spans.len(), want, "{at}");
                assert_eq!(g.at_level(level).num_precincts(), want, "{at}");
            }
        }
        let shape = Shape::d2(1024, 1024);
        let g = PrecinctGrid::new(&[1024, 1024], &[32, 32]).unwrap();
        assert_eq!(num_levels(&shape), 10);
        let counts: Vec<usize> = (1..=10).map(|l| g.level_spans(&shape, l).len()).collect();
        assert_eq!(counts, [1024, 256, 64, 16, 4, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn spans_partition_every_level() {
        for dims in [vec![17usize], vec![20, 16], vec![9, 12, 7]] {
            let shape = Shape::new(&dims);
            let extents: Vec<usize> = dims.iter().map(|&d| (d / 3).max(1)).collect();
            let g = PrecinctGrid::new(&dims, &extents).unwrap();
            for level in 1..=num_levels(&shape) {
                let spans = g.level_spans(&shape, level);
                assert_eq!(
                    spans.iter().sum::<usize>(),
                    level_count(&shape, level),
                    "dims {dims:?} level {level}"
                );
            }
        }
    }

    /// The referee's precinct-major order of a level: `(precinct, canonical
    /// position, domain offset)` of every lattice point, stably bucket-sorted
    /// by the level's precinct.
    fn bucket_sort(g: &PrecinctGrid, shape: &Shape, level: u32) -> Vec<(usize, usize, usize)> {
        let mut points = Vec::new();
        for_each_canonical_point(shape, level, |coords, offset| {
            points.push((g.precinct_of(level, coords), points.len(), offset));
        });
        points.sort_by_key(|&(p, ..)| p);
        points
    }

    /// The walk's rows over `ids`, one `(canonical position, domain offset)`
    /// per point.
    fn walk_points(walk: &LevelWalk, ids: impl IntoIterator<Item = usize>) -> Vec<(usize, usize)> {
        let mut points = Vec::new();
        walk.for_each_row(ids, |row| {
            points.extend((0..row.len).map(|k| (row.canon + k, row.offset + k * row.step)));
        });
        points
    }

    #[test]
    fn permutation_is_a_bijection_grouped_by_precinct() {
        let shape = Shape::d2(13, 11);
        let g = PrecinctGrid::new(&[13, 11], &[4, 4]).unwrap();
        for level in 1..=num_levels(&shape) {
            let lp = g.level_permutation(&shape, level);
            let order: Vec<usize> = (walk_points(&lp.walk, 0..lp.spans.len()).iter())
                .map(|p| p.0)
                .collect();
            let n = order.len();
            assert_eq!(n, level_count(&shape, level));
            let mut seen = vec![false; n];
            for &c in &order {
                assert!(!seen[c]);
                seen[c] = true;
            }
            // Every precinct's slice holds exactly the canonical points whose
            // coordinates fall in that precinct, in canonical order.
            let starts = prefix_sums(&lp.spans);
            let mut by_point: Vec<usize> = Vec::new();
            for_each_canonical_point(&shape, level, |coords, _| {
                by_point.push(g.precinct_of(level, coords));
            });
            for (p, (&start, &span)) in starts.iter().zip(&lp.spans).enumerate() {
                let slice = &order[start..start + span];
                assert!(slice.windows(2).all(|w| w[0] < w[1]), "stable order");
                for &c in slice {
                    assert_eq!(by_point[c], p);
                }
            }
        }
    }

    /// The precinct walk against the bucket-sort referee on 1- to 4-D
    /// ragged domains — extent 1, extents at or above the dimension (a
    /// single precinct along it), non-power-of-two extents, and grids whose
    /// scaled extents overshoot the dimension so that the coarse levels are
    /// one precinct — at every level: the level's precinct count, spans,
    /// both reorder directions, and the rows of any id list.
    #[test]
    fn precinct_walk_matches_bucket_sort() {
        let cases: [(&[usize], &[usize]); 17] = [
            (&[100], &[24]),
            (&[50, 30], &[24, 24]),
            (&[40, 33], &[3, 2]),
            (&[20, 12], &[6, 5]),
            (&[17], &[5]),
            (&[17], &[1]),
            (&[17], &[17]),
            (&[2], &[3]),
            (&[13, 11], &[4, 4]),
            (&[13, 11], &[1, 3]),
            (&[9, 12], &[20, 5]),
            (&[1, 9], &[1, 4]),
            (&[9, 12, 7], &[3, 5, 7]),
            (&[6, 5, 7], &[1, 2, 1]),
            (&[10, 1, 6], &[4, 4, 9]),
            (&[5, 6, 4, 7], &[2, 3, 4, 100]),
            (&[3, 5, 2, 6], &[1, 2, 2, 4]),
        ];
        for (dims, extents) in cases {
            let shape = Shape::new(dims);
            let g = PrecinctGrid::new(dims, extents).unwrap();
            let corner: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
            for level in 1..=num_levels(&shape) {
                let at = format!("dims {dims:?} extents {extents:?} level {level}");
                let lp = g.level_permutation(&shape, level);
                let sorted = bucket_sort(&g, &shape, level);
                // The domain's last corner is in the level's last precinct.
                let n = g.precinct_of(level, &corner) + 1;
                assert_eq!(lp.spans.len(), n, "{at}");
                let bucket = |id: usize| sorted.iter().filter(move |p| p.0 == id);
                for (id, &span) in lp.spans.iter().enumerate() {
                    assert_eq!(span, bucket(id).count(), "{at}");
                }
                // Every precinct's rows, in id order, are the referee's
                // precinct-major order: positions and domain offsets.
                let want: Vec<(usize, usize)> = sorted.iter().map(|&(_, c, o)| (c, o)).collect();
                assert_eq!(walk_points(&lp.walk, 0..n), want, "{at}");
                // Write direction: canonical values gathered into it.
                let canonical: Vec<usize> = (0..sorted.len()).collect();
                let gathered = lp.to_precinct_order(&canonical);
                assert!(gathered.iter().eq(want.iter().map(|p| &p.0)), "{at}");
                // Read direction: precinct-major values scattered back
                // through the rows land on their canonical positions.
                let mut scattered = vec![usize::MAX; canonical.len()];
                let mut i = 0;
                lp.walk.for_each_row(0..n, |row| {
                    scattered[row.canon..row.canon + row.len]
                        .copy_from_slice(&gathered[i..i + row.len]);
                    i += row.len;
                });
                assert_eq!(scattered, canonical, "{at}");
                // Any id list, in list order: exactly those ids' entries.
                let lists: [Vec<usize>; 4] = [
                    (0..n).rev().step_by(2).collect(),
                    (1..n).step_by(3).collect(),
                    vec![n - 1],
                    Vec::new(),
                ];
                for ids in lists {
                    let want: Vec<(usize, usize)> = (ids.iter())
                        .flat_map(|&id| bucket(id).map(|&(_, c, o)| (c, o)))
                        .collect();
                    assert_eq!(
                        walk_points(&lp.walk, ids.iter().copied()),
                        want,
                        "{at} ids {ids:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_walk_matches_grid_iter() {
        let shape = Shape::d3(6, 9, 5);
        for level in 1..=num_levels(&shape) {
            let mut got: Vec<(Vec<usize>, usize)> = Vec::new();
            for_each_canonical_point(&shape, level, |c, o| got.push((c.to_vec(), o)));
            let mut want: Vec<(Vec<usize>, usize)> = Vec::new();
            for_each_level_pass(&shape, level_stride(level), |_, ranges| {
                want.extend(GridIter::new(&shape, ranges));
            });
            assert_eq!(got, want, "level {level}");
        }
    }

    #[test]
    fn intersection_mask_matches_boxes() {
        let g = PrecinctGrid::new(&[32, 24], &[8, 8]).unwrap();
        let ids = g.intersecting(&[(5, 9), (0, 24)]);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending");
        for id in 0..g.num_precincts() {
            let (lo, hi) = g.precinct_box(id);
            let hit = lo[0] < 9 && hi[0] > 5;
            assert_eq!(ids.contains(&id), hit, "precinct {id}");
        }
        // Empty window hits nothing.
        assert!(g.intersecting(&[(4, 4), (0, 24)]).is_empty());
    }

    #[test]
    fn clip_preserves_lattice_phase() {
        let r = AxisRange::strided(3, 4, 40);
        let c = clip_ranges(&[r], &[(6, 30)]);
        assert_eq!(c[0], AxisRange::strided(7, 4, 30));
        let c = clip_ranges(&[r], &[(0, 40)]);
        assert_eq!(c[0], r);
        let c = clip_ranges(&[r], &[(8, 8)]);
        assert_eq!(c[0].count(), 0);
    }

    #[test]
    fn roi_box_validation() {
        let b = RoiBox::new(&[2, 3], &[5, 7]);
        assert!(b.validate(&[10, 10]).is_ok());
        assert_eq!(b.dims(), vec![3, 4]);
        assert_eq!(b.len(), 12);
        assert!(b.validate(&[10]).is_err());
        assert!(b.validate(&[4, 10]).is_err());
        assert!(RoiBox::new(&[3, 3], &[3, 7]).validate(&[10, 10]).is_err());
    }

    #[test]
    fn windows_clamp_to_domain() {
        let roi = RoiBox::new(&[0, 100], &[16, 116]);
        let dims = [128usize, 128];
        let w = fetch_window(&roi, &dims, Interpolation::Cubic, 2);
        // stride 2, reach 3: halo = 3*(2-1) = 3 along dim 0, +3*2 along dim 1.
        assert_eq!(w[0], (0, 19));
        assert_eq!(w[1], (91, 125));
        let w = pass_window(&roi, &dims, Interpolation::Cubic, 1, 0);
        // stride 1: 0 along swept dims <= 0, reach along dim 1.
        assert_eq!(w[0], (0, 16));
        assert_eq!(w[1], (97, 119));
        let w = pass_window(&roi, &dims, Interpolation::Cubic, 1, 1);
        assert_eq!(w, vec![(0, 16), (100, 116)]);
        // stride 2, reach 3: 3·(2·2 − 1) = 9 in every dimension; on the
        // stride-2 lattice, the indices whose points lie inside.
        let w = level_window(&roi, &dims, Interpolation::Cubic, 2);
        assert_eq!(w, vec![(0, 25), (91, 125)]);
        assert_eq!(on_lattice(w, 2), vec![(0, 13), (46, 63)]);
    }

    /// A level's window holds what its sub-passes compute and read — each
    /// clipped sub-pass, widened by the reach along its active dimension
    /// and kept inside the lattice — and the coarser-lattice points of the
    /// next finer level's window, on 1- to 3-D domains, both kernels.
    #[test]
    fn level_windows_hold_their_passes_and_nest() {
        let cases: [(&[usize], &[usize], &[usize]); 4] = [
            (&[100], &[37], &[41]),
            (&[300, 257], &[118, 97], &[170, 151]),
            (&[300, 257], &[262, 221], &[300, 257]),
            (&[40, 33, 47], &[11, 0, 14], &[27, 21, 47]),
        ];
        for (dims, lo, hi) in cases {
            let roi = RoiBox::new(lo, hi);
            let shape = Shape::new(dims);
            for method in [Interpolation::Linear, Interpolation::Cubic] {
                for level in 1..=num_levels(&shape) {
                    let s = level_stride(level);
                    let held = on_lattice(level_window(&roi, dims, method, level), s);
                    let at = format!("dims {dims:?} {method:?} level {level}");
                    for_each_level_pass(&shape, s, |d, ranges| {
                        let halo = pass_window(&roi, dims, method, level, d);
                        for (i, r) in clip_ranges(&ranges, &halo).iter().enumerate() {
                            if r.count() == 0 {
                                continue;
                            }
                            let reach = if i == d { reach(method) } else { 0 };
                            let first = r.start / s;
                            let last = (r.start + (r.count() - 1) * r.step) / s;
                            let last = (last + reach).min(dims[i].div_ceil(s) - 1);
                            assert!(held[i].0 <= first.saturating_sub(reach), "{at} d {d}");
                            assert!(last < held[i].1, "{at} d {d}");
                        }
                    });
                    if level > 1 {
                        let finer = on_lattice(level_window(&roi, dims, method, level - 1), s / 2);
                        for (&(lo, hi), &(flo, fhi)) in held.iter().zip(&finer) {
                            assert!(lo <= flo.div_ceil(2) && fhi.div_ceil(2) <= hi, "{at}");
                        }
                    }
                }
            }
        }
    }
}
