//! Retrieval planner: lower a [`LoadPlan`] into the exact chunk byte ranges
//! it needs, given what a decoder has already loaded, cut those ranges into
//! the fetch groups a request reads them by, and fetch them.
//!
//! The optimizer decides *how many planes* per level (over the metadata-only
//! [`ContainerMap`], so no payload is touched); [`lower_plan`] turns that
//! into *which bytes*: one [`ChunkRead`] per chunk run the plan adds — a
//! single chunk, or over a region a maximal run of consecutive precinct ids
//! it reads, the runs `LevelMap::fetch_planes` cuts a level's table from —
//! in container payload order. The lowering is both what a request is
//! **priced** by (`ipc_store` re-exports it for sessions and the service's
//! budget gate) and what the decoder **fetches**: `ProgressiveDecoder`
//! lowers its plan through the same function before it decodes anything and
//! builds its `RequestFetch` from those reads, so there is one list.
//!
//! [`fetch_groups`] is the request's I/O schedule. Because plans always load
//! the top planes and the container stores planes low-to-high, the added
//! planes of a level form one contiguous tail run, and consecutive levels
//! (or archive steps) are separated only by the planes the plan leaves out:
//! grouping bridges those boundaries smallest gap first, within a byte
//! budget, so a request reads in a few large `read_ranges` calls instead of
//! one per level. A `RequestFetch` holds a request's groups and hands each
//! level load its run buffers by position, reading a group on the first load
//! that needs it.
//!
//! On whole-plane levels (`chunk_bytes` 0) every plane is one chunk, so the
//! same lowering reads a single range per plane.

use std::sync::Arc;

use crate::container::ContainerMap;
use crate::error::Result;
use crate::optimizer::{plan_for_scope, LoadPlan};
use crate::precinct::RoiBox;
use crate::progressive::RetrievalRequest;
use crate::source::{read_ranges_exact, ByteRange, Bytes, ChunkSource};

/// One fetch of a lowered plan: a run of consecutive chunks of one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRead {
    /// Index into the container's level list (coarsest first).
    pub level: usize,
    /// Plane index within the level (0 = least significant).
    pub plane: u8,
    /// Index of the run's first chunk within the plane.
    pub chunk: usize,
    /// Absolute byte range of the run's compressed chunks.
    pub range: ByteRange,
}

/// A [`LoadPlan`] lowered to byte ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct RangePlan {
    /// The plane-count plan this lowering realizes.
    pub load: LoadPlan,
    /// Chunk fetches in container payload order (level-major, then
    /// plane-major — exactly the serialized byte order).
    pub reads: Vec<ChunkRead>,
}

impl RangePlan {
    /// Total payload bytes the plan fetches.
    pub fn payload_bytes(&self) -> usize {
        self.reads.iter().map(|r| r.range.len).sum()
    }

    /// Number of per-run requests without coalescing.
    pub fn request_count(&self) -> usize {
        self.reads.len()
    }

    /// The raw per-run ranges, in payload order.
    pub fn ranges(&self) -> Vec<ByteRange> {
        self.reads.iter().map(|r| r.range).collect()
    }

    /// The ranges of each level the plan reads, in payload order: the units
    /// [`fetch_groups`] cuts between.
    pub fn level_units(&self) -> Vec<Vec<ByteRange>> {
        self.reads
            .chunk_by(|a, b| a.level == b.level)
            .map(|level| level.iter().map(|r| r.range).collect())
            .collect()
    }
}

/// Lower `plan` against `map`, skipping planes already loaded.
///
/// `already_loaded[idx]` counts planes from the most significant, exactly
/// like `LoadPlan::planes_loaded` (pass all zeros for a fresh session).
/// Over a `region` — per level entry, the ascending ids of the precincts it
/// reads (the `true` entries of [`crate::roi_precinct_masks`]) — only those
/// precincts' chunks are read, one read per run of consecutive ids: the
/// lowering asks the level for the same `chunk_runs` / `run_ranges` the
/// fetch path reads by, so a plan's request list is the fetch's request
/// list.
pub fn lower_plan(
    map: &ContainerMap,
    already_loaded: &[u8],
    plan: &LoadPlan,
    region: Option<&[Vec<usize>]>,
) -> RangePlan {
    let mut reads = Vec::new();
    for (idx, level) in map.levels.iter().enumerate() {
        let want = plan
            .planes_loaded
            .get(idx)
            .copied()
            .unwrap_or(0)
            .min(level.num_planes);
        let have = already_loaded.get(idx).copied().unwrap_or(0);
        if want <= have {
            continue;
        }
        // Top `want` planes minus the top `have` already present.
        let hi = level.num_planes - have;
        let lo = level.num_planes - want;
        let runs = level.chunk_runs(region.map(|ids| &ids[idx][..]));
        // `run_ranges` is plane-major over the runs; label its entries so.
        let labels = (lo..hi).flat_map(|p| runs.iter().map(move |&(k0, _)| (p, k0)));
        let ranges = level.run_ranges(lo, hi, &runs);
        reads.extend(labels.zip(ranges).map(|((plane, chunk), range)| ChunkRead {
            level: idx,
            plane,
            chunk,
            range,
        }));
    }
    RangePlan {
        load: plan.clone(),
        reads,
    }
}

/// Resolve `request` — scoped to `region` when one is given — through the
/// optimizer (the same scope rule and cost table the decoder uses, so a
/// request is priced exactly as it is served) and lower it in one step. A
/// region, whether passed here or carried by [`RetrievalRequest::Roi`],
/// lowers to only the chunk ranges of precincts intersecting the box plus
/// its cross-level ancestor halo, and never skips already-loaded planes:
/// region retrievals are stateless.
pub fn plan_request(
    map: &ContainerMap,
    already_loaded: &[u8],
    request: RetrievalRequest,
    region: Option<RoiBox>,
) -> Result<RangePlan> {
    Ok(match plan_for_scope(map, request, region)? {
        (plan, None) => lower_plan(map, already_loaded, &plan, None),
        (plan, Some((_, ids))) => lower_plan(map, &[], &plan, Some(&ids)),
    })
}

/// Bytes a request may fetch beyond its plan to save round trips, as a
/// divisor of the planned bytes: bridged boundary gaps never add up to more
/// than `planned / 16` (6.25 %).
///
/// Merging *everything* at a backend's time-optimal gap (1 MB at 5 ms and
/// 200 MB/s) would read a whole 3 MB archive for a 1.8 MB window — one GET,
/// but 1.3–2.2× the bytes on the benchmark's requests. The boundaries worth
/// bridging are the many small ones (a level's few unloaded low planes, a
/// step's metadata block), and a sixteenth of the plan buys nearly all of
/// them: 72 → 13 payload GETs for +2.5 % bytes on an eight-step window.
const BRIDGE_BUDGET_DIVISOR: u64 = 16;

/// Cut a request's planned reads into **fetch groups**: the sets of ranges
/// each read by one `read_ranges` call (see `RequestFetch`).
///
/// `units` holds the plan's ranges per level — per `(step, level)` for an
/// archive request — in payload order. Groups are cut only *between* units,
/// never inside one, so whatever merging a level's own ranges get from the
/// layers below is unchanged. Every boundary starts as a cut; boundaries are
/// then bridged in ascending order of their byte gap (the bytes between one
/// unit's last range and the next unit's first) for as long as the gaps
/// bridged so far stay within `planned bytes / 16`. Gap-0 boundaries —
/// consecutive levels of a `Full` retrieve — cost nothing and are always
/// bridged.
///
/// The rule's invariant, for any stack below: `planned ≤ fetched ≤ planned +
/// planned / 16`, plus whatever fill the coalescer already added *within* a
/// level. Whether a bridged gap is actually read is still the coalescer's
/// call (its gap threshold applies inside a group as it always did inside a
/// level); grouping only decides which ranges it gets to see together, and
/// never adds a request.
pub fn fetch_groups(units: Vec<Vec<ByteRange>>) -> Vec<Vec<ByteRange>> {
    cut_groups(units).0
}

/// [`fetch_groups`], with the group of every unit (`None` for a unit
/// without ranges).
fn cut_groups(mut units: Vec<Vec<ByteRange>>) -> (Vec<Vec<ByteRange>>, Vec<Option<usize>>) {
    let mut planned = 0u64;
    for unit in &mut units {
        unit.sort_unstable();
        // A range listed twice (two decodes of one archive step) is planned,
        // and fetched, once.
        planned += unit
            .chunk_by(|a, b| a == b)
            .map(|same| same[0].len as u64)
            .sum::<u64>();
    }
    let mut unit_group = vec![None; units.len()];
    let listed: Vec<(usize, Vec<ByteRange>)> = (units.into_iter().enumerate())
        .filter(|(_, u)| !u.is_empty())
        .collect();
    let end = |u: &[ByteRange]| u.iter().map(ByteRange::end).max().unwrap_or(0);
    let mut gaps: Vec<(u64, usize)> = listed
        .windows(2)
        .enumerate()
        .map(|(i, w)| (w[1].1[0].offset.saturating_sub(end(&w[0].1)), i))
        .collect();
    gaps.sort_unstable();
    let mut bridged = vec![false; gaps.len()];
    let mut spent = 0u64;
    for (gap, i) in gaps {
        if spent + gap > planned / BRIDGE_BUDGET_DIVISOR {
            break;
        }
        spent += gap;
        bridged[i] = true;
    }
    let mut groups: Vec<Vec<ByteRange>> = Vec::new();
    for (n, (u, unit)) in listed.into_iter().enumerate() {
        match groups.last_mut() {
            Some(group) if bridged[n - 1] => group.extend(unit),
            _ => groups.push(unit),
        }
        unit_group[u] = Some(groups.len() - 1);
    }
    (groups, unit_group)
}

/// A request's lowered reads as its fetch: each level load takes its run
/// buffers from here, and nothing else reads payload.
///
/// Built once per request from its decodes' lowered reads ([`lower_plan`]'s
/// `reads`, in archive-absolute offsets for an archive window): one decode
/// for a container, the output and the chain decode of every step of an
/// archive window. The units are one per `(step, level)` — every decode of a
/// step that reads a level reads it from one unit, so a chunk both decodes
/// read is fetched once — and the groups are [`fetch_groups`]' cut of them.
/// Where each `(decode, level)` load's buffers sit in its group is fixed
/// here, so a level load takes them by position, in the order its reads
/// were lowered: one buffer per run, plane-major.
///
/// Groups are lazy and short-lived. The first load that takes from a group
/// reads all of it with one [`read_ranges_exact`] of its sorted, distinct
/// ranges — where the cache sees the per-chunk keys and the coalescer
/// applies its own gap rule to all of them at once — and every later take
/// is a zero-copy [`Bytes`] clone. A failed or short read leaves the group
/// unread (the load fails; a retry reads again), and its buffers are
/// dropped after its last load takes them.
pub(crate) struct RequestFetch<'s> {
    source: Arc<dyn ChunkSource + 's>,
    groups: Vec<FetchGroup>,
    /// `loads[decode][level]`: where that load's buffers sit, `None` for a
    /// level the decode reads nothing of.
    loads: Vec<Vec<Option<Load>>>,
}

struct FetchGroup {
    /// The group's distinct ranges, sorted: what its one read asks for.
    ranges: Vec<ByteRange>,
    /// Loads still to take from the group; its buffers go when this is 0.
    takes: usize,
    /// One buffer per range while the group is resident.
    bufs: Option<Vec<Bytes>>,
}

/// One `(decode, level)` load: its group and, per lowered read in order,
/// the slot of that read's range among the group's ranges.
struct Load {
    group: usize,
    slots: Vec<usize>,
}

impl<'s> RequestFetch<'s> {
    /// The fetch of `decodes` from `source`: per decode, its lowered reads
    /// and its first unit — level `l`'s reads are unit `first + l`, so the
    /// decodes of one archive step share a `first`, and a container
    /// request's one decode has `first` 0.
    pub(crate) fn new(
        source: Arc<dyn ChunkSource + 's>,
        decodes: &[(usize, Vec<ChunkRead>)],
    ) -> Self {
        let mut units: Vec<Vec<ByteRange>> = Vec::new();
        for (first, reads) in decodes {
            for read in reads {
                let unit = first + read.level;
                units.resize(units.len().max(unit + 1), Vec::new());
                units[unit].push(read.range);
            }
        }
        let (groups, cut) = cut_groups(units);
        let mut groups: Vec<FetchGroup> = (groups.into_iter())
            .map(|mut ranges| {
                ranges.sort_unstable();
                ranges.dedup();
                FetchGroup {
                    ranges,
                    takes: 0,
                    bufs: None,
                }
            })
            .collect();
        let loads = (decodes.iter())
            .map(|(first, reads)| {
                let mut levels: Vec<Option<Load>> = Vec::new();
                for level in reads.chunk_by(|a, b| a.level == b.level) {
                    let idx = level[0].level;
                    let group = cut[first + idx].expect("a unit with reads is grouped");
                    let ranges = &groups[group].ranges;
                    let slots = (level.iter())
                        .map(|read| {
                            ranges
                                .binary_search(&read.range)
                                .expect("range in its group")
                        })
                        .collect();
                    groups[group].takes += 1;
                    levels.resize_with(levels.len().max(idx + 1), || None);
                    levels[idx] = Some(Load { group, slots });
                }
                levels
            })
            .collect();
        Self {
            source,
            groups,
            loads,
        }
    }

    /// The run buffers of `decode`'s load of `level`, one per lowered read
    /// in order, reading the load's group first if no load has yet. A level
    /// the decode reads nothing of takes nothing.
    pub(crate) fn take(&mut self, decode: usize, level: usize) -> Result<Vec<Bytes>> {
        let load = self.loads.get(decode).and_then(|levels| levels.get(level));
        let Some(Load { group, slots }) = load.and_then(Option::as_ref) else {
            return Ok(Vec::new());
        };
        let group = &mut self.groups[*group];
        debug_assert!(group.takes > 0, "load ({decode}, {level}) taken twice");
        if group.bufs.is_none() {
            let obs = crate::obs::metrics();
            let mut span = ipc_telemetry::span_timed("pipeline", "fetch", obs.fetch_ns);
            let bytes: u64 = group.ranges.iter().map(|r| r.len as u64).sum();
            obs.fetch_bytes.add(bytes);
            span.add_arg("bytes", bytes);
            group.bufs = Some(read_ranges_exact(&*self.source, &group.ranges)?);
        }
        let bufs = group.bufs.as_ref().expect("read above");
        let taken = slots.iter().map(|&s| bufs[s].clone()).collect();
        group.takes -= 1;
        if group.takes == 0 {
            group.bufs = None;
        }
        Ok(taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemorySource;
    use crate::{compress, Compressed, Config};
    use ipc_tensor::{ArrayD, Shape};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};

    fn toy_map(chunk_bytes: usize) -> (Compressed, ContainerMap) {
        let field = ArrayD::from_fn(Shape::d3(20, 18, 16), |c| {
            (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() * 2.0 + c[2] as f64 * 0.01
        });
        let config = Config {
            chunk_bytes,
            ..Config::default()
        };
        let c = compress(&field, 1e-7, &config).unwrap();
        let map = ContainerMap::from_compressed(&c);
        (c, map)
    }

    #[test]
    fn full_plan_covers_every_payload_byte() {
        let (c, map) = toy_map(64);
        let rp = plan_request(
            &map,
            &vec![0; map.levels.len()],
            RetrievalRequest::Full,
            None,
        )
        .unwrap();
        assert_eq!(rp.payload_bytes(), c.payload_bytes());
    }

    #[test]
    fn error_bound_plan_fetches_strict_subset() {
        let (c, map) = toy_map(64);
        let rp = plan_request(
            &map,
            &vec![0; map.levels.len()],
            RetrievalRequest::ErrorBound(1e-3),
            None,
        )
        .unwrap();
        assert!(rp.payload_bytes() > 0);
        assert!(rp.payload_bytes() < c.payload_bytes());
        // Reads arrive in payload order: offsets strictly increase.
        for w in rp.reads.windows(2) {
            assert!(w[1].range.offset >= w[0].range.end());
        }
    }

    #[test]
    fn refinement_lowering_skips_loaded_planes() {
        let (_, map) = toy_map(64);
        let coarse = plan_request(
            &map,
            &vec![0; map.levels.len()],
            RetrievalRequest::ErrorBound(1e-2),
            None,
        )
        .unwrap();
        let refined = plan_request(
            &map,
            &coarse.load.planes_loaded,
            RetrievalRequest::Full,
            None,
        )
        .unwrap();
        // No chunk is fetched twice across the two steps.
        let mut seen: std::collections::HashSet<(usize, u8, usize)> = Default::default();
        for r in coarse.reads.iter().chain(&refined.reads) {
            assert!(seen.insert((r.level, r.plane, r.chunk)), "duplicate {r:?}");
        }
        // Together they cover the full plan exactly.
        let full = plan_request(
            &map,
            &vec![0; map.levels.len()],
            RetrievalRequest::Full,
            None,
        )
        .unwrap();
        assert_eq!(
            coarse.payload_bytes() + refined.payload_bytes(),
            full.payload_bytes()
        );
    }

    #[test]
    fn roi_lowering_selects_masked_subset_and_matches_decoder_bytes() {
        use crate::ProgressiveDecoder;
        let field = ArrayD::from_fn(Shape::d3(24, 20, 16), |c| {
            (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() * 2.0 + c[2] as f64 * 0.01
        });
        let config = Config::with_precincts(&[8, 8, 8]);
        let c = compress(&field, 1e-7, &config).unwrap();
        let map = ContainerMap::from_compressed(&c);
        let bounds = RoiBox::new(&[0, 0, 0], &[8, 8, 8]);
        let zeros = vec![0u8; map.levels.len()];
        let request = RetrievalRequest::Roi {
            bounds,
            error_bound: 1e-3,
        };
        let roi = plan_request(&map, &zeros, request, None).unwrap();
        let full = plan_request(&map, &zeros, RetrievalRequest::ErrorBound(1e-3), None).unwrap();
        // Same plane selection, strictly fewer chunks, and every ROI read is
        // one of the full lowering's reads.
        assert_eq!(roi.load.planes_loaded, full.load.planes_loaded);
        assert!(roi.request_count() < full.request_count());
        let all: std::collections::HashSet<_> = full
            .reads
            .iter()
            .map(|r| (r.level, r.plane, r.chunk))
            .collect();
        assert!(roi
            .reads
            .iter()
            .all(|r| all.contains(&(r.level, r.plane, r.chunk))));
        // The lowering predicts exactly the bytes the decoder fetches.
        let mut dec = ProgressiveDecoder::new(&c);
        let out = dec
            .retrieve_roi(bounds, RetrievalRequest::ErrorBound(1e-3))
            .unwrap();
        assert_eq!(
            roi.payload_bytes(),
            out.bytes_this_request - map.base_bytes()
        );
    }

    #[test]
    fn roi_lowering_emits_one_read_per_precinct_run_for_the_same_bytes() {
        let field = ArrayD::from_fn(Shape::d2(96, 80), |c| {
            (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() * 2.0
        });
        let c = compress(&field, 1e-7, &Config::with_precincts(&[8, 8])).unwrap();
        let map = ContainerMap::from_compressed(&c);
        let bounds = RoiBox::new(&[16, 8], &[56, 64]);
        let request = RetrievalRequest::Roi {
            bounds,
            error_bound: 1e-4,
        };
        let plan = plan_request(&map, &[], request, None).unwrap();
        // The expectation walks the chunk table chunk by chunk, the way the
        // lowering used to.
        let masks = crate::roi_precinct_masks(&map.header, &bounds).unwrap();
        let (mut runs, mut chunks, mut bytes) = (0, 0, 0);
        for (idx, level) in map.levels.iter().enumerate() {
            let lo = level.num_planes - plan.load.planes_loaded[idx];
            for p in lo..level.num_planes {
                let ids: Vec<usize> = (0..masks[idx].len()).filter(|&k| masks[idx][k]).collect();
                runs += level.chunk_runs(Some(&ids)).len();
                for k in (0..level.plane_chunk_count(p)).filter(|&k| masks[idx][k]) {
                    chunks += 1;
                    bytes += level.chunk_size(p, k);
                }
            }
        }
        assert_eq!(plan.request_count(), runs);
        assert_eq!(plan.payload_bytes(), bytes);
        assert!(runs * 3 <= chunks, "{runs} runs for {chunks} chunks");
        for w in plan.reads.windows(2) {
            assert!(w[1].range.offset >= w[0].range.end());
        }
    }

    #[test]
    fn roi_lowering_requires_precinct_layout() {
        let (_, map) = toy_map(64);
        let request = RetrievalRequest::Roi {
            bounds: RoiBox::new(&[0, 0, 0], &[4, 4, 4]),
            error_bound: 1e-3,
        };
        assert!(plan_request(&map, &vec![0; map.levels.len()], request, None).is_err());
    }

    /// Every boundary gap of `units` (in order) and the planned bytes.
    fn gaps_and_planned(units: &[Vec<ByteRange>]) -> (Vec<u64>, u64) {
        let gaps = units
            .windows(2)
            .map(|w| w[1][0].offset - w[0].last().unwrap().end())
            .collect();
        let planned = units.iter().flatten().map(|r| r.len as u64).sum();
        (gaps, planned)
    }

    #[test]
    fn empty_and_single_level_plans_are_zero_and_one_group() {
        assert!(fetch_groups(Vec::new()).is_empty());
        assert!(fetch_groups(vec![Vec::new(), Vec::new()]).is_empty());
        let unit = vec![ByteRange::new(10, 5), ByteRange::new(400, 7)];
        assert_eq!(fetch_groups(vec![unit.clone()]), vec![unit]);
    }

    #[test]
    fn a_range_two_decodes_list_is_planned_once_and_kept_twice() {
        // 160 distinct bytes → a budget of 10: the gap of 10 is bridged. Had
        // the repeated range counted twice (240 bytes, budget 15) the gap of
        // 15 would be bridged too.
        let r = ByteRange::new(0, 80);
        let units = vec![
            vec![r, r],
            vec![ByteRange::new(90, 40)],
            vec![ByteRange::new(145, 40)],
        ];
        let groups = fetch_groups(units);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![r, r, ByteRange::new(90, 40)]);
    }

    /// Counts `read_ranges` calls and can be told to fail them.
    struct Counting {
        inner: MemorySource,
        calls: AtomicUsize,
        failing: AtomicBool,
    }

    impl Counting {
        fn new(len: usize) -> Self {
            Self {
                inner: MemorySource::new((0..len).map(|i| i as u8).collect()),
                calls: Default::default(),
                failing: Default::default(),
            }
        }
        fn calls(&self) -> usize {
            self.calls.load(SeqCst)
        }
    }

    impl ChunkSource for Counting {
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
            self.calls.fetch_add(1, SeqCst);
            if self.failing.load(SeqCst) {
                return Err(crate::IpcompError::Io("injected outage".into()));
            }
            self.inner.read_ranges(ranges)
        }
    }

    fn r(offset: u64, len: usize) -> ByteRange {
        ByteRange::new(offset, len)
    }

    /// A lowered read of `level` (plane and chunk labels do not matter to
    /// the fetch).
    fn read(level: usize, offset: u64, len: usize) -> ChunkRead {
        let range = r(offset, len);
        ChunkRead {
            level,
            plane: 0,
            chunk: 0,
            range,
        }
    }

    fn check(bufs: &[Bytes], ranges: &[ByteRange]) {
        assert_eq!(bufs.len(), ranges.len());
        for (b, range) in bufs.iter().zip(ranges) {
            let want: Vec<u8> = (range.offset..range.end()).map(|i| i as u8).collect();
            assert_eq!(&b[..], &want[..], "{range:?}");
        }
    }

    #[test]
    fn fetch_reads_each_group_once_whatever_the_take_order() {
        let inner = Counting::new(256);
        // Levels 0 and 1 are byte-adjacent (one group); level 2 lies past a
        // gap over the bridge budget (its own group).
        let reads = vec![
            read(0, 0, 8),
            read(0, 8, 8),
            read(1, 16, 4),
            read(2, 100, 16),
            read(2, 130, 2),
        ];
        let mut fetch = RequestFetch::new(Arc::new(&inner), &[(0, reads)]);
        assert_eq!(fetch.groups.len(), 2);
        // The far group first, then the near one's second load before its
        // first: one read per group.
        check(&fetch.take(0, 2).unwrap(), &[r(100, 16), r(130, 2)]);
        assert_eq!(inner.calls(), 1);
        check(&fetch.take(0, 1).unwrap(), &[r(16, 4)]);
        let first = fetch.take(0, 0).unwrap();
        check(&first, &[r(0, 8), r(8, 8)]);
        assert_eq!(inner.calls(), 2);
        // Takes are slices of the group's buffers, not copies of them.
        assert!(first.iter().all(|b| b.backing_len() == 256));
        // A level (or a decode) the plan reads nothing of takes nothing.
        assert!(fetch.take(0, 3).unwrap().is_empty());
        assert!(fetch.take(1, 0).unwrap().is_empty());
        assert_eq!(inner.calls(), 2);
    }

    #[test]
    fn a_group_is_read_once_for_a_steps_decodes_and_dropped_after_its_last_take() {
        let inner = Counting::new(256);
        // Two decodes of step 0 both read `r(0, 8)` of level 0; step 1's
        // level 0 is a unit of its own, far enough away to be a group.
        let decodes = [
            (0, vec![read(0, 0, 8)]),
            (0, vec![read(0, 0, 8), read(0, 8, 8)]),
            (1, vec![read(0, 200, 8)]),
        ];
        let mut fetch = RequestFetch::new(Arc::new(&inner), &decodes);
        assert_eq!(fetch.groups.len(), 2);
        assert_eq!(fetch.groups[0].ranges, [r(0, 8), r(8, 8)]);
        check(&fetch.take(1, 0).unwrap(), &[r(0, 8), r(8, 8)]);
        assert!(fetch.groups[0].bufs.is_some(), "decode 0 has yet to take");
        check(&fetch.take(0, 0).unwrap(), &[r(0, 8)]);
        assert!(fetch.groups[0].bufs.is_none(), "taken out: the buffers go");
        assert_eq!(inner.calls(), 1);
        check(&fetch.take(2, 0).unwrap(), &[r(200, 8)]);
        assert_eq!(inner.calls(), 2);
    }

    #[test]
    fn a_failed_group_read_leaves_nothing_resident_and_the_next_take_reads_again() {
        let inner = Counting::new(256);
        let reads = vec![read(0, 0, 8), read(1, 64, 8), read(1, 80, 8)];
        let mut fetch = RequestFetch::new(Arc::new(&inner), &[(0, reads)]);
        fetch.take(0, 0).unwrap();
        inner.failing.store(true, SeqCst);
        assert!(fetch.take(0, 1).is_err());
        assert!(fetch.groups[1].bufs.is_none());
        inner.failing.store(false, SeqCst);
        let calls = inner.calls();
        // The failed group is read again, whole, by the retry.
        check(&fetch.take(0, 1).unwrap(), &[r(64, 8), r(80, 8)]);
        assert_eq!(inner.calls(), calls + 1);

        // A short read is a failed read too: nothing undersized stays.
        struct Short(MemorySource);
        impl ChunkSource for Short {
            fn len(&self) -> u64 {
                self.0.len()
            }
            fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
                let bufs = self.0.read_ranges(ranges)?;
                Ok(bufs.into_iter().map(|b| b.slice(0..b.len() / 2)).collect())
            }
        }
        let short = Arc::new(Short(MemorySource::new(vec![0; 64])));
        let mut fetch = RequestFetch::new(short, &[(0, vec![read(0, 0, 8)])]);
        assert!(fetch.take(0, 0).is_err());
        assert!(fetch.groups[0].bufs.is_none());
    }

    proptest::proptest! {
        /// The grouping rule on arbitrary offset-ordered units: a partition
        /// of the plan, cut only between units, offset-ordered, gap-0
        /// boundaries always bridged, bridged bytes within a sixteenth of
        /// the plan, and greedy — the cheapest unbridged boundary would not
        /// have fit.
        #[test]
        fn prop_groups_partition_the_plan_within_the_byte_budget(
            shape in proptest::collection::vec(
                (0u64..3000, proptest::collection::vec((1usize..2000, 0u64..64), 1..5)),
                1..12,
            ),
        ) {
            // Units laid out front to back: a boundary gap, then the unit's
            // ranges separated by small intra-unit gaps.
            let mut at = 0u64;
            let units: Vec<Vec<ByteRange>> = shape
                .iter()
                .map(|(boundary, ranges)| {
                    at += boundary;
                    ranges
                        .iter()
                        .map(|&(len, gap)| {
                            let r = ByteRange::new(at, len);
                            at = r.end() + gap;
                            r
                        })
                        .collect()
                })
                .collect();
            let (gaps, planned) = gaps_and_planned(&units);
            let groups = fetch_groups(units.clone());

            // Every range lands in exactly one group, in plan order.
            let flat: Vec<ByteRange> = units.iter().flatten().copied().collect();
            let regrouped: Vec<ByteRange> = groups.iter().flatten().copied().collect();
            proptest::prop_assert_eq!(&regrouped, &flat);
            for w in regrouped.windows(2) {
                proptest::prop_assert!(w[0].end() <= w[1].offset);
            }
            // Cuts fall only on unit boundaries: each group is a whole
            // number of consecutive units.
            let mut unit = 0usize;
            let mut bridged = vec![true; gaps.len()];
            for group in &groups {
                let mut taken = 0usize;
                while taken < group.len() {
                    proptest::prop_assert!(
                        group[taken..].starts_with(&units[unit]),
                        "group cut inside unit {}", unit
                    );
                    taken += units[unit].len();
                    unit += 1;
                }
                if unit <= gaps.len() {
                    bridged[unit - 1] = false;
                }
            }
            proptest::prop_assert_eq!(unit, units.len());
            let spent: u64 = gaps.iter().zip(&bridged).filter(|(_, &b)| b).map(|(g, _)| g).sum();
            proptest::prop_assert!(spent <= planned / 16, "bridged {} of {}", spent, planned);
            let cheapest_cut = gaps.iter().zip(&bridged).filter(|(_, &b)| !b).map(|(g, _)| *g).min();
            if let Some(gap) = cheapest_cut {
                proptest::prop_assert!(gap > 0, "a gap-0 boundary was cut");
                proptest::prop_assert!(spent + gap > planned / 16, "gap {} would have fit", gap);
            }
        }
    }
}
