//! The seven workloads: inputs, the timed op, the oracle, and the traced
//! replay of the op as layer calls.
//!
//! Shapes, bounds and mixes are fixed here (and recorded in the result
//! header); `--smoke` only shrinks the shapes. Every op is cold — fresh
//! store, empty cache, metadata parse included — except `service_mix`,
//! which is the one warm, concurrent, cache-bound workload.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::calls::{self, ArrayD, Compressed, Config, RetrievalRequest, RoiBox, Shape};
use crate::harness::{
    crop_2d, fnv_bytes, fnv_field, fnv_field_bytes, fold_digests, linf, Budget, Clock, Io, Metrics,
    OpRecord, Oracle, Workload,
};
use crate::stats::{median, Timing};
use crate::trace::Tracer;

/// Name and reason of every workload, in the order `--all` runs them.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "compress_v2",
        "the write path the paper times: interp+quantize, bitplane and entropy encode on a 1M-coefficient field; store layers idle",
    ),
    (
        "compress_precinct",
        "same encode layers cut into ~55k tiny precinct chunks: per-chunk overhead dominates, interp does little",
    ),
    (
        "retrieve_full_local",
        "cold full retrieve from a local file: CPU-bound entropy decode, scatter and cascade; planner and backend do little",
    ),
    (
        "refine_ladder_remote",
        "the paper's headline use: one session refining 1e-2..1e-5 over an object store; storage time and CPU time are comparable",
    ),
    (
        "roi_remote",
        "1/64-domain region reads from a precinct container over an object store: bytes and GETs dominate, CPU barely matters",
    ),
    (
        "archive_window_remote",
        "eight steps across a keyframe from a residual time-series archive: chain decode and GETs per output step",
    ),
    (
        "service_mix",
        "warm concurrent Zipf traffic through StoreService with caches half the working set: cache, admission, queue, workers",
    ),
];

/// Span names of the store layers, for the workloads where they stay idle.
const STORE_SPANS: &[&str] = &[
    "container.map_open",
    "planner.plan",
    "coalesce.merge",
    "backend.read",
];
const ENCODE_SPANS: &[&str] = &[
    "interp.predict_quantize",
    "bitplane.encode",
    "bitplane.encode_precincts",
    "precinct.permute",
    "container.serialize",
];

/// Build workload `name` from `seed`; everything done here is `setup_s`.
pub fn setup(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    let built: Result<Box<dyn Workload>, calls::IpcompError> = match name {
        "compress_v2" => Ok(Box::new(CompressWl::v2(seed, smoke))),
        "compress_precinct" => Ok(Box::new(CompressWl::precinct(seed, smoke))),
        "retrieve_full_local" => FullLocalWl::new(seed, smoke).map(|w| Box::new(w) as _),
        "refine_ladder_remote" => LadderWl::new(seed, smoke).map(|w| Box::new(w) as _),
        "roi_remote" => RoiWl::new(seed, smoke).map(|w| Box::new(w) as _),
        "archive_window_remote" => ArchiveWl::new(seed, smoke).map(|w| Box::new(w) as _),
        "service_mix" => ServiceWl::new(seed, smoke).map(|w| Box::new(w) as _),
        other => return Err(format!("unknown workload {other:?}")),
    };
    built.map_err(|e| format!("{name}: set-up failed: {e}"))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn raw_bytes(field: &ArrayD<f64>) -> f64 {
    (field.len() * std::mem::size_of::<f64>()) as f64
}

fn failed_op(timing: Timing, index: usize) -> OpRecord {
    OpRecord {
        index,
        timing,
        io: Io::default(),
        digest: 0,
        ok: false,
    }
}

fn sim_io(stats: calls::SimStats) -> Io {
    Io {
        bytes: stats.bytes as f64,
        gets: stats.requests as f64,
        sim_ms: stats.simulated_secs * 1e3,
    }
}

/// Sums of per-replay counts; reported as means over replays.
#[derive(Default)]
struct Counts {
    sums: BTreeMap<&'static str, f64>,
    replays: usize,
}

impl Counts {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    fn mean(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0) / self.replays.max(1) as f64
    }

    /// Push the mean of every recorded count under its own name.
    fn report(&self, m: &mut Metrics) {
        for name in self.sums.keys() {
            m.push((name, self.mean(name)));
        }
    }
}

/// The storage-side replay shared by every read workload: coalesce the
/// planned ranges, then read them from a bare backend. Records the planner,
/// coalescer and backend counts.
fn replay_storage(
    t: &mut Tracer,
    counts: &mut Counts,
    ranges: &[calls::ByteRange],
    gap: u64,
    bare: &dyn calls::ChunkSource,
) -> bool {
    let (merged, gap_fill) = t.span("coalesce.merge", || calls::coalesce(ranges, gap));
    let read = t.span("backend.read", || bare.read_ranges(&merged));
    let planned: usize = ranges.iter().map(|r| r.len).sum();
    let fetched: usize = merged.iter().map(|r| r.len).sum();
    counts.add("planner.chunks", ranges.len() as f64);
    counts.add("planner.bytes", planned as f64);
    counts.add("coalesce.gets_in", ranges.len() as f64);
    counts.add("coalesce.gets_out", merged.len() as f64);
    counts.add("coalesce.gap_fill_bytes", gap_fill as f64);
    counts.add("backend.gets.payload", merged.len() as f64);
    counts.add("backend.bytes.payload", fetched as f64);
    counts.add(
        "backend.sim_ms.payload",
        calls::sim_cost_ms(merged.len() as u64, fetched as u64),
    );
    read.is_ok()
}

fn record_open(counts: &mut Counts, gets: u64, bytes: u64) {
    counts.add("container.map_gets", gets as f64);
    counts.add("container.map_bytes", bytes as f64);
    counts.add("backend.gets.open", gets as f64);
    counts.add("backend.bytes.open", bytes as f64);
    counts.add("backend.sim_ms.open", calls::sim_cost_ms(gets, bytes));
}

/// Layer metrics every read-side replay reports the same way.
fn read_layer_metrics(t: &Tracer, counts: &Counts, open_span: &str, m: &mut Metrics) {
    counts.report(m);
    let open_ms = t.median_ms(open_span);
    m.push(("backend.read_ms.open", open_ms));
    m.push(("backend.read_ms.payload", t.median_ms("backend.read")));
    m.push(("planner.plan_ms", t.median_ms("planner.plan")));
    m.push(("coalesce.merge_ms", t.median_ms("coalesce.merge")));
    let fetched = counts.mean("backend.bytes.payload");
    if fetched > 0.0 {
        m.push((
            "planner.bytes_over_fetched",
            counts.mean("planner.bytes") / fetched,
        ));
    }
    let entropy_ms = t.median_ms("pipeline.entropy_decode");
    m.push(("pipeline.entropy_decode_ms", entropy_ms));
    if entropy_ms > 0.0 {
        let decoded_mb = counts.mean("pipeline.decoded_bytes") * 1e-6;
        m.push((
            "pipeline.entropy_decode_mb_s",
            decoded_mb / (entropy_ms * 1e-3),
        ));
        let decode_ms = t.median_ms("pipeline.decode");
        if decode_ms > 0.0 {
            // `decode_planes_into` runs entropy decode and scatter together;
            // the serial entropy loop above is subtracted to leave scatter.
            // With the pool's threads the parallel whole can undercut the
            // serial part, hence the floor at zero.
            let scatter_ms = (decode_ms - entropy_ms).max(0.0);
            m.push(("pipeline.scatter_ms", scatter_ms));
            if scatter_ms > 0.0 {
                m.push(("pipeline.scatter_mb_s", decoded_mb / (scatter_ms * 1e-3)));
            }
        }
    }
    let cascade_ms = t.median_ms("cascade.reconstruct");
    m.push(("cascade.reconstruct_ms", cascade_ms));
    if cascade_ms > 0.0 {
        m.push((
            "cascade.mcoeff_per_s",
            counts.mean("cascade.coefficients") * 1e-6 / (cascade_ms * 1e-3),
        ));
    }
}

/// The diagnostic entropy-only pass over the chunks a plan selects.
fn replay_entropy(
    t: &mut Tracer,
    counts: &mut Counts,
    compressed: &Compressed,
    plan: &calls::RangePlan,
) -> bool {
    let chunks = calls::plan_chunks(plan);
    let decoded = t.span("pipeline.entropy_decode", || {
        calls::entropy_decode(compressed, &chunks)
    });
    counts.add("pipeline.regions", chunks.len() as f64);
    match decoded {
        Ok((_, out)) => {
            counts.add("pipeline.decoded_bytes", out as f64);
            true
        }
        Err(_) => false,
    }
}

// ---------------------------------------------------------------------------
// Harness-side field recipes (the hash-noise fields of the existing benches;
// `seed` shifts the smooth phases and salts the noise hash)
// ---------------------------------------------------------------------------

fn hash_noise(h: u64) -> f64 {
    ((h.wrapping_mul(0x9e3779b97f4a7c15) >> 40) as f64 / (1 << 24) as f64) - 0.5
}

/// The 2-D field of `bench_roi`: smooth structure plus coordinate-hash noise
/// so the residual planes stay dense.
fn roi_field(n: usize, seed: u64) -> ArrayD<f64> {
    let salt = seed.wrapping_mul(0xd6e8feb86659fd93);
    let (p0, p1) = ((seed % 97) as f64 * 0.13, (seed / 97 % 89) as f64 * 0.17);
    ArrayD::from_fn(Shape::d2(n, n), |c| {
        let h = (c[0].wrapping_mul(73856093) ^ c[1].wrapping_mul(19349663)) as u64 ^ salt;
        let (x, y) = (c[0] as f64, c[1] as f64);
        (x * 0.11 + p0).sin() * 3.0
            + (y * 0.07 + p1).cos() * 2.0
            + (x * 0.013).sin() * (y * 0.019).cos()
            + hash_noise(h) * 0.01
    })
}

/// Container `i` of `bench_server`'s fleet, as an `n`-cube.
fn server_field(i: usize, n: usize, seed: u64) -> ArrayD<f64> {
    let salt = seed.wrapping_mul(0xd6e8feb86659fd93) ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
    let (a, b) = (0.07 + 0.03 * i as f64, 0.11 + 0.02 * i as f64);
    let phase = (seed % 101) as f64 * 0.11;
    ArrayD::from_fn(Shape::d3(n, n, n), |c| {
        let h = (c[0].wrapping_mul(73856093)
            ^ c[1].wrapping_mul(19349663)
            ^ c[2].wrapping_mul(83492791)) as u64
            ^ salt;
        (c[0] as f64 * a + phase).sin() * (2.0 + i as f64 * 0.3)
            + (c[1] as f64 * b).cos()
            + hash_noise(h) * 0.02
    })
}

// ---------------------------------------------------------------------------
// compress_v2 / compress_precinct
// ---------------------------------------------------------------------------

struct CompressWl {
    field: ArrayD<f64>,
    eb: f64,
    config: Config,
    datagen_s: f64,
    next: usize,
    stored: usize,
    counts: Counts,
}

impl CompressWl {
    fn v2(seed: u64, smoke: bool) -> Self {
        let shape = if smoke {
            Shape::d3(24, 26, 26)
        } else {
            Shape::d3(96, 104, 104)
        };
        let (field, datagen_s) = timed(|| calls::density_field(&shape, seed));
        let eb = 1e-7 * field.value_range();
        Self::with(field, eb, Config::default(), datagen_s)
    }

    fn precinct(seed: u64, smoke: bool) -> Self {
        let (n, extent) = if smoke { (128, 16) } else { (512, 32) };
        let (field, datagen_s) = timed(|| roi_field(n, seed));
        Self::with(field, 1e-7, calls::precinct_config(extent), datagen_s)
    }

    fn with(field: ArrayD<f64>, eb: f64, config: Config, datagen_s: f64) -> Self {
        Self {
            field,
            eb,
            config,
            datagen_s,
            next: 0,
            stored: 0,
            counts: Counts::default(),
        }
    }

    fn v3(&self) -> bool {
        self.config.precincts.is_some()
    }
}

impl Workload for CompressWl {
    fn op(&mut self, clock: &Clock) -> OpRecord {
        let index = self.next;
        self.next += 1;
        let (out, timing) =
            clock.time(|| calls::compress_to_bytes(&self.field, self.eb, &self.config));
        match out {
            Ok(bytes) => {
                self.stored = bytes.len();
                OpRecord {
                    index,
                    timing,
                    io: Io {
                        bytes: bytes.len() as f64,
                        gets: 1.0,
                        sim_ms: calls::sim_cost_ms(1, bytes.len() as u64),
                    },
                    digest: fnv_bytes(&bytes),
                    ok: true,
                }
            }
            Err(_) => failed_op(timing, index),
        }
    }

    fn stored_ratio(&self) -> f64 {
        self.stored as f64 / raw_bytes(&self.field)
    }

    fn oracle(&mut self) -> Oracle {
        let mut problems = Vec::new();
        let mut expected = 0u64;
        let mut ratio = 0.0;
        match calls::compress_to_bytes(&self.field, self.eb, &self.config) {
            Err(e) => problems.push(format!("reference compress failed: {e}")),
            Ok(bytes) => {
                expected = fnv_bytes(&bytes);
                match calls::parse_container(&bytes) {
                    Err(e) => problems.push(format!("from_bytes(to_bytes()) failed: {e}")),
                    Ok(parsed) => {
                        if parsed.to_bytes() != bytes {
                            problems.push("from_bytes(to_bytes()) does not round-trip".into());
                        }
                        match parsed.decompress() {
                            Err(e) => problems.push(format!("decompress failed: {e}")),
                            Ok(out) => {
                                ratio = linf(self.field.as_slice(), out.as_slice()) / self.eb;
                            }
                        }
                    }
                }
            }
        }
        Oracle {
            expected: Box::new(move |_| expected),
            linf_over_bound: ratio,
            problems,
        }
    }

    fn datagen_s(&self) -> f64 {
        self.datagen_s
    }

    fn replay(&mut self, i: usize, t: &mut Tracer) -> Option<u64> {
        t.set_op(i);
        self.counts.replays += 1;
        let q = t.span("interp.predict_quantize", || {
            calls::predict_quantize(&self.field, self.eb, &self.config)
        });
        let levels = if self.v3() {
            let permuted = t
                .span("precinct.permute", || {
                    calls::permute_levels(&self.field, &q, &self.config)
                })
                .ok()?;
            t.span("bitplane.encode_precincts", || {
                calls::encode_levels_precincts(&permuted, &self.config)
            })
        } else {
            t.span("bitplane.encode", || calls::encode_levels(&q, &self.config))
        };
        self.counts
            .add("bitplane.chunks_per_op", calls::chunk_count(&levels) as f64);
        let (compressed, bytes) = t.span("container.serialize", || {
            calls::serialize(&self.field, self.eb, &self.config, &q.anchors, levels)
        });
        self.counts.add("container.bytes", bytes.len() as f64);
        self.counts
            .add("container.index_bytes", compressed.base_bytes() as f64);

        // Diagnostic: the codec stages one at a time (not part of the sum).
        let mut open = None;
        let packed = calls::codec_stages(&q, &self.config, |stage| {
            if let Some(o) = open.take() {
                t.end(o);
            }
            let name = match stage {
                "negabinary" => "codecs.negabinary",
                "bitslice" => "codecs.bitslice",
                "entropy" => "codecs.entropy_encode",
                _ => return,
            };
            open = Some(t.begin(name));
        });
        self.counts.add("codecs.packed_bytes", packed as f64);
        Some(fnv_bytes(&bytes))
    }

    fn top_layers(&self) -> &'static [&'static str] {
        if self.v3() {
            &[
                "interp.predict_quantize",
                "precinct.permute",
                "bitplane.encode_precincts",
                "container.serialize",
            ]
        } else {
            &[
                "interp.predict_quantize",
                "bitplane.encode",
                "container.serialize",
            ]
        }
    }

    fn design(&self) -> (&'static [&'static str], &'static [&'static str]) {
        if self.v3() {
            (
                &["bitplane.encode_precincts", "precinct.permute"],
                &[
                    "interp.predict_quantize",
                    "container.map_open",
                    "planner.plan",
                    "backend.read",
                ],
            )
        } else {
            (&["interp.predict_quantize", "bitplane.encode"], STORE_SPANS)
        }
    }

    fn layer_metrics(&mut self, t: &Tracer, _op_p50_ms: f64) -> Metrics {
        let mut m = Metrics::new();
        let interp_ms = t.median_ms("interp.predict_quantize");
        m.push(("interp.predict_quantize_ms", interp_ms));
        m.push((
            "interp.mcoeff_per_s",
            self.field.len() as f64 * 1e-6 / (interp_ms * 1e-3),
        ));
        let chunks = self.counts.mean("bitplane.chunks_per_op");
        m.push(("bitplane.chunks_per_op", chunks));
        let encode_ms = if self.v3() {
            let ms = t.median_ms("bitplane.encode_precincts");
            m.push(("bitplane.encode_precincts_ms", ms));
            m.push(("precinct.permute_ms", t.median_ms("precinct.permute")));
            // The same field in the v2 layout, for the layout's size cost.
            if let Ok(v2) = calls::compress_to_bytes(&self.field, self.eb, &Config::default()) {
                m.push((
                    "container.v3_over_v2_bytes",
                    self.counts.mean("container.bytes") / v2.len() as f64,
                ));
            }
            ms
        } else {
            let ms = t.median_ms("bitplane.encode");
            m.push(("bitplane.encode_ms", ms));
            ms
        };
        m.push(("bitplane.us_per_chunk", encode_ms * 1e3 / chunks.max(1.0)));
        m.push(("codecs.negabinary_ms", t.median_ms("codecs.negabinary")));
        m.push(("codecs.bitslice_ms", t.median_ms("codecs.bitslice")));
        let entropy_ms = t.median_ms("codecs.entropy_encode");
        m.push(("codecs.entropy_encode_ms", entropy_ms));
        m.push((
            "codecs.entropy_encode_mb_s",
            self.counts.mean("codecs.packed_bytes") * 1e-6 / (entropy_ms * 1e-3),
        ));
        m.push(("container.serialize_ms", t.median_ms("container.serialize")));
        m.push(("container.bytes", self.counts.mean("container.bytes")));
        m.push((
            "container.index_bytes",
            self.counts.mean("container.index_bytes"),
        ));
        m
    }
}

// ---------------------------------------------------------------------------
// retrieve_full_local
// ---------------------------------------------------------------------------

/// A container file under the build directory, removed on drop.
struct TempContainer(PathBuf);

impl TempContainer {
    fn write(bytes: &[u8]) -> std::io::Result<Self> {
        // Next to the executable: inside the checkout's build directory,
        // never in a system temp dir.
        let dir = std::env::current_exe()?
            .parent()
            .map(PathBuf::from)
            .unwrap_or_default()
            .join("bench_e2e_tmp");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("container_{}.ipc", std::process::id()));
        std::fs::write(&path, bytes)?;
        Ok(Self(path))
    }
}

impl Drop for TempContainer {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The field, its v2 container and (for the replay) the parsed container,
/// shared by `retrieve_full_local` and `refine_ladder_remote`.
struct DensityContainer {
    field: ArrayD<f64>,
    eb: f64,
    bytes: Arc<[u8]>,
    compressed: Compressed,
    datagen_s: f64,
}

impl DensityContainer {
    fn new(seed: u64, smoke: bool) -> calls::Res<Self> {
        let base = CompressWl::v2(seed, smoke);
        let bytes = calls::compress_to_bytes(&base.field, base.eb, &base.config)?;
        let compressed = calls::parse_container(&bytes)?;
        Ok(Self {
            field: base.field,
            eb: base.eb,
            bytes: bytes.into(),
            compressed,
            datagen_s: base.datagen_s,
        })
    }

    fn stored_ratio(&self) -> f64 {
        self.bytes.len() as f64 / raw_bytes(&self.field)
    }
}

struct FullLocalWl {
    c: DensityContainer,
    file: TempContainer,
    next: usize,
    counts: Counts,
}

impl FullLocalWl {
    fn new(seed: u64, smoke: bool) -> calls::Res<Self> {
        let c = DensityContainer::new(seed, smoke)?;
        let file = TempContainer::write(&c.bytes)?;
        Ok(Self {
            c,
            file,
            next: 0,
            counts: Counts::default(),
        })
    }
}

impl Workload for FullLocalWl {
    fn op(&mut self, clock: &Clock) -> OpRecord {
        let index = self.next;
        self.next += 1;
        let mut counter = None;
        let (out, timing) =
            clock.time(|| calls::retrieve_full_from_file(&self.file.0, &mut counter));
        let (gets, bytes) = counter.map_or((0, 0), |c| c.counts());
        match out {
            Ok(out) => OpRecord {
                index,
                timing,
                io: Io {
                    bytes: bytes as f64,
                    gets: gets as f64,
                    sim_ms: calls::sim_cost_ms(gets, bytes),
                },
                digest: fnv_field(out.data.as_slice()),
                ok: out.error_bound <= self.c.eb * (1.0 + 1e-9),
            },
            Err(_) => failed_op(timing, index),
        }
    }

    fn stored_ratio(&self) -> f64 {
        self.c.stored_ratio()
    }

    fn oracle(&mut self) -> Oracle {
        let mut problems = Vec::new();
        let (mut expected, mut ratio) = (0u64, 0.0);
        match self.c.compressed.decompress() {
            Ok(out) => {
                expected = fnv_field(out.as_slice());
                ratio = linf(self.c.field.as_slice(), out.as_slice()) / self.c.eb;
            }
            Err(e) => problems.push(format!("Compressed::decompress failed: {e}")),
        }
        Oracle {
            expected: Box::new(move |_| expected),
            linf_over_bound: ratio,
            problems,
        }
    }

    fn datagen_s(&self) -> f64 {
        self.c.datagen_s
    }

    fn replay(&mut self, i: usize, t: &mut Tracer) -> Option<u64> {
        t.set_op(i);
        self.counts.replays += 1;
        let full = RetrievalRequest::Full;
        let options = calls::StoreOptions::default();
        let mut counter = None;
        let open = t.begin("container.map_open");
        let opened = calls::open_counted_file(&self.file.0, &mut counter);
        t.end(open);
        let (source, map) = opened.ok()?;
        let (gets, bytes) = counter.map_or((0, 0), |c| c.counts());
        record_open(&mut self.counts, gets, bytes);
        let session = calls::store_with_map(source, map, options).session();
        let plan = t.span("planner.plan", || session.plan_ranges(full)).ok()?;
        let bare = calls::open_file(&self.file.0).ok()?;
        let gap = options.coalesce_gap.unwrap_or(0);
        if !replay_storage(t, &mut self.counts, &plan.ranges(), gap, &bare) {
            return None;
        }
        let mut dec = calls::ReplayDecoder::new(&self.c.compressed);
        let touched = t
            .span("pipeline.decode", || {
                dec.decode_planes(&plan.load.planes_loaded)
            })
            .ok()?;
        let passes = t
            .span("cascade.reconstruct", || dec.cascade(&touched))
            .ok()?;
        self.counts.add("cascade.passes_per_op", passes as f64);
        self.counts
            .add("cascade.coefficients", self.c.field.len() as f64);
        let digest = fnv_field(dec.field());

        // Diagnostics (not part of the sum).
        replay_entropy(t, &mut self.counts, &self.c.compressed, &plan);
        let memory = calls::MemorySource::from_arc(Arc::clone(&self.c.bytes));
        t.span("progressive.retrieve", || {
            calls::memory_source_retrieve(&memory, full)
        })
        .ok()?;
        t.span("progressive.resident_retrieve", || {
            calls::resident_decoder(&self.c.compressed).retrieve(full)
        })
        .ok()?;
        Some(digest)
    }

    fn top_layers(&self) -> &'static [&'static str] {
        &[
            "container.map_open",
            "planner.plan",
            "coalesce.merge",
            "backend.read",
            "pipeline.decode",
            "cascade.reconstruct",
        ]
    }

    fn design(&self) -> (&'static [&'static str], &'static [&'static str]) {
        (
            &["pipeline.decode", "cascade.reconstruct"],
            &["planner.plan", "coalesce.merge", "backend.read"],
        )
    }

    fn layer_metrics(&mut self, t: &Tracer, op_p50_ms: f64) -> Metrics {
        let mut m = Metrics::new();
        m.push(("container.map_open_ms", t.median_ms("container.map_open")));
        read_layer_metrics(t, &self.counts, "container.map_open", &mut m);
        let progressive_ms = t.median_ms("progressive.retrieve");
        m.push(("progressive.retrieve_ms", progressive_ms));
        m.push((
            "progressive.resident_retrieve_ms",
            t.median_ms("progressive.resident_retrieve"),
        ));
        m.push(("session.stack_overhead_ms", op_p50_ms - progressive_ms));
        m
    }
}

// ---------------------------------------------------------------------------
// refine_ladder_remote
// ---------------------------------------------------------------------------

/// Rung bounds as a share of the value range, coarse to fine.
const LADDER: [f64; 4] = [1e-2, 1e-3, 1e-4, 1e-5];
const RUNG_SPANS: [&str; 4] = [
    "progressive.rung1",
    "progressive.rung2",
    "progressive.rung3",
    "progressive.rung4",
];

struct LadderWl {
    c: DensityContainer,
    rungs: Vec<f64>,
    next: usize,
    counts: Counts,
}

impl LadderWl {
    fn new(seed: u64, smoke: bool) -> calls::Res<Self> {
        let c = DensityContainer::new(seed, smoke)?;
        let range = c.field.value_range();
        Ok(Self {
            c,
            rungs: LADDER.iter().map(|r| r * range).collect(),
            next: 0,
            counts: Counts::default(),
        })
    }
}

impl Workload for LadderWl {
    fn op(&mut self, clock: &Clock) -> OpRecord {
        let index = self.next;
        self.next += 1;
        let sim = calls::sim_store(&self.c.bytes);
        let (out, timing) = clock.time(|| calls::retrieve_ladder(Arc::clone(&sim), &self.rungs));
        match out {
            Ok(outs) => OpRecord {
                index,
                timing,
                io: sim_io(sim.stats()),
                digest: fold_digests(outs.iter().map(|o| fnv_field(o.data.as_slice()))),
                ok: outs
                    .iter()
                    .zip(&self.rungs)
                    .all(|(o, &eb)| o.error_bound <= eb * (1.0 + 1e-9)),
            },
            Err(_) => failed_op(timing, index),
        }
    }

    fn stored_ratio(&self) -> f64 {
        self.c.stored_ratio()
    }

    fn oracle(&mut self) -> Oracle {
        // Independent path: the slice-backed decoder walking the same ladder
        // (refinement is bit-exact against the same ladder, not against a
        // from-scratch decode, which differs in the last ulp), plus, per
        // rung, the L-inf bound against the original field and agreement
        // with a from-scratch decode to within the rung's bound.
        let mut problems = Vec::new();
        let mut digests = Vec::new();
        let mut ratio = 0.0f64;
        let mut dec = calls::resident_decoder(&self.c.compressed);
        for &eb in &self.rungs {
            match dec.retrieve(RetrievalRequest::ErrorBound(eb)) {
                Err(e) => problems.push(format!("reference rung {eb:e} failed: {e}")),
                Ok(out) => {
                    digests.push(fnv_field(out.data.as_slice()));
                    ratio = ratio.max(linf(self.c.field.as_slice(), out.data.as_slice()) / eb);
                    match calls::resident_decoder(&self.c.compressed)
                        .retrieve(RetrievalRequest::ErrorBound(eb))
                    {
                        Ok(scratch) => {
                            let drift = linf(scratch.data.as_slice(), out.data.as_slice());
                            if drift > eb {
                                problems.push(format!(
                                    "rung {eb:e} drifts {drift:e} from a from-scratch decode"
                                ));
                            }
                        }
                        Err(e) => problems.push(format!("from-scratch rung {eb:e} failed: {e}")),
                    }
                }
            }
        }
        let expected = fold_digests(digests);
        Oracle {
            expected: Box::new(move |_| expected),
            linf_over_bound: ratio,
            problems,
        }
    }

    fn datagen_s(&self) -> f64 {
        self.c.datagen_s
    }

    fn replay(&mut self, i: usize, t: &mut Tracer) -> Option<u64> {
        t.set_op(i);
        self.counts.replays += 1;
        let options = calls::backend_options();
        let gap = options.coalesce_gap.unwrap_or(0);
        let sim = calls::sim_store(&self.c.bytes);
        let map = t
            .span("container.map_open", || calls::map_open(&*sim))
            .ok()?;
        let open = sim.stats();
        record_open(&mut self.counts, open.requests, open.bytes);
        let store = calls::store_with_map(Arc::clone(&sim) as _, map, options);
        let mut session = store.session();
        let bare = calls::sim_store(&self.c.bytes);
        let mut dec = calls::ReplayDecoder::new(&self.c.compressed);
        let mut digests = Vec::new();
        for (r, &eb) in self.rungs.iter().enumerate() {
            let request = RetrievalRequest::ErrorBound(eb);
            let plan = t
                .span("planner.plan", || session.plan_ranges(request))
                .ok()?;
            if !replay_storage(t, &mut self.counts, &plan.ranges(), gap, &*bare) {
                return None;
            }
            let touched = t
                .span("pipeline.decode", || {
                    dec.decode_planes(&plan.load.planes_loaded)
                })
                .ok()?;
            let passes = t
                .span("cascade.reconstruct", || dec.cascade(&touched))
                .ok()?;
            self.counts.add("cascade.passes_per_op", passes as f64);
            self.counts
                .add("cascade.coefficients", self.c.field.len() as f64);
            digests.push(fnv_field(dec.field()));

            // Diagnostics: the entropy share, then the real session's rung
            // (which also advances the session so the next plan is a delta).
            replay_entropy(t, &mut self.counts, &self.c.compressed, &plan);
            let out = t.span(RUNG_SPANS[r], || session.retrieve(request)).ok()?;
            self.counts
                .add(RUNG_BYTES[r], out.bytes_this_request as f64);
        }
        let finest = *self.rungs.last()?;
        t.span("progressive.scratch", || {
            calls::retrieve_bound(calls::sim_store(&self.c.bytes), finest)
        })
        .ok()?;
        Some(fold_digests(digests))
    }

    fn top_layers(&self) -> &'static [&'static str] {
        &[
            "container.map_open",
            "planner.plan",
            "coalesce.merge",
            "backend.read",
            "pipeline.decode",
            "cascade.reconstruct",
        ]
    }

    fn design(&self) -> (&'static [&'static str], &'static [&'static str]) {
        (
            &[
                "pipeline.decode",
                "cascade.reconstruct",
                "planner.plan",
                "coalesce.merge",
                "backend.read",
            ],
            ENCODE_SPANS,
        )
    }

    fn simulated_ms(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "container.map_open",
                self.counts.mean("backend.sim_ms.open"),
            ),
            ("backend.read", self.counts.mean("backend.sim_ms.payload")),
        ]
    }

    fn layer_metrics(&mut self, t: &Tracer, _op_p50_ms: f64) -> Metrics {
        let mut m = Metrics::new();
        m.push(("container.map_open_ms", t.median_ms("container.map_open")));
        read_layer_metrics(t, &self.counts, "container.map_open", &mut m);
        let mut rung_sum = 0.0;
        for (span, name) in RUNG_SPANS.iter().zip(RUNG_MS) {
            let ms = t.median_ms(span);
            rung_sum += ms;
            m.push((name, ms));
        }
        let scratch_ms = t.median_ms("progressive.scratch");
        if scratch_ms > 0.0 {
            m.push(("progressive.refine_over_scratch", rung_sum / scratch_ms));
        }
        m
    }
}

const RUNG_MS: [&str; 4] = [
    "progressive.rung1_ms",
    "progressive.rung2_ms",
    "progressive.rung3_ms",
    "progressive.rung4_ms",
];
const RUNG_BYTES: [&str; 4] = [
    "progressive.rung1_bytes",
    "progressive.rung2_bytes",
    "progressive.rung3_bytes",
    "progressive.rung4_bytes",
];

// ---------------------------------------------------------------------------
// roi_remote
// ---------------------------------------------------------------------------

const ROI_EB: f64 = 1e-3;

struct RoiWl {
    field: ArrayD<f64>,
    n: usize,
    bytes: Arc<[u8]>,
    compressed: Compressed,
    /// The 64 disjoint tiles, in seeded order.
    tiles: Vec<RoiBox>,
    datagen_s: f64,
    next: usize,
    counts: Counts,
}

impl RoiWl {
    fn new(seed: u64, smoke: bool) -> calls::Res<Self> {
        let (n, extent) = if smoke { (256, 16) } else { (1024, 32) };
        let (field, datagen_s) = timed(|| roi_field(n, seed));
        let bytes = calls::compress_to_bytes(&field, 1e-7, &calls::precinct_config(extent))?;
        let compressed = calls::parse_container(&bytes)?;
        let side = n / 8;
        let mut tiles: Vec<RoiBox> = (0..64)
            .map(|k| {
                let (x, y) = (k / 8 * side, k % 8 * side);
                RoiBox::new(&[x, y], &[x + side, y + side])
            })
            .collect();
        // Fisher–Yates under the workload seed.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for i in (1..tiles.len()).rev() {
            tiles.swap(i, rng.gen_range(0..i + 1));
        }
        Ok(Self {
            field,
            n,
            bytes: bytes.into(),
            compressed,
            tiles,
            datagen_s,
            next: 0,
            counts: Counts::default(),
        })
    }

    fn tile(&self, index: usize) -> RoiBox {
        self.tiles[index % self.tiles.len()]
    }
}

impl Workload for RoiWl {
    fn op(&mut self, clock: &Clock) -> OpRecord {
        let index = self.next;
        self.next += 1;
        let tile = self.tile(index);
        let sim = calls::sim_store(&self.bytes);
        let (out, timing) = clock.time(|| calls::retrieve_roi(Arc::clone(&sim), tile, ROI_EB));
        match out {
            Ok(out) => OpRecord {
                index,
                timing,
                io: sim_io(sim.stats()),
                digest: fnv_field(out.data.as_slice()),
                ok: out.error_bound <= ROI_EB * (1.0 + 1e-9),
            },
            Err(_) => failed_op(timing, index),
        }
    }

    fn cycle(&self) -> usize {
        self.tiles.len()
    }

    fn stored_ratio(&self) -> f64 {
        self.bytes.len() as f64 / raw_bytes(&self.field)
    }

    fn oracle(&mut self) -> Oracle {
        // Full-domain decode at the same bound, then crop every tile.
        let mut problems = Vec::new();
        let mut ratio = 0.0;
        let mut digests = vec![0u64; self.tiles.len()];
        match calls::resident_decoder(&self.compressed)
            .retrieve(RetrievalRequest::ErrorBound(ROI_EB))
        {
            Err(e) => problems.push(format!("full-domain reference decode failed: {e}")),
            Ok(full) => {
                ratio = linf(self.field.as_slice(), full.data.as_slice()) / ROI_EB;
                for (d, tile) in digests.iter_mut().zip(&self.tiles) {
                    let crop = crop_2d(
                        full.data.as_slice(),
                        self.n,
                        [tile.lo[0], tile.lo[1]],
                        [tile.hi[0], tile.hi[1]],
                    );
                    *d = fnv_field(&crop);
                }
            }
        }
        Oracle {
            expected: Box::new(move |i| digests[i % digests.len()]),
            linf_over_bound: ratio,
            problems,
        }
    }

    fn datagen_s(&self) -> f64 {
        self.datagen_s
    }

    fn replay(&mut self, i: usize, t: &mut Tracer) -> Option<u64> {
        t.set_op(i);
        self.counts.replays += 1;
        let tile = self.tile(i);
        let options = calls::backend_options();
        let gap = options.coalesce_gap.unwrap_or(0);
        let sim = calls::sim_store(&self.bytes);
        let map = t
            .span("container.map_open", || calls::map_open(&*sim))
            .ok()?;
        let open = sim.stats();
        record_open(&mut self.counts, open.requests, open.bytes);
        let selected = t
            .span("precinct.mask", || {
                calls::roi_mask_selected(&map.header, &tile)
            })
            .ok()?;
        self.counts.add("precinct.selected", selected as f64);
        let session = calls::store_with_map(Arc::clone(&sim) as _, map, options).session();
        let request = RetrievalRequest::Roi {
            bounds: tile,
            error_bound: ROI_EB,
        };
        let plan = t
            .span("planner.plan", || session.plan_ranges(request))
            .ok()?;
        let bare = calls::sim_store(&self.bytes);
        if !replay_storage(t, &mut self.counts, &plan.ranges(), gap, &*bare) {
            return None;
        }
        // The region decode (precinct entropy + scatter + windowed cascade)
        // has no public stage functions; the resident decoder is the layer.
        let out = t
            .span("progressive.resident_retrieve", || {
                calls::resident_decoder(&self.compressed)
                    .retrieve_roi(tile, RetrievalRequest::ErrorBound(ROI_EB))
            })
            .ok()?;
        replay_entropy(t, &mut self.counts, &self.compressed, &plan);
        Some(fnv_field(out.data.as_slice()))
    }

    fn top_layers(&self) -> &'static [&'static str] {
        &[
            "container.map_open",
            "precinct.mask",
            "planner.plan",
            "coalesce.merge",
            "backend.read",
            "progressive.resident_retrieve",
        ]
    }

    fn design(&self) -> (&'static [&'static str], &'static [&'static str]) {
        (
            &[
                "container.map_open",
                "precinct.mask",
                "planner.plan",
                "coalesce.merge",
                "backend.read",
            ],
            &["progressive.resident_retrieve"],
        )
    }

    fn simulated_ms(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "container.map_open",
                self.counts.mean("backend.sim_ms.open"),
            ),
            ("backend.read", self.counts.mean("backend.sim_ms.payload")),
        ]
    }

    fn layer_metrics(&mut self, t: &Tracer, _op_p50_ms: f64) -> Metrics {
        let mut m = Metrics::new();
        m.push(("container.map_open_ms", t.median_ms("container.map_open")));
        read_layer_metrics(t, &self.counts, "container.map_open", &mut m);
        m.push(("precinct.mask_ms", t.median_ms("precinct.mask")));
        m.push((
            "progressive.resident_retrieve_ms",
            t.median_ms("progressive.resident_retrieve"),
        ));
        m.push(("container.bytes", self.bytes.len() as f64));
        m.push(("container.index_bytes", self.compressed.base_bytes() as f64));
        // The yardsticks ROADMAP item 2 sets for a region read: its share of
        // the bytes a full-domain plan at the same bound selects, and one
        // cold full-domain retrieve through the same stack.
        let roi_bytes =
            self.counts.mean("backend.bytes.open") + self.counts.mean("backend.bytes.payload");
        let roi_sim_ms =
            self.counts.mean("backend.sim_ms.open") + self.counts.mean("backend.sim_ms.payload");
        let source = Arc::new(calls::MemorySource::from_arc(Arc::clone(&self.bytes)));
        let full_plan = calls::map_open(&*source).and_then(|map| {
            calls::store_with_map(source, map, calls::backend_options())
                .session()
                .plan_ranges(RetrievalRequest::ErrorBound(ROI_EB))
        });
        if let Ok(plan) = full_plan {
            let ideal = plan.payload_bytes() as f64 / self.tiles.len() as f64;
            m.push(("roi.bytes_over_ideal", roi_bytes / ideal));
        }
        let sim = calls::sim_store(&self.bytes);
        if calls::retrieve_bound(Arc::clone(&sim), ROI_EB).is_ok() {
            m.push((
                "roi.sim_ms_over_full_domain",
                roi_sim_ms / (sim.stats().simulated_secs * 1e3),
            ));
        }
        if let Ok(v2) = calls::compress_to_bytes(&self.field, 1e-7, &Config::default()) {
            m.push((
                "container.v3_over_v2_bytes",
                self.bytes.len() as f64 / v2.len() as f64,
            ));
        }
        m
    }
}

// ---------------------------------------------------------------------------
// archive_window_remote
// ---------------------------------------------------------------------------

struct ArchiveWl {
    fields: Vec<ArrayD<f64>>,
    config: calls::ArchiveConfig,
    bytes: Arc<[u8]>,
    request: calls::ArchiveRequest,
    datagen_s: f64,
    build_s: f64,
    next: usize,
    counts: Counts,
    step_gaps_ms: Vec<f64>,
}

impl ArchiveWl {
    fn new(seed: u64, smoke: bool) -> calls::Res<Self> {
        let (shape, steps, window) = if smoke {
            (Shape::d3(16, 20, 20), 12, 4..12)
        } else {
            (Shape::d3(64, 64, 64), 12, 4..12)
        };
        let (fields, datagen_s) = timed(|| calls::density_sequence(&shape, steps, seed));
        let mut config = calls::ArchiveConfig::new(1e-5, 1e-3);
        config.keyframe_interval = 8;
        let (bytes, build_s) = timed(|| calls::build_archive(&fields, &config));
        Ok(Self {
            fields,
            config,
            bytes: bytes?.into(),
            request: calls::ArchiveRequest::steps(0, window, RetrievalRequest::ErrorBound(1e-3)),
            datagen_s,
            build_s,
            next: 0,
            counts: Counts::default(),
            step_gaps_ms: Vec::new(),
        })
    }

    fn window(&self) -> std::ops::Range<usize> {
        self.request.start..self.request.end
    }

    fn digest(steps: &[calls::StepRetrieval]) -> u64 {
        fold_digests(steps.iter().map(|s| fnv_field(s.data.as_slice())))
    }
}

impl Workload for ArchiveWl {
    fn op(&mut self, clock: &Clock) -> OpRecord {
        let index = self.next;
        self.next += 1;
        let sim = calls::sim_store(&self.bytes);
        let (out, timing) = clock.time(|| calls::retrieve_window(Arc::clone(&sim), &self.request));
        match out {
            Ok(steps) => OpRecord {
                index,
                timing,
                io: sim_io(sim.stats()),
                digest: Self::digest(&steps),
                ok: steps.len() == self.window().len()
                    && steps.iter().all(|s| s.error_bound <= 1e-3 * (1.0 + 1e-9)),
            },
            Err(_) => failed_op(timing, index),
        }
    }

    fn stored_ratio(&self) -> f64 {
        self.bytes.len() as f64 / self.fields.iter().map(raw_bytes).sum::<f64>()
    }

    fn oracle(&mut self) -> Oracle {
        let mut problems = Vec::new();
        let (mut expected, mut ratio) = (0u64, 0.0f64);
        match calls::composition_reference(&self.fields, &self.config, self.request.fidelity) {
            Err(e) => problems.push(format!("composition_reference failed: {e}")),
            Ok(reference) => {
                expected = fold_digests(self.window().map(|s| fnv_field(reference[s].as_slice())));
                for s in self.window() {
                    let err = linf(self.fields[s].as_slice(), reference[s].as_slice());
                    ratio = ratio.max(err / 1e-3);
                }
            }
        }
        Oracle {
            expected: Box::new(move |_| expected),
            linf_over_bound: ratio,
            problems,
        }
    }

    fn datagen_s(&self) -> f64 {
        self.datagen_s
    }

    fn replay(&mut self, i: usize, t: &mut Tracer) -> Option<u64> {
        t.set_op(i);
        self.counts.replays += 1;
        let gap = calls::backend_options().coalesce_gap.unwrap_or(0);
        let sim = calls::sim_store(&self.bytes);
        let map = t
            .span("archive.map_open", || calls::archive_map_open(&*sim))
            .ok()?;
        let open = sim.stats();
        record_open(&mut self.counts, open.requests, open.bytes);
        let mut session = calls::archive_store_with_map(Arc::clone(&sim) as _, map).session();
        let plan = t
            .span("archive.plan", || session.plan_ranges(&self.request))
            .ok()?;
        let (chain_only, output) = calls::schedule_shape(&session, &self.request).ok()?;
        self.counts.add("archive.chain_steps", chain_only as f64);
        self.counts.add("archive.output_steps", output as f64);
        // The reader fetches step by step, so ranges coalesce within a step.
        let bare = calls::sim_store(&self.bytes);
        for step in &plan.steps {
            if !replay_storage(t, &mut self.counts, &step.ranges, gap, &*bare) {
                return None;
            }
        }
        // The chain decode + composition has no public stage functions; the
        // resident reader is the layer.
        let steps = t
            .span("progressive.resident_retrieve", || {
                calls::resident_archive_retrieve(&self.bytes, &self.request)
            })
            .ok()?;
        // Diagnostic: the real stack once more, for the gaps between
        // StepReconstructed events and the traffic the reader really causes
        // (it fetches level by level, so it coalesces less than a step).
        let before = sim.stats();
        let mut last = Instant::now();
        let gaps = &mut self.step_gaps_ms;
        calls::stream_steps(&mut session, &self.request, || {
            gaps.push(last.elapsed().as_secs_f64() * 1e3);
            last = Instant::now();
        })
        .ok()?;
        let after = sim.stats();
        self.counts.add(
            "archive.real_gets",
            (after.requests - before.requests + open.requests) as f64,
        );
        self.counts.add(
            "archive.real_bytes",
            (after.bytes - before.bytes + open.bytes) as f64,
        );
        Some(Self::digest(&steps))
    }

    fn top_layers(&self) -> &'static [&'static str] {
        &[
            "archive.map_open",
            "archive.plan",
            "coalesce.merge",
            "backend.read",
            "progressive.resident_retrieve",
        ]
    }

    fn design(&self) -> (&'static [&'static str], &'static [&'static str]) {
        (
            &[
                "archive.map_open",
                "archive.plan",
                "progressive.resident_retrieve",
                "backend.read",
            ],
            &["precinct.mask", "service.run"],
        )
    }

    fn simulated_ms(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("archive.map_open", self.counts.mean("backend.sim_ms.open")),
            ("backend.read", self.counts.mean("backend.sim_ms.payload")),
        ]
    }

    fn layer_metrics(&mut self, t: &Tracer, _op_p50_ms: f64) -> Metrics {
        let mut m = Metrics::new();
        m.push(("archive.map_open_ms", t.median_ms("archive.map_open")));
        m.push(("archive.plan_ms", t.median_ms("archive.plan")));
        read_layer_metrics(t, &self.counts, "archive.map_open", &mut m);
        m.push((
            "progressive.resident_retrieve_ms",
            t.median_ms("progressive.resident_retrieve"),
        ));
        m.push((
            "archive.build_s_per_step",
            self.build_s / self.fields.len() as f64,
        ));
        m.push(("archive.step_p50_ms", median(&self.step_gaps_ms)));
        m.push((
            "archive.gets_per_output_step",
            self.counts.mean("archive.real_gets")
                / self.counts.mean("archive.output_steps").max(1.0),
        ));
        // The same window from independently compressed steps.
        let window = &self.fields[self.window()];
        let independent = calls::IndependentSteps::new(self.config.finest_bound, self.config.codec)
            .compress_sequence(window)
            .and_then(|a| a.retrieve_range(0..window.len(), self.request.fidelity));
        if let Ok((_, bytes)) = independent {
            m.push((
                "archive.bytes_over_independent",
                self.counts.mean("archive.real_bytes") / bytes as f64,
            ));
        }
        m
    }
}

// ---------------------------------------------------------------------------
// service_mix
// ---------------------------------------------------------------------------

const CONTAINERS: usize = 8;
const TENANTS: usize = 16;
const IN_FLIGHT: usize = 2;
const ZIPF_S: f64 = 1.1;
const WARM_SESSIONS: usize = 128;

/// The three session kinds of the mix, as error bounds (`None` = `Full`).
const MIXES: [&[Option<f64>]; 3] = [
    &[Some(1e-2), Some(1e-3)],
    &[Some(1e-2), Some(1e-4)],
    &[None],
];

fn mix_requests(kind: usize) -> Vec<RetrievalRequest> {
    MIXES[kind]
        .iter()
        .map(|eb| eb.map_or(RetrievalRequest::Full, RetrievalRequest::ErrorBound))
        .collect()
}

struct ServiceWl {
    fields: Vec<ArrayD<f64>>,
    containers: Vec<Arc<[u8]>>,
    svc: calls::Service,
    /// Pre-sampled `(container, kind)` per op; tenant is `index % TENANTS`.
    schedule: Vec<(u8, u8)>,
    datagen_s: f64,
    next: usize,
    submit_block_ms: Vec<f64>,
    events: Vec<f64>,
    refused: usize,
    counts: Counts,
    cache_before_replay: Option<calls::CacheStats>,
}

impl ServiceWl {
    fn new(seed: u64, smoke: bool) -> calls::Res<Self> {
        let n = if smoke { 20 } else { 64 };
        let (fields, datagen_s) = timed(|| {
            (0..CONTAINERS)
                .map(|i| server_field(i, n, seed))
                .collect::<Vec<_>>()
        });
        let containers = fields
            .iter()
            .map(|f| calls::compress_to_bytes(f, 1e-7, &Config::default()).map(Arc::from))
            .collect::<calls::Res<Vec<Arc<[u8]>>>>()?;
        let svc = calls::Service::new(&containers, TENANTS)?;

        // Additive-recurrence (Kronecker) sequences instead of independent
        // draws: every window of the schedule carries the Zipf and 70/25/5
        // proportions almost exactly, so miss counts do not ride on
        // sampling luck. The seed picks the two offsets and which container
        // holds which popularity rank.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut by_rank: Vec<usize> = (0..CONTAINERS).collect();
        for i in (1..CONTAINERS).rev() {
            by_rank.swap(i, rng.gen_range(0..i + 1));
        }
        let (u0, v0): (f64, f64) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let weights: Vec<f64> = (0..CONTAINERS)
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let schedule = (0..1usize << 16)
            .map(|i| {
                let mut u = (u0 + i as f64 * 0.754_877_666_246_692_7).fract() * total;
                let rank = weights
                    .iter()
                    .position(|w| {
                        u -= w;
                        u < 0.0
                    })
                    .unwrap_or(CONTAINERS - 1);
                let kind = match (v0 + i as f64 * 0.569_840_290_998_053_2).fract() {
                    v if v < 0.70 => 0,
                    v if v < 0.95 => 1,
                    _ => 2,
                };
                (by_rank[rank] as u8, kind)
            })
            .collect();
        let mut wl = Self {
            fields,
            containers,
            svc,
            schedule,
            datagen_s,
            next: 0,
            submit_block_ms: Vec::new(),
            events: Vec::new(),
            refused: 0,
            counts: Counts::default(),
            cache_before_replay: None,
        };
        // Untimed sessions warm the caches; part of set-up.
        let warm = if smoke { 16 } else { WARM_SESSIONS };
        wl.run(Budget::exactly(warm), &Clock::start());
        wl.submit_block_ms.clear();
        wl.events.clear();
        Ok(wl)
    }

    fn plan_of(&self, index: usize) -> (usize, usize, usize) {
        let (container, kind) = self.schedule[index % self.schedule.len()];
        (index % TENANTS, container as usize, kind as usize)
    }
}

impl Workload for ServiceWl {
    fn op(&mut self, clock: &Clock) -> OpRecord {
        self.run(Budget::exactly(1), clock)[0]
    }

    fn concurrent(&self) -> bool {
        true
    }

    /// Closed loop with [`IN_FLIGHT`] workloads in flight from this one
    /// generator thread. Each in-flight workload's events are drained by a
    /// parked helper thread so its completion is stamped when it happens,
    /// not when the generator gets round to it.
    fn run(&mut self, budget: Budget, clock: &Clock) -> Vec<OpRecord> {
        let before = self.svc.backend_stats();
        let started = Instant::now();
        let mut records: Vec<OpRecord> = Vec::new();
        type Job = (usize, u64, mpsc::Receiver<calls::ServiceEvent>);
        std::thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel::<(usize, usize, Timing, calls::Drained)>();
            let mut slots: Vec<mpsc::Sender<Job>> = Vec::new();
            for slot in 0..IN_FLIGHT {
                let (tx, rx) = mpsc::channel::<Job>();
                slots.push(tx);
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    for (index, start_ns, events) in rx {
                        let drained = calls::drain(&events);
                        let timing = Timing {
                            start_ns,
                            end_ns: clock.now_ns(),
                        };
                        if done_tx.send((slot, index, timing, drained)).is_err() {
                            break;
                        }
                    }
                });
            }
            let mut free: Vec<usize> = (0..IN_FLIGHT).collect();
            let mut submitted = 0usize;
            loop {
                while budget.open(submitted, started) {
                    let Some(slot) = free.pop() else { break };
                    let index = self.next;
                    self.next += 1;
                    submitted += 1;
                    let (tenant, container, kind) = self.plan_of(index);
                    let start_ns = clock.now_ns();
                    let rx = self.svc.submit(tenant, container, &mix_requests(kind));
                    let returned_ns = clock.now_ns();
                    self.submit_block_ms
                        .push((returned_ns - start_ns) as f64 * 1e-6);
                    match rx {
                        Ok(rx) => slots[slot]
                            .send((index, start_ns, rx))
                            .expect("drainer outlives the generator"),
                        Err(_) => {
                            self.refused += 1;
                            free.push(slot);
                            records.push(failed_op(
                                Timing {
                                    start_ns,
                                    end_ns: returned_ns,
                                },
                                index,
                            ));
                        }
                    }
                }
                if records.len() == submitted {
                    break;
                }
                let (slot, index, timing, drained) =
                    done_rx.recv().expect("a workload is in flight");
                free.push(slot);
                self.events.push(drained.events as f64);
                self.refused += drained.error.is_some() as usize;
                records.push(OpRecord {
                    index,
                    timing,
                    io: Io::default(),
                    digest: drained.checksum.unwrap_or(0),
                    ok: drained.error.is_none(),
                });
            }
            drop(slots); // ends the drainers' loops; the scope joins them
        });
        // Backend traffic cannot be attributed to one op under concurrency:
        // every op carries the phase mean.
        let after = self.svc.backend_stats();
        let n = records.len().max(1) as f64;
        let io = Io {
            bytes: (after.bytes - before.bytes) as f64 / n,
            gets: (after.requests - before.requests) as f64 / n,
            sim_ms: (after.simulated_secs - before.simulated_secs) * 1e3 / n,
        };
        for r in &mut records {
            r.io = io;
        }
        records
    }

    fn stored_ratio(&self) -> f64 {
        let stored: usize = self.containers.iter().map(|b| b.len()).sum();
        stored as f64 / self.fields.iter().map(raw_bytes).sum::<f64>()
    }

    fn oracle(&mut self) -> Oracle {
        // Every (container, mix) through a plain single-client session.
        let mut problems = Vec::new();
        let mut ratio = 0.0f64;
        let mut digests = [[0u64; 3]; CONTAINERS];
        for (c, bytes) in self.containers.iter().enumerate() {
            for (kind, mix) in MIXES.iter().enumerate() {
                let last = calls::plain_session(bytes).and_then(|mut session| {
                    let mut last = None;
                    for request in mix_requests(kind) {
                        last = Some(session.retrieve(request)?);
                    }
                    Ok(last.expect("mixes are non-empty"))
                });
                match last {
                    Err(e) => problems.push(format!("reference session {c}/{kind} failed: {e}")),
                    Ok(out) => {
                        digests[c][kind] = fnv_field_bytes(out.data.as_slice());
                        let bound = mix.last().copied().flatten().unwrap_or(1e-7);
                        let err = linf(self.fields[c].as_slice(), out.data.as_slice());
                        ratio = ratio.max(err / bound);
                    }
                }
            }
        }
        let schedule = self.schedule.clone();
        Oracle {
            expected: Box::new(move |i| {
                let (container, kind) = schedule[i % schedule.len()];
                digests[container as usize][kind as usize]
            }),
            linf_over_bound: ratio,
            problems,
        }
    }

    fn datagen_s(&self) -> f64 {
        self.datagen_s
    }

    fn replay(&mut self, i: usize, t: &mut Tracer) -> Option<u64> {
        t.set_op(i);
        self.counts.replays += 1;
        if self.cache_before_replay.is_none() {
            self.cache_before_replay = Some(self.svc.cache_stats());
        }
        let (tenant, container, kind) = self.plan_of(i);
        let mix = mix_requests(kind);
        // The real op, one at a time: admission, then everything inside the
        // service until the terminal event.
        let rx = t.span("service.submit_block", || {
            self.svc.submit(tenant, container, &mix)
        });
        let rx = rx.ok()?;
        let drained = t.span("service.wait", || calls::drain(&rx));
        self.counts
            .add("service.events_per_op", drained.events as f64);
        // The layer under the workers: the same mix through a tagged session
        // on the same warm store, from this thread.
        let run = t.begin("service.run");
        let mut session = self.svc.tagged_session(tenant, container);
        let mut last = None;
        for &request in &mix {
            let plan = t
                .span("planner.plan", || session.plan_ranges(request))
                .ok()?;
            self.counts
                .add("planner.chunks", plan.request_count() as f64);
            self.counts
                .add("planner.bytes", plan.payload_bytes() as f64);
            last = Some(
                t.span("session.retrieve", || session.retrieve(request))
                    .ok()?,
            );
        }
        t.end(run);
        let out = last?;
        let digest = fnv_field_bytes(out.data.as_slice());
        (drained.checksum == Some(digest)).then_some(digest)
    }

    fn top_layers(&self) -> &'static [&'static str] {
        &["service.submit_block", "service.wait"]
    }

    fn design(&self) -> (&'static [&'static str], &'static [&'static str]) {
        (
            &["service.wait", "service.submit_block"],
            &["backend.read", "coalesce.merge"],
        )
    }

    fn layer_metrics(&mut self, t: &Tracer, op_p50_ms: f64) -> Metrics {
        let mut m = Metrics::new();
        let snapshot = self.svc.service.metrics_snapshot();
        let queue_p50_ms = snapshot.queue_wait_ns.percentile(0.5) as f64 * 1e-6;
        m.push(("service.queue_wait_p50_ms", queue_p50_ms));
        m.push(("service.submit_block_ms", median(&self.submit_block_ms)));
        m.push(("service.run_p50_ms", t.median_ms("service.run")));
        m.push(("service.events_per_op", median(&self.events)));
        m.push(("service.refused", self.refused as f64));
        // Little's law over the closed loop: IN_FLIGHT workloads are either
        // queued or on a worker; the share of the op not spent queued, over
        // the workers available to run it.
        let busy =
            IN_FLIGHT as f64 * (1.0 - snapshot.queue_wait_ns.mean() * 1e-6 / op_p50_ms.max(1e-9));
        m.push((
            "service.worker_busy_share",
            (busy / calls::SERVICE_WORKERS as f64).clamp(0.0, 1.0),
        ));
        m.push(("planner.plan_ms", t.median_ms("planner.plan")));
        m.push(("planner.chunks", self.counts.mean("planner.chunks")));
        m.push(("planner.bytes", self.counts.mean("planner.bytes")));

        let now = self.svc.cache_stats();
        let before = self.cache_before_replay.unwrap_or(now);
        let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
        m.push((
            "cache.hits",
            hits as f64 / self.counts.replays.max(1) as f64,
        ));
        m.push((
            "cache.misses",
            misses as f64 / self.counts.replays.max(1) as f64,
        ));
        m.push((
            "cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        ));
        m.push(("cache.resident_bytes", now.resident_bytes as f64));
        m.push(("cache.entries", now.entries as f64));
        // A fully resident plan re-read through the composed stack: read the
        // coarse rung twice on the most popular container, time the second.
        let store = &self.svc.stores[0];
        let session = store.session();
        if let Ok(plan) = session.plan_ranges(RetrievalRequest::ErrorBound(1e-2)) {
            let ranges = plan.ranges();
            if calls::warm_read(store, &ranges).is_ok() {
                let (_, s) = timed(|| calls::warm_read(store, &ranges));
                m.push(("cache.warm_read_ms", s * 1e3));
            }
        }
        let stats = self.svc.backend_stats();
        m.push((
            "backend.gets.payload",
            stats.requests as f64 / self.next.max(1) as f64,
        ));
        m.push((
            "backend.bytes.payload",
            stats.bytes as f64 / self.next.max(1) as f64,
        ));
        m.push((
            "backend.sim_ms.payload",
            stats.simulated_secs * 1e3 / self.next.max(1) as f64,
        ));
        m
    }
}
