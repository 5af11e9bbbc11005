//! Request shapes: how many backend GETs, and how many bytes, each kind of
//! request costs on the committed golden fixtures, under the three stacks a
//! store is opened with. Deterministic counts over an accounting-only
//! simulator (`IPC_STORE_FORCE_FILE=1` serves the same bytes by positioned
//! reads), metadata open excluded — `open_shapes` pins the open itself.
//!
//! The table pins the request-wide fetch: a retrieval lowers its plan to
//! chunk ranges, cuts them into byte-budgeted fetch groups
//! (`ipcomp::planner::fetch_groups`) and hands the stack one `read_ranges`
//! per group, so ranges adjacent across a level — or archive step —
//! boundary reach the coalescer together. Every row also checks the
//! grouping rule's invariant against the request's own plan: `planned ≤
//! fetched ≤ planned + planned / 16` wherever a level's own ranges are
//! contiguous, and with coalescing off exactly the plan — its distinct runs
//! and its bytes — because grouping never adds a request.
//!
//! Under the default stack the same requests cost, one `read_ranges` per
//! level (the schedule before this table existed): `Full` 5 GETs on every
//! container (now 1), the ladder 7 (now 4, +1.3 % / +1.2 % / +2.5 % bytes on
//! v2 / v2-chunked / v3), the region 5 for 8 255 B (now 2 for 8 366 B), the
//! window 20 for 17 300 B (now 4 for 18 368 B, +6.2 %); the per-chunk column
//! was 69 / 61, 153 / 145, 1 862 / 1 647, 73 and 201 — equal, except that
//! the precinct container's repeated empty chunks are now fetched once. Those
//! v3 figures are the shared-grid v3 fixture's; since precincts are sized per
//! level, the v3 rows below read fewer bytes and chunks.

use std::sync::Arc;
use std::time::Duration;

use ipc_store::testutil::test_source;
use ipc_store::{
    ArchiveRequest, ArchiveStore, ByteRange, ChunkSource, ContainerStore, RetrievalRequest,
    RetrievalSession, RoiBox, SimProfile, SimulatedObjectStore, StoreOptions,
};
use ipcomp::{ArchiveBuilder, ArchiveConfig, ArchiveMap, ContainerMap, MemorySource};

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// The three stacks of the table, in column order: the local default
/// (4 KiB gap), the object-store model's (1 MB gap; a container under 1 MB
/// collapses to one whole read at open, so its requests cost nothing
/// afterwards), and no coalescing (every chunk run is a GET).
fn stacks() -> [StoreOptions; 3] {
    [
        StoreOptions::default(),
        StoreOptions::for_backend(Duration::from_millis(5), 200e6),
        StoreOptions {
            coalesce_gap: None,
            ..StoreOptions::default()
        },
    ]
}

type Sim = SimulatedObjectStore<Arc<dyn ChunkSource>>;

fn sim_over(name: &str) -> Arc<Sim> {
    Arc::new(SimulatedObjectStore::new(
        test_source(fixture(name)),
        SimProfile::free(),
    ))
}

/// One measured request: backend GETs and bytes after the open, and the
/// bytes and distinct runs its plan listed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    gets: u64,
    bytes: u64,
    planned_bytes: u64,
    planned_runs: u64,
}

/// Run `requests` in one session over `name` under `options`; a `Some` box
/// scopes every request to that region.
fn container_shape(
    name: &str,
    options: StoreOptions,
    requests: &[RetrievalRequest],
    region: Option<RoiBox>,
) -> Shape {
    let sim = sim_over(name);
    let store = ContainerStore::open(sim.clone() as Arc<dyn ChunkSource>, options).unwrap();
    sim.reset_stats();
    let mut session: RetrievalSession = store.session();
    let (mut planned_bytes, mut planned_runs) = (0, 0);
    for &request in requests {
        let priced = match (region, request) {
            (Some(bounds), RetrievalRequest::ErrorBound(error_bound)) => RetrievalRequest::Roi {
                bounds,
                error_bound,
            },
            _ => request,
        };
        let plan = session.plan_ranges(priced).unwrap();
        planned_bytes += plan.payload_bytes() as u64;
        planned_runs += distinct(plan.ranges());
        let before = session.bytes_loaded();
        let out = match region {
            Some(bounds) => session.retrieve_roi(bounds, request).unwrap(),
            None => session.retrieve(request).unwrap(),
        };
        // Logical accounting stays on planned bytes, whatever was fetched.
        let base = if before == 0 || region.is_some() {
            store.map().base_bytes()
        } else {
            0
        };
        assert_eq!(out.bytes_this_request, plan.payload_bytes() + base);
    }
    let stats = sim.stats();
    Shape {
        gets: stats.requests,
        bytes: stats.bytes,
        planned_bytes,
        planned_runs,
    }
}

fn window_shape(name: &str, options: StoreOptions, request: &ArchiveRequest) -> Shape {
    let sim = sim_over(name);
    let store = ArchiveStore::open(sim.clone() as Arc<dyn ChunkSource>, options).unwrap();
    sim.reset_stats();
    let mut session = store.session();
    let plan = session.plan_ranges(request).unwrap();
    session.retrieve_steps(request).unwrap();
    let stats = sim.stats();
    Shape {
        gets: stats.requests,
        bytes: stats.bytes,
        planned_bytes: plan.payload_bytes() as u64,
        planned_runs: distinct(plan.ranges()),
    }
}

/// Requests a plan costs with coalescing off: its distinct ranges (the
/// empty chunks of a level's unoccupied precincts share one key).
fn distinct(mut ranges: Vec<ByteRange>) -> u64 {
    ranges.sort_unstable();
    ranges.dedup();
    ranges.len() as u64
}

/// `(GETs, bytes)` per stack for one request, checked against its plan.
fn check(what: &str, shapes: [Shape; 3], expected: [(u64, u64); 3], contiguous_levels: bool) {
    let got = shapes.map(|s| (s.gets, s.bytes));
    assert_eq!(got, expected, "{what}: (GETs, bytes) per stack");
    let [default, _, per_chunk] = shapes;
    let planned = default.planned_bytes;
    if contiguous_levels {
        assert!(
            planned <= default.bytes && default.bytes <= planned + planned / 16,
            "{what}: planned {planned}, fetched {}",
            default.bytes
        );
    }
    // Without coalescing the stack issues exactly the plan's runs: grouping
    // batches requests, it never adds (or fills) one.
    assert_eq!(
        (per_chunk.gets, per_chunk.bytes),
        (per_chunk.planned_runs, planned),
        "{what}: per-chunk traffic is the plan"
    );
}

const FULL: RetrievalRequest = RetrievalRequest::Full;
/// A two-rung ladder inside the fixtures' 2^-10 bound.
const LADDER: [RetrievalRequest; 2] = [
    RetrievalRequest::ErrorBound(0.0625),
    RetrievalRequest::ErrorBound(0.00390625),
];

#[test]
fn request_shapes() {
    let per_stack = |name: &str, requests: &[RetrievalRequest], region: Option<RoiBox>| {
        stacks().map(|options| container_shape(name, options, requests, region))
    };

    // Byte-granular containers: a level's planes are one contiguous run, so
    // `Full` is a single GET and a rung's levels merge wherever the planes
    // it leaves out fit the byte budget.
    for (name, full, ladder) in [
        (
            "container_v2_packed.bin",
            [(1, 5631), (0, 0), (69, 5631)],
            [(4, 5671), (0, 0), (61, 5600)],
        ),
        (
            "container_v2_chunked_packed.bin",
            [(1, 6051), (0, 0), (153, 6051)],
            [(4, 6091), (0, 0), (145, 6020)],
        ),
    ] {
        check(
            &format!("{name} full"),
            per_stack(name, &[FULL], None),
            full,
            true,
        );
        check(
            &format!("{name} ladder"),
            per_stack(name, &LADDER, None),
            ladder,
            true,
        );
    }

    // Precinct container: full-domain requests as above; a region's runs are
    // scattered inside each level, so its fetched bytes include the
    // coalescer's own intra-level fill and only the per-chunk column is
    // byte-exact.
    let v3 = "container_v3_packed.bin";
    check(
        "v3 full",
        per_stack(v3, &[FULL], None),
        [(1, 7481), (0, 0), (531, 7481)],
        true,
    );
    check(
        "v3 ladder",
        per_stack(v3, &LADDER, None),
        [(4, 7538), (0, 0), (523, 7450)],
        true,
    );
    let tile = RoiBox::new(&[0, 0, 0], &[8, 6, 5]);
    check(
        "v3 roi",
        per_stack(v3, &[RetrievalRequest::ErrorBound(0.015625)], Some(tile)),
        [(2, 6770), (0, 0), (73, 2144)],
        false,
    );

    // Archive window across the keyframe at step 2 (steps 1..4 output, step
    // 0 decoded for the chain), at the archive's reference fidelity so each
    // step decodes once. Step boundaries are bridged like level boundaries.
    let window = ArchiveRequest::steps(0, 1..4, RetrievalRequest::ErrorBound(0.015625));
    let v4 = "container_v4_hoisted.bin";
    check(
        "v4 window",
        stacks().map(|options| window_shape(v4, options, &window)),
        [(4, 18368), (4, 18368), (201, 17300)],
        true,
    );
}

/// `(GETs, bytes)` of opening `bytes` — the metadata parse alone, as
/// [`ContainerMap::open`] or [`ArchiveMap::open`] — over the simulator.
fn open_shape(bytes: Vec<u8>, archive: bool) -> (u64, u64) {
    let sim = SimulatedObjectStore::new(test_source(bytes), SimProfile::free());
    if archive {
        ArchiveMap::open(&sim).map(drop).unwrap();
    } else {
        ContainerMap::open(&sim).map(drop).unwrap();
    }
    let stats = sim.stats();
    (stats.requests, stats.bytes)
}

/// The open the table above leaves out: a container or an archive opens in
/// one 4 KB probe GET, plus one GET of exactly the rest when its metadata is
/// longer than the probe.
#[test]
fn open_shapes() {
    for (name, archive, expected) in [
        ("container_v2_packed.bin", false, (1, 4096)),
        ("container_v2_chunked_packed.bin", false, (1, 4096)),
        ("container_v3_packed.bin", false, (1, 4096)),
        ("container_v4_hoisted.bin", true, (1, 4096)),
    ] {
        assert_eq!(open_shape(fixture(name), archive), expected, "{name}");
    }

    // 200 steps of a small field: a prefix several probes long is still the
    // probe plus one GET of exactly the rest.
    let shape = ipc_tensor::Shape::d3(6, 5, 4);
    let config = ArchiveConfig::new(1e-3, 1e-2);
    let mut builder = ArchiveBuilder::new(vec!["f".into()], shape.clone(), config).unwrap();
    for t in 0..200 {
        let field = ipc_tensor::ArrayD::from_fn(shape.clone(), |c| {
            (c[0] as f64 * 0.4 + t as f64 * 0.05).sin() + c[1] as f64 * 0.1 - c[2] as f64 * 0.2
        });
        builder.push_step(std::slice::from_ref(&field)).unwrap();
    }
    let bytes = builder.finish().unwrap();
    let prefix = ArchiveMap::open(&MemorySource::new(bytes.clone()))
        .unwrap()
        .meta_len();
    assert!(prefix > 2 * 4096, "{prefix} B fits the probe");
    assert_eq!(open_shape(bytes, true), (2, prefix));
}
