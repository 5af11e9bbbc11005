//! End-to-end ranged retrieval: sessions over composed source stacks must
//! reproduce the slice-based decoder bit for bit while fetching only planned
//! ranges, on every backend (`IPC_STORE_FORCE_FILE=1` flips the helper
//! sources to the file-backed pread path).

use std::sync::Arc;

use rand::{Rng, SeedableRng};

use ipc_store::testutil::test_source;
use ipc_store::{
    field_checksum, plan_request, ContainerStore, Fault, FaultSource, SimProfile, SimStats,
    SimulatedObjectStore, StoreOptions,
};
use ipc_tensor::{ArrayD, Shape};
use ipcomp::progressive::ProgressiveDecoder;
use ipcomp::source::ChunkSource;
use ipcomp::{compress, Compressed, Config, ContainerMap, RetrievalRequest};

fn field() -> ArrayD<f64> {
    let shape = Shape::d3(30, 26, 22);
    ArrayD::from_fn(shape, |c| {
        (c[0] as f64 * 0.17).sin() * 3.0
            + (c[1] as f64 * 0.11).cos() * 2.0
            + (c[2] as f64 * 0.05) * (c[0] as f64 * 0.02)
    })
}

fn container() -> Compressed {
    compress(&field(), 1e-7, &Config::default()).unwrap()
}

/// Small chunks so plans span many chunks per plane.
fn chunked_container() -> Compressed {
    let config = Config {
        chunk_bytes: 64,
        ..Config::default()
    };
    compress(&field(), 1e-7, &config).unwrap()
}

#[test]
fn session_matches_slice_decoder_bit_for_bit() {
    let c = container();
    let store = ContainerStore::open(test_source(c.to_bytes()), StoreOptions::default()).unwrap();
    let mut session = store.session();

    let mut slice_dec = ProgressiveDecoder::new(&c);
    for request in [
        RetrievalRequest::ErrorBound(1e-2),
        RetrievalRequest::ErrorBound(1e-4),
        RetrievalRequest::Full,
    ] {
        let a = slice_dec.retrieve(request).unwrap();
        let b = session.retrieve(request).unwrap();
        assert_eq!(a.data.as_slice(), b.data.as_slice(), "{request:?}");
        assert_eq!(a.bytes_this_request, b.bytes_this_request, "{request:?}");
    }
}

/// Check one retrieval's event stream against the contract, level by level:
/// a level that loads planes streams its regions `0, 1, …` with
/// `coeffs_decoded` rising to `coeffs_in_level`, then exactly one
/// `LevelReconstructed` for it, before any event of the next level; a level
/// that loads nothing emits only its `LevelReconstructed`. Every cascade
/// level reports once, coarsest first. Returns `(levels that streamed
/// regions, levels that loaded nothing, region events)`.
fn assert_cascade_order(events: &[ipc_store::StreamEvent]) -> (usize, usize, usize) {
    use ipc_store::StreamEvent;

    let (mut level, mut regions, mut decoded, mut last) = (0usize, 0usize, 0usize, None);
    let (mut streamed, mut idle, mut total_regions, mut levels) = (0usize, 0usize, 0usize, 0);
    for event in events {
        match *event {
            StreamEvent::Region(p) => {
                assert_eq!(p.level_idx, level, "region of a level out of turn");
                assert_eq!(p.region, regions, "regions stream in order");
                assert!(p.region < p.regions_in_level);
                assert!(decoded <= p.coeffs_decoded && p.coeffs_decoded <= p.coeffs_in_level);
                regions += 1;
                decoded = p.coeffs_decoded;
                last = Some(p);
            }
            StreamEvent::LevelReconstructed(p) => {
                assert_eq!(p.level_idx, level, "levels reconstruct coarsest first");
                assert_eq!(p.levels_applied, level + 1);
                assert_eq!(p.interp_level as usize, p.levels_total - level);
                match last.take() {
                    Some(r) => {
                        assert_eq!(regions, r.regions_in_level, "level {level} streamed short");
                        assert_eq!(decoded, r.coeffs_in_level, "level {level} decoded short");
                        streamed += 1;
                    }
                    None => idle += 1,
                }
                total_regions += regions;
                (level, regions, decoded, levels) = (level + 1, 0, 0, p.levels_total);
            }
            StreamEvent::StepReconstructed(_) => unreachable!("not an archive retrieval"),
        }
    }
    assert!(last.is_none(), "regions after the last reconstructed level");
    assert!(
        level > 0 && level == levels,
        "every cascade level must report"
    );
    (streamed, idle, total_regions)
}

#[test]
fn session_streams_reconstruction_events_in_cascade_order() {
    let chunked = chunked_container();
    let precincts = compress(&field(), 1e-7, &Config::with_precincts(&[8, 8, 8])).unwrap();
    let mut idle_levels = 0usize;
    for (c, ladder) in [
        (&chunked, &[RetrievalRequest::Full][..]),
        (&precincts, &[RetrievalRequest::Full][..]),
        // Refinement rungs stream only new planes; the last one leaves
        // levels with nothing left to load.
        (
            &chunked,
            &[
                RetrievalRequest::ErrorBound(1e-2),
                RetrievalRequest::ErrorBound(1e-5),
                RetrievalRequest::Full,
            ][..],
        ),
    ] {
        let store =
            ContainerStore::open(test_source(c.to_bytes()), StoreOptions::default()).unwrap();
        let mut plain = store.session();
        let mut session = store.session();
        for &request in ladder {
            let reference = plain.retrieve(request).unwrap();
            let mut events = Vec::new();
            let out = session
                .retrieve_streaming_events(request, |event| events.push(event))
                .unwrap();
            assert_eq!(
                out.data.as_slice(),
                reference.data.as_slice(),
                "{request:?}"
            );
            let (streamed, idle, regions) = assert_cascade_order(&events);
            assert!(streamed > 0, "{request:?}: some level must stream");
            assert!(
                regions > streamed,
                "{request:?}: levels must stream many regions"
            );
            idle_levels += idle;
        }
    }
    assert!(
        idle_levels > 0,
        "some retrieval must leave a level unloaded"
    );
}

#[test]
fn planned_retrieval_fetches_fraction_of_payload() {
    let c = container();
    let bytes = c.to_bytes();
    let payload = c.payload_bytes();
    let sim = Arc::new(SimulatedObjectStore::new(
        test_source(bytes),
        SimProfile::free(),
    ));
    let store =
        ContainerStore::open(sim.clone() as Arc<dyn ChunkSource>, StoreOptions::default()).unwrap();
    let mut session = store.session();
    // Exclude the metadata-open traffic: on a unit-test-sized container the
    // buffered metadata reads rival the whole payload.
    sim.reset_stats();
    session
        .retrieve(RetrievalRequest::ErrorBound(1e-3))
        .unwrap();
    let fetched = sim.stats().bytes as usize;
    assert!(
        fetched < payload / 2,
        "mid-bound retrieval fetched {fetched} of {payload} payload bytes"
    );
    // The logical accounting is the plan's; the backend moved the plan plus
    // at most the grouping rule's sixteenth in bridged gaps.
    let planned = session.bytes_loaded() - c.base_bytes();
    assert!(
        planned <= fetched && fetched <= planned + planned / 16,
        "planned {planned}, fetched {fetched}"
    );
    assert_eq!((planned, fetched, sim.stats().requests), (2931, 2959, 4));
}

#[test]
fn coalescing_cuts_request_count_at_least_4x() {
    let c = chunked_container();
    let bytes = c.to_bytes();

    let count_requests = |options: StoreOptions| -> u64 {
        let sim = Arc::new(SimulatedObjectStore::new(
            test_source(bytes.clone()),
            SimProfile::free(),
        ));
        let store = ContainerStore::open(sim.clone() as Arc<dyn ChunkSource>, options).unwrap();
        let mut session = store.session();
        sim.reset_stats(); // ignore the metadata-open traffic
        session
            .retrieve(RetrievalRequest::ErrorBound(1e-4))
            .unwrap();
        sim.stats().requests
    };

    let per_chunk = count_requests(StoreOptions {
        cache_bytes: 0,
        coalesce_gap: None,
        protect_top_planes: 0,
        whole_read_below: None,
    });
    let coalesced = count_requests(StoreOptions {
        cache_bytes: 0,
        coalesce_gap: Some(4096),
        protect_top_planes: 0,
        whole_read_below: None,
    });
    assert!(
        per_chunk >= 4 * coalesced,
        "coalescing only cut {per_chunk} requests to {coalesced}"
    );
}

/// A whole-plane (`chunk_bytes: 0`) container plans one range per plane,
/// each spanning the plane's whole payload, and a session over it decodes
/// what the slice path does.
#[test]
fn whole_plane_container_plans_one_range_per_plane() {
    let config = Config {
        chunk_bytes: 0,
        ..Config::default()
    };
    let c = compress(&field(), 1e-7, &config).unwrap();
    let source = test_source(c.to_bytes());
    let map = ContainerMap::open(source.as_ref()).unwrap();
    let plan = plan_request(
        &map,
        &vec![0; map.levels.len()],
        RetrievalRequest::Full,
        None,
    )
    .unwrap();
    // One read per (level, plane), each spanning the plane's whole payload.
    let expected: usize = c.levels.iter().map(|l| l.planes.len()).sum();
    assert!(expected > map.levels.len());
    assert_eq!(plan.request_count(), expected);
    for read in &plan.reads {
        assert_eq!(read.chunk, 0);
        assert_eq!(
            read.range.len,
            c.levels[read.level].planes[read.plane as usize].len()
        );
    }

    let store = ContainerStore::open(source, StoreOptions::default()).unwrap();
    let mut session = store.session();
    let ranged = session.retrieve(RetrievalRequest::Full).unwrap();
    assert_eq!(ranged.data.as_slice(), c.decompress().unwrap().as_slice());
}

#[test]
fn short_reads_surface_bounded_errors_never_panic() {
    let c = chunked_container();
    let bytes = c.to_bytes();

    // Open the map over an honest source first, then serve payload from a
    // store that starts returning short reads after a few requests.
    let honest = test_source(bytes.clone());
    let map = Arc::new(ContainerMap::open(honest.as_ref()).unwrap());
    // A mid-bound request leaves gaps between its levels, so it reads in
    // several groups and GETs (a `Full` retrieve of this container is one
    // contiguous GET): sweep the fault over every one of them.
    let request = RetrievalRequest::ErrorBound(1e-4);
    let honest_gets = {
        let sim = Arc::new(SimulatedObjectStore::new(
            test_source(bytes.clone()),
            SimProfile::free(),
        ));
        let store = ContainerStore::with_map(sim.clone(), map.clone(), StoreOptions::default());
        store.session().retrieve(request).unwrap();
        sim.stats().requests
    };
    assert!(
        honest_gets >= 2,
        "{honest_gets} GET leaves nothing to sweep"
    );
    for fault_after in 0..honest_gets {
        let sim: Arc<dyn ChunkSource> = Arc::new(SimulatedObjectStore::new(
            FaultSource::new(
                test_source(bytes.clone()),
                Fault::ShortReadAfter(fault_after),
            ),
            SimProfile::free(),
        ));
        let store = ContainerStore::with_map(sim, map.clone(), StoreOptions::default());
        let mut session = store.session();
        let err = session.retrieve(request).unwrap_err();
        assert!(
            matches!(
                err,
                ipcomp::IpcompError::CorruptContainer(_) | ipcomp::IpcompError::Codec(_)
            ),
            "fault_after={fault_after}: unexpected error {err:?}"
        );
        // The failed load must leave no partial state: the same session
        // against an honest stack retrieves nothing extra... instead verify a
        // fresh honest session sees pristine data.
        let honest_store = ContainerStore::with_map(
            test_source(bytes.clone()),
            map.clone(),
            StoreOptions::default(),
        );
        let mut retry = honest_store.session();
        let out = retry.retrieve(RetrievalRequest::Full).unwrap();
        assert_eq!(
            field_checksum(out.data.as_slice()),
            field_checksum(c.decompress().unwrap().as_slice())
        );
    }
}

#[test]
fn streaming_short_read_rolls_back_and_session_can_retry() {
    let c = chunked_container();
    let bytes = c.to_bytes();
    let map = Arc::new(ContainerMap::open(test_source(bytes.clone()).as_ref()).unwrap());

    // Without coalescing every chunk is a request and a fetch group is one
    // batch of them, so a fault index inside the request's *second* group
    // lands mid-payload: the first group's levels stream their regions, then
    // the level that touches the second group fails and must roll back.
    let request = RetrievalRequest::ErrorBound(1e-4);
    let plan = plan_request(&map, &vec![0; map.levels.len()], request, None).unwrap();
    let groups = ipcomp::planner::fetch_groups(plan.level_units());
    assert!(groups.len() >= 2, "request reads in {} group", groups.len());
    let sim = Arc::new(SimulatedObjectStore::new(
        FaultSource::new(
            test_source(bytes.clone()),
            Fault::ShortReadAfter(groups[0].len() as u64 + 1),
        ),
        SimProfile::free(),
    ));
    let store = ContainerStore::with_map(
        sim as Arc<dyn ChunkSource>,
        map.clone(),
        StoreOptions {
            cache_bytes: 0,
            coalesce_gap: None,
            protect_top_planes: 0,
            whole_read_below: None,
        },
    );
    let mut session = store.session();
    let mut progressed = 0usize;
    let err = session
        .retrieve_streaming_events(request, |event| {
            progressed += usize::from(matches!(event, ipc_store::StreamEvent::Region(_)));
        })
        .unwrap_err();
    assert!(progressed > 0, "fault must land mid-stream");
    assert!(matches!(
        err,
        ipcomp::IpcompError::CorruptContainer(_) | ipcomp::IpcompError::Codec(_)
    ));
    // Retrying the same *session state* against honest storage must produce
    // pristine output — the rollback left no stray bits.
    let honest_store = ContainerStore::with_map(test_source(bytes), map, StoreOptions::default());
    let mut honest = honest_store.session();
    let expected = honest.retrieve(RetrievalRequest::Full).unwrap();
    assert_eq!(
        field_checksum(expected.data.as_slice()),
        field_checksum(c.decompress().unwrap().as_slice())
    );
}

#[test]
fn concurrent_sessions_share_the_cache_and_stay_bit_identical() {
    let c = container();
    let bytes = c.to_bytes();
    let sim = Arc::new(SimulatedObjectStore::new(
        test_source(bytes),
        SimProfile::free(),
    ));
    let store =
        ContainerStore::open(sim.clone() as Arc<dyn ChunkSource>, StoreOptions::default()).unwrap();

    // Six clients refine coarse -> fine, each in its own session: the first
    // alone against the cold cache (so the miss count is deterministic), the
    // other five concurrently over what it warmed.
    let client = || {
        let mut session = store.session();
        let coarse = session
            .retrieve(RetrievalRequest::ErrorBound(1e-2))
            .unwrap();
        let fine = session
            .retrieve(RetrievalRequest::ErrorBound(1e-5))
            .unwrap();
        (
            coarse.bytes_total,
            fine.bytes_total,
            field_checksum(fine.data.as_slice()),
        )
    };
    let mut outcomes = vec![client()];
    let backend_after_first = sim.stats().requests;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..5).map(|_| scope.spawn(client)).collect();
        outcomes.extend(handles.into_iter().map(|h| h.join().unwrap()));
    });
    assert_eq!(
        sim.stats().requests,
        backend_after_first,
        "warm concurrent sessions must not reach the backend"
    );
    let reference = {
        let mut dec = ProgressiveDecoder::new(&c);
        dec.retrieve(RetrievalRequest::ErrorBound(1e-2)).unwrap();
        field_checksum(
            dec.retrieve(RetrievalRequest::ErrorBound(1e-5))
                .unwrap()
                .data
                .as_slice(),
        )
    };
    for &(coarse_bytes, fine_bytes, checksum) in &outcomes {
        assert_eq!(checksum, reference);
        // Monotone per-session byte accounting survived the fan-out.
        assert!(coarse_bytes <= fine_bytes);
    }
    // The shared cache kept backend traffic near single-client levels: six
    // clients fetched the same chunks, so cache hits dominate.
    let cache = store.cache_stats().expect("cache configured");
    assert!(
        cache.hits >= 4 * cache.misses,
        "expected shared-cache reuse, got {cache:?}"
    );
}

/// A fetch group hands the stack its chunks' own cache keys, so a session
/// over a cache another session warmed reads its whole request — every
/// group of it — without a single backend GET.
#[test]
fn warm_cache_serves_a_second_session_with_no_backend_traffic() {
    let c = container();
    let sim = Arc::new(SimulatedObjectStore::new(
        test_source(c.to_bytes()),
        SimProfile::free(),
    ));
    let store =
        ContainerStore::open(sim.clone() as Arc<dyn ChunkSource>, StoreOptions::default()).unwrap();
    let request = RetrievalRequest::ErrorBound(1e-4);
    let first = store.session().retrieve(request).unwrap();
    let after_first = sim.stats();
    assert!(
        after_first.requests > 1,
        "the cold session reads the backend"
    );
    let second = store.session().retrieve(request).unwrap();
    assert_eq!(
        sim.stats(),
        after_first,
        "a group whose chunks all hit must issue no backend read"
    );
    assert_eq!(second.data.as_slice(), first.data.as_slice());
    assert_eq!(second.bytes_this_request, first.bytes_this_request);
}

/// Open `bytes` behind an accounting-only object store with `options`,
/// retrieve `requests` in one session each, and return the last output's
/// checksum plus the backend's lifetime counters.
fn backend_traffic(
    bytes: &[u8],
    options: StoreOptions,
    requests: &[RetrievalRequest],
) -> (u64, SimStats) {
    let sim = Arc::new(SimulatedObjectStore::new(
        test_source(bytes.to_vec()),
        SimProfile::object_store(),
    ));
    let store = ContainerStore::open(sim.clone() as Arc<dyn ChunkSource>, options).unwrap();
    let mut checksum = 0;
    for &request in requests {
        let out = store.session().retrieve(request).unwrap();
        checksum = field_checksum(out.data.as_slice());
    }
    (checksum, sim.stats())
}

#[test]
fn for_backend_serves_a_sub_break_even_container_from_one_get() {
    // 5 ms × 200 MB/s breaks even at 1 MB; a ~2 KB container is far below
    // it, so `for_backend` collapses the whole store to one whole-payload
    // GET — metadata open, a coarse session and a full session included.
    let small = ArrayD::from_fn(Shape::d3(12, 12, 10), |c| {
        (c[0] as f64 * 0.4).sin() + (c[1] as f64 * 0.3).cos() * 1.5 + c[2] as f64 * 0.02
    });
    let bytes = compress(&small, 1e-7, &Config::default())
        .unwrap()
        .to_bytes();
    let profile = SimProfile::object_store();
    let options = StoreOptions::for_backend(
        profile.latency_per_request,
        profile.throughput_bytes_per_sec,
    );
    assert!((bytes.len() as u64) < options.whole_read_below.unwrap());
    let requests = [RetrievalRequest::ErrorBound(1e-4), RetrievalRequest::Full];
    let (whole_sum, whole) = backend_traffic(&bytes, options, &requests);
    assert_eq!(whole.requests, 1, "one GET for the store's lifetime");
    assert_eq!(whole.bytes, bytes.len() as u64);
    // The same sessions over the ranged stack pay several round trips —
    // more simulated storage time for fewer bytes — and decode to the same
    // bits.
    let (ranged_sum, ranged) = backend_traffic(&bytes, StoreOptions::default(), &requests);
    assert!(ranged.requests > 1, "ranged stack: {ranged:?}");
    assert!(whole.simulated_secs < ranged.simulated_secs);
    assert_eq!(whole_sum, ranged_sum);
}

#[test]
fn for_backend_keeps_a_container_above_break_even_on_ranged_reads() {
    // 10 µs × 50 MB/s breaks even at 500 B; the test container is well above
    // it, so the same policy leaves it ranged: several GETs, fewer bytes
    // than the container, identical bits.
    let c = container();
    let bytes = c.to_bytes();
    let options = StoreOptions::for_backend(std::time::Duration::from_micros(10), 50e6);
    assert_eq!(options.whole_read_below, Some(500));
    assert!(bytes.len() > 8 * 500, "container is {} B", bytes.len());
    let request = RetrievalRequest::ErrorBound(1e-3);
    let (sum, stats) = backend_traffic(&bytes, options, &[request]);
    assert!(
        stats.requests > 1 && stats.bytes < bytes.len() as u64,
        "above break-even retrieval must stay ranged: {stats:?}"
    );
    let mut dec = ProgressiveDecoder::new(&c);
    assert_eq!(
        sum,
        field_checksum(dec.retrieve(request).unwrap().data.as_slice())
    );
}

#[test]
fn top_plane_protection_shields_the_coarse_prefix_from_a_full_sweep() {
    // A fleet repeatedly pulls the coarse prefix while a one-shot `Full`
    // retrieval churns through the whole container. With the cache at half
    // the container the sweep evicts the hot prefix under pure LRU;
    // protecting the top planes keeps it resident. Sessions run one after
    // another, so the counts are deterministic.
    let bytes = chunked_container().to_bytes();
    let refetch_after_sweep = |protect: u8| -> (u64, f64) {
        let sim = Arc::new(SimulatedObjectStore::new(
            test_source(bytes.clone()),
            SimProfile::free(),
        ));
        let store = ContainerStore::open(
            sim.clone() as Arc<dyn ChunkSource>,
            StoreOptions {
                cache_bytes: bytes.len() / 2,
                protect_top_planes: protect,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let coarse = RetrievalRequest::ErrorBound(1e-2);
        store.session().retrieve(coarse).unwrap(); // warm the prefix
        store.session().retrieve(RetrievalRequest::Full).unwrap(); // one-shot sweep
        let backend_before = sim.stats().bytes;
        let cache_before = store.cache_stats().unwrap();
        store.session().retrieve(coarse).unwrap(); // the fleet's common path
        let cache_after = store.cache_stats().unwrap();
        let hits = cache_after.hits - cache_before.hits;
        let misses = cache_after.misses - cache_before.misses;
        (
            sim.stats().bytes - backend_before,
            hits as f64 / (hits + misses).max(1) as f64,
        )
    };
    let (lru_bytes, lru_hit_rate) = refetch_after_sweep(0);
    let (pin_bytes, pin_hit_rate) = refetch_after_sweep(63);
    assert!(
        pin_bytes < lru_bytes,
        "pinning must shield the hot prefix: {pin_bytes} vs {lru_bytes} bytes refetched"
    );
    assert!(
        pin_hit_rate > lru_hit_rate && pin_hit_rate >= 0.5,
        "post-sweep coarse retrieval should mostly hit: {pin_hit_rate:.3} vs {lru_hit_rate:.3}"
    );
}

/// Requests and bytes one `open` call costs over an accounting-only object
/// store on the environment's backend (`IPC_STORE_FORCE_FILE=1` serves it by
/// positioned reads), plus what it returned.
fn open_traffic<T>(
    bytes: Vec<u8>,
    open: impl FnOnce(&dyn ChunkSource) -> ipcomp::Result<T>,
) -> (T, SimStats) {
    let sim = SimulatedObjectStore::new(test_source(bytes), SimProfile::free());
    let opened = open(&sim).unwrap();
    (opened, sim.stats())
}

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Opening a container is one probe GET, plus one for the rest of the
/// metadata block when the prelude says it is longer than the probe —
/// whatever the container's size, chunk count or backend.
#[test]
fn open_costs_at_most_two_gets() {
    const PROBE: u64 = 4096;
    let open_map = |s: &dyn ChunkSource| ContainerMap::open(s);

    // Block inside the probe: exactly one GET, of the probe's size.
    let c = container();
    let (map, stats) = open_traffic(c.to_bytes(), open_map);
    assert!((map.base_bytes() as u64) <= PROBE);
    assert_eq!((stats.requests, stats.bytes), (1, PROBE));
    assert_eq!(map, ContainerMap::from_compressed(&c));
    // A container smaller than the probe is fetched whole by it.
    let small = ArrayD::from_fn(Shape::d3(12, 12, 10), |c| {
        (c[0] + c[1] * c[2]) as f64 * 0.01
    });
    let small = compress(&small, 1e-7, &Config::default())
        .unwrap()
        .to_bytes();
    let (_, stats) = open_traffic(small.clone(), open_map);
    assert_eq!((stats.requests, stats.bytes), (1, small.len() as u64));

    // A dense v2 chunk index and a v3 container of 1 024 precincts: tens of
    // thousands of index entries, still never more than two GETs.
    let noisy = ArrayD::from_fn(Shape::d2(256, 256), |c| {
        let h = ((c[0] * 73856093) ^ (c[1] * 19349663)) as u64;
        (c[0] as f64 * 0.11).sin() * 3.0 + (h.wrapping_mul(0x9e3779b97f4a7c15) >> 40) as f64 * 1e-9
    });
    let dense = Config {
        chunk_bytes: 8,
        ..Config::default()
    };
    for config in [dense, Config::with_precincts(&[8, 8])] {
        let c = compress(&noisy, 1e-7, &config).unwrap();
        let (map, stats) = open_traffic(c.to_bytes(), open_map);
        assert!(map.levels.last().unwrap().plane_chunk_count(0) >= 256);
        assert!(stats.requests <= 2 && stats.bytes <= PROBE.max(map.base_bytes() as u64));
        assert_eq!(map, ContainerMap::from_compressed(&c));
    }

    // Block past the probe (here an anchor block that alone outgrows it, as
    // a large 3-D field's does): the probe, then one GET of exactly the
    // remainder — on the file backend too.
    let mut c = container();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
    c.anchors = (0..3 * PROBE).map(|_| rng.gen()).collect();
    let (map, stats) = open_traffic(c.to_bytes(), open_map);
    assert!(map.base_bytes() as u64 > 3 * PROBE);
    assert_eq!((stats.requests, stats.bytes), (2, map.base_bytes() as u64));
    assert_eq!(map, ContainerMap::from_compressed(&c));

    // An archive carries every step's metadata in its prefix: one probe.
    let archive_open = |s: &dyn ChunkSource| ipcomp::ArchiveMap::open(s);
    let (_, stats) = open_traffic(fixture("container_v4_hoisted.bin"), archive_open);
    assert_eq!((stats.requests, stats.bytes), (1, PROBE));
}
