//! Multi-tenant hardening: fault isolation, exact rollback, cache admission
//! integrity, and tenant resource policies under real concurrency.

use std::sync::Arc;

use ipc_store::{
    field_checksum, ArchiveRequest, ArchiveStore, ChunkSource, ContainerStore, CostModel, Fault,
    FaultSource, RetrievalRequest, RoiBox, ServiceConfig, ServiceError, ServiceEvent, SimProfile,
    SimulatedObjectStore, StoreOptions, StoreService, StreamEvent, TenantConfig,
};
use ipc_tensor::{ArrayD, Shape};
use ipcomp::{
    composition_reference, compress, ArchiveBuilder, ArchiveConfig, Config, MemorySource,
};

fn container_bytes() -> Vec<u8> {
    let field = ArrayD::from_fn(Shape::d3(24, 20, 16), |c| {
        let h = (c[0].wrapping_mul(73856093) ^ c[1].wrapping_mul(19349663)) as u64;
        let noise = ((h.wrapping_mul(0x9e3779b97f4a7c15) >> 40) as f64 / (1 << 24) as f64) - 0.5;
        (c[0] as f64 * 0.21).sin() * 2.0 + (c[1] as f64 * 0.13).cos() + noise * 0.05
    });
    compress(&field, 1e-7, &Config::default())
        .unwrap()
        .to_bytes()
}

/// What draining one workload's event channel to its end saw.
#[derive(Default)]
struct Drained {
    /// Checksum of `WorkloadDone`, when the workload completed.
    checksum: Option<u64>,
    /// Simulated backend cost reported by `WorkloadDone`.
    sim_nanos: u64,
    /// Error of `WorkloadFailed`, when the workload failed.
    failure: Option<ServiceError>,
    /// `StepReconstructed` stream events (archive workloads).
    step_events: usize,
}

fn drain(rx: std::sync::mpsc::Receiver<ServiceEvent>) -> Drained {
    let mut out = Drained::default();
    while let Ok(ev) = rx.recv() {
        match ev {
            ServiceEvent::Stream {
                event: StreamEvent::StepReconstructed(_),
                ..
            } => out.step_events += 1,
            ServiceEvent::WorkloadDone { outcome, sim_nanos } => {
                out.checksum = Some(outcome.checksum);
                out.sim_nanos = sim_nanos;
            }
            ServiceEvent::WorkloadFailed { error, .. } => out.failure = Some(error),
            _ => {}
        }
    }
    out
}

const COARSE: RetrievalRequest = RetrievalRequest::ErrorBound(1e-2);
const FINE: RetrievalRequest = RetrievalRequest::ErrorBound(1e-4);

/// Checksum of the coarse→fine workload through a plain session.
fn reference_checksum(bytes: &[u8]) -> u64 {
    let store = ContainerStore::open(
        Arc::new(MemorySource::new(bytes.to_vec())),
        StoreOptions::default(),
    )
    .unwrap();
    let mut session = store.session();
    session.retrieve(COARSE).unwrap();
    field_checksum(session.retrieve(FINE).unwrap().data.as_slice())
}

/// One tenant's short read rolls its own session back *exactly* — planes and
/// byte accounting revert, the healed retry completes bit-identically — while
/// concurrent peer sessions on the same shared store never notice.
#[test]
fn faulted_tenant_rolls_back_exactly_while_peers_stay_bit_identical() {
    let bytes = container_bytes();
    let reference = reference_checksum(&bytes);
    let store = ContainerStore::open(
        Arc::new(MemorySource::new(bytes.clone())),
        StoreOptions::default(),
    )
    .unwrap();

    // Probe how many range requests the coarse step issues through a
    // session's own stack view, so the fault can be routed deterministically
    // at the *fine* step's first request (per-wrapper counters make this
    // independent of peer interleaving).
    let coarse_requests = {
        let probe = Arc::new(FaultSource::new(Arc::clone(store.source()), Fault::None));
        let mut session = store.session_over(Arc::clone(&probe) as Arc<dyn ChunkSource>);
        session.retrieve(COARSE).unwrap();
        probe.requests()
    };

    std::thread::scope(|scope| {
        // Four healthy peers run the same workload concurrently.
        for _ in 0..4 {
            let store = &store;
            scope.spawn(move || {
                let mut session = store.session();
                session.retrieve(COARSE).unwrap();
                let out = session.retrieve(FINE).unwrap();
                assert_eq!(
                    field_checksum(out.data.as_slice()),
                    reference,
                    "peer diverged while another tenant faulted"
                );
            });
        }

        // The faulted tenant: clean coarse step, truncated fine step.
        let fault = Arc::new(FaultSource::new(
            Arc::clone(store.source()),
            Fault::ShortReadAfter(coarse_requests),
        ));
        let mut session = store.session_over(Arc::clone(&fault) as Arc<dyn ChunkSource>);
        let coarse_out = session.retrieve(COARSE).unwrap();
        let planes_before = session.planes_loaded().to_vec();
        let bytes_before = session.bytes_loaded();

        let err = session.retrieve(FINE);
        assert!(err.is_err(), "short read must surface as an error");
        assert_eq!(
            session.planes_loaded(),
            planes_before.as_slice(),
            "failed load must roll planes back exactly"
        );
        assert_eq!(
            session.bytes_loaded(),
            bytes_before,
            "failed load must roll byte accounting back exactly"
        );
        // The coarse reconstruction survives the failed refinement.
        assert_eq!(coarse_out.bytes_total, bytes_before);

        // Heal the backend; the retry must complete bit-identically.
        fault.set_fault(Fault::None);
        let out = session.retrieve(FINE).unwrap();
        assert_eq!(field_checksum(out.data.as_slice()), reference);
    });
}

/// A short read below the shared cache must never leave truncated bytes in
/// it: the failed fetch admits nothing, and after the backend heals every
/// retrieval is bit-identical (poison would surface as divergence here).
#[test]
fn shared_cache_never_admits_bytes_from_a_failed_short_read() {
    let bytes = container_bytes();
    let reference = reference_checksum(&bytes);
    // Fault source *below* the cache, as the store's backend.
    let backend = Arc::new(FaultSource::new(
        MemorySource::new(bytes.clone()),
        Fault::None,
    ));
    let store = ContainerStore::open(
        Arc::clone(&backend) as Arc<dyn ChunkSource>,
        StoreOptions::default(),
    )
    .unwrap();
    let resident_after_open = store.cache_stats().unwrap().resident_bytes;

    // Every backend request from now on is truncated.
    backend.set_fault(Fault::ShortReadAfter(backend.requests()));
    let mut session = store.session();
    assert!(session.retrieve(COARSE).is_err());
    assert!(session.retrieve(FINE).is_err());
    let stats = store.cache_stats().unwrap();
    assert_eq!(
        stats.resident_bytes, resident_after_open,
        "failed short reads must not admit bytes into the shared cache"
    );

    // Heal; fresh sessions decode correctly and warm the cache for peers.
    backend.set_fault(Fault::None);
    let mut session = store.session();
    session.retrieve(COARSE).unwrap();
    let out = session.retrieve(FINE).unwrap();
    assert_eq!(field_checksum(out.data.as_slice()), reference);
    // A second session now reads the admitted entries — if anything
    // truncated had been cached, this decode would diverge or fail.
    let requests_before = backend.requests();
    let mut peer = store.session();
    peer.retrieve(COARSE).unwrap();
    let out = peer.retrieve(FINE).unwrap();
    assert_eq!(field_checksum(out.data.as_slice()), reference);
    assert_eq!(
        backend.requests(),
        requests_before,
        "peer should be served entirely from the warmed cache"
    );
}

/// Full service path under concurrency: a quota'd deep-sweeping tenant, a
/// budget-capped tenant, and healthy interactive tenants all submitting at
/// once. Peers stay bit-identical, the sweeper is held to its cache quota,
/// and the budget tenant is refused deterministically.
#[test]
fn service_isolates_tenants_under_concurrent_load() {
    let bytes = container_bytes();
    let reference = reference_checksum(&bytes);
    let store = ContainerStore::open(
        Arc::new(MemorySource::new(bytes.clone())),
        StoreOptions {
            // Cache smaller than the container so an unquota'd sweep would
            // churn the interactive tenants' working set.
            cache_bytes: bytes.len() / 2,
            ..StoreOptions::default()
        },
    )
    .unwrap();

    let service = StoreService::new(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    });
    let cid = service.register_container(Arc::clone(&store));
    let interactive: Vec<_> = (0..3)
        .map(|_| service.register_tenant(TenantConfig::default()))
        .collect();
    let sweeper = service.register_tenant(TenantConfig {
        cache_quota: Some(4096),
        ..TenantConfig::default()
    });
    let broke = service.register_tenant(TenantConfig {
        byte_budget: Some(8),
        ..TenantConfig::default()
    });

    std::thread::scope(|scope| {
        let service = &service;
        // Interactive tenants refine coarse→fine, twice each, concurrently.
        for &tid in &interactive {
            scope.spawn(move || {
                for _ in 0..2 {
                    let rx = service.submit(tid, cid, vec![COARSE, FINE]).unwrap();
                    let done = drain(rx);
                    assert!(done.failure.is_none(), "healthy tenant failed");
                    assert_eq!(done.checksum, Some(reference), "tenant output diverged");
                }
            });
        }
        // The sweeper streams the whole container repeatedly.
        scope.spawn(move || {
            for _ in 0..3 {
                let rx = service
                    .submit(sweeper, cid, vec![RetrievalRequest::Full])
                    .unwrap();
                let done = drain(rx);
                assert!(done.failure.is_none(), "sweeper failed");
                assert!(done.checksum.is_some());
            }
        });
        // The budget-capped tenant is refused before any I/O.
        scope.spawn(move || {
            let rx = service.submit(broke, cid, vec![COARSE]).unwrap();
            let done = drain(rx);
            assert!(done.checksum.is_none());
            assert!(matches!(
                done.failure,
                Some(ServiceError::BudgetExhausted { .. })
            ));
        });
    });

    // The sweeper's cache residency never exceeded its quota (spot-check the
    // final state; the cache enforces it on every admission).
    let cache = store.cache().unwrap();
    assert!(
        cache.tag_stats(sweeper.0).resident_bytes <= 4096,
        "sweeper exceeded its cache quota: {}",
        cache.tag_stats(sweeper.0).resident_bytes
    );
    assert_eq!(service.tenant_bytes_used(broke), 0);
    // Interactive tenants were actually attributed traffic.
    for &tid in &interactive {
        let t = cache.tag_stats(tid.0);
        assert!(t.hits + t.misses > 0, "tenant {tid:?} saw no cache traffic");
    }
}

/// A deterministic fleet: `sessions` workloads (70 % coarse→mid, 25 %
/// coarse→fine, 5 % full sweeps) drawn Zipf-like over four containers, each
/// behind its own accounting-only object store, submitted one at a time by
/// four tenants through a fresh [`StoreService`] with a cost model. Every
/// completed workload is checked against a plain single-client session and
/// the service's `metrics_snapshot()` against this function's own accounting
/// of what it submitted and what the backends and caches counted. Returns
/// the backend GETs of the fleet's lifetime, container opens included.
fn run_fleet(sessions: usize) -> u64 {
    const TENANTS: usize = 4;
    let containers: Vec<Vec<u8>> = (0..4)
        .map(|i| {
            let field = ArrayD::from_fn(Shape::d3(14 + 2 * i, 14, 12), |c| {
                (c[0] as f64 * (0.2 + 0.05 * i as f64)).sin() * 2.0
                    + (c[1] as f64 * 0.13).cos()
                    + c[2] as f64 * 0.01
            });
            compress(&field, 1e-7, &Config::default())
                .unwrap()
                .to_bytes()
        })
        .collect();
    let workloads = [
        vec![COARSE, RetrievalRequest::ErrorBound(1e-3)],
        vec![COARSE, FINE],
        vec![RetrievalRequest::Full],
    ];
    let reference = |container: usize, kind: usize| {
        let store = ContainerStore::open(
            Arc::new(MemorySource::new(containers[container].clone())),
            StoreOptions::default(),
        )
        .unwrap();
        let mut session = store.session();
        let mut last = None;
        for &request in &workloads[kind] {
            last = Some(session.retrieve(request).unwrap());
        }
        field_checksum(last.unwrap().data.as_slice())
    };

    let profile = SimProfile::object_store();
    let sims: Vec<_> = containers
        .iter()
        .map(|b| {
            Arc::new(SimulatedObjectStore::new(
                MemorySource::new(b.clone()),
                profile,
            ))
        })
        .collect();
    let stores: Vec<Arc<ContainerStore>> = sims
        .iter()
        .zip(&containers)
        .map(|(sim, b)| {
            ContainerStore::open(
                Arc::clone(sim) as Arc<dyn ChunkSource>,
                StoreOptions {
                    cache_bytes: b.len(),
                    ..StoreOptions::default()
                },
            )
            .unwrap()
        })
        .collect();
    // GETs issued while opening the containers — everything after this
    // belongs to tenant traffic.
    let open_gets: u64 = sims.iter().map(|s| s.stats().requests).sum();
    let service = StoreService::new(ServiceConfig {
        workers: 2,
        cost_model: Some(CostModel {
            latency_per_request: profile.latency_per_request,
            throughput_bytes_per_sec: profile.throughput_bytes_per_sec,
            coalesce_gap: StoreOptions::default().coalesce_gap.unwrap(),
        }),
        ..ServiceConfig::default()
    });
    let cids: Vec<_> = stores
        .iter()
        .map(|s| service.register_container(Arc::clone(s)))
        .collect();
    let tids: Vec<_> = (0..TENANTS)
        .map(|_| service.register_tenant(TenantConfig::default()))
        .collect();

    // Client-side ledger: sim-nanos of every workload each tenant completed.
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); TENANTS];
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    for i in 0..sessions {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Container popularity 8 : 4 : 2 : 1; session mix 70 / 25 / 5.
        let container = match (rng >> 33) % 15 {
            0..=7 => 0,
            8..=11 => 1,
            12..=13 => 2,
            _ => 3,
        };
        let kind = match (rng >> 17) % 100 {
            0..=69 => 0,
            70..=94 => 1,
            _ => 2,
        };
        let tenant = i % TENANTS;
        let rx = service
            .submit(tids[tenant], cids[container], workloads[kind].clone())
            .unwrap();
        let done = drain(rx);
        assert_eq!(
            done.checksum,
            Some(reference(container, kind)),
            "session {i} on container {container} diverged from a single-client session \
             (failure: {:?})",
            done.failure
        );
        latencies[tenant].push(done.sim_nanos);
    }

    let snap = service.metrics_snapshot();
    assert_eq!(snap.tenants.len(), TENANTS);
    for (t, lat) in latencies.iter().enumerate() {
        let s = &snap.tenants[t];
        assert_eq!(s.workloads as usize, lat.len(), "tenant {t} workload count");
        assert_eq!(s.failures, 0);
        // The service histogrammed the same sim-nanos this client read off
        // its WorkloadDone events.
        assert_eq!(s.latency_ns.count, lat.len() as u64, "tenant {t}");
        assert_eq!(s.latency_ns.sum, lat.iter().sum::<u64>(), "tenant {t}");
        // Per-tenant hit/miss counts match the shared caches' own per-tag
        // ledgers summed across containers.
        let (hits, misses) = stores
            .iter()
            .filter_map(|st| st.cache())
            .map(|c| c.tag_stats(tids[t].0))
            .fold((0u64, 0u64), |(h, m), ts| (h + ts.hits, m + ts.misses));
        assert_eq!((s.cache_hits, s.cache_misses), (hits, misses), "tenant {t}");
    }
    // Per-tenant GET attribution partitions the backend's request stream:
    // every GET after container-open belongs to exactly one tenant.
    let backend_gets: u64 = sims.iter().map(|s| s.stats().requests).sum();
    let tenant_gets: u64 = snap.tenants.iter().map(|t| t.gets).sum();
    assert_eq!(tenant_gets, backend_gets - open_gets);
    backend_gets
}

/// The service's published telemetry equals an independent client-side
/// ledger (asserted inside [`run_fleet`]), and the shared per-container
/// caches absorb fleet growth: 8× the sessions cost at most 2× the backend
/// GETs.
#[test]
fn metrics_match_client_accounting_and_caches_absorb_8x_fleet_growth() {
    let base = run_fleet(12);
    let grown = run_fleet(96);
    // Lifetime backend GETs, the four container opens included; 31 and 40
    // when every level was a `read_ranges` call of its own. The partition
    // asserted inside `run_fleet` is exact either way: a fetch group reaches
    // the tenant's meter, the cache and the coalescer as one call.
    assert_eq!((base, grown), (23, 29));
    assert!(
        grown <= 2 * base,
        "8x fleet growth cost {grown} backend GETs vs {base} at base scale"
    );
}

/// Mixed spatial + temporal traffic over one shared archive: a sweeping
/// tenant walks a time-series archive window by window against a cold cache,
/// then interactive tenants replay single steps scoped to an ROI — all
/// through `StoreService::submit_archive`. Every sweep window's checksum is
/// the order-sensitive fold of the encode-independent composition reference,
/// every ROI step matches crop-of-composition, each window streams one
/// `StepReconstructed` per output step, and the ROI tenants ride the chunks
/// the sweep already pulled into the shared cache.
#[test]
fn archive_sweeps_and_roi_steps_through_the_service_match_the_composition() {
    let shape = Shape::d3(16, 16, 16);
    let (steps, interval) = (6usize, 3usize);
    let fields: Vec<ArrayD<f64>> = (0..steps)
        .map(|t| {
            ArrayD::from_fn(shape.clone(), |c| {
                (c[0] as f64 * 0.4 + t as f64 * 0.25).sin() * 2.0
                    + (c[1] as f64 * 0.3 - t as f64 * 0.15).cos()
                    + c[2] as f64 * 0.05
            })
        })
        .collect();
    let mut config = ArchiveConfig::new(1e-5, 1e-3);
    config.keyframe_interval = interval;
    config.codec = Config::with_precincts(&[8, 8, 8]);
    let mut builder =
        ArchiveBuilder::new(vec!["wave".into()], shape.clone(), config.clone()).unwrap();
    for f in &fields {
        builder.push_step(std::slice::from_ref(f)).unwrap();
    }
    let archive = builder.finish().unwrap();
    let fidelity = RetrievalRequest::ErrorBound(1e-3);
    let reference = composition_reference(&fields, &config, fidelity).unwrap();
    let roi = RoiBox::new(&[0, 0, 0], &[8, 8, 8]);
    let cropped = |s: usize| ArrayD::from_fn(Shape::d3(8, 8, 8), |c| *reference[s].get(c));
    // The service's digest of a window: rotate-and-add over its steps.
    let fold = |digests: &[u64]| {
        digests
            .iter()
            .fold(0u64, |c, &d| c.rotate_left(17).wrapping_add(d))
    };

    let store = ArchiveStore::open(
        Arc::new(MemorySource::new(archive)) as Arc<dyn ChunkSource>,
        StoreOptions::default(),
    )
    .unwrap();
    let service = StoreService::new(ServiceConfig::default());
    let aid = service.register_archive(Arc::clone(&store));
    let sweeper = service.register_tenant(TenantConfig::default());
    let roi_tenants: Vec<_> = (0..2)
        .map(|_| service.register_tenant(TenantConfig::default()))
        .collect();
    for window in [0..interval, interval..steps] {
        let request = ArchiveRequest::steps(0, window.clone(), fidelity);
        let done = drain(service.submit_archive(sweeper, aid, request).unwrap());
        assert_eq!(done.step_events, window.len(), "window {window:?}");
        let digests: Vec<u64> = window
            .clone()
            .map(|s| field_checksum(reference[s].as_slice()))
            .collect();
        assert_eq!(
            done.checksum,
            Some(fold(&digests)),
            "window {window:?} diverged from the composition"
        );
    }
    for s in 0..steps {
        let mut request = ArchiveRequest::steps(0, s..s + 1, fidelity);
        request.roi = Some(roi);
        let tenant = roi_tenants[s % roi_tenants.len()];
        let done = drain(service.submit_archive(tenant, aid, request).unwrap());
        assert_eq!(done.step_events, 1);
        assert_eq!(
            done.checksum,
            Some(fold(&[field_checksum(cropped(s).as_slice())])),
            "ROI step {s} diverged from crop-of-composition"
        );
    }
    let cache = store.cache().expect("archive cache configured");
    let (hits, misses) = roi_tenants
        .iter()
        .map(|t| cache.tag_stats(t.0))
        .fold((0u64, 0u64), |(h, m), ts| (h + ts.hits, m + ts.misses));
    assert!(
        hits >= misses,
        "ROI tenants must ride the sweep's cached chunks: {hits} hits / {misses} misses"
    );
}

/// The failure half of the archive job's service contract, on an archive
/// behind a [`FaultSource`]: a budget too small for the window is refused
/// before any I/O, a short read ends the stream at the step it hit with the
/// reservation handed back, and after healing the same window completes with
/// in-order request indices, running byte totals, a monotone simulated clock
/// and the composition's checksum fold.
#[test]
fn archive_job_failures_end_in_one_terminal_event_and_return_the_budget() {
    let shape = Shape::d3(16, 16, 16);
    let steps = 6usize;
    let fields: Vec<ArrayD<f64>> = (0..steps)
        .map(|t| {
            ArrayD::from_fn(shape.clone(), |c| {
                (c[0] as f64 * 0.35 + t as f64 * 0.2).sin() * 2.0
                    + (c[1] as f64 * 0.25 - t as f64 * 0.1).cos()
                    + c[2] as f64 * 0.03
            })
        })
        .collect();
    let mut config = ArchiveConfig::new(1e-5, 1e-3);
    config.keyframe_interval = 3;
    let mut builder =
        ArchiveBuilder::new(vec!["wave".into()], shape.clone(), config.clone()).unwrap();
    for f in &fields {
        builder.push_step(std::slice::from_ref(f)).unwrap();
    }
    let archive = builder.finish().unwrap();
    let fidelity = RetrievalRequest::ErrorBound(1e-4);
    let reference = composition_reference(&fields, &config, fidelity).unwrap();
    let window = ArchiveRequest::steps(0, 0..steps, fidelity);
    let open = |backend: &Arc<FaultSource<MemorySource>>| {
        ArchiveStore::open(
            Arc::clone(backend) as Arc<dyn ChunkSource>,
            StoreOptions::default(),
        )
        .unwrap()
    };

    // Backend GETs a cold window costs, counted on a probe store of its own.
    let window_gets = {
        let probe = Arc::new(FaultSource::new(
            MemorySource::new(archive.clone()),
            Fault::None,
        ));
        let store = open(&probe);
        let opened = probe.requests();
        store.session().retrieve_steps(&window).unwrap();
        probe.requests() - opened
    };
    assert!(window_gets > 0);

    let backend = Arc::new(FaultSource::new(MemorySource::new(archive), Fault::None));
    let store = open(&backend);
    let service = StoreService::new(ServiceConfig {
        cost_model: Some(CostModel {
            latency_per_request: std::time::Duration::from_millis(5),
            throughput_bytes_per_sec: 200e6,
            coalesce_gap: 4096,
        }),
        ..ServiceConfig::default()
    });
    let aid = service.register_archive(Arc::clone(&store));
    let broke = service.register_tenant(TenantConfig {
        byte_budget: Some(16),
        ..TenantConfig::default()
    });
    let funded = service.register_tenant(TenantConfig {
        byte_budget: Some(u64::MAX / 2),
        ..TenantConfig::default()
    });
    let collect = |tenant| -> Vec<ServiceEvent> {
        let rx = service.submit_archive(tenant, aid, window).unwrap();
        rx.iter().collect()
    };
    let terminals = |events: &[ServiceEvent]| {
        events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ServiceEvent::WorkloadDone { .. } | ServiceEvent::WorkloadFailed { .. }
                )
            })
            .count()
    };

    // Over budget: refused on the price alone, nothing fetched or charged.
    let misses_before = store.cache_stats().unwrap().misses;
    let events = collect(broke);
    assert_eq!(events.len(), 1, "a refused window streams nothing else");
    assert!(matches!(
        events[0],
        ServiceEvent::WorkloadFailed {
            request: 0,
            error: ServiceError::BudgetExhausted { .. },
        }
    ));
    assert_eq!(store.cache_stats().unwrap().misses, misses_before);
    assert_eq!(service.tenant_bytes_used(broke), 0);

    // Short read on the window's last GET: the steps fetched before it are
    // reported, the failure names the step it hit, the budget comes back.
    backend.set_fault(Fault::ShortReadAfter(backend.requests() + window_gets - 1));
    let events = collect(funded);
    assert_eq!(terminals(&events), 1);
    let done_before = events
        .iter()
        .filter(|e| matches!(e, ServiceEvent::RequestDone { .. }))
        .count();
    assert!(
        (1..steps).contains(&done_before),
        "{done_before} steps done"
    );
    match events.last() {
        Some(ServiceEvent::WorkloadFailed {
            request,
            error: ServiceError::Retrieval(_),
        }) => assert_eq!(*request, done_before),
        other => panic!("expected a retrieval failure, got {other:?}"),
    }
    assert_eq!(service.tenant_bytes_used(funded), 0, "reservation leaked");

    // Healed: the same window completes and its stream is well formed.
    backend.set_fault(Fault::None);
    let events = collect(funded);
    assert_eq!(terminals(&events), 1);
    let mut done = Vec::new();
    let mut clock = 0u64;
    for e in &events {
        if let ServiceEvent::RequestDone {
            request,
            step,
            sim_nanos,
        } = e
        {
            assert_eq!(*request, done.len(), "request indices run in order");
            assert!(*sim_nanos >= clock, "simulated clock fell");
            clock = *sim_nanos;
            done.push(step.bytes_this_request);
        }
    }
    assert_eq!(done.len(), steps);
    let fold = reference.iter().fold(0u64, |c, f| {
        c.rotate_left(17).wrapping_add(field_checksum(f.as_slice()))
    });
    match events.last() {
        Some(ServiceEvent::WorkloadDone { outcome, sim_nanos }) => {
            assert_eq!(
                outcome.checksum, fold,
                "window diverged from the composition"
            );
            assert!(*sim_nanos >= clock);
            assert_eq!(outcome.steps.len(), steps);
            let mut total = 0;
            for (s, &bytes) in outcome.steps.iter().zip(&done) {
                total += bytes;
                assert_eq!(s.bytes_this_request, bytes);
                assert_eq!(s.bytes_total, total, "bytes_total is the running sum");
            }
        }
        other => panic!("expected WorkloadDone, got {other:?}"),
    }
    assert!(service.tenant_bytes_used(funded) > 0);

    let snap = service.metrics_snapshot();
    let (b, f) = (
        &snap.tenants[broke.0 as usize],
        &snap.tenants[funded.0 as usize],
    );
    assert_eq!((b.failures, b.workloads, b.requests), (1, 0, 0));
    assert_eq!(
        (f.failures, f.workloads, f.requests),
        (1, 1, (done_before + steps) as u64)
    );
}
