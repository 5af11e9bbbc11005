//! Multi-tenant store service: connection/session multiplexing over a
//! worker pool, with per-tenant budgets and incremental event streaming.
//!
//! [`StoreService`] is the service shape over shared stores: tenants
//! submit workloads at any time over a **bounded admission path**, sessions
//! run on a long-lived worker pool, and each workload's results flow back
//! over its own **bounded event channel**, forwarding the decoder's
//! [`StreamEvent`]s *as they land* — a client renders the coarse lattice
//! while the fine planes are still streaming out of the shared cache,
//! exactly the consumer shape of a progressive-delivery frontend.
//!
//! ```text
//!  tenant A ──submit──▶ ┌─────────────┐     ┌────────────┐  events (bounded)
//!  tenant B ──submit──▶ │  admission  │ ──▶ │ job queue  │ ──▶ worker ──▶ rx A
//!      │                │  semaphores │     │ (≤ global  │ ──▶ worker ──▶ rx B
//!      └─ backpressure ◀┤  per-tenant │     │  in-flight)│       │
//!        (submit blocks)│  + global   │     └────────────┘       ▼
//!                       └─────────────┘              session_tagged(tenant)
//!                                                    over the shared cache
//! ```
//!
//! **Backpressure** exists at both ends: admission blocks (or
//! [`StoreService::try_submit`] refuses with [`ServiceError::Busy`]) once a
//! tenant — or the service globally — has its configured number of
//! workloads in flight, and a worker producing events faster than the
//! client drains them blocks on the bounded channel instead of buffering
//! unboundedly.
//!
//! **A job cannot wedge the service.** The in-flight permits and the byte
//! reservation of the request in flight are held by guards, so every way out
//! of a job — completion, a retrieval error, a hung-up client, a panic —
//! returns them. Workers run each job under `catch_unwind`: a panicking job
//! (a decoder assertion, a backend bug) ends its stream with
//! [`ServiceEvent::WorkloadFailed`] carrying [`ServiceError::WorkerPanicked`],
//! counts as a tenant failure, and leaves the worker serving the queue.
//!
//! **Tenancy**: each tenant's sessions read through the shared per-container
//! chunk cache under the tenant's [`CacheTag`], so its cache admissions are
//! quota-capped ([`TenantConfig::cache_quota`] — a deep sweep recycles the
//! tenant's own slots instead of flushing its neighbours) and its traffic is
//! attributed. A cumulative **byte budget** ([`TenantConfig::byte_budget`])
//! is enforced *before* each request runs, against the planner's exact byte
//! count for the delta the request would fetch — an over-budget tenant is
//! refused deterministically instead of cut off mid-transfer.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ipc_telemetry::{now_nanos, span, Counter, Histogram, HistogramSnapshot};
use ipcomp::progressive::{RetrievalRequest, StreamEvent};
use ipcomp::source::{ByteRange, Bytes, ChunkSource};
use ipcomp::IpcompError;

use ipcomp::archive::{ArchiveRequest, StepRetrieval};

use crate::archive::{ArchiveSession, ArchiveStore};
use crate::cache::CacheTag;
use crate::coalesce::coalesce_ranges;
use crate::session::{ContainerStore, RetrievalSession, SharedCache};

/// Handle of a container registered with the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerId(pub usize);

/// Handle of a time-series archive registered with the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveId(pub usize);

/// Handle of a registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantId(pub u32);

/// Per-tenant resource policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantConfig {
    /// Cumulative container payload bytes the tenant may fetch across its
    /// lifetime; a request whose planned delta would exceed the remainder
    /// fails with [`ServiceError::BudgetExhausted`] before any I/O.
    /// `None` = unmetered.
    pub byte_budget: Option<u64>,
    /// Cap on the shared-cache bytes this tenant's reads may keep resident
    /// per container (see [`crate::CachedSource::set_quota`]). `None` =
    /// uncapped.
    pub cache_quota: Option<usize>,
    /// Workloads the tenant may have in flight before `submit` blocks
    /// (backpressure) and `try_submit` refuses.
    pub max_inflight: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            byte_budget: None,
            cache_quota: None,
            max_inflight: 4,
        }
    }
}

/// Cost model used to attribute simulated backend latency to each workload:
/// the misses a workload's reads generate are coalesced under `coalesce_gap`
/// (mirroring the GETs the backend would see) and charged
/// `latency_per_request` each plus transfer time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost per backend GET.
    pub latency_per_request: Duration,
    /// Transfer rate; `0.0` means latency-only.
    pub throughput_bytes_per_sec: f64,
    /// Gap under which adjacent misses merge into one GET (use the stack's
    /// coalescing gap so attribution matches the real request stream).
    pub coalesce_gap: u64,
}

impl CostModel {
    fn nanos(&self, gets: u64, bytes: u64) -> u64 {
        let mut secs = gets as f64 * self.latency_per_request.as_secs_f64();
        if self.throughput_bytes_per_sec > 0.0 {
            secs += bytes as f64 / self.throughput_bytes_per_sec;
        }
        (secs * 1e9) as u64
    }
}

/// Service-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads running sessions.
    pub workers: usize,
    /// Total workloads admitted (queued + running) before `submit` blocks.
    pub max_inflight: usize,
    /// Capacity of each workload's event channel; a slow consumer stalls
    /// its own worker once this many events are buffered.
    pub event_depth: usize,
    /// When set, every `RequestDone`/`WorkloadDone` event carries the
    /// simulated backend nanoseconds the workload's cache misses cost.
    pub cost_model: Option<CostModel>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_inflight: 64,
            event_depth: 64,
            cost_model: None,
        }
    }
}

/// Why a submission or workload failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The tenant id was never registered.
    UnknownTenant,
    /// The container id was never registered.
    UnknownContainer,
    /// `try_submit` would have had to block (tenant or global in-flight
    /// limit reached).
    Busy,
    /// The service is shutting down.
    ShuttingDown,
    /// The tenant's cumulative byte budget cannot cover the request's
    /// planned fetch.
    BudgetExhausted {
        /// Bytes the request would fetch.
        requested: u64,
        /// Bytes left in the tenant's budget.
        remaining: u64,
    },
    /// The retrieval itself failed (decode error, short read, ...). The
    /// session rolled back; peers are unaffected.
    Retrieval(IpcompError),
    /// The job panicked on its worker (the message is the panic's). Its
    /// permits and reservation were returned and the worker kept running;
    /// the session's state is gone with the job.
    WorkerPanicked(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownTenant => write!(f, "unknown tenant"),
            ServiceError::UnknownContainer => write!(f, "unknown container"),
            ServiceError::Busy => write!(f, "in-flight limit reached"),
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
            ServiceError::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "byte budget exhausted: request needs {requested} B, {remaining} B remaining"
            ),
            ServiceError::Retrieval(e) => write!(f, "retrieval failed: {e}"),
            ServiceError::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One completed retrieval step of a client workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientStep {
    /// Container bytes this step alone read.
    pub bytes_this_request: usize,
    /// Cumulative bytes after the step.
    pub bytes_total: usize,
    /// Error bound of the reconstruction after the step.
    pub error_bound: f64,
}

/// Result of one client's full workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// Per-request accounting, in workload order.
    pub steps: Vec<ClientStep>,
    /// FNV-1a hash over the final reconstruction's `f64` bit patterns, so
    /// callers can assert cross-client (and cross-backend) bit-identity
    /// without shipping whole fields around.
    pub checksum: u64,
}

/// Hash a reconstruction's exact bit patterns.
pub fn field_checksum(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// One message on a workload's event channel, in delivery order.
#[derive(Debug, Clone)]
pub enum ServiceEvent {
    /// Incremental decode/reconstruction progress of request `request`,
    /// forwarded from the session as it lands (chunk regions and completed
    /// cascade levels — see [`StreamEvent`]).
    Stream {
        /// Index of the request within the workload.
        request: usize,
        /// The underlying decoder event.
        event: StreamEvent,
    },
    /// Request `request` completed; `step` carries its byte accounting.
    RequestDone {
        /// Index of the request within the workload.
        request: usize,
        /// Byte/error accounting of the completed request.
        step: ClientStep,
        /// Simulated backend cost attributed so far (0 without a
        /// [`ServiceConfig::cost_model`] or cache layer).
        sim_nanos: u64,
    },
    /// The whole workload completed; terminal event.
    WorkloadDone {
        /// Per-request accounting plus the final reconstruction's checksum.
        outcome: ClientOutcome,
        /// Total simulated backend cost of the workload.
        sim_nanos: u64,
    },
    /// The workload failed at request `request`; terminal event. Prior
    /// requests' results remain valid; the session rolled the failed one
    /// back.
    WorkloadFailed {
        /// Index of the failing request within the workload.
        request: usize,
        /// What went wrong.
        error: ServiceError,
    },
}

/// Point-in-time telemetry of one tenant (see
/// [`StoreService::metrics_snapshot`]).
#[derive(Debug, Clone)]
pub struct TenantMetricsSnapshot {
    /// The tenant these numbers belong to.
    pub tenant: TenantId,
    /// Workloads that ran to completion (`WorkloadDone`).
    pub workloads: u64,
    /// Workloads that ended in `WorkloadFailed`.
    pub failures: u64,
    /// Individual requests completed.
    pub requests: u64,
    /// Backend GETs attributed to the tenant (cache misses, coalesced under
    /// the cost model's gap when one is configured).
    pub gets: u64,
    /// Ranges served from the shared cache.
    pub cache_hits: u64,
    /// Ranges that had to be fetched from the backend.
    pub cache_misses: u64,
    /// Cumulative budget bytes consumed (see [`TenantConfig::byte_budget`]).
    pub bytes_used: u64,
    /// The tenant's configured budget, for "x of y" reporting.
    pub byte_budget: Option<u64>,
    /// Distribution of nanoseconds workloads spent queued before a worker
    /// picked them up.
    pub queue_wait_ns: HistogramSnapshot,
    /// Distribution of end-to-end workload latency in nanoseconds (simulated
    /// backend time under a cost model, wall-clock otherwise).
    pub latency_ns: HistogramSnapshot,
}

impl TenantMetricsSnapshot {
    /// Fraction of ranges served from cache, in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Stable JSON object for this tenant (one entry of
    /// [`ServiceMetricsSnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tenant\": {}, \"workloads\": {}, \"failures\": {}, \"requests\": {}, \
             \"gets\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"hit_rate\": {:.4}, \
             \"bytes_used\": {}, \"byte_budget\": {}, \"queue_wait_ns\": {}, \"latency_ns\": {}}}",
            self.tenant.0,
            self.workloads,
            self.failures,
            self.requests,
            self.gets,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate(),
            self.bytes_used,
            self.byte_budget
                .map_or_else(|| "null".to_string(), |b| b.to_string()),
            self.queue_wait_ns.to_json(),
            self.latency_ns.to_json(),
        )
    }
}

/// Point-in-time telemetry of the whole service: per-tenant breakdowns plus
/// the merged aggregates.
#[derive(Debug, Clone)]
pub struct ServiceMetricsSnapshot {
    /// One entry per registered tenant, in registration order.
    pub tenants: Vec<TenantMetricsSnapshot>,
    /// All tenants' queue waits merged.
    pub queue_wait_ns: HistogramSnapshot,
    /// All tenants' workload latencies merged.
    pub latency_ns: HistogramSnapshot,
}

impl ServiceMetricsSnapshot {
    /// Stable JSON document (`schema: ipc-service-metrics-v1`).
    pub fn to_json(&self) -> String {
        let tenants: Vec<String> = self.tenants.iter().map(|t| t.to_json()).collect();
        format!(
            "{{\"schema\": \"ipc-service-metrics-v1\", \"tenants\": [{}], \
             \"queue_wait_ns\": {}, \"latency_ns\": {}}}",
            tenants.join(", "),
            self.queue_wait_ns.to_json(),
            self.latency_ns.to_json(),
        )
    }
}

/// Counting semaphore (std has none; the vendored environment has no tokio).
struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Self {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut p = self.permits.lock().expect("semaphore lock");
        while *p == 0 {
            p = self.cv.wait(p).expect("semaphore wait");
        }
        *p -= 1;
    }

    fn try_acquire(&self) -> bool {
        let mut p = self.permits.lock().expect("semaphore lock");
        if *p == 0 {
            return false;
        }
        *p -= 1;
        true
    }

    fn release(&self) {
        // Runs from a guard's `Drop`, possibly while a job unwinds, so it
        // must not panic; the count is valid at every step, so a poisoned
        // lock is still good to use.
        let mut p = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        *p += 1;
        self.cv.notify_one();
    }
}

/// Instance-local per-tenant telemetry. These live on the tenant's state —
/// not in the process-global registry — so two services in one process (or
/// parallel tests) never see each other's traffic; the registry only carries
/// the service-wide aggregates (`store.service.*`).
#[derive(Default)]
struct TenantMetrics {
    /// Workloads that ran to `WorkloadDone`.
    workloads: Counter,
    /// Workloads that ended in `WorkloadFailed`.
    failures: Counter,
    /// Requests completed across all workloads.
    requests: Counter,
    /// Backend GETs attributed to this tenant: each read's cache misses,
    /// coalesced under the cost model's gap when one is configured (mirroring
    /// the request stream the backend actually sees), raw misses otherwise.
    gets: Counter,
    /// Ranges served from the shared cache.
    cache_hits: Counter,
    /// Ranges that had to be fetched.
    cache_misses: Counter,
    /// Nanoseconds each workload spent queued before a worker picked it up.
    queue_wait_ns: Histogram,
    /// End-to-end workload latency: simulated backend nanoseconds under a
    /// [`ServiceConfig::cost_model`], wall-clock otherwise.
    latency_ns: Histogram,
}

struct TenantState {
    config: TenantConfig,
    tag: CacheTag,
    bytes_used: AtomicU64,
    inflight: Semaphore,
    metrics: TenantMetrics,
}

impl TenantState {
    /// Reserve `need` bytes against the budget without overshooting under
    /// concurrent workloads of the same tenant. The reservation is handed
    /// back when the returned guard drops, unless the request it was made
    /// for completed and [`Reservation::keep`] consumed it.
    fn try_reserve(&self, need: u64) -> Result<Reservation<'_>, ServiceError> {
        let held = |bytes| Reservation {
            tenant: self,
            bytes,
        };
        let Some(budget) = self.config.byte_budget else {
            return Ok(held(0));
        };
        let mut cur = self.bytes_used.load(Ordering::Relaxed);
        loop {
            if cur.saturating_add(need) > budget {
                return Err(ServiceError::BudgetExhausted {
                    requested: need,
                    remaining: budget - cur.min(budget),
                });
            }
            match self.bytes_used.compare_exchange(
                cur,
                cur + need,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(held(need)),
                Err(now) => cur = now,
            }
        }
    }
}

/// Budget bytes reserved for the request in flight.
struct Reservation<'t> {
    tenant: &'t TenantState,
    bytes: u64,
}

impl Reservation<'_> {
    /// The request ran: its bytes stay charged to the tenant.
    fn keep(self) {
        std::mem::forget(self);
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.tenant
            .bytes_used
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// One tenant slot and one global slot, held from admission until the job
/// is over — however it ends.
struct Permits {
    shared: Arc<Shared>,
    tenant: Arc<TenantState>,
}

impl Drop for Permits {
    fn drop(&mut self) {
        self.shared.global.release();
        self.tenant.inflight.release();
    }
}

/// What a job runs: a per-container request sequence or a step-spanning
/// archive request.
enum Work {
    Container {
        store: Arc<ContainerStore>,
        requests: Vec<RetrievalRequest>,
    },
    Archive {
        store: Arc<ArchiveStore>,
        request: ArchiveRequest,
    },
}

struct Job {
    /// Service-wide workload sequence number (span/trace correlation id).
    id: u64,
    work: Work,
    /// The admission slots this job occupies (and, through them, its tenant).
    permits: Permits,
    events: SyncSender<ServiceEvent>,
    /// Telemetry clock reading at enqueue.
    enqueued_at: u64,
}

struct Shared {
    containers: Mutex<Vec<Arc<ContainerStore>>>,
    archives: Mutex<Vec<Arc<ArchiveStore>>>,
    tenants: Mutex<Vec<Arc<TenantState>>>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    global: Semaphore,
    shutdown: AtomicBool,
    next_workload: AtomicU64,
    config: ServiceConfig,
}

/// Session source that meters simulated backend cost: reads go through the
/// shared cache under the tenant's tag, and the misses of each call —
/// coalesced the way the stack below would batch them — are charged to this
/// workload's clock. Per-workload instance, so attribution is exact even
/// when a tenant runs many sessions at once.
struct MeterSource {
    cache: Arc<SharedCache>,
    tenant: Arc<TenantState>,
    cost: Option<CostModel>,
    nanos: AtomicU64,
}

impl MeterSource {
    fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

impl ChunkSource for MeterSource {
    fn len(&self) -> u64 {
        self.cache.len()
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> ipcomp::Result<Vec<Bytes>> {
        let read = self
            .cache
            .read_ranges_tagged(Some(self.tenant.tag), ranges)?;
        let m = &self.tenant.metrics;
        let missed = read.missed.len() as u64;
        m.cache_hits.add(ranges.len() as u64 - missed);
        m.cache_misses.add(missed);
        if !read.missed.is_empty() {
            let miss: Vec<ByteRange> = read.missed.iter().map(|&i| ranges[i as usize]).collect();
            let bytes: u64 = miss.iter().map(|r| r.len as u64).sum();
            let gets = match &self.cost {
                // Coalesce the way the stack below batches GETs, so the
                // per-tenant count partitions the backend's request stream.
                Some(cost) => coalesce_ranges(&miss, cost.coalesce_gap).0.len() as u64,
                None => missed,
            };
            m.gets.add(gets);
            if let Some(cost) = &self.cost {
                self.nanos
                    .fetch_add(cost.nanos(gets, bytes), Ordering::Relaxed);
            }
        }
        Ok(read.bytes)
    }
}

/// A multi-tenant, multi-container retrieval service (see module docs).
pub struct StoreService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl StoreService {
    /// Start the worker pool.
    pub fn new(config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            containers: Mutex::new(Vec::new()),
            archives: Mutex::new(Vec::new()),
            tenants: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            global: Semaphore::new(config.max_inflight.max(1)),
            shutdown: AtomicBool::new(false),
            next_workload: AtomicU64::new(0),
            config,
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// Register a container; returns the id tenants address it by. Already
    /// registered tenants' cache quotas apply to it immediately.
    pub fn register_container(&self, store: Arc<ContainerStore>) -> ContainerId {
        let containers = &self.shared.containers;
        ContainerId(self.register(containers, store, ContainerStore::set_tag_quota))
    }

    /// Register a time-series archive; returns the id tenants address it by
    /// via [`StoreService::submit_archive`]. Already registered tenants'
    /// cache quotas apply to it immediately.
    pub fn register_archive(&self, store: Arc<ArchiveStore>) -> ArchiveId {
        ArchiveId(self.register(&self.shared.archives, store, ArchiveStore::set_tag_quota))
    }

    /// The one registration body: install every registered tenant's cache
    /// quota on `store`, then push it onto `stores`. The tenants lock is held
    /// across both, so a tenant registered concurrently either is seen here
    /// or sees the store (`register_tenant` takes the same locks in the same
    /// order).
    fn register<T>(
        &self,
        stores: &Mutex<Vec<Arc<T>>>,
        store: Arc<T>,
        set_quota: fn(&T, CacheTag, Option<usize>),
    ) -> usize {
        let tenants = self.shared.tenants.lock().expect("tenants lock");
        for t in tenants.iter() {
            if let Some(q) = t.config.cache_quota {
                set_quota(&store, t.tag, Some(q));
            }
        }
        let mut stores = stores.lock().expect("stores lock");
        stores.push(store);
        stores.len() - 1
    }

    /// Register a tenant; its cache quota is installed on every registered
    /// container's and archive's shared cache.
    pub fn register_tenant(&self, config: TenantConfig) -> TenantId {
        let mut tenants = self.shared.tenants.lock().expect("tenants lock");
        let tag = tenants.len() as CacheTag;
        if let Some(q) = config.cache_quota {
            for store in self
                .shared
                .containers
                .lock()
                .expect("containers lock")
                .iter()
            {
                store.set_tag_quota(tag, Some(q));
            }
            for store in self.shared.archives.lock().expect("archives lock").iter() {
                store.set_tag_quota(tag, Some(q));
            }
        }
        tenants.push(Arc::new(TenantState {
            config,
            tag,
            bytes_used: AtomicU64::new(0),
            inflight: Semaphore::new(config.max_inflight.max(1)),
            metrics: TenantMetrics::default(),
        }));
        TenantId(tag)
    }

    /// Cumulative budget bytes `tenant` has consumed.
    pub fn tenant_bytes_used(&self, tenant: TenantId) -> u64 {
        self.shared
            .tenants
            .lock()
            .expect("tenants lock")
            .get(tenant.0 as usize)
            .map_or(0, |t| t.bytes_used.load(Ordering::Relaxed))
    }

    /// Snapshot every tenant's counters and latency distributions plus the
    /// service-wide merges. Cheap enough to poll: counters are relaxed loads
    /// and each histogram copies a fixed bucket array.
    pub fn metrics_snapshot(&self) -> ServiceMetricsSnapshot {
        let tenants = self.shared.tenants.lock().expect("tenants lock");
        let mut out = Vec::with_capacity(tenants.len());
        let mut queue_wait = HistogramSnapshot::empty();
        let mut latency = HistogramSnapshot::empty();
        for t in tenants.iter() {
            let q = t.metrics.queue_wait_ns.snapshot();
            let l = t.metrics.latency_ns.snapshot();
            queue_wait.merge(&q);
            latency.merge(&l);
            out.push(TenantMetricsSnapshot {
                tenant: TenantId(t.tag),
                workloads: t.metrics.workloads.get(),
                failures: t.metrics.failures.get(),
                requests: t.metrics.requests.get(),
                gets: t.metrics.gets.get(),
                cache_hits: t.metrics.cache_hits.get(),
                cache_misses: t.metrics.cache_misses.get(),
                bytes_used: t.bytes_used.load(Ordering::Relaxed),
                byte_budget: t.config.byte_budget,
                queue_wait_ns: q,
                latency_ns: l,
            });
        }
        ServiceMetricsSnapshot {
            tenants: out,
            queue_wait_ns: queue_wait,
            latency_ns: latency,
        }
    }

    /// [`StoreService::metrics_snapshot`] rendered as a stable JSON document.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// Resolve a submission's tenant and its store at index `id` of
    /// `stores` (the registered containers or archives).
    fn lookup<T>(
        &self,
        tenant: TenantId,
        stores: &Mutex<Vec<Arc<T>>>,
        id: usize,
    ) -> Result<(Arc<TenantState>, Arc<T>), ServiceError> {
        let tenant = self
            .shared
            .tenants
            .lock()
            .expect("tenants lock")
            .get(tenant.0 as usize)
            .cloned()
            .ok_or(ServiceError::UnknownTenant)?;
        let store = stores.lock().expect("stores lock").get(id).cloned();
        Ok((tenant, store.ok_or(ServiceError::UnknownContainer)?))
    }

    /// The one admission body: take a tenant slot and a global slot for
    /// `tenant` — waiting for them when `block`, refusing with
    /// [`ServiceError::Busy`] (and holding nothing) otherwise — then queue
    /// `work` under them.
    fn admit(
        &self,
        tenant: Arc<TenantState>,
        work: Work,
        block: bool,
    ) -> Result<Receiver<ServiceEvent>, ServiceError> {
        if block {
            tenant.inflight.acquire();
            self.shared.global.acquire();
        } else {
            if !tenant.inflight.try_acquire() {
                return Err(ServiceError::Busy);
            }
            if !self.shared.global.try_acquire() {
                tenant.inflight.release();
                return Err(ServiceError::Busy);
            }
        }
        let permits = Permits {
            shared: Arc::clone(&self.shared),
            tenant,
        };
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let (tx, rx) = sync_channel(self.shared.config.event_depth.max(1));
        let mut queue = self.shared.queue.lock().expect("queue lock");
        queue.push_back(Job {
            id: self.shared.next_workload.fetch_add(1, Ordering::Relaxed),
            work,
            permits,
            events: tx,
            enqueued_at: now_nanos(),
        });
        self.shared.queue_cv.notify_one();
        Ok(rx)
    }

    /// Submit a workload on behalf of `tenant` against `container`,
    /// **blocking** while the tenant or the service is at its in-flight
    /// limit (admission backpressure). Returns the workload's event
    /// receiver; events arrive incrementally and end with `WorkloadDone` or
    /// `WorkloadFailed`.
    pub fn submit(
        &self,
        tenant: TenantId,
        container: ContainerId,
        workload: Vec<RetrievalRequest>,
    ) -> Result<Receiver<ServiceEvent>, ServiceError> {
        let (tenant, store) = self.lookup(tenant, &self.shared.containers, container.0)?;
        let requests = workload;
        self.admit(tenant, Work::Container { store, requests }, true)
    }

    /// Non-blocking [`StoreService::submit`]: refuses with
    /// [`ServiceError::Busy`] instead of waiting for an in-flight slot.
    pub fn try_submit(
        &self,
        tenant: TenantId,
        container: ContainerId,
        workload: Vec<RetrievalRequest>,
    ) -> Result<Receiver<ServiceEvent>, ServiceError> {
        let (tenant, store) = self.lookup(tenant, &self.shared.containers, container.0)?;
        let requests = workload;
        self.admit(tenant, Work::Container { store, requests }, false)
    }

    /// Submit a step-spanning archive workload, blocking at the same
    /// admission limits as [`StoreService::submit`]. The event stream
    /// carries the per-step decoders' [`ServiceEvent::Stream`] progress
    /// (including [`StreamEvent::StepReconstructed`] per output step), one
    /// [`ServiceEvent::RequestDone`] per output step, and a terminal
    /// [`ServiceEvent::WorkloadDone`] whose checksum folds every emitted
    /// step's field checksum.
    pub fn submit_archive(
        &self,
        tenant: TenantId,
        archive: ArchiveId,
        request: ArchiveRequest,
    ) -> Result<Receiver<ServiceEvent>, ServiceError> {
        let (tenant, store) = self.lookup(tenant, &self.shared.archives, archive.0)?;
        self.admit(tenant, Work::Archive { store, request }, true)
    }

    /// Stop accepting work, finish queued jobs, and join the workers.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for StoreService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).expect("queue wait");
            }
        };
        run_job(&shared, job);
    }
}

/// Run one workload to completion on the calling worker. Always releases
/// the in-flight permits; always terminates the event stream (unless the
/// client hung up, in which case remaining work is abandoned) — also when
/// the job panics, which this function contains so the worker lives on.
fn run_job(shared: &Shared, job: Job) {
    let Job {
        id,
        work,
        permits,
        events,
        enqueued_at,
    } = job;
    let tenant = &permits.tenant;

    // The steps the job has completed, which is the index of the request it
    // is on: stream events, the next `RequestDone` and a terminal failure
    // (a panic's included) are indexed by it.
    let at = Cell::new(0usize);
    // Unwind safety: everything a job owns (session, meter, reservation) is
    // dropped by the unwind, and what it shares with other jobs is atomics,
    // telemetry and lock-guarded caches whose locks poison visibly.
    let body =
        AssertUnwindSafe(|| run_workload(shared, id, work, tenant, &events, enqueued_at, &at));
    if let Err(panic) = catch_unwind(body) {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        tenant.metrics.failures.incr();
        let _ = events.send(ServiceEvent::WorkloadFailed {
            request: at.get(),
            error: ServiceError::WorkerPanicked(msg),
        });
    }
    // Slots first, stream second: a client that saw its channel close can
    // submit again at once.
    drop(permits);
    drop(events);
}

/// The one job body both kinds of work run through: queue-wait telemetry,
/// the `workload` span, the meter and the session over it, the per-step
/// `RequestDone` report, latency and metrics, and the terminal
/// `WorkloadDone` / `WorkloadFailed`. The per-kind drivers
/// ([`drive_requests`], [`drive_window`]) only gate each fetch on the
/// budget, drive the session, and report each completed step.
fn run_workload(
    shared: &Shared,
    id: u64,
    work: Work,
    tenant: &Arc<TenantState>,
    events: &SyncSender<ServiceEvent>,
    enqueued_at: u64,
    at: &Cell<usize>,
) {
    let started_at = now_nanos();
    let queue_wait = started_at.saturating_sub(enqueued_at);
    tenant.metrics.queue_wait_ns.record(queue_wait);
    crate::obs::metrics().queue_wait_ns.record(queue_wait);

    let (stack, cache, requests) = match &work {
        Work::Container { store, requests } => (store.source(), store.cache(), requests.len()),
        Work::Archive { store, request } => (
            store.source(),
            store.cache(),
            request.end.saturating_sub(request.start),
        ),
    };
    let mut wl_span = span("service", "workload")
        .arg("tenant", tenant.tag as u64)
        .arg("workload", id)
        .arg("requests", requests as u64)
        .arg("queue_ns", queue_wait);
    let meter = cache.map(|cache| {
        Arc::new(MeterSource {
            cache: Arc::clone(cache),
            tenant: Arc::clone(tenant),
            cost: shared.config.cost_model,
            nanos: AtomicU64::new(0),
        })
    });
    // The session reads through the meter when the store has a cache to
    // meter, and through the store's own stack (a plain session) otherwise.
    let source = match &meter {
        Some(m) => Arc::clone(m) as Arc<dyn ChunkSource>,
        None => Arc::clone(stack),
    };
    let sim_nanos = || meter.as_ref().map_or(0, |m| m.nanos());

    // A gone client is detected through `report`; stream events to it are
    // simply dropped.
    let forward = |event| {
        let _ = events.send(ServiceEvent::Stream {
            request: at.get(),
            event,
        });
    };
    let mut steps = Vec::new();
    let mut report = |step: ClientStep| {
        tenant.metrics.requests.incr();
        steps.push(step);
        let done = ServiceEvent::RequestDone {
            request: at.get(),
            step,
            sim_nanos: sim_nanos(),
        };
        at.set(steps.len());
        events.send(done).is_ok()
    };
    let outcome = match work {
        Work::Container { store, requests } => {
            let mut session = store.session_over(source);
            drive_requests(&mut session, &requests, tenant, forward, &mut report)
        }
        Work::Archive { store, request } => {
            let mut session = store.session_over(source);
            drive_window(&mut session, &request, tenant, forward, &mut report)
        }
    };
    match outcome {
        Ok(Some(checksum)) => {
            let sim = sim_nanos();
            // End-to-end latency on the timeline the deployment runs on: the
            // simulated backend clock when a cost model attributes one, the
            // telemetry wall clock otherwise. Recorded from the *same* value
            // the terminal event carries, so a client histogramming its
            // `WorkloadDone` nanos reproduces this histogram exactly.
            let latency = if shared.config.cost_model.is_some() && meter.is_some() {
                sim
            } else {
                now_nanos().saturating_sub(started_at)
            };
            // The outcome carries running byte totals. A container session's
            // steps already do; an archive step reports only its own bytes.
            let mut total = 0;
            for s in &mut steps {
                total += s.bytes_this_request;
                s.bytes_total = total;
            }
            tenant.metrics.workloads.incr();
            tenant.metrics.latency_ns.record(latency);
            crate::obs::metrics().workload_ns.record(latency);
            wl_span.add_arg("latency_ns", latency);
            let _ = events.send(ServiceEvent::WorkloadDone {
                outcome: ClientOutcome { steps, checksum },
                sim_nanos: sim,
            });
        }
        Ok(None) => {} // the client hung up; the rest of the work was dropped
        Err(error) => {
            tenant.metrics.failures.incr();
            let _ = events.send(ServiceEvent::WorkloadFailed {
                request: at.get(),
                error,
            });
        }
    }
    drop(wl_span);
}

/// Drive a container session through its requests. Each is priced against
/// the budget before any I/O — the planner's exact delta given what the
/// session already holds — and the checksum is the last reconstruction's.
/// `Ok(None)` means the client hung up with requests left.
fn drive_requests(
    session: &mut RetrievalSession,
    requests: &[RetrievalRequest],
    tenant: &TenantState,
    forward: impl Fn(StreamEvent),
    mut report: impl FnMut(ClientStep) -> bool,
) -> Result<Option<u64>, ServiceError> {
    let mut last = None;
    for (i, &request) in requests.iter().enumerate() {
        let reserved = reserve(tenant, || Ok(session.plan_ranges(request)?.payload_bytes()))?;
        let out = session
            .retrieve_streaming_events(request, &forward)
            .map_err(ServiceError::Retrieval)?;
        reserved.keep();
        let step = ClientStep {
            bytes_this_request: out.bytes_this_request,
            bytes_total: out.bytes_total,
            error_bound: out.error_bound,
        };
        if !report(step) && i + 1 < requests.len() {
            return Ok(None);
        }
        last = Some(out);
    }
    Ok(Some(
        last.map_or(0, |out| field_checksum(out.data.as_slice())),
    ))
}

/// Drive an archive session through one step-spanning window. The whole
/// plan (chain prefix + output window) is priced up front; each output step
/// is reported as it completes, and the checksum folds every step's field
/// checksum in step order.
fn drive_window(
    session: &mut ArchiveSession,
    request: &ArchiveRequest,
    tenant: &TenantState,
    forward: impl Fn(StreamEvent),
    mut report: impl FnMut(ClientStep) -> bool,
) -> Result<Option<u64>, ServiceError> {
    let reserved = reserve(tenant, || Ok(session.plan_ranges(request)?.payload_bytes()))?;
    let mut checksum = 0u64;
    let on_step = |s: StepRetrieval| {
        // Order-sensitive fold: swapping or dropping a step changes the
        // digest, so a client can verify the whole sweep end to end.
        checksum = checksum
            .rotate_left(17)
            .wrapping_add(field_checksum(s.data.as_slice()));
        report(ClientStep {
            bytes_this_request: s.bytes_step,
            bytes_total: s.bytes_step,
            error_bound: s.error_bound,
        });
    };
    session
        .retrieve_steps_streaming_events(request, &forward, on_step)
        .map_err(ServiceError::Retrieval)?;
    reserved.keep();
    Ok(Some(checksum))
}

/// Reserve what `price` says the next fetch would cost against the tenant's
/// budget — the planner's exact byte count, so an over-budget tenant is
/// refused before any I/O. Unmetered tenants reserve nothing and are never
/// priced.
fn reserve(
    tenant: &TenantState,
    price: impl FnOnce() -> ipcomp::Result<usize>,
) -> Result<Reservation<'_>, ServiceError> {
    if tenant.config.byte_budget.is_none() {
        return tenant.try_reserve(0);
    }
    tenant.try_reserve(price().map_err(ServiceError::Retrieval)? as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipc_tensor::{ArrayD, Shape};
    use ipcomp::source::MemorySource;
    use ipcomp::{compress, Config};

    use crate::session::StoreOptions;

    /// A small serialized container and the reference checksum of the
    /// coarse→fine workload the service tests submit, from a plain resident
    /// decoder (a one-shot 1e-4 decode may legally load a different plane set
    /// than the refinement path) — so the store under test keeps a
    /// stone-cold cache.
    fn toy_container() -> (Vec<u8>, u64) {
        let field = ArrayD::from_fn(Shape::d3(16, 16, 12), |c| {
            (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() * 2.0 + c[2] as f64 * 0.01
        });
        let compressed = compress(&field, 1e-7, &Config::default()).unwrap();
        let mut dec = ipcomp::ProgressiveDecoder::new(&compressed);
        dec.retrieve(RetrievalRequest::ErrorBound(1e-2)).unwrap();
        let out = dec.retrieve(RetrievalRequest::ErrorBound(1e-4)).unwrap();
        (compressed.to_bytes(), field_checksum(out.data.as_slice()))
    }

    fn toy_store(cache_bytes: usize) -> (Arc<ContainerStore>, u64) {
        let (bytes, reference) = toy_container();
        let store = ContainerStore::open(
            Arc::new(MemorySource::new(bytes)),
            StoreOptions {
                cache_bytes,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        (store, reference)
    }

    fn drain(rx: Receiver<ServiceEvent>) -> (Vec<ServiceEvent>, Option<ClientOutcome>) {
        let mut events = Vec::new();
        let mut outcome = None;
        while let Ok(ev) = rx.recv() {
            if let ServiceEvent::WorkloadDone { outcome: o, .. } = &ev {
                outcome = Some(o.clone());
            }
            events.push(ev);
        }
        (events, outcome)
    }

    #[test]
    fn workload_streams_events_then_completes_bit_identical() {
        let (store, reference) = toy_store(1 << 20);
        let service = StoreService::new(ServiceConfig::default());
        let cid = service.register_container(store);
        let tid = service.register_tenant(TenantConfig::default());
        let rx = service
            .submit(
                tid,
                cid,
                vec![
                    RetrievalRequest::ErrorBound(1e-2),
                    RetrievalRequest::ErrorBound(1e-4),
                ],
            )
            .unwrap();
        let (events, outcome) = drain(rx);
        let outcome = outcome.expect("workload completed");
        assert_eq!(outcome.steps.len(), 2);
        assert_eq!(outcome.checksum, reference);
        // Stream events arrived before their request's completion, and both
        // kinds of progress were forwarded.
        let first_stream = events
            .iter()
            .position(|e| matches!(e, ServiceEvent::Stream { .. }))
            .expect("stream events forwarded");
        let first_done = events
            .iter()
            .position(|e| matches!(e, ServiceEvent::RequestDone { .. }))
            .unwrap();
        assert!(first_stream < first_done);
        assert!(events.iter().any(|e| matches!(
            e,
            ServiceEvent::Stream {
                event: StreamEvent::LevelReconstructed(_),
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            ServiceEvent::Stream {
                event: StreamEvent::Region(_),
                ..
            }
        )));
    }

    #[test]
    fn byte_budget_refuses_before_any_io() {
        let (store, _) = toy_store(1 << 20);
        let backend_stats = store.cache_stats().unwrap();
        let service = StoreService::new(ServiceConfig::default());
        let cid = service.register_container(Arc::clone(&store));
        let broke = service.register_tenant(TenantConfig {
            byte_budget: Some(16), // can't afford anything
            ..TenantConfig::default()
        });
        let rx = service
            .submit(broke, cid, vec![RetrievalRequest::ErrorBound(1e-2)])
            .unwrap();
        let (events, outcome) = drain(rx);
        assert!(outcome.is_none());
        assert!(matches!(
            events.last(),
            Some(ServiceEvent::WorkloadFailed {
                error: ServiceError::BudgetExhausted { .. },
                ..
            })
        ));
        // Nothing was fetched on the broke tenant's behalf.
        let after = store.cache_stats().unwrap();
        assert_eq!(after.misses, backend_stats.misses);
        assert_eq!(service.tenant_bytes_used(broke), 0);
        // A funded tenant on the same service proceeds.
        let funded = service.register_tenant(TenantConfig {
            byte_budget: Some(u64::MAX / 2),
            ..TenantConfig::default()
        });
        let rx = service
            .submit(funded, cid, vec![RetrievalRequest::ErrorBound(1e-2)])
            .unwrap();
        let (_, outcome) = drain(rx);
        assert!(outcome.is_some());
        assert!(service.tenant_bytes_used(funded) > 0);
    }

    #[test]
    fn budget_spans_requests_and_cuts_off_refinement() {
        let (store, _) = toy_store(1 << 20);
        let service = StoreService::new(ServiceConfig::default());
        let cid = service.register_container(store);
        // Budget sized so the coarse step fits but the full refinement does
        // not: price both steps through a probe tenant first.
        let probe = service.register_tenant(TenantConfig::default());
        let rx = service
            .submit(probe, cid, vec![RetrievalRequest::ErrorBound(1e-2)])
            .unwrap();
        let (_, probe_out) = drain(rx);
        let coarse_bytes = probe_out.unwrap().steps[0].bytes_this_request as u64;
        let capped = service.register_tenant(TenantConfig {
            byte_budget: Some(coarse_bytes + 8),
            ..TenantConfig::default()
        });
        let rx = service
            .submit(
                capped,
                cid,
                vec![RetrievalRequest::ErrorBound(1e-2), RetrievalRequest::Full],
            )
            .unwrap();
        let (events, outcome) = drain(rx);
        assert!(outcome.is_none());
        // First request done, second refused.
        assert!(events
            .iter()
            .any(|e| matches!(e, ServiceEvent::RequestDone { request: 0, .. })));
        assert!(matches!(
            events.last(),
            Some(ServiceEvent::WorkloadFailed {
                request: 1,
                error: ServiceError::BudgetExhausted { .. },
            })
        ));
    }

    #[test]
    fn try_submit_refuses_when_tenant_inflight_full() {
        let (store, _) = toy_store(1 << 20);
        // One worker and an event queue of depth 1 that nobody drains: the
        // worker blocks forwarding events, pinning the workload in flight.
        let service = StoreService::new(ServiceConfig {
            workers: 1,
            max_inflight: 8,
            event_depth: 1,
            cost_model: None,
        });
        let cid = service.register_container(store);
        let tid = service.register_tenant(TenantConfig {
            max_inflight: 1,
            ..TenantConfig::default()
        });
        let rx = service
            .submit(tid, cid, vec![RetrievalRequest::ErrorBound(1e-3)])
            .unwrap();
        // The undrained first workload keeps the tenant at its limit.
        let refused = service.try_submit(tid, cid, vec![RetrievalRequest::ErrorBound(1e-2)]);
        assert!(matches!(refused, Err(ServiceError::Busy)));
        // Draining unblocks the worker and completes the workload ...
        let (_, outcome) = drain(rx);
        assert!(outcome.is_some());
        // ... after which the tenant may submit again.
        let rx = service
            .try_submit(tid, cid, vec![RetrievalRequest::ErrorBound(1e-2)])
            .unwrap();
        assert!(drain(rx).1.is_some());
    }

    #[test]
    fn cost_model_attributes_miss_cost_to_workloads() {
        let (store, _) = toy_store(1 << 20);
        let service = StoreService::new(ServiceConfig {
            cost_model: Some(CostModel {
                latency_per_request: Duration::from_millis(5),
                throughput_bytes_per_sec: 200e6,
                coalesce_gap: 4096,
            }),
            ..ServiceConfig::default()
        });
        let cid = service.register_container(store);
        let tid = service.register_tenant(TenantConfig::default());
        let run = |req| {
            let rx = service.submit(tid, cid, vec![req]).unwrap();
            let mut nanos = None;
            while let Ok(ev) = rx.recv() {
                if let ServiceEvent::WorkloadDone { sim_nanos, .. } = ev {
                    nanos = Some(sim_nanos);
                }
            }
            nanos.expect("completed")
        };
        let cold = run(RetrievalRequest::ErrorBound(1e-3));
        // Same request again: everything hits the now-warm cache.
        let warm = run(RetrievalRequest::ErrorBound(1e-3));
        assert!(cold > 0, "cold workload must pay simulated latency");
        assert_eq!(warm, 0, "warm workload is all cache hits: {warm}");
    }

    #[test]
    fn metrics_snapshot_attributes_traffic_per_tenant() {
        let cost_model = CostModel {
            latency_per_request: Duration::from_millis(5),
            throughput_bytes_per_sec: 200e6,
            coalesce_gap: 4096,
        };
        // Latency runs on the simulated backend clock with a cost model and
        // on the telemetry wall clock without one.
        for cost_model in [Some(cost_model), None] {
            attributes_traffic_per_tenant(cost_model);
        }
    }

    fn attributes_traffic_per_tenant(cost_model: Option<CostModel>) {
        let (store, _) = toy_store(1 << 20);
        let service = StoreService::new(ServiceConfig {
            cost_model,
            ..ServiceConfig::default()
        });
        let cid = service.register_container(store);
        let busy = service.register_tenant(TenantConfig::default());
        let idle = service.register_tenant(TenantConfig::default());
        let mut done_nanos = Vec::new();
        for req in [
            RetrievalRequest::ErrorBound(1e-2),
            RetrievalRequest::ErrorBound(1e-4),
            RetrievalRequest::ErrorBound(1e-4), // warm repeat: all hits
        ] {
            let rx = service.submit(busy, cid, vec![req]).unwrap();
            while let Ok(ev) = rx.recv() {
                if let ServiceEvent::WorkloadDone { sim_nanos, .. } = ev {
                    done_nanos.push(sim_nanos);
                }
            }
        }
        let snap = service.metrics_snapshot();
        assert_eq!(snap.tenants.len(), 2);
        let t = &snap.tenants[busy.0 as usize];
        assert_eq!(t.tenant, busy);
        assert_eq!(t.workloads, 3);
        assert_eq!(t.requests, 3);
        assert_eq!(t.failures, 0);
        assert!(t.gets > 0, "cold workloads must have hit the backend");
        assert!(t.cache_misses > 0);
        assert!(t.cache_hits > 0, "the warm repeat must have hit the cache");
        assert!(t.hit_rate() > 0.0 && t.hit_rate() < 1.0);
        // The idle tenant saw none of that traffic.
        let z = &snap.tenants[idle.0 as usize];
        assert_eq!(
            (z.workloads, z.requests, z.gets, z.cache_hits),
            (0, 0, 0, 0)
        );
        // The JSON document is well-formed enough to carry both tenants.
        let json = service.metrics_json();
        assert!(json.starts_with("{\"schema\": \"ipc-service-metrics-v1\""));
        assert!(json.contains("\"tenants\": [{\"tenant\": 0,"));

        assert_eq!(t.latency_ns.count, 3);
        assert_eq!(t.queue_wait_ns.count, 3);
        assert!(t.latency_ns.sum > 0, "three workloads took no time");
        if cost_model.is_none() {
            return;
        }
        // On the simulated clock the service-side latency histogram is fed
        // from the same values the client observed on its WorkloadDone
        // events — percentiles must agree exactly.
        let client_side = ipc_telemetry::Histogram::new();
        for &n in &done_nanos {
            client_side.record(n);
        }
        let client = client_side.snapshot();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(t.latency_ns.percentile(q), client.percentile(q), "q={q}");
        }
        assert_eq!(t.latency_ns.sum, client.sum);
    }

    /// A job that panics (here: a backend that panics on reads once armed)
    /// must not take the service down with it: the stream ends with one
    /// terminal `WorkloadFailed`, the byte reservation and both permits come
    /// back, and the same single worker serves the next workload.
    #[test]
    fn panicking_job_fails_its_stream_and_frees_the_service() {
        struct Flaky {
            inner: MemorySource,
            armed: AtomicBool,
        }
        impl ChunkSource for Flaky {
            fn len(&self) -> u64 {
                self.inner.len()
            }
            fn read_ranges(&self, ranges: &[ByteRange]) -> ipcomp::Result<Vec<Bytes>> {
                assert!(!self.armed.load(Ordering::SeqCst), "backend bug");
                self.inner.read_ranges(ranges)
            }
        }

        let (bytes, reference) = toy_container();
        let source = Arc::new(Flaky {
            inner: MemorySource::new(bytes),
            armed: AtomicBool::new(false),
        });
        let store = ContainerStore::open(
            Arc::clone(&source) as Arc<dyn ChunkSource>,
            StoreOptions::default(),
        )
        .unwrap();
        // One worker, one permit: a leaked permit or a dead worker would
        // leave the second submission refused or hanging.
        let service = StoreService::new(ServiceConfig {
            workers: 1,
            max_inflight: 1,
            ..ServiceConfig::default()
        });
        let cid = service.register_container(store);
        let tid = service.register_tenant(TenantConfig {
            byte_budget: Some(u64::MAX / 2),
            max_inflight: 1,
            ..TenantConfig::default()
        });
        let workload = vec![
            RetrievalRequest::ErrorBound(1e-2),
            RetrievalRequest::ErrorBound(1e-4),
        ];

        let used_before = service.tenant_bytes_used(tid);
        source.armed.store(true, Ordering::SeqCst);
        let rx = service.try_submit(tid, cid, workload.clone()).unwrap();
        let (events, outcome) = drain(rx);
        assert!(outcome.is_none());
        let terminal: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::WorkloadFailed { .. }))
            .collect();
        assert_eq!(terminal.len(), 1);
        assert!(matches!(
            events.last(),
            Some(ServiceEvent::WorkloadFailed {
                request: 0,
                error: ServiceError::WorkerPanicked(msg),
            }) if msg.contains("backend bug")
        ));
        assert_eq!(service.tenant_bytes_used(tid), used_before);
        assert_eq!(service.metrics_snapshot().tenants[0].failures, 1);

        source.armed.store(false, Ordering::SeqCst);
        let rx = service.try_submit(tid, cid, workload).unwrap();
        let (_, outcome) = drain(rx);
        assert_eq!(
            outcome.expect("healthy workload completes").checksum,
            reference
        );
        assert!(service.tenant_bytes_used(tid) > used_before);
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let service = StoreService::new(ServiceConfig::default());
        let err = service.submit(TenantId(0), ContainerId(0), vec![]);
        assert!(matches!(err, Err(ServiceError::UnknownTenant)));
        let tid = service.register_tenant(TenantConfig::default());
        let err = service.submit(tid, ContainerId(3), vec![]);
        assert!(matches!(err, Err(ServiceError::UnknownContainer)));
    }
}
