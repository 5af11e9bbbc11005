//! Registry handles for the decode stack's instrumentation.
//!
//! One lazily-resolved bundle of `'static` telemetry handles, so the hot
//! paths (per-region stage calls, per-level cascade passes) never touch the
//! registry lock — they pay one `OnceLock` load plus whatever the instrument
//! itself costs.

use std::sync::OnceLock;

use ipc_telemetry::{Counter, Histogram};

/// Handles for every metric the ipcomp layer records.
pub struct DecodeMetrics {
    /// Duration of one fetch group's read (ns); resident levels are
    /// borrowed.
    pub fetch_ns: &'static Histogram,
    /// Compressed bytes of the fetch groups read.
    pub fetch_bytes: &'static Counter,
    /// Per-region entropy-stage duration (ns).
    pub entropy_ns: &'static Histogram,
    /// Packed plane bytes produced by the entropy stage.
    pub entropy_bytes: &'static Counter,
    /// Per-region scatter-stage duration (ns).
    pub scatter_ns: &'static Histogram,
    /// Per-dimension cascade sub-pass duration (ns).
    pub cascade_pass_ns: &'static Histogram,
    /// End-to-end retrieve duration (ns), with or without an event sink.
    pub retrieve_ns: &'static Histogram,
    /// Retrieval requests completed.
    pub retrieves: &'static Counter,
    /// Compressed payload bytes consumed by completed retrievals.
    pub retrieve_bytes: &'static Counter,
}

/// The process-wide ipcomp metric bundle.
pub fn metrics() -> &'static DecodeMetrics {
    static METRICS: OnceLock<DecodeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| DecodeMetrics {
        fetch_ns: ipc_telemetry::histogram("ipcomp.pipeline.fetch_ns"),
        fetch_bytes: ipc_telemetry::counter("ipcomp.pipeline.fetch_bytes"),
        entropy_ns: ipc_telemetry::histogram("ipcomp.pipeline.entropy_ns"),
        entropy_bytes: ipc_telemetry::counter("ipcomp.pipeline.entropy_bytes"),
        scatter_ns: ipc_telemetry::histogram("ipcomp.pipeline.scatter_ns"),
        cascade_pass_ns: ipc_telemetry::histogram("ipcomp.cascade.pass_ns"),
        retrieve_ns: ipc_telemetry::histogram("ipcomp.retrieve.ns"),
        retrieves: ipc_telemetry::counter("ipcomp.retrieve.requests"),
        retrieve_bytes: ipc_telemetry::counter("ipcomp.retrieve.bytes"),
    })
}

/// Handles for the time-series archive layer's metrics.
pub struct ArchiveMetrics {
    /// Output timesteps reconstructed and emitted.
    pub steps: &'static Counter,
    /// Keyframe step decodes (output or chain).
    pub keyframes: &'static Counter,
    /// Residual step decodes (output or chain).
    pub residuals: &'static Counter,
    /// Requests that resumed from a cached chain base instead of re-decoding
    /// the keyframe prefix.
    pub chain_reuse: &'static Counter,
    /// Archive bytes fetched across all step decodes.
    pub bytes: &'static Counter,
    /// Per-step wall time (decode + chain composition), ns.
    pub step_ns: &'static Histogram,
}

/// The process-wide archive metric bundle.
pub fn archive_metrics() -> &'static ArchiveMetrics {
    static METRICS: OnceLock<ArchiveMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ArchiveMetrics {
        steps: ipc_telemetry::counter("ipcomp.archive.steps"),
        keyframes: ipc_telemetry::counter("ipcomp.archive.keyframes"),
        residuals: ipc_telemetry::counter("ipcomp.archive.residuals"),
        chain_reuse: ipc_telemetry::counter("ipcomp.archive.chain_reuse"),
        bytes: ipc_telemetry::counter("ipcomp.archive.bytes"),
        step_ns: ipc_telemetry::histogram("ipcomp.archive.step_ns"),
    })
}
