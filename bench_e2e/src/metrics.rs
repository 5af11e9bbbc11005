//! The metric names this benchmark defines, with unit and direction. Later
//! issues cite these names verbatim; `BENCHMARK.json` lists the same set
//! (a unit test keeps the two in step).

/// `(name, unit, better)` of every end-to-end metric (untraced run).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("io_bytes_per_op", "B", "lower"),
    ("backend_requests_per_op", "count", "lower"),
    ("sim_backend_ms_per_op", "ms", "lower"),
    ("stored_ratio", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_share", "ratio", "higher"),
];

/// `(name, unit, better)` of every per-layer metric (traced run). A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // ipc_datagen
    ("datagen.generate_s", "s", "lower"),
    // ipcomp::interp + quantize
    ("interp.predict_quantize_ms", "ms", "lower"),
    ("interp.mcoeff_per_s", "M/s", "higher"),
    // ipcomp::bitplane + ipc_codecs (encode) + precinct permutation
    ("bitplane.encode_ms", "ms", "lower"),
    ("bitplane.encode_precincts_ms", "ms", "lower"),
    ("bitplane.chunks_per_op", "count", "lower"),
    ("bitplane.us_per_chunk", "us", "lower"),
    ("codecs.negabinary_ms", "ms", "lower"),
    ("codecs.bitslice_ms", "ms", "lower"),
    ("codecs.entropy_encode_ms", "ms", "lower"),
    ("codecs.entropy_encode_mb_s", "MB/s", "higher"),
    ("precinct.permute_ms", "ms", "lower"),
    // ipcomp::container
    ("container.serialize_ms", "ms", "lower"),
    ("container.bytes", "B", "lower"),
    ("container.index_bytes", "B", "lower"),
    ("container.v3_over_v2_bytes", "ratio", "lower"),
    ("container.map_open_ms", "ms", "lower"),
    ("container.map_gets", "count", "lower"),
    ("container.map_bytes", "B", "lower"),
    // ipcomp::optimizer + ipc_store::planner
    ("planner.plan_ms", "ms", "lower"),
    ("planner.chunks", "count", "lower"),
    ("planner.bytes", "B", "lower"),
    ("planner.bytes_over_fetched", "ratio", "higher"),
    // ipc_store::coalesce
    ("coalesce.merge_ms", "ms", "lower"),
    ("coalesce.gets_in", "count", "lower"),
    ("coalesce.gets_out", "count", "lower"),
    ("coalesce.gap_fill_bytes", "B", "lower"),
    // ipc_store::sim / file
    ("backend.read_ms.open", "ms", "lower"),
    ("backend.read_ms.payload", "ms", "lower"),
    ("backend.gets.open", "count", "lower"),
    ("backend.gets.payload", "count", "lower"),
    ("backend.bytes.open", "B", "lower"),
    ("backend.bytes.payload", "B", "lower"),
    ("backend.sim_ms.open", "ms", "lower"),
    ("backend.sim_ms.payload", "ms", "lower"),
    // ipc_store::cache
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.resident_bytes", "B", "lower"),
    ("cache.entries", "count", "lower"),
    ("cache.warm_read_ms", "ms", "lower"),
    // ipcomp::pipeline
    ("pipeline.entropy_decode_ms", "ms", "lower"),
    ("pipeline.entropy_decode_mb_s", "MB/s", "higher"),
    ("pipeline.scatter_ms", "ms", "lower"),
    ("pipeline.scatter_mb_s", "MB/s", "higher"),
    ("pipeline.regions", "count", "lower"),
    // ipcomp::cascade
    ("cascade.reconstruct_ms", "ms", "lower"),
    ("cascade.mcoeff_per_s", "M/s", "higher"),
    ("cascade.passes_per_op", "count", "lower"),
    // ipcomp::progressive + ipc_store::session
    ("progressive.retrieve_ms", "ms", "lower"),
    ("progressive.resident_retrieve_ms", "ms", "lower"),
    ("session.stack_overhead_ms", "ms", "lower"),
    ("progressive.rung1_ms", "ms", "lower"),
    ("progressive.rung2_ms", "ms", "lower"),
    ("progressive.rung3_ms", "ms", "lower"),
    ("progressive.rung4_ms", "ms", "lower"),
    ("progressive.rung1_bytes", "B", "lower"),
    ("progressive.rung2_bytes", "B", "lower"),
    ("progressive.rung3_bytes", "B", "lower"),
    ("progressive.rung4_bytes", "B", "lower"),
    ("progressive.refine_over_scratch", "ratio", "lower"),
    // ipcomp::precinct
    ("precinct.mask_ms", "ms", "lower"),
    ("precinct.selected", "count", "lower"),
    ("roi.bytes_over_ideal", "ratio", "lower"),
    ("roi.sim_ms_over_full_domain", "ratio", "lower"),
    // ipcomp::archive + ipc_store::archive
    ("archive.build_s_per_step", "s", "lower"),
    ("archive.map_open_ms", "ms", "lower"),
    ("archive.plan_ms", "ms", "lower"),
    ("archive.chain_steps", "count", "lower"),
    ("archive.output_steps", "count", "higher"),
    ("archive.step_p50_ms", "ms", "lower"),
    ("archive.gets_per_output_step", "count", "lower"),
    ("archive.bytes_over_independent", "ratio", "lower"),
    // ipc_store::service
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.submit_block_ms", "ms", "lower"),
    ("service.run_p50_ms", "ms", "lower"),
    ("service.worker_busy_share", "ratio", "higher"),
    ("service.events_per_op", "count", "lower"),
    ("service.refused", "count", "lower"),
    // harness (no layer)
    ("harness.op_p50_ms", "ms", "lower"),
    ("harness.op_p90_ms", "ms", "lower"),
    ("harness.op_p99_ms", "ms", "lower"),
    ("harness.block_spread", "ratio", "lower"),
    ("harness.cpu_ms_per_op", "ms", "lower"),
    ("harness.op_p50_ms_default_threads", "ms", "lower"),
    ("harness.threads", "count", "higher"),
    ("harness.layers_sum_over_op", "ratio", "lower"),
    ("harness.unattributed_ms", "ms", "lower"),
    ("harness.trace_overhead_share", "ratio", "lower"),
    ("harness.most_work_share", "ratio", "higher"),
    ("harness.little_work_share", "ratio", "lower"),
    ("check.linf_over_bound", "ratio", "lower"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.0 == name)
        .map(|m| m.1)
}
