//! The names this benchmark emits. `BENCHMARK.json` lists the same
//! names (`tests/contract.rs` compares the two), and adds each metric's
//! direction and bound.

/// `(name, unit)` of every end-to-end metric, reported per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("work_per_s", "kops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_share", "ratio"),
    ("sim_speedup_geomean", "ratio"),
];

/// Per-layer metrics the runner reads from the product's artifacts and
/// from its own accounting of the children, per workload.
pub const RUNNER_LAYER: [(&str, &str); 35] = [
    ("sim.events", "count"),
    ("sim.cycles", "count"),
    ("sim.cycles_per_event", "ratio"),
    ("sim.l1_hits", "count"),
    ("sim.l1_misses", "count"),
    ("sim.l2_hits", "count"),
    ("sim.l2_misses", "count"),
    ("sim.tlb_hits", "count"),
    ("sim.tlb_misses", "count"),
    ("sim.dram_lines_read", "count"),
    ("sim.dram_lines_written", "count"),
    ("sim.sw_prefetches", "count"),
    ("sim.sw_prefetches_dropped", "count"),
    ("sim.sw_prefetches_redundant", "count"),
    ("sim.late_fill_hits", "count"),
    ("sim.hw_prefetch_fills", "count"),
    ("sim.sw_prefetch_useful_share", "ratio"),
    ("trace.cache_hits", "count"),
    ("trace.cache_misses", "count"),
    ("trace.dir_bytes", "bytes"),
    ("trace.bytes_per_event", "bytes"),
    ("bench.jobs", "count"),
    ("bench.checks_passed", "count"),
    ("bench.checks_failed", "count"),
    ("bench.cell_wall_sum_s", "s"),
    ("bench.harness_overhead_s", "s"),
    ("bench.child_user_s", "s"),
    ("bench.child_sys_s", "s"),
    ("build.cargo_s", "s"),
    ("core.prefetches_inserted", "count"),
    ("core.loads_skipped", "count"),
    ("ir.output_bytes", "bytes"),
    ("ir.parse_verify_print_s", "s"),
    ("core.swpf_s", "s"),
    ("pass.cleanup_s", "s"),
];

/// Suffixes of the four probe cells of the traced run.
pub const PROBE_CELLS: [&str; 4] = ["hj8_ooo", "hj8_inorder", "is_auto_ooo", "ra_auto_ooo"];

/// Host-time metrics the layer probe reports once per probe cell, as
/// `<name>.<cell>`.
pub const PROBE_PER_CELL: [(&str, &str); 11] = [
    ("ir.interp_ns_per_event", "ns"),
    ("ir.interp_counting_ns_per_event", "ns"),
    ("sim.direct_ns_per_event", "ns"),
    ("sim.replay_ns_per_event", "ns"),
    ("sim.memsys_ns_per_access", "ns"),
    ("sim.core_ns_per_event", "ns"),
    ("trace.record_ns_per_event", "ns"),
    ("trace.compress_ns_per_event", "ns"),
    ("trace.decompress_ns_per_event", "ns"),
    ("trace.stream_ns_per_event", "ns"),
    ("probe.reconcile_gap_share", "ratio"),
];

/// Host-time metrics the layer probe reports once, summed over its
/// three kernels.
pub const PROBE_ONCE: [(&str, &str); 11] = [
    ("workloads.build_us", "us"),
    ("workloads.setup_ms", "ms"),
    ("analysis.compute_us", "us"),
    ("core.compile_us", "us"),
    ("pass.pipeline_full_us", "us"),
    ("ir.verify_us", "us"),
    ("ir.print_us", "us"),
    ("ir.parse_us", "us"),
    ("ir.decode_us", "us"),
    ("ir.lower_us", "us"),
    ("tune.compile_candidate_us", "us"),
];

/// `(name, unit)` of every metric the layer probe must print.
#[must_use]
pub fn probe_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, unit) in PROBE_PER_CELL {
        for cell in PROBE_CELLS {
            out.push((format!("{name}.{cell}"), unit));
        }
    }
    out.extend(PROBE_ONCE.iter().map(|(n, u)| ((*n).to_string(), *u)));
    out
}

/// `(name, unit)` of every per-layer metric, runner's first.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<_> = RUNNER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_string(), *u))
        .collect();
    out.extend(probe_metrics());
    out
}
