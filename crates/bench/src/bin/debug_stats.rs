//! Developer tool: dump full simulator statistics for one workload on
//! every machine, baseline vs. auto-prefetched vs. manual, plus each
//! variant's static code profile (decoded instruction count and memory-op
//! sites from the `ExecImage`) so static code-size overhead can be read
//! against the dynamic counts. Not part of the figure set; useful when
//! calibrating the machine models.
//!
//! Per-PC profiling (`swpf_sim::perf`) is force-enabled: each variant
//! row is followed by its prefetch-outcome partition, and the
//! conservation invariant (`timely + late + early_evicted + redundant +
//! dropped + unused == issued`) is asserted per cell — so this binary
//! doubles as a profiling smoke check.
//!
//! Usage: `debug_stats [IS|CG|RA|HJ-2|HJ-8|G500-s16|G500-s21]`
//! (no argument: every workload in the suite)

use std::sync::Arc;
use swpf_bench::{auto_module, scale_from_env_or_exit};
use swpf_core::PassConfig;
use swpf_ir::exec::ExecImage;
use swpf_ir::Module;
use swpf_sim::{MachineConfig, SimRun, SimStats};
use swpf_workloads::Workload;

fn dump(tag: &str, s: &SimStats) {
    println!(
        "  {tag:<9} cyc={:>12} inst={:>10} ld={:>9} pf={:>8} l1m={:>8} l2m={:>8} tlbm={:>8} dramR={:>8} dramW={:>8} late={:>7} drop={:>6} redun={:>7} ipc={:.2}",
        s.cycles,
        s.insts.total,
        s.insts.loads,
        s.insts.prefetches,
        s.l1_misses,
        s.l2_misses,
        s.tlb_misses,
        s.dram_lines_read,
        s.dram_lines_written,
        s.mem.late_fill_hits,
        s.mem.sw_prefetches_dropped,
        s.mem.sw_prefetches_redundant(),
        s.ipc(),
    );
}

/// Print the prefetch-outcome partition and assert its conservation
/// invariant plus consistency with the aggregate counters.
fn dump_perf(machine: &str, workload: &str, tag: &str, run: &SimRun) {
    let p = run.perf.as_ref().expect("perf profiling force-enabled");
    let t = p.totals();
    println!(
        "  {tag:<9}   perf: issued={:>8} timely={:>8} late={:>7} early={:>7} redun_res={:>7} redun_inf={:>7} drop={:>6} unused={:>6} sites={:>3} lead_mean={:>6.0}cyc stall={:>10}cyc",
        t.issued,
        t.timely,
        t.late,
        t.early_evicted,
        t.redundant_resident,
        t.redundant_inflight,
        t.dropped,
        t.unused_at_end,
        p.sites.len(),
        t.lead_cycles.mean(),
        p.total_stall_cycles(),
    );
    assert!(
        p.conserved(),
        "{machine}/{workload}/{tag}: outcome partition must be conserved: {t:?}"
    );
    // The partition totals must agree with the aggregate counters the
    // memory system keeps unconditionally.
    let mem = run.stats.mem;
    assert_eq!(t.issued, mem.sw_prefetches, "{machine}/{workload}/{tag}");
    assert_eq!(
        t.dropped, mem.sw_prefetches_dropped,
        "{machine}/{workload}/{tag}"
    );
    assert_eq!(
        t.redundant_resident, mem.sw_prefetches_redundant_resident,
        "{machine}/{workload}/{tag}"
    );
    assert_eq!(
        t.redundant_inflight, mem.sw_prefetches_redundant_inflight,
        "{machine}/{workload}/{tag}"
    );
}

/// Static code profile of the kernel: decoded instruction count plus
/// load/store/prefetch site counts, read from the decoded image's
/// per-instruction metadata.
fn dump_static(tag: &str, m: &Module) {
    let f = m.find_function("kernel").expect("kernel exists");
    let image = ExecImage::build(m);
    let (mut loads, mut stores, mut prefetches) = (0u32, 0u32, 0u32);
    for v in 0..m.function(f).num_values() as u64 {
        let Some(meta) = image.static_meta((u64::from(f.0) << 32) | v) else {
            continue;
        };
        loads += u32::from(meta.is_load);
        stores += u32::from(meta.is_store);
        prefetches += u32::from(meta.is_prefetch);
    }
    println!(
        "  {tag:<9} static: {} decoded inst, {loads} load / {stores} store / {prefetches} prefetch sites",
        image.code_len(f),
    );
}

/// Simulate with per-PC profiling attached.
fn simulate_perf(cfg: &MachineConfig, w: &dyn Workload, m: &Module) -> SimRun {
    let f = m.find_function("kernel").expect("kernel exists");
    let image = Arc::new(ExecImage::build(m));
    swpf_sim::run_on_machine_image_perf(cfg, &image, f, |interp| w.setup(interp))
}

fn run_workload(w: &dyn Workload, config: &PassConfig) {
    println!("static code profile / {}", w.name());
    dump_static("base", &w.build_baseline());
    dump_static("auto", &auto_module(w, config));
    dump_static("manual", &w.build_manual(config.look_ahead));
    for machine in MachineConfig::all_systems() {
        println!("{} / {}", machine.name, w.name());
        let base = simulate_perf(&machine, w, &w.build_baseline());
        dump("base", &base.stats);
        dump_perf(machine.name, w.name(), "base", &base);
        let auto = simulate_perf(&machine, w, &auto_module(w, config));
        dump("auto", &auto.stats);
        dump_perf(machine.name, w.name(), "auto", &auto);
        let manual = simulate_perf(&machine, w, &w.build_manual(config.look_ahead));
        dump("manual", &manual.stats);
        dump_perf(machine.name, w.name(), "manual", &manual);
        println!(
            "  speedup: auto {:.2}x manual {:.2}x",
            auto.stats.speedup_vs(&base.stats),
            manual.stats.speedup_vs(&base.stats)
        );
    }
}

fn main() {
    swpf_sim::perf::set_enabled(true);
    let which = std::env::args().nth(1);
    let scale = scale_from_env_or_exit();
    let config = PassConfig::default();
    let suite = swpf_workloads::suite(scale);
    match which {
        Some(name) => {
            let w = suite
                .iter()
                .find(|w| w.name() == name)
                .unwrap_or_else(|| panic!("unknown workload `{name}`"));
            run_workload(w.as_ref(), &config);
        }
        // No argument: the whole suite, asserting the conservation
        // invariant on every workload × machine × variant cell.
        None => {
            for w in &suite {
                run_workload(w.as_ref(), &config);
            }
        }
    }
}
