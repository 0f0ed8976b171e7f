//! Cells that two experiments both simulate. Fig. 9's one-core cells
//! run IS on the Haswell preset, and so do Fig. 10's huge-page cells:
//! the preset already uses 2 MiB pages, so `with_huge_pages` changes no
//! parameter and only the display name differs. Keying cells on what
//! determines them (`MachineConfig::parameters`, the kernel, the core
//! count) would simulate each pair once; this pins that both members of
//! a pair agree counter for counter, so such a key cannot change a
//! result. Their kernels already share one trace file: the cache names
//! a file by the kernel's fingerprint, not by the cell's label.

use swpf_bench::experiments;
use swpf_bench::harness::{run_experiment, ExperimentResult, RunOptions, TracePolicy};
use swpf_sim::MachineConfig;
use swpf_workloads::Scale;

fn run(name: &str) -> ExperimentResult {
    let exp = experiments::by_name(name, Scale::Test).expect("experiment exists");
    run_experiment(&exp, &RunOptions::default())
}

fn counters(res: &ExperimentResult, machine: &str, variant: &str) -> Vec<Vec<(&'static str, u64)>> {
    let cell = res
        .cells
        .iter()
        .find(|c| c.machine == machine && c.workload == "IS" && c.variant == variant)
        .unwrap_or_else(|| panic!("{} has no {machine} IS {variant} cell", res.name));
    cell.cores.iter().map(|s| s.counters()).collect()
}

#[test]
fn huge_pages_are_the_haswell_preset() {
    assert_eq!(
        MachineConfig::haswell().with_huge_pages().parameters(),
        MachineConfig::haswell().parameters()
    );
}

#[test]
fn fig9_one_core_cells_equal_fig10_huge_page_cells() {
    let (fig9, fig10) = (run("fig9"), run("fig10"));
    for (multicore, single) in [("mc1_baseline", "baseline"), ("mc1_auto", "auto")] {
        assert_eq!(
            counters(&fig9, "haswell", multicore),
            counters(&fig10, "haswell_huge", single),
            "fig9 {multicore} vs fig10 haswell_huge {single}"
        );
    }
}

#[test]
fn fig10_streams_the_kernels_fig9_recorded() {
    let dir = std::env::temp_dir().join(format!("swpf_shared_cache_{}", std::process::id()));
    let with_dir = |name: &str| {
        let exp = experiments::by_name(name, Scale::Test).expect("experiment exists");
        run_experiment(
            &exp,
            &RunOptions {
                threads: 1,
                trace: TracePolicy::Dir(dir.clone()),
                ..RunOptions::default()
            },
        )
    };
    let fig9 = with_dir("fig9");
    let fig10 = with_dir("fig10");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(fig9.trace_misses(), 6);
    // fig10 runs 3 workloads × {baseline, auto}; IS's two kernels are
    // fig9's one-core kernels, already on disk.
    assert_eq!(fig10.trace_misses(), 4, "IS baseline and auto stream");
    for variant in ["baseline", "auto"] {
        for machine in ["haswell_small", "haswell_huge"] {
            let cell = fig10
                .cell(machine, "IS", variant)
                .expect("fig10 has the cell");
            assert!(cell.replayed, "{machine} IS {variant} streamed");
        }
    }
}
