//! Cells that two experiments both simulate. Fig. 9's one-core cells
//! run IS on the Haswell preset, and so do Fig. 10's huge-page cells:
//! the preset already uses 2 MiB pages, so `with_huge_pages` changes no
//! parameter and only the display name differs. Keying cells on what
//! determines them (`MachineConfig::parameters`, the kernel, the core
//! count) would simulate each pair once; this pins that both members of
//! a pair agree counter for counter, so such a key cannot change a
//! result. Their kernels already share one trace file: the cache names
//! a file by the kernel's fingerprint, not by the cell's label.
//!
//! `pipeline_search`'s exhaustive strategy prices every candidate of
//! `PipelineSpace::paper_default()` on every machine and workload, and
//! ablation's grid holds a cell for each of those pipelines: the two
//! agree counter for counter, so one suite-level memo may serve both.
//! Within one strategy's search, pipelines that print alike already
//! share one simulation.

use std::collections::HashSet;
use std::sync::Mutex;
use swpf_bench::harness::{run_experiment, ExperimentResult, Kernel, RunOptions, TracePolicy};
use swpf_bench::{auto_module, experiments};
use swpf_core::PassConfig;
use swpf_ir::printer::print_module;
use swpf_sim::MachineConfig;
use swpf_tune::{PipelineSpace, Space};
use swpf_workloads::Scale;

/// The `swpf-obs` recorder is process-global: experiments run one at a
/// time here, so a test that counts sees only its own run.
static GUARD: Mutex<()> = Mutex::new(());

fn run(name: &str) -> ExperimentResult {
    let exp = experiments::by_name(name, Scale::Test).expect("experiment exists");
    let _guard = GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
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
        let _guard = GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
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

#[test]
fn pipeline_search_exhaustive_cells_equal_ablation_grid_cells() {
    let (search, ablation) = (run("pipeline_search"), run("ablation"));
    let grid = experiments::by_name("ablation", Scale::Test).expect("ablation exists");
    let space = PipelineSpace::paper_default();
    let mut compared = 0;
    for config in (0..space.len()).map(|i| space.at(i)) {
        let label = &grid
            .spec
            .variants
            .iter()
            .find(|v| v.kernel == Kernel::Pass(config.clone()))
            .unwrap_or_else(|| panic!("ablation has no `{}` variant", config.pipeline))
            .label;
        let searched = format!("exhaustive_{}", config.cache_key());
        for cell in ablation.cells.iter().filter(|c| c.variant == *label) {
            let priced = search
                .cell(cell.machine, cell.workload, &searched)
                .unwrap_or_else(|| panic!("no {} {} {searched}", cell.machine, cell.workload));
            assert_eq!(
                cell.stats().counters(),
                priced.stats().counters(),
                "{} {}: ablation {label} vs pipeline_search {searched}",
                cell.machine,
                cell.workload
            );
            compared += 1;
        }
    }
    // 7 workloads × 8 pipelines × 4 machines.
    assert_eq!(compared, 224);
}

/// Each strategy of `pipeline_search` runs its own session per
/// workload, and a session simulates each distinct printed text once,
/// on all machines in one row: the timing models run machines × texts
/// times, fewer than machines × configurations asked for.
#[test]
fn pipeline_search_sessions_simulate_each_text_once() {
    let exp = experiments::by_name("pipeline_search", Scale::Test).expect("experiment exists");
    let res = {
        let _guard = GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        swpf_obs::reset();
        swpf_obs::enable();
        let res = run_experiment(&exp, &RunOptions::default());
        swpf_obs::disable();
        res
    };
    let runs = swpf_obs::snapshot()
        .counters
        .get("harness.machine_runs")
        .copied();

    let (mut configs, mut texts) = (0, 0);
    for (id, found) in exp.spec.workloads.iter().zip(&res.searches) {
        let w = id.instantiate(Scale::Test);
        for (si, &(cost, _)) in found.costs.iter().enumerate() {
            // What the session priced: every visited point, and the
            // default configuration the first strategy reports.
            let mut asked: Vec<&PassConfig> = Vec::new();
            let default = PassConfig::default();
            let visited = found.reports.iter().flat_map(|r| &r[si].points);
            for config in visited.map(|p| &p.config).chain([&default]) {
                if !asked.contains(&config) {
                    asked.push(config);
                }
            }
            assert_eq!(asked.len(), cost, "{} strategy {si}", found.workload);
            let printed: HashSet<String> = asked
                .iter()
                .map(|c| print_module(&auto_module(w.as_ref(), c)))
                .collect();
            configs += asked.len();
            texts += printed.len();
        }
    }
    assert_eq!(configs, 70, "the Search cost table's configurations");
    assert!(texts < configs, "some pipelines print alike");
    let machines = exp.spec.machines.len();
    assert_eq!(runs, Some((machines * texts) as u64));
}
