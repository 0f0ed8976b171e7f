//! Search-based selection of the cleanup pass pipeline: per workload ×
//! machine, find the pipeline ordering that minimises simulated cycles
//! and report the margin against the compiler's default pipeline (bare
//! `swpf`) and the full heuristic (`swpf,gvn,sccp,licm,cse,dce`).
//!
//! Each candidate pipeline is compiled once and interpreted once, with
//! its event stream fanned out to every machine — search cost scales
//! with candidates, not candidates × machines. Two strategies run per
//! cell: the exhaustive oracle over the curated candidate set and a
//! budgeted hill-climb along the probe order.
//!
//! Prints the comparison tables, writes `RESULTS/pipeline_search.json`,
//! and exits non-zero on shape-check failure (what the CI
//! `pipeline-search-smoke` job keys on).
//!
//! ```sh
//! SWPF_SCALE=test cargo run --release -p swpf-bench --bin pipeline_search
//! cargo run --release -p swpf-bench --bin pipeline_search -- --out RESULTS
//! ```

use swpf_bench::harness::{cli_options, finish_profiling, init_profiling};
use swpf_bench::{experiments, pipeline_search};

fn main() -> std::process::ExitCode {
    let opts = cli_options();
    let scale = opts.scale;
    let profile = init_profiling(&opts);
    let exp = experiments::pipeline_search(scale);
    let (_, checks) = pipeline_search::run_and_report(&exp, &opts.out_dir);
    if let Some(path) = profile {
        finish_profiling(&path);
    }
    if checks.iter().all(|c| c.passed) {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
