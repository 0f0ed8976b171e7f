//! Search-based auto-tuning of prefetch parameters: find the best
//! look-ahead per workload × in-order machine and quantify the paper's
//! "`c = 64` is near-optimal" claim against an exhaustive oracle.
//!
//! Each candidate configuration is compiled once and interpreted once,
//! with its event stream fanned out to every machine — search cost
//! scales with candidates, not candidates × machines. Three strategies
//! run per cell: the exhaustive oracle, golden-section bracketing over
//! the unimodal distance curve, and budgeted hill-climbing (which also
//! explores the stride-companion toggle).
//!
//! Prints the comparison tables, writes `RESULTS/tune.json`, and exits
//! non-zero on shape-check failure (what the CI `tune-smoke` job keys
//! on).
//!
//! ```sh
//! SWPF_SCALE=test cargo run --release -p swpf-bench --bin tune
//! cargo run --release -p swpf-bench --bin tune -- --out RESULTS
//! ```

use swpf_bench::harness::{cli_options, finish_profiling, init_profiling};
use swpf_bench::{experiments, tune};

fn main() -> std::process::ExitCode {
    let opts = cli_options();
    let scale = opts.scale;
    let profile = init_profiling(&opts);
    let exp = experiments::tune(scale);
    let (_, checks) = tune::run_and_report(&exp, &opts.out_dir);
    if let Some(path) = profile {
        finish_profiling(&path);
    }
    if checks.iter().all(|c| c.passed) {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
