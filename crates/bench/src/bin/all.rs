//! Run the experiment suite — the figure/table reproductions, the
//! studies built on them and the searched experiments, every one
//! through the shared harness — and summarise.
//!
//! Every experiment writes its `RESULTS/<name>.json` artifact; a
//! `RESULTS/suite.json` summary records per-experiment wall time and
//! check counts. Exits non-zero if any shape check fails, which is what
//! the CI `experiments` job keys on.
//!
//! `--only <name>` / `--skip <name>` filter the catalogue (repeatable,
//! or comma-separated), so smoke jobs can run one experiment instead of
//! re-running everything: a step of CI's `experiments` job is
//! `--only tune,pipeline_search`. Every experiment is dispatched the
//! same way; the catalogue marks which ones are in the default set (all
//! but those two searched experiments, which run only when named).
//! `--list` prints the experiment catalogue, the filter syntax, the
//! machine models, and the workloads, without running anything.
//!
//! `--profile <path>` (or `SWPF_PROFILE=<path>`) composes with
//! `--only`/`--skip`: the whole selected run is profiled through
//! `swpf-obs` into one chrome-trace JSON, and every experiment's
//! artifact gains its own windowed `profile` section.
//!
//! ```sh
//! SWPF_SCALE=test cargo run --release -p swpf-bench --bin all
//! cargo run --release -p swpf-bench --bin all -- --threads 1
//! cargo run --release -p swpf-bench --bin all -- --only ablation
//! cargo run --release -p swpf-bench --bin all -- --skip fig4 --skip fig9
//! cargo run --release -p swpf-bench --bin all -- --only fig4 --profile prof.json
//! cargo run --release -p swpf-bench --bin all -- --list
//! ```

use std::time::Instant;
use swpf_bench::experiments;
use swpf_bench::harness::{
    cli_options_or_exit, exit_with_usage_error, finish_profiling, init_profiling, run_and_report,
    CLI_USAGE,
};
use swpf_bench::json::Json;

/// A name list from `--only`/`--skip` values, validated against the
/// experiment catalogue.
fn push_names(out: &mut Vec<String>, flag: &str, value: Option<String>) -> Result<(), String> {
    let value = value.ok_or_else(|| format!("{flag} needs an experiment name"))?;
    for name in value.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        if !experiments::CATALOGUE.iter().any(|e| e.0 == name) {
            return Err(format!(
                "{flag}: unknown experiment `{name}` (see --list for the catalogue)"
            ));
        }
        out.push(name.to_string());
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    let usage = format!("[--only NAMES] [--skip NAMES] [--list] {CLI_USAGE}");
    // Strip the driver-specific arguments; everything else goes to the
    // shared harness CLI parser.
    let mut only: Vec<String> = Vec::new();
    let mut skip: Vec<String> = Vec::new();
    let mut list = false;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => push_names(&mut only, "--only", args.next())
                .unwrap_or_else(|e| exit_with_usage_error(&e, &usage)),
            "--skip" => push_names(&mut skip, "--skip", args.next())
                .unwrap_or_else(|e| exit_with_usage_error(&e, &usage)),
            "--list" => list = true,
            _ => rest.push(arg),
        }
    }
    // Parsed before `--list` acts, so `--help` and a bad flag win over it.
    let opts = cli_options_or_exit(rest.into_iter(), &usage);
    if list {
        experiments::print_catalog();
        return std::process::ExitCode::SUCCESS;
    }

    // Selection, in catalogue order: `--only` picks from the whole
    // catalogue (so `--only tune` works), otherwise the default set;
    // `--skip` removes names from either.
    let selected: Vec<&experiments::Entry> = experiments::CATALOGUE
        .iter()
        .filter(|(name, _, default)| {
            if only.is_empty() {
                *default
            } else {
                only.iter().any(|o| o == name)
            }
        })
        .filter(|(name, _, _)| !skip.iter().any(|s| s == name))
        .collect();
    if selected.is_empty() {
        exit_with_usage_error("the filters selected no experiments", &usage);
    }

    let scale = opts.scale;
    let profile = init_profiling(&opts);
    let t0 = Instant::now();
    let mut summaries = Vec::new();
    let mut failed = 0usize;

    for (name, build, _) in &selected {
        let t = Instant::now(); // the whole experiment: the rows sum to the suite wall
        let (result, checks) = run_and_report(&build(scale), &opts.run, &opts.out_dir);
        let check_failures = checks.iter().filter(|c| !c.passed).count();
        failed += check_failures;
        summaries.push(Json::obj(vec![
            ("experiment", Json::Str((*name).to_string())),
            ("jobs", Json::U64(result.cells.len() as u64)),
            ("threads", Json::U64(result.threads as u64)),
            ("wall_seconds", Json::F64(t.elapsed().as_secs_f64())),
            ("trace_hits", Json::U64(result.trace_hits() as u64)),
            ("trace_misses", Json::U64(result.trace_misses() as u64)),
            ("checks", Json::U64(checks.len() as u64)),
            ("check_failures", Json::U64(check_failures as u64)),
        ]));
    }

    let suite = Json::obj(vec![
        ("schema_version", Json::U64(1)),
        ("scale", Json::Str(scale.label().to_string())),
        ("wall_seconds", Json::F64(t0.elapsed().as_secs_f64())),
        ("experiments", Json::Arr(summaries)),
    ]);
    let path = opts.out_dir.join("suite.json");
    std::fs::write(&path, suite.to_pretty_string())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    if let Some(prof_path) = profile {
        finish_profiling(&prof_path);
    }

    println!(
        "\nsuite: {} experiment(s) in {:.2}s, {} check failure(s) — {}",
        selected.len(),
        t0.elapsed().as_secs_f64(),
        failed,
        path.display(),
    );
    if failed == 0 {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
