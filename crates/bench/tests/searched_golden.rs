//! Golden pin of the three searched results at `Scale::Test`: the
//! `tune` and `pipeline_search` experiments and the `ablation`
//! experiment, whose `searched` column reads the same exhaustive
//! pipeline oracle off its grid. Every cell's cycles, every derived section (the
//! `Search cost` table without its timed `wall_s` column) and every
//! check verdict are diffed against
//! `tests/golden/searched_test_scale.txt`.
//!
//! After a *deliberate* change to a searched result, regenerate the
//! file with
//! `cargo test -p swpf-bench --test searched_golden -- --ignored bless_searched_golden`.

use std::path::PathBuf;
use swpf_bench::claim::Check;
use swpf_bench::experiments;
use swpf_bench::harness::{run_experiment, ExperimentResult, RunOptions, TableSection};
use swpf_workloads::Scale;

const EXPERIMENTS: [&str; 3] = ["tune", "pipeline_search", "ablation"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/searched_test_scale.txt")
}

/// Run one experiment at test scale: its cells, derived tables and
/// checks (structural ones included).
fn run(name: &str) -> (ExperimentResult, Vec<TableSection>, Vec<Check>) {
    let exp = experiments::by_name(name, Scale::Test).expect("experiment exists");
    let result = run_experiment(&exp, &RunOptions::default());
    let derived = (exp.derive)(&result);
    let checks = exp.verdicts(&result, &derived);
    (result, derived, checks)
}

/// One line per cell, per derived section, column list, row and note,
/// and per check. The `Search cost` sections' `wall_s` column is host
/// time, so it is left out.
fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for name in EXPERIMENTS {
        let (result, derived, checks) = run(name);
        for c in &result.cells {
            lines.push(format!(
                "{name} cell {} {} {} cycles={}",
                c.machine,
                c.workload,
                c.variant,
                c.max_cycles()
            ));
        }
        for s in &derived {
            let timed = s.columns.iter().position(|c| c == "wall_s");
            let keep = |i: &usize| Some(*i) != timed;
            lines.push(format!("{name} section {}", s.title));
            let columns: Vec<&str> = (0..s.columns.len())
                .filter(keep)
                .map(|i| s.columns[i].as_str())
                .collect();
            lines.push(format!("{name} columns {}", columns.join(" ")));
            for r in &s.rows {
                let values: Vec<String> = (0..r.values.len())
                    .filter(keep)
                    .map(|i| r.values[i].to_string())
                    .collect();
                lines.push(format!("{name} row {}: {}", r.name, values.join(" ")));
            }
            for n in &s.notes {
                lines.push(format!("{name} note {n}"));
            }
        }
        for c in &checks {
            let verdict = if c.passed { "ok" } else { "FAIL" };
            lines.push(format!("{name} check {} {verdict}", c.name));
        }
    }
    lines
}

#[test]
fn searched_results_match_golden() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    let actual = golden_lines();
    for (i, (want, got)) in golden.iter().zip(&actual).enumerate() {
        assert_eq!(want, got, "line {} of {}", i + 1, path.display());
    }
    assert_eq!(golden.len(), actual.len(), "line count");
}

#[test]
#[ignore = "rewrites the golden file; run only for a deliberate change to a searched result"]
fn bless_searched_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden file has a directory")).unwrap();
    std::fs::write(&path, golden_lines().join("\n") + "\n").unwrap();
}
