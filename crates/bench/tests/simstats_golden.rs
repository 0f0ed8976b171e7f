//! Golden pin of the timing model itself. Every other equivalence check
//! (tier differential, `trace_eq`, replay-vs-direct) compares one
//! execution path with another *through the same timing model*, so a bug
//! in the core model, the TLB or the cache set mapping would pass them
//! all. This test re-simulates the fig4/fig7/fig9/fig10 grids at
//! `Scale::Test` and diffs every `SimStats` counter of every core
//! against `tests/golden/simstats_test_scale.txt`.
//!
//! After a *deliberate* model change, regenerate the file with
//! `cargo test -p swpf-bench --test simstats_golden -- --ignored bless_simstats_golden`.

use std::path::PathBuf;
use swpf_bench::experiments;
use swpf_bench::harness::{run_experiment, RunOptions};
use swpf_workloads::Scale;

const EXPERIMENTS: [&str; 4] = ["fig4", "fig7", "fig9", "fig10"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/simstats_test_scale.txt")
}

/// One line per (experiment, machine, workload, variant, core): the cell
/// key, then every counter as `name=value`.
fn simulate_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for name in EXPERIMENTS {
        let exp = experiments::by_name(name, Scale::Test).expect("experiment exists");
        let result = run_experiment(&exp, &RunOptions::default());
        for cell in &result.cells {
            for (core, stats) in cell.cores.iter().enumerate() {
                let mut line = format!(
                    "{name} {} {} {} core{core}",
                    cell.machine, cell.workload, cell.variant
                );
                for (counter, value) in stats.counters() {
                    line.push_str(&format!(" {counter}={value}"));
                }
                lines.push(line);
            }
        }
    }
    lines
}

/// The cell key of a golden line: its first five fields.
fn cell_key(line: &str) -> String {
    line.split(' ').take(5).collect::<Vec<_>>().join(" ")
}

#[test]
fn simstats_match_golden() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    let actual = simulate_lines();
    for (want, got) in golden.iter().zip(&actual) {
        if want == got {
            continue;
        }
        assert_eq!(
            cell_key(want),
            cell_key(got),
            "grid changed: golden and simulated cells are in a different order"
        );
        let (w, g) = want
            .split(' ')
            .zip(got.split(' '))
            .find(|(w, g)| w != g)
            .expect("unequal lines with equal keys differ in a counter");
        panic!(
            "timing model diverged from golden at cell `{}`: golden {w}, simulated {g}",
            cell_key(want)
        );
    }
    assert_eq!(golden.len(), actual.len(), "grid changed: cell count");
}

#[test]
#[ignore = "rewrites the golden file; run only for a deliberate timing-model change"]
fn bless_simstats_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden file has a directory")).unwrap();
    std::fs::write(&path, simulate_lines().join("\n") + "\n").unwrap();
}
