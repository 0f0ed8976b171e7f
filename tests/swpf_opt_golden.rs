//! Golden pin of `swpf-opt`'s observable output: for every
//! `suite(Scale::Test)` baseline kernel and each of the three
//! `compile_batch` pipelines, the exact bytes the binary writes to
//! stdout (the printed module) and stderr (the pass report plus the
//! summary line), recorded as length + FNV-64 in
//! `tests/golden/swpf_opt_outputs.txt`.
//!
//! The property tests prove `print ∘ parse ∘ print` is the identity;
//! this file is the only check that the text itself — numbering,
//! spacing, report wording — did not move. After a *deliberate* change
//! to the printer, the report or a pass, regenerate it with
//! `cargo test --test swpf_opt_golden -- --ignored bless_swpf_opt_golden`.

use std::path::PathBuf;
use std::process::Command;
use swpf::ir::printer::print_module;
use swpf::trace::fnv64;
use swpf::workloads::{suite, Scale};

const PIPELINES: [&str; 3] = ["verify", "swpf", "swpf,gvn,sccp,licm,cse,dce"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/swpf_opt_outputs.txt")
}

/// One line per (kernel, pipeline): `kernel pipeline
/// module=<len>:<fnv> report=<len>:<fnv>`.
fn output_lines() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("swpf-opt-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut lines = Vec::new();
    for w in suite(Scale::Test) {
        let input = dir.join(format!("{}.swir", w.name()));
        std::fs::write(&input, print_module(&w.build_baseline())).expect("kernel written");
        for pipeline in PIPELINES {
            let out = Command::new(env!("CARGO_BIN_EXE_swpf-opt"))
                .args(["--passes", pipeline])
                .arg(&input)
                .output()
                .expect("swpf-opt runs");
            assert!(
                out.status.success(),
                "swpf-opt --passes {pipeline} on {} failed: {}",
                w.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            lines.push(format!(
                "{} {pipeline} module={}:{:016x} report={}:{:016x}",
                w.name(),
                out.stdout.len(),
                fnv64(&out.stdout),
                out.stderr.len(),
                fnv64(&out.stderr),
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    lines
}

#[test]
fn swpf_opt_outputs_match_golden() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    let actual = output_lines();
    for (want, got) in golden.iter().zip(&actual) {
        assert_eq!(want, got, "swpf-opt output diverged from golden");
    }
    assert_eq!(golden.len(), actual.len(), "kernel × pipeline grid changed");
}

#[test]
#[ignore = "rewrites tests/golden/swpf_opt_outputs.txt; run after a deliberate output change"]
fn bless_swpf_opt_golden() {
    let mut text = output_lines().join("\n");
    text.push('\n');
    std::fs::write(golden_path(), text).expect("golden written");
}
