//! Golden pin of `swpf-opt`'s observable output: for every
//! `suite(Scale::Test)` baseline kernel and each of the three
//! `compile_batch` pipelines, and for the 100-function
//! `replicated_suite(Scale::Test, 20)` module under more argument sets,
//! the exact bytes the binary writes to stdout (the printed module) and
//! stderr (the pass report plus the summary line), recorded as length +
//! FNV-64 in `tests/golden/swpf_opt_outputs.txt`.
//!
//! The replicated rows cover what only a many-function module shows:
//! two `swpf` stages, whose reports list every function of the first
//! stage before any of the second; `--icc-like`; and `--report-only`.
//!
//! The property tests prove `print ∘ parse ∘ print` is the identity;
//! this file is the only check that the text itself — numbering,
//! spacing, report wording — did not move. After a *deliberate* change
//! to the printer, the report or a pass, regenerate it with
//! `cargo test --test swpf_opt_golden -- --ignored bless_swpf_opt_golden`.

use std::path::{Path, PathBuf};
use std::process::Command;
use swpf::ir::printer::print_module;
use swpf::trace::fnv64;
use swpf::workloads::{replicated_suite, suite, Scale};

const PIPELINES: [&str; 3] = ["verify", "swpf", "swpf,gvn,sccp,licm,cse,dce"];

/// The argument sets the replicated module runs under.
const REPLICATED_ARGS: [&[&str]; 6] = [
    &["--passes", "verify"],
    &["--passes", "swpf"],
    &["--passes", "swpf,gvn,sccp,licm,cse,dce"],
    &["--passes", "swpf,dce,swpf"],
    &["--icc-like"],
    &["--report-only", "--passes", "swpf,gvn,sccp,licm,cse,dce"],
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/swpf_opt_outputs.txt")
}

/// `name label module=<len>:<fnv> report=<len>:<fnv>`: what
/// `swpf-opt <args> <input>` wrote, which must have succeeded.
fn output_line(name: &str, label: &str, args: &[&str], input: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_swpf-opt"))
        .args(args)
        .arg(input)
        .output()
        .expect("swpf-opt runs");
    assert!(
        out.status.success(),
        "swpf-opt {args:?} on {name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    format!(
        "{name} {label} module={}:{:016x} report={}:{:016x}",
        out.stdout.len(),
        fnv64(&out.stdout),
        out.stderr.len(),
        fnv64(&out.stderr),
    )
}

/// One line per (kernel, pipeline), then one per replicated argument
/// set (labelled by its arguments joined with `_`).
fn output_lines() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("swpf-opt-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut lines = Vec::new();
    for w in suite(Scale::Test) {
        let input = dir.join(format!("{}.swir", w.name()));
        std::fs::write(&input, print_module(&w.build_baseline())).expect("kernel written");
        for pipeline in PIPELINES {
            let args = ["--passes", pipeline];
            lines.push(output_line(w.name(), pipeline, &args, &input));
        }
    }
    let input = dir.join("replicated20.swir");
    std::fs::write(&input, replicated_suite(Scale::Test, 20)).expect("module written");
    for args in REPLICATED_ARGS {
        lines.push(output_line("replicated20", &args.join("_"), args, &input));
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
