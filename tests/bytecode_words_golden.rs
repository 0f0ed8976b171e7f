//! Golden pin of the bytecode lowering: for every function of the seven
//! workloads' `baseline`, `auto` and `manual_c64` kernels at
//! `Scale::Test`, and of every hand-written module in `swir_sources`,
//! the word count and the FNV-64 of `BcImage::func(f).words()` (the
//! words' little-endian bytes), recorded in
//! `tests/golden/bytecode_words.txt`.
//!
//! The differential suites prove the bytecode tier retires the same
//! events as the classic tier; this file is the check that a rewrite of
//! the lowering itself emits the very same words. After a *deliberate*
//! encoding change, regenerate it with
//! `cargo test --test bytecode_words_golden -- --ignored bless_bytecode_words_golden`.

mod swir_sources;

use std::path::PathBuf;
use swpf::ir::bytecode::BcImage;
use swpf::ir::exec::ExecImage;
use swpf::ir::module::Module;
use swpf::ir::parser::parse_module;
use swpf::pass::{run_on_module, PassConfig};
use swpf::trace::fnv64;
use swpf::workloads::{suite, KernelVariant, Scale};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bytecode_words.txt")
}

/// `source variant @func words=<count>:<fnv>` for each function of `m`.
fn module_lines(source: &str, variant: &str, m: &Module, lines: &mut Vec<String>) {
    let bc = BcImage::lower(&ExecImage::build(m)).expect("module lowers");
    for f in m.func_ids() {
        let words = bc.func(f).words();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        lines.push(format!(
            "{source} {variant} @{} words={}:{:016x}",
            m.function(f).name,
            words.len(),
            fnv64(&bytes)
        ));
    }
}

fn word_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for w in suite(Scale::Test) {
        let mut auto = w.build_baseline();
        run_on_module(&mut auto, &PassConfig::default());
        let manual = w
            .build_variant(KernelVariant::Manual { look_ahead: 64 })
            .expect("manual supported everywhere");
        module_lines(w.name(), "baseline", &w.build_baseline(), &mut lines);
        module_lines(w.name(), "auto", &auto, &mut lines);
        module_lines(w.name(), "manual_c64", &manual, &mut lines);
    }
    for (i, text) in swir_sources::ALL.iter().enumerate() {
        let m = parse_module(text).expect("swir source parses");
        module_lines(&format!("swir_sources[{i}]"), "text", &m, &mut lines);
    }
    lines
}

#[test]
fn bytecode_words_match_golden() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    let actual = word_lines();
    for (want, got) in golden.iter().zip(&actual) {
        assert_eq!(want, got, "bytecode words diverged from golden");
    }
    assert_eq!(golden.len(), actual.len(), "function set changed");
}

#[test]
#[ignore = "rewrites tests/golden/bytecode_words.txt; run after a deliberate encoding change"]
fn bless_bytecode_words_golden() {
    let mut text = word_lines().join("\n");
    text.push('\n');
    std::fs::write(golden_path(), text).expect("golden written");
}
