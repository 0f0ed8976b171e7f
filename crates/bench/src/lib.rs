//! # swpf-bench — reproduction harnesses for every table and figure
//!
//! One driver, `--bin all`, runs every experiment (see DESIGN.md §5 for
//! the index); `--only NAME[,NAME]` picks from the catalogue:
//!
//! | `--only` | paper artefact |
//! |--------|----------------|
//! | `table1` | Table 1 — system setup |
//! | `fig2`  | Fig. 2 — naive vs. mis-scheduled vs. optimal IS prefetches |
//! | `fig4`  | Fig. 4 — auto vs. manual speedups, all systems (+ ICC) |
//! | `fig5`  | Fig. 5 — indirect-only vs. indirect+stride |
//! | `fig6`  | Fig. 6 — look-ahead distance sweep |
//! | `fig7`  | Fig. 7 — HJ-8 stagger depth |
//! | `fig8`  | Fig. 8 — dynamic instruction overhead |
//! | `fig9`  | Fig. 9 — IS multicore throughput |
//! | `fig10` | Fig. 10 — small vs. huge pages |
//! | `ablation` | pass-pipeline ablation — static cleanup × speedup |
//! | `tune`, `pipeline_search` | the searched experiments (run only when named) |
//!
//! The grids are declared in [`experiments`] and executed by the shared
//! [`harness`] on a pool of host threads — every cell one
//! [`swpf_sim::Sim`] request — printed as tables, and serialised to
//! `RESULTS/<name>.json`; the run fails on shape-check violations.
//! `--bin trace_eq` is the replay-equivalence gate (every experiment,
//! direct vs. record/replay, counters must match bit-for-bit). The
//! other binaries are provenance and reporting tools: `bench_gate`
//! (the `gates` rows of `BENCH.json`), `perf_annotate`, `prof_report`.
//!
//! Run with `cargo run --release -p swpf-bench --bin all -- --only figN`.
//! Set `SWPF_SCALE=test` for a fast smoke run with tiny inputs (shapes
//! are noisier but the harness logic is identical); `--threads N` /
//! `SWPF_THREADS` bound the worker pool, `--out DIR` moves the
//! artifact directory. Trace record/replay is on by default (each
//! distinct kernel is interpreted once per grid and replayed for every
//! other machine cell); `--trace-dir DIR` / `SWPF_TRACE_DIR` persist
//! traces across runs, `--no-trace` disables replay (DESIGN.md §6).

pub mod claim;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod prof;

use swpf_core::PassConfig;
use swpf_ir::Module;
use swpf_workloads::{Scale, Workload};

/// Scale selected by the `SWPF_SCALE` environment variable: `test` →
/// tiny inputs, `paper` (or unset) → paper-scaled inputs.
///
/// # Errors
/// On any other value — a typo must not silently select the slow
/// paper-scale configuration.
pub fn scale_from_env() -> Result<Scale, String> {
    match std::env::var("SWPF_SCALE") {
        Ok(v) => v.parse().map_err(|e| format!("invalid SWPF_SCALE: {e}")),
        Err(std::env::VarError::NotPresent) => Ok(Scale::Paper),
        Err(e) => Err(format!("SWPF_SCALE is not valid unicode: {e}")),
    }
}

/// [`scale_from_env`] for the binaries that take no shared harness
/// options: a bad value prints one `error:` line and exits 2.
#[must_use]
pub fn scale_from_env_or_exit() -> Scale {
    scale_from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The workload's baseline module with the automatic pass applied.
#[must_use]
pub fn auto_module(w: &dyn Workload, config: &PassConfig) -> Module {
    let mut m = w.build_baseline();
    swpf_core::run_on_module(&mut m, config);
    let _span = swpf_obs::span("verify");
    swpf_ir::verifier::verify_module(&m).expect("pass output verifies");
    m
}

/// The workload's baseline module with the ICC-like stride-indirect
/// baseline pass applied (Fig. 4d).
#[must_use]
pub fn icc_module(w: &dyn Workload, config: &PassConfig) -> Module {
    let mut m = w.build_baseline();
    swpf_core::icc_like::run_on_module(&mut m, config);
    let _span = swpf_obs::span("verify");
    swpf_ir::verifier::verify_module(&m).expect("pass output verifies");
    m
}

/// Geometric mean of a slice of ratios.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn auto_module_verifies_for_all_workloads() {
        for w in swpf_workloads::suite(Scale::Test) {
            let m = auto_module(w.as_ref(), &PassConfig::default());
            assert!(m.find_function("kernel").is_some(), "{}", w.name());
        }
    }
}
