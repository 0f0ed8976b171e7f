//! # swpf-core — automatic software prefetching for indirect memory accesses
//!
//! This crate implements the compiler pass of
//! *Software Prefetching for Indirect Memory Accesses*
//! (Ainsworth & Jones, CGO 2017): it finds loads inside loops whose
//! addresses are (transitively) computed from a loop induction variable —
//! the `a[f(b[i])]` family of patterns — and inserts software-prefetch
//! instructions for *future iterations*, together with the address
//! generation code those prefetches need.
//!
//! The pass follows Algorithm 1 of the paper:
//!
//! 1. **Discovery** ([`dfs`]): from every load in a loop, walk the
//!    data-dependence graph backwards (depth-first) until induction
//!    variables are found; record the instructions on the paths. When
//!    paths reach different induction variables, prefer the one belonging
//!    to the innermost loop.
//! 2. **Filtering** ([`candidates`]): reject candidates containing calls
//!    (unless provably pure and allowed by config), non-induction phi
//!    nodes, intermediate loads whose safety cannot be established,
//!    stores in the loop that may alias the address-generation arrays,
//!    or instructions that execute conditionally on loop-variant values
//!    (paper §4.1–4.2).
//! 3. **Scheduling** ([`schedule`]): each load in a dependence chain of
//!    `t` loads gets look-ahead offset `c·(t−l)/t` (paper eq. 1), so
//!    staggered prefetches each have one memory latency of slack.
//! 4. **Generation** ([`codegen`]): clone the recorded instructions,
//!    replace induction-variable uses with `min(iv + offset, limit)`
//!    (branchless select clamp), turn the final load into a `prefetch`,
//!    and insert everything just before the original load. Loads whose
//!    chain sits in an inner loop but whose induction variable belongs to
//!    an outer loop are hoisted to the inner loop's preheader
//!    ([`hoist`], paper §4.6).
//!
//! The stages run as a [`SwpfPass`] under the `swpf-pass` manager with
//! cached analyses, composable with the cleanup passes the paper
//! delegates to later compiler phases: [`PassConfig::pipeline`] names
//! the pipeline textually (`"swpf"` by default, `"swpf,cse,dce"` for
//! the measurable "let `-O3` clean it up" step) — see [`pipeline`].
//!
//! [`icc_like`] provides the deliberately weaker stride-indirect-only
//! baseline pass modelled on the Intel Xeon Phi compiler's prefetcher,
//! used by the evaluation's Fig. 4(d) comparison.
//!
//! ## Quick example
//!
//! ```
//! use swpf_core::{run_on_module, PassConfig};
//! use swpf_ir::parser::parse_module;
//!
//! let mut m = parse_module(
//!     "module demo\n\n\
//!      func @k(%0: ptr, %1: ptr, %2: i64) -> void {\n\
//!        %3 = const 0: i64\n\
//!        %4 = const 1: i64\n\
//!      bb0:\n\
//!        br bb1\n\
//!      bb1:\n\
//!        %5: i64 = phi [bb0: %3], [bb2: %11]\n\
//!        %6: i1 = icmp slt %5, %2\n\
//!        br %6, bb2, bb3\n\
//!      bb2:\n\
//!        %7: ptr = gep %1, %5 x 8\n\
//!        %8: i64 = load i64, %7\n\
//!        %9: ptr = gep %0, %8 x 8\n\
//!        %10: i64 = load i64, %9\n\
//!        %11: i64 = add %5, %4\n\
//!        br bb1\n\
//!      bb3:\n\
//!        ret\n\
//!      }\n",
//! )
//! .unwrap();
//! let report = run_on_module(&mut m, &PassConfig::default());
//! assert_eq!(report.total_prefetches(), 2); // indirect + stride companion
//! swpf_ir::verifier::verify_module(&m).unwrap();
//! ```

pub mod candidates;
pub mod codegen;
pub mod dfs;
pub mod hoist;
pub mod icc_like;
pub mod pipeline;
pub mod report;
pub mod schedule;

pub use candidates::{ClampSource, PlannedPrefetch, SkipReason};
pub use pipeline::{run_pipeline, FunctionPipeline, PassName, Pipeline, SwpfPass, PASS_NAMES};
pub use report::{FunctionReport, PassReport, PrefetchRecord, SkipRecord};

use swpf_ir::{FuncId, Module};
use swpf_pass::AnalysisManager;

/// Tuning knobs for the prefetch-generation pass — plus the pass
/// [`Pipeline`] the module is compiled through.
///
/// The defaults reproduce the paper's configuration: `c = 64` for every
/// system (§5), stride companion prefetches on (§4.3, Fig. 5), no call
/// duplication, hoisting enabled (§4.6), and the bare `"swpf"` pipeline
/// (no cleanup passes — the shape the paper evaluates).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PassConfig {
    /// The look-ahead constant `c` of eq. (1): the offset, in loop
    /// iterations, for the first load in a prefetch sequence.
    pub look_ahead: i64,
    /// Also emit a staggered prefetch for the sequentially-accessed
    /// look-ahead array itself (§4.3 last paragraph; evaluated in Fig. 5).
    /// Kept even in the presence of a hardware stride prefetcher.
    pub stride_companion: bool,
    /// Maximum number of *indirect* loads of a chain to prefetch
    /// (Fig. 7's "stagger depth"). `usize::MAX` prefetches the whole
    /// chain.
    pub max_indirect_depth: usize,
    /// Permit side-effect-free function calls inside prefetch code (the
    /// paper notes this as a possible extension; off by default to match
    /// the evaluated pass).
    pub allow_pure_calls: bool,
    /// Hoist prefetch code out of inner loops when the induction variable
    /// belongs to an outer loop (§4.6).
    pub enable_hoisting: bool,
    /// The pass pipeline [`run_on_module`] compiles with. The default
    /// `"swpf"` runs the prefetch pass alone; `"swpf,cse,dce"` adds the
    /// paper's "later passes clean it up" step (§4/§5) as measurable
    /// cleanup passes. See [`pipeline`].
    pub pipeline: Pipeline,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            look_ahead: 64,
            stride_companion: true,
            max_indirect_depth: usize::MAX,
            allow_pure_calls: false,
            enable_hoisting: true,
            pipeline: Pipeline::default(),
        }
    }
}

/// One scalar value of the pass's parameter space — the common currency
/// between [`PassConfig::parameters`], result artifacts (which attach
/// the effective configuration to every simulated cell), and the
/// `swpf-tune` search subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamValue {
    /// An integer knob (`look_ahead`, `max_indirect_depth` — where
    /// `i64::MAX` stands for "unbounded").
    Int(i64),
    /// A pass toggle (`stride_companion`, `enable_hoisting`, ...).
    Bool(bool),
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl PassConfig {
    /// Config with a different look-ahead constant, other fields default.
    #[must_use]
    pub fn with_look_ahead(c: i64) -> Self {
        PassConfig {
            look_ahead: c,
            ..PassConfig::default()
        }
    }

    /// Config with the given pipeline spec, other fields default.
    ///
    /// # Panics
    /// On an invalid spec — a static configuration error.
    #[must_use]
    pub fn with_pipeline(spec: &str) -> Self {
        PassConfig {
            pipeline: spec
                .parse()
                .unwrap_or_else(|e| panic!("invalid pipeline spec `{spec}`: {e}")),
            ..PassConfig::default()
        }
    }

    /// The tunable *scalar* parameters as `(name, value)` pairs in a
    /// stable order: the pass's parameter-space surface. Result
    /// artifacts attach this to every pass-compiled cell so the numbers
    /// are self-describing, and the tuner searches over it. The
    /// (non-scalar) pipeline is not listed here; it is carried by
    /// [`PassConfig::cache_key`] and by experiment variant labels.
    #[must_use]
    pub fn parameters(&self) -> Vec<(&'static str, ParamValue)> {
        let depth = i64::try_from(self.max_indirect_depth).unwrap_or(i64::MAX);
        vec![
            ("look_ahead", ParamValue::Int(self.look_ahead)),
            ("stride_companion", ParamValue::Bool(self.stride_companion)),
            ("max_indirect_depth", ParamValue::Int(depth)),
            ("allow_pure_calls", ParamValue::Bool(self.allow_pure_calls)),
            ("enable_hoisting", ParamValue::Bool(self.enable_hoisting)),
        ]
    }

    /// Compact stable key naming this point of the parameter space
    /// (`"c64"`, `"c32_nostride"`, ...): non-default toggles append a
    /// suffix, so two configs share a key iff they generate identical
    /// prefetch code. Used as the tuner's per-(workload, machine-set)
    /// evaluation-cache key and as artifact cell labels.
    #[must_use]
    pub fn cache_key(&self) -> String {
        let mut key = format!("c{}", self.look_ahead);
        if self.max_indirect_depth != usize::MAX {
            key.push_str(&format!("_d{}", self.max_indirect_depth));
        }
        if !self.stride_companion {
            key.push_str("_nostride");
        }
        if !self.enable_hoisting {
            key.push_str("_nohoist");
        }
        if self.allow_pure_calls {
            key.push_str("_purecalls");
        }
        if !self.pipeline.is_default() {
            key.push('_');
            key.push_str(&self.pipeline.key());
        }
        key
    }
}

/// Run the prefetch-generation pass (alone — no cleanup pipeline) on
/// one function, computing analyses from scratch.
pub fn run_on_function(m: &mut Module, f: FuncId, config: &PassConfig) -> FunctionReport {
    candidates::run(m, f, config)
}

/// Run `config`'s pass pipeline on every function of a module.
///
/// This is a thin wrapper over the pass manager: it builds the pipeline
/// named by [`PassConfig::pipeline`] (default: the prefetch pass alone)
/// and runs it with a fresh analysis cache — see [`pipeline`] and the
/// `swpf-pass` crate. With the default configuration the output module
/// and report are bit-identical to [`run_on_module_monolithic`], the
/// original single-function shape (proven by the
/// `pipeline_differential` integration suite).
pub fn run_on_module(m: &mut Module, config: &PassConfig) -> PassReport {
    let mut am = AnalysisManager::new();
    pipeline::run_pipeline(m, config, &mut am)
}

/// The original monolithic pass driver: per function, recompute every
/// analysis and run discovery/filter/codegen in one call, ignoring
/// [`PassConfig::pipeline`]. Kept as the differential-testing oracle
/// for the pass-manager path ([`run_on_module`] ≡ this, for the
/// default pipeline).
pub fn run_on_module_monolithic(m: &mut Module, config: &PassConfig) -> PassReport {
    let mut report = PassReport::default();
    for f in m.func_ids().collect::<Vec<_>>() {
        report.functions.push(run_on_function(m, f, config));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_cover_every_knob_in_stable_order() {
        let names: Vec<&str> = PassConfig::default()
            .parameters()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            names,
            [
                "look_ahead",
                "stride_companion",
                "max_indirect_depth",
                "allow_pure_calls",
                "enable_hoisting",
            ]
        );
        assert_eq!(PassConfig::default().parameters()[0].1, ParamValue::Int(64));
    }

    #[test]
    fn cache_keys_name_non_default_points() {
        assert_eq!(PassConfig::default().cache_key(), "c64");
        assert_eq!(PassConfig::with_look_ahead(16).cache_key(), "c16");
        let cfg = PassConfig {
            look_ahead: 32,
            stride_companion: false,
            max_indirect_depth: 2,
            enable_hoisting: false,
            ..PassConfig::default()
        };
        assert_eq!(cfg.cache_key(), "c32_d2_nostride_nohoist");
    }

    #[test]
    fn cache_keys_name_non_default_pipelines() {
        assert_eq!(PassConfig::with_pipeline("swpf").cache_key(), "c64");
        assert_eq!(
            PassConfig::with_pipeline("swpf,cse,dce").cache_key(),
            "c64_swpf+cse+dce"
        );
        let cfg = PassConfig {
            look_ahead: 16,
            ..PassConfig::with_pipeline("swpf,dce")
        };
        assert_eq!(cfg.cache_key(), "c16_swpf+dce");
    }

    #[test]
    fn configs_are_hashable_by_value() {
        let mut set = std::collections::HashSet::new();
        assert!(set.insert(PassConfig::default()));
        assert!(
            !set.insert(PassConfig::with_look_ahead(64)),
            "equal configs collide"
        );
        assert!(set.insert(PassConfig::with_pipeline("swpf,cse,dce")));
        assert!(set.insert(PassConfig::with_look_ahead(8)));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn configs_share_a_key_iff_equal() {
        let a = PassConfig::default();
        let b = PassConfig::with_look_ahead(64);
        assert_eq!(a, b);
        assert_eq!(a.cache_key(), b.cache_key());
        let c = PassConfig {
            stride_companion: false,
            ..PassConfig::default()
        };
        assert_ne!(a, c);
        assert_ne!(a.cache_key(), c.cache_key());
    }
}
