//! The pass pipeline: textual specs, the staged `SwpfPass`, and the
//! driver gluing `swpf-core` onto the `swpf-pass` manager.
//!
//! The paper's prototype emits redundant address-generation code and
//! relies on later compiler passes to clean it up (§4/§5). This module
//! makes that pipeline explicit and configurable: a [`Pipeline`] is a
//! comma-separated spec such as `"swpf,cse,dce"`, carried inside
//! [`PassConfig`], naming the passes [`run_pipeline`] composes:
//!
//! | name | pass |
//! |------|------|
//! | `swpf` | the staged prefetch-generation pass ([`SwpfPass`]) |
//! | `gvn` | dominator-scoped global value numbering ([`swpf_pass::Gvn`]) |
//! | `sccp` | sparse conditional constant propagation ([`swpf_pass::Sccp`]) |
//! | `licm` | loop-invariant code motion ([`swpf_pass::Licm`]) |
//! | `cse` | local common-subexpression elimination ([`swpf_pass::LocalCse`]) |
//! | `dce` | dead-code elimination ([`swpf_pass::Dce`]) |
//! | `verify` | an explicit IR-invariant checkpoint ([`PassManager::add_verify`]) |
//!
//! Every pass runs on one function before the next function is touched
//! ([`FunctionPipeline`]). Setting the `SWPF_VERIFY_PASSES` environment
//! variable (to anything but `0`) additionally verifies the function
//! after *every* pass — the verify-between-passes debug mode,
//! attributing the first breakage to the pass that caused it.

use crate::{candidates, FunctionReport, PassConfig, PassReport};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;
use swpf_ir::{FuncId, Module};
use swpf_pass::{
    AnalysisManager, Dce, FunctionPass, Gvn, Licm, LocalCse, PassEffect, PassManager,
    PipelineError, Sccp,
};

/// One named pass of a [`Pipeline`] spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassName {
    /// The prefetch-generation pass itself.
    Swpf,
    /// Dominator-scoped global value numbering.
    Gvn,
    /// Sparse conditional constant propagation.
    Sccp,
    /// Loop-invariant code motion.
    Licm,
    /// Local common-subexpression elimination over generated code.
    Cse,
    /// Dead-code elimination.
    Dce,
    /// An explicit verification checkpoint.
    Verify,
}

/// Every valid pipeline token, in canonical (default-pipeline) order —
/// the single source for parse errors and `swpf-opt` help text.
pub const PASS_NAMES: [PassName; 7] = [
    PassName::Swpf,
    PassName::Gvn,
    PassName::Sccp,
    PassName::Licm,
    PassName::Cse,
    PassName::Dce,
    PassName::Verify,
];

impl PassName {
    /// The spec token naming this pass.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PassName::Swpf => "swpf",
            PassName::Gvn => "gvn",
            PassName::Sccp => "sccp",
            PassName::Licm => "licm",
            PassName::Cse => "cse",
            PassName::Dce => "dce",
            PassName::Verify => "verify",
        }
    }

    /// The valid spec tokens joined for diagnostics and help text
    /// (`"swpf | gvn | sccp | licm | cse | dce | verify"`).
    #[must_use]
    pub fn valid_tokens() -> String {
        PASS_NAMES
            .iter()
            .map(|p| p.as_str())
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// Inverse of [`PassName::as_str`].
    ///
    /// # Errors
    /// Names the unknown token and lists the valid ones.
    pub fn parse(s: &str) -> Result<Self, String> {
        PASS_NAMES
            .iter()
            .copied()
            .find(|p| p.as_str() == s)
            .ok_or_else(|| format!("unknown pass `{s}` (expected {})", PassName::valid_tokens()))
    }
}

/// An ordered pass pipeline, parsed from a comma-separated spec
/// (`"swpf,cse,dce"`). The default pipeline is the bare prefetch pass,
/// which reproduces the original monolithic `run_on_module` exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pipeline(Vec<PassName>);

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline(vec![PassName::Swpf])
    }
}

impl Pipeline {
    /// A pipeline from an explicit pass list (may be empty: a no-op).
    #[must_use]
    pub fn new(passes: Vec<PassName>) -> Self {
        Pipeline(passes)
    }

    /// The passes in execution order.
    #[must_use]
    pub fn passes(&self) -> &[PassName] {
        &self.0
    }

    /// Whether this is the default `"swpf"` pipeline (whose results,
    /// cache keys, and artifact labels must match the legacy pass).
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.0 == [PassName::Swpf]
    }

    /// The spec suffix appended to [`PassConfig::cache_key`] for
    /// non-default pipelines (`"swpf+cse+dce"`).
    #[must_use]
    pub fn key(&self) -> String {
        self.0
            .iter()
            .map(|p| p.as_str())
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl FromStr for Pipeline {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let passes: Vec<PassName> = s
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(PassName::parse)
            .collect::<Result<_, _>>()?;
        if passes.is_empty() {
            return Err("empty pipeline spec".to_string());
        }
        Ok(Pipeline(passes))
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(p.as_str())?;
        }
        Ok(())
    }
}

/// The prefetch-generation pass as a staged function pass: discovery →
/// filtering → scheduling + generation ([`candidates::discover`],
/// [`candidates::filter`], [`crate::codegen`]), with every analysis
/// served by the driver's [`AnalysisManager`] instead of recomputed.
///
/// The pass keeps its side tables (the candidate walk's, `chain_of`'s,
/// code generation's) from function to function.
///
/// Per-function [`crate::FunctionReport`]s accumulate into the shared
/// report handed to [`SwpfPass::new`] (shared so [`run_pipeline`] can
/// retrieve it back out of the type-erased pipeline).
pub struct SwpfPass {
    config: PassConfig,
    report: Rc<RefCell<PassReport>>,
    scratch: candidates::Scratch,
}

impl SwpfPass {
    /// A prefetch pass writing its outcome into `report`.
    #[must_use]
    pub fn new(config: PassConfig, report: Rc<RefCell<PassReport>>) -> Self {
        SwpfPass {
            config,
            report,
            scratch: candidates::Scratch::default(),
        }
    }
}

impl FunctionPass for SwpfPass {
    fn name(&self) -> &'static str {
        "swpf"
    }

    fn run(&mut self, m: &mut Module, fid: FuncId, am: &mut AnalysisManager) -> PassEffect {
        let analysis = am.func_analysis(m.function(fid), fid);
        let fr = candidates::run_with_analysis(m, fid, &self.config, &analysis, &mut self.scratch);
        let changed = !fr.prefetches.is_empty();
        self.report.borrow_mut().functions.push(fr);
        if changed {
            // Generation only inserts prefetches and address
            // computation into existing blocks — the CFG is untouched,
            // so downstream passes (GVN's dominators, LICM's loops)
            // reuse the cached structural analyses.
            PassEffect::changed().preserving_cfg()
        } else {
            PassEffect::unchanged()
        }
    }
}

/// `config`'s pipeline, run one function at a time.
///
/// [`FunctionPipeline::run`] runs every pass on one function before it
/// returns. Each `swpf` stage keeps its own report, so that a pipeline
/// with two of them (`swpf,dce,swpf`) still lists every function of the
/// first stage before any of the second; [`FunctionPipeline::drain`]
/// hands out what the stages reported so far.
///
/// Setting `SWPF_VERIFY_PASSES` (to anything but `0`) verifies the
/// function after every pass.
pub struct FunctionPipeline {
    pm: PassManager<'static>,
    /// One report per `swpf` stage, in pipeline order.
    reports: Vec<Rc<RefCell<PassReport>>>,
    /// Instructions the cleanup passes removed so far.
    eliminated: usize,
}

impl FunctionPipeline {
    /// The passes of `config.pipeline`, configured by `config`.
    #[must_use]
    pub fn new(config: &PassConfig) -> Self {
        let verify_each = std::env::var_os("SWPF_VERIFY_PASSES").is_some_and(|v| v != "0");
        let mut pm = PassManager::new().verify_between(verify_each);
        let mut reports = Vec::new();
        for pass in config.pipeline.passes() {
            match pass {
                PassName::Swpf => {
                    let report = Rc::new(RefCell::new(PassReport::default()));
                    let pass = SwpfPass::new(config.clone(), Rc::clone(&report));
                    pm.add_function_pass(Box::new(pass));
                    reports.push(report);
                }
                PassName::Gvn => pm.add_function_pass(Box::new(Gvn::default())),
                PassName::Sccp => pm.add_function_pass(Box::new(Sccp::default())),
                PassName::Licm => pm.add_function_pass(Box::new(Licm::default())),
                PassName::Cse => pm.add_function_pass(Box::new(LocalCse::default())),
                PassName::Dce => pm.add_function_pass(Box::new(Dce::default())),
                PassName::Verify => pm.add_verify(),
            }
        }
        FunctionPipeline {
            pm,
            reports,
            eliminated: 0,
        }
    }

    /// The number of `swpf` stages, each of which reports.
    #[must_use]
    pub fn reporting_stages(&self) -> usize {
        self.reports.len()
    }

    /// Run every pass on `m`'s function `fid`.
    ///
    /// # Errors
    /// A `verify` stage the function fails, or under
    /// `SWPF_VERIFY_PASSES` the first pass after which it no longer
    /// verifies.
    pub fn run(
        &mut self,
        m: &mut Module,
        fid: FuncId,
        am: &mut AnalysisManager,
    ) -> Result<(), PipelineError> {
        self.eliminated += self.pm.run_function(m, fid, am)?;
        Ok(())
    }

    /// Hand `each` every function report made since the last drain,
    /// with the index of the `swpf` stage that made it, in stage order.
    pub fn drain(&mut self, mut each: impl FnMut(usize, FunctionReport)) {
        for (stage, report) in self.reports.iter().enumerate() {
            for fr in report.borrow_mut().functions.drain(..) {
                each(stage, fr);
            }
        }
    }

    /// The whole report: every `swpf` stage's functions, stage by
    /// stage, and the instructions the cleanup passes removed.
    #[must_use]
    pub fn finish(mut self) -> PassReport {
        let mut out = PassReport::default();
        self.drain(|_, fr| out.functions.push(fr));
        out.eliminated_insts = self.eliminated;
        out
    }
}

/// Run `config`'s pipeline over `m`, one function at a time, reading
/// analyses through `am`.
///
/// This is the engine under [`crate::run_on_module`]; callers compiling
/// many variants of one pristine module (the `swpf-tune` evaluator)
/// pass a [`fork`](AnalysisManager::fork) of a shared primed manager so
/// pre-mutation analyses are computed once across all variants.
///
/// # Panics
/// If a pass breaks module invariants while verification is enabled
/// (the `verify` pipeline pass or `SWPF_VERIFY_PASSES`) — a pass bug,
/// attributed to the offending pass in the panic message.
pub fn run_pipeline(m: &mut Module, config: &PassConfig, am: &mut AnalysisManager) -> PassReport {
    let _span = swpf_obs::span("compile");
    let mut pipeline = FunctionPipeline::new(config);
    for fid in m.func_ids() {
        pipeline
            .run(m, fid, am)
            .unwrap_or_else(|e| panic!("prefetch pipeline failed: {e}"));
    }
    pipeline.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_round_trip() {
        for spec in [
            "swpf",
            "swpf,cse,dce",
            "swpf,verify,dce",
            "cse , dce",
            "swpf,gvn,sccp,licm,cse,dce",
        ] {
            let p: Pipeline = spec.parse().unwrap();
            let canonical = p.to_string();
            assert_eq!(canonical.parse::<Pipeline>().unwrap(), p, "{spec}");
        }
        assert_eq!(
            "swpf,gvn,sccp,licm,cse,dce"
                .parse::<Pipeline>()
                .unwrap()
                .passes(),
            [
                PassName::Swpf,
                PassName::Gvn,
                PassName::Sccp,
                PassName::Licm,
                PassName::Cse,
                PassName::Dce
            ]
        );
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!("".parse::<Pipeline>().is_err());
        assert!(",".parse::<Pipeline>().is_err());
        assert!("swpf,o3".parse::<Pipeline>().unwrap_err().contains("o3"));
    }

    #[test]
    fn parse_errors_list_every_valid_pass_name() {
        let err = "swpf,o3".parse::<Pipeline>().unwrap_err();
        for name in PASS_NAMES {
            assert!(
                err.contains(name.as_str()),
                "{err} missing {}",
                name.as_str()
            );
        }
    }

    #[test]
    fn default_pipeline_is_the_bare_pass() {
        let p = Pipeline::default();
        assert!(p.is_default());
        assert_eq!(p.to_string(), "swpf");
        assert!(!"swpf,dce".parse::<Pipeline>().unwrap().is_default());
        assert_eq!(
            "swpf,cse,dce".parse::<Pipeline>().unwrap().key(),
            "swpf+cse+dce"
        );
    }
}
