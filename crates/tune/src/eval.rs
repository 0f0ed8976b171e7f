//! The candidate compiler: one pass-pipeline run per configuration,
//! on a clone of the workload's baseline kernel.
//!
//! An [`Evaluator`] is constructed per (workload, machine set). It
//! builds the workload's baseline module once and clones it per
//! candidate (IDs are preserved), so one primed `swpf-pass`
//! [`AnalysisManager`] serves every candidate's pre-mutation analyses:
//! each pipeline run gets a [`fork`](AnalysisManager::fork) of the
//! shared cache, and its post-mutation invalidations stay in the fork.
//! Across a 25-point search the dominators/loops/induction-variable/
//! root analyses are computed once instead of once per candidate; the
//! compile phase of a paper-scale search took 1.42x as long without the
//! cache (`BENCH.json` record `pass.compile_sweep_25_points.uncached_over_cached`),
//! and this module's tests check that the cache changes no output.
//!
//! The evaluator does not simulate. What a compiled candidate costs is
//! the [`Pricer`](crate::Pricer)'s question: the experiment harness
//! compiles here and prices through its simulation rows.

use swpf_core::{PassConfig, PassReport};
use swpf_ir::Module;
use swpf_pass::AnalysisManager;
use swpf_sim::MachineConfig;
use swpf_workloads::Workload;

/// Compiles candidate configurations of one workload's kernel, sharing
/// one analysis cache across them.
pub struct Evaluator<'a> {
    machines: &'a [MachineConfig],
    /// The pristine kernel, built once; candidates compile clones.
    baseline: Module,
    /// Analyses of `baseline`, primed on the first compile and forked
    /// per candidate compile.
    shared_analyses: AnalysisManager,
    analysis_caching: bool,
    /// Whether the shared cache has been primed yet (lazily, on the
    /// first compile — and never when caching is disabled).
    primed: bool,
    analyses_computed: usize,
}

impl<'a> Evaluator<'a> {
    /// An evaluator for `workload`, whose candidates are priced on
    /// `machines`, with an empty analysis cache.
    #[must_use]
    pub fn new(workload: &'a dyn Workload, machines: &'a [MachineConfig]) -> Self {
        Evaluator {
            machines,
            baseline: workload.build_baseline(),
            shared_analyses: AnalysisManager::new(),
            analysis_caching: true,
            primed: false,
            analyses_computed: 0,
        }
    }

    /// The machine set candidates are priced on.
    #[must_use]
    pub fn machines(&self) -> &'a [MachineConfig] {
        self.machines
    }

    /// Compile one candidate: clone the pristine baseline, run
    /// `config`'s pass pipeline over a fork of the shared analysis
    /// cache, and verify the output. Every call pays: memoising is the
    /// caller's business.
    ///
    /// # Panics
    /// If the pipeline output fails verification — a pass bug.
    pub fn compile_candidate(&mut self, config: &PassConfig) -> (Module, PassReport) {
        let _span = swpf_obs::span("tune:compile");
        if self.analysis_caching && !self.primed {
            for fid in self.baseline.func_ids().collect::<Vec<_>>() {
                let _ = self
                    .shared_analyses
                    .func_analysis(self.baseline.function(fid), fid);
            }
            self.primed = true;
        }
        let mut module = self.baseline.clone();
        let mut am = if self.analysis_caching {
            self.shared_analyses.fork()
        } else {
            AnalysisManager::new()
        };
        let report = swpf_core::run_pipeline(&mut module, config, &mut am);
        swpf_ir::verifier::verify_module(&module).expect("pass output verifies");
        self.analyses_computed += am.analyses_computed();
        (module, report)
    }

    /// Individual analyses computed during candidate compiles (forks'
    /// cache misses), *excluding* the one-time lazy priming of the
    /// shared cache. Zero when every candidate was served entirely from
    /// the primed cache.
    #[must_use]
    pub fn analyses_computed(&self) -> usize {
        self.analyses_computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swpf_ir::printer::print_module;
    use swpf_workloads::{Scale, WorkloadId};

    impl Evaluator<'_> {
        /// Disable the shared analysis cache: every candidate compile
        /// recomputes all analyses from scratch (the pre-pass-manager
        /// behaviour), the uncached reference of these tests.
        fn without_analysis_caching(mut self) -> Self {
            self.analysis_caching = false;
            self
        }
    }

    #[test]
    fn shared_analysis_cache_serves_every_candidate() {
        let w = WorkloadId::Is.instantiate(Scale::Test);
        let machines = [MachineConfig::a53()];
        let mut cached = Evaluator::new(w.as_ref(), &machines);
        for c in [2, 8, 32, 128] {
            let _ = cached.compile_candidate(&PassConfig::with_look_ahead(c));
        }
        assert_eq!(
            cached.analyses_computed(),
            0,
            "all pre-mutation analyses come from the primed shared cache"
        );

        let mut uncached = Evaluator::new(w.as_ref(), &machines).without_analysis_caching();
        for c in [2, 8, 32, 128] {
            let _ = uncached.compile_candidate(&PassConfig::with_look_ahead(c));
        }
        assert!(
            uncached.analyses_computed() >= 4 * 4,
            "uncached: ≥ 4 analyses × 4 candidates, got {}",
            uncached.analyses_computed()
        );
    }

    #[test]
    fn caching_does_not_change_results() {
        let w = WorkloadId::Cg.instantiate(Scale::Test);
        let machines = [MachineConfig::xeon_phi()];
        let mut cached = Evaluator::new(w.as_ref(), &machines);
        let mut uncached = Evaluator::new(w.as_ref(), &machines).without_analysis_caching();
        for config in [
            PassConfig::with_look_ahead(24),
            PassConfig::with_pipeline("swpf,gvn,sccp,licm,cse,dce"),
        ] {
            let (a, ra) = cached.compile_candidate(&config);
            let (b, rb) = uncached.compile_candidate(&config);
            assert_eq!(print_module(&a), print_module(&b));
            assert_eq!(ra.total_prefetches(), rb.total_prefetches());
            assert!(ra.total_prefetches() > 0, "CG has an indirect access");
        }
    }
}
