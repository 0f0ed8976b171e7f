//! The candidate evaluator: one interpretation per configuration
//! point, fanned out to every machine of the grid row.
//!
//! An [`Evaluator`] is constructed per (workload, machine set); its
//! point cache is keyed by the [`PassConfig`] value itself (`Eq +
//! Hash`), so the full cache key is conceptually `(workload,
//! machine-set, config)` — two strategies (or two machines' searches)
//! requesting the same point pay for it once. Evaluating a point
//! compiles the candidate kernel through `swpf-core`'s pass pipeline,
//! verifies it, interprets it **once**, and fans the retire-event
//! stream out to all machines' timing models — one [`swpf_sim::Sim`]
//! request over the whole machine row — so cost scales with candidates,
//! not candidates × machines.
//!
//! **Compile cost is shared too.** The evaluator builds the workload's
//! baseline module once and clones it per candidate (IDs are
//! preserved), so one primed `swpf-pass`
//! [`AnalysisManager`] serves every candidate's pre-mutation analyses:
//! each pipeline run gets a [`fork`](AnalysisManager::fork) of the
//! shared cache, and its post-mutation invalidations stay in the fork.
//! Across a 25-point search the dominators/loops/induction-variable/
//! root analyses are computed once instead of once per candidate; the
//! compile phase of a paper-scale search took 1.42x as long without the
//! cache (`BENCH.json` record `pass.compile_sweep_25_points.uncached_over_cached`),
//! and this module's tests check that the cache changes no result.
//!
//! Everything is deterministic: workloads build deterministic inputs,
//! simulation is execution-driven, and the cache only memoises — a
//! tuning run's every reported number is a pure function of (workload,
//! machine set, search space, strategy).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use swpf_core::{PassConfig, PassReport};
use swpf_ir::interp::{Interp, Tier};
use swpf_ir::Module;
use swpf_pass::AnalysisManager;
use swpf_sim::{MachineConfig, Sim, SimStats, Source};
use swpf_workloads::Workload;

/// One evaluated point of the parameter space: the configuration, what
/// the pass did with it, and the timing of the resulting kernel on
/// every machine of the evaluator's set.
#[derive(Debug, Clone)]
pub struct EvaluatedPoint {
    /// The configuration the candidate kernel was compiled with.
    pub config: PassConfig,
    /// Per-machine statistics, in the evaluator's machine order.
    pub stats: Vec<SimStats>,
    /// Prefetch instructions the pass emitted at this point.
    pub prefetches: usize,
}

/// Compiles, interprets, and times candidate configurations for one
/// workload on one machine set, memoising by configuration point.
pub struct Evaluator<'a> {
    workload: &'a dyn Workload,
    machines: &'a [MachineConfig],
    /// The pristine kernel, built once; candidates compile clones.
    baseline: Module,
    /// Analyses of `baseline`, primed on the first compile and forked
    /// per candidate compile.
    shared_analyses: AnalysisManager,
    analysis_caching: bool,
    /// Whether the shared cache has been primed yet (lazily, inside the
    /// first timed compile, so the priming cost is attributed to the
    /// cached mode that benefits from it — and never paid when caching
    /// is disabled).
    primed: bool,
    /// Execution tier candidates are interpreted on.
    tier: Tier,
    index: HashMap<PassConfig, usize>,
    points: Vec<Arc<EvaluatedPoint>>,
    interpretations: usize,
    compile_ns: u128,
    analyses_computed: usize,
}

impl<'a> Evaluator<'a> {
    /// An evaluator for `workload` on `machines` with empty caches.
    #[must_use]
    pub fn new(workload: &'a dyn Workload, machines: &'a [MachineConfig]) -> Self {
        Evaluator {
            workload,
            machines,
            baseline: workload.build_baseline(),
            shared_analyses: AnalysisManager::new(),
            analysis_caching: true,
            primed: false,
            tier: Tier::default(),
            index: HashMap::new(),
            points: Vec::new(),
            interpretations: 0,
            compile_ns: 0,
            analyses_computed: 0,
        }
    }

    /// Interpret candidates on `tier` (default: bytecode).
    #[must_use]
    pub fn with_tier(mut self, tier: Tier) -> Self {
        self.tier = tier;
        self
    }

    /// The machine set results are reported over.
    #[must_use]
    pub fn machines(&self) -> &[MachineConfig] {
        self.machines
    }

    /// Display name of the workload being tuned.
    #[must_use]
    pub fn workload_name(&self) -> &'static str {
        self.workload.name()
    }

    /// Compile one candidate: clone the pristine baseline, run
    /// `config`'s pass pipeline over a fork of the shared analysis
    /// cache, and verify the output. Every call pays (no memoisation —
    /// [`Evaluator::eval`] memoises whole points); the accumulated cost
    /// is readable via [`Evaluator::compile_seconds`].
    ///
    /// # Panics
    /// If the pipeline output fails verification — a pass bug.
    pub fn compile_candidate(&mut self, config: &PassConfig) -> (Module, PassReport) {
        let _span = swpf_obs::span("tune:compile");
        let t0 = Instant::now();
        if self.analysis_caching && !self.primed {
            // Prime once, inside the timed region: the one-off cost of
            // the shared cache is honestly part of the cached mode.
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
        self.compile_ns += t0.elapsed().as_nanos();
        self.analyses_computed += am.analyses_computed();
        (module, report)
    }

    /// Evaluate one configuration point: on a cache miss, compile the
    /// candidate ([`Evaluator::compile_candidate`]) and simulate it on
    /// every machine off a single interpretation. Cached points are
    /// returned without any work.
    ///
    /// # Panics
    /// If the pass output fails verification or the simulation traps —
    /// both are fatal configuration errors.
    pub fn eval(&mut self, config: &PassConfig) -> Arc<EvaluatedPoint> {
        if let Some(&i) = self.index.get(config) {
            swpf_obs::count("tune.point_cache.hit", 1);
            return Arc::clone(&self.points[i]);
        }
        swpf_obs::count("tune.point_cache.miss", 1);
        let _span = swpf_obs::span("tune:eval");
        let (module, report) = self.compile_candidate(config);
        let row = Sim {
            machines: &self.machines.iter().collect::<Vec<_>>(),
            cores: 1,
            tier: self.tier,
            perf: false,
        };
        let mut setup = |_: usize, interp: &mut Interp| self.workload.setup(interp);
        let stats = Source::module(&module, "kernel", &mut setup)
            .and_then(|source| row.run(source))
            .unwrap_or_else(|e| panic!("{}: {e}", self.workload.name()))
            .iter()
            .map(|r| r.stats)
            .collect();
        self.interpretations += 1;
        let point = Arc::new(EvaluatedPoint {
            config: config.clone(),
            stats,
            prefetches: report.total_prefetches(),
        });
        self.index.insert(config.clone(), self.points.len());
        self.points.push(Arc::clone(&point));
        point
    }

    /// Simulated cycles of `config` on machine index `machine`.
    ///
    /// # Panics
    /// If `machine` is out of range of the machine set.
    pub fn cycles(&mut self, config: &PassConfig, machine: usize) -> u64 {
        assert!(machine < self.machines.len(), "machine index out of range");
        self.eval(config).stats[machine].cycles
    }

    /// Interpretations actually paid (cache misses) — with an
    /// N-machine set, the fan-out makes this the whole cost: it counts
    /// candidates, not candidates × machines.
    #[must_use]
    pub fn interpretations(&self) -> usize {
        self.interpretations
    }

    /// Host seconds spent compiling candidates (clone + pipeline +
    /// verify), across every [`Evaluator::compile_candidate`] call.
    #[must_use]
    pub fn compile_seconds(&self) -> f64 {
        self.compile_ns as f64 * 1e-9
    }

    /// Individual analyses computed during candidate compiles (forks'
    /// cache misses), *excluding* the one-time lazy priming of the
    /// shared cache (whose wall cost [`Evaluator::compile_seconds`]
    /// does include). Zero when every candidate was served entirely
    /// from the primed cache.
    #[must_use]
    pub fn analyses_computed(&self) -> usize {
        self.analyses_computed
    }

    /// Every distinct point evaluated so far, in first-request order.
    #[must_use]
    pub fn points(&self) -> &[Arc<EvaluatedPoint>] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn points_are_cached_by_config_value_and_fan_out_to_all_machines() {
        let w = WorkloadId::Is.instantiate(Scale::Test);
        let machines = [MachineConfig::xeon_phi(), MachineConfig::a53()];
        let mut ev = Evaluator::new(w.as_ref(), &machines);

        let a = ev.eval(&PassConfig::default());
        assert_eq!(a.stats.len(), 2, "one SimStats per machine");
        assert!(a.stats.iter().all(|s| s.cycles > 0));
        assert!(a.prefetches > 0, "IS has an indirect access to prefetch");
        assert_eq!(ev.interpretations(), 1);

        // Same point (even via a differently-constructed equal config):
        // served from cache, no new interpretation.
        let b = ev.eval(&PassConfig::with_look_ahead(64));
        assert_eq!(ev.interpretations(), 1);
        assert_eq!(a.stats[0].cycles, b.stats[0].cycles);

        // A genuinely different point pays one more interpretation.
        let _ = ev.eval(&PassConfig::with_look_ahead(8));
        assert_eq!(ev.interpretations(), 2);
        assert_eq!(ev.points().len(), 2);

        // A different pipeline is a different point of the space.
        let _ = ev.eval(&PassConfig::with_pipeline("swpf,cse,dce"));
        assert_eq!(ev.interpretations(), 3);
    }

    #[test]
    fn fan_out_matches_dedicated_single_machine_runs() {
        let w = WorkloadId::Hj2.instantiate(Scale::Test);
        let machines = [MachineConfig::xeon_phi(), MachineConfig::a53()];
        let mut ev = Evaluator::new(w.as_ref(), &machines);
        let fanned = ev.eval(&PassConfig::with_look_ahead(16));

        for (i, m) in machines.iter().enumerate() {
            let mut solo = Evaluator::new(w.as_ref(), std::slice::from_ref(m));
            let alone = solo.eval(&PassConfig::with_look_ahead(16));
            assert_eq!(
                alone.stats[0].cycles, fanned.stats[i].cycles,
                "fan-out must be bit-identical to a dedicated run on {}",
                m.name
            );
        }
    }

    #[test]
    fn shared_analysis_cache_serves_every_candidate() {
        let w = WorkloadId::Is.instantiate(Scale::Test);
        let machines = [MachineConfig::a53()];
        let mut cached = Evaluator::new(w.as_ref(), &machines);
        for c in [2, 8, 32, 128] {
            let _ = cached.eval(&PassConfig::with_look_ahead(c));
        }
        assert_eq!(
            cached.analyses_computed(),
            0,
            "all pre-mutation analyses come from the primed shared cache"
        );

        let mut uncached = Evaluator::new(w.as_ref(), &machines).without_analysis_caching();
        for c in [2, 8, 32, 128] {
            let _ = uncached.eval(&PassConfig::with_look_ahead(c));
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
        let config = PassConfig::with_look_ahead(24);
        let mut cached = Evaluator::new(w.as_ref(), &machines);
        let mut uncached = Evaluator::new(w.as_ref(), &machines).without_analysis_caching();
        let a = cached.eval(&config);
        let b = uncached.eval(&config);
        assert_eq!(a.stats[0].cycles, b.stats[0].cycles);
        assert_eq!(a.prefetches, b.prefetches);
    }
}
