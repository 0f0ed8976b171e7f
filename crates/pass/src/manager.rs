//! The driver: pass traits, the analysis cache, and the pipeline runner.

use std::sync::Arc;
use swpf_analysis::{DomTree, FuncAnalysis, IvAnalysis, LoopForest, RootsAnalysis, Scratch};
use swpf_ir::verifier::{verify_function_all_in, VerifyError, VerifyScratch};
use swpf_ir::{FuncId, Function, Module};

/// What one pass execution did, as declared by the pass itself.
///
/// The driver turns this declaration into cache maintenance: a changed
/// function's analyses are invalidated before the next pass runs. A
/// pass that lies (mutates but reports [`PassEffect::unchanged`]) hands
/// stale analyses to its successors — the verify-between-passes mode
/// ([`PassManager::verify_between`]) exists to catch the fallout early.
///
/// A pass whose mutations leave the CFG intact (no blocks or edges
/// added, removed, or retargeted) may additionally declare
/// [`PassEffect::preserving_cfg`]: the driver then keeps the cached
/// dominator tree and loop forest — which read only block structure —
/// and drops just the value-level analyses (induction variables,
/// object roots), which reference instruction placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassEffect {
    /// Whether the pass mutated the IR it ran on.
    pub changed: bool,
    /// Instructions the pass removed from blocks (cleanup-pass metric;
    /// zero for passes that only insert or rewrite).
    pub removed_insts: usize,
    /// Whether every mutation left the CFG (block set and edge set)
    /// unchanged, so dominators and loops remain valid.
    pub preserves_cfg: bool,
}

impl PassEffect {
    /// The pass left the IR untouched; analyses stay valid.
    #[must_use]
    pub fn unchanged() -> Self {
        PassEffect {
            changed: false,
            removed_insts: 0,
            preserves_cfg: false,
        }
    }

    /// The pass mutated the IR (inserting or rewriting; nothing removed).
    #[must_use]
    pub fn changed() -> Self {
        PassEffect {
            changed: true,
            removed_insts: 0,
            preserves_cfg: false,
        }
    }

    /// The pass removed `n` instructions (changed iff `n > 0`).
    #[must_use]
    pub fn removed(n: usize) -> Self {
        PassEffect {
            changed: n > 0,
            removed_insts: n,
            preserves_cfg: false,
        }
    }

    /// Declare that the mutation did not touch the CFG: no blocks or
    /// branch edges were added, removed, or retargeted. Inserting,
    /// deleting, moving, or rewriting non-terminator instructions all
    /// qualify. The driver keeps dominators and loops cached.
    #[must_use]
    pub fn preserving_cfg(mut self) -> Self {
        self.preserves_cfg = true;
        self
    }
}

/// A transformation over one function.
pub trait FunctionPass {
    /// Stable pass name ("swpf", "cse", ...) for pipeline specs, logs,
    /// and verify-failure attribution.
    fn name(&self) -> &'static str;

    /// Transform `m`'s function `fid`, reading analyses through `am`.
    ///
    /// The pass must not invalidate `am` itself — it reports mutation
    /// through the returned [`PassEffect`] and the driver invalidates.
    fn run(&mut self, m: &mut Module, fid: FuncId, am: &mut AnalysisManager) -> PassEffect;
}

/// Cached per-function analyses.
#[derive(Debug, Default, Clone)]
struct FuncEntry {
    dom: Option<Arc<DomTree>>,
    loops: Option<Arc<LoopForest>>,
    ivs: Option<Arc<IvAnalysis>>,
    roots: Option<Arc<RootsAnalysis>>,
}

/// Lazily computes and caches `swpf-analysis` results per function.
///
/// Each product (dominators, loops, induction variables, object roots)
/// is cached independently behind an `Arc`, computed on first request
/// and handed out by clone afterwards. [`AnalysisManager::invalidate`]
/// drops a function's entries; [`AnalysisManager::fork`] clones the
/// cache cheaply (`Arc` clones) so pipelines over clones of one pristine
/// module can share its pre-mutation analyses without any of their
/// invalidations leaking back.
///
/// "This function verifies" is cached the same way
/// ([`AnalysisManager::verify`]): one fact per function, which every
/// invalidation of the function clears. A fork starts without any.
#[derive(Debug, Default)]
pub struct AnalysisManager {
    /// Indexed by `FuncId`; `None` until a function's analyses are
    /// first requested, and again after [`AnalysisManager::invalidate`].
    entries: Vec<Option<FuncEntry>>,
    /// Working storage every computation runs in.
    scratch: Scratch,
    /// Working storage every verification runs in.
    verify_scratch: VerifyScratch,
    /// Indexed by `FuncId`: whether the function has verified and was
    /// not invalidated since.
    verified: Vec<bool>,
    computed: usize,
    hits: usize,
    preserved: usize,
}

impl AnalysisManager {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        AnalysisManager::default()
    }

    /// A new manager sharing this one's cached results (cheap `Arc`
    /// clones). The fork's invalidations and statistics are its own.
    #[must_use]
    pub fn fork(&self) -> Self {
        AnalysisManager {
            entries: self.entries.clone(),
            scratch: Scratch::default(),
            verify_scratch: VerifyScratch::default(),
            verified: Vec::new(),
            computed: 0,
            hits: 0,
            preserved: 0,
        }
    }

    /// Individual analyses computed so far (cache misses).
    #[must_use]
    pub fn analyses_computed(&self) -> usize {
        self.computed
    }

    /// Requests served from the cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.hits
    }

    /// Cached analyses kept alive across a CFG-preserving mutation
    /// (each one a recomputation the declaration avoided).
    #[must_use]
    pub fn analyses_preserved(&self) -> usize {
        self.preserved
    }

    /// Check the invariants of `m`'s function `fid`, unless they were
    /// checked and the function was not invalidated since: a pass that
    /// changed nothing, or `swpf-opt`'s final check of an output no
    /// pass touched, costs nothing.
    ///
    /// The fact rests on passes declaring their mutations truthfully;
    /// [`PassManager::verify_between`] does not consult it.
    ///
    /// # Errors
    /// Every violation found in the function.
    pub fn verify(&mut self, m: &Module, fid: FuncId) -> Result<(), Vec<VerifyError>> {
        if self.verified.get(fid.index()) != Some(&true) {
            let errs = verify_function_all_in(m, fid, &mut self.verify_scratch);
            if !errs.is_empty() {
                return Err(errs);
            }
            if self.verified.len() <= fid.index() {
                self.verified.resize(fid.index() + 1, false);
            }
            self.verified[fid.index()] = true;
        }
        Ok(())
    }

    /// Forget that `fid` verified.
    fn unverify(&mut self, fid: FuncId) {
        if let Some(verified) = self.verified.get_mut(fid.index()) {
            *verified = false;
        }
    }

    /// Drop every cached analysis of `fid`.
    pub fn invalidate(&mut self, fid: FuncId) {
        self.unverify(fid);
        if self
            .entries
            .get_mut(fid.index())
            .and_then(Option::take)
            .is_some()
        {
            swpf_obs::count("analysis.invalidated", 1);
        }
    }

    /// Partial invalidation after a CFG-preserving mutation of `fid`:
    /// the dominator tree and loop forest read only block structure and
    /// stay cached; the value-level analyses (induction variables,
    /// object roots) reference instruction placement and are dropped.
    pub fn invalidate_preserving_cfg(&mut self, fid: FuncId) {
        self.unverify(fid);
        if let Some(Some(entry)) = self.entries.get_mut(fid.index()) {
            entry.ivs = None;
            entry.roots = None;
            let kept = usize::from(entry.dom.is_some()) + usize::from(entry.loops.is_some());
            if kept > 0 {
                self.preserved += kept;
                swpf_obs::count("analysis.preserved", kept as u64);
            }
            swpf_obs::count("analysis.invalidated", 1);
        }
    }

    /// The (created-on-demand) cache entry of `fid`.
    fn entry(&mut self, fid: FuncId) -> &mut FuncEntry {
        if self.entries.len() <= fid.index() {
            self.entries.resize(fid.index() + 1, None);
        }
        self.entries[fid.index()].get_or_insert_with(FuncEntry::default)
    }

    /// One cache hit: bump the local statistic and the process-wide
    /// observability counter.
    fn note_hit(&mut self) {
        self.hits += 1;
        swpf_obs::count("analysis.cache_hit", 1);
    }

    /// One cache miss (analysis computed).
    fn note_computed(&mut self) {
        self.computed += 1;
        swpf_obs::count("analysis.computed", 1);
    }

    /// The dominator tree of `f` (`fid` must identify `f` in its module).
    pub fn dom(&mut self, f: &Function, fid: FuncId) -> Arc<DomTree> {
        if let Some(dom) = self.entry(fid).dom.clone() {
            self.note_hit();
            return dom;
        }
        let dom = Arc::new(DomTree::compute_in(f, &mut self.scratch.cfg));
        self.note_computed();
        self.entry(fid).dom = Some(Arc::clone(&dom));
        dom
    }

    /// The natural-loop forest of `f`.
    pub fn loops(&mut self, f: &Function, fid: FuncId) -> Arc<LoopForest> {
        if let Some(loops) = self.entry(fid).loops.clone() {
            self.note_hit();
            return loops;
        }
        let dom = self.dom(f, fid);
        let loops = Arc::new(LoopForest::compute_in(f, &dom, &mut self.scratch));
        self.note_computed();
        self.entry(fid).loops = Some(Arc::clone(&loops));
        loops
    }

    /// The induction-variable analysis of `f`.
    pub fn ivs(&mut self, f: &Function, fid: FuncId) -> Arc<IvAnalysis> {
        if let Some(ivs) = self.entry(fid).ivs.clone() {
            self.note_hit();
            return ivs;
        }
        let loops = self.loops(f, fid);
        let ivs = Arc::new(IvAnalysis::compute(f, &loops));
        self.note_computed();
        self.entry(fid).ivs = Some(Arc::clone(&ivs));
        ivs
    }

    /// The memoised object roots of `f`.
    pub fn roots(&mut self, f: &Function, fid: FuncId) -> Arc<RootsAnalysis> {
        if let Some(roots) = self.entry(fid).roots.clone() {
            self.note_hit();
            return roots;
        }
        let roots = Arc::new(RootsAnalysis::compute(f, &mut self.scratch));
        self.note_computed();
        self.entry(fid).roots = Some(Arc::clone(&roots));
        roots
    }

    /// The full bundle the prefetch pass consumes, assembled from the
    /// cache (each component computed at most once per validity window).
    pub fn func_analysis(&mut self, f: &Function, fid: FuncId) -> FuncAnalysis {
        FuncAnalysis {
            dom: self.dom(f, fid),
            loops: self.loops(f, fid),
            ivs: self.ivs(f, fid),
            roots: self.roots(f, fid),
        }
    }
}

/// A pipeline failure: which pass broke the module, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// Name of the pass after which the failure was detected.
    pub pass: &'static str,
    /// The underlying diagnostic (verifier message, pass error).
    pub message: String,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pass `{}`: {}", self.pass, self.message)
    }
}

impl std::error::Error for PipelineError {}

/// What one pipeline stage did, aggregated over the functions it ran on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRun {
    /// The pass's name.
    pub name: &'static str,
    /// Whether any function was mutated.
    pub changed: bool,
    /// Total instructions removed by this stage.
    pub removed_insts: usize,
}

/// One pipeline stage: a function pass, or a verification checkpoint.
enum Stage<'p> {
    Pass(Box<dyn FunctionPass + 'p>),
    Verify,
}

impl Stage<'_> {
    fn name(&self) -> &'static str {
        match self {
            Stage::Pass(pass) => pass.name(),
            Stage::Verify => "verify",
        }
    }
}

/// Runs a pass pipeline one function at a time, maintaining the
/// analysis cache.
///
/// [`PassManager::run_function`] runs every stage, in insertion order,
/// on one function before it returns, so a caller that compiles a module
/// function by function holds one function's analyses at a time;
/// [`PassManager::run`] does that for every function of a module in
/// order. After a stage changed the function, its analyses are
/// invalidated. A verification stage ([`PassManager::add_verify`])
/// checks the function through the cached fact of
/// [`AnalysisManager::verify`]. With [`PassManager::verify_between`]
/// enabled, the function is checked after every stage; the first broken
/// stage aborts the pipeline with **every** violation it introduced
/// attributed to it.
///
/// When profiling is enabled (`swpf-obs`), each stage runs under a
/// `pass:<name>` span, and the analysis cache reports
/// `analysis.cache_hit` / `analysis.computed` / `analysis.invalidated`
/// counters.
#[derive(Default)]
pub struct PassManager<'p> {
    stages: Vec<Stage<'p>>,
    verify_between: bool,
}

impl<'p> PassManager<'p> {
    /// An empty pipeline.
    #[must_use]
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Enable (or disable) the verify-between-passes debug mode.
    #[must_use]
    pub fn verify_between(mut self, on: bool) -> Self {
        self.verify_between = on;
        self
    }

    /// Append a function pass.
    pub fn add_function_pass(&mut self, pass: Box<dyn FunctionPass + 'p>) {
        self.stages.push(Stage::Pass(pass));
    }

    /// Append a verification checkpoint, which fails the pipeline on a
    /// function that does not verify and changes nothing.
    pub fn add_verify(&mut self) {
        self.stages.push(Stage::Verify);
    }

    /// Number of stages in the pipeline.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline has no stages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Run every stage in order on `m`'s function `fid`, reading and
    /// maintaining `am`; the instructions the stages removed.
    ///
    /// # Errors
    /// The first verification stage the function fails, or (with
    /// verification between passes) the first stage after which it no
    /// longer verifies — attributed to that stage, with **every**
    /// invariant violation it introduced listed.
    pub fn run_function(
        &mut self,
        m: &mut Module,
        fid: FuncId,
        am: &mut AnalysisManager,
    ) -> Result<usize, PipelineError> {
        let mut removed = 0;
        self.run_stages(m, fid, am, |_, effect| removed += effect.removed_insts)?;
        Ok(removed)
    }

    /// Run every stage on each function of `m` in turn; what each stage
    /// did over all of them, in stage order.
    ///
    /// # Errors
    /// The first failure of [`PassManager::run_function`].
    pub fn run(
        &mut self,
        m: &mut Module,
        am: &mut AnalysisManager,
    ) -> Result<Vec<PassRun>, PipelineError> {
        let mut runs: Vec<PassRun> = self
            .stages
            .iter()
            .map(|stage| PassRun {
                name: stage.name(),
                changed: false,
                removed_insts: 0,
            })
            .collect();
        for fid in m.func_ids() {
            self.run_stages(m, fid, am, |stage, effect| {
                runs[stage].changed |= effect.changed;
                runs[stage].removed_insts += effect.removed_insts;
            })?;
        }
        Ok(runs)
    }

    /// [`PassManager::run_function`], handing `record` each pass
    /// stage's index and effect.
    fn run_stages(
        &mut self,
        m: &mut Module,
        fid: FuncId,
        am: &mut AnalysisManager,
        mut record: impl FnMut(usize, PassEffect),
    ) -> Result<(), PipelineError> {
        for (index, stage) in self.stages.iter_mut().enumerate() {
            let name = stage.name();
            let _span = swpf_obs::enabled().then(|| swpf_obs::span(format!("pass:{name}")));
            match stage {
                Stage::Pass(pass) => {
                    let effect = pass.run(m, fid, am);
                    if effect.changed {
                        if effect.preserves_cfg {
                            am.invalidate_preserving_cfg(fid);
                        } else {
                            am.invalidate(fid);
                        }
                    }
                    record(index, effect);
                }
                Stage::Verify => {
                    if let Err(errs) = am.verify(m, fid) {
                        let message = errs
                            .iter()
                            .map(std::string::ToString::to_string)
                            .collect::<Vec<_>>()
                            .join("; ");
                        return Err(PipelineError {
                            pass: name,
                            message,
                        });
                    }
                }
            }
            if self.verify_between {
                // Unconditionally: this mode exists to catch a pass that
                // mutates and declares `unchanged`, which the cached fact
                // of `AnalysisManager::verify` would believe.
                let errs = verify_function_all_in(m, fid, &mut am.verify_scratch);
                if !errs.is_empty() {
                    use std::fmt::Write as _;
                    let mut message = format!(
                        "module invariants broken after this pass ({} violation{}):",
                        errs.len(),
                        if errs.len() == 1 { "" } else { "s" }
                    );
                    for e in &errs {
                        let _ = write!(message, "\n  {e}");
                    }
                    return Err(PipelineError {
                        pass: name,
                        message,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swpf_ir::parser::parse_module;

    const LOOP_KERNEL: &str = "module t\n\n\
        func @k(%0: ptr, %1: ptr, %2: i64) -> void {\n\
          %3 = const 0: i64\n\
          %4 = const 1: i64\n\
        bb0:\n\
          br bb1\n\
        bb1:\n\
          %5: i64 = phi [bb0: %3], [bb2: %11]\n\
          %6: i1 = icmp slt %5, %2\n\
          br %6, bb2, bb3\n\
        bb2:\n\
          %7: ptr = gep %1, %5 x 8\n\
          %8: i64 = load i64, %7\n\
          %9: ptr = gep %0, %8 x 8\n\
          %10: i64 = load i64, %9\n\
          %11: i64 = add %5, %4\n\
          br bb1\n\
        bb3:\n\
          ret\n\
        }\n";

    #[test]
    fn analyses_are_computed_once_and_shared() {
        let m = parse_module(LOOP_KERNEL).unwrap();
        let fid = m.find_function("k").unwrap();
        let mut am = AnalysisManager::new();

        let a = am.func_analysis(m.function(fid), fid);
        assert_eq!(am.analyses_computed(), 4, "dom, loops, ivs, roots");
        let hits_after_first = am.cache_hits();

        let b = am.func_analysis(m.function(fid), fid);
        assert_eq!(am.analyses_computed(), 4, "second request is all hits");
        assert!(am.cache_hits() > hits_after_first);
        assert!(Arc::ptr_eq(&a.dom, &b.dom), "shared, not recomputed");
        assert!(Arc::ptr_eq(&a.roots, &b.roots));
    }

    #[test]
    fn invalidation_forces_recomputation() {
        let m = parse_module(LOOP_KERNEL).unwrap();
        let fid = m.find_function("k").unwrap();
        let mut am = AnalysisManager::new();
        let a = am.dom(m.function(fid), fid);
        am.invalidate(fid);
        let b = am.dom(m.function(fid), fid);
        assert!(!Arc::ptr_eq(&a, &b), "invalidate drops the cached tree");
        assert_eq!(am.analyses_computed(), 2);
    }

    #[test]
    fn forks_share_results_but_not_invalidations() {
        let m = parse_module(LOOP_KERNEL).unwrap();
        let fid = m.find_function("k").unwrap();
        let mut shared = AnalysisManager::new();
        let a = shared.func_analysis(m.function(fid), fid);

        let mut fork = shared.fork();
        let b = fork.func_analysis(m.function(fid), fid);
        assert_eq!(fork.analyses_computed(), 0, "all served from the fork");
        assert!(Arc::ptr_eq(&a.loops, &b.loops));

        fork.invalidate(fid);
        let _ = fork.dom(m.function(fid), fid);
        assert_eq!(fork.analyses_computed(), 1);
        // The shared cache still holds the original result.
        let c = shared.dom(m.function(fid), fid);
        assert!(Arc::ptr_eq(&a.dom, &c));
    }

    /// A pass that deliberately breaks SSA (truncates the entry block),
    /// used to prove the verify-between mode attributes breakage.
    struct Vandal;
    impl FunctionPass for Vandal {
        fn name(&self) -> &'static str {
            "vandal"
        }
        fn run(&mut self, m: &mut Module, fid: FuncId, _am: &mut AnalysisManager) -> PassEffect {
            let entry = m.function(fid).entry();
            m.function_mut(fid).block_mut(entry).insts.clear();
            PassEffect::changed()
        }
    }

    struct Nop;
    impl FunctionPass for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn run(&mut self, _m: &mut Module, _f: FuncId, _am: &mut AnalysisManager) -> PassEffect {
            PassEffect::unchanged()
        }
    }

    #[test]
    fn verify_between_attributes_breakage_to_the_offending_pass() {
        let mut m = parse_module(LOOP_KERNEL).unwrap();
        let mut am = AnalysisManager::new();
        let mut pm = PassManager::new().verify_between(true);
        pm.add_function_pass(Box::new(Nop));
        pm.add_function_pass(Box::new(Vandal));
        let err = pm.run(&mut m, &mut am).unwrap_err();
        assert_eq!(err.pass, "vandal");
        assert!(err.message.contains("invariants broken"), "{err}");
    }

    /// A pass that drops the terminator of every branching block,
    /// breaking several invariants at once.
    struct WideVandal;
    impl FunctionPass for WideVandal {
        fn name(&self) -> &'static str {
            "wide-vandal"
        }
        fn run(&mut self, m: &mut Module, fid: FuncId, _am: &mut AnalysisManager) -> PassEffect {
            for b in m.function(fid).block_ids().collect::<Vec<_>>() {
                let f = m.function_mut(fid);
                if f.block(b).insts.len() > 1 {
                    f.block_mut(b).insts.pop();
                }
            }
            PassEffect::changed()
        }
    }

    #[test]
    fn verify_between_reports_every_violation_of_a_broken_pass() {
        let mut m = parse_module(LOOP_KERNEL).unwrap();
        let mut am = AnalysisManager::new();
        let mut pm = PassManager::new().verify_between(true);
        pm.add_function_pass(Box::new(WideVandal));
        let err = pm.run(&mut m, &mut am).unwrap_err();
        assert_eq!(err.pass, "wide-vandal");
        assert!(err.message.contains("violations"), "{err}");
        let listed = err.message.matches("verify error").count();
        assert!(listed >= 2, "expected several violations listed: {err}");
    }

    /// A pass that claims to mutate without touching the CFG (it does
    /// nothing, which trivially satisfies the declaration).
    struct CfgPreservingNop;
    impl FunctionPass for CfgPreservingNop {
        fn name(&self) -> &'static str {
            "cfg-nop"
        }
        fn run(&mut self, _m: &mut Module, _f: FuncId, _am: &mut AnalysisManager) -> PassEffect {
            PassEffect::changed().preserving_cfg()
        }
    }

    #[test]
    fn cfg_preserving_change_keeps_dom_and_loops() {
        let mut m = parse_module(LOOP_KERNEL).unwrap();
        let fid = m.find_function("k").unwrap();
        let mut am = AnalysisManager::new();
        let before = am.func_analysis(m.function(fid), fid);
        assert_eq!(am.analyses_computed(), 4);

        let mut pm = PassManager::new();
        pm.add_function_pass(Box::new(CfgPreservingNop));
        pm.run(&mut m, &mut am).unwrap();
        assert_eq!(am.analyses_preserved(), 2, "dom and loops survive");

        // CFG analyses are served from the cache; value-level analyses
        // were dropped and recompute.
        let after = am.func_analysis(m.function(fid), fid);
        assert!(Arc::ptr_eq(&before.dom, &after.dom));
        assert!(Arc::ptr_eq(&before.loops, &after.loops));
        assert!(!Arc::ptr_eq(&before.ivs, &after.ivs));
        assert!(!Arc::ptr_eq(&before.roots, &after.roots));
        assert_eq!(am.analyses_computed(), 6, "only ivs and roots recomputed");
    }

    #[test]
    fn non_preserving_change_still_drops_everything() {
        let m = parse_module(LOOP_KERNEL).unwrap();
        let fid = m.find_function("k").unwrap();
        let mut am = AnalysisManager::new();
        let before = am.dom(m.function(fid), fid);
        am.invalidate_preserving_cfg(fid);
        // Partial invalidation kept dom...
        assert!(Arc::ptr_eq(&before, &am.dom(m.function(fid), fid)));
        // ...full invalidation does not.
        am.invalidate(fid);
        assert!(!Arc::ptr_eq(&before, &am.dom(m.function(fid), fid)));
    }

    #[test]
    fn driver_invalidates_only_changed_functions() {
        let mut m = parse_module(LOOP_KERNEL).unwrap();
        let fid = m.find_function("k").unwrap();
        let mut am = AnalysisManager::new();
        let before = am.dom(m.function(fid), fid);

        // An unchanged pass leaves the cache alone…
        let mut pm = PassManager::new();
        pm.add_function_pass(Box::new(Nop));
        pm.run(&mut m, &mut am).unwrap();
        assert!(Arc::ptr_eq(&before, &am.dom(m.function(fid), fid)));

        // …a mutating pass drops it.
        let mut pm = PassManager::new();
        pm.add_function_pass(Box::new(Vandal));
        let runs = pm.run(&mut m, &mut am).unwrap();
        assert!(runs[0].changed);
        assert!(!Arc::ptr_eq(&before, &am.dom(m.function(fid), fid)));
    }
}
