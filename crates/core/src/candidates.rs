//! Candidate collection and filtering (Algorithm 1 lines 29–40, §4.2).
//!
//! A *candidate* is a load in a loop from which the [`crate::dfs`] search
//! found an induction variable. Candidates survive to code generation only
//! when the pass can prove the generated look-ahead code is safe:
//!
//! * no function calls in the duplicated set (unless pure and permitted),
//! * no non-induction-variable phi nodes (complex control flow),
//! * the look-ahead array is indexed *directly* by a canonical induction
//!   variable (the paper's prototype restriction, §4.2),
//! * array extent information is available — from walking back to an
//!   `alloc`, or from a single-exit loop bound — so the induction variable
//!   can be clamped,
//! * no stores in the loop may alias the arrays the prefetch code loads
//!   from, and
//! * every duplicated instruction executes unconditionally each iteration
//!   of its loop (no loads conditional on loop-variant values).

use crate::codegen;
use crate::dfs::{find_iv_paths, DfsResult, DfsScratch, ValueSet};
use crate::hoist;
use crate::report::{FunctionReport, SkipRecord};
use crate::PassConfig;
use swpf_analysis::{invariance, FuncAnalysis, InductionVar, ObjectRoot};
use swpf_ir::{BlockId, FuncId, Function, InstKind, Module, Pred, ValueId, ValueKind};

/// Why a load was not prefetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// No dependence path from the load reaches an induction variable.
    NoInductionVariable,
    /// The duplicated set would contain a (non-pure) function call.
    ContainsCall,
    /// The duplicated set contains a phi that is not an induction
    /// variable — control flow too complex (paper line 40).
    ContainsNonIvPhi,
    /// The look-ahead array is not indexed directly by the induction
    /// variable (prototype restriction, §4.2).
    LookaheadNotDirect,
    /// The induction variable is not in canonical (unit-step) form.
    NotCanonicalIv,
    /// Neither an allocation size nor a usable loop bound is available
    /// for fault-avoidance clamping.
    NoSizeInfo,
    /// A store in the loop may alias an address-generation array.
    MayAliasStore,
    /// Part of the address generation executes conditionally on a
    /// loop-variant value other than the induction variable.
    Conditional,
    /// Pure stride access: left to the hardware prefetcher (§4.3).
    StrideOnly,
    /// Already covered by a longer chain rooted at another load.
    Subsumed,
    /// Another accepted prefetch already fetches the same cache line
    /// (same base and index, byte offsets within one line) — e.g. the
    /// fields of one hash-table bucket.
    SameLineCovered,
}

/// How the look-ahead induction variable is clamped (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClampSource {
    /// `min(iv + off, alloc_count − 1)`: extent recovered by walking the
    /// dependence graph back to the allocation.
    AllocCount {
        /// The value holding the element count of the allocation.
        count: ValueId,
    },
    /// `min(iv + off, bound − (strict ? 1 : 0))`: extent from the loop's
    /// single termination condition.
    LoopBound {
        /// The loop-invariant bound value.
        bound: ValueId,
        /// Whether the continue predicate is strict (`<` vs `<=`).
        strict: bool,
        /// Whether the comparison is unsigned.
        unsigned: bool,
    },
}

/// A load in the dependence chain of a planned prefetch.
#[derive(Debug, Clone, Copy)]
pub struct ChainLoad {
    /// The load instruction.
    pub load: ValueId,
    /// Dependence level: 0 for loads indexed directly by the induction
    /// variable, `k` for loads needing `k` prior loads (the paper's `l`).
    pub level: usize,
}

/// Where generated code is inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Immediately before the original target load (paper line 53).
    BeforeTarget,
    /// At the end of an inner loop's preheader (§4.6 hoisting).
    Preheader(BlockId),
}

/// A fully-validated prefetch plan, ready for code generation.
#[derive(Debug, Clone)]
pub struct PlannedPrefetch {
    /// The target load.
    pub target: ValueId,
    /// The induction variable used for look-ahead.
    pub iv: InductionVar,
    /// All instructions to duplicate.
    pub set: ValueSet,
    /// The loads of the set in dependence order (target last).
    pub chain: Vec<ChainLoad>,
    /// Total chain length `t` (max level + 1).
    pub t: usize,
    /// Clamp strategy.
    pub clamp: ClampSource,
    /// Insertion point.
    pub placement: Placement,
}

/// Stage 1 — **discovery** (Algorithm 1 lines 29–33): walk every load
/// inside a loop, in block order, and DFS its data dependences back to
/// an induction variable. Returns the raw candidates plus a skip record
/// for every load no path reaches an induction variable from.
#[must_use]
pub fn discover(
    f: &Function,
    analysis: &FuncAnalysis,
) -> (Vec<(ValueId, DfsResult)>, Vec<SkipRecord>) {
    // Loads inside loops, in block order (paper line 30).
    let mut loads: Vec<ValueId> = Vec::new();
    for b in f.block_ids() {
        if analysis.loops.innermost(b).is_none() {
            continue;
        }
        for &v in &f.block(b).insts {
            if matches!(f.inst(v).map(|i| &i.kind), Some(InstKind::Load { .. })) {
                loads.push(v);
            }
        }
    }

    let mut raw: Vec<(ValueId, DfsResult)> = Vec::new();
    let mut skipped: Vec<SkipRecord> = Vec::new();
    let mut scratch = DfsScratch::default();
    for load in loads {
        match find_iv_paths(f, analysis, load, &mut scratch) {
            Some(r) => raw.push((load, r)),
            None => skipped.push(SkipRecord {
                load,
                reason: SkipReason::NoInductionVariable,
            }),
        }
    }
    (raw, skipped)
}

/// Stage 2 — **filtering** (Algorithm 1 lines 34–42, §4.2): deduplicate
/// the raw candidates (subsumption by longer chains, cache-line
/// coverage) and apply every safety filter, turning survivors into
/// fully-validated [`PlannedPrefetch`]es.
#[must_use]
pub fn filter(
    f: &Function,
    analysis: &FuncAnalysis,
    mut raw: Vec<(ValueId, DfsResult)>,
    config: &PassConfig,
) -> (Vec<PlannedPrefetch>, Vec<SkipRecord>) {
    let mut planned: Vec<PlannedPrefetch> = Vec::new();
    let mut skipped: Vec<SkipRecord> = Vec::new();

    // Longest chains first so shorter chains they cover are subsumed.
    raw.sort_by_key(|(_, r)| std::cmp::Reverse(r.set.len()));
    let mut covered = vec![false; f.num_values()];
    // (base, index, elem_size) of accepted targets' address geps, for
    // line-granularity deduplication: prefetching `bucket.k0` already
    // fetches `bucket.k1`'s line.
    let mut line_keys: Vec<(ValueId, ValueId, u64, u64)> = Vec::new();
    for (load, r) in raw {
        if covered[load.index()] {
            skipped.push(SkipRecord {
                load,
                reason: SkipReason::Subsumed,
            });
            continue;
        }
        if let Some(key) = target_gep_key(f, load) {
            if line_keys
                .iter()
                .any(|k| k.0 == key.0 && k.1 == key.1 && k.2 == key.2 && k.3.abs_diff(key.3) < 64)
            {
                skipped.push(SkipRecord {
                    load,
                    reason: SkipReason::SameLineCovered,
                });
                continue;
            }
        }
        match validate(f, analysis, load, &r, config) {
            Ok(plan) => {
                for c in &plan.chain {
                    covered[c.load.index()] = true;
                }
                if let Some(key) = target_gep_key(f, load) {
                    line_keys.push(key);
                }
                planned.push(plan);
            }
            Err(reason) => skipped.push(SkipRecord { load, reason }),
        }
    }
    (planned, skipped)
}

/// Run the pass stages on one function using caller-provided analyses
/// (the pass-manager path: `swpf_core::SwpfPass` feeds analyses from
/// the `swpf-pass` [`AnalysisManager`](swpf_pass::AnalysisManager)
/// cache). `analysis` must describe `m.function(fid)`'s current body.
///
/// Stages: [`discover`] → [`filter`] → scheduling + generation
/// ([`crate::codegen::emit`], which applies [`crate::schedule`]'s
/// look-ahead offsets while cloning).
pub fn run_with_analysis(
    m: &mut Module,
    fid: FuncId,
    config: &PassConfig,
    analysis: &FuncAnalysis,
) -> FunctionReport {
    let mut report = FunctionReport {
        name: m.function(fid).name.clone(),
        ..FunctionReport::default()
    };
    let planned = {
        let f = m.function(fid);
        let (raw, no_iv) = discover(f, analysis);
        report.skipped.extend(no_iv);
        let (planned, rejected) = filter(f, analysis, raw, config);
        report.skipped.extend(rejected);
        planned
    };

    // Stages 3 + 4 — scheduling and generation (mutates the function).
    for plan in &planned {
        let record = codegen::emit(m.function_mut(fid), plan, config);
        report.prefetches.push(record);
    }
    report
}

/// Run discovery, filtering and code generation on one function,
/// computing every analysis from scratch — the original monolithic
/// shape, kept as the differential-testing oracle for the pipelined
/// path (see `swpf_core::run_on_module_monolithic`).
pub fn run(m: &mut Module, fid: FuncId, config: &PassConfig) -> FunctionReport {
    let analysis = FuncAnalysis::compute(m.function(fid));
    run_with_analysis(m, fid, config, &analysis)
}

/// The `(base, index, elem_size, offset)` of a load's address gep, used
/// as a cache-line identity for prefetch deduplication.
fn target_gep_key(f: &Function, load: ValueId) -> Option<(ValueId, ValueId, u64, u64)> {
    let InstKind::Load { addr, .. } = &f.inst(load)?.kind else {
        return None;
    };
    let InstKind::Gep {
        base,
        index,
        elem_size,
        offset,
    } = &f.inst(*addr)?.kind
    else {
        return None;
    };
    Some((*base, *index, *elem_size, *offset))
}

/// Apply every filter from Algorithm 1 and §4.2 to one candidate.
fn validate(
    f: &Function,
    analysis: &FuncAnalysis,
    target: ValueId,
    r: &DfsResult,
    config: &PassConfig,
) -> Result<PlannedPrefetch, SkipReason> {
    let iv = *analysis
        .ivs
        .as_iv(r.iv)
        .expect("dfs returns induction variables only");

    // Function calls (paper line 35).
    for &v in r.set.iter() {
        if let Some(InstKind::Call { callee: _, .. }) = f.inst(v).map(|i| &i.kind) {
            if !config.allow_pure_calls {
                return Err(SkipReason::ContainsCall);
            }
            // Pure-call extension: allowed only when the callee cannot
            // observe or produce side effects. Purity is declared on the
            // function and checked by the verifier.
            // (Callee resolution needs the module; the caller checked
            // purity at build time via the verifier, so trust the flag.)
        }
    }

    // Non-induction phi nodes (paper line 40).
    for &v in r.set.iter() {
        if matches!(f.inst(v).map(|i| &i.kind), Some(InstKind::Phi { .. }))
            && analysis.ivs.as_iv(v).is_none()
        {
            return Err(SkipReason::ContainsNonIvPhi);
        }
    }

    // Chain structure: levels of loads within the set.
    let chain = chain_of(f, &r.set, target);
    let t = chain.iter().map(|c| c.level).max().map_or(0, |m| m + 1);
    if t < 2 {
        // A lone stride access: the hardware prefetcher handles it (§4.3).
        return Err(SkipReason::StrideOnly);
    }

    // Prototype restriction: level-0 loads must be `base[iv]` with a
    // loop-invariant base (§4.2).
    let mut level0_bases: Vec<ValueId> = Vec::new();
    for c in chain.iter().filter(|c| c.level == 0) {
        let Some(InstKind::Load { addr, .. }) = f.inst(c.load).map(|i| &i.kind) else {
            unreachable!("chain entries are loads");
        };
        let Some(InstKind::Gep { base, index, .. }) = f.inst(*addr).map(|i| &i.kind) else {
            return Err(SkipReason::LookaheadNotDirect);
        };
        if *index != iv.phi {
            return Err(SkipReason::LookaheadNotDirect);
        }
        if !invariance_ok(f, analysis, iv, *base) {
            return Err(SkipReason::LookaheadNotDirect);
        }
        level0_bases.push(*base);
    }

    // Clamp source: allocation extent first, then the loop bound (§4.2).
    let clamp = clamp_source(f, analysis, &iv, &level0_bases)?;

    // Unconditional execution: every duplicated instruction must run each
    // iteration of the loop that contains it (dominate that loop's latch).
    let inner = analysis
        .loops
        .innermost(f.inst(target).expect("load").block)
        .expect("candidate loads are inside loops");
    let check_loop = if inner == iv.in_loop || !config.enable_hoisting {
        iv.in_loop
    } else {
        inner
    };
    let latch = match analysis.loops.get(check_loop).latches.as_slice() {
        [l] => *l,
        _ => return Err(SkipReason::Conditional),
    };
    for &v in r.set.iter() {
        let b = f.inst(v).expect("set holds instructions").block;
        if !analysis.dom.dominates(b, latch) {
            return Err(SkipReason::Conditional);
        }
    }

    // Store aliasing (§4.2): arrays read by the address-generation code
    // (all chain loads except the target, whose clone is a prefetch) must
    // not be written inside the induction variable's loop.
    let store_roots = analysis
        .roots
        .store_roots_in(f, &analysis.loops.get(iv.in_loop).blocks);
    for c in chain.iter().filter(|c| c.load != target) {
        let Some(InstKind::Load { addr, .. }) = f.inst(c.load).map(|i| &i.kind) else {
            unreachable!();
        };
        if invariance::roots_may_alias(&store_roots, analysis.roots.roots_of(*addr)) {
            return Err(SkipReason::MayAliasStore);
        }
    }

    // Placement: hoist to the inner loop's preheader when the load lives
    // in a deeper loop than its induction variable (§4.6).
    let placement = if inner != iv.in_loop && config.enable_hoisting {
        hoist::preheader_placement(f, analysis, &iv, inner).ok_or(SkipReason::Conditional)?
    } else {
        Placement::BeforeTarget
    };

    Ok(PlannedPrefetch {
        target,
        iv,
        set: r.set.clone(),
        chain,
        t,
        clamp,
        placement,
    })
}

/// Whether `base` is usable from prefetch code: invariant in the IV's
/// loop (constants, arguments, or definitions outside the loop).
fn invariance_ok(f: &Function, analysis: &FuncAnalysis, iv: InductionVar, base: ValueId) -> bool {
    swpf_analysis::indvar::is_loop_invariant(f, &analysis.loops, iv.in_loop, base)
}

/// Order the loads of `set` by dependence level.
///
/// Level 0 loads depend on no other load in the set; a level-`k` load
/// needs `k` earlier loads on its longest dependence path (the paper's
/// position `l` in a sequence of `t` loads).
#[must_use]
pub fn chain_of(f: &Function, set: &ValueSet, target: ValueId) -> Vec<ChainLoad> {
    fn is_load(f: &Function, v: ValueId) -> bool {
        matches!(f.inst(v).map(|i| &i.kind), Some(InstKind::Load { .. }))
    }
    /// The level of the member of rank `at`; `levels` is indexed by rank.
    fn level_of(
        f: &Function,
        set: &ValueSet,
        at: usize,
        levels: &mut [Option<usize>],
        ops: &mut Vec<ValueId>,
    ) -> usize {
        if let Some(l) = levels[at] {
            return l;
        }
        levels[at] = Some(0); // cycle guard
        let v = set[at];
        let mut deepest_below = 0usize;
        if let Some(inst) = f.inst(v) {
            let first = ops.len();
            inst.operands_into(ops);
            for i in first..ops.len() {
                let o = ops[i];
                if let Some(below) = set.position(o) {
                    let lo = level_of(f, set, below, levels, ops);
                    deepest_below = deepest_below.max(if is_load(f, o) { lo + 1 } else { lo });
                }
            }
            ops.truncate(first);
        }
        levels[at] = Some(deepest_below);
        deepest_below
    }
    let mut levels = vec![None; set.len()];
    let mut ops = Vec::new();
    let mut chain: Vec<ChainLoad> = Vec::new();
    for (at, &v) in set.iter().enumerate() {
        if is_load(f, v) {
            chain.push(ChainLoad {
                load: v,
                level: level_of(f, set, at, &mut levels, &mut ops),
            });
        }
    }
    chain.sort_by_key(|c| (c.level, c.load));
    // The target load must be last; it is by construction the deepest.
    debug_assert!(chain.last().is_some_and(|c| c.load == target) || chain.is_empty());
    chain
}

/// Decide how to clamp the induction variable (paper §4.2).
fn clamp_source(
    f: &Function,
    analysis: &FuncAnalysis,
    iv: &InductionVar,
    level0_bases: &[ValueId],
) -> Result<ClampSource, SkipReason> {
    // Allocation extents: usable when every look-ahead array resolves to
    // the same allocation with a loop-invariant element count.
    let mut alloc_count: Option<ValueId> = None;
    let mut all_same_alloc = !level0_bases.is_empty();
    for &base in level0_bases {
        match analysis.roots.root_of(base) {
            ObjectRoot::Alloc(a) => {
                let Some(InstKind::Alloc { count, .. }) = f.inst(a).map(|i| &i.kind) else {
                    unreachable!("alloc root is an alloc");
                };
                let inv = match &f.value(*count).kind {
                    ValueKind::Arg { .. } | ValueKind::Const(_) => true,
                    ValueKind::Inst(ci) => {
                        !analysis.loops.get(iv.in_loop).contains(ci.block)
                            && analysis
                                .dom
                                .dominates(ci.block, analysis.loops.get(iv.in_loop).header)
                    }
                };
                if !inv {
                    all_same_alloc = false;
                    break;
                }
                match alloc_count {
                    None => alloc_count = Some(*count),
                    Some(c) if c == *count => {}
                    Some(_) => {
                        all_same_alloc = false;
                        break;
                    }
                }
            }
            _ => {
                all_same_alloc = false;
                break;
            }
        }
    }
    if all_same_alloc {
        if let Some(count) = alloc_count {
            if iv.step == 1 || iv.step == -1 {
                return Ok(ClampSource::AllocCount { count });
            }
        }
    }

    // Loop bound: single termination condition over a canonical IV.
    if let Some(b) = analysis.ivs.bound_of(iv.phi) {
        if iv.step == 1
            && matches!(
                b.cont_pred,
                Pred::Slt | Pred::Sle | Pred::Ult | Pred::Ule | Pred::Ne
            )
        {
            return Ok(ClampSource::LoopBound {
                bound: b.bound,
                strict: b.is_strict(),
                unsigned: matches!(b.cont_pred, Pred::Ult | Pred::Ule),
            });
        }
        return Err(SkipReason::NotCanonicalIv);
    }
    Err(SkipReason::NoSizeInfo)
}
