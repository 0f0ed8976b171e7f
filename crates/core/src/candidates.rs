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

use crate::codegen::{self, CloneScratch};
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

impl SkipReason {
    /// The reason's name, as `Debug` prints it (the pass report's text).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SkipReason::NoInductionVariable => "NoInductionVariable",
            SkipReason::ContainsCall => "ContainsCall",
            SkipReason::ContainsNonIvPhi => "ContainsNonIvPhi",
            SkipReason::LookaheadNotDirect => "LookaheadNotDirect",
            SkipReason::NotCanonicalIv => "NotCanonicalIv",
            SkipReason::NoSizeInfo => "NoSizeInfo",
            SkipReason::MayAliasStore => "MayAliasStore",
            SkipReason::Conditional => "Conditional",
            SkipReason::StrideOnly => "StrideOnly",
            SkipReason::Subsumed => "Subsumed",
            SkipReason::SameLineCovered => "SameLineCovered",
        }
    }
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

/// What the pass reuses from load to load and from function to
/// function: the candidate walk's tables, `chain_of`'s levels, code
/// generation's clone map, and the buffers between the stages.
#[derive(Debug, Default)]
pub struct Scratch {
    walk: DfsScratch,
    chain: ChainScratch,
    clone: CloneScratch,
    raw: Vec<(ValueId, DfsResult)>,
    planned: Vec<PlannedPrefetch>,
    /// Per value: a chain load of an accepted plan.
    covered: Vec<bool>,
    /// Accepted targets' line keys, each with the index of the one
    /// before it that has the same gep index (`NO_KEY`: none).
    line_keys: Vec<(LineKey, u32)>,
    /// Per value: the last of `line_keys` whose gep index it is.
    line_heads: Vec<u32>,
    /// Per loop: the roots its stores may write, once asked for.
    store_roots: Vec<Option<Vec<ObjectRoot>>>,
}

/// Stage 1 — **discovery** (Algorithm 1 lines 29–33): walk every load
/// inside a loop, in block order, and DFS its data dependences back to
/// an induction variable. Appends the raw candidates to `raw`, and a
/// skip record to `skipped` for every load no path reaches an induction
/// variable from.
pub fn discover(
    f: &Function,
    analysis: &FuncAnalysis,
    walk: &mut DfsScratch,
    raw: &mut Vec<(ValueId, DfsResult)>,
    skipped: &mut Vec<SkipRecord>,
) {
    // Loads inside loops, in block order (paper line 30).
    for b in f.block_ids() {
        if analysis.loops.innermost(b).is_none() {
            continue;
        }
        for &load in &f.block(b).insts {
            if !matches!(f.inst(load).map(|i| &i.kind), Some(InstKind::Load { .. })) {
                continue;
            }
            match find_iv_paths(f, analysis, load, walk) {
                Some(r) => raw.push((load, r)),
                None => skipped.push(SkipRecord {
                    load,
                    reason: SkipReason::NoInductionVariable,
                }),
            }
        }
    }
}

/// Stage 2 — **filtering** (Algorithm 1 lines 34–42, §4.2): deduplicate
/// the raw candidates (subsumption by longer chains, cache-line
/// coverage) and apply every safety filter, draining `scratch.raw` into
/// fully-validated [`PlannedPrefetch`]es in `scratch.planned` and skip
/// records in `skipped`.
pub fn filter(
    f: &Function,
    analysis: &FuncAnalysis,
    config: &PassConfig,
    scratch: &mut Scratch,
    skipped: &mut Vec<SkipRecord>,
) {
    let Scratch {
        chain: chain_scratch,
        raw,
        planned,
        covered,
        line_keys,
        line_heads,
        store_roots,
        ..
    } = scratch;
    store_roots.clear();
    store_roots.resize(analysis.loops.len(), None);
    // Longest chains first so shorter chains they cover are subsumed.
    raw.sort_by_key(|(_, r)| std::cmp::Reverse(r.set.len()));
    if covered.len() < f.num_values() {
        covered.resize(f.num_values(), false);
        line_heads.resize(f.num_values(), NO_KEY);
    }
    // Accepted targets' line keys, for line-granularity deduplication:
    // prefetching `bucket.k0` already fetches `bucket.k1`'s line.
    for (load, r) in raw.drain(..) {
        if covered[load.index()] {
            skipped.push(SkipRecord {
                load,
                reason: SkipReason::Subsumed,
            });
            continue;
        }
        let key = target_gep_key(f, load);
        if let Some(key) = key {
            let mut at = line_heads[key.1.index()];
            let mut same_line = false;
            while at != NO_KEY && !same_line {
                let (k, before) = line_keys[at as usize];
                same_line = k.0 == key.0 && k.2 == key.2 && k.3.abs_diff(key.3) < 64;
                at = before;
            }
            if same_line {
                skipped.push(SkipRecord {
                    load,
                    reason: SkipReason::SameLineCovered,
                });
                continue;
            }
        }
        match validate(f, analysis, load, r, config, chain_scratch, store_roots) {
            Ok(plan) => {
                for c in &plan.chain {
                    covered[c.load.index()] = true;
                }
                if let Some(key) = key {
                    let head = &mut line_heads[key.1.index()];
                    line_keys.push((key, *head));
                    *head = line_keys.len() as u32 - 1;
                }
                planned.push(plan);
            }
            Err(reason) => skipped.push(SkipRecord { load, reason }),
        }
    }
    for plan in planned.iter() {
        for c in &plan.chain {
            covered[c.load.index()] = false;
        }
    }
    for (key, _) in line_keys.drain(..) {
        line_heads[key.1.index()] = NO_KEY;
    }
}

/// Run the pass stages on one function using caller-provided analyses
/// (the pass-manager path: `swpf_core::SwpfPass` feeds analyses from
/// the `swpf-pass` [`AnalysisManager`](swpf_pass::AnalysisManager)
/// cache, and keeps `scratch` from function to function). `analysis`
/// must describe `m.function(fid)`'s current body.
///
/// Stages: [`discover`] → [`filter`] → scheduling + generation
/// ([`crate::codegen::emit`], which applies [`crate::schedule`]'s
/// look-ahead offsets while cloning).
pub fn run_with_analysis(
    m: &mut Module,
    fid: FuncId,
    config: &PassConfig,
    analysis: &FuncAnalysis,
    scratch: &mut Scratch,
) -> FunctionReport {
    let f = m.function(fid);
    let mut report = FunctionReport {
        name: f.name.clone(),
        ..FunctionReport::default()
    };
    discover(
        f,
        analysis,
        &mut scratch.walk,
        &mut scratch.raw,
        &mut report.skipped,
    );
    filter(f, analysis, config, scratch, &mut report.skipped);

    // Stages 3 + 4 — scheduling and generation (mutates the function).
    let f = m.function_mut(fid);
    for plan in scratch.planned.drain(..) {
        let record = codegen::emit(f, &plan, config, &mut scratch.clone);
        report.prefetches.push(record);
    }
    codegen::place(f, &mut scratch.clone);
    report
}

/// Run discovery, filtering and code generation on one function,
/// computing every analysis from scratch — the original monolithic
/// shape, kept as the differential-testing oracle for the pipelined
/// path (see `swpf_core::run_on_module_monolithic`).
pub fn run(m: &mut Module, fid: FuncId, config: &PassConfig) -> FunctionReport {
    let analysis = FuncAnalysis::compute(m.function(fid));
    run_with_analysis(m, fid, config, &analysis, &mut Scratch::default())
}

/// The `(base, index, elem_size, offset)` of a load's address gep, used
/// as a cache-line identity for prefetch deduplication.
type LineKey = (ValueId, ValueId, u64, u64);

/// The end of a chain of [`LineKey`]s.
const NO_KEY: u32 = u32::MAX;

/// A load's [`LineKey`], when its address is a gep.
fn target_gep_key(f: &Function, load: ValueId) -> Option<LineKey> {
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
    r: DfsResult,
    config: &PassConfig,
    chain_scratch: &mut ChainScratch,
    store_roots: &mut [Option<Vec<ObjectRoot>>],
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
    let chain = chain_of(f, &r.set, target, chain_scratch);
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
    let store_roots = &*store_roots[iv.in_loop.index()].get_or_insert_with(|| {
        analysis
            .roots
            .store_roots_in(f, &analysis.loops.get(iv.in_loop).blocks)
    });
    for c in chain.iter().filter(|c| c.load != target) {
        let Some(InstKind::Load { addr, .. }) = f.inst(c.load).map(|i| &i.kind) else {
            unreachable!();
        };
        if invariance::roots_may_alias(store_roots, analysis.roots.roots_of(*addr)) {
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
        set: r.set,
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

/// [`chain_of`]'s side tables, reused from candidate to candidate:
/// levels by rank in the set (`None`: not computed yet), the explicit
/// stack, and the operands of the members on it.
#[derive(Debug, Default)]
struct ChainScratch {
    levels: Vec<Option<usize>>,
    stack: Vec<LevelFrame>,
    ops: Vec<ValueId>,
}

/// A member on [`chain_of`]'s stack: its operands are `ops[next..end]`
/// still to take; `deepest` is the level they give it so far.
#[derive(Debug, Clone, Copy)]
struct LevelFrame {
    rank: usize,
    first: usize,
    next: usize,
    end: usize,
    deepest: usize,
}

/// Order the loads of `set` by dependence level, working in `scratch`.
///
/// Level 0 loads depend on no other load in the set; a level-`k` load
/// needs `k` earlier loads on its longest dependence path (the paper's
/// position `l` in a sequence of `t` loads). A member already being
/// levelled counts as level 0 where a cycle meets it again.
#[must_use]
fn chain_of(
    f: &Function,
    set: &ValueSet,
    target: ValueId,
    scratch: &mut ChainScratch,
) -> Vec<ChainLoad> {
    fn is_load(f: &Function, v: ValueId) -> bool {
        matches!(f.inst(v).map(|i| &i.kind), Some(InstKind::Load { .. }))
    }
    let ChainScratch { levels, stack, ops } = scratch;
    let enter = |rank: usize,
                 levels: &mut [Option<usize>],
                 stack: &mut Vec<LevelFrame>,
                 ops: &mut Vec<ValueId>| {
        levels[rank] = Some(0); // cycle guard
        let first = ops.len();
        if let Some(inst) = f.inst(set[rank]) {
            inst.operands_into(ops);
        }
        stack.push(LevelFrame {
            rank,
            first,
            next: first,
            end: ops.len(),
            deepest: 0,
        });
    };
    levels.clear();
    levels.resize(set.len(), None);
    let mut chain: Vec<ChainLoad> = Vec::new();
    for (at, &v) in set.iter().enumerate() {
        if !is_load(f, v) {
            continue;
        }
        if levels[at].is_none() {
            enter(at, levels, stack, ops);
        }
        while let Some(top) = stack.last_mut() {
            if top.next == top.end {
                let done = *top;
                stack.pop();
                ops.truncate(done.first);
                levels[done.rank] = Some(done.deepest);
                if let Some(user) = stack.last_mut() {
                    let below = set[done.rank];
                    user.deepest = user
                        .deepest
                        .max(done.deepest + usize::from(is_load(f, below)));
                }
                continue;
            }
            let o = ops[top.next];
            top.next += 1;
            if let Some(below) = set.position(o) {
                match levels[below] {
                    Some(lo) => top.deepest = top.deepest.max(lo + usize::from(is_load(f, o))),
                    None => enter(below, levels, stack, ops),
                }
            }
        }
        chain.push(ChainLoad {
            load: v,
            level: levels[at].unwrap_or(0),
        });
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
