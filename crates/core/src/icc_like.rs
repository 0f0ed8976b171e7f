//! A deliberately limited stride-indirect prefetcher modelled on the
//! Intel Xeon Phi compiler's optional pass (paper §2, §6.1, Fig. 4d).
//!
//! The paper observes that ICC's prefetcher:
//!
//! * handles only the *simplest* pattern — `a[b[i]]` with nothing but an
//!   optional widening cast between the two loads (it "cannot pick up the
//!   necessary hash computation" of RA and HJ-2);
//! * refuses loops with non-trivial internal control flow, and cannot
//!   "determine the size of arrays and guarantee the safety of inserting
//!   loads" for Graph500's work-list and edge-list structures (whose
//!   traversal loops branch internally to grow the next-level queue).
//!
//! This module reproduces those restrictions so the Fig. 4(d) comparison
//! can be regenerated: on IS and CG it performs like the real pass, and
//! it finds nothing in RA, HJ-2/8 or G500. Concretely it requires the
//! bare two-load pattern with at most a widening cast, a straight-line
//! loop body (header + one block), and extent information from either a
//! local allocation or the loop bound.

use crate::candidates::{ChainLoad, ClampSource, Placement, PlannedPrefetch};
use crate::dfs::ValueSet;
use crate::report::{FunctionReport, PassReport};
use crate::{codegen, PassConfig};
use swpf_analysis::{invariance, FuncAnalysis, ObjectRoot};
use swpf_ir::{FuncId, InstKind, Module, ValueId, ValueKind};

/// Run the ICC-like stride-indirect pass on every function.
pub fn run_on_module(m: &mut Module, config: &PassConfig) -> PassReport {
    let mut report = PassReport::default();
    for f in m.func_ids().collect::<Vec<_>>() {
        report.functions.push(run_on_function(m, f, config));
    }
    report
}

/// Run the ICC-like stride-indirect pass on one function.
pub fn run_on_function(m: &mut Module, fid: FuncId, config: &PassConfig) -> FunctionReport {
    let mut report = FunctionReport {
        name: m.function(fid).name.clone(),
        ..FunctionReport::default()
    };
    let mut planned: Vec<PlannedPrefetch> = Vec::new();
    {
        let f = m.function(fid);
        let analysis = FuncAnalysis::compute(f);
        for b in f.block_ids() {
            let Some(lid) = analysis.loops.innermost(b) else {
                continue;
            };
            for &v in &f.block(b).insts {
                if let Some(plan) = match_simple_indirect(f, &analysis, lid, v) {
                    planned.push(plan);
                }
            }
        }
    }
    let mut scratch = codegen::CloneScratch::default();
    let f = m.function_mut(fid);
    for plan in &planned {
        let record = codegen::emit(f, plan, config, &mut scratch);
        report.prefetches.push(record);
    }
    codegen::place(f, &mut scratch);
    report
}

/// Recognise `a[b[i]]` where both `a` and `b` are local allocations with
/// known extents and at most a widening cast sits between the loads.
fn match_simple_indirect(
    f: &swpf_ir::Function,
    analysis: &FuncAnalysis,
    lid: swpf_analysis::LoopId,
    target: ValueId,
) -> Option<PlannedPrefetch> {
    let InstKind::Load { addr, .. } = &f.inst(target)?.kind else {
        return None;
    };
    let InstKind::Gep {
        base: outer_base,
        index,
        ..
    } = &f.inst(*addr)?.kind
    else {
        return None;
    };
    // Optional widening cast between the loads; nothing else.
    let (inner_load, mut set_extra) = match &f.inst(*index)?.kind {
        InstKind::Load { .. } => (*index, Vec::new()),
        InstKind::Cast { val, .. } => match &f.inst(*val).map(|i| &i.kind) {
            Some(InstKind::Load { .. }) => (*val, vec![*index]),
            _ => return None,
        },
        _ => return None,
    };
    let InstKind::Load {
        addr: inner_addr, ..
    } = &f.inst(inner_load)?.kind
    else {
        return None;
    };
    let InstKind::Gep {
        base: inner_base,
        index: inner_index,
        ..
    } = &f.inst(*inner_addr)?.kind
    else {
        return None;
    };
    // Inner index must be the loop's induction variable, directly.
    let iv = *analysis.ivs.as_iv(*inner_index)?;
    if iv.in_loop != lid || iv.step != 1 {
        return None;
    }
    // Straight-line loop body only: header plus a single block. Loops
    // with internal branching (Graph500's queue-growing edge loop, hash
    // joins' chain walks) are refused, as the real pass does.
    if analysis.loops.get(lid).blocks.len() > 2 {
        return None;
    }
    // Extent information: a local allocation, or the loop bound.
    let clamp = if let Some(count) = alloc_count(f, analysis, &iv, *inner_base) {
        ClampSource::AllocCount { count }
    } else if let Some(b) = analysis.ivs.bound_of(iv.phi) {
        use swpf_ir::Pred;
        if !matches!(b.cont_pred, Pred::Slt | Pred::Sle | Pred::Ult | Pred::Ule) {
            return None;
        }
        ClampSource::LoopBound {
            bound: b.bound,
            strict: b.is_strict(),
            unsigned: matches!(b.cont_pred, Pred::Ult | Pred::Ule),
        }
    } else {
        return None;
    };
    // Loop-invariant bases.
    for base in [*outer_base, *inner_base] {
        if !swpf_analysis::indvar::is_loop_invariant(f, &analysis.loops, iv.in_loop, base) {
            return None;
        }
    }

    let set: ValueSet = [target, *addr, inner_load, *inner_addr]
        .into_iter()
        .chain(set_extra.drain(..))
        .collect();
    let chain = vec![
        ChainLoad {
            load: inner_load,
            level: 0,
        },
        ChainLoad {
            load: target,
            level: 1,
        },
    ];
    Some(PlannedPrefetch {
        target,
        iv,
        set,
        chain,
        t: 2,
        clamp,
        placement: Placement::BeforeTarget,
    })
}

/// The element count of the allocation behind `base`, when the base is a
/// locally visible `alloc` with a loop-invariant count.
fn alloc_count(
    f: &swpf_ir::Function,
    analysis: &FuncAnalysis,
    iv: &swpf_analysis::InductionVar,
    base: ValueId,
) -> Option<ValueId> {
    let ObjectRoot::Alloc(a) = invariance::object_root(f, base) else {
        return None;
    };
    let InstKind::Alloc { count, .. } = &f.inst(a)?.kind else {
        return None;
    };
    let invariant = match &f.value(*count).kind {
        ValueKind::Arg { .. } | ValueKind::Const(_) => true,
        ValueKind::Inst(ci) => !analysis.loops.get(iv.in_loop).contains(ci.block),
    };
    invariant.then_some(*count)
}
