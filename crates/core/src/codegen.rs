//! Prefetch code generation (paper §4.3, Algorithm 1 lines 43–54).
//!
//! For every load at position `l` of a validated chain of `t` loads, the
//! generator clones the address computation with the induction variable
//! replaced by its look-ahead value, turns the final load into a
//! `prefetch`, and splices the clones in just before the original target
//! load (or in a preheader, for hoisted plans).
//!
//! Clamping (§4.2): every chain position computes its fault-avoidance
//! *limit* (Algorithm 1's uniform rule — the generator is deliberately
//! naive here, like the paper's prototype), but the clamp itself
//! (`min(iv+off, limit)`) is only *applied* where the generated code
//! contains real intermediate loads (`l ≥ 1`): the prefetch instruction
//! cannot fault, so a pure stride prefetch (`l = 0`) uses the unclamped
//! look-ahead — the paper's Fig. 3(c), where `a[i+64]` is prefetched
//! unclamped while the chain loads `a[min(i+32, asize)]`. The limit an
//! unclamped position computed anyway is left for the pipeline's
//! cleanup passes, exactly as the paper leaves its redundant address
//! code to `-O3`: `dce` sweeps it, or `cse` merges it with a clamped
//! sibling position's identical limit (measured by the `ablation`
//! experiment).

use crate::candidates::{ChainLoad, ClampSource, Placement, PlannedPrefetch};
use crate::dfs::ValueSet;
use crate::report::PrefetchRecord;
use crate::schedule;
use crate::PassConfig;
use swpf_ir::{Constant, Function, InstKind, Pred, Type, ValueId};

/// Generate the prefetch code for one plan. Returns what was emitted.
pub fn emit(f: &mut Function, plan: &PlannedPrefetch, config: &PassConfig) -> PrefetchRecord {
    let anchor = match plan.placement {
        Placement::BeforeTarget => plan.target,
        Placement::Preheader(b) => f.block(b).last().expect("preheader has a terminator"),
    };
    let mut offsets = Vec::new();
    let mut inserted = 0usize;

    for c in &plan.chain {
        if c.level == 0 && !config.stride_companion {
            continue;
        }
        if c.level >= 1 && c.level > config.max_indirect_depth {
            continue;
        }
        let off = schedule::offset(config.look_ahead, plan.t, c.level);
        inserted += emit_one(f, plan, c, off, anchor);
        offsets.push(off);
    }

    PrefetchRecord {
        target: plan.target,
        chain_len: plan.t,
        offsets,
        clamp: plan.clamp,
        hoisted: matches!(plan.placement, Placement::Preheader(_)),
        inserted_insts: inserted,
    }
}

/// Emit the look-ahead clone for a single chain position. Returns the
/// number of instructions inserted.
fn emit_one(
    f: &mut Function,
    plan: &PlannedPrefetch,
    chain_load: &ChainLoad,
    off: i64,
    anchor: ValueId,
) -> usize {
    let block = f.inst(anchor).expect("anchor is an instruction").block;
    let iv_ty = f.value(plan.iv.phi).ty.expect("iv is typed");
    let mut inserted = 0usize;
    let place = |f: &mut Function, v: ValueId, n: &mut usize| {
        f.insert_before(anchor, v);
        *n += 1;
    };

    // Look-ahead value: iv + off in the iteration direction.
    let step_dir = if plan.iv.step < 0 { -1 } else { 1 };
    let off_const = f.add_const(Constant::Int(off * step_dir, iv_ty));
    let iv_off = f.create_inst(
        InstKind::Binary {
            op: swpf_ir::BinOp::Add,
            lhs: plan.iv.phi,
            rhs: off_const,
        },
        Some(iv_ty),
        block,
    );
    place(f, iv_off, &mut inserted);

    // Every position computes its fault-avoidance limit (the naive
    // Algorithm 1 rule)…
    let (limit, cmp_pred) = clamp_limit(f, plan, iv_ty, block, anchor, &mut inserted);
    // …but the clamp is applied only where real loads are generated
    // (level >= 1): prefetches cannot fault (Fig. 3(c)). An unclamped
    // position's limit is dead code for the cleanup passes.
    let lookahead_iv = if chain_load.level >= 1 {
        clamp_apply(
            f,
            plan,
            iv_off,
            limit,
            cmp_pred,
            iv_ty,
            block,
            anchor,
            &mut inserted,
        )
    } else {
        iv_off
    };

    // Instructions needed for this chain position's address: the
    // transitive closure of the load's operands within the recorded set.
    let needed = needed_subset(f, &plan.set, chain_load.load);
    let order = topo_order(f, &needed);

    // Original → clone, for the handful of values of one chain position
    // (a clone is never itself a key, so one lookup per operand rewrites).
    let mut map: Vec<(ValueId, ValueId)> = Vec::with_capacity(order.len() + 1);
    map.push((plan.iv.phi, lookahead_iv));
    let cloned = |map: &[(ValueId, ValueId)], v: ValueId| {
        map.iter().find(|(old, _)| *old == v).map(|&(_, new)| new)
    };
    for v in order {
        let inst = f.inst(v).expect("set member is an instruction");
        if v == chain_load.load {
            // Final load becomes the prefetch (Algorithm 1 line 52).
            let InstKind::Load { addr, .. } = inst.kind else {
                unreachable!("chain entries are loads");
            };
            let new_addr = cloned(&map, addr).unwrap_or(addr);
            let pf = f.create_inst(InstKind::Prefetch { addr: new_addr }, None, block);
            place(f, pf, &mut inserted);
            break;
        }
        let ty = f.value(v).ty;
        let mut tmp = swpf_ir::Inst {
            kind: inst.kind.clone(),
            block,
        };
        tmp.for_each_operand_mut(|op| {
            if let Some(new) = cloned(&map, *op) {
                *op = new;
            }
        });
        let clone = f.create_inst(tmp.kind, ty, block);
        place(f, clone, &mut inserted);
        map.push((v, clone));
    }
    inserted
}

/// Emit the fault-avoidance limit of a plan's clamp source: the last
/// in-bounds index, plus the predicate comparing against it. Places at
/// most one `sub` (none when the bound is usable as-is).
fn clamp_limit(
    f: &mut Function,
    plan: &PlannedPrefetch,
    iv_ty: Type,
    block: swpf_ir::BlockId,
    anchor: ValueId,
    inserted: &mut usize,
) -> (ValueId, Pred) {
    let place = |f: &mut Function, v: ValueId, n: &mut usize| {
        f.insert_before(anchor, v);
        *n += 1;
    };
    match plan.clamp {
        ClampSource::AllocCount { count } => {
            let one = f.add_const(Constant::Int(1, iv_ty));
            let lim = f.create_inst(
                InstKind::Binary {
                    op: swpf_ir::BinOp::Sub,
                    lhs: count,
                    rhs: one,
                },
                Some(iv_ty),
                block,
            );
            place(f, lim, inserted);
            (lim, Pred::Slt)
        }
        ClampSource::LoopBound {
            bound,
            strict,
            unsigned,
        } => {
            let pred = if unsigned { Pred::Ult } else { Pred::Slt };
            if strict {
                let one = f.add_const(Constant::Int(1, iv_ty));
                let lim = f.create_inst(
                    InstKind::Binary {
                        op: swpf_ir::BinOp::Sub,
                        lhs: bound,
                        rhs: one,
                    },
                    Some(iv_ty),
                    block,
                );
                place(f, lim, inserted);
                (lim, pred)
            } else {
                (bound, pred)
            }
        }
    }
}

/// Emit `min(iv_off, limit)` (or `max 0` for down-counting loops).
#[allow(clippy::too_many_arguments)]
fn clamp_apply(
    f: &mut Function,
    plan: &PlannedPrefetch,
    iv_off: ValueId,
    limit: ValueId,
    cmp_pred: Pred,
    iv_ty: Type,
    block: swpf_ir::BlockId,
    anchor: ValueId,
    inserted: &mut usize,
) -> ValueId {
    let place = |f: &mut Function, v: ValueId, n: &mut usize| {
        f.insert_before(anchor, v);
        *n += 1;
    };
    // Up-counting: clamped = min(iv_off, limit). Down-counting loops
    // overrun towards zero instead, so clamp from below at 0.
    if plan.iv.step >= 0 {
        let cmp = f.create_inst(
            InstKind::ICmp {
                pred: cmp_pred,
                lhs: iv_off,
                rhs: limit,
            },
            Some(Type::I1),
            block,
        );
        place(f, cmp, inserted);
        let sel = f.create_inst(
            InstKind::Select {
                cond: cmp,
                then_val: iv_off,
                else_val: limit,
            },
            Some(iv_ty),
            block,
        );
        place(f, sel, inserted);
        sel
    } else {
        let zero = f.add_const(Constant::Int(0, iv_ty));
        let cmp = f.create_inst(
            InstKind::ICmp {
                pred: Pred::Sgt,
                lhs: iv_off,
                rhs: zero,
            },
            Some(Type::I1),
            block,
        );
        place(f, cmp, inserted);
        let sel = f.create_inst(
            InstKind::Select {
                cond: cmp,
                then_val: iv_off,
                else_val: zero,
            },
            Some(iv_ty),
            block,
        );
        place(f, sel, inserted);
        sel
    }
}

/// The subset of `set` that `load`'s value transitively depends on,
/// including `load` itself.
fn needed_subset(f: &Function, set: &ValueSet, load: ValueId) -> ValueSet {
    let mut needed = ValueSet::default();
    let mut stack = vec![load];
    let mut ops = Vec::new();
    while let Some(v) = stack.pop() {
        if !needed.insert(v) {
            continue;
        }
        if let Some(inst) = f.inst(v) {
            ops.clear();
            inst.operands_into(&mut ops);
            for o in &ops {
                if set.contains(o) && !needed.contains(o) {
                    stack.push(*o);
                }
            }
        }
    }
    needed
}

/// Topologically order `subset` by operand dependence (stable: ties go
/// in id order, sweep by sweep).
fn topo_order(f: &Function, subset: &ValueSet) -> Vec<ValueId> {
    let mut order = Vec::with_capacity(subset.len());
    // Indexed by rank in `subset`.
    let mut emitted = vec![false; subset.len()];
    let mut remaining: Vec<ValueId> = subset.iter().copied().collect();
    let mut ops = Vec::new();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|&v| {
            let ready = f.inst(v).is_none_or(|inst| {
                ops.clear();
                inst.operands_into(&mut ops);
                ops.iter()
                    .all(|o| subset.position(*o).is_none_or(|at| emitted[at]))
            });
            if ready {
                order.push(v);
                emitted[subset.position(v).expect("remaining ⊆ subset")] = true;
            }
            !ready
        });
        assert!(
            remaining.len() < before,
            "cyclic dependence in prefetch set (should be impossible in SSA)"
        );
    }
    order
}
