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
use swpf_ir::{BlockId, Constant, Function, InstKind, Pred, Type, ValueId};

/// Code generation's side tables, reused from chain position to chain
/// position and from function to function. `sweep` and `clone` are
/// indexed by rank in the plan's set; `order` lists the members one
/// chain position clones, `(sweep, value, rank)`, and is sorted into the
/// clone order.
#[derive(Debug, Default)]
pub struct CloneScratch {
    /// The member's sweep in the clone order (0: not needed here).
    sweep: Vec<u32>,
    /// The member's clone at the current chain position.
    clone: Vec<Option<ValueId>>,
    order: Vec<(u32, ValueId, usize)>,
    stack: Vec<Frame>,
    ops: Vec<ValueId>,
    /// The current plan's new instructions, in order.
    placed: Vec<ValueId>,
    /// Every plan's new instructions so far, each with the instruction
    /// it goes before: [`place`] puts them in the blocks at once.
    pending: Vec<(ValueId, ValueId)>,
}

/// A member on the needed-set walk's stack: its operands are
/// `ops[next..end]` still to take; `sweep` is the least sweep its
/// operands taken so far allow.
#[derive(Debug, Clone, Copy)]
struct Frame {
    v: ValueId,
    rank: usize,
    first: usize,
    next: usize,
    end: usize,
    sweep: u32,
}

/// `sweep` of a member the walk has entered but not finished.
const ON_PATH: u32 = u32::MAX;

/// Generate the prefetch code for one plan, working in `scratch`, and
/// leave it in `scratch` for [`place`]. Returns what was emitted.
pub fn emit(
    f: &mut Function,
    plan: &PlannedPrefetch,
    config: &PassConfig,
    scratch: &mut CloneScratch,
) -> PrefetchRecord {
    let anchor = match plan.placement {
        Placement::BeforeTarget => plan.target,
        Placement::Preheader(b) => f.block(b).last().expect("preheader has a terminator"),
    };
    let block = f.inst(anchor).expect("anchor is an instruction").block;
    let mut offsets = Vec::new();
    scratch.sweep.clear();
    scratch.sweep.resize(plan.set.len(), 0);
    scratch.clone.clear();
    scratch.clone.resize(plan.set.len(), None);

    for c in &plan.chain {
        if c.level == 0 && !config.stride_companion {
            continue;
        }
        if c.level >= 1 && c.level > config.max_indirect_depth {
            continue;
        }
        let off = schedule::offset(config.look_ahead, plan.t, c.level);
        emit_one(f, plan, c, off, block, scratch);
        offsets.push(off);
    }
    let inserted = scratch.placed.len();
    let placed = scratch.placed.drain(..).map(|v| (anchor, v));
    scratch.pending.extend(placed);

    PrefetchRecord {
        target: plan.target,
        chain_len: plan.t,
        offsets,
        clamp: plan.clamp,
        hoisted: matches!(plan.placement, Placement::Preheader(_)),
        inserted_insts: inserted,
    }
}

/// Put the instructions [`emit`] generated into their blocks, each
/// plan's just before its anchor (the target load, or a preheader's
/// terminator), in one pass over each block.
pub fn place(f: &mut Function, scratch: &mut CloneScratch) {
    f.insert_before_each(&mut scratch.pending);
    scratch.pending.clear();
}

/// Emit the look-ahead clone for a single chain position, appending
/// its instructions to `scratch.placed`.
fn emit_one(
    f: &mut Function,
    plan: &PlannedPrefetch,
    chain_load: &ChainLoad,
    off: i64,
    block: BlockId,
    scratch: &mut CloneScratch,
) {
    let iv_ty = f.value(plan.iv.phi).ty.expect("iv is typed");

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
    scratch.placed.push(iv_off);

    // Every position computes its fault-avoidance limit (the naive
    // Algorithm 1 rule)…
    let (limit, cmp_pred) = clamp_limit(f, plan, iv_ty, block, scratch);
    // …but the clamp is applied only where real loads are generated
    // (level >= 1): prefetches cannot fault (Fig. 3(c)). An unclamped
    // position's limit is dead code for the cleanup passes.
    let lookahead_iv = if chain_load.level >= 1 {
        clamp_apply(f, plan, iv_off, limit, cmp_pred, iv_ty, block, scratch)
    } else {
        iv_off
    };

    // Instructions needed for this chain position's address: the
    // transitive closure of the load's operands within the recorded set,
    // in clone order. Original → clone goes in `scratch.clone`; the one
    // value outside the set that is rewritten is the induction variable.
    clone_order(f, &plan.set, chain_load.load, scratch);
    let cloned = |clone: &[Option<ValueId>], v: ValueId| {
        if v == plan.iv.phi {
            Some(lookahead_iv)
        } else {
            plan.set.position(v).and_then(|at| clone[at])
        }
    };
    for &(_, v, rank) in &scratch.order {
        let inst = f.inst(v).expect("set member is an instruction");
        if v == chain_load.load {
            // Final load becomes the prefetch (Algorithm 1 line 52).
            let InstKind::Load { addr, .. } = inst.kind else {
                unreachable!("chain entries are loads");
            };
            let new_addr = cloned(&scratch.clone, addr).unwrap_or(addr);
            let pf = f.create_inst(InstKind::Prefetch { addr: new_addr }, None, block);
            scratch.placed.push(pf);
            break;
        }
        let ty = f.value(v).ty;
        let mut tmp = swpf_ir::Inst {
            kind: inst.kind.clone(),
            block,
        };
        tmp.for_each_operand_mut(|op| {
            if let Some(new) = cloned(&scratch.clone, *op) {
                *op = new;
            }
        });
        let clone = f.create_inst(tmp.kind, ty, block);
        scratch.placed.push(clone);
        scratch.clone[rank] = Some(clone);
    }
    for &(_, _, rank) in &scratch.order {
        scratch.sweep[rank] = 0;
        scratch.clone[rank] = None;
    }
    scratch.order.clear();
}

/// Emit the fault-avoidance limit of a plan's clamp source: the last
/// in-bounds index, plus the predicate comparing against it. Places at
/// most one `sub` (none when the bound is usable as-is).
fn clamp_limit(
    f: &mut Function,
    plan: &PlannedPrefetch,
    iv_ty: Type,
    block: BlockId,
    scratch: &mut CloneScratch,
) -> (ValueId, Pred) {
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
            scratch.placed.push(lim);
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
                scratch.placed.push(lim);
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
    block: BlockId,
    scratch: &mut CloneScratch,
) -> ValueId {
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
        scratch.placed.push(cmp);
        let sel = f.create_inst(
            InstKind::Select {
                cond: cmp,
                then_val: iv_off,
                else_val: limit,
            },
            Some(iv_ty),
            block,
        );
        scratch.placed.push(sel);
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
        scratch.placed.push(cmp);
        let sel = f.create_inst(
            InstKind::Select {
                cond: cmp,
                then_val: iv_off,
                else_val: zero,
            },
            Some(iv_ty),
            block,
        );
        scratch.placed.push(sel);
        sel
    }
}

/// Fill `scratch.order` with the members of `set` that `load`'s value
/// transitively depends on, `load` included, in clone order: sweep by
/// sweep, and in id order within a sweep, where a sweep takes, in id
/// order, every member whose operands in the set are already taken. A
/// member's sweep is the least one after each operand's — its
/// operand's own sweep when the operand has the lower id, the next one
/// otherwise — so one walk over the needed members computes it.
fn clone_order(f: &Function, set: &ValueSet, load: ValueId, scratch: &mut CloneScratch) {
    let CloneScratch {
        sweep,
        order,
        stack,
        ops,
        ..
    } = scratch;
    let enter = |v: ValueId, rank: usize, stack: &mut Vec<Frame>, ops: &mut Vec<ValueId>| {
        let first = ops.len();
        if let Some(inst) = f.inst(v) {
            inst.operands_into(ops);
        }
        stack.push(Frame {
            v,
            rank,
            first,
            next: first,
            end: ops.len(),
            sweep: 1,
        });
    };
    if let Some(rank) = set.position(load) {
        sweep[rank] = ON_PATH;
        enter(load, rank, stack, ops);
    }
    while let Some(top) = stack.last_mut() {
        if top.next == top.end {
            let done = *top;
            stack.pop();
            ops.truncate(done.first);
            sweep[done.rank] = done.sweep;
            order.push((done.sweep, done.v, done.rank));
            if let Some(user) = stack.last_mut() {
                user.sweep = user.sweep.max(done.sweep + u32::from(done.v > user.v));
            }
            continue;
        }
        let o = ops[top.next];
        top.next += 1;
        let Some(rank) = set.position(o) else {
            continue;
        };
        match sweep[rank] {
            0 => {
                sweep[rank] = ON_PATH;
                enter(o, rank, stack, ops);
            }
            // SSA orders a set without phis; a cycle cannot arise.
            ON_PATH => {}
            s => top.sweep = top.sweep.max(s + u32::from(o > top.v)),
        }
    }
    order.sort_unstable();
}
