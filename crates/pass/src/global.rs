//! Global optimization passes: dominator-scoped GVN, sparse
//! conditional constant propagation, and loop-invariant code motion.
//!
//! These are the cross-block half of the paper's "later passes clean it
//! up" contract. The prefetch generator clones address chains per
//! look-ahead position, and [`crate::cleanup::LocalCse`] only merges
//! duplicates within one block — redundancy between the loop header,
//! the body, and the cloned chains survives it. The passes here close
//! that gap over the analyses the manager already caches:
//!
//! * [`Gvn`] — global value numbering scoped by the dominator tree
//!   (`AnalysisManager::dom`). A pure instruction whose value is
//!   already available in a dominating block is removed and its uses
//!   rewritten to the dominating occurrence. Commutative operands are
//!   canonicalised, so GVN strictly subsumes the block-local CSE.
//! * [`Sccp`] — sparse conditional constant propagation: the classic
//!   Wegman–Zadeck lattice over the existing CFG, folding instructions
//!   proven constant and rewriting conditional branches whose condition
//!   is constant. Trap-preserving: a division is folded only when its
//!   divisor is a *non-zero* constant, so every runtime trap survives.
//! * [`Licm`] — loop-invariant code motion over the cached loop forest
//!   (`AnalysisManager::loops`). Hoists only speculation-safe
//!   instructions (the same fault-avoidance rule the prefetch pass and
//!   DCE encode: pure, non-trapping, no memory access) whose operands
//!   are all defined outside the loop, into the loop preheader.
//!
//! Like the cleanup passes, all three are *prefetch-neutral*: memory
//! operations — loads, stores, and every emitted prefetch — are never
//! folded, merged, or moved.

use crate::cleanup::{dce_removable, key_of, Key, Rewrites};
use crate::manager::{AnalysisManager, FunctionPass, PassEffect};
use swpf_ir::hash::FastMap;
use swpf_ir::{
    BinOp, BlockId, CastOp, Constant, FlatLists, FuncId, InstKind, Module, Pred, Type, ValueId,
    ValueKind,
};

/// Canonicalise a value-numbering key: sort the operands of commutative
/// operators so `add %a, %b` and `add %b, %a` number identically.
fn canonical(key: Key) -> Key {
    match key {
        Key::Bin(op, a, b)
            if b < a
                && matches!(
                    op,
                    BinOp::Add
                        | BinOp::Mul
                        | BinOp::And
                        | BinOp::Or
                        | BinOp::Xor
                        | BinOp::Fadd
                        | BinOp::Fmul
                ) =>
        {
            Key::Bin(op, b, a)
        }
        Key::Cmp(pred, a, b) if b < a && matches!(pred, Pred::Eq | Pred::Ne) => {
            Key::Cmp(pred, b, a)
        }
        other => other,
    }
}

/// Dominator-scoped global value numbering.
///
/// Walks the dominator tree in preorder with a scoped table of
/// available expressions: an instruction whose (canonicalised) key is
/// already bound in a dominating block — or earlier in its own block —
/// is redundant. Redundant instructions are detached and every use is
/// rewritten to the dominating occurrence; SSA guarantees the rewrite
/// is valid because the leader dominates the duplicate, which dominates
/// all of its uses. Delete-only and CFG-preserving, so the driver keeps
/// dominators and loops cached.
#[derive(Debug, Default)]
pub struct Gvn {
    /// Instructions removed across every `run` call.
    pub removed: usize,
    canon: Rewrites,
    table: FastMap<Key, ValueId>,
    undo: Vec<Key>,
    /// Open scopes: a block on the current dominator-tree path and the
    /// length `undo` had when it was entered.
    scopes: Vec<(BlockId, usize)>,
}

impl FunctionPass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }

    fn run(&mut self, m: &mut Module, fid: FuncId, am: &mut AnalysisManager) -> PassEffect {
        let dom = am.dom(m.function(fid), fid);
        let f = m.function_mut(fid);
        let Gvn {
            canon,
            table,
            undo,
            scopes,
            ..
        } = self;

        // Preorder walk with an undo log: a scope closes, unbinding the
        // keys its block bound, once its block no longer dominates the
        // next one, so availability is exactly "bound in a dominator".
        canon.reset(f.num_values());
        table.clear();
        undo.clear();
        scopes.clear();
        for &b in dom.preorder() {
            while let Some(&(open, mark)) = scopes.last() {
                if dom.dominates(open, b) {
                    break;
                }
                for key in undo.drain(mark..) {
                    table.remove(&key);
                }
                scopes.pop();
            }
            scopes.push((b, undo.len()));
            for &v in &f.block(b).insts {
                let Some(inst) = f.inst(v) else { continue };
                let Some(key) = key_of(&inst.kind, canon).map(canonical) else {
                    continue;
                };
                match table.get(&key) {
                    Some(&leader) => canon.set(v, leader),
                    None => {
                        table.insert(key, v);
                        undo.push(key);
                    }
                }
            }
        }
        if canon.is_empty() {
            return PassEffect::unchanged();
        }

        let removed = canon.apply(f);
        self.removed += removed;
        swpf_obs::count("pass.gvn.removed", removed as u64);
        PassEffect::removed(removed).preserving_cfg()
    }
}

/// The SCCP lattice: unknown (optimistic), a proven constant, or
/// runtime-variable.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lat {
    Top,
    Const(Constant),
    Bottom,
}

impl Lat {
    fn as_const(self) -> Option<Constant> {
        match self {
            Lat::Const(c) => Some(c),
            _ => None,
        }
    }
}

fn const_eq(a: Constant, b: Constant) -> bool {
    match (a, b) {
        (Constant::Int(x, tx), Constant::Int(y, ty)) => x == y && tx == ty,
        (Constant::Float(x), Constant::Float(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

fn meet(a: Lat, b: Lat) -> Lat {
    match (a, b) {
        (Lat::Top, x) | (x, Lat::Top) => x,
        (Lat::Bottom, _) | (_, Lat::Bottom) => Lat::Bottom,
        (Lat::Const(x), Lat::Const(y)) => {
            if const_eq(x, y) {
                Lat::Const(x)
            } else {
                Lat::Bottom
            }
        }
    }
}

/// Fold an integer binary operation over the *register* values exactly
/// as the interpreter evaluates it (`swpf_ir`'s `eval_binary`): plain
/// wrapping `i64` arithmetic, shift counts masked to 6 bits. Returns
/// `None` for a division or remainder with zero divisor — that
/// instruction traps at runtime and must survive the pass.
fn fold_int_binary(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Sdiv => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Udiv => {
            if b == 0 {
                return None;
            }
            ((a as u64) / (b as u64)) as i64
        }
        BinOp::Srem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::Urem => {
            if b == 0 {
                return None;
            }
            ((a as u64) % (b as u64)) as i64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Lshr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        BinOp::Ashr => a.wrapping_shr(b as u32 & 63),
        BinOp::Fadd | BinOp::Fsub | BinOp::Fmul | BinOp::Fdiv => unreachable!("float op"),
    })
}

fn fold_icmp(pred: Pred, a: i64, b: i64) -> bool {
    let (ua, ub) = (a as u64, b as u64);
    match pred {
        Pred::Eq => a == b,
        Pred::Ne => a != b,
        Pred::Slt => a < b,
        Pred::Sle => a <= b,
        Pred::Sgt => a > b,
        Pred::Sge => a >= b,
        Pred::Ult => ua < ub,
        Pred::Ule => ua <= ub,
        Pred::Ugt => ua > ub,
        Pred::Uge => ua >= ub,
    }
}

/// Fold a cast exactly as the classic interpreter evaluates it:
/// truncation masks to the target width, sign extension re-signs from
/// the *source* width, zero extension and pointer casts are identity on
/// the canonical register value.
fn fold_cast(op: CastOp, x: i64, from_bits: u32, to: Type) -> i64 {
    match op {
        CastOp::Trunc => {
            let bits = to.bits();
            let mask = if bits >= 64 {
                -1i64
            } else {
                (1i64 << bits) - 1
            };
            x & mask
        }
        CastOp::Zext | CastOp::Sext => {
            if op == CastOp::Sext && from_bits < 64 {
                let shift = 64 - from_bits;
                (x << shift) >> shift
            } else {
                x
            }
        }
        CastOp::IntToPtr | CastOp::PtrToInt => x,
    }
}

/// Sparse conditional constant propagation.
///
/// Runs the Wegman–Zadeck worklist to a fixpoint — value lattice plus
/// executable-edge tracking, so constants propagate through phis whose
/// dead incoming edges are ignored — then folds: instructions proven
/// constant are replaced by interned IR constants and detached, and a
/// conditional branch whose condition is a proven constant becomes an
/// unconditional branch (the dead edge is removed from the target
/// phis). Trap preservation is strict: divisions fold only when the
/// divisor is a non-zero constant, loads and calls never fold, and
/// code made unreachable by branch folding was already unreachable in
/// every execution. When no branch folds, the CFG is untouched and the
/// pass declares CFG preservation.
#[derive(Debug, Default)]
pub struct Sccp {
    /// Instructions folded to constants across every `run` call.
    pub folded: usize,
    /// Conditional branches rewritten to unconditional ones.
    pub folded_branches: usize,
    work: SccpWork,
}

/// [`Sccp`]'s per-function side tables, kept across functions.
#[derive(Debug, Default)]
struct SccpWork {
    lat: Vec<Lat>,
    /// Users of every value, in block order, for sparse propagation.
    users: FlatLists<ValueId>,
    ops: Vec<ValueId>,
    exec_block: Vec<bool>,
    /// Per block, the [`edge_bits`] of its executable out-edges.
    exec_edges: Vec<u8>,
    pending: Vec<ValueId>,
    folds: Vec<(ValueId, Constant)>,
    replace: Rewrites,
}

impl Sccp {
    fn eval(f: &swpf_ir::Function, lat: &[Lat], exec_edges: &[u8], v: ValueId) -> Lat {
        let inst = match f.inst(v) {
            Some(i) => i,
            None => return Lat::Bottom,
        };
        let get = |x: ValueId| lat[x.index()];
        match &inst.kind {
            InstKind::Binary { op, lhs, rhs } => {
                let (a, b) = (get(*lhs), get(*rhs));
                if a == Lat::Bottom || b == Lat::Bottom {
                    return Lat::Bottom;
                }
                let (Some(ca), Some(cb)) = (a.as_const(), b.as_const()) else {
                    return Lat::Top;
                };
                if op.is_float() {
                    let (Constant::Float(x), Constant::Float(y)) = (ca, cb) else {
                        return Lat::Bottom;
                    };
                    let r = match op {
                        BinOp::Fadd => x + y,
                        BinOp::Fsub => x - y,
                        BinOp::Fmul => x * y,
                        BinOp::Fdiv => x / y,
                        _ => unreachable!(),
                    };
                    return Lat::Const(Constant::Float(r));
                }
                let (Constant::Int(x, _), Constant::Int(y, _)) = (ca, cb) else {
                    return Lat::Bottom;
                };
                match fold_int_binary(*op, x, y) {
                    Some(r) => match f.value(v).ty {
                        Some(ty) => Lat::Const(Constant::Int(r, ty)),
                        None => Lat::Bottom,
                    },
                    // Constant zero divisor: traps at runtime, keep.
                    None => Lat::Bottom,
                }
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                let (a, b) = (get(*lhs), get(*rhs));
                if a == Lat::Bottom || b == Lat::Bottom {
                    return Lat::Bottom;
                }
                let (Some(Constant::Int(x, _)), Some(Constant::Int(y, _))) =
                    (a.as_const(), b.as_const())
                else {
                    return Lat::Top;
                };
                Lat::Const(Constant::Int(i64::from(fold_icmp(*pred, x, y)), Type::I1))
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => match get(*cond) {
                Lat::Top => Lat::Top,
                Lat::Const(Constant::Int(c, _)) => {
                    if c != 0 {
                        get(*then_val)
                    } else {
                        get(*else_val)
                    }
                }
                Lat::Const(_) => Lat::Bottom,
                Lat::Bottom => meet(get(*then_val), get(*else_val)),
            },
            InstKind::Cast { op, val, to } => match get(*val) {
                Lat::Top => Lat::Top,
                Lat::Const(Constant::Int(x, _)) => {
                    let from_bits = f.value(*val).ty.map_or(64, Type::bits);
                    Lat::Const(Constant::Int(fold_cast(*op, x, from_bits, *to), *to))
                }
                _ => Lat::Bottom,
            },
            InstKind::Phi { incomings } => {
                let mut acc = Lat::Top;
                for &(pb, pv) in incomings {
                    if exec_edges[pb.index()] & edge_bits(f, pb, inst.block) != 0 {
                        acc = meet(acc, get(pv));
                    }
                }
                acc
            }
            // Memory, allocation, address computation over runtime
            // pointers, and calls are never folded.
            _ => Lat::Bottom,
        }
    }
}

impl FunctionPass for Sccp {
    fn name(&self) -> &'static str {
        "sccp"
    }

    fn run(&mut self, m: &mut Module, fid: FuncId, _am: &mut AnalysisManager) -> PassEffect {
        let f = m.function_mut(fid);
        let nv = f.num_values();
        let nb = f.num_blocks();
        let SccpWork {
            lat,
            users,
            ops,
            exec_block,
            exec_edges,
            pending,
            folds,
            replace,
        } = &mut self.work;

        // Initial lattice: arguments are runtime-variable, IR constants
        // are themselves, instruction results start optimistic.
        lat.clear();
        lat.resize(nv, Lat::Top);
        for (i, slot) in lat.iter_mut().enumerate() {
            match &f.value(ValueId(i as u32)).kind {
                ValueKind::Arg { .. } => *slot = Lat::Bottom,
                ValueKind::Const(c) => *slot = Lat::Const(*c),
                ValueKind::Inst(_) => {}
            }
        }

        users.refill(nv, ValueId(0), |user| {
            for v in f.all_insts() {
                if let Some(inst) = f.inst(v) {
                    ops.clear();
                    inst.operands_into(ops);
                    for op in ops.iter() {
                        user(op.index(), v);
                    }
                }
            }
        });

        exec_block.clear();
        exec_block.resize(nb, false);
        exec_edges.clear();
        exec_edges.resize(nb, 0);
        pending.clear();
        exec_block[f.entry().index()] = true;
        pending.extend(f.block(f.entry()).insts.iter().copied());

        while let Some(v) = pending.pop() {
            let inst = f.inst(v).expect("placed instruction");
            let b = inst.block;
            if !exec_block[b.index()] {
                continue;
            }
            // Terminators steer edge executability rather than the
            // value lattice.
            match &inst.kind {
                InstKind::Br { target } => {
                    mark_edge(f, exec_edges, exec_block, pending, b, *target);
                    continue;
                }
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    match lat[cond.index()] {
                        // Unknown yet: no edge executes; the branch
                        // re-evaluates when the condition lowers (it is
                        // a user of the condition).
                        Lat::Top => {}
                        Lat::Const(Constant::Int(c, _)) => {
                            let t = if c != 0 { *then_bb } else { *else_bb };
                            mark_edge(f, exec_edges, exec_block, pending, b, t);
                        }
                        _ => {
                            mark_edge(f, exec_edges, exec_block, pending, b, *then_bb);
                            mark_edge(f, exec_edges, exec_block, pending, b, *else_bb);
                        }
                    }
                    continue;
                }
                _ => {}
            }
            let new = Self::eval(f, lat, exec_edges, v);
            let lowered = match (lat[v.index()], new) {
                (Lat::Top, Lat::Top) => false,
                (Lat::Top, _) => true,
                (Lat::Const(_), Lat::Bottom) => true,
                (Lat::Const(a), Lat::Const(b)) => !const_eq(a, b),
                _ => false,
            };
            if lowered {
                lat[v.index()] = meet(lat[v.index()], new);
                pending.extend_from_slice(users.get(v.index()));
            }
        }

        // --- transform -----------------------------------------------------
        // Fold instructions proven constant (pure kinds only; a folded
        // division is guaranteed non-trapping because a zero divisor
        // lowers to Bottom above).
        folds.clear();
        for v in f.all_insts() {
            let Some(inst) = f.inst(v) else { continue };
            if !exec_block[inst.block.index()] {
                continue;
            }
            let foldable = matches!(
                inst.kind,
                InstKind::Binary { .. }
                    | InstKind::ICmp { .. }
                    | InstKind::Select { .. }
                    | InstKind::Cast { .. }
                    | InstKind::Phi { .. }
            );
            if !foldable {
                continue;
            }
            if let Lat::Const(c) = lat[v.index()] {
                folds.push((v, c));
            }
        }
        if !folds.is_empty() {
            replace.reset(nv);
            for &(v, c) in folds.iter() {
                let cv = f.add_const(c);
                replace.set(v, cv);
            }
            replace.apply(f);
        }
        let folded = folds.len();

        // Fold conditional branches with a proven-constant condition.
        let mut folded_branches = 0usize;
        for b in f.block_ids() {
            if !exec_block[b.index()] {
                continue;
            }
            let Some(term) = f.block(b).last() else {
                continue;
            };
            let Some(InstKind::CondBr {
                cond,
                then_bb,
                else_bb,
            }) = f.inst(term).map(|i| i.kind.clone())
            else {
                continue;
            };
            // The condition may by now be an interned constant (its
            // index possibly beyond the pre-transform lattice) or a
            // value the lattice proved constant; read whichever holds.
            let c = match f.constant(cond) {
                Some(Constant::Int(c, _)) => c,
                Some(Constant::Float(_)) => continue,
                None => match lat.get(cond.index()) {
                    Some(&Lat::Const(Constant::Int(c, _))) => c,
                    _ => continue,
                },
            };
            let (taken, dead) = if c != 0 {
                (then_bb, else_bb)
            } else {
                (else_bb, then_bb)
            };
            if let Some(inst) = f.inst_mut(term) {
                inst.kind = InstKind::Br { target: taken };
            }
            if dead != taken {
                // The edge b → dead is gone; its phi incomings go too.
                for at in 0..f.block(dead).insts.len() {
                    let pv = f.block(dead).insts[at];
                    if let Some(inst) = f.inst_mut(pv) {
                        if let InstKind::Phi { incomings } = &mut inst.kind {
                            incomings.retain(|&(pb, _)| pb != b);
                        }
                    }
                }
            }
            folded_branches += 1;
        }

        self.folded += folded;
        self.folded_branches += folded_branches;
        swpf_obs::count("pass.sccp.folded", (folded + folded_branches) as u64);
        if folded == 0 && folded_branches == 0 {
            return PassEffect::unchanged();
        }
        let effect = PassEffect {
            changed: true,
            removed_insts: folded,
            preserves_cfg: false,
        };
        if folded_branches == 0 {
            effect.preserving_cfg()
        } else {
            effect
        }
    }
}

/// The edge `from → to` as a mask over `from`'s successor slots: bit
/// `i` for each slot `i` that targets `to`.
fn edge_bits(f: &swpf_ir::Function, from: BlockId, to: BlockId) -> u8 {
    let succs = f.successors(from);
    (0..succs.len())
        .filter(|&i| succs[i] == to)
        .fold(0, |bits, i| bits | 1 << i)
}

/// Mark edge `from → to` executable; on a block's first activation its
/// instructions join the evaluation list, on a repeat activation only
/// the target's phis re-evaluate (a new incoming edge can lower them).
fn mark_edge(
    f: &swpf_ir::Function,
    exec_edges: &mut [u8],
    exec_block: &mut [bool],
    pending: &mut Vec<ValueId>,
    from: BlockId,
    to: BlockId,
) {
    let bits = edge_bits(f, from, to);
    if exec_edges[from.index()] & bits != 0 {
        return;
    }
    exec_edges[from.index()] |= bits;
    if exec_block[to.index()] {
        for &v in &f.block(to).insts {
            if matches!(f.inst(v).map(|i| &i.kind), Some(InstKind::Phi { .. })) {
                pending.push(v);
            }
        }
    } else {
        exec_block[to.index()] = true;
        pending.extend(f.block(to).insts.iter().copied());
    }
}

/// Loop-invariant code motion.
///
/// For every natural loop with a preheader, hoists instructions that
/// are (a) speculation-safe under the prefetch pass's fault-avoidance
/// rule — pure and non-trapping, so executing them on loop-skipping
/// paths is unobservable — and (b) loop-invariant: every operand is a
/// constant, an argument, or defined outside the loop (including
/// operands hoisted earlier; the sweep iterates to a fixpoint so
/// invariant chains move together). Hoisted instructions land before
/// the preheader terminator in their original relative order. Loops
/// without a unique outside predecessor are skipped. Move-only and
/// CFG-preserving.
#[derive(Debug, Default)]
pub struct Licm {
    /// Instructions hoisted across every `run` call.
    pub hoisted: usize,
    order: Vec<swpf_analysis::LoopId>,
    /// The swept block's instructions chosen to hoist, in block order.
    hoist: Vec<ValueId>,
    ops: Vec<ValueId>,
}

impl FunctionPass for Licm {
    fn name(&self) -> &'static str {
        "licm"
    }

    fn run(&mut self, m: &mut Module, fid: FuncId, am: &mut AnalysisManager) -> PassEffect {
        let loops = am.loops(m.function(fid), fid);
        let f = m.function_mut(fid);

        // Innermost first: an instruction hoisted to an inner preheader
        // that is still inside an outer loop gets a second chance when
        // the outer loop is processed.
        let Licm {
            order, hoist, ops, ..
        } = self;
        order.clear();
        order.extend(loops.ids());
        order.sort_by_key(|&l| std::cmp::Reverse(loops.get(l).depth));

        let mut hoisted = 0usize;
        for &lid in order.iter() {
            let lp = loops.get(lid);
            let Some(ph) = lp.preheader else { continue };
            let Some(ph_term) = f.block(ph).last() else {
                continue;
            };
            loop {
                let mut moved_this_sweep = false;
                for &b in &lp.blocks {
                    // Each chosen instruction is re-homed to the
                    // preheader at once, so its users later in the sweep
                    // see it as outside the loop; the block then loses
                    // them in one `retain`, and the preheader gains them
                    // in one splice before its terminator.
                    hoist.clear();
                    for i in 0..f.block(b).insts.len() {
                        let v = f.block(b).insts[i];
                        let Some(inst) = f.inst(v) else { continue };
                        if !dce_removable(&inst.kind) {
                            continue;
                        }
                        ops.clear();
                        inst.operands_into(ops);
                        let invariant = ops.iter().all(|&op| match &f.value(op).kind {
                            ValueKind::Arg { .. } | ValueKind::Const(_) => true,
                            ValueKind::Inst(def) => !lp.contains(def.block),
                        });
                        if let (true, Some(inst)) = (invariant, f.inst_mut(v)) {
                            inst.block = ph;
                            hoist.push(v);
                        }
                    }
                    if hoist.is_empty() {
                        continue;
                    }
                    // `hoist` is a subsequence of the block, in order.
                    let mut next = 0;
                    f.block_mut(b).insts.retain(|&x| {
                        let keep = hoist.get(next) != Some(&x);
                        next += usize::from(!keep);
                        keep
                    });
                    let ph_insts = &mut f.block_mut(ph).insts;
                    debug_assert_eq!(ph_insts.last(), Some(&ph_term));
                    let at = ph_insts.len() - 1;
                    ph_insts.splice(at..at, hoist.iter().copied());
                    hoisted += hoist.len();
                    moved_this_sweep = true;
                }
                if !moved_this_sweep {
                    break;
                }
            }
        }

        self.hoisted += hoisted;
        swpf_obs::count("pass.licm.hoisted", hoisted as u64);
        if hoisted == 0 {
            PassEffect::unchanged()
        } else {
            PassEffect::changed().preserving_cfg()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PassManager;
    use swpf_ir::parser::parse_module;
    use swpf_ir::printer::print_module;

    fn run_pass(m: &mut Module, pass: impl FunctionPass + 'static) -> PassEffect {
        let mut am = AnalysisManager::new();
        let mut pm = PassManager::new().verify_between(true);
        pm.add_function_pass(Box::new(pass));
        let runs = pm.run(m, &mut am).expect("pipeline verifies");
        PassEffect {
            changed: runs[0].changed,
            removed_insts: runs[0].removed_insts,
            preserves_cfg: false,
        }
    }

    #[test]
    fn gvn_merges_across_dominating_blocks() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  \
             %1: i64 = add %0, %0\n  br bb1\nbb1:\n  \
             %2: i64 = add %0, %0\n  ret %2\n}\n",
        )
        .unwrap();
        let e = run_pass(&mut m, Gvn::default());
        assert_eq!(e.removed_insts, 1, "cross-block duplicate merged");
        let text = print_module(&m);
        assert_eq!(text.matches("add").count(), 1, "{text}");
    }

    #[test]
    fn gvn_canonicalises_commutative_operands() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64, %1: i64) -> i64 {\nbb0:\n  \
             %2: i64 = add %0, %1\n  \
             %3: i64 = add %1, %0\n  \
             %4: i64 = sub %0, %1\n  \
             %5: i64 = sub %1, %0\n  \
             %6: i64 = add %2, %3\n  \
             %7: i64 = add %4, %5\n  \
             %8: i64 = add %6, %7\n  \
             ret %8\n}\n",
        )
        .unwrap();
        let e = run_pass(&mut m, Gvn::default());
        assert_eq!(e.removed_insts, 1, "add commutes, sub does not");
    }

    #[test]
    fn gvn_does_not_merge_across_siblings() {
        // bb1 and bb2 are dominator-tree siblings: the duplicate in bb2
        // is not available from bb1.
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64, %1: i1) -> i64 {\nbb0:\n  \
             br %1, bb1, bb2\nbb1:\n  \
             %2: i64 = add %0, %0\n  ret %2\nbb2:\n  \
             %3: i64 = add %0, %0\n  ret %3\n}\n",
        )
        .unwrap();
        let e = run_pass(&mut m, Gvn::default());
        assert_eq!(e.removed_insts, 0, "siblings do not dominate each other");
    }

    #[test]
    fn gvn_keeps_loads_and_prefetches() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: ptr, %1: i64) -> i64 {\nbb0:\n  \
             %2: ptr = gep %0, %1 x 8\n  \
             %3: i64 = load i64, %2\n  br bb1\nbb1:\n  \
             %4: ptr = gep %0, %1 x 8\n  \
             %5: i64 = load i64, %4\n  \
             prefetch %4\n  \
             %6: i64 = add %3, %5\n  ret %6\n}\n",
        )
        .unwrap();
        let e = run_pass(&mut m, Gvn::default());
        assert_eq!(e.removed_insts, 1, "gep merged, loads and prefetch kept");
        let text = print_module(&m);
        assert_eq!(text.matches("load").count(), 2, "{text}");
        assert_eq!(text.matches("prefetch").count(), 1, "{text}");
    }

    #[test]
    fn sccp_folds_constant_chains() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  \
             %1 = const 6: i64\n  \
             %2 = const 7: i64\n  \
             %3: i64 = mul %1, %2\n  \
             %4: i64 = add %3, %3\n  \
             %5: i64 = add %4, %0\n  \
             ret %5\n}\n",
        )
        .unwrap();
        let e = run_pass(&mut m, Sccp::default());
        assert_eq!(e.removed_insts, 2, "mul and first add fold; %5 is variable");
        let text = print_module(&m);
        assert!(text.contains("84"), "folded constant interned: {text}");
    }

    #[test]
    fn sccp_folds_branches_and_phis() {
        // The condition is constant-true: bb2 is dead, the phi sees
        // only the bb1 edge and folds, and the whole diamond collapses.
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  \
             %1 = const 1: i64\n  \
             %2 = const 2: i64\n  \
             %3: i1 = icmp slt %1, %2\n  \
             br %3, bb1, bb2\nbb1:\n  \
             %4: i64 = add %1, %2\n  br bb3\nbb2:\n  \
             %5: i64 = mul %1, %2\n  br bb3\nbb3:\n  \
             %6: i64 = phi [bb1: %4], [bb2: %5]\n  \
             %7: i64 = add %6, %0\n  ret %7\n}\n",
        )
        .unwrap();
        let e = run_pass(&mut m, Sccp::default());
        assert!(e.changed);
        let text = print_module(&m);
        assert!(!text.contains("phi"), "phi folded: {text}");
        assert!(!text.contains("br %"), "conditional branch folded: {text}");
    }

    #[test]
    fn sccp_keeps_trapping_division_by_constant_zero() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  \
             %1 = const 0: i64\n  \
             %2 = const 7: i64\n  \
             %3: i64 = sdiv %2, %1\n  \
             %4: i64 = add %3, %0\n  \
             ret %4\n}\n",
        )
        .unwrap();
        let e = run_pass(&mut m, Sccp::default());
        assert_eq!(e.removed_insts, 0, "div by zero must stay and trap");
        assert!(print_module(&m).contains("sdiv"));
    }

    #[test]
    fn sccp_folds_division_by_nonzero_constant() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  \
             %1 = const 84: i64\n  \
             %2 = const 2: i64\n  \
             %3: i64 = sdiv %1, %2\n  \
             %4: i64 = add %3, %0\n  \
             ret %4\n}\n",
        )
        .unwrap();
        let e = run_pass(&mut m, Sccp::default());
        assert_eq!(e.removed_insts, 1, "non-trapping division folds");
        assert!(print_module(&m).contains("42"));
    }

    #[test]
    fn sccp_folds_casts_like_the_interpreter() {
        // trunc i64→i8 masks; sext i8→i64 re-signs from the source
        // width: 200 & 0xff = 200, sext_8(200) = -56.
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  \
             %1 = const 200: i64\n  \
             %2: i8 = trunc %1 to i8\n  \
             %3: i64 = sext %2 to i64\n  \
             %4: i64 = add %3, %0\n  \
             ret %4\n}\n",
        )
        .unwrap();
        let e = run_pass(&mut m, Sccp::default());
        assert_eq!(e.removed_insts, 2);
        assert!(print_module(&m).contains("-56"), "{}", print_module(&m));
    }

    #[test]
    fn licm_hoists_invariant_address_computation() {
        // %7 (gep of a loop-invariant index) and %6 (invariant add) are
        // hoistable; the load and the induction update are not.
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: ptr, %1: i64, %2: i64) -> void {\n  \
             %3 = const 0: i64\n  \
             %4 = const 1: i64\nbb0:\n  \
             br bb1\nbb1:\n  \
             %5: i64 = phi [bb0: %3], [bb2: %9]\n  \
             %6: i1 = icmp slt %5, %1\n  \
             br %6, bb2, bb3\nbb2:\n  \
             %7: i64 = mul %2, %2\n  \
             %8: ptr = gep %0, %7 x 8\n  \
             prefetch %8\n  \
             %9: i64 = add %5, %4\n  \
             br bb1\nbb3:\n  \
             ret\n}\n",
        )
        .unwrap();
        let fid = m.find_function("f").unwrap();
        let before_entry = m.function(fid).block(swpf_ir::BlockId(0)).insts.len();
        let e = run_pass(&mut m, Licm::default());
        assert!(e.changed);
        let after_entry = m.function(fid).block(swpf_ir::BlockId(0)).insts.len();
        assert_eq!(
            after_entry - before_entry,
            2,
            "mul hoists, then the gep over it becomes invariant and hoists"
        );
        // The prefetch and the induction update stay in the loop body.
        let body = m.function(fid).block(swpf_ir::BlockId(2));
        let kinds: Vec<String> = body
            .insts
            .iter()
            .map(|&v| format!("{}", m.function(fid).inst(v).unwrap().kind))
            .collect();
        assert!(kinds.iter().any(|k| k.starts_with("prefetch")), "{kinds:?}");
        assert!(kinds.iter().any(|k| k.starts_with("add")), "{kinds:?}");
    }

    #[test]
    fn licm_leaves_variant_and_memory_instructions() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: ptr, %1: i64) -> void {\n  \
             %2 = const 0: i64\n  \
             %3 = const 1: i64\nbb0:\n  \
             br bb1\nbb1:\n  \
             %4: i64 = phi [bb0: %2], [bb2: %7]\n  \
             %5: i1 = icmp slt %4, %1\n  \
             br %5, bb2, bb3\nbb2:\n  \
             %6: ptr = gep %0, %4 x 8\n  \
             %7: i64 = add %4, %3\n  \
             br bb1\nbb3:\n  \
             ret\n}\n",
        )
        .unwrap();
        let e = run_pass(&mut m, Licm::default());
        // %6 and %7 depend on the induction phi; %5 compares the phi.
        // Nothing is invariant.
        assert!(!e.changed, "nothing to hoist");
    }
}
