//! Structural and SSA verification.
//!
//! The verifier enforces the invariants every analysis and the prefetch
//! pass rely on:
//!
//! * every reachable block ends in exactly one terminator,
//! * phis appear only at block starts and their incoming edges match the
//!   block's actual predecessors,
//! * operands are type-correct,
//! * every use is dominated by its definition (the SSA property), and
//! * declared function purity is consistent with the body.

use crate::block::BlockId;
use crate::dom::{CfgScratch, DomTree};
use crate::function::{FuncId, Function, Purity};
use crate::inst::InstKind;
use crate::module::Module;
use crate::types::Type;
use crate::value::{ValueId, ValueKind};
use std::fmt;

/// A verification failure, with enough context to locate the fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the error was found.
    pub func: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in @{}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// The verifier's per-function side tables, refilled for each function:
/// the module-level entry points own one, and a caller that checks
/// functions one by one keeps one across them
/// ([`verify_function_all_in`]).
#[derive(Debug, Default)]
pub struct VerifyScratch {
    cfg: CfgScratch,
    dom: DomTree,
    /// Position of every placed instruction within its block.
    pos: Vec<u32>,
    ops: Vec<ValueId>,
    incoming: Vec<BlockId>,
    actual: Vec<BlockId>,
}

/// Verify every function in the module.
///
/// # Errors
/// Returns the first violation found ([`verify_module_all`] collects
/// them all).
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    let mut scratch = VerifyScratch::default();
    let mut errs = Vec::new();
    for f in m.func_ids() {
        verify_function_into(m, f, &mut scratch, &mut errs);
        if !errs.is_empty() {
            return Err(errs.swap_remove(0));
        }
    }
    Ok(())
}

/// Verify every function in the module, collecting **every** violation
/// instead of stopping at the first — what the verify-between-passes
/// debug mode reports, so one broken pass shows all of its damage at
/// once. Empty means the module is valid.
#[must_use]
pub fn verify_module_all(m: &Module) -> Vec<VerifyError> {
    let mut scratch = VerifyScratch::default();
    let mut errs = Vec::new();
    for f in m.func_ids() {
        verify_function_into(m, f, &mut scratch, &mut errs);
    }
    errs
}

/// Verify a single function.
///
/// # Errors
/// Returns the first violation found ([`verify_function_all`] collects
/// them all).
pub fn verify_function(m: &Module, fid: FuncId) -> Result<(), VerifyError> {
    match verify_function_all(m, fid).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Verify a single function, collecting every violation.
///
/// Checks run in dependency order: structural soundness first (blocks
/// non-empty, listed values are instructions, operand/successor
/// indices in range, terminator/phi placement). If any structural
/// check fails, the deeper phases — which index by those values and
/// would fault on a malformed skeleton — are skipped for this
/// function, and only the structural errors are reported. On a
/// structurally sound function, every phi-edge, type, SSA-dominance,
/// and purity violation is collected (type and dominance checks report
/// at instruction granularity).
#[must_use]
pub fn verify_function_all(m: &Module, fid: FuncId) -> Vec<VerifyError> {
    verify_function_all_in(m, fid, &mut VerifyScratch::default())
}

/// [`verify_function_all`], working in `scratch`.
#[must_use]
pub fn verify_function_all_in(
    m: &Module,
    fid: FuncId,
    scratch: &mut VerifyScratch,
) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    verify_function_into(m, fid, scratch, &mut errs);
    errs
}

/// [`verify_function_all`], appending to `errs` and working in `scratch`.
fn verify_function_into(
    m: &Module,
    fid: FuncId,
    scratch: &mut VerifyScratch,
    errs: &mut Vec<VerifyError>,
) {
    swpf_obs::count("ir.verify.functions", 1);
    let f = m.function(fid);
    let errs_before = errs.len();
    macro_rules! fail {
        ($($t:tt)*) => {
            errs.push(VerifyError {
                func: f.name.clone(),
                message: format!($($t)*),
            })
        };
    }
    let VerifyScratch {
        cfg,
        dom,
        pos,
        ops,
        incoming,
        actual,
    } = scratch;

    // --- structural checks -------------------------------------------------
    pos.clear();
    pos.resize(f.num_values(), u32::MAX);
    for b in f.block_ids() {
        let insts = &f.block(b).insts;
        if insts.is_empty() {
            fail!("{b} is empty");
            continue;
        }
        let mut seen_non_phi = false;
        for (at, &v) in insts.iter().enumerate() {
            let Some(inst) = f.inst(v) else {
                fail!("{b} lists non-instruction value {v}");
                continue;
            };
            if inst.block != b {
                fail!("{v} placed in {b} but records {}", inst.block);
            }
            if pos[v.index()] == u32::MAX {
                pos[v.index()] = at as u32;
            }
            let is_last = at + 1 == insts.len();
            if inst.is_terminator() != is_last {
                fail!(
                    "{v} in {b}: terminator placement (pos {at} of {})",
                    insts.len()
                );
            }
            match inst.kind {
                InstKind::Phi { .. } => {
                    if seen_non_phi {
                        fail!("{v}: phi after non-phi in {b}");
                    }
                }
                _ => seen_non_phi = true,
            }
            // Operand and successor indices must be in range.
            ops.clear();
            inst.operands_into(ops);
            for op in ops.iter() {
                if op.index() >= f.num_values() {
                    fail!("{v}: operand {op} out of range");
                }
            }
            for s in inst.successors() {
                if s.index() >= f.num_blocks() {
                    fail!("{v}: successor {s} out of range");
                }
            }
        }
    }
    if errs.len() > errs_before {
        // The remaining phases index values/blocks the structural pass
        // just proved unsound; report the structural damage alone.
        return;
    }

    // --- phi incoming edges match predecessors -----------------------------
    dom.refill(f, cfg);
    let preds = &cfg.preds;
    for b in f.block_ids() {
        let mut have_actual = false;
        for &v in &f.block(b).insts {
            if let Some(InstKind::Phi { incomings }) = f.inst(v).map(|i| &i.kind) {
                incoming.clear();
                incoming.extend(incomings.iter().map(|(p, _)| *p));
                incoming.sort();
                incoming.dedup();
                if incoming.len() != incomings.len() {
                    fail!("{v}: duplicate phi incoming blocks");
                }
                if !have_actual {
                    actual.clear();
                    actual.extend_from_slice(preds.get(b));
                    actual.sort();
                    actual.dedup();
                    have_actual = true;
                }
                if incoming != actual {
                    fail!("{v}: phi incomings {incoming:?} != predecessors {actual:?}");
                }
            }
        }
    }

    // --- type checks --------------------------------------------------------
    for v in f.all_insts() {
        if let Err(msg) = check_inst_types(m, f, v) {
            fail!("{msg}");
        }
    }

    // --- SSA dominance -------------------------------------------------------
    for b in f.block_ids() {
        if !dom.is_reachable(b) {
            continue; // unreachable block: skip dominance checks
        }
        let insts = &f.block(b).insts;
        for (at, &v) in insts.iter().enumerate() {
            let inst = f.inst(v).expect("checked");
            if let InstKind::Phi { incomings } = &inst.kind {
                // Each incoming value must dominate the end of its edge
                // block, which it does if defined there, reachable or not.
                for &(pb, pv) in incomings {
                    if let ValueKind::Inst(def) = &f.value(pv).kind {
                        if def.block != pb && !dom.dominates(def.block, pb) {
                            fail!("{v}: phi incoming {pv} does not dominate {pb}");
                        }
                    }
                }
                continue;
            }
            ops.clear();
            inst.operands_into(ops);
            for &op in ops.iter() {
                if let ValueKind::Inst(def) = &f.value(op).kind {
                    if def.block == b {
                        // `pos` is `u32::MAX` for a detached definition.
                        if pos[op.index()] as usize >= at {
                            fail!("{v}: use of {op} before definition in {b}");
                        }
                    } else if !dom.dominates(def.block, b) {
                        fail!("{v}: use of {op} not dominated by its definition");
                    }
                }
            }
        }
    }

    // --- purity --------------------------------------------------------------
    if f.purity != Purity::Impure {
        for v in f.all_insts() {
            match &f.inst(v).expect("checked").kind {
                InstKind::Store { .. } | InstKind::Alloc { .. } => {
                    fail!("{v}: store/alloc in non-impure function");
                }
                InstKind::Load { .. } if f.purity == Purity::Pure => {
                    fail!("{v}: load in pure function");
                }
                InstKind::Call { callee, .. } => {
                    let cp = m.function(*callee).purity;
                    let ok = match f.purity {
                        Purity::Pure => cp == Purity::Pure,
                        Purity::ReadOnly => cp != Purity::Impure,
                        Purity::Impure => true,
                    };
                    if !ok {
                        fail!("{v}: call weakens declared purity");
                    }
                }
                _ => {}
            }
        }
    }
}

/// Type-check one instruction, reporting its first violation (the
/// collecting verifier runs this per instruction, so a function's type
/// errors surface at instruction granularity).
fn check_inst_types(m: &Module, f: &Function, v: ValueId) -> Result<(), String> {
    let inst = f.inst(v).expect("checked above");
    let ty_of = |val: ValueId| f.value(val).ty;
    let fail = |msg: String| Err(msg);
    match &inst.kind {
        InstKind::Binary { op, lhs, rhs } => {
            let (lt, rt) = (ty_of(*lhs), ty_of(*rhs));
            if lt.is_none() || lt != rt {
                return fail(format!("{v}: binary operand types {lt:?} vs {rt:?}"));
            }
            let is_f = lt == Some(Type::F64);
            if op.is_float() != is_f {
                return fail(format!("{v}: {} on {lt:?}", op.mnemonic()));
            }
        }
        InstKind::ICmp { lhs, rhs, .. } => {
            let (lt, rt) = (ty_of(*lhs), ty_of(*rhs));
            if lt != rt || lt.is_none_or(|t| !t.is_int()) {
                return fail(format!("{v}: icmp operand types {lt:?} vs {rt:?}"));
            }
        }
        InstKind::Select {
            cond,
            then_val,
            else_val,
        } => {
            if ty_of(*cond) != Some(Type::I1) {
                return fail(format!("{v}: select condition must be i1"));
            }
            if ty_of(*then_val) != ty_of(*else_val) {
                return fail(format!("{v}: select arm types differ"));
            }
        }
        InstKind::Cast { op, val, to } => {
            use crate::inst::CastOp;
            let from = ty_of(*val);
            let Some(from) = from else {
                return fail(format!("{v}: cast of void value"));
            };
            let ok = match op {
                CastOp::Trunc => from.is_int() && to.is_int() && from.bits() > to.bits(),
                CastOp::Zext | CastOp::Sext => {
                    from.is_int() && to.is_int() && from.bits() < to.bits()
                }
                CastOp::IntToPtr => from == Type::I64 && *to == Type::Ptr,
                CastOp::PtrToInt => from == Type::Ptr && *to == Type::I64,
            };
            if !ok {
                return fail(format!("{v}: invalid cast {from} to {to}"));
            }
        }
        InstKind::Alloc { count, elem_size } => {
            if ty_of(*count).is_none_or(|t| !t.is_int()) {
                return fail(format!("{v}: alloc count must be integer"));
            }
            if *elem_size == 0 {
                return fail(format!("{v}: alloc with zero element size"));
            }
        }
        InstKind::Gep {
            base,
            index,
            elem_size,
            ..
        } => {
            if ty_of(*base) != Some(Type::Ptr) {
                return fail(format!("{v}: gep base must be ptr"));
            }
            if ty_of(*index).is_none_or(|t| !t.is_int()) {
                return fail(format!("{v}: gep index must be integer"));
            }
            if *elem_size == 0 {
                return fail(format!("{v}: gep with zero element size"));
            }
        }
        InstKind::Load { addr, .. }
        | InstKind::Prefetch { addr }
        | InstKind::Store { addr, .. } => {
            if ty_of(*addr) != Some(Type::Ptr) {
                return fail(format!("{v}: memory address must be ptr"));
            }
            if let InstKind::Store { value, .. } = inst.kind {
                if ty_of(value).is_none() {
                    return fail(format!("{v}: store of void value"));
                }
            }
        }
        InstKind::Phi { incomings } => {
            let my_ty = f.value(v).ty;
            for (_, iv) in incomings {
                if ty_of(*iv) != my_ty {
                    return fail(format!("{v}: phi incoming type mismatch"));
                }
            }
        }
        InstKind::Call { callee, args } => {
            if callee.index() >= m.num_functions() {
                return fail(format!("{v}: call target out of range"));
            }
            let target = m.function(*callee);
            if target.params.len() != args.len() {
                return fail(format!(
                    "{v}: call to @{} with {} args, expected {}",
                    target.name,
                    args.len(),
                    target.params.len()
                ));
            }
            for (a, &pt) in args.iter().zip(&target.params) {
                if ty_of(*a) != Some(pt) {
                    return fail(format!("{v}: call argument type mismatch"));
                }
            }
            if f.value(v).ty != target.ret {
                return fail(format!("{v}: call result type mismatch"));
            }
        }
        InstKind::CondBr { cond, .. } => {
            if ty_of(*cond) != Some(Type::I1) {
                return fail(format!("{v}: branch condition must be i1"));
            }
        }
        InstKind::Br { .. } => {}
        InstKind::Ret { value } => {
            let got = value.and_then(ty_of);
            if got != f.ret {
                return fail(format!(
                    "{v}: ret type {got:?}, function returns {:?}",
                    f.ret
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Pred};

    fn module_with(f: impl FnOnce(&mut FunctionBuilder)) -> Module {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64, Type::Ptr], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        f(&mut b);
        m
    }

    #[test]
    fn accepts_straight_line() {
        let m = module_with(|b| {
            let x = b.arg(0);
            let one = b.const_i64(1);
            let y = b.add(x, one);
            b.ret(Some(y));
        });
        verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_missing_terminator() {
        let m = module_with(|b| {
            let x = b.arg(0);
            let one = b.const_i64(1);
            b.add(x, one);
        });
        let err = verify_module(&m).unwrap_err();
        assert!(err.message.contains("terminator"), "{err}");
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64, Type::I32], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let wide = b.arg(0);
            let narrow = b.arg(1);
            let bad = b.binary(BinOp::Add, wide, narrow);
            b.ret(Some(bad));
        }
        let err = verify_module(&m).unwrap_err();
        assert!(err.message.contains("binary operand types"), "{err}");
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], Type::I64);
        {
            let f = m.function_mut(fid);
            let entry = f.entry();
            let one = f.const_i64(1);
            // Build add(later, 1) then place `later` after it.
            let later = f.create_inst(
                InstKind::Binary {
                    op: BinOp::Add,
                    lhs: f.arg(0),
                    rhs: one,
                },
                Some(Type::I64),
                entry,
            );
            let early = f.create_inst(
                InstKind::Binary {
                    op: BinOp::Add,
                    lhs: later,
                    rhs: one,
                },
                Some(Type::I64),
                entry,
            );
            f.push_inst(early);
            f.push_inst(later);
            let ret = f.create_inst(InstKind::Ret { value: Some(early) }, None, entry);
            f.push_inst(ret);
        }
        let err = verify_module(&m).unwrap_err();
        assert!(err.message.contains("before definition"), "{err}");
    }

    #[test]
    fn rejects_phi_pred_mismatch() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let next = b.create_block("next");
            let bogus = b.create_block("bogus");
            b.br(next);
            b.switch_to(next);
            let zero = b.const_i64(0);
            // Claims an incoming edge from `bogus`, which never branches here.
            let p = b.phi(Type::I64, &[(entry, zero), (bogus, zero)]);
            b.ret(Some(p));
            b.switch_to(bogus);
            b.ret(Some(zero));
        }
        let err = verify_module(&m).unwrap_err();
        assert!(err.message.contains("phi incomings"), "{err}");
    }

    #[test]
    fn rejects_impure_body_in_pure_function() {
        let mut m = Module::new("t");
        let fid = m.declare_function_with_purity(
            "h",
            &[Type::Ptr],
            Type::I64,
            crate::function::Purity::Pure,
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let p = b.arg(0);
            let v = b.load(Type::I64, p);
            b.ret(Some(v));
        }
        let err = verify_module(&m).unwrap_err();
        assert!(err.message.contains("pure"), "{err}");
    }

    #[test]
    fn collects_every_type_violation() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64, Type::I32], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let wide = b.arg(0);
            let narrow = b.arg(1);
            // Two independent type errors in one function.
            let bad1 = b.binary(BinOp::Add, wide, narrow);
            let bad2 = b.binary(BinOp::Mul, narrow, wide);
            let ok = b.binary(BinOp::Add, wide, wide);
            let _ = (bad1, bad2);
            b.ret(Some(ok));
        }
        let errs = verify_module_all(&m);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs
            .iter()
            .all(|e| e.message.contains("binary operand types")));
        // The first-error wrapper reports exactly the head of the list.
        assert_eq!(verify_module(&m).unwrap_err(), errs[0]);
    }

    #[test]
    fn structural_damage_gates_deeper_checks_without_panicking() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let x = b.arg(0);
            let one = b.const_i64(1);
            let y = b.add(x, one);
            b.ret(Some(y));
            // An empty second block and a dropped terminator: two
            // structural faults at once.
            b.create_block("hole");
        }
        let entry = m.function(fid).entry();
        m.function_mut(fid).block_mut(entry).insts.pop();
        let errs = verify_module_all(&m);
        assert!(errs.len() >= 2, "{errs:?}");
        assert!(errs.iter().any(|e| e.message.contains("is empty")));
        assert!(errs.iter().any(|e| e.message.contains("terminator")));
    }

    #[test]
    fn uses_inside_unreachable_blocks_are_not_checked_for_dominance() {
        let m = module_with(|b| {
            let then_bb = b.create_block("then");
            let else_bb = b.create_block("else");
            let dead = b.create_block("dead");
            let zero = b.const_i64(0);
            let c = b.icmp(Pred::Eq, b.arg(0), zero);
            b.cond_br(c, then_bb, else_bb);
            b.switch_to(then_bb);
            let y = b.add(b.arg(0), b.arg(0));
            b.ret(Some(y));
            b.switch_to(else_bb);
            b.ret(Some(zero));
            // `then` does not dominate `dead`; nothing reaches `dead`.
            b.switch_to(dead);
            let z = b.add(y, y);
            b.ret(Some(z));
        });
        assert_eq!(verify_module_all(&m), []);
    }

    #[test]
    fn rejects_a_reachable_use_of_a_value_defined_in_an_unreachable_block() {
        let m = module_with(|b| {
            let join = b.create_block("join");
            let dead = b.create_block("dead");
            b.br(join);
            b.switch_to(dead);
            let x = b.add(b.arg(0), b.arg(0));
            b.br(join);
            b.switch_to(join);
            let y = b.add(x, b.arg(0));
            b.ret(Some(y));
        });
        let errs = verify_module_all(&m);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(
            errs[0].message,
            "%5: use of %3 not dominated by its definition"
        );
    }

    /// A phi incoming from an unreachable predecessor: a value defined in
    /// that predecessor passes (a block dominates itself, reachable or
    /// not), and a value defined anywhere else does not, because nothing
    /// else dominates an unreachable block.
    #[test]
    fn phi_incoming_from_an_unreachable_predecessor() {
        let build = |from_dead_block: bool| {
            module_with(|b| {
                let entry = b.entry_block();
                let join = b.create_block("join");
                let dead = b.create_block("dead");
                let a = b.add(b.arg(0), b.arg(0));
                b.br(join);
                b.switch_to(dead);
                let d = b.add(b.arg(0), b.arg(0));
                b.br(join);
                b.switch_to(join);
                let incoming = if from_dead_block { d } else { a };
                let p = b.phi(Type::I64, &[(entry, a), (dead, incoming)]);
                b.ret(Some(p));
            })
        };
        assert_eq!(verify_module_all(&build(true)), []);
        let errs = verify_module_all(&build(false));
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].message, "%6: phi incoming %2 does not dominate bb2");
    }

    #[test]
    fn idom_of_diamond() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let t = b.create_block("t");
            let e = b.create_block("e");
            let join = b.create_block("join");
            let zero = b.const_i64(0);
            let c = b.icmp(Pred::Eq, b.arg(0), zero);
            b.cond_br(c, t, e);
            b.switch_to(t);
            let one = b.const_i64(1);
            b.br(join);
            b.switch_to(e);
            let two = b.const_i64(2);
            b.br(join);
            b.switch_to(join);
            let p = b.phi(Type::I64, &[(t, one), (e, two)]);
            b.ret(Some(p));
            let _ = entry;
        }
        verify_module(&m).unwrap();
        let dom = DomTree::compute(m.function(FuncId(0)));
        assert_eq!(
            dom.idom(BlockId(3)),
            Some(BlockId(0)),
            "join dominated by entry"
        );
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(0)));
    }
}
