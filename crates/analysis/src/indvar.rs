//! Canonical induction variables and loop-bound discovery.
//!
//! The paper's pass looks ahead in an array by *adding an offset to an
//! induction variable* (§4.1), and clamps the offset value to the loop
//! bound so intermediate loads cannot fault (§4.2). This module recognises
//! both pieces:
//!
//! * [`InductionVar`]: a header phi of the form
//!   `i = phi [preheader: init], [latch: i ± step]` with constant step;
//! * [`LoopBound`]: for single-exit loops, the loop-invariant value the
//!   induction variable is compared against to stay in the loop, which
//!   bounds the indices the look-ahead code may touch.

use crate::loops::{LoopForest, LoopId};
use swpf_ir::{BinOp, ValueKind};
use swpf_ir::{Function, InstKind, Pred, ValueId};

/// A canonical induction variable of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InductionVar {
    /// The loop whose header holds the phi.
    pub in_loop: LoopId,
    /// The phi node (this is "the induction variable" as a value).
    pub phi: ValueId,
    /// Initial value flowing in from the preheader.
    pub init: ValueId,
    /// The update instruction (`add`/`sub` of the phi).
    pub next: ValueId,
    /// Signed per-iteration step.
    pub step: i64,
}

impl InductionVar {
    /// Whether this is the paper's "canonical form": counts upward by one.
    #[must_use]
    pub fn is_canonical(&self) -> bool {
        self.step == 1
    }
}

/// The loop-termination comparison of a single-exit loop, normalised so
/// that the induction variable (or its `next` value) is on the left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopBound {
    /// The induction variable this bound constrains (phi value).
    pub iv_phi: ValueId,
    /// Loop-invariant bound operand.
    pub bound: ValueId,
    /// Predicate under which the loop *continues*, with the IV on the lhs
    /// (e.g. `Slt` for `for (i = 0; i < n; i++)`).
    pub cont_pred: Pred,
    /// True when the comparison tests `iv.next` rather than the phi.
    pub compares_next: bool,
}

impl LoopBound {
    /// Whether the continuing predicate is strict (`<`, `>`), meaning the
    /// largest index the loop body observes is `bound - step_direction`.
    #[must_use]
    pub fn is_strict(&self) -> bool {
        matches!(
            self.cont_pred,
            Pred::Slt | Pred::Sgt | Pred::Ult | Pred::Ugt | Pred::Ne
        )
    }
}

/// Induction variables and bounds for every loop of a function, each
/// list sorted by phi so a lookup is a binary search.
#[derive(Debug, Clone, Default)]
pub struct IvAnalysis {
    ivs: Vec<InductionVar>,
    bounds: Vec<LoopBound>,
}

impl IvAnalysis {
    /// Find induction variables and bounds in all loops of `f`.
    #[must_use]
    pub fn compute(f: &Function, forest: &LoopForest) -> Self {
        let mut ivs = Vec::new();
        let mut bounds = Vec::new();
        for lid in forest.ids() {
            let l = forest.get(lid);
            let first = ivs.len();
            let (Some(preheader), [latch]) = (l.preheader, l.latches.as_slice()) else {
                continue; // multi-latch or multi-entry: no canonical IV
            };
            for &v in &f.block(l.header).insts {
                let Some(InstKind::Phi { incomings }) = f.inst(v).map(|i| &i.kind) else {
                    break; // phis are a prefix of the block
                };
                if incomings.len() != 2 {
                    continue;
                }
                let mut init = None;
                let mut next = None;
                for &(pb, pv) in incomings {
                    if pb == preheader {
                        init = Some(pv);
                    } else if pb == *latch {
                        next = Some(pv);
                    }
                }
                let (Some(init), Some(next)) = (init, next) else {
                    continue;
                };
                let Some(step) = step_of(f, next, v) else {
                    continue;
                };
                ivs.push(InductionVar {
                    in_loop: lid,
                    phi: v,
                    init,
                    next,
                    step,
                });
            }
            // Bound: single exiting block whose condition compares an IV
            // (or its update) against a loop-invariant value.
            if let [exiting] = l.exiting.as_slice() {
                if let Some(b) = find_bound(f, forest, lid, *exiting, &ivs[first..]) {
                    bounds.push(b);
                }
            }
        }
        ivs.sort_unstable_by_key(|iv| iv.phi);
        bounds.sort_unstable_by_key(|b| b.iv_phi);
        IvAnalysis { ivs, bounds }
    }

    /// All induction variables of loop `l`.
    pub fn ivs_of(&self, l: LoopId) -> impl Iterator<Item = &InductionVar> + '_ {
        self.ivs.iter().filter(move |iv| iv.in_loop == l)
    }

    /// The induction variable whose phi is `v`, if `v` is one.
    #[must_use]
    pub fn as_iv(&self, v: ValueId) -> Option<&InductionVar> {
        let at = self.ivs.binary_search_by_key(&v, |iv| iv.phi).ok()?;
        Some(&self.ivs[at])
    }

    /// The bound constraining induction variable `phi`, if discovered.
    #[must_use]
    pub fn bound_of(&self, phi: ValueId) -> Option<&LoopBound> {
        let at = self.bounds.binary_search_by_key(&phi, |b| b.iv_phi).ok()?;
        Some(&self.bounds[at])
    }

    /// All discovered induction variables, in phi order.
    #[must_use]
    pub fn all(&self) -> &[InductionVar] {
        &self.ivs
    }
}

/// If `next` is `phi ± constant`, return the signed step.
fn step_of(f: &Function, next: ValueId, phi: ValueId) -> Option<i64> {
    let InstKind::Binary { op, lhs, rhs } = &f.inst(next)?.kind else {
        return None;
    };
    let const_of = |v: ValueId| f.constant(v).and_then(|c| c.as_int());
    match op {
        BinOp::Add => {
            if *lhs == phi {
                const_of(*rhs)
            } else if *rhs == phi {
                const_of(*lhs)
            } else {
                None
            }
        }
        BinOp::Sub if *lhs == phi => const_of(*rhs).map(i64::wrapping_neg),
        _ => None,
    }
}

/// Whether `v` is invariant with respect to loop `l`: a constant, an
/// argument, or an instruction defined outside the loop.
#[must_use]
pub fn is_loop_invariant(f: &Function, forest: &LoopForest, l: LoopId, v: ValueId) -> bool {
    match &f.value(v).kind {
        ValueKind::Arg { .. } | ValueKind::Const(_) => true,
        ValueKind::Inst(inst) => !forest.get(l).contains(inst.block),
    }
}

fn find_bound(
    f: &Function,
    forest: &LoopForest,
    lid: LoopId,
    exiting: swpf_ir::BlockId,
    ivs: &[InductionVar],
) -> Option<LoopBound> {
    // `ivs` are loop `lid`'s own.
    let l = forest.get(lid);
    let term = f.block(exiting).last()?;
    let InstKind::CondBr {
        cond,
        then_bb,
        else_bb,
    } = &f.inst(term)?.kind
    else {
        return None;
    };
    let InstKind::ICmp { pred, lhs, rhs } = &f.inst(*cond)?.kind else {
        return None;
    };
    // Which arm stays in the loop?
    let then_in = l.contains(*then_bb);
    let else_in = l.contains(*else_bb);
    let cont_on_true = match (then_in, else_in) {
        (true, false) => true,
        (false, true) => false,
        _ => return None, // both arms inside (exit elsewhere) or malformed
    };
    // Normalise: IV-ish operand on the left, invariant bound on the right.
    let classify = |v: ValueId| -> Option<(ValueId, bool)> {
        for iv in ivs {
            if v == iv.phi {
                return Some((iv.phi, false));
            }
            if v == iv.next {
                return Some((iv.phi, true));
            }
        }
        None
    };
    let (iv_phi, compares_next, bound, pred_norm) = if let Some((phi, nxt)) = classify(*lhs) {
        (phi, nxt, *rhs, *pred)
    } else if let Some((phi, nxt)) = classify(*rhs) {
        (phi, nxt, *lhs, pred.swapped())
    } else {
        return None;
    };
    if !is_loop_invariant(f, forest, lid, bound) {
        return None;
    }
    let cont_pred = if cont_on_true {
        pred_norm
    } else {
        pred_norm.negated()
    };
    Some(LoopBound {
        iv_phi,
        bound,
        cont_pred,
        compares_next,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomTree;
    use swpf_ir::prelude::*;

    fn analyse(m: &Module, fid: FuncId) -> (LoopForest, IvAnalysis) {
        swpf_ir::verifier::verify_module(m).unwrap();
        let f = m.function(fid);
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        let ivs = IvAnalysis::compute(f, &forest);
        (forest, ivs)
    }

    /// `for (i = 0; i < n; i++)` with the test in the header.
    #[test]
    fn canonical_upcounting_loop() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(0));
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
        }
        let (forest, ivs) = analyse(&m, fid);
        assert_eq!(forest.len(), 1);
        let all = ivs.all();
        assert_eq!(all.len(), 1);
        let iv = all[0];
        assert_eq!(iv.step, 1);
        assert!(iv.is_canonical());
        let bound = ivs.bound_of(iv.phi).expect("bound found");
        assert_eq!(bound.cont_pred, Pred::Slt);
        assert!(!bound.compares_next);
        assert!(bound.is_strict());
        assert_eq!(bound.bound, ValueId(0), "bound is the argument n");
    }

    /// Do-while-shaped loop testing `i.next != n` in the latch.
    #[test]
    fn latch_tested_loop_compares_next() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let body = b.create_block("body");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(body);
            b.switch_to(body);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            let c = b.icmp(Pred::Ne, i2, b.arg(0));
            b.cond_br(c, body, exit);
            b.switch_to(exit);
            b.ret(None);
        }
        let (_, ivs) = analyse(&m, fid);
        let iv = ivs.all()[0];
        let bound = ivs.bound_of(iv.phi).expect("bound");
        assert!(bound.compares_next);
        assert_eq!(bound.cont_pred, Pred::Ne);
    }

    /// Down-counting loop `for (i = n; i > 0; i--)`.
    #[test]
    fn downcounting_loop_negative_step() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, b.arg(0))]);
            let c = b.icmp(Pred::Sgt, i, zero);
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let i2 = b.sub(i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
        }
        let (_, ivs) = analyse(&m, fid);
        let iv = ivs.all()[0];
        assert_eq!(iv.step, -1);
        assert!(!iv.is_canonical());
        let bound = ivs.bound_of(iv.phi).expect("bound");
        assert_eq!(bound.cont_pred, Pred::Sgt);
    }

    /// Bound comparison written backwards (`n > i`) still normalises.
    #[test]
    fn swapped_comparison_normalises() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let c = b.icmp(Pred::Sgt, b.arg(0), i); // n > i
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
        }
        let (_, ivs) = analyse(&m, fid);
        let bound = ivs.bound_of(ivs.all()[0].phi).expect("bound");
        assert_eq!(bound.cont_pred, Pred::Slt, "normalised to iv < n");
    }

    /// A phi that is not an arithmetic recurrence is not an IV.
    #[test]
    fn data_phi_is_not_an_iv() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64, Type::Ptr], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            // Pointer-chasing phi: next = load(cur) — not an IV.
            let p = b.phi(Type::Ptr, &[(entry, b.arg(1))]);
            let c = b.icmp(Pred::Slt, i, b.arg(0));
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let nextp = b.load(Type::Ptr, p);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(p, body, nextp);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
        }
        let (_, ivs) = analyse(&m, fid);
        assert_eq!(ivs.all().len(), 1, "only the counter is an IV");
        assert_eq!(ivs.all()[0].step, 1);
    }

    #[test]
    fn loop_invariance_classification() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            let pre = b.add(b.arg(0), one); // defined before the loop
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(0));
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let varying = b.add(i, pre); // defined inside
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
            // Checks.
            let _ = b;
            let f = m.function(fid);
            let dom = DomTree::compute(f);
            let forest = LoopForest::compute(f, &dom);
            let l = forest.innermost(BlockId(2)).unwrap();
            assert!(is_loop_invariant(f, &forest, l, pre));
            assert!(is_loop_invariant(f, &forest, l, zero));
            assert!(is_loop_invariant(f, &forest, l, f.arg(0)));
            assert!(!is_loop_invariant(f, &forest, l, varying));
            assert!(!is_loop_invariant(f, &forest, l, i));
        }
    }
}
