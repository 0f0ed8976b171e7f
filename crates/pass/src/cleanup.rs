//! Composable cleanup passes: local CSE and DCE.
//!
//! These are the paper's "later passes clean it up" step made explicit
//! and measurable. The prefetch generator clones address computations
//! per chain position, so two prefetch sequences over the same base
//! recompute identical geps, look-ahead adds, and clamp limits —
//! redundancy the paper leaves to `-O3`. [`LocalCse`] merges those
//! duplicates within each block; [`Dce`] then sweeps computations whose
//! only consumers were merged away. Both passes are *prefetch-neutral*:
//! they never touch memory operations (loads, stores, prefetches),
//! phis, calls, allocs, or terminators, so the architectural behaviour
//! and every emitted prefetch survive — only redundant arithmetic goes.

use crate::manager::{AnalysisManager, FunctionPass, PassEffect};
use swpf_ir::hash::FastMap;
use swpf_ir::{BinOp, CastOp, FuncId, Function, InstKind, Module, Pred, Type, ValueId};

/// The CSE value-numbering key: a pure instruction's operation with its
/// (canonicalised) operands. Shared with the dominator-scoped GVN pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    Bin(BinOp, ValueId, ValueId),
    Cmp(Pred, ValueId, ValueId),
    Sel(ValueId, ValueId, ValueId),
    Cast(CastOp, ValueId, Type),
    Gep(ValueId, ValueId, u64, u64),
}

/// A value → replacement side table over one function's arena (a value
/// without a replacement maps to itself), plus the rewrite it drives:
/// every use goes to its replacement and the replaced instructions are
/// detached. A replacement must itself be unreplaced, so one lookup per
/// operand is the whole rewrite.
#[derive(Debug, Default)]
pub(crate) struct Rewrites {
    to: Vec<ValueId>,
    replaced: usize,
}

impl Rewrites {
    /// Start over for a function of `num_values` values.
    pub(crate) fn reset(&mut self, num_values: usize) {
        self.to.clear();
        self.to.extend((0..num_values as u32).map(ValueId));
        self.replaced = 0;
    }

    /// The replacement of `v`; `v` itself when it has none (or was
    /// created after [`Rewrites::reset`]).
    pub(crate) fn get(&self, v: ValueId) -> ValueId {
        self.to.get(v.index()).copied().unwrap_or(v)
    }

    pub(crate) fn set(&mut self, from: ValueId, to: ValueId) {
        self.to[from.index()] = to;
        self.replaced += 1;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.replaced == 0
    }

    /// Rewrite every use in `f`, then detach the replaced instructions
    /// from their blocks (arena slots stay; the printer ignores
    /// detached values). Returns how many were detached.
    pub(crate) fn apply(&self, f: &mut Function) -> usize {
        let mut removed = 0usize;
        for b in f.block_ids() {
            for at in 0..f.block(b).insts.len() {
                let v = f.block(b).insts[at];
                if let Some(inst) = f.inst_mut(v) {
                    inst.for_each_operand_mut(|op| *op = self.get(*op));
                }
            }
        }
        for b in f.block_ids() {
            let insts = &mut f.block_mut(b).insts;
            let before = insts.len();
            insts.retain(|&v| self.get(v) == v);
            removed += before - insts.len();
        }
        removed
    }
}

/// The value-numbering key of `v`, with operands rewritten through the
/// current duplicate table — or `None` for instructions CSE must not
/// touch (memory operations, phis, calls, allocs, terminators).
///
/// Integer division/remainder *are* keyed: merging two identical
/// divisions preserves trap behaviour exactly (same operands, same
/// trap, and the kept occurrence is the earlier one).
pub(crate) fn key_of(kind: &InstKind, canon: &Rewrites) -> Option<Key> {
    let c = |v: ValueId| canon.get(v);
    match kind {
        InstKind::Binary { op, lhs, rhs } => Some(Key::Bin(*op, c(*lhs), c(*rhs))),
        InstKind::ICmp { pred, lhs, rhs } => Some(Key::Cmp(*pred, c(*lhs), c(*rhs))),
        InstKind::Select {
            cond,
            then_val,
            else_val,
        } => Some(Key::Sel(c(*cond), c(*then_val), c(*else_val))),
        InstKind::Cast { op, val, to } => Some(Key::Cast(*op, c(*val), *to)),
        InstKind::Gep {
            base,
            index,
            elem_size,
            offset,
        } => Some(Key::Gep(c(*base), c(*index), *elem_size, *offset)),
        _ => None,
    }
}

/// Local (per-block) common-subexpression elimination.
///
/// Scans each block in order, value-numbering the pure instructions;
/// a later instruction computing an already-available value is removed
/// and its uses (anywhere in the function — SSA guarantees they are
/// dominated by the block) are rewritten to the first occurrence.
#[derive(Debug, Default)]
pub struct LocalCse {
    /// Instructions removed across every `run` call.
    pub removed: usize,
    canon: Rewrites,
    seen: FastMap<Key, ValueId>,
}

impl FunctionPass for LocalCse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&mut self, m: &mut Module, fid: FuncId, _am: &mut AnalysisManager) -> PassEffect {
        let f = m.function_mut(fid);
        // Duplicate → first-occurrence, accumulated across blocks. Keys
        // canonicalise operands through this table, so a chain of
        // duplicates (dup-of-dup) resolves to the first occurrence in
        // one scan.
        let LocalCse { canon, seen, .. } = self;
        canon.reset(f.num_values());
        for b in f.block_ids() {
            seen.clear();
            for &v in &f.block(b).insts {
                let Some(inst) = f.inst(v) else { continue };
                let Some(key) = key_of(&inst.kind, canon) else {
                    continue;
                };
                match seen.get(&key) {
                    Some(&orig) => canon.set(v, orig),
                    None => {
                        seen.insert(key, v);
                    }
                }
            }
        }
        if canon.is_empty() {
            return PassEffect::unchanged();
        }
        let removed = canon.apply(f);
        self.removed += removed;
        swpf_obs::count("pass.cse.removed", removed as u64);
        PassEffect::removed(removed).preserving_cfg()
    }
}

/// Whether DCE may remove an unused `kind`.
///
/// Only trap-free pure computations qualify: integer/float arithmetic
/// except division and remainder (which trap on zero and must keep
/// their trap), comparisons, selects, casts, and address computations.
/// Memory operations, allocs (they define the address space layout),
/// phis, calls, and terminators are never removed. The same rule
/// doubles as LICM's speculation-safety test: an instruction this
/// function admits may execute unconditionally without observable
/// effect.
pub(crate) fn dce_removable(kind: &InstKind) -> bool {
    match kind {
        InstKind::Binary { op, .. } => !matches!(
            op,
            BinOp::Sdiv | BinOp::Udiv | BinOp::Srem | BinOp::Urem | BinOp::Fdiv
        ),
        InstKind::ICmp { .. } | InstKind::Select { .. } | InstKind::Cast { .. } => true,
        InstKind::Gep { .. } => true,
        _ => false,
    }
}

/// Dead-code elimination: iteratively removes pure, trap-free
/// instructions with no remaining uses.
#[derive(Debug, Default)]
pub struct Dce {
    /// Instructions removed across every `run` call.
    pub removed: usize,
    used: Vec<bool>,
    dead: Vec<bool>,
    ops: Vec<ValueId>,
}

impl FunctionPass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&mut self, m: &mut Module, fid: FuncId, _am: &mut AnalysisManager) -> PassEffect {
        let f = m.function_mut(fid);
        let Dce {
            used, dead, ops, ..
        } = self;
        let mut removed = 0usize;
        loop {
            used.clear();
            used.resize(f.num_values(), false);
            for v in f.all_insts() {
                if let Some(inst) = f.inst(v) {
                    ops.clear();
                    inst.operands_into(ops);
                    for op in ops.iter() {
                        used[op.index()] = true;
                    }
                }
            }
            dead.clear();
            dead.resize(f.num_values(), false);
            let mut newly_dead = 0usize;
            for v in f.all_insts() {
                if !used[v.index()] && f.inst(v).is_some_and(|inst| dce_removable(&inst.kind)) {
                    dead[v.index()] = true;
                    newly_dead += 1;
                }
            }
            if newly_dead == 0 {
                break;
            }
            for b in f.block_ids() {
                f.block_mut(b).insts.retain(|v| !dead[v.index()]);
            }
            removed += newly_dead;
        }
        self.removed += removed;
        swpf_obs::count("pass.dce.removed", removed as u64);
        PassEffect::removed(removed).preserving_cfg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PassManager;
    use swpf_ir::parser::parse_module;
    use swpf_ir::printer::print_module;

    fn run_pass(m: &mut Module, pass: impl FunctionPass + 'static) -> usize {
        let mut am = AnalysisManager::new();
        let mut pm = PassManager::new().verify_between(true);
        pm.add_function_pass(Box::new(pass));
        let runs = pm.run(m, &mut am).expect("pipeline verifies");
        runs[0].removed_insts
    }

    #[test]
    fn cse_merges_duplicate_geps_and_adds() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: ptr, %1: i64) -> i64 {\nbb0:\n  \
             %2: ptr = gep %0, %1 x 8\n  \
             %3: ptr = gep %0, %1 x 8\n  \
             %4: i64 = add %1, %1\n  \
             %5: i64 = add %1, %1\n  \
             %6: i64 = load i64, %2\n  \
             %7: i64 = load i64, %3\n  \
             %8: i64 = add %4, %5\n  \
             %9: i64 = add %6, %7\n  \
             %10: i64 = add %8, %9\n  \
             ret %10\n}\n",
        )
        .unwrap();
        let removed = run_pass(&mut m, LocalCse::default());
        assert_eq!(removed, 2, "duplicate gep and add merged; loads kept");
        let text = print_module(&m);
        assert_eq!(text.matches("gep").count(), 1, "{text}");
        assert_eq!(text.matches("load").count(), 2, "loads are never merged");
    }

    #[test]
    fn cse_resolves_chains_of_duplicates() {
        // %4 duplicates %2; %5 uses %4 and duplicates %3 (which uses
        // %2) only after canonicalisation.
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  \
             %1: i64 = add %0, %0\n  \
             %2: i64 = add %1, %0\n  \
             %3: i64 = add %0, %0\n  \
             %4: i64 = add %3, %0\n  \
             %5: i64 = add %2, %4\n  \
             ret %5\n}\n",
        )
        .unwrap();
        let removed = run_pass(&mut m, LocalCse::default());
        assert_eq!(removed, 2);
        let text = print_module(&m);
        assert_eq!(text.matches("add").count(), 3, "{text}");
    }

    #[test]
    fn cse_is_block_local() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  \
             %1: i64 = add %0, %0\n  br bb1\nbb1:\n  \
             %2: i64 = add %0, %0\n  ret %2\n}\n",
        )
        .unwrap();
        let removed = run_pass(&mut m, LocalCse::default());
        assert_eq!(removed, 0, "cross-block duplicates are left alone");
    }

    #[test]
    fn dce_sweeps_dead_chains_but_keeps_traps_and_memory() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: ptr, %1: i64) -> i64 {\nbb0:\n  \
             %2: i64 = add %1, %1\n  \
             %3: i64 = mul %2, %1\n  \
             %4: i64 = sdiv %1, %1\n  \
             %5: ptr = gep %0, %1 x 8\n  \
             %6: i64 = load i64, %5\n  \
             ret %6\n}\n",
        )
        .unwrap();
        let removed = run_pass(&mut m, Dce::default());
        // %3 is dead, then %2 becomes dead: both go. %4 could trap and
        // stays; the load chain is live.
        assert_eq!(removed, 2);
        let text = print_module(&m);
        assert!(text.contains("sdiv"), "{text}");
        assert!(text.contains("load"), "{text}");
        assert!(!text.contains("mul"), "{text}");
    }

    #[test]
    fn dce_keeps_unused_prefetch_address_chains_alive_through_the_prefetch() {
        // The prefetch is a memory op: it and its gep must survive even
        // though nothing consumes a prefetch result.
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: ptr, %1: i64) -> void {\nbb0:\n  \
             %2: i64 = add %1, %1\n  \
             %3: ptr = gep %0, %2 x 8\n  \
             prefetch %3\n  \
             ret\n}\n",
        )
        .unwrap();
        let removed = run_pass(&mut m, Dce::default());
        assert_eq!(removed, 0);
        assert!(print_module(&m).contains("prefetch"));
    }

    #[test]
    fn verify_pass_flags_broken_modules() {
        let mut m = parse_module(
            "module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  \
             %1: i64 = add %0, %0\n  ret %1\n}\n",
        )
        .unwrap();
        let mut am = AnalysisManager::new();
        let mut pm = PassManager::new();
        pm.add_verify();
        assert!(pm.run(&mut m, &mut am).is_ok());
        // Break it: drop the terminator, as a pass that says so would.
        let fid = m.find_function("f").unwrap();
        let entry = m.function(fid).entry();
        m.function_mut(fid).block_mut(entry).insts.pop();
        am.invalidate(fid);
        let err = pm.run(&mut m, &mut am).unwrap_err();
        assert_eq!(err.pass, "verify");
    }
}
