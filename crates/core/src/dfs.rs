//! The depth-first search of Algorithm 1 (paper lines 1–25).
//!
//! From a load, walk the data-dependence graph backwards through values
//! defined *inside loops* until induction variables are reached. Each
//! successful path contributes `(induction variable, instructions on the
//! path)`. If paths reach several induction variables, the one in the
//! innermost (deepest) loop wins — the paper's `closest_loop_indvar` —
//! and the sets of all paths reaching that variable are merged.

use swpf_analysis::FuncAnalysis;
use swpf_ir::{Function, InstKind, ValueId, ValueKind};

/// An ordered set of values as a sorted vector (read through its slice
/// view): the sets here hold a handful of instructions, are copied
/// along every dependence path and iterated in id order by code
/// generation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValueSet(Vec<ValueId>);

impl ValueSet {
    /// Add `v`; `false` if it was already present.
    pub fn insert(&mut self, v: ValueId) -> bool {
        match self.0.binary_search(&v) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, v);
                true
            }
        }
    }

    /// This set plus `v`.
    #[must_use]
    fn with(&self, v: ValueId) -> ValueSet {
        let mut members = Vec::with_capacity(self.0.len() + 1);
        let at = self.0.partition_point(|&m| m < v);
        members.extend_from_slice(&self.0[..at]);
        members.push(v);
        members.extend(self.0[at..].iter().filter(|&&m| m != v));
        ValueSet(members)
    }

    /// The rank of `v` in id order, if present.
    #[must_use]
    pub fn position(&self, v: ValueId) -> Option<usize> {
        self.0.binary_search(&v).ok()
    }
}

impl std::ops::Deref for ValueSet {
    type Target = [ValueId];

    fn deref(&self) -> &[ValueId] {
        &self.0
    }
}

impl FromIterator<ValueId> for ValueSet {
    fn from_iter<I: IntoIterator<Item = ValueId>>(iter: I) -> Self {
        let mut members: Vec<ValueId> = iter.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        ValueSet(members)
    }
}

/// The candidates found beneath a value: `(induction variable, path
/// set)` pairs, or `None` when no path finds an induction variable.
type Paths = Option<Vec<(ValueId, ValueSet)>>;

/// The search's side tables over one function's values, reusable from
/// load to load: the memo (`None`: not computed yet), which of its
/// slots the current search filled, the on-path marks that cut cycles,
/// and the operand stack of the recursion.
#[derive(Debug, Default)]
pub struct DfsScratch {
    memo: Vec<Option<Paths>>,
    touched: Vec<ValueId>,
    visiting: Vec<bool>,
    ops: Vec<ValueId>,
}

/// The result of a successful search: the chosen induction variable's phi
/// and every instruction on a dependence path from it to the load
/// (inclusive of the load itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsResult {
    /// The induction variable (a loop-header phi).
    pub iv: ValueId,
    /// Instructions to duplicate for address generation, as a set.
    pub set: ValueSet,
}

/// Walk backwards from `load` looking for induction variables, working
/// in `scratch` (each search starts from an empty memo: a result found
/// under one on-path set is not reused under another load's).
///
/// Returns `None` when no path from the load's address computation
/// reaches an induction variable, mirroring Algorithm 1 returning null.
#[must_use]
pub fn find_iv_paths(
    f: &Function,
    analysis: &FuncAnalysis,
    load: ValueId,
    scratch: &mut DfsScratch,
) -> Option<DfsResult> {
    scratch.memo.resize(f.num_values(), None);
    scratch.visiting.resize(f.num_values(), false);
    dfs(f, analysis, load, scratch);
    let found = scratch.memo[load.index()]
        .as_ref()
        .and_then(|paths| paths.as_deref())
        .and_then(|candidates| best_paths(analysis, candidates));
    for v in scratch.touched.drain(..) {
        scratch.memo[v.index()] = None;
    }
    found
}

/// Pick the induction variable in the deepest loop (paper line 21) and
/// merge the paths that reach it (paper line 24).
fn best_paths(analysis: &FuncAnalysis, candidates: &[(ValueId, ValueSet)]) -> Option<DfsResult> {
    let depth_of = |iv: ValueId| -> u32 {
        analysis
            .ivs
            .as_iv(iv)
            .map_or(0, |i| analysis.loops.get(i.in_loop).depth)
    };
    let best_iv = candidates
        .iter()
        .map(|(iv, _)| *iv)
        .max_by_key(|&iv| (depth_of(iv), std::cmp::Reverse(iv)))?;
    let set = candidates
        .iter()
        .filter(|(iv, _)| *iv == best_iv)
        .flat_map(|(_, s)| s.iter().copied())
        .collect();
    Some(DfsResult { iv: best_iv, set })
}

/// Recursive DFS: memoise the list of `(iv, path set)` candidates found
/// beneath `v` (`None` when no path finds an induction variable).
/// Returns `false`, memoising nothing, when `v` is already on the
/// current path — a cycle through non-IV phis, which cuts the path.
fn dfs(f: &Function, analysis: &FuncAnalysis, v: ValueId, scratch: &mut DfsScratch) -> bool {
    if scratch.memo[v.index()].is_some() {
        return true;
    }
    if std::mem::replace(&mut scratch.visiting[v.index()], true) {
        return false;
    }

    let mut candidates: Vec<(ValueId, ValueSet)> = Vec::new();
    // Arguments and constants terminate paths without a find.
    if let ValueKind::Inst(inst) = &f.value(v).kind {
        // The operands the walk follows. For phis these are all incoming
        // values (non-IV phis are later rejected by the candidate filter,
        // but the walk still explores them so the rejection is precise).
        // For loads, only the address matters.
        let first = scratch.ops.len();
        match &inst.kind {
            InstKind::Load { addr, .. } => scratch.ops.push(*addr),
            _ => inst.operands_into(&mut scratch.ops),
        }
        for at in first..scratch.ops.len() {
            let o = scratch.ops[at];
            // Found an induction variable: finish this path (paper line 5).
            if analysis.ivs.as_iv(o).is_some() {
                candidates.push((o, ValueSet(vec![v])));
                continue;
            }
            // Recurse into values defined inside a loop (paper line 8).
            let defined_in_loop = match &f.value(o).kind {
                ValueKind::Inst(oi) => analysis.loops.innermost(oi.block).is_some(),
                _ => false,
            };
            if defined_in_loop && dfs(f, analysis, o, scratch) {
                if let Some(Some(subs)) = &scratch.memo[o.index()] {
                    candidates.extend(subs.iter().map(|(iv, s)| (*iv, s.with(v))));
                }
            }
        }
        scratch.ops.truncate(first);
    }

    scratch.visiting[v.index()] = false;
    scratch.memo[v.index()] = Some((!candidates.is_empty()).then_some(candidates));
    scratch.touched.push(v);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use swpf_ir::prelude::*;

    /// Classic indirect pattern: `a[b[i]]`; the DFS from the outer load
    /// must find the loop IV and record the gep/load chain.
    #[test]
    fn finds_iv_through_indirect_chain() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr, Type::Ptr, Type::I64], None);
        let (target, inner_load, gep_a, gep_b);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let (a, bp, n) = (b.arg(0), b.arg(1), b.arg(2));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let c = b.icmp(Pred::Slt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to(body);
            gep_b = b.gep(bp, i, 8);
            inner_load = b.load(Type::I64, gep_b);
            gep_a = b.gep(a, inner_load, 8);
            target = b.load(Type::I64, gep_a);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
        }
        swpf_ir::verifier::verify_module(&m).unwrap();
        let f = m.function(fid);
        let analysis = FuncAnalysis::compute(f);
        let r = find_iv_paths(f, &analysis, target, &mut DfsScratch::default()).expect("found");
        assert!(analysis.ivs.as_iv(r.iv).is_some());
        for v in [target, gep_a, inner_load, gep_b] {
            assert!(r.set.contains(&v), "set must contain {v}");
        }
        assert_eq!(r.set.len(), 4);
    }

    /// A load of a loop-invariant address finds no induction variable.
    #[test]
    fn invariant_load_finds_nothing() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr, Type::I64], None);
        let target;
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let (p, n) = (b.arg(0), b.arg(1));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let c = b.icmp(Pred::Slt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to(body);
            target = b.load(Type::I64, p); // address is an argument
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
        }
        let f = m.function(fid);
        let analysis = FuncAnalysis::compute(f);
        assert!(find_iv_paths(f, &analysis, target, &mut DfsScratch::default()).is_none());
    }

    /// When a load depends on both an outer and an inner induction
    /// variable, the inner one is chosen (paper line 21).
    #[test]
    fn innermost_iv_wins() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr, Type::I64, Type::I64], None);
        let (target, inner_iv_block);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let (p, n, mm) = (b.arg(0), b.arg(1), b.arg(2));
            let entry = b.entry_block();
            let oh = b.create_block("oh");
            let ob = b.create_block("ob");
            let ih = b.create_block("ih");
            let ib = b.create_block("ib");
            let ol = b.create_block("ol");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(oh);
            b.switch_to(oh);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let ci = b.icmp(Pred::Slt, i, n);
            b.cond_br(ci, ob, exit);
            b.switch_to(ob);
            b.br(ih);
            b.switch_to(ih);
            let j = b.phi(Type::I64, &[(ob, zero)]);
            let cj = b.icmp(Pred::Slt, j, mm);
            b.cond_br(cj, ib, ol);
            b.switch_to(ib);
            // address uses i + j: both IVs on the path.
            let sum = b.add(i, j);
            let g = b.gep(p, sum, 8);
            target = b.load(Type::I64, g);
            let j2 = b.add(j, one);
            b.add_phi_incoming(j, ib, j2);
            b.br(ih);
            b.switch_to(ol);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, ol, i2);
            b.br(oh);
            b.switch_to(exit);
            b.ret(None);
            inner_iv_block = ih;
        }
        swpf_ir::verifier::verify_module(&m).unwrap();
        let f = m.function(fid);
        let analysis = FuncAnalysis::compute(f);
        let r = find_iv_paths(f, &analysis, target, &mut DfsScratch::default()).expect("found");
        let iv = analysis.ivs.as_iv(r.iv).expect("is an iv");
        assert_eq!(
            analysis.loops.get(iv.in_loop).header,
            inner_iv_block,
            "must pick the inner loop's IV"
        );
    }

    /// Pointer-chasing through a non-IV phi cycles; the DFS must
    /// terminate and, because another path reaches the IV, still succeed.
    #[test]
    fn phi_cycles_terminate() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr, Type::I64], None);
        let target;
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let (p, n) = (b.arg(0), b.arg(1));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let cur = b.phi(Type::Ptr, &[(entry, p)]);
            let c = b.icmp(Pred::Slt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to(body);
            // target address mixes the chasing pointer and the IV.
            let g = b.gep(cur, i, 8);
            target = b.load(Type::Ptr, g);
            b.add_phi_incoming(cur, body, target); // cycle: cur -> target -> cur
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
        }
        swpf_ir::verifier::verify_module(&m).unwrap();
        let f = m.function(fid);
        let analysis = FuncAnalysis::compute(f);
        let r = find_iv_paths(f, &analysis, target, &mut DfsScratch::default())
            .expect("the IV path exists");
        assert!(r.set.contains(&target));
    }
}
