//! The depth-first search of Algorithm 1 (paper lines 1–25).
//!
//! From a load, walk the data-dependence graph backwards through values
//! defined *inside loops* until induction variables are reached. Each
//! successful path contributes `(induction variable, instructions on the
//! path)`. If paths reach several induction variables, the one in the
//! innermost (deepest) loop wins — the paper's `closest_loop_indvar` —
//! and the sets of all paths reaching that variable are merged.
//!
//! The walk does not list the paths. It is an iterative depth-first
//! search with the recursive form's rules: a value already on the
//! current path cuts it, and a value finished earlier in the same
//! load's walk is not walked again. Every edge the walk takes to a
//! finished value or to an induction variable carries whatever paths
//! lie beyond it; these *merge edges* point from a value to one that
//! finished before it. Each value records the best induction variable
//! over its merge edges when it finishes, so the load's record names
//! the winner. The merged set is then every finished value whose record
//! names that same winner: every finished value is reached from the
//! load over merge edges (the search tree's own edges are merge edges),
//! and the winner is the best anywhere below the load, so a value names
//! it exactly when one of its merge-edge paths ends at it. Time and
//! memory are linear in the values the load reaches, plus sorting the
//! set.
//!
//! That is not plain reachability ("reached from the load and reaching
//! the induction variable" in the dependence graph): a non-IV phi on a
//! cycle through the load reaches the induction variable only through a
//! value already on the path, which the cut excludes, as Algorithm 1's
//! path listing does.

use swpf_analysis::FuncAnalysis;
use swpf_ir::{Function, InstKind, ValueId, ValueKind};

/// An ordered set of values as a sorted vector (read through its slice
/// view): the sets here are iterated in id order by code generation and
/// searched by rank.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValueSet(Vec<ValueId>);

impl ValueSet {
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

/// An induction variable as the walk ranks them: the deeper loop wins,
/// then the lower id (`None` — no induction variable — ranks below
/// every `Some`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Found {
    depth: u32,
    iv: std::cmp::Reverse<ValueId>,
}

/// A value's state in the current load's walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mark {
    #[default]
    Unseen,
    OnPath,
    /// Finished, with the best induction variable over its merge edges.
    Done(Option<Found>),
}

/// One value on the walk's stack: its operands are `ops[next..end]`
/// still to take, and `best` is the best induction variable over the
/// merge edges taken so far.
#[derive(Debug, Clone, Copy)]
struct Frame {
    v: ValueId,
    first: usize,
    next: usize,
    end: usize,
    best: Option<Found>,
}

/// The walk's side tables, reusable from load to load and from function
/// to function: a mark per value, the values finished by the current
/// walk in finish order, the explicit stack, and the operands of the
/// values on it.
#[derive(Debug, Default)]
pub struct DfsScratch {
    marks: Vec<Mark>,
    finished: Vec<ValueId>,
    stack: Vec<Frame>,
    ops: Vec<ValueId>,
}

impl DfsScratch {
    /// Put `v` on the path, with the operands the walk follows from it:
    /// a load's address only, every operand of anything else (a phi's
    /// incoming values too — non-IV phis are rejected later by the
    /// candidate filter, but the walk explores them so the rejection is
    /// precise).
    fn enter(&mut self, f: &Function, v: ValueId) {
        self.marks[v.index()] = Mark::OnPath;
        let first = self.ops.len();
        if let ValueKind::Inst(inst) = &f.value(v).kind {
            match &inst.kind {
                InstKind::Load { addr, .. } => self.ops.push(*addr),
                _ => inst.operands_into(&mut self.ops),
            }
        }
        self.stack.push(Frame {
            v,
            first,
            next: first,
            end: self.ops.len(),
            best: None,
        });
    }
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
    if scratch.marks.len() < f.num_values() {
        scratch.marks.resize(f.num_values(), Mark::Unseen);
    }
    scratch.enter(f, load);
    let mut best = None;
    while let Some(top) = scratch.stack.last_mut() {
        if top.next == top.end {
            // Finished: the edge from its parent is a merge edge.
            let done = *top;
            scratch.stack.pop();
            scratch.ops.truncate(done.first);
            scratch.marks[done.v.index()] = Mark::Done(done.best);
            scratch.finished.push(done.v);
            match scratch.stack.last_mut() {
                Some(parent) => parent.best = parent.best.max(done.best),
                None => best = done.best,
            }
            continue;
        }
        let o = scratch.ops[top.next];
        top.next += 1;
        // Found an induction variable: finish this path (paper line 5).
        if let Some(iv) = analysis.ivs.as_iv(o) {
            let found = Found {
                depth: analysis.loops.get(iv.in_loop).depth,
                iv: std::cmp::Reverse(o),
            };
            top.best = top.best.max(Some(found));
            continue;
        }
        // Walk on through values defined inside a loop (paper line 8).
        let ValueKind::Inst(oi) = &f.value(o).kind else {
            continue;
        };
        if analysis.loops.innermost(oi.block).is_none() {
            continue;
        }
        match scratch.marks[o.index()] {
            Mark::Done(best) => top.best = top.best.max(best),
            Mark::OnPath => {}
            Mark::Unseen => scratch.enter(f, o),
        }
    }
    let found = best.map(|best| DfsResult {
        iv: best.iv.0,
        set: scratch
            .finished
            .iter()
            .copied()
            .filter(|v| scratch.marks[v.index()] == Mark::Done(Some(best)))
            .collect(),
    });
    for v in scratch.finished.drain(..) {
        scratch.marks[v.index()] = Mark::Unseen;
    }
    found
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
