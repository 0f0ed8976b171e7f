//! Object roots: a conservative "which object does this address derive
//! from" analysis.
//!
//! The paper's fault-avoidance rule (§4.2) rejects prefetch candidates
//! when the loop stores to a data structure that the prefetch's
//! address-generation code *loads from*: in `x[y[z[i]]]`, a store to `z`
//! inside the loop means the look-ahead load of `z[i+off]` might observe a
//! value the original load would not, producing a wild intermediate
//! address. We approximate "data structure" by the *root* of the address
//! computation: the `alloc`, argument, or other origin the pointer is
//! built from.

use swpf_ir::{Function, InstKind, ValueId, ValueKind};

/// The origin of a pointer value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectRoot {
    /// A distinct allocation made by this `alloc` instruction.
    Alloc(ValueId),
    /// The `index`-th function argument (distinct arguments are assumed
    /// not to alias, the usual restrict-style contract for kernels).
    Arg(u32),
    /// Derived from a loaded pointer or anything else we cannot track;
    /// must be assumed to alias everything.
    Unknown,
}

impl ObjectRoot {
    /// Whether two roots may refer to overlapping storage.
    #[must_use]
    pub fn may_alias(self, other: ObjectRoot) -> bool {
        match (self, other) {
            (ObjectRoot::Unknown, _) | (_, ObjectRoot::Unknown) => true,
            (a, b) => a == b,
        }
    }
}

/// Walk the address computation of `addr` back to its object root.
///
/// Follows `gep` bases, casts and selects (a select of two pointers with
/// the same root keeps that root; different roots degrade to `Unknown`).
#[must_use]
pub fn object_root(f: &Function, addr: ValueId) -> ObjectRoot {
    object_root_rec(f, addr, 0)
}

/// Like [`object_root`], but tracks *all* possible roots through phi
/// nodes and selects instead of collapsing to `Unknown`.
///
/// A phi over two queue pointers (the ping-pong buffers of a BFS, say)
/// yields both argument roots, so a store through one can be tested
/// against a load from an unrelated array without a false conflict.
/// `Unknown` still appears for untrackable origins (loaded pointers),
/// and [`roots_may_alias`] treats it as aliasing everything.
#[must_use]
pub fn object_roots(f: &Function, addr: ValueId) -> Vec<ObjectRoot> {
    let mut scratch = RootsScratch::default();
    scratch.walk(f, addr);
    scratch.out
}

/// The canonical order of a root list: allocations, arguments, unknown.
fn root_order(r: &ObjectRoot) -> (u8, u32) {
    match r {
        ObjectRoot::Alloc(v) => (0, v.0),
        ObjectRoot::Arg(i) => (1, *i),
        ObjectRoot::Unknown => (2, 0),
    }
}

/// Working storage of the multi-root walk: per-value visit stamps
/// (`seen[v] == stamp` means visited in the current walk, so starting a
/// walk is a counter bump, not a clear) and the roots found.
#[derive(Debug, Default)]
pub struct RootsScratch {
    seen: Vec<u32>,
    stamp: u32,
    out: Vec<ObjectRoot>,
}

impl RootsScratch {
    /// Leave the sorted, deduplicated roots of `addr` in `self.out`.
    fn walk(&mut self, f: &Function, addr: ValueId) {
        if self.seen.len() < f.num_values() {
            self.seen.resize(f.num_values(), 0);
        }
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.out.clear();
        self.rec(f, addr, 0);
        if self.out.is_empty() {
            self.out.push(ObjectRoot::Unknown);
        }
        self.out.sort_unstable_by_key(root_order);
        self.out.dedup();
    }

    fn rec(&mut self, f: &Function, v: ValueId, depth: u32) {
        if depth > 64 || self.seen[v.index()] == self.stamp {
            return;
        }
        self.seen[v.index()] = self.stamp;
        match &f.value(v).kind {
            ValueKind::Arg { index } => self.out.push(ObjectRoot::Arg(*index)),
            ValueKind::Const(_) => self.out.push(ObjectRoot::Unknown),
            ValueKind::Inst(inst) => match &inst.kind {
                InstKind::Alloc { .. } => self.out.push(ObjectRoot::Alloc(v)),
                InstKind::Gep { base, .. } => self.rec(f, *base, depth + 1),
                InstKind::Cast { val, .. } => self.rec(f, *val, depth + 1),
                InstKind::Select {
                    then_val, else_val, ..
                } => {
                    self.rec(f, *then_val, depth + 1);
                    self.rec(f, *else_val, depth + 1);
                }
                InstKind::Phi { incomings } => {
                    for (_, iv) in incomings {
                        self.rec(f, *iv, depth + 1);
                    }
                }
                InstKind::Binary { lhs, .. } => self.rec(f, *lhs, depth + 1),
                _ => self.out.push(ObjectRoot::Unknown),
            },
        }
    }
}

/// Whether any root in `a` may alias any root in `b`.
#[must_use]
pub fn roots_may_alias(a: &[ObjectRoot], b: &[ObjectRoot]) -> bool {
    a.iter().any(|x| b.iter().any(|y| x.may_alias(*y)))
}

fn object_root_rec(f: &Function, v: ValueId, depth: u32) -> ObjectRoot {
    if depth > 64 {
        return ObjectRoot::Unknown;
    }
    match &f.value(v).kind {
        ValueKind::Arg { index } => ObjectRoot::Arg(*index),
        ValueKind::Const(_) => ObjectRoot::Unknown,
        ValueKind::Inst(inst) => match &inst.kind {
            InstKind::Alloc { .. } => ObjectRoot::Alloc(v),
            InstKind::Gep { base, .. } => object_root_rec(f, *base, depth + 1),
            InstKind::Cast { val, .. } => object_root_rec(f, *val, depth + 1),
            InstKind::Select {
                then_val, else_val, ..
            } => {
                let a = object_root_rec(f, *then_val, depth + 1);
                let b = object_root_rec(f, *else_val, depth + 1);
                if a == b {
                    a
                } else {
                    ObjectRoot::Unknown
                }
            }
            // Binary pointer arithmetic (ptr as int) keeps the root when
            // one side resolves; stay conservative and try the lhs only.
            InstKind::Binary { lhs, .. } => object_root_rec(f, *lhs, depth + 1),
            _ => ObjectRoot::Unknown,
        },
    }
}

/// The object roots of every store address within the given blocks,
/// with phi-aware multi-root resolution.
#[must_use]
pub fn store_roots_in(f: &Function, blocks: &[swpf_ir::BlockId]) -> Vec<ObjectRoot> {
    let mut roots = Vec::new();
    for &b in blocks {
        for &v in &f.block(b).insts {
            if let Some(InstKind::Store { addr, .. }) = f.inst(v).map(|i| &i.kind) {
                roots.extend(object_roots(f, *addr));
            }
        }
    }
    roots.sort_unstable_by_key(root_order);
    roots.dedup();
    roots
}

/// Memoised object roots for every value of one function.
///
/// [`object_root`] and [`object_roots`] are bounded graph walks; the
/// prefetch pass asks them once per candidate base and once per chain
/// load per store-aliasing test, and a pass-manager analysis cache wants
/// a product it can compute once and invalidate on mutation. This
/// analysis walks every value eagerly and answers both query shapes in
/// O(1), with results identical to the free functions (the single-root
/// and multi-root walks deliberately differ — see [`object_roots`]).
#[derive(Debug)]
pub struct RootsAnalysis {
    single: Vec<ObjectRoot>,
    /// `multi[multi_start[v]..multi_start[v + 1]]` are the roots of `v`.
    multi_start: Vec<u32>,
    multi: Vec<ObjectRoot>,
}

impl RootsAnalysis {
    /// Walk every value of `f` once, working in `scratch`.
    #[must_use]
    pub fn compute(f: &Function, scratch: &mut crate::Scratch) -> Self {
        let walker = &mut scratch.roots;
        let n = f.num_values();
        let mut single = Vec::with_capacity(n);
        let mut multi_start = Vec::with_capacity(n + 1);
        // Nearly every value has exactly one root.
        let mut multi = Vec::with_capacity(n + n / 8);
        multi_start.push(0);
        for i in 0..n {
            let v = ValueId(i as u32);
            single.push(object_root(f, v));
            walker.walk(f, v);
            multi.extend_from_slice(&walker.out);
            multi_start.push(multi.len() as u32);
        }
        RootsAnalysis {
            single,
            multi_start,
            multi,
        }
    }

    /// The single collapsed root of `v` (≡ [`object_root`]).
    #[must_use]
    pub fn root_of(&self, v: ValueId) -> ObjectRoot {
        self.single[v.index()]
    }

    /// All possible roots of `v` (≡ [`object_roots`]).
    #[must_use]
    pub fn roots_of(&self, v: ValueId) -> &[ObjectRoot] {
        &self.multi[self.multi_start[v.index()] as usize..self.multi_start[v.index() + 1] as usize]
    }

    /// The roots of every store address within `blocks`
    /// (≡ [`store_roots_in`]), answered from the memo.
    #[must_use]
    pub fn store_roots_in(&self, f: &Function, blocks: &[swpf_ir::BlockId]) -> Vec<ObjectRoot> {
        let mut roots = Vec::new();
        for &b in blocks {
            for &v in &f.block(b).insts {
                if let Some(InstKind::Store { addr, .. }) = f.inst(v).map(|i| &i.kind) {
                    roots.extend_from_slice(self.roots_of(*addr));
                }
            }
        }
        roots.sort_unstable_by_key(root_order);
        roots.dedup();
        roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swpf_ir::prelude::*;

    #[test]
    fn roots_of_args_and_allocs() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr, Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let p = b.arg(0);
            let n = b.arg(1);
            let heap = b.alloc(n, 8);
            let g1 = b.gep(p, n, 8);
            let g2 = b.gep(heap, n, 8);
            let g3 = b.gep(g2, n, 8); // gep of gep keeps the alloc root
            b.store(n, g1);
            b.store(n, g3);
            b.ret(None);
            let _ = b;
            let f = m.function(fid);
            assert_eq!(object_root(f, g1), ObjectRoot::Arg(0));
            assert_eq!(object_root(f, g2), ObjectRoot::Alloc(heap));
            assert_eq!(object_root(f, g3), ObjectRoot::Alloc(heap));
            assert!(!object_root(f, g1).may_alias(object_root(f, g2)));
            assert!(object_root(f, g3).may_alias(object_root(f, g2)));
        }
    }

    #[test]
    fn loaded_pointer_is_unknown() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let p = b.arg(0);
            let q = b.load(Type::Ptr, p); // pointer loaded from memory
            let zero = b.const_i64(0);
            let g = b.gep(q, zero, 8);
            b.ret(None);
            let _ = b;
            let f = m.function(fid);
            assert_eq!(object_root(f, g), ObjectRoot::Unknown);
            assert!(object_root(f, g).may_alias(ObjectRoot::Arg(0)));
        }
    }

    #[test]
    fn select_of_same_root_keeps_root() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr, Type::Ptr, Type::I1], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let (p, q, c) = (b.arg(0), b.arg(1), b.arg(2));
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            let pa = b.gep(p, zero, 8);
            let pb = b.gep(p, one, 8);
            let same = b.select(c, pa, pb);
            let diff = b.select(c, pa, q);
            b.ret(None);
            let _ = b;
            let f = m.function(fid);
            assert_eq!(object_root(f, same), ObjectRoot::Arg(0));
            assert_eq!(object_root(f, diff), ObjectRoot::Unknown);
        }
    }

    #[test]
    fn memoised_roots_match_the_free_functions() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr, Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let (p, n) = (b.arg(0), b.arg(1));
            let heap = b.alloc(n, 8);
            let g1 = b.gep(p, n, 8);
            let g2 = b.gep(heap, n, 8);
            let q = b.load(Type::Ptr, g1);
            let g3 = b.gep(q, n, 8);
            b.store(n, g2);
            b.store(n, g3);
            b.ret(None);
        }
        let f = m.function(fid);
        let memo = RootsAnalysis::compute(f, &mut crate::Scratch::default());
        for i in 0..f.num_values() {
            let v = ValueId(i as u32);
            assert_eq!(memo.root_of(v), object_root(f, v), "single root of {v}");
            assert_eq!(memo.roots_of(v), object_roots(f, v), "multi roots of {v}");
        }
        assert_eq!(
            memo.store_roots_in(f, &[BlockId(0)]),
            store_roots_in(f, &[BlockId(0)])
        );
    }

    #[test]
    fn store_roots_collects_loop_stores() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr, Type::Ptr], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let zero = b.const_i64(0);
            let a0 = b.gep(b.arg(0), zero, 8);
            b.store(zero, a0);
            b.ret(None);
        }
        let f = m.function(fid);
        let roots = store_roots_in(f, &[BlockId(0)]);
        assert_eq!(roots, vec![ObjectRoot::Arg(0)]);
    }
}
