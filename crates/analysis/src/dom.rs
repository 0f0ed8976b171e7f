//! Dominator tree with O(depth) dominance queries.

use crate::Scratch;
use swpf_ir::{BlockId, Function};

/// A dominator tree over a function's CFG.
///
/// Built with the Cooper–Harvey–Kennedy iterative algorithm (shared with
/// the IR verifier) and augmented with depths for fast queries.
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: Vec<Option<BlockId>>,
    depth: Vec<u32>,
}

impl DomTree {
    /// Compute the dominator tree of `f`.
    #[must_use]
    pub fn compute(f: &Function) -> Self {
        DomTree::compute_in(f, &mut Scratch::default())
    }

    /// [`DomTree::compute`], working in `scratch`.
    #[must_use]
    pub fn compute_in(f: &Function, scratch: &mut Scratch) -> Self {
        let mut idom = Vec::new();
        scratch.cfg.idom_into(f, &mut idom);
        let n = idom.len();
        let mut depth = vec![0u32; n];
        // Entry has depth 0; children one more than their parent. Iterate
        // until fixed point (the tree is shallow; a couple of passes).
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                if let Some(p) = idom[b] {
                    if p.index() != b {
                        let d = depth[p.index()] + 1;
                        if depth[b] != d {
                            depth[b] = d;
                            changed = true;
                        }
                    }
                }
            }
        }
        DomTree { idom, depth }
    }

    /// The immediate dominator of `b`; entry maps to itself, unreachable
    /// blocks to `None`.
    #[must_use]
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Whether `b` is reachable from the entry block.
    #[must_use]
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.index()].is_some()
    }

    /// Whether `a` dominates `b` (reflexive).
    ///
    /// Returns `false` when either block is unreachable.
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        while self.depth[cur.index()] > self.depth[a.index()] {
            cur = self.idom[cur.index()].expect("reachable");
        }
        cur == a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swpf_ir::prelude::*;

    /// entry → header → {body → header, exit}; classic while-loop shape.
    fn loop_cfg() -> (Module, FuncId) {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            let zero = b.const_i64(0);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let c = b.icmp(Pred::Slt, i, b.arg(0));
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let one = b.const_i64(1);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(header);
            b.switch_to(exit);
            b.ret(None);
        }
        (m, fid)
    }

    #[test]
    fn loop_dominance() {
        let (m, fid) = loop_cfg();
        let dom = DomTree::compute(m.function(fid));
        let (entry, header, body, exit) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert!(dom.dominates(entry, exit));
        assert!(dom.dominates(header, body));
        assert!(dom.dominates(header, exit));
        assert!(!dom.dominates(body, exit));
        assert!(dom.dominates(body, body), "dominance is reflexive");
        assert_eq!(dom.idom(body), Some(header));
        assert_eq!(dom.idom(header), Some(entry));
    }

    #[test]
    fn unreachable_blocks_are_flagged() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let dead = b.create_block("dead");
            b.ret(None);
            b.switch_to(dead);
            b.ret(None);
        }
        let dom = DomTree::compute(m.function(fid));
        assert!(dom.is_reachable(BlockId(0)));
        assert!(!dom.is_reachable(BlockId(1)));
        assert!(!dom.dominates(BlockId(0), BlockId(1)));
    }
}
