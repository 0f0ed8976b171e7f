//! The dominator tree: the one answer to "does block `a` dominate block
//! `b`" for the verifier, the loop and candidate analyses, and GVN.

use crate::block::BlockId;
use crate::function::{Function, Preds};

/// Reusable CFG working storage: the predecessor table plus the
/// traversal vectors a [`DomTree`] is built with. A caller that walks
/// many functions (the verifier, the analysis manager) owns one and
/// hands it to each computation, so the per-function cost is the walk,
/// not the allocator.
#[derive(Debug, Default)]
pub struct CfgScratch {
    /// Predecessors of the function a [`DomTree`] was last built for.
    pub preds: Preds,
    stack: Vec<(BlockId, u8)>,
    /// The reachable blocks in reverse postorder.
    rpo: Vec<BlockId>,
    /// Each block's place in `rpo` (`u32::MAX` when unreachable) while
    /// the idoms are computed.
    rpo_num: Vec<u32>,
}

impl CfgScratch {
    /// Immediate dominators of `f` into `idom`, via the
    /// Cooper–Harvey–Kennedy iterative algorithm: entry's idom is itself,
    /// unreachable blocks get `None`. Leaves `f`'s predecessor table in
    /// `self.preds` and its reverse postorder in `self.rpo`.
    fn idom_into(&mut self, f: &Function, idom: &mut Vec<Option<BlockId>>) {
        let n = f.num_blocks();
        // Reverse postorder; until numbered, `rpo_num` is 0 for a block
        // the walk has seen.
        self.rpo_num.clear();
        self.rpo_num.resize(n, u32::MAX);
        self.rpo.clear();
        self.stack.clear();
        self.stack.push((f.entry(), 0));
        self.rpo_num[f.entry().index()] = 0;
        while let Some(&mut (b, ref mut i)) = self.stack.last_mut() {
            let succs = f.successors(b);
            if let Some(&s) = succs.get(usize::from(*i)) {
                *i += 1;
                if self.rpo_num[s.index()] == u32::MAX {
                    self.rpo_num[s.index()] = 0;
                    self.stack.push((s, 0));
                }
            } else {
                self.rpo.push(b);
                self.stack.pop();
            }
        }
        self.rpo.reverse();
        let rpo = &self.rpo;
        for (i, b) in rpo.iter().enumerate() {
            self.rpo_num[b.index()] = i as u32;
        }
        let rpo_num = &self.rpo_num;

        self.preds.refill(f);
        let preds = &self.preds;
        idom.clear();
        idom.resize(n, None);
        idom[f.entry().index()] = Some(f.entry());
        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while rpo_num[a.index()] > rpo_num[b.index()] {
                    a = idom[a.index()].expect("processed");
                }
                while rpo_num[b.index()] > rpo_num[a.index()] {
                    b = idom[b.index()].expect("processed");
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds.get(b) {
                    if idom[p.index()].is_some() {
                        new_idom = Some(match new_idom {
                            None => p,
                            Some(cur) => intersect(idom, cur, p),
                        });
                    }
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
    }
}

/// The dominator tree of a function's CFG.
///
/// Holds the immediate dominators and a preorder walk of the tree, with
/// each block's preorder number and the last preorder number of its
/// subtree, so [`DomTree::dominates`] is two comparisons. Built in
/// O(blocks) beyond the idom fixed point, and refillable in place.
#[derive(Debug, Clone, Default)]
pub struct DomTree {
    idom: Vec<Option<BlockId>>,
    /// Reachable blocks in preorder, entry first.
    preorder: Vec<BlockId>,
    /// `(enter, exit)` per block: its preorder number and the largest
    /// preorder number in its subtree. An unreachable block keeps
    /// `(u32::MAX, 1)`, an interval no block's number falls in and a
    /// number no interval covers, so it neither dominates nor is
    /// dominated.
    span: Vec<(u32, u32)>,
}

impl DomTree {
    /// Compute the dominator tree of `f`.
    #[must_use]
    pub fn compute(f: &Function) -> Self {
        DomTree::compute_in(f, &mut CfgScratch::default())
    }

    /// [`DomTree::compute`], working in `cfg`.
    #[must_use]
    pub fn compute_in(f: &Function, cfg: &mut CfgScratch) -> Self {
        let mut dom = DomTree::default();
        dom.refill(f, cfg);
        dom
    }

    /// Recompute for `f` in place, reusing this tree's storage and
    /// `cfg`'s; leaves `f`'s predecessor table in `cfg.preds`.
    pub fn refill(&mut self, f: &Function, cfg: &mut CfgScratch) {
        cfg.idom_into(f, &mut self.idom);
        // Number the tree without child lists. A block follows its idom
        // in reverse postorder, so a backward sweep sizes every subtree
        // and a forward sweep gives each child the next free interval
        // inside its parent's (siblings in reverse postorder). `rpo_num`
        // is spent; it now holds each block's next free number.
        let (rpo, next) = (&cfg.rpo, &mut cfg.rpo_num);
        let span = &mut self.span;
        span.clear();
        span.resize(f.num_blocks(), (u32::MAX, 1));
        for &b in rpo[1..].iter().rev() {
            let p = self.idom[b.index()].expect("reachable");
            span[p.index()].1 += span[b.index()].1;
        }
        self.preorder.clear();
        self.preorder.resize(rpo.len(), f.entry());
        for &b in rpo {
            let size = span[b.index()].1;
            let enter = match self.idom[b.index()] {
                Some(p) if p != b => {
                    let at = next[p.index()];
                    next[p.index()] = at + size;
                    at
                }
                _ => 0,
            };
            span[b.index()] = (enter, enter + size - 1);
            next[b.index()] = enter + 1;
            self.preorder[enter as usize] = b;
        }
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
        let (enter, exit) = self.span[a.index()];
        let at = self.span[b.index()].0;
        enter <= at && at <= exit
    }

    /// The reachable blocks in dominator-tree preorder: entry first, and
    /// every block after its dominators.
    #[must_use]
    pub fn preorder(&self) -> &[BlockId] {
        &self.preorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

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
        assert_eq!(dom.preorder(), [entry, header, exit, body]);
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
        assert!(!dom.dominates(BlockId(1), BlockId(1)));
        assert_eq!(dom.preorder(), [BlockId(0)]);
    }
}
