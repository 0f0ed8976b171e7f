//! Natural-loop detection and nesting.

use crate::DomTree;
use crate::Scratch;
use swpf_ir::{BlockId, Function};

/// Index of a loop within a [`LoopForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl LoopId {
    /// The arena slot index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A natural loop: the strongly-connected body reached by back edges into
/// a single header.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The single entry block; its phis carry the induction variables.
    pub header: BlockId,
    /// Blocks with a back edge to the header (usually exactly one).
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, header included, sorted.
    pub blocks: Vec<BlockId>,
    /// The unique predecessor of `header` outside the loop, when one
    /// exists. Induction-variable initial values flow in from here.
    pub preheader: Option<BlockId>,
    /// Immediately enclosing loop, if nested.
    pub parent: Option<LoopId>,
    /// Nesting depth: 1 for outermost loops.
    pub depth: u32,
    /// Blocks inside the loop with a successor outside it.
    pub exiting: Vec<BlockId>,
}

impl Loop {
    /// Whether `b` belongs to this loop.
    #[must_use]
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }
}

/// All natural loops of a function, with innermost-loop lookup per block.
#[derive(Debug, Clone)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// Innermost loop containing each block, if any.
    innermost: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Detect all natural loops of `f`.
    ///
    /// Irreducible control flow (a cycle entered other than through its
    /// header) is not given a loop; the prefetch pass simply sees no
    /// induction variable there and skips it, matching the paper's
    /// conservative stance.
    #[must_use]
    pub fn compute(f: &Function, dom: &DomTree) -> Self {
        LoopForest::compute_in(f, dom, &mut Scratch::default())
    }

    /// [`LoopForest::compute`], working in `scratch`. Costs
    /// O(blocks + edges + Σ loop bodies).
    #[must_use]
    pub fn compute_in(f: &Function, dom: &DomTree, scratch: &mut Scratch) -> Self {
        let Scratch {
            cfg,
            in_loop,
            stack,
            header_loop,
            ..
        } = scratch;
        cfg.preds.refill(f);
        let preds = &cfg.preds;
        let n = f.num_blocks();
        // Find back edges (latch → header), numbering loops in the order
        // their headers are first found.
        header_loop.clear();
        header_loop.resize(n, u32::MAX);
        let mut headers: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for b in f.block_ids().filter(|&b| dom.is_reachable(b)) {
            for s in f.successors(b).into_iter().filter(|&s| dom.dominates(s, b)) {
                let slot = &mut header_loop[s.index()];
                if *slot == u32::MAX {
                    *slot = headers.len() as u32;
                    headers.push((s, Vec::new()));
                }
                headers[*slot as usize].1.push(b);
            }
        }
        // Natural loop body: backwards reachability from latches, stopping
        // at the header. `in_loop` is all false between loops.
        in_loop.clear();
        in_loop.resize(n, false);
        let mut loops = Vec::with_capacity(headers.len());
        for (header, latches) in headers {
            in_loop[header.index()] = true;
            let mut blocks = vec![header];
            stack.clear();
            stack.extend_from_slice(&latches);
            while let Some(b) = stack.pop() {
                if !std::mem::replace(&mut in_loop[b.index()], true) {
                    blocks.push(b);
                    stack.extend_from_slice(preds.get(b));
                }
            }
            blocks.sort_unstable();
            let mut outside_preds = preds
                .get(header)
                .iter()
                .copied()
                .filter(|p| !in_loop[p.index()]);
            let preheader = match (outside_preds.next(), outside_preds.next()) {
                (Some(single), None) => Some(single),
                _ => None,
            };
            let exiting: Vec<BlockId> = blocks
                .iter()
                .copied()
                .filter(|&b| f.successors(b).iter().any(|s| !in_loop[s.index()]))
                .collect();
            for b in &blocks {
                in_loop[b.index()] = false;
            }
            loops.push(Loop {
                header,
                latches,
                blocks,
                preheader,
                parent: None,
                depth: 0,
                exiting,
            });
        }

        // Nesting: natural loops with different headers are disjoint or
        // nested, so painting each loop's blocks largest loop first
        // leaves every block marked with its innermost loop, and a
        // header's mark just before its own loop paints is the parent.
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(loops[i].blocks.len()));
        let mut innermost: Vec<Option<LoopId>> = vec![None; n];
        for i in order {
            let id = LoopId(i as u32);
            let parent = innermost[loops[i].header.index()];
            let depth = parent.map_or(1, |p| loops[p.index()].depth + 1);
            loops[i].parent = parent;
            loops[i].depth = depth;
            for &b in &loops[i].blocks {
                // Only an unreachable block can sit in two loops neither
                // of which nests the other; there the deeper loop wins,
                // then the lower-numbered.
                let slot = &mut innermost[b.index()];
                let key = |l: LoopId| (loops[l.index()].depth, std::cmp::Reverse(l));
                if slot.is_none_or(|cur| (depth, std::cmp::Reverse(id)) > key(cur)) {
                    *slot = Some(id);
                }
            }
        }
        LoopForest { loops, innermost }
    }

    /// Number of loops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether the function is loop-free.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Iterate over loop ids.
    pub fn ids(&self) -> impl Iterator<Item = LoopId> + '_ {
        (0..self.loops.len() as u32).map(LoopId)
    }

    /// Access a loop.
    #[must_use]
    pub fn get(&self, l: LoopId) -> &Loop {
        &self.loops[l.index()]
    }

    /// The innermost loop containing `b`, if any.
    #[must_use]
    pub fn innermost(&self, b: BlockId) -> Option<LoopId> {
        self.innermost[b.index()]
    }

    /// Whether loop `outer` contains loop `inner` (reflexive).
    #[must_use]
    pub fn loop_contains(&self, outer: LoopId, inner: LoopId) -> bool {
        let mut cur = Some(inner);
        while let Some(l) = cur {
            if l == outer {
                return true;
            }
            cur = self.get(l).parent;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swpf_ir::prelude::*;

    /// Nested loop: for i { for j { } }.
    fn nested(m: &mut Module) -> FuncId {
        let fid = m.declare_function("f", &[Type::I64, Type::I64], None);
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let entry = b.entry_block();
        let oh = b.create_block("outer_header");
        let ob = b.create_block("outer_body");
        let ih = b.create_block("inner_header");
        let ib = b.create_block("inner_body");
        let ol = b.create_block("outer_latch");
        let exit = b.create_block("exit");
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        b.br(oh);
        b.switch_to(oh);
        let i = b.phi(Type::I64, &[(entry, zero)]);
        let ci = b.icmp(Pred::Slt, i, b.arg(0));
        b.cond_br(ci, ob, exit);
        b.switch_to(ob);
        b.br(ih);
        b.switch_to(ih);
        let j = b.phi(Type::I64, &[(ob, zero)]);
        let cj = b.icmp(Pred::Slt, j, b.arg(1));
        b.cond_br(cj, ib, ol);
        b.switch_to(ib);
        let j2 = b.add(j, one);
        b.add_phi_incoming(j, ib, j2);
        b.br(ih);
        b.switch_to(ol);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, ol, i2);
        b.br(oh);
        b.switch_to(exit);
        b.ret(None);
        fid
    }

    #[test]
    fn finds_nested_loops_with_depths() {
        let mut m = Module::new("t");
        let fid = nested(&mut m);
        swpf_ir::verifier::verify_module(&m).unwrap();
        let f = m.function(fid);
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        assert_eq!(forest.len(), 2);

        let inner_header = BlockId(3);
        let outer_header = BlockId(1);
        let inner = forest.innermost(inner_header).expect("inner loop");
        let outer = forest.innermost(outer_header).expect("outer loop");
        assert_ne!(inner, outer);
        assert_eq!(forest.get(inner).depth, 2);
        assert_eq!(forest.get(outer).depth, 1);
        assert_eq!(forest.get(inner).parent, Some(outer));
        assert!(forest.loop_contains(outer, inner));
        assert!(!forest.loop_contains(inner, outer));

        // The inner body's innermost loop is the inner loop.
        assert_eq!(forest.innermost(BlockId(4)), Some(inner));
        // The outer latch belongs only to the outer loop.
        assert_eq!(forest.innermost(BlockId(5)), Some(outer));
        // Preheaders.
        assert_eq!(forest.get(inner).preheader, Some(BlockId(2)));
        assert_eq!(forest.get(outer).preheader, Some(BlockId(0)));
        // Exiting blocks are the headers here.
        assert_eq!(forest.get(inner).exiting, vec![inner_header]);
        assert_eq!(forest.get(outer).exiting, vec![outer_header]);
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            b.ret(None);
        }
        let f = m.function(fid);
        let forest = LoopForest::compute(f, &DomTree::compute(f));
        assert!(forest.is_empty());
        assert_eq!(forest.innermost(BlockId(0)), None);
    }

    #[test]
    fn an_unreachable_block_in_two_unnested_loops_belongs_to_the_first() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I1], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let c = b.arg(0);
            let (h1, l1) = (b.create_block("h1"), b.create_block("l1"));
            let (h2, l2) = (b.create_block("h2"), b.create_block("l2"));
            let exit = b.create_block("exit");
            let dead = b.create_block("dead");
            b.br(h1);
            b.switch_to(h1);
            b.cond_br(c, l1, h2);
            b.switch_to(l1);
            b.br(h1);
            b.switch_to(h2);
            b.cond_br(c, l2, exit);
            b.switch_to(l2);
            b.br(h2);
            b.switch_to(exit);
            b.ret(None);
            b.switch_to(dead);
            b.cond_br(c, l1, l2);
        }
        let f = m.function(fid);
        let forest = LoopForest::compute(f, &DomTree::compute(f));
        assert_eq!(forest.len(), 2);
        let dead = BlockId(6);
        assert!(forest.ids().all(|l| forest.get(l).contains(dead)));
        assert!(forest.ids().all(|l| forest.get(l).parent.is_none()));
        assert_eq!(forest.innermost(dead), Some(LoopId(0)));
    }

    #[test]
    fn self_loop_block() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let lp = b.create_block("lp");
            let exit = b.create_block("exit");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(lp);
            b.switch_to(lp);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, lp, i2);
            let c = b.icmp(Pred::Slt, i2, b.arg(0));
            b.cond_br(c, lp, exit);
            b.switch_to(exit);
            b.ret(None);
        }
        let f = m.function(fid);
        let forest = LoopForest::compute(f, &DomTree::compute(f));
        assert_eq!(forest.len(), 1);
        let l = forest.get(LoopId(0));
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latches, vec![BlockId(1)]);
        assert_eq!(l.blocks, vec![BlockId(1)]);
        assert_eq!(l.preheader, Some(BlockId(0)));
    }
}
