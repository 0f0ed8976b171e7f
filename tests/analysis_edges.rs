//! Edge-case coverage for the analyses feeding the pass: loops without
//! usable bounds, multi-exit loops, address-space isolation in the
//! multicore model, and stride-prefetcher interplay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swpf::analysis::{DomTree, FuncAnalysis, IvAnalysis, LoopForest};
use swpf::sim::{run_multicore, MachineConfig};
use swpf_ir::prelude::*;

/// `DomTree::dominates` against the definition, on every pair of blocks
/// of random CFGs with unreachable blocks: `a` dominates a reachable `b`
/// iff `b` is unreachable from the entry once `a` is removed. Every
/// block vacuously dominates an unreachable `b`; the tree answers
/// `false` there instead, as it documents.
#[test]
fn dominance_matches_its_definition_on_random_cfgs() {
    let mut rng = StdRng::seed_from_u64(0xd0_0d1e);
    for _ in 0..400 {
        let n = rng.random_range(1..12usize);
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I1], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let mut blocks = vec![b.entry_block()];
            for k in 1..n {
                blocks.push(b.create_block(&format!("b{k}")));
            }
            for &blk in &blocks {
                b.switch_to(blk);
                let (t, e) = (
                    blocks[rng.random_range(0..n)],
                    blocks[rng.random_range(0..n)],
                );
                match rng.random_range(0..4u32) {
                    0 => b.ret(None),
                    1 => b.br(t),
                    _ => b.cond_br(b.arg(0), t, e),
                };
            }
        }
        let f = m.function(fid);
        let reach_without = |cut: Option<BlockId>| {
            let mut seen = vec![false; n];
            let mut stack = vec![f.entry()];
            while let Some(b) = stack.pop() {
                if Some(b) == cut || std::mem::replace(&mut seen[b.index()], true) {
                    continue;
                }
                stack.extend(f.successors(b).iter().copied());
            }
            seen
        };
        let reach = reach_without(None);
        let dom = DomTree::compute(f);
        for a in f.block_ids() {
            assert_eq!(dom.is_reachable(a), reach[a.index()]);
            let without_a = reach_without(Some(a));
            for b in f.block_ids() {
                let expected = reach[b.index()] && !without_a[b.index()];
                assert_eq!(dom.dominates(a, b), expected, "{a} dom {b} in\n{f:?}");
            }
        }
    }
}

#[test]
fn multi_exit_loop_has_no_bound() {
    // for (i = 0; i < n; i++) { if (a[i] == 0) break; } — two exits.
    let mut m = Module::new("t");
    let fid = m.declare_function("f", &[Type::Ptr, Type::I64], None);
    {
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let (a, n) = (b.arg(0), b.arg(1));
        let entry = b.entry_block();
        let header = b.create_block("h");
        let body = b.create_block("b");
        let latch = b.create_block("l");
        let exit = b.create_block("x");
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, &[(entry, zero)]);
        let c = b.icmp(Pred::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let g = b.gep(a, i, 8);
        let v = b.load(Type::I64, g);
        let z = b.icmp(Pred::Eq, v, zero);
        b.cond_br(z, exit, latch);
        b.switch_to(latch);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, latch, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
    }
    swpf_ir::verifier::verify_module(&m).unwrap();
    let f = m.function(fid);
    let analysis = FuncAnalysis::compute(f);
    let iv = analysis.ivs.all()[0];
    assert!(
        analysis.ivs.bound_of(iv.phi).is_none(),
        "two exits: no single termination condition (paper §4.2)"
    );
    // And therefore the pass refuses the indirect load.
    let mut m2 = m.clone();
    let report = swpf::pass::run_on_module(&mut m2, &swpf::pass::PassConfig::default());
    assert_eq!(report.total_prefetches(), 0, "{report}");
}

#[test]
fn non_unit_step_is_not_clamped_by_loop_bound() {
    // for (i = 0; i < n; i += 3) sum += a[b[i]]; — IV exists, step 3,
    // but the prototype's canonical-form restriction refuses it.
    let mut m = Module::new("t");
    let fid = m.declare_function("f", &[Type::Ptr, Type::Ptr, Type::I64], None);
    {
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let (a, bp, n) = (b.arg(0), b.arg(1), b.arg(2));
        let entry = b.entry_block();
        let header = b.create_block("h");
        let body = b.create_block("b");
        let exit = b.create_block("x");
        let zero = b.const_i64(0);
        let three = b.const_i64(3);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, &[(entry, zero)]);
        let c = b.icmp(Pred::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let gb = b.gep(bp, i, 8);
        let idx = b.load(Type::I64, gb);
        let ga = b.gep(a, idx, 8);
        let v = b.load(Type::I64, ga);
        b.store(v, ga);
        let i2 = b.add(i, three);
        b.add_phi_incoming(i, body, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
    }
    swpf_ir::verifier::verify_module(&m).unwrap();
    let f = m.function(fid);
    let ivs = &FuncAnalysis::compute(f).ivs;
    assert_eq!(ivs.all()[0].step, 3);
    let mut m2 = m.clone();
    let report = swpf::pass::run_on_module(&mut m2, &swpf::pass::PassConfig::default());
    assert_eq!(report.total_prefetches(), 0, "{report}");
    assert!(report.functions[0]
        .skipped
        .iter()
        .any(|s| s.reason == swpf::pass::candidates::SkipReason::NotCanonicalIv));
}

#[test]
fn triple_nested_loops_resolve_innermost() {
    let mut m = Module::new("t");
    let fid = m.declare_function("f", &[Type::I64], None);
    {
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let n = b.arg(0);
        let entry = b.entry_block();
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        // Three nested counted loops, hand-rolled.
        let mut headers = Vec::new();
        let mut latches = Vec::new();
        let mut phis = Vec::new();
        let mut prev = entry;
        for depth in 0..3 {
            let h = b.create_block(&format!("h{depth}"));
            let bd = b.create_block(&format!("b{depth}"));
            headers.push(h);
            b.br(h);
            b.switch_to(h);
            let iv = b.phi(Type::I64, &[(prev, zero)]);
            phis.push(iv);
            let c = b.icmp(Pred::Slt, iv, n);
            // exit target patched later; use placeholder blocks
            let x = b.create_block(&format!("x{depth}"));
            latches.push(x);
            b.cond_br(c, bd, x);
            b.switch_to(bd);
            prev = bd;
        }
        // innermost body: increment all three
        for (d, &iv) in phis.iter().enumerate().rev() {
            let i2 = b.add(iv, one);
            let cur = b.current_block();
            b.add_phi_incoming(iv, cur, i2);
            b.br(headers[d]);
            b.switch_to(latches[d]);
        }
        b.ret(None);
    }
    swpf_ir::verifier::verify_module(&m).unwrap();
    let f = m.function(fid);
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    assert_eq!(forest.len(), 3);
    let depths: Vec<u32> = forest.ids().map(|l| forest.get(l).depth).collect();
    let mut sorted = depths.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![1, 2, 3]);
    let ivs = IvAnalysis::compute(f, &forest);
    assert_eq!(ivs.all().len(), 3, "one IV per loop");
}

#[test]
fn multicore_address_spaces_do_not_share_llc() {
    // Two cores run the same program with identical simulated addresses;
    // the address-space salt must keep their lines distinct in the
    // shared L3, so per-core DRAM reads cannot shrink with more cores.
    let mut m = Module::new("t");
    let fid = m.declare_function("kernel", &[Type::Ptr, Type::I64], None);
    {
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let (a, n) = (b.arg(0), b.arg(1));
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
        let g = b.gep(a, i, 64); // one line per iteration
        let v = b.load(Type::I64, g);
        b.store(v, g);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, body, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
    }
    swpf_ir::verifier::verify_module(&m).unwrap();
    let cfg = MachineConfig::haswell().without_hw_prefetcher();
    let n = 4096i64;
    let setup = |_: usize, interp: &mut swpf_ir::interp::Interp| {
        let a = interp.alloc_array(4096, 64).unwrap();
        vec![
            swpf_ir::interp::RtVal::Int(a as i64),
            swpf_ir::interp::RtVal::Int(n),
        ]
    };
    let solo = run_multicore(&cfg, 1, &m, m.find_function("kernel").unwrap(), setup);
    let duo = run_multicore(&cfg, 2, &m, m.find_function("kernel").unwrap(), setup);
    let solo_reads = solo[0].l2_misses;
    for s in &duo {
        assert!(
            s.l2_misses >= solo_reads,
            "a core must not get free hits from its sibling's identical \
             addresses: {} vs {}",
            s.l2_misses,
            solo_reads
        );
    }
}
