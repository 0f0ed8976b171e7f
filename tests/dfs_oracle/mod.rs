//! The path-enumerating form of the prefetch pass's candidate walk
//! (Algorithm 1 lines 1–25), kept as the oracle for
//! `swpf_core::dfs::find_iv_paths`.
//!
//! It lists every dependence path from a load back to an induction
//! variable as `(induction variable, values on the path)`, memoising the
//! list per value for one load and cutting a path at a value already on
//! it. Then the induction variable in the deepest loop wins (ties to the
//! lowest id) and the sets of its paths are merged. The lists grow with
//! the number of paths, so this is exponential on some inputs: use it on
//! small functions only.

use swpf::analysis::FuncAnalysis;
use swpf::ir::{Function, InstKind, ValueId, ValueKind};
use swpf::pass::dfs::DfsResult;

/// The paths found beneath one value; `None` while it is on the path.
type Paths = Vec<(ValueId, Vec<ValueId>)>;

/// The candidate walk from `load`, by path enumeration.
pub fn find_iv_paths(f: &Function, analysis: &FuncAnalysis, load: ValueId) -> Option<DfsResult> {
    let mut memo: Vec<Option<Paths>> = vec![None; f.num_values()];
    let mut visiting = vec![false; f.num_values()];
    dfs(f, analysis, load, &mut memo, &mut visiting);
    let candidates = memo[load.index()].take().unwrap_or_default();
    let depth_of = |iv: ValueId| {
        analysis
            .ivs
            .as_iv(iv)
            .map_or(0, |i| analysis.loops.get(i.in_loop).depth)
    };
    let best = candidates
        .iter()
        .map(|(iv, _)| *iv)
        .max_by_key(|&iv| (depth_of(iv), std::cmp::Reverse(iv)))?;
    let set = candidates
        .iter()
        .filter(|(iv, _)| *iv == best)
        .flat_map(|(_, path)| path.iter().copied())
        .collect();
    Some(DfsResult { iv: best, set })
}

/// Memoise the paths beneath `v`; `false` when `v` is on the current
/// path, which cuts it.
fn dfs(
    f: &Function,
    analysis: &FuncAnalysis,
    v: ValueId,
    memo: &mut [Option<Paths>],
    visiting: &mut [bool],
) -> bool {
    if memo[v.index()].is_some() {
        return true;
    }
    if std::mem::replace(&mut visiting[v.index()], true) {
        return false;
    }
    let mut paths: Paths = Vec::new();
    if let ValueKind::Inst(inst) = &f.value(v).kind {
        let mut ops = Vec::new();
        match &inst.kind {
            InstKind::Load { addr, .. } => ops.push(*addr),
            _ => inst.operands_into(&mut ops),
        }
        for o in ops {
            if analysis.ivs.as_iv(o).is_some() {
                paths.push((o, vec![v]));
                continue;
            }
            let in_loop = match &f.value(o).kind {
                ValueKind::Inst(oi) => analysis.loops.innermost(oi.block).is_some(),
                _ => false,
            };
            if in_loop && dfs(f, analysis, o, memo, visiting) {
                for (iv, path) in memo[o.index()].as_ref().expect("finished") {
                    let mut path = path.clone();
                    path.push(v);
                    paths.push((*iv, path));
                }
            }
        }
    }
    visiting[v.index()] = false;
    memo[v.index()] = Some(paths);
    true
}

/// Every load inside a loop, in block order: the loads the pass walks
/// from.
pub fn loop_loads(f: &Function, analysis: &FuncAnalysis) -> Vec<ValueId> {
    f.block_ids()
        .filter(|&b| analysis.loops.innermost(b).is_some())
        .flat_map(|b| f.block(b).insts.iter().copied())
        .filter(|&v| matches!(f.inst(v).map(|i| &i.kind), Some(InstKind::Load { .. })))
        .collect()
}

/// Compare the pass's walk with the oracle on every in-loop load of
/// every function of `m`, reusing one scratch across all of them;
/// returns how many loads were compared.
pub fn assert_walk_matches(m: &swpf::ir::Module) -> usize {
    let mut scratch = swpf::pass::dfs::DfsScratch::default();
    let mut compared = 0;
    for fid in m.func_ids() {
        let f = m.function(fid);
        let analysis = FuncAnalysis::compute(f);
        for load in loop_loads(f, &analysis) {
            let want = find_iv_paths(f, &analysis, load);
            let got = swpf::pass::dfs::find_iv_paths(f, &analysis, load, &mut scratch);
            assert_eq!(got, want, "@{} load {load}", f.name);
            compared += 1;
        }
    }
    compared
}
