//! # swpf-analysis — loop and dependence analyses over `swpf-ir`
//!
//! The prefetch-generation pass of the CGO'17 paper needs exactly four
//! pieces of static information (paper §4.1–4.2):
//!
//! 1. **Dominators** ([`DomTree`], defined in `swpf-ir` beside the
//!    verifier that shares it) — for SSA sanity and for deciding whether
//!    an instruction executes on every loop iteration.
//! 2. **Natural loops** ([`loops`]) — headers, latches, preheaders, nesting
//!    depth; the pass walks loads *inside loops* and prefers induction
//!    variables of the *innermost* enclosing loop.
//! 3. **Induction variables** ([`indvar`]) — canonical `phi`/`add` cycles
//!    with their loop-termination bounds, which double as data-structure
//!    size information for fault-avoidance clamping when no `alloc` is
//!    visible (paper §4.2).
//! 4. **Invariance and object roots** ([`invariance`]) — loop-invariance
//!    of values, and a conservative "which allocation does this address
//!    derive from" analysis used to reject prefetch candidates whose
//!    address-generating arrays are stored to inside the loop. The
//!    per-value root walks are memoised by [`invariance::RootsAnalysis`].
//!
//! [`FuncAnalysis::compute`] bundles all of them. Each component sits
//! behind an [`Arc`] so a pass-manager analysis cache (`swpf-pass`) can
//! hand out shared results and fork cheaply; `FuncAnalysis` itself is a
//! cheap bundle of clones of those `Arc`s.

pub mod indvar;
pub mod invariance;
pub mod loops;

pub use indvar::{InductionVar, IvAnalysis, LoopBound};
pub use invariance::{object_root, object_roots, roots_may_alias, ObjectRoot, RootsAnalysis};
pub use loops::{Loop, LoopForest, LoopId};
pub use swpf_ir::DomTree;

use std::sync::Arc;
use swpf_ir::{BlockId, CfgScratch, Function};

/// Working storage for the analyses, reusable across functions: the
/// CFG traversal vectors and predecessor table, the loop-body flood
/// fill and header table, and the object-root walk's visit stamps.
/// Whoever computes analyses for many functions (the pass manager's
/// cache) owns one, so each computation allocates its result and
/// nothing else.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The CFG traversal vectors and predecessor table, which
    /// [`DomTree::compute_in`] also works in.
    pub cfg: CfgScratch,
    pub(crate) in_loop: Vec<bool>,
    pub(crate) stack: Vec<BlockId>,
    /// The loop each block heads, `u32::MAX` for none.
    pub(crate) header_loop: Vec<u32>,
    pub(crate) roots: invariance::RootsScratch,
}

/// All per-function analyses bundled together, individually shareable.
#[derive(Debug, Clone)]
pub struct FuncAnalysis {
    /// Dominator tree.
    pub dom: Arc<DomTree>,
    /// Natural-loop forest.
    pub loops: Arc<LoopForest>,
    /// Induction variables and loop bounds.
    pub ivs: Arc<IvAnalysis>,
    /// Memoised object roots of every value (invariance/aliasing).
    pub roots: Arc<RootsAnalysis>,
}

impl FuncAnalysis {
    /// Run every analysis on `f`.
    #[must_use]
    pub fn compute(f: &Function) -> Self {
        let scratch = &mut Scratch::default();
        let dom = Arc::new(DomTree::compute_in(f, &mut scratch.cfg));
        let loops = Arc::new(LoopForest::compute_in(f, &dom, scratch));
        let ivs = Arc::new(IvAnalysis::compute(f, &loops));
        let roots = Arc::new(RootsAnalysis::compute(f, scratch));
        FuncAnalysis {
            dom,
            loops,
            ivs,
            roots,
        }
    }
}
