//! # swpf-pass — a pass manager for composable IR transformations
//!
//! The CGO'17 prefetching pass explicitly relies on *later compiler
//! passes* to clean up the address-generation code it emits (§4/§5 of
//! the paper: the prototype leaves redundancy for `-O3` to remove).
//! Reproducing that requires what the original monolithic
//! `run_on_module` could not express: a pipeline of independent passes
//! over the same module, sharing analyses instead of recomputing them.
//!
//! This crate provides that substrate, shaped like a miniature LLVM
//! new-pass-manager:
//!
//! * [`FunctionPass`] — a transformation over one function. A pass
//!   **never mutates the analysis cache itself**; it *declares* what it
//!   did through the returned [`PassEffect`], and the driver
//!   invalidates accordingly.
//! * [`AnalysisManager`] — lazily computes and caches the
//!   `swpf-analysis` products (dominators, loops, induction variables,
//!   object roots) per function behind `Arc`s. Results are shared, and
//!   [`AnalysisManager::fork`] clones the cache in O(entries) so a
//!   caller compiling many variants of one pristine module (the
//!   `swpf-tune` evaluator) pays for each analysis once, not once per
//!   variant.
//! * [`PassManager`] — runs every stage of a pipeline on one function
//!   before the next function, invalidates caches on declared mutation,
//!   holds verification checkpoints ([`PassManager::add_verify`]), and
//!   (in the verify-between-passes debug mode) checks the function after
//!   every pass, attributing **every** breakage to the pass that caused
//!   it.
//! * [`cleanup`] — the composable cleanup passes themselves:
//!   [`cleanup::LocalCse`] and [`cleanup::Dce`], the measurable "let
//!   `-O3` clean it up" step over generated address code.
//! * [`global`] — the cross-block half of that step: dominator-scoped
//!   value numbering ([`global::Gvn`]), sparse conditional constant
//!   propagation ([`global::Sccp`]), and loop-invariant code motion
//!   ([`global::Licm`]) over the same cached analyses.
//!
//! ## Invalidation contract
//!
//! An analysis cached for function `f` is valid as long as `f`'s body
//! is unchanged. The driver maintains this: when a pass returns
//! [`PassEffect::changed`] for `f`, the cached analyses of `f` are
//! dropped before the next pass runs. One finer-grained preservation tier exists: a pass whose
//! mutations provably leave the CFG intact (no blocks or edges added,
//! removed, or retargeted) declares [`PassEffect::preserving_cfg`],
//! and the driver keeps the dominator tree and loop forest — which
//! read only block structure — dropping just the value-level analyses
//! (induction variables, object roots), which reference instruction
//! placement. The delete-only cleanup passes (CSE, DCE, GVN) and the
//! move-only LICM qualify; SCCP qualifies exactly when it folded no
//! branches.
//!
//! ```
//! use swpf_pass::{AnalysisManager, PassManager};
//! use swpf_pass::cleanup::{Dce, LocalCse};
//! use swpf_ir::parser::parse_module;
//!
//! let mut m = parse_module(
//!     "module demo\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  %1: i64 = add %0, %0\n  %2: i64 = add %0, %0\n  %3: i64 = add %1, %2\n  ret %3\n}\n",
//! )
//! .unwrap();
//! let mut am = AnalysisManager::new();
//! let mut pm = PassManager::new().verify_between(true);
//! pm.add_function_pass(Box::new(LocalCse::default()));
//! pm.add_function_pass(Box::new(Dce::default()));
//! let runs = pm.run(&mut m, &mut am).unwrap();
//! assert_eq!(runs.iter().map(|r| r.removed_insts).sum::<usize>(), 1);
//! ```

pub mod cleanup;
pub mod global;
pub mod manager;

pub use cleanup::{Dce, LocalCse};
pub use global::{Gvn, Licm, Sccp};
pub use manager::{AnalysisManager, FunctionPass, PassEffect, PassManager, PassRun, PipelineError};
