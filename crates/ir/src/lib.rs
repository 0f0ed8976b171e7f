//! # swpf-ir — a compact SSA intermediate representation
//!
//! This crate provides the compiler substrate for the CGO'17 paper
//! *Software Prefetching for Indirect Memory Accesses* (Ainsworth & Jones).
//! The paper's pass operates on LLVM IR; this crate supplies an equivalent,
//! self-contained SSA IR with the concepts the pass needs:
//!
//! * typed instructions in basic blocks with explicit control flow,
//! * phi nodes (so induction variables are discoverable),
//! * `gep`/`load`/`store`/`prefetch` memory operations with static element
//!   sizes (so address arithmetic is analysable),
//! * `alloc` instructions carrying an element count (so data-structure sizes
//!   can be recovered by walking the data-dependence graph, §4.2 of the
//!   paper),
//! * a [`builder::FunctionBuilder`] for programmatic construction,
//! * a [`dom::DomTree`] answering dominance queries in O(1),
//! * a [`verifier`] checking SSA dominance and structural invariants,
//! * a textual [`printer`] / [`parser`] round-trip format, and
//! * a two-tier execution stack behind the [`interp::Interp`] facade: a
//!   one-time pass lowering a module's functions straight to the
//!   default [`bytecode`] tier's fixed-width threaded code (held by an
//!   [`exec::ExecImage`], which keeps the module too), with a pluggable
//!   [`interp::ExecObserver`] through which the timing simulator (crate
//!   `swpf-sim`) watches every retired instruction. The original
//!   tree-walking engine is preserved as [`classic::ClassicInterp`]: the
//!   second tier, the differential-testing oracle, and the fallback for
//!   modules the bytecode encoding cannot hold.
//!
//! The IR is deliberately small: enough to express the paper's benchmarks
//! (integer sort, sparse conjugate gradient, RandomAccess, hash join,
//! Graph500 BFS) and every transformation the prefetching pass performs,
//! without the incidental complexity of a production IR.
//!
//! ## Quick example
//!
//! ```
//! use swpf_ir::prelude::*;
//!
//! // Build: for (i = 0; i < n; i++) sum += a[b[i]];
//! let mut m = Module::new("example");
//! let f = m.declare_function("kernel", &[Type::Ptr, Type::Ptr, Type::I64], Type::I64);
//! {
//!     let mut b = FunctionBuilder::new(m.function_mut(f));
//!     let (a, bptr, n) = (b.arg(0), b.arg(1), b.arg(2));
//!     let entry = b.entry_block();
//!     let header = b.create_block("header");
//!     let body = b.create_block("body");
//!     let exit = b.create_block("exit");
//!     b.switch_to(entry);
//!     let zero = b.const_i64(0);
//!     b.br(header);
//!     b.switch_to(header);
//!     let i = b.phi(Type::I64, &[(entry, zero)]);
//!     let sum = b.phi(Type::I64, &[(entry, zero)]);
//!     let cont = b.icmp(Pred::Slt, i, n);
//!     b.cond_br(cont, body, exit);
//!     b.switch_to(body);
//!     let bi_addr = b.gep(bptr, i, 8);
//!     let idx = b.load(Type::I64, bi_addr);
//!     let ai_addr = b.gep(a, idx, 8);
//!     let v = b.load(Type::I64, ai_addr);
//!     let sum2 = b.add(sum, v);
//!     let one = b.const_i64(1);
//!     let i2 = b.add(i, one);
//!     b.add_phi_incoming(i, body, i2);
//!     b.add_phi_incoming(sum, body, sum2);
//!     b.br(header);
//!     b.switch_to(exit);
//!     b.ret(Some(sum));
//! }
//! swpf_ir::verifier::verify_module(&m).unwrap();
//! ```

pub mod block;
pub mod builder;
pub mod bytecode;
pub mod classic;
pub mod dom;
pub mod exec;
pub mod function;
pub mod hash;
pub mod inst;
pub mod interp;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;
pub mod verifier;

pub use block::{Block, BlockId};
pub use builder::FunctionBuilder;
pub use bytecode::{BcEngine, BcImage, LowerError};
pub use dom::{CfgScratch, DomTree};
pub use exec::ExecImage;
pub use function::{FlatLists, FuncId, Function, Preds};
pub use inst::{BinOp, CastOp, Inst, InstKind, Pred, Successors};
pub use interp::Tier;
pub use module::Module;
pub use types::Type;
pub use value::{Constant, ValueData, ValueId, ValueKind};

/// Convenient glob-import surface for downstream crates and examples.
pub mod prelude {
    pub use crate::block::BlockId;
    pub use crate::builder::FunctionBuilder;
    pub use crate::exec::ExecImage;
    pub use crate::function::{FuncId, Function};
    pub use crate::inst::{BinOp, CastOp, Inst, InstKind, Pred};
    pub use crate::interp::{ExecObserver, Interp, RtVal, Tier};
    pub use crate::module::Module;
    pub use crate::types::Type;
    pub use crate::value::{Constant, ValueId, ValueKind};
}
