//! The decode layer: lower a module once into a dense image.
//!
//! The timing simulator in `swpf-sim` is execution-driven — every cycle
//! it charges is attached to an instruction the interpreter retires — so
//! interpreter throughput bounds every experiment in the reproduction.
//! The tree-walking [`crate::classic::ClassicInterp`] pays per *dynamic*
//! instruction for work that only depends on *static* program structure:
//! indexing block instruction lists, matching heap-carried
//! [`InstKind`](crate::inst::InstKind) payloads, looking up operand
//! types for casts and stores, recomputing the event `pc`, copying
//! operand ids into a scratch vector, and searching phi incoming lists
//! on every block entry.
//!
//! [`ExecImage::build`] is a one-time pass that lowers every function of
//! a [`Module`] into a [`FuncImage`] — a flat instruction array in block
//! order whose operands are dense frame-slot indices, with branch
//! targets resolved to instruction indices, phi parallel copies
//! precompiled into per-CFG-edge move lists, constants pooled for
//! one-`memcpy` frame initialisation, cast masks/shifts and memory
//! access widths baked into the opcode, and the observer-facing static
//! metadata (`pc`, result id, operand id list) precomputed into pools so
//! event emission is allocation- and copy-free.
//!
//! Nothing executes the image directly. The bytecode tier
//! ([`crate::bytecode`]) lowers it one level further into fixed-width
//! words ([`ExecImage::bytecode`]), and the image keeps the module it
//! was decoded from, so the classic tier can start from an image too —
//! it runs image starts under `SWPF_TIER=classic` and images that exceed
//! the bytecode encoding.
//!
//! Frame slots coincide with [`ValueId`] indices (the per-function value
//! arena is already dense), so observer-visible operand ids and frame
//! slot numbers agree without a translation table.
//!
//! Callers normally use the [`crate::interp::Interp`] facade, which owns
//! the simulated [`Memory`](crate::interp::Memory) and builds images on
//! demand. Multi-core simulations decode once and share the image
//! across interpreters via [`std::sync::Arc`] (see `swpf_sim::multicore`).

use crate::function::FuncId;
use crate::inst::{BinOp, CastOp, InstKind, Pred};
use crate::interp::RtVal;
use crate::module::Module;
use crate::types::Type;
use crate::value::{Constant, ValueId, ValueKind};
use std::sync::Arc;

/// Sentinel slot meaning "absent" (void return value / no return slot).
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A decoded instruction. Operand fields are dense frame-slot indices;
/// control-flow fields index [`FuncImage::edges`] (branches) or carry the
/// callee function index (calls). `dst` is the instruction's own slot.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Integer/float arithmetic.
    Bin {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
    },
    /// Integer comparison.
    ICmp {
        pred: Pred,
        lhs: u32,
        rhs: u32,
        dst: u32,
    },
    /// Branchless conditional.
    Select {
        cond: u32,
        then_val: u32,
        else_val: u32,
        dst: u32,
    },
    /// Truncation, pre-lowered to an AND mask.
    Mask { src: u32, mask: i64, dst: u32 },
    /// Sign extension, pre-lowered to a shift pair.
    SignExtend { src: u32, shift: u32, dst: u32 },
    /// Width-preserving cast (zext of a canonical value, ptr/int casts).
    Copy { src: u32, dst: u32 },
    /// Heap allocation.
    Alloc {
        count: u32,
        elem_size: u64,
        dst: u32,
    },
    /// Address computation.
    Gep {
        base: u32,
        index: u32,
        elem_size: u64,
        offset: u64,
        dst: u32,
    },
    /// Memory read; `size` is precomputed from `ty`.
    Load {
        addr: u32,
        ty: Type,
        size: u32,
        dst: u32,
    },
    /// Memory write; `size` precomputed from the stored value's type.
    Store { addr: u32, val: u32, size: u32 },
    /// Non-faulting cache hint.
    Prefetch { addr: u32 },
    /// Call; arguments are the instruction's pooled event operands.
    Call { callee: u32, dst: u32 },
    /// Unconditional branch through a pre-compiled CFG edge.
    Br { edge: u32 },
    /// Conditional branch selecting one of two pre-compiled edges.
    CondBr {
        cond: u32,
        then_edge: u32,
        else_edge: u32,
    },
    /// Function return; `val` is [`NO_SLOT`] for void returns.
    Ret { val: u32 },
    /// Decode-time marker for a block without a terminator; executing it
    /// reproduces the classic engine's "fell off block end" panic.
    FallOff,
}

/// One decoded instruction plus its observer-facing static metadata,
/// stored together so the execute loop touches one array entry per step.
#[derive(Debug, Clone)]
pub(crate) struct DecInst {
    /// The operation.
    pub(crate) op: Op,
    /// `(function index << 32) | value index` — stable across iterations.
    pub(crate) pc: u64,
    /// The instruction's own value id.
    pub(crate) result: ValueId,
    /// Range into [`FuncImage::operands`]: the event operand list.
    pub(crate) ops_at: u32,
    pub(crate) ops_len: u32,
}

/// One phi of a CFG edge's parallel copy, with its retire-event fields.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhiMove {
    /// Destination slot (the phi's own value id).
    pub(crate) dst: u32,
    /// Source slot (the incoming chosen for this edge).
    pub(crate) src: u32,
    /// Event pc of the phi.
    pub(crate) pc: u64,
    /// The phi's value id.
    pub(crate) result: ValueId,
    /// The chosen incoming's value id (the event's single operand).
    pub(crate) incoming: ValueId,
}

/// A pre-compiled CFG edge: where to jump and which phi moves to apply.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    /// Instruction index of the target block's first non-phi instruction.
    pub(crate) target: u32,
    /// Range into [`FuncImage::moves`].
    pub(crate) moves_at: u32,
    pub(crate) moves_len: u32,
}

/// Static per-instruction classification, exposed for observers and
/// tooling that want memory-op facts without decoding events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticMeta {
    /// Demand memory read.
    pub is_load: bool,
    /// Memory write.
    pub is_store: bool,
    /// Software prefetch hint.
    pub is_prefetch: bool,
    /// Access width in bytes for memory operations, 0 otherwise.
    pub width: u32,
}

/// The decoded form of one function.
#[derive(Debug)]
pub struct FuncImage {
    /// Flat instruction array, blocks concatenated in creation order.
    pub(crate) code: Vec<DecInst>,
    /// CFG edges referenced by `Br`/`CondBr`.
    pub(crate) edges: Vec<Edge>,
    /// Pooled phi moves referenced by `edges`.
    pub(crate) moves: Vec<PhiMove>,
    /// Pooled event-operand lists referenced by `meta`. For calls this
    /// doubles as the argument list: slot `k` of an operand id is the
    /// id's own index (slots and value ids coincide).
    pub(crate) operands: Vec<ValueId>,
    /// `(slot, value)` pairs to materialise when a frame is created.
    pub(crate) consts: Vec<(u32, RtVal)>,
    /// Frame size in slots (the function's value-arena length).
    pub(crate) num_slots: u32,
    /// Formal parameter count, for the `start` arity check.
    pub(crate) num_params: u32,
    /// Instruction index where execution of the function begins.
    pub(crate) entry_ip: u32,
}

/// A module lowered for execution: one [`FuncImage`] per function, plus
/// the module itself.
///
/// Build once with [`ExecImage::build`], then run any number of
/// [`crate::interp::Interp`] facades against it — typically wrapped in
/// an [`Arc`] so multi-core simulations share one decode.
#[derive(Debug)]
pub struct ExecImage {
    pub(crate) funcs: Vec<FuncImage>,
    /// The decoded module, which the classic tier walks.
    pub(crate) module: Arc<Module>,
    /// Lazily-lowered bytecode form (`None` once lowering has failed, so
    /// the failure is not retried); see [`ExecImage::bytecode`].
    bc: std::sync::OnceLock<Option<Arc<crate::bytecode::BcImage>>>,
}

impl ExecImage {
    /// Decode every function of `module`, keeping a copy of the module
    /// for the classic tier.
    ///
    /// The module should satisfy the [`crate::verifier`] invariants the
    /// classic engine also relies on (phis leading their blocks, one
    /// incoming per predecessor). Structural violations the classic
    /// engine would only hit at run time — a phi after a non-phi, a
    /// missing incoming — panic here, at decode time.
    ///
    /// # Panics
    /// On structurally invalid modules, as described above.
    #[must_use]
    pub fn build(module: &Module) -> ExecImage {
        ExecImage {
            funcs: module
                .func_ids()
                .map(|f| decode_function(module, f))
                .collect(),
            module: Arc::new(module.clone()),
            bc: std::sync::OnceLock::new(),
        }
    }

    /// The bytecode-tier lowering of this image (see [`crate::bytecode`]),
    /// built on first use and cached, so every interpreter sharing this image
    /// (e.g. the cores of a multicore simulation) pays for lowering once.
    ///
    /// Returns `None` when the image exceeds the bytecode encoding's
    /// 14-bit field capacities ([`crate::bytecode::LowerError`]); callers
    /// are expected to fall back to the classic tier.
    #[must_use]
    pub fn bytecode(&self) -> Option<Arc<crate::bytecode::BcImage>> {
        self.bc
            .get_or_init(|| match crate::bytecode::BcImage::lower(self) {
                Ok(b) => Some(Arc::new(b)),
                Err(e) => {
                    eprintln!(
                        "swpf-ir: bytecode lowering unavailable ({e}); \
                         falling back to the classic tier"
                    );
                    None
                }
            })
            .clone()
    }

    /// Number of decoded functions.
    #[must_use]
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Decoded instruction count of `func` (phis excluded — they live on
    /// edges).
    #[must_use]
    pub fn code_len(&self, func: FuncId) -> usize {
        self.funcs[func.index()].code.len()
    }

    /// Static classification of the instruction with the given event
    /// `pc`, or `None` if the pc does not name a decoded instruction.
    /// Linear in function size; intended for observer setup and tooling,
    /// not per-event paths (events already carry [`EventKind`]).
    #[must_use]
    pub fn static_meta(&self, pc: u64) -> Option<StaticMeta> {
        let fi = self.funcs.get((pc >> 32) as usize)?;
        let idx = fi.code.iter().position(|d| d.pc == pc)?;
        let (mut is_load, mut is_store, mut is_prefetch, mut width) = (false, false, false, 0);
        match fi.code[idx].op {
            Op::Load { size, .. } => {
                is_load = true;
                width = size;
            }
            Op::Store { size, .. } => {
                is_store = true;
                width = size;
            }
            Op::Prefetch { .. } => {
                is_prefetch = true;
                width = 1;
            }
            _ => {}
        }
        Some(StaticMeta {
            is_load,
            is_store,
            is_prefetch,
            width,
        })
    }
}

/// Lower one function to its dense image.
#[allow(clippy::too_many_lines)]
fn decode_function(module: &Module, func: FuncId) -> FuncImage {
    let f = module.function(func);
    let pc_of = |v: ValueId| (u64::from(func.0) << 32) | u64::from(v.0);

    // Pass 1: for each block, the leading phi run and the code index at
    // which its non-phi instructions will start.
    let mut block_phis: Vec<Vec<ValueId>> = Vec::with_capacity(f.num_blocks());
    let mut block_start: Vec<u32> = Vec::with_capacity(f.num_blocks());
    let mut next_code = 0u32;
    for b in f.block_ids() {
        let insts = &f.block(b).insts;
        let mut phis = Vec::new();
        for (pos, &v) in insts.iter().enumerate() {
            if matches!(f.inst(v).map(|i| &i.kind), Some(InstKind::Phi { .. })) {
                assert_eq!(phis.len(), pos, "phi after non-phi in {b} of @{}", f.name);
                phis.push(v);
            }
        }
        let n_phis = phis.len() as u32;
        block_phis.push(phis);
        block_start.push(next_code);
        // Every block contributes its non-phi instructions, plus a
        // FallOff marker when it lacks a terminator.
        let non_phi = insts.len() as u32 - n_phis;
        let has_term = f
            .block(b)
            .last()
            .and_then(|t| f.inst(t))
            .is_some_and(crate::inst::Inst::is_terminator);
        next_code += non_phi + u32::from(!has_term);
    }
    assert!(
        block_phis.first().is_none_or(Vec::is_empty),
        "entry block of @{} has phis",
        f.name
    );

    // Pass 2: emit decoded instructions and compile CFG edges.
    let mut img = FuncImage {
        code: Vec::with_capacity(next_code as usize),
        edges: Vec::new(),
        moves: Vec::new(),
        operands: Vec::new(),
        consts: Vec::new(),
        num_slots: f.num_values() as u32,
        num_params: f.params.len() as u32,
        entry_ip: block_start[0],
    };

    for (idx, vd) in (0..f.num_values()).map(|i| (i, f.value(ValueId(i as u32)))) {
        if let ValueKind::Const(c) = &vd.kind {
            let v = match c {
                Constant::Int(v, _) => RtVal::Int(*v),
                Constant::Float(v) => RtVal::Float(*v),
            };
            img.consts.push((idx as u32, v));
        }
    }

    let compile_edge =
        |img: &mut FuncImage, from: crate::block::BlockId, target: crate::block::BlockId| -> u32 {
            let moves_at = img.moves.len() as u32;
            for &pv in &block_phis[target.index()] {
                let Some(InstKind::Phi { incomings }) = f.inst(pv).map(|i| &i.kind) else {
                    unreachable!("collected as phi");
                };
                let (_, iv) = incomings
                    .iter()
                    .find(|(b, _)| *b == from)
                    .expect("verifier guarantees an incoming per predecessor");
                img.moves.push(PhiMove {
                    dst: pv.0,
                    src: iv.0,
                    pc: pc_of(pv),
                    result: pv,
                    incoming: *iv,
                });
            }
            let edge = Edge {
                target: block_start[target.index()],
                moves_at,
                moves_len: img.moves.len() as u32 - moves_at,
            };
            img.edges.push(edge);
            img.edges.len() as u32 - 1
        };

    for b in f.block_ids() {
        let mut emitted = 0u32;
        for &v in &f.block(b).insts {
            let inst = f.inst(v).expect("placed value is an instruction");
            if matches!(inst.kind, InstKind::Phi { .. }) {
                continue;
            }
            let ops_at = img.operands.len() as u32;
            let dst = v.0;
            let op = match &inst.kind {
                InstKind::Binary { op, lhs, rhs } => {
                    img.operands.extend([*lhs, *rhs]);
                    Op::Bin {
                        op: *op,
                        lhs: lhs.0,
                        rhs: rhs.0,
                        dst,
                    }
                }
                InstKind::ICmp { pred, lhs, rhs } => {
                    img.operands.extend([*lhs, *rhs]);
                    Op::ICmp {
                        pred: *pred,
                        lhs: lhs.0,
                        rhs: rhs.0,
                        dst,
                    }
                }
                InstKind::Select {
                    cond,
                    then_val,
                    else_val,
                } => {
                    img.operands.extend([*cond, *then_val, *else_val]);
                    Op::Select {
                        cond: cond.0,
                        then_val: then_val.0,
                        else_val: else_val.0,
                        dst,
                    }
                }
                InstKind::Cast { op, val, to } => {
                    img.operands.push(*val);
                    match op {
                        CastOp::Trunc => {
                            let bits = to.bits();
                            if bits >= 64 {
                                Op::Copy { src: val.0, dst }
                            } else {
                                Op::Mask {
                                    src: val.0,
                                    mask: (1i64 << bits) - 1,
                                    dst,
                                }
                            }
                        }
                        CastOp::Sext => {
                            let from_bits = f.value(*val).ty.expect("cast source typed").bits();
                            if from_bits < 64 {
                                Op::SignExtend {
                                    src: val.0,
                                    shift: 64 - from_bits,
                                    dst,
                                }
                            } else {
                                Op::Copy { src: val.0, dst }
                            }
                        }
                        // Values are stored canonically (zero-extended),
                        // so zext and the pointer casts are moves.
                        CastOp::Zext | CastOp::IntToPtr | CastOp::PtrToInt => {
                            Op::Copy { src: val.0, dst }
                        }
                    }
                }
                InstKind::Alloc { count, elem_size } => {
                    img.operands.push(*count);
                    Op::Alloc {
                        count: count.0,
                        elem_size: *elem_size,
                        dst,
                    }
                }
                InstKind::Gep {
                    base,
                    index,
                    elem_size,
                    offset,
                } => {
                    img.operands.extend([*base, *index]);
                    Op::Gep {
                        base: base.0,
                        index: index.0,
                        elem_size: *elem_size,
                        offset: *offset,
                        dst,
                    }
                }
                InstKind::Load { addr, ty } => {
                    img.operands.push(*addr);
                    Op::Load {
                        addr: addr.0,
                        ty: *ty,
                        size: ty.size_bytes() as u32,
                        dst,
                    }
                }
                InstKind::Store { addr, value } => {
                    img.operands.extend([*addr, *value]);
                    let ty = f.value(*value).ty.expect("store of typed value");
                    Op::Store {
                        addr: addr.0,
                        val: value.0,
                        size: ty.size_bytes() as u32,
                    }
                }
                InstKind::Prefetch { addr } => {
                    img.operands.push(*addr);
                    Op::Prefetch { addr: addr.0 }
                }
                InstKind::Phi { .. } => unreachable!("skipped above"),
                InstKind::Call { callee, args } => {
                    img.operands.extend(args.iter().copied());
                    Op::Call {
                        callee: callee.0,
                        dst,
                    }
                }
                InstKind::Br { target } => Op::Br {
                    edge: compile_edge(&mut img, b, *target),
                },
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    img.operands.push(*cond);
                    let then_edge = compile_edge(&mut img, b, *then_bb);
                    let else_edge = compile_edge(&mut img, b, *else_bb);
                    Op::CondBr {
                        cond: cond.0,
                        then_edge,
                        else_edge,
                    }
                }
                InstKind::Ret { value } => {
                    if let Some(x) = value {
                        img.operands.push(*x);
                    }
                    Op::Ret {
                        val: value.map_or(NO_SLOT, |x| x.0),
                    }
                }
            };
            img.code.push(DecInst {
                op,
                pc: pc_of(v),
                result: v,
                ops_at,
                ops_len: img.operands.len() as u32 - ops_at,
            });
            emitted += 1;
        }
        let has_term = f
            .block(b)
            .last()
            .and_then(|t| f.inst(t))
            .is_some_and(crate::inst::Inst::is_terminator);
        if !has_term {
            img.code.push(DecInst {
                op: Op::FallOff,
                pc: pc_of(ValueId(u32::MAX)),
                result: ValueId(u32::MAX),
                ops_at: img.operands.len() as u32,
                ops_len: 0,
            });
            emitted += 1;
        }
        debug_assert_eq!(
            block_start[b.index()] + emitted,
            if b.index() + 1 < block_start.len() {
                block_start[b.index() + 1]
            } else {
                img.code.len() as u32
            },
            "block layout mismatch"
        );
    }

    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn decode_flattens_blocks_and_pools_constants() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let x = b.arg(0);
            let k = b.const_i64(7);
            let r = b.add(x, k);
            b.ret(Some(r));
        }
        let image = ExecImage::build(&m);
        assert_eq!(image.num_funcs(), 1);
        // add + ret; the constant lives in the const pool, not the code.
        assert_eq!(image.code_len(fid), 2);
        let fi = &image.funcs[0];
        assert!(fi.consts.iter().any(|&(_, v)| v == RtVal::Int(7)));
        assert_eq!(fi.num_params, 1);
    }

    #[test]
    fn static_meta_classifies_memory_ops() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr], None);
        let (load_v, store_v, pf_v);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let p = b.arg(0);
            load_v = b.load(Type::I32, p);
            store_v = b.store(load_v, p);
            pf_v = b.prefetch(p);
            b.ret(None);
        }
        let image = ExecImage::build(&m);
        let pc = |v: ValueId| (u64::from(fid.0) << 32) | u64::from(v.0);
        let lm = image.static_meta(pc(load_v)).unwrap();
        assert!(lm.is_load && lm.width == 4);
        let sm = image.static_meta(pc(store_v)).unwrap();
        assert!(sm.is_store && sm.width == 4);
        let pm = image.static_meta(pc(pf_v)).unwrap();
        assert!(pm.is_prefetch);
        assert_eq!(image.static_meta(u64::MAX), None);
    }
}
