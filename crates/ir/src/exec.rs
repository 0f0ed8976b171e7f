//! Pre-decoded execution engine: decode once, execute a dense image.
//!
//! The timing simulator in `swpf-sim` is execution-driven — every cycle
//! it charges is attached to an instruction the interpreter retires — so
//! interpreter throughput bounds every experiment in the reproduction.
//! The original engine (preserved as [`crate::classic::ClassicInterp`])
//! pays per *dynamic* instruction for work that only depends on *static*
//! program structure: indexing block instruction lists, matching heap-
//! carried [`InstKind`](crate::inst::InstKind) payloads, looking up
//! operand types for casts and stores, recomputing the event `pc`,
//! copying operand ids into a scratch vector, and searching phi incoming
//! lists on every block entry.
//!
//! This module splits the interpreter into two layers:
//!
//! * **Decode** ([`ExecImage::build`]): a one-time pass that lowers every
//!   function of a [`Module`] into a [`FuncImage`] — a flat instruction
//!   array in block order whose operands are dense frame-slot indices,
//!   with branch targets resolved to instruction indices, phi parallel
//!   copies precompiled into per-CFG-edge move lists, constants pooled
//!   for one-`memcpy` frame initialisation, cast masks/shifts and memory
//!   access widths baked into the opcode, and the observer-facing static
//!   metadata (`pc`, result id, operand id list) precomputed into pools
//!   so event emission is allocation- and copy-free.
//! * **Execute** ([`Engine`]): a resumable (`start`/`step`) loop over the
//!   image, implementing exactly the observer contract of
//!   [`crate::interp`] — same [`Event`] fields, same event order
//!   (phi copies report before their branch), same trap behaviour, same
//!   fuel accounting — verified against the classic engine by the
//!   differential test suite.
//!
//! Frame slots coincide with [`ValueId`] indices (the per-function value
//! arena is already dense), so observer-visible operand ids and engine
//! slot numbers agree without a translation table.
//!
//! Callers normally use the [`crate::interp::Interp`] facade, which owns
//! the simulated [`Memory`] and builds images on demand. Multi-core
//! simulations decode once and share the image across engines via
//! [`std::sync::Arc`] (see `swpf_sim::multicore`).

use crate::function::FuncId;
use crate::inst::{BinOp, CastOp, InstKind, Pred};
use crate::interp::{
    decode_scalar, encode_scalar, eval_binary, eval_icmp, Event, EventKind, ExecObserver, Memory,
    RtVal, Step, Trap,
};
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

impl FuncImage {
    /// A fresh frame register file: zeroed, constants materialised, the
    /// leading slots filled from `args`.
    fn new_regs(&self, args: &[RtVal]) -> Vec<RtVal> {
        let mut regs = vec![RtVal::Int(0); self.num_slots as usize];
        for (i, a) in args.iter().enumerate() {
            regs[i] = *a;
        }
        for &(slot, v) in &self.consts {
            regs[slot as usize] = v;
        }
        regs
    }
}

/// A module lowered for execution: one [`FuncImage`] per function.
///
/// Build once with [`ExecImage::build`], then run any number of
/// [`Engine`]s (or [`crate::interp::Interp`] facades) against it —
/// typically wrapped in an [`Arc`] so multi-core simulations share one
/// decode.
#[derive(Debug)]
pub struct ExecImage {
    pub(crate) funcs: Vec<FuncImage>,
    /// Lazily-lowered bytecode form (`None` once lowering has failed, so
    /// the failure is not retried); see [`ExecImage::bytecode`].
    bc: std::sync::OnceLock<Option<Arc<crate::bytecode::BcImage>>>,
}

impl ExecImage {
    /// Decode every function of `module`.
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
            bc: std::sync::OnceLock::new(),
        }
    }

    /// The bytecode-tier lowering of this image (see [`crate::bytecode`]),
    /// built on first use and cached, so every engine sharing this image
    /// (e.g. the cores of a multicore simulation) pays for lowering once.
    ///
    /// Returns `None` when the image exceeds the bytecode encoding's
    /// 14-bit field capacities ([`crate::bytecode::LowerError`]); callers
    /// are expected to fall back to the [`Engine`] tier.
    #[must_use]
    pub fn bytecode(&self) -> Option<Arc<crate::bytecode::BcImage>> {
        self.bc
            .get_or_init(|| match crate::bytecode::BcImage::lower(self) {
                Ok(b) => Some(Arc::new(b)),
                Err(e) => {
                    eprintln!(
                        "swpf-ir: bytecode lowering unavailable ({e}); \
                         falling back to the engine tier"
                    );
                    None
                }
            })
            .clone()
    }

    /// Mnemonic class of the instruction retiring at each event `pc`,
    /// including phis (which live on CFG edges, not in the code array,
    /// but appear in retire streams). Intended for trace analytics such
    /// as the superinstruction pair miner.
    #[must_use]
    pub fn op_class_table(&self) -> std::collections::HashMap<u64, &'static str> {
        let mut table = std::collections::HashMap::new();
        for fi in &self.funcs {
            for d in &fi.code {
                if !matches!(d.op, Op::FallOff) {
                    table.insert(d.pc, op_class_name(&d.op));
                }
            }
            for mv in &fi.moves {
                table.insert(mv.pc, "phi");
            }
        }
        table
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

/// Mnemonic for one decoded op, aligned with the bytecode tier's opcode
/// names so mined pair tables read like the superinstruction catalogue.
pub(crate) fn op_class_name(op: &Op) -> &'static str {
    match op {
        Op::Bin { op, .. } => match op {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Sdiv => "sdiv",
            BinOp::Udiv => "udiv",
            BinOp::Srem => "srem",
            BinOp::Urem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Lshr => "lshr",
            BinOp::Ashr => "ashr",
            BinOp::Fadd => "fadd",
            BinOp::Fsub => "fsub",
            BinOp::Fmul => "fmul",
            BinOp::Fdiv => "fdiv",
        },
        Op::ICmp { .. } => "icmp",
        Op::Select { .. } => "select",
        Op::Mask { .. } => "mask",
        Op::SignExtend { .. } => "sext",
        Op::Copy { .. } => "copy",
        Op::Alloc { .. } => "alloc",
        Op::Gep { .. } => "gep",
        Op::Load { ty, .. } => match ty {
            Type::I1 => "ld_i1",
            Type::I8 => "ld_i8",
            Type::I16 => "ld_i16",
            Type::I32 => "ld_i32",
            Type::I64 | Type::Ptr => "ld_i64",
            Type::F64 => "ld_f64",
        },
        Op::Store { size, .. } => match size {
            1 => "st1",
            2 => "st2",
            4 => "st4",
            _ => "st8",
        },
        Op::Prefetch { .. } => "prefetch",
        Op::Call { .. } => "call",
        Op::Br { .. } => "br",
        Op::CondBr { .. } => "cbr",
        Op::Ret { .. } => "ret",
        Op::FallOff => "falloff",
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

    validate_image(&img);
    img
}

/// Decode-time validation establishing the execute loop's safety
/// invariant: every slot index is within the frame register file, every
/// pool range is within its pool, and every edge jumps to a valid
/// instruction index. [`State::step`] relies on this to elide per-access
/// bounds checks on the register file (see [`rd`] / [`wr`]).
fn validate_image(img: &FuncImage) {
    let ns = img.num_slots;
    let slot = |s: u32| assert!(s < ns, "slot {s} out of range ({ns} slots)");
    for d in &img.code {
        assert!(
            d.ops_at as usize + d.ops_len as usize <= img.operands.len(),
            "operand range out of pool"
        );
        match d.op {
            Op::Bin { lhs, rhs, dst, .. } | Op::ICmp { lhs, rhs, dst, .. } => {
                slot(lhs);
                slot(rhs);
                slot(dst);
            }
            Op::Select {
                cond,
                then_val,
                else_val,
                dst,
            } => {
                slot(cond);
                slot(then_val);
                slot(else_val);
                slot(dst);
            }
            Op::Mask { src, dst, .. } | Op::SignExtend { src, dst, .. } | Op::Copy { src, dst } => {
                slot(src);
                slot(dst);
            }
            Op::Alloc { count, dst, .. } => {
                slot(count);
                slot(dst);
            }
            Op::Gep {
                base, index, dst, ..
            } => {
                slot(base);
                slot(index);
                slot(dst);
            }
            Op::Load { addr, dst, .. } => {
                slot(addr);
                slot(dst);
            }
            Op::Store { addr, val, .. } => {
                slot(addr);
                slot(val);
            }
            Op::Prefetch { addr } => slot(addr),
            Op::Call { dst, .. } => slot(dst),
            Op::Br { edge } => assert!((edge as usize) < img.edges.len(), "edge out of range"),
            Op::CondBr {
                cond,
                then_edge,
                else_edge,
            } => {
                slot(cond);
                assert!((then_edge as usize) < img.edges.len(), "edge out of range");
                assert!((else_edge as usize) < img.edges.len(), "edge out of range");
            }
            Op::Ret { val } => assert!(val == NO_SLOT || val < ns, "ret slot out of range"),
            Op::FallOff => {}
        }
    }
    // Event operand ids double as caller-frame slots for call arguments.
    for v in &img.operands {
        slot(v.0);
    }
    for e in &img.edges {
        assert!((e.target as usize) < img.code.len(), "edge target OOB");
        assert!(
            e.moves_at as usize + e.moves_len as usize <= img.moves.len(),
            "move range out of pool"
        );
    }
    for mv in &img.moves {
        slot(mv.dst);
        slot(mv.src);
    }
    assert!(
        (img.entry_ip as usize) < img.code.len(),
        "entry ip out of range"
    );
    assert!(img.num_params <= ns, "more parameters than frame slots");
}

/// Read a frame slot.
///
/// Bounds are guaranteed by [`validate_image`]: `regs` was sized by
/// [`FuncImage::new_regs`] to `num_slots` and every decoded slot index
/// was checked against `num_slots`.
#[inline(always)]
pub(crate) fn rd(regs: &[RtVal], slot: u32) -> RtVal {
    debug_assert!((slot as usize) < regs.len(), "slot out of range");
    unsafe { *regs.get_unchecked(slot as usize) }
}

/// Write a frame slot; bounds guaranteed as for [`rd`].
#[inline(always)]
pub(crate) fn wr(regs: &mut [RtVal], slot: u32, v: RtVal) {
    debug_assert!((slot as usize) < regs.len(), "slot out of range");
    unsafe {
        *regs.get_unchecked_mut(slot as usize) = v;
    }
}

/// One activation record of the engine.
#[derive(Debug)]
struct Frame {
    /// Function index into [`ExecImage::funcs`].
    func: u32,
    /// Monotonic frame id reported in events.
    frame_id: u64,
    /// Next instruction index.
    ip: u32,
    /// Slot in the *caller's* frame receiving our return value
    /// ([`NO_SLOT`] for the top-level frame).
    ret_slot: u32,
    /// Dense register file; slot k holds the value with id k.
    regs: Vec<RtVal>,
}

/// Mutable execution state, split from the image handle so the borrow
/// checker can see that stepping borrows the image and the state
/// disjointly.
#[derive(Debug)]
struct State {
    frames: Vec<Frame>,
    next_frame_id: u64,
    fuel: u64,
    retired: u64,
    max_depth: usize,
    /// Reusable gather buffer for phi parallel copies.
    move_buf: Vec<RtVal>,
}

/// The execute layer: a resumable cursor over an [`ExecImage`].
///
/// The engine holds no simulated memory; callers pass a [`Memory`] to
/// every [`Engine::run_steps`], which is what lets the
/// [`crate::interp::Interp`] facade own memory across engine restarts
/// and lets tests run several engines against cloned memories.
#[derive(Debug)]
pub struct Engine {
    image: Option<Arc<ExecImage>>,
    st: State,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An idle engine with no image and no cursor.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            image: None,
            st: State {
                frames: Vec::new(),
                next_frame_id: 0,
                fuel: u64::MAX,
                retired: 0,
                max_depth: 1 << 10,
                move_buf: Vec::new(),
            },
        }
    }

    /// Total instructions retired since construction.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.st.retired
    }

    /// Limit the number of instructions that may retire before
    /// [`Trap::OutOfFuel`]; defaults to unlimited.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.st.fuel = fuel;
    }

    /// Begin executing `func` with `args`. Any previous cursor state is
    /// discarded; the retired count and frame-id sequence continue.
    ///
    /// # Panics
    /// If the argument count does not match the function's arity.
    pub fn start(&mut self, image: Arc<ExecImage>, func: FuncId, args: &[RtVal]) {
        let fi = &image.funcs[func.index()];
        assert_eq!(
            args.len(),
            fi.num_params as usize,
            "argument count mismatch"
        );
        let regs = fi.new_regs(args);
        let entry_ip = fi.entry_ip;
        self.st.frames.clear();
        let id = self.st.next_frame_id;
        self.st.next_frame_id += 1;
        self.st.frames.push(Frame {
            func: func.0,
            frame_id: id,
            ip: entry_ip,
            ret_slot: NO_SLOT,
            regs,
        });
        self.image = Some(image);
    }

    /// Execute up to `n` steps — one instruction each, plus the phi
    /// copies of a taken branch, which retire with it, as in the classic
    /// engine — reporting each completed step through
    /// [`ExecObserver::end_step`]; stops early when the top-level
    /// function returns ([`Step::Done`]) or a step traps.
    ///
    /// # Errors
    /// Any [`Trap`] raised by an instruction.
    ///
    /// # Panics
    /// If called without an active cursor (no `start`, or after `Done`).
    #[inline]
    pub fn run_steps(
        &mut self,
        n: u64,
        mem: &mut Memory,
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<Step, Trap> {
        let image = self.image.as_deref().expect("step() without an image");
        for _ in 0..n {
            let step = self.st.step(image, mem, obs)?;
            obs.end_step();
            if let Step::Done(_) = step {
                return Ok(step);
            }
        }
        Ok(Step::Continue)
    }

    /// Run the current cursor to completion.
    ///
    /// # Errors
    /// Any [`Trap`] raised during execution.
    pub fn run_to_done(
        &mut self,
        mem: &mut Memory,
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<Option<RtVal>, Trap> {
        let image = self.image.as_deref().expect("run without an image");
        loop {
            match self.st.step(image, mem, obs)? {
                Step::Continue => {}
                Step::Done(v) => return Ok(v),
            }
        }
    }
}

impl State {
    #[allow(clippy::too_many_lines)]
    #[inline]
    fn step(
        &mut self,
        image: &ExecImage,
        mem: &mut Memory,
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<Step, Trap> {
        if self.retired >= self.fuel {
            return Err(Trap::OutOfFuel);
        }
        let depth = self.frames.len();
        assert!(depth > 0, "step() without an active cursor");
        let frame = self.frames.last_mut().expect("non-empty");
        let fi = &image.funcs[frame.func as usize];
        let ip = frame.ip as usize;
        let d = &fi.code[ip];
        let frame_id = frame.frame_id;
        let ops = &fi.operands[d.ops_at as usize..(d.ops_at + d.ops_len) as usize];
        let regs = frame.regs.as_mut_slice();

        /// Retire the current instruction with the given event kind.
        macro_rules! emit {
            ($kind:expr) => {{
                self.retired += 1;
                obs.on_event(&Event {
                    pc: d.pc,
                    frame: frame_id,
                    result: d.result,
                    kind: $kind,
                    operands: ops,
                });
            }};
        }

        match d.op {
            Op::Bin { op, lhs, rhs, dst } => {
                let r = eval_binary(op, rd(regs, lhs), rd(regs, rhs))?;
                wr(regs, dst, r);
                frame.ip += 1;
                emit!(EventKind::Alu);
            }
            Op::ICmp {
                pred,
                lhs,
                rhs,
                dst,
            } => {
                let r = eval_icmp(pred, rd(regs, lhs).as_int(), rd(regs, rhs).as_int());
                wr(regs, dst, RtVal::Int(i64::from(r)));
                frame.ip += 1;
                emit!(EventKind::Alu);
            }
            Op::Select {
                cond,
                then_val,
                else_val,
                dst,
            } => {
                let c = rd(regs, cond).as_int() != 0;
                let v = if c {
                    rd(regs, then_val)
                } else {
                    rd(regs, else_val)
                };
                wr(regs, dst, v);
                frame.ip += 1;
                emit!(EventKind::Alu);
            }
            Op::Mask { src, mask, dst } => {
                let x = rd(regs, src).as_int();
                wr(regs, dst, RtVal::Int(x & mask));
                frame.ip += 1;
                emit!(EventKind::Alu);
            }
            Op::SignExtend { src, shift, dst } => {
                let x = rd(regs, src).as_int();
                wr(regs, dst, RtVal::Int((x << shift) >> shift));
                frame.ip += 1;
                emit!(EventKind::Alu);
            }
            Op::Copy { src, dst } => {
                let x = rd(regs, src).as_int();
                wr(regs, dst, RtVal::Int(x));
                frame.ip += 1;
                emit!(EventKind::Alu);
            }
            Op::Alloc {
                count,
                elem_size,
                dst,
            } => {
                let n = rd(regs, count).as_int();
                let size = u64::try_from(n.max(0)).expect("non-negative") * elem_size;
                let addr = mem.alloc(size)?;
                wr(regs, dst, RtVal::Int(addr as i64));
                frame.ip += 1;
                emit!(EventKind::Alloc);
            }
            Op::Gep {
                base,
                index,
                elem_size,
                offset,
                dst,
            } => {
                let b = rd(regs, base).as_int() as u64;
                let i = rd(regs, index).as_int();
                let addr = b
                    .wrapping_add((i as u64).wrapping_mul(elem_size))
                    .wrapping_add(offset);
                wr(regs, dst, RtVal::Int(addr as i64));
                frame.ip += 1;
                emit!(EventKind::Alu);
            }
            Op::Load {
                addr,
                ty,
                size,
                dst,
            } => {
                let a = rd(regs, addr).as_int() as u64;
                let raw = mem.read(a, size)?;
                wr(regs, dst, decode_scalar(raw, ty));
                frame.ip += 1;
                emit!(EventKind::Load { addr: a, size });
            }
            Op::Store { addr, val, size } => {
                let a = rd(regs, addr).as_int() as u64;
                let v = rd(regs, val);
                mem.write(a, size, encode_scalar(v))?;
                frame.ip += 1;
                emit!(EventKind::Store { addr: a, size });
            }
            Op::Prefetch { addr } => {
                let a = rd(regs, addr).as_int() as u64;
                // Prefetches never fault: an unmapped hint is dropped.
                let valid = mem.is_valid(a, 1);
                frame.ip += 1;
                emit!(EventKind::Prefetch { addr: a, valid });
            }
            Op::Call { callee, dst } => {
                if depth >= self.max_depth {
                    return Err(Trap::StackOverflow);
                }
                let callee_img = &image.funcs[callee as usize];
                let mut new_regs = vec![RtVal::Int(0); callee_img.num_slots as usize];
                for (k, &arg) in ops.iter().enumerate() {
                    new_regs[k] = rd(regs, arg.0);
                }
                for &(slot, v) in &callee_img.consts {
                    new_regs[slot as usize] = v;
                }
                frame.ip += 1; // resume after the call on return
                let entry_ip = callee_img.entry_ip;
                emit!(EventKind::Call);
                let id = self.next_frame_id;
                self.next_frame_id += 1;
                self.frames.push(Frame {
                    func: callee,
                    frame_id: id,
                    ip: entry_ip,
                    ret_slot: dst,
                    regs: new_regs,
                });
            }
            Op::Br { edge } => {
                self.take_edge(fi, edge, frame_id, obs)?;
                self.retired += 1;
                obs.on_event(&Event {
                    pc: d.pc,
                    frame: frame_id,
                    result: d.result,
                    kind: EventKind::Branch { taken: true },
                    operands: ops,
                });
            }
            Op::CondBr {
                cond,
                then_edge,
                else_edge,
            } => {
                let c = rd(regs, cond).as_int() != 0;
                let edge = if c { then_edge } else { else_edge };
                self.take_edge(fi, edge, frame_id, obs)?;
                self.retired += 1;
                obs.on_event(&Event {
                    pc: d.pc,
                    frame: frame_id,
                    result: d.result,
                    kind: EventKind::Branch { taken: c },
                    operands: ops,
                });
            }
            Op::Ret { val } => {
                let rv = if val == NO_SLOT {
                    None
                } else {
                    Some(rd(regs, val))
                };
                let finished = self.frames.pop().expect("non-empty");
                self.retired += 1;
                obs.on_event(&Event {
                    pc: d.pc,
                    frame: finished.frame_id,
                    result: d.result,
                    kind: EventKind::Ret,
                    operands: ops,
                });
                if let Some(parent) = self.frames.last_mut() {
                    if let (true, Some(v)) = (finished.ret_slot != NO_SLOT, rv) {
                        parent.regs[finished.ret_slot as usize] = v;
                    }
                    return Ok(Step::Continue);
                }
                return Ok(Step::Done(rv));
            }
            Op::FallOff => panic!("fell off block end"),
        }
        Ok(Step::Continue)
    }

    /// Apply one CFG edge in the current frame: the phi parallel copy,
    /// the jump, and the phi retire events (reported after the copy so
    /// dependence times are consistent — each phi depends only on its
    /// chosen incoming — and *before* the branch's own event, matching
    /// the classic engine's order).
    #[inline]
    fn take_edge(
        &mut self,
        fi: &FuncImage,
        edge: u32,
        frame_id: u64,
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<(), Trap> {
        let e = fi.edges[edge as usize];
        let moves = &fi.moves[e.moves_at as usize..(e.moves_at + e.moves_len) as usize];
        let frame = self.frames.last_mut().expect("non-empty");
        if !moves.is_empty() {
            // Gather every source before writing any destination: phi
            // copies are simultaneous (the swap test relies on this).
            let regs = frame.regs.as_mut_slice();
            self.move_buf.clear();
            self.move_buf
                .extend(moves.iter().map(|mv| rd(regs, mv.src)));
            for (mv, &v) in moves.iter().zip(&self.move_buf) {
                wr(regs, mv.dst, v);
            }
        }
        frame.ip = e.target;
        for mv in moves {
            self.retired += 1;
            if self.retired > self.fuel {
                return Err(Trap::OutOfFuel);
            }
            let ops = [mv.incoming];
            obs.on_event(&Event {
                pc: mv.pc,
                frame: frame_id,
                result: mv.result,
                kind: EventKind::Alu,
                operands: &ops,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::NullObserver;

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
    fn engine_runs_a_simple_function() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64, Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let r = b.add(b.arg(0), b.arg(1));
            b.ret(Some(r));
        }
        let image = Arc::new(ExecImage::build(&m));
        let mut eng = Engine::new();
        let mut mem = Memory::with_limit(1 << 20);
        eng.start(image, fid, &[RtVal::Int(30), RtVal::Int(12)]);
        let r = eng.run_to_done(&mut mem, &mut NullObserver).unwrap();
        assert_eq!(r, Some(RtVal::Int(42)));
        assert_eq!(eng.retired(), 2);
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
