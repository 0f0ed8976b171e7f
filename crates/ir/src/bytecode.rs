//! Bytecode execution tier: fixed-width threaded code.
//!
//! The [`crate::exec`] decode layer turns a module into enum-shaped
//! [`Op`](crate::exec::Op) values (24-byte variants behind a
//! discriminant); matching on those and re-acquiring the active frame,
//! function image and slice bounds on every step is what a dense
//! executor would still pay. This module lowers an [`ExecImage`] one
//! level further, into a flat array of fixed-width 8-byte instruction
//! words:
//!
//! ```text
//!  bit 63      50 49      36 35      22 21       8 7        0
//!      +----------+----------+----------+----------+--------+
//!      |    d     |    c     |    b     |    a     | opcode |
//!      +----------+----------+----------+----------+--------+
//!        14 bits    14 bits    14 bits    14 bits    8 bits
//! ```
//!
//! The opcode byte drives a tight `match`-on-`u8` dispatch loop; the
//! four 14-bit fields carry frame-slot indices, pre-resolved CFG-edge
//! indices, or indices into a per-function 64-bit immediate pool (cast
//! masks, `gep` element sizes). Code indices are identical to the
//! [`ExecImage`] instruction indices — each decoded instruction lowers
//! to exactly one word — so branch targets, entry points and the
//! observer metadata (event `pc`, result id, operand list) carry over
//! unchanged into side tables the dispatch loop only touches when an
//! instruction retires.
//!
//! All slot / edge / immediate indices are validated once at lowering
//! time ([`BcImage::lower`] returns [`LowerError`] when a function
//! exceeds a 14-bit capacity, and asserts internal consistency), which
//! is what lets the dispatch loop use unchecked accesses ([`rd`] /
//! [`wr`]).
//!
//! Every word keeps its base opcode, so one dispatch retires exactly one
//! instruction: the stepping entry point ([`BcEngine::run_steps`]) and
//! the run-to-completion loop ([`BcEngine::run_to_done`]) dispatch the
//! same arms, and multicore interleavings and trace step boundaries
//! match the classic tier exactly.
//!
//! The tier is reached through the [`crate::interp::Interp`] facade
//! (`SWPF_TIER=bytecode`, the default). The classic tree-walker is its
//! differential oracle, and the facade's fallback for images that do not
//! lower.

use crate::exec::{self, ExecImage, Op};
use crate::function::FuncId;
use crate::inst::{BinOp, Pred};
use crate::interp::{
    decode_scalar, encode_scalar, eval_binary, eval_icmp, Event, EventKind, ExecObserver, Memory,
    RtVal, Step, Trap,
};
use crate::types::Type;
use crate::value::ValueId;
use std::fmt;
use std::sync::Arc;

/// Width of each packed operand field.
pub const FIELD_BITS: u32 = 14;
/// Mask (and maximum value) of a packed operand field.
pub const FIELD_MASK: u32 = (1 << FIELD_BITS) - 1;
/// In-word sentinel for "no slot" (void `ret`). Lowering guarantees no
/// real slot index reaches this value.
pub const BC_NO_SLOT: u32 = FIELD_MASK;

const A_SHIFT: u32 = 8;
const B_SHIFT: u32 = 22;
const C_SHIFT: u32 = 36;
const D_SHIFT: u32 = 50;

/// Pack an instruction word.
#[inline]
#[must_use]
pub fn encode_word(opcode: u8, a: u32, b: u32, c: u32, d: u32) -> u64 {
    debug_assert!(a <= FIELD_MASK && b <= FIELD_MASK && c <= FIELD_MASK && d <= FIELD_MASK);
    u64::from(opcode)
        | (u64::from(a) << A_SHIFT)
        | (u64::from(b) << B_SHIFT)
        | (u64::from(c) << C_SHIFT)
        | (u64::from(d) << D_SHIFT)
}

#[inline(always)]
fn fa(w: u64) -> u32 {
    ((w >> A_SHIFT) as u32) & FIELD_MASK
}
#[inline(always)]
fn fb(w: u64) -> u32 {
    ((w >> B_SHIFT) as u32) & FIELD_MASK
}
#[inline(always)]
fn fc(w: u64) -> u32 {
    ((w >> C_SHIFT) as u32) & FIELD_MASK
}
#[inline(always)]
fn fd(w: u64) -> u32 {
    ((w >> D_SHIFT) as u32) & FIELD_MASK
}

/// The opcode space.
#[allow(missing_docs)]
pub mod op {
    pub const RET: u8 = 0; // a = value slot | BC_NO_SLOT
    pub const BR: u8 = 1; // a = edge index
    pub const CBR: u8 = 2; // a = cond, b = then edge, c = else edge
    pub const ADD: u8 = 3; // binaries: a = lhs, b = rhs, c = dst
    pub const SUB: u8 = 4;
    pub const MUL: u8 = 5;
    pub const SDIV: u8 = 6;
    pub const UDIV: u8 = 7;
    pub const SREM: u8 = 8;
    pub const UREM: u8 = 9;
    pub const AND: u8 = 10;
    pub const OR: u8 = 11;
    pub const XOR: u8 = 12;
    pub const SHL: u8 = 13;
    pub const LSHR: u8 = 14;
    pub const ASHR: u8 = 15;
    pub const FADD: u8 = 16;
    pub const FSUB: u8 = 17;
    pub const FMUL: u8 = 18;
    pub const FDIV: u8 = 19;
    pub const ICMP: u8 = 20; // a = lhs, b = rhs, c = dst, d = predicate code
    pub const SELECT: u8 = 21; // a = cond, b = then, c = else, d = dst
    pub const MASK: u8 = 22; // a = src, b = dst, c = imm index (mask)
    pub const SEXT: u8 = 23; // a = src, b = dst, c = shift amount
    pub const COPY: u8 = 24; // a = src, b = dst
    pub const ALLOC: u8 = 25; // a = count, b = dst, c = imm index (elem size)
    pub const GEP: u8 = 26; // a = base, b = index, c = dst, d = imm pair index
    pub const LD_I1: u8 = 27; // loads: a = addr, b = dst; type in opcode
    pub const LD_I8: u8 = 28;
    pub const LD_I16: u8 = 29;
    pub const LD_I32: u8 = 30;
    pub const LD_I64: u8 = 31;
    pub const LD_F64: u8 = 32;
    pub const ST_1: u8 = 33; // stores: a = addr, b = value; width in opcode
    pub const ST_2: u8 = 34;
    pub const ST_4: u8 = 35;
    pub const ST_8: u8 = 36;
    pub const PREFETCH: u8 = 37; // a = addr
    pub const CALL: u8 = 38; // a = callee function index, b = dst
    pub const FALLOFF: u8 = 39; // block without terminator (panics)
}

/// Predicate codes for the `d` field of `ICMP`, in table order.
const PREDS: [Pred; 10] = [
    Pred::Eq,
    Pred::Ne,
    Pred::Slt,
    Pred::Sle,
    Pred::Sgt,
    Pred::Sge,
    Pred::Ult,
    Pred::Ule,
    Pred::Ugt,
    Pred::Uge,
];

fn pred_code(p: Pred) -> u32 {
    PREDS.iter().position(|&q| q == p).expect("pred in table") as u32
}

/// A lowering failure: the function exceeds a capacity of the 14-bit
/// packed-field encoding. The [`crate::interp::Interp`] facade falls
/// back to the classic tier when lowering fails; nothing is ever
/// rejected (or trusted) at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LowerError {
    /// A function has more values than slot indices can express.
    TooManySlots {
        /// Function index.
        func: usize,
        /// Its frame-slot count.
        slots: usize,
    },
    /// A function has more CFG edges than edge indices can express.
    TooManyEdges {
        /// Function index.
        func: usize,
        /// Its edge count.
        edges: usize,
    },
    /// A function needs more pooled immediates than indices can express.
    TooManyImms {
        /// Function index.
        func: usize,
        /// Its immediate-pool length.
        imms: usize,
    },
    /// The module has more functions than callee indices can express.
    TooManyFuncs {
        /// The function count.
        funcs: usize,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cap = FIELD_MASK;
        match self {
            LowerError::TooManySlots { func, slots } => {
                write!(f, "function {func} has {slots} slots (max {cap})")
            }
            LowerError::TooManyEdges { func, edges } => {
                write!(f, "function {func} has {edges} CFG edges (max {})", cap + 1)
            }
            LowerError::TooManyImms { func, imms } => {
                write!(
                    f,
                    "function {func} needs {imms} pooled immediates (max {})",
                    cap + 1
                )
            }
            LowerError::TooManyFuncs { funcs } => {
                write!(f, "module has {funcs} functions (max {})", cap + 1)
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Per-word observer metadata, parallel to [`BcFunc::code`]; only read
/// when the instruction retires.
#[derive(Debug, Clone, Copy)]
struct BcMeta {
    /// Static event pc: `(function index << 32) | value index`.
    pc: u64,
    /// The instruction's own value id.
    result: ValueId,
    /// Range into [`BcFunc::operands`].
    ops_at: u32,
    ops_len: u32,
}

/// A pre-compiled CFG edge (same shape as the decoded image's).
#[derive(Debug, Clone, Copy)]
struct BcEdge {
    target: u32,
    moves_at: u32,
    moves_len: u32,
}

/// One function in bytecode form.
#[derive(Debug)]
pub struct BcFunc {
    /// Fixed-width instruction words; indices coincide with the
    /// [`ExecImage`] instruction indices of the same function.
    code: Vec<u64>,
    /// Observer metadata, parallel to `code`.
    meta: Vec<BcMeta>,
    edges: Vec<BcEdge>,
    moves: Vec<exec::PhiMove>,
    operands: Vec<ValueId>,
    /// Pooled 64-bit immediates (cast masks, alloc/gep element sizes,
    /// gep offsets) referenced by 14-bit in-word indices.
    imms: Vec<u64>,
    consts: Vec<(u32, RtVal)>,
    num_slots: u32,
    num_params: u32,
    entry_ip: u32,
}

impl BcFunc {
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

    /// The raw instruction words (tooling / tests).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.code
    }
}

/// A module in bytecode form: one [`BcFunc`] per function, same
/// indices as the source [`ExecImage`].
#[derive(Debug)]
pub struct BcImage {
    funcs: Vec<BcFunc>,
}

impl BcImage {
    /// Lower a decoded image to bytecode and validate every encoded
    /// index (slots, edges, immediates) so the dispatch loop can run
    /// unchecked.
    ///
    /// # Errors
    /// [`LowerError`] when the image exceeds a 14-bit field capacity.
    ///
    /// # Panics
    /// If the source image violates its own validation invariants
    /// (internal consistency; cannot happen for [`ExecImage::build`]
    /// output).
    pub fn lower(image: &ExecImage) -> Result<BcImage, LowerError> {
        let _span = swpf_obs::span("bc:lower");
        if image.funcs.len() > FIELD_MASK as usize + 1 {
            return Err(LowerError::TooManyFuncs {
                funcs: image.funcs.len(),
            });
        }
        let mut funcs = Vec::with_capacity(image.funcs.len());
        for (fidx, fi) in image.funcs.iter().enumerate() {
            let bf = lower_function(fidx, fi)?;
            validate_bc(fidx, &bf, image.funcs.len());
            funcs.push(bf);
        }
        if swpf_obs::enabled() {
            swpf_obs::count("bc.lowered_funcs", funcs.len() as u64);
            swpf_obs::count(
                "bc.lowered_words",
                funcs.iter().map(|f| f.code.len() as u64).sum(),
            );
        }
        Ok(BcImage { funcs })
    }

    /// Number of lowered functions.
    #[must_use]
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// The bytecode of `func` (tooling / tests).
    #[must_use]
    pub fn func(&self, func: FuncId) -> &BcFunc {
        &self.funcs[func.index()]
    }
}

/// Lower one function. Instruction indices are preserved 1:1, so edges,
/// entry point and observer metadata copy over unchanged.
#[allow(clippy::too_many_lines)]
fn lower_function(fidx: usize, fi: &exec::FuncImage) -> Result<BcFunc, LowerError> {
    if fi.num_slots > FIELD_MASK {
        return Err(LowerError::TooManySlots {
            func: fidx,
            slots: fi.num_slots as usize,
        });
    }
    if fi.edges.len() > FIELD_MASK as usize + 1 {
        return Err(LowerError::TooManyEdges {
            func: fidx,
            edges: fi.edges.len(),
        });
    }

    let mut imms: Vec<u64> = Vec::new();
    let mut single_pool: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut pair_pool: std::collections::HashMap<(u64, u64), u32> =
        std::collections::HashMap::new();
    let mut imm_of = |imms: &mut Vec<u64>, v: u64| -> u32 {
        *single_pool.entry(v).or_insert_with(|| {
            imms.push(v);
            (imms.len() - 1) as u32
        })
    };
    let mut imm_pair_of = |imms: &mut Vec<u64>, a: u64, b: u64| -> u32 {
        *pair_pool.entry((a, b)).or_insert_with(|| {
            imms.push(a);
            imms.push(b);
            (imms.len() - 2) as u32
        })
    };

    let mut code = Vec::with_capacity(fi.code.len());
    let mut meta = Vec::with_capacity(fi.code.len());
    for d in &fi.code {
        let w = match d.op {
            Op::Bin { op, lhs, rhs, dst } => {
                let opc = match op {
                    BinOp::Add => op::ADD,
                    BinOp::Sub => op::SUB,
                    BinOp::Mul => op::MUL,
                    BinOp::Sdiv => op::SDIV,
                    BinOp::Udiv => op::UDIV,
                    BinOp::Srem => op::SREM,
                    BinOp::Urem => op::UREM,
                    BinOp::And => op::AND,
                    BinOp::Or => op::OR,
                    BinOp::Xor => op::XOR,
                    BinOp::Shl => op::SHL,
                    BinOp::Lshr => op::LSHR,
                    BinOp::Ashr => op::ASHR,
                    BinOp::Fadd => op::FADD,
                    BinOp::Fsub => op::FSUB,
                    BinOp::Fmul => op::FMUL,
                    BinOp::Fdiv => op::FDIV,
                };
                encode_word(opc, lhs, rhs, dst, 0)
            }
            Op::ICmp {
                pred,
                lhs,
                rhs,
                dst,
            } => encode_word(op::ICMP, lhs, rhs, dst, pred_code(pred)),
            Op::Select {
                cond,
                then_val,
                else_val,
                dst,
            } => encode_word(op::SELECT, cond, then_val, else_val, dst),
            Op::Mask { src, mask, dst } => {
                let idx = imm_of(&mut imms, mask as u64);
                if idx > FIELD_MASK {
                    return Err(LowerError::TooManyImms {
                        func: fidx,
                        imms: imms.len(),
                    });
                }
                encode_word(op::MASK, src, dst, idx, 0)
            }
            Op::SignExtend { src, shift, dst } => encode_word(op::SEXT, src, dst, shift, 0),
            Op::Copy { src, dst } => encode_word(op::COPY, src, dst, 0, 0),
            Op::Alloc {
                count,
                elem_size,
                dst,
            } => {
                let idx = imm_of(&mut imms, elem_size);
                if idx > FIELD_MASK {
                    return Err(LowerError::TooManyImms {
                        func: fidx,
                        imms: imms.len(),
                    });
                }
                encode_word(op::ALLOC, count, dst, idx, 0)
            }
            Op::Gep {
                base,
                index,
                elem_size,
                offset,
                dst,
            } => {
                let idx = imm_pair_of(&mut imms, elem_size, offset);
                if idx > FIELD_MASK {
                    return Err(LowerError::TooManyImms {
                        func: fidx,
                        imms: imms.len(),
                    });
                }
                encode_word(op::GEP, base, index, dst, idx)
            }
            Op::Load { addr, ty, dst, .. } => {
                let opc = match ty {
                    Type::I1 => op::LD_I1,
                    Type::I8 => op::LD_I8,
                    Type::I16 => op::LD_I16,
                    Type::I32 => op::LD_I32,
                    Type::I64 | Type::Ptr => op::LD_I64,
                    Type::F64 => op::LD_F64,
                };
                encode_word(opc, addr, dst, 0, 0)
            }
            Op::Store { addr, val, size } => {
                let opc = match size {
                    1 => op::ST_1,
                    2 => op::ST_2,
                    4 => op::ST_4,
                    8 => op::ST_8,
                    other => panic!("unsupported store width {other}"),
                };
                encode_word(opc, addr, val, 0, 0)
            }
            Op::Prefetch { addr } => encode_word(op::PREFETCH, addr, 0, 0, 0),
            Op::Call { callee, dst } => {
                if callee > FIELD_MASK {
                    return Err(LowerError::TooManyFuncs {
                        funcs: callee as usize + 1,
                    });
                }
                encode_word(op::CALL, callee, dst, 0, 0)
            }
            Op::Br { edge } => encode_word(op::BR, edge, 0, 0, 0),
            Op::CondBr {
                cond,
                then_edge,
                else_edge,
            } => encode_word(op::CBR, cond, then_edge, else_edge, 0),
            Op::Ret { val } => {
                let a = if val == exec::NO_SLOT {
                    BC_NO_SLOT
                } else {
                    val
                };
                encode_word(op::RET, a, 0, 0, 0)
            }
            Op::FallOff => encode_word(op::FALLOFF, 0, 0, 0, 0),
        };
        code.push(w);
        meta.push(BcMeta {
            pc: d.pc,
            result: d.result,
            ops_at: d.ops_at,
            ops_len: d.ops_len,
        });
    }

    Ok(BcFunc {
        code,
        meta,
        edges: fi
            .edges
            .iter()
            .map(|e| BcEdge {
                target: e.target,
                moves_at: e.moves_at,
                moves_len: e.moves_len,
            })
            .collect(),
        moves: fi.moves.clone(),
        operands: fi.operands.clone(),
        imms,
        consts: fi.consts.clone(),
        num_slots: fi.num_slots,
        num_params: fi.num_params,
        entry_ip: fi.entry_ip,
    })
}

/// Lowering-time validation establishing the dispatch loop's safety
/// invariant: every encoded slot index is within the frame register
/// file, every edge/immediate index is within its pool, every edge
/// target and the entry point are valid code indices, and every pool
/// range is in bounds. Violations are internal lowering bugs, so they
/// panic rather than surface as [`LowerError`].
#[allow(clippy::too_many_lines)]
fn validate_bc(fidx: usize, bf: &BcFunc, num_funcs: usize) {
    assert_eq!(bf.code.len(), bf.meta.len(), "meta not parallel to code");
    let ns = bf.num_slots;
    let slot = |s: u32| assert!(s < ns, "fn {fidx}: slot {s} out of range ({ns} slots)");
    let edge = |e: u32| {
        assert!(
            (e as usize) < bf.edges.len(),
            "fn {fidx}: edge {e} out of range"
        );
    };
    let imm = |i: u32, span: u32| {
        assert!(
            (i as usize) + (span as usize) <= bf.imms.len(),
            "fn {fidx}: imm {i}+{span} out of pool"
        );
    };
    for (m, &w) in bf.meta.iter().zip(&bf.code) {
        assert!(
            m.ops_at as usize + m.ops_len as usize <= bf.operands.len(),
            "fn {fidx}: operand range out of pool"
        );
        let (a, b, c, d) = (fa(w), fb(w), fc(w), fd(w));
        match w as u8 {
            op::RET => assert!(
                a == BC_NO_SLOT || a < ns,
                "fn {fidx}: ret slot out of range"
            ),
            op::BR => edge(a),
            op::CBR => {
                slot(a);
                edge(b);
                edge(c);
            }
            op::ADD..=op::FDIV => {
                slot(a);
                slot(b);
                slot(c);
            }
            op::ICMP => {
                slot(a);
                slot(b);
                slot(c);
                assert!((d as usize) < PREDS.len(), "fn {fidx}: bad predicate code");
            }
            op::SELECT => {
                slot(a);
                slot(b);
                slot(c);
                slot(d);
            }
            op::MASK | op::ALLOC => {
                slot(a);
                slot(b);
                imm(c, 1);
            }
            op::SEXT => {
                slot(a);
                slot(b);
                assert!(c < 64, "fn {fidx}: sext shift out of range");
            }
            op::COPY => {
                slot(a);
                slot(b);
            }
            op::GEP => {
                slot(a);
                slot(b);
                slot(c);
                imm(d, 2);
            }
            op::LD_I1..=op::LD_F64 => {
                slot(a);
                slot(b);
            }
            op::ST_1..=op::ST_8 => {
                slot(a);
                slot(b);
            }
            op::PREFETCH => slot(a),
            op::CALL => {
                assert!((a as usize) < num_funcs, "fn {fidx}: callee out of range");
                slot(b);
            }
            op::FALLOFF => {}
            other => panic!("fn {fidx}: invalid opcode {other}"),
        }
    }
    // Event operand ids double as caller-frame slots for call arguments.
    for v in &bf.operands {
        slot(v.0);
    }
    for e in &bf.edges {
        assert!(
            (e.target as usize) < bf.code.len(),
            "fn {fidx}: edge target OOB"
        );
        assert!(
            e.moves_at as usize + e.moves_len as usize <= bf.moves.len(),
            "fn {fidx}: move range out of pool"
        );
    }
    for mv in &bf.moves {
        slot(mv.dst);
        slot(mv.src);
    }
    assert!(
        (bf.entry_ip as usize) < bf.code.len(),
        "fn {fidx}: entry ip out of range"
    );
    assert!(bf.num_params <= ns, "fn {fidx}: more params than slots");
}

/// One activation record.
#[derive(Debug)]
struct BcFrame {
    func: u32,
    frame_id: u64,
    ip: u32,
    /// Slot in the *caller's* frame receiving our return value
    /// ([`exec::NO_SLOT`] for the top-level frame).
    ret_slot: u32,
    regs: Vec<RtVal>,
}

/// Mutable execution state, split from the image handle so stepping
/// borrows the image and the state disjointly.
#[derive(Debug)]
struct BcState {
    frames: Vec<BcFrame>,
    next_frame_id: u64,
    fuel: u64,
    retired: u64,
    max_depth: usize,
    move_buf: Vec<RtVal>,
}

/// How one dispatched instruction left the control state.
enum Flow {
    /// Stay in the current frame (ip already updated).
    Next,
    /// Push a callee frame (the call event has been emitted).
    Call {
        callee: u32,
        dst: u32,
        regs: Vec<RtVal>,
    },
    /// Pop the current frame (the ret event has been emitted).
    Ret { val: Option<RtVal> },
}

/// The bytecode execute layer: a resumable cursor over a [`BcImage`].
#[derive(Debug)]
pub struct BcEngine {
    image: Option<Arc<BcImage>>,
    st: BcState,
}

impl Default for BcEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl BcEngine {
    /// An idle engine with no image and no cursor.
    #[must_use]
    pub fn new() -> Self {
        BcEngine {
            image: None,
            st: BcState {
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
    pub fn start(&mut self, image: Arc<BcImage>, func: FuncId, args: &[RtVal]) {
        let bf = &image.funcs[func.index()];
        assert_eq!(
            args.len(),
            bf.num_params as usize,
            "argument count mismatch"
        );
        let regs = bf.new_regs(args);
        let entry_ip = bf.entry_ip;
        self.st.frames.clear();
        let id = self.st.next_frame_id;
        self.st.next_frame_id += 1;
        self.st.frames.push(BcFrame {
            func: func.0,
            frame_id: id,
            ip: entry_ip,
            ret_slot: exec::NO_SLOT,
            regs,
        });
        self.image = Some(image);
    }

    /// Execute up to `n` steps — one instruction each, plus the phi
    /// copies of a taken branch, which retire with it — inside one frame
    /// loop, reporting each completed step through
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
        self.st.run_steps(n, image, mem, obs)
    }

    /// Run the current cursor to completion, with no per-step observer
    /// call.
    ///
    /// # Errors
    /// Any [`Trap`] raised during execution.
    ///
    /// # Panics
    /// If called without an active cursor.
    pub fn run_to_done(
        &mut self,
        mem: &mut Memory,
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<Option<RtVal>, Trap> {
        let image = self.image.as_deref().expect("run without an image");
        self.st.run_to_done(image, mem, obs)
    }
}

/// Read a frame slot.
///
/// Bounds are guaranteed by [`validate_bc`]: `regs` was sized by
/// [`BcFunc::new_regs`] to `num_slots` and every encoded slot index was
/// checked against `num_slots`.
#[inline(always)]
fn rd(regs: &[RtVal], slot: u32) -> RtVal {
    debug_assert!((slot as usize) < regs.len(), "slot out of range");
    // SAFETY: every slot index reaching dispatch passed `validate_bc`'s
    // `slot < num_slots`, and every register file has `num_slots` entries.
    unsafe { *regs.get_unchecked(slot as usize) }
}

/// Write a frame slot; bounds guaranteed as for [`rd`].
#[inline(always)]
fn wr(regs: &mut [RtVal], slot: u32, v: RtVal) {
    debug_assert!((slot as usize) < regs.len(), "slot out of range");
    // SAFETY: as for `rd`.
    unsafe {
        *regs.get_unchecked_mut(slot as usize) = v;
    }
}

/// Execute the instruction at the current ip: one dispatch retires one
/// instruction (plus the phi copies of a taken branch, which retire with
/// it).
///
/// Slot/edge/imm/meta accesses are unchecked: `validate_bc` established
/// their bounds at lowering time.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
#[inline(always)]
fn exec_one(
    image: &BcImage,
    bf: &BcFunc,
    regs: &mut [RtVal],
    ip: &mut u32,
    frame_id: u64,
    depth: usize,
    max_depth: usize,
    retired: &mut u64,
    fuel: u64,
    move_buf: &mut Vec<RtVal>,
    mem: &mut Memory,
    obs: &mut (impl ExecObserver + ?Sized),
) -> Result<Flow, Trap> {
    let cur = *ip as usize;
    debug_assert!(cur < bf.code.len(), "ip out of range");
    let w = unsafe { *bf.code.get_unchecked(cur) };

    /// Retire the instruction at `cur` with event kind `$k`.
    macro_rules! emit {
        ($k:expr) => {{
            *retired += 1;
            let m = unsafe { bf.meta.get_unchecked(cur) };
            let ops = unsafe {
                bf.operands
                    .get_unchecked(m.ops_at as usize..(m.ops_at + m.ops_len) as usize)
            };
            obs.on_event(&Event {
                pc: m.pc,
                frame: frame_id,
                result: m.result,
                kind: $k,
                operands: ops,
            });
        }};
    }
    /// Fall through to the next word and retire with event kind `$k`.
    macro_rules! next {
        ($k:expr) => {{
            *ip = cur as u32 + 1;
            emit!($k);
        }};
    }

    /// Apply a CFG edge: parallel phi copy, jump, phi retire events
    /// (after the copy, before the branch's own event), with the exec
    /// engine's exact fuel accounting.
    macro_rules! take_edge {
        ($e:expr) => {{
            let e = unsafe { *bf.edges.get_unchecked($e as usize) };
            let moves = unsafe {
                bf.moves
                    .get_unchecked(e.moves_at as usize..(e.moves_at + e.moves_len) as usize)
            };
            if !moves.is_empty() {
                move_buf.clear();
                move_buf.extend(moves.iter().map(|mv| rd(regs, mv.src)));
                for (mv, &v) in moves.iter().zip(move_buf.iter()) {
                    wr(regs, mv.dst, v);
                }
            }
            *ip = e.target;
            for mv in moves {
                *retired += 1;
                if *retired > fuel {
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
        }};
    }

    macro_rules! bin {
        ($op:expr) => {{
            let r = eval_binary($op, rd(regs, fa(w)), rd(regs, fb(w)))?;
            wr(regs, fc(w), r);
            next!(EventKind::Alu);
        }};
    }
    macro_rules! load {
        ($ty:expr, $size:expr) => {{
            let a = rd(regs, fa(w)).as_int() as u64;
            let raw = mem.read(a, $size)?;
            wr(regs, fb(w), decode_scalar(raw, $ty));
            next!(EventKind::Load {
                addr: a,
                size: $size
            });
        }};
    }
    macro_rules! store {
        ($size:expr) => {{
            let a = rd(regs, fa(w)).as_int() as u64;
            let v = rd(regs, fb(w));
            mem.write(a, $size, encode_scalar(v))?;
            next!(EventKind::Store {
                addr: a,
                size: $size
            });
        }};
    }

    match w as u8 {
        op::RET => {
            let a = fa(w);
            let rv = if a == BC_NO_SLOT {
                None
            } else {
                Some(rd(regs, a))
            };
            emit!(EventKind::Ret);
            return Ok(Flow::Ret { val: rv });
        }
        op::BR => {
            take_edge!(fa(w));
            emit!(EventKind::Branch { taken: true });
        }
        op::CBR => {
            let c = rd(regs, fa(w)).as_int() != 0;
            take_edge!(if c { fb(w) } else { fc(w) });
            emit!(EventKind::Branch { taken: c });
        }
        op::ADD => bin!(BinOp::Add),
        op::SUB => bin!(BinOp::Sub),
        op::MUL => bin!(BinOp::Mul),
        op::SDIV => bin!(BinOp::Sdiv),
        op::UDIV => bin!(BinOp::Udiv),
        op::SREM => bin!(BinOp::Srem),
        op::UREM => bin!(BinOp::Urem),
        op::AND => bin!(BinOp::And),
        op::OR => bin!(BinOp::Or),
        op::XOR => bin!(BinOp::Xor),
        op::SHL => bin!(BinOp::Shl),
        op::LSHR => bin!(BinOp::Lshr),
        op::ASHR => bin!(BinOp::Ashr),
        op::FADD => bin!(BinOp::Fadd),
        op::FSUB => bin!(BinOp::Fsub),
        op::FMUL => bin!(BinOp::Fmul),
        op::FDIV => bin!(BinOp::Fdiv),
        op::ICMP => {
            let p = PREDS[fd(w) as usize];
            let r = eval_icmp(p, rd(regs, fa(w)).as_int(), rd(regs, fb(w)).as_int());
            wr(regs, fc(w), RtVal::Int(i64::from(r)));
            next!(EventKind::Alu);
        }
        op::SELECT => {
            let c = rd(regs, fa(w)).as_int() != 0;
            let v = if c { rd(regs, fb(w)) } else { rd(regs, fc(w)) };
            wr(regs, fd(w), v);
            next!(EventKind::Alu);
        }
        op::MASK => {
            let x = rd(regs, fa(w)).as_int();
            let mask = unsafe { *bf.imms.get_unchecked(fc(w) as usize) } as i64;
            wr(regs, fb(w), RtVal::Int(x & mask));
            next!(EventKind::Alu);
        }
        op::SEXT => {
            let x = rd(regs, fa(w)).as_int();
            let shift = fc(w);
            wr(regs, fb(w), RtVal::Int((x << shift) >> shift));
            next!(EventKind::Alu);
        }
        op::COPY => {
            let x = rd(regs, fa(w)).as_int();
            wr(regs, fb(w), RtVal::Int(x));
            next!(EventKind::Alu);
        }
        op::ALLOC => {
            let n = rd(regs, fa(w)).as_int();
            let elem = unsafe { *bf.imms.get_unchecked(fc(w) as usize) };
            let size = u64::try_from(n.max(0)).expect("non-negative") * elem;
            let addr = mem.alloc(size)?;
            wr(regs, fb(w), RtVal::Int(addr as i64));
            next!(EventKind::Alloc);
        }
        op::GEP => {
            let base = rd(regs, fa(w)).as_int() as u64;
            let idx = rd(regs, fb(w)).as_int();
            let at = fd(w) as usize;
            let elem = unsafe { *bf.imms.get_unchecked(at) };
            let off = unsafe { *bf.imms.get_unchecked(at + 1) };
            let addr = base
                .wrapping_add((idx as u64).wrapping_mul(elem))
                .wrapping_add(off);
            wr(regs, fc(w), RtVal::Int(addr as i64));
            next!(EventKind::Alu);
        }
        op::LD_I1 => load!(Type::I1, 1),
        op::LD_I8 => load!(Type::I8, 1),
        op::LD_I16 => load!(Type::I16, 2),
        op::LD_I32 => load!(Type::I32, 4),
        op::LD_I64 => load!(Type::I64, 8),
        op::LD_F64 => load!(Type::F64, 8),
        op::ST_1 => store!(1),
        op::ST_2 => store!(2),
        op::ST_4 => store!(4),
        op::ST_8 => store!(8),
        op::PREFETCH => {
            let a = rd(regs, fa(w)).as_int() as u64;
            // Prefetches never fault: an unmapped hint is dropped.
            let valid = mem.is_valid(a, 1);
            next!(EventKind::Prefetch { addr: a, valid });
        }
        op::CALL => {
            if depth >= max_depth {
                return Err(Trap::StackOverflow);
            }
            let callee = fa(w);
            let dst = fb(w);
            let cf = &image.funcs[callee as usize];
            let m = &bf.meta[cur];
            let args = &bf.operands[m.ops_at as usize..(m.ops_at + m.ops_len) as usize];
            let mut new_regs = vec![RtVal::Int(0); cf.num_slots as usize];
            for (k, &arg) in args.iter().enumerate() {
                new_regs[k] = rd(regs, arg.0);
            }
            for &(slot, v) in &cf.consts {
                new_regs[slot as usize] = v;
            }
            // Resume after the call on return.
            next!(EventKind::Call);
            return Ok(Flow::Call {
                callee,
                dst,
                regs: new_regs,
            });
        }
        op::FALLOFF => panic!("fell off block end"),
        other => unreachable!("invalid opcode {other}"),
    }
    Ok(Flow::Next)
}

impl BcState {
    /// The stepping loop (see [`BcEngine::run_steps`]): the frame loop
    /// of [`BcState::run_to_done`] with a step budget and an
    /// [`ExecObserver::end_step`] after each step — frame state is
    /// re-acquired only on calls and returns, not once per step.
    fn run_steps(
        &mut self,
        n: u64,
        image: &BcImage,
        mem: &mut Memory,
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<Step, Trap> {
        let mut left = n;
        'frames: while left > 0 {
            let depth = self.frames.len();
            let frame = self
                .frames
                .last_mut()
                .expect("step() without an active cursor");
            let bf = &image.funcs[frame.func as usize];
            let frame_id = frame.frame_id;
            let BcFrame { ip, regs, .. } = &mut *frame;
            let regs = regs.as_mut_slice();
            while left > 0 {
                if self.retired >= self.fuel {
                    return Err(Trap::OutOfFuel);
                }
                left -= 1;
                let flow = exec_one(
                    image,
                    bf,
                    regs,
                    ip,
                    frame_id,
                    depth,
                    self.max_depth,
                    &mut self.retired,
                    self.fuel,
                    &mut self.move_buf,
                    mem,
                    obs,
                )?;
                obs.end_step();
                match flow {
                    Flow::Next => {}
                    Flow::Call { callee, dst, regs } => {
                        self.push_frame(image, callee, dst, regs);
                        continue 'frames;
                    }
                    Flow::Ret { val } => match self.pop_frame(val) {
                        Step::Done(v) => return Ok(Step::Done(v)),
                        Step::Continue => continue 'frames,
                    },
                }
            }
        }
        Ok(Step::Continue)
    }

    /// The fast loop: frame state (code, register file, ip) is
    /// re-acquired only on calls and returns.
    fn run_to_done(
        &mut self,
        image: &BcImage,
        mem: &mut Memory,
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<Option<RtVal>, Trap> {
        'frames: loop {
            let depth = self.frames.len();
            let frame = self
                .frames
                .last_mut()
                .expect("run_to_done() without an active cursor");
            let bf = &image.funcs[frame.func as usize];
            let frame_id = frame.frame_id;
            let BcFrame { ip, regs, .. } = &mut *frame;
            let regs = regs.as_mut_slice();
            loop {
                if self.retired >= self.fuel {
                    return Err(Trap::OutOfFuel);
                }
                match exec_one(
                    image,
                    bf,
                    regs,
                    ip,
                    frame_id,
                    depth,
                    self.max_depth,
                    &mut self.retired,
                    self.fuel,
                    &mut self.move_buf,
                    mem,
                    obs,
                )? {
                    Flow::Next => {}
                    Flow::Call { callee, dst, regs } => {
                        self.push_frame(image, callee, dst, regs);
                        continue 'frames;
                    }
                    Flow::Ret { val } => match self.pop_frame(val) {
                        Step::Done(v) => return Ok(v),
                        Step::Continue => continue 'frames,
                    },
                }
            }
        }
    }

    fn push_frame(&mut self, image: &BcImage, callee: u32, dst: u32, regs: Vec<RtVal>) {
        let id = self.next_frame_id;
        self.next_frame_id += 1;
        self.frames.push(BcFrame {
            func: callee,
            frame_id: id,
            ip: image.funcs[callee as usize].entry_ip,
            ret_slot: dst,
            regs,
        });
    }

    fn pop_frame(&mut self, val: Option<RtVal>) -> Step {
        let finished = self.frames.pop().expect("non-empty");
        if let Some(parent) = self.frames.last_mut() {
            if let (true, Some(v)) = (finished.ret_slot != exec::NO_SLOT, val) {
                parent.regs[finished.ret_slot as usize] = v;
            }
            Step::Continue
        } else {
            Step::Done(val)
        }
    }
}

/// A decoded view of one instruction word, for tooling and the
/// round-trip tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum DecodedOp {
    Ret {
        val: Option<u32>,
    },
    Br {
        edge: u32,
    },
    CondBr {
        cond: u32,
        then_edge: u32,
        else_edge: u32,
    },
    Bin {
        opcode: u8,
        lhs: u32,
        rhs: u32,
        dst: u32,
    },
    ICmp {
        lhs: u32,
        rhs: u32,
        dst: u32,
        pred: u32,
    },
    Select {
        cond: u32,
        then_val: u32,
        else_val: u32,
        dst: u32,
    },
    Mask {
        src: u32,
        dst: u32,
        imm: u32,
    },
    SignExtend {
        src: u32,
        dst: u32,
        shift: u32,
    },
    Copy {
        src: u32,
        dst: u32,
    },
    Alloc {
        count: u32,
        dst: u32,
        imm: u32,
    },
    Gep {
        base: u32,
        index: u32,
        dst: u32,
        imm: u32,
    },
    Load {
        opcode: u8,
        addr: u32,
        dst: u32,
    },
    Store {
        opcode: u8,
        addr: u32,
        val: u32,
    },
    Prefetch {
        addr: u32,
    },
    Call {
        callee: u32,
        dst: u32,
    },
    FallOff,
}

impl DecodedOp {
    /// Re-encode to the instruction word.
    #[must_use]
    pub fn encode(&self) -> u64 {
        match *self {
            DecodedOp::Ret { val } => encode_word(op::RET, val.unwrap_or(BC_NO_SLOT), 0, 0, 0),
            DecodedOp::Br { edge } => encode_word(op::BR, edge, 0, 0, 0),
            DecodedOp::CondBr {
                cond,
                then_edge,
                else_edge,
            } => encode_word(op::CBR, cond, then_edge, else_edge, 0),
            DecodedOp::Bin {
                opcode,
                lhs,
                rhs,
                dst,
            } => encode_word(opcode, lhs, rhs, dst, 0),
            DecodedOp::ICmp {
                lhs,
                rhs,
                dst,
                pred,
            } => encode_word(op::ICMP, lhs, rhs, dst, pred),
            DecodedOp::Select {
                cond,
                then_val,
                else_val,
                dst,
            } => encode_word(op::SELECT, cond, then_val, else_val, dst),
            DecodedOp::Mask { src, dst, imm } => encode_word(op::MASK, src, dst, imm, 0),
            DecodedOp::SignExtend { src, dst, shift } => encode_word(op::SEXT, src, dst, shift, 0),
            DecodedOp::Copy { src, dst } => encode_word(op::COPY, src, dst, 0, 0),
            DecodedOp::Alloc { count, dst, imm } => encode_word(op::ALLOC, count, dst, imm, 0),
            DecodedOp::Gep {
                base,
                index,
                dst,
                imm,
            } => encode_word(op::GEP, base, index, dst, imm),
            DecodedOp::Load { opcode, addr, dst } => encode_word(opcode, addr, dst, 0, 0),
            DecodedOp::Store { opcode, addr, val } => encode_word(opcode, addr, val, 0, 0),
            DecodedOp::Prefetch { addr } => encode_word(op::PREFETCH, addr, 0, 0, 0),
            DecodedOp::Call { callee, dst } => encode_word(op::CALL, callee, dst, 0, 0),
            DecodedOp::FallOff => encode_word(op::FALLOFF, 0, 0, 0, 0),
        }
    }
}

/// Decode one instruction word.
///
/// # Panics
/// On an opcode byte outside the defined space.
#[must_use]
pub fn decode_word(w: u64) -> DecodedOp {
    let (a, b, c, d) = (fa(w), fb(w), fc(w), fd(w));
    match w as u8 {
        op::RET => DecodedOp::Ret {
            val: (a != BC_NO_SLOT).then_some(a),
        },
        op::BR => DecodedOp::Br { edge: a },
        op::CBR => DecodedOp::CondBr {
            cond: a,
            then_edge: b,
            else_edge: c,
        },
        opc @ op::ADD..=op::FDIV => DecodedOp::Bin {
            opcode: opc,
            lhs: a,
            rhs: b,
            dst: c,
        },
        op::ICMP => DecodedOp::ICmp {
            lhs: a,
            rhs: b,
            dst: c,
            pred: d,
        },
        op::SELECT => DecodedOp::Select {
            cond: a,
            then_val: b,
            else_val: c,
            dst: d,
        },
        op::MASK => DecodedOp::Mask {
            src: a,
            dst: b,
            imm: c,
        },
        op::SEXT => DecodedOp::SignExtend {
            src: a,
            dst: b,
            shift: c,
        },
        op::COPY => DecodedOp::Copy { src: a, dst: b },
        op::ALLOC => DecodedOp::Alloc {
            count: a,
            dst: b,
            imm: c,
        },
        op::GEP => DecodedOp::Gep {
            base: a,
            index: b,
            dst: c,
            imm: d,
        },
        opc @ op::LD_I1..=op::LD_F64 => DecodedOp::Load {
            opcode: opc,
            addr: a,
            dst: b,
        },
        opc @ op::ST_1..=op::ST_8 => DecodedOp::Store {
            opcode: opc,
            addr: a,
            val: b,
        },
        op::PREFETCH => DecodedOp::Prefetch { addr: a },
        op::CALL => DecodedOp::Call { callee: a, dst: b },
        op::FALLOFF => DecodedOp::FallOff,
        other => panic!("invalid opcode {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::NullObserver;
    use crate::module::Module;

    fn sum_module() -> Module {
        let mut m = Module::new("t");
        let fid = m.declare_function("sum", &[Type::Ptr, Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let (a, n) = (b.arg(0), b.arg(1));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let acc = b.phi(Type::I64, &[(entry, zero)]);
            let c = b.icmp(Pred::Slt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let addr = b.gep(a, i, 8);
            let v = b.load(Type::I64, addr);
            let acc2 = b.add(acc, v);
            let one = b.const_i64(1);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(acc, body, acc2);
            b.br(header);
            b.switch_to(exit);
            b.ret(Some(acc));
        }
        m
    }

    #[test]
    fn word_roundtrip_all_fields() {
        let w = encode_word(op::SELECT, 1, 2, 3, 16000);
        assert_eq!(w as u8, op::SELECT);
        assert_eq!((fa(w), fb(w), fc(w), fd(w)), (1, 2, 3, 16000));
        let dec = decode_word(w);
        assert_eq!(dec.encode(), w);
    }

    #[test]
    fn lowering_preserves_code_indices_and_roundtrips() {
        let m = sum_module();
        let image = ExecImage::build(&m);
        let bc = BcImage::lower(&image).unwrap();
        let bf = bc.func(FuncId(0));
        assert_eq!(bf.words().len(), image.code_len(FuncId(0)));
        for &w in bf.words() {
            assert_eq!(decode_word(w).encode(), w, "word is not canonical");
        }
    }

    #[test]
    fn bytecode_runs_the_sum_loop() {
        let m = sum_module();
        let image = ExecImage::build(&m);
        let bc = Arc::new(BcImage::lower(&image).unwrap());
        let mut mem = Memory::with_limit(1 << 20);
        let base = mem.alloc(10 * 8).unwrap();
        for i in 0..10u64 {
            mem.write(base + i * 8, 8, i + 1).unwrap();
        }
        let mut eng = BcEngine::new();
        eng.start(bc, FuncId(0), &[RtVal::Int(base as i64), RtVal::Int(10)]);
        let r = eng.run_to_done(&mut mem, &mut NullObserver).unwrap();
        assert_eq!(r, Some(RtVal::Int(55)));
    }

    /// `run_to_done` and one-instruction steps reach the same result
    /// after the same number of retirements.
    #[test]
    fn stepped_and_fused_execution_agree() {
        let m = sum_module();
        let image = ExecImage::build(&m);
        let bc = Arc::new(BcImage::lower(&image).unwrap());
        let mut mem_a = Memory::with_limit(1 << 20);
        let base = mem_a.alloc(10 * 8).unwrap();
        for i in 0..10u64 {
            mem_a.write(base + i * 8, 8, 7 * i + 1).unwrap();
        }
        let mut mem_b = mem_a.clone();
        let args = [RtVal::Int(base as i64), RtVal::Int(10)];

        let mut fast = BcEngine::new();
        fast.start(Arc::clone(&bc), FuncId(0), &args);
        let fast_r = fast.run_to_done(&mut mem_a, &mut NullObserver).unwrap();

        let mut slow = BcEngine::new();
        slow.start(bc, FuncId(0), &args);
        let slow_r = loop {
            match slow.run_steps(1, &mut mem_b, &mut NullObserver).unwrap() {
                Step::Continue => {}
                Step::Done(v) => break v,
            }
        };
        assert_eq!(fast_r, slow_r);
        assert_eq!(fast.retired(), slow.retired());
    }

    #[test]
    fn oversized_function_rejected_at_lowering() {
        let mut m = Module::new("big");
        let fid = m.declare_function("f", &[Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let mut v = b.arg(0);
            for _ in 0..FIELD_MASK {
                v = b.add(v, v);
            }
            b.ret(Some(v));
        }
        let image = ExecImage::build(&m);
        assert!(matches!(
            BcImage::lower(&image),
            Err(LowerError::TooManySlots { .. })
        ));
        // The facade path degrades to the classic tier instead of
        // trusting the encoding at dispatch.
        assert!(image.bytecode().is_none());
    }

    #[test]
    fn invalid_slot_encoding_is_a_lowering_panic_not_a_dispatch_hazard() {
        // Hand-corrupt a word to reference an out-of-range slot: the
        // lowering validator must reject it before any engine sees it.
        let m = sum_module();
        let image = ExecImage::build(&m);
        let mut bc = BcImage::lower(&image).unwrap();
        let bf = &mut bc.funcs[0];
        bf.code[bf.entry_ip as usize] = encode_word(op::COPY, FIELD_MASK - 1, 0, 0, 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            validate_bc(0, &bc.funcs[0], 1);
        }));
        assert!(caught.is_err(), "corrupt slot must fail validation");
    }
}
