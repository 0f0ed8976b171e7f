//! Execution contract and the user-facing interpreter facade.
//!
//! This module defines everything the timing simulator and the tests
//! program against: runtime values ([`RtVal`]), traps ([`Trap`]), the
//! simulated flat [`Memory`], and the observer contract ([`Event`],
//! [`EventKind`], [`ExecObserver`]) through which `swpf-sim` watches
//! every retired instruction — static instruction identity (for
//! stride-prefetcher PC tables), memory addresses, and operand value-ids
//! (for dataflow dependence tracking in the out-of-order core model).
//!
//! Execution has two tiers. A one-time pass ([`ExecImage::build`])
//! lowers a module straight to the fixed-width words of the default
//! bytecode tier ([`crate::bytecode`]). The original tree-walking
//! interpreter, [`crate::classic::ClassicInterp`], is the other tier:
//! the differential-testing oracle, and the fallback for modules the
//! bytecode encoding cannot hold. [`Interp`] is the facade over both: it owns the
//! simulated memory, builds images on demand in [`Interp::start`], and
//! preserves the original interpreter's API — `start`/`step` for
//! multicore interleaving, `run` for one-shot execution.

use crate::bytecode::BcEngine;
use crate::classic::ClassicInterp;
use crate::exec::ExecImage;
use crate::function::FuncId;
use crate::inst::{BinOp, Pred};
use crate::module::Module;
use crate::types::Type;
use crate::value::ValueId;
use std::fmt;
use std::sync::Arc;

/// A runtime scalar. Pointers are carried as `Int` (addresses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// Integer or pointer payload (sign-agnostic 64-bit).
    Int(i64),
    /// Floating-point payload.
    Float(f64),
}

impl RtVal {
    /// Integer payload.
    ///
    /// # Panics
    /// If the value is a float.
    #[must_use]
    pub fn as_int(self) -> i64 {
        match self {
            RtVal::Int(v) => v,
            RtVal::Float(_) => panic!("expected integer value"),
        }
    }

    /// Float payload.
    ///
    /// # Panics
    /// If the value is an integer.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            RtVal::Float(v) => v,
            RtVal::Int(_) => panic!("expected float value"),
        }
    }
}

/// A runtime fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Load or store outside allocated memory.
    MemFault {
        /// Faulting address.
        addr: u64,
        /// Access size in bytes.
        size: u32,
    },
    /// Integer division or remainder by zero.
    DivByZero,
    /// Instruction budget exhausted (see [`Interp::set_fuel`]).
    OutOfFuel,
    /// Call stack exceeded the depth limit.
    StackOverflow,
    /// Simulated heap exhausted.
    OutOfMemory,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::MemFault { addr, size } => {
                write!(f, "memory fault: {size}-byte access at {addr:#x}")
            }
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::OutOfFuel => write!(f, "instruction budget exhausted"),
            Trap::StackOverflow => write!(f, "call stack overflow"),
            Trap::OutOfMemory => write!(f, "simulated heap exhausted"),
        }
    }
}

impl std::error::Error for Trap {}

/// Dynamic classification of a retired instruction, as seen by observers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Register-to-register work (arithmetic, compares, selects, casts,
    /// phis, address computation).
    Alu,
    /// A demand memory read.
    Load {
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        size: u32,
    },
    /// A memory write.
    Store {
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        size: u32,
    },
    /// A software prefetch hint. `valid` is false when the address was
    /// outside allocated memory (real hardware silently drops these).
    Prefetch {
        /// Hinted address.
        addr: u64,
        /// Whether the address was mapped.
        valid: bool,
    },
    /// A control-flow instruction (branch, conditional branch).
    Branch {
        /// Whether a conditional branch was taken (`true` for `br`).
        taken: bool,
    },
    /// Function call entry.
    Call,
    /// Function return.
    Ret,
    /// Heap allocation.
    Alloc,
}

/// A retired instruction notification.
#[derive(Debug, Clone, Copy)]
pub struct Event<'a> {
    /// Static identity: `(function index << 32) | value index`. Stable
    /// across iterations, suitable for stride-table indexing.
    pub pc: u64,
    /// Monotonic id of the executing call frame (for dependence keying).
    pub frame: u64,
    /// Value id of the result (also the instruction id).
    pub result: ValueId,
    /// What happened.
    pub kind: EventKind,
    /// Operand value ids within the same frame. For phis, only the chosen
    /// incoming; for calls, the arguments.
    pub operands: &'a [ValueId],
}

/// Receives one callback per retired instruction.
pub trait ExecObserver {
    /// Called after the instruction's architectural effects are applied.
    fn on_event(&mut self, ev: &Event<'_>);

    /// Called by the stepping entry points ([`Interp::step`],
    /// [`Interp::run_steps`]) after every
    /// completed interpreter step: the events reported since the
    /// previous call — one instruction, plus the phi copies of a taken
    /// branch — form one step. A step that traps is not reported, and
    /// the run-to-completion entry points never call this. Only trace
    /// recording cares (multicore replay schedules by steps); the
    /// default does nothing.
    #[inline]
    fn end_step(&mut self) {}
}

/// An observer that ignores everything (pure functional execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl ExecObserver for NullObserver {
    fn on_event(&mut self, _ev: &Event<'_>) {}
}

/// An observer that counts retired instructions by class — enough for the
/// paper's dynamic-instruction-overhead measurements (Fig. 8).
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingObserver {
    /// Total retired instructions.
    pub total: u64,
    /// Demand loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Software prefetches.
    pub prefetches: u64,
    /// Branches.
    pub branches: u64,
}

impl ExecObserver for CountingObserver {
    fn on_event(&mut self, ev: &Event<'_>) {
        self.total += 1;
        match ev.kind {
            EventKind::Load { .. } => self.loads += 1,
            EventKind::Store { .. } => self.stores += 1,
            EventKind::Prefetch { .. } => self.prefetches += 1,
            EventKind::Branch { .. } => self.branches += 1,
            _ => {}
        }
    }
}

/// Base of the simulated heap; addresses below this always fault.
pub const HEAP_BASE: u64 = 0x1_0000;

/// Flat byte-addressed memory with a bump allocator.
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    limit: u64,
}

impl Memory {
    /// Create an empty memory with the given capacity limit in bytes.
    #[must_use]
    pub fn with_limit(limit: u64) -> Self {
        Memory {
            data: Vec::new(),
            limit,
        }
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.data.len() as u64
    }

    /// Allocate `size` bytes aligned to 64 and return the base address.
    ///
    /// # Errors
    /// [`Trap::OutOfMemory`] if the limit would be exceeded.
    pub fn alloc(&mut self, size: u64) -> Result<u64, Trap> {
        let aligned = self.data.len().next_multiple_of(64);
        let end = aligned as u64 + size;
        if end > self.limit {
            return Err(Trap::OutOfMemory);
        }
        self.data.resize(end as usize, 0);
        Ok(HEAP_BASE + aligned as u64)
    }

    #[inline]
    fn check(&self, addr: u64, size: u32) -> Result<usize, Trap> {
        let off = addr.wrapping_sub(HEAP_BASE);
        if addr < HEAP_BASE || off + u64::from(size) > self.data.len() as u64 {
            return Err(Trap::MemFault { addr, size });
        }
        Ok(off as usize)
    }

    /// Whether `[addr, addr+size)` lies within allocated memory.
    #[must_use]
    pub fn is_valid(&self, addr: u64, size: u32) -> bool {
        self.check(addr, size).is_ok()
    }

    /// Read an unsigned little-endian scalar.
    ///
    /// # Errors
    /// [`Trap::MemFault`] when out of bounds.
    pub fn read(&self, addr: u64, size: u32) -> Result<u64, Trap> {
        let off = self.check(addr, size)?;
        let mut buf = [0u8; 8];
        buf[..size as usize].copy_from_slice(&self.data[off..off + size as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Write a little-endian scalar.
    ///
    /// # Errors
    /// [`Trap::MemFault`] when out of bounds.
    pub fn write(&mut self, addr: u64, size: u32, value: u64) -> Result<(), Trap> {
        let off = self.check(addr, size)?;
        let bytes = value.to_le_bytes();
        self.data[off..off + size as usize].copy_from_slice(&bytes[..size as usize]);
        Ok(())
    }
}

/// How far a [`Interp::step`] call got.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// One instruction retired; more remain.
    Continue,
    /// Top-level function returned with this value.
    Done(Option<RtVal>),
}

/// Which execution tier the [`Interp`] facade drives. Both tiers are
/// bit-identical in architectural results and retire-event streams;
/// they differ only in throughput. `Classic` is the bytecode tier's
/// differential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// The original tree-walking interpreter (`crate::classic`).
    Classic,
    /// The fixed-width bytecode engine, one instruction per word
    /// (`crate::bytecode`); the default.
    #[default]
    Bytecode,
}

impl Tier {
    /// Read the tier from `SWPF_TIER` (`classic` | `bytecode`); unset or
    /// empty defaults to [`Tier::Bytecode`]. The library itself reads no
    /// environment: binaries resolve the tier once with this and pass it
    /// on ([`Interp::with_tier`], `swpf_sim::Sim::tier`).
    ///
    /// # Errors
    /// On an unrecognised value — a misspelled tier silently running a
    /// different engine would invalidate comparisons.
    pub fn try_from_env() -> Result<Tier, String> {
        match std::env::var("SWPF_TIER") {
            Ok(v) => match v.as_str() {
                "" | "bytecode" => Ok(Tier::Bytecode),
                "classic" => Ok(Tier::Classic),
                other => Err(format!("SWPF_TIER must be classic|bytecode, got {other:?}")),
            },
            Err(_) => Ok(Tier::Bytecode),
        }
    }

    /// Stable lowercase name (artifact metadata, logs).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tier::Classic => "classic",
            Tier::Bytecode => "bytecode",
        }
    }
}

/// Forward an observer generically so the classic tier's `&mut dyn`
/// API can accept the facade's `impl ExecObserver + ?Sized` parameter.
struct DynObs<'a, O: ExecObserver + ?Sized>(&'a mut O);

impl<O: ExecObserver + ?Sized> ExecObserver for DynObs<'_, O> {
    #[inline]
    fn on_event(&mut self, ev: &Event<'_>) {
        self.0.on_event(ev);
    }

    #[inline]
    fn end_step(&mut self) {
        self.0.end_step();
    }
}

/// The active execution cursor. `Classic` carries its own memory (the
/// tree-walker predates the split) and the module it walks, once
/// started; the bytecode tier uses the facade's memory.
enum Cursor {
    Bytecode(BcEngine),
    Classic(Box<ClassicInterp>, Option<Arc<Module>>),
}

/// The interpreter facade: simulated memory plus a resumable execution
/// cursor on one of two [`Tier`]s (default: the bytecode tier).
///
/// [`Interp::start`] lowers the module into an [`ExecImage`]; callers
/// that run the same module on many interpreters (e.g. multicore
/// simulations) should build once and use [`Interp::start_with_image`].
///
/// Every entry point runs on the selected tier: an image carries the
/// module it was built from, so the classic tier starts from an image
/// as readily as from a module. The bytecode tier runs an image that
/// exceeds its 14-bit encoding capacities (`bytecode::LowerError`) on
/// the classic tier instead (the retired count and fuel budget carry
/// over) — lowering failures are never an execution error.
pub struct Interp {
    mem: Memory,
    tier: Tier,
    cursor: Cursor,
    /// Configured fuel budget (facade-level; survives cursor switches).
    fuel: u64,
    /// Instructions retired by previous cursors (before a tier switch).
    retired_base: u64,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// Create an interpreter with a 1 GiB heap limit on the default
    /// (bytecode) tier.
    #[must_use]
    pub fn new() -> Self {
        Self::with_heap_limit(1 << 30)
    }

    /// Create an interpreter with an explicit heap limit in bytes, on the
    /// default (bytecode) tier.
    #[must_use]
    pub fn with_heap_limit(limit: u64) -> Self {
        Self::with_heap_limit_and_tier(limit, Tier::default())
    }

    /// Create an interpreter on an explicit tier with a 1 GiB heap limit.
    #[must_use]
    pub fn with_tier(tier: Tier) -> Self {
        Self::with_heap_limit_and_tier(1 << 30, tier)
    }

    /// Create an interpreter with an explicit heap limit and tier.
    #[must_use]
    pub fn with_heap_limit_and_tier(limit: u64, tier: Tier) -> Self {
        let cursor = match tier {
            Tier::Classic => Cursor::Classic(Box::new(ClassicInterp::with_heap_limit(limit)), None),
            Tier::Bytecode => Cursor::Bytecode(BcEngine::new()),
        };
        Interp {
            mem: Memory::with_limit(limit),
            tier,
            cursor,
            fuel: u64::MAX,
            retired_base: 0,
        }
    }

    /// The tier this interpreter was constructed on.
    #[must_use]
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Access the simulated memory (e.g. to initialise workload arrays).
    pub fn mem(&mut self) -> &mut Memory {
        match &mut self.cursor {
            Cursor::Classic(c, _) => c.mem(),
            Cursor::Bytecode(_) => &mut self.mem,
        }
    }

    /// Read-only view of the simulated memory.
    #[must_use]
    pub fn mem_ref(&self) -> &Memory {
        match &self.cursor {
            Cursor::Classic(c, _) => c.mem_ref(),
            Cursor::Bytecode(_) => &self.mem,
        }
    }

    /// Total instructions retired since construction.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired_base
            + match &self.cursor {
                Cursor::Bytecode(b) => b.retired(),
                Cursor::Classic(c, _) => c.retired(),
            }
    }

    /// Limit the number of instructions that may retire before
    /// [`Trap::OutOfFuel`]; defaults to unlimited.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
        let local = fuel.saturating_sub(self.retired_base);
        match &mut self.cursor {
            Cursor::Bytecode(b) => b.set_fuel(local),
            Cursor::Classic(c, _) => c.set_fuel(local),
        }
    }

    /// Allocate and zero-fill an array; convenience for workload setup.
    ///
    /// # Errors
    /// [`Trap::OutOfMemory`] if the heap limit would be exceeded.
    pub fn alloc_array(&mut self, elems: u64, elem_size: u32) -> Result<u64, Trap> {
        self.mem().alloc(elems * u64::from(elem_size))
    }

    /// Switch the cursor, folding the outgoing cursor's retired count
    /// into the base and re-deriving the new cursor's local fuel so the
    /// facade-level budget is unaffected by the switch. The classic
    /// tier owns its memory, so switching away (or back) migrates the
    /// heap.
    fn switch_cursor(&mut self, make: impl FnOnce() -> Cursor) {
        self.retired_base = self.retired();
        let mut next = make();
        if let Cursor::Classic(old, _) = &mut self.cursor {
            // Leaving classic: adopt its heap as the facade's.
            self.mem = std::mem::replace(old.mem(), Memory::with_limit(0));
        }
        if let Cursor::Classic(new, _) = &mut next {
            // Entering classic: hand the facade's heap over.
            *new.mem() = std::mem::replace(&mut self.mem, Memory::with_limit(0));
        }
        self.cursor = next;
        let local = self.fuel.saturating_sub(self.retired_base);
        match &mut self.cursor {
            Cursor::Bytecode(b) => b.set_fuel(local),
            Cursor::Classic(c, _) => c.set_fuel(local),
        }
    }

    /// The bytecode cursor, switching to it if another tier is active.
    fn ensure_bytecode(&mut self) -> &mut BcEngine {
        if !matches!(self.cursor, Cursor::Bytecode(_)) {
            self.switch_cursor(|| Cursor::Bytecode(BcEngine::new()));
        }
        match &mut self.cursor {
            Cursor::Bytecode(b) => b,
            _ => unreachable!(),
        }
    }

    /// Start the classic cursor on `module`, switching to it if another
    /// tier is active.
    fn start_classic(&mut self, module: Arc<Module>, func: FuncId, args: &[RtVal]) {
        if !matches!(self.cursor, Cursor::Classic(..)) {
            self.switch_cursor(|| {
                Cursor::Classic(Box::new(ClassicInterp::with_heap_limit(0)), None)
            });
        }
        let Cursor::Classic(c, walked) = &mut self.cursor else {
            unreachable!("switched to classic above")
        };
        c.start(&module, func, args);
        *walked = Some(module);
    }

    /// Route an image start to the tier-appropriate cursor (the shared
    /// tail of every image-bearing entry point).
    fn start_image(&mut self, image: Arc<ExecImage>, func: FuncId, args: &[RtVal]) {
        if self.tier == Tier::Bytecode {
            if let Some(bc) = image.bytecode() {
                self.ensure_bytecode().start(bc, func, args);
                return;
            }
            // Lowering failed (capacity overflow): run this image on the
            // classic tier. `ExecImage::bytecode` warns once per image.
        }
        self.start_classic(Arc::clone(&image.module), func, args);
    }

    /// Begin executing `func` with `args`, lowering `module` into a
    /// fresh [`ExecImage`] (or walking a copy of it on the classic
    /// tier). Any previous cursor state is discarded; allocated memory
    /// is retained.
    ///
    /// # Panics
    /// If the argument count does not match the signature.
    pub fn start(&mut self, module: &Module, func: FuncId, args: &[RtVal]) {
        if self.tier == Tier::Classic {
            self.start_classic(Arc::new(module.clone()), func, args);
            return;
        }
        self.start_image(Arc::new(ExecImage::build(module)), func, args);
    }

    /// Begin executing `func` from an already-built image, skipping
    /// the lowering pass, on the selected tier.
    ///
    /// # Panics
    /// If the argument count does not match the signature.
    pub fn start_with_image(&mut self, image: Arc<ExecImage>, func: FuncId, args: &[RtVal]) {
        self.start_image(image, func, args);
    }

    /// Run to completion with the given observer.
    ///
    /// # Errors
    /// Any [`Trap`] raised during execution.
    pub fn run(
        &mut self,
        module: &Module,
        func: FuncId,
        args: &[RtVal],
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<Option<RtVal>, Trap> {
        self.start(module, func, args);
        self.run_to_done(obs)
    }

    /// Run to completion from an already-built image, skipping the
    /// lowering pass (the amortised shape every repeated-simulation caller
    /// wants; the throughput bench and multicore runner use it).
    ///
    /// # Errors
    /// Any [`Trap`] raised during execution.
    pub fn run_with_image(
        &mut self,
        image: Arc<ExecImage>,
        func: FuncId,
        args: &[RtVal],
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<Option<RtVal>, Trap> {
        self.start_image(image, func, args);
        self.run_to_done(obs)
    }

    /// Run the active cursor to completion.
    fn run_to_done(
        &mut self,
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<Option<RtVal>, Trap> {
        match &mut self.cursor {
            Cursor::Bytecode(b) => b.run_to_done(&mut self.mem, obs),
            Cursor::Classic(c, walked) => {
                let module = walked.as_deref().expect("run without a started cursor");
                let mut obs = DynObs(obs);
                loop {
                    if let Step::Done(v) = c.step(module, &mut obs)? {
                        return Ok(v);
                    }
                }
            }
        }
    }

    /// Execute and retire exactly one instruction of the active cursor
    /// (plus the phi copies of a taken branch) — [`Interp::run_steps`]
    /// with a budget of one.
    ///
    /// # Errors
    /// Any [`Trap`] raised by the instruction.
    ///
    /// # Panics
    /// If called without an active cursor (no `start`, or after `Done`).
    #[inline]
    pub fn step(&mut self, obs: &mut (impl ExecObserver + ?Sized)) -> Result<Step, Trap> {
        self.run_steps(1, obs)
    }

    /// Execute up to `n` steps of the active cursor — one instruction
    /// each (plus the phi copies of a taken branch), every completed
    /// step followed by [`ExecObserver::end_step`] — stopping early when
    /// the top-level function returns or a step traps. Needs no source
    /// module: the natural shape for callers that started from a
    /// pre-built image ([`Interp::start_with_image`]). On the bytecode
    /// tier the steps run inside one frame loop, so a batch costs what
    /// the run-to-completion loop does, not `n` re-entries; events, fuel
    /// accounting and the parked cursor are those of `n` single steps.
    ///
    /// Returns [`Step::Continue`] when the budget ran out first.
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
        obs: &mut (impl ExecObserver + ?Sized),
    ) -> Result<Step, Trap> {
        match &mut self.cursor {
            Cursor::Bytecode(b) => b.run_steps(n, &mut self.mem, obs),
            Cursor::Classic(c, walked) => {
                let module = walked.as_deref().expect("step() without a started cursor");
                let mut obs = DynObs(obs);
                for _ in 0..n {
                    let step = c.step(module, &mut obs)?;
                    obs.end_step();
                    if let Step::Done(_) = step {
                        return Ok(step);
                    }
                }
                Ok(Step::Continue)
            }
        }
    }
}

#[inline(always)]
pub(crate) fn decode_scalar(raw: u64, ty: Type) -> RtVal {
    match ty {
        Type::F64 => RtVal::Float(f64::from_bits(raw)),
        Type::I1 => RtVal::Int(i64::from(raw & 1 != 0)),
        Type::I8 => RtVal::Int(raw as u8 as i64),
        Type::I16 => RtVal::Int(raw as u16 as i64),
        Type::I32 => RtVal::Int(raw as u32 as i64),
        Type::I64 | Type::Ptr => RtVal::Int(raw as i64),
    }
}

#[inline(always)]
pub(crate) fn encode_scalar(v: RtVal) -> u64 {
    match v {
        RtVal::Int(x) => x as u64,
        RtVal::Float(x) => x.to_bits(),
    }
}

#[inline(always)]
pub(crate) fn eval_binary(op: BinOp, lhs: RtVal, rhs: RtVal) -> Result<RtVal, Trap> {
    if op.is_float() {
        let (a, b) = (lhs.as_f64(), rhs.as_f64());
        let r = match op {
            BinOp::Fadd => a + b,
            BinOp::Fsub => a - b,
            BinOp::Fmul => a * b,
            BinOp::Fdiv => a / b,
            _ => unreachable!(),
        };
        return Ok(RtVal::Float(r));
    }
    let (a, b) = (lhs.as_int(), rhs.as_int());
    let r = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Sdiv => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::Udiv => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            ((a as u64) / (b as u64)) as i64
        }
        BinOp::Srem => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::Urem => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            ((a as u64) % (b as u64)) as i64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Lshr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        BinOp::Ashr => a.wrapping_shr(b as u32 & 63),
        _ => unreachable!("float ops handled above"),
    };
    Ok(RtVal::Int(r))
}

#[inline(always)]
pub(crate) fn eval_icmp(pred: Pred, a: i64, b: i64) -> bool {
    let (ua, ub) = (a as u64, b as u64);
    match pred {
        Pred::Eq => a == b,
        Pred::Ne => a != b,
        Pred::Slt => a < b,
        Pred::Sle => a <= b,
        Pred::Sgt => a > b,
        Pred::Sge => a >= b,
        Pred::Ult => ua < ub,
        Pred::Ule => ua <= ub,
        Pred::Ugt => ua > ub,
        Pred::Uge => ua >= ub,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CastOp;
    use crate::verifier::verify_module;

    fn run_fn(m: &Module, name: &str, args: &[RtVal]) -> Result<Option<RtVal>, Trap> {
        verify_module(m).expect("module verifies");
        let f = m.find_function(name).expect("function exists");
        let mut interp = Interp::new();
        interp.run(m, f, args, &mut NullObserver)
    }

    #[test]
    fn arithmetic_and_select() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64, Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let (x, y) = (b.arg(0), b.arg(1));
            let mn = b.smin(x, y);
            b.ret(Some(mn));
        }
        let r = run_fn(&m, "f", &[RtVal::Int(9), RtVal::Int(4)]).unwrap();
        assert_eq!(r, Some(RtVal::Int(4)));
        let r = run_fn(&m, "f", &[RtVal::Int(-3), RtVal::Int(4)]).unwrap();
        assert_eq!(r, Some(RtVal::Int(-3)));
    }

    #[test]
    fn loop_sums_array() {
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
            let addr = b.gep(a, i, 4);
            let narrow = b.load(Type::I32, addr);
            let val = b.cast(CastOp::Zext, narrow, Type::I64);
            let acc2 = b.add(acc, val);
            let one = b.const_i64(1);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(acc, body, acc2);
            b.br(header);
            b.switch_to(exit);
            b.ret(Some(acc));
        }
        verify_module(&m).unwrap();
        let f = m.find_function("sum").unwrap();
        let mut interp = Interp::new();
        let base = interp.alloc_array(10, 4).unwrap();
        for i in 0..10u64 {
            interp.mem().write(base + i * 4, 4, i + 1).unwrap();
        }
        let r = interp
            .run(
                &m,
                f,
                &[RtVal::Int(base as i64), RtVal::Int(10)],
                &mut NullObserver,
            )
            .unwrap();
        assert_eq!(r, Some(RtVal::Int(55)));
    }

    #[test]
    fn phi_parallel_copy_swap() {
        // Classic swap test: (a, b) = (b, a) each iteration; after an odd
        // number of iterations the values are exchanged. Sequential phi
        // evaluation would corrupt one of them.
        let mut m = Module::new("t");
        let fid = m.declare_function("swap", &[Type::I64, Type::I64, Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let (x0, y0, n) = (b.arg(0), b.arg(1), b.arg(2));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let a = b.phi(Type::I64, &[(entry, x0)]);
            let bb = b.phi(Type::I64, &[(entry, y0)]);
            let c = b.icmp(Pred::Slt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let one = b.const_i64(1);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(a, body, bb); // a <- b
            b.add_phi_incoming(bb, body, a); // b <- a (parallel!)
            b.br(header);
            b.switch_to(exit);
            // return a * 1000 + b
            let k = b.const_i64(1000);
            let am = b.mul(a, k);
            let r = b.add(am, bb);
            b.ret(Some(r));
        }
        let r = run_fn(&m, "swap", &[RtVal::Int(1), RtVal::Int(2), RtVal::Int(3)]).unwrap();
        // After 3 swaps: a=2, b=1.
        assert_eq!(r, Some(RtVal::Int(2001)));
    }

    #[test]
    fn out_of_bounds_load_traps() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let p = b.arg(0);
            let v = b.load(Type::I64, p);
            b.ret(Some(v));
        }
        let err = run_fn(&m, "f", &[RtVal::Int(0x20)]).unwrap_err();
        assert!(matches!(err, Trap::MemFault { .. }));
    }

    #[test]
    fn prefetch_to_bad_address_does_not_trap() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let p = b.arg(0);
            b.prefetch(p);
            b.ret(None);
        }
        let mut seen_invalid = false;
        struct Watch<'a>(&'a mut bool);
        impl ExecObserver for Watch<'_> {
            fn on_event(&mut self, ev: &Event<'_>) {
                if let EventKind::Prefetch { valid, .. } = ev.kind {
                    if !valid {
                        *self.0 = true;
                    }
                }
            }
        }
        verify_module(&m).unwrap();
        let f = m.find_function("f").unwrap();
        let mut interp = Interp::new();
        interp
            .run(&m, f, &[RtVal::Int(0x20)], &mut Watch(&mut seen_invalid))
            .unwrap();
        assert!(seen_invalid, "invalid prefetch should be flagged, not trap");
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64, Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let d = b.binary(BinOp::Sdiv, b.arg(0), b.arg(1));
            b.ret(Some(d));
        }
        let err = run_fn(&m, "f", &[RtVal::Int(5), RtVal::Int(0)]).unwrap_err();
        assert_eq!(err, Trap::DivByZero);
    }

    #[test]
    fn fuel_limits_execution() {
        let mut m = Module::new("t");
        let fid = m.declare_function("spin", &[], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let entry = b.entry_block();
            let lp = b.create_block("lp");
            b.br(lp);
            b.switch_to(lp);
            b.br(lp);
            let _ = entry;
        }
        verify_module(&m).unwrap();
        let f = m.find_function("spin").unwrap();
        let mut interp = Interp::new();
        interp.set_fuel(1000);
        let err = interp.run(&m, f, &[], &mut NullObserver).unwrap_err();
        assert_eq!(err, Trap::OutOfFuel);
    }

    #[test]
    fn calls_pass_args_and_return() {
        let mut m = Module::new("t");
        let sq = m.declare_function("sq", &[Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(sq));
            let x = b.arg(0);
            let r = b.mul(x, x);
            b.ret(Some(r));
        }
        let fid = m.declare_function("f", &[Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let x = b.arg(0);
            let s = b.call(sq, &[x], Some(Type::I64));
            let one = b.const_i64(1);
            let r = b.add(s, one);
            b.ret(Some(r));
        }
        let r = run_fn(&m, "f", &[RtVal::Int(7)]).unwrap();
        assert_eq!(r, Some(RtVal::Int(50)));
    }

    #[test]
    fn counting_observer_counts() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr], None);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let p = b.arg(0);
            let v = b.load(Type::I64, p);
            b.store(v, p);
            b.prefetch(p);
            b.ret(None);
        }
        verify_module(&m).unwrap();
        let f = m.find_function("f").unwrap();
        let mut interp = Interp::new();
        let base = interp.alloc_array(1, 8).unwrap();
        let mut counts = CountingObserver::default();
        interp
            .run(&m, f, &[RtVal::Int(base as i64)], &mut counts)
            .unwrap();
        assert_eq!(counts.loads, 1);
        assert_eq!(counts.stores, 1);
        assert_eq!(counts.prefetches, 1);
        assert_eq!(counts.total, 4);
    }

    #[test]
    fn narrow_loads_zero_extend() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let v = b.load(Type::I8, b.arg(0));
            let wide = b.cast(CastOp::Zext, v, Type::I64);
            b.ret(Some(wide));
        }
        verify_module(&m).unwrap();
        let f = m.find_function("f").unwrap();
        let mut interp = Interp::new();
        let base = interp.alloc_array(1, 8).unwrap();
        interp.mem().write(base, 1, 0xFF).unwrap();
        let r = interp
            .run(&m, f, &[RtVal::Int(base as i64)], &mut NullObserver)
            .unwrap();
        assert_eq!(r, Some(RtVal::Int(255)));
    }

    #[test]
    fn shared_image_across_interpreters() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let two = b.const_i64(2);
            let r = b.mul(b.arg(0), two);
            b.ret(Some(r));
        }
        let image = Arc::new(ExecImage::build(&m));
        for i in 0..4i64 {
            let mut interp = Interp::new();
            interp.start_with_image(Arc::clone(&image), fid, &[RtVal::Int(i)]);
            let r = loop {
                match interp.step(&mut NullObserver).unwrap() {
                    Step::Continue => {}
                    Step::Done(v) => break v,
                }
            };
            assert_eq!(r, Some(RtVal::Int(2 * i)));
        }
    }

    #[test]
    fn image_starts_run_on_the_classic_tier() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::I64, Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let r = b.add(b.arg(0), b.arg(1));
            b.ret(Some(r));
        }
        let image = Arc::new(ExecImage::build(&m));
        let args = [RtVal::Int(30), RtVal::Int(12)];
        let mut interp = Interp::with_tier(Tier::Classic);
        let r = interp
            .run_with_image(Arc::clone(&image), fid, &args, &mut NullObserver)
            .unwrap();
        assert_eq!(r, Some(RtVal::Int(42)));
        assert_eq!(interp.retired(), 2);
        // Module-free stepping walks the module the image carries.
        interp.start_with_image(image, fid, &args);
        assert_eq!(interp.run_steps(1, &mut NullObserver), Ok(Step::Continue));
        assert_eq!(
            interp.run_steps(8, &mut NullObserver),
            Ok(Step::Done(Some(RtVal::Int(42))))
        );
        assert_eq!(interp.retired(), 4);
    }
}
