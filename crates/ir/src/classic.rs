//! The original tree-walking interpreter: the classic tier.
//!
//! [`ClassicInterp`] executes IR by re-reading the [`Module`] on every
//! dynamic instruction: block instruction lists are indexed, `InstKind`
//! payloads are matched, operand types are looked up, and phi incomings
//! are searched at each block entry. It is the engine the repository
//! originally shipped and is retained verbatim (modulo the rename) for
//! three reasons:
//!
//! 1. **Differential testing.** The bytecode tier ([`crate::bytecode`])
//!    must produce exactly the same architectural results *and* the same
//!    observer event stream. The suites run every workload through both
//!    tiers and compare (see `tests/exec_differential.rs` and
//!    `tests/bytecode_differential.rs` in the facade crate).
//! 2. **Fallback.** An image too large for the bytecode encoding runs
//!    here, walking the module the [`crate::exec::ExecImage`] carries.
//! 3. **Semantics documentation.** When the bytecode lowering is in
//!    doubt, this file is the specification: it maps one-to-one onto the
//!    IR.
//!
//! It is reached through [`crate::interp::Interp`] under
//! `SWPF_TIER=classic` (or [`crate::interp::Tier::Classic`]) on every
//! entry point, image starts included; new code should use that facade,
//! whose default bytecode tier is substantially faster.

use crate::block::BlockId;
use crate::function::FuncId;
use crate::inst::{CastOp, InstKind};
use crate::interp::{
    decode_scalar, encode_scalar, eval_binary, eval_icmp, Event, EventKind, ExecObserver, Memory,
    RtVal, Step, Trap,
};
use crate::module::Module;
use crate::value::{Constant, ValueId, ValueKind};

struct Frame {
    func: FuncId,
    frame_id: u64,
    regs: Vec<RtVal>,
    block: u32,
    inst_idx: usize,
    /// Value id in the *caller* frame to receive our return value.
    ret_to: Option<ValueId>,
}

fn make_frame(
    module: &Module,
    func: FuncId,
    args: &[RtVal],
    ret_to: Option<ValueId>,
    frame_id: u64,
) -> Frame {
    let f = module.function(func);
    let mut regs = vec![RtVal::Int(0); f.num_values()];
    for (i, a) in args.iter().enumerate() {
        regs[i] = *a;
    }
    // Pre-materialise constants so operand reads are a plain index.
    for (idx, slot) in regs.iter_mut().enumerate() {
        if let ValueKind::Const(c) = &f.value(ValueId(idx as u32)).kind {
            *slot = match c {
                Constant::Int(v, _) => RtVal::Int(*v),
                Constant::Float(v) => RtVal::Float(*v),
            };
        }
    }
    Frame {
        func,
        frame_id,
        regs,
        block: f.entry().0,
        inst_idx: 0,
        ret_to,
    }
}

/// The reference interpreter: simulated memory plus a resumable cursor,
/// decoding the module afresh on every retired instruction.
pub struct ClassicInterp {
    mem: Memory,
    frames: Vec<Frame>,
    next_frame_id: u64,
    fuel: u64,
    retired: u64,
    max_depth: usize,
    scratch_ops: Vec<ValueId>,
    phi_buf: Vec<(ValueId, RtVal, ValueId)>,
}

impl Default for ClassicInterp {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassicInterp {
    /// Create an interpreter with a 1 GiB heap limit.
    #[must_use]
    pub fn new() -> Self {
        Self::with_heap_limit(1 << 30)
    }

    /// Create an interpreter with an explicit heap limit in bytes.
    #[must_use]
    pub fn with_heap_limit(limit: u64) -> Self {
        ClassicInterp {
            mem: Memory::with_limit(limit),
            frames: Vec::new(),
            next_frame_id: 0,
            fuel: u64::MAX,
            retired: 0,
            max_depth: 1 << 10,
            scratch_ops: Vec::new(),
            phi_buf: Vec::new(),
        }
    }

    /// Access the simulated memory (e.g. to initialise workload arrays).
    pub fn mem(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Read-only view of the simulated memory.
    #[must_use]
    pub fn mem_ref(&self) -> &Memory {
        &self.mem
    }

    /// Total instructions retired since construction.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Limit the number of instructions that may retire before
    /// [`Trap::OutOfFuel`]; defaults to unlimited.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Allocate and zero-fill an array; convenience for workload setup.
    ///
    /// # Errors
    /// [`Trap::OutOfMemory`] if the heap limit would be exceeded.
    pub fn alloc_array(&mut self, elems: u64, elem_size: u32) -> Result<u64, Trap> {
        self.mem.alloc(elems * u64::from(elem_size))
    }

    /// Begin executing `func` with `args`. Any previous cursor state is
    /// discarded; allocated memory is retained.
    ///
    /// # Panics
    /// If the argument count does not match the signature.
    pub fn start(&mut self, module: &Module, func: FuncId, args: &[RtVal]) {
        let f = module.function(func);
        assert_eq!(args.len(), f.params.len(), "argument count mismatch");
        self.frames.clear();
        let id = self.next_frame_id;
        self.next_frame_id += 1;
        self.frames.push(make_frame(module, func, args, None, id));
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
        obs: &mut dyn ExecObserver,
    ) -> Result<Option<RtVal>, Trap> {
        self.start(module, func, args);
        loop {
            match self.step(module, obs)? {
                Step::Continue => {}
                Step::Done(v) => return Ok(v),
            }
        }
    }

    /// Execute and retire exactly one instruction.
    ///
    /// `module` must be the same module passed to [`ClassicInterp::start`].
    ///
    /// # Errors
    /// Any [`Trap`] raised by the instruction.
    ///
    /// # Panics
    /// If called without an active cursor (no `start`, or after `Done`).
    #[allow(clippy::too_many_lines)]
    pub fn step(&mut self, module: &Module, obs: &mut dyn ExecObserver) -> Result<Step, Trap> {
        if self.retired >= self.fuel {
            return Err(Trap::OutOfFuel);
        }
        let depth = self.frames.len();
        assert!(depth > 0, "step() without an active cursor");
        let frame = self.frames.last_mut().expect("non-empty");
        let func = frame.func;
        let f = module.function(func);
        let block = BlockId(frame.block);
        let insts = &f.block(block).insts;
        debug_assert!(frame.inst_idx < insts.len(), "fell off block end");
        let v = insts[frame.inst_idx];
        let inst = f.inst(v).expect("placed value is an instruction");
        let pc = (u64::from(func.0) << 32) | u64::from(v.0);
        let frame_id = frame.frame_id;

        self.scratch_ops.clear();
        let mut kind_out = EventKind::Alu;
        let mut advance = true;

        macro_rules! reg {
            ($vid:expr) => {
                frame.regs[$vid.index()]
            };
        }

        match &inst.kind {
            InstKind::Binary { op, lhs, rhs } => {
                self.scratch_ops.push(*lhs);
                self.scratch_ops.push(*rhs);
                let r = eval_binary(*op, reg!(lhs), reg!(rhs))?;
                frame.regs[v.index()] = r;
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                self.scratch_ops.push(*lhs);
                self.scratch_ops.push(*rhs);
                let r = eval_icmp(*pred, reg!(lhs).as_int(), reg!(rhs).as_int());
                frame.regs[v.index()] = RtVal::Int(i64::from(r));
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                self.scratch_ops.push(*cond);
                self.scratch_ops.push(*then_val);
                self.scratch_ops.push(*else_val);
                let c = reg!(cond).as_int() != 0;
                frame.regs[v.index()] = if c { reg!(then_val) } else { reg!(else_val) };
            }
            InstKind::Cast { op, val, to } => {
                self.scratch_ops.push(*val);
                let x = reg!(val).as_int();
                let r = match op {
                    CastOp::Trunc => {
                        let bits = to.bits();
                        let mask = if bits >= 64 {
                            -1i64
                        } else {
                            (1i64 << bits) - 1
                        };
                        x & mask
                    }
                    CastOp::Zext | CastOp::Sext => {
                        // Values are stored canonically; extension depends on
                        // the *source* width, which trunc already masked.
                        // Sext re-signs from the source type width.
                        let from_bits = f.value(*val).ty.expect("cast source typed").bits();
                        if *op == CastOp::Sext && from_bits < 64 {
                            let shift = 64 - from_bits;
                            (x << shift) >> shift
                        } else {
                            x
                        }
                    }
                    CastOp::IntToPtr | CastOp::PtrToInt => x,
                };
                frame.regs[v.index()] = RtVal::Int(r);
            }
            InstKind::Alloc { count, elem_size } => {
                self.scratch_ops.push(*count);
                let n = reg!(count).as_int();
                let size = u64::try_from(n.max(0)).expect("non-negative") * elem_size;
                // Borrow dance: allocation needs &mut self.mem.
                let addr = {
                    let mem = &mut self.mem;
                    mem.alloc(size)?
                };
                self.frames.last_mut().expect("non-empty").regs[v.index()] =
                    RtVal::Int(addr as i64);
                kind_out = EventKind::Alloc;
            }
            InstKind::Gep {
                base,
                index,
                elem_size,
                offset,
            } => {
                self.scratch_ops.push(*base);
                self.scratch_ops.push(*index);
                let b = reg!(base).as_int() as u64;
                let i = reg!(index).as_int();
                let addr = b
                    .wrapping_add((i as u64).wrapping_mul(*elem_size))
                    .wrapping_add(*offset);
                frame.regs[v.index()] = RtVal::Int(addr as i64);
            }
            InstKind::Load { addr, ty } => {
                self.scratch_ops.push(*addr);
                let a = reg!(addr).as_int() as u64;
                let size = ty.size_bytes() as u32;
                let raw = self.mem.read(a, size)?;
                let frame = self.frames.last_mut().expect("non-empty");
                frame.regs[v.index()] = decode_scalar(raw, *ty);
                kind_out = EventKind::Load { addr: a, size };
            }
            InstKind::Store { addr, value } => {
                self.scratch_ops.push(*addr);
                self.scratch_ops.push(*value);
                let a = reg!(addr).as_int() as u64;
                let val = reg!(value);
                let ty = f.value(*value).ty.expect("store of typed value");
                let size = ty.size_bytes() as u32;
                self.mem.write(a, size, encode_scalar(val))?;
                kind_out = EventKind::Store { addr: a, size };
            }
            InstKind::Prefetch { addr } => {
                self.scratch_ops.push(*addr);
                let a = reg!(addr).as_int() as u64;
                // Prefetches never fault: an unmapped hint is dropped.
                let valid = self.mem.is_valid(a, 1);
                kind_out = EventKind::Prefetch { addr: a, valid };
            }
            InstKind::Phi { .. } => {
                unreachable!("phis are executed en masse at block entry")
            }
            InstKind::Call { callee, args } => {
                self.scratch_ops.extend(args.iter().copied());
                if depth >= self.max_depth {
                    return Err(Trap::StackOverflow);
                }
                let argv: Vec<RtVal> = args.iter().map(|a| frame.regs[a.index()]).collect();
                frame.inst_idx += 1; // resume after the call on return
                let id = self.next_frame_id;
                self.next_frame_id += 1;
                let new_frame = make_frame(module, *callee, &argv, Some(v), id);
                self.frames.push(new_frame);
                kind_out = EventKind::Call;
                advance = false;
            }
            InstKind::Br { target } => {
                let t = *target;
                self.enter_block(module, t, block, obs, pc)?;
                kind_out = EventKind::Branch { taken: true };
                advance = false;
            }
            InstKind::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                self.scratch_ops.push(*cond);
                let c = reg!(cond).as_int() != 0;
                let t = if c { *then_bb } else { *else_bb };
                self.enter_block(module, t, block, obs, pc)?;
                kind_out = EventKind::Branch { taken: c };
                advance = false;
            }
            InstKind::Ret { value } => {
                let rv = value.map(|x| {
                    self.scratch_ops.push(x);
                    frame.regs[x.index()]
                });
                let finished = self.frames.pop().expect("non-empty");
                self.retired += 1;
                obs.on_event(&Event {
                    pc,
                    frame: finished.frame_id,
                    result: v,
                    kind: EventKind::Ret,
                    operands: &self.scratch_ops,
                });
                if let Some(parent) = self.frames.last_mut() {
                    if let (Some(slot), Some(val)) = (finished.ret_to, rv) {
                        parent.regs[slot.index()] = val;
                    }
                    return Ok(Step::Continue);
                }
                return Ok(Step::Done(rv));
            }
        }

        self.retired += 1;
        obs.on_event(&Event {
            pc,
            frame: frame_id,
            result: v,
            kind: kind_out,
            operands: &self.scratch_ops,
        });
        if advance {
            self.frames.last_mut().expect("non-empty").inst_idx += 1;
        }
        Ok(Step::Continue)
    }

    /// Branch to `target` from `from`: execute all phis as a parallel copy
    /// and position the cursor after them.
    fn enter_block(
        &mut self,
        module: &Module,
        target: BlockId,
        from: BlockId,
        obs: &mut dyn ExecObserver,
        _branch_pc: u64,
    ) -> Result<(), Trap> {
        let frame = self.frames.last_mut().expect("non-empty");
        let f = module.function(frame.func);
        self.phi_buf.clear();
        let insts = &f.block(target).insts;
        let mut n_phis = 0;
        for &pv in insts {
            let Some(InstKind::Phi { incomings }) = f.inst(pv).map(|i| &i.kind) else {
                break;
            };
            n_phis += 1;
            let (_, iv) = incomings
                .iter()
                .find(|(b, _)| *b == from)
                .expect("verifier guarantees an incoming per predecessor");
            self.phi_buf.push((pv, frame.regs[iv.index()], *iv));
        }
        let func = frame.func;
        let frame_id = frame.frame_id;
        for &(pv, val, _) in &self.phi_buf {
            frame.regs[pv.index()] = val;
        }
        frame.block = target.0;
        frame.inst_idx = n_phis;
        // Report phis after the parallel copy so dependence times are
        // consistent (each phi depends only on its chosen incoming).
        for i in 0..self.phi_buf.len() {
            let (pv, _, iv) = self.phi_buf[i];
            self.retired += 1;
            if self.retired > self.fuel {
                return Err(Trap::OutOfFuel);
            }
            let ops = [iv];
            obs.on_event(&Event {
                pc: (u64::from(func.0) << 32) | u64::from(pv.0),
                frame: frame_id,
                result: pv,
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
    use crate::inst::Pred;
    use crate::interp::NullObserver;
    use crate::types::Type;
    use crate::verifier::verify_module;

    #[test]
    fn classic_engine_still_runs() {
        let mut m = Module::new("t");
        let fid = m.declare_function("sum", &[Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let n = b.arg(0);
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let acc = b.phi(Type::I64, &[(entry, zero)]);
            let c = b.icmp(Pred::Slt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let acc2 = b.add(acc, i);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(acc, body, acc2);
            b.br(header);
            b.switch_to(exit);
            b.ret(Some(acc));
        }
        verify_module(&m).unwrap();
        let f = m.find_function("sum").unwrap();
        let mut interp = ClassicInterp::new();
        let r = interp
            .run(&m, f, &[RtVal::Int(10)], &mut NullObserver)
            .unwrap();
        assert_eq!(r, Some(RtVal::Int(45)));
        assert!(interp.retired() > 0);
    }
}
