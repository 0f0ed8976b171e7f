//! Differential test: the default tier against the classic oracle.
//!
//! The default `Interp` tier (bytecode, `swpf_ir::bytecode`) replaced
//! the tree-walking interpreter on every simulation path, so it must be
//! *observably identical*: same architectural results (return value,
//! memory, retired count, workload checksum) and the same observer event
//! stream — every event's pc, frame id, result id, kind (with
//! addresses), operand list, and position in retire order. This suite runs each of the seven
//! workloads' baseline and manual-prefetch modules, the auto-pass output,
//! and a synthetic all-opcode torture kernel through both engines and
//! compares everything, including trap behaviour.

use swpf::workloads::{suite, Scale, Workload};
use swpf_ir::classic::ClassicInterp;
use swpf_ir::interp::{Event, EventKind, ExecObserver, Interp, RtVal, Trap, HEAP_BASE};
use swpf_ir::prelude::*;

/// An owned copy of one observer event.
#[derive(Debug, Clone, PartialEq)]
struct OwnedEvent {
    pc: u64,
    frame: u64,
    result: u32,
    kind: EventKind,
    operands: Vec<u32>,
}

#[derive(Default)]
struct Recorder {
    events: Vec<OwnedEvent>,
}

impl ExecObserver for Recorder {
    fn on_event(&mut self, ev: &Event<'_>) {
        self.events.push(OwnedEvent {
            pc: ev.pc,
            frame: ev.frame,
            result: ev.result.0,
            kind: ev.kind,
            operands: ev.operands.iter().map(|v| v.0).collect(),
        });
    }
}

/// FNV-1a over all allocated simulated memory.
fn mem_digest(mem: &swpf_ir::interp::Memory) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let len = mem.allocated();
    let mut off = 0u64;
    while off + 8 <= len {
        let v = mem.read(HEAP_BASE + off, 8).expect("in bounds");
        h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        off += 8;
    }
    while off < len {
        let v = mem.read(HEAP_BASE + off, 1).expect("in bounds");
        h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        off += 1;
    }
    h
}

struct Outcome {
    result: Result<Option<RtVal>, Trap>,
    retired: u64,
    mem_digest: u64,
    checksum: Option<u64>,
    events: Vec<OwnedEvent>,
}

fn run_classic(m: &Module, w: &dyn Workload) -> Outcome {
    let mut interp = ClassicInterp::new();
    let args = w.setup_classic(&mut interp);
    let mut rec = Recorder::default();
    let f = m.find_function("kernel").expect("kernel exists");
    let result = interp.run(m, f, &args, &mut rec);
    Outcome {
        retired: interp.retired(),
        mem_digest: mem_digest(interp.mem_ref()),
        checksum: None, // the exec side computes the workload checksum
        result,
        events: rec.events,
    }
}

fn run_exec(m: &Module, w: &dyn Workload) -> Outcome {
    let mut interp = Interp::new();
    let args = w.setup(&mut interp);
    let mut rec = Recorder::default();
    let f = m.find_function("kernel").expect("kernel exists");
    let result = interp.run(m, f, &args, &mut rec);
    let checksum = match &result {
        Ok(ret) => Some(w.checksum(&interp, &args, *ret)),
        Err(_) => None,
    };
    Outcome {
        retired: interp.retired(),
        mem_digest: mem_digest(interp.mem_ref()),
        checksum,
        result,
        events: rec.events,
    }
}

/// Workload setup targets the facade `Interp`; give the classic engine
/// the same deterministic initialisation through a memory transplant:
/// run setup on a scratch facade, then copy the memory across.
trait ClassicSetup {
    fn setup_classic(&self, interp: &mut ClassicInterp) -> Vec<RtVal>;
}

impl ClassicSetup for dyn Workload + '_ {
    fn setup_classic(&self, interp: &mut ClassicInterp) -> Vec<RtVal> {
        let mut scratch = Interp::new();
        let args = self.setup(&mut scratch);
        *interp.mem() = scratch.mem_ref().clone();
        args
    }
}

fn assert_identical(name: &str, classic: &Outcome, exec: &Outcome) {
    assert_eq!(classic.result, exec.result, "{name}: architectural result");
    assert_eq!(classic.retired, exec.retired, "{name}: retired count");
    assert_eq!(classic.mem_digest, exec.mem_digest, "{name}: final memory");
    assert_eq!(
        classic.events.len(),
        exec.events.len(),
        "{name}: event count"
    );
    for (i, (c, e)) in classic.events.iter().zip(&exec.events).enumerate() {
        assert_eq!(c, e, "{name}: event #{i} diverges");
    }
}

#[test]
fn all_workloads_baseline_and_manual_match_classic() {
    for w in suite(Scale::Test) {
        for (variant, m) in [
            ("baseline", w.build_baseline()),
            ("manual", w.build_manual(64)),
        ] {
            swpf_ir::verifier::verify_module(&m).expect("workload verifies");
            let name = format!("{}/{variant}", w.name());
            let classic = run_classic(&m, w.as_ref());
            let exec = run_exec(&m, w.as_ref());
            assert_identical(&name, &classic, &exec);
            assert!(
                exec.checksum.is_some(),
                "{name}: workload checksum computed"
            );
            assert!(
                exec.events
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::Load { .. } | EventKind::Store { .. })),
                "{name}: stream exercises memory"
            );
        }
    }
}

#[test]
fn auto_pass_output_matches_classic() {
    for w in suite(Scale::Test) {
        let mut m = w.build_baseline();
        swpf::pass::run_on_module(&mut m, &swpf::pass::PassConfig::default());
        swpf_ir::verifier::verify_module(&m).expect("pass output verifies");
        let name = format!("{}/auto", w.name());
        let classic = run_classic(&m, w.as_ref());
        let exec = run_exec(&m, w.as_ref());
        assert_identical(&name, &classic, &exec);
    }
}

/// A synthetic kernel touching every opcode family: float and integer
/// arithmetic, casts (trunc/sext/zext/ptr), select, alloc, gep,
/// narrow loads/stores, prefetch, calls, phis, and both branch kinds.
fn torture_module() -> Module {
    let mut m = Module::new("torture");
    let helper = m.declare_function("mix", &[Type::I64, Type::I64], Type::I64);
    {
        let mut b = FunctionBuilder::new(m.function_mut(helper));
        let (x, y) = (b.arg(0), b.arg(1));
        let s = b.add(x, y);
        let d = b.binary(BinOp::Xor, s, y);
        b.ret(Some(d));
    }
    let fid = m.declare_function("kernel", &[Type::I64], Type::I64);
    {
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let n = b.arg(0);
        let entry = b.entry_block();
        let eight = b.const_i64(8);
        let buf = b.alloc(n, 8);
        let fbuf = b.alloc(n, 8);
        let header = b.create_block("h");
        let body = b.create_block("b");
        let odd = b.create_block("odd");
        let even = b.create_block("even");
        let latch = b.create_block("latch");
        let exit = b.create_block("x");
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, &[(entry, zero)]);
        let acc = b.phi(Type::I64, &[(entry, zero)]);
        let facc = {
            let fz = b.constant(Constant::Float(0.0));
            b.phi(Type::F64, &[(entry, fz)])
        };
        let c = b.icmp(Pred::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        // Store i (narrow) and a float, prefetch ahead, call the helper.
        let g = b.gep(buf, i, 8);
        let i32v = b.cast(CastOp::Trunc, i, Type::I32);
        b.store(i32v, g);
        let narrow = b.load(Type::I32, g);
        let wide = b.cast(CastOp::Sext, narrow, Type::I64);
        let fg = b.gep(fbuf, i, 8);
        let fv = {
            let half = b.constant(Constant::Float(0.5));
            let fone = b.constant(Constant::Float(1.0));
            b.binary(BinOp::Fadd, half, fone)
        };
        b.store(fv, fg);
        let fl = b.load(Type::F64, fg);
        let f2 = b.binary(BinOp::Fmul, fl, fl);
        let fnext = b.binary(BinOp::Fadd, facc, f2);
        let ahead = b.add(i, eight);
        // `fbuf` is the heap's last allocation, so the look-ahead runs
        // past allocated memory near the end of the loop.
        let pg = b.gep(fbuf, ahead, 8);
        b.prefetch(pg); // often invalid near the end: must not trap
        let mixed = b.call(helper, &[wide, acc], Some(Type::I64));
        let parity = b.binary(BinOp::And, i, one);
        let is_odd = b.icmp(Pred::Ne, parity, zero);
        b.cond_br(is_odd, odd, even);
        b.switch_to(odd);
        let odd_v = b.mul(mixed, one);
        b.br(latch);
        b.switch_to(even);
        let sel = b.select(is_odd, zero, one);
        let even_v = b.add(mixed, sel);
        b.br(latch);
        b.switch_to(latch);
        let merged = b.phi(Type::I64, &[(odd, odd_v), (even, even_v)]);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, latch, i2);
        b.add_phi_incoming(acc, latch, merged);
        b.add_phi_incoming(facc, latch, fnext);
        b.br(header);
        b.switch_to(exit);
        let fbits = b.cast(CastOp::PtrToInt, buf, Type::I64);
        let small = b.cast(CastOp::Trunc, fbits, Type::I16);
        let back = b.cast(CastOp::Zext, small, Type::I64);
        let r = b.add(acc, back);
        b.ret(Some(r));
    }
    m
}

#[test]
fn torture_kernel_matches_classic() {
    let m = torture_module();
    swpf_ir::verifier::verify_module(&m).expect("torture verifies");
    let f = m.find_function("kernel").unwrap();
    let mut ci = ClassicInterp::new();
    let mut crec = Recorder::default();
    let cres = ci.run(&m, f, &[RtVal::Int(64)], &mut crec);
    let mut xi = Interp::new();
    let mut xrec = Recorder::default();
    let xres = xi.run(&m, f, &[RtVal::Int(64)], &mut xrec);
    assert_eq!(cres, xres, "torture: result");
    assert!(cres.is_ok(), "torture runs cleanly");
    assert_eq!(ci.retired(), xi.retired(), "torture: retired");
    assert_eq!(
        mem_digest(ci.mem_ref()),
        mem_digest(xi.mem_ref()),
        "torture: memory"
    );
    assert_eq!(crec.events, xrec.events, "torture: event stream");
    assert!(
        xrec.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Prefetch { valid: false, .. })),
        "torture exercises the invalid-prefetch path"
    );
    assert!(
        xrec.events.iter().any(|e| e.kind == EventKind::Call),
        "torture exercises calls"
    );
}

#[test]
fn traps_and_fuel_match_classic() {
    // Division by zero mid-stream.
    let mut m = Module::new("t");
    let fid = m.declare_function("kernel", &[Type::I64], Type::I64);
    {
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let x = b.arg(0);
        let one = b.const_i64(1);
        let y = b.add(x, one);
        let zero = b.const_i64(0);
        let d = b.binary(BinOp::Sdiv, y, zero);
        b.ret(Some(d));
    }
    let f = fid;
    for fuel in [None, Some(1u64), Some(2)] {
        let mut ci = ClassicInterp::new();
        let mut xi = Interp::new();
        if let Some(fu) = fuel {
            ci.set_fuel(fu);
            xi.set_fuel(fu);
        }
        let mut crec = Recorder::default();
        let mut xrec = Recorder::default();
        let cres = ci.run(&m, f, &[RtVal::Int(5)], &mut crec);
        let xres = xi.run(&m, f, &[RtVal::Int(5)], &mut xrec);
        assert_eq!(cres, xres, "trap parity at fuel {fuel:?}");
        assert!(cres.is_err());
        assert_eq!(crec.events, xrec.events, "events up to trap, fuel {fuel:?}");
        assert_eq!(ci.retired(), xi.retired(), "retired at trap, fuel {fuel:?}");
    }

    // Fuel exhaustion inside a phi burst (spin loop).
    let mut m2 = Module::new("spin");
    let sid = m2.declare_function("kernel", &[], None);
    {
        let mut b = FunctionBuilder::new(m2.function_mut(sid));
        let entry = b.entry_block();
        let lp = b.create_block("lp");
        let zero = b.const_i64(0);
        b.br(lp);
        b.switch_to(lp);
        let p = b.phi(Type::I64, &[(entry, zero)]);
        b.add_phi_incoming(p, lp, p);
        b.br(lp);
    }
    for fuel in 1..12u64 {
        let mut ci = ClassicInterp::new();
        let mut xi = Interp::new();
        ci.set_fuel(fuel);
        xi.set_fuel(fuel);
        let mut crec = Recorder::default();
        let mut xrec = Recorder::default();
        let cres = ci.run(&m2, sid, &[], &mut crec);
        let xres = xi.run(&m2, sid, &[], &mut xrec);
        assert_eq!(cres, xres, "spin fuel {fuel}");
        assert_eq!(cres, Err(Trap::OutOfFuel));
        assert_eq!(crec.events, xrec.events, "spin events at fuel {fuel}");
        assert_eq!(ci.retired(), xi.retired(), "spin retired at fuel {fuel}");
    }
}
