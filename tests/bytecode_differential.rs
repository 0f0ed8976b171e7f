//! Differential test: the bytecode tier against the classic oracle.
//!
//! The bytecode engine (`swpf_ir::bytecode`) is the default execution
//! tier behind the `Interp` facade, and it must be *observably
//! identical* to the tree-walking classic interpreter: same
//! architectural results (return value, memory, retired count, workload
//! checksum) and the same retire-event stream — every event's pc, frame
//! id, result id, kind (with addresses), operand list, and position in
//! retire order. This suite runs all seven workloads × {baseline,
//! manual, auto-pass} plus an all-opcode torture kernel through both
//! tiers and compares everything, including trap behaviour, an
//! exhaustive fuel sweep, single-core `SimStats`, and multicore
//! contention schedules.

use std::sync::Arc;
use swpf::workloads::{suite, KernelVariant, Scale, Workload};
use swpf_ir::interp::{Event, EventKind, ExecObserver, Interp, RtVal, Tier, Trap, HEAP_BASE};
use swpf_ir::prelude::*;
use swpf_sim::{MachineConfig, Sim, Source};

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

#[derive(Debug)]
struct Outcome {
    result: Result<Option<RtVal>, Trap>,
    retired: u64,
    mem_digest: u64,
    checksum: Option<u64>,
    events: Vec<OwnedEvent>,
}

/// Run `kernel` on one explicit tier through the facade. The classic
/// tier shares the facade API, so no transplant shim is needed.
fn run_tier(tier: Tier, m: &Module, w: &dyn Workload) -> Outcome {
    let mut interp = Interp::with_tier(tier);
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

fn assert_identical(name: &str, oracle: &Outcome, bc: &Outcome) {
    assert_eq!(oracle.result, bc.result, "{name}: architectural result");
    assert_eq!(oracle.retired, bc.retired, "{name}: retired count");
    assert_eq!(oracle.mem_digest, bc.mem_digest, "{name}: final memory");
    assert_eq!(oracle.checksum, bc.checksum, "{name}: workload checksum");
    assert_eq!(oracle.events.len(), bc.events.len(), "{name}: event count");
    for (i, (o, b)) in oracle.events.iter().zip(&bc.events).enumerate() {
        assert_eq!(o, b, "{name}: event #{i} diverges");
    }
}

#[test]
fn all_workloads_all_variants_match_both_oracles() {
    for w in suite(Scale::Test) {
        let auto = {
            let mut m = w.build_baseline();
            swpf::pass::run_on_module(&mut m, &swpf::pass::PassConfig::default());
            m
        };
        for (variant, m) in [
            ("baseline", w.build_baseline()),
            (
                "manual",
                w.build_variant(KernelVariant::Manual { look_ahead: 64 })
                    .expect("manual supported everywhere"),
            ),
            ("auto", auto),
        ] {
            swpf_ir::verifier::verify_module(&m).expect("workload verifies");
            let name = format!("{}/{variant}", w.name());
            let bytecode = run_tier(Tier::Bytecode, &m, w.as_ref());
            let classic = run_tier(Tier::Classic, &m, w.as_ref());
            assert_identical(&format!("{name} vs classic"), &classic, &bytecode);
            assert!(
                bytecode.checksum.is_some(),
                "{name}: workload checksum computed"
            );
        }
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
        // past allocated memory near the end of the loop: the prefetch
        // path must keep the never-faults contract.
        let pg = b.gep(fbuf, ahead, 8);
        b.prefetch(pg);
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

fn run_plain(tier: Tier, m: &Module, args: &[RtVal], fuel: Option<u64>) -> Outcome {
    let mut interp = Interp::with_tier(tier);
    if let Some(fu) = fuel {
        interp.set_fuel(fu);
    }
    let f = m.find_function("kernel").expect("kernel exists");
    let mut rec = Recorder::default();
    let result = interp.run(m, f, args, &mut rec);
    Outcome {
        retired: interp.retired(),
        mem_digest: mem_digest(interp.mem_ref()),
        checksum: None,
        result,
        events: rec.events,
    }
}

#[test]
fn torture_kernel_matches_both_oracles() {
    let m = torture_module();
    swpf_ir::verifier::verify_module(&m).expect("torture verifies");
    let args = [RtVal::Int(64)];
    let bc = run_plain(Tier::Bytecode, &m, &args, None);
    let classic = run_plain(Tier::Classic, &m, &args, None);
    assert!(bc.result.is_ok(), "torture runs cleanly");
    assert_identical("torture vs classic", &classic, &bc);
    assert!(
        bc.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Prefetch { valid: false, .. })),
        "torture exercises the invalid-prefetch path"
    );
    assert!(
        bc.events.iter().any(|e| e.kind == EventKind::Call),
        "torture exercises calls"
    );
}

/// Division trap mid-stream: identical error, events, retired count.
#[test]
fn traps_match_both_oracles() {
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
    let _ = fid;
    let args = [RtVal::Int(5)];
    for fuel in [None, Some(1u64), Some(2)] {
        let bc = run_plain(Tier::Bytecode, &m, &args, fuel);
        let classic = run_plain(Tier::Classic, &m, &args, fuel);
        assert!(bc.result.is_err(), "kernel must trap");
        assert_identical(&format!("trap vs classic, fuel {fuel:?}"), &classic, &bc);
    }
}

/// Exhaustive fuel sweep over a summing loop: every budget value lands
/// at a different point of the kernel, phi copies included — the
/// bytecode tier must report `OutOfFuel` with exactly the oracle's
/// event prefix.
#[test]
fn exhaustive_fuel_sweep_matches_classic() {
    let mut m = Module::new("sum");
    let fid = m.declare_function("kernel", &[Type::Ptr, Type::I64], Type::I64);
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
    let elems = 6u64;
    let setup = |interp: &mut Interp| -> Vec<RtVal> {
        let base = interp.alloc_array(elems, 8).unwrap();
        for k in 0..elems {
            interp.mem().write(base + k * 8, 8, 3 * k + 1).unwrap();
        }
        vec![RtVal::Int(base as i64), RtVal::Int(elems as i64)]
    };
    // Unfuelled retired count bounds the sweep.
    let full = {
        let mut interp = Interp::with_tier(Tier::Classic);
        let args = setup(&mut interp);
        let f = m.find_function("kernel").unwrap();
        interp
            .run(&m, f, &args, &mut swpf_ir::interp::NullObserver)
            .unwrap();
        interp.retired()
    };
    for fuel in 1..=full {
        let mut outcomes = Vec::new();
        for tier in [Tier::Bytecode, Tier::Classic] {
            let mut interp = Interp::with_tier(tier);
            let args = setup(&mut interp);
            interp.set_fuel(fuel);
            let f = m.find_function("kernel").unwrap();
            let mut rec = Recorder::default();
            let result = interp.run(&m, f, &args, &mut rec);
            outcomes.push(Outcome {
                retired: interp.retired(),
                mem_digest: mem_digest(interp.mem_ref()),
                checksum: None,
                result,
                events: rec.events,
            });
        }
        let (bc, classic) = (&outcomes[0], &outcomes[1]);
        if fuel < full {
            assert_eq!(bc.result, Err(Trap::OutOfFuel), "fuel {fuel} must exhaust");
        }
        assert_identical(&format!("fuel {fuel} vs classic"), classic, bc);
    }
}

/// Single-core timing statistics are tier-invariant: the timing model
/// consumes only the event stream, and the streams are bit-identical.
#[test]
fn sim_stats_identical_across_tiers() {
    let cfg = MachineConfig::haswell();
    for w in suite(Scale::Test).into_iter().take(2) {
        let m = w.build_manual(16);
        let f = m.find_function("kernel").unwrap();
        let image = Arc::new(ExecImage::build(&m));
        let stats: Vec<String> = [Tier::Bytecode, Tier::Classic]
            .iter()
            .map(|&tier| {
                let sim = Sim {
                    machines: &[&cfg],
                    cores: 1,
                    tier,
                    perf: false,
                };
                let runs = sim.run(Source::image(&image, f, &mut |_, i| w.setup(i)));
                format!("{:?}", runs.expect("no trap")[0].stats)
            })
            .collect();
        assert_eq!(stats[0], stats[1], "{}: single-core SimStats", w.name());
    }
}

/// Multicore contention schedules are tier-invariant: the interleaver
/// picks cores by local clock, the clocks advance by event stream, and
/// the streams are identical — so per-core stats (including shared LLC
/// and DRAM contention) must match bit-for-bit.
#[test]
fn multicore_contention_schedule_identical_across_tiers() {
    let cfg = MachineConfig::haswell();
    let w = &suite(Scale::Test)[0]; // IS
    let m = w.build_manual(16);
    let f = m.find_function("kernel").unwrap();
    let image = Arc::new(ExecImage::build(&m));
    for n_cores in [2usize, 4] {
        let per_tier: Vec<String> = [Tier::Bytecode, Tier::Classic]
            .iter()
            .map(|&tier| {
                let sim = Sim {
                    machines: &[&cfg],
                    cores: n_cores,
                    tier,
                    perf: false,
                };
                let runs = sim.run(Source::image(&image, f, &mut |_, i| w.setup(i)));
                format!("{:?}", runs.expect("no trap"))
            })
            .collect();
        assert_eq!(
            per_tier[0], per_tier[1],
            "{n_cores}-core contention schedule diverges between tiers"
        );
    }
}
