//! Property tests for the bytecode tier.
//!
//! Four families:
//! 1. randomly generated kernels (op mix, constants, trip counts drawn
//!    by proptest) must execute observably identically on the bytecode
//!    and classic tiers — results, retired counts, and the full
//!    retire-event stream;
//! 2. batched stepping (`Interp::run_steps(k)`) is `k` single steps:
//!    same events, step marks, outcomes, retired counts and parked
//!    cursor, through calls and with the fuel running out mid-batch;
//! 3. the fixed-width encoding round-trips: `decode(encode(w)) == w`
//!    for every word of every lowered workload function;
//! 4. encodings that do not fit the 14-bit operand fields are rejected
//!    at lowering time (`LowerError`), never reaching dispatch, and run
//!    on the classic tier instead.

use proptest::prelude::*;
use std::sync::Arc;
use swpf_ir::bytecode::{decode_word, BcImage, LowerError};
use swpf_ir::classic::ClassicInterp;
use swpf_ir::interp::{Event, EventKind, ExecObserver, Interp, RtVal, Step, Tier};
use swpf_ir::prelude::*;
use swpf_sim::{MachineConfig, Sim, Source};
use swpf_workloads::{suite, Scale};

#[derive(Default, Debug, PartialEq)]
struct Stream(Vec<(u64, u64, u32, Vec<u32>)>);

impl ExecObserver for Stream {
    fn on_event(&mut self, ev: &Event<'_>) {
        self.0.push((
            ev.pc,
            ev.frame,
            ev.result.0,
            ev.operands.iter().map(|v| v.0).collect(),
        ));
    }
}

/// The binop palette for random kernels: total ops only, so generated
/// programs never trap and every draw runs to completion on all tiers.
const PALETTE: [BinOp; 9] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Lshr,
    BinOp::Ashr,
];

/// Build a kernel from drawn parameters: a counted loop that runs a
/// random binop chain over an accumulator, stores it into a small
/// buffer, loads it back, compares/selects, and prefetches ahead.
fn random_kernel(ops: &[usize], consts: &[i64], trips: i64) -> Module {
    let mut m = Module::new("rand");
    let fid = m.declare_function("kernel", &[Type::Ptr, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new(m.function_mut(fid));
    let (buf, n) = (b.arg(0), b.arg(1));
    let entry = b.entry_block();
    let header = b.create_block("h");
    let body = b.create_block("b");
    let exit = b.create_block("x");
    let zero = b.const_i64(0);
    let one = b.const_i64(1);
    let seven = b.const_i64(7);
    let trips_v = b.const_i64(trips);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::I64, &[(entry, zero)]);
    let acc = b.phi(Type::I64, &[(entry, one)]);
    let c = b.icmp(Pred::Slt, i, trips_v);
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let mut v = acc;
    for (k, &opi) in ops.iter().enumerate() {
        let cst = b.const_i64(consts[k % consts.len()]);
        v = b.binary(PALETTE[opi % PALETTE.len()], v, cst);
    }
    let slot = b.binary(BinOp::And, i, seven);
    let g = b.gep(buf, slot, 8);
    b.store(v, g);
    let back = b.load(Type::I64, g);
    let bigger = b.icmp(Pred::Sgt, back, acc);
    let picked = b.select(bigger, back, acc);
    let mixed = b.binary(BinOp::Xor, picked, v);
    let ahead = b.add(i, n);
    let pg = b.gep(buf, ahead, 8);
    b.prefetch(pg);
    let i2 = b.add(i, one);
    b.add_phi_incoming(i, body, i2);
    b.add_phi_incoming(acc, body, mixed);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(acc));
    m
}

fn run_tier(tier: Tier, m: &Module) -> (Result<Option<RtVal>, Trap>, u64, Stream) {
    let mut interp = Interp::with_tier(tier);
    let buf = interp.alloc_array(8, 8).expect("small alloc");
    let args = [RtVal::Int(buf as i64), RtVal::Int(8)];
    let mut rec = Stream::default();
    let f = m.find_function("kernel").unwrap();
    let result = interp.run(m, f, &args, &mut rec);
    (result, interp.retired(), rec)
}

use swpf_ir::interp::Trap;

/// What a stepping observer sees: events, and the step marks between
/// them.
#[derive(Debug, PartialEq)]
enum Seen {
    Event(u64, u64, u32, EventKind, Vec<u32>),
    EndStep,
}

#[derive(Default)]
struct StepLog(Vec<Seen>);

impl ExecObserver for StepLog {
    fn on_event(&mut self, ev: &Event<'_>) {
        self.0.push(Seen::Event(
            ev.pc,
            ev.frame,
            ev.result.0,
            ev.kind,
            ev.operands.iter().map(|v| v.0).collect(),
        ));
    }

    fn end_step(&mut self) {
        self.0.push(Seen::EndStep);
    }
}

/// One `run_steps` call: its outcome, and `retired()` and the log length
/// right after it.
type Call = (Result<Step, Trap>, u64, usize);

/// A random kernel plus a `driver` that calls it twice, so stepping
/// crosses call and return frames (fresh frame ids each time).
fn random_kernel_with_calls(ops: &[usize], consts: &[i64], trips: i64) -> Module {
    let mut m = random_kernel(ops, consts, trips);
    let kernel = m.find_function("kernel").unwrap();
    let fid = m.declare_function("driver", &[Type::Ptr, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new(m.function_mut(fid));
    let (buf, n) = (b.arg(0), b.arg(1));
    let first = b.call(kernel, &[buf, n], Some(Type::I64));
    let second = b.call(kernel, &[buf, n], Some(Type::I64));
    let sum = b.add(first, second);
    b.ret(Some(sum));
    m
}

/// Drive `driver` to completion in `run_steps(k)` batches (`step`
/// for `k == 1`) under a fuel budget; when the budget runs out the run
/// is refuelled and resumed, so the rest of the log shows where the
/// cursor was parked.
fn run_in_batches(tier: Tier, m: &Module, fuel: u64, k: u64) -> (Vec<Call>, Vec<Seen>) {
    let mut interp = Interp::with_tier(tier);
    let buf = interp.alloc_array(8, 8).expect("small alloc");
    let f = m.find_function("driver").unwrap();
    interp.set_fuel(fuel);
    interp.start_with_image(
        Arc::new(ExecImage::build(m)),
        f,
        &[RtVal::Int(buf as i64), RtVal::Int(8)],
    );
    let mut log = StepLog::default();
    let mut calls = Vec::new();
    loop {
        let outcome = if k == 1 {
            interp.step(&mut log)
        } else {
            interp.run_steps(k, &mut log)
        };
        calls.push((outcome.clone(), interp.retired(), log.0.len()));
        match outcome {
            Ok(Step::Continue) => {}
            Ok(Step::Done(_)) => return (calls, log.0),
            Err(Trap::OutOfFuel) => interp.set_fuel(u64::MAX),
            Err(t) => panic!("generated kernels never trap: {t}"),
        }
    }
}

proptest! {
    // `run_steps(k)` is `k` calls of `step`: the same events and
    // step marks, and after every batch the same outcome, retired count
    // and log position as after the corresponding single step — through
    // calls and returns, and when the fuel runs out mid-batch (raised at
    // the same instruction, cursor parked identically). The classic
    // tier's independent single-step loop must agree with all of it.
    #[test]
    fn run_steps_is_k_single_steps(
        ops in prop::collection::vec(0usize..9, 1..8),
        consts in prop::collection::vec(-1000i64..1000, 1..4),
        trips in 0i64..12,
        fuel in 1u64..600,
    ) {
        let m = random_kernel_with_calls(&ops, &consts, trips);
        swpf_ir::verifier::verify_module(&m).expect("generated kernel verifies");
        let (classic_steps, classic_log) = run_in_batches(Tier::Classic, &m, fuel, 1);
        for tier in [Tier::Bytecode, Tier::Classic] {
            let (steps, log) = run_in_batches(tier, &m, fuel, 1);
            prop_assert_eq!(&log, &classic_log, "{:?} single steps vs classic", tier);
            prop_assert_eq!(&steps, &classic_steps, "{:?} single-step outcomes", tier);
            for k in [7u64, 64, 1000] {
                let (batches, batched_log) = run_in_batches(tier, &m, fuel, k);
                prop_assert_eq!(&batched_log, &log, "{:?} k={} log", tier, k);
                // Walk the single-step record in strides of k; a batch
                // that stopped early stops where the next non-Continue
                // single step did.
                let mut at = 0usize;
                for batch in &batches {
                    let stride = steps[at..]
                        .iter()
                        .take(k as usize)
                        .position(|(o, ..)| *o != Ok(Step::Continue))
                        .map_or(k as usize, |p| p + 1);
                    at += stride;
                    prop_assert_eq!(batch, &steps[at - 1], "{:?} k={} after step {}", tier, k, at);
                }
                prop_assert_eq!(at, steps.len(), "{:?} k={} covers every step", tier, k);
            }
        }
    }
}

/// A classic cursor started from a module keeps its own copy of it, so
/// the module-free stepping entry points run it like any other cursor:
/// batches and single steps report the bytecode tier's events and step
/// marks.
#[test]
fn run_steps_runs_a_classic_cursor_started_from_a_module() {
    let m = random_kernel(&[0], &[1], 2);
    let f = m.find_function("kernel").unwrap();
    let logs: Vec<Vec<Seen>> = [Tier::Classic, Tier::Bytecode]
        .into_iter()
        .map(|tier| {
            let mut interp = Interp::with_tier(tier);
            let buf = interp.alloc_array(8, 8).expect("small alloc");
            interp.start(&m, f, &[RtVal::Int(buf as i64), RtVal::Int(8)]);
            let mut log = StepLog::default();
            assert_eq!(interp.run_steps(4, &mut log), Ok(Step::Continue));
            assert_eq!(interp.step(&mut log), Ok(Step::Continue));
            assert_eq!(log.0.last(), Some(&Seen::EndStep));
            while interp.step(&mut log) == Ok(Step::Continue) {}
            log.0
        })
        .collect();
    assert_eq!(logs[0], logs[1], "classic vs bytecode step log");
}

proptest! {
    #[test]
    fn random_kernels_are_tier_invariant(
        ops in prop::collection::vec(0usize..9, 1..12),
        consts in prop::collection::vec(-1000i64..1000, 1..6),
        trips in 0i64..24,
    ) {
        let m = random_kernel(&ops, &consts, trips);
        swpf_ir::verifier::verify_module(&m).expect("generated kernel verifies");
        let (br, bret, bev) = run_tier(Tier::Bytecode, &m);
        let (cr, cret, cev) = run_tier(Tier::Classic, &m);
        prop_assert_eq!(&br, &cr, "bytecode vs classic result");
        prop_assert_eq!(bret, cret, "retired vs classic");
        prop_assert_eq!(&bev, &cev, "event stream vs classic");
    }

    // Random fuel budgets on a random kernel: both tiers park at the
    // same event prefix with the same `OutOfFuel` outcome.
    #[test]
    fn random_fuel_budgets_are_tier_invariant(
        ops in prop::collection::vec(0usize..9, 1..6),
        fuel in 1u64..400,
    ) {
        let m = random_kernel(&ops, &[3, -7], 16);
        let mut outcomes = Vec::new();
        for tier in [Tier::Bytecode, Tier::Classic] {
            let mut interp = Interp::with_tier(tier);
            let buf = interp.alloc_array(8, 8).expect("small alloc");
            interp.set_fuel(fuel);
            let mut rec = Stream::default();
            let f = m.find_function("kernel").unwrap();
            let result = interp.run(&m, f, &[RtVal::Int(buf as i64), RtVal::Int(8)], &mut rec);
            outcomes.push((result, interp.retired(), rec));
        }
        prop_assert_eq!(&outcomes[0], &outcomes[1], "bytecode vs classic under fuel");
    }
}

/// Every word of every lowered workload image round-trips through the
/// decoder: `decode_word(w).encode() == w`. This pins the packed layout
/// — any field overlap or shift error breaks the identity.
#[test]
fn decode_encode_roundtrips_over_the_workload_corpus() {
    let mut words = 0usize;
    for w in suite(Scale::Test) {
        let m = w.build_baseline();
        let image = ExecImage::build(&m);
        let bc = BcImage::lower(&image).expect("workloads lower");
        for f in 0..bc.num_funcs() {
            for &word in bc.func(FuncId(f as u32)).words() {
                assert_eq!(
                    decode_word(word).encode(),
                    word,
                    "{}: word {word:#018x} does not round-trip",
                    w.name()
                );
                words += 1;
            }
        }
    }
    assert!(words > 100, "corpus should exercise many words");
}

/// A function whose value count exceeds the 14-bit slot space is
/// rejected with `LowerError::TooManySlots` at lowering; the facade's
/// cached `bytecode()` returns `None` — nothing invalid ever reaches
/// dispatch — and the bytecode tier runs the image on the classic tier
/// instead: through `Interp::run_with_image` and through a two-core
/// `Sim`, both matching `ClassicInterp::run` on the module.
#[test]
fn oversized_functions_are_rejected_at_lowering_not_dispatch() {
    let mut m = Module::new("huge");
    let fid = m.declare_function("kernel", &[Type::I64], Type::I64);
    {
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let mut v = b.arg(0);
        let one = b.const_i64(1);
        for _ in 0..17_000 {
            v = b.add(v, one);
        }
        b.ret(Some(v));
    }
    let image = Arc::new(ExecImage::build(&m));
    assert!(matches!(
        BcImage::lower(&image),
        Err(LowerError::TooManySlots { .. })
    ));
    assert!(image.bytecode().is_none(), "facade cache agrees");

    let args = [RtVal::Int(5)];
    let mut oracle = ClassicInterp::new();
    let mut oracle_events = Stream::default();
    let want = oracle.run(&m, fid, &args, &mut oracle_events);
    assert_eq!(want, Ok(Some(RtVal::Int(5 + 17_000))));

    let mut interp = Interp::with_tier(Tier::Bytecode);
    let mut events = Stream::default();
    let got = interp.run_with_image(Arc::clone(&image), fid, &args, &mut events);
    assert_eq!(got, want, "run_with_image result");
    assert_eq!(interp.retired(), oracle.retired(), "run_with_image retired");
    assert_eq!(events, oracle_events, "run_with_image event stream");

    let cfg = MachineConfig::haswell();
    let two_cores = |tier| {
        let sim = Sim {
            machines: &[&cfg],
            cores: 2,
            tier,
            perf: false,
        };
        let runs = sim.run(Source::image(&image, fid, &mut |_, _| args.to_vec()));
        runs.expect("no trap")
    };
    let runs = two_cores(Tier::Bytecode);
    for run in &runs {
        assert_eq!(
            run.stats.insts.total,
            oracle.retired(),
            "Sim retired per core"
        );
    }
    assert_eq!(
        format!("{runs:?}"),
        format!("{:?}", two_cores(Tier::Classic)),
        "Sim per-core stats"
    );
}
