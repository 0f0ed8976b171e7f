//! The simulation request's equivalence table and its typed failures.
//!
//! Every way of asking [`Sim`] for the same kernel on the same machine
//! must give the same answer — statistics and per-PC profile, bit for
//! bit: interpreted, interpreted while recording, replayed from the
//! recording in memory, and replayed from its file block-at-a-time; on
//! one core or several; on either execution tier; as a row of machines
//! or one machine at a time; and through the convenience wrappers.

use std::sync::Arc;
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{Interp, RtVal, Tier, Trap};
use swpf_ir::prelude::*;
use swpf_sim::{
    replay_on_machine, run_multicore, run_on_machine, run_on_machine_image, run_on_machine_traced,
    streaming_replay_on_machine, MachineConfig, Sim, SimError, SimRun, Source,
};
use swpf_trace::{StreamingReplay, Trace, TraceError, TraceRecorder};
use swpf_workloads::{Scale, WorkloadId};

fn show(runs: &[SimRun]) -> String {
    format!("{runs:?}")
}

/// Round-trip `trace` through its file envelope and hand both the
/// decoded trace and the streaming reader to `f`.
fn with_trace_file<R>(
    name: &str,
    trace: &Trace,
    f: impl FnOnce(&Trace, &StreamingReplay) -> R,
) -> R {
    let bytes = trace.to_bytes();
    let decoded = Trace::from_bytes(&bytes).expect("own bytes decode");
    let path = std::env::temp_dir().join(format!("swpf_req_{}_{name}.trace", std::process::id()));
    std::fs::write(&path, &bytes).expect("trace written");
    let r = f(
        &decoded,
        &StreamingReplay::open(&path).expect("own file opens"),
    );
    std::fs::remove_file(&path).ok();
    r
}

/// `kernel(n)` emits the event kinds the IS and HJ-8 inputs never do:
/// it allocates its own `n`-element array, calls `helper` (a load, so a
/// call, its operands and its return) on every even `i` and skips it on
/// every odd one (a conditional branch taken both ways), and beside a
/// prefetch two elements ahead issues one 8 TiB past the array (an
/// invalid prefetch).
fn every_kind_module() -> Module {
    let mut m = Module::new("t");
    let helper = m.declare_function("helper", &[Type::Ptr, Type::I64], Type::I64);
    let mut b = FunctionBuilder::new(m.function_mut(helper));
    let (p, i) = (b.arg(0), b.arg(1));
    let g = b.gep(p, i, 8);
    let v = b.load(Type::I64, g);
    let s = b.add(v, i);
    b.ret(Some(s));
    let kernel = m.declare_function("kernel", &[Type::I64], Type::I64);
    let mut b = FunctionBuilder::new(m.function_mut(kernel));
    let n = b.arg(0);
    let entry = b.entry_block();
    let (header, body, even) = (
        b.create_block("h"),
        b.create_block("b"),
        b.create_block("e"),
    );
    let (latch, exit) = (b.create_block("l"), b.create_block("x"));
    let buf = b.alloc(n, 8);
    let (zero, one, two) = (b.const_i64(0), b.const_i64(1), b.const_i64(2));
    let far = b.const_i64(1 << 40);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::I64, &[(entry, zero)]);
    let acc = b.phi(Type::I64, &[(entry, zero)]);
    let c = b.icmp(Pred::Slt, i, n);
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let g = b.gep(buf, i, 8);
    b.store(i, g);
    let ahead = b.add(i, two);
    let near = b.gep(buf, ahead, 8);
    b.prefetch(near);
    let wild = b.gep(buf, far, 8);
    b.prefetch(wild);
    let odd = b.and(i, one);
    let is_even = b.icmp(Pred::Eq, odd, zero);
    b.cond_br(is_even, even, latch);
    b.switch_to(even);
    let r = b.call(helper, &[buf, i], Some(Type::I64));
    let acc_even = b.add(acc, r);
    b.br(latch);
    b.switch_to(latch);
    let acc2 = b.phi(Type::I64, &[(body, acc), (even, acc_even)]);
    let i2 = b.add(i, one);
    b.add_phi_incoming(i, latch, i2);
    b.add_phi_incoming(acc, latch, acc2);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(acc));
    let _ = b;
    swpf_ir::verifier::verify_module(&m).expect("every-kind kernel verifies");
    m
}

/// Builds a kernel's arguments.
type Args = Box<dyn Fn(&mut Interp) -> Vec<RtVal>>;

#[test]
fn every_source_topology_and_tier_agrees() {
    let (haswell, a53) = (MachineConfig::haswell(), MachineConfig::a53());
    let (xeon_phi, a57) = (MachineConfig::xeon_phi(), MachineConfig::a57());
    // Core kinds interleaved: a row that ran one kind's machines first
    // and returned their results in that order would not match.
    let row_machines = [&a53, &haswell, &xeon_phi, &a57];
    let mut inputs: Vec<(&str, Module, Args)> = [WorkloadId::Is, WorkloadId::Hj8]
        .into_iter()
        .map(|id| {
            let w = id.instantiate(Scale::Test);
            let module = w.build_manual(64);
            let setup: Args = Box::new(move |i| w.setup(i));
            (id.name(), module, setup)
        })
        .collect();
    inputs.push((
        "every_kind",
        every_kind_module(),
        Box::new(|_| vec![RtVal::Int(3000)]),
    ));
    for (name, module, setup_args) in &inputs {
        let func = module.find_function("kernel").expect("kernel exists");
        let image = Arc::new(ExecImage::build(module));
        let mut setup = |_: usize, interp: &mut Interp| setup_args(interp);
        for cores in [1usize, 2] {
            let mut per_machine = Vec::new();
            for cfg in row_machines {
                let mut per_tier = Vec::new();
                for tier in [Tier::Bytecode, Tier::Classic] {
                    let at = format!("{name} x{cores} on {} ({tier:?})", cfg.name);
                    let sim = Sim {
                        machines: &[cfg],
                        cores,
                        tier,
                        perf: true,
                    };
                    let direct = sim.run(Source::image(&image, func, &mut setup)).unwrap();
                    assert_eq!(direct.len(), cores, "{at}");
                    let profile = direct[0].perf.as_ref().expect("the request profiles");
                    assert!(!profile.sites.is_empty(), "{at}: every input prefetches");

                    let mut rec = TraceRecorder::new(cores, 42);
                    let recorded = sim
                        .run(Source::Image {
                            image: Arc::clone(&image),
                            func,
                            setup: &mut setup,
                            record: Some(rec.streams()),
                        })
                        .unwrap();
                    assert_eq!(show(&direct), show(&recorded), "{at}: recording perturbed");

                    let trace = rec.finish();
                    assert_eq!(trace.events(0), direct[0].stats.insts.total, "{at}");
                    if cores > 1 {
                        // One mark per interpreter step: phi copies retire
                        // with their branch, so fewer steps than events.
                        let mut cursor = trace.cursor(0).unwrap();
                        let mut marks = 0u64;
                        while let Some((_, end_of_step)) = cursor.next_event().unwrap() {
                            marks += u64::from(end_of_step);
                        }
                        assert!(marks > 0 && marks < trace.events(0), "{at}: {marks} marks");
                    }
                    with_trace_file(&at.replace(' ', "_"), &trace, |trace, file| {
                        let replayed = sim.run(Source::Trace(trace)).unwrap();
                        assert_eq!(show(&direct), show(&replayed), "{at}: replay diverged");
                        let streamed = sim.run(Source::Stream(file)).unwrap();
                        assert_eq!(show(&direct), show(&streamed), "{at}: streaming diverged");
                    });
                    per_tier.push(direct);
                }
                assert_eq!(show(&per_tier[0]), show(&per_tier[1]), "tiers diverge");
                per_machine.extend(per_tier.swap_remove(0));
            }

            // A row of N machines equals N rows of one, interpreted
            // (with and without the encoder in the row) and replayed.
            let row = Sim {
                machines: &row_machines,
                cores,
                tier: Tier::Bytecode,
                perf: true,
            };
            let at = format!("{name} x{cores} row");
            let fused = row.run(Source::image(&image, func, &mut setup)).unwrap();
            assert_eq!(show(&per_machine), show(&fused), "{at}");
            let mut rec = TraceRecorder::new(cores, 0);
            let recorded = row
                .run(Source::Image {
                    image: Arc::clone(&image),
                    func,
                    setup: &mut setup,
                    record: Some(rec.streams()),
                })
                .unwrap();
            assert_eq!(show(&per_machine), show(&recorded), "{at}: recording");
            with_trace_file(&at.replace(' ', "_"), &rec.finish(), |trace, file| {
                let replayed = row.run(Source::Trace(trace)).unwrap();
                assert_eq!(show(&per_machine), show(&replayed), "{at}: replay");
                let streamed = row.run(Source::Stream(file)).unwrap();
                assert_eq!(show(&per_machine), show(&streamed), "{at}: streaming");
            });
        }

        // Each kept wrapper equals the request it delegates to.
        let cfg = &a53;
        let machines = [cfg];
        let one = |cores| Sim {
            machines: &machines,
            cores,
            tier: Tier::Bytecode,
            perf: true,
        };
        let want = one(1).run(Source::image(&image, func, &mut setup)).unwrap();
        let want = format!("{:?}", want[0].stats);
        let by_name = run_on_machine(cfg, module, "kernel", setup_args);
        assert_eq!(want, format!("{by_name:?}"), "run_on_machine");
        let by_image = run_on_machine_image(cfg, &image, func, setup_args);
        assert_eq!(want, format!("{by_image:?}"), "run_on_machine_image");
        let mut rec = TraceRecorder::new(1, 0);
        let traced = run_on_machine_traced(cfg, &image, func, setup_args, rec.stream(0));
        assert_eq!(want, format!("{traced:?}"), "run_on_machine_traced");
        with_trace_file(&format!("{name}_wrappers"), &rec.finish(), |trace, file| {
            let replayed = replay_on_machine(cfg, trace);
            assert_eq!(want, format!("{replayed:?}"), "replay_on_machine");
            let streamed = streaming_replay_on_machine(cfg, file).unwrap();
            assert_eq!(want, format!("{streamed:?}"), "streaming_replay_on_machine");
        });
        for cores in [1usize, 2] {
            let want: Vec<_> = one(cores)
                .run(Source::image(&image, func, &mut setup))
                .unwrap()
                .iter()
                .map(|r| r.stats)
                .collect();
            let got = run_multicore(cfg, cores, module, func, |_, i| setup_args(i));
            assert_eq!(
                format!("{want:?}"),
                format!("{got:?}"),
                "run_multicore x{cores}"
            );
        }
    }
}

/// `f(p) = *p` — traps on any pointer outside allocated memory.
fn deref_module() -> Module {
    let mut m = Module::new("t");
    let fid = m.declare_function("deref", &[Type::Ptr], Type::I64);
    let mut b = FunctionBuilder::new(m.function_mut(fid));
    let p = b.arg(0);
    let v = b.load(Type::I64, p);
    b.ret(Some(v));
    let _ = b;
    m
}

#[test]
fn failures_are_typed_not_panics() {
    let cfg = MachineConfig::haswell();
    let module = deref_module();
    let mut wild = |_: usize, _: &mut Interp| vec![RtVal::Int(8)];

    let missing = Source::module(&module, "nope", &mut wild).err();
    assert_eq!(missing, Some(SimError::NoFunction("nope".to_string())));

    for cores in [1usize, 2] {
        let sim = Sim {
            machines: &[&cfg],
            cores,
            tier: Tier::Bytecode,
            perf: false,
        };
        let trapped = sim
            .run(Source::module(&module, "deref", &mut wild).unwrap())
            .unwrap_err();
        assert_eq!(
            trapped,
            SimError::Trap(Trap::MemFault { addr: 8, size: 8 }),
            "x{cores}"
        );
        assert_eq!(
            trapped.to_string(),
            "simulation trapped: memory fault: 8-byte access at 0x8"
        );
    }

    // Asking a one-core recording for two cores names the missing one.
    let trace = TraceRecorder::new(1, 0).finish();
    let two = Sim {
        machines: &[&cfg],
        cores: 2,
        tier: Tier::Bytecode,
        perf: false,
    };
    assert_eq!(
        two.run(Source::Trace(&trace)).unwrap_err(),
        SimError::Trace(TraceError::MissingCore(1))
    );
}
