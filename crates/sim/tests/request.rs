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

#[test]
fn every_source_topology_and_tier_agrees() {
    swpf_sim::perf::set_enabled(true);
    let (haswell, a53) = (MachineConfig::haswell(), MachineConfig::a53());
    let (xeon_phi, a57) = (MachineConfig::xeon_phi(), MachineConfig::a57());
    // Core kinds interleaved: a row that ran one kind's machines first
    // and returned their results in that order would not match.
    let row_machines = [&a53, &haswell, &xeon_phi, &a57];
    for id in [WorkloadId::Is, WorkloadId::Hj8] {
        let w = id.instantiate(Scale::Test);
        let module = w.build_manual(64);
        let func = module.find_function("kernel").expect("kernel exists");
        let image = Arc::new(ExecImage::build(&module));
        let mut setup = |_: usize, interp: &mut Interp| w.setup(interp);
        for cores in [1usize, 2] {
            let mut per_machine = Vec::new();
            for cfg in row_machines {
                let mut per_tier = Vec::new();
                for tier in [Tier::Bytecode, Tier::Classic] {
                    let at = format!("{} x{cores} on {} ({tier:?})", w.name(), cfg.name);
                    let sim = Sim {
                        machines: &[cfg],
                        cores,
                        tier,
                    };
                    let direct = sim.run(Source::image(&image, func, &mut setup)).unwrap();
                    assert_eq!(direct.len(), cores, "{at}");
                    let profile = direct[0].perf.as_ref().expect("profiling is enabled");
                    assert!(!profile.sites.is_empty(), "{at}: manual kernels prefetch");

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
            };
            let at = format!("{} x{cores} row", w.name());
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
        };
        let want = one(1).run(Source::image(&image, func, &mut setup)).unwrap();
        let want = format!("{:?}", want[0].stats);
        let by_name = run_on_machine(cfg, &module, "kernel", |i| w.setup(i));
        assert_eq!(want, format!("{by_name:?}"), "run_on_machine");
        let by_image = run_on_machine_image(cfg, &image, func, |i| w.setup(i));
        assert_eq!(want, format!("{by_image:?}"), "run_on_machine_image");
        let mut rec = TraceRecorder::new(1, 0);
        let traced = run_on_machine_traced(cfg, &image, func, |i| w.setup(i), rec.stream(0));
        assert_eq!(want, format!("{traced:?}"), "run_on_machine_traced");
        with_trace_file(
            &format!("{}_wrappers", w.name()),
            &rec.finish(),
            |trace, file| {
                let replayed = replay_on_machine(cfg, trace);
                assert_eq!(want, format!("{replayed:?}"), "replay_on_machine");
                let streamed = streaming_replay_on_machine(cfg, file).unwrap();
                assert_eq!(want, format!("{streamed:?}"), "streaming_replay_on_machine");
            },
        );
        for cores in [1usize, 2] {
            let want: Vec<_> = one(cores)
                .run(Source::image(&image, func, &mut setup))
                .unwrap()
                .iter()
                .map(|r| r.stats)
                .collect();
            let got = run_multicore(cfg, cores, &module, func, |_, i| w.setup(i));
            assert_eq!(
                format!("{want:?}"),
                format!("{got:?}"),
                "run_multicore x{cores}"
            );
        }
    }
    swpf_sim::perf::set_enabled(false);
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
    };
    assert_eq!(
        two.run(Source::Trace(&trace)).unwrap_err(),
        SimError::Trace(TraceError::MissingCore(1))
    );
}
