//! Differential tests for per-PC prefetch profiling (`swpf_sim::perf`).
//!
//! Profiling must be *observationally pure*: with profiling enabled,
//! every simulated statistic is bit-identical to the unprofiled run, on
//! every execution tier — the profiler only reads state on branches the
//! memory system already takes. The profile itself must also be
//! tier-independent (classification happens at the retire chokepoint,
//! which all tiers share), identical under trace replay, and a true
//! *partition*: every issued prefetch is classified exactly once, in
//! agreement with the aggregate counters the memory system keeps
//! unconditionally — under arbitrary look-ahead distances, machines,
//! and fuel budgets that cut the run off mid-loop.

use proptest::prelude::*;
use std::sync::Arc;
use swpf::workloads::{suite, Scale};
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{Interp, Tier, Trap};
use swpf_sim::{Machine, MachineConfig, PcProfile, Sim, SimRun, SimStats, Source};
use swpf_trace::TraceRecorder;

fn fmt_stats(s: &SimStats) -> String {
    format!("{s:?}")
}

/// One copy of the kernel on `machine`, through the request, profiled
/// when `perf`.
fn run_one(machine: &MachineConfig, tier: Tier, perf: bool, source: Source<'_>) -> SimRun {
    let sim = Sim {
        machines: &[machine],
        cores: 1,
        tier,
        perf,
    };
    sim.run(source).expect("no trap").remove(0)
}

/// Assert one profile is a conserved partition that agrees with the
/// memory system's unconditional counters.
fn assert_partition(p: &PcProfile, s: &SimStats, ctx: &str) {
    assert!(p.conserved(), "{ctx}: partition not conserved");
    for (pc, site) in &p.sites {
        assert!(site.conserved(), "{ctx}: site {pc:#x} not conserved");
    }
    let t = p.totals();
    assert_eq!(t.issued, s.mem.sw_prefetches, "{ctx}: issued");
    assert_eq!(t.dropped, s.mem.sw_prefetches_dropped, "{ctx}: dropped");
    assert_eq!(
        t.redundant_resident, s.mem.sw_prefetches_redundant_resident,
        "{ctx}: redundant_resident"
    );
    assert_eq!(
        t.redundant_inflight, s.mem.sw_prefetches_redundant_inflight,
        "{ctx}: redundant_inflight"
    );
}

#[test]
fn profiling_is_observationally_pure_on_every_tier() {
    let w = &suite(Scale::Test)[0]; // IS — the paper's a[b[i]] kernel
    let module = w.build_manual(64);
    let f = module.find_function("kernel").expect("kernel exists");
    let image = Arc::new(ExecImage::build(&module));
    for machine in [MachineConfig::haswell(), MachineConfig::a53()] {
        let mut tier_profiles = Vec::new();
        for tier in [Tier::Classic, Tier::Bytecode] {
            let ctx = format!("{}/{tier:?}", machine.name);
            let mut setup = |_: usize, i: &mut Interp| w.setup(i);
            let off = run_one(&machine, tier, false, Source::image(&image, f, &mut setup));
            let on = run_one(&machine, tier, true, Source::image(&image, f, &mut setup));
            assert!(
                off.perf.is_none(),
                "{ctx}: unprofiled run carries a profile"
            );
            let profile = on.perf.expect("profiled run carries a profile");
            // Bit-identical statistics with profiling off and on: the
            // profiler never perturbs timing.
            assert_eq!(fmt_stats(&off.stats), fmt_stats(&on.stats), "{ctx}");
            assert!(
                on.stats.mem.sw_prefetches > 0,
                "{ctx}: kernel must issue prefetches for the comparison to bite"
            );
            assert_partition(&profile, &on.stats, &ctx);
            tier_profiles.push(format!("{profile:?}"));
        }
        // All tiers retire the same event stream through the same
        // chokepoint, so the profiles match to the last histogram
        // bucket.
        assert!(
            tier_profiles.windows(2).all(|p| p[0] == p[1]),
            "{}: profiles differ across tiers",
            machine.name
        );
    }
}

#[test]
fn replayed_profile_matches_direct_simulation() {
    let w = &suite(Scale::Test)[0];
    let module = w.build_manual(64);
    let f = module.find_function("kernel").expect("kernel exists");
    let image = Arc::new(ExecImage::build(&module));
    let machine = MachineConfig::a53();
    let mut recorder = TraceRecorder::new(1, 42);
    let direct = run_one(
        &machine,
        Tier::Bytecode,
        true,
        Source::Image {
            image: Arc::clone(&image),
            func: f,
            setup: &mut |_, i| w.setup(i),
            record: Some(recorder.streams()),
        },
    );
    let trace = recorder.finish();
    let replayed = run_one(&machine, Tier::Bytecode, true, Source::Trace(&trace));
    assert_eq!(fmt_stats(&direct.stats), fmt_stats(&replayed.stats));
    assert_eq!(
        format!("{:?}", direct.perf.expect("direct profile")),
        format!("{:?}", replayed.perf.expect("replayed profile")),
        "replay must reproduce the profile exactly"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The outcome partition survives arbitrary look-ahead distances,
    // machines, and fuel budgets that stop the kernel mid-loop (so
    // in-flight prefetches are finalised by the end-of-run sweep).
    #[test]
    fn outcome_partition_conserved_under_random_configs(
        look_ahead in 1i64..300,
        mi in 0usize..4,
        fuel in 1_000u64..60_000,
    ) {
        let w = &suite(Scale::Test)[0];
        let module = w.build_manual(look_ahead);
        let f = module.find_function("kernel").expect("kernel exists");
        let image = Arc::new(ExecImage::build(&module));
        let machine = MachineConfig::all_systems()[mi].clone();
        let mut interp = Interp::new();
        let args = w.setup(&mut interp);
        interp.set_fuel(fuel);
        let mut machine = Machine::new(machine, true);
        match machine.run_image(Arc::clone(&image), f, &mut interp, &args) {
            Ok(_) | Err(Trap::OutOfFuel) => {}
            Err(t) => panic!("unexpected trap: {t}"),
        }
        let run = machine.finish();
        let p = run.perf.expect("the machine profiles");
        prop_assert!(p.conserved(), "partition not conserved: {:?}", p.totals());
        for (pc, site) in &p.sites {
            prop_assert!(site.conserved(), "site {pc:#x} not conserved");
        }
        let t = p.totals();
        let mem = run.stats.mem;
        prop_assert_eq!(t.issued, mem.sw_prefetches);
        prop_assert_eq!(t.dropped, mem.sw_prefetches_dropped);
        prop_assert_eq!(t.redundant_resident, mem.sw_prefetches_redundant_resident);
        prop_assert_eq!(t.redundant_inflight, mem.sw_prefetches_redundant_inflight);
    }
}
