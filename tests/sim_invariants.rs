//! Cross-crate simulator invariants: accounting identities that must
//! hold for any program on any machine model, plus coarse qualitative
//! orderings the paper's analysis depends on.

use proptest::prelude::*;
use swpf::pass::{run_on_module, PassConfig};
use swpf::sim::{run_on_machine, MachineConfig, SimStats};
use swpf::workloads::{suite, Scale, Workload};
use swpf_ir::interp::{Interp, RtVal};

fn sim(machine: &MachineConfig, w: &dyn Workload, m: &swpf_ir::Module) -> SimStats {
    run_on_machine(machine, m, "kernel", |interp: &mut Interp| -> Vec<RtVal> {
        w.setup(interp)
    })
}

#[test]
fn accounting_identities_hold_everywhere() {
    for machine in MachineConfig::all_systems() {
        for w in suite(Scale::Test) {
            let mut m = w.build_baseline();
            run_on_module(&mut m, &PassConfig::default());
            let s = sim(&machine, w.as_ref(), &m);
            // L1, TLB and L2 accounting, prefetch outcomes, issue width.
            if let Err(v) = s.check_laws(&machine) {
                panic!("{}/{}: {v}", machine.name, w.name());
            }
            assert!(s.cycles > 0 && s.insts.total > 0);
        }
    }
}

#[test]
fn a_broken_law_names_itself_and_its_counters() {
    let machine = MachineConfig::a53();
    let w = &suite(Scale::Test)[0];
    let mut s = sim(&machine, w.as_ref(), &w.build_baseline());
    assert_eq!(s.check_laws(&machine), Ok(()));
    s.l1_hits += 1;
    let v = s.check_laws(&machine).unwrap_err();
    assert_eq!(v.law, "l1_hits + l1_misses = insts_loads + insts_stores");
    assert!(
        v.to_string().contains(&format!("l1_hits={}", s.l1_hits)),
        "{v}"
    );
    s.l1_hits -= 1;
    s.cycles = s.insts.total / u64::from(machine.width) / 2;
    let v = s.check_laws(&machine).unwrap_err();
    assert_eq!(v.law, "cycles * width >= insts_total");
}

#[test]
fn same_work_same_instructions_across_machines() {
    // The *timing* models differ; the architectural execution must not.
    for w in suite(Scale::Test) {
        let m = w.build_baseline();
        let counts: Vec<u64> = MachineConfig::all_systems()
            .iter()
            .map(|cfg| sim(cfg, w.as_ref(), &m).insts.total)
            .collect();
        assert!(
            counts.windows(2).all(|p| p[0] == p[1]),
            "{}: instruction counts differ across machines: {counts:?}",
            w.name()
        );
    }
}

#[test]
fn in_order_cores_run_memory_bound_code_slower() {
    // Same caches and DRAM, different pipeline: the out-of-order core
    // must beat the in-order one on an indirect-heavy kernel.
    let w = &suite(Scale::Test)[0]; // IS
    let base_cfg = MachineConfig::haswell().without_hw_prefetcher();
    let ino_cfg = MachineConfig {
        core: swpf::sim::CoreKind::InOrder,
        name: "haswell-inorder",
        ..base_cfg.clone()
    };
    let m = w.build_baseline();
    let ooo = sim(&base_cfg, w.as_ref(), &m);
    let ino = sim(&ino_cfg, w.as_ref(), &m);
    assert!(
        ino.cycles > ooo.cycles,
        "in-order {} must be slower than out-of-order {}",
        ino.cycles,
        ooo.cycles
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn multicore_stats_are_per_core_complete(cores in 1usize..5) {
        let w = swpf::workloads::is::IntegerSort::new(Scale::Test);
        let m = w.build_baseline();
        let f = m.find_function("kernel").unwrap();
        let stats = swpf::sim::run_multicore(
            &MachineConfig::haswell(),
            cores,
            &m,
            f,
            |_, interp| w.setup(interp),
        );
        prop_assert_eq!(stats.len(), cores);
        let cfg = MachineConfig::haswell();
        prop_assert_eq!(swpf::sim::check_cell_laws(&cfg, &stats), Ok(()));
        for s in &stats {
            prop_assert!(s.cycles > 0);
        }
        // All copies execute the same program: identical instruction counts.
        prop_assert!(stats.windows(2).all(|p| p[0].insts.total == p[1].insts.total));
    }

    #[test]
    fn adding_cores_never_speeds_up_the_slowest_copy(extra in 1usize..4) {
        let w = swpf::workloads::is::IntegerSort::new(Scale::Test);
        let m = w.build_baseline();
        let f = m.find_function("kernel").unwrap();
        let cfg = MachineConfig::haswell();
        let solo = swpf::sim::run_multicore(&cfg, 1, &m, f, |_, i| w.setup(i))[0].cycles;
        let multi = swpf::sim::run_multicore(&cfg, 1 + extra, &m, f, |_, i| w.setup(i));
        let worst = multi.iter().map(|s| s.cycles).max().unwrap();
        prop_assert!(
            worst + 1000 >= solo,
            "sharing cannot make a copy meaningfully faster: {solo} vs {worst}"
        );
    }
}
