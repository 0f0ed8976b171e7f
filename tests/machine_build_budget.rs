//! What building a grid row of machines costs once a thread has built
//! one before — the deterministic twin of the per-cell `Cache::new`
//! cost. Counts live heap bytes under the shared counting allocator, so
//! a regression fails by the same amount on any host.
//!
//! One test in a binary of its own: the allocator hook is process-wide
//! and nothing else may allocate while it counts.

use swpf::sim::{Machine, MachineConfig, Sim, Source, Tier};
use swpf::workloads::{Scale, WorkloadId};
use swpf_obs::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn rebuilding_a_fig7_row_reuses_its_tag_stores() {
    // Fig. 7's row: the four Table 1 systems, simulated on HJ-8.
    let configs = MachineConfig::all_systems();
    let row: Vec<&MachineConfig> = configs.iter().collect();
    let w = WorkloadId::Hj8.instantiate(Scale::Test);
    let module = w.build_baseline();
    let mut setup = |_: usize, interp: &mut _| w.setup(interp);
    let sim = Sim {
        machines: &row,
        cores: 1,
        tier: Tier::Bytecode,
        perf: false,
    };
    let runs = sim
        .run(Source::module(&module, "kernel", &mut setup).expect("HJ-8 has a kernel"))
        .expect("HJ-8 runs");
    assert!(
        runs.iter().all(|r| r.stats.l1_misses > 0),
        "the run touched every cache"
    );

    // The simulated row is gone; building it again takes the stores its
    // caches left behind. At the commit before the free list this took
    // 1 500 168 bytes of fresh zeroed tag arrays; what is left, 19 KB,
    // is the row's vector and each core's reorder buffer.
    let before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let machines: Vec<Machine> = configs
        .iter()
        .map(|c| Machine::new(c.clone(), false))
        .collect();
    let peak = ALLOC.peak_bytes() - before;
    assert_eq!(machines.len(), 4);
    assert!(
        peak < 64 << 10,
        "rebuilding the row allocated {peak} bytes at peak (budget 64 KiB)"
    );
}
