//! Profiling belongs to the experiment that asks for it. A profiled
//! experiment and an unprofiled one running at the same time in one
//! process must not trade profiles: every cell of the first carries
//! one, and no cell of the second does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use swpf_bench::experiments;
use swpf_bench::harness::{run_experiment, RunOptions};
use swpf_workloads::Scale;

#[test]
fn a_profiled_experiment_beside_an_unprofiled_one_keeps_its_profiles() {
    let opts = RunOptions {
        threads: 1,
        ..RunOptions::default()
    };
    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    let (profiled, (runs, leaked)) = std::thread::scope(|scope| {
        // fig7, over and over from the moment prefetch_profile starts
        // until it has finished, counting the cells that carry a profile.
        let plain = scope.spawn(|| {
            let fig7 = experiments::by_name("fig7", Scale::Test).unwrap();
            let (mut runs, mut leaked) = (0, 0);
            start.wait();
            while !done.load(Ordering::Acquire) {
                let res = run_experiment(&fig7, &opts);
                leaked += res.cells.iter().filter(|c| !c.perf.is_empty()).count();
                runs += 1;
            }
            (runs, leaked)
        });
        let exp = experiments::by_name("prefetch_profile", Scale::Test).unwrap();
        start.wait();
        let res = run_experiment(&exp, &opts);
        done.store(true, Ordering::Release);
        (res, plain.join().expect("the fig7 thread does not panic"))
    });
    let missing = profiled
        .cells
        .iter()
        .filter(|c| c.perf.len() != c.cores.len())
        .count();
    assert_eq!(
        missing,
        0,
        "prefetch_profile cells without a profile, of {}",
        profiled.cells.len()
    );
    assert_eq!(leaked, 0, "fig7 cells with a profile over {runs} runs");
}
