//! The on-disk trace cache under damage: a torn cache file is a miss,
//! never a failed run, and stores leave no temp file behind.
//!
//! A test binary of its own: `run_experiment` saves and restores the
//! process-wide `swpf_sim::perf` switch, so the two dozen short runs
//! here must not overlap another test's profiled experiment.

use swpf_bench::experiments;
use swpf_bench::harness::{run_experiment, RunOptions, TracePolicy};
use swpf_workloads::Scale;

/// A cache file cut short — a run killed mid-write before stores were
/// atomic, a full disk, a bad copy — is a miss, not a failure: the next
/// run re-records it with identical counters and leaves a whole file
/// behind. And stores go through a temp file that never outlives them.
#[test]
fn truncated_cache_files_re_record_and_no_temp_file_survives() {
    let dir = std::env::temp_dir().join(format!("swpf_torn_{}", std::process::id()));
    let exp = experiments::by_name("fig10", Scale::Test).unwrap();
    let run = |stream: bool| {
        run_experiment(
            &exp,
            &RunOptions {
                threads: 2,
                trace: TracePolicy::Dir(dir.clone()),
                stream,
                ..RunOptions::default()
            },
        )
    };
    let cold = run(false);
    assert_eq!(cold.trace_misses(), 6);
    let files = || -> Vec<std::path::PathBuf> {
        let mut v: Vec<_> = std::fs::read_dir(&dir)
            .expect("trace dir exists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        v.sort();
        v
    };
    let cached = files();
    assert_eq!(cached.len(), 6, "six traces and nothing else: {cached:?}");
    assert!(cached
        .iter()
        .all(|p| p.extension().is_some_and(|x| x == "trace")));

    let victim = &cached[0];
    let whole = std::fs::read(victim).expect("cache file reads");
    for eighth in 0..8 {
        let stream = eighth % 2 == 1;
        std::fs::write(victim, &whole[..whole.len() * eighth / 8]).expect("truncate");
        let again = run(stream);
        assert_eq!(
            again.trace_misses(),
            1,
            "cut at {eighth}/8: only the torn file re-records"
        );
        for (a, b) in cold.cells.iter().zip(&again.cells) {
            assert_eq!(
                (a.machine, a.workload, &a.variant),
                (b.machine, b.workload, &b.variant)
            );
            let counters = |c: &swpf_bench::harness::CellResult| -> Vec<_> {
                c.cores.iter().map(|s| s.counters()).collect()
            };
            assert_eq!(
                counters(a),
                counters(b),
                "cut at {eighth}/8: {}/{}",
                a.workload,
                a.variant
            );
        }
        assert_eq!(
            std::fs::read(victim).expect("cache file reads"),
            whole,
            "cut at {eighth}/8: the re-recorded file is the original"
        );
        assert_eq!(
            files(),
            cached,
            "cut at {eighth}/8: no temp file left behind"
        );
        assert_eq!(run(stream).trace_misses(), 0, "cut at {eighth}/8: healed");
    }
    std::fs::remove_dir_all(&dir).ok();
}
