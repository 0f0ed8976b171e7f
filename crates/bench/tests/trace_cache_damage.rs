//! The on-disk trace cache under damage: a torn, bit-flipped or
//! other-version cache file is a miss, never a failed run, and stores
//! leave no temp file behind.

use swpf_bench::experiments;
use swpf_bench::harness::{run_experiment, RunOptions, TracePolicy};
use swpf_workloads::Scale;

/// Prime a fig10 cache, then for each eighth damage the first cache file
/// with `damage(whole file, eighth)` and rerun, streaming it back: exactly
/// that file must re-record, with the cold run's counters, leaving the
/// original bytes and no temp file behind, and the run after must hit.
fn damage_heals(tag: &str, damage: impl Fn(&[u8], usize) -> Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("swpf_{tag}_{}", std::process::id()));
    let exp = experiments::by_name("fig10", Scale::Test).unwrap();
    let run = || {
        run_experiment(
            &exp,
            &RunOptions {
                threads: 2,
                trace: TracePolicy::Dir(dir.clone()),
                ..RunOptions::default()
            },
        )
    };
    let cold = run();
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
        std::fs::write(victim, damage(&whole, eighth)).expect("damage");
        let again = run();
        assert_eq!(
            again.trace_misses(),
            1,
            "{tag} at {eighth}/8: only the damaged file re-records"
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
                "{tag} at {eighth}/8: {}/{}",
                a.workload,
                a.variant
            );
        }
        assert_eq!(
            std::fs::read(victim).expect("cache file reads"),
            whole,
            "{tag} at {eighth}/8: the re-recorded file is the original"
        );
        assert_eq!(
            files(),
            cached,
            "{tag} at {eighth}/8: no temp file left behind"
        );
        assert_eq!(run().trace_misses(), 0, "{tag} at {eighth}/8: healed");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A cache file cut short — a run killed mid-write before stores were
/// atomic, a full disk, a bad copy — is a miss, not a failure: the next
/// run re-records it with identical counters and leaves a whole file
/// behind. And stores go through a temp file that never outlives them.
#[test]
fn truncated_cache_files_re_record_and_no_temp_file_survives() {
    damage_heals("torn", |whole, eighth| {
        whole[..whole.len() * eighth / 8].to_vec()
    });
}

/// One flipped byte — anywhere from the magic to the last block — under
/// the streaming reader, which opens on the envelope alone and meets a
/// damaged block only when the replay gets there: still a miss, never a
/// failed run or a half-replayed row.
#[test]
fn a_flipped_byte_under_streaming_replay_re_records() {
    damage_heals("flip", |whole, eighth| {
        let mut bytes = whole.to_vec();
        bytes[whole.len() * eighth / 8] ^= 0x40;
        bytes
    });
}

/// A file whose version field reads 2 — a cache written before the
/// format bump, damage or not — is a miss like any other: the run
/// re-records it byte for byte. (The reader answers
/// `UnsupportedVersion`, which the harness takes without a warning.)
#[test]
fn a_file_of_the_previous_format_version_re_records() {
    damage_heals("version", |whole, _| {
        let mut bytes = whole.to_vec();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        bytes
    });
}
