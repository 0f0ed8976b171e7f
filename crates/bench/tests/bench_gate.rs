//! `bench_gate`'s verdicts on synthetic `CRITERION_JSON` records: every
//! record leg 1% inside its bound passes, any one leg 1% past its bound
//! fails and is the one leg named on stderr, and a missing record fails.
//!
//! Synthetic, because live records are noisy: a leg measured on a busy
//! host can land on either side of its bound. Each bound below is the
//! leg's ceiling on mean(numerator) / mean(denominator), written as the
//! reference ratio times the allowance.

use std::path::Path;
use std::process::{Command, Output};

/// The record legs and their ceilings. The speedup legs are written the
/// other way up (fast over slow), so the ceiling is the reference
/// speedup's floor inverted.
const LEGS: [(&str, f64); 9] = [
    ("bytecode", 46_760.0 / 172_356.0 * 1.3),
    ("timing", 4.066 * 1.3),
    ("timing_inorder", 1.626 * 1.3),
    ("fanout", 0.742 * 1.3),
    ("multicore", 0.930 * 1.3),
    ("profiling", 1.0 * 1.1),
    ("perf", 1.0 * 1.1),
    ("replay", 205_460.0 / 170_101.0 * 1.3),
    ("stream_replay", 300_289.0 / 205_460.0 * 1.3),
];

/// The gate's arguments, `RECORDS` standing for the records file and
/// every other name for a file at the repository root.
const INVOCATION: [&str; 2] = ["BENCH.json", "RECORDS"];

/// Retired elements per iteration of the single-core IS cell.
const ELEMENTS: f64 = 12_300.0;

/// One record line, in the shim's format: `ns_per_iter` always,
/// `rate_per_s` when the bench declares a throughput.
fn record(name: &str, ns_per_iter: f64, ns_per_element: Option<f64>) -> String {
    let (group, bench) = name.split_once('/').expect("group/bench");
    let rate = ns_per_element.map_or("null".to_string(), |ns| format!("{:.0}", 1e9 / ns));
    format!(
        "{{\"group\":\"{group}\",\"bench\":\"{bench}\",\"ns_per_iter\":{ns_per_iter:.1},\
         \"mean_ns_per_iter\":{ns_per_iter:.1},\"rate_per_s\":{rate}}}\n"
    )
}

/// A records file with every leg at 0.99 of its ceiling, except `past`
/// at 1.01, and without the record named `omit`. Only a leg's
/// numerator moves; where a numerator is also another leg's
/// denominator, that other leg only gains slack.
fn fixture(past: Option<&str>, omit: Option<&str>) -> String {
    let at = |leg: &str| {
        let ceiling = LEGS.iter().find(|(l, _)| *l == leg).expect("a leg").1;
        ceiling * if past == Some(leg) { 1.01 } else { 0.99 }
    };
    let classic = 172_000.0;
    let bytecode = at("bytecode") * classic;
    let interp_only = 41_000.0;
    let presets = [
        ("haswell", at("timing") * interp_only),
        ("xeon_phi", 9.4 * ELEMENTS),
        ("a57", 12.9 * ELEMENTS),
        ("a53", at("timing_inorder") * interp_only),
    ];
    let haswell_el = presets[0].1 / ELEMENTS;
    let mean_el = presets.iter().map(|(_, ns)| ns / ELEMENTS).sum::<f64>() / 4.0;
    let fanout_el = at("fanout") * mean_el;
    let multicore_el = at("multicore") * haswell_el;
    let direct = 170_000.0;
    let replay = at("replay") * direct;

    let mut records = vec![
        record("bytecode/classic/IS", classic, Some(classic / ELEMENTS)),
        record("bytecode/bytecode/IS", bytecode, Some(bytecode / ELEMENTS)),
        record("profiling/disabled/IS", at("profiling") * bytecode, None),
        record("interp_only/IS", interp_only, Some(interp_only / ELEMENTS)),
        record("fanout/HJ8_x4", fanout_el * 4.0 * 25_500.0, Some(fanout_el)),
        record(
            "multicore/IS_x4",
            multicore_el * 49_000.0,
            Some(multicore_el),
        ),
        record("trace/direct/IS", direct, None),
        record("trace/replay/IS", replay, None),
        record("trace/stream_replay/IS", at("stream_replay") * replay, None),
        record("perf/disabled/IS", at("perf") * direct, None),
    ];
    for (preset, ns) in presets {
        let name = format!("interp_with_timing/{preset}");
        records.push(record(&name, ns, Some(ns / ELEMENTS)));
    }
    records
        .into_iter()
        .filter(|line| {
            omit.is_none_or(|name| {
                let (group, bench) = name.split_once('/').expect("group/bench");
                !line.contains(&format!("\"group\":\"{group}\",\"bench\":\"{bench}\""))
            })
        })
        .collect()
}

/// Write `records` to a scratch file and run the gate over it.
fn gate(tag: &str, records: &str) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = std::env::temp_dir().join(format!("bench_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("{tag}.jsonl"));
    std::fs::write(&path, records).expect("write records");
    let args = INVOCATION.map(|arg| match arg {
        "RECORDS" => path.clone(),
        file => root.join(file),
    });
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(&args)
        .output()
        .expect("bench_gate runs");
    let _ = std::fs::remove_file(&path);
    out
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn every_record_leg_inside_its_bound_passes() {
    let out = gate("inside", &fixture(None, None));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(out.stderr.is_empty(), "{}", stderr(&out));
}

#[test]
fn each_record_leg_past_its_bound_fails_alone_and_is_named() {
    for (leg, _) in LEGS {
        let out = gate(leg, &fixture(Some(leg), None));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{leg}: {err}");
        let lines: Vec<&str> = err.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 1, "{leg}: one failing leg, one line: {err}");
        assert!(lines[0].contains(leg), "{leg}: {err}");
        assert!(!err.contains("panicked at"), "{leg}: {err}");
    }
}

#[test]
fn a_missing_record_fails() {
    let out = gate("missing", &fixture(None, Some("trace/direct/IS")));
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("missing"), "{err}");
    assert!(err.contains("trace/direct/IS"), "{err}");
    assert!(!err.contains("panicked at"), "{err}");
}
