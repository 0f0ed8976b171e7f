//! The `all` driver's command line: a malformed invocation is one
//! `error:` line plus the usage and exit status 2, never a panic, and
//! the trace policy flags never change a counter.

use std::process::{Command, Output};

fn all(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all"));
    // Run away from the repository so a parse that wrongly succeeds
    // cannot drop a RESULTS directory into it.
    cmd.args(args).current_dir(std::env::temp_dir());
    for var in ["SWPF_THREADS", "SWPF_TIER"] {
        cmd.env_remove(var);
    }
    cmd.env("SWPF_SCALE", "test")
        .envs(env.iter().copied())
        .output()
        .expect("the `all` binary runs")
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert_eq!(
        stderr.lines().filter(|l| l.starts_with("error:")).count(),
        1,
        "{what}: {stderr}"
    );
    assert!(stderr.contains("usage: all "), "{what}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what}: nothing ran");
}

#[test]
fn unknown_flag_is_one_error_line_and_exit_2() {
    assert_usage_error(&all(&["--bogus"], &[]), "--bogus");
    // The trace-cache byte cap went with the in-memory warm reader.
    let cap = all(&["--trace-cap", "1g"], &[]);
    assert_usage_error(&cap, "--trace-cap");
    let stderr = String::from_utf8_lossy(&cap.stderr);
    assert!(
        stderr.contains("unknown argument `--trace-cap`"),
        "{stderr}"
    );
}

#[test]
fn malformed_values_are_usage_errors() {
    assert_usage_error(&all(&["--threads"], &[]), "missing value");
    assert_usage_error(&all(&["--threads", "many"], &[]), "non-numeric --threads");
    assert_usage_error(&all(&["--only"], &[]), "missing experiment name");
    assert_usage_error(&all(&["--only", "fig99"], &[]), "unknown experiment");
    assert_usage_error(&all(&[], &[("SWPF_THREADS", "many")]), "SWPF_THREADS");
    // Resolved once, before anything runs — not a panic in the middle
    // of a grid.
    assert_usage_error(&all(&[], &[("SWPF_TIER", "bytcode")]), "SWPF_TIER");
    // The retired exec-image tier is a usage error too, naming the two
    // tiers that remain.
    let engine = all(&[], &[("SWPF_TIER", "engine")]);
    assert_usage_error(&engine, "SWPF_TIER=engine");
    let stderr = String::from_utf8_lossy(&engine.stderr);
    assert!(stderr.contains("classic|bytecode"), "{stderr}");
    assert_usage_error(&all(&[], &[("SWPF_SCALE", "tiny")]), "SWPF_SCALE");
}

#[test]
fn help_prints_usage_and_exits_0() {
    let out = all(&["--only", "fig7", "--help"], &[]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: all "), "{stdout}");
    assert_eq!(stdout.lines().count(), 1, "help runs nothing: {stdout}");
    assert!(out.stderr.is_empty());
}

/// Every cell's per-core counters of a `fig9` run under `flags`, in
/// artifact order, as `(machine, variant, cores)` JSON text.
fn fig9_counters(flags: &[&str]) -> Vec<String> {
    let out_dir = std::env::temp_dir().join(format!(
        "swpf_cli_{}_fig9{}",
        std::process::id(),
        flags.concat()
    ));
    let mut args = vec!["--only", "fig9", "--threads", "1", "--out"];
    args.push(out_dir.to_str().expect("temp paths are unicode"));
    args.extend(flags);
    let out = all(&args, &[]);
    assert!(out.status.success(), "{flags:?}: {out:?}");
    let text = std::fs::read_to_string(out_dir.join("fig9.json")).expect("artifact written");
    std::fs::remove_dir_all(&out_dir).ok();
    let doc = swpf_bench::json::Json::parse(&text).expect("artifact is valid JSON");
    let cells = doc.get("cells").and_then(|c| c.as_array());
    cells
        .expect("artifact has cells")
        .iter()
        .map(|c| {
            let member = |k| c.get(k).expect("schema v1 cell").to_pretty_string();
            format!(
                "{} {} {}",
                member("machine"),
                member("variant"),
                member("cores")
            )
        })
        .collect()
}

/// The multicore grid through the spawned driver: interpreting every
/// cell (`--no-trace`) and the default record-then-replay policy give
/// the same counters on every core of every cell, and `--stream-replay`,
/// still accepted, changes nothing.
#[test]
fn no_trace_and_default_policy_produce_identical_counters() {
    let direct = fig9_counters(&["--no-trace"]);
    assert_eq!(direct.len(), 6, "fig9 is six multicore cells");
    assert_eq!(direct, fig9_counters(&[]));
    assert_eq!(direct, fig9_counters(&["--stream-replay"]));
}
