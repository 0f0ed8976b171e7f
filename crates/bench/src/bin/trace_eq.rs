//! Trace-equivalence gate for CI: run every experiment three times —
//! direct simulation, a cold traced pass (fused execution, recording
//! when `--trace-dir` is given), and a warm traced pass (with
//! `--trace-dir`, streaming the just-recorded files block-at-a-time in
//! bounded memory) — and require every counter of every core of every
//! cell to match bit-for-bit across all of them.
//!
//! ```sh
//! SWPF_SCALE=test cargo run --release -p swpf-bench --bin trace_eq -- --trace-dir traces
//! ```
//!
//! With `--trace-dir` the warm pass exercises the full encode → disk →
//! decode → replay path for every experiment (including multicore), the
//! corpus is gated on its compressed density (bytes per event must stay
//! under [`MAX_BYTES_PER_EVENT`] — a broken or disabled block coder
//! roughly triples it), and a `compression_summary.json` describing
//! every file is written into the trace directory for the CI
//! workflow-artifact upload.

use std::path::Path;
use swpf_bench::experiments;
use swpf_bench::harness::{cli_options, run_experiment, ExperimentResult, RunOptions, TracePolicy};
use swpf_trace::StreamingReplay;

/// Compressed-corpus density ceiling in bytes per recorded event. The
/// uncompressed event payload measures ~3.5 B/event on the test-scale
/// corpus (short traces never reach the cheap steady-state deltas); the
/// block coder brings it to ~0.54 B/event. The ceiling sits between
/// the two with margin for workload drift: crossing it means block
/// compression stopped working, not that the corpus grew.
const MAX_BYTES_PER_EVENT: f64 = 2.0;

/// Count cells whose counters differ between the two runs, printing
/// each divergence.
fn diverging_cells(name: &str, direct: &ExperimentResult, traced: &ExperimentResult) -> usize {
    assert_eq!(
        direct.cells.len(),
        traced.cells.len(),
        "{name}: traced run changed the grid"
    );
    let mut diverged = 0;
    for (d, t) in direct.cells.iter().zip(&traced.cells) {
        assert_eq!(
            (d.machine, d.workload, &d.variant),
            (t.machine, t.workload, &t.variant),
            "{name}: traced run reordered cells"
        );
        assert_eq!(d.cores.len(), t.cores.len());
        for (core, (sd, st)) in d.cores.iter().zip(&t.cores).enumerate() {
            for ((key, vd), (_, vt)) in sd.counters().into_iter().zip(st.counters()) {
                if vd != vt {
                    println!(
                        "DIVERGED {name} {}/{}/{} core {core}: {key} {vd} direct vs {vt} replayed",
                        d.machine, d.workload, d.variant
                    );
                    diverged += 1;
                }
            }
        }
    }
    diverged
}

/// Audit the recorded corpus: per-file size, event count, and density;
/// write `compression_summary.json` next to the traces; fail when the
/// corpus-wide density exceeds [`MAX_BYTES_PER_EVENT`].
fn audit_corpus(dir: &Path) -> bool {
    let mut files: Vec<(String, u64, u64)> = Vec::new(); // (name, bytes, events)
    let Ok(entries) = std::fs::read_dir(dir) else {
        eprintln!("trace_eq: cannot read trace dir {}", dir.display());
        return false;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "trace") {
            continue;
        }
        let bytes = entry.metadata().map_or(0, |m| m.len());
        match StreamingReplay::open(&path) {
            Ok(replay) => {
                let events: u64 = (0..replay.num_cores()).map(|c| replay.events(c)).sum();
                let name = path
                    .file_name()
                    .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
                files.push((name, bytes, events));
            }
            Err(e) => {
                eprintln!("trace_eq: corpus file {} is damaged: {e}", path.display());
                return false;
            }
        }
    }
    if files.is_empty() {
        eprintln!("trace_eq: no .trace files in {}", dir.display());
        return false;
    }
    files.sort();

    let total_bytes: u64 = files.iter().map(|f| f.1).sum();
    let total_events: u64 = files.iter().map(|f| f.2).sum();
    #[allow(clippy::cast_precision_loss)]
    let density = total_bytes as f64 / total_events as f64;

    #[allow(clippy::cast_precision_loss)]
    let rows: Vec<String> = files
        .iter()
        .map(|(name, bytes, events)| {
            format!(
                "    {{\"file\": \"{name}\", \"bytes\": {bytes}, \"events\": {events}, \
                 \"bytes_per_event\": {:.4}}}",
                *bytes as f64 / (*events).max(1) as f64
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"files\": {},\n  \"total_bytes\": {total_bytes},\n  \
         \"total_events\": {total_events},\n  \"bytes_per_event\": {density:.4},\n  \
         \"ceiling_bytes_per_event\": {MAX_BYTES_PER_EVENT},\n  \"traces\": [\n{}\n  ]\n}}\n",
        files.len(),
        rows.join(",\n")
    );
    let out = dir.join("compression_summary.json");
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("trace_eq: cannot write {}: {e}", out.display());
        return false;
    }

    println!(
        "trace_eq corpus: {} files, {total_bytes} bytes / {total_events} events = \
         {density:.4} B/event (ceiling {MAX_BYTES_PER_EVENT}) — {}",
        files.len(),
        out.display()
    );
    if density <= MAX_BYTES_PER_EVENT {
        true
    } else {
        eprintln!(
            "trace_eq: corpus density {density:.4} B/event exceeds the {MAX_BYTES_PER_EVENT} \
             ceiling — block compression is not working"
        );
        false
    }
}

fn main() -> std::process::ExitCode {
    let opts = cli_options();
    let scale = opts.scale;
    let mut total_diverged = 0usize;
    let mut total_replayed = 0usize;

    // The default set: a searched experiment always fans out, so no
    // trace policy changes its cells.
    let default_set: Vec<_> = experiments::CATALOGUE.iter().filter(|e| e.2).collect();
    for (name, build, _) in &default_set {
        let exp = build(scale);
        let direct = run_experiment(
            &exp,
            &RunOptions {
                trace: TracePolicy::Off,
                ..opts.run.clone()
            },
        );
        let cold = run_experiment(&exp, &opts.run);
        let warm = run_experiment(&exp, &opts.run);
        let diverged =
            diverging_cells(name, &direct, &cold) + diverging_cells(name, &direct, &warm);
        println!(
            "trace_eq {name}: {} cells, cold {}/{} warm {}/{} \
             (replayed/interpreted), {} diverged ({:.2}s direct, {:.2}s cold, {:.2}s warm)",
            cold.cells.len(),
            cold.trace_hits(),
            cold.trace_misses(),
            warm.trace_hits(),
            warm.trace_misses(),
            diverged,
            direct.wall_s,
            cold.wall_s,
            warm.wall_s,
        );
        total_diverged += diverged;
        total_replayed += cold.trace_hits() + warm.trace_hits();
    }

    let corpus_ok = match &opts.run.trace {
        TracePolicy::Dir(dir) => audit_corpus(dir),
        _ => true,
    };

    println!(
        "\ntrace_eq: {} experiments at scale={}, {} replayed cells, {} divergences",
        default_set.len(),
        scale.label(),
        total_replayed,
        total_diverged,
    );
    if total_diverged == 0 && total_replayed > 0 && corpus_ok {
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!("trace_eq: FAILED (replay must cover cells and match direct simulation exactly)");
        std::process::ExitCode::FAILURE
    }
}
