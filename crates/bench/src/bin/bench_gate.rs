//! Bench-regression gate for CI's bench-smoke job.
//!
//! Reads the line-oriented records the `criterion` shim appends under
//! `CRITERION_JSON` and compares relative speedups against the
//! references recorded at the repository root, failing (exit 1) on a
//! regression beyond the threshold:
//!
//! ```sh
//! CRITERION_JSON=bench.jsonl cargo bench -p swpf-bench --bench sim_throughput
//! cargo run --release -p swpf-bench --bin bench_gate -- \
//!     bench.jsonl BENCH_interp.json [BENCH_trace.json] [BENCH_pass.json]
//! ```
//!
//! Absolute ns/iter numbers are not comparable across hosts (CI
//! runners, developer laptops, and the container that recorded the
//! references all differ), so the gate watches *relative* speedups —
//! both sides measured in the same process seconds apart:
//!
//! * **bytecode** (`BENCH_interp.json`): the fixed-width bytecode tier
//!   over the classic tree-walker — what the decode layer, the
//!   threaded-code lowering and the superinstruction catalogue bought
//!   together;
//! * **timing model** (`BENCH_interp.json`): the haswell (out-of-order)
//!   timing model attached to the interpreter over the interpreter
//!   alone — the cost of the core/MemSys hot path in units of the layer
//!   beneath it, so a regression there cannot hide behind a fast host;
//! * **event path** (`BENCH_interp.json`): per-event cost of the two
//!   delivery shapes the single-machine benches never take — the 4-way
//!   fan-out of a fused grid row (per machine-event, over the mean of
//!   the same four presets' `interp_with_timing` cost) and the 4-core
//!   multicore interleaver (over `interp_with_timing/haswell`);
//! * **profiling** (no reference file): the bytecode-tier cell with
//!   `swpf-obs` instrumentation compiled in but disabled against the
//!   plain `bytecode/IS` record from the same process — the
//!   disabled-path cost contract (<2%, plus a noise allowance);
//! * **trace** (`BENCH_trace.json`, optional third argument): trace
//!   replay over direct simulation of the identical cell — what the
//!   record/replay cache banks on every repeated machine cell; plus the
//!   block-at-a-time streaming replay of the same cell from its
//!   persisted file over in-memory replay (what streaming adds to
//!   replay is what the trace layer owns; its ratio to direct
//!   simulation falls whenever the timing model gets faster);
//! * **compression** (`BENCH_trace.json`): the block-compressed
//!   envelope's size advantage over the raw event payload, measured
//!   deterministically in-process on a freshly recorded IS
//!   trace — byte counts, not wall-clock, so this leg is host-exact;
//! * **pipeline** (`BENCH_pass.json`, optional fourth argument): the
//!   full `swpf,gvn,sccp,licm,cse,dce` pipeline's compile-phase cost on
//!   the tune evaluator over the local-only `swpf,cse,dce` reference
//!   pipeline — both sides measured in-process, A/B-interleaved within
//!   each repetition, gated at a tighter 1.25x allowance;
//! * **IR text** (`BENCH_pass.json`): `parse_module` over
//!   `print_module` on the 500-function module the repo benchmark's
//!   `compile_batch` reads — reading a module in units of writing it,
//!   measured in-process and interleaved like the pipeline leg.
//!
//! The 30% allowance keeps shared-runner noise from flaking the job;
//! the gate exists to catch cliffs, not single-digit drift.

use swpf_bench::json::Json;

/// Allowed loss of a reference relative speedup before failing.
const MAX_REGRESSION: f64 = 1.30;

/// Allowed cost of disabled profiling on the bytecode sim hot path.
/// The `swpf-obs` contract is <2% when disabled; the rest of the
/// allowance absorbs shared-runner noise between the two same-process
/// measurements.
const MAX_PROFILING_OVERHEAD: f64 = 1.10;

/// Allowed drift of the full pipeline's compile-phase cost relative to
/// the `swpf,cse,dce` reference pipeline before failing. Tighter than
/// [`MAX_REGRESSION`] because both sides are measured in-process,
/// A/B-interleaved within each repetition, so host noise cancels.
const MAX_PIPELINE_REGRESSION: f64 = 1.25;

fn ns_from_records(text: &str, group: &str, bench: &str) -> Option<f64> {
    field_from_records(text, group, bench, "ns_per_iter")
}

/// Nanoseconds per throughput element (per retired event, for the
/// simulation benches) of a record that carries a rate.
fn ns_per_element(text: &str, group: &str, bench: &str) -> Option<f64> {
    field_from_records(text, group, bench, "rate_per_s").map(|rate| 1e9 / rate)
}

fn field_from_records(text: &str, group: &str, bench: &str, field: &str) -> Option<f64> {
    // Last record wins: CRITERION_JSON is append-only across runs.
    let mut best = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = match Json::parse(line) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench_gate: skipping malformed record: {e}");
                continue;
            }
        };
        if rec.get("group").and_then(Json::as_str) == Some(group)
            && rec.get("bench").and_then(Json::as_str) == Some(bench)
        {
            best = rec.get(field).and_then(Json::as_f64);
        }
    }
    best
}

fn reference_f64(reference: &Json, path: &str, group_key: &str, key: &str) -> Option<f64> {
    reference
        .get(group_key)
        .and_then(|g| g.get(key))
        .and_then(Json::as_f64)
        .or_else(|| {
            eprintln!("bench_gate: {path} has no {group_key}.{key}");
            None
        })
}

fn load_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

/// Gate one relative speedup: `slow_bench / fast_bench` of `group`,
/// measured vs. the reference `slow_ref / fast_ref`, each a
/// `(group key, key)` of the reference file. Returns false on missing
/// records or a regression beyond the allowance.
fn gate_ratio(
    records: &str,
    group: &str,
    (fast_bench, slow_bench): (&str, &str),
    records_path: &str,
    reference: &Json,
    reference_path: &str,
    (fast_ref, slow_ref): ((&str, &str), (&str, &str)),
) -> bool {
    let (Some(fast_ns), Some(slow_ns)) = (
        ns_from_records(records, group, fast_bench),
        ns_from_records(records, group, slow_bench),
    ) else {
        eprintln!(
            "bench_gate: missing `{group}/{fast_bench}` or `{group}/{slow_bench}` \
             record in {records_path}"
        );
        return false;
    };
    let (Some(ref_fast), Some(ref_slow)) = (
        reference_f64(reference, reference_path, fast_ref.0, fast_ref.1),
        reference_f64(reference, reference_path, slow_ref.0, slow_ref.1),
    ) else {
        return false;
    };

    let measured_speedup = slow_ns / fast_ns;
    let reference_speedup = ref_slow / ref_fast;
    let floor = reference_speedup / MAX_REGRESSION;
    println!(
        "bench_gate: {group} speedup ({slow_bench} over {fast_bench}) — measured \
         {measured_speedup:.3}x ({slow_ns:.0} / {fast_ns:.0} ns), reference \
         {reference_speedup:.3}x, floor {floor:.3}x (allowance {MAX_REGRESSION}x)"
    );
    if measured_speedup >= floor {
        true
    } else {
        eprintln!(
            "bench_gate: `{fast_bench}`'s advantage over `{slow_bench}` regressed more \
             than {MAX_REGRESSION}x vs the {reference_path} reference"
        );
        false
    }
}

/// Gate the envelope's compression ratio on a freshly recorded IS
/// trace: record in-process (byte-deterministic — no wall-clock in this
/// leg), encode it, and require the measured raw-payload/file ratio to
/// stay within the allowance of the reference ratio. The reference
/// numerator is the size of the retired raw-payload envelope, which is
/// the payload plus a fixed 56 bytes for one core.
fn gate_compression(reference: &Json, reference_path: &str) -> bool {
    use std::sync::Arc;
    use swpf_ir::exec::ExecImage;
    use swpf_ir::interp::Interp;
    use swpf_workloads::{Scale, Workload};

    let is = swpf_workloads::is::IntegerSort::new(Scale::Test);
    let module = is.build_baseline();
    let func = module.find_function("kernel").expect("kernel exists");
    let mut interp = Interp::new();
    let args = is.setup(&mut interp);
    let mut rec = swpf_trace::TraceRecorder::new(1, 0);
    interp
        .run_with_image(
            Arc::new(ExecImage::build(&module)),
            func,
            &args,
            rec.stream(0),
        )
        .expect("IS kernel runs");
    let trace = rec.finish();
    let raw = trace.payload_bytes() as f64;
    let file = trace.to_bytes().len() as f64;

    let (Some(ref_v1), Some(ref_v2)) = (
        reference_f64(reference, reference_path, "compression", "v1_bytes"),
        reference_f64(reference, reference_path, "compression", "v2_bytes"),
    ) else {
        return false;
    };
    let measured = raw / file;
    let reference_ratio = (ref_v1 - 56.0) / ref_v2;
    let floor = reference_ratio / MAX_REGRESSION;
    println!(
        "bench_gate: compression ratio (raw payload over file bytes, IS test trace) — \
         measured {measured:.3}x ({raw:.0} / {file:.0} B), reference {reference_ratio:.3}x, \
         floor {floor:.3}x (allowance {MAX_REGRESSION}x)"
    );
    if measured >= floor {
        true
    } else {
        eprintln!(
            "bench_gate: the envelope's compression ratio regressed more than \
             {MAX_REGRESSION}x vs the {reference_path} reference"
        );
        false
    }
}

/// Gate the disabled-profiling overhead: `profiling/disabled/IS` runs
/// the identical bytecode-tier cell as `bytecode/bytecode/IS` in the
/// same process, with instrumentation compiled in but switched off.
/// No reference file — both sides are fresh records, so the ratio is
/// directly comparable and must stay under the allowance.
fn gate_profiling(records: &str, records_path: &str) -> bool {
    let (Some(disabled_ns), Some(baseline_ns)) = (
        ns_from_records(records, "profiling", "disabled/IS"),
        ns_from_records(records, "bytecode", "bytecode/IS"),
    ) else {
        eprintln!(
            "bench_gate: missing `profiling/disabled/IS` or `bytecode/bytecode/IS` \
             record in {records_path}"
        );
        return false;
    };
    let overhead = disabled_ns / baseline_ns;
    println!(
        "bench_gate: disabled-profiling overhead (disabled/IS over bytecode/IS) — \
         {overhead:.3}x ({disabled_ns:.0} / {baseline_ns:.0} ns), \
         allowance {MAX_PROFILING_OVERHEAD}x"
    );
    if overhead <= MAX_PROFILING_OVERHEAD {
        true
    } else {
        eprintln!(
            "bench_gate: disabled profiling costs more than {MAX_PROFILING_OVERHEAD}x \
             on the bytecode sim hot path — the swpf-obs disabled-path contract is broken"
        );
        false
    }
}

/// Per-PC prefetch profiling must be free when disabled: the
/// `perf/disabled/IS` timed simulation (the production configuration —
/// one `Option` check per memory access, nothing else) is compared
/// against the bytecode-tier direct-simulation reference
/// (`trace/direct/IS`) from the same process, same allowance as
/// `gate_profiling`. The enabled path is opt-in and deliberately
/// ungated.
fn gate_perf(records: &str, records_path: &str) -> bool {
    let (Some(disabled_ns), Some(baseline_ns)) = (
        ns_from_records(records, "perf", "disabled/IS"),
        ns_from_records(records, "trace", "direct/IS"),
    ) else {
        eprintln!(
            "bench_gate: missing `perf/disabled/IS` or `trace/direct/IS` \
             record in {records_path}"
        );
        return false;
    };
    let overhead = disabled_ns / baseline_ns;
    println!(
        "bench_gate: disabled-perf overhead (perf disabled/IS over trace direct/IS) — \
         {overhead:.3}x ({disabled_ns:.0} / {baseline_ns:.0} ns), \
         allowance {MAX_PROFILING_OVERHEAD}x"
    );
    if overhead <= MAX_PROFILING_OVERHEAD {
        true
    } else {
        eprintln!(
            "bench_gate: disabled per-PC profiling costs more than {MAX_PROFILING_OVERHEAD}x \
             on the timed simulation hot path — the swpf_sim::perf purity contract is broken"
        );
        false
    }
}

/// Gate the timing model's cost over the interpreter that drives it:
/// `interp_with_timing/haswell` (the out-of-order core model and the
/// full memory hierarchy on every event) over `interp_only/IS` (the
/// same cell with no observer), against the ratio recorded when the
/// hot path was last reworked.
fn gate_timing_over_interp(
    records: &str,
    records_path: &str,
    reference: &Json,
    reference_path: &str,
) -> bool {
    let (Some(timing_ns), Some(interp_ns)) = (
        ns_from_records(records, "interp_with_timing", "haswell"),
        ns_from_records(records, "interp_only", "IS"),
    ) else {
        eprintln!(
            "bench_gate: missing `interp_with_timing/haswell` or `interp_only/IS` \
             record in {records_path}"
        );
        return false;
    };
    let Some(ref_ratio) = reference_f64(
        reference,
        reference_path,
        "timing_model",
        "timing_over_interp_haswell",
    ) else {
        return false;
    };
    let measured = timing_ns / interp_ns;
    let ceiling = ref_ratio * MAX_REGRESSION;
    println!(
        "bench_gate: timing model over interpreter (interp_with_timing/haswell over \
         interp_only/IS) — measured {measured:.3}x ({timing_ns:.0} / {interp_ns:.0} ns), \
         reference {ref_ratio:.3}x, ceiling {ceiling:.3}x (allowance {MAX_REGRESSION}x)"
    );
    if measured <= ceiling {
        true
    } else {
        eprintln!(
            "bench_gate: the timing model's cost over the interpreter regressed more \
             than {MAX_REGRESSION}x vs the {reference_path} reference"
        );
        false
    }
}

/// Gate one event-delivery shape's per-event cost (`group/bench`) over
/// the mean per-event cost of `interp_with_timing` on `presets` — the
/// monomorphic single-machine path, where delivery inlines away —
/// against the ratio recorded under `event_path.<ref_key>`.
fn gate_event_path(
    records: &str,
    records_path: &str,
    reference: &Json,
    reference_path: &str,
    (group, bench): (&str, &str),
    presets: &[&str],
    ref_key: &str,
) -> bool {
    let timing: Option<Vec<f64>> = presets
        .iter()
        .map(|p| ns_per_element(records, "interp_with_timing", p))
        .collect();
    let (Some(shape_ns), Some(timing)) = (ns_per_element(records, group, bench), timing) else {
        eprintln!(
            "bench_gate: missing `{group}/{bench}` or an `interp_with_timing/{{{}}}` \
             record in {records_path}",
            presets.join(",")
        );
        return false;
    };
    let Some(ref_ratio) = reference_f64(reference, reference_path, "event_path", ref_key) else {
        return false;
    };
    let timing_ns = timing.iter().sum::<f64>() / timing.len() as f64;
    let measured = shape_ns / timing_ns;
    let ceiling = ref_ratio * MAX_REGRESSION;
    println!(
        "bench_gate: event path ({group}/{bench} over interp_with_timing/{{{}}}, per event) — \
         measured {measured:.3}x ({shape_ns:.2} / {timing_ns:.2} ns), reference \
         {ref_ratio:.3}x, ceiling {ceiling:.3}x (allowance {MAX_REGRESSION}x)",
        presets.join(",")
    );
    if measured <= ceiling {
        true
    } else {
        eprintln!(
            "bench_gate: `{group}/{bench}`'s per-event cost over the single-machine path \
             regressed more than {MAX_REGRESSION}x vs the {reference_path} reference"
        );
        false
    }
}

/// Gate the full pipeline's compile-phase cost: compile every point of
/// the default search space through the full global pipeline
/// (`swpf,gvn,sccp,licm,cse,dce`) and through the PR 5 local-only
/// pipeline (`swpf,cse,dce`) on the tune evaluator — A/B-interleaved
/// within each repetition, so wall-clock drift cancels — and require
/// the measured full/local ratio to stay within the allowance of the
/// `BENCH_pass.json` reference. Catches a global pass turning
/// accidentally super-linear, which per-run absolutes cannot.
fn gate_pipeline(reference: &Json, reference_path: &str) -> bool {
    use std::time::Instant;
    use swpf_core::PassConfig;
    use swpf_tune::{Evaluator, SearchSpace};
    use swpf_workloads::{Scale, WorkloadId};

    const FULL: &str = "swpf,gvn,sccp,licm,cse,dce";
    const LOCAL: &str = "swpf,cse,dce";
    let machines = [swpf_sim::MachineConfig::a53()];
    let space = SearchSpace::paper_default();
    let reps = 10;

    let mut full_s = 0.0;
    let mut local_s = 0.0;
    for _ in 0..reps {
        for &id in &WorkloadId::FIG6 {
            let w = id.instantiate(Scale::Test);
            for (spec, acc) in [(FULL, &mut full_s), (LOCAL, &mut local_s)] {
                let mut ev = Evaluator::new(w.as_ref(), &machines);
                let t = Instant::now();
                for i in 0..space.len() {
                    let config = PassConfig {
                        pipeline: spec.parse().expect("valid pipeline spec"),
                        ..space.at(i)
                    };
                    let _ = ev.compile_candidate(&config);
                }
                *acc += t.elapsed().as_secs_f64();
            }
        }
    }

    let Some(ref_ratio) = reference_f64(
        reference,
        reference_path,
        "pipeline_gate",
        "full_over_cse_dce",
    ) else {
        return false;
    };
    let measured = full_s / local_s;
    let ceiling = ref_ratio * MAX_PIPELINE_REGRESSION;
    println!(
        "bench_gate: pipeline compile cost (`{FULL}` over `{LOCAL}`, {reps} interleaved \
         reps × {} points) — measured {measured:.3}x ({:.1} / {:.1} ms), reference \
         {ref_ratio:.3}x, ceiling {ceiling:.3}x (allowance {MAX_PIPELINE_REGRESSION}x)",
        space.len(),
        full_s * 1e3,
        local_s * 1e3,
    );
    if measured <= ceiling {
        true
    } else {
        eprintln!(
            "bench_gate: the full pipeline's compile cost over `{LOCAL}` regressed more \
             than {MAX_PIPELINE_REGRESSION}x vs the {reference_path} reference"
        );
        false
    }
}

/// The text front end's cost: `parse_module` over `print_module` on
/// `replicated_suite(Scale::Test, 100)`, each the fastest of `reps`
/// interleaved repetitions, held to `ir_text_gate.parse_over_print` of
/// the reference times [`MAX_REGRESSION`].
fn gate_ir_text(reference: &Json, reference_path: &str) -> bool {
    use std::hint::black_box;
    use std::time::Instant;
    use swpf_ir::parser::parse_module;
    use swpf_ir::printer::print_module;
    use swpf_workloads::{replicated_suite, Scale};

    let text = replicated_suite(Scale::Test, 100);
    let module = parse_module(&text).expect("the replicated suite parses");
    let reps = 20;
    let (mut parse_s, mut print_s) = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(parse_module(black_box(&text)).expect("parses"));
        parse_s = parse_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(print_module(black_box(&module)));
        print_s = print_s.min(t.elapsed().as_secs_f64());
    }

    let Some(ref_ratio) = reference_f64(
        reference,
        reference_path,
        "ir_text_gate",
        "parse_over_print",
    ) else {
        return false;
    };
    let measured = parse_s / print_s;
    let ceiling = ref_ratio * MAX_REGRESSION;
    println!(
        "bench_gate: IR text (`parse_module` over `print_module`, {} lines, fastest of {reps} \
         interleaved reps) — measured {measured:.3}x ({:.2} / {:.2} ms), reference \
         {ref_ratio:.3}x, ceiling {ceiling:.3}x (allowance {MAX_REGRESSION}x)",
        text.lines().count(),
        parse_s * 1e3,
        print_s * 1e3,
    );
    if measured <= ceiling {
        true
    } else {
        eprintln!(
            "bench_gate: parsing a module costs more than {MAX_REGRESSION}x the \
             {reference_path} reference, in units of printing it"
        );
        false
    }
}

fn main() -> std::process::ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(records_path), Some(interp_ref_path)) = (args.next(), args.next()) else {
        eprintln!(
            "usage: bench_gate <criterion-json-lines> <BENCH_interp.json> \
             [BENCH_trace.json] [BENCH_pass.json]"
        );
        return std::process::ExitCode::FAILURE;
    };
    let trace_ref_path = args.next();
    let pass_ref_path = args.next();

    let records = std::fs::read_to_string(&records_path)
        .unwrap_or_else(|e| panic!("cannot read {records_path}: {e}"));

    let interp_ref = load_json(&interp_ref_path);
    let mut ok = gate_ratio(
        &records,
        "bytecode",
        ("bytecode/IS", "classic/IS"),
        &records_path,
        &interp_ref,
        &interp_ref_path,
        (
            ("bytecode_group", "bytecode_ns_per_iter"),
            ("engines_group", "before_classic_ns_per_iter"),
        ),
    );
    ok &= gate_timing_over_interp(&records, &records_path, &interp_ref, &interp_ref_path);
    ok &= gate_event_path(
        &records,
        &records_path,
        &interp_ref,
        &interp_ref_path,
        ("fanout", "HJ8_x4"),
        &["haswell", "xeon_phi", "a57", "a53"],
        "fanout_over_timing",
    );
    ok &= gate_event_path(
        &records,
        &records_path,
        &interp_ref,
        &interp_ref_path,
        ("multicore", "IS_x4"),
        &["haswell"],
        "multicore_over_timing",
    );
    ok &= gate_profiling(&records, &records_path);
    ok &= gate_perf(&records, &records_path);
    if let Some(path) = trace_ref_path {
        let trace_ref = load_json(&path);
        ok &= gate_ratio(
            &records,
            "trace",
            ("replay/IS", "direct/IS"),
            &records_path,
            &trace_ref,
            &path,
            (
                ("trace_group", "replay_ns_per_iter"),
                ("trace_group", "direct_ns_per_iter"),
            ),
        );
        ok &= gate_ratio(
            &records,
            "trace",
            ("stream_replay/IS", "replay/IS"),
            &records_path,
            &trace_ref,
            &path,
            (
                ("trace_group", "stream_replay_ns_per_iter"),
                ("trace_group", "replay_ns_per_iter"),
            ),
        );
        ok &= gate_compression(&trace_ref, &path);
    }
    if let Some(path) = pass_ref_path {
        let pass_ref = load_json(&path);
        ok &= gate_pipeline(&pass_ref, &path);
        ok &= gate_ir_text(&pass_ref, &path);
    }
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
