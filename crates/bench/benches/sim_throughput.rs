//! Criterion bench: host-side throughput of the execution-driven
//! simulator (interpreted instructions per second with the full timing
//! model attached). This bounds how large a paper-scale experiment can
//! be and is the number to watch when extending the machine models.
//!
//! The `bytecode` group compares the default bytecode tier against the
//! original tree-walking interpreter (`ClassicInterp`, kept as the
//! differential oracle); `bench_gate` holds the ratio to the `bytecode`
//! row of `BENCH.json` at the repository root.
//!
//! The `trace` group compares a full timed simulation driven by the
//! interpreter (`direct`) against the same machine driven by a recorded
//! event trace (`replay`) — the per-cell saving the experiment
//! harness's record/replay cache banks for every repeated machine cell;
//! `bench_gate` holds the ratio to `BENCH.json`'s `replay` row, and
//! streamed over in-memory replay to its `stream_replay` row.
//!
//! The `fanout` and `multicore` groups time the two event-delivery
//! shapes the single-machine groups never take: one interpretation
//! fanned out to all four presets (a fused grid row), and the four-core
//! interleaver's batched stepping. `bench_gate` holds their per-event
//! cost to a recorded multiple of `interp_with_timing`'s.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use swpf_ir::classic::ClassicInterp;
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{CountingObserver, Interp, NullObserver, Tier};
use swpf_sim::{
    replay_on_machine, run_multicore, run_on_machine, run_on_machine_image, run_on_machine_traced,
    streaming_replay_on_machine, MachineConfig, Sim, Source,
};
use swpf_trace::{StreamingReplay, Trace, TraceRecorder};
use swpf_workloads::is::IntegerSort;
use swpf_workloads::{Scale, Workload, WorkloadId};

/// The bytecode tier against the classic tree-walker: the A/B the
/// `bytecode` tier must win (`bench_gate` enforces the ratio in
/// `BENCH.json`'s `bytecode` row). The sides run back to back in one group
/// from the same cloned input memory; the bytecode side lowers once
/// outside the timed loop (the amortised shape of every real simulation
/// path — lowering is per-module, not per-run).
fn bytecode_tier(c: &mut Criterion) {
    let is = IntegerSort::new(Scale::Test);
    let m = is.build_baseline();
    let f = m.find_function("kernel").unwrap();
    // ~12 instructions per iteration, 1024 iterations at test scale.
    let insts = 12 * u64::from(is.num_keys as u32);
    // Identical pre-built input state for every side: setup once, clone
    // the simulated memory into each run (IS mutates its bucket array).
    let mut proto = Interp::new();
    let args = is.setup(&mut proto);
    let proto_mem = proto.mem_ref().clone();
    let image = std::sync::Arc::new(ExecImage::build(&m));
    let mut group = c.benchmark_group("bytecode");
    group.throughput(Throughput::Elements(insts));
    group.bench_function("bytecode/IS", |b| {
        b.iter(|| {
            let mut interp = Interp::with_tier(Tier::Bytecode);
            *interp.mem() = proto_mem.clone();
            let r = interp
                .run_with_image(std::sync::Arc::clone(&image), f, &args, &mut NullObserver)
                .unwrap();
            black_box(r);
        });
    });
    group.bench_function("classic/IS", |b| {
        b.iter(|| {
            let mut interp = ClassicInterp::new();
            *interp.mem() = proto_mem.clone();
            let r = interp.run(&m, f, &args, &mut NullObserver).unwrap();
            black_box(r);
        });
    });
    group.finish();
}

/// The observability cost contract on the hottest loop we have: the
/// bytecode-tier IS simulation with profiling explicitly disabled
/// (`disabled/IS`) must stay within noise of the same run before the
/// instrumentation existed — `bench_gate` compares it against the
/// same-process `bytecode/IS` record with a tight allowance. The
/// `enabled/IS` side runs the identical cell with the recorder on (and
/// a span around each iteration), sizing what turning profiling on
/// actually costs.
fn profiling_overhead(c: &mut Criterion) {
    let is = IntegerSort::new(Scale::Test);
    let m = is.build_baseline();
    let f = m.find_function("kernel").unwrap();
    let insts = 12 * u64::from(is.num_keys as u32);
    let mut proto = Interp::new();
    let args = is.setup(&mut proto);
    let proto_mem = proto.mem_ref().clone();
    let image = std::sync::Arc::new(ExecImage::build(&m));
    let run = |image: &std::sync::Arc<ExecImage>, proto_mem: &swpf_ir::interp::Memory| {
        let mut interp = Interp::with_tier(Tier::Bytecode);
        *interp.mem() = proto_mem.clone();
        interp
            .run_with_image(std::sync::Arc::clone(image), f, &args, &mut NullObserver)
            .unwrap()
    };
    let mut group = c.benchmark_group("profiling");
    group.throughput(Throughput::Elements(insts));
    swpf_obs::disable();
    group.bench_function("disabled/IS", |b| {
        b.iter(|| black_box(run(&image, &proto_mem)));
    });
    swpf_obs::enable();
    group.bench_function("enabled/IS", |b| {
        b.iter(|| {
            let _span = swpf_obs::span("bench:cell");
            black_box(run(&image, &proto_mem))
        });
    });
    swpf_obs::disable();
    swpf_obs::reset();
    group.finish();
}

fn interp_only(c: &mut Criterion) {
    let is = IntegerSort::new(Scale::Test);
    let m = is.build_baseline();
    let f = m.find_function("kernel").unwrap();
    let insts = 12 * u64::from(is.num_keys as u32);
    let mut group = c.benchmark_group("interp_only");
    group.throughput(Throughput::Elements(insts));
    group.bench_function("IS", |b| {
        b.iter(|| {
            let mut interp = Interp::new();
            let args = is.setup(&mut interp);
            let r = interp.run(&m, f, &args, &mut NullObserver).unwrap();
            black_box(r);
        });
    });
    group.finish();
}

fn interp_with_timing(c: &mut Criterion) {
    let is = IntegerSort::new(Scale::Test);
    let m = is.build_baseline();
    let insts = 12 * u64::from(is.num_keys as u32);
    let mut group = c.benchmark_group("interp_with_timing");
    group.throughput(Throughput::Elements(insts));
    for cfg in MachineConfig::all_systems() {
        group.bench_function(cfg.name, |b| {
            b.iter(|| {
                let stats = run_on_machine(&cfg, &m, "kernel", |interp| is.setup(interp));
                black_box(stats);
            });
        });
    }
    group.finish();
}

/// A fused grid row: HJ-8 interpreted once, its events fanned out to the
/// timing models of all four presets. Image and input memory are built
/// outside the loop, so the group times interpretation plus delivery
/// alone. Throughput is in machine-events — four per retired
/// instruction.
fn fanout(c: &mut Criterion) {
    let hj = WorkloadId::Hj8.instantiate(Scale::Test);
    let m = hj.build_baseline();
    let f = m.find_function("kernel").unwrap();
    let image = std::sync::Arc::new(ExecImage::build(&m));
    let mut proto = Interp::new();
    let args = hj.setup(&mut proto);
    let proto_mem = proto.mem_ref().clone();
    let mut counts = CountingObserver::default();
    proto
        .run_with_image(std::sync::Arc::clone(&image), f, &args, &mut counts)
        .unwrap();
    let mut setup = |_: usize, interp: &mut Interp| {
        *interp.mem() = proto_mem.clone();
        args.clone()
    };
    let cfgs = MachineConfig::all_systems();
    let row = Sim {
        machines: &cfgs.iter().collect::<Vec<_>>(),
        cores: 1,
        tier: Tier::from_env(),
        perf: false,
    };
    let mut group = c.benchmark_group("fanout");
    group.throughput(Throughput::Elements(cfgs.len() as u64 * counts.total));
    group.bench_function("HJ8_x4", |b| {
        b.iter(|| black_box(row.run(Source::image(&image, f, &mut setup))));
    });
    group.finish();
}

/// The multicore interleaver: four copies of IS on four haswell cores
/// sharing an LLC and DRAM, stepped in scheduler batches. Throughput is
/// in events across all cores.
fn multicore(c: &mut Criterion) {
    let is = IntegerSort::new(Scale::Test);
    let m = is.build_baseline();
    let f = m.find_function("kernel").unwrap();
    let cfg = MachineConfig::haswell();
    let mut counts = CountingObserver::default();
    let mut interp = Interp::new();
    let args = is.setup(&mut interp);
    interp.run(&m, f, &args, &mut counts).unwrap();
    let mut group = c.benchmark_group("multicore");
    group.throughput(Throughput::Elements(4 * counts.total));
    group.bench_function("IS_x4", |b| {
        b.iter(|| black_box(run_multicore(&cfg, 4, &m, f, |_, i| is.setup(i))));
    });
    group.finish();
}

/// Direct simulation vs. trace replay of the identical cell: same
/// machine, same kernel, same input data. `record` measures the
/// one-time cost of recording while measuring (the trace cache's miss
/// path).
fn trace_replay(c: &mut Criterion) {
    let is = IntegerSort::new(Scale::Test);
    let m = is.build_baseline();
    let f = m.find_function("kernel").unwrap();
    let insts = 12 * u64::from(is.num_keys as u32);
    let image = std::sync::Arc::new(ExecImage::build(&m));
    let cfg = MachineConfig::haswell();
    let mut proto = Interp::new();
    let args = is.setup(&mut proto);
    let proto_mem = proto.mem_ref().clone();
    let setup = |interp: &mut Interp| {
        *interp.mem() = proto_mem.clone();
        args.clone()
    };
    // Record the trace once, outside the timed loops (the amortised
    // shape: one recording serves every machine cell of a grid row).
    let mut rec = TraceRecorder::new(1, 0);
    let _ = run_on_machine_traced(&cfg, &image, f, setup, rec.stream(0));
    let trace = rec.finish();

    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(insts));
    group.bench_function("direct/IS", |b| {
        b.iter(|| black_box(run_on_machine_image(&cfg, &image, f, setup)));
    });
    group.bench_function("replay/IS", |b| {
        b.iter(|| black_box(replay_on_machine(&cfg, &trace)));
    });
    // Streaming replay: same cell, but decoded block-at-a-time from the
    // persisted (compressed) file — the bounded-memory warm path.
    let path = std::env::temp_dir().join(format!("swpf_bench_stream_{}.trace", std::process::id()));
    std::fs::write(&path, trace.to_bytes()).expect("trace file written");
    let replay = StreamingReplay::open(&path).expect("trace file opens");
    group.bench_function("stream_replay/IS", |b| {
        b.iter(|| {
            black_box(streaming_replay_on_machine(&cfg, &replay).expect("streaming replay runs"))
        });
    });
    group.bench_function("record/IS", |b| {
        b.iter(|| {
            let mut rec = TraceRecorder::new(1, 0);
            let stats = run_on_machine_traced(&cfg, &image, f, setup, rec.stream(0));
            black_box((stats, rec.finish()))
        });
    });
    // The block codec alone, on the same recording: envelope encode
    // (checksum + match search + entropy coding) and full decode
    // (entropy decode + match copy + checksum).
    let encoded = trace.to_bytes();
    group.bench_function("codec/encode/IS", |b| {
        b.iter(|| black_box(trace.to_bytes()));
    });
    group.bench_function("codec/decode/IS", |b| {
        b.iter(|| black_box(Trace::from_bytes(&encoded).expect("own output decodes")));
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

/// Per-PC prefetch-profiling overhead on the full timed simulation
/// path: `perf/disabled/IS` is the production configuration (one
/// `Option` check per memory access) and must stay within the
/// `bench_gate` 1.10 allowance of the bytecode-tier reference
/// (`trace/direct/IS`); `perf/enabled/IS` prices the opt-in.
fn perf_overhead(c: &mut Criterion) {
    let is = IntegerSort::new(Scale::Test);
    // The gated pair (`disabled/IS` vs `trace/direct/IS`) must run the
    // *same* baseline kernel, so the ratio prices the profiling hook
    // alone, not kernel differences; `enabled_manual/IS` additionally
    // exercises the prefetch-site classification on the manual kernel.
    let m = is.build_baseline();
    let f = m.find_function("kernel").unwrap();
    let insts = 12 * u64::from(is.num_keys as u32);
    let image = std::sync::Arc::new(ExecImage::build(&m));
    let manual = is.build_manual(64);
    let manual_f = manual.find_function("kernel").unwrap();
    let manual_image = std::sync::Arc::new(ExecImage::build(&manual));
    let cfg = MachineConfig::haswell();
    let mut proto = Interp::new();
    let args = is.setup(&mut proto);
    let proto_mem = proto.mem_ref().clone();
    let setup = |interp: &mut Interp| {
        *interp.mem() = proto_mem.clone();
        args.clone()
    };
    let mut per_core = |_: usize, interp: &mut Interp| setup(interp);
    // Through the request itself: the wrappers drop the profile.
    let haswell = Sim {
        machines: &[&cfg],
        cores: 1,
        tier: Tier::from_env(),
        perf: true,
    };
    let mut group = c.benchmark_group("perf");
    group.throughput(Throughput::Elements(insts));
    group.bench_function("disabled/IS", |b| {
        b.iter(|| black_box(run_on_machine_image(&cfg, &image, f, setup)));
    });
    group.bench_function("enabled/IS", |b| {
        b.iter(|| black_box(haswell.run(Source::image(&image, f, &mut per_core))));
    });
    group.bench_function("enabled_manual/IS", |b| {
        b.iter(|| black_box(haswell.run(Source::image(&manual_image, manual_f, &mut per_core))));
    });
    group.finish();
}

criterion_group!(
    benches,
    bytecode_tier,
    profiling_overhead,
    perf_overhead,
    interp_only,
    interp_with_timing,
    fanout,
    multicore,
    trace_replay
);
criterion_main!(benches);
