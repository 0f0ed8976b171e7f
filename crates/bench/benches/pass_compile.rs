//! Criterion bench: compile-time cost of the prefetch-generation pass
//! itself (analysis + code generation) on each benchmark kernel.
//!
//! The paper's pass runs inside LLVM's -O pipeline; this keeps ours
//! honest about asymptotics (the DFS memoises, codegen is O(chain²) per
//! candidate — both should stay microseconds on kernel-sized functions).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use swpf_core::{run_on_module, PassConfig};
use swpf_ir::parser::parse_module;
use swpf_ir::printer::print_module;
use swpf_ir::verifier::verify_module;
use swpf_workloads::{replicated_suite, suite, Scale};

fn pass_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("pass_compile");
    for w in suite(Scale::Test) {
        let baseline = w.build_baseline();
        group.bench_function(w.name(), |b| {
            b.iter(|| {
                let mut m = baseline.clone();
                let report = run_on_module(&mut m, &PassConfig::default());
                black_box((m, report));
            });
        });
    }
    group.finish();
}

fn analysis_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis");
    for w in suite(Scale::Test) {
        let m = w.build_baseline();
        let fid = m.find_function("kernel").unwrap();
        group.bench_function(w.name(), |b| {
            b.iter(|| {
                let a = swpf_analysis::FuncAnalysis::compute(m.function(fid));
                black_box(a);
            });
        });
    }
    group.finish();
}

fn verifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify");
    for w in suite(Scale::Test) {
        let mut m = w.build_baseline();
        run_on_module(&mut m, &PassConfig::default());
        group.bench_function(w.name(), |b| {
            b.iter(|| {
                swpf_ir::verifier::verify_module(black_box(&m)).unwrap();
            });
        });
    }
    group.finish();
}

/// The text → IR → text path over a compiler-sized input: 100 copies
/// of every distinct baseline kernel (500 functions, the shape of the
/// repo benchmark's `big.swir`). Throughput is in input bytes; ns per
/// line is `/iter` over the line count printed first.
fn ir_text(c: &mut Criterion) {
    let text = replicated_suite(Scale::Test, 100);
    let module = parse_module(&text).expect("replicated suite parses");
    println!(
        "ir_text input: {} bytes, {} lines, {} functions",
        text.len(),
        text.lines().count(),
        module.num_functions()
    );
    let full = PassConfig::with_pipeline("swpf,gvn,sccp,licm,cse,dce");
    let mut group = c.benchmark_group("ir_text");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("parse", |b| {
        b.iter(|| parse_module(black_box(&text)).unwrap());
    });
    group.bench_function("print", |b| {
        b.iter(|| print_module(black_box(&module)));
    });
    group.bench_function("verify", |b| {
        b.iter(|| verify_module(black_box(&module)).unwrap());
    });
    group.bench_function("parse_pipeline_print", |b| {
        b.iter(|| {
            let mut m = parse_module(black_box(&text)).unwrap();
            let report = run_on_module(&mut m, &full);
            black_box((print_module(&m), report));
        });
    });
    group.finish();
}

criterion_group!(benches, pass_compile, analysis_only, verifier, ir_text);
criterion_main!(benches);
