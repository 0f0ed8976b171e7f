//! The compile path's memory bound — the deterministic twin of
//! `compile_batch`'s peak-RSS claim. `swpf::opt::compile` holds the
//! input, the output and one function at a time, so its peak live heap
//! is bounded by the text it reads and writes, whatever the number of
//! functions. Measured as the counting allocator's high-water mark, so
//! a regression fails by the same amount on any host.
//!
//! One test in a binary of its own: the allocator hook is process-wide
//! and nothing else may allocate while it counts.

use swpf::opt::{compile, Options};
use swpf::pass::PassConfig;
use swpf::workloads::{replicated_suite, Scale};
use swpf_obs::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn peak_heap_is_bounded_by_the_text_read_and_written() {
    // Five kernels × 100 copies: the shape of the benchmark's `big.swir`.
    let text = replicated_suite(Scale::Test, 100);
    for pipeline in ["verify", "swpf", "swpf,gvn,sccp,licm,cse,dce"] {
        let options = Options {
            config: PassConfig::with_pipeline(pipeline),
            ..Options::default()
        };
        ALLOC.reset_peak();
        let base = ALLOC.live_bytes();
        let out = compile(&text, &options).expect("the module compiles");
        let peak = ALLOC.peak_bytes() - base;
        // The input was live before the run and counts against it, as
        // the output and the report it returns do. Whole-module
        // compilation peaked at 3.7–5.3 MB here, 3.8–4.1 times their
        // sum: the parsed module, its analyses and its report on top.
        // One function at a time it is 1.17–1.22 times.
        let texts = text.len() + out.module.len() + out.report.len();
        let peak = peak + text.len();
        assert!(
            peak * 2 <= texts * 3,
            "--passes {pipeline}: peak live heap {peak} bytes for {texts} bytes of \
             input, output and report ({:.2}x, budget 1.5x)",
            peak as f64 / texts as f64
        );
    }
}
