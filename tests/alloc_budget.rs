//! The compile path's allocation budget — the deterministic twin of the
//! `compile_batch` wall-clock claim. Counts trips into the allocator
//! (`alloc` + `realloc`) under the shared counting allocator, so a
//! regression fails by the same amount on any host.
//!
//! One test in a binary of its own: the allocator hook is process-wide
//! and nothing else may allocate while it counts.

use swpf::ir::parser::parse_module;
use swpf::ir::printer::print_module;
use swpf::ir::verifier::verify_module;
use swpf::pass::{run_on_module, PassConfig};
use swpf::workloads::{replicated_suite, Scale};
use swpf_obs::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn compile_path_stays_within_its_allocation_budget() {
    // Five kernels × 20 copies: the shape of the benchmark's `big.swir`.
    let text = replicated_suite(Scale::Test, 20);
    let lines = text.lines().count();

    // Text → IR → text. At the commit before this budget existed the
    // same round trip made 11.2 allocator calls per input line (owned
    // line copies, a `String` per operand, per-instruction operand and
    // successor vectors), and 0.71 until the parser stopped growing
    // arenas and instruction lists by doubling and naming blocks. What
    // is left, 0.43 a line, is the IR itself — a function's name,
    // signature, arena and block list, a block's instruction list, a
    // phi's incomings — at its final size; the budget is that figure
    // plus 25% headroom.
    let before = ALLOC.calls();
    let module = parse_module(&text).expect("replicated module parses");
    verify_module(&module).expect("replicated module verifies");
    let printed = print_module(&module);
    let round_trip = ALLOC.calls() - before;
    assert_eq!(printed, text, "the input is the printer's own text");
    assert!(
        round_trip * 100 <= 54 * lines,
        "parse + verify + print: {round_trip} allocator calls for {lines} lines \
         ({:.2} per line, budget 0.54)",
        round_trip as f64 / lines as f64
    );

    // The prefetch pass alone, on a module parsed afresh. At the commit
    // before this row existed it made 122 allocator calls per function:
    // a candidate walk that copied a path set at each level of each
    // path, and side tables built per function and per chain position.
    // Now 43, over half of them the analyses' results; the budget is
    // that figure plus 25% headroom.
    let mut fresh = parse_module(&text).expect("replicated module parses");
    let functions = fresh.num_functions();
    let before = ALLOC.calls();
    let report = run_on_module(&mut fresh, &PassConfig::default());
    let swpf = ALLOC.calls() - before;
    assert!(report.total_prefetches() > 0, "the pass did its work");
    assert!(
        swpf <= 54 * functions,
        "swpf: {swpf} allocator calls for {functions} functions \
         ({:.1} per function, budget 54)",
        swpf as f64 / functions as f64
    );

    // The full six-pass pipeline. Seed: 545 allocator calls per function
    // (SipHash maps and tree sets rebuilt per function and per pass, a
    // vector per operand query); 124 while the prefetch pass's path sets
    // made most of them. Now 45; the budget is that figure plus 25%
    // headroom.
    let mut module = module;
    let before = ALLOC.calls();
    let report = run_on_module(
        &mut module,
        &PassConfig::with_pipeline("swpf,gvn,sccp,licm,cse,dce"),
    );
    let pipeline = ALLOC.calls() - before;
    assert!(report.total_prefetches() > 0, "the pipeline did its work");
    assert!(
        pipeline <= 56 * functions,
        "full pipeline: {pipeline} allocator calls for {functions} functions \
         ({:.1} per function, budget 56)",
        pipeline as f64 / functions as f64
    );
    verify_module(&module).expect("pipeline output verifies");
}
