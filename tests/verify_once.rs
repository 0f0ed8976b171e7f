//! Verification as a cached fact, counted: how often each function is
//! walked by the verifier on `swpf-opt`'s path from parsed text to
//! printed output. `ir.verify.functions` is bumped once per function
//! verified, so the counts repeat exactly on any host.
//!
//! One test in a binary of its own: the counters and the
//! `SWPF_VERIFY_PASSES` variable are process-wide.

use swpf::ir::parser::parse_module;
use swpf::pass::{run_pipeline, PassConfig};
use swpf::pass_manager::AnalysisManager;
use swpf::workloads::{replicated_suite, Scale};

/// `swpf-opt --passes <pipeline>` between parser and printer, as
/// `src/bin/swpf-opt.rs` does it — one manager; input check, pipeline,
/// output check — and the verifier's walks per function it took.
fn walks_per_function(text: &str, pipeline: &str) -> f64 {
    let mut module = parse_module(text).expect("parses");
    swpf_obs::reset();
    let mut am = AnalysisManager::new();
    am.verify(&module).expect("input verifies");
    let report = run_pipeline(&mut module, &PassConfig::with_pipeline(pipeline), &mut am);
    am.verify(&module).expect("output verifies");
    assert_eq!(report.total_prefetches() > 0, pipeline.contains("swpf"));
    let walks = swpf_obs::snapshot().counters["ir.verify.functions"];
    walks as f64 / module.num_functions() as f64
}

#[test]
fn every_function_is_verified_after_its_last_change_and_not_again() {
    let text = replicated_suite(Scale::Test, 2);
    swpf_obs::enable();

    // Nothing changes the module: the input check is the only walk; the
    // `verify` stage and the output check find the fact standing.
    assert_eq!(walks_per_function(&text, "verify"), 1.0);
    // The prefetch pass changes functions, so the output is walked again.
    assert_eq!(walks_per_function(&text, "swpf"), 2.0);
    assert_eq!(walks_per_function(&text, "swpf,verify"), 2.0);
    assert_eq!(walks_per_function(&text, "swpf,gvn,sccp,licm,cse,dce"), 2.0);

    // Verify-between-passes ignores the fact: one walk after every
    // stage, whatever the stage declared, on top of the two checks.
    std::env::set_var("SWPF_VERIFY_PASSES", "1");
    assert_eq!(walks_per_function(&text, "verify"), 1.0 + 1.0);
    assert_eq!(walks_per_function(&text, "swpf"), 1.0 + 1.0 + 1.0);
    assert_eq!(
        walks_per_function(&text, "swpf,gvn,sccp,licm,cse,dce"),
        1.0 + 6.0 + 1.0
    );
    std::env::remove_var("SWPF_VERIFY_PASSES");
    swpf_obs::disable();
}
