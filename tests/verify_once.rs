//! Verification as a cached fact, counted: how often each function is
//! walked by the verifier on `swpf-opt`'s path from parsed text to
//! printed output. `ir.verify.functions` is bumped once per function
//! verified, so the counts repeat exactly on any host.
//!
//! One test in a binary of its own: the counters and the
//! `SWPF_VERIFY_PASSES` variable are process-wide.

use swpf::opt::{compile, Options};
use swpf::pass::PassConfig;
use swpf::workloads::{replicated_suite, Scale};

/// `swpf-opt --passes <pipeline>` on `text` — per function: input
/// check, pipeline, output check — and the verifier's walks per
/// function it took.
fn walks_per_function(text: &str, pipeline: &str) -> f64 {
    swpf_obs::reset();
    let options = Options {
        config: PassConfig::with_pipeline(pipeline),
        ..Options::default()
    };
    let out = compile(text, &options).expect("compiles");
    // The summary line's first word is the number of prefetches inserted.
    let summary = out.report.lines().last().expect("a summary line");
    let prefetches: usize = summary
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .expect("a prefetch count");
    assert_eq!(prefetches > 0, pipeline.contains("swpf"));
    let walks = swpf_obs::snapshot().counters["ir.verify.functions"];
    walks as f64 / text.matches("\nfunc @").count() as f64
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
