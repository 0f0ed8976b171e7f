//! Integration through the textual interface: parse a program, run the
//! pass, verify, execute, and compare against the unmodified program —
//! covering corner shapes (down-counting loops, unsigned bounds,
//! alloc-derived clamps, pure calls) end to end.

mod swir_sources;

use swir_sources::{
    DOWNCOUNTING, DOWNCOUNTING_LOCAL_ALLOC, PURE_CALL, UNSIGNED_BOUND, UPCOUNTING_SIGNED,
};
use swpf::pass::{run_on_module, PassConfig};
use swpf_ir::interp::{Interp, NullObserver, RtVal};
use swpf_ir::parser::parse_module;
use swpf_ir::verifier::verify_module;
use swpf_ir::Module;

/// Execute `@kernel(a, b, n)` over permutation data; returns the result.
fn run_kernel(m: &Module, n: u64) -> i64 {
    let mut interp = Interp::new();
    let a = interp.alloc_array(n, 8).unwrap();
    let b = interp.alloc_array(n, 8).unwrap();
    for i in 0..n {
        interp.mem().write(a + i * 8, 8, i * 7 + 1).unwrap();
        interp.mem().write(b + i * 8, 8, (i * 13 + 5) % n).unwrap();
    }
    let f = m.find_function("kernel").expect("kernel");
    interp
        .run(
            m,
            f,
            &[
                RtVal::Int(a as i64),
                RtVal::Int(b as i64),
                RtVal::Int(n as i64),
            ],
            &mut NullObserver,
        )
        .expect("no faults")
        .expect("returns i64")
        .as_int()
}

fn check_program(src: &str, expect_prefetches: bool) {
    let mut m = parse_module(src).expect("parses");
    verify_module(&m).expect("verifies");
    let want = run_kernel(&m, 128);
    let report = run_on_module(&mut m, &PassConfig::default());
    verify_module(&m).expect("pass output verifies");
    assert_eq!(
        report.total_prefetches() > 0,
        expect_prefetches,
        "prefetch expectation:\n{report}"
    );
    assert_eq!(run_kernel(&m, 128), want, "results preserved");
    // Also at a trip count smaller than the look-ahead: clamp stress.
    assert_eq!(
        {
            let mut m2 = parse_module(src).unwrap();
            run_on_module(&mut m2, &PassConfig::default());
            run_kernel(&m2, 3)
        },
        {
            let m2 = parse_module(src).unwrap();
            run_kernel(&m2, 3)
        },
        "clamped execution at tiny trip counts"
    );
}

#[test]
fn upcounting_signed_loop_gets_prefetches() {
    check_program(UPCOUNTING_SIGNED, true);
}

#[test]
fn unsigned_bound_loop_gets_prefetches() {
    check_program(UNSIGNED_BOUND, true);
}

#[test]
fn downcounting_loop_is_rejected_without_alloc_info() {
    // for (i = n-1; i >= 0; i--): step -1 is not the canonical form the
    // loop-bound clamp supports, and the arrays are arguments — the pass
    // must refuse rather than risk a fault (§4.2 prototype restriction).
    check_program(DOWNCOUNTING, false);
}

#[test]
fn downcounting_loop_with_local_alloc_is_clamped_by_extent() {
    // Same down-counting shape, but the look-ahead array is a local
    // allocation: the alloc-extent clamp supports step −1 (bounded on
    // both sides), so prefetches are generated.
    let src = DOWNCOUNTING_LOCAL_ALLOC;
    let mut m = parse_module(src).expect("parses");
    verify_module(&m).expect("verifies");
    let want = run_kernel(&m, 64);
    let report = run_on_module(&mut m, &PassConfig::default());
    verify_module(&m).expect("verifies after pass");
    assert!(
        report.total_prefetches() > 0,
        "alloc extent admits down-counting loops:\n{report}"
    );
    assert_eq!(run_kernel(&m, 64), want);
}

#[test]
fn pure_call_program_respects_extension_flag() {
    let src = PURE_CALL;
    // Default config: rejected because of the call.
    let mut strict = parse_module(src).unwrap();
    let report = run_on_module(&mut strict, &PassConfig::default());
    assert_eq!(report.total_prefetches(), 0, "{report}");

    // Extension flag: admitted, semantics preserved.
    let mut relaxed = parse_module(src).unwrap();
    let want = run_kernel(&parse_module(src).unwrap(), 200);
    let report = run_on_module(
        &mut relaxed,
        &PassConfig {
            allow_pure_calls: true,
            ..PassConfig::default()
        },
    );
    verify_module(&relaxed).unwrap();
    assert!(report.total_prefetches() > 0, "{report}");
    assert_eq!(run_kernel(&relaxed, 200), want);
}
