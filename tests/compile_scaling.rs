//! The compile path stays linear on deep, loop-heavy and wide functions:
//! four times the blocks, or four times the instructions of one loop
//! body, may cost the verifier, and the full pass pipeline, at most
//! eight times as much.
//!
//! One test in a binary of its own, so no other test shares the CPU
//! while it times.

use std::fmt::Write;
use std::time::Instant;
use swpf::ir::parser::parse_module;
use swpf::ir::verifier::verify_module;
use swpf::ir::Module;
use swpf::pass::{run_pipeline, PassConfig};
use swpf::pass_manager::AnalysisManager;

/// A chain of `n` blocks, each using a value the entry block defines:
/// every use sits `k` dominator-tree levels below its definition.
fn forward_chain(n: usize) -> String {
    let mut s =
        String::from("module t\n\nfunc @f(%0: i64) -> i64 {\nbb0:\n  %1: i64 = add %0, %0\n");
    for k in 1..n {
        let _ = write!(s, "  br bb{k}\nbb{k}:\n  %{}: i64 = add %1, %0\n", k + 1);
    }
    s + &format!("  ret %{n}\n}}\n")
}

/// A chain of `n` blocks entered from its highest-numbered block, so
/// block numbers run against dominance.
fn reverse_chain(n: usize) -> String {
    let mut s = format!("module t\n\nfunc @f() -> void {{\nbb0:\n  br bb{}\n", n - 1);
    s.push_str("bb1:\n  ret\n");
    for k in 2..n {
        let _ = write!(s, "bb{k}:\n  br bb{}\n", k - 1);
    }
    s + "}\n"
}

/// `n` self-loops one after another.
fn sequential_loops(n: usize) -> String {
    let mut s = String::from("module t\n\nfunc @f(%0: i1) -> void {\nbb0:\n  br bb1\n");
    for k in 1..=n {
        let _ = writeln!(s, "bb{k}:\n  br %0, bb{k}, bb{}", k + 1);
    }
    s + &format!("bb{}:\n  ret\n}}\n", n + 1)
}

/// One self-loop whose body is a chain of `n` loop-invariant `add`s,
/// all of which LICM hoists to the entry block.
fn wide_loop_body(n: usize) -> String {
    let mut s =
        String::from("module t\n\nfunc @f(%0: i64, %1: i1) -> i64 {\nbb0:\n  br bb1\nbb1:\n");
    s.push_str("  %2: i64 = add %0, %0\n");
    for k in 3..n + 2 {
        let _ = writeln!(s, "  %{k}: i64 = add %{}, %0", k - 1);
    }
    s + &format!("  br %1, bb1, bb2\nbb2:\n  ret %{}\n}}\n", n + 1)
}

/// Best-of-three seconds of `stage` on a fresh copy of `m`.
fn seconds(m: &Module, stage: impl Fn(&mut Module)) -> f64 {
    (0..3)
        .map(|_| {
            let mut copy = m.clone();
            let start = Instant::now();
            stage(&mut copy);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

#[test]
fn verifier_and_pipeline_scale_linearly_with_blocks() {
    let config = PassConfig::with_pipeline("swpf,gvn,sccp,licm,cse,dce");
    let verify = |m: &mut Module| verify_module(m).expect("verifies");
    let pipeline = |m: &mut Module| {
        run_pipeline(m, &config, &mut AnalysisManager::new());
    };
    for (shape, make, small) in [
        ("forward chain", forward_chain as fn(usize) -> String, 5_000),
        ("reverse chain", reverse_chain, 5_000),
        ("sequential self-loops", sequential_loops, 2_500),
        ("wide loop body", wide_loop_body, 20_000),
    ] {
        let (m1, m4) = (
            parse_module(&make(small)).expect("parses"),
            parse_module(&make(4 * small)).expect("parses"),
        );
        for (stage, t1, t4) in [
            ("verify", seconds(&m1, verify), seconds(&m4, verify)),
            ("pipeline", seconds(&m1, pipeline), seconds(&m4, pipeline)),
        ] {
            assert!(
                t4 < 8.0 * t1,
                "{shape}, {stage}: {t1:.4} s, then {t4:.4} s for 4x the input"
            );
        }
    }
}
