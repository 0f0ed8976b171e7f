//! The compile path stays linear on deep, loop-heavy and wide functions,
//! on the prefetch pass's candidate walk, and on SCCP's constant folds:
//! four times the blocks, or four times the instructions of one loop
//! body or block, may cost the verifier, and the full pass pipeline, at
//! most eight times as much.
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

/// One counted loop over `%0[...]` whose body computes the index of
/// its load from the induction variable `%4` through `n` adds, each
/// made by `step` from the value before it; the increment is last.
fn loop_feeding_a_load(n: usize, step: impl Fn(usize) -> String) -> String {
    let mut s = format!(
        "module t\n\nfunc @f(%0: ptr, %1: i64) -> void {{\n  %2 = const 0: i64\n  \
         %3 = const 1: i64\nbb0:\n  br bb1\nbb1:\n  %4: i64 = phi [bb0: %2], [bb2: %{}]\n  \
         %5: i1 = icmp slt %4, %1\n  br %5, bb2, bb3\nbb2:\n",
        n + 8
    );
    for k in 6..n + 6 {
        let prev = if k == 6 { 4 } else { k - 1 };
        let _ = writeln!(s, "  %{k}: i64 = {}", step(prev));
    }
    s + &format!(
        "  %{}: ptr = gep %0, %{} x 8\n  %{}: i64 = load i64, %{}\n  %{}: i64 = add %4, %3\n  \
         br bb1\nbb3:\n  ret\n}}\n",
        n + 6,
        n + 5,
        n + 7,
        n + 6,
        n + 8
    )
}

/// `n` self-doubling adds (`%k = add %j, %j`) from the induction
/// variable to a load's index: one path per choice of operand at each
/// add, 2^n in all, through `n` values.
fn doubling_adds(n: usize) -> String {
    loop_feeding_a_load(n, |prev| format!("add %{prev}, %{prev}"))
}

/// A chain of `n` adds from the induction variable to a load's index.
fn chain_to_a_load(n: usize) -> String {
    loop_feeding_a_load(n, |prev| format!("add %{prev}, %1"))
}

/// A chain of `n` adds between two loads, `%0[f(%1[i])]`: the pass
/// accepts the prefetch and clones the whole chain.
fn chain_between_loads(n: usize) -> String {
    let mut s = format!(
        "module t\n\nfunc @f(%0: ptr, %1: ptr, %2: i64) -> void {{\n  %3 = const 0: i64\n  \
         %4 = const 1: i64\nbb0:\n  br bb1\nbb1:\n  %5: i64 = phi [bb0: %3], [bb2: %{}]\n  \
         %6: i1 = icmp slt %5, %2\n  br %6, bb2, bb3\nbb2:\n  %7: ptr = gep %1, %5 x 8\n  \
         %8: i64 = load i64, %7\n",
        n + 11
    );
    for k in 9..n + 9 {
        let _ = writeln!(s, "  %{k}: i64 = add %{}, %4", k - 1);
    }
    s + &format!(
        "  %{}: ptr = gep %0, %{} x 8\n  %{}: i64 = load i64, %{}\n  %{}: i64 = add %5, %4\n  \
         br bb1\nbb3:\n  ret\n}}\n",
        n + 9,
        n + 8,
        n + 10,
        n + 9,
        n + 11
    )
}

/// One loop body of `n` independent `%0[%1[i + k]]` pairs, every one
/// an accepted prefetch: the pass's per-candidate and per-plan work,
/// and where it puts the clones, in one wide block.
fn indirect_pairs(n: usize) -> String {
    let mut s = format!(
        "module t\n\nfunc @f(%0: ptr, %1: ptr, %2: i64) -> void {{\n  %3 = const 0: i64\n  \
         %4 = const 1: i64\nbb0:\n  br bb1\nbb1:\n  %5: i64 = phi [bb0: %3], [bb2: %{}]\n  \
         %6: i1 = icmp slt %5, %2\n  br %6, bb2, bb3\nbb2:\n",
        4 * n + 7
    );
    for k in 0..n {
        let v = 7 + 4 * k;
        let _ = write!(
            s,
            "  %{v}: ptr = gep %1, %5 x 8 + {}\n  %{}: i64 = load i64, %{v}\n  \
             %{}: ptr = gep %0, %{} x 8\n  %{}: i64 = load i64, %{}\n",
            8 * k,
            v + 1,
            v + 2,
            v + 1,
            v + 3,
            v + 2
        );
    }
    s + &format!(
        "  %{}: i64 = add %5, %4\n  br bb1\nbb3:\n  ret\n}}\n",
        4 * n + 7
    )
}

/// One block of `n` adds that SCCP folds, each to a new constant:
/// `%k = add %(k-1), %0` with `%0` a constant.
fn foldable_adds(n: usize) -> String {
    let mut s = String::from(
        "module t\n\nfunc @f() -> i64 {\n  %0 = const 1: i64\nbb0:\n  %1: i64 = add %0, %0\n",
    );
    for k in 2..=n {
        let _ = writeln!(s, "  %{k}: i64 = add %{}, %0", k - 1);
    }
    s + &format!("  ret %{n}\n}}\n")
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
        ("self-doubling adds feeding a load", doubling_adds, 5_000),
        ("add chain feeding a load", chain_to_a_load, 20_000),
        ("add chain between two loads", chain_between_loads, 5_000),
        ("independent indirect pairs", indirect_pairs, 2_500),
        ("foldable add chain", foldable_adds, 20_000),
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
