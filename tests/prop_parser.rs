//! Parser robustness: arbitrary input must never panic, and valid
//! modules must survive arbitrary single-line mutations without panics
//! (errors are fine; crashes are not).

use proptest::prelude::*;
use swpf::pass::{run_on_module, PassConfig};
use swpf::workloads::{suite, Scale};
use swpf_ir::parser::parse_module;
use swpf_ir::printer::print_module;

const VALID: &str = r"module t

func @k(%0: ptr, %1: ptr, %2: i64) -> i64 {
  %3 = const 0: i64
  %4 = const 1: i64
bb0:
  br bb1
bb1:
  %5: i64 = phi [bb0: %3], [bb2: %11]
  %6: i64 = phi [bb0: %3], [bb2: %10]
  %7: i1 = icmp slt %5, %2
  br %7, bb2, bb3
bb2:
  %8: ptr = gep %1, %5 x 8
  %9: i64 = load i64, %8
  %sa: ptr = gep %0, %9 x 8
  %sv: i64 = load i64, %sa
  %10: i64 = add %6, %sv
  %11: i64 = add %5, %4
  br bb1
bb3:
  ret %6
}
";

proptest! {
    #[test]
    fn arbitrary_text_never_panics(s in "\\PC{0,400}") {
        let _ = parse_module(&s);
    }

    #[test]
    fn arbitrary_lines_never_panic(
        lines in prop::collection::vec("[%a-z0-9 =:,\\[\\]()@.+x-]{0,40}", 0..20),
    ) {
        let mut text = String::from("module t\n\nfunc @f() -> void {\nbb0:\n");
        for l in &lines {
            text.push_str(l);
            text.push('\n');
        }
        text.push_str("}\n");
        let _ = parse_module(&text);
    }

    #[test]
    fn single_line_mutations_never_panic(
        line_idx in 0usize..24,
        replacement in "[%a-z0-9 =:,\\[\\]@x+-]{0,30}",
    ) {
        let mut lines: Vec<String> = VALID.lines().map(String::from).collect();
        if line_idx < lines.len() {
            lines[line_idx] = replacement;
        }
        let _ = parse_module(&lines.join("\n"));
    }

    #[test]
    fn truncations_never_panic(cut in 0usize..700) {
        let text = &VALID[..cut.min(VALID.len())];
        // May split a UTF-8 boundary? VALID is ASCII, safe.
        let _ = parse_module(text);
    }
}

#[test]
fn valid_module_roundtrips_through_arbitrary_reprints() {
    let m = parse_module(VALID).expect("valid parses");
    let mut text = print_module(&m);
    for _ in 0..4 {
        let m2 = parse_module(&text).expect("reprint parses");
        swpf_ir::verifier::verify_module(&m2).expect("reprint verifies");
        let next = print_module(&m2);
        assert_eq!(next, text, "printing reached a fixpoint");
        text = next;
    }
}

/// `print ∘ parse ∘ print` is the identity on what the passes emit too:
/// every baseline kernel after each benchmark pipeline (inserted
/// prefetch chains, interned constants, detached instructions).
#[test]
fn post_pipeline_modules_roundtrip() {
    for w in suite(Scale::Test) {
        for pipeline in ["verify", "swpf", "swpf,gvn,sccp,licm,cse,dce"] {
            let mut m = w.build_baseline();
            run_on_module(&mut m, &PassConfig::with_pipeline(pipeline));
            let text = print_module(&m);
            let reparsed = parse_module(&text)
                .unwrap_or_else(|e| panic!("{} after {pipeline}: {e}", w.name()));
            swpf_ir::verifier::verify_module(&reparsed).expect("reprint verifies");
            assert_eq!(
                print_module(&reparsed),
                text,
                "{} after {pipeline}",
                w.name()
            );
        }
    }
}

/// Names the printer never emits resolve exactly as they always have:
/// symbolic names, a `%`-less constant name, a zero-padded `%05` that
/// is not `%5`, a number ahead of the arena (`%99`), forward phi
/// references, and a rebound name that every use — earlier ones too —
/// resolves to. The expected text is what the parser before the
/// zero-copy rewrite printed for this input.
#[test]
fn unusual_value_names_resolve_as_before() {
    let src = "module names ; symbolic, zero-padded, ahead-of-arena and rebound names

func @kernel(%0: ptr, %1: i64) -> i64 {
  %zero = const 0: i64
  one = const 1: i64
  %99: i64 = const 8: i64
bb0:
  br bb1
bb1:
  %i: i64 = phi [bb0: %zero], [bb2: %next] ; forward reference
  %05: i64 = phi [bb0: %zero], [bb2: %5]
  %c: i1 = icmp slt %i, %1
  br %c, bb2, bb3
bb2:
  %a: ptr = gep %0, %i x 8
  %5: i64 = load i64, %a
  %t: i64 = add %05, %5
  %5: i64 = mul %t, %99    ; rebinds %5
  %next: i64 = add %i, one
  br bb1
bb3:
  ret %05
}
";
    let want = "module names

func @kernel(%0: ptr, %1: i64) -> i64 {
  %2 = const 0: i64
  %3 = const 1: i64
  %4 = const 8: i64
bb0:
  br bb1
bb1:
  %6: i64 = phi [bb0: %2], [bb2: %14]
  %7: i64 = phi [bb0: %2], [bb2: %13]
  %8: i1 = icmp slt %6, %1
  br %8, bb2, bb3
bb2:
  %10: ptr = gep %0, %6 x 8
  %11: i64 = load i64, %10
  %12: i64 = add %7, %13
  %13: i64 = mul %12, %4
  %14: i64 = add %6, %3
  br bb1
bb3:
  ret %7
}
";
    let m = parse_module(src).expect("parses");
    assert_eq!(print_module(&m), want);
}
