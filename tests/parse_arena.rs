//! The parser's arena hint is bounded by the text: a function's value
//! arena is reserved from the lines of its body that have content, so
//! blank and comment-only lines cost nothing. Reserving from every line
//! up to the next header, a header followed by a million blank lines
//! asked for ~86 MB (1.2 × lines × a 72-byte value).
//!
//! One test in a binary of its own: the allocator hook is process-wide
//! and nothing else may allocate while it counts.

use swpf::ir::parser::parse_module;
use swpf_obs::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn blank_and_comment_lines_reserve_nothing() {
    let mut text = String::from("module m\n\nfunc @f(%0: i64) -> i64 {\n");
    for k in 0..1_000_000 {
        text.push_str(if k % 2 == 0 { "\n" } else { "  ; a comment\n" });
    }
    text.push_str("bb0:\n  %1: i64 = add %0, %0\n  ret %1\n}\n");
    ALLOC.reset_peak();
    let base = ALLOC.live_bytes();
    let module = parse_module(&text).expect("parses");
    let peak = ALLOC.peak_bytes() - base;
    assert_eq!(
        module
            .function(module.func_ids().next().expect("one"))
            .num_values(),
        3
    );
    assert!(
        peak < 2 * text.len(),
        "parsing {} bytes peaked at {peak} bytes of heap",
        text.len()
    );
}
