//! `swpf-opt` at its edges: hostile input ends in a one-line error and
//! exit 1, a reader that hangs up early is a quiet exit 0, and an
//! unwritable stream is a one-line error — never a panic (exit 101).

use std::io::Write as _;
use std::process::{Child, Command, Stdio};

/// Start `swpf-opt --passes verify` with `input` on stdin, stdout
/// going to `stdout`, and stderr captured.
fn spawn(stdout: impl Into<Stdio>, input: &str) -> Child {
    let mut child = Command::new(env!("CARGO_BIN_EXE_swpf-opt"))
        .args(["--passes", "verify"])
        .stdin(Stdio::piped())
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .expect("swpf-opt spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("input written");
    child
}

/// Exit code and stderr of `child`.
fn finish(child: Child) -> (Option<i32>, String) {
    let out = child.wait_with_output().expect("swpf-opt exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const TINY: &str = "module m\n\nfunc @f() -> void {\nbb0:\n  ret\n}\n";

#[test]
fn hostile_header_is_a_parse_error_not_a_panic() {
    let child = spawn(Stdio::piped(), &TINY.replace("@f()", "@f)("));
    assert_eq!(
        finish(child),
        (
            Some(1),
            "swpf-opt: parse error: parse error at line 3: `)` before `(`\n".to_string()
        )
    );
}

#[test]
fn a_reader_that_hangs_up_is_not_an_error() {
    // A module whose printed form (~190 KB) cannot fit a pipe buffer, so
    // the write fails with EPIPE whichever side gets there first.
    let mut big = String::from("module big\n");
    for i in 0..3000 {
        big.push_str(&format!(
            "\nfunc @f{i}(%0: i64) -> i64 {{\nbb0:\n  %1: i64 = add %0, %0\n  ret %1\n}}\n"
        ));
    }
    let mut child = spawn(Stdio::piped(), &big);
    drop(child.stdout.take());
    let (code, stderr) = finish(child);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn an_unwritable_stdout_is_a_one_line_error() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let (code, stderr) = finish(spawn(full, TINY));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("swpf-opt: cannot write output:"),
        "{stderr}"
    );
}

/// Four functions: `@a` returns a value from a void function and `@c`
/// returns nothing from an `i64` one (both verify errors), `@b` and
/// `@d` are fine.
const TWO_BAD: &str = "module m\n\n\
    func @a(%0: i64) -> void {\nbb0:\n  ret %0\n}\n\n\
    func @b() -> void {\nbb0:\n  ret\n}\n\n\
    func @c() -> i64 {\nbb0:\n  ret\n}\n\n\
    func @d() -> void {\nbb0:\n  ret\n}\n";

/// Exit code, stdout and stderr of `swpf-opt <args>` on `input`.
fn run(args: &[&str], input: &str) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_swpf-opt"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("swpf-opt spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(input.as_bytes()).expect("input written");
    drop(stdin);
    let out = child.wait_with_output().expect("swpf-opt exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_parse_error_anywhere_outranks_an_earlier_verify_error() {
    let input = TWO_BAD.replace(
        "func @d() -> void {\nbb0:\n  ret",
        "func @d() -> void {\nbb0:\n  frobnicate",
    );
    for args in [
        &["--passes", "verify"][..],
        &["--passes", "swpf,gvn,sccp,licm,cse,dce"],
        &["--icc-like"],
    ] {
        assert_eq!(
            run(args, &input),
            (
                Some(1),
                String::new(),
                "swpf-opt: parse error: parse error at line 20: unknown instruction `frobnicate`\n"
                    .to_string()
            ),
            "{args:?}"
        );
    }
}

#[test]
fn the_first_verify_error_is_the_one_reported() {
    for args in [
        &["--passes", "verify"][..],
        &["--passes", "swpf,gvn,sccp,licm,cse,dce"],
        &["--icc-like"],
    ] {
        assert_eq!(
            run(args, TWO_BAD),
            (
                Some(1),
                String::new(),
                "swpf-opt: input does not verify: verify error in @a: %1: ret type Some(I64), \
                 function returns None\n"
                    .to_string()
            ),
            "{args:?}"
        );
    }
}
