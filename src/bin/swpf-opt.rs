//! `swpf-opt` — command-line driver for the prefetch-generation pass.
//!
//! Reads a module in the textual IR format (see `swpf_ir::printer`), runs
//! the automatic software-prefetching pass, and prints the transformed
//! module. The pass report goes to stderr. The module is compiled one
//! function at a time by [`swpf::opt::compile`]; each stream is rendered
//! into one buffer and written in one piece at the end, and a reader
//! that closes its end early (`swpf-opt … | head -1`) is not an error.
//!
//! ```text
//! swpf-opt [options] [input.swir]        (stdin when no file given)
//!   -c <n>         look-ahead constant (default 64)
//!   --no-stride    disable the stride companion prefetch
//!   --max-depth <n> cap the indirect stagger depth
//!   --passes <spec> comma-separated pass pipeline, e.g.
//!                  swpf,gvn,sccp,licm,cse,dce (default swpf; see --list)
//!   --list         list the available passes and exit
//!   --icc-like     run the restricted stride-indirect baseline instead
//!   --report-only  print only the report, not the module
//! ```

use std::io::{Read as _, Write as _};
use swpf::opt::{compile, Options};
use swpf::pass::{PassConfig, PassName, PASS_NAMES};

/// One-line description of each pipeline pass for `--list`.
fn pass_blurb(p: PassName) -> &'static str {
    match p {
        PassName::Swpf => "software-prefetch generation for indirect accesses (Algorithm 1)",
        PassName::Gvn => "dominator-scoped global value numbering",
        PassName::Sccp => "sparse conditional constant propagation (trap-preserving)",
        PassName::Licm => "loop-invariant code motion (fault-avoiding hoists only)",
        PassName::Cse => "block-local common-subexpression elimination",
        PassName::Dce => "dead-code elimination",
        PassName::Verify => "verification checkpoint (asserts invariants, changes nothing)",
    }
}

fn main() {
    let mut config = PassConfig::default();
    let mut input: Option<String> = None;
    let mut use_icc = false;
    let mut report_only = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-c" => {
                let v = args.next().and_then(|s| s.parse().ok());
                config.look_ahead = v.unwrap_or_else(|| die("`-c` needs an integer"));
            }
            "--no-stride" => config.stride_companion = false,
            "--max-depth" => {
                let v = args.next().and_then(|s| s.parse().ok());
                config.max_indirect_depth =
                    v.unwrap_or_else(|| die("`--max-depth` needs an integer"));
            }
            "--allow-pure-calls" => config.allow_pure_calls = true,
            "--no-hoisting" => config.enable_hoisting = false,
            "--passes" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| die("`--passes` needs a spec"));
                config.pipeline = spec
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad pipeline spec: {e}")));
            }
            "--icc-like" => use_icc = true,
            "--report-only" => report_only = true,
            "--list" => {
                println!("passes (combine with --passes as a comma-separated spec,");
                println!("e.g. --passes swpf,gvn,sccp,licm,cse,dce):");
                for p in PASS_NAMES {
                    println!("  {:<7} {}", p.as_str(), pass_blurb(p));
                }
                return;
            }
            "-h" | "--help" => {
                eprintln!("usage: swpf-opt [-c N] [--no-stride] [--max-depth N] [--allow-pure-calls] [--no-hoisting] [--passes SPEC] [--list] [--icc-like] [--report-only] [input.swir]");
                eprintln!(
                    "  --passes SPEC   comma-separated pipeline over {}",
                    PassName::valid_tokens()
                );
                eprintln!("  --list          list the available passes and exit");
                return;
            }
            other if input.is_none() && !other.starts_with('-') => input = Some(other.to_string()),
            other => die(&format!("unknown option `{other}`")),
        }
    }

    let text = match &input {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read `{path}`: {e}"))),
        None => {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")));
            s
        }
    };

    let options = Options {
        config,
        icc_like: use_icc,
        report_only,
    };
    let out = compile(&text, &options).unwrap_or_else(|e| die(&e));
    write_whole(std::io::stderr().lock(), &out.report, "report");
    if !report_only {
        write_whole(std::io::stdout().lock(), &out.module, "output");
    }
}

/// Write `text` to `stream` in one piece. A closed pipe ends the run
/// quietly (the reader has what it wanted); any other failure is fatal.
fn write_whole(mut stream: impl std::io::Write, text: &str, what: &str) {
    match stream
        .write_all(text.as_bytes())
        .and_then(|()| stream.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => die(&format!("cannot write {what}: {e}")),
    }
}

fn die(msg: &str) -> ! {
    // Best effort: stderr may be the stream that just failed.
    let _ = writeln!(std::io::stderr(), "swpf-opt: {msg}");
    std::process::exit(1);
}
