//! The benchmark's command line.
//!
//! ```text
//! runner --workload W --seed N --seconds S --trace 0|1
//!     One workload at test scale, rounds for S seconds; the last stdout
//!     line is the result as JSON. `--trace 0` gives the end-to-end
//!     metrics; `--trace 1` also runs the layer probe for S seconds and
//!     gives every per-layer metric.
//! runner run [--scale test|paper] [--seconds S | --rounds N] [--seed N]
//!            [--layers] [--smoke] [--out FILE]
//!     Every workload, round-robin. Default: test scale, 18 seconds each.
//! runner compare A.json B.json
//! runner compare A1.json A2.json ... --against B1.json B2.json ...
//!     Apply the BENCHMARK.json bounds to two result files of `run`, or
//!     to the medians of two sets of them.
//! ```
//!
//! Run from the repository root. Exits non-zero when an operation of the
//! product failed, an output was wrong, or a bound was violated.

use std::process::ExitCode;
use swpf_benchmark::compare::compare;
use swpf_benchmark::json::Json;
use swpf_benchmark::session::{self, Options, Rounds, Scale, Workload};

const USAGE: &str = "usage: runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
       runner run [--scale test|paper] [--seconds <s> | --rounds <n>] [--seed <n>] [--layers] [--smoke] [--out <file>]
       runner compare <A.json> <B.json>
       runner compare <A.json>... --against <B.json>...";

/// The value of flag `name`, removed from `args` together with the flag.
fn take(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("`{name}` needs a value"));
    }
    args.remove(i);
    Ok(Some(args.remove(i)))
}

fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, String> {
    take(args, name)?
        .map(|v| v.parse().map_err(|_| format!("`{name}`: bad value `{v}`")))
        .transpose()
}

fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main_inner() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let files = &args[1..];
            let (a, b) = match files.iter().position(|f| f == "--against") {
                Some(i) => (&files[..i], &files[i + 1..]),
                None if files.len() == 2 => files.split_at(1),
                None => return Err(USAGE.to_string()),
            };
            if a.is_empty() || b.is_empty() {
                return Err(USAGE.to_string());
            }
            let read_set = |set: &[String]| -> Result<Vec<Json>, String> {
                set.iter().map(|f| read_json(f)).collect()
            };
            let (a, b) = (read_set(a)?, read_set(b)?);
            let result = compare(&read_json("BENCHMARK.json")?, &a, &b)?;
            print!("{}", result.table);
            Ok(result.violations == 0)
        }
        Some("run") => {
            args.remove(0);
            let smoke = take_flag(&mut args, "--smoke");
            let rounds = take_parsed(&mut args, "--rounds")?;
            let seconds = take_parsed(&mut args, "--seconds")?;
            let opts = Options {
                workloads: Workload::ALL.to_vec(),
                seed: take_parsed(&mut args, "--seed")?.unwrap_or(1),
                rounds: match (rounds, seconds) {
                    (Some(n), None) if n > 0 => Rounds::Count(n),
                    (None, Some(s)) if s > 0.0 => Rounds::Seconds(s),
                    (None, None) if smoke => Rounds::Count(1),
                    (None, None) => Rounds::Seconds(18.0),
                    _ => return Err(USAGE.to_string()),
                },
                scale: match take(&mut args, "--scale")?.as_deref() {
                    None | Some("test") => Scale::Test,
                    Some("paper") => Scale::Paper,
                    Some(_) => return Err(USAGE.to_string()),
                },
                smoke,
                layers: take_flag(&mut args, "--layers").then_some(30.0),
            };
            let out = take(&mut args, "--out")?;
            if !args.is_empty() {
                return Err(format!("unknown argument `{}`\n{USAGE}", args[0]));
            }
            let report = session::run(&opts)?;
            print!("{}", report.render());
            if let Some(out) = out {
                std::fs::write(&out, report.to_json().to_pretty())
                    .map_err(|e| format!("cannot write {out}: {e}"))?;
            }
            Ok(report.correct())
        }
        _ => {
            let name = take(&mut args, "--workload")?.ok_or(USAGE)?;
            let workload =
                Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            let seconds: f64 = take_parsed(&mut args, "--seconds")?.ok_or(USAGE)?;
            let traced = match take(&mut args, "--trace")?.as_deref() {
                Some("0") => false,
                Some("1") => true,
                _ => return Err(USAGE.to_string()),
            };
            let opts = Options {
                workloads: vec![workload],
                seed: take_parsed(&mut args, "--seed")?.ok_or(USAGE)?,
                rounds: Rounds::Seconds(seconds),
                scale: Scale::Test,
                smoke: false,
                layers: traced.then_some(seconds),
            };
            if !args.is_empty() || seconds.is_nan() || seconds <= 0.0 {
                return Err(USAGE.to_string());
            }
            let report = session::run(&opts)?;
            print!("{}", report.render());
            println!("{}", report.contract_line(traced));
            Ok(report.correct())
        }
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("runner: {message}");
            ExitCode::from(2)
        }
    }
}
