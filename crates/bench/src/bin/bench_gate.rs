//! Bench-regression gate for CI's bench-smoke job: one inequality over
//! the rows of `BENCH.json`'s `gates` table.
//!
//! ```sh
//! CRITERION_JSON=bench.jsonl cargo bench -p swpf-bench --bench sim_throughput
//! cargo run --release -p swpf-bench --bin bench_gate -- BENCH.json bench.jsonl
//! ```
//!
//! A row `{leg, num, den, per, reference, allowance}` passes when
//! `mean(num) / mean(den) <= reference * allowance`. Each name is a
//! `group/bench` record of the line-oriented file the `criterion` shim
//! appends under `CRITERION_JSON` (the last record of a name wins), read
//! as ns per iteration (`per: "iter"`) or ns per throughput element
//! (`"element"`, from `rate_per_s`). A name under `probe:` is measured
//! here instead, by an in-process probe that interleaves its two sides
//! within each repetition so that host drift cancels; a records file
//! that already carries both sides of a probe (a synthetic fixture)
//! is read as it is, and that probe is not timed.
//!
//! Absolute ns are not comparable across hosts, so every row is a ratio
//! of two sides measured in one process seconds apart, and a speedup is
//! written fast over slow so that every row is a ceiling. The rows hold
//! the bytecode tier over the classic interpreter (`bytecode`), the
//! haswell timing model over the interpreter alone (`timing`), the
//! fan-out and multicore event paths over single-machine delivery, per
//! event (`fanout`, `multicore`), disabled `swpf-obs` and per-PC
//! profiling over the plain cell (`profiling`, `perf`), trace replay
//! over direct simulation and streaming over in-memory replay
//! (`replay`, `stream_replay`), the full pass pipeline's compile cost
//! over `swpf,cse,dce` (`pipeline`), and parsing a module over printing
//! it (`ir_text`).
//!
//! An unreadable or malformed file, or a missing record, prints one
//! line and fails the run (exit 1), as does any row past its ceiling.

use std::collections::HashMap;
use std::process::ExitCode;
use swpf_bench::json::Json;

/// `group/bench` → [ns per iteration, ns per element].
type Records = HashMap<String, [Option<f64>; 2]>;

/// One row of the `gates` table.
struct Row {
    leg: String,
    num: Vec<String>,
    den: Vec<String>,
    /// Index into a [`Records`] value: 0 per iteration, 1 per element.
    per: usize,
    reference: f64,
    allowance: f64,
}

impl Row {
    fn parse(row: &Json) -> Option<Row> {
        let names = |key| -> Option<Vec<String>> {
            let names = row.get(key)?.as_array().filter(|names| !names.is_empty())?;
            names
                .iter()
                .map(|n| n.as_str().map(str::to_string))
                .collect()
        };
        let per = row.get("per")?.as_str()?;
        Some(Row {
            leg: row.get("leg")?.as_str()?.to_string(),
            num: names("num")?,
            den: names("den")?,
            per: ["iter", "element"].iter().position(|p| *p == per)?,
            reference: row.get("reference")?.as_f64()?,
            allowance: row.get("allowance")?.as_f64()?,
        })
    }

    /// The mean of `names`' values, or an error naming the first missing.
    fn mean(&self, records: &Records, names: &[String]) -> Result<f64, String> {
        let value = |name: &String| records.get(name).and_then(|values| values[self.per]);
        let sum: Result<f64, String> = names
            .iter()
            .map(|name| value(name).ok_or_else(|| format!("missing record `{name}`")))
            .sum();
        Ok(sum? / names.len() as f64)
    }

    /// Print the row's measurement; true when it is within the ceiling.
    fn check(&self, records: &Records, records_path: &str) -> bool {
        let (num, den) = match (self.mean(records, &self.num), self.mean(records, &self.den)) {
            (Ok(num), Ok(den)) => (num, den),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench_gate: {}: {e} in {records_path}", self.leg);
                return false;
            }
        };
        let (measured, ceiling) = (num / den, self.reference * self.allowance);
        println!(
            "bench_gate: {} ({} over {}) — measured {measured:.4}x ({num:.2} / {den:.2} ns), \
             reference {}x, ceiling {ceiling:.4}x (allowance {}x)",
            self.leg,
            self.num.join(" + "),
            self.den.join(" + "),
            self.reference,
            self.allowance,
        );
        let ok = measured <= ceiling;
        if !ok {
            eprintln!(
                "bench_gate: {}: measured {measured:.4}x is past its ceiling {ceiling:.4}x",
                self.leg
            );
        }
        ok
    }
}

/// Parse the shim's records: one JSON object per non-blank line.
fn parse_records(text: &str) -> Result<Records, String> {
    let record = |rec: Json| {
        let name = |key| rec.get(key).and_then(Json::as_str);
        let ns = rec.get("ns_per_iter").and_then(Json::as_f64);
        let per_element = rec
            .get("rate_per_s")
            .and_then(Json::as_f64)
            .map(|r| 1e9 / r);
        Some((
            format!("{}/{}", name("group")?, name("bench")?),
            [ns, per_element],
        ))
    };
    let mut records = Records::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let (name, values) = Json::parse(line)
            .ok()
            .and_then(record)
            .ok_or_else(|| format!("line {} is not a record with `group` and `bench`", i + 1))?;
        records.insert(name, values);
    }
    Ok(records)
}

/// The full pipeline's compile-phase cost against the local-only one:
/// every point of the default search space, on every FIG6 workload,
/// through a fresh tune evaluator per sweep, the two pipelines
/// alternating within each repetition. Returns ns per repetition.
fn probe_pipeline() -> Result<[f64; 2], String> {
    use std::time::Instant;
    use swpf_core::PassConfig;
    use swpf_tune::{Evaluator, SearchSpace};
    use swpf_workloads::{Scale, WorkloadId};

    let specs = ["swpf,gvn,sccp,licm,cse,dce", "swpf,cse,dce"];
    let machines = [swpf_sim::MachineConfig::a53()];
    let space = SearchSpace::paper_default();
    let reps = 10;
    let mut secs = [0.0; 2];
    for _ in 0..reps {
        for &id in &WorkloadId::FIG6 {
            let w = id.instantiate(Scale::Test);
            for (spec, acc) in specs.iter().zip(&mut secs) {
                let mut ev = Evaluator::new(w.as_ref(), &machines);
                let t = Instant::now();
                for i in 0..space.len() {
                    let config = PassConfig {
                        pipeline: spec.parse()?,
                        ..space.at(i)
                    };
                    let _ = ev.compile_candidate(&config);
                }
                *acc += t.elapsed().as_secs_f64();
            }
        }
    }
    Ok(secs.map(|s| s * 1e9 / f64::from(reps)))
}

/// `parse_module` against `print_module` on
/// `replicated_suite(Scale::Test, 100)`: each side the fastest of 20
/// alternating repetitions, in ns.
fn probe_ir_text() -> Result<[f64; 2], String> {
    use std::hint::black_box;
    use std::time::Instant;
    use swpf_ir::parser::parse_module;
    use swpf_ir::printer::print_module;
    use swpf_workloads::{replicated_suite, Scale};

    let text = replicated_suite(Scale::Test, 100);
    let module = parse_module(&text).map_err(|e| format!("the replicated suite: {e}"))?;
    let (mut parse_s, mut print_s) = (f64::MAX, f64::MAX);
    for _ in 0..20 {
        let t = Instant::now();
        black_box(parse_module(black_box(&text)).map_err(|e| e.to_string())?);
        parse_s = parse_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(print_module(black_box(&module)));
        print_s = print_s.min(t.elapsed().as_secs_f64());
    }
    Ok([parse_s * 1e9, print_s * 1e9])
}

fn run(args: &[String]) -> Result<bool, String> {
    let [bench_path, records_path] = args else {
        return Err("usage: bench_gate <BENCH.json> <criterion-json-lines>".into());
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let bench = Json::parse(&read(bench_path)?).map_err(|e| format!("{bench_path}: {e}"))?;
    let rows = bench
        .get("gates")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{bench_path} has no `gates` array"))?
        .iter()
        .enumerate()
        .map(|(i, row)| Row::parse(row).ok_or(i))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|i| format!("{bench_path}: gate row {i} is malformed"))?;
    let mut records =
        parse_records(&read(records_path)?).map_err(|e| format!("{records_path}: {e}"))?;

    // Measure each probe a row names, unless the records already carry
    // both its sides; a name no probe measures stays missing.
    let mut probe = |name: &str, sides: [&str; 2], measure: fn() -> Result<[f64; 2], String>| {
        let keys = sides.map(|side| format!("probe:{name}/{side}"));
        let names = || rows.iter().flat_map(|row| row.num.iter().chain(&row.den));
        let named = names().any(|n| keys.contains(n));
        if named && keys.iter().any(|key| !records.contains_key(key)) {
            for (key, ns) in keys.into_iter().zip(measure()?) {
                records.insert(key, [Some(ns), None]);
            }
        }
        Ok::<_, String>(())
    };
    probe("pipeline", ["full", "cse_dce"], probe_pipeline)?;
    probe("ir_text", ["parse", "print"], probe_ir_text)?;
    let failed = rows.iter().filter(|row| !row.check(&records, records_path));
    Ok(failed.count() == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Write both files under a name no other call uses, and run the gate.
    fn gate(bench: &str, records: &str) -> Result<bool, String> {
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("bench_gate_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bench_path = dir.join(format!("{call}.json"));
        let records_path = bench_path.with_extension("jsonl");
        std::fs::write(&bench_path, bench).unwrap();
        std::fs::write(&records_path, records).unwrap();
        let args = [&bench_path, &records_path].map(|p| p.display().to_string());
        let verdict = run(&args);
        let _ = std::fs::remove_file(&bench_path);
        let _ = std::fs::remove_file(&records_path);
        verdict
    }

    const ROW: &str = r#"{"gates": [{"leg": "l", "num": ["g/a"], "den": ["g/b"], "per": "iter",
        "reference": 2.0, "allowance": 1.5}]}"#;

    fn record(bench: &str, ns: f64) -> String {
        format!(
            "{{\"group\":\"g\",\"bench\":\"{bench}\",\"ns_per_iter\":{ns},\"rate_per_s\":null}}\n"
        )
    }

    #[test]
    fn one_inequality_decides_a_row() {
        let pair = |a, b| record("a", a) + &record("b", b);
        assert_eq!(gate(ROW, &pair(299.0, 100.0)), Ok(true));
        assert_eq!(gate(ROW, &pair(301.0, 100.0)), Ok(false));
        // The last record of a name wins.
        assert_eq!(
            gate(ROW, &(pair(900.0, 100.0) + &record("a", 100.0))),
            Ok(true)
        );
        // A row per element reads `rate_per_s`; a record without one is missing.
        let per_element = ROW.replace("\"iter\"", "\"element\"");
        assert_eq!(gate(&per_element, &pair(100.0, 100.0)), Ok(false));
        // So is a probe side that no probe measures.
        let unknown_probe = ROW.replace("g/a", "probe:nothing/a");
        assert_eq!(gate(&unknown_probe, &pair(1.0, 1.0)), Ok(false));
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let ok_records = record("a", 1.0) + &record("b", 1.0);
        assert!(run(&["/nonexistent/BENCH.json".into(), "r".into()])
            .unwrap_err()
            .contains("cannot read"));
        assert!(run(&["only-one".into()]).unwrap_err().starts_with("usage"));
        for bad in [
            "{",
            "{}",
            r#"{"gates": [{}]}"#,
            &ROW.replace("\"iter\"", "\"row\""),
            &ROW.replace("[\"g/b\"]", "[]"),
            &ROW.replace("2.0", "\"2\""),
        ] {
            assert!(gate(bad, &ok_records).is_err(), "{bad}");
        }
        for bad in ["{\"group\":\"g\"", "{\"bench\":\"a\"}", "[]"] {
            assert!(gate(ROW, bad).is_err(), "{bad}");
        }
    }
}
