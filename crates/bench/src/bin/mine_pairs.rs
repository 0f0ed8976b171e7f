//! Superinstruction miner: rank the most frequent adjacent
//! retired-instruction pairs across the full trace corpus — all seven
//! workloads × {baseline, manual, auto} — to choose the bytecode tier's
//! fused-opcode catalogue (`swpf_ir::bytecode::FUSE_TABLE`).
//!
//! Each kernel is interpreted once and recorded into a `swpf-trace`
//! stream (the same corpus format the record/replay harness uses); the
//! pair statistics are then read back out of the encoded trace through
//! `swpf_trace::analytics`, with every event classified to its opcode
//! mnemonic via `ExecImage::op_class_table`. Pairs whose first opcode is
//! a plain (non-control, non-phi) instruction are statically adjacent in
//! bytecode — retired back-to-back with the first falling through — so
//! they are exactly the fusible candidates; the rest are reported but
//! marked unfusible.
//!
//! With `--trace-dir` (or `SWPF_TRACE_DIR`) the miner shares the
//! harness's persistent trace cache: fingerprint-matching kernels are
//! streamed from disk block-at-a-time instead of re-interpreted, and
//! fresh recordings are stored back for the next consumer.
//!
//! ```sh
//! SWPF_SCALE=test cargo run --release -p swpf-bench --bin mine_pairs
//! cargo run --release -p swpf-bench --bin mine_pairs -- --top 30 --json RESULTS/pairs.json
//! cargo run --release -p swpf-bench --bin mine_pairs -- --trace-dir traces
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use swpf_bench::harness::{kernel_fingerprint, open_streaming, store_trace, trace_cache_path};
use swpf_bench::{auto_module, scale_from_env_or_exit};
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::Interp;
use swpf_trace::{count_pairs, PairCounter, TraceRecorder};
use swpf_workloads::{suite, KernelVariant};

/// Can this pair be fused into a superinstruction? The second word of a
/// fused pair executes as the head's fall-through successor, so the
/// first opcode must be a plain op: no control transfer (its successor
/// is not `ip + 1`), no phi (a phi retires inside a branch's edge
/// application, not as its own word), no call (the successor executes
/// in a different frame). The second half may be any code word — even a
/// branch — but not a phi (not a word) and not a call (it would return
/// control from inside the fused handler).
fn fusible(first: &str, second: &str) -> bool {
    !matches!(first, "br" | "cbr" | "ret" | "call" | "phi" | "falloff")
        && !matches!(second, "phi" | "call" | "falloff")
}

fn main() {
    let mut top = 20usize;
    let mut json_out: Option<String> = None;
    let mut trace_dir: Option<PathBuf> = std::env::var_os("SWPF_TRACE_DIR").map(PathBuf::from);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => {
                top = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--top needs a number"));
            }
            "--json" => json_out = Some(args.next().expect("--json needs a path")),
            "--trace-dir" => {
                trace_dir = Some(PathBuf::from(
                    args.next().expect("--trace-dir needs a directory"),
                ));
            }
            other => {
                eprintln!("usage: mine_pairs [--top N] [--json FILE] [--trace-dir DIR]");
                panic!("unknown argument `{other}`");
            }
        }
    }

    let scale = scale_from_env_or_exit();
    let mut total: PairCounter<&'static str> = PairCounter::new();
    println!("mining retired-pair frequencies at scale={}", scale.label());
    for w in suite(scale) {
        for variant in ["baseline", "manual", "auto"] {
            let module = match variant {
                "baseline" => w.build_baseline(),
                "manual" => w
                    .build_variant(KernelVariant::Manual { look_ahead: 64 })
                    .expect("manual supported everywhere"),
                "auto" => auto_module(w.as_ref(), &swpf_core::PassConfig::default()),
                _ => unreachable!(),
            };
            let func = module.find_function("kernel").expect("kernel exists");
            let image = Arc::new(ExecImage::build(&module));
            let classes = image.op_class_table();
            let classify = |ev: &swpf_ir::interp::Event<'_>| classes.get(&ev.pc).copied();

            // Harness-compatible cache identity: same trace key (the
            // variant's module key) and same fingerprint recipe, so the
            // miner and the figure grids share one corpus on disk.
            let trace_key = match variant {
                "manual" => "manual_c64",
                key => key,
            };
            let text_hash = swpf_trace::fnv64(swpf_ir::printer::print_module(&module).as_bytes());
            let fingerprint = kernel_fingerprint(w.name(), scale, 1, text_hash);
            let path = trace_dir
                .as_deref()
                .map(|d| trace_cache_path(d, scale, w.name(), trace_key));

            // Warm path: stream the cached recording block-at-a-time,
            // under the harness's cache discipline — a damaged file is a
            // miss with one warning, and re-recorded.
            let cached = path.as_deref().and_then(|p| {
                let replay = open_streaming(p, fingerprint)?;
                count_pairs(replay.num_cores(), |c| replay.cursor(c), classify)
                    .map_err(|e| eprintln!("warning: ignoring trace {}: {e}", p.display()))
                    .ok()
            });
            let (pairs, from) = match cached {
                Some(pairs) => (pairs, "cache"),
                None => {
                    // Record the kernel into the corpus format, then
                    // read the pair statistics back out of the encoded
                    // stream (persisting it when a cache dir is set).
                    let mut interp = Interp::new();
                    let args = w.setup(&mut interp);
                    let mut rec = TraceRecorder::new(1, fingerprint);
                    interp
                        .run_with_image(Arc::clone(&image), func, &args, rec.stream(0))
                        .unwrap_or_else(|t| panic!("{}/{variant} trapped: {t}", w.name()));
                    let trace = rec.finish();
                    if let Some(p) = &path {
                        store_trace(p, &trace);
                    }
                    let pairs = count_pairs(trace.num_cores(), |c| trace.cursor(c), classify)
                        .expect("freshly recorded trace decodes");
                    (pairs, "interp")
                }
            };
            println!(
                "  {:<6} {variant:<8} {:>12} events  ({from})",
                w.name(),
                pairs.observed()
            );
            total.merge(&pairs);
        }
    }

    let mut ranked = total.ranked();
    // Sub-sort equal counts lexicographically for deterministic output.
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let observed = total.observed();
    println!("\n{observed} retired events total; top {top} adjacent pairs:");
    println!(
        "{:>4}  {:<22} {:>14} {:>7}  fusible",
        "#", "pair", "count", "%"
    );
    for (i, ((first, second), n)) in ranked.iter().take(top).enumerate() {
        println!(
            "{:>4}  {:<22} {:>14} {:>6.2}%  {}",
            i + 1,
            format!("{first},{second}"),
            n,
            100.0 * *n as f64 / observed as f64,
            if fusible(first, second) { "yes" } else { "no" }
        );
    }

    if let Some(path) = json_out {
        let rows: Vec<String> = ranked
            .iter()
            .take(top)
            .map(|((first, second), n)| {
                format!(
                    "    {{\"first\": \"{first}\", \"second\": \"{second}\", \"count\": {n}, \"fusible\": {}}}",
                    fusible(first, second)
                )
            })
            .collect();
        let doc = format!(
            "{{\n  \"scale\": \"{}\",\n  \"observed\": {observed},\n  \"pairs\": [\n{}\n  ]\n}}\n",
            scale.label(),
            rows.join(",\n")
        );
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
    }
}
