//! The outside-in layer probe: the traced half of the repo benchmark.
//!
//! It times calls into each product layer's public functions — nothing
//! inside the product is instrumented — and keeps a span (name, start,
//! end, parent) around every call. The calls made here are the complete
//! list of library signatures the benchmark pins; `benchmark/README.md`
//! names them.
//!
//! ```text
//! layers probe --scale paper|test --seconds S --scratch DIR --spans FILE
//! layers emit-swir DIR      regenerate benchmark/inputs/*.swir
//! ```

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use swpf::analysis::FuncAnalysis;
use swpf::ir::bytecode::BcImage;
use swpf::ir::exec::ExecImage;
use swpf::ir::interp::{CountingObserver, EventKind, Interp, NullObserver, RtVal};
use swpf::ir::parser::parse_module;
use swpf::ir::printer::print_module;
use swpf::ir::verifier::verify_module;
use swpf::ir::Module;
use swpf::pass::{run_on_module, PassConfig};
use swpf::sim::{
    replay_on_machine, run_on_machine_image, run_on_machine_traced, streaming_replay_on_machine,
    AccessKind, MachineConfig, MemSys, SharedMem,
};
use swpf::trace::{StreamingReplay, Trace, TraceRecorder};
use swpf::tune::Evaluator;
use swpf::workloads::{KernelVariant, Scale, Workload, WorkloadId};
use swpf_bench::auto_module;
use swpf_benchmark::gen::KERNELS;
use swpf_benchmark::json::Json;
use swpf_benchmark::spec;

/// The kernels behind `benchmark/inputs/<stem>.swir`, in [`KERNELS`]
/// order.
const INPUT_KERNELS: [WorkloadId; 5] = [
    WorkloadId::Is,
    WorkloadId::Cg,
    WorkloadId::Ra,
    WorkloadId::Hj2,
    WorkloadId::G500Small,
];

const FULL_PIPELINE: &str = "swpf,gvn,sccp,licm,cse,dce";

/// The text of every committed input, from `Workload::build_baseline`.
fn input_texts() -> Vec<(String, String)> {
    KERNELS
        .iter()
        .zip(INPUT_KERNELS)
        .map(|(stem, id)| {
            let module = id.instantiate(Scale::Test).build_baseline();
            ((*stem).to_string(), print_module(&module))
        })
        .collect()
}

struct Span {
    name: String,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
    children_ns: u128,
}

/// Spans kept in memory and written out when the probe ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
            children_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`; returns its self
    /// time in seconds: its duration minus what its child spans cover.
    fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.origin.elapsed().as_nanos();
        let span = &mut self.spans[id];
        span.end_ns = end;
        let duration = end - span.start_ns;
        let self_ns = duration - span.children_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].children_ns += duration;
        }
        self_ns as f64 / 1e9
    }

    /// Self time of `f` under a span.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let value = std::hint::black_box(f());
        (value, self.close(id))
    }

    fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    (
                        "self_ns",
                        Json::Num((s.end_ns - s.start_ns - s.children_ns) as f64),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![("spans", Json::Arr(spans))])
    }
}

/// The smallest value seen per key: host noise only ever adds time.
#[derive(Default)]
struct Minima(BTreeMap<String, f64>);

impl Minima {
    fn record(&mut self, key: String, value: f64) {
        self.0
            .entry(key)
            .and_modify(|v| *v = v.min(value))
            .or_insert(value);
    }

    fn get(&self, key: &str) -> f64 {
        self.0[key]
    }
}

/// A probe cell: its metric suffix and the machine it is simulated on.
type Cell = (&'static str, fn() -> MachineConfig);

/// A kernel the ladder runs, and the cells it is probed on.
struct Kernel {
    tag: &'static str,
    id: WorkloadId,
    /// Pass-compiled `auto` variant; otherwise the paper's manual HJ-8
    /// prefetch at stagger depth 3.
    auto: bool,
    cells: &'static [Cell],
}

const PROBE_KERNELS: [Kernel; 3] = [
    Kernel {
        tag: "hj8",
        id: WorkloadId::Hj8,
        auto: false,
        cells: &[
            ("hj8_ooo", MachineConfig::haswell),
            ("hj8_inorder", MachineConfig::a53),
        ],
    },
    Kernel {
        tag: "is_auto",
        id: WorkloadId::Is,
        auto: true,
        cells: &[("is_auto_ooo", MachineConfig::haswell)],
    },
    Kernel {
        tag: "ra_auto",
        id: WorkloadId::Ra,
        auto: true,
        cells: &[("ra_auto_ooo", MachineConfig::haswell)],
    },
];

/// Time every compile-side layer once for `kernel` (seconds, keyed
/// `<metric>/<kernel>`) and return the workload and the module the
/// ladder runs.
fn compile_side(
    spans: &mut Spans,
    minima: &mut Minima,
    kernel: &Kernel,
    scale: Scale,
) -> (Box<dyn Workload>, Module) {
    let span = spans.open(&format!("kernel:{}", kernel.tag));
    let mut timings: Vec<(&str, f64)> = Vec::new();
    let ((workload, baseline), s) = spans.time("workloads.build", || {
        let w = kernel.id.instantiate(scale);
        let m = w.build_baseline();
        (w, m)
    });
    timings.push(("workloads.build_us", s));
    let func = baseline.find_function("kernel").expect("kernel exists");
    let (_, s) = spans.time("analysis.compute", || {
        FuncAnalysis::compute(baseline.function(func))
    });
    timings.push(("analysis.compute_us", s));
    let (_, s) = spans.time("core.compile", || {
        let mut m = baseline.clone();
        run_on_module(&mut m, &PassConfig::default());
        m
    });
    timings.push(("core.compile_us", s));
    let (_, s) = spans.time("pass.pipeline_full", || {
        let mut m = baseline.clone();
        run_on_module(&mut m, &PassConfig::with_pipeline(FULL_PIPELINE));
        m
    });
    timings.push(("pass.pipeline_full_us", s));
    let machines = [MachineConfig::haswell()];
    let (_, s) = spans.time("tune.compile_candidate", || {
        Evaluator::new(workload.as_ref(), &machines).compile_candidate(&PassConfig::default())
    });
    timings.push(("tune.compile_candidate_us", s));

    let module = if kernel.auto {
        auto_module(workload.as_ref(), &PassConfig::default())
    } else {
        let variant = KernelVariant::ManualDepth {
            look_ahead: 64,
            depth: 3,
        };
        workload
            .build_variant(variant)
            .expect("HJ-8 builds depth variants")
    };
    let (_, s) = spans.time("ir.verify", || verify_module(&module).expect("verifies"));
    timings.push(("ir.verify_us", s));
    let (text, s) = spans.time("ir.print", || print_module(&module));
    timings.push(("ir.print_us", s));
    let (_, s) = spans.time("ir.parse", || parse_module(&text).expect("parses"));
    timings.push(("ir.parse_us", s));
    let (image, s) = spans.time("ir.decode", || ExecImage::build(&module));
    timings.push(("ir.decode_us", s));
    let (_, s) = spans.time("ir.lower", || BcImage::lower(&image).expect("lowers"));
    timings.push(("ir.lower_us", s));
    let (_, s) = spans.time("workloads.setup", || workload.setup(&mut Interp::new()));
    timings.push(("workloads.setup_ms", s));
    spans.close(span);
    for (name, seconds) in timings {
        minima.record(format!("{name}/{}", kernel.tag), seconds);
    }
    (workload, module)
}

/// The workload's data set-up as a child span, so that the rung around
/// it reports only its own time.
fn setup(spans: &mut Spans, w: &dyn Workload, interp: &mut Interp) -> Vec<RtVal> {
    let id = spans.open("workloads.setup");
    let args = w.setup(interp);
    spans.close(id);
    args
}

/// One pass over the cost ladder of one probe cell: seconds per rung,
/// keyed `<rung>.<cell>`, plus the event and access counts.
fn ladder(
    spans: &mut Spans,
    minima: &mut Minima,
    cell: &str,
    w: &dyn Workload,
    module: &Module,
    cfg: &MachineConfig,
    scratch: &Path,
) {
    let span = spans.open(&format!("cell:{cell}"));
    let func = module.find_function("kernel").expect("kernel exists");
    let image = Arc::new(ExecImage::build(module));
    let mut rungs: Vec<(&str, f64)> = Vec::new();

    let id = spans.open("ir.interp");
    let mut interp = Interp::new();
    let args = setup(spans, w, &mut interp);
    interp
        .run_with_image(Arc::clone(&image), func, &args, &mut NullObserver)
        .expect("no trap");
    rungs.push(("interp_s", spans.close(id)));
    let events = interp.retired();
    drop(interp);

    let id = spans.open("ir.interp_counting");
    let mut interp = Interp::new();
    let args = setup(spans, w, &mut interp);
    let mut counting = CountingObserver::default();
    interp
        .run_with_image(Arc::clone(&image), func, &args, &mut counting)
        .expect("no trap");
    rungs.push(("interp_counting_s", spans.close(id)));
    assert_eq!(std::hint::black_box(counting).total, events);
    drop(interp);

    let id = spans.open("sim.direct");
    let direct = run_on_machine_image(cfg, &image, func, |i| setup(spans, w, i));
    rungs.push(("direct_s", spans.close(id)));
    assert_eq!(direct.insts.total, events);

    let id = spans.open("trace.record");
    let mut recorder = TraceRecorder::new(1, 0);
    let traced = run_on_machine_traced(
        cfg,
        &image,
        func,
        |i| setup(spans, w, i),
        recorder.stream(0),
    );
    let trace = recorder.finish();
    rungs.push(("traced_s", spans.close(id)));

    let (replayed, s) = spans.time("sim.replay", || replay_on_machine(cfg, &trace));
    rungs.push(("replay_s", s));
    let (bytes, s) = spans.time("trace.compress", || trace.to_bytes());
    rungs.push(("compress_s", s));
    let (_, s) = spans.time("trace.decompress", || {
        Trace::from_bytes(&bytes).expect("own bytes decode")
    });
    rungs.push(("decompress_s", s));

    let path = scratch.join(format!("{cell}.trace"));
    std::fs::write(&path, &bytes).expect("scratch is writable");
    let file = StreamingReplay::open(&path).expect("own file opens");
    let (streamed, s) = spans.time("trace.stream", || {
        streaming_replay_on_machine(cfg, &file).expect("own file streams")
    });
    rungs.push(("stream_s", s));
    std::fs::remove_file(&path).expect("scratch is writable");
    for other in [&traced, &replayed, &streamed] {
        assert_eq!(other.cycles, direct.cycles, "{cell}: paths disagree");
    }

    // What replay pays and direct simulation does not: decoding the
    // trace's events.
    let (decoded, s) = spans.time("trace.decode", || {
        let mut cursor = trace.cursor(0).expect("core 0 exists");
        let mut n = 0u64;
        while cursor.next_event().expect("own trace decodes").is_some() {
            n += 1;
        }
        n
    });
    rungs.push(("decode_s", s));
    assert_eq!(decoded, events);

    // The memory system alone, driven with the trace's memory and
    // prefetch events, each read waiting for the one before it. An
    // approximation: the real core overlaps misses, so the hierarchy
    // sees other arrival times than these.
    let mut accesses = Vec::new();
    let mut cursor = trace.cursor(0).expect("core 0 exists");
    while let Some((ev, _)) = cursor.next_event().expect("own trace decodes") {
        match ev.kind {
            EventKind::Load { addr, .. } => accesses.push((addr, ev.pc, Some(AccessKind::Read))),
            EventKind::Store { addr, .. } => accesses.push((addr, ev.pc, Some(AccessKind::Write))),
            EventKind::Prefetch { addr, valid: true } => accesses.push((addr, ev.pc, None)),
            _ => {}
        }
    }
    let (_, s) = spans.time("sim.memsys", || {
        let (mut mem, mut shared) = (MemSys::new(cfg), SharedMem::new(cfg));
        let mut now = 0u64;
        for &(addr, pc, kind) in &accesses {
            now += 1;
            match kind {
                Some(AccessKind::Read) => {
                    now += mem.access(&mut shared, addr, now, AccessKind::Read, pc);
                }
                Some(kind) => {
                    mem.access(&mut shared, addr, now, kind, pc);
                }
                None => mem.prefetch(&mut shared, addr, now, pc),
            }
        }
        now
    });
    rungs.push(("memsys_s", s));
    spans.close(span);

    for (name, seconds) in rungs {
        minima.record(format!("{name}.{cell}"), seconds);
    }
    minima.record(format!("events.{cell}"), events as f64);
    minima.record(format!("accesses.{cell}"), accesses.len() as f64);
}

/// The probe's metrics from the fastest time seen for every rung.
fn metrics(minima: &Minima) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for kernel in &PROBE_KERNELS {
        for (cell, _) in kernel.cells {
            let get = |rung: &str| minima.get(&format!("{rung}.{cell}"));
            let events = get("events");
            let per_event = |seconds: f64| seconds * 1e9 / events;
            let (interp, direct, replay) = (get("interp_s"), get("direct_s"), get("replay_s"));
            // The timing model alone: replay without its event decode.
            let model = replay - get("decode_s");
            let values = [
                ("ir.interp_ns_per_event", per_event(interp)),
                (
                    "ir.interp_counting_ns_per_event",
                    per_event(get("interp_counting_s")),
                ),
                ("sim.direct_ns_per_event", per_event(direct)),
                ("sim.replay_ns_per_event", per_event(replay)),
                (
                    "sim.memsys_ns_per_access",
                    get("memsys_s") * 1e9 / get("accesses"),
                ),
                ("sim.core_ns_per_event", per_event(model - get("memsys_s"))),
                (
                    "trace.record_ns_per_event",
                    per_event(get("traced_s") - direct),
                ),
                ("trace.compress_ns_per_event", per_event(get("compress_s"))),
                (
                    "trace.decompress_ns_per_event",
                    per_event(get("decompress_s")),
                ),
                (
                    "trace.stream_ns_per_event",
                    per_event(get("stream_s") - replay),
                ),
                // Direct simulation interprets and models: the rungs
                // should add up to it.
                (
                    "probe.reconcile_gap_share",
                    (direct - (interp + model)).abs() / direct,
                ),
            ];
            for (name, value) in values {
                out.insert(format!("{name}.{cell}"), value);
            }
        }
    }
    for (name, unit) in spec::PROBE_ONCE {
        let per_second = match unit {
            "us" => 1e6,
            _ => 1e3,
        };
        let sum: f64 = PROBE_KERNELS
            .iter()
            .map(|k| minima.get(&format!("{name}/{}", k.tag)))
            .sum();
        out.insert(name.to_string(), sum * per_second);
    }
    out
}

fn probe(scale: Scale, seconds: f64, scratch: &Path, spans_path: &Path) {
    let started = Instant::now();
    let mut spans = Spans::new();
    let mut minima = Minima::default();
    let root = spans.open("probe");
    // Passes over the ladder for as long as asked, and at least one: a
    // test-scale pass takes 0.15 s, a paper-scale one 25 s.
    loop {
        for kernel in &PROBE_KERNELS {
            let (workload, module) = compile_side(&mut spans, &mut minima, kernel, scale);
            for (cell, machine) in kernel.cells {
                let w = workload.as_ref();
                ladder(
                    &mut spans,
                    &mut minima,
                    cell,
                    w,
                    &module,
                    &machine(),
                    scratch,
                );
            }
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    spans.close(root);
    std::fs::write(spans_path, spans.to_json().to_pretty()).expect("span file is writable");

    let values = metrics(&minima);
    let mut line = Vec::new();
    for (name, unit) in spec::probe_metrics() {
        let value = values[&name];
        if name.starts_with("probe.reconcile_gap_share") && value > 0.20 {
            eprintln!("warning: {name} = {value:.3} is beyond 0.20: the rungs do not add up");
        }
        println!("{name:<46} {value:>14.4} {unit}");
        let entry = vec![
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ];
        line.push((name, Json::obj(entry)));
    }
    println!("{}", Json::Obj(line).to_line());
}

fn usage() -> ! {
    eprintln!(
        "usage: layers probe --scale paper|test --seconds S --scratch DIR --spans FILE\n       layers emit-swir DIR"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["emit-swir", dir] => {
            for (stem, text) in input_texts() {
                let path = Path::new(dir).join(format!("{stem}.swir"));
                std::fs::write(&path, text).expect("input directory is writable");
            }
        }
        ["probe", "--scale", scale, "--seconds", seconds, "--scratch", scratch, "--spans", spans] =>
        {
            let (Ok(scale), Ok(seconds)) = (scale.parse::<Scale>(), seconds.parse::<f64>()) else {
                usage();
            };
            probe(scale, seconds, Path::new(scratch), Path::new(spans));
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swpf_benchmark::gen::replicate;

    fn committed_inputs() -> Vec<(String, String)> {
        KERNELS
            .iter()
            .map(|stem| {
                let path = format!("{}/../inputs/{stem}.swir", env!("CARGO_MANIFEST_DIR"));
                let text = std::fs::read_to_string(&path).expect("committed input");
                ((*stem).to_string(), text)
            })
            .collect()
    }

    #[test]
    fn committed_inputs_are_what_emit_swir_writes() {
        assert_eq!(committed_inputs(), input_texts());
    }

    #[test]
    fn replicated_module_parses_and_verifies_with_the_product() {
        let big = replicate(&committed_inputs(), 3, 42).expect("generates");
        let module = parse_module(&big).expect("the product's parser accepts it");
        verify_module(&module).expect("the product's verifier accepts it");
        assert_eq!(module.func_ids().count(), 3 * KERNELS.len());
    }

    #[test]
    fn spans_report_self_time_and_parents() {
        let mut spans = Spans::new();
        let outer = spans.open("outer");
        let (_, inner_s) = spans.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        let outer_s = spans.close(outer);
        assert!(
            inner_s >= 0.02 && outer_s < inner_s,
            "{outer_s} vs {inner_s}"
        );
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
    }

    #[test]
    fn the_probe_emits_every_metric_it_is_listed_with() {
        let scratch = std::env::temp_dir().join(format!("swpf-layers-test-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("temp dir");
        let (mut spans, mut minima) = (Spans::new(), Minima::default());
        for kernel in &PROBE_KERNELS {
            let (w, module) = compile_side(&mut spans, &mut minima, kernel, Scale::Test);
            for (cell, machine) in kernel.cells {
                ladder(
                    &mut spans,
                    &mut minima,
                    cell,
                    w.as_ref(),
                    &module,
                    &machine(),
                    &scratch,
                );
            }
        }
        std::fs::remove_dir_all(&scratch).expect("cleanup");
        let values = metrics(&minima);
        let listed: Vec<String> = spec::probe_metrics().into_iter().map(|(n, _)| n).collect();
        assert_eq!(values.keys().cloned().collect::<Vec<_>>(), {
            let mut sorted = listed.clone();
            sorted.sort();
            sorted
        });
        let cells: Vec<&str> = PROBE_KERNELS
            .iter()
            .flat_map(|k| k.cells)
            .map(|c| c.0)
            .collect();
        assert_eq!(cells, spec::PROBE_CELLS);
        assert!(values.values().all(|v| v.is_finite()));
    }
}
