//! Trace-path cost probe: for one (workload, variant, machine) cell,
//! time each execution flavour — direct `run_to_done`, the step-driven
//! loop without an encoder, recording, and replay — and report the
//! trace's size. The tool for keeping record/replay overhead honest
//! (the numbers in BENCH_trace.json).
//!
//! All timing flows through `swpf-obs`: each flavour runs under a span,
//! the per-flavour wall time is read back out of the span summary, and
//! the full profile (including the nested `trace:encode`/`trace:decode`
//! sub-spans the library records) prints at the end.
//!
//! ```sh
//! cargo run --release -p swpf-bench --bin trace_probe -- CG auto haswell
//! SWPF_SCALE=test cargo run --release -p swpf-bench --bin trace_probe -- IS baseline a53
//! ```

use swpf_bench::{auto_module, scale_from_env_or_exit};
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{Interp, NullObserver, Step};
use swpf_sim::{replay_on_machine, run_on_machine_image, run_on_machine_traced, MachineConfig};
use swpf_trace::{record_cursor, TraceRecorder};
use swpf_workloads::{KernelVariant, Scale, WorkloadId};

fn machine_by_name(name: &str) -> MachineConfig {
    MachineConfig::all_systems()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown machine `{name}`"))
}

/// Run one flavour under a `swpf-obs` span and print its wall time,
/// read back from the span summary (so the number printed here is the
/// number any exported profile of this process carries).
fn time(label: &'static str, f: &mut dyn FnMut() -> u64) {
    let events = {
        let _span = swpf_obs::span(label);
        f()
    };
    let row = swpf_obs::snapshot()
        .summary()
        .rows
        .iter()
        .find(|(n, _)| n == label)
        .map(|(_, r)| *r)
        .unwrap_or_default();
    let s = row.total_ns as f64 / 1e9;
    println!(
        "  {label:<10} {s:8.3}s  ({:6.1}M events, {:5.1} ns/event)",
        events as f64 / 1e6,
        s * 1e9 / events as f64
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [workload, variant, machine] = args.as_slice() else {
        eprintln!("usage: trace_probe <workload> <baseline|manual|auto> <machine>");
        std::process::exit(2);
    };
    swpf_obs::enable();
    swpf_obs::name_thread("main");
    let scale = scale_from_env_or_exit();
    let id = WorkloadId::ALL
        .into_iter()
        .find(|w| w.name() == *workload)
        .unwrap_or_else(|| panic!("unknown workload `{workload}`"));
    let w = id.instantiate(scale);
    let module = match variant.as_str() {
        "baseline" => w.build_baseline(),
        "manual" => w
            .build_variant(KernelVariant::Manual { look_ahead: 64 })
            .expect("manual supported"),
        "auto" => auto_module(w.as_ref(), &swpf_core::PassConfig::default()),
        other => panic!("unknown variant `{other}`"),
    };
    let func = module.find_function("kernel").expect("kernel exists");
    let image = std::sync::Arc::new(ExecImage::build(&module));
    let cfg = machine_by_name(machine);
    let scale_label = match scale {
        Scale::Paper => "paper",
        Scale::Test => "test",
    };
    println!("probe: {workload}/{variant} on {machine} at scale={scale_label}");

    // Functional-only flavours decompose the record path's overhead:
    // run_to_done vs. an external step loop vs. step loop + encoder.
    time("interp_run", &mut || {
        let mut interp = Interp::new();
        let args = w.setup(&mut interp);
        interp.start_with_image(std::sync::Arc::clone(&image), func, &args);
        let mut obs = NullObserver;
        loop {
            match interp.step_cursor(&mut obs).expect("no trap") {
                Step::Continue => {}
                Step::Done(_) => break interp.retired(),
            }
        }
    });
    time("encode", &mut || {
        let mut interp = Interp::new();
        let args = w.setup(&mut interp);
        interp.start_with_image(std::sync::Arc::clone(&image), func, &args);
        let mut rec = TraceRecorder::new(1, 0);
        record_cursor(&mut interp, rec.stream(0), &mut NullObserver).expect("no trap");
        rec.finish().events(0)
    });
    time("direct", &mut || {
        run_on_machine_image(&cfg, &image, func, |i| w.setup(i))
            .insts
            .total
    });
    let mut trace = None;
    time("record", &mut || {
        let mut rec = TraceRecorder::new(1, 0);
        let stats = run_on_machine_traced(&cfg, &image, func, |i| w.setup(i), rec.stream(0));
        trace = Some(rec.finish());
        stats.insts.total
    });
    let trace = trace.expect("recorded");
    println!(
        "  trace: {} events, {:.1} MiB payload ({:.2} B/event)",
        trace.events(0),
        trace.payload_bytes() as f64 / (1 << 20) as f64,
        trace.payload_bytes() as f64 / trace.events(0) as f64
    );
    time("replay", &mut || {
        replay_on_machine(&cfg, &trace).insts.total
    });

    println!("\nswpf-obs profile (spans incl. library sub-spans):");
    print!("{}", swpf_obs::snapshot().summary().render());
}
