//! Dev tool: what replaying a trace corpus costs, layer by layer — the
//! instrument behind DESIGN.md §6's replay-cost table. Over the given
//! single-core trace files it times, min of `--reps N` (default 40)
//! per file and summed: reading + `Trace::from_bytes`; draining the
//! in-memory cursor and (open included) the block-at-a-time cursor into
//! an out-of-line consumer that reads every field, as the timing model
//! does; and the four-preset machine row replayed from memory, from
//! memory with the load inside the timed region, and streamed from the
//! file (open included) — the last two are the like-for-like pair.
//!
//! ```sh
//! SWPF_SCALE=test ./target/release/all --only fig7 --threads 1 --trace-dir DIR
//! cargo run --release -p swpf-bench --example replay_cost -- [--reps N] DIR/*.trace
//! ```

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use swpf_ir::interp::{Event, EventKind};
use swpf_sim::{MachineConfig, Sim, Source, Tier};
use swpf_trace::{EventSource, StreamingReplay, Trace};

fn min_time<R>(reps: u32, mut f: impl FnMut() -> R) -> Duration {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        })
        .min()
        .unwrap_or_default()
}

/// Stands in for `Core::retire`: out of line, handed the event by
/// reference, reading all of it.
#[inline(never)]
fn consume(ev: &Event<'_>, acc: &mut u64) {
    let kind = match ev.kind {
        EventKind::Load { addr, size } | EventKind::Store { addr, size } => addr ^ u64::from(size),
        EventKind::Prefetch { addr, valid } => addr ^ u64::from(valid),
        EventKind::Branch { taken } => u64::from(taken),
        _ => 0,
    };
    *acc = acc
        .wrapping_add(ev.pc ^ ev.frame ^ kind)
        .wrapping_add(u64::from(ev.result.0) + ev.operands.len() as u64);
}

fn drain(mut cursor: impl EventSource) -> u64 {
    let mut acc = 0u64;
    while let Some((ev, _)) = cursor.next_event().expect("decodes") {
        consume(&ev, &mut acc);
    }
    acc
}

fn main() {
    let mut reps = 40u32;
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--reps" {
            reps = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .expect("--reps takes a positive integer");
        } else {
            paths.push(a);
        }
    }
    let machines = MachineConfig::all_systems();
    let row: Vec<&MachineConfig> = machines.iter().collect();
    let sim = Sim {
        machines: &row,
        cores: 1,
        tier: Tier::default(),
    };

    let (mut events, mut raw) = (0u64, 0usize);
    let mut sums = [Duration::ZERO; 6];
    for path in paths.iter().map(Path::new) {
        let load = || Trace::from_bytes(&std::fs::read(path).expect("read trace")).expect("decode");
        let open = || StreamingReplay::open(path).expect("opens");
        let trace = load();
        events += trace.events(0);
        raw += trace.payload_bytes();
        let times = [
            min_time(reps, load),
            min_time(reps, || drain(trace.cursor(0).expect("core 0"))),
            min_time(reps, || drain(open().cursor(0).expect("core 0"))),
            min_time(reps, || sim.run(Source::Trace(&trace)).expect("replays")),
            min_time(reps, || sim.run(Source::Trace(&load())).expect("replays")),
            min_time(reps, || sim.run(Source::Stream(&open())).expect("streams")),
        ];
        for (sum, t) in sums.iter_mut().zip(times) {
            *sum += t;
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let ns_per_event = |d: Duration| d.as_secs_f64() * 1e9 / events.max(1) as f64;
    println!(
        "{} files, {events} events, {raw} raw payload bytes, min of {reps}",
        paths.len()
    );
    let names = [
        "read + from_bytes",
        "drain in-memory cursor",
        "open + drain streaming cursor",
        "4-machine row, in memory",
        "read + from_bytes + that row",
        "4-machine row, streamed",
    ];
    for (name, d) in names.into_iter().zip(sums) {
        println!(
            "{name:<32} {:>8.3} ms {:>7.2} ns/event",
            d.as_secs_f64() * 1e3,
            ns_per_event(d)
        );
    }
}
