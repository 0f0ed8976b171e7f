//! The streaming-replay memory contract: draining a trace file
//! through [`StreamingReplay`] keeps peak live heap bounded by the
//! block window — independent of trace length — while the full reader
//! (`Trace::from_bytes`) necessarily materialises the whole payload.
//!
//! Enforced with the shared counting global allocator
//! (`swpf_obs::alloc`); this lives in its own integration-test binary
//! so the allocator hook cannot interfere with any other test.

use swpf_ir::interp::{Event, EventKind};
use swpf_ir::ValueId;
use swpf_obs::alloc::CountingAlloc;
use swpf_trace::{StreamingReplay, Trace, TraceRecorder, BLOCK_TARGET};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A loop-shaped stream: one hot pc issuing strided loads, with a
/// branch closing each iteration — periodic like real kernels, so the
/// payload is long but the operand dictionary stays tiny.
fn record(n_events: u64) -> Trace {
    let mut rec = TraceRecorder::new(1, 0x5eed);
    for i in 0..n_events {
        let kind = if i % 8 == 7 {
            EventKind::Branch { taken: true }
        } else {
            EventKind::Load {
                addr: 0x10_0000 + (i * 37) % (1 << 20),
                size: 8,
            }
        };
        let e = Event {
            pc: 40 + (i % 8),
            frame: 0,
            result: ValueId((40 + i % 8) as u32),
            kind,
            operands: &[],
        };
        rec.stream(0).push(&e);
        rec.stream(0).end_step();
    }
    rec.finish()
}

/// Record `n_events`, write the file, then measure the peak heap
/// growth while streaming every event back. Returns
/// `(uncompressed payload bytes, streaming peak delta)`.
fn measure(n_events: u64) -> (usize, usize) {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "swpf_memtest_{}_{n_events}.trace",
        std::process::id()
    ));
    let payload = {
        let trace = record(n_events);
        let bytes = trace.to_bytes();
        std::fs::write(&path, &bytes).expect("trace written");
        trace.payload_bytes()
    };
    // Everything from the recording phase is dropped; the baseline is
    // whatever the harness itself keeps alive.
    let base = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let mut seen = 0u64;
    {
        let replay = StreamingReplay::open(&path).expect("streaming open");
        assert_eq!(replay.events(0), n_events);
        let mut cursor = replay.cursor(0).expect("cursor opens");
        while let Some((ev, _)) = cursor.next_event().expect("stream decodes") {
            // Touch the event so the decode cannot be optimised away.
            seen += u64::from(!matches!(ev.kind, EventKind::Alloc));
        }
    }
    let peak = ALLOC.peak_bytes().saturating_sub(base);
    std::fs::remove_file(&path).ok();
    assert_eq!(seen, n_events);
    (payload, peak)
}

#[test]
fn streaming_peak_is_block_bounded_and_length_independent() {
    let (short_payload, short_peak) = measure(60_000);
    let (long_payload, long_peak) = measure(1_200_000);
    // The long trace really is much bigger uncompressed…
    assert!(
        long_payload > 10 * short_payload,
        "test setup: payloads {short_payload} vs {long_payload}"
    );
    assert!(
        long_payload > 8 * BLOCK_TARGET,
        "test setup: long trace must span many blocks, payload {long_payload}"
    );
    // …but the streaming window is a small multiple of one block
    // (window + compressed scratch + drain slack), nowhere near the
    // payload the full reader would materialise…
    assert!(
        long_peak < 8 * BLOCK_TARGET,
        "streaming peak {long_peak} exceeds the block-window bound"
    );
    assert!(
        long_peak < long_payload / 4,
        "streaming peak {long_peak} vs payload {long_payload}"
    );
    // …and is independent of trace length: 20x the events must not
    // move the peak by more than 2x (allocator rounding slack).
    assert!(
        long_peak <= short_peak.saturating_mul(2) + BLOCK_TARGET,
        "peak grew with trace length: {short_peak} -> {long_peak}"
    );
}
