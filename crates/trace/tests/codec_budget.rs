//! The block codec's work budget — the deterministic twin of the
//! `trace_record` and `trace_stream` wall-clock claims. Match-search
//! effort is counted by the encoder itself (`trace.encode.candidates`,
//! flushed once per block to swpf-obs), heap traffic on both the write
//! and the streaming read side by the shared counting allocator, file
//! opens by `trace.stream.opens`, and the output by its length, so a
//! regression in any of them fails by the same amount on any host.
//!
//! One test in a binary of its own: the allocator hook is process-wide
//! and nothing else may allocate while it counts.

use swpf_ir::interp::{Event, EventKind};
use swpf_ir::ValueId;
use swpf_obs::alloc::CountingAlloc;
use swpf_trace::{StreamingReplay, Trace, TraceRecorder, BLOCK_TARGET};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// An indirect-access loop, the shape the traced kernels have: a
/// strided index load, a data-dependent target load and its prefetch
/// (pseudo-random addresses: the literals of the stream), an ALU op, a
/// strided store and the back-edge.
fn record(iterations: u64) -> Trace {
    let mut rec = TraceRecorder::new(1, 0xb0d9e7);
    let ops = [ValueId(3), ValueId(9), ValueId(11)];
    let mut x = 1u64;
    for i in 0..iterations {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let target = 0x40_0000 + ((x >> 40) % 4096) * 8;
        let body = [
            EventKind::Load {
                addr: 0x10_0000 + i * 4,
                size: 4,
            },
            EventKind::Load {
                addr: target,
                size: 8,
            },
            EventKind::Prefetch {
                addr: target + 512,
                valid: true,
            },
            EventKind::Alu,
            EventKind::Store {
                addr: 0x80_0000 + (i % 256) * 8,
                size: 8,
            },
            EventKind::Branch { taken: true },
        ];
        for (slot, kind) in body.into_iter().enumerate() {
            let pc = 100 + slot as u64;
            rec.stream(0).push(&Event {
                pc,
                frame: 0,
                result: ValueId(pc as u32),
                kind,
                operands: &ops[..slot % 3],
            });
        }
        rec.stream(0).end_step();
    }
    rec.finish()
}

/// Write `trace` to a scratch file, open it once and drain core 0
/// through three cursors; returns the allocator calls of one drain
/// (the same for each) and the `trace.stream.opens` count.
fn stream_three_times(trace: &Trace) -> (usize, u64) {
    let path = std::env::temp_dir().join(format!("swpf_budget_{}.trace", std::process::id()));
    std::fs::write(&path, trace.to_bytes()).expect("scratch file written");
    swpf_obs::reset();
    swpf_obs::enable();
    let replay = StreamingReplay::open(&path).expect("own file opens");
    let mut calls = Vec::new();
    for _ in 0..3 {
        let before = ALLOC.calls();
        let mut cursor = replay.cursor(0).expect("core 0");
        let mut events = 0u64;
        while cursor.next_event().expect("own file decodes").is_some() {
            events += 1;
        }
        drop(cursor);
        calls.push(ALLOC.calls() - before);
        assert_eq!(events, trace.events(0));
    }
    swpf_obs::disable();
    std::fs::remove_file(&path).ok();
    assert!(
        calls.iter().all(|&c| c == calls[0]),
        "drains differ: {calls:?}"
    );
    (
        calls[0],
        swpf_obs::snapshot().counters["trace.stream.opens"],
    )
}

#[test]
fn block_encoder_stays_within_its_work_budget() {
    let one_block = record(2_000);
    let many_blocks = record(25_000);
    let raw = many_blocks.payload_bytes();
    let blocks = raw.div_ceil(BLOCK_TARGET);
    assert!(one_block.payload_bytes() <= BLOCK_TARGET && blocks >= 10);

    // Heap: scratch and output are sized by the first block (five
    // allocations in all); every later block must find them big enough.
    // The encoder this one replaced made ~27 allocator calls a block.
    let before = ALLOC.calls();
    let _ = one_block.to_bytes();
    let first = ALLOC.calls() - before;
    let before = ALLOC.calls();
    let bytes = many_blocks.to_bytes();
    let all = ALLOC.calls() - before;
    assert_eq!(
        all, first,
        "{blocks} blocks made {all} allocator calls against {first} for one block"
    );

    // Size: 25 000 iterations are 789 015 raw bytes, of which the
    // bounded search writes 233 969 (the 48-probe always-lazy search it
    // replaced wrote 228 428). The band is ±3%.
    assert!(
        (227_000..=241_000).contains(&bytes.len()),
        "compressed size {} left its band",
        bytes.len()
    );
    assert_eq!(
        Trace::from_bytes(&bytes).expect("own output decodes"),
        many_blocks
    );

    // The read side, block at a time: one file handle however many
    // cursors, and no allocation per block — the window and the
    // compressed-bytes scratch are reused. A one-block drain makes six
    // calls (window, scratch, two doublings each of the dictionary's
    // two vectors); longer streams add two one-off regrowths (the
    // window gains room for the tail of an event that straddles a
    // block boundary, the scratch doubles at the first block that
    // compresses worse than the first did) and then nothing, however
    // many blocks follow.
    let (one, opens) = stream_three_times(&one_block);
    assert_eq!(opens, 1, "three cursors must share the handle `open` took");
    let (many, _) = stream_three_times(&many_blocks);
    let (twice_as_many, _) = stream_three_times(&record(50_000));
    assert_eq!(
        twice_as_many, many,
        "allocator calls grew with the block count past {blocks} blocks"
    );
    assert!(
        many <= one + 2,
        "{blocks} blocks drained with {many} allocator calls against {one} for one block"
    );

    // Search effort, counted where it is spent.
    swpf_obs::reset();
    swpf_obs::enable();
    let _ = many_blocks.to_bytes();
    swpf_obs::disable();
    let counters = swpf_obs::snapshot().counters;
    assert_eq!(counters["trace.encode.raw_bytes"], raw as u64);
    let per_byte = |name: &str| counters[name] as f64 / raw as f64;
    let candidates = per_byte("trace.encode.candidates");
    let compared = per_byte("trace.encode.compared_bytes");
    assert!(
        candidates <= 0.92,
        "{candidates:.3} chain candidates examined per raw byte (0.877 + 5%)"
    );
    assert!(
        compared <= 1.20,
        "{compared:.3} bytes compared per raw byte (1.139 + 5%)"
    );
}
