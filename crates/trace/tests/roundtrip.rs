//! Property tests for the trace codec: encode → decode must be the
//! identity on arbitrary event streams (varint boundaries, delta sign
//! flips, empty and multi-core streams, block-boundary straddles in the
//! envelope), single-bit corruption anywhere in the file must be
//! caught, and truncation anywhere must be detected.

use proptest::prelude::*;
use swpf_ir::interp::{Event, EventKind};
use swpf_ir::ValueId;
use swpf_trace::{StreamEncoder, StreamingReplay, Trace, TraceRecorder};

/// An owned event plus its step-boundary flag, the unit the codec
/// round-trips.
#[derive(Debug, Clone, PartialEq)]
struct OwnedEvent {
    pc: u64,
    frame: u64,
    result: ValueId,
    kind: EventKind,
    ops: Vec<ValueId>,
    end_step: bool,
}

impl OwnedEvent {
    fn as_event(&self) -> Event<'_> {
        Event {
            pc: self.pc,
            frame: self.frame,
            result: self.result,
            kind: self.kind,
            operands: &self.ops,
        }
    }
}

/// Deterministic xorshift stream for deriving adversarial event fields
/// from one proptest-drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x.wrapping_mul(0x94d0_49bb_1331_11eb) ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Values that stress the varint and zigzag boundaries: single-byte
/// edges, multi-byte edges, and full-width extremes, so consecutive
/// draws force both large positive and large negative deltas.
const BOUNDARY: [u64; 10] = [
    0,
    1,
    0x7f,
    0x80,
    0x3fff,
    0x4000,
    0xffff_ffff,
    1 << 32,
    u64::MAX - 1,
    u64::MAX,
];

fn gen_u64(rng: &mut Rng) -> u64 {
    if rng.below(3) == 0 {
        BOUNDARY[rng.below(BOUNDARY.len() as u64) as usize]
    } else {
        rng.next()
    }
}

fn gen_event(rng: &mut Rng) -> OwnedEvent {
    let pc = gen_u64(rng);
    let kind = match rng.below(8) {
        0 => EventKind::Alu,
        1 => EventKind::Load {
            addr: gen_u64(rng),
            size: 1 << rng.below(4),
        },
        2 => EventKind::Store {
            addr: gen_u64(rng),
            size: 1 << rng.below(4),
        },
        3 => EventKind::Prefetch {
            addr: gen_u64(rng),
            valid: rng.below(2) == 0,
        },
        4 => EventKind::Branch {
            taken: rng.below(2) == 0,
        },
        5 => EventKind::Call,
        6 => EventKind::Ret,
        _ => EventKind::Alloc,
    };
    // Mostly the engine invariant (result == low pc bits), sometimes an
    // arbitrary explicit result.
    let result = if rng.below(4) == 0 {
        ValueId(rng.next() as u32)
    } else {
        ValueId((pc & 0xffff_ffff) as u32)
    };
    // Operand lists repeat per pc most of the time (dictionary reuse)
    // but occasionally change for the same pc (the phi case).
    let ops = (0..rng.below(5))
        .map(|_| ValueId((rng.below(1 << 20)) as u32))
        .collect();
    OwnedEvent {
        pc,
        frame: gen_u64(rng),
        result,
        kind,
        ops,
        end_step: rng.below(3) != 0,
    }
}

/// Build a stream that revisits a small set of pcs (exercising the
/// operand dictionary, including same-pc-different-operands updates)
/// interleaved with fresh adversarial events.
fn gen_stream(rng: &mut Rng, len: usize) -> Vec<OwnedEvent> {
    let mut events = Vec::with_capacity(len);
    let mut seen: Vec<OwnedEvent> = Vec::new();
    for _ in 0..len {
        let ev = if !seen.is_empty() && rng.below(2) == 0 {
            let mut ev = seen[rng.below(seen.len() as u64) as usize].clone();
            if rng.below(4) == 0 {
                // Same pc, different incoming: the phi-move shape.
                ev.ops = (0..rng.below(4))
                    .map(|_| ValueId(rng.next() as u32))
                    .collect();
            }
            ev
        } else {
            let ev = gen_event(rng);
            seen.push(ev.clone());
            ev
        };
        events.push(ev);
    }
    if let Some(last) = events.last_mut() {
        last.end_step = true;
    }
    events
}

fn encode(streams: &[Vec<OwnedEvent>], fingerprint: u64) -> Trace {
    let mut rec = TraceRecorder::new(streams.len(), fingerprint);
    for (core, events) in streams.iter().enumerate() {
        let enc: &mut StreamEncoder = rec.stream(core);
        for ev in events {
            enc.push(&ev.as_event());
            if ev.end_step {
                enc.end_step();
            }
        }
    }
    rec.finish()
}

/// Write `bytes` to a unique temp file, run `f` on the path, then
/// remove the file (streaming readers work from disk only).
fn with_temp_file<R>(bytes: &[u8], f: impl FnOnce(&std::path::Path) -> R) -> R {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "swpf_roundtrip_{}_{}.trace",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("temp trace written");
    let r = f(&path);
    std::fs::remove_file(&path).ok();
    r
}

/// Drain every core of a streaming reader, asserting the events match
/// `streams` exactly (the bounded-memory path must agree with the
/// in-memory cursor byte for byte).
fn assert_streams_to(replay: &StreamingReplay, streams: &[Vec<OwnedEvent>]) {
    assert_eq!(replay.num_cores(), streams.len());
    for (core, events) in streams.iter().enumerate() {
        assert_eq!(replay.events(core), events.len() as u64, "core {core}");
        let mut cursor = replay.cursor(core).expect("cursor opens");
        for (i, want) in events.iter().enumerate() {
            let (got, end_step) = cursor
                .next_event()
                .unwrap_or_else(|e| panic!("core {core} event {i}: {e}"))
                .unwrap_or_else(|| panic!("core {core} ended early at {i}"));
            assert_eq!(got.pc, want.pc, "core {core} event {i} pc");
            assert_eq!(got.frame, want.frame, "core {core} event {i} frame");
            assert_eq!(got.result, want.result, "core {core} event {i} result");
            assert_eq!(got.kind, want.kind, "core {core} event {i} kind");
            assert_eq!(got.operands, want.ops, "core {core} event {i} ops");
            assert_eq!(end_step, want.end_step, "core {core} event {i} step");
        }
        assert!(cursor.next_event().unwrap().is_none());
    }
}

fn assert_decodes_to(trace: &Trace, streams: &[Vec<OwnedEvent>]) {
    assert_eq!(trace.num_cores(), streams.len());
    for (core, events) in streams.iter().enumerate() {
        assert_eq!(trace.events(core), events.len() as u64, "core {core}");
        let mut cursor = trace.cursor(core).expect("stream exists");
        for (i, want) in events.iter().enumerate() {
            let (got, end_step) = cursor
                .next_event()
                .unwrap_or_else(|e| panic!("core {core} event {i}: {e}"))
                .unwrap_or_else(|| panic!("core {core} ended early at {i}"));
            assert_eq!(got.pc, want.pc, "core {core} event {i} pc");
            assert_eq!(got.frame, want.frame, "core {core} event {i} frame");
            assert_eq!(got.result, want.result, "core {core} event {i} result");
            assert_eq!(got.kind, want.kind, "core {core} event {i} kind");
            assert_eq!(got.operands, want.ops, "core {core} event {i} ops");
            assert_eq!(end_step, want.end_step, "core {core} event {i} step");
        }
        assert!(cursor.next_event().unwrap().is_none());
    }
}

proptest! {
    // encode → to_bytes → from_bytes → decode is the identity, for
    // multi-core traces of adversarial streams (including empty cores
    // and zero-core traces).
    #[test]
    fn round_trip_is_identity(seed: u64, n_cores in 0usize..4, len in 0usize..300) {
        let mut rng = Rng(seed);
        let streams: Vec<Vec<OwnedEvent>> = (0..n_cores)
            .map(|c| gen_stream(&mut rng, if c == 0 { len } else { len / (c + 1) }))
            .collect();
        let fp = rng.next();
        let trace = encode(&streams, fp);
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("fresh trace decodes");
        prop_assert_eq!(back.fingerprint, fp);
        assert_decodes_to(&back, &streams);
    }

    // The same identity holds through the block structure at
    // adversarially tiny block sizes (every event straddles a block
    // boundary somewhere) — for the full reader and for the
    // block-at-a-time streaming reader.
    #[test]
    fn blocked_round_trip_straddles_boundaries(
        seed: u64,
        n_cores in 0usize..4,
        len in 0usize..160,
        block_size in 1usize..48,
    ) {
        let mut rng = Rng(seed);
        let streams: Vec<Vec<OwnedEvent>> = (0..n_cores)
            .map(|c| gen_stream(&mut rng, if c == 0 { len } else { len / (c + 1) }))
            .collect();
        let fp = rng.next();
        let trace = encode(&streams, fp);
        let bytes = trace.to_bytes_with_block_size(block_size);
        let back = Trace::from_bytes(&bytes).expect("tiny blocks decode");
        prop_assert_eq!(back.fingerprint, fp);
        assert_decodes_to(&back, &streams);
        with_temp_file(&bytes, |path| {
            let replay = StreamingReplay::open(path).expect("streaming open");
            assert_eq!(replay.fingerprint(), fp);
            assert_streams_to(&replay, &streams);
        });
    }

    // Adjacent events with full-width pc/address jumps in both
    // directions survive the delta encoding.
    #[test]
    fn delta_sign_flips_round_trip(seed: u64) {
        let mut rng = Rng(seed);
        let mut events = Vec::new();
        for i in 0..BOUNDARY.len() * BOUNDARY.len() {
            let a = BOUNDARY[i / BOUNDARY.len()];
            let b = BOUNDARY[i % BOUNDARY.len()];
            events.push(OwnedEvent {
                pc: a,
                frame: b,
                result: ValueId((a & 0xffff_ffff) as u32),
                kind: EventKind::Load { addr: b, size: 8 },
                ops: vec![],
                end_step: true,
            });
            events.push(OwnedEvent {
                pc: b,
                frame: a,
                result: ValueId(rng.next() as u32),
                kind: EventKind::Store { addr: a, size: 1 },
                ops: vec![ValueId(rng.below(1 << 10) as u32)],
                end_step: true,
            });
        }
        let streams = vec![events];
        let trace = encode(&streams, 0);
        assert_decodes_to(&Trace::from_bytes(&trace.to_bytes()).unwrap(), &streams);
    }

    // Any single flipped bit, anywhere in the envelope — header,
    // section prologues, block headers, compressed payload, footer —
    // is caught by `from_bytes` (the footer fold covers the header
    // fields, each block checksum covers its uncompressed bytes, and
    // the structure is length-delimited end to end).
    #[test]
    fn corrupted_byte_is_rejected(seed: u64, len in 1usize..200, block_size in 1usize..64) {
        let mut rng = Rng(seed);
        let n_cores = 1 + rng.below(3) as usize;
        let streams: Vec<Vec<OwnedEvent>> =
            (0..n_cores).map(|_| gen_stream(&mut rng, len)).collect();
        let trace = encode(&streams, 1);
        let mut bytes = trace.to_bytes_with_block_size(block_size);
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= 1u8 << rng.below(8);
        prop_assert!(
            Trace::from_bytes(&bytes).is_err(),
            "flipping a bit of byte {} must be detected",
            at
        );
    }

    // Truncating the envelope anywhere never panics and never yields a
    // valid trace — through the full reader, and through the streaming
    // reader (whose open() sees only headers, so the damage may only
    // surface while draining a cursor).
    #[test]
    fn truncation_is_always_detected(seed: u64, len in 1usize..100, block_size in 1usize..48) {
        let mut rng = Rng(seed);
        let streams = vec![gen_stream(&mut rng, len)];
        let bytes = encode(&streams, 9).to_bytes_with_block_size(block_size);
        let cut = rng.below(bytes.len() as u64) as usize;
        prop_assert!(Trace::from_bytes(&bytes[..cut]).is_err());
        with_temp_file(&bytes[..cut], |path| {
            let streamed: Result<(), swpf_trace::TraceError> = (|| {
                let replay = StreamingReplay::open(path)?;
                for core in 0..replay.num_cores() {
                    let mut cursor = replay.cursor(core)?;
                    while cursor.next_event()?.is_some() {}
                }
                Ok(())
            })();
            assert!(streamed.is_err(), "cut at {cut} must not stream cleanly");
        });
    }
}
