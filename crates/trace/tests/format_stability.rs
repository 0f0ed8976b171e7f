//! Format stability of the trace envelope across codec rewrites.
//!
//! `golden/v3_two_core.trace` was written by the first writer of format
//! 3 (stored and LZH blocks only), from the deterministic recorder below
//! with 4 KiB blocks; that writer's output was checked to carry the
//! same per-core payloads as the format-2 fixture it replaced. The
//! readers must decode those exact bytes to the same events, and
//! whatever the current writer produces from the same recording must
//! decode to the same trace — only the encoder's choices may differ.
//! A file of any other version is refused by both readers.
//!
//! To regenerate after a *deliberate* format bump (never for a codec
//! change — that is what this file exists to catch):
//! `cargo test -p swpf-trace --test format_stability -- --ignored bless`.

use std::path::PathBuf;
use swpf_ir::interp::{Event, EventKind};
use swpf_ir::ValueId;
use swpf_trace::{EventSource, StreamingReplay, Trace, TraceError, TraceRecorder, FORMAT_VERSION};

const FINGERPRINT: u64 = 0x5177_ab1e_f02d_a7e5;
const BLOCK_SIZE: usize = 4 << 10;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/golden/v{FORMAT_VERSION}_two_core.trace"))
}

/// splitmix64 step: the recorder's only source of variety.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two cores of loop-shaped streams. Core 0 is an indirect-access loop
/// (strided index load, data-dependent target load, prefetch, ALU,
/// store, back-edge) with a call/return every 64 iterations, then a
/// purely strided loop whose blocks are almost all one long match;
/// core 1 is a short pointer-chase whose addresses are pseudo-random,
/// so its blocks carry many literals and far fewer matches.
fn record() -> Trace {
    let mut rec = TraceRecorder::new(2, FINGERPRINT);
    let ops = [ValueId(3), ValueId(9), ValueId(11)];
    let mut x = 1u64;
    for i in 0..700u64 {
        let target = 0x40_0000 + (mix(&mut x) % 4096) * 8;
        let body = [
            (
                EventKind::Load {
                    addr: 0x10_0000 + i * 4,
                    size: 4,
                },
                &ops[..1],
            ),
            (
                EventKind::Load {
                    addr: target,
                    size: 8,
                },
                &ops[1..2],
            ),
            (
                EventKind::Prefetch {
                    addr: target + 512,
                    valid: i % 5 != 0,
                },
                &ops[..2],
            ),
            (EventKind::Alu, &ops[..]),
            (
                EventKind::Store {
                    addr: 0x80_0000 + (i % 256) * 8,
                    size: 8,
                },
                &ops[2..],
            ),
            (
                EventKind::Branch {
                    taken: i % 64 != 63,
                },
                &ops[..1],
            ),
        ];
        for (slot, (kind, operands)) in body.into_iter().enumerate() {
            let pc = 100 + slot as u64;
            rec.stream(0).push(&Event {
                pc,
                frame: 0,
                result: ValueId(pc as u32),
                kind,
                operands,
            });
        }
        if i % 64 == 63 {
            for (pc, frame, kind) in [
                (110, 0, EventKind::Call),
                (7, 1 + i / 64, EventKind::Alloc),
                (8, 1 + i / 64, EventKind::Ret),
            ] {
                rec.stream(0).push(&Event {
                    pc,
                    frame,
                    result: ValueId(pc as u32),
                    kind,
                    operands: &[],
                });
            }
        }
        rec.stream(0).end_step();
    }
    for i in 0..3000u64 {
        for (pc, kind) in [
            (
                120,
                EventKind::Load {
                    addr: 0x20_0000 + i * 8,
                    size: 8,
                },
            ),
            (121, EventKind::Branch { taken: true }),
        ] {
            rec.stream(0).push(&Event {
                pc,
                frame: 0,
                result: ValueId(pc as u32),
                kind,
                operands: &ops[..1],
            });
        }
        rec.stream(0).end_step();
    }
    let mut y = 2u64;
    for i in 0..700u64 {
        rec.stream(1).push(&Event {
            pc: 200 + i % 2,
            frame: 0,
            result: ValueId(200 + (i % 2) as u32),
            kind: EventKind::Load {
                addr: mix(&mut y) >> 20,
                size: 8,
            },
            operands: &ops[..(i % 3) as usize],
        });
        if i % 4 == 3 {
            rec.stream(1).end_step();
        }
    }
    rec.finish()
}

/// One decoded event, owned: pc, frame, result, kind, operands, and the
/// end-of-step flag.
type Row = (u64, u64, ValueId, EventKind, Vec<ValueId>, bool);

/// Drain one core's cursor — in-memory or streaming — into owned rows.
fn rows(mut cursor: impl EventSource) -> Vec<Row> {
    let mut rows = Vec::new();
    while let Some((e, end)) = cursor.next_event().expect("stream decodes") {
        rows.push((e.pc, e.frame, e.result, e.kind, e.operands.to_vec(), end));
    }
    rows
}

fn rows_of_trace(t: &Trace) -> Vec<Vec<Row>> {
    (0..t.num_cores())
        .map(|core| rows(t.cursor(core).expect("core exists")))
        .collect()
}

fn rows_of_stream(r: &StreamingReplay) -> Vec<Vec<Row>> {
    (0..r.num_cores())
        .map(|core| rows(r.cursor(core).expect("core exists")))
        .collect()
}

#[test]
fn parent_written_fixture_decodes_identically_through_both_readers() {
    let want = record();
    let want_rows = rows_of_trace(&want);
    assert!(
        want.payload_bytes() > 8 * BLOCK_SIZE,
        "fixture must span several blocks per core"
    );

    let bytes = std::fs::read(fixture_path()).expect("golden fixture is committed");
    assert_eq!(&bytes[8..12], &FORMAT_VERSION.to_le_bytes());

    let full = Trace::from_bytes(&bytes).expect("in-memory reader decodes the parent's file");
    assert_eq!(full.fingerprint, FINGERPRINT);
    assert_eq!(full, want, "payload bytes differ from the recording");
    assert_eq!(rows_of_trace(&full), want_rows);

    let streamed = StreamingReplay::open(&fixture_path()).expect("streaming reader opens it");
    assert_eq!(streamed.fingerprint(), FINGERPRINT);
    assert_eq!(rows_of_stream(&streamed), want_rows);

    // Re-encoding with the current writer and decoding again closes the
    // loop, at the fixture's block size and at the default one.
    for re in [full.to_bytes_with_block_size(BLOCK_SIZE), full.to_bytes()] {
        assert_eq!(
            Trace::from_bytes(&re).expect("re-encoded file decodes"),
            want
        );
    }
}

/// The fixture with its version field rewritten to 1 (raw payloads),
/// 2 (the envelope that also allowed byte-aligned LZ blocks) or a
/// future 4 is refused by both readers as `UnsupportedVersion` — the
/// answer cache layers treat as a miss.
#[test]
fn other_versions_are_unsupported_by_both_readers() {
    let bytes = std::fs::read(fixture_path()).expect("golden fixture is committed");
    let path = std::env::temp_dir().join(format!("swpf_version_{}.trace", std::process::id()));
    for version in [1u32, 2, FORMAT_VERSION + 1] {
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&version.to_le_bytes());
        let want = Some(TraceError::UnsupportedVersion(version));
        assert_eq!(Trace::from_bytes(&old).err(), want);
        std::fs::write(&path, &old).expect("temp trace written");
        assert_eq!(StreamingReplay::open(&path).err(), want);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
#[ignore = "rewrites the golden fixture with the current writer"]
fn bless() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture has a parent")).expect("golden dir");
    std::fs::write(&path, record().to_bytes_with_block_size(BLOCK_SIZE)).expect("fixture written");
}
