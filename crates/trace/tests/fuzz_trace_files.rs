//! Whole-file mutation of trace files: whatever a seeded byte-level
//! edit does to a file, each reader either decodes one of the original
//! event sequences or answers with a typed [`TraceError`] — no panic,
//! no hang — while holding no more heap than the block lengths the
//! mutant's own headers claim, and the two readers agree on which it
//! was whenever the edit stayed inside the block sections.
//!
//! Own test binary with a single test: the counting allocator is
//! process-wide.

use std::path::{Path, PathBuf};
use swpf_ir::interp::{Event, EventKind};
use swpf_ir::ValueId;
use swpf_obs::alloc::CountingAlloc;
use swpf_trace::{EventSource, StreamingReplay, Trace, TraceError, TraceRecorder};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const MUTANTS_PER_SEED_FILE: u64 = 1_000;
/// The largest block length readers accept (`block::MAX_BLOCK`).
const CEILING: usize = 4 << 20;
/// What a reader may hold beyond the blocks themselves: header tables
/// (up to 1024 core entries), the operand dictionary, I/O scratch.
const SLACK: usize = 64 << 10;

/// splitmix64: the only source of variety.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One core, three 4 KiB blocks: an indirect-access loop whose events
/// straddle both block boundaries.
fn three_block_stream() -> Vec<u8> {
    let mut rec = TraceRecorder::new(1, 0xf022);
    let ops = [ValueId(2), ValueId(5), ValueId(300)];
    let mut rng = Rng(7);
    for i in 0..400u64 {
        let target = 0x40_0000 + (rng.next() % 4096) * 8;
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
                addr: target + 256,
                valid: i % 7 != 0,
            },
            EventKind::Store {
                addr: 0x80_0000 + (i % 64) * 8,
                size: 8,
            },
            EventKind::Branch { taken: i % 9 != 0 },
        ];
        for (slot, kind) in body.into_iter().enumerate() {
            let pc = 40 + slot as u64;
            rec.stream(0).push(&Event {
                pc,
                frame: i / 100,
                result: ValueId(pc as u32),
                kind,
                operands: &ops[..slot % 4 % 3 + 1],
            });
        }
        rec.stream(0).end_step();
    }
    let trace = rec.finish();
    assert_eq!(trace.payload_bytes().div_ceil(4 << 10), 3, "three blocks");
    trace.to_bytes_with_block_size(4 << 10)
}

/// An allocation-free digest of every core's event sequence.
type Digest = Vec<(u64, u64)>;

fn drain(mut cursor: impl EventSource) -> Result<(u64, u64), TraceError> {
    let (mut n, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    let mut fold = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    while let Some((ev, end_of_step)) = cursor.next_event()? {
        n += 1;
        fold(ev.pc);
        fold(ev.frame);
        fold(u64::from(ev.result.0) << 1 | u64::from(end_of_step));
        match ev.kind {
            EventKind::Alu => fold(0),
            EventKind::Load { addr, size } => fold(addr ^ u64::from(size) << 56 ^ 1),
            EventKind::Store { addr, size } => fold(addr ^ u64::from(size) << 56 ^ 2),
            EventKind::Prefetch { addr, valid } => fold(addr ^ u64::from(valid) << 56 ^ 3),
            EventKind::Branch { taken } => fold(4 + u64::from(taken)),
            EventKind::Call => fold(6),
            EventKind::Ret => fold(7),
            EventKind::Alloc => fold(8),
        }
        for op in ev.operands {
            fold(u64::from(op.0));
        }
    }
    Ok((n, h))
}

/// `Trace::from_bytes`, then every core drained.
fn read_whole(bytes: &[u8]) -> Result<Digest, TraceError> {
    let trace = Trace::from_bytes(bytes)?;
    (0..trace.num_cores())
        .map(|core| drain(trace.cursor(core)?))
        .collect()
}

/// `StreamingReplay::open`, then every core drained, one at a time.
fn read_streaming(path: &Path) -> Result<Digest, TraceError> {
    let replay = StreamingReplay::open(path)?;
    (0..replay.num_cores())
        .map(|core| drain(replay.cursor(core)?))
        .collect()
}

/// Run `f` and return its result with the peak heap growth it caused.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let r = f();
    (r, ALLOC.peak_bytes().saturating_sub(base))
}

/// The little-endian `u32` at `at + off`, if the file reaches that far.
fn u32_at(bytes: &[u8], at: usize, off: usize) -> Option<usize> {
    let at = at.checked_add(off)?;
    let b = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(b.try_into().unwrap()) as usize)
}

/// The little-endian `u64` at `at + off`, likewise.
fn u64_at(bytes: &[u8], at: usize, off: usize) -> Option<usize> {
    let at = at.checked_add(off)?;
    let b = bytes.get(at..at.checked_add(8)?)?;
    usize::try_from(u64::from_le_bytes(b.try_into().unwrap())).ok()
}

/// What the block headers a reader can reach claim: the largest
/// `raw_len + comp_len` of one block, and the sum of all `raw_len`s.
/// Sections are located both ways the readers do it — each after the
/// last block of the one before (`from_bytes`) and each at the end its
/// predecessor's prologue states (`StreamingReplay::open`) — and a
/// length over the ceiling ends a walk: readers refuse it unallocated.
#[derive(Default)]
struct Claims {
    largest_block: usize,
    raw_total: usize,
}

impl Claims {
    fn of(bytes: &[u8]) -> Claims {
        let mut claims = Claims::default();
        let n_cores = u32_at(bytes, 20, 0).unwrap_or(0);
        for by_prologue in [false, true] {
            let mut at = 24usize;
            let mut raw_total = 0usize;
            'cores: for _ in 0..n_cores {
                let (Some(n_blocks), Some(section_len)) =
                    (u32_at(bytes, at, 8), u64_at(bytes, at, 12))
                else {
                    break;
                };
                at += 20;
                let section_end = at.saturating_add(section_len);
                for _ in 0..n_blocks {
                    let (Some(raw_len), Some(comp_len)) =
                        (u32_at(bytes, at, 0), u32_at(bytes, at, 4))
                    else {
                        break 'cores;
                    };
                    if raw_len > CEILING || comp_len > CEILING {
                        break 'cores;
                    }
                    claims.largest_block = claims.largest_block.max(raw_len + comp_len);
                    raw_total += raw_len;
                    at += 17 + comp_len;
                    if at > bytes.len() {
                        break 'cores;
                    }
                }
                if by_prologue {
                    at = section_end;
                }
            }
            claims.raw_total = claims.raw_total.max(raw_total);
        }
        claims
    }
}

/// Where a pristine file keeps its blocks: the byte range of every
/// core's block section (block headers and data; not the file header,
/// the section prologues or the footer), and the offset of every block
/// header.
struct Layout {
    sections: Vec<std::ops::Range<usize>>,
    block_headers: Vec<usize>,
}

impl Layout {
    fn of(bytes: &[u8]) -> Layout {
        let mut layout = Layout {
            sections: Vec::new(),
            block_headers: Vec::new(),
        };
        let mut at = 24;
        for _ in 0..u32_at(bytes, 20, 0).expect("pristine header") {
            let n_blocks = u32_at(bytes, at, 8).expect("pristine prologue");
            let start = at + 20;
            at = start;
            for _ in 0..n_blocks {
                layout.block_headers.push(at);
                at += 17 + u32_at(bytes, at, 4).expect("pristine block header");
            }
            layout.sections.push(start..at);
        }
        layout
    }
}

enum Edit {
    /// In place, file length unchanged: the bytes touched.
    InPlace(std::ops::Range<usize>),
    Resized,
}

/// One seeded edit of `seed`: a bit flip anywhere, a bit flip in a
/// block header (lengths, method, checksum — a uniform flip almost
/// never finds them), a zeroed span, a truncation, a duplicated span,
/// or a splice with `other`.
fn mutate(rng: &mut Rng, seed: &[u8], headers: &[usize], other: &[u8]) -> (Vec<u8>, Edit) {
    let mut bytes = seed.to_vec();
    let at = rng.below(seed.len());
    let span = 1 + rng.below(48).min(seed.len() - at - 1);
    match rng.below(6) {
        0 => {
            bytes[at] ^= 1 << rng.below(8);
            (bytes, Edit::InPlace(at..at + 1))
        }
        5 => {
            let at = headers[rng.below(headers.len())] + rng.below(17);
            bytes[at] ^= 1 << rng.below(8);
            (bytes, Edit::InPlace(at..at + 1))
        }
        1 => {
            bytes[at..at + span].fill(0);
            (bytes, Edit::InPlace(at..at + span))
        }
        2 => {
            bytes.truncate(at);
            (bytes, Edit::Resized)
        }
        3 => {
            let to = rng.below(seed.len());
            let copy = seed[at..at + span].to_vec();
            bytes.splice(to..to, copy);
            (bytes, Edit::Resized)
        }
        _ => {
            bytes.truncate(at);
            bytes.extend_from_slice(&other[rng.below(other.len())..]);
            (bytes, Edit::Resized)
        }
    }
}

#[test]
fn mutated_trace_files_decode_or_fail_typed_within_their_claims() {
    let golden = std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/v3_two_core.trace"),
    )
    .expect("golden fixture reads");
    let fresh = three_block_stream();
    let originals = [
        read_whole(&golden).expect("golden decodes"),
        read_whole(&fresh).expect("fresh stream decodes"),
    ];
    let path = std::env::temp_dir().join(format!("swpf_fuzz_{}.trace", std::process::id()));

    let mut rng = Rng(0x5eed_f11e);
    let (mut survived, mut rejected) = (0u32, 0u32);
    for (seed, other) in [(&golden, &fresh), (&fresh, &golden)] {
        let layout = Layout::of(seed);
        for i in 0..MUTANTS_PER_SEED_FILE {
            let (mutant, edit) = mutate(&mut rng, seed, &layout.block_headers, other);
            let claims = Claims::of(&mutant);
            std::fs::write(&path, &mutant).expect("mutant written");

            let (whole, whole_peak) = peak_during(|| read_whole(&mutant));
            let (streamed, streamed_peak) = peak_during(|| read_streaming(&path));

            // `from_bytes` materialises every payload, in vectors that
            // grow by doubling; streaming holds one block at a time.
            let whole_bound = 2 * claims.raw_total + SLACK;
            let streamed_bound = claims.largest_block + SLACK;
            assert!(
                whole_peak <= whole_bound,
                "mutant {i}: from_bytes peaked at {whole_peak} B, its headers claim {whole_bound}"
            );
            assert!(
                streamed_peak <= streamed_bound,
                "mutant {i}: streaming peaked at {streamed_peak} B, its headers claim {streamed_bound}"
            );
            for (reader, outcome) in [("from_bytes", &whole), ("streaming", &streamed)] {
                if let Ok(digest) = outcome {
                    assert!(
                        originals.contains(digest),
                        "mutant {i}: {reader} decoded events no seed file holds"
                    );
                }
            }
            let in_blocks = matches!(&edit, Edit::InPlace(touched)
                if layout.sections.iter().any(|s| s.start <= touched.start && touched.end <= s.end));
            if in_blocks {
                assert_eq!(
                    whole.is_ok(),
                    streamed.is_ok(),
                    "mutant {i}: readers disagree: from_bytes {whole:?}, streaming {streamed:?}"
                );
            }
            if whole.is_ok() || streamed.is_ok() {
                survived += 1;
            } else {
                rejected += 1;
            }
        }
    }
    std::fs::remove_file(&path).ok();
    // The mutator must mostly break things, and sometimes not (a span
    // duplicated onto itself, a splice at offset 0, a footer flip the
    // streaming reader never looks at).
    assert!(rejected > 1_500, "only {rejected} mutants were rejected");
    assert!(survived > 0, "no mutant survived: the Ok arm went untested");
}
