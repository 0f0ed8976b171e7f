//! Block lengths are read from untrusted headers before anything can
//! be checksummed, so what a reader allocates on their say-so must be
//! bounded by a constant, not by the header. The writer's own encoding
//! of a 4 MiB run of one repeated event is a few hundred bytes; with
//! its first block's length field patched to claim 1 GiB, both readers
//! must answer `Corrupt` without reserving for it, and with only its
//! checksum zeroed, the claim at the format's ceiling may cost that
//! ceiling and no more.
//!
//! Own test binary with a single test: the counting allocator is
//! process-wide.

use swpf_ir::interp::{Event, EventKind};
use swpf_ir::ValueId;
use swpf_obs::alloc::CountingAlloc;
use swpf_trace::{StreamingReplay, Trace, TraceError, TraceRecorder};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The largest block length readers accept (`block::MAX_BLOCK`).
const CEILING: usize = 4 << 20;

/// Offsets in a one-core file: 24-byte header, 20-byte section
/// prologue, then the first block header — raw length, stored length,
/// method, checksum.
const RAW_LEN_AT: usize = 44;
const CHECKSUM_AT: usize = 53;

/// A one-core file whose first block is an LZH-compressed run of
/// [`CEILING`] raw bytes (one repeated event), its checksum zeroed and
/// its raw length field claiming `raw_len`.
fn run_length_bomb(raw_len: usize) -> Vec<u8> {
    let mut rec = TraceRecorder::new(1, 0xfeed);
    let event = Event {
        pc: 0,
        frame: 0,
        result: ValueId(0),
        kind: EventKind::Alu,
        operands: &[],
    };
    while rec.stream(0).payload_len() < CEILING {
        rec.stream(0).push(&event);
        rec.stream(0).end_step();
    }
    let mut out = rec.finish().to_bytes_with_block_size(CEILING);
    assert_eq!(
        &out[RAW_LEN_AT..RAW_LEN_AT + 4],
        &(CEILING as u32).to_le_bytes()
    );
    out[RAW_LEN_AT..RAW_LEN_AT + 4].copy_from_slice(&(raw_len as u32).to_le_bytes());
    out[CHECKSUM_AT..CHECKSUM_AT + 8].fill(0);
    out
}

/// Run `f` and return its result with the peak heap growth it caused.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let r = f();
    (r, ALLOC.peak_bytes().saturating_sub(base))
}

fn stream_first_event(bytes: &[u8]) -> Result<(), TraceError> {
    let path = std::env::temp_dir().join(format!("swpf_hostile_{}.trace", std::process::id()));
    std::fs::write(&path, bytes).expect("temp trace written");
    let result = (|| {
        let replay = StreamingReplay::open(&path)?;
        replay.cursor(0)?.next_event().map(|_| ())
    })();
    std::fs::remove_file(&path).ok();
    result
}

fn oversized_block_claims_are_refused_before_any_allocation() {
    for claim in [1usize << 30, CEILING + 1] {
        let bytes = run_length_bomb(claim);
        assert!(bytes.len() < 1024, "the attack is a few hundred bytes");

        let (full, peak) = peak_during(|| Trace::from_bytes(&bytes));
        assert!(
            matches!(full, Err(TraceError::Corrupt(_))),
            "from_bytes on a {claim}-byte claim: {full:?}"
        );
        assert!(peak < 64 << 10, "from_bytes reserved {peak} bytes for it");

        let (streamed, peak) = peak_during(|| stream_first_event(&bytes));
        assert!(
            matches!(streamed, Err(TraceError::Corrupt(_))),
            "streaming a {claim}-byte claim: {streamed:?}"
        );
        assert!(peak < 64 << 10, "streaming reserved {peak} bytes for it");
    }
}

fn a_claim_at_the_ceiling_costs_the_ceiling_and_fails_its_checksum() {
    let bytes = run_length_bomb(CEILING);
    let (full, peak) = peak_during(|| Trace::from_bytes(&bytes));
    assert!(
        matches!(full, Err(TraceError::ChecksumMismatch { .. })),
        "from_bytes: {full:?}"
    );
    assert!(peak < CEILING + (64 << 10), "from_bytes peaked at {peak}");

    let (streamed, peak) = peak_during(|| stream_first_event(&bytes));
    assert!(
        matches!(streamed, Err(TraceError::ChecksumMismatch { .. })),
        "streaming: {streamed:?}"
    );
    assert!(peak < CEILING + (64 << 10), "streaming peaked at {peak}");
}

/// One test, so nothing else allocates while a peak is being read.
#[test]
fn hostile_block_lengths_cost_at_most_a_constant() {
    oversized_block_claims_are_refused_before_any_allocation();
    a_claim_at_the_ceiling_costs_the_ceiling_and_fails_its_checksum();
}
