//! Block lengths are read from untrusted headers before anything can
//! be checksummed, so what a reader allocates on their say-so must be
//! bounded by a constant, not by the header. A few dozen hostile bytes
//! — one literal and a run-length match — claim a 1 GiB block here;
//! both readers must answer `Corrupt` without reserving for it, and a
//! claim at the format's ceiling may cost that ceiling and no more.
//!
//! Own test binary with a single test: the counting allocator is
//! process-wide.

use swpf_obs::alloc::CountingAlloc;
use swpf_trace::{StreamingReplay, Trace, TraceError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The largest block length readers accept (`block::MAX_BLOCK`).
const CEILING: usize = 4 << 20;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A one-core, one-block v2 envelope whose `METHOD_LZ` block claims
/// `raw_len` bytes: the literal `A`, then a match of everything else at
/// offset 1. Structurally valid; only the checksums are made up.
fn run_length_bomb(raw_len: usize) -> Vec<u8> {
    let mut block = Vec::new();
    put_varint(&mut block, 1);
    block.push(b'A');
    put_varint(&mut block, raw_len as u64 - 1);
    put_varint(&mut block, 1);

    let mut out = Vec::new();
    out.extend_from_slice(b"SWPFTRCE");
    out.extend_from_slice(&2u32.to_le_bytes());
    out.extend_from_slice(&0xfeedu64.to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes()); // cores
    out.extend_from_slice(&1u64.to_le_bytes()); // events
    out.extend_from_slice(&1u32.to_le_bytes()); // blocks
    out.extend_from_slice(&(17 + block.len() as u64).to_le_bytes());
    out.extend_from_slice(&(raw_len as u32).to_le_bytes());
    out.extend_from_slice(&(block.len() as u32).to_le_bytes());
    out.push(1); // METHOD_LZ
    out.extend_from_slice(&0u64.to_le_bytes()); // block checksum
    out.extend_from_slice(&block);
    out.extend_from_slice(&0u64.to_le_bytes()); // footer checksum
    out.extend_from_slice(b"SWPFEND.");
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
        assert!(bytes.len() < 100, "the attack is a few dozen bytes");

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
