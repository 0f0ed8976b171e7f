//! # swpf-trace — record/replay event traces for the timing simulator
//!
//! Every figure of the paper is a machine × workload × variant grid, and
//! functional execution is machine-independent: the retire-event stream
//! the interpreter reports through [`ExecObserver`] is identical
//! no matter which timing model is attached (the differential and
//! thread-invariance suites prove it). This crate decouples the two
//! halves: **record** the event stream once per kernel, then **replay**
//! it straight into each machine's timing model (`swpf-sim`'s timing
//! observer hands every `&Event` to `Core::retire`) with no interpreter
//! in the loop.
//!
//! The format is a compact owned binary (see `stream` for the event
//! grammar, `block` for the block compression, and DESIGN.md §6 for the
//! full layout):
//!
//! * a versioned header with a kernel **fingerprint** so stale cached
//!   traces are detected, not silently replayed;
//! * one varint + delta-encoded **event section per core**, so multicore
//!   grids (Fig. 9) record each core's stream and replay preserves the
//!   direct runner's step-granular interleaving — each section is
//!   chopped into fixed-size **LZ + Huffman compressed blocks**, each
//!   carrying its own length and checksum, so [`StreamingReplay`] can
//!   decode one block at a time in bounded memory;
//! * a checksummed **footer** (FNV-1a, folded over the header fields and
//!   every block checksum) rejecting torn or corrupted files.
//!
//! Recording composes with timing: [`StreamEncoder`] is itself an
//! [`ExecObserver`], and [`Tee`] fans one event out to two observers, so
//! a simulation can *record while it measures* — under `--trace-dir`
//! the experiment harness records each kernel's stream during the one
//! interpretation that feeds all its machines, and later runs stream the
//! file instead of interpreting.
//!
//! The replay equivalence contract — replayed `SimStats` are
//! bit-identical to direct simulation — is enforced by `swpf-sim`'s
//! request tests, `swpf-bench`'s harness tests, and the CI
//! `trace-equivalence` job (every experiment of the default set).

pub mod analytics;
mod block;
mod huff;
mod stream;
mod streaming;
mod wire;

pub use analytics::{
    IndirectionProfile, MlpProfile, ReuseHistogram, TraceAnalytics, MAX_INDIRECTION, REUSE_BUCKETS,
};
pub use block::BLOCK_TARGET;
pub use stream::{EventCursor, EventSource, StreamEncoder, WindowCursor};
pub use streaming::{StreamingCursor, StreamingReplay};
pub use wire::{fnv64, Fnv64};

use std::fmt;
use swpf_ir::interp::{Event, ExecObserver, Interp, RtVal, Step, Trap};
use wire::{checksum64, checksum_combine, get_u32, get_u64, put_u32, put_u64, CHECKSUM_SEED};

/// Leading file magic.
const MAGIC: &[u8; 8] = b"SWPFTRCE";
/// Trailing file magic.
const END_MAGIC: &[u8; 8] = b"SWPFEND.";
/// Current format version, the only one this build reads or writes.
/// Bump on any grammar or envelope change: a cache file of another
/// version is [`TraceError::UnsupportedVersion`], which cache layers
/// treat as a miss and re-record.
pub const FORMAT_VERSION: u32 = 3;

/// Why a trace could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The leading or trailing magic bytes are wrong.
    BadMagic,
    /// The header names a version this build does not speak.
    UnsupportedVersion(u32),
    /// The footer checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the footer.
        stored: u64,
        /// Checksum computed over the decoded payloads.
        computed: u64,
    },
    /// A structurally invalid stream (the reason names the rule broken).
    Corrupt(&'static str),
    /// A replay asked for a core the trace does not contain.
    MissingCore(usize),
    /// A filesystem failure while streaming a trace file (the kind
    /// keeps the error `Copy`; the path is known to the caller).
    Io(std::io::ErrorKind),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::BadMagic => write!(f, "not a swpf trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build speaks {FORMAT_VERSION})"
                )
            }
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            TraceError::Corrupt(why) => write!(f, "corrupt trace: {why}"),
            TraceError::MissingCore(i) => write!(f, "trace has no stream for core {i}"),
            TraceError::Io(kind) => write!(f, "trace file i/o error: {kind}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// One core's encoded stream.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CoreTrace {
    events: u64,
    payload: Vec<u8>,
}

/// An owned, encoded retire-event trace: per-core streams plus the
/// kernel fingerprint they were recorded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Caller-chosen digest of everything the stream depends on (kernel
    /// module, workload data, scale, core count). [`Trace::from_bytes`]
    /// surfaces it so caches can reject stale files.
    pub fingerprint: u64,
    cores: Vec<CoreTrace>,
}

impl Trace {
    /// Number of per-core streams.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Recorded event count of one core's stream.
    ///
    /// # Panics
    /// If `core` is out of range.
    #[must_use]
    pub fn events(&self, core: usize) -> u64 {
        self.cores[core].events
    }

    /// Total encoded payload bytes across all cores (reporting only;
    /// excludes the envelope).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.cores.iter().map(|c| c.payload.len()).sum()
    }

    /// A streaming decode cursor over one core's events.
    ///
    /// # Errors
    /// [`TraceError::MissingCore`] if the trace has no such stream.
    pub fn cursor(&self, core: usize) -> Result<EventCursor<'_>, TraceError> {
        let ct = self.cores.get(core).ok_or(TraceError::MissingCore(core))?;
        Ok(EventCursor::new(ct.payload.as_slice(), ct.events))
    }

    /// Serialise to the on-disk envelope, with the default block size
    /// [`BLOCK_TARGET`].
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_block_size(BLOCK_TARGET)
    }

    /// Serialise to the envelope with an explicit uncompressed block
    /// size. Exposed so tests (and size/ratio experiments) can force
    /// block-boundary straddles with tiny blocks; production callers
    /// use [`Trace::to_bytes`].
    ///
    /// # Panics
    /// If `block_size` is zero or above the 4 MiB readers accept.
    #[must_use]
    pub fn to_bytes_with_block_size(&self, block_size: usize) -> Vec<u8> {
        assert!(block_size > 0, "block size must be positive");
        assert!(
            block_size <= block::MAX_BLOCK,
            "block size exceeds what readers accept"
        );
        let _span = swpf_obs::span("trace:encode");
        let mut out = Vec::with_capacity(self.payload_bytes() / 2 + 64);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u64(&mut out, self.fingerprint);
        put_u32(&mut out, self.cores.len() as u32);
        let mut sum = CHECKSUM_SEED;
        sum = checksum_combine(sum, self.fingerprint);
        sum = checksum_combine(sum, self.cores.len() as u64);
        let mut scratch = block::MatchScratch::default();
        for c in &self.cores {
            let n_blocks = c.payload.len().div_ceil(block_size);
            put_u64(&mut out, c.events);
            put_u32(&mut out, n_blocks as u32);
            sum = checksum_combine(sum, c.events);
            sum = checksum_combine(sum, n_blocks as u64);
            // The block-section byte length is only known after
            // compression: reserve the field and patch it.
            let comp_total_at = out.len();
            put_u64(&mut out, 0);
            let section_start = out.len();
            for chunk in c.payload.chunks(block_size) {
                let _block_span = swpf_obs::enabled().then(|| swpf_obs::span("trace:encode_block"));
                let block_sum = checksum64(chunk);
                let (method, data) = block::compress_best(chunk, &mut scratch);
                if swpf_obs::enabled() {
                    swpf_obs::count(block::method_counter(method), 1);
                    swpf_obs::count("trace.encode.raw_bytes", chunk.len() as u64);
                    swpf_obs::count("trace.encode.compressed_bytes", data.len() as u64);
                }
                put_u32(&mut out, chunk.len() as u32);
                put_u32(&mut out, data.len() as u32);
                out.push(method);
                put_u64(&mut out, block_sum);
                out.extend_from_slice(data);
                sum = checksum_combine(sum, block_sum);
            }
            let comp_total = (out.len() - section_start) as u64;
            out[comp_total_at..comp_total_at + 8].copy_from_slice(&comp_total.to_le_bytes());
        }
        put_u64(&mut out, sum);
        out.extend_from_slice(END_MAGIC);
        out
    }

    /// Decode an envelope, verifying magic, version, and every
    /// checksum — each block's over its uncompressed bytes, plus the
    /// footer fold over the header fields.
    ///
    /// # Errors
    /// Any [`TraceError`] the envelope violates. Event payloads are
    /// validated lazily, by [`EventCursor::next_event`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        let _span = swpf_obs::span("trace:decode");
        let mut pos = 0usize;
        if bytes.len() < MAGIC.len() {
            return Err(TraceError::Truncated);
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        pos += MAGIC.len();
        let version = get_u32(bytes, &mut pos)?;
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let fingerprint = get_u64(bytes, &mut pos)?;
        let n_cores = get_u32(bytes, &mut pos)? as usize;
        let mut cores = Vec::with_capacity(n_cores.min(1 << 10));
        let mut sum = CHECKSUM_SEED;
        sum = checksum_combine(sum, fingerprint);
        sum = checksum_combine(sum, n_cores as u64);
        for _ in 0..n_cores {
            let events = get_u64(bytes, &mut pos)?;
            let n_blocks = get_u32(bytes, &mut pos)? as usize;
            let comp_total = get_u64(bytes, &mut pos)?;
            sum = checksum_combine(sum, events);
            sum = checksum_combine(sum, n_blocks as u64);
            let comp_total = usize::try_from(comp_total).map_err(|_| TraceError::Truncated)?;
            let section_end = pos.checked_add(comp_total).ok_or(TraceError::Truncated)?;
            let mut payload = Vec::new();
            for _ in 0..n_blocks {
                let _block_span = swpf_obs::enabled().then(|| swpf_obs::span("trace:decode_block"));
                let block = block::BlockHeader::parse(bytes, &mut pos)?;
                swpf_obs::count(block::method_counter_decode(block.method), 1);
                let end = pos
                    .checked_add(block.comp_len)
                    .ok_or(TraceError::Truncated)?;
                let data = bytes.get(pos..end).ok_or(TraceError::Truncated)?;
                pos = end;
                block.expand_into(data, &mut payload)?;
                sum = checksum_combine(sum, block.sum);
            }
            if pos != section_end {
                return Err(TraceError::Corrupt("block section length mismatch"));
            }
            cores.push(CoreTrace { events, payload });
        }
        let stored = get_u64(bytes, &mut pos)?;
        let computed = sum;
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        let end = bytes
            .get(pos..pos + END_MAGIC.len())
            .ok_or(TraceError::Truncated)?;
        if end != END_MAGIC {
            return Err(TraceError::BadMagic);
        }
        if pos + END_MAGIC.len() != bytes.len() {
            return Err(TraceError::Corrupt("trailing bytes after end magic"));
        }
        Ok(Trace { fingerprint, cores })
    }
}

/// Accumulates one [`StreamEncoder`] per core and assembles the
/// [`Trace`].
#[derive(Debug)]
pub struct TraceRecorder {
    fingerprint: u64,
    streams: Vec<StreamEncoder>,
}

impl TraceRecorder {
    /// A recorder with `n_cores` empty streams.
    #[must_use]
    pub fn new(n_cores: usize, fingerprint: u64) -> Self {
        TraceRecorder {
            fingerprint,
            streams: (0..n_cores).map(|_| StreamEncoder::new()).collect(),
        }
    }

    /// The encoder for one core's stream.
    ///
    /// # Panics
    /// If `core` is out of range.
    pub fn stream(&mut self, core: usize) -> &mut StreamEncoder {
        &mut self.streams[core]
    }

    /// Every core's encoder, in core order — the record sink of a
    /// simulation request.
    pub fn streams(&mut self) -> &mut [StreamEncoder] {
        &mut self.streams
    }

    /// Finish every stream and build the trace.
    #[must_use]
    pub fn finish(self) -> Trace {
        Trace {
            fingerprint: self.fingerprint,
            cores: self
                .streams
                .into_iter()
                .map(|s| {
                    let (events, payload) = s.finish();
                    CoreTrace { events, payload }
                })
                .collect(),
        }
    }
}

/// Fans each event (and each step boundary) out to two observers, in
/// order — the composition that lets a recording stack on a timing model
/// (record while measuring) or on any other observer. Generic over both
/// receivers, so a tee of concrete observers dispatches statically.
pub struct Tee<'a, A: ?Sized, B: ?Sized>(
    /// First receiver.
    pub &'a mut A,
    /// Second receiver.
    pub &'a mut B,
);

impl<A: ExecObserver + ?Sized, B: ExecObserver + ?Sized> ExecObserver for Tee<'_, A, B> {
    #[inline]
    fn on_event(&mut self, ev: &Event<'_>) {
        self.0.on_event(ev);
        self.1.on_event(ev);
    }

    #[inline]
    fn end_step(&mut self) {
        self.0.end_step();
        self.1.end_step();
    }
}

/// Drive an already-started interpreter cursor to completion, recording
/// every event into `enc` (with step boundaries) while also forwarding
/// to `extra` — pass a timing observer to record during a measured
/// simulation, or a [`swpf_ir::interp::NullObserver`] for a pure
/// recording pass.
///
/// # Errors
/// Any [`Trap`] the program raises.
pub fn record_cursor(
    interp: &mut Interp,
    enc: &mut StreamEncoder,
    extra: &mut (impl ExecObserver + ?Sized),
) -> Result<Option<RtVal>, Trap> {
    let mut tee = Tee(enc, extra);
    loop {
        if let Step::Done(v) = interp.run_steps(u64::MAX, &mut tee)? {
            return Ok(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swpf_ir::interp::{CountingObserver, EventKind};
    use swpf_ir::prelude::*;
    use swpf_ir::ValueId;

    fn push_alu(rec: &mut TraceRecorder, core: usize, pc: u64) {
        let e = Event {
            pc,
            frame: 0,
            result: ValueId((pc & 0xffff_ffff) as u32),
            kind: EventKind::Alu,
            operands: &[],
        };
        rec.stream(core).push(&e);
        rec.stream(core).end_step();
    }

    #[test]
    fn envelope_round_trips_multicore() {
        let mut rec = TraceRecorder::new(3, 0xdead_beef);
        push_alu(&mut rec, 0, 1);
        push_alu(&mut rec, 2, 9);
        push_alu(&mut rec, 2, 10);
        // Core 1 stays empty on purpose.
        let trace = rec.finish();
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.fingerprint, 0xdead_beef);
        assert_eq!(back.num_cores(), 3);
        assert_eq!(back.events(0), 1);
        assert_eq!(back.events(1), 0);
        assert_eq!(back.events(2), 2);
        assert!(back.cursor(1).unwrap().next_event().unwrap().is_none());
        assert_eq!(back.cursor(3).unwrap_err(), TraceError::MissingCore(3));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut rec = TraceRecorder::new(1, 0);
        for pc in 0..32 {
            push_alu(&mut rec, 0, pc);
        }
        let mut bytes = rec.finish().to_bytes();
        // Layout: 24-byte header, 20-byte section prologue, 17-byte
        // block header, then the block's compressed bytes. Flip a bit
        // in the middle of the compressed data: the block checksum
        // (computed over the re-expanded bytes) must catch it.
        let comp_len = u32::from_le_bytes(bytes[48..52].try_into().unwrap()) as usize;
        assert!(comp_len > 0, "32 events encode at least one byte");
        let at = 61 + comp_len / 2;
        bytes[at] ^= 0x40;
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::ChecksumMismatch { .. }) | Err(TraceError::Corrupt(_))
        ));
    }

    /// Real-shaped loop streams must actually shrink: the whole point
    /// of the block coder is that loop iterations are byte-periodic.
    #[test]
    fn blocks_shrink_loopy_streams_fivefold() {
        let mut rec = TraceRecorder::new(1, 0);
        for i in 0..20_000u64 {
            let e = Event {
                pc: 7,
                frame: 0,
                result: ValueId(7),
                kind: EventKind::Load {
                    addr: 0x1000 + i * 8,
                    size: 8,
                },
                operands: &[],
            };
            rec.stream(0).push(&e);
            rec.stream(0).end_step();
        }
        let trace = rec.finish();
        let (raw, file) = (trace.payload_bytes(), trace.to_bytes().len());
        assert!(
            file * 5 <= raw,
            "expected >=5x shrink on a periodic stream, got {raw} -> {file}"
        );
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let trace = TraceRecorder::new(1, 0).finish();
        let mut bytes = trace.to_bytes();
        bytes[0] = b'X';
        assert_eq!(Trace::from_bytes(&bytes), Err(TraceError::BadMagic));
        for version in [1, 2, 99] {
            let mut bytes = trace.to_bytes();
            bytes[8] = version; // version field
            assert_eq!(
                Trace::from_bytes(&bytes),
                Err(TraceError::UnsupportedVersion(version.into()))
            );
        }
        assert_eq!(Trace::from_bytes(&bytes[..4]), Err(TraceError::Truncated));
    }

    /// Record a real kernel through the engine and replay the cursor
    /// against a counting observer: the tee'd recording must preserve
    /// the stream exactly.
    #[test]
    fn recorded_stream_matches_live_counts() {
        let mut m = Module::new("t");
        let fid = m.declare_function("f", &[Type::Ptr, Type::I64], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(fid));
            let (a, n) = (b.arg(0), b.arg(1));
            let entry = b.entry_block();
            let header = b.create_block("h");
            let body = b.create_block("b");
            let exit = b.create_block("x");
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, &[(entry, zero)]);
            let acc = b.phi(Type::I64, &[(entry, zero)]);
            let c = b.icmp(Pred::Slt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let g = b.gep(a, i, 8);
            b.prefetch(g);
            let v = b.load(Type::I64, g);
            let acc2 = b.add(acc, v);
            let i2 = b.add(i, one);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(acc, body, acc2);
            b.br(header);
            b.switch_to(exit);
            b.ret(Some(acc));
        }
        let mut interp = Interp::new();
        let base = interp.alloc_array(64, 8).unwrap();
        let args = [RtVal::Int(base as i64), RtVal::Int(64)];
        interp.start(&m, fid, &args);

        let mut live = CountingObserver::default();
        let mut enc = StreamEncoder::new();
        let ret = record_cursor(&mut interp, &mut enc, &mut live).unwrap();
        assert_eq!(ret, Some(RtVal::Int(0)), "array is zero-filled");

        let mut rec = TraceRecorder::new(1, 7);
        *rec.stream(0) = enc;
        let trace = rec.finish();
        assert_eq!(trace.events(0), live.total);

        let mut replayed = CountingObserver::default();
        let mut cur = trace.cursor(0).unwrap();
        while let Some((ev, _)) = cur.next_event().unwrap() {
            replayed.on_event(&ev);
        }
        assert_eq!(replayed.total, live.total);
        assert_eq!(replayed.loads, live.loads);
        assert_eq!(replayed.prefetches, live.prefetches);
        assert_eq!(replayed.branches, live.branches);
    }

    /// The tee forwards to both receivers in order.
    #[test]
    fn tee_fans_out() {
        let mut a = CountingObserver::default();
        let mut b = CountingObserver::default();
        let e = Event {
            pc: 3,
            frame: 0,
            result: ValueId(3),
            kind: EventKind::Branch { taken: true },
            operands: &[],
        };
        Tee(&mut a, &mut b).on_event(&e);
        assert_eq!((a.total, a.branches), (1, 1));
        assert_eq!((b.total, b.branches), (1, 1));
    }
}
