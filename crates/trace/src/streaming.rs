//! Bounded-memory replay directly from a v2 trace file.
//!
//! [`Trace::from_bytes`] materialises every core's full uncompressed
//! payload, which is fine for test-scale corpora but defeats the point
//! of a compressed store at paper scale. [`StreamingReplay`] instead
//! reads the envelope header once, then hands out per-core
//! [`StreamingCursor`]s that decode **one block at a time**: the
//! resident window per cursor is the current uncompressed block, the
//! compressed scratch buffer, and the (kernel-static, small) operand
//! dictionary — independent of trace length. The memory contract is
//! enforced by the `streaming_mem` integration test with a counting
//! allocator.
//!
//! Integrity: the header magic/version and the per-core section
//! structure are validated at [`StreamingReplay::open`]; every block's
//! FNV checksum is verified over the *uncompressed* bytes before a
//! single event from it is surfaced. (The whole-file footer checksum is
//! redundant with the per-block sums and is only re-verified by the
//! full reader, `Trace::from_bytes`.) Each cursor opens its own file
//! handle, so multicore replay can interleave per-core streams at
//! arbitrary file offsets.
//!
//! Version-1 files are rejected with
//! [`TraceError::UnsupportedVersion`]: they carry no block structure to
//! stream. Cache layers treat that exactly like a stale fingerprint —
//! re-record and overwrite.

use crate::block::{decompress_into, MAX_BLOCK};
use crate::stream::{DecodeState, EventSource};
use crate::wire::checksum64;
use crate::{TraceError, END_MAGIC, MAGIC};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use swpf_ir::interp::Event;

/// Map an I/O failure into the (Copy) trace error space; a clean EOF
/// mid-structure is a truncation like any other.
fn io_err(e: &std::io::Error) -> TraceError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        TraceError::Truncated
    } else {
        TraceError::Io(e.kind())
    }
}

fn read_exact(f: &mut File, buf: &mut [u8]) -> Result<(), TraceError> {
    f.read_exact(buf).map_err(|e| io_err(&e))
}

fn read_u32(f: &mut File) -> Result<u32, TraceError> {
    let mut b = [0u8; 4];
    read_exact(f, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(f: &mut File) -> Result<u64, TraceError> {
    let mut b = [0u8; 8];
    read_exact(f, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Location and size of one core's block section within the file.
#[derive(Debug, Clone, Copy)]
struct CoreMeta {
    events: u64,
    n_blocks: u32,
    /// Absolute file offset of the first block header.
    offset: u64,
}

/// A v2 trace file opened for block-at-a-time replay. Holds only the
/// header metadata; event data stays on disk until a
/// [`StreamingCursor`] walks it.
#[derive(Debug)]
pub struct StreamingReplay {
    path: PathBuf,
    fingerprint: u64,
    cores: Vec<CoreMeta>,
}

impl StreamingReplay {
    /// Open a v2 trace file, reading and validating the envelope
    /// header and per-core section structure (but no event data).
    ///
    /// # Errors
    /// Any [`TraceError`] the envelope violates, including
    /// [`TraceError::Io`] for filesystem failures and
    /// [`TraceError::UnsupportedVersion`] for v1 files.
    pub fn open(path: &Path) -> Result<StreamingReplay, TraceError> {
        let mut f = File::open(path).map_err(|e| io_err(&e))?;
        let file_len = f.metadata().map_err(|e| io_err(&e))?.len();
        let mut magic = [0u8; 8];
        read_exact(&mut f, &mut magic)?;
        if magic != *MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = read_u32(&mut f)?;
        if version != crate::FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let fingerprint = read_u64(&mut f)?;
        let n_cores = read_u32(&mut f)? as usize;
        let mut cores = Vec::with_capacity(n_cores.min(1 << 10));
        let mut pos = 24u64;
        for _ in 0..n_cores {
            let events = read_u64(&mut f)?;
            let n_blocks = read_u32(&mut f)?;
            let comp_total = read_u64(&mut f)?;
            pos += 20;
            cores.push(CoreMeta {
                events,
                n_blocks,
                offset: pos,
            });
            pos = pos.checked_add(comp_total).ok_or(TraceError::Truncated)?;
            if pos > file_len {
                return Err(TraceError::Truncated);
            }
            f.seek(SeekFrom::Start(pos)).map_err(|e| io_err(&e))?;
        }
        // Footer: combined checksum (verified per-block during
        // streaming) and the end magic, which must close the file.
        let _footer_sum = read_u64(&mut f)?;
        let mut end = [0u8; 8];
        read_exact(&mut f, &mut end)?;
        if end != *END_MAGIC {
            return Err(TraceError::BadMagic);
        }
        if pos + 16 != file_len {
            return Err(TraceError::Corrupt("trailing bytes after end magic"));
        }
        Ok(StreamingReplay {
            path: path.to_path_buf(),
            fingerprint,
            cores,
        })
    }

    /// The kernel fingerprint recorded in the header.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

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

    /// A block-at-a-time decode cursor over one core's events. Each
    /// cursor opens its own file handle (multicore replay reads several
    /// sections concurrently).
    ///
    /// # Errors
    /// [`TraceError::MissingCore`] or [`TraceError::Io`].
    pub fn cursor(&self, core: usize) -> Result<StreamingCursor, TraceError> {
        let meta = *self.cores.get(core).ok_or(TraceError::MissingCore(core))?;
        let mut file = File::open(&self.path).map_err(|e| io_err(&e))?;
        file.seek(SeekFrom::Start(meta.offset))
            .map_err(|e| io_err(&e))?;
        Ok(StreamingCursor {
            file,
            blocks_left: meta.n_blocks,
            remaining: meta.events,
            buf: Vec::new(),
            pos: 0,
            comp: Vec::new(),
            state: DecodeState::new(),
        })
    }
}

/// Decodes one core's events block by block. The uncompressed window
/// holds at most one block plus any event straddling its start; decode
/// state (delta mirrors, operand dictionary) persists across blocks,
/// exactly as if the payload were contiguous.
#[derive(Debug)]
pub struct StreamingCursor {
    file: File,
    blocks_left: u32,
    remaining: u64,
    /// Decoded-but-unconsumed window.
    buf: Vec<u8>,
    pos: usize,
    /// Compressed-bytes scratch, reused across blocks.
    comp: Vec<u8>,
    state: DecodeState,
}

impl StreamingCursor {
    /// Pull the next block into the window. Returns `false` when the
    /// section has no more blocks.
    fn refill(&mut self) -> Result<bool, TraceError> {
        if self.blocks_left == 0 {
            return Ok(false);
        }
        self.blocks_left -= 1;
        // Drop the consumed prefix first: this is what bounds the
        // window at one block plus a partial event.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let mut hdr = [0u8; 17];
        read_exact(&mut self.file, &mut hdr)?;
        let raw_len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
        let comp_len = u32::from_le_bytes(hdr[4..8].try_into().unwrap()) as usize;
        let method = hdr[8];
        let stored_sum = u64::from_le_bytes(hdr[9..17].try_into().unwrap());
        if raw_len > MAX_BLOCK || comp_len > MAX_BLOCK {
            return Err(TraceError::Corrupt("implausible block size"));
        }
        self.comp.resize(comp_len, 0);
        read_exact(&mut self.file, &mut self.comp)?;
        let start = self.buf.len();
        decompress_into(method, &self.comp, raw_len, &mut self.buf)?;
        let computed = checksum64(&self.buf[start..]);
        if computed != stored_sum {
            return Err(TraceError::ChecksumMismatch {
                stored: stored_sum,
                computed,
            });
        }
        Ok(true)
    }

    /// Decode the next event, refilling the window from disk as blocks
    /// are exhausted. Semantics match [`crate::EventCursor::next_event`].
    ///
    /// # Errors
    /// Any [`TraceError`] in the stream, including
    /// [`TraceError::ChecksumMismatch`] for a corrupted block (detected
    /// before any of its events are surfaced) and [`TraceError::Io`].
    pub fn next_event(&mut self) -> Result<Option<(Event<'_>, bool)>, TraceError> {
        if self.remaining == 0 {
            if self.pos != self.buf.len() || self.blocks_left != 0 {
                return Err(TraceError::Corrupt("trailing bytes after final event"));
            }
            return Ok(None);
        }
        loop {
            let mark = self.state.mark();
            let mut pos = self.pos;
            match self.state.decode_one(&self.buf, &mut pos) {
                Ok(raw) => {
                    self.pos = pos;
                    self.remaining -= 1;
                    let operands = self.state.operands(raw.slot);
                    return Ok(Some((
                        Event {
                            pc: raw.pc,
                            frame: raw.frame,
                            result: raw.result,
                            kind: raw.kind,
                            operands,
                        },
                        raw.end_of_step,
                    )));
                }
                // The event straddles the window's end: roll the state
                // back, append the next block, retry. A partial event
                // can only fail as Truncated (varints self-delimit), so
                // this never masks real corruption.
                Err(TraceError::Truncated) => {
                    self.state.restore(mark);
                    if !self.refill()? {
                        return Err(TraceError::Truncated);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl EventSource for StreamingCursor {
    #[inline]
    fn next_event(&mut self) -> Result<Option<(Event<'_>, bool)>, TraceError> {
        StreamingCursor::next_event(self)
    }
}
