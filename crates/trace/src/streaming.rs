//! Bounded-memory replay directly from a trace file.
//!
//! [`Trace::from_bytes`] materialises every core's full uncompressed
//! payload, which is fine for test-scale corpora but defeats the point
//! of a compressed store at paper scale. [`StreamingReplay`] instead
//! reads the envelope header once, then hands out per-core
//! [`StreamingCursor`]s that decode **one block at a time** — the
//! [`WindowCursor`] of in-memory replay over a [`BlockWindow`]: the
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
//! full reader, `Trace::from_bytes`.) The file is opened once: cursors
//! share the handle `open` validated and read at their own offsets, so
//! what is streamed is the file that was validated even if the path is
//! renamed over meanwhile.
//!
//! This is the one reader of trace *files*: every warm `--trace-dir`
//! hit streams through it. A file of any other format version is
//! [`TraceError::UnsupportedVersion`], which cache layers treat exactly
//! like a stale fingerprint — re-record and overwrite.

use crate::block::{BlockHeader, BLOCK_HEADER_LEN};
use crate::stream::{Window, WindowCursor};
use crate::wire::{get_u32, get_u64};
use crate::{TraceError, END_MAGIC, MAGIC};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// Bytes of the envelope header: magic, version, fingerprint, cores.
const HEADER_LEN: u64 = 24;
/// Bytes of a core section's prologue: events, blocks, section length.
const PROLOGUE_LEN: u64 = 20;

/// Fill `buf` from `offset` with one positional read.
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> Result<(), TraceError> {
    file.read_exact_at(buf, offset).map_err(|e| io_err(&e))
}

/// Map an I/O failure into the (Copy) trace error space; a clean EOF
/// mid-structure is a truncation like any other.
fn io_err(e: &std::io::Error) -> TraceError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        TraceError::Truncated
    } else {
        TraceError::Io(e.kind())
    }
}

/// Location and size of one core's block section within the file.
#[derive(Debug, Clone, Copy)]
struct CoreMeta {
    events: u64,
    n_blocks: u32,
    /// Absolute file offsets of the first block header and of the
    /// section's end.
    offset: u64,
    end: u64,
}

/// A trace file opened for block-at-a-time replay. Holds the file
/// handle and the header metadata; event data stays on disk until a
/// [`StreamingCursor`] walks it.
#[derive(Debug)]
pub struct StreamingReplay {
    file: Arc<File>,
    fingerprint: u64,
    cores: Vec<CoreMeta>,
}

impl StreamingReplay {
    /// Open a trace file, reading and validating the envelope header
    /// and per-core section structure (but no event data).
    ///
    /// # Errors
    /// Any [`TraceError`] the envelope violates, including
    /// [`TraceError::Io`] for filesystem failures and
    /// [`TraceError::UnsupportedVersion`] for any version but
    /// [`crate::FORMAT_VERSION`].
    pub fn open(path: &Path) -> Result<StreamingReplay, TraceError> {
        let file = File::open(path).map_err(|e| io_err(&e))?;
        swpf_obs::count("trace.stream.opens", 1);
        let file_len = file.metadata().map_err(|e| io_err(&e))?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        read_at(&file, &mut header, 0)?;
        if header[..8] != *MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut at = 8;
        let version = get_u32(&header, &mut at)?;
        if version != crate::FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let fingerprint = get_u64(&header, &mut at)?;
        let n_cores = get_u32(&header, &mut at)? as usize;
        let mut cores = Vec::with_capacity(n_cores.min(1 << 10));
        let mut pos = HEADER_LEN;
        for _ in 0..n_cores {
            let mut prologue = [0u8; PROLOGUE_LEN as usize];
            read_at(&file, &mut prologue, pos)?;
            let mut at = 0;
            let events = get_u64(&prologue, &mut at)?;
            let n_blocks = get_u32(&prologue, &mut at)?;
            let comp_total = get_u64(&prologue, &mut at)?;
            let offset = pos + PROLOGUE_LEN;
            let end = offset
                .checked_add(comp_total)
                .filter(|&end| end <= file_len)
                .ok_or(TraceError::Truncated)?;
            cores.push(CoreMeta {
                events,
                n_blocks,
                offset,
                end,
            });
            pos = end;
        }
        // Footer: combined checksum (verified per-block during
        // streaming) and the end magic, which must close the file.
        let mut footer = [0u8; 16];
        read_at(&file, &mut footer, pos)?;
        if footer[8..] != *END_MAGIC {
            return Err(TraceError::BadMagic);
        }
        if pos + 16 != file_len {
            return Err(TraceError::Corrupt("trailing bytes after end magic"));
        }
        Ok(StreamingReplay {
            file: Arc::new(file),
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

    /// A block-at-a-time decode cursor over one core's events, reading
    /// at its own offsets through the handle `open` validated.
    ///
    /// # Errors
    /// [`TraceError::MissingCore`].
    pub fn cursor(&self, core: usize) -> Result<StreamingCursor, TraceError> {
        let meta = self.cores.get(core).ok_or(TraceError::MissingCore(core))?;
        let window = BlockWindow {
            file: Arc::clone(&self.file),
            offset: meta.offset,
            end: meta.end,
            blocks_left: meta.n_blocks,
            buf: Vec::new(),
            comp: Vec::new(),
        };
        Ok(WindowCursor::new(window, meta.events))
    }
}

/// Decodes one core's events block by block; see [`WindowCursor`].
pub type StreamingCursor = WindowCursor<BlockWindow>;

/// The resident part of one core's block section: at most one
/// uncompressed block plus the partial event that straddled its start.
#[derive(Debug)]
pub struct BlockWindow {
    file: Arc<File>,
    /// Where the next block header is, and where the section ends.
    offset: u64,
    end: u64,
    blocks_left: u32,
    buf: Vec<u8>,
    /// Compressed-bytes scratch, reused across blocks.
    comp: Vec<u8>,
}

impl Window for BlockWindow {
    #[inline(always)]
    fn bytes(&self) -> &[u8] {
        &self.buf
    }

    #[cold]
    #[inline(never)]
    fn refill(&mut self, consumed: usize) -> Result<bool, TraceError> {
        const MISMATCH: TraceError = TraceError::Corrupt("block section length mismatch");
        if self.blocks_left == 0 {
            return if self.offset == self.end {
                Ok(false)
            } else {
                Err(MISMATCH)
            };
        }
        self.blocks_left -= 1;
        let room = (self.end - self.offset)
            .checked_sub(BLOCK_HEADER_LEN as u64)
            .ok_or(MISMATCH)?;
        let mut hdr = [0u8; BLOCK_HEADER_LEN];
        read_at(&self.file, &mut hdr, self.offset)?;
        let block = BlockHeader::parse(&hdr, &mut 0)?;
        // `parse` bounded both lengths by the format's ceiling; the
        // stored one is also bounded by what is left of the section.
        if block.comp_len as u64 > room {
            return Err(MISMATCH);
        }
        self.comp.resize(block.comp_len, 0);
        read_at(
            &self.file,
            &mut self.comp,
            self.offset + BLOCK_HEADER_LEN as u64,
        )?;
        self.offset += (BLOCK_HEADER_LEN + block.comp_len) as u64;
        // Dropping the consumed prefix is what bounds the window at one
        // block plus a partial event.
        self.buf.drain(..consumed);
        block.expand_into(&self.comp, &mut self.buf)?;
        Ok(true)
    }
}
