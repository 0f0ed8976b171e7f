//! Block-level compression for the trace envelope.
//!
//! The varint/delta/dictionary stream (`stream`) already removes most
//! field-level redundancy, but loop-structured kernels still emit long
//! *byte-level* repeats: each iteration encodes the same tag/delta
//! pattern, so the payload is highly periodic. The envelope therefore
//! chops each core's payload into fixed-size blocks ([`BLOCK_TARGET`]
//! uncompressed bytes) and compresses each block with a small
//! self-contained LZ77 + Huffman coder — no external crates, no shared
//! state between blocks, so a reader can decode one block at a time in
//! bounded memory.
//!
//! Matching is a bounded hash-chain search: 4-byte hash heads, `prev`
//! links, at most [`MAX_PROBES`] candidates per position (most recent
//! first) and none after a [`NICE_LEN`] match, with one-step-lazy
//! parsing for short matches only — a match under [`LAZY_BELOW`] bytes
//! defers while the next position finds a strictly longer one — and
//! only the edges of a match entered into the chains ([`SEED_EDGE`]).
//!
//! ## `METHOD_LZH` — entropy-coded tokens
//!
//! The matcher's tokens — literal runs, each but possibly the last
//! followed by a match — go out under two canonical length-limited
//! Huffman codes (`huff`): a 318-symbol literal/length alphabet (0–255
//! literal byte, 256+ a match-length bucket) and a 60-symbol offset
//! alphabet, both geometric past their direct range with the exponent's
//! low bits sent as raw extra bits — the deflate shape, without the
//! length caps.
//! The wire layout is the two tables' code lengths, one nibble per
//! symbol (189 bytes), then one MSB-first bitstream of symbols: a
//! literal stands alone, a length symbol is followed by its extra
//! bits, an offset symbol, and the offset's extra bits. No terminator
//! — the decoder stops at the block's known raw length, and the final
//! byte's padding bits must be zero.
//!
//! Offsets never reach outside the block, so corruption cannot
//! propagate across block boundaries and decompression needs only the
//! current block's output. The decoder knows the uncompressed length
//! from the block header and stops exactly there; any mismatch —
//! over-long runs, out-of-range offsets, trailing or nonzero-padding
//! compressed bytes — is a [`TraceError::Corrupt`].
//!
//! The writer prices the encoding from the tokens and the code lengths
//! alone; blocks it would not shrink are stored raw
//! ([`METHOD_STORED`]), so pathological inputs cost at most the 17-byte
//! block header. Method 1, format 2's byte-aligned serialisation of
//! the same tokens, is retired: readers refuse it as an unknown method.

use crate::huff::{build_codes, code_lengths, BitReader, BitWriter, Decoder};
use crate::wire::{checksum64, get_u32, get_u64};
use crate::TraceError;

/// Uncompressed block size the default writer targets. Small enough to
/// bound a streaming reader's window, large enough that the per-block
/// header and the restarted LZ window cost well under 1%.
pub const BLOCK_TARGET: usize = 64 << 10;

/// Block stored raw (compression did not shrink it).
pub(crate) const METHOD_STORED: u8 = 0;
/// Block compressed with Huffman-coded LZ tokens.
pub(crate) const METHOD_LZH: u8 = 2;

/// Observability counter name for an encoded block's method.
pub(crate) fn method_counter(method: u8) -> &'static str {
    if method == METHOD_LZH {
        "trace.encode.block.lzh"
    } else {
        "trace.encode.block.stored"
    }
}

/// Observability counter name for a decoded block's method.
pub(crate) fn method_counter_decode(method: u8) -> &'static str {
    if method == METHOD_LZH {
        "trace.decode.block.lzh"
    } else {
        "trace.decode.block.stored"
    }
}

/// Shortest match the tokenizer emits, and the base LZH match lengths
/// are sent from (as `length - MIN_MATCH`), so it is part of the
/// format. Four bytes is also the width the chains are hashed by
/// ([`load4`]): no shorter match could be found through them.
const MIN_MATCH: usize = 4;

/// log2 of the hash head table (one u32 slot per bucket).
const HASH_BITS: u32 = 14;

/// Hash-chain candidates examined per search. Periodic streams put the
/// best match near the chain head; on the fig7 corpus 8 probes give up
/// ~11% of the compressed size against 48 for less than half the time.
const MAX_PROBES: usize = 8;

/// A match this long ends its chain walk: what a longer one would save
/// is a fraction of a token, what finding it costs is the rest of the
/// probe budget at every loop iteration of the traced kernel.
const NICE_LEN: usize = 24;

/// Matches at least this long are taken as found; shorter ones defer
/// to a strictly longer match one byte on (the lazy step).
const LAZY_BELOW: usize = 8;

/// Positions at each edge of a match that enter the hash chains. The
/// next iteration of a traced loop breaks its matches where this one
/// did — at the fields that vary — so the interior of a match is
/// almost never where a later match starts, and chains without it are
/// both cheaper to build and shorter to walk.
const SEED_EDGE: usize = 2;

/// Ceiling on block lengths, enforced by the writer and on every
/// length read from an untrusted header: 64 × [`BLOCK_TARGET`], so a
/// corrupt or hostile header can make a reader allocate at most this
/// much before the block's checksum is consulted.
pub(crate) const MAX_BLOCK: usize = 4 << 20;

// ---- METHOD_LZH symbol spaces ----------------------------------------
//
// Match lengths are sent as (length - MIN_MATCH): 0..8 direct, then two
// buckets per power of two with floor(log2)-1 extra bits. Offsets are
// sent as (offset - 1): 0..4 direct, then the same geometric shape.
// Both alphabets reach 2^30 — far past MAX_BLOCK, but their sizes are
// part of the format — so no length cap splits matches.

/// Length symbols: 8 direct + 2 per octave for exponents 3..=29.
const LEN_SYMS: usize = 8 + 2 * 27;
/// Literal/length alphabet: 256 literals then length buckets.
const LITLEN_SYMS: usize = 256 + LEN_SYMS;
/// Offset symbols: 4 direct + 2 per octave for exponents 2..=29.
const OFF_SYMS: usize = 4 + 2 * 28;
/// Nibble-packed size of both code-length tables.
const TABLE_BYTES: usize = (LITLEN_SYMS + OFF_SYMS).div_ceil(2);

/// Un-bucketed low values of the length and offset alphabets.
const LEN_DIRECT: u32 = 8;
const OFF_DIRECT: u32 = 4;

/// Symbol index of `v` in an alphabet with `direct` un-bucketed low
/// values and two buckets per octave after. The bucket's extra bits
/// are `v`'s low [`geo_base`]`.1` bits.
#[inline]
fn geo_sym(v: u32, direct: u32) -> u32 {
    if v < direct {
        v
    } else {
        let k = 31 - v.leading_zeros();
        let first_k = direct.trailing_zeros(); // direct is a power of two
        direct + 2 * (k - first_k) + ((v >> (k - 1)) & 1)
    }
}

/// Inverse of [`geo_sym`]: (base value, extra-bit count).
#[inline]
fn geo_base(sym: u32, direct: u32) -> (u32, u32) {
    if sym < direct {
        (sym, 0)
    } else {
        let t = sym - direct;
        let k = direct.trailing_zeros() + t / 2;
        let half = t & 1;
        ((1 << k) + (half << (k - 1)), k - 1)
    }
}

// ---- tokenizer --------------------------------------------------------

/// One parsed token: `lit_len` literal bytes (starting where the
/// previous token ended), then a match of `match_len` bytes at `dist`
/// — except the final token of a block, which may carry `match_len ==
/// 0` for a trailing literal run. The match's two `METHOD_LZH` symbols
/// ride along so the bucket arithmetic runs once per token.
#[derive(Clone, Copy)]
struct Token {
    lit_len: u32,
    match_len: u32,
    dist: u32,
    len_sym: u16,
    off_sym: u16,
}

/// Reusable compressor scratch: hash heads, chain links, the token
/// list, and the winning serialisation. One instance per writer, reset
/// per block, so a multi-block encode allocates O(1) times.
#[derive(Default)]
pub(crate) struct MatchScratch {
    head: Vec<u32>,
    prev: Vec<u32>,
    tokens: Vec<Token>,
    out: Vec<u8>,
}

/// What one parse leaves behind besides the tokens: both `METHOD_LZH`
/// symbol histograms — enough to price the block before serialising it.
struct Parse {
    ll_freq: [u32; LITLEN_SYMS],
    off_freq: [u32; OFF_SYMS],
}

/// Match-search effort of one block, for the `trace.encode.*` work
/// counters (deterministic, unlike the time it stands for).
#[derive(Default)]
struct Work {
    candidates: u64,
    compared: u64,
}

#[inline(always)]
fn load4(raw: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(raw[at..at + 4].try_into().expect("4 bytes"))
}

#[inline(always)]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

#[inline(always)]
fn insert(s: &mut MatchScratch, raw: &[u8], i: usize) {
    let h = hash4(load4(raw, i));
    s.prev[i] = s.head[h];
    s.head[h] = i as u32;
}

/// Length of the common prefix of `raw[a..]` and `raw[i..]`, capped at
/// `max`. `a < i`, so the u64 fast path never reads past `i + max`.
#[inline]
fn common_len(raw: &[u8], a: usize, i: usize, max: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max {
        let x = u64::from_le_bytes(raw[a + l..a + l + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(raw[i + l..i + l + 8].try_into().expect("8 bytes"));
        let d = x ^ y;
        if d != 0 {
            return l + (d.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && raw[a + l] == raw[i + l] {
        l += 1;
    }
    l
}

/// Best match for position `i` among the first [`MAX_PROBES`] chain
/// candidates: longest wins, most-recent (smallest offset) breaks
/// ties, and a [`NICE_LEN`] match ends the walk. Only matches of at
/// least `min_len` qualify.
#[inline]
fn best_match(
    s: &MatchScratch,
    raw: &[u8],
    i: usize,
    min_len: usize,
    work: &mut Work,
) -> Option<(usize, usize)> {
    let max = raw.len() - i;
    if max < min_len {
        return None;
    }
    let here = load4(raw, i);
    let mut cand = s.head[hash4(here)];
    let mut best_len = min_len - 1;
    let mut best_at = usize::MAX;
    let mut probes = MAX_PROBES;
    while cand != u32::MAX && probes > 0 {
        probes -= 1;
        let c = cand as usize;
        // Cheap rejection: to beat `best_len` the candidate must agree
        // at that offset (and still start with the same 4 bytes).
        if raw[c + best_len] == raw[i + best_len] && load4(raw, c) == here {
            let l = common_len(raw, c, i, max);
            work.compared += l as u64;
            if l > best_len {
                best_len = l;
                best_at = c;
                if l >= NICE_LEN.min(max) {
                    break;
                }
            }
        }
        cand = s.prev[c];
    }
    work.candidates += (MAX_PROBES - probes) as u64;
    (best_at != usize::MAX).then(|| (best_len, i - best_at))
}

/// Parse `raw` into `s.tokens` with bounded hash-chain matching.
fn tokenize(raw: &[u8], s: &mut MatchScratch) -> Parse {
    let mut parse = Parse {
        ll_freq: [0; LITLEN_SYMS],
        off_freq: [0; OFF_SYMS],
    };
    let mut emit = |tokens: &mut Vec<Token>, lit: &[u8], match_len: usize, dist: usize| {
        let (mut len_sym, mut off_sym) = (0, 0);
        for &b in lit {
            parse.ll_freq[b as usize] += 1;
        }
        if match_len > 0 {
            len_sym = geo_sym((match_len - MIN_MATCH) as u32, LEN_DIRECT);
            off_sym = geo_sym(dist as u32 - 1, OFF_DIRECT);
            parse.ll_freq[256 + len_sym as usize] += 1;
            parse.off_freq[off_sym as usize] += 1;
        }
        tokens.push(Token {
            lit_len: lit.len() as u32,
            match_len: match_len as u32,
            dist: dist as u32,
            len_sym: len_sym as u16,
            off_sym: off_sym as u16,
        });
    };

    s.tokens.clear();
    // Worst case up front (a match every MIN_MATCH bytes), so no block
    // of this size or smaller ever grows the list again.
    s.tokens.reserve(raw.len() / MIN_MATCH + 1);
    s.head.clear();
    s.head.resize(1 << HASH_BITS, u32::MAX);
    // Chain links are written on insert before any walk reads them:
    // stale ones from the previous block are never reached.
    if s.prev.len() < raw.len() {
        s.prev.resize(raw.len(), u32::MAX);
    }
    let mut work = Work::default();
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + MIN_MATCH <= raw.len() {
        let found = best_match(s, raw, i, MIN_MATCH, &mut work);
        insert(s, raw, i);
        let Some((mut len, mut dist)) = found else {
            i += 1;
            continue;
        };
        // Lazy step: while a short match is beaten by a strictly
        // longer one at the next position, emit this byte as a literal
        // and carry the better match.
        let mut seeded = i + 1; // first position not yet in the chains
        while len < LAZY_BELOW && i + 1 + MIN_MATCH <= raw.len() {
            let better = best_match(s, raw, i + 1, len + 1, &mut work);
            insert(s, raw, i + 1);
            seeded = i + 2;
            match better {
                Some((l2, d2)) => {
                    i += 1;
                    len = l2;
                    dist = d2;
                }
                None => break,
            }
        }
        emit(&mut s.tokens, &raw[lit_start..i], len, dist);
        // Seed the chains at both edges of the match so the next
        // iteration of a periodic stream finds this occurrence.
        let end = i + len;
        let last = end.min(raw.len() - MIN_MATCH + 1);
        let head_end = (i + SEED_EDGE).clamp(seeded, last);
        for j in (seeded..head_end).chain((end - SEED_EDGE).max(head_end)..last) {
            insert(s, raw, j);
        }
        i = end;
        lit_start = end;
    }
    if lit_start < raw.len() {
        emit(&mut s.tokens, &raw[lit_start..], 0, 0);
    }
    if swpf_obs::enabled() {
        swpf_obs::count("trace.encode.candidates", work.candidates);
        swpf_obs::count("trace.encode.compared_bytes", work.compared);
    }
    parse
}

// ---- serialisers ------------------------------------------------------

/// Fill one alphabet's per-symbol write entries — `code | len << 16 |
/// extra_bits << 24`, so one lookup yields everything a token's symbol
/// puts on the wire — and return the payload bits its symbols will
/// take: code plus extra bits, weighted by frequency. Geometric buckets
/// start at symbol `first_bucket`.
fn pack_codes(
    freq: &[u32],
    lens: &[u8],
    first_bucket: usize,
    direct: u32,
    packed: &mut [u32],
) -> u64 {
    let mut codes = [0u16; LITLEN_SYMS];
    build_codes(lens, &mut codes[..lens.len()]);
    let mut bits = 0u64;
    for (sym, entry) in packed.iter_mut().enumerate() {
        let extra = sym
            .checked_sub(first_bucket)
            .map_or(0, |bucket| geo_base(bucket as u32, direct).1);
        *entry = u32::from(codes[sym]) | u32::from(lens[sym]) << 16 | extra << 24;
        bits += u64::from(freq[sym]) * u64::from(u32::from(lens[sym]) + extra);
    }
    bits
}

/// Append the symbol behind `entry` and the low extra bits of `v`.
#[inline(always)]
fn put_bucketed(w: &mut BitWriter, entry: u32, v: u32) {
    let extra = entry >> 24;
    let code = u64::from(entry & 0xffff) << extra | u64::from(v & ((1 << extra) - 1));
    w.put(code, (entry >> 16 & 0xff) + extra);
}

/// What `METHOD_LZH` would write for one parse: both alphabets' code
/// lengths (literal/length, then offset), their write entries, and the
/// byte length of the bitstream.
struct LzhPlan {
    lens: [u8; LITLEN_SYMS + OFF_SYMS],
    ll: [u32; LITLEN_SYMS],
    off: [u32; OFF_SYMS],
    stream_bytes: usize,
}

fn plan_lzh(parse: &Parse) -> LzhPlan {
    let mut plan = LzhPlan {
        lens: [0; LITLEN_SYMS + OFF_SYMS],
        ll: [0; LITLEN_SYMS],
        off: [0; OFF_SYMS],
        stream_bytes: 0,
    };
    let (ll_lens, off_lens) = plan.lens.split_at_mut(LITLEN_SYMS);
    code_lengths(&parse.ll_freq, ll_lens);
    code_lengths(&parse.off_freq, off_lens);
    let bits = pack_codes(&parse.ll_freq, ll_lens, 256, LEN_DIRECT, &mut plan.ll)
        + pack_codes(&parse.off_freq, off_lens, 0, OFF_DIRECT, &mut plan.off);
    plan.stream_bytes = bits.div_ceil(8) as usize;
    plan
}

/// Serialise the token list under `METHOD_LZH`: nibble-packed code
/// lengths for both alphabets, then the Huffman bitstream.
fn encode_lzh(raw: &[u8], tokens: &[Token], plan: &LzhPlan, out: &mut Vec<u8>) {
    let nibbles = plan.lens.chunks(2);
    out.extend(nibbles.map(|n| n[0] | n.get(1).map_or(0, |&hi| hi << 4)));
    let (ll, off) = (&plan.ll, &plan.off);
    let mut w = BitWriter::with_capacity(out, plan.stream_bytes);
    let mut pos = 0usize;
    for t in tokens {
        for &b in &raw[pos..pos + t.lit_len as usize] {
            w.put(u64::from(ll[b as usize] & 0xffff), ll[b as usize] >> 16);
        }
        pos += t.lit_len as usize;
        if t.match_len > 0 {
            let len_entry = ll[256 + t.len_sym as usize];
            put_bucketed(&mut w, len_entry, t.match_len - MIN_MATCH as u32);
            put_bucketed(&mut w, off[t.off_sym as usize], t.dist - 1);
            pos += t.match_len as usize;
        }
    }
    w.finish();
}

/// Compress `raw`, returning the smaller of the stored and LZH
/// encodings — `(method, bytes)`, where [`METHOD_STORED`] hands `raw`
/// itself back. The LZH size follows from the token list and the code
/// lengths alone, so it is serialised only when it wins.
pub(crate) fn compress_best<'a>(raw: &'a [u8], s: &'a mut MatchScratch) -> (u8, &'a [u8]) {
    let parse = tokenize(raw, s);
    let plan = plan_lzh(&parse);
    let lzh_bytes = TABLE_BYTES + plan.stream_bytes;
    s.out.clear();
    // LZH only wins below `raw.len()` (plus the bit writer's word of
    // slack): sized once, for every block this long.
    s.out.reserve(raw.len() + 8);
    if lzh_bytes < raw.len() {
        encode_lzh(raw, &s.tokens, &plan, &mut s.out);
        debug_assert_eq!(s.out.len(), lzh_bytes);
        (METHOD_LZH, &s.out)
    } else {
        (METHOD_STORED, raw)
    }
}

// ---- decoders ---------------------------------------------------------

/// Copy `mlen` bytes from `dist` back to `dst[p..]`. Bounds are already
/// validated: `1 <= dist <= p` and `p + mlen <= dst.len()`.
#[inline]
fn copy_match(dst: &mut [u8], p: usize, dist: usize, mlen: usize) {
    let from = p - dist;
    if dist >= 16 && p + mlen.next_multiple_of(16) <= dst.len() {
        // The common case, short and far enough back: whole 16-byte
        // moves, the slop landing on bytes still to be written.
        for at in (0..mlen).step_by(16) {
            let chunk: [u8; 16] = dst[from + at..from + at + 16].try_into().expect("16 bytes");
            dst[p + at..p + at + 16].copy_from_slice(&chunk);
        }
    } else {
        // Near the block's end, or overlapping (run-length shape): the
        // bytes from `from` on repeat with period `dist`, so each pass
        // can copy all of what the previous ones laid down — one pass
        // when the match does not overlap itself, doubling otherwise.
        let mut done = 0usize;
        while done < mlen {
            let n = (dist + done).min(mlen - done);
            dst.copy_within(from..from + n, p + done);
            done += n;
        }
    }
}

/// Decode a `METHOD_LZH` block into exactly `dst`: every match stays
/// inside the block and inside `dst`, and the bitstream must consume
/// its final byte with zero padding.
fn decode_lzh(comp: &[u8], dst: &mut [u8]) -> Result<(), TraceError> {
    let tables = comp.get(..TABLE_BYTES).ok_or(TraceError::Truncated)?;
    let mut lens = [0u8; LITLEN_SYMS + OFF_SYMS];
    for (pair, &b) in lens.chunks_mut(2).zip(tables) {
        pair[0] = b & 0xf;
        if let Some(hi) = pair.get_mut(1) {
            *hi = b >> 4;
        }
    }
    let ll = Decoder::new(&lens[..LITLEN_SYMS])?;
    let off = Decoder::new(&lens[LITLEN_SYMS..])?;
    let mut r = BitReader::new(&comp[TABLE_BYTES..]);
    let mut p = 0usize;
    while p < dst.len() {
        let sym = u32::from(ll.read_symbol(&mut r)?);
        if sym < 256 {
            dst[p] = sym as u8;
            p += 1;
            continue;
        }
        let (b, eb) = geo_base(sym - 256, LEN_DIRECT);
        let mlen = MIN_MATCH + (b + r.get(eb)?) as usize;
        if mlen > dst.len() - p {
            return Err(TraceError::Corrupt("match length invalid for block"));
        }
        let (b, eb) = geo_base(u32::from(off.read_symbol(&mut r)?), OFF_DIRECT);
        let dist = 1 + (b + r.get(eb)?) as usize;
        if dist > p {
            return Err(TraceError::Corrupt("match offset outside block"));
        }
        copy_match(dst, p, dist, mlen);
        p += mlen;
    }
    r.finish()
}

/// Decompress one block of `method`, appending exactly `raw_len` bytes
/// to `out` (nothing on error). Match offsets are resolved within the
/// block — never before `out`'s length at entry — so blocks decode
/// independently. The caller has bounded `raw_len` by [`MAX_BLOCK`].
///
/// # Errors
/// [`TraceError::Truncated`] if `comp` ends mid-token, or
/// [`TraceError::Corrupt`] on any structural violation.
pub(crate) fn decompress_into(
    method: u8,
    comp: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), TraceError> {
    let base = out.len();
    out.resize(base + raw_len, 0);
    let dst = &mut out[base..];
    let decoded = match method {
        METHOD_STORED if comp.len() == raw_len => {
            dst.copy_from_slice(comp);
            Ok(())
        }
        METHOD_STORED => Err(TraceError::Corrupt("stored block length mismatch")),
        METHOD_LZH => decode_lzh(comp, dst),
        _ => Err(TraceError::Corrupt("unknown block method")),
    };
    if decoded.is_err() {
        out.truncate(base);
    }
    decoded
}

/// Bytes of a block header on disk.
pub(crate) const BLOCK_HEADER_LEN: usize = 17;

/// A block's header as both readers meet it: lengths already bounded,
/// so whatever they size is safe to allocate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockHeader {
    /// Uncompressed byte count.
    pub raw_len: usize,
    /// Stored byte count: what follows the header.
    pub comp_len: usize,
    pub method: u8,
    /// Checksum of the uncompressed bytes.
    pub sum: u64,
}

impl BlockHeader {
    /// Read a header at `*pos`, refusing lengths over [`MAX_BLOCK`]
    /// before anything is allocated on their say-so.
    ///
    /// # Errors
    /// [`TraceError::Truncated`] or [`TraceError::Corrupt`].
    pub(crate) fn parse(bytes: &[u8], pos: &mut usize) -> Result<BlockHeader, TraceError> {
        let raw_len = get_u32(bytes, pos)? as usize;
        let comp_len = get_u32(bytes, pos)? as usize;
        if raw_len > MAX_BLOCK || comp_len > MAX_BLOCK {
            return Err(TraceError::Corrupt("implausible block size"));
        }
        let &method = bytes.get(*pos).ok_or(TraceError::Truncated)?;
        *pos += 1;
        let sum = get_u64(bytes, pos)?;
        Ok(BlockHeader {
            raw_len,
            comp_len,
            method,
            sum,
        })
    }

    /// Decompress the block's `comp_len` stored bytes onto the end of
    /// `out` and verify the checksum over what they expanded to.
    ///
    /// # Errors
    /// As [`decompress_into`], or [`TraceError::ChecksumMismatch`].
    pub(crate) fn expand_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), TraceError> {
        let start = out.len();
        decompress_into(self.method, data, self.raw_len, out)?;
        let computed = checksum64(&out[start..]);
        if computed != self.sum {
            return Err(TraceError::ChecksumMismatch {
                stored: self.sum,
                computed,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `METHOD_LZH` serialisation of `raw`'s token list, whichever
    /// would win, checked against the size `compress_best` prices it at.
    fn lzh_serialisation(raw: &[u8]) -> Vec<u8> {
        let mut s = MatchScratch::default();
        let parse = tokenize(raw, &mut s);
        let plan = plan_lzh(&parse);
        let mut lzh = Vec::new();
        encode_lzh(raw, &s.tokens, &plan, &mut lzh);
        assert_eq!(
            lzh.len(),
            TABLE_BYTES + plan.stream_bytes,
            "METHOD_LZH size is mispriced"
        );
        lzh
    }

    /// Round-trip through `compress_best`, decoding with the method it
    /// picked — which must be the smaller — and also through the LZH
    /// serialisation of the same tokens.
    fn round_trip(raw: &[u8]) -> Vec<u8> {
        let lzh = lzh_serialisation(raw);
        let mut out = Vec::new();
        decompress_into(METHOD_LZH, &lzh, raw.len(), &mut out).expect("serialisation decodes");
        assert_eq!(out, raw, "METHOD_LZH disagrees with the tokens");
        let mut s = MatchScratch::default();
        let (method, comp) = compress_best(raw, &mut s);
        assert_eq!(comp.len(), raw.len().min(lzh.len()));
        let mut out = Vec::new();
        decompress_into(method, comp, raw.len(), &mut out).expect("chosen method decodes");
        out
    }

    #[test]
    fn empty_and_tiny_blocks_round_trip() {
        for raw in [&b""[..], b"a", b"abc", b"abcd"] {
            assert_eq!(round_trip(raw), raw);
        }
    }

    #[test]
    fn periodic_data_compresses_hard() {
        let unit = b"\x11\x02\x00\x42\x07\x01";
        let raw: Vec<u8> = unit.iter().cycle().take(8192).copied().collect();
        let mut s = MatchScratch::default();
        let (method, comp) = compress_best(&raw, &mut s);
        assert!(
            comp.len() * 10 < raw.len(),
            "periodic stream must shrink >10x, got {} -> {}",
            raw.len(),
            comp.len()
        );
        assert_ne!(method, METHOD_STORED, "periodic data must compress");
        let mut out = Vec::new();
        decompress_into(method, comp, raw.len(), &mut out).unwrap();
        assert_eq!(out, raw);
    }

    #[test]
    fn entropy_stage_beats_byte_alignment_on_skewed_literals() {
        // Text-like data with few distinct bytes and sparse repeats:
        // the Huffman stage must win over storing the bytes as they are.
        let mut x = 7u64;
        let raw: Vec<u8> = (0..16384)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                b"aaaabbcd"[(x >> 61) as usize]
            })
            .collect();
        let mut s = MatchScratch::default();
        let (method, comp) = compress_best(&raw, &mut s);
        assert_eq!(method, METHOD_LZH);
        let mut out = Vec::new();
        decompress_into(method, comp, raw.len(), &mut out).unwrap();
        assert_eq!(out, raw);
    }

    #[test]
    fn overlapping_matches_round_trip() {
        // Long single-byte run: match offset 1, length >> offset.
        let raw = vec![0xabu8; 1000];
        assert_eq!(round_trip(&raw), raw);
        // Period-2 and period-3 runs after a literal prefix.
        let mut raw = b"xy".repeat(300);
        raw.extend(b"abc".repeat(200));
        assert_eq!(round_trip(&raw), raw);
    }

    /// `n` bytes in which no 4-byte window repeats: big-endian u16
    /// counters starting at `from`.
    fn unique_bytes(from: u16, n: usize) -> Vec<u8> {
        (from..).flat_map(u16::to_be_bytes).take(n).collect()
    }

    #[test]
    fn all_literal_block_is_one_token() {
        let raw = unique_bytes(0, 4096);
        let mut s = MatchScratch::default();
        tokenize(&raw, &mut s);
        assert_eq!(s.tokens.len(), 1);
        assert_eq!((s.tokens[0].lit_len, s.tokens[0].match_len), (4096, 0));
        assert_eq!(round_trip(&raw), raw);
    }

    #[test]
    fn one_long_run_is_one_match() {
        for len in [BLOCK_TARGET, BLOCK_TARGET + 1] {
            let raw = vec![0x5au8; len];
            let mut s = MatchScratch::default();
            tokenize(&raw, &mut s);
            assert_eq!(s.tokens.len(), 1);
            let t = s.tokens[0];
            assert_eq!((t.lit_len, t.match_len as usize, t.dist), (1, len - 1, 1));
            let (_, comp) = compress_best(&raw, &mut s);
            assert!(
                comp.len() < TABLE_BYTES + 16,
                "a run must cost the code tables and a few bytes, got {}",
                comp.len()
            );
            assert_eq!(round_trip(&raw), raw);
        }
    }

    #[test]
    fn matches_at_the_search_cutoffs_round_trip() {
        // A repeat of exactly `len` bytes, fenced by bytes seen nowhere
        // else: the lengths either side of every threshold the search
        // branches on (lazy step, chain-walk cut-off, edge seeding).
        let source = unique_bytes(0, 512);
        for len in [
            MIN_MATCH,
            2 * SEED_EDGE,
            2 * SEED_EDGE + 1,
            LAZY_BELOW - 1,
            LAZY_BELOW,
            NICE_LEN - 1,
            NICE_LEN,
            NICE_LEN + 1,
        ] {
            for start in [100, 101] {
                let mut raw = source.clone();
                raw.extend(unique_bytes(0x4000, 6));
                raw.extend_from_slice(&source[start..start + len]);
                raw.extend(unique_bytes(0x5000, 6));
                let mut s = MatchScratch::default();
                tokenize(&raw, &mut s);
                let dist = source.len() + 6 - start;
                assert!(
                    s.tokens
                        .iter()
                        .any(|t| (t.match_len as usize, t.dist as usize) == (len, dist)),
                    "the {len}-byte repeat of {start} must be found whole"
                );
                assert_eq!(round_trip(&raw), raw, "len {len} start {start}");
            }
        }
    }

    #[test]
    fn periodic_block_one_byte_over_the_target_round_trips() {
        let raw: Vec<u8> = b"\x11\x02\x00\x42\x07\x01\x80\x33\x05"
            .iter()
            .cycle()
            .take(BLOCK_TARGET + 1)
            .copied()
            .collect();
        assert_eq!(round_trip(&raw), raw);
    }

    #[test]
    fn incompressible_data_survives() {
        // Deterministic pseudo-random bytes: no 4-byte repeats to speak
        // of, so mostly literals.
        let mut x = 0x1234_5678_9abc_def0u64;
        let raw: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        assert_eq!(round_trip(&raw), raw);
    }

    #[test]
    fn blocks_decode_independently_of_prior_output() {
        let raw: Vec<u8> = b"the quick brown fox ".repeat(16);
        let mut s = MatchScratch::default();
        let (method, comp) = compress_best(&raw, &mut s);
        // Appending after unrelated bytes must not let matches reach
        // back into them.
        assert_ne!(method, METHOD_STORED, "repetitive data must compress");
        let mut out = vec![0xff; 17];
        decompress_into(method, comp, raw.len(), &mut out).unwrap();
        assert_eq!(&out[17..], &raw[..]);
    }

    #[test]
    fn geo_buckets_are_exact_inverses() {
        for direct in [4u32, 8] {
            for v in (0..5000).chain([1 << 20, (1 << 29) - 1, 1 << 29, (1 << 30) - 4]) {
                let (base, eb) = geo_base(geo_sym(v, direct), direct);
                assert_eq!(
                    base & ((1 << eb) - 1),
                    0,
                    "extra bits overlap the base at v={v}"
                );
                assert_eq!(
                    base + (v & ((1 << eb) - 1)),
                    v,
                    "bucket round-trip failed at v={v}"
                );
            }
        }
    }

    /// The block decoders' damage contract: truncation is structurally
    /// detected, a decode that claims success produced exactly the
    /// length it promised, and no input panics. A flipped bit may
    /// legally decode — either to *different* raw bytes (the
    /// envelope's per-block checksum over the raw bytes rejects the
    /// block) or, for offset-equivalent encodings of periodic data, to
    /// the *identical* bytes (no corruption in effect). What can never
    /// happen is wrong bytes sneaking past the checksum.
    fn corruption_is_caught(raw: &[u8], comp: &[u8]) {
        let decode = |comp: &[u8], raw_len: usize, out: &mut Vec<u8>| {
            decompress_into(METHOD_LZH, comp, raw_len, out)
        };
        // Truncation anywhere.
        for cut in 0..comp.len() {
            let mut out = Vec::new();
            assert!(
                decode(&comp[..cut], raw.len(), &mut out).is_err(),
                "truncation at {cut} must be detected"
            );
        }
        // A mis-stated raw_len either errors or yields that stated
        // length — which the envelope checksum then rejects. (The
        // bitstream can decode trailing zero padding as the first
        // canonical code, so it may "succeed" at the wrong length.)
        for wrong in [raw.len() - 1, raw.len() + 1] {
            let mut out = Vec::new();
            if decode(comp, wrong, &mut out).is_ok() {
                assert_eq!(out.len(), wrong);
                assert_ne!(out, raw);
            }
        }
        // Every single-bit corruption: no panic, and a "successful"
        // decode honoured the length contract; the checksum disposes
        // of changed bytes, and identical bytes mean the flip hit an
        // encoding-equivalent representation.
        for at in 0..comp.len() {
            for bit in 0..8 {
                let mut bad = comp.to_vec();
                bad[at] ^= 1u8 << bit;
                let mut out = Vec::new();
                if decode(&bad, raw.len(), &mut out).is_ok() {
                    assert_eq!(out.len(), raw.len(), "flip at {at}.{bit} broke the length");
                }
            }
        }
    }

    #[test]
    fn corrupt_lzh_blocks_are_rejected_not_panicked() {
        let raw: Vec<u8> = b"abcdabcdabcdabcd____abcdabcdabcd"
            .iter()
            .cycle()
            .take(256)
            .copied()
            .collect();
        let comp = lzh_serialisation(&raw);
        assert!(comp.len() > TABLE_BYTES);
        corruption_is_caught(&raw, &comp);
    }
}
