//! Bit-level I/O and canonical, length-limited Huffman coding — the
//! entropy stage of [`METHOD_LZH`](crate::block) blocks.
//!
//! Codes are canonical (assigned in (length, symbol) order) and capped
//! at [`MAX_CODE_LEN`] bits, so a table is fully described by one code
//! length per symbol — 4 bits each on the wire. The decoder resolves
//! codes of up to [`PRIMARY_BITS`] bits with one lookup in a table it
//! builds per block (4 KiB, on the stack — a streaming reader's
//! per-block scratch stays constant) and walks the canonical
//! first-code/count arrays only for the rare longer codes. Nothing in
//! this module allocates: alphabets are at most [`MAX_SYMS`] symbols
//! and every working array is sized for that.
//!
//! Strictness: the writer pads the final byte with zero bits and the
//! reader's [`BitReader::finish`] verifies both that no whole byte is
//! left unread and that the padding bits are zero — so every bit of a
//! compressed block is either consumed meaningfully or
//! verified-as-padding, and a single-bit flip anywhere is never
//! silently ignored (content damage is additionally caught by the
//! envelope's per-block checksum over the raw bytes).

use crate::TraceError;

/// Longest admitted code. 15 bits keeps lengths in one nibble on the
/// wire and bounds the decoder's walk.
pub(crate) const MAX_CODE_LEN: usize = 15;

/// Largest alphabet the coder is sized for (the block format's
/// literal/length alphabet has 318 symbols).
pub(crate) const MAX_SYMS: usize = 320;

/// Widest code the decoder's lookup table resolves in one step.
const PRIMARY_BITS: u32 = 11;

/// MSB-first bit writer appending to a byte vector: bits collect
/// left-aligned in a 64-bit accumulator whose whole bytes are stored
/// after every `put`.
pub(crate) struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Next byte of `out` to write; bytes past it are scratch.
    pos: usize,
    acc: u64,
    /// Pending bits in `acc`, always below 8 between calls.
    n: u32,
}

impl<'a> BitWriter<'a> {
    /// A writer appending at most `bytes` bytes to `out`.
    pub(crate) fn with_capacity(out: &'a mut Vec<u8>, bytes: usize) -> Self {
        let pos = out.len();
        // Every `put` stores a whole word at `pos`.
        out.resize(pos + bytes + 8, 0);
        Self {
            out,
            pos,
            acc: 0,
            n: 0,
        }
    }

    /// Append the low `len` bits of `bits`, most significant first
    /// (`1 <= len <= 56`, so a code and its extra bits go in one call).
    #[inline]
    pub(crate) fn put(&mut self, bits: u64, len: u32) {
        debug_assert!((1..=56).contains(&len) && bits >> len == 0);
        self.acc |= bits << (64 - self.n - len);
        self.n += len;
        self.out[self.pos..self.pos + 8].copy_from_slice(&self.acc.to_be_bytes());
        let whole = self.n / 8;
        self.pos += whole as usize;
        self.acc <<= 8 * whole;
        self.n %= 8;
    }

    /// Flush, padding the final byte with zero bits.
    pub(crate) fn finish(self) {
        // The last `put` already stored the partial byte, zero-padded.
        self.out.truncate(self.pos + usize::from(self.n > 0));
    }
}

/// MSB-first bit reader over a byte slice, refilled eight bytes at a
/// time: unread bits sit left-aligned in `acc`, of which the top `n`
/// are counted as available. (Bits below those may already hold part
/// of the next byte — the refill ORs whole words in, and ORs the same
/// bits again when that byte is counted.)
pub(crate) struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    n: u32,
}

impl<'a> BitReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            n: 0,
        }
    }

    /// Top up to at least 56 available bits, or to everything left.
    #[inline(always)]
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            let word = u64::from_be_bytes(word.try_into().expect("8 bytes"));
            self.acc |= word >> self.n;
            self.pos += ((63 - self.n) / 8) as usize;
            self.n |= 56;
        } else {
            while self.n < 56 && self.pos < self.data.len() {
                self.acc |= u64::from(self.data[self.pos]) << (56 - self.n);
                self.pos += 1;
                self.n += 8;
            }
        }
    }

    #[inline(always)]
    fn consume(&mut self, len: u32) {
        self.acc <<= len;
        self.n -= len;
    }

    /// Read `len` bits (MSB first).
    ///
    /// # Errors
    /// [`TraceError::Truncated`] past the end of the slice.
    #[inline]
    pub(crate) fn get(&mut self, len: u32) -> Result<u32, TraceError> {
        debug_assert!(len <= 28);
        if len > self.n {
            self.refill();
            if len > self.n {
                return Err(TraceError::Truncated);
            }
        }
        // Two shifts, so that `len == 0` reads as 0 without a branch.
        let v = ((self.acc >> 1) >> (63 - len)) as u32;
        self.consume(len);
        Ok(v)
    }

    /// Verify the stream is fully consumed: no whole byte unread, and
    /// the final byte's padding bits are zero.
    ///
    /// # Errors
    /// [`TraceError::Corrupt`] otherwise.
    pub(crate) fn finish(self) -> Result<(), TraceError> {
        let unread = self.n as usize + 8 * (self.data.len() - self.pos);
        if unread >= 8 {
            return Err(TraceError::Corrupt("trailing bytes in compressed block"));
        }
        // Fewer than 8 bits left means every byte is counted, so `acc`
        // holds exactly the writer's padding.
        if self.acc != 0 {
            return Err(TraceError::Corrupt("nonzero padding in compressed block"));
        }
        Ok(())
    }
}

/// Compute length-limited canonical code lengths (0 = symbol unused)
/// from frequencies into `lens`: ordinary Huffman depths, clamped to
/// [`MAX_CODE_LEN`] and re-balanced until the Kraft sum is *exactly*
/// complete. Completeness is load-bearing, not cosmetic: the decoder
/// rejects non-empty tables whose Kraft sum is not exactly
/// `2^MAX_CODE_LEN`, which is what lets a single corrupted table
/// nibble — even one belonging to an unused symbol — always be
/// detected. A single-symbol alphabet is completed with a
/// never-emitted sibling code.
pub(crate) fn code_lengths(freq: &[u32], lens: &mut [u8]) {
    assert!(freq.len() <= MAX_SYMS && lens.len() == freq.len());
    lens.fill(0);
    let mut used_buf = [0u16; MAX_SYMS];
    let mut n_used = 0usize;
    for (i, &f) in freq.iter().enumerate() {
        if f > 0 {
            used_buf[n_used] = i as u16;
            n_used += 1;
        }
    }
    let used = &used_buf[..n_used];
    match *used {
        [] => return,
        [sym] => {
            lens[sym as usize] = 1;
            lens[usize::from(sym == 0)] = 1;
            return;
        }
        _ => {}
    }
    let freq_of = |sym: u16| freq[sym as usize];

    // Two-queue Huffman over leaves sorted by frequency: O(n log n) in
    // the sort, O(n) in the merge. `nodes` holds (weight, parent).
    // (Keys are unique, so the allocation-free unstable sort is exact.)
    let mut order_buf = used_buf;
    let order = &mut order_buf[..n_used];
    order.sort_unstable_by_key(|&i| (freq_of(i), i));
    let mut nodes = [(0u64, 0u16); 2 * MAX_SYMS];
    for (node, &sym) in nodes.iter_mut().zip(order.iter()) {
        node.0 = u64::from(freq_of(sym));
    }
    let n_nodes = 2 * n_used - 1;
    let mut leaf = 0usize; // next unmerged leaf
    let mut inner = n_used; // next unmerged internal node
    for parent in n_used..n_nodes {
        let mut take = || {
            let pick_leaf = leaf < n_used && (inner >= parent || nodes[leaf].0 <= nodes[inner].0);
            let slot = if pick_leaf { &mut leaf } else { &mut inner };
            *slot += 1;
            *slot - 1
        };
        let (a, b) = (take(), take());
        nodes[parent].0 = nodes[a].0 + nodes[b].0;
        nodes[a].1 = parent as u16;
        nodes[b].1 = parent as u16;
    }

    // Depths by walking parent chains root-down (parents always have
    // higher indices, so a reverse sweep suffices).
    let mut depth = [0u16; 2 * MAX_SYMS];
    for i in (0..n_nodes - 1).rev() {
        depth[i] = depth[nodes[i].1 as usize] + 1;
    }
    for (slot, &sym) in order.iter().enumerate() {
        lens[sym as usize] = depth[slot].min(MAX_CODE_LEN as u16) as u8;
    }

    // Kraft fix-up after clamping, in units of 2^-MAX_CODE_LEN: first
    // deepen until the sum fits, then promote max-length codes one
    // unit at a time until it is exactly complete. An unclamped
    // Huffman tree is complete already, so both loops are no-ops in
    // the common case.
    let capacity = 1u64 << MAX_CODE_LEN;
    let len_of = |lens: &[u8], sym: u16| lens[sym as usize] as usize;
    let mut k: u64 = used
        .iter()
        .map(|&i| 1u64 << (MAX_CODE_LEN - len_of(lens, i)))
        .sum();
    while k > capacity {
        // Deepen the deepest symbol shorter than the cap. One always
        // exists: an alphabet pinned entirely at the cap would need
        // more than 2^MAX_CODE_LEN symbols to over-subscribe.
        let &sym = used
            .iter()
            .filter(|&&i| len_of(lens, i) < MAX_CODE_LEN)
            .max_by_key(|&&i| len_of(lens, i))
            .expect("cap-pinned alphabet cannot over-subscribe");
        k -= 1u64 << (MAX_CODE_LEN - 1 - len_of(lens, sym));
        lens[sym as usize] += 1;
    }
    while k < capacity {
        // Promote (shorten) the deepest symbol whose gain still fits.
        let Some(&sym) = used
            .iter()
            .filter(|&&i| {
                let l = len_of(lens, i);
                l > 1
                    && (1u64 << (MAX_CODE_LEN + 1 - l)) - (1u64 << (MAX_CODE_LEN - l))
                        <= capacity - k
            })
            .max_by_key(|&&i| len_of(lens, i))
        else {
            // No exact promotion sequence from here: fall back to the
            // trivially complete near-flat code (k at L-1 bits, the
            // rest at L). Suboptimal by a few bytes, never invalid.
            let bits = 32 - (n_used as u32 - 1).leading_zeros(); // ceil(log2 n), n >= 2
            let short = (1usize << bits) - n_used;
            order.sort_unstable_by_key(|&i| (std::cmp::Reverse(freq_of(i)), i));
            for (slot, &sym) in order.iter().enumerate() {
                lens[sym as usize] = (bits - u32::from(slot < short)) as u8;
            }
            return;
        };
        k += 1u64 << (MAX_CODE_LEN - len_of(lens, sym));
        lens[sym as usize] -= 1;
    }
}

/// First canonical code of each length, from per-length symbol counts.
fn first_codes(count: &[u32; MAX_CODE_LEN + 1]) -> [u32; MAX_CODE_LEN + 1] {
    let mut first = [0u32; MAX_CODE_LEN + 1];
    let mut code = 0u32;
    for bits in 1..=MAX_CODE_LEN {
        first[bits] = code;
        code = (code + count[bits]) << 1;
    }
    first
}

/// Canonical codes for writing: `codes[sym]` is valid for `lens[sym]`
/// bits (MSB first), assigned in (length, symbol) order.
pub(crate) fn build_codes(lens: &[u8], codes: &mut [u16]) {
    let mut count = [0u32; MAX_CODE_LEN + 1];
    for &l in lens {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next = first_codes(&count);
    for (code, &l) in codes.iter_mut().zip(lens) {
        if l > 0 {
            *code = next[l as usize] as u16;
            next[l as usize] += 1;
        }
    }
}

/// Canonical decoder: a primary lookup table for codes of up to
/// [`PRIMARY_BITS`] bits, plus per-length first-code/count arrays and
/// the symbol list in canonical order for the longer ones.
pub(crate) struct Decoder {
    /// Indexed by the next `primary_bits` bits of input: `sym << 4 |
    /// len` for the code those bits start with, 0 where it is longer
    /// than the index (or the table is empty).
    table: [u16; 1 << PRIMARY_BITS],
    primary_bits: u32,
    count: [u32; MAX_CODE_LEN + 1],
    first: [u32; MAX_CODE_LEN + 1],
    offset: [u32; MAX_CODE_LEN + 1],
    syms: [u16; MAX_SYMS],
}

impl Decoder {
    /// Build from per-symbol code lengths. The table must be either
    /// empty (every length zero — an alphabet the block never uses) or
    /// *exactly* complete in the Kraft sense, which the encoder
    /// guarantees. Exactness is what makes any single corrupted table
    /// nibble detectable: a change to any length, used symbol or not,
    /// breaks the sum.
    ///
    /// # Errors
    /// [`TraceError::Corrupt`] on an over-subscribed or non-empty
    /// incomplete table.
    pub(crate) fn new(lens: &[u8]) -> Result<Self, TraceError> {
        assert!(lens.len() <= MAX_SYMS);
        let mut count = [0u32; MAX_CODE_LEN + 1];
        for &l in lens {
            if l as usize > MAX_CODE_LEN {
                return Err(TraceError::Corrupt("huffman code length out of range"));
            }
            count[l as usize] += 1;
        }
        count[0] = 0;
        let kraft: u64 = count
            .iter()
            .enumerate()
            .skip(1)
            .map(|(bits, &c)| u64::from(c) << (MAX_CODE_LEN - bits))
            .sum();
        if kraft != 0 && kraft != 1u64 << MAX_CODE_LEN {
            return Err(TraceError::Corrupt("huffman table is not exactly complete"));
        }
        let first = first_codes(&count);
        let mut offset = [0u32; MAX_CODE_LEN + 1];
        for bits in 1..MAX_CODE_LEN {
            offset[bits + 1] = offset[bits] + count[bits];
        }
        let longest = count.iter().rposition(|&c| c != 0).unwrap_or(0) as u32;
        let primary_bits = longest.clamp(1, PRIMARY_BITS);
        let mut table = [0u16; 1 << PRIMARY_BITS];
        let mut syms = [0u16; MAX_SYMS];
        let mut next = [0u32; MAX_CODE_LEN + 1];
        for (sym, &l) in lens.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let rank = next[l as usize];
            next[l as usize] += 1;
            syms[(offset[l as usize] + rank) as usize] = sym as u16;
            if u32::from(l) <= primary_bits {
                let span = 1usize << (primary_bits - u32::from(l));
                let at = ((first[l as usize] + rank) as usize) * span;
                table[at..at + span].fill((sym as u16) << 4 | u16::from(l));
            }
        }
        Ok(Self {
            table,
            primary_bits,
            count,
            first,
            offset,
            syms,
        })
    }

    /// Decode one symbol.
    ///
    /// # Errors
    /// [`TraceError::Corrupt`] on a bit pattern no code covers,
    /// [`TraceError::Truncated`] past the end of input.
    #[inline]
    pub(crate) fn read_symbol(&self, r: &mut BitReader) -> Result<u16, TraceError> {
        r.refill();
        let entry = self.table[(r.acc >> (64 - self.primary_bits)) as usize];
        let len = u32::from(entry & 0xf);
        if len != 0 && len <= r.n {
            r.consume(len);
            return Ok(entry >> 4);
        }
        self.read_long_symbol(r, len)
    }

    /// The canonical walk, for what the table does not settle: a code
    /// longer than its index, an empty table, or input that ends
    /// inside the code (`short_len` is that code's length, else 0).
    #[cold]
    fn read_long_symbol(&self, r: &mut BitReader, short_len: u32) -> Result<u16, TraceError> {
        if short_len != 0 {
            // No shorter code matches either: codes are prefix-free.
            return Err(TraceError::Truncated);
        }
        for bits in self.primary_bits + 1..=MAX_CODE_LEN as u32 {
            if bits > r.n {
                return Err(TraceError::Truncated);
            }
            let rank = ((r.acc >> (64 - bits)) as u32).wrapping_sub(self.first[bits as usize]);
            if rank < self.count[bits as usize] {
                r.consume(bits);
                return Ok(self.syms[(self.offset[bits as usize] + rank) as usize]);
            }
        }
        Err(TraceError::Corrupt("invalid huffman code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference decoder the table-driven one is tested against —
    /// the canonical walk one bit at a time from the first bit, as
    /// `read_symbol` was before it had a lookup table.
    fn read_symbol_oracle(dec: &Decoder, r: &mut BitReader) -> Result<u16, TraceError> {
        let mut code = 0u32;
        for bits in 1..=MAX_CODE_LEN {
            code = (code << 1) | r.get(1)?;
            let c = dec.count[bits];
            if c != 0 && code.wrapping_sub(dec.first[bits]) < c {
                let at = dec.offset[bits] + (code - dec.first[bits]);
                return Ok(dec.syms[at as usize]);
            }
        }
        Err(TraceError::Corrupt("invalid huffman code"))
    }

    /// Bits `r` has consumed so far.
    fn bits_read(r: &BitReader) -> usize {
        8 * r.pos - r.n as usize
    }

    fn lengths_of(freq: &[u32]) -> Vec<u8> {
        let mut lens = vec![0xff; freq.len()];
        code_lengths(freq, &mut lens);
        lens
    }

    fn write_symbols(lens: &[u8], stream: &[u16]) -> Vec<u8> {
        let mut codes = vec![0u16; lens.len()];
        build_codes(lens, &mut codes);
        let mut bytes = Vec::new();
        let mut w = BitWriter::with_capacity(&mut bytes, 2 * stream.len());
        for &s in stream {
            assert!(lens[s as usize] > 0, "symbol {s} must have a code");
            w.put(u64::from(codes[s as usize]), u32::from(lens[s as usize]));
        }
        w.finish();
        bytes
    }

    fn round_trip_symbols(freq: &[u32], stream: &[u16]) {
        let lens = lengths_of(freq);
        let bytes = write_symbols(&lens, stream);
        let dec = Decoder::new(&lens).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in stream {
            assert_eq!(dec.read_symbol(&mut r).unwrap(), s);
        }
        r.finish().unwrap();
    }

    #[test]
    fn bit_io_round_trips() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::with_capacity(&mut bytes, 16);
        let vals = [
            (0b1u32, 1),
            (0b1011, 4),
            (0x3fff, 14),
            (0, 3),
            (0xabcdef, 28),
        ];
        for (v, l) in vals {
            w.put(u64::from(v), l);
        }
        w.finish();
        let mut r = BitReader::new(&bytes);
        for (v, l) in vals {
            assert_eq!(r.get(l).unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn nonzero_padding_is_rejected() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::with_capacity(&mut bytes, 16);
        w.put(0b101, 3);
        w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(3).unwrap(), 0b101);
        r.finish().unwrap();
        // Same stream with a flipped padding bit must not verify.
        let mut bad = Vec::new();
        let mut w = BitWriter::with_capacity(&mut bad, 16);
        w.put(0b101, 3);
        w.finish();
        bad[0] ^= 1;
        let mut r = BitReader::new(&bad);
        assert_eq!(r.get(3).unwrap(), 0b101);
        assert!(r.finish().is_err());
    }

    #[test]
    fn skewed_and_uniform_alphabets_round_trip() {
        // Heavily skewed: symbol 0 dominates.
        let mut freq = vec![0u32; 300];
        freq[0] = 1_000_000;
        freq[1] = 3;
        freq[7] = 1;
        freq[299] = 40;
        let lens = lengths_of(&freq);
        assert!(lens[0] >= 1 && lens[0] <= 2, "dominant symbol stays short");
        round_trip_symbols(&freq, &[0, 0, 1, 299, 0, 7, 299, 0]);

        // Uniform 256-symbol alphabet: all codes length 8.
        let freq = vec![1u32; 256];
        let lens = lengths_of(&freq);
        assert!(lens.iter().all(|&l| l == 8));
        let stream: Vec<u16> = (0..256).collect();
        round_trip_symbols(&freq, &stream);
    }

    #[test]
    fn single_symbol_alphabet_is_completed_with_a_sibling() {
        let mut freq = vec![0u32; 64];
        freq[17] = 9;
        let lens = lengths_of(&freq);
        assert_eq!(lens[17], 1);
        assert_eq!(lens[0], 1, "never-emitted sibling completes the code");
        round_trip_symbols(&freq, &[17, 17, 17]);
    }

    #[test]
    fn deep_trees_are_length_limited() {
        // Fibonacci-ish frequencies force maximal Huffman depth; the
        // limiter must cap every code at MAX_CODE_LEN with a valid
        // Kraft sum.
        let mut freq = vec![0u32; 40];
        let (mut a, mut b) = (1u32, 1u32);
        for f in freq.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let lens = lengths_of(&freq);
        assert!(lens.iter().all(|&l| (l as usize) <= MAX_CODE_LEN));
        let kraft: u64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_CODE_LEN - l as usize))
            .sum();
        assert_eq!(kraft, 1 << MAX_CODE_LEN, "limited code must stay complete");
        Decoder::new(&lens).unwrap();
        let stream: Vec<u16> = (0..40).collect();
        round_trip_symbols(&freq, &stream);
    }

    #[test]
    fn invalid_tables_are_rejected() {
        // Three codes of length 1 over-subscribe.
        assert!(Decoder::new(&[1u8, 1, 1]).is_err());
        // A lone length-2 code is incomplete.
        assert!(Decoder::new(&[0u8, 2, 0]).is_err());
        // A single length-1 code is incomplete too (the encoder always
        // pairs it with a sibling).
        assert!(Decoder::new(&[1u8, 0, 0]).is_err());
        // Empty tables are fine (an alphabet the block never uses).
        assert!(Decoder::new(&[0u8, 0, 0]).is_ok());
    }
    /// Raw bits the differential streams carry after each symbol, the
    /// way a block's bucketed symbols carry extra bits.
    fn extra_bits(sym: u16) -> u32 {
        u32::from(sym % 4) * 7
    }

    /// Decode `n` symbols (each followed by its raw extra bits) and
    /// `finish`, through the table-driven decoder or the bit-at-a-time
    /// oracle: every symbol with the bit position it ended at, or the
    /// first error.
    fn decode_all(
        dec: &Decoder,
        bytes: &[u8],
        n: usize,
        oracle: bool,
    ) -> Result<Vec<(u16, u32, usize)>, TraceError> {
        let mut r = BitReader::new(bytes);
        let mut seen = Vec::with_capacity(n);
        for _ in 0..n {
            let sym = if oracle {
                read_symbol_oracle(dec, &mut r)?
            } else {
                dec.read_symbol(&mut r)?
            };
            let extra = r.get(extra_bits(sym))?;
            seen.push((sym, extra, bits_read(&r)));
        }
        r.finish()?;
        Ok(seen)
    }

    /// The table-driven decoder and the oracle agree on `stream` under
    /// `lens` — symbols, bits consumed, and the verdict — and on every
    /// truncation and every single-bit flip of its encoding.
    fn assert_decoders_agree(lens: &[u8], stream: &[u16]) {
        let mut codes = vec![0u16; lens.len()];
        build_codes(lens, &mut codes);
        let mut bytes = Vec::new();
        let mut w = BitWriter::with_capacity(&mut bytes, 6 * stream.len());
        for (i, &s) in stream.iter().enumerate() {
            w.put(u64::from(codes[s as usize]), u32::from(lens[s as usize]));
            let eb = extra_bits(s);
            if eb > 0 {
                w.put((i as u64).wrapping_mul(0x9e37_79b9) & ((1 << eb) - 1), eb);
            }
        }
        w.finish();
        let dec = Decoder::new(lens).expect("encoder tables are complete");
        let clean = decode_all(&dec, &bytes, stream.len(), false).expect("clean stream decodes");
        assert!(clean.iter().map(|&(s, _, _)| s).eq(stream.iter().copied()));
        let agree = |bytes: &[u8], what: &dyn Fn() -> String| {
            let fast = decode_all(&dec, bytes, stream.len(), false);
            let slow = decode_all(&dec, bytes, stream.len(), true);
            assert_eq!(fast, slow, "decoders diverge on {}", what());
        };
        agree(&bytes, &|| "the clean stream".into());
        for cut in 0..bytes.len() {
            agree(&bytes[..cut], &|| format!("truncation at {cut}"));
        }
        let mut bad = bytes.clone();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                bad[at] ^= 1 << bit;
                agree(&bad, &|| format!("flip at {at}.{bit}"));
                bad[at] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn empty_table_fails_the_same_way_in_both_decoders() {
        let dec = Decoder::new(&[0u8; 60]).unwrap();
        for len in 0..4 {
            let bytes = vec![0xa5u8; len];
            let fast = dec.read_symbol(&mut BitReader::new(&bytes));
            let slow = read_symbol_oracle(&dec, &mut BitReader::new(&bytes));
            assert_eq!(fast, slow, "{len} bytes of input");
            assert!(fast.is_err());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Drawn frequency tables — sparse random, one symbol only,
        // Fibonacci-deep (so the length limiter and codes past the
        // primary table's width are in play), near-uniform over the
        // whole alphabet — and drawn symbol streams over them.
        #[test]
        fn table_decoder_matches_the_bit_walk(
            seed: u64,
            shape in 0usize..4,
            n_syms in 2usize..=MAX_SYMS,
            len in 0usize..48,
        ) {
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u32
            };
            let mut freq = vec![0u32; n_syms];
            match shape {
                0 => {
                    for f in &mut freq {
                        if next() % 3 == 0 {
                            *f = 1 + next() % (1 << (next() % 20));
                        }
                    }
                    freq[next() as usize % n_syms] += 1;
                }
                1 => freq[next() as usize % n_syms] = 1 + next() % 1000,
                2 => {
                    let (mut a, mut b) = (1u32, 1u32);
                    for f in freq.iter_mut().take(45) {
                        *f = a;
                        (a, b) = (b, a.saturating_add(b));
                    }
                }
                _ => {
                    for f in &mut freq {
                        *f = 100 + next() % 3;
                    }
                }
            }
            let lens = lengths_of(&freq);
            prop_assert!(lens.iter().all(|&l| l as usize <= MAX_CODE_LEN));
            let used: Vec<u16> = (0..n_syms as u16).filter(|&s| freq[s as usize] > 0).collect();
            let stream: Vec<u16> = (0..len).map(|_| used[next() as usize % used.len()]).collect();
            assert_decoders_agree(&lens, &stream);
            // Every coded symbol once, so the longest codes are decoded
            // whatever the draw.
            assert_decoders_agree(&lens, &used);
        }
    }
}
