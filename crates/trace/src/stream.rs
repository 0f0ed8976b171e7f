//! Per-core event streams: the encoder behind the recording observer
//! and the decode cursor replay feeds from — one [`WindowCursor`] over
//! whatever [`Window`] holds the bytes, a whole in-memory payload or
//! the block-at-a-time window over a trace file.
//!
//! ## Event grammar
//!
//! Each retired event is one tag byte followed by varint fields (see
//! DESIGN.md §6 for the rationale):
//!
//! ```text
//! tag      u8   bits 0-2: kind code (Alu, Load, Store, Prefetch,
//!               Branch, Call, Ret, Alloc)
//!               bit 3: kind flag — Branch `taken` / Prefetch `valid` /
//!                      for Load and Store, "explicit access size
//!                      follows" (absent: the last size of that kind
//!                      repeats — almost always, loops touch one width)
//!               bit 4: MORE — another event follows within the same
//!                      interpreter step (phi copies retire with their
//!                      branch; multicore replay schedules by steps)
//!               bit 5: FRAME — a frame delta follows
//!               bit 6: OPS — the operand list is encoded inline and
//!                      defines the next operand-dictionary slot
//!               bit 7: RESULT — an explicit result id follows (absent:
//!                      the result is the low 32 bits of the pc, the
//!                      engine's invariant)
//! pc       zigzag varint, delta vs. the previous event's pc
//! [frame]  zigzag varint, delta vs. the previous frame id   (FRAME)
//! [result] varint u32                                       (RESULT)
//! Load/Store: addr zigzag varint (delta vs. the last address of the
//!             same kind), then size varint u32 iff the kind flag is set
//! Prefetch:   addr zigzag varint (delta vs. the last prefetch address)
//! [ops]    count varint + one varint u32 per operand id     (OPS)
//!          absent: zigzag varint referencing an existing dictionary
//!          slot, biased so sequential reuse encodes as zero
//! ```
//!
//! Operand lists are static per instruction (phis aside, whose chosen
//! incoming varies by CFG edge), so the stream carries each list once
//! and back-references it afterwards: the first occurrence is inlined
//! and appended to a dictionary both sides grow in lockstep; later
//! occurrences cost one (usually zero-valued) byte.

use crate::wire::{get_delta, get_varint, put_varint};
use crate::TraceError;
use std::collections::HashMap;
use swpf_ir::interp::{Event, EventKind, ExecObserver};
use swpf_ir::ValueId;

/// Functions covered by the dense pc map; engine pcs index far below.
const DENSE_FUNCS: usize = 256;
/// Values per function covered by the dense pc map.
const DENSE_VALUES: usize = 1 << 16;

/// pc → operand-dictionary slot. Interpreter pcs are `(func << 32) | value`
/// with small indices, so lookups — one per encoded event — are dense
/// two-level array reads in the common case; arbitrary pcs (the codec
/// stays general for hand-built events) fall back to a hash map.
#[derive(Debug, Default)]
struct PcMap {
    /// `dense[func][value]` holds the slot, `u32::MAX` meaning absent.
    dense: Vec<Vec<u32>>,
    spill: HashMap<u64, u32>,
}

impl PcMap {
    #[inline(always)]
    fn split(pc: u64) -> (usize, usize) {
        ((pc >> 32) as usize, (pc & 0xffff_ffff) as usize)
    }

    #[inline(always)]
    fn get(&self, pc: u64) -> Option<u32> {
        let (f, v) = Self::split(pc);
        if f < DENSE_FUNCS && v < DENSE_VALUES {
            match self.dense.get(f).and_then(|d| d.get(v)) {
                Some(&slot) if slot != u32::MAX => Some(slot),
                _ => None,
            }
        } else {
            self.spill.get(&pc).copied()
        }
    }

    fn set(&mut self, pc: u64, slot: u32) {
        debug_assert_ne!(slot, u32::MAX, "slot sentinel");
        let (f, v) = Self::split(pc);
        if f < DENSE_FUNCS && v < DENSE_VALUES {
            if self.dense.len() <= f {
                self.dense.resize_with(f + 1, Vec::new);
            }
            let d = &mut self.dense[f];
            if d.len() <= v {
                d.resize(v + 1, u32::MAX);
            }
            d[v] = slot;
        } else {
            self.spill.insert(pc, slot);
        }
    }
}

const KIND_ALU: u8 = 0;
const KIND_LOAD: u8 = 1;
const KIND_STORE: u8 = 2;
const KIND_PREFETCH: u8 = 3;
const KIND_BRANCH: u8 = 4;
const KIND_CALL: u8 = 5;
const KIND_RET: u8 = 6;
const KIND_ALLOC: u8 = 7;

/// The memory kinds' codes as indices into [`DeltaState`]'s arrays.
const LOAD: usize = KIND_LOAD as usize;
const STORE: usize = KIND_STORE as usize;
const PREFETCH: usize = KIND_PREFETCH as usize;

const TAG_KIND: u8 = 0b0000_0111;
const TAG_FLAG: u8 = 0b0000_1000;
const TAG_MORE: u8 = 0b0001_0000;
const TAG_FRAME: u8 = 0b0010_0000;
const TAG_OPS: u8 = 0b0100_0000;
const TAG_RESULT: u8 = 0b1000_0000;

/// Mirrored per-stream delta state (the encoder and the cursor advance
/// identical copies of this).
#[derive(Debug, Default, Clone, PartialEq)]
struct DeltaState {
    last_pc: u64,
    last_frame: u64,
    /// Last address and access size per memory kind, indexed by kind
    /// code (entry 0 unused; prefetches carry no size). Size 0 (no real
    /// access has it) forces a stream's first load/store to carry its
    /// size explicitly.
    last_addr: [u64; 4],
    last_size: [u32; 4],
    /// Last operand-dictionary slot used; `u32::MAX` so the bias
    /// `last + 1` starts at slot 0.
    last_slot: u32,
}

impl DeltaState {
    fn new() -> Self {
        DeltaState {
            last_slot: u32::MAX,
            ..DeltaState::default()
        }
    }
}

/// Append an LEB128 varint to the per-event stack buffer.
#[inline(always)]
fn buf_varint(tmp: &mut [u8; 64], n: &mut usize, mut v: u64) {
    while v >= 0x80 {
        tmp[*n] = (v as u8) | 0x80;
        *n += 1;
        v >>= 7;
    }
    tmp[*n] = v as u8;
    *n += 1;
}

/// Append a zigzag-encoded signed delta to the per-event stack buffer.
#[inline(always)]
fn buf_delta(tmp: &mut [u8; 64], n: &mut usize, d: i64) {
    buf_varint(tmp, n, crate::wire::zigzag(d));
}

/// Encodes one core's retire-event stream. Implements [`ExecObserver`],
/// so it can sit directly on the engine or stack on a timing observer
/// through [`crate::Tee`].
///
/// [`StreamEncoder::end_step`] after every interpreter step records the
/// step boundaries — multicore replay interleaves cores at step
/// granularity, exactly like direct multicore simulation. The stepping
/// entry points of `Interp` deliver it through
/// [`ExecObserver::end_step`]; only hand-pushed events need the call.
#[derive(Debug)]
pub struct StreamEncoder {
    payload: Vec<u8>,
    events: u64,
    /// Offset of the previous event's tag within the current step, for
    /// retrofitting the MORE bit when a follower arrives.
    step_tag_at: Option<usize>,
    st: DeltaState,
    /// Operand-dictionary lookup: pc of the defining instruction → slot.
    dict: PcMap,
    /// Slot → range into `pool`.
    lists: Vec<(u32, u32)>,
    pool: Vec<ValueId>,
}

impl Default for StreamEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamEncoder {
    /// An empty stream.
    #[must_use]
    pub fn new() -> Self {
        StreamEncoder {
            payload: Vec::new(),
            events: 0,
            step_tag_at: None,
            st: DeltaState::new(),
            dict: PcMap::default(),
            lists: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Events encoded so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Encoded payload size in bytes so far.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Append one event.
    ///
    /// Sits on the record path's per-event hot path, so the whole
    /// fixed-size part of the record is assembled in a stack buffer and
    /// lands in the payload with a single `extend_from_slice`; only the
    /// rare inline operand list writes to the payload directly.
    pub fn push(&mut self, ev: &Event<'_>) {
        // The previous event of this step now has a follower.
        if let Some(at) = self.step_tag_at {
            self.payload[at] |= TAG_MORE;
        }

        let (code, flag) = match ev.kind {
            EventKind::Alu => (KIND_ALU, false),
            EventKind::Load { size, .. } => (KIND_LOAD, size != self.st.last_size[LOAD]),
            EventKind::Store { size, .. } => (KIND_STORE, size != self.st.last_size[STORE]),
            EventKind::Prefetch { valid, .. } => (KIND_PREFETCH, valid),
            EventKind::Branch { taken } => (KIND_BRANCH, taken),
            EventKind::Call => (KIND_CALL, false),
            EventKind::Ret => (KIND_RET, false),
            EventKind::Alloc => (KIND_ALLOC, false),
        };
        let frame_delta = ev.frame.wrapping_sub(self.st.last_frame) as i64;
        let result_explicit = u64::from(ev.result.0) != ev.pc & 0xffff_ffff;
        let existing_slot = self.dict.get(ev.pc).filter(|&slot| {
            let (at, len) = self.lists[slot as usize];
            self.pool[at as usize..(at + len) as usize] == *ev.operands
        });

        let mut tag = code;
        if flag {
            tag |= TAG_FLAG;
        }
        if frame_delta != 0 {
            tag |= TAG_FRAME;
        }
        if result_explicit {
            tag |= TAG_RESULT;
        }
        if existing_slot.is_none() {
            tag |= TAG_OPS;
        }

        // Worst case fits easily: tag 1 + pc 10 + frame 10 + result 5
        // + addr 10 + size 5 + slot backreference 10 = 51 bytes.
        let mut tmp = [0u8; 64];
        tmp[0] = tag;
        let mut n = 1usize;
        buf_delta(&mut tmp, &mut n, ev.pc.wrapping_sub(self.st.last_pc) as i64);
        self.st.last_pc = ev.pc;
        if frame_delta != 0 {
            buf_delta(&mut tmp, &mut n, frame_delta);
            self.st.last_frame = ev.frame;
        }
        if result_explicit {
            buf_varint(&mut tmp, &mut n, u64::from(ev.result.0));
        }

        match ev.kind {
            EventKind::Load { addr, size } => {
                buf_delta(
                    &mut tmp,
                    &mut n,
                    addr.wrapping_sub(self.st.last_addr[LOAD]) as i64,
                );
                self.st.last_addr[LOAD] = addr;
                if flag {
                    buf_varint(&mut tmp, &mut n, u64::from(size));
                    self.st.last_size[LOAD] = size;
                }
            }
            EventKind::Store { addr, size } => {
                buf_delta(
                    &mut tmp,
                    &mut n,
                    addr.wrapping_sub(self.st.last_addr[STORE]) as i64,
                );
                self.st.last_addr[STORE] = addr;
                if flag {
                    buf_varint(&mut tmp, &mut n, u64::from(size));
                    self.st.last_size[STORE] = size;
                }
            }
            EventKind::Prefetch { addr, .. } => {
                buf_delta(
                    &mut tmp,
                    &mut n,
                    addr.wrapping_sub(self.st.last_addr[PREFETCH]) as i64,
                );
                self.st.last_addr[PREFETCH] = addr;
            }
            _ => {}
        }

        if let Some(slot) = existing_slot {
            let expected = i64::from(self.st.last_slot.wrapping_add(1));
            buf_delta(&mut tmp, &mut n, i64::from(slot) - expected);
            self.st.last_slot = slot;
        }

        self.step_tag_at = Some(self.payload.len());
        self.payload.extend_from_slice(&tmp[..n]);

        if existing_slot.is_none() {
            // First sighting of this (pc, operand list): inline it and
            // grow the dictionary. Rare — loops reuse their lists.
            put_varint(&mut self.payload, ev.operands.len() as u64);
            for op in ev.operands {
                put_varint(&mut self.payload, u64::from(op.0));
            }
            let at = self.pool.len() as u32;
            self.pool.extend_from_slice(ev.operands);
            let slot = self.lists.len() as u32;
            self.lists.push((at, ev.operands.len() as u32));
            self.dict.set(ev.pc, slot);
            self.st.last_slot = slot;
        }
        self.events += 1;
    }

    /// Mark the end of an interpreter step (the events pushed since the
    /// previous boundary form one step).
    pub fn end_step(&mut self) {
        self.step_tag_at = None;
    }

    /// Consume the encoder, returning `(event count, payload)`.
    #[must_use]
    pub fn finish(self) -> (u64, Vec<u8>) {
        (self.events, self.payload)
    }
}

impl ExecObserver for StreamEncoder {
    #[inline]
    fn on_event(&mut self, ev: &Event<'_>) {
        self.push(ev);
    }

    #[inline]
    fn end_step(&mut self) {
        StreamEncoder::end_step(self);
    }
}

/// Everything a decoder carries between events: the mirrored delta
/// state plus the operand dictionary grown in lockstep with the
/// encoder. [`DecodeState::decode_one`] is the grammar's read side.
#[derive(Debug)]
pub(crate) struct DecodeState {
    st: DeltaState,
    lists: Vec<(u32, u32)>,
    pool: Vec<ValueId>,
}

/// One decoded event, with operands referenced by dictionary slot (the
/// caller materialises the slice from its own `DecodeState` so the
/// borrow does not pin the state mutably).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawEvent {
    pub pc: u64,
    pub frame: u64,
    pub result: ValueId,
    pub kind: EventKind,
    pub slot: u32,
    pub end_of_step: bool,
}

impl DecodeState {
    pub(crate) fn new() -> Self {
        DecodeState {
            st: DeltaState::new(),
            lists: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// The operand list of a slot returned by [`DecodeState::decode_one`].
    #[inline(always)]
    pub(crate) fn operands(&self, slot: u32) -> &[ValueId] {
        // Safety: `slot` was bounds-checked against `lists` by
        // `decode_one` (the inline arm pushes the entry it indexes), and
        // every `lists` range is within `pool` by construction — both
        // are only ever extended together. Same validate-then-unchecked
        // shape as the bytecode tier's register file (`swpf_ir::bytecode`).
        debug_assert!((slot as usize) < self.lists.len());
        let (at, len) = unsafe { *self.lists.get_unchecked(slot as usize) };
        debug_assert!((at + len) as usize <= self.pool.len());
        unsafe { self.pool.get_unchecked(at as usize..(at + len) as usize) }
    }

    /// Read an inline operand list and define the next dictionary slot
    /// with it; a list that runs out leaves `pool` at its entry length.
    fn define_operands(&mut self, buf: &[u8], pos: &mut usize) -> Result<u32, TraceError> {
        let count = get_varint(buf, pos)?;
        let count = usize::try_from(count)
            .ok()
            .filter(|&c| c <= (1 << 24))
            .ok_or(TraceError::Corrupt("implausible operand count"))?;
        let at = self.pool.len();
        for _ in 0..count {
            let id = get_varint(buf, pos).and_then(|id| {
                u32::try_from(id).map_err(|_| TraceError::Corrupt("operand id overflows u32"))
            });
            match id {
                Ok(id) => self.pool.push(ValueId(id)),
                Err(e) => {
                    self.pool.truncate(at);
                    return Err(e);
                }
            }
        }
        let slot = self.lists.len() as u32;
        self.lists.push((at as u32, count as u32));
        Ok(slot)
    }

    /// Read an event's operand field — always its last: an inline list
    /// defining the next slot, or a back-reference to an existing one.
    #[inline(always)]
    fn operand_slot(&mut self, tag: u8, buf: &[u8], pos: &mut usize) -> Result<u32, TraceError> {
        if tag & TAG_OPS != 0 {
            return self.define_operands(buf, pos);
        }
        let expected = i64::from(self.st.last_slot.wrapping_add(1));
        let slot = expected + get_delta(buf, pos)?;
        u32::try_from(slot)
            .ok()
            .filter(|&s| (s as usize) < self.lists.len())
            .ok_or(TraceError::Corrupt("operand slot out of range"))
    }

    /// The rest of a memory event of kind `k` — address delta, size if
    /// `sized`, operand slot — committing `k`'s state once all are
    /// read. Returns `(addr, size, slot)`.
    #[inline(always)]
    fn access(
        &mut self,
        k: usize,
        sized: bool,
        tag: u8,
        buf: &[u8],
        pos: &mut usize,
    ) -> Result<(u64, u32, u32), TraceError> {
        let addr = self.st.last_addr[k].wrapping_add(get_delta(buf, pos)? as u64);
        let mut size = self.st.last_size[k];
        if sized {
            size = u32::try_from(get_varint(buf, pos)?)
                .map_err(|_| TraceError::Corrupt("access size overflows u32"))?;
        }
        let slot = self.operand_slot(tag, buf, pos)?;
        self.st.last_addr[k] = addr;
        self.st.last_size[k] = size;
        Ok((addr, size, slot))
    }

    /// Decode one event from `buf` at `*at`, advancing `at` past it.
    ///
    /// Commit on success: nothing is stored before the event's last
    /// varint has been read, so an error leaves the state — and `at` —
    /// exactly as they were, and a cursor whose window ended mid-event
    /// decodes the same event again from a longer window. A partial
    /// event always fails with [`TraceError::Truncated`]: varints
    /// self-delimit and the tag fixes the field list, so a prefix of a
    /// valid encoding never decodes as a different complete event.
    ///
    /// # Errors
    /// [`TraceError::Truncated`] or [`TraceError::Corrupt`] on a
    /// malformed payload.
    #[inline(always)]
    pub(crate) fn decode_one(
        &mut self,
        buf: &[u8],
        at: &mut usize,
    ) -> Result<RawEvent, TraceError> {
        let mut pos = *at;
        let &tag = buf.get(pos).ok_or(TraceError::Truncated)?;
        pos += 1;
        let flag = tag & TAG_FLAG != 0;
        let end_of_step = tag & TAG_MORE == 0;

        let pc = self
            .st
            .last_pc
            .wrapping_add(get_delta(buf, &mut pos)? as u64);
        let mut frame = self.st.last_frame;
        if tag & TAG_FRAME != 0 {
            frame = frame.wrapping_add(get_delta(buf, &mut pos)? as u64);
        }
        let result = if tag & TAG_RESULT != 0 {
            let r = get_varint(buf, &mut pos)?;
            ValueId(u32::try_from(r).map_err(|_| TraceError::Corrupt("result id overflows u32"))?)
        } else {
            ValueId((pc & 0xffff_ffff) as u32)
        };

        // Each arm reads the last field, the operand slot, itself, so
        // a memory arm commits its own state without a second dispatch.
        let (kind, slot) = match tag & TAG_KIND {
            KIND_LOAD => {
                let (addr, size, slot) = self.access(LOAD, flag, tag, buf, &mut pos)?;
                (EventKind::Load { addr, size }, slot)
            }
            KIND_STORE => {
                let (addr, size, slot) = self.access(STORE, flag, tag, buf, &mut pos)?;
                (EventKind::Store { addr, size }, slot)
            }
            KIND_PREFETCH => {
                let (addr, _, slot) = self.access(PREFETCH, false, tag, buf, &mut pos)?;
                (EventKind::Prefetch { addr, valid: flag }, slot)
            }
            code => {
                let kind = match code {
                    KIND_ALU => EventKind::Alu,
                    KIND_BRANCH => EventKind::Branch { taken: flag },
                    KIND_CALL => EventKind::Call,
                    KIND_RET => EventKind::Ret,
                    _ => EventKind::Alloc,
                };
                (kind, self.operand_slot(tag, buf, &mut pos)?)
            }
        };
        self.st.last_pc = pc;
        self.st.last_frame = frame;
        self.st.last_slot = slot;
        *at = pos;
        Ok(RawEvent {
            pc,
            frame,
            result,
            kind,
            slot,
            end_of_step,
        })
    }
}

/// The bytes a [`WindowCursor`] decodes from: a whole in-memory payload
/// (`&[u8]`, which never refills) or `crate::streaming`'s `BlockWindow`.
pub trait Window {
    /// The decoded-but-unconsumed bytes.
    fn bytes(&self) -> &[u8];

    /// Drop the first `consumed` bytes and append the stream's next
    /// block, so that decoding resumes at offset 0; `Ok(false)`, with
    /// the window untouched, when the stream has no further block.
    ///
    /// # Errors
    /// Any [`TraceError`] fetching or validating the block.
    fn refill(&mut self, consumed: usize) -> Result<bool, TraceError>;
}

impl Window for &[u8] {
    #[inline(always)]
    fn bytes(&self) -> &[u8] {
        self
    }

    fn refill(&mut self, _consumed: usize) -> Result<bool, TraceError> {
        Ok(false)
    }
}

/// Decoder over one core's events, in retire order, without
/// materialising them: the one replay loop behind [`EventCursor`] and
/// [`crate::StreamingCursor`]. Decode state persists across refills,
/// exactly as if the payload were contiguous.
#[derive(Debug)]
pub struct WindowCursor<W> {
    win: W,
    pos: usize,
    remaining: u64,
    state: DecodeState,
}

/// The cursor over an in-memory payload, produced by
/// [`crate::Trace::cursor`].
pub type EventCursor<'t> = WindowCursor<&'t [u8]>;

impl<W: Window> WindowCursor<W> {
    pub(crate) fn new(win: W, events: u64) -> Self {
        WindowCursor {
            win,
            pos: 0,
            remaining: events,
            state: DecodeState::new(),
        }
    }

    /// Decode the next event. Returns the event plus `end_of_step`
    /// (`true` when the event is the last of its interpreter step), or
    /// `None` when the stream is exhausted.
    ///
    /// This sits on replay's per-event hot path. It and `decode_one`
    /// are `inline(always)`: fused into the consumer's loop the event
    /// never round-trips through memory, and left to the inliner replay
    /// ran 1.3–1.5x slower whenever it declined (CHANGES.md PR 18).
    /// What happens once per block or per stream is out of line and is
    /// lent the window alone, never the cursor, whose decode state can
    /// then stay in registers (DESIGN.md §6).
    ///
    /// # Errors
    /// Any [`TraceError`] in the stream: a malformed payload and,
    /// streaming, I/O failures and [`TraceError::ChecksumMismatch`] for
    /// a damaged block, caught before any of its events is surfaced.
    #[inline(always)]
    pub fn next_event(&mut self) -> Result<Option<(Event<'_>, bool)>, TraceError> {
        if self.remaining == 0 {
            return Self::finish(&mut self.win, self.pos).map(|()| None);
        }
        loop {
            match self.state.decode_one(self.win.bytes(), &mut self.pos) {
                Ok(raw) => {
                    self.remaining -= 1;
                    return Ok(Some((
                        Event {
                            pc: raw.pc,
                            frame: raw.frame,
                            result: raw.result,
                            kind: raw.kind,
                            operands: self.state.operands(raw.slot),
                        },
                        raw.end_of_step,
                    )));
                }
                // The event ran off the window's end, leaving the state
                // untouched: append the next block and decode it again.
                // Only a partial event fails as `Truncated`, so the
                // retry never masks corruption.
                Err(TraceError::Truncated) if self.win.refill(self.pos)? => self.pos = 0,
                Err(e) => return Err(e),
            }
        }
    }

    /// All events are out: the stream must end here too. Returns no
    /// event type — an out-of-line call writing `next_event`'s result
    /// pins that result in memory on the hot path as well.
    #[cold]
    fn finish(win: &mut W, pos: usize) -> Result<(), TraceError> {
        if pos != win.bytes().len() || win.refill(pos)? {
            return Err(TraceError::Corrupt("trailing bytes after final event"));
        }
        Ok(())
    }
}

/// A retire-event stream with step boundaries — every [`WindowCursor`].
/// Replay loops in `swpf-sim` are generic over this, so the in-memory
/// and bounded-memory streaming paths share one implementation.
pub trait EventSource {
    /// Next event plus its `end_of_step` flag, or `None` at the end of
    /// the stream.
    ///
    /// # Errors
    /// Any [`TraceError`] in the underlying stream.
    fn next_event(&mut self) -> Result<Option<(Event<'_>, bool)>, TraceError>;
}

impl<W: Window> EventSource for WindowCursor<W> {
    #[inline(always)]
    fn next_event(&mut self) -> Result<Option<(Event<'_>, bool)>, TraceError> {
        WindowCursor::next_event(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u64, frame: u64, kind: EventKind, operands: &[ValueId]) -> (Event<'_>, bool) {
        (
            Event {
                pc,
                frame,
                result: ValueId((pc & 0xffff_ffff) as u32),
                kind,
                operands,
            },
            true,
        )
    }

    #[test]
    fn encodes_and_decodes_a_small_stream() {
        let mut enc = StreamEncoder::new();
        let ops_a = [ValueId(1), ValueId(2)];
        let ops_b = [ValueId(3)];
        let events = [
            ev(5, 0, EventKind::Alu, &ops_a),
            ev(
                6,
                0,
                EventKind::Load {
                    addr: 0x1_0000,
                    size: 8,
                },
                &ops_b,
            ),
            ev(5, 0, EventKind::Alu, &ops_a), // dict reuse
            ev(7, 1, EventKind::Branch { taken: false }, &[]),
        ];
        for (e, _) in &events {
            enc.push(e);
            enc.end_step();
        }
        let (n, payload) = enc.finish();
        assert_eq!(n, 4);
        let mut cur = EventCursor::new(&payload, n);
        for (want, _) in &events {
            let (got, end) = cur.next_event().unwrap().expect("event present");
            assert!(end);
            assert_eq!(got.pc, want.pc);
            assert_eq!(got.frame, want.frame);
            assert_eq!(got.result, want.result);
            assert_eq!(got.kind, want.kind);
            assert_eq!(got.operands, want.operands);
        }
        assert!(cur.next_event().unwrap().is_none());
    }

    #[test]
    fn more_bit_marks_step_structure() {
        let mut enc = StreamEncoder::new();
        let (a, _) = ev(1, 0, EventKind::Alu, &[]);
        let (b, _) = ev(2, 0, EventKind::Branch { taken: true }, &[]);
        let (c, _) = ev(3, 0, EventKind::Ret, &[]);
        // Step 1: phi copy + branch. Step 2: ret.
        enc.push(&a);
        enc.push(&b);
        enc.end_step();
        enc.push(&c);
        enc.end_step();
        let (n, payload) = enc.finish();
        let mut cur = EventCursor::new(&payload, n);
        assert!(!cur.next_event().unwrap().unwrap().1, "phi copy continues");
        assert!(cur.next_event().unwrap().unwrap().1, "branch ends step 1");
        assert!(cur.next_event().unwrap().unwrap().1, "ret ends step 2");
    }

    #[test]
    fn dict_reuse_is_one_byte_per_repeat() {
        let mut enc = StreamEncoder::new();
        let ops = [ValueId(7), ValueId(8)];
        let (e, _) = ev(9, 0, EventKind::Alu, &ops);
        enc.push(&e);
        enc.end_step();
        let first = enc.payload_len();
        for _ in 0..10 {
            enc.push(&e);
            enc.end_step();
        }
        let per_repeat = (enc.payload_len() - first) / 10;
        // tag + zero pc delta + slot backreference = 3 bytes.
        assert!(per_repeat <= 3, "repeat costs {per_repeat} bytes");
    }

    #[test]
    fn explicit_result_round_trips() {
        let mut enc = StreamEncoder::new();
        let e = Event {
            pc: 42,
            frame: 0,
            result: ValueId(7), // != pc & 0xffffffff
            kind: EventKind::Alloc,
            operands: &[],
        };
        enc.push(&e);
        enc.end_step();
        let (n, payload) = enc.finish();
        let mut cur = EventCursor::new(&payload, n);
        let (got, _) = cur.next_event().unwrap().unwrap();
        assert_eq!(got.result, ValueId(7));
        assert_eq!(got.kind, EventKind::Alloc);
    }

    /// The transactional contract `decode_one` gives a cursor: on a
    /// payload cut anywhere inside an event it fails `Truncated` and
    /// leaves the decode state as it found it, so the same call on the
    /// full payload decodes that event as if the cut had never been
    /// tried. The stream carries every tag shape: FRAME, RESULT, an
    /// explicit size, an inline operand list, a back-reference, multi-
    /// byte varints, and each event kind.
    #[test]
    fn a_cut_event_fails_truncated_and_leaves_the_state_untouched() {
        let ops = [ValueId(1), ValueId(200), ValueId(70_000)];
        let result = |pc: u64| ValueId((pc & 0xffff_ffff) as u32);
        let events = [
            (5, 0, result(5), EventKind::Alu, &ops[..2]),
            (
                6,
                0,
                result(6),
                EventKind::Load {
                    addr: 0x1_0000,
                    size: 8,
                },
                &ops[..1],
            ),
            (
                7,
                0,
                result(7),
                EventKind::Store {
                    addr: 0x9_0000,
                    size: 4,
                },
                &ops[..3],
            ),
            (
                6,
                0,
                result(6),
                EventKind::Load {
                    addr: 0x1_0008,
                    size: 8,
                },
                &ops[..1],
            ),
            (
                6,
                0,
                result(6),
                EventKind::Load {
                    addr: 0x77_1230,
                    size: 2,
                },
                &ops[..1],
            ),
            (
                8,
                0,
                result(8),
                EventKind::Prefetch {
                    addr: 0x1_0200,
                    valid: true,
                },
                &ops[..0],
            ),
            (
                8,
                0,
                result(8),
                EventKind::Prefetch {
                    addr: 0,
                    valid: false,
                },
                &ops[..0],
            ),
            (9, 0, result(9), EventKind::Call, &ops[..2]),
            (1 << 32 | 3, 300, ValueId(9), EventKind::Alloc, &ops[..0]),
            (
                1 << 32 | 4,
                300,
                result(4),
                EventKind::Branch { taken: true },
                &ops[..1],
            ),
            (1 << 32 | 5, 300, result(5), EventKind::Ret, &ops[..1]),
            (
                10,
                0,
                result(10),
                EventKind::Branch { taken: false },
                &ops[..0],
            ),
            (5, 0, result(5), EventKind::Alu, &ops[..2]),
        ];
        let mut enc = StreamEncoder::new();
        for &(pc, frame, result, kind, operands) in &events {
            enc.push(&Event {
                pc,
                frame,
                result,
                kind,
                operands,
            });
            enc.end_step();
        }
        let (_, payload) = enc.finish();

        let mut state = DecodeState::new();
        let mut pos = 0;
        for &(pc, frame, result, kind, operands) in &events {
            let before = (state.st.clone(), state.lists.len(), state.pool.len());
            // Find the event's end with a throwaway decoder state.
            let end = {
                let mut probe = DecodeState {
                    st: state.st.clone(),
                    lists: state.lists.clone(),
                    pool: state.pool.clone(),
                };
                let mut end = pos;
                probe.decode_one(&payload, &mut end).expect("full event");
                end
            };
            for cut in pos..end {
                let mut at = pos;
                assert_eq!(
                    state.decode_one(&payload[..cut], &mut at).unwrap_err(),
                    TraceError::Truncated,
                    "pc {pc:#x} cut at byte {} of {}",
                    cut - pos,
                    end - pos
                );
                assert_eq!(at, pos, "a failed decode must not advance");
                assert_eq!(
                    (&state.st, state.lists.len(), state.pool.len()),
                    (&before.0, before.1, before.2),
                    "pc {pc:#x} cut at byte {}: state moved",
                    cut - pos
                );
            }
            let raw = state.decode_one(&payload, &mut pos).expect("full event");
            assert_eq!(pos, end);
            assert_eq!(
                (raw.pc, raw.frame, raw.result, raw.kind, raw.end_of_step),
                (pc, frame, result, kind, true)
            );
            assert_eq!(state.operands(raw.slot), operands);
        }
        assert_eq!(pos, payload.len());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = StreamEncoder::new();
        let (e, _) = ev(1, 0, EventKind::Alu, &[]);
        enc.push(&e);
        let (n, mut payload) = enc.finish();
        payload.push(0);
        let mut cur = EventCursor::new(&payload, n);
        cur.next_event().unwrap();
        assert!(matches!(
            cur.next_event(),
            Err(TraceError::Corrupt("trailing bytes after final event"))
        ));
    }
}
