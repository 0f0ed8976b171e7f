//! Analytics over recorded retire-event streams.
//!
//! The trace corpus records exactly what the timing models consume: the
//! dynamic retire-event stream of every kernel. From it the module
//! derives the paper's *memory-shape* metrics without any
//! re-simulation: [`ReuseHistogram`] (LRU stack distances over cache
//! lines — how big a cache the kernel wants), [`IndirectionProfile`]
//! (how many dependent loads feed each load's address — the depth of
//! `a[b[i]]` chains prefetching must cover), and [`MlpProfile`] (how
//! many loads per window are address-independent — the memory-level
//! parallelism a prefetcher can actually extract). All three are
//! streaming observers drivable from any [`EventSource`], so
//! [`analyze`] runs them in bounded memory over compressed trace files.
//!
//! [`analyze`] takes its events the way `swpf-sim`'s replay does — a
//! core count and `cursor(core)` — so the in-memory and the file source
//! are one code path.

use crate::stream::EventSource;
use crate::TraceError;
use std::collections::{HashMap, HashSet};
use swpf_ir::interp::{Event, EventKind};

/// Cache-line shift: analytics bucket memory touches by 64-byte line,
/// matching every simulated cache level.
const LINE_SHIFT: u32 = 6;

/// Reuse-distance buckets: index 0 is distance 0 (re-reference with no
/// intervening distinct line), index `i > 0` covers `[2^(i-1), 2^i)`.
pub const REUSE_BUCKETS: usize = 33;

/// A Fenwick tree over time slots, counting which slots still hold the
/// most-recent reference of some live line — the classic O(log n)
/// stack-distance query structure.
#[derive(Debug, Clone, Default)]
struct SlotTree {
    tree: Vec<u32>,
}

impl SlotTree {
    fn len(&self) -> usize {
        self.tree.len()
    }

    fn with_capacity(n: usize) -> SlotTree {
        SlotTree { tree: vec![0; n] }
    }

    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = self.tree[i - 1].wrapping_add(delta as u32);
            i += i & i.wrapping_neg();
        }
    }

    /// Count of live slots in `[0..=i]`.
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut sum = 0u64;
        while i > 0 {
            sum += u64::from(self.tree[i - 1]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Streaming LRU stack-distance histogram over 64-byte cache lines.
///
/// Every demand load/store touches its line(s); the reuse distance of a
/// touch is the number of *distinct* lines touched since the previous
/// touch of the same line (0 = immediately re-referenced; first-ever
/// touches count as `cold`). A touch at distance *d* hits in any LRU
/// cache with more than *d* lines, so the cumulative histogram reads
/// directly as a miss-ratio curve — the capacity story behind the
/// paper's working-set sweeps, recovered from the trace alone.
///
/// Internally a last-touch map plus a Fenwick tree over time slots;
/// slots are renumbered when the tree outgrows twice the live-line
/// count, so memory tracks the footprint, not the trace length.
#[derive(Debug, Clone)]
pub struct ReuseHistogram {
    last: HashMap<u64, usize>,
    slots: SlotTree,
    time: usize,
    buckets: [u64; REUSE_BUCKETS],
    cold: u64,
}

impl Default for ReuseHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ReuseHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        ReuseHistogram {
            last: HashMap::new(),
            slots: SlotTree::with_capacity(1024),
            time: 0,
            buckets: [0; REUSE_BUCKETS],
            cold: 0,
        }
    }

    fn bucket_of(distance: u64) -> usize {
        if distance == 0 {
            0
        } else {
            (distance.ilog2() as usize + 1).min(REUSE_BUCKETS - 1)
        }
    }

    /// Renumber live slots densely (preserving recency order) so the
    /// tree stays proportional to the number of live lines.
    fn compact(&mut self) {
        let mut live: Vec<(usize, u64)> = self.last.iter().map(|(&l, &t)| (t, l)).collect();
        live.sort_unstable();
        self.slots = SlotTree::with_capacity((live.len() * 2).max(1024));
        for (new_t, &(_, line)) in live.iter().enumerate() {
            self.last.insert(line, new_t);
            self.slots.add(new_t, 1);
        }
        self.time = live.len();
    }

    fn touch_line(&mut self, line: u64) {
        if self.time == self.slots.len() {
            self.compact();
        }
        let t = self.time;
        self.time += 1;
        match self.last.insert(line, t) {
            Some(t0) => {
                // Stack distance = distinct lines touched after t0 =
                // live slots in the tree strictly beyond t0.
                let distance = self.last.len() as u64 - self.slots.prefix(t0);
                self.buckets[Self::bucket_of(distance)] += 1;
                self.slots.add(t0, -1);
            }
            None => self.cold += 1,
        }
        self.slots.add(t, 1);
    }

    /// Feed the next event; only demand loads and stores touch lines.
    pub fn observe(&mut self, ev: &Event<'_>) {
        let (addr, size) = match ev.kind {
            EventKind::Load { addr, size } | EventKind::Store { addr, size } => (addr, size),
            _ => return,
        };
        let first = addr >> LINE_SHIFT;
        let last = (addr + u64::from(size.max(1)) - 1) >> LINE_SHIFT;
        for line in first..=last {
            self.touch_line(line);
        }
    }

    /// Bucketed distances: `[0]` is distance 0, `[i]` covers
    /// `[2^(i-1), 2^i)` lines.
    #[must_use]
    pub fn buckets(&self) -> &[u64; REUSE_BUCKETS] {
        &self.buckets
    }

    /// First-ever line touches (infinite distance).
    #[must_use]
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Total line touches observed.
    #[must_use]
    pub fn touches(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.cold
    }

    /// Fold another histogram's counts into this one (address spaces
    /// are assumed disjoint — per-core histograms merge exactly).
    pub fn merge(&mut self, other: &ReuseHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.cold += other.cold;
    }
}

/// Indirection depths saturate here; the paper's kernels top out at
/// two or three dependent loads per address chain.
pub const MAX_INDIRECTION: usize = 8;

/// Streaming indirection-depth profile: for every demand load, how many
/// *dependent loads* feed its address computation.
///
/// Depth 0 is a streaming access (`a[i]`); depth 1 is one indirection
/// (`a[b[i]]` — the paper's hash/gather pattern); depth ≥ 2 is a chain.
/// This is the static structure `swpf-pass`'s prefetch generator walks,
/// measured dynamically: value depths propagate through the dataflow
/// (max over operands, +1 through a load's result, saturating at
/// [`MAX_INDIRECTION`]), keyed per call frame and dropped on return.
#[derive(Debug, Clone, Default)]
pub struct IndirectionProfile {
    frames: HashMap<u64, HashMap<u32, u8>>,
    histogram: [u64; MAX_INDIRECTION + 1],
}

impl IndirectionProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the next event.
    pub fn observe(&mut self, ev: &Event<'_>) {
        let depths = self.frames.entry(ev.frame).or_default();
        let base = ev
            .operands
            .iter()
            .filter_map(|v| depths.get(&v.0).copied())
            .max()
            .unwrap_or(0);
        match ev.kind {
            EventKind::Load { .. } => {
                self.histogram[usize::from(base)] += 1;
                let deeper = base.saturating_add(1).min(MAX_INDIRECTION as u8);
                depths.insert(ev.result.0, deeper);
            }
            EventKind::Ret => {
                // Depths never propagate across frames (call arguments
                // and return values reset the chain), so the returning
                // frame's table is dead.
                self.frames.remove(&ev.frame);
            }
            _ => {
                if base > 0 {
                    depths.insert(ev.result.0, base);
                } else {
                    depths.remove(&ev.result.0);
                }
            }
        }
    }

    /// Loads per depth; index [`MAX_INDIRECTION`] also holds everything
    /// deeper (saturated).
    #[must_use]
    pub fn histogram(&self) -> &[u64; MAX_INDIRECTION + 1] {
        &self.histogram
    }

    /// Total demand loads observed.
    #[must_use]
    pub fn loads(&self) -> u64 {
        self.histogram.iter().sum()
    }

    /// Fraction of loads at depth ≥ 1 — the share software prefetching
    /// for indirect accesses targets.
    #[must_use]
    pub fn indirect_fraction(&self) -> f64 {
        let total = self.loads();
        if total == 0 {
            0.0
        } else {
            let indirect: u64 = self.histogram[1..].iter().sum();
            indirect as f64 / total as f64
        }
    }

    /// Fold another profile's histogram into this one.
    pub fn merge(&mut self, other: &IndirectionProfile) {
        for (b, o) in self.histogram.iter_mut().zip(&other.histogram) {
            *b += o;
        }
    }
}

/// Events per MLP window before decimation.
const MLP_WINDOW: u64 = 256;
/// Decimate the sample series (averaging adjacent pairs) past this
/// length, so a paper-scale trace yields a bounded series.
const MLP_MAX_SAMPLES: usize = 4096;

/// Streaming memory-level-parallelism profile over fixed event windows.
///
/// Within each window of [`MLP_WINDOW`] retired events, a load is
/// *independent* if its address does not (transitively) depend on the
/// result of an earlier load **in the same window** — those are the
/// misses an out-of-order core or a software prefetcher can overlap.
/// Each window contributes one sample: its independent-load count. The
/// series is decimated by averaging adjacent samples whenever it
/// exceeds [`MLP_MAX_SAMPLES`], so `samples()` is an MLP-over-time
/// curve at a resolution that adapts to trace length.
#[derive(Debug, Clone)]
pub struct MlpProfile {
    tainted: HashSet<(u64, u32)>,
    in_window: u64,
    window_loads: u64,
    window_dependent: u64,
    /// Events per recorded sample (doubles on decimation).
    scale: u64,
    samples: Vec<f64>,
    /// Primitive windows accumulated toward the next coarse sample.
    pending_sum: f64,
    pending_count: u64,
    primitive_windows: u64,
    total_loads: u64,
    total_dependent: u64,
}

impl Default for MlpProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl MlpProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        MlpProfile {
            tainted: HashSet::new(),
            in_window: 0,
            window_loads: 0,
            window_dependent: 0,
            scale: MLP_WINDOW,
            samples: Vec::new(),
            pending_sum: 0.0,
            pending_count: 0,
            primitive_windows: 0,
            total_loads: 0,
            total_dependent: 0,
        }
    }

    fn close_window(&mut self) {
        let independent = (self.window_loads - self.window_dependent) as f64;
        // Each emitted sample averages `scale / MLP_WINDOW` primitive
        // windows; primitives park in `pending` until a group fills.
        let group = self.scale / MLP_WINDOW;
        self.pending_sum += independent;
        self.pending_count += 1;
        if self.pending_count == group {
            self.samples.push(self.pending_sum / group as f64);
            self.pending_sum = 0.0;
            self.pending_count = 0;
        }
        self.primitive_windows += 1;
        self.total_loads += self.window_loads;
        self.total_dependent += self.window_dependent;
        self.window_loads = 0;
        self.window_dependent = 0;
        self.in_window = 0;
        self.tainted.clear();
        if self.samples.len() > MLP_MAX_SAMPLES {
            self.halve();
        }
    }

    /// Feed the next event.
    pub fn observe(&mut self, ev: &Event<'_>) {
        let key = (ev.frame, ev.result.0);
        let tainted_in = ev
            .operands
            .iter()
            .any(|v| self.tainted.contains(&(ev.frame, v.0)));
        match ev.kind {
            EventKind::Load { .. } => {
                self.window_loads += 1;
                if tainted_in {
                    self.window_dependent += 1;
                }
                self.tainted.insert(key);
            }
            _ => {
                if tainted_in {
                    self.tainted.insert(key);
                } else {
                    self.tainted.remove(&key);
                }
            }
        }
        self.in_window += 1;
        if self.in_window == MLP_WINDOW {
            self.close_window();
        }
    }

    /// Flush a trailing partial window into the series (call once, when
    /// the stream ends).
    pub fn finish(&mut self) {
        if self.in_window > 0 {
            self.close_window();
        }
        self.flush_pending();
    }

    /// Independent loads per window over time (decimated).
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Events represented by each sample.
    #[must_use]
    pub fn events_per_sample(&self) -> u64 {
        self.scale
    }

    /// Primitive [`MLP_WINDOW`]-event windows observed.
    #[must_use]
    pub fn windows(&self) -> u64 {
        self.primitive_windows
    }

    /// Mean independent loads per [`MLP_WINDOW`]-event window.
    #[must_use]
    pub fn mean_independent(&self) -> f64 {
        if self.primitive_windows == 0 {
            0.0
        } else {
            (self.total_loads - self.total_dependent) as f64 / self.primitive_windows as f64
        }
    }

    /// Fraction of loads whose address depends on an in-window load —
    /// the serialisation software prefetching has to break.
    #[must_use]
    pub fn dependent_fraction(&self) -> f64 {
        if self.total_loads == 0 {
            0.0
        } else {
            self.total_dependent as f64 / self.total_loads as f64
        }
    }

    /// Append another profile's series (its windows follow this one's
    /// in time); totals accumulate. Both pending partial groups flush
    /// as (slightly under-full) samples so the curves concatenate.
    pub fn merge(&mut self, other: &MlpProfile) {
        let mut o = other.clone();
        self.flush_pending();
        o.flush_pending();
        // Bring both series to a common scale first.
        while self.scale < o.scale {
            self.halve();
        }
        while o.scale < self.scale {
            o.halve();
        }
        self.samples.extend_from_slice(&o.samples);
        self.primitive_windows += o.primitive_windows;
        self.total_loads += o.total_loads;
        self.total_dependent += o.total_dependent;
        while self.samples.len() > MLP_MAX_SAMPLES {
            self.halve();
        }
    }

    fn flush_pending(&mut self) {
        if self.pending_count > 0 {
            self.samples
                .push(self.pending_sum / self.pending_count as f64);
            self.pending_sum = 0.0;
            self.pending_count = 0;
        }
    }

    fn halve(&mut self) {
        self.samples = self
            .samples
            .chunks(2)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        self.scale *= 2;
    }
}

/// All three memory-shape observers run in one pass.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalytics {
    /// LRU stack-distance histogram (see [`ReuseHistogram`]).
    pub reuse: ReuseHistogram,
    /// Indirection-depth profile (see [`IndirectionProfile`]).
    pub indirection: IndirectionProfile,
    /// MLP-over-time profile (see [`MlpProfile`]).
    pub mlp: MlpProfile,
    /// Total events analysed.
    pub events: u64,
}

impl TraceAnalytics {
    /// Empty analytics.
    #[must_use]
    pub fn new() -> Self {
        TraceAnalytics {
            mlp: MlpProfile::new(),
            ..Default::default()
        }
    }

    /// Feed the next event to every observer.
    pub fn observe(&mut self, ev: &Event<'_>) {
        self.events += 1;
        self.reuse.observe(ev);
        self.indirection.observe(ev);
        self.mlp.observe(ev);
    }

    /// Drain one core's [`EventSource`] into this accumulator.
    ///
    /// # Errors
    /// Any [`TraceError`] in the stream.
    pub fn drain(&mut self, src: &mut impl EventSource) -> Result<(), TraceError> {
        while let Some((ev, _)) = src.next_event()? {
            self.observe(&ev);
        }
        self.mlp.finish();
        Ok(())
    }

    /// Fold a second core's analytics into this one. Reuse and
    /// indirection histograms add (address spaces and frames are
    /// per-core, so no cross-talk); MLP series concatenate.
    pub fn merge(&mut self, other: &TraceAnalytics) {
        self.reuse.merge(&other.reuse);
        self.indirection.merge(&other.indirection);
        self.mlp.merge(&other.mlp);
        self.events += other.events;
    }
}

/// One-pass analytics over `cores` per-core streams, `cursor(core)`
/// opening each; cores are analysed independently and merged.
///
/// # Errors
/// Any [`TraceError`] opening or decoding a stream.
pub fn analyze<S: EventSource>(
    cores: usize,
    cursor: impl Fn(usize) -> Result<S, TraceError>,
) -> Result<TraceAnalytics, TraceError> {
    let mut all = TraceAnalytics::new();
    for core in 0..cores {
        let mut one = TraceAnalytics::new();
        one.drain(&mut cursor(core)?)?;
        all.merge(&one);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamingReplay, TraceRecorder};
    use swpf_ir::interp::EventKind;
    use swpf_ir::ValueId;

    fn ev(pc: u64) -> Event<'static> {
        Event {
            pc,
            frame: 0,
            result: ValueId(pc as u32),
            kind: EventKind::Alu,
            operands: &[],
        }
    }

    fn load_ev(result: u32, addr: u64, operands: &'static [ValueId]) -> Event<'static> {
        Event {
            pc: u64::from(result),
            frame: 0,
            result: ValueId(result),
            kind: EventKind::Load { addr, size: 8 },
            operands,
        }
    }

    fn alu_ev(result: u32, operands: &'static [ValueId]) -> Event<'static> {
        Event {
            pc: u64::from(result),
            frame: 0,
            result: ValueId(result),
            kind: EventKind::Alu,
            operands,
        }
    }

    #[test]
    fn reuse_distances_bucket_correctly() {
        let mut h = ReuseHistogram::new();
        // line 0 cold, then immediate re-reference (distance 0), then a
        // second line (cold), then back to line 0 (distance 1).
        for addr in [0u64, 0, 64, 0] {
            h.observe(&load_ev(1, addr, &[]));
        }
        assert_eq!(h.cold(), 2);
        assert_eq!(h.buckets()[0], 1, "distance 0");
        assert_eq!(h.buckets()[1], 1, "distance 1");
        assert_eq!(h.touches(), 4);
        // Stores touch lines too; ALU does not.
        h.observe(&alu_ev(2, &[]));
        assert_eq!(h.touches(), 4);
    }

    #[test]
    fn reuse_survives_slot_compaction() {
        let mut h = ReuseHistogram::new();
        // Far more distinct lines than the initial slot capacity, so
        // the tree renumbers at least twice; then re-touch the very
        // first line at a known large distance.
        let n = 5000u64;
        for i in 0..n {
            h.observe(&load_ev(1, i * 64, &[]));
        }
        h.observe(&load_ev(1, 0, &[]));
        assert_eq!(h.cold(), n);
        let d = n - 1; // 4999 distinct lines since line 0
        let expected_bucket = d.ilog2() as usize + 1;
        assert_eq!(h.buckets()[expected_bucket], 1, "distance {d}");
    }

    #[test]
    fn indirection_depths_follow_load_chains() {
        static R1: [ValueId; 1] = [ValueId(1)];
        static R2: [ValueId; 1] = [ValueId(2)];
        static R3: [ValueId; 1] = [ValueId(3)];
        let mut p = IndirectionProfile::new();
        p.observe(&load_ev(1, 0x1000, &[])); // a[i]: depth 0
        p.observe(&alu_ev(2, &R1)); // address arithmetic keeps depth
        p.observe(&load_ev(3, 0x2000, &R2)); // b[a[i]]: depth 1
        p.observe(&load_ev(4, 0x3000, &R3)); // c[b[a[i]]]: depth 2
        assert_eq!(p.histogram()[0], 1);
        assert_eq!(p.histogram()[1], 1);
        assert_eq!(p.histogram()[2], 1);
        assert_eq!(p.loads(), 3);
        let expect = 2.0 / 3.0;
        assert!((p.indirect_fraction() - expect).abs() < 1e-12);
    }

    #[test]
    fn indirection_saturates_and_clears_frames() {
        let mut p = IndirectionProfile::new();
        let mut prev: Option<u32> = None;
        // A chain far deeper than the cap.
        for r in 1..=20u32 {
            let ops: &'static [ValueId] = match prev {
                Some(v) => Box::leak(Box::new([ValueId(v)])),
                None => &[],
            };
            p.observe(&load_ev(r, 0x1000 + u64::from(r) * 8, ops));
            prev = Some(r);
        }
        let hist = p.histogram();
        assert_eq!(hist.iter().sum::<u64>(), 20);
        assert!(hist[MAX_INDIRECTION] >= 20 - MAX_INDIRECTION as u64);
        // Returning drops the frame's depth table.
        p.observe(&Event {
            pc: 0,
            frame: 0,
            result: ValueId(99),
            kind: EventKind::Ret,
            operands: &[],
        });
        p.observe(&load_ev(21, 0x5000, Box::leak(Box::new([ValueId(20)]))));
        assert_eq!(p.histogram()[0], 2, "depth resets after Ret");
    }

    #[test]
    fn mlp_separates_independent_from_dependent_loads() {
        static R1: [ValueId; 1] = [ValueId(1)];
        static R2: [ValueId; 1] = [ValueId(2)];
        let mut m = MlpProfile::new();
        // Three address-independent loads...
        for r in 1..=3u32 {
            m.observe(&load_ev(r, u64::from(r) * 4096, &[]));
        }
        m.finish();
        assert_eq!(m.samples(), &[3.0]);
        assert!((m.mean_independent() - 3.0).abs() < 1e-12);
        assert_eq!(m.dependent_fraction(), 0.0);

        // ...versus a pointer chain: the second load's address is
        // tainted by the first through intermediate arithmetic.
        let mut m = MlpProfile::new();
        m.observe(&load_ev(1, 0x1000, &[]));
        m.observe(&alu_ev(2, &R1));
        m.observe(&load_ev(3, 0x2000, &R2));
        m.finish();
        assert_eq!(m.samples(), &[1.0], "one independent load per window");
        assert!((m.dependent_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn streaming_analytics_match_in_memory() {
        let mut rec = TraceRecorder::new(2, 7);
        for core in 0..2u32 {
            for i in 0..3000u64 {
                let e = if i % 5 == 4 {
                    ev(40 + i % 4)
                } else {
                    load_ev((i % 16) as u32, (i * 37) % (1 << 14), &[])
                };
                rec.stream(core as usize).push(&e);
                rec.stream(core as usize).end_step();
            }
        }
        let trace = rec.finish();
        let direct = analyze(2, |c| trace.cursor(c)).unwrap();
        let path = std::env::temp_dir().join(format!("swpf_an_{}.trace", std::process::id()));
        std::fs::write(&path, trace.to_bytes_with_block_size(512)).unwrap();
        let streamed = {
            let replay = StreamingReplay::open(&path).unwrap();
            analyze(2, |c| replay.cursor(c)).unwrap()
        };
        std::fs::remove_file(&path).ok();
        assert_eq!(direct.events, streamed.events);
        assert_eq!(direct.reuse.buckets(), streamed.reuse.buckets());
        assert_eq!(direct.reuse.cold(), streamed.reuse.cold());
        assert_eq!(
            direct.indirection.histogram(),
            streamed.indirection.histogram()
        );
        assert_eq!(direct.mlp.samples(), streamed.mlp.samples());
        assert_eq!(direct.events, 6000);
    }
}
