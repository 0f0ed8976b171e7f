//! # swpf-obs — hierarchical spans, counters, and chrome-trace export
//!
//! A thread-aware instrumentation layer for the whole workspace: RAII
//! [`span`] guards write begin/end events into per-thread bounded
//! buffers, [`count`] bumps monotonic counters, and [`record`] feeds
//! power-of-two histograms. A [`snapshot`] merges every thread's data
//! into a [`Profile`], which exports either as Chrome trace-event JSON
//! ([`Profile::to_chrome_json`], loadable in `chrome://tracing` or
//! Perfetto with one track per thread) or as a human-readable summary
//! table ([`Profile::summary`], self/total time per phase plus counter
//! values).
//!
//! ## Disabled-path cost contract
//!
//! Profiling is off by default. While off, every public recording entry
//! point ([`span`], [`count`], [`record`]) performs exactly one relaxed
//! atomic load and returns — no thread-local access, no lock, no
//! allocation, no timestamp. Dropping the no-op guard a disabled
//! [`span`] returns is a branch on a plain bool. The `bench_gate`
//! profiling gate holds the simulator hot path to this contract.
//!
//! Enabling ([`enable`]) is process-global; the experiment drivers flip
//! it at startup so a whole run is captured, and `SWPF_PROFILE=<path>`
//! (or `--profile <path>`) additionally writes the chrome-trace file at
//! exit.
//!
//! ## Span model
//!
//! Spans strictly nest per thread: the guard records `End` on the
//! thread that opened it (guards are `!Send`), and a snapshot closes
//! any still-open span at capture time so exported streams are always
//! balanced. Each thread's buffer is bounded ([`EVENT_CAP`] begins);
//! once full, *new* spans are dropped whole — begin and matching end
//! together, counted in [`ThreadTrack::dropped`] — so the records that
//! were kept never interleave or lose their nesting.
//!
//! This crate deliberately depends on nothing but `std`, so every other
//! crate in the workspace (including `swpf-ir` at the bottom of the
//! stack) can use it.

pub mod alloc;

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Span, counter, and histogram names: `&'static str` in the common
/// case, owned when built dynamically (`pass:{name}`).
pub type Name = Cow<'static, str>;

/// Maximum recorded span begins per thread before new spans are
/// dropped (whole — see the crate docs on balance).
pub const EVENT_CAP: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<Arc<ThreadSlot>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Is profiling globally enabled? One relaxed atomic load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on process-wide.
pub fn enable() {
    // Anchor the clock before the first event so timestamps are small.
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off process-wide. Open spans still record their end
/// events (balance outlives the flag).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Nanoseconds since the process-wide clock anchor (first [`enable`] or
/// first call of this function).
#[must_use]
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---- recording ----------------------------------------------------------

#[derive(Debug, Clone)]
enum RawEv {
    Begin { name: Name, ns: u64 },
    End { ns: u64 },
}

#[derive(Debug, Default)]
struct SlotState {
    events: Vec<RawEv>,
    /// Spans dropped whole because the buffer was full.
    dropped: u64,
    /// Depth of currently-open dropped spans; their ends are skipped
    /// so the kept records stay balanced.
    suppressed: u32,
    counters: BTreeMap<Name, u64>,
    hists: BTreeMap<Name, Hist>,
}

#[derive(Debug)]
struct ThreadSlot {
    tid: u64,
    name: Mutex<String>,
    state: Mutex<SlotState>,
}

thread_local! {
    static SLOT: Arc<ThreadSlot> = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{tid}"), str::to_string);
        let slot = Arc::new(ThreadSlot {
            tid,
            name: Mutex::new(name),
            state: Mutex::new(SlotState::default()),
        });
        REGISTRY.lock().expect("obs registry poisoned").push(Arc::clone(&slot));
        slot
    };
}

/// Name the calling thread's track in exports (defaults to the std
/// thread name, or `thread-N`).
pub fn name_thread(name: &str) {
    SLOT.with(|s| {
        *s.name.lock().expect("obs name poisoned") = name.to_string();
    });
}

/// An RAII span: records a begin event now and the matching end event
/// when dropped, on the same thread (`!Send`).
#[must_use = "a span measures the scope that holds its guard"]
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let ns = now_ns();
        SLOT.with(|s| {
            let mut st = s.state.lock().expect("obs state poisoned");
            if st.suppressed > 0 {
                st.suppressed -= 1;
            } else {
                st.events.push(RawEv::End { ns });
            }
        });
    }
}

/// Open a hierarchical span named `name`. No-op (and near-free) while
/// profiling is disabled.
#[inline]
pub fn span(name: impl Into<Name>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            active: false,
            _not_send: PhantomData,
        };
    }
    span_slow(name.into())
}

#[cold]
fn span_slow(name: Name) -> SpanGuard {
    let ns = now_ns();
    SLOT.with(|s| {
        let mut st = s.state.lock().expect("obs state poisoned");
        // A span is dropped whole when the buffer is full — or when an
        // ancestor was dropped, so recorded nesting stays faithful.
        if st.suppressed > 0 || st.events.len() >= EVENT_CAP {
            st.dropped += 1;
            st.suppressed += 1;
        } else {
            st.events.push(RawEv::Begin { name, ns });
        }
    });
    SpanGuard {
        active: true,
        _not_send: PhantomData,
    }
}

/// Add `delta` to the monotonic counter `name` on this thread
/// (summed across threads at export). No-op while disabled.
#[inline]
pub fn count(name: impl Into<Name>, delta: u64) {
    if !enabled() {
        return;
    }
    count_slow(name.into(), delta);
}

#[cold]
fn count_slow(name: Name, delta: u64) {
    SLOT.with(|s| {
        let mut st = s.state.lock().expect("obs state poisoned");
        *st.counters.entry(name).or_insert(0) += delta;
    });
}

/// Record `value` into the power-of-two histogram `name` (merged
/// across threads at export). No-op while disabled.
#[inline]
pub fn record(name: impl Into<Name>, value: u64) {
    if !enabled() {
        return;
    }
    record_slow(name.into(), value);
}

#[cold]
fn record_slow(name: Name, value: u64) {
    SLOT.with(|s| {
        let mut st = s.state.lock().expect("obs state poisoned");
        st.hists.entry(name).or_default().add(value);
    });
}

/// Drop all recorded events, counters, and histograms on every thread.
/// Call only while no spans are open (e.g. at driver startup or between
/// tests); open guards from before a reset would otherwise record
/// orphan ends, which snapshots discard.
pub fn reset() {
    let registry = REGISTRY.lock().expect("obs registry poisoned");
    for slot in registry.iter() {
        let mut st = slot.state.lock().expect("obs state poisoned");
        *st = SlotState::default();
    }
}

// ---- snapshot model -----------------------------------------------------

/// A power-of-two histogram: bucket `k` counts values with bit-width
/// `k` (bucket 0 holds zeros, bucket 64 the top half of `u64`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bit-width counts.
    pub buckets: [u64; 65],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Hist {
    /// Record one value.
    pub fn add(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[(64 - value.leading_zeros()) as usize] += 1;
    }

    /// Fold another histogram in (cross-thread merge).
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Mean of the recorded values, 0 on an empty histogram.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One begin/end event on a thread track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrackEvent {
    /// A span opened.
    Begin {
        /// Span name.
        name: String,
        /// Nanoseconds since the clock anchor.
        ns: u64,
    },
    /// The innermost open span closed.
    End {
        /// Nanoseconds since the clock anchor.
        ns: u64,
    },
}

/// One thread's span stream, balanced and strictly nested.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrack {
    /// Stable per-process thread id (registration order).
    pub tid: u64,
    /// Display name.
    pub name: String,
    /// Balanced begin/end events in timestamp order.
    pub events: Vec<TrackEvent>,
    /// Spans dropped whole because the buffer was full.
    pub dropped: u64,
}

/// A merged capture of every thread's spans, counters, and histograms.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Capture timestamp (ns since the clock anchor); open spans are
    /// closed at this instant.
    pub captured_ns: u64,
    /// Per-thread span tracks, sorted by `tid`.
    pub threads: Vec<ThreadTrack>,
    /// Counters summed across threads.
    pub counters: BTreeMap<String, u64>,
    /// Histograms merged across threads.
    pub histograms: BTreeMap<String, Hist>,
}

/// Capture everything recorded so far into a [`Profile`]. Spans still
/// open are closed at the capture timestamp (the live guard will later
/// record its real end for any later snapshot).
#[must_use]
pub fn snapshot() -> Profile {
    let captured_ns = now_ns();
    let mut threads = Vec::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, Hist> = BTreeMap::new();
    let registry = REGISTRY.lock().expect("obs registry poisoned");
    for slot in registry.iter() {
        let name = slot.name.lock().expect("obs name poisoned").clone();
        let st = slot.state.lock().expect("obs state poisoned");
        let mut events = Vec::with_capacity(st.events.len());
        let mut depth = 0u64;
        for ev in &st.events {
            match ev {
                RawEv::Begin { name, ns } => {
                    depth += 1;
                    events.push(TrackEvent::Begin {
                        name: name.to_string(),
                        ns: *ns,
                    });
                }
                RawEv::End { ns } => {
                    // Orphan ends (reset raced an open guard) are
                    // dropped so the track stays balanced.
                    if depth > 0 {
                        depth -= 1;
                        events.push(TrackEvent::End { ns: *ns });
                    }
                }
            }
        }
        for _ in 0..depth {
            events.push(TrackEvent::End { ns: captured_ns });
        }
        for (k, v) in &st.counters {
            *counters.entry(k.to_string()).or_insert(0) += v;
        }
        for (k, h) in &st.hists {
            histograms.entry(k.to_string()).or_default().merge(h);
        }
        threads.push(ThreadTrack {
            tid: slot.tid,
            name,
            events,
            dropped: st.dropped,
        });
    }
    drop(registry);
    threads.sort_by_key(|t| t.tid);
    threads.retain(|t| !t.events.is_empty() || t.dropped > 0);
    Profile {
        captured_ns,
        threads,
        counters,
        histograms,
    }
}

// ---- chrome trace-event export ------------------------------------------

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nanoseconds → the microsecond `ts` field, with sub-µs precision.
fn push_ts_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

impl Profile {
    /// Serialise as Chrome trace-event JSON (the "JSON array format"
    /// wrapped in an object), loadable in `chrome://tracing` and
    /// Perfetto: one `tid` track per recorded thread (named by `M`
    /// thread-name metadata events), `B`/`E` pairs per span, and one
    /// `C` counter sample per counter at the capture timestamp.
    ///
    /// The chrome format has no histogram event, so each non-empty
    /// histogram is flattened into a reserved counter series —
    /// `hist:{name}:count`, `:sum`, `:min`, `:max`, and `:b{i}` for
    /// every non-zero bucket — which viewers chart like any counter
    /// and `swpf-bench`'s profile reader reassembles into a [`Hist`].
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"traceEvents\": [");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
            out.push_str("\n  ");
        };
        for t in &self.threads {
            sep(&mut out);
            out.push_str("{\"ph\": \"M\", \"pid\": 1, \"tid\": ");
            let _ = write!(out, "{}", t.tid);
            out.push_str(", \"name\": \"thread_name\", \"args\": {\"name\": ");
            push_json_str(&mut out, &t.name);
            out.push_str("}}");
            for ev in &t.events {
                sep(&mut out);
                match ev {
                    TrackEvent::Begin { name, ns } => {
                        out.push_str("{\"ph\": \"B\", \"pid\": 1, \"tid\": ");
                        let _ = write!(out, "{}", t.tid);
                        out.push_str(", \"ts\": ");
                        push_ts_us(&mut out, *ns);
                        out.push_str(", \"name\": ");
                        push_json_str(&mut out, name);
                        out.push('}');
                    }
                    TrackEvent::End { ns } => {
                        out.push_str("{\"ph\": \"E\", \"pid\": 1, \"tid\": ");
                        let _ = write!(out, "{}", t.tid);
                        out.push_str(", \"ts\": ");
                        push_ts_us(&mut out, *ns);
                        out.push('}');
                    }
                }
            }
        }
        let counter = |out: &mut String, first: &mut bool, name: &str, value: u64| {
            if *first {
                *first = false;
            } else {
                out.push(',');
            }
            out.push_str("\n  {\"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"ts\": ");
            push_ts_us(out, self.captured_ns);
            out.push_str(", \"name\": ");
            push_json_str(out, name);
            out.push_str(", \"args\": {\"value\": ");
            let _ = write!(out, "{value}");
            out.push_str("}}");
        };
        for (name, value) in &self.counters {
            counter(&mut out, &mut first, name, *value);
        }
        for (name, h) in &self.histograms {
            if h.count == 0 {
                continue;
            }
            counter(&mut out, &mut first, &format!("hist:{name}:count"), h.count);
            counter(&mut out, &mut first, &format!("hist:{name}:sum"), h.sum);
            counter(&mut out, &mut first, &format!("hist:{name}:min"), h.min);
            counter(&mut out, &mut first, &format!("hist:{name}:max"), h.max);
            for (i, b) in h.buckets.iter().enumerate() {
                if *b > 0 {
                    counter(&mut out, &mut first, &format!("hist:{name}:b{i}"), *b);
                }
            }
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    /// Aggregate spans into per-phase rows and render alongside the
    /// counter/histogram catalogue.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let mut rows: BTreeMap<String, SummaryRow> = BTreeMap::new();
        let mut dropped = 0u64;
        for t in &self.threads {
            dropped += t.dropped;
            // (name, begin_ns, child_ns) per open frame.
            let mut stack: Vec<(&str, u64, u64)> = Vec::new();
            for ev in &t.events {
                match ev {
                    TrackEvent::Begin { name, ns } => stack.push((name, *ns, 0)),
                    TrackEvent::End { ns } => {
                        let (name, begin, child) = stack.pop().expect("tracks are balanced");
                        let total = ns.saturating_sub(begin);
                        let row = rows.entry(name.to_string()).or_default();
                        row.count += 1;
                        row.total_ns += total;
                        row.self_ns += total.saturating_sub(child);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += total;
                        }
                    }
                }
            }
        }
        let mut rows: Vec<(String, SummaryRow)> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));
        Summary {
            rows,
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
            dropped,
        }
    }
}

/// Aggregated wall time for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryRow {
    /// Number of completed spans.
    pub count: u64,
    /// Wall time including children.
    pub total_ns: u64,
    /// Wall time excluding child spans.
    pub self_ns: u64,
}

/// A rendered-table-ready aggregation of a [`Profile`].
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Per-phase rows sorted by descending total time.
    pub rows: Vec<(String, SummaryRow)>,
    /// Counters summed across threads.
    pub counters: BTreeMap<String, u64>,
    /// Histograms merged across threads.
    pub histograms: BTreeMap<String, Hist>,
    /// Spans dropped to buffer caps, summed across threads.
    pub dropped: u64,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl Summary {
    /// Render the human-readable table (`prof_report`'s output).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .chain(std::iter::once("phase".len()))
            .max()
            .unwrap_or(5)
            .max(5);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>8}  {:>12}  {:>12}",
            "phase", "count", "total", "self"
        );
        let _ = writeln!(out, "{}", "-".repeat(name_w + 38));
        for (name, row) in &self.rows {
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>8}  {:>12}  {:>12}",
                name,
                row.count,
                fmt_ns(row.total_ns),
                fmt_ns(row.self_ns)
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            let cw = self.counters.keys().map(String::len).max().unwrap_or(0);
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<cw$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\nhistograms:");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: count {} min {} mean {:.1} max {}",
                    h.count,
                    if h.count == 0 { 0 } else { h.min },
                    h.mean(),
                    h.max
                );
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "\n({} spans dropped to buffer caps)", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global recorder is process-wide state, so the unit tests
    /// serialise on one lock and reset around each body.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        enable();
        g
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = exclusive();
        disable();
        {
            let _s = span("ghost");
            count("ghost.counter", 1);
            record("ghost.hist", 7);
        }
        let p = snapshot();
        assert!(p.counters.is_empty());
        assert!(p.histograms.is_empty());
        assert!(p.threads.iter().all(|t| t.events.is_empty()));
    }

    #[test]
    fn spans_nest_and_aggregate_self_time() {
        let _g = exclusive();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        disable();
        let p = snapshot();
        let s = p.summary();
        let outer = s.rows.iter().find(|(n, _)| n == "outer").unwrap().1;
        let inner = s.rows.iter().find(|(n, _)| n == "inner").unwrap().1;
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn open_spans_are_closed_at_capture_time() {
        let _g = exclusive();
        let held = span("held");
        let p = snapshot();
        drop(held);
        disable();
        let track = p
            .threads
            .iter()
            .find(|t| {
                t.events
                    .iter()
                    .any(|e| matches!(e, TrackEvent::Begin { name, .. } if name == "held"))
            })
            .expect("the open span is visible");
        let mut depth = 0i64;
        for ev in &track.events {
            match ev {
                TrackEvent::Begin { .. } => depth += 1,
                TrackEvent::End { .. } => depth -= 1,
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0, "snapshot closes open spans");
    }

    #[test]
    fn counters_and_histograms_merge_across_threads() {
        let _g = exclusive();
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                scope.spawn(move || {
                    count("merge.hits", i + 1);
                    record("merge.sizes", 1 << i);
                });
            }
        });
        disable();
        let p = snapshot();
        assert_eq!(p.counters.get("merge.hits"), Some(&(1 + 2 + 3 + 4)));
        let h = p.histograms.get("merge.sizes").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1 + 2 + 4 + 8);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 8);
    }

    #[test]
    fn hist_buckets_by_bit_width() {
        let mut h = Hist::default();
        h.add(0);
        h.add(1);
        h.add(2);
        h.add(3);
        h.add(u64::MAX);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[64], 1);
    }

    #[test]
    fn chrome_export_contains_tracks_and_counters() {
        let _g = exclusive();
        name_thread("unit-test");
        {
            let _s = span("phase.a");
        }
        count("c.x", 3);
        disable();
        let text = snapshot().to_chrome_json();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"unit-test\""));
        assert!(text.contains("\"phase.a\""));
        assert!(text.contains("\"c.x\""));
        assert!(text.contains("\"ph\": \"B\""));
        assert!(text.contains("\"ph\": \"E\""));
        assert!(text.contains("\"ph\": \"C\""));
    }

    #[test]
    fn buffer_cap_drops_whole_spans_and_stays_balanced() {
        let _g = exclusive();
        // A private check of the suppression logic via the public API
        // would need EVENT_CAP spans; exercise the state machine
        // directly instead.
        let mut st = SlotState::default();
        st.events.extend((0..4).map(|_| RawEv::Begin {
            name: Name::from("x"),
            ns: 0,
        }));
        st.events.extend((0..4).map(|_| RawEv::End { ns: 1 }));
        st.suppressed = 2;
        st.dropped = 2;
        // Ends while suppressed decrement instead of recording.
        for _ in 0..2 {
            if st.suppressed > 0 {
                st.suppressed -= 1;
            } else {
                st.events.push(RawEv::End { ns: 2 });
            }
        }
        assert_eq!(st.suppressed, 0);
        assert_eq!(st.events.len(), 8);
    }

    #[test]
    fn summary_renders_a_table() {
        let _g = exclusive();
        {
            let _s = span("render.phase");
        }
        count("render.counter", 2);
        record("render.hist", 5);
        disable();
        let text = snapshot().summary().render();
        assert!(text.contains("phase"));
        assert!(text.contains("render.phase"));
        assert!(text.contains("render.counter"));
        assert!(text.contains("render.hist"));
    }
}
