//! swpf-perf: per-site prefetch-efficacy profiling and simulated-cycle
//! attribution — `perf annotate` for the simulated program.
//!
//! The aggregate counters in [`crate::memsys::MemSysStats`] say *how
//! many* software prefetches were late or redundant; they cannot say
//! *which prefetch instruction* misbehaved. This module attributes
//! every prefetch outcome and every demand-load stall to the issuing
//! program counter, so a tune report can explain "c=64 makes 71% of
//! site @7's prefetches early-evicted" instead of "c=24 is better".
//!
//! ## Outcome taxonomy
//!
//! Each issued prefetch lands in exactly one bucket of a *partition*:
//!
//! * `timely` — the line was demanded while still cached and its fill
//!   had completed: the full miss latency was hidden.
//! * `late` — the line was demanded while its fill was still in
//!   flight: partial benefit (the paper's "offset too small" mode).
//! * `early_evicted` — the line was evicted before its first demand
//!   use: zero benefit, wasted bandwidth ("offset too large").
//! * `redundant_resident` — the line was already cached and ready.
//! * `redundant_inflight` — a fill for the line was already in flight.
//! * `dropped` — the prefetch queue was full; never issued to memory.
//! * `unused_at_end` — still cached but never demanded when the run
//!   ended (or when the bounded tracking table recycled the entry).
//!
//! `issued == timely + late + early_evicted + redundant_resident +
//! redundant_inflight + dropped + unused_at_end` — the conservation
//! invariant `debug_stats` and the test suite assert.
//!
//! ## Purity contract
//!
//! Profiling piggybacks on branches the memory system already takes:
//! it never probes a cache, never perturbs a clock, and never changes
//! a counter. Profiling a run must leave every [`crate::SimStats`]
//! counter and every recorded event stream bit-identical (covered by
//! `tests/perf_differential.rs`). When off (the default) the cost is
//! one `Option` check per memory operation and no allocation.
//!
//! Profiling is asked for, per run: `Sim { perf: true, .. }` (or
//! `Machine::new(config, true)`). This crate reads no switch and no
//! environment, so concurrent runs never see each other's choice; only
//! the harness CLI maps `--perf` onto the request.

use std::collections::{HashMap, VecDeque};
use swpf_obs::Hist;

use crate::TICKS_PER_CYCLE;

/// Bounded capacity of the in-flight prefetch tracking table. When a
/// run keeps more distinct prefetched-but-unused lines live than this,
/// the oldest entries are recycled into `unused_at_end` so memory stays
/// bounded regardless of run length.
const TABLE_CAP: usize = 1 << 16;

/// Per-prefetch-site (static prefetch instruction, keyed by PC) outcome
/// partition and lead-time histogram.
#[derive(Debug, Clone, Default)]
pub struct SiteProfile {
    /// Prefetches issued by this site (the partition total).
    pub issued: u64,
    /// Demanded after the fill completed, while still cached.
    pub timely: u64,
    /// Demanded while the fill was still in flight.
    pub late: u64,
    /// Evicted from every cache level before first demand use.
    pub early_evicted: u64,
    /// Line already resident (fill complete) when prefetched.
    pub redundant_resident: u64,
    /// Line's fill already in flight when prefetched.
    pub redundant_inflight: u64,
    /// Dropped at the full prefetch queue.
    pub dropped: u64,
    /// Never demanded before the run (or table entry) ended.
    pub unused_at_end: u64,
    /// Issue-to-first-demand distance in simulated cycles (recorded for
    /// `timely`, `late`, and `early_evicted` outcomes).
    pub lead_cycles: Hist,
}

impl SiteProfile {
    /// The legacy redundant count: resident + in-flight.
    #[must_use]
    pub fn redundant(&self) -> u64 {
        self.redundant_resident + self.redundant_inflight
    }

    /// Sum of every outcome bucket; equals [`SiteProfile::issued`] when
    /// the partition is conserved.
    #[must_use]
    pub fn classified(&self) -> u64 {
        self.timely
            + self.late
            + self.early_evicted
            + self.redundant_resident
            + self.redundant_inflight
            + self.dropped
            + self.unused_at_end
    }

    /// Does the outcome partition account for every issued prefetch?
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.classified() == self.issued
    }

    fn merge(&mut self, other: &SiteProfile) {
        self.issued += other.issued;
        self.timely += other.timely;
        self.late += other.late;
        self.early_evicted += other.early_evicted;
        self.redundant_resident += other.redundant_resident;
        self.redundant_inflight += other.redundant_inflight;
        self.dropped += other.dropped;
        self.unused_at_end += other.unused_at_end;
        self.lead_cycles.merge(&other.lead_cycles);
    }
}

/// Demand-load stall time attributed to one retiring PC.
#[derive(Debug, Clone, Copy, Default)]
pub struct StallStat {
    /// Ticks of stall beyond the pipelined (L1-hit) threshold.
    pub stall_ticks: u64,
    /// Stalling loads retired at this PC.
    pub count: u64,
}

impl StallStat {
    /// Stall time in whole simulated cycles.
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_ticks / TICKS_PER_CYCLE
    }
}

/// One core's per-PC profile: prefetch sites and load-stall
/// attribution, sorted by PC for stable output.
#[derive(Debug, Clone, Default)]
pub struct PcProfile {
    /// Per prefetch-site outcome partitions, sorted by PC.
    pub sites: Vec<(u64, SiteProfile)>,
    /// Per load-PC stall attribution, sorted by PC.
    pub stalls: Vec<(u64, StallStat)>,
}

impl PcProfile {
    /// Fold another core's profile into this one (site-wise and
    /// stall-wise merge; used to aggregate multicore runs).
    pub fn merge(&mut self, other: &PcProfile) {
        let mut sites: HashMap<u64, SiteProfile> = self.sites.drain(..).collect();
        for (pc, s) in &other.sites {
            sites.entry(*pc).or_default().merge(s);
        }
        let mut stalls: HashMap<u64, StallStat> = self.stalls.drain(..).collect();
        for (pc, s) in &other.stalls {
            let e = stalls.entry(*pc).or_default();
            e.stall_ticks += s.stall_ticks;
            e.count += s.count;
        }
        *self = PcProfile::from_maps(sites, stalls);
    }

    /// Aggregate many per-core profiles into one.
    #[must_use]
    pub fn aggregate<'a>(profiles: impl IntoIterator<Item = &'a PcProfile>) -> PcProfile {
        let mut out = PcProfile::default();
        for p in profiles {
            out.merge(p);
        }
        out
    }

    /// Whole-run totals across every site (partition-wise sum).
    #[must_use]
    pub fn totals(&self) -> SiteProfile {
        let mut t = SiteProfile::default();
        for (_, s) in &self.sites {
            t.merge(s);
        }
        t
    }

    /// Does every site's outcome partition balance?
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.sites.iter().all(|(_, s)| s.conserved())
    }

    /// Total attributed stall cycles across every load PC.
    #[must_use]
    pub fn total_stall_cycles(&self) -> u64 {
        self.stalls.iter().map(|(_, s)| s.stall_cycles()).sum()
    }

    fn from_maps(sites: HashMap<u64, SiteProfile>, stalls: HashMap<u64, StallStat>) -> PcProfile {
        let mut sites: Vec<_> = sites.into_iter().collect();
        sites.sort_by_key(|(pc, _)| *pc);
        let mut stalls: Vec<_> = stalls.into_iter().collect();
        stalls.sort_by_key(|(pc, _)| *pc);
        PcProfile { sites, stalls }
    }
}

struct PfEntry {
    pc: u64,
    issue_tick: u64,
    seq: u64,
}

/// The memory-system side of the profiler: a bounded table mapping
/// in-flight-or-cached prefetched lines to their issuing site, updated
/// only on branches the memory system already takes.
pub(crate) struct MemPerf {
    entries: HashMap<u64, PfEntry>,
    fifo: VecDeque<(u64, u64)>,
    next_seq: u64,
    sites: HashMap<u64, SiteProfile>,
    stalls: HashMap<u64, StallStat>,
}

impl MemPerf {
    pub(crate) fn new() -> Self {
        MemPerf {
            entries: HashMap::new(),
            fifo: VecDeque::new(),
            next_seq: 0,
            sites: HashMap::new(),
            stalls: HashMap::new(),
        }
    }

    fn site(&mut self, pc: u64) -> &mut SiteProfile {
        self.sites.entry(pc).or_default()
    }

    /// A prefetch entered the memory system and will fetch (L3 or DRAM
    /// path): start tracking its line. A still-tracked previous
    /// prefetch of the same line must have been evicted everywhere
    /// unused — classify it `early_evicted` first.
    pub(crate) fn on_issue(&mut self, pc: u64, line: u64, now: u64) {
        self.site(pc).issued += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(old) = self.entries.insert(
            line,
            PfEntry {
                pc,
                issue_tick: now,
                seq,
            },
        ) {
            let s = self.site(old.pc);
            s.early_evicted += 1;
            s.lead_cycles
                .add(now.saturating_sub(old.issue_tick) / TICKS_PER_CYCLE);
        }
        self.fifo.push_back((seq, line));
        self.recycle_overflow();
    }

    /// A prefetch found its line already cached or in flight.
    pub(crate) fn on_redundant(&mut self, pc: u64, resident: bool) {
        let s = self.site(pc);
        s.issued += 1;
        if resident {
            s.redundant_resident += 1;
        } else {
            s.redundant_inflight += 1;
        }
    }

    /// A prefetch was dropped at the full queue.
    pub(crate) fn on_dropped(&mut self, pc: u64) {
        let s = self.site(pc);
        s.issued += 1;
        s.dropped += 1;
    }

    /// A demand access hit a cache level; if the line is tracked, the
    /// prefetch that fetched it is judged: `late` when the fill was
    /// still in flight at demand time, `timely` otherwise.
    pub(crate) fn on_demand_hit(&mut self, line: u64, now: u64, in_flight: bool) {
        let Some(entry) = self.entries.remove(&line) else {
            return;
        };
        let lead = now.saturating_sub(entry.issue_tick) / TICKS_PER_CYCLE;
        let s = self.site(entry.pc);
        if in_flight {
            s.late += 1;
        } else {
            s.timely += 1;
        }
        s.lead_cycles.add(lead);
    }

    /// A demand access missed every level; a tracked line must have
    /// been evicted unused — `early_evicted`.
    pub(crate) fn on_demand_miss(&mut self, line: u64, now: u64) {
        let Some(entry) = self.entries.remove(&line) else {
            return;
        };
        let lead = now.saturating_sub(entry.issue_tick) / TICKS_PER_CYCLE;
        let s = self.site(entry.pc);
        s.early_evicted += 1;
        s.lead_cycles.add(lead);
    }

    /// A demand load stalled the core for `ticks` beyond the pipelined
    /// threshold; attribute it to the retiring PC.
    pub(crate) fn on_stall(&mut self, pc: u64, ticks: u64) {
        let e = self.stalls.entry(pc).or_default();
        e.stall_ticks += ticks;
        e.count += 1;
    }

    fn recycle_overflow(&mut self) {
        while self.entries.len() > TABLE_CAP {
            let Some((seq, line)) = self.fifo.pop_front() else {
                break;
            };
            // Skip stale fifo slots whose entry was already consumed or
            // replaced by a newer prefetch of the same line.
            let current = self.entries.get(&line).is_some_and(|e| e.seq == seq);
            if current {
                let entry = self.entries.remove(&line).expect("checked above");
                self.site(entry.pc).unused_at_end += 1;
            }
        }
    }

    /// Drain: classify still-tracked lines `unused_at_end` and return
    /// the finished profile.
    pub(crate) fn take(&mut self) -> PcProfile {
        let entries = std::mem::take(&mut self.entries);
        self.fifo.clear();
        for (_, entry) in entries {
            self.site(entry.pc).unused_at_end += 1;
        }
        PcProfile::from_maps(
            std::mem::take(&mut self.sites),
            std::mem::take(&mut self.stalls),
        )
    }
}

impl std::fmt::Debug for MemPerf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemPerf")
            .field("tracked", &self.entries.len())
            .field("sites", &self.sites.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_conserved_per_site() {
        let mut p = MemPerf::new();
        p.on_issue(7, 1, 0); // will be timely
        p.on_issue(7, 2, 0); // will be late
        p.on_issue(7, 3, 0); // will be early-evicted
        p.on_redundant(7, true);
        p.on_redundant(7, false);
        p.on_dropped(7);
        p.on_issue(7, 4, 0); // never demanded
        p.on_demand_hit(1, 10_000, false);
        p.on_demand_hit(2, 100, true);
        p.on_demand_miss(3, 50_000);
        let prof = p.take();
        assert_eq!(prof.sites.len(), 1);
        let s = &prof.sites[0].1;
        assert_eq!(s.issued, 7);
        assert_eq!(
            (s.timely, s.late, s.early_evicted, s.unused_at_end),
            (1, 1, 1, 1)
        );
        assert_eq!(
            (s.redundant_resident, s.redundant_inflight, s.dropped),
            (1, 1, 1)
        );
        assert!(s.conserved());
        assert_eq!(s.lead_cycles.count, 3);
    }

    #[test]
    fn reissue_of_tracked_line_marks_old_entry_early() {
        let mut p = MemPerf::new();
        p.on_issue(1, 42, 0);
        p.on_issue(2, 42, 1000);
        let prof = p.take();
        let site1 = &prof.sites.iter().find(|(pc, _)| *pc == 1).unwrap().1;
        assert_eq!(site1.early_evicted, 1);
        let site2 = &prof.sites.iter().find(|(pc, _)| *pc == 2).unwrap().1;
        assert_eq!(site2.unused_at_end, 1);
        assert!(prof.conserved());
    }

    #[test]
    fn table_overflow_recycles_oldest_as_unused() {
        let mut p = MemPerf::new();
        for i in 0..(TABLE_CAP as u64 + 10) {
            p.on_issue(9, i, i);
        }
        assert!(p.entries.len() <= TABLE_CAP);
        let prof = p.take();
        let s = &prof.sites[0].1;
        assert_eq!(s.issued, TABLE_CAP as u64 + 10);
        assert_eq!(s.unused_at_end, s.issued);
        assert!(s.conserved());
    }

    #[test]
    fn merge_and_totals_accumulate() {
        let mut a = MemPerf::new();
        a.on_issue(1, 1, 0);
        a.on_demand_hit(1, 2400, false);
        a.on_stall(5, 480);
        let pa = a.take();
        let mut b = MemPerf::new();
        b.on_issue(1, 1, 0);
        b.on_demand_hit(1, 100, true);
        b.on_stall(5, 240);
        let pb = b.take();
        let agg = PcProfile::aggregate([&pa, &pb]);
        let t = agg.totals();
        assert_eq!((t.issued, t.timely, t.late), (2, 1, 1));
        assert_eq!(agg.stalls.len(), 1);
        assert_eq!(agg.stalls[0].1.count, 2);
        assert_eq!(agg.total_stall_cycles(), (480 + 240) / TICKS_PER_CYCLE);
        assert!(agg.conserved());
    }
}
