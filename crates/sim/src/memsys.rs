//! The per-core memory system: L1 + L2 + TLB + stride prefetcher, backed
//! by a (possibly shared) last-level cache and DRAM channel.

use crate::cache::{Cache, Lookup};
use crate::dram::Dram;
use crate::perf::{MemPerf, PcProfile};
use crate::presets::MachineConfig;
use crate::stride::StridePrefetcher;
use crate::tlb::Tlb;
use crate::LINE_BYTES;

/// Demand access flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load: the core waits for the returned latency.
    Read,
    /// A store: write-allocate; latency is absorbed by the store buffer
    /// but cache/DRAM state changes all the same.
    Write,
}

/// State shared between cores: the last-level cache (when the machine has
/// one) and the DRAM channel.
#[derive(Debug)]
pub struct SharedMem {
    /// Optional L3.
    pub l3: Option<Cache>,
    /// The DRAM channel.
    pub dram: Dram,
}

impl SharedMem {
    /// Build the shared portion of a machine.
    #[must_use]
    pub fn new(cfg: &MachineConfig) -> Self {
        SharedMem {
            l3: cfg.l3.as_ref().map(Cache::new),
            dram: Dram::new(&cfg.dram),
        }
    }
}

/// Per-core memory-system statistics beyond the raw cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemSysStats {
    /// Software prefetches sent to the memory system.
    pub sw_prefetches: u64,
    /// Prefetches dropped because the prefetch queue was full.
    pub sw_prefetches_dropped: u64,
    /// Prefetches that found the line already present and ready.
    pub sw_prefetches_redundant_resident: u64,
    /// Prefetches that found a fill for the line already in flight.
    pub sw_prefetches_redundant_inflight: u64,
    /// Demand accesses that hit a line whose fill was still in flight
    /// (late prefetch: partial benefit).
    pub late_fill_hits: u64,
    /// Fills issued by the hardware stride prefetcher.
    pub hw_prefetch_fills: u64,
}

impl MemSysStats {
    /// Prefetches that found the line already present or in flight —
    /// the historical aggregate counter, kept as the sum of its two
    /// refined halves so existing artifacts and checks stay valid.
    #[must_use]
    pub fn sw_prefetches_redundant(&self) -> u64 {
        self.sw_prefetches_redundant_resident + self.sw_prefetches_redundant_inflight
    }
}

/// The private memory hierarchy of one core.
#[derive(Debug)]
pub struct MemSys {
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    stride: Option<StridePrefetcher>,
    pf_outstanding: Vec<u64>,
    pf_capacity: usize,
    /// High-bit salt distinguishing this core's simulated address space
    /// in *shared* structures. Each core of a multicore run executes its
    /// own program copy whose interpreter addresses start at the same
    /// heap base; without the salt, different cores' data would falsely
    /// share L3 lines.
    address_space: u64,
    stats: MemSysStats,
    /// Per-PC prefetch-outcome and stall attribution; `None` (the
    /// default) keeps the demand path allocation-free. Chosen at
    /// construction ([`MemSys::with_perf`]).
    perf: Option<Box<MemPerf>>,
}

impl MemSys {
    /// Build the private hierarchy from a machine configuration,
    /// unprofiled.
    #[must_use]
    pub fn new(cfg: &MachineConfig) -> Self {
        MemSys::with_perf(cfg, false)
    }

    /// Build the private hierarchy, with a per-PC profile when `perf`.
    #[must_use]
    pub(crate) fn with_perf(cfg: &MachineConfig, perf: bool) -> Self {
        MemSys {
            l1: Cache::new(&cfg.l1),
            l2: Cache::new(&cfg.l2),
            tlb: Tlb::new(&cfg.tlb),
            stride: cfg.hw_stride_prefetcher.then(StridePrefetcher::default),
            pf_outstanding: Vec::new(),
            pf_capacity: cfg.prefetch_queue.max(1),
            address_space: 0,
            stats: MemSysStats::default(),
            perf: perf.then(|| Box::new(MemPerf::new())),
        }
    }

    /// Tag this core's addresses with a distinct address-space id
    /// (multicore runs give each core its own).
    pub fn set_address_space(&mut self, id: u64) {
        self.address_space = id << 44;
    }

    /// Perform a demand access at tick `now`; returns the load-to-use
    /// latency in ticks (0-ish for L1 hits).
    ///
    /// The TLB's MRU check and the L1 lookup inline into the core model
    /// that calls this, so an L1 hit on the MRU page makes no call; the
    /// rest of the TLB and everything below L1 stay out of line.
    #[inline(always)]
    pub fn access(
        &mut self,
        shared: &mut SharedMem,
        addr: u64,
        now: u64,
        kind: AccessKind,
        pc: u64,
    ) -> u64 {
        let is_write = kind == AccessKind::Write;
        let addr = addr | self.address_space;
        // The line number every cache level (and the profiler) keys on,
        // computed once here.
        let line = addr / LINE_BYTES;
        // Address translation first; a miss costs a (possibly queued)
        // page-table walk.
        let t = self.tlb.translate(addr, now);

        // L1.
        if let Lookup::Hit { ready_at } = self.l1.access(line, t, is_write) {
            if ready_at > t {
                self.stats.late_fill_hits += 1;
            }
            if let Some(p) = &mut self.perf {
                p.on_demand_hit(line, now, ready_at > t);
            }
            let data = ready_at.max(t) + self.l1.latency_ticks;
            return data - now;
        }
        self.access_below_l1(shared, addr, line, now, t, is_write, pc)
    }

    /// The rest of a demand access once L1 has missed.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn access_below_l1(
        &mut self,
        shared: &mut SharedMem,
        addr: u64,
        line: u64,
        now: u64,
        t: u64,
        is_write: bool,
        pc: u64,
    ) -> u64 {
        // Train the stride prefetcher on L1 misses; its fills go to L2.
        if let Some(sp) = &mut self.stride {
            if let Some(fill) = sp.observe(pc, addr) {
                self.stats.hw_prefetch_fills += 1;
                hw_fill_l2(&mut self.l2, shared, fill.addr / LINE_BYTES, now);
            }
        }

        // L2.
        if let Lookup::Hit { ready_at } = self.l2.access(line, t, false) {
            if ready_at > t {
                self.stats.late_fill_hits += 1;
            }
            if let Some(p) = &mut self.perf {
                p.on_demand_hit(line, now, ready_at > t);
            }
            let data = ready_at.max(t) + self.l2.latency_ticks;
            let v1 = self.l1.insert(line, t, data, is_write);
            self.spill_from_l1(shared, v1, t);
            return data - now;
        }

        // L3 (when present).
        let l3_hit = shared
            .l3
            .as_mut()
            .and_then(|l3| match l3.access(line, t, false) {
                Lookup::Hit { ready_at } => {
                    Some((ready_at.max(t) + l3.latency_ticks, ready_at > t))
                }
                Lookup::Miss => None,
            });
        if let Some((data, in_flight)) = l3_hit {
            if let Some(p) = &mut self.perf {
                p.on_demand_hit(line, now, in_flight);
            }
            let v2 = self.l2.insert(line, t, data, false);
            spill_l2_victim(v2, shared, t);
            let v1 = self.l1.insert(line, t, data, is_write);
            self.spill_from_l1(shared, v1, t);
            return data - now;
        }

        // DRAM: a tracked prefetched line missing every level must have
        // been evicted before use.
        if let Some(p) = &mut self.perf {
            p.on_demand_miss(line, now);
        }
        let data = shared.dram.fill(t);
        self.install_all_levels(shared, line, t, data, is_write);
        data - now
    }

    /// Install a freshly-fetched line in every level, propagating dirty
    /// evictions one level down at a time.
    fn install_all_levels(
        &mut self,
        shared: &mut SharedMem,
        line: u64,
        t: u64,
        data: u64,
        is_write: bool,
    ) {
        if let Some(l3) = &mut shared.l3 {
            if l3.insert(line, t, data, false).is_some() {
                shared.dram.writeback(t);
            }
        }
        let v2 = self.l2.insert(line, t, data, false);
        spill_l2_victim(v2, shared, t);
        let v1 = self.l1.insert(line, t, data, is_write);
        self.spill_from_l1(shared, v1, t);
    }

    /// A dirty line evicted from L1 lands in L2 when present, else keeps
    /// falling down the hierarchy.
    fn spill_from_l1(&mut self, shared: &mut SharedMem, victim: Option<u64>, t: u64) {
        let Some(line) = victim else { return };
        if self.l2.mark_dirty(line) {
            return;
        }
        spill_l2_victim(Some(line), shared, t);
    }

    /// Issue a software prefetch at tick `now` on behalf of the static
    /// prefetch instruction at `pc`. Never blocks the core; fills L1
    /// (and the levels below) when the line is absent.
    pub fn prefetch(&mut self, shared: &mut SharedMem, addr: u64, now: u64, pc: u64) {
        let addr = addr | self.address_space;
        let line = addr / LINE_BYTES;
        self.stats.sw_prefetches += 1;
        self.pf_outstanding.retain(|&done| done > now);
        if self.pf_outstanding.len() >= self.pf_capacity {
            self.stats.sw_prefetches_dropped += 1;
            if let Some(p) = &mut self.perf {
                p.on_dropped(pc);
            }
            return;
        }
        // Prefetches translate too — installing TLB entries early is one
        // of the side benefits the paper measures (Fig. 10).
        let t = self.tlb.translate(addr, now);
        if let Lookup::Hit { ready_at } = self.l1.probe(line) {
            self.count_redundant(pc, ready_at <= now);
            return;
        }
        if let Lookup::Hit { ready_at } = self.l2.access(line, t, false) {
            let data = ready_at.max(t) + self.l2.latency_ticks;
            let v1 = self.l1.insert(line, t, data, false);
            self.spill_from_l1(shared, v1, t);
            self.count_redundant(pc, ready_at <= now);
            return;
        }
        let l3_hit = shared
            .l3
            .as_mut()
            .and_then(|l3| match l3.access(line, t, false) {
                Lookup::Hit { ready_at } => Some(ready_at.max(t) + l3.latency_ticks),
                Lookup::Miss => None,
            });
        if let Some(data) = l3_hit {
            // Pulled closer from the LLC: a useful prefetch, judged at
            // demand time like a DRAM fetch (not redundant).
            if let Some(p) = &mut self.perf {
                p.on_issue(pc, line, now);
            }
            let v2 = self.l2.insert(line, t, data, false);
            spill_l2_victim(v2, shared, t);
            let v1 = self.l1.insert(line, t, data, false);
            self.spill_from_l1(shared, v1, t);
            return;
        }
        if let Some(p) = &mut self.perf {
            p.on_issue(pc, line, now);
        }
        let data = shared.dram.fill(t);
        self.pf_outstanding.push(data);
        self.install_all_levels(shared, line, t, data, false);
    }

    /// A software prefetch found its line already in this core's private
    /// caches: `resident` when the fill had completed, in flight otherwise.
    fn count_redundant(&mut self, pc: u64, resident: bool) {
        if resident {
            self.stats.sw_prefetches_redundant_resident += 1;
        } else {
            self.stats.sw_prefetches_redundant_inflight += 1;
        }
        if let Some(p) = &mut self.perf {
            p.on_redundant(pc, resident);
        }
    }

    /// Attribute `ticks` of demand-load stall (beyond the pipelined
    /// threshold) to the load retiring at `pc`. No-op unless per-PC
    /// profiling was enabled when this memory system was built.
    pub fn record_stall(&mut self, pc: u64, ticks: u64) {
        if let Some(p) = &mut self.perf {
            p.on_stall(pc, ticks);
        }
    }

    /// Finish per-PC profiling: classify still-tracked prefetched lines
    /// as `unused_at_end` and hand the profile over. `None` when
    /// profiling was not enabled for this memory system.
    pub fn take_perf(&mut self) -> Option<PcProfile> {
        self.perf.take().map(|mut p| p.take())
    }

    /// L1 hit latency in ticks (used by core models as the "pipelined,
    /// no stall" threshold).
    #[must_use]
    pub fn l1_latency_ticks(&self) -> u64 {
        self.l1.latency_ticks
    }

    /// Memory-system statistics.
    #[must_use]
    pub fn stats(&self) -> MemSysStats {
        self.stats
    }

    /// Cache counters: `(l1_hits, l1_misses, l2_hits, l2_misses)`.
    #[must_use]
    pub fn cache_counters(&self) -> (u64, u64, u64, u64) {
        (
            self.l1.hits(),
            self.l1.misses(),
            self.l2.hits(),
            self.l2.misses(),
        )
    }

    /// TLB counters: `(hits, misses)`.
    #[must_use]
    pub fn tlb_counters(&self) -> (u64, u64) {
        (self.tlb.hits(), self.tlb.misses())
    }
}

/// Fill `line` into L2 on behalf of the hardware stride prefetcher.
fn hw_fill_l2(l2: &mut Cache, shared: &mut SharedMem, line: u64, now: u64) {
    if matches!(l2.probe(line), Lookup::Hit { .. }) {
        return;
    }
    if let Some(l3) = &mut shared.l3 {
        if let Lookup::Hit { ready_at } = l3.probe(line) {
            let data = ready_at.max(now) + l3.latency_ticks;
            spill_l2_victim(l2.insert(line, now, data, false), shared, now);
            return;
        }
    }
    let data = shared.dram.fill(now);
    if let Some(l3) = &mut shared.l3 {
        if l3.insert(line, now, data, false).is_some() {
            shared.dram.writeback(now);
        }
    }
    spill_l2_victim(l2.insert(line, now, data, false), shared, now);
}

/// Route a dirty line leaving L2 into L3 when it is present there, else
/// to DRAM.
fn spill_l2_victim(victim: Option<u64>, shared: &mut SharedMem, now: u64) {
    let Some(line) = victim else { return };
    if let Some(l3) = &mut shared.l3 {
        if l3.mark_dirty(line) {
            return;
        }
    }
    shared.dram.writeback(now);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MachineConfig, TICKS_PER_CYCLE};

    fn haswell_mem() -> (MemSys, SharedMem) {
        let cfg = MachineConfig::haswell();
        (MemSys::new(&cfg), SharedMem::new(&cfg))
    }

    #[test]
    fn cold_miss_pays_dram_latency() {
        let (mut m, mut sh) = haswell_mem();
        let lat = m.access(&mut sh, 0x10_0000, 0, AccessKind::Read, 1);
        assert!(
            lat >= 200 * TICKS_PER_CYCLE,
            "cold miss at least DRAM latency, got {lat}"
        );
        // TLB walk included (Haswell preset: 30-cycle walks).
        assert!(lat >= (200 + 30) * TICKS_PER_CYCLE);
    }

    #[test]
    fn second_access_hits_l1() {
        let (mut m, mut sh) = haswell_mem();
        let lat1 = m.access(&mut sh, 0x10_0000, 0, AccessKind::Read, 1);
        let t = lat1 + 10;
        let lat2 = m.access(&mut sh, 0x10_0000, t, AccessKind::Read, 1);
        assert_eq!(lat2, 4 * TICKS_PER_CYCLE, "L1 hit latency");
    }

    #[test]
    fn prefetch_then_demand_hits() {
        let (mut m, mut sh) = haswell_mem();
        m.prefetch(&mut sh, 0x20_0000, 0, 1);
        // Long after the fill completes: pure L1 hit.
        let lat = m.access(
            &mut sh,
            0x20_0000,
            (300 + 100) * TICKS_PER_CYCLE,
            AccessKind::Read,
            1,
        );
        assert_eq!(lat, 4 * TICKS_PER_CYCLE);
        assert_eq!(m.stats().sw_prefetches, 1);
    }

    #[test]
    fn late_prefetch_gives_partial_benefit() {
        let (mut m, mut sh) = haswell_mem();
        m.prefetch(&mut sh, 0x20_0000, 0, 1);
        // Demand arrives 50 cycles later; fill needs ~280. Must wait the
        // remainder, which is less than a full miss.
        let demand_at = 50 * TICKS_PER_CYCLE;
        let lat = m.access(&mut sh, 0x20_0000, demand_at, AccessKind::Read, 1);
        assert!(lat > 4 * TICKS_PER_CYCLE, "not a clean hit");
        assert!(
            lat < (200 + 80) * TICKS_PER_CYCLE,
            "but cheaper than a full miss: {lat}"
        );
        assert_eq!(m.stats().late_fill_hits, 1);
    }

    #[test]
    fn prefetch_queue_capacity_drops_excess() {
        let cfg = MachineConfig {
            prefetch_queue: 4,
            ..MachineConfig::haswell()
        };
        let mut m = MemSys::new(&cfg);
        let mut sh = SharedMem::new(&cfg);
        for i in 0..10u64 {
            m.prefetch(&mut sh, 0x100_0000 + i * 4096, 0, 1);
        }
        assert_eq!(m.stats().sw_prefetches, 10);
        assert_eq!(m.stats().sw_prefetches_dropped, 6);
    }

    #[test]
    fn redundant_prefetch_is_counted_not_refetched() {
        let (mut m, mut sh) = haswell_mem();
        m.prefetch(&mut sh, 0x30_0000, 0, 1);
        let reads_before = sh.dram.lines_read();
        m.prefetch(&mut sh, 0x30_0000, 1, 1);
        assert_eq!(sh.dram.lines_read(), reads_before);
        assert_eq!(m.stats().sw_prefetches_redundant(), 1);
    }

    #[test]
    fn stride_stream_gets_hardware_fills() {
        let (mut m, mut sh) = haswell_mem();
        let mut t = 0;
        // March through lines sequentially: L1 misses train the table.
        for i in 0..64u64 {
            let lat = m.access(&mut sh, 0x40_0000 + i * 64, t, AccessKind::Read, 42);
            t += lat + 8;
        }
        assert!(
            m.stats().hw_prefetch_fills > 10,
            "stride stream detected: {:?}",
            m.stats()
        );
        // Late in the stream, misses should be L2 hits (cheap), not DRAM.
        let lat = m.access(&mut sh, 0x40_0000 + 64 * 64, t, AccessKind::Read, 42);
        assert!(
            lat < 100 * TICKS_PER_CYCLE,
            "HW-prefetched line should be close: {lat}"
        );
    }

    #[test]
    fn writebacks_charged_for_dirty_evictions() {
        let (mut m, mut sh) = haswell_mem();
        // Write a stream larger than the whole hierarchy (L3 is 2 MiB)
        // so dirty lines are forced all the way out to DRAM.
        let mut t = 0;
        for i in 0..65_536u64 {
            let lat = m.access(&mut sh, 0x50_0000 + i * 64, t, AccessKind::Write, 7);
            t += lat;
        }
        assert!(
            sh.dram.lines_written() > 0,
            "dirty evictions must reach DRAM"
        );
    }

    #[test]
    fn small_dirty_working_set_stays_on_chip() {
        let (mut m, mut sh) = haswell_mem();
        // 1024 dirty lines (64 KiB) cycle between L1 and L2/L3 without
        // ever consuming DRAM write bandwidth.
        let mut t = 0;
        for round in 0..4u64 {
            for i in 0..1024u64 {
                let lat = m.access(&mut sh, 0x50_0000 + i * 64, t, AccessKind::Write, 7);
                t += lat + round;
            }
        }
        assert_eq!(
            sh.dram.lines_written(),
            0,
            "on-chip dirty data must not be written back"
        );
    }
}
