//! The reference memory hierarchy and core models: the timing model as
//! it stood before its data structures were tuned, written for
//! obviousness rather than speed. Caches are arrays of line structs with
//! a valid bit and a per-line `last_use` for LRU, found by linear scan
//! and keyed by address; the TLB is a linear list of `(page, ready,
//! last_use)` tuples; the out-of-order core keeps its operand readiness
//! in a `HashMap` of per-frame vectors, its reorder buffer in a
//! `VecDeque` and its outstanding misses in a `BinaryHeap`.
//!
//! Every rule is the production model's rule: same latencies, same
//! replacement (the first of equally old ways or slots), same write-back
//! routing, same prefetch outcomes. Only the representation differs, so
//! any disagreement is a bug in one of the two.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use swpf_ir::interp::{Event, EventKind};
use swpf_sim::presets::{CacheConfig, CoreKind, MachineConfig};
use swpf_sim::{LINE_BYTES, TICKS_PER_CYCLE};

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    ready: u64,
    last_use: u64,
}

/// One set-associative cache level, keyed by byte address.
#[derive(Debug)]
pub struct RefCache {
    sets: usize,
    ways: usize,
    latency: u64,
    lines: Vec<Line>,
    pub hits: u64,
    pub misses: u64,
}

impl RefCache {
    pub fn new(cfg: &CacheConfig) -> Self {
        let ways = cfg.ways.max(1) as usize;
        let sets = ((cfg.capacity / LINE_BYTES).max(1) as usize / ways).max(1);
        RefCache {
            sets,
            ways,
            latency: cfg.latency * TICKS_PER_CYCLE,
            lines: vec![Line::default(); sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The ways of `addr`'s set.
    fn set(&mut self, addr: u64) -> &mut [Line] {
        let base = ((addr / LINE_BYTES) as usize % self.sets) * self.ways;
        &mut self.lines[base..base + self.ways]
    }

    fn find(&mut self, addr: u64) -> Option<&mut Line> {
        let tag = addr / LINE_BYTES;
        self.set(addr).iter_mut().find(|l| l.valid && l.tag == tag)
    }

    /// Lookup without touching LRU, dirty bits or counters: the tick the
    /// line's data is ready, when present.
    fn probe(&mut self, addr: u64) -> Option<u64> {
        self.find(addr).map(|l| l.ready)
    }

    /// Demand lookup: refreshes LRU, ors in the dirty bit, counts.
    fn access(&mut self, addr: u64, now: u64, is_write: bool) -> Option<u64> {
        let ready = self.find(addr).map(|l| {
            l.last_use = now;
            l.dirty |= is_write;
            l.ready
        });
        match ready {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        ready
    }

    /// Install `addr`'s line in the first invalid way, else over the
    /// first least recently used one; returns the address of a dirty
    /// victim.
    fn insert(&mut self, addr: u64, now: u64, ready: u64, is_write: bool) -> Option<u64> {
        let set = self.set(addr);
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (way, l) in set.iter().enumerate() {
            if !l.valid {
                victim = way;
                break;
            }
            if l.last_use < oldest {
                oldest = l.last_use;
                victim = way;
            }
        }
        let l = &mut set[victim];
        let writeback = (l.valid && l.dirty).then_some(l.tag * LINE_BYTES);
        *l = Line {
            tag: addr / LINE_BYTES,
            valid: true,
            dirty: is_write,
            ready,
            last_use: now,
        };
        writeback
    }

    fn mark_dirty(&mut self, addr: u64) -> bool {
        self.find(addr).map(|l| l.dirty = true).is_some()
    }
}

/// A fully associative TLB: linear scan, LRU victim, `walkers` walk ports.
#[derive(Debug)]
pub struct RefTlb {
    page_bits: u32,
    entries: usize,
    walk: u64,
    /// `(page, ready, last_use)`; a victim is overwritten in place.
    slots: Vec<(u64, u64, u64)>,
    walker_free: Vec<u64>,
    pub hits: u64,
    pub misses: u64,
}

impl RefTlb {
    fn new(cfg: &MachineConfig) -> Self {
        RefTlb {
            page_bits: cfg.tlb.page_bits,
            entries: cfg.tlb.entries.max(1) as usize,
            walk: cfg.tlb.walk_latency * TICKS_PER_CYCLE,
            slots: Vec::new(),
            walker_free: vec![0; cfg.tlb.walkers.max(1) as usize],
            hits: 0,
            misses: 0,
        }
    }

    fn translate(&mut self, addr: u64, now: u64) -> u64 {
        let page = addr >> self.page_bits;
        if let Some(s) = self.slots.iter_mut().find(|s| s.0 == page) {
            s.2 = now;
            self.hits += 1;
            return s.1.max(now);
        }
        self.misses += 1;
        let w = self.walker_free.iter_mut().min_by_key(|t| **t).unwrap();
        let done = (*w).max(now) + self.walk;
        *w = done;
        if self.slots.len() < self.entries {
            self.slots.push((page, done, now));
        } else {
            // `min_by_key` keeps the first of equal keys.
            *self.slots.iter_mut().min_by_key(|s| s.2).unwrap() = (page, done, now);
        }
        done
    }
}

/// One DRAM channel: fixed latency behind a line-occupancy queue.
#[derive(Debug)]
pub struct RefDram {
    latency: u64,
    occupancy: u64,
    next_free: u64,
    pub read: u64,
    pub written: u64,
}

impl RefDram {
    fn transfer(&mut self, now: u64) -> u64 {
        let start = self.next_free.max(now);
        self.next_free = start + self.occupancy;
        start
    }

    fn fill(&mut self, now: u64) -> u64 {
        self.read += 1;
        self.transfer(now) + self.latency
    }

    fn writeback(&mut self, now: u64) {
        self.written += 1;
        self.transfer(now);
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// Per-PC reference-prediction table: 64 entries, 16 strides ahead,
/// after two confirmations.
#[derive(Debug)]
struct RefStride(Vec<StrideEntry>);

impl RefStride {
    fn observe(&mut self, pc: u64, addr: u64) -> Option<u64> {
        let slots = self.0.len();
        let e = &mut self.0[pc as usize % slots];
        if !e.valid || e.pc != pc {
            *e = StrideEntry {
                pc,
                last_addr: addr,
                valid: true,
                ..StrideEntry::default()
            };
            return None;
        }
        let stride = addr.wrapping_sub(e.last_addr) as i64;
        if stride == e.stride && stride != 0 && stride.unsigned_abs() <= 2048 {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;
        (e.confidence >= 2).then(|| addr.wrapping_add((e.stride * 16) as u64))
    }
}

/// What the cores of a machine share: the L3 and the DRAM channel.
#[derive(Debug)]
pub struct RefShared {
    pub l3: Option<RefCache>,
    pub dram: RefDram,
}

impl RefShared {
    pub fn new(cfg: &MachineConfig) -> Self {
        RefShared {
            l3: cfg.l3.as_ref().map(RefCache::new),
            dram: RefDram {
                latency: cfg.dram.latency * TICKS_PER_CYCLE,
                occupancy: LINE_BYTES * TICKS_PER_CYCLE / cfg.dram.bytes_per_cycle.max(1),
                next_free: 0,
                read: 0,
                written: 0,
            },
        }
    }

    /// A dirty line leaving L2 lands in L3 when present there, else DRAM.
    fn spill(&mut self, victim: Option<u64>, now: u64) {
        let Some(addr) = victim else { return };
        if !self.l3.as_mut().is_some_and(|l3| l3.mark_dirty(addr)) {
            self.dram.writeback(now);
        }
    }

    /// Fetch from DRAM and install in L3, writing back a dirty L3 victim.
    fn fetch(&mut self, addr: u64, now: u64) -> u64 {
        let data = self.dram.fill(now);
        if let Some(l3) = &mut self.l3 {
            if l3.insert(addr, now, data, false).is_some() {
                self.dram.writeback(now);
            }
        }
        data
    }
}

/// Software-prefetch outcomes and late fills, in production's field
/// order: issued, dropped, redundant resident, redundant in flight, late
/// fill hits, hardware stride fills.
pub type RefMemStats = [u64; 6];

/// One core's private hierarchy: L1, L2, TLB, stride prefetcher and the
/// software-prefetch queue.
#[derive(Debug)]
pub struct RefMem {
    pub l1: RefCache,
    pub l2: RefCache,
    pub tlb: RefTlb,
    stride: Option<RefStride>,
    pf_outstanding: Vec<u64>,
    pf_capacity: usize,
    address_space: u64,
    pub stats: RefMemStats,
}

impl RefMem {
    pub fn new(cfg: &MachineConfig, core_id: u64) -> Self {
        RefMem {
            l1: RefCache::new(&cfg.l1),
            l2: RefCache::new(&cfg.l2),
            tlb: RefTlb::new(cfg),
            stride: cfg
                .hw_stride_prefetcher
                .then(|| RefStride(vec![StrideEntry::default(); 64])),
            pf_outstanding: Vec::new(),
            pf_capacity: cfg.prefetch_queue.max(1),
            address_space: core_id << 44,
            stats: [0; 6],
        }
    }

    /// A demand access at `now`; returns the load-to-use latency.
    pub fn access(
        &mut self,
        sh: &mut RefShared,
        addr: u64,
        now: u64,
        is_write: bool,
        pc: u64,
    ) -> u64 {
        let addr = addr | self.address_space;
        let t = self.tlb.translate(addr, now);
        if let Some(ready) = self.l1.access(addr, t, is_write) {
            self.stats[4] += u64::from(ready > t);
            return ready.max(t) + self.l1.latency - now;
        }
        if let Some(fill) = self.stride.as_mut().and_then(|s| s.observe(pc, addr)) {
            self.stats[5] += 1;
            self.hw_fill_l2(sh, fill, now);
        }
        if let Some(ready) = self.l2.access(addr, t, false) {
            self.stats[4] += u64::from(ready > t);
            let data = ready.max(t) + self.l2.latency;
            self.install_l1(sh, addr, t, data, is_write);
            return data - now;
        }
        let l3_hit = sh.l3.as_mut().and_then(|l3| {
            let ready = l3.access(addr, t, false)?;
            Some(ready.max(t) + l3.latency)
        });
        let data = match l3_hit {
            Some(data) => data,
            None => sh.fetch(addr, t),
        };
        self.install_l2_l1(sh, addr, t, data, is_write);
        data - now
    }

    /// A software prefetch at `now`: never blocks, may be dropped when the
    /// queue is full, counts as redundant when L1 or L2 has the line.
    pub fn prefetch(&mut self, sh: &mut RefShared, addr: u64, now: u64) {
        let addr = addr | self.address_space;
        self.stats[0] += 1;
        self.pf_outstanding.retain(|&done| done > now);
        if self.pf_outstanding.len() >= self.pf_capacity {
            self.stats[1] += 1;
            return;
        }
        let t = self.tlb.translate(addr, now);
        if let Some(ready) = self.l1.probe(addr) {
            self.stats[if ready > now { 3 } else { 2 }] += 1;
            return;
        }
        if let Some(ready) = self.l2.access(addr, t, false) {
            let data = ready.max(t) + self.l2.latency;
            self.install_l1(sh, addr, t, data, false);
            self.stats[if ready > now { 3 } else { 2 }] += 1;
            return;
        }
        let l3_hit = sh.l3.as_mut().and_then(|l3| {
            let ready = l3.access(addr, t, false)?;
            Some(ready.max(t) + l3.latency)
        });
        let data = match l3_hit {
            Some(data) => data,
            None => {
                let data = sh.fetch(addr, t);
                self.pf_outstanding.push(data);
                data
            }
        };
        self.install_l2_l1(sh, addr, t, data, false);
    }

    fn install_l2_l1(&mut self, sh: &mut RefShared, addr: u64, t: u64, data: u64, w: bool) {
        let v2 = self.l2.insert(addr, t, data, false);
        sh.spill(v2, t);
        self.install_l1(sh, addr, t, data, w);
    }

    /// Install in L1; a dirty victim lands in L2 when present there, else
    /// keeps falling.
    fn install_l1(&mut self, sh: &mut RefShared, addr: u64, t: u64, data: u64, w: bool) {
        if let Some(victim) = self.l1.insert(addr, t, data, w) {
            if !self.l2.mark_dirty(victim) {
                sh.spill(Some(victim), t);
            }
        }
    }

    /// The stride prefetcher's fill: into L2 (and L3) unless L2 has it.
    fn hw_fill_l2(&mut self, sh: &mut RefShared, addr: u64, now: u64) {
        if self.l2.probe(addr).is_some() {
            return;
        }
        let l3_ready = sh.l3.as_mut().and_then(|l3| l3.probe(addr));
        let data = match (l3_ready, &sh.l3) {
            (Some(ready), Some(l3)) => ready.max(now) + l3.latency,
            _ => sh.fetch(addr, now),
        };
        let v2 = self.l2.insert(addr, now, data, false);
        sh.spill(v2, now);
    }
}

/// The memory a reference core drives: one access or prefetch at a time.
pub trait Hier {
    fn access(&mut self, addr: u64, now: u64, is_write: bool, pc: u64) -> u64;
    fn prefetch(&mut self, addr: u64, now: u64, pc: u64);
}

/// Instruction classes: total, loads, stores, prefetches, branches.
pub type RefCounts = [u64; 5];

/// A core model, in-order or out-of-order, fed one retire event at a time.
#[derive(Debug)]
pub struct RefCore {
    kind: CoreKind,
    issue_inc: u64,
    /// L1 hit latency: loads at or below it neither stall the in-order
    /// core nor take an MSHR on the out-of-order one.
    pipelined: u64,
    rob: usize,
    mshrs: usize,
    next_issue: u64,
    ready: HashMap<u64, Vec<u64>>,
    rob_q: VecDeque<u64>,
    last_retire: u64,
    last_issue: u64,
    misses: BinaryHeap<Reverse<u64>>,
    clock: u64,
    pub counts: RefCounts,
}

impl RefCore {
    pub fn new(cfg: &MachineConfig) -> Self {
        RefCore {
            kind: cfg.core,
            issue_inc: (TICKS_PER_CYCLE / u64::from(cfg.width)).max(1),
            pipelined: cfg.l1.latency * TICKS_PER_CYCLE,
            rob: cfg.rob.max(8),
            mshrs: cfg.mshrs.max(1),
            next_issue: 0,
            ready: HashMap::new(),
            rob_q: VecDeque::new(),
            last_retire: 0,
            last_issue: 0,
            misses: BinaryHeap::new(),
            clock: 0,
            counts: [0; 5],
        }
    }

    /// Completion time so far, in ticks.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    fn count(&mut self, kind: &EventKind) {
        self.counts[0] += 1;
        match kind {
            EventKind::Load { .. } => self.counts[1] += 1,
            EventKind::Store { .. } => self.counts[2] += 1,
            EventKind::Prefetch { .. } => self.counts[3] += 1,
            EventKind::Branch { .. } => self.counts[4] += 1,
            _ => {}
        }
    }

    pub fn retire(&mut self, mem: &mut impl Hier, ev: &Event<'_>) {
        self.count(&ev.kind);
        match self.kind {
            CoreKind::InOrder => self.retire_in_order(mem, ev),
            CoreKind::OutOfOrder => self.retire_out_of_order(mem, ev),
        }
    }

    /// Program order, `issue_inc` apart; a load slower than an L1 hit
    /// stalls everything behind it.
    fn retire_in_order(&mut self, mem: &mut impl Hier, ev: &Event<'_>) {
        let t = self.next_issue;
        self.next_issue = t + self.issue_inc;
        match ev.kind {
            EventKind::Load { addr, .. } => {
                let lat = mem.access(addr, t, false, ev.pc);
                if lat > self.pipelined {
                    self.next_issue = t + lat;
                }
            }
            EventKind::Store { addr, .. } => {
                mem.access(addr, t, true, ev.pc);
            }
            EventKind::Prefetch { addr, valid: true } => mem.prefetch(addr, t, ev.pc),
            _ => {}
        }
        self.clock = self.clock.max(self.next_issue);
    }

    /// Dispatch in order behind the front end and the ROB, execute when
    /// operands are ready, hold an MSHR per outstanding load miss,
    /// retire in order.
    fn retire_out_of_order(&mut self, mem: &mut impl Hier, ev: &Event<'_>) {
        let mut dispatch = self.last_issue + self.issue_inc;
        if self.rob_q.len() >= self.rob {
            dispatch = dispatch.max(self.rob_q.pop_front().unwrap());
        }
        let regs = self.ready.entry(ev.frame).or_default();
        let mut t = dispatch;
        for op in ev.operands {
            t = t.max(regs.get(op.index()).copied().unwrap_or(0));
        }
        let alu = t + TICKS_PER_CYCLE;
        let done = match ev.kind {
            EventKind::Load { addr, .. } => {
                while self.misses.peek().is_some_and(|m| m.0 <= t) {
                    self.misses.pop();
                }
                if self.misses.len() >= self.mshrs {
                    t = t.max(self.misses.pop().unwrap().0);
                }
                let lat = mem.access(addr, t, false, ev.pc);
                if lat > self.pipelined {
                    self.misses.push(Reverse(t + lat));
                }
                t + lat
            }
            EventKind::Store { addr, .. } => {
                mem.access(addr, t, true, ev.pc);
                alu
            }
            EventKind::Prefetch { addr, valid } => {
                if valid {
                    mem.prefetch(addr, t, ev.pc);
                }
                alu
            }
            _ => alu,
        };
        if matches!(ev.kind, EventKind::Ret) {
            self.ready.remove(&ev.frame);
        } else {
            let regs = self.ready.entry(ev.frame).or_default();
            let idx = ev.result.index();
            if regs.len() <= idx {
                regs.resize(idx + 1, 0);
            }
            regs[idx] = done;
        }
        self.last_retire = self.last_retire.max(done);
        self.rob_q.push_back(self.last_retire);
        self.last_issue = dispatch;
        self.clock = self.clock.max(self.last_retire);
    }
}
