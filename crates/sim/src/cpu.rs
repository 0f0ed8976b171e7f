//! Core timing models: stall-on-miss in-order and dataflow out-of-order.

use crate::machine::Lane;
use crate::memsys::{AccessKind, MemSys, SharedMem};
use crate::presets::{CoreKind, MachineConfig};
use crate::scoreboard::Scoreboard;
use crate::TICKS_PER_CYCLE;
use swpf_ir::interp::{Event, ExecObserver};

/// Instruction-class counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstCounts {
    /// All retired instructions.
    pub total: u64,
    /// Demand loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Software prefetches.
    pub prefetches: u64,
    /// Branches.
    pub branches: u64,
}

/// Match `ev.kind` once, reading its fields in place, and expand
/// `$arm!(name, args..)`: every core model has one method per kind,
/// taking `(mem, shared, ev, args..)`. A `Lane` (`machine.rs`) expands
/// the arm into one call on a model known by type, `Lanes::retire` into
/// one loop per core kind, so a row matches the kind once per event.
macro_rules! by_kind {
    ($ev:expr, $arm:ident) => {{
        use swpf_ir::interp::EventKind as K;
        match $ev.kind {
            K::Load { addr, .. } => $arm!(load, addr),
            K::Store { addr, .. } => $arm!(store, addr),
            K::Prefetch { addr, valid } => $arm!(prefetch, addr, valid),
            K::Branch { .. } => $arm!(branch),
            K::Ret => $arm!(ret),
            K::Alu | K::Call | K::Alloc => $arm!(alu),
        }
    }};
}
pub(crate) use by_kind;

/// Evaluate `$body` with `$model` naming the core model type that `$kind`
/// (a [`CoreKind`]) selects: a driver's one match on the model per run,
/// compiling `$body` once per model.
macro_rules! by_model {
    ($kind:expr, $model:ident, $body:expr) => {
        match $kind {
            $crate::CoreKind::InOrder => {
                type $model = $crate::cpu::InOrder;
                $body
            }
            $crate::CoreKind::OutOfOrder => {
                type $model = $crate::cpu::OutOfOrder;
                $body
            }
        }
    };
}
pub(crate) use by_model;

/// One core model, known by type: its six arms (`by_kind!`), its clock
/// and its counters. Every driver picks the type once per run and
/// retires events through its `Lane` (`machine.rs`).
pub(crate) trait CoreModel {
    fn new(cfg: &MachineConfig) -> Self;
    /// Completion time in ticks ([`Core::clock_ticks`]).
    fn clock_ticks(&self) -> u64;
    fn counts(&self) -> InstCounts;
    fn load(&mut self, m: &mut MemSys, s: &mut SharedMem, ev: &Event<'_>, addr: u64);
    fn store(&mut self, m: &mut MemSys, s: &mut SharedMem, ev: &Event<'_>, addr: u64);
    fn prefetch(&mut self, m: &mut MemSys, s: &mut SharedMem, ev: &Event<'_>, a: u64, v: bool);
    fn branch(&mut self, m: &mut MemSys, s: &mut SharedMem, ev: &Event<'_>);
    fn ret(&mut self, m: &mut MemSys, s: &mut SharedMem, ev: &Event<'_>);
    fn alu(&mut self, m: &mut MemSys, s: &mut SharedMem, ev: &Event<'_>);
}

/// A core timing model consuming interpreter events.
#[derive(Debug)]
pub enum Core {
    /// Stall-on-miss pipeline.
    InOrder(InOrder),
    /// Dataflow issue bounded by ROB and MSHRs.
    OutOfOrder(OutOfOrder),
}

impl Core {
    /// Build the model matching a machine configuration.
    #[must_use]
    pub fn new(cfg: &MachineConfig) -> Self {
        match cfg.core {
            CoreKind::InOrder => Core::InOrder(InOrder::new(cfg)),
            CoreKind::OutOfOrder => Core::OutOfOrder(OutOfOrder::new(cfg)),
        }
    }

    /// Account one retired instruction: match the model, then run the
    /// typed `Lane` every driver runs (`machine.rs`). For the oracle and
    /// the unit tests; no driver calls it per event.
    #[inline(always)]
    pub fn retire(&mut self, mem: &mut MemSys, shared: &mut SharedMem, ev: &Event<'_>) {
        match self {
            Core::InOrder(core) => Lane { core, mem, shared }.on_event(ev),
            Core::OutOfOrder(core) => Lane { core, mem, shared }.on_event(ev),
        }
    }

    /// Current completion time in ticks: the in-order core's next issue
    /// slot, the out-of-order core's last retirement. Both only grow, so
    /// each is its own running maximum.
    #[must_use]
    pub fn clock_ticks(&self) -> u64 {
        match self {
            Core::InOrder(c) => c.clock_ticks(),
            Core::OutOfOrder(c) => c.clock_ticks(),
        }
    }

    /// Current completion time in cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.clock_ticks() / TICKS_PER_CYCLE
    }

    /// Instruction-class counters.
    #[must_use]
    pub fn counts(&self) -> InstCounts {
        match self {
            Core::InOrder(c) => c.counts(),
            Core::OutOfOrder(c) => c.counts(),
        }
    }
}

/// In-order pipeline: issues `width` instructions per cycle in program
/// order and stalls completely on any load that misses in the L1
/// (the paper's characterisation of the A53 and Xeon Phi cores).
/// Stores and prefetches retire without stalling.
#[derive(Debug)]
pub struct InOrder {
    issue_inc: u64,
    /// Latencies at or below this are absorbed by the pipeline.
    pipelined_ticks: u64,
    next_issue: u64,
    counts: InstCounts,
}

/// The in-order core's arms (`by_kind!`).
impl CoreModel for InOrder {
    fn new(cfg: &MachineConfig) -> Self {
        InOrder {
            issue_inc: cfg.issue_interval_ticks(),
            pipelined_ticks: cfg.l1.latency * TICKS_PER_CYCLE,
            next_issue: 0,
            counts: InstCounts::default(),
        }
    }

    fn clock_ticks(&self) -> u64 {
        self.next_issue
    }

    fn counts(&self) -> InstCounts {
        self.counts
    }

    #[inline(always)]
    fn load(&mut self, mem: &mut MemSys, sh: &mut SharedMem, ev: &Event<'_>, addr: u64) {
        self.counts.loads += 1;
        let t = self.next_issue;
        let lat = mem.access(sh, addr, t, AccessKind::Read, ev.pc);
        self.alu(mem, sh, ev);
        if lat > self.pipelined_ticks {
            // Stall: nothing issues until the data returns.
            mem.record_stall(ev.pc, lat - self.pipelined_ticks);
            self.next_issue = t + lat;
        }
    }

    #[inline(always)]
    fn store(&mut self, mem: &mut MemSys, sh: &mut SharedMem, ev: &Event<'_>, addr: u64) {
        self.counts.stores += 1;
        let _ = mem.access(sh, addr, self.next_issue, AccessKind::Write, ev.pc);
        self.alu(mem, sh, ev);
    }

    #[inline(always)]
    fn prefetch(
        &mut self,
        mem: &mut MemSys,
        sh: &mut SharedMem,
        ev: &Event<'_>,
        addr: u64,
        valid: bool,
    ) {
        self.counts.prefetches += 1;
        if valid {
            mem.prefetch(sh, addr, self.next_issue, ev.pc);
        }
        self.alu(mem, sh, ev);
    }

    #[inline(always)]
    fn branch(&mut self, mem: &mut MemSys, sh: &mut SharedMem, ev: &Event<'_>) {
        self.counts.branches += 1;
        self.alu(mem, sh, ev);
    }

    #[inline(always)]
    fn ret(&mut self, mem: &mut MemSys, sh: &mut SharedMem, ev: &Event<'_>) {
        self.alu(mem, sh, ev);
    }

    #[inline(always)]
    fn alu(&mut self, _: &mut MemSys, _: &mut SharedMem, _: &Event<'_>) {
        self.counts.total += 1;
        self.next_issue += self.issue_inc;
    }
}

/// Out-of-order core: each instruction issues when its operands are
/// ready, subject to issue bandwidth, a reorder buffer (an instruction
/// cannot issue more than `rob` instructions ahead of the oldest
/// incomplete one), and a bounded number of outstanding demand misses
/// (MSHRs). This is what lets Haswell and the A57 overlap independent
/// indirect misses on their own — the reason their prefetch speedups are
/// modest compared to the in-order cores (paper Fig. 4).
#[derive(Debug)]
pub struct OutOfOrder {
    issue_inc: u64,
    mshrs: usize,
    alu_ticks: u64,
    miss_threshold: u64,
    /// Per-frame value readiness.
    ready: Scoreboard,
    /// Program-order retirement times of the last `rob` instructions, as
    /// a ring: `rob_q[rob_head]` is the oldest. Slots start at 0, which
    /// never delays dispatch, so the window needs no fill count.
    rob_q: Box<[u64]>,
    rob_head: usize,
    last_retire: u64,
    last_issue: u64,
    /// Completion times of outstanding demand misses, unordered; never
    /// more than `mshrs` of them.
    misses: Vec<u64>,
    counts: InstCounts,
}

/// The out-of-order core's bookkeeping around its arms.
impl OutOfOrder {
    /// Acquire an MSHR for a load ready to issue at `t`: retire the
    /// misses that have completed by then and, if every MSHR is still
    /// busy, wait for the earliest one. Returns the issue tick.
    #[inline]
    fn acquire_mshr(&mut self, t: u64) -> u64 {
        if self.misses.is_empty() {
            return t;
        }
        self.misses.retain(|&done| done > t);
        if self.misses.len() < self.mshrs {
            return t;
        }
        // Every MSHR is busy, so there is a miss to wait for.
        let earliest = (0..self.misses.len())
            .min_by_key(|&i| self.misses[i])
            .unwrap_or(0);
        self.misses.swap_remove(earliest)
    }

    /// Dispatch in program order, bounded by front-end bandwidth and by
    /// ROB occupancy (cannot dispatch more than `rob` instructions ahead
    /// of the oldest unretired one). Operand readiness does NOT delay
    /// dispatch — stalled instructions wait in reservation stations
    /// while younger independent work proceeds — but execution waits
    /// for operands. Returns the dispatch and execution ticks.
    #[inline(always)]
    fn issue(&mut self, ev: &Event<'_>) -> (u64, u64) {
        self.counts.total += 1;
        let dispatch = (self.last_issue + self.issue_inc).max(self.rob_q[self.rob_head]);
        self.ready.select(ev.frame);
        let mut t = dispatch;
        for op in ev.operands {
            t = t.max(self.ready.ready_at(op.index()));
        }
        (dispatch, t)
    }

    /// The result is ready at `done`; retire in order into the oldest
    /// ROB slot.
    #[inline(always)]
    fn finish(&mut self, ev: &Event<'_>, dispatch: u64, done: u64) {
        self.ready.set_ready(ev.result.index(), done);
        self.last_retire = self.last_retire.max(done);
        self.rob_q[self.rob_head] = self.last_retire;
        self.rob_head += 1;
        if self.rob_head == self.rob_q.len() {
            self.rob_head = 0;
        }
        self.last_issue = dispatch;
    }
}

/// The out-of-order core's arms (`by_kind!`), each between `issue` and
/// `finish`.
impl CoreModel for OutOfOrder {
    fn new(cfg: &MachineConfig) -> Self {
        let mshrs = cfg.mshrs.max(1);
        OutOfOrder {
            issue_inc: cfg.issue_interval_ticks(),
            mshrs,
            alu_ticks: TICKS_PER_CYCLE,
            miss_threshold: cfg.l1.latency * TICKS_PER_CYCLE,
            ready: Scoreboard::default(),
            rob_q: vec![0; cfg.rob.max(8)].into_boxed_slice(),
            rob_head: 0,
            last_retire: 0,
            last_issue: 0,
            misses: Vec::with_capacity(mshrs),
            counts: InstCounts::default(),
        }
    }

    fn clock_ticks(&self) -> u64 {
        self.last_retire
    }

    fn counts(&self) -> InstCounts {
        self.counts
    }

    #[inline(always)]
    fn load(&mut self, mem: &mut MemSys, sh: &mut SharedMem, ev: &Event<'_>, addr: u64) {
        let (dispatch, t) = self.issue(ev);
        self.counts.loads += 1;
        let t = self.acquire_mshr(t);
        let lat = mem.access(sh, addr, t, AccessKind::Read, ev.pc);
        if lat > self.miss_threshold {
            // Attributed as outstanding-miss latency beyond the
            // pipelined threshold; the dataflow model may hide part of
            // it under younger independent work.
            mem.record_stall(ev.pc, lat - self.miss_threshold);
            self.misses.push(t + lat);
        }
        self.finish(ev, dispatch, t + lat);
    }

    #[inline(always)]
    fn store(&mut self, mem: &mut MemSys, sh: &mut SharedMem, ev: &Event<'_>, addr: u64) {
        let (dispatch, t) = self.issue(ev);
        self.counts.stores += 1;
        let _ = mem.access(sh, addr, t, AccessKind::Write, ev.pc);
        self.finish(ev, dispatch, t + self.alu_ticks);
    }

    #[inline(always)]
    fn prefetch(
        &mut self,
        mem: &mut MemSys,
        sh: &mut SharedMem,
        ev: &Event<'_>,
        addr: u64,
        valid: bool,
    ) {
        let (dispatch, t) = self.issue(ev);
        self.counts.prefetches += 1;
        if valid {
            mem.prefetch(sh, addr, t, ev.pc);
        }
        self.finish(ev, dispatch, t + self.alu_ticks);
    }

    #[inline(always)]
    fn branch(&mut self, mem: &mut MemSys, sh: &mut SharedMem, ev: &Event<'_>) {
        self.counts.branches += 1;
        self.alu(mem, sh, ev);
    }

    /// The returning frame's values are forgotten.
    #[inline(always)]
    fn ret(&mut self, mem: &mut MemSys, sh: &mut SharedMem, ev: &Event<'_>) {
        self.alu(mem, sh, ev);
        self.ready.free_frame();
    }

    #[inline(always)]
    fn alu(&mut self, _: &mut MemSys, _: &mut SharedMem, ev: &Event<'_>) {
        let (dispatch, t) = self.issue(ev);
        self.finish(ev, dispatch, t + self.alu_ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;
    use swpf_ir::interp::EventKind;
    use swpf_ir::ValueId;

    fn setup(cfg: &MachineConfig) -> (Core, MemSys, SharedMem) {
        (Core::new(cfg), MemSys::new(cfg), SharedMem::new(cfg))
    }

    /// Retire one frame-0 event whose pc is its result id.
    fn retire(
        core: &mut Core,
        mem: &mut MemSys,
        sh: &mut SharedMem,
        kind: EventKind,
        result: u32,
        operands: &[ValueId],
    ) {
        let ev = Event {
            pc: u64::from(result),
            frame: 0,
            result: ValueId(result),
            kind,
            operands,
        };
        core.retire(mem, sh, &ev);
    }

    fn alu(core: &mut Core, mem: &mut MemSys, sh: &mut SharedMem, result: u32) {
        retire(core, mem, sh, EventKind::Alu, result, &[]);
    }

    fn load(core: &mut Core, mem: &mut MemSys, sh: &mut SharedMem, addr: u64, result: u32) {
        retire(
            core,
            mem,
            sh,
            EventKind::Load { addr, size: 8 },
            result,
            &[],
        );
    }

    #[test]
    fn inorder_stalls_on_miss() {
        let cfg = MachineConfig::a53();
        let (mut core, mut mem, mut sh) = setup(&cfg);
        load(&mut core, &mut mem, &mut sh, 0x10_0000, 1);
        let after_miss = core.cycles();
        assert!(after_miss >= cfg.dram.latency, "stalled for the miss");
        // 100 ALU ops afterwards: ~50 cycles at width 2.
        for i in 0..100 {
            alu(&mut core, &mut mem, &mut sh, 10 + i);
        }
        assert!(core.cycles() - after_miss <= 60);
    }

    #[test]
    fn inorder_prefetch_hides_miss() {
        let cfg = MachineConfig::a53();
        let (mut core, mut mem, mut sh) = setup(&cfg);
        // Prefetch, then enough ALU work to cover the fill, then load.
        let pf = EventKind::Prefetch {
            addr: 0x10_0000,
            valid: true,
        };
        retire(&mut core, &mut mem, &mut sh, pf, 1, &[]);
        for i in 0..800 {
            alu(&mut core, &mut mem, &mut sh, 10 + i);
        }
        let before = core.cycles();
        load(&mut core, &mut mem, &mut sh, 0x10_0000, 900);
        assert!(
            core.cycles() - before < 10,
            "prefetched load must not stall: {} -> {}",
            before,
            core.cycles()
        );
    }

    #[test]
    fn ooo_overlaps_independent_misses() {
        let cfg = MachineConfig::haswell();
        let (mut core, mut mem, mut sh) = setup(&cfg);
        // Ten independent misses to distinct pages.
        for i in 0..10u32 {
            load(
                &mut core,
                &mut mem,
                &mut sh,
                0x100_0000 + u64::from(i) * 8192,
                i + 1,
            );
        }
        let cycles = core.cycles();
        // Serial cost would be ~10 * (200+80) = 2800 cycles; overlapped
        // should be far below half that.
        assert!(
            cycles < 1200,
            "independent misses must overlap, got {cycles}"
        );
    }

    #[test]
    fn ooo_dependent_chain_serialises() {
        let cfg = MachineConfig::haswell();
        let (mut core, mut mem, mut sh) = setup(&cfg);
        // Load 1 -> feeds load 2 -> feeds load 3 (by operand ids).
        for (result, deps) in [(1, &[][..]), (2, &[ValueId(1)]), (3, &[ValueId(2)])] {
            let kind = EventKind::Load {
                addr: u64::from(result) * 0x100_0000,
                size: 8,
            };
            retire(&mut core, &mut mem, &mut sh, kind, result, deps);
        }
        let cycles = core.cycles();
        assert!(
            cycles >= 3 * cfg.dram.latency,
            "dependent chain must serialise, got {cycles}"
        );
    }

    #[test]
    fn ooo_mshr_limit_caps_parallelism() {
        let few = MachineConfig {
            mshrs: 2,
            ..MachineConfig::haswell()
        };
        let many = MachineConfig::haswell(); // 10 MSHRs
        let run = |cfg: &MachineConfig| {
            let (mut core, mut mem, mut sh) = setup(cfg);
            for i in 0..40u32 {
                load(
                    &mut core,
                    &mut mem,
                    &mut sh,
                    0x100_0000 + u64::from(i) * 8192,
                    i + 1,
                );
            }
            core.cycles()
        };
        let slow = run(&few);
        let fast = run(&many);
        assert!(
            slow > fast * 2,
            "2 MSHRs ({slow}) must be much slower than 10 ({fast})"
        );
    }

    #[test]
    fn ooo_rob_limits_runahead() {
        let small = MachineConfig {
            rob: 8,
            ..MachineConfig::haswell()
        };
        let big = MachineConfig::haswell();
        // One miss followed by many ALU ops: a small ROB blocks issue
        // until the miss retires.
        let run = |cfg: &MachineConfig| {
            let (mut core, mut mem, mut sh) = setup(cfg);
            load(&mut core, &mut mem, &mut sh, 0x100_0000, 1);
            for i in 0..64u32 {
                alu(&mut core, &mut mem, &mut sh, 10 + i);
            }
            core.cycles()
        };
        // Both wait for the miss to retire eventually (it's the clock),
        // so compare issue progress via a second miss placed at the end.
        let run2 = |cfg: &MachineConfig| {
            let (mut core, mut mem, mut sh) = setup(cfg);
            load(&mut core, &mut mem, &mut sh, 0x100_0000, 1);
            for i in 0..200u32 {
                alu(&mut core, &mut mem, &mut sh, 10 + i);
            }
            load(&mut core, &mut mem, &mut sh, 0x200_0000, 500);
            core.cycles()
        };
        let _ = run(&small);
        let slow = run2(&small);
        let fast = run2(&big);
        assert!(
            slow > fast,
            "small ROB ({slow}) must serialise more than big ({fast})"
        );
    }

    #[test]
    fn counts_are_tracked() {
        let cfg = MachineConfig::a53();
        let (mut core, mut mem, mut sh) = setup(&cfg);
        load(&mut core, &mut mem, &mut sh, 0x1000, 1);
        alu(&mut core, &mut mem, &mut sh, 2);
        let br = EventKind::Branch { taken: true };
        retire(&mut core, &mut mem, &mut sh, br, 3, &[]);
        let c = core.counts();
        assert_eq!(c.total, 3);
        assert_eq!(c.loads, 1);
        assert_eq!(c.branches, 1);
    }
}
