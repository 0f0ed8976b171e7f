//! Single-core machine: one core model + memory system, and the two
//! grid-row implementations behind [`crate::Sim`].
//!
//! The timing model consumes nothing but the retire-event stream
//! ([`ExecObserver`]), so a row of machines can be driven by one
//! interpretation of an [`ExecImage`] (`interpret_row`) or by
//! one decode pass over a recorded trace with no interpreter in the
//! loop at all (`replay_row`) — each machine's [`SimRun`] is
//! bit-identical either way, and identical to a row of that machine
//! alone. [`Machine`] itself is the low-level building block: callers
//! that need their own interpreter (a fuel budget, say) drive
//! [`Machine::run_image`] and read the partial result with
//! [`Machine::finish`].

use crate::cpu::{by_kind, Core, CoreModel, InOrder, InstCounts, OutOfOrder};
use crate::memsys::{MemSys, SharedMem};
use crate::presets::MachineConfig;
use crate::request::{Setup, Sim, SimError};
use crate::stats::{SimRun, SimStats};
use crate::TICKS_PER_CYCLE;
use std::sync::Arc;
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{Event, ExecObserver, Interp, RtVal, Trap};
use swpf_ir::FuncId;
use swpf_trace::{EventSource, StreamEncoder};

/// A single simulated core with its full memory hierarchy.
#[derive(Debug)]
pub struct Machine {
    /// The configuration the machine was built from.
    pub config: MachineConfig,
    core: Core,
    mem: MemSys,
    shared: SharedMem,
}

/// One machine's timing model, its core model known by type: what a row
/// of one machine and each multicore core hand their interpreter or
/// decode loop after one match on the model per run, and what [`Lanes`]
/// loops over. No event pays a match on [`Core`].
pub(crate) struct Lane<'a, C> {
    pub(crate) core: &'a mut C,
    pub(crate) mem: &'a mut MemSys,
    pub(crate) shared: &'a mut SharedMem,
}

/// The event stays behind its reference: the interpreter has just
/// written it field by field, and a by-value `EventKind` would be
/// reloaded with one wide load those narrow stores cannot forward.
impl<C: CoreModel> ExecObserver for Lane<'_, C> {
    #[inline(always)]
    fn on_event(&mut self, ev: &Event<'_>) {
        macro_rules! arm {
            ($name:ident $(, $arg:expr)*) => {
                self.core.$name(self.mem, self.shared, ev $(, $arg)*)
            };
        }
        by_kind!(ev, arm)
    }
}

/// Evaluate `$body` with `$lane` bound to `$machine`'s [`Lane`]: the one
/// match on its [`Core`] a driver makes per run.
macro_rules! with_lane {
    ($machine:expr, $lane:ident, $body:expr) => {{
        let m: &mut Machine = $machine;
        match (&mut m.core, &mut m.mem, &mut m.shared) {
            (Core::InOrder(core), mem, shared) => {
                let mut $lane = Lane { core, mem, shared };
                $body
            }
            (Core::OutOfOrder(core), mem, shared) => {
                let mut $lane = Lane { core, mem, shared };
                $body
            }
        }
    }};
}

/// A row's machines split by core kind: one match on the event's kind,
/// then its arm in one loop per core kind, with no per-machine match.
/// Machines are independent, so the order they see an event in does not
/// matter; results are read from the row, in row order.
struct Lanes<'a> {
    out_of_order: Vec<Lane<'a, OutOfOrder>>,
    in_order: Vec<Lane<'a, InOrder>>,
}

impl<'a> Lanes<'a> {
    fn new(row: &'a mut [Machine]) -> Self {
        let mut lanes = Lanes {
            out_of_order: Vec::new(),
            in_order: Vec::new(),
        };
        for m in row {
            let (mem, shared) = (&mut m.mem, &mut m.shared);
            match &mut m.core {
                Core::OutOfOrder(core) => lanes.out_of_order.push(Lane { core, mem, shared }),
                Core::InOrder(core) => lanes.in_order.push(Lane { core, mem, shared }),
            }
        }
        lanes
    }

    #[inline(always)]
    fn retire(&mut self, ev: &Event<'_>) {
        macro_rules! arm {
            ($name:ident $(, $arg:expr)*) => {{
                for l in &mut self.out_of_order {
                    l.core.$name(l.mem, l.shared, ev $(, $arg)*);
                }
                for l in &mut self.in_order {
                    l.core.$name(l.mem, l.shared, ev $(, $arg)*);
                }
            }};
        }
        by_kind!(ev, arm)
    }
}

/// One event stream into every machine of a grid row and, when
/// recording, a trace encoder — direct calls on concrete models, so a
/// fused row pays no virtual dispatch per machine per event. Events are
/// handed on as they arrive, never buffered: copying them out of the
/// interpreter's hands costs more than the calls it would batch.
///
/// `on_event` is inlined into the interpreter's retire sites like a
/// [`Lane`]'s: with the kind matched first, sixty copies of the machine
/// loops beat one shared out-of-line copy (DESIGN.md §3).
struct RowObserver<'a> {
    enc: Option<&'a mut StreamEncoder>,
    lanes: Lanes<'a>,
}

impl ExecObserver for RowObserver<'_> {
    #[inline(always)]
    fn on_event(&mut self, ev: &Event<'_>) {
        if let Some(enc) = &mut self.enc {
            enc.push(ev);
        }
        self.lanes.retire(ev);
    }
}

impl Machine {
    /// Build a machine from a configuration, collecting a per-PC
    /// profile when `perf` (see [`crate::perf`]).
    #[must_use]
    pub fn new(config: MachineConfig, perf: bool) -> Self {
        let core = Core::new(&config);
        let mem = MemSys::with_perf(&config, perf);
        let shared = SharedMem::new(&config);
        Machine {
            config,
            core,
            mem,
            shared,
        }
    }

    /// Run `func` of an already-built [`ExecImage`] on this machine,
    /// using `interp` for architectural state (set up its memory before
    /// calling). After a trap the machine holds the statistics of the
    /// events retired up to it.
    ///
    /// # Errors
    /// Any [`Trap`] the program raises.
    pub fn run_image(
        &mut self,
        image: Arc<ExecImage>,
        func: FuncId,
        interp: &mut Interp,
        args: &[RtVal],
    ) -> Result<(), Trap> {
        with_lane!(
            self,
            lane,
            interp
                .run_with_image(image, func, args, &mut lane)
                .map(drop)
        )
    }

    /// The statistics accumulated so far plus the per-PC profile —
    /// finishing it classifies still-cached prefetched lines as
    /// `unused_at_end`; it is `None` unless the machine was built with
    /// `perf`.
    pub fn finish(&mut self) -> SimRun {
        sim_run(
            self.core.clock_ticks(),
            self.core.counts(),
            &mut self.mem,
            &self.shared,
        )
    }
}

/// Assemble one core's [`SimRun`] from its clock, its instruction counts
/// and its memory systems (the multicore interleaver keeps them in its
/// own layout).
pub(crate) fn sim_run(ticks: u64, insts: InstCounts, mem: &mut MemSys, sh: &SharedMem) -> SimRun {
    let (l1_hits, l1_misses, l2_hits, l2_misses) = mem.cache_counters();
    let (tlb_hits, tlb_misses) = mem.tlb_counters();
    let stats = SimStats {
        cycles: ticks / TICKS_PER_CYCLE,
        insts,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        tlb_hits,
        tlb_misses,
        dram_lines_read: sh.dram.lines_read(),
        dram_lines_written: sh.dram.lines_written(),
        mem: mem.stats(),
    };
    SimRun {
        stats,
        perf: mem.take_perf(),
    }
}

fn fresh_row(sim: &Sim<'_>) -> Vec<Machine> {
    sim.machines
        .iter()
        .map(|c| Machine::new((*c).clone(), sim.perf))
        .collect()
}

/// Interpret `func` once and fan its retire-event stream out to every
/// machine of `sim`'s row — and, when `enc` is given, to a trace encoder —
/// so N cells pay for one interpretation. Single-core replay never
/// consults step boundaries (they exist to reproduce the multicore
/// interleaver's schedule), so this rides the engine's fast
/// `run_to_done` loop and records no step marks.
///
/// A row of one unrecorded machine hands the interpreter its typed
/// [`Lane`] ([`Machine::run_image`]), with no loop over lane lists.
pub(crate) fn interpret_row(
    sim: &Sim<'_>,
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: &mut Setup<'_>,
    enc: Option<&mut StreamEncoder>,
) -> Result<Vec<SimRun>, SimError> {
    // Machines before the interpreter: the allocator sees the row's tag
    // arrays first and frees them last. The other order cost Fig. 9's
    // later cells ~40% more page faults (CHANGES.md PR 18).
    let mut machines = fresh_row(sim);
    let mut interp = Interp::with_tier(sim.tier);
    let args = setup(0, &mut interp);
    let image = Arc::clone(image);
    match (machines.as_mut_slice(), enc) {
        ([one], None) => one.run_image(image, func, &mut interp, &args),
        (row, enc) => {
            let mut row = RowObserver {
                enc,
                lanes: Lanes::new(row),
            };
            interp
                .run_with_image(image, func, &args, &mut row)
                .map(drop)
        }
    }?;
    Ok(machines.iter_mut().map(Machine::finish).collect())
}

/// Replay core 0 of a recorded trace on every machine of `sim`'s row: one
/// decode pass (in memory or block-at-a-time from the file, whatever
/// `src` is), every event fanned out to all timing models. The decode
/// loop is the only call site, so delivery inlines into it — for a row
/// of one, one typed [`Lane`] chosen before the loop; for a longer row,
/// one loop per core kind ([`Lanes`]).
pub(crate) fn replay_row(
    sim: &Sim<'_>,
    src: &mut impl EventSource,
) -> Result<Vec<SimRun>, SimError> {
    let mut machines = fresh_row(sim);
    if let [one] = machines.as_mut_slice() {
        with_lane!(
            one,
            lane,
            while let Some((ev, _)) = src.next_event()? {
                lane.on_event(&ev);
            }
        );
    } else {
        let mut lanes = Lanes::new(&mut machines);
        while let Some((ev, _)) = src.next_event()? {
            lanes.retire(&ev);
        }
    }
    Ok(machines.iter_mut().map(Machine::finish).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_on_machine;
    use swpf_ir::prelude::*;

    /// Sequential-sum kernel over `n` i64 elements.
    fn stream_kernel() -> Module {
        let mut m = Module::new("t");
        let fid = m.declare_function("sum", &[Type::Ptr, Type::I64], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let (a, n) = (b.arg(0), b.arg(1));
        let entry = b.entry_block();
        let header = b.create_block("h");
        let body = b.create_block("b");
        let exit = b.create_block("x");
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, &[(entry, zero)]);
        let acc = b.phi(Type::I64, &[(entry, zero)]);
        let c = b.icmp(Pred::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let g = b.gep(a, i, 8);
        let v = b.load(Type::I64, g);
        let acc2 = b.add(acc, v);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(acc, body, acc2);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(acc));
        let _ = b;
        m
    }

    #[test]
    fn runs_and_produces_sane_stats() {
        let m = stream_kernel();
        let stats = run_on_machine(&MachineConfig::haswell(), &m, "sum", |interp| {
            let n = 4096u64;
            let a = interp.alloc_array(n, 8).unwrap();
            for i in 0..n {
                interp.mem().write(a + i * 8, 8, 1).unwrap();
            }
            vec![RtVal::Int(a as i64), RtVal::Int(n as i64)]
        });
        assert!(stats.cycles > 0);
        assert!(stats.insts.total > 4096 * 5);
        assert!(stats.insts.loads >= 4096);
        assert!(stats.l1_hits > stats.l1_misses, "stream mostly hits in L1");
        assert!(stats.ipc() > 0.1);
    }

    #[test]
    fn hw_prefetcher_speeds_up_streams() {
        let m = stream_kernel();
        let setup = |interp: &mut Interp| {
            let n = 16384u64;
            let a = interp.alloc_array(n, 8).unwrap();
            vec![RtVal::Int(a as i64), RtVal::Int(n as i64)]
        };
        let with = run_on_machine(&MachineConfig::a53(), &m, "sum", setup);
        let without = run_on_machine(
            &MachineConfig::a53().without_hw_prefetcher(),
            &m,
            "sum",
            setup,
        );
        assert!(
            without.cycles > with.cycles,
            "stride prefetcher must help a stream: {} vs {}",
            without.cycles,
            with.cycles
        );
    }

    #[test]
    fn in_order_slower_than_out_of_order_on_same_machine() {
        // Same caches/DRAM, only the pipeline differs: on a stream whose
        // leading-edge misses stall the in-order core, the out-of-order
        // core must win.
        let m = stream_kernel();
        let setup = |interp: &mut Interp| {
            let n = 32768u64;
            let a = interp.alloc_array(n, 8).unwrap();
            vec![RtVal::Int(a as i64), RtVal::Int(n as i64)]
        };
        let ooo_cfg = MachineConfig::haswell().without_hw_prefetcher();
        let ino_cfg = MachineConfig {
            core: crate::presets::CoreKind::InOrder,
            ..ooo_cfg.clone()
        };
        let ooo = run_on_machine(&ooo_cfg, &m, "sum", setup);
        let ino = run_on_machine(&ino_cfg, &m, "sum", setup);
        assert!(
            ino.cycles > ooo.cycles,
            "in-order {} must trail out-of-order {}",
            ino.cycles,
            ooo.cycles
        );
    }
}
