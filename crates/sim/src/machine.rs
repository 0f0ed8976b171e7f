//! Single-core machine: interpreter + core model + memory system.
//!
//! The interpreter is the pre-decoded engine behind
//! [`swpf_ir::interp::Interp`]: [`Machine::run`] decodes the module once
//! (inside `Interp::start`) and then executes the dense image, reporting
//! every retired instruction to the timing model through the
//! [`ExecObserver`] contract.
//!
//! Because the timing model consumes nothing but that event stream, a
//! machine can also be driven from a recorded [`Trace`] with no
//! interpreter in the loop at all ([`Machine::replay`]) — the replayed
//! [`SimStats`] are bit-identical to direct simulation. Recording
//! composes with timing via [`Machine::run_image_traced`], which tees
//! the events of a measured run into a [`StreamEncoder`].

use crate::cpu::Core;
use crate::memsys::{MemSys, SharedMem};
use crate::perf::PcProfile;
use crate::presets::MachineConfig;
use crate::stats::{SimRun, SimStats};
use std::sync::Arc;
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{Event, ExecObserver, Interp, RtVal, Tier, Trap};
use swpf_ir::{FuncId, Module};
use swpf_trace::{EventSource, StreamEncoder, StreamingReplay, Tee, Trace, TraceError};

/// A single simulated core with its full memory hierarchy.
#[derive(Debug)]
pub struct Machine {
    /// The configuration the machine was built from.
    pub config: MachineConfig,
    core: Core,
    mem: MemSys,
    shared: SharedMem,
}

/// The one observer that wires retire events into a timing model —
/// every execution path (single-core direct, traced, replayed, and the
/// multicore interleaver) goes through this adapter.
pub(crate) struct TimingObserver<'a> {
    pub(crate) core: &'a mut Core,
    pub(crate) mem: &'a mut MemSys,
    pub(crate) shared: &'a mut SharedMem,
}

impl ExecObserver for TimingObserver<'_> {
    #[inline]
    fn on_event(&mut self, ev: &Event<'_>) {
        self.core.retire(self.mem, self.shared, ev);
    }
}

/// One event stream into every machine of a grid row and, when
/// persisting, a trace encoder — direct calls on concrete observers, so
/// a fused row pays no virtual dispatch per machine per event. Events
/// are handed on as they arrive, never buffered: copying them out of the
/// interpreter's hands costs more than the calls it would batch.
///
/// `on_event` stays out of line: the interpreter has some sixty retire
/// sites, and one shared copy of the machine loop (with the core models
/// inlined into it) beats sixty copies of it.
struct RowObserver<'a> {
    enc: Option<&'a mut StreamEncoder>,
    timing: Vec<TimingObserver<'a>>,
}

impl ExecObserver for RowObserver<'_> {
    #[inline(never)]
    fn on_event(&mut self, ev: &Event<'_>) {
        if let Some(enc) = &mut self.enc {
            enc.push(ev);
        }
        for obs in &mut self.timing {
            obs.on_event(ev);
        }
    }
}

impl Machine {
    /// Build a machine from a configuration.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        let core = Core::new(&config);
        let mem = MemSys::new(&config);
        let shared = SharedMem::new(&config);
        Machine {
            config,
            core,
            mem,
            shared,
        }
    }

    /// The timing observer over this machine's core and memory system —
    /// the single observer-wiring path every run/replay flavour uses.
    pub(crate) fn observer(&mut self) -> TimingObserver<'_> {
        TimingObserver {
            core: &mut self.core,
            mem: &mut self.mem,
            shared: &mut self.shared,
        }
    }

    /// Run `func` to completion on this machine, using `interp` for
    /// architectural state (set up its memory before calling).
    ///
    /// # Errors
    /// Any [`Trap`] the program raises.
    pub fn run(
        &mut self,
        module: &Module,
        func: FuncId,
        interp: &mut Interp,
        args: &[RtVal],
    ) -> Result<SimStats, Trap> {
        let mut obs = self.observer();
        interp.run(module, func, args, &mut obs)?;
        Ok(self.stats())
    }

    /// Like [`Machine::run`], but from an already-decoded [`ExecImage`] —
    /// the amortised shape for experiment grids that run one module on
    /// many machine configurations.
    ///
    /// # Errors
    /// Any [`Trap`] the program raises.
    pub fn run_image(
        &mut self,
        image: Arc<ExecImage>,
        func: FuncId,
        interp: &mut Interp,
        args: &[RtVal],
    ) -> Result<SimStats, Trap> {
        let mut obs = self.observer();
        interp.run_with_image(image, func, args, &mut obs)?;
        Ok(self.stats())
    }

    /// Like [`Machine::run_image`], but additionally records the
    /// retire-event stream into `enc` while the timing model measures
    /// it — the record-while-measuring shape the experiment harness
    /// uses for a grid's first machine cell. The measured [`SimStats`]
    /// are identical to an untraced run.
    ///
    /// Single-core replay never consults step boundaries (they exist to
    /// reproduce the multicore interleaver's schedule), so this rides
    /// the engine's fast `run_to_done` loop with a [`Tee`] rather than
    /// the stepping loop the multicore recorder needs.
    ///
    /// # Errors
    /// Any [`Trap`] the program raises.
    pub fn run_image_traced(
        &mut self,
        image: Arc<ExecImage>,
        func: FuncId,
        interp: &mut Interp,
        args: &[RtVal],
        enc: &mut StreamEncoder,
    ) -> Result<SimStats, Trap> {
        let mut obs = self.observer();
        let mut tee = Tee(enc, &mut obs);
        interp.run_with_image(image, func, args, &mut tee)?;
        Ok(self.stats())
    }

    /// Feed core 0 of a recorded [`Trace`] straight into this machine's
    /// timing model — no interpreter, no simulated memory, just the
    /// event stream. Bit-identical to the direct simulation the trace
    /// was recorded from (the replay equivalence contract; enforced by
    /// tests and the CI `trace-equivalence` job).
    ///
    /// # Errors
    /// Any [`TraceError`] in the encoded stream.
    pub fn replay(&mut self, trace: &Trace) -> Result<SimStats, TraceError> {
        self.replay_from(&mut trace.cursor(0)?)
    }

    /// Like [`Machine::replay`], but from any [`EventSource`] — the
    /// generic entry the streaming (block-at-a-time, bounded-memory)
    /// replay path shares with the in-memory cursor.
    ///
    /// # Errors
    /// Any [`TraceError`] the source reports.
    pub fn replay_from(&mut self, src: &mut impl EventSource) -> Result<SimStats, TraceError> {
        let mut obs = self.observer();
        while let Some((ev, _)) = src.next_event()? {
            obs.on_event(&ev);
        }
        Ok(self.stats())
    }

    /// Snapshot the statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        MachineStatsParts {
            core: &self.core,
            mem: &self.mem,
            shared: &self.shared,
        }
        .collect()
    }

    /// Finish per-PC profiling (classifying still-cached prefetched
    /// lines as `unused_at_end`) and hand the profile over. `None`
    /// unless [`crate::perf::enabled`] was set when the machine was
    /// built.
    pub fn take_perf(&mut self) -> Option<PcProfile> {
        self.mem.take_perf()
    }

    /// Stats plus the (possibly absent) per-PC profile, consumed
    /// together — the shape the `*_perf` entry points return.
    pub fn finish(&mut self) -> SimRun {
        SimRun {
            stats: self.stats(),
            perf: self.take_perf(),
        }
    }
}

/// Borrowed views over the three stat sources; lets the multicore runner
/// assemble [`SimStats`] from its own storage layout.
pub(crate) struct MachineStatsParts<'a> {
    pub core: &'a Core,
    pub mem: &'a MemSys,
    pub shared: &'a SharedMem,
}

impl MachineStatsParts<'_> {
    pub(crate) fn collect(&self) -> SimStats {
        let (l1_hits, l1_misses, l2_hits, l2_misses) = self.mem.cache_counters();
        let (tlb_hits, tlb_misses) = self.mem.tlb_counters();
        SimStats {
            cycles: self.core.cycles(),
            insts: self.core.counts(),
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            tlb_hits,
            tlb_misses,
            dram_lines_read: self.shared.dram.lines_read(),
            dram_lines_written: self.shared.dram.lines_written(),
            mem: self.mem.stats(),
        }
    }
}

/// Shared glue of every `run_on_machine*` convenience: build a fresh
/// interpreter, let `setup` allocate and initialise workload memory
/// (returning the kernel arguments), build a machine, and treat traps
/// as fatal configuration errors.
fn run_fresh(
    config: &MachineConfig,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
    body: impl FnOnce(&mut Machine, &mut Interp, &[RtVal]) -> Result<SimStats, Trap>,
) -> SimStats {
    let mut interp = Interp::new();
    let args = setup(&mut interp);
    let mut machine = Machine::new(config.clone());
    body(&mut machine, &mut interp, &args).unwrap_or_else(|t| panic!("simulation trapped: {t}"))
}

/// Convenience: build an interpreter, let `setup` allocate and initialise
/// workload memory (returning the kernel arguments), then simulate
/// `func_name` on `config`.
///
/// # Panics
/// If the function does not exist or the program traps — harness code
/// treats both as fatal configuration errors.
pub fn run_on_machine(
    config: &MachineConfig,
    module: &Module,
    func_name: &str,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
) -> SimStats {
    let func = module
        .find_function(func_name)
        .unwrap_or_else(|| panic!("no function `{func_name}` in module"));
    run_fresh(config, setup, |machine, interp, args| {
        machine.run(module, func, interp, args)
    })
}

/// Like [`run_on_machine`], from an already-decoded image (decode once,
/// simulate on many machine configurations — the experiment-harness
/// path). `func` must belong to the module `image` was built from.
///
/// # Panics
/// If the program traps — harness code treats that as a fatal
/// configuration error.
pub fn run_on_machine_image(
    config: &MachineConfig,
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
) -> SimStats {
    run_fresh(config, setup, |machine, interp, args| {
        machine.run_image(Arc::clone(image), func, interp, args)
    })
}

/// Like [`run_on_machine_image`], returning the per-PC profile
/// alongside the stats (see [`crate::perf`]; the profile is `None`
/// unless profiling is enabled).
///
/// # Panics
/// If the program traps — harness code treats that as a fatal
/// configuration error.
pub fn run_on_machine_image_perf(
    config: &MachineConfig,
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
) -> SimRun {
    let mut interp = Interp::new();
    let args = setup(&mut interp);
    let mut machine = Machine::new(config.clone());
    machine
        .run_image(Arc::clone(image), func, &mut interp, &args)
        .unwrap_or_else(|t| panic!("simulation trapped: {t}"));
    machine.finish()
}

/// Like [`run_on_machine_image`], but on an explicit execution [`Tier`]
/// instead of the `SWPF_TIER` environment default — the shape the
/// differential suites use to compare tiers side by side without racing
/// on process-global environment state.
///
/// # Panics
/// If the program traps — harness code treats that as a fatal
/// configuration error.
pub fn run_on_machine_image_tier(
    config: &MachineConfig,
    image: &Arc<ExecImage>,
    func: FuncId,
    tier: Tier,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
) -> SimStats {
    let mut interp = Interp::with_tier(tier);
    let args = setup(&mut interp);
    let mut machine = Machine::new(config.clone());
    machine
        .run_image(Arc::clone(image), func, &mut interp, &args)
        .unwrap_or_else(|t| panic!("simulation trapped: {t}"))
}

/// Like [`run_on_machine_image_tier`], returning the per-PC profile
/// alongside the stats — the shape the profiling differential suite
/// uses to compare the profile itself across execution tiers.
///
/// # Panics
/// If the program traps — harness code treats that as a fatal
/// configuration error.
pub fn run_on_machine_image_tier_perf(
    config: &MachineConfig,
    image: &Arc<ExecImage>,
    func: FuncId,
    tier: Tier,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
) -> SimRun {
    let mut interp = Interp::with_tier(tier);
    let args = setup(&mut interp);
    let mut machine = Machine::new(config.clone());
    machine
        .run_image(Arc::clone(image), func, &mut interp, &args)
        .unwrap_or_else(|t| panic!("simulation trapped: {t}"));
    machine.finish()
}

/// Like [`run_on_machine_image`], but records the retire-event stream
/// into `enc` while measuring (see [`Machine::run_image_traced`]).
///
/// # Panics
/// If the program traps — harness code treats that as a fatal
/// configuration error.
pub fn run_on_machine_traced(
    config: &MachineConfig,
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
    enc: &mut StreamEncoder,
) -> SimStats {
    run_on_machine_traced_perf(config, image, func, setup, enc).stats
}

/// Like [`run_on_machine_traced`], returning the per-PC profile
/// alongside the stats.
///
/// # Panics
/// If the program traps — harness code treats that as a fatal
/// configuration error.
pub fn run_on_machine_traced_perf(
    config: &MachineConfig,
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
    enc: &mut StreamEncoder,
) -> SimRun {
    let mut interp = Interp::new();
    let args = setup(&mut interp);
    let mut machine = Machine::new(config.clone());
    machine
        .run_image_traced(Arc::clone(image), func, &mut interp, &args, enc)
        .unwrap_or_else(|t| panic!("simulation trapped: {t}"));
    machine.finish()
}

/// Replay a single-core trace on `config` (see [`Machine::replay`]).
///
/// # Panics
/// On a malformed trace — harness code treats that as a fatal cache
/// error.
pub fn replay_on_machine(config: &MachineConfig, trace: &Trace) -> SimStats {
    replay_on_machine_perf(config, trace).stats
}

/// Like [`replay_on_machine`], returning the per-PC profile alongside
/// the stats.
///
/// # Panics
/// On a malformed trace — harness code treats that as a fatal cache
/// error.
pub fn replay_on_machine_perf(config: &MachineConfig, trace: &Trace) -> SimRun {
    let mut machine = Machine::new(config.clone());
    machine
        .replay(trace)
        .unwrap_or_else(|e| panic!("trace replay failed: {e}"));
    machine.finish()
}

/// Simulate one functional execution on every machine of a grid row at
/// once: the engine's event stream fans out to each machine's timing
/// observer — and, when `enc` is given, to a trace encoder — so N
/// cells pay for one interpretation. Each machine's [`SimStats`] are
/// bit-identical to a dedicated run (events are observer-independent).
///
/// # Panics
/// If the program traps — harness code treats that as a fatal
/// configuration error.
pub fn run_on_machines_image(
    configs: &[&MachineConfig],
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
    enc: Option<&mut StreamEncoder>,
) -> Vec<SimStats> {
    run_on_machines_image_perf(configs, image, func, Tier::from_env(), setup, enc)
        .into_iter()
        .map(|r| r.stats)
        .collect()
}

/// Like [`run_on_machines_image`], on an explicit execution [`Tier`]
/// (the harness resolves `SWPF_TIER` once per process), returning each
/// machine's per-PC profile alongside its stats (see [`crate::perf`];
/// the profile is `None` unless profiling is enabled).
///
/// # Panics
/// If the program traps — harness code treats that as a fatal
/// configuration error.
pub fn run_on_machines_image_perf(
    configs: &[&MachineConfig],
    image: &Arc<ExecImage>,
    func: FuncId,
    tier: Tier,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
    enc: Option<&mut StreamEncoder>,
) -> Vec<SimRun> {
    let mut interp = Interp::with_tier(tier);
    let args = setup(&mut interp);
    let mut machines: Vec<Machine> = configs.iter().map(|c| Machine::new((*c).clone())).collect();
    let mut row = RowObserver {
        enc,
        timing: machines.iter_mut().map(Machine::observer).collect(),
    };
    interp
        .run_with_image(Arc::clone(image), func, &args, &mut row)
        .unwrap_or_else(|t| panic!("simulation trapped: {t}"));
    machines.iter_mut().map(Machine::finish).collect()
}

/// Candidate-evaluation entry point for search-driven tuning
/// (`swpf-tune`): decode `module` once, interpret `func_name` once, and
/// fan the retire-event stream out to every machine of `configs`
/// simultaneously — so evaluating one candidate kernel on an N-machine
/// grid costs one interpretation, not N. Statistics are bit-identical
/// to N dedicated [`run_on_machine`] calls.
///
/// # Panics
/// If the function does not exist or the program traps — callers treat
/// both as fatal configuration errors.
pub fn run_module_on_machines(
    configs: &[&MachineConfig],
    module: &Module,
    func_name: &str,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
) -> Vec<SimStats> {
    let func = module
        .find_function(func_name)
        .unwrap_or_else(|| panic!("no function `{func_name}` in module"));
    let image = Arc::new(ExecImage::build(module));
    run_on_machines_image(configs, &image, func, setup, None)
}

/// Replay a single-core trace on every machine of a grid row at once:
/// the trace is decoded (and its payload streamed through the host
/// caches) a single time, with each event fanned out to all timing
/// models — the batched warm-cache shape of the experiment harness.
///
/// # Errors
/// Any [`TraceError`] in the encoded stream.
pub fn replay_on_machines(
    configs: &[&MachineConfig],
    trace: &Trace,
) -> Result<Vec<SimStats>, TraceError> {
    Ok(replay_on_machines_perf(configs, trace)?
        .into_iter()
        .map(|r| r.stats)
        .collect())
}

/// Like [`replay_on_machines`], returning each machine's per-PC profile
/// alongside its stats. Replay drives the identical observer path, so a
/// profile mined from a trace matches the direct run's exactly.
///
/// # Errors
/// Any [`TraceError`] in the encoded stream.
pub fn replay_on_machines_perf(
    configs: &[&MachineConfig],
    trace: &Trace,
) -> Result<Vec<SimRun>, TraceError> {
    replay_on_machines_from(configs, &mut trace.cursor(0)?)
}

/// The [`EventSource`]-generic core of batched replay: one decode pass,
/// every event fanned out to all timing models.
fn replay_on_machines_from(
    configs: &[&MachineConfig],
    src: &mut impl EventSource,
) -> Result<Vec<SimRun>, TraceError> {
    let mut machines: Vec<Machine> = configs.iter().map(|c| Machine::new((*c).clone())).collect();
    while let Some((ev, _)) = src.next_event()? {
        for m in &mut machines {
            m.observer().on_event(&ev);
        }
    }
    Ok(machines.iter_mut().map(Machine::finish).collect())
}

/// Replay a single-core trace **file** on `config` without ever
/// materialising the payload: events stream block-by-block from the v2
/// envelope (see [`StreamingReplay`]), so peak memory is bounded by the
/// block window no matter how long the trace is. Statistics are
/// bit-identical to [`replay_on_machine`] on the decoded trace.
///
/// # Errors
/// Any [`TraceError`] in the file — envelope violations, per-block
/// checksum mismatches, or I/O failures.
pub fn streaming_replay_on_machine(
    config: &MachineConfig,
    replay: &StreamingReplay,
) -> Result<SimStats, TraceError> {
    Ok(streaming_replay_on_machine_perf(config, replay)?.stats)
}

/// Like [`streaming_replay_on_machine`], returning the per-PC profile
/// alongside the stats.
///
/// # Errors
/// Any [`TraceError`] in the file.
pub fn streaming_replay_on_machine_perf(
    config: &MachineConfig,
    replay: &StreamingReplay,
) -> Result<SimRun, TraceError> {
    let mut machine = Machine::new(config.clone());
    machine.replay_from(&mut replay.cursor(0)?)?;
    Ok(machine.finish())
}

/// Batched streaming replay: one block-at-a-time decode pass over the
/// trace file drives every machine of a grid row (the warm-cache shape
/// of the experiment harness, now with bounded memory — see
/// [`replay_on_machines`] and [`StreamingReplay`]).
///
/// # Errors
/// Any [`TraceError`] in the file.
pub fn streaming_replay_on_machines(
    configs: &[&MachineConfig],
    replay: &StreamingReplay,
) -> Result<Vec<SimStats>, TraceError> {
    Ok(streaming_replay_on_machines_perf(configs, replay)?
        .into_iter()
        .map(|r| r.stats)
        .collect())
}

/// Like [`streaming_replay_on_machines`], returning each machine's
/// per-PC profile alongside its stats.
///
/// # Errors
/// Any [`TraceError`] in the file.
pub fn streaming_replay_on_machines_perf(
    configs: &[&MachineConfig],
    replay: &StreamingReplay,
) -> Result<Vec<SimRun>, TraceError> {
    replay_on_machines_from(configs, &mut replay.cursor(0)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swpf_ir::prelude::*;

    /// Write `bytes` to a unique temp file, run `f` on the path, clean up.
    fn with_temp_trace<R>(name: &str, bytes: &[u8], f: impl FnOnce(&std::path::Path) -> R) -> R {
        let path =
            std::env::temp_dir().join(format!("swpf_sim_{}_{name}.trace", std::process::id()));
        std::fs::write(&path, bytes).expect("trace written");
        let r = f(&path);
        std::fs::remove_file(&path).ok();
        r
    }

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

    /// The replay equivalence contract at machine level: a run recorded
    /// while measuring produces the same stats as an untraced run, and
    /// replaying the trace (round-tripped through the binary envelope)
    /// on a fresh machine reproduces every counter bit-for-bit — on
    /// both core models.
    #[test]
    fn replay_is_bit_identical_to_direct() {
        let m = stream_kernel();
        let f = m.find_function("sum").unwrap();
        let image = Arc::new(ExecImage::build(&m));
        let setup = |interp: &mut Interp| {
            let n = 8192u64;
            let a = interp.alloc_array(n, 8).unwrap();
            for i in 0..n {
                interp.mem().write(a + i * 8, 8, i % 7).unwrap();
            }
            vec![RtVal::Int(a as i64), RtVal::Int(n as i64)]
        };
        for cfg in [MachineConfig::haswell(), MachineConfig::a53()] {
            let direct = run_on_machine_image(&cfg, &image, f, setup);
            let mut rec = swpf_trace::TraceRecorder::new(1, 42);
            let traced = run_on_machine_traced(&cfg, &image, f, setup, rec.stream(0));
            let bytes = rec.finish().to_bytes();
            let trace = Trace::from_bytes(&bytes).unwrap();
            let replayed = replay_on_machine(&cfg, &trace);
            assert_eq!(
                direct.counters(),
                traced.counters(),
                "recording must not perturb timing on {}",
                cfg.name
            );
            assert_eq!(
                direct.counters(),
                replayed.counters(),
                "replay must be bit-identical on {}",
                cfg.name
            );
            assert_eq!(trace.events(0), direct.insts.total);
            // The bounded-memory path decodes the same file to the same
            // counters, without ever materialising the payload.
            let streamed = with_temp_trace(&format!("single_{}", cfg.name), &bytes, |path| {
                let replay = StreamingReplay::open(path).expect("streaming open");
                streaming_replay_on_machine(&cfg, &replay).expect("streaming replay")
            });
            assert_eq!(
                direct.counters(),
                streamed.counters(),
                "streaming replay must be bit-identical on {}",
                cfg.name
            );
        }
    }

    /// Batched execution and batched replay: one interpretation (or one
    /// decode pass) driving all four presets — both core kinds —
    /// produces exactly the stats of dedicated per-machine runs, with
    /// and without the encoder in the row.
    #[test]
    fn fanout_runs_match_dedicated_runs() {
        let m = stream_kernel();
        let f = m.find_function("sum").unwrap();
        let image = Arc::new(ExecImage::build(&m));
        let setup = |interp: &mut Interp| {
            let n = 4096u64;
            let a = interp.alloc_array(n, 8).unwrap();
            for i in 0..n {
                interp.mem().write(a + i * 8, 8, i % 5).unwrap();
            }
            vec![RtVal::Int(a as i64), RtVal::Int(n as i64)]
        };
        let cfgs = [
            MachineConfig::haswell(),
            MachineConfig::a57(),
            MachineConfig::a53(),
            MachineConfig::xeon_phi(),
        ];
        let refs: Vec<&MachineConfig> = cfgs.iter().collect();
        let dedicated: Vec<SimStats> = cfgs
            .iter()
            .map(|c| run_on_machine_image(c, &image, f, setup))
            .collect();

        let plain = run_on_machines_image(&refs, &image, f, setup, None);
        let mut rec = swpf_trace::TraceRecorder::new(1, 0);
        let recorded = run_on_machines_image(&refs, &image, f, setup, Some(rec.stream(0)));
        let trace = rec.finish();
        assert_eq!(trace.events(0), dedicated[0].insts.total);
        let batched = replay_on_machines(&refs, &trace).unwrap();
        let streamed = with_temp_trace("fanout", &trace.to_bytes(), |path| {
            let replay = StreamingReplay::open(path).expect("streaming open");
            streaming_replay_on_machines(&refs, &replay).expect("streaming replay")
        });
        for (i, d) in dedicated.iter().enumerate() {
            let name = cfgs[i].name;
            let d = d.counters();
            assert_eq!(d, plain[i].counters(), "fan-out must match on {name}");
            assert_eq!(d, recorded[i].counters(), "recording fan-out on {name}");
            assert_eq!(d, batched[i].counters(), "batched replay on {name}");
            assert_eq!(d, streamed[i].counters(), "streaming replay on {name}");
        }
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
