//! The one simulation request.
//!
//! Every figure of the paper is the same act — one kernel's
//! retire-event stream priced by one or more machine models — so there
//! is one way to ask for it: a [`Sim`] says *what is simulated* (a row
//! of machines, the core count, the execution tier, whether to profile)
//! and a [`Source`] says *where the events come from* (an
//! interpretation of a decoded image, optionally recorded as it runs; a
//! trace in memory; a trace file streamed block-at-a-time).
//! [`Sim::run`] always returns [`SimRun`]s — statistics plus the per-PC
//! profile ([`crate::perf`]), which is present exactly when the request
//! asked for it — and dispatches to one of four implementations:
//!
//! | | interpret | replay |
//! |---|---|---|
//! | `cores == 1`: one stream, every machine of the row | `machine::interpret_row` | `machine::replay_row` |
//! | `cores > 1`: per machine, N copies on a shared LLC | `multicore::interpret` | `multicore::replay` |
//!
//! The two replay implementations are generic over
//! [`swpf_trace::EventSource`], so in-memory and streaming replay are
//! the same code. All four are bit-identical in every counter and in
//! the profile for the same kernel, whatever the source, and a row of N
//! machines equals N rows of one (events are observer-independent).
//!
//! The free functions below are one-expression conveniences over the
//! request for quick starts and for `benchmark/layers`; they run
//! unprofiled, resolve the tier from `SWPF_TIER` and treat any
//! [`SimError`] as a fatal configuration error. The request itself
//! reads no environment at all — its tier and its profiling are
//! fields — and never panics on a trap or a damaged trace.

use crate::machine::{interpret_row, replay_row};
use crate::multicore;
use crate::presets::MachineConfig;
use crate::stats::{check_cell_laws, SimRun, SimStats};
use std::fmt;
use std::sync::Arc;
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{Interp, RtVal, Tier, Trap};
use swpf_ir::{FuncId, Module};
use swpf_trace::{EventSource, StreamEncoder, StreamingReplay, Trace, TraceError};

/// Workload set-up: called once per simulated core with the core index
/// and that core's fresh interpreter, it allocates and initialises the
/// kernel's memory and returns the kernel arguments.
pub type Setup<'a> = dyn FnMut(usize, &mut Interp) -> Vec<RtVal> + 'a;

/// Why a simulation request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The interpreted program trapped.
    Trap(Trap),
    /// The replayed trace is damaged, or has fewer cores than asked for.
    Trace(TraceError),
    /// The module has no function of this name.
    NoFunction(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Trap(t) => write!(f, "simulation trapped: {t}"),
            SimError::Trace(e) => write!(f, "trace replay failed: {e}"),
            SimError::NoFunction(name) => write!(f, "no function `{name}` in module"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<Trap> for SimError {
    fn from(t: Trap) -> Self {
        SimError::Trap(t)
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

/// Where a simulation's retire events come from.
pub enum Source<'a> {
    /// Interpret `func` of a built image. `func` must belong to the
    /// module `image` was built from.
    Image {
        /// The decoded module, shared by every core's engine.
        image: Arc<ExecImage>,
        /// The kernel to run.
        func: FuncId,
        /// Per-core workload set-up.
        setup: &'a mut Setup<'a>,
        /// Record while measuring: one encoder per core
        /// ([`swpf_trace::TraceRecorder::streams`], or
        /// `slice::from_mut` of a single one). Recording never perturbs
        /// the measured statistics. Multicore schedules are
        /// timing-dependent, so with `cores > 1` the first machine of
        /// the row is the one recorded.
        record: Option<&'a mut [StreamEncoder]>,
    },
    /// Replay a trace held in memory — no interpreter in the loop.
    Trace(&'a Trace),
    /// Replay a trace file block-at-a-time, in bounded memory.
    Stream(&'a StreamingReplay),
}

impl<'a> Source<'a> {
    /// Interpret `func` of `image`, unrecorded.
    #[must_use]
    pub fn image(image: &Arc<ExecImage>, func: FuncId, setup: &'a mut Setup<'a>) -> Self {
        Source::Image {
            image: Arc::clone(image),
            func,
            setup,
            record: None,
        }
    }

    /// Decode `module` and interpret its function `func_name`.
    ///
    /// # Errors
    /// [`SimError::NoFunction`] if the module has no such function.
    pub fn module(
        module: &Module,
        func_name: &str,
        setup: &'a mut Setup<'a>,
    ) -> Result<Self, SimError> {
        let func = module
            .find_function(func_name)
            .ok_or_else(|| SimError::NoFunction(func_name.to_string()))?;
        Ok(Source::Image {
            image: Arc::new(ExecImage::build(module)),
            func,
            setup,
            record: None,
        })
    }
}

/// What is simulated: `cores` copies of one kernel on each machine of a
/// row.
#[derive(Debug, Clone, Copy)]
pub struct Sim<'a> {
    /// The machine row. With `cores == 1` one event stream drives every
    /// machine at once (one interpretation or one decode pass for the
    /// whole row); with more, each machine runs its own interleaved
    /// schedule.
    pub machines: &'a [&'a MachineConfig],
    /// Copies of the kernel per machine, each on its own core with
    /// private L1/L2/TLB, sharing the machine's LLC and DRAM (Fig. 9).
    pub cores: usize,
    /// Execution tier of the interpreters; replay sources ignore it.
    pub tier: Tier,
    /// Collect a per-PC prefetch-efficacy profile ([`crate::perf`]) on
    /// every core: each [`SimRun::perf`] is then `Some`. Profiling never
    /// changes a counter.
    pub perf: bool,
}

impl Sim<'_> {
    /// Run the request: `cores` [`SimRun`]s per machine, machine-major
    /// (`runs[m * cores + c]`).
    ///
    /// # Errors
    /// [`SimError::Trap`] if the interpreted program traps,
    /// [`SimError::Trace`] on a damaged trace or one with fewer than
    /// `cores` streams.
    ///
    /// # Panics
    /// If a recording source carries fewer encoders than `cores`, and in
    /// debug builds if a cell's counters break a conservation law
    /// ([`check_cell_laws`]).
    pub fn run(&self, source: Source<'_>) -> Result<Vec<SimRun>, SimError> {
        let runs = self.dispatch(source)?;
        if cfg!(debug_assertions) {
            for (machine, cell) in self.machines.iter().zip(runs.chunks(self.cores.max(1))) {
                let stats: Vec<SimStats> = cell.iter().map(|r| r.stats).collect();
                if let Err(v) = check_cell_laws(machine, &stats) {
                    panic!("{}: {v}", machine.name);
                }
            }
        }
        Ok(runs)
    }

    fn dispatch(&self, source: Source<'_>) -> Result<Vec<SimRun>, SimError> {
        match source {
            Source::Image {
                image,
                func,
                setup,
                mut record,
            } => {
                if self.cores == 1 {
                    let enc = record.map(|r| &mut r[0]);
                    return interpret_row(self, &image, func, setup, enc);
                }
                self.per_machine(|m| {
                    let record = record.take();
                    multicore::interpret(m, self, &image, func, setup, record)
                })
            }
            Source::Trace(trace) => self.replay(|core| trace.cursor(core)),
            Source::Stream(file) => self.replay(|core| file.cursor(core)),
        }
    }

    fn replay<S: EventSource>(
        &self,
        cursor: impl Fn(usize) -> Result<S, TraceError>,
    ) -> Result<Vec<SimRun>, SimError> {
        if self.cores == 1 {
            return replay_row(self, &mut cursor(0)?);
        }
        self.per_machine(|m| multicore::replay(m, self, &cursor))
    }

    fn per_machine(
        &self,
        mut one: impl FnMut(&MachineConfig) -> Result<Vec<SimRun>, SimError>,
    ) -> Result<Vec<SimRun>, SimError> {
        let mut runs = Vec::with_capacity(self.machines.len() * self.cores);
        for m in self.machines {
            runs.extend(one(m)?);
        }
        Ok(runs)
    }
}

/// Adapt a single-core set-up closure to the per-core [`Setup`] shape.
fn once<'a>(
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal> + 'a,
) -> impl FnMut(usize, &mut Interp) -> Vec<RtVal> + 'a {
    let mut setup = Some(setup);
    move |_, interp| (setup.take().expect("a one-core run sets up once"))(interp)
}

/// One unprofiled copy of the kernel on one machine.
fn one<'a>(config: &'a &'a MachineConfig, tier: Tier) -> Sim<'a> {
    Sim {
        machines: std::slice::from_ref(config),
        cores: 1,
        tier,
        perf: false,
    }
}

/// The first run's statistics, or a panic carrying the error.
fn stats_or_panic(runs: Result<Vec<SimRun>, SimError>) -> SimStats {
    runs.unwrap_or_else(|e| panic!("{e}"))[0].stats
}

/// Convenience: build an interpreter, let `setup` allocate and initialise
/// workload memory (returning the kernel arguments), then simulate
/// `func_name` on `config`.
///
/// # Panics
/// If the function does not exist or the program traps — quick-start
/// code treats both as fatal configuration errors.
pub fn run_on_machine(
    config: &MachineConfig,
    module: &Module,
    func_name: &str,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
) -> SimStats {
    stats_or_panic(
        Source::module(module, func_name, &mut once(setup))
            .and_then(|source| one(&config, Tier::from_env()).run(source)),
    )
}

/// Like [`run_on_machine`], from an already-built image.
///
/// # Panics
/// If the program traps.
pub fn run_on_machine_image(
    config: &MachineConfig,
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
) -> SimStats {
    stats_or_panic(one(&config, Tier::from_env()).run(Source::image(image, func, &mut once(setup))))
}

/// Like [`run_on_machine_image`], but records the retire-event stream
/// into `enc` while measuring.
///
/// # Panics
/// If the program traps.
pub fn run_on_machine_traced(
    config: &MachineConfig,
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: impl FnOnce(&mut Interp) -> Vec<RtVal>,
    enc: &mut StreamEncoder,
) -> SimStats {
    stats_or_panic(one(&config, Tier::from_env()).run(Source::Image {
        image: Arc::clone(image),
        func,
        setup: &mut once(setup),
        record: Some(std::slice::from_mut(enc)),
    }))
}

/// Replay a single-core trace on `config`.
///
/// # Panics
/// On a malformed trace.
pub fn replay_on_machine(config: &MachineConfig, trace: &Trace) -> SimStats {
    stats_or_panic(one(&config, Tier::default()).run(Source::Trace(trace)))
}

/// Replay a single-core trace **file** on `config` without ever
/// materialising the payload.
///
/// # Errors
/// Any [`TraceError`] in the file — envelope violations, per-block
/// checksum mismatches, or I/O failures — as [`SimError::Trace`].
pub fn streaming_replay_on_machine(
    config: &MachineConfig,
    replay: &StreamingReplay,
) -> Result<SimStats, SimError> {
    Ok(one(&config, Tier::default()).run(Source::Stream(replay))?[0].stats)
}

/// Run `n_cores` independent copies of `func` against a shared LLC and
/// DRAM channel; returns per-core statistics. `setup` is invoked once
/// per core with the core index.
///
/// # Panics
/// If any core's program traps.
pub fn run_multicore(
    config: &MachineConfig,
    n_cores: usize,
    module: &Module,
    func: FuncId,
    mut setup: impl FnMut(usize, &mut Interp) -> Vec<RtVal>,
) -> Vec<SimStats> {
    Sim {
        cores: n_cores,
        ..one(&config, Tier::from_env())
    }
    .run(Source::image(
        &Arc::new(ExecImage::build(module)),
        func,
        &mut setup,
    ))
    .unwrap_or_else(|e| panic!("{e}"))
    .iter()
    .map(|r| r.stats)
    .collect()
}
