//! # The experiment harness
//!
//! Every figure/table reproduction is a *declarative*
//! [`ExperimentSpec`]: a machine × workload × variant grid (plus an
//! optional cell filter for asymmetric figures like Fig. 4's
//! Phi-only ICC column), where a [`Variant`] is a label, a [`Kernel`]
//! and a core count. The harness expands the grid into independent
//! [`SimJob`]s, builds and pass-compiles each distinct kernel **once**,
//! lowers each distinct printed text once into a shared [`ExecImage`],
//! and executes the jobs on a self-scheduling pool of host threads
//! (`std::thread::scope` workers pulling from an atomic job queue —
//! every simulation in a grid is independent, so the grid parallelises
//! embarrassingly).
//!
//! Functional execution is machine-independent, so the harness groups a
//! grid's jobs by the event stream they share — same workload, same
//! printed kernel, same core count — and **interprets each distinct
//! kernel at most once per run**: cold, the single interpretation's
//! retire-event stream fans out to every machine's timing model
//! simultaneously (recording into the `swpf-trace` cache when
//! persisting); warm
//! (`--trace-dir` / `SWPF_TRACE_DIR`), the cached file is streamed
//! block-at-a-time, decoded once and fanned out the same way with no
//! interpreter in the loop at all.
//! Either way each cell's statistics are bit-identical to a dedicated
//! direct simulation (see [`TracePolicy`]; `--no-trace` opts out).
//! Multicore cells interpret one by one instead — their interleaving
//! schedule is timing-dependent, so they cannot share one fused pass.
//! Every arm is the same call: one row of cells through one
//! [`swpf_sim::Sim`] request, differing only in the
//! [`swpf_sim::Source`] the events come from.
//!
//! Each run emits:
//! * the human-readable table of the paper's figure, rendered from
//!   derived [`TableSection`]s, and
//! * a machine-readable JSON artifact `RESULTS/<name>.json` — spec,
//!   per-cell [`SimStats`] counters, trace hits/misses, derived tables,
//!   shape-check verdicts, and wall-clock metadata — so CI can diff the
//!   numbers a PR changed.
//!
//! An experiment may also carry a [`Search`]: after its grid, the
//! harness runs each of the search's strategies over its space, per
//! workload × machine of the spec (see `run_search`). A search prices
//! its candidates through the same rows as a grid: each configuration
//! it asks for becomes a variant with one cell per machine, and each
//! distinct printed text is simulated once. The searched experiments
//! (`tune`, `pipeline_search`) have an empty grid and a search; every
//! experiment, searched or not, is run and reported the same way.
//!
//! Shape checks ([`Check`]) turn the suite into an end-to-end
//! regression oracle: structural checks (grid complete, non-zero
//! cycles, finite derived values) run at every scale, and each
//! experiment adds behavioural claims for the paper's qualitative
//! findings (e.g. *software prefetching speeds up in-order machines*).
//! [`Experiment::verdicts`] is the one place claims become the verdicts
//! an artifact prints.

use crate::claim::Check;
use crate::json::Json;
use crate::{auto_module, geomean, icc_module};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use swpf_core::{ParamValue, PassConfig};
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{Interp, Tier};
use swpf_ir::{FuncId, Module};
use swpf_sim::{MachineConfig, PcProfile, Sim, SimError, SimStats, Source};
use swpf_trace::{fnv64, StreamingReplay, Trace, TraceRecorder};
use swpf_tune::{tune_cell, Evaluator, Pricer, Space, Strategy, TuneReport};
use swpf_workloads::{KernelVariant, Scale, Workload, WorkloadId};

/// The kernel a variant's cells run.
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// A kernel the workload builds itself (baseline, manual, Fig. 2
    /// schemes, stagger depths).
    Built(KernelVariant),
    /// The automatic pass output under this configuration.
    Pass(PassConfig),
    /// The ICC-like stride-indirect baseline pass (Fig. 4d), at the
    /// default configuration.
    Icc,
}

impl Kernel {
    /// Build this kernel for `w`; `None` when `w` cannot build it (e.g.
    /// Fig. 2 schemes outside IS). Pass kernels build everywhere.
    #[must_use]
    pub(crate) fn build(&self, w: &dyn Workload) -> Option<Module> {
        match self {
            Kernel::Built(kv) => w.build_variant(*kv),
            Kernel::Pass(config) => Some(auto_module(w, config)),
            Kernel::Icc => Some(icc_module(w, &PassConfig::default())),
        }
    }
}

/// One value of the variant axis: the cells' label, the kernel they
/// run, and on how many cores. This is all that tells cells apart
/// within a workload: cells whose kernels print the same and whose core
/// counts agree share one event stream (see [`run_experiment`]).
#[derive(Debug, Clone)]
pub struct Variant {
    /// Unique cell label within an experiment ("auto", "mc4_baseline").
    pub label: String,
    /// The kernel the cells run.
    pub kernel: Kernel,
    /// Copies of the kernel, each on its own core of one machine
    /// (Fig. 9); 1 for single-core cells.
    pub cores: usize,
}

impl Variant {
    /// A single-core cell of a kernel the workload builds, labelled
    /// after it.
    #[must_use]
    pub fn built(kv: KernelVariant) -> Variant {
        Variant {
            label: kv.label(),
            kernel: Kernel::Built(kv),
            cores: 1,
        }
    }

    /// A single-core cell of the pass output under `config`.
    #[must_use]
    pub fn pass(label: &str, config: PassConfig) -> Variant {
        Variant {
            label: label.to_string(),
            kernel: Kernel::Pass(config),
            cores: 1,
        }
    }

    /// The baseline kernel variant (speedup denominator).
    #[must_use]
    pub fn baseline() -> Variant {
        Variant::built(KernelVariant::Baseline)
    }

    /// The auto-pass variant at the default configuration.
    #[must_use]
    pub fn auto_default() -> Variant {
        Variant::pass("auto", PassConfig::default())
    }

    /// The ICC-like pass variant.
    #[must_use]
    pub fn icc() -> Variant {
        Variant {
            label: "icc".to_string(),
            kernel: Kernel::Icc,
            cores: 1,
        }
    }

    /// The effective prefetch-pass parameters of this variant's cells,
    /// recorded in the artifact so the numbers are self-describing (and
    /// diff cleanly against tuner output). Pass-compiled variants carry
    /// the full [`PassConfig`] surface; manual kernels carry the knobs
    /// that are actually theirs (look-ahead, and stagger depth for
    /// Fig. 7); baselines and the hand-written Fig. 2 schemes carry
    /// none.
    #[must_use]
    pub fn pass_params(&self) -> Vec<(&'static str, ParamValue)> {
        match &self.kernel {
            Kernel::Pass(config) => config.parameters(),
            Kernel::Icc => PassConfig::default().parameters(),
            Kernel::Built(KernelVariant::Manual { look_ahead }) => {
                vec![("look_ahead", ParamValue::Int(*look_ahead))]
            }
            Kernel::Built(KernelVariant::ManualDepth { look_ahead, depth }) => vec![
                ("look_ahead", ParamValue::Int(*look_ahead)),
                (
                    "max_indirect_depth",
                    ParamValue::Int(i64::try_from(*depth).unwrap_or(i64::MAX)),
                ),
            ],
            Kernel::Built(_) => Vec::new(),
        }
    }
}

/// Cell filter: keep the (machine, workload, variant) combination?
pub type CellFilter = fn(&MachineConfig, WorkloadId, &Variant) -> bool;

/// A declarative experiment: the full grid, expanded by [`expand`].
#[derive(Clone)]
pub struct ExperimentSpec {
    /// Artifact name ("fig4"); also the `RESULTS/<name>.json` stem.
    pub name: &'static str,
    /// Human title for tables and logs.
    pub title: &'static str,
    /// Workload scale the grid runs at.
    pub scale: Scale,
    /// Machine axis.
    pub machines: Vec<MachineConfig>,
    /// Workload axis.
    pub workloads: Vec<WorkloadId>,
    /// Variant axis.
    pub variants: Vec<Variant>,
    /// Optional cell filter (`None` keeps the full cross product).
    pub filter: Option<CellFilter>,
    /// Ask every cell's simulation for a per-PC prefetch-efficacy
    /// profile ([`swpf_sim::perf`]), serialised as the additive `perf`
    /// cell member. Off for the figure grids (the default timing path
    /// stays profiling-free); the `prefetch_profile` experiment turns it
    /// on.
    pub perf: bool,
}

impl ExperimentSpec {
    fn keep(&self, m: &MachineConfig, w: WorkloadId, v: &Variant) -> bool {
        self.filter.is_none_or(|f| f(m, w, v))
    }
}

/// One independent simulation: indices into the spec's axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimJob {
    /// Index into [`ExperimentSpec::machines`].
    pub machine: usize,
    /// Index into [`ExperimentSpec::workloads`].
    pub workload: usize,
    /// Index into [`ExperimentSpec::variants`].
    pub variant: usize,
}

/// Expand a spec into its deduplicated job list.
///
/// Cells are dropped when the filter rejects them or the workload does
/// not support the kernel variant (e.g. Fig. 2 schemes outside IS), and
/// deduplicated by `(machine, workload, label)` so a variant listed
/// twice — typically a shared baseline — runs once.
#[must_use]
pub fn expand(spec: &ExperimentSpec) -> Vec<SimJob> {
    let supported: Vec<bool> = support_mask(spec);
    let mut seen = std::collections::HashSet::new();
    let mut jobs = Vec::new();
    for (wi, &w) in spec.workloads.iter().enumerate() {
        for (vi, v) in spec.variants.iter().enumerate() {
            if !supported[wi * spec.variants.len() + vi] {
                continue;
            }
            for (mi, m) in spec.machines.iter().enumerate() {
                if !spec.keep(m, w, v) {
                    continue;
                }
                if seen.insert((mi, wi, &v.label)) {
                    jobs.push(SimJob {
                        machine: mi,
                        workload: wi,
                        variant: vi,
                    });
                }
            }
        }
    }
    jobs
}

/// `workload × variant` support matrix (kernel variants a workload
/// cannot build are unsupported; pass variants work everywhere).
fn support_mask(spec: &ExperimentSpec) -> Vec<bool> {
    let probe: Vec<Box<dyn Workload>> = spec
        .workloads
        .iter()
        .map(|id| id.instantiate(Scale::Test))
        .collect();
    let mut mask = Vec::with_capacity(spec.workloads.len() * spec.variants.len());
    for w in &probe {
        for v in &spec.variants {
            // Probe with tiny inputs: support depends only on the
            // workload's shape, not its scale.
            mask.push(match v.kernel {
                Kernel::Built(kv) => w.build_variant(kv).is_some(),
                Kernel::Pass(_) | Kernel::Icc => true,
            });
        }
    }
    mask
}

/// A decoded, ready-to-run kernel module.
struct PreparedModule {
    image: Arc<ExecImage>,
    func: FuncId,
    /// FNV-1a digest of the module's textual IR, folded into trace
    /// fingerprints so a cached trace of a changed kernel is re-recorded
    /// rather than silently replayed.
    text_hash: u64,
}

impl PreparedModule {
    /// Decode `module`, whose printed form is `text`.
    fn new(module: &Module, text: &str) -> PreparedModule {
        let _span = swpf_obs::span("decode");
        PreparedModule {
            image: Arc::new(ExecImage::build(module)),
            func: module
                .find_function("kernel")
                .expect("workload kernels are named `kernel`"),
            text_hash: fnv64(text.as_bytes()),
        }
    }
}

/// The result of one simulated cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Machine display name.
    pub machine: &'static str,
    /// Workload display name.
    pub workload: &'static str,
    /// Variant label.
    pub variant: String,
    /// Per-core statistics; single-core cells have exactly one entry.
    pub cores: Vec<SimStats>,
    /// Host wall-clock time of this simulation in milliseconds. Cells
    /// served by one fused group pass (see [`TracePolicy`]) share its
    /// wall time evenly.
    pub wall_ms: f64,
    /// Whether the cell was served without its own interpretation —
    /// from a replayed trace or a fused group pass (`false`: this cell
    /// paid the interpretation, possibly recording as it ran).
    pub replayed: bool,
    /// Effective prefetch-pass parameters of the cell's kernel
    /// ([`Variant::pass_params`]); empty for cells without prefetch
    /// code. Serialised as the additive `params` member of the cell.
    pub params: Vec<(&'static str, ParamValue)>,
    /// Active execution tier (`SWPF_TIER`) of the run that produced
    /// this cell. Replayed cells record the run's configured tier even
    /// though no interpreter ran — the label describes the experiment
    /// configuration, not the cache hit. Serialised as the additive
    /// `tier` member of the cell.
    pub tier: &'static str,
    /// Per-core prefetch-efficacy profiles ([`PcProfile`]), parallel to
    /// `cores` when the run asked for them (spec `perf`, `--perf`, or
    /// `SWPF_PERF`); empty otherwise. Serialised as the additive `perf`
    /// member of the cell.
    pub perf: Vec<PcProfile>,
}

impl CellResult {
    /// The single-core statistics (first core).
    ///
    /// # Panics
    /// Never — every cell has at least one core.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.cores[0]
    }

    /// Simulated makespan: the slowest core's cycle count.
    #[must_use]
    pub fn max_cycles(&self) -> u64 {
        self.cores.iter().map(|s| s.cycles).max().unwrap_or(0)
    }
}

/// Everything one experiment run produced.
pub struct ExperimentResult {
    /// Artifact name.
    pub name: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Scale the run used.
    pub scale: Scale,
    /// Machine axis (for artifact metadata).
    pub machines: Vec<MachineConfig>,
    /// One entry per executed job, in deterministic job order.
    pub cells: Vec<CellResult>,
    /// Worker threads used.
    pub threads: usize,
    /// Total harness wall time in seconds (prepare + simulate).
    pub wall_s: f64,
    /// The trace policy the run's grid used.
    pub trace: TracePolicy,
    /// What the experiment's [`Search`] found, one entry per workload;
    /// empty for an experiment without one.
    pub searches: Vec<WorkloadSearch>,
}

impl ExperimentResult {
    /// The trace policy as artifacts and logs name it: "fanout" for a
    /// searched experiment (each of its rows fans one interpretation
    /// out to every machine, whatever the policy), else
    /// [`TracePolicy::label`].
    #[must_use]
    pub fn trace_label(&self) -> String {
        if self.searches.is_empty() {
            self.trace.label()
        } else {
            "fanout".to_string()
        }
    }

    /// Cells served without their own interpretation — from a replayed
    /// trace or a fused group pass.
    #[must_use]
    pub fn trace_hits(&self) -> usize {
        self.cells.iter().filter(|c| c.replayed).count()
    }

    /// Cells that paid an interpretation (recording or direct).
    #[must_use]
    pub fn trace_misses(&self) -> usize {
        self.cells.len() - self.trace_hits()
    }

    /// Find a cell by its three axis labels.
    #[must_use]
    pub fn cell(&self, machine: &str, workload: &str, variant: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.machine == machine && c.workload == workload && c.variant == variant)
    }

    /// Speedup of `variant` over the `baseline` variant on the same
    /// machine × workload cell; `NaN` when either cell is missing.
    #[must_use]
    pub fn speedup(&self, machine: &str, workload: &str, variant: &str) -> f64 {
        let (Some(v), Some(b)) = (
            self.cell(machine, workload, variant),
            self.cell(machine, workload, "baseline"),
        ) else {
            return f64::NAN;
        };
        v.stats().speedup_vs(b.stats())
    }
}

/// How the harness uses the `swpf-trace` record/replay subsystem.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TracePolicy {
    /// Simulate every cell directly (no recording, no replay).
    Off,
    /// Interpret each distinct single-core kernel once, its events
    /// fanned out to every machine of its group; record nothing (the
    /// default).
    #[default]
    Memory,
    /// Like [`TracePolicy::Memory`], but record each group's first
    /// interpretation under this directory and reuse
    /// fingerprint-matching traces across runs and experiments
    /// (`--trace-dir` / `SWPF_TRACE_DIR`).
    Dir(PathBuf),
}

impl TracePolicy {
    /// Stable label for logs and artifacts.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            TracePolicy::Off => "off".to_string(),
            TracePolicy::Memory => "memory".to_string(),
            TracePolicy::Dir(d) => d.display().to_string(),
        }
    }
}

/// How to run an experiment's jobs.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads; `0` (the default) means one per host core.
    pub threads: usize,
    /// Trace record/replay policy.
    pub trace: TracePolicy,
    /// Profile every cell (`--perf` / `SWPF_PERF`) whatever the spec's
    /// own `perf` flag says; it reaches the simulations as
    /// [`Sim::perf`]. The default path runs profiling-free.
    pub perf: bool,
    /// Execution tier every cell's interpreters are built on
    /// (`SWPF_TIER`, resolved once by [`cli_options_from`]; default:
    /// bytecode).
    pub tier: Tier,
}

impl RunOptions {
    fn effective_threads(&self, units: usize) -> usize {
        let t = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            t => t,
        };
        t.clamp(1, units.max(1))
    }
}

/// A derived (printable + serialised) table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSection {
    /// Section heading.
    pub title: String,
    /// Column headings (value columns; the row-name column is implied).
    pub columns: Vec<String>,
    /// Rows in display order.
    pub rows: Vec<Row>,
    /// Free-form footer lines (e.g. Table 1's real-hardware reference).
    pub notes: Vec<String>,
}

impl TableSection {
    /// A section with no footer notes.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: Vec<String>, rows: Vec<Row>) -> TableSection {
        TableSection {
            title: title.into(),
            columns,
            rows,
            notes: Vec::new(),
        }
    }
}

/// One row of a derived table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row name (workload, machine, or sweep point).
    pub name: String,
    /// One value per column.
    pub values: Vec<f64>,
}

/// Derivation hook: turn raw cells into the figure's tables.
pub type DeriveFn = fn(&ExperimentResult) -> Vec<TableSection>;
/// Shape-check hook: assert the paper's qualitative claims.
pub type ChecksFn = fn(&ExperimentResult, &[TableSection]) -> Vec<Check>;

/// A complete experiment: grid (+ search) + derivation + shape checks.
pub struct Experiment {
    /// The declarative grid.
    pub spec: ExperimentSpec,
    /// A search run after the grid over the spec's machines and
    /// workloads (`None`: the grid is the whole experiment).
    pub search: Option<Search>,
    /// Derivation hook.
    pub derive: DeriveFn,
    /// Shape-check hook (behavioural; structural checks are automatic).
    pub checks: ChecksFn,
}

impl Experiment {
    /// The verdicts an artifact prints: the structural checks, then the
    /// experiment's own claims, each as evaluated at the result's scale
    /// ([`Check::at_scale`]: paper-only claims are dropped below paper
    /// scale).
    #[must_use]
    pub fn verdicts(&self, result: &ExperimentResult, derived: &[TableSection]) -> Vec<Check> {
        let claims = (self.checks)(result, derived);
        structural_checks(result, derived)
            .into_iter()
            .chain(claims)
            .filter_map(|c| c.at_scale(result.scale))
            .collect()
    }
}

/// A search over one [`Space`]: each strategy in turn, per workload ×
/// machine. The first strategy is the oracle the later ones are
/// measured against ([`TuneReport::oracle_cycles`]).
pub struct Search {
    /// The space searched.
    pub space: Box<dyn Space>,
    /// The strategies, oracle first.
    pub strategies: Vec<Box<dyn Strategy>>,
}

/// What a [`Search`] found on one workload.
pub struct WorkloadSearch {
    /// Workload display name.
    pub workload: &'static str,
    /// `[machine][strategy]`, in spec and search order.
    pub reports: Vec<Vec<TuneReport>>,
    /// Per machine: simulated cycles of the compiler's default
    /// configuration (`PassConfig::default()`, bare `swpf`).
    pub default_cycles: Vec<u64>,
    /// Per strategy: (distinct configurations priced, wall seconds).
    pub costs: Vec<(usize, f64)>,
}

/// Run an experiment: prepare modules, execute the job grid on a thread
/// pool (grouped by shared kernel trace, see [`TracePolicy`]), collect
/// per-cell statistics in deterministic order, then run the
/// experiment's [`Search`], if any.
///
/// # Panics
/// On unsupported spec cells surviving expansion, simulation traps, or
/// a poisoned result mutex — all harness-fatal configuration errors.
#[must_use]
pub fn run_experiment(exp: &Experiment, opts: &RunOptions) -> ExperimentResult {
    let spec = &exp.spec;
    let t0 = Instant::now();

    // Instantiate each workload once; jobs share them read-only.
    let workloads: Vec<Box<dyn Workload>> = spec
        .workloads
        .iter()
        .map(|id| id.instantiate(spec.scale))
        .collect();

    let jobs = expand(spec);

    let (modules, groups) = group_jobs(spec, &workloads, &jobs);
    if swpf_obs::enabled() {
        swpf_obs::count("harness.jobs", jobs.len() as u64);
        swpf_obs::count("harness.modules_prepared", modules.len() as u64);
        // Jobs map many-to-one onto prepared modules; the difference is
        // the build+compile+decode work the dedup saved.
        swpf_obs::count(
            "harness.kernel_dedup_hits",
            (jobs.len().saturating_sub(modules.len())) as u64,
        );
    }

    // Execute: worker threads self-schedule trace groups off an atomic
    // queue (pull-based stealing — a slow group never blocks the rest
    // of the grid behind it). Groups are independent, so the grid still
    // parallelises embarrassingly; results land in job order.
    let threads = opts.effective_threads(groups.len());
    if swpf_obs::enabled() {
        swpf_obs::count("harness.trace_groups", groups.len() as u64);
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellResult>>> = Mutex::new(vec![None; jobs.len()]);
    let (workloads_ref, modules_ref, jobs_ref) = (&workloads, &modules, &jobs);
    let (groups_ref, next_ref, slots_ref) = (&groups, &next, &slots);
    let work = move || loop {
        let gi = next_ref.fetch_add(1, Ordering::Relaxed);
        let Some((module, group)) = groups_ref.get(gi) else {
            break;
        };
        let prepared = &modules_ref[*module];
        let cells = run_group(spec, workloads_ref, prepared, jobs_ref, group, opts);
        let mut slots = slots_ref.lock().expect("no panics hold the lock");
        for (ji, cell) in cells {
            slots[ji] = Some(cell);
        }
    };
    // The calling thread is worker 0; only the helpers are spawned.
    std::thread::scope(|scope| {
        for wi in 1..threads {
            scope.spawn(move || {
                if swpf_obs::enabled() {
                    swpf_obs::name_thread(&format!("worker-{wi}"));
                }
                work();
            });
        }
        work();
    });

    let mut cells: Vec<CellResult> = slots
        .into_inner()
        .expect("workers finished")
        .into_iter()
        .map(|c| c.expect("every job ran"))
        .collect();

    let (search_cells, searches) = match &exp.search {
        Some(s) => run_search(s, spec, opts),
        None => Default::default(),
    };
    cells.extend(search_cells);
    ExperimentResult {
        name: spec.name,
        title: spec.title,
        scale: spec.scale,
        machines: spec.machines.clone(),
        cells,
        threads,
        wall_s: t0.elapsed().as_secs_f64(),
        trace: opts.trace.clone(),
        searches,
    }
}

/// Prepare the modules `jobs` run and group the jobs by the event
/// stream they consume. Each distinct (workload, kernel) is built and
/// pass-compiled once, and each distinct printed text of a workload
/// decoded once: kernels that print alike (a pass that found nothing to
/// do, two pipelines that end in the same code) are one module. Jobs of
/// one module and one core count form one trace group — a single-core
/// group's cells share one interpretation, so each distinct single-core
/// kernel is interpreted exactly once per run (or zero times on a disk
/// hit). Returns the modules and each group's module and jobs, in job
/// order.
fn group_jobs(
    spec: &ExperimentSpec,
    workloads: &[Box<dyn Workload>],
    jobs: &[SimJob],
) -> (Vec<PreparedModule>, Vec<(usize, Vec<usize>)>) {
    let mut modules: Vec<PreparedModule> = Vec::new();
    let mut by_text: HashMap<(usize, String), usize> = HashMap::new();
    let mut module_of: HashMap<(usize, usize), usize> = HashMap::new();
    let mut group_of: HashMap<(usize, usize), usize> = HashMap::new();
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (ji, job) in jobs.iter().enumerate() {
        let (wi, v) = (job.workload, &spec.variants[job.variant]);
        // The first variant with this kernel builds it (Fig. 9 lists
        // each kernel once per core count).
        let first = spec.variants.iter().position(|u| u.kernel == v.kernel);
        let module = *module_of
            .entry((wi, first.unwrap_or(job.variant)))
            .or_insert_with(|| {
                let module = {
                    let _span = swpf_obs::span("build");
                    let w = workloads[wi].as_ref();
                    v.kernel
                        .build(w)
                        .expect("expansion only keeps supported kernels")
                };
                let text = swpf_ir::printer::print_module(&module);
                *by_text.entry((wi, text)).or_insert_with_key(|(_, text)| {
                    modules.push(PreparedModule::new(&module, text));
                    modules.len() - 1
                })
            });
        let gi = *group_of.entry((module, v.cores)).or_insert_with(|| {
            groups.push((module, Vec::new()));
            groups.len() - 1
        });
        groups[gi].1.push(ji);
    }
    (modules, groups)
}

/// Run `search` over the spec's workloads × machines, each strategy in
/// turn per workload (see `run_strategy`). Returns every evaluated
/// point as cells and what the search found per workload.
///
/// # Panics
/// On a malformed space or a simulation trap — configuration errors.
#[must_use]
fn run_search(
    search: &Search,
    spec: &ExperimentSpec,
    opts: &RunOptions,
) -> (Vec<CellResult>, Vec<WorkloadSearch>) {
    search.space.assert_well_formed();
    let mut cells = Vec::new();
    let mut searches = Vec::new();
    for &id in &spec.workloads {
        let w = id.instantiate(spec.scale);
        let mut found = WorkloadSearch {
            workload: w.name(),
            reports: vec![Vec::new(); spec.machines.len()],
            default_cycles: Vec::new(),
            costs: Vec::new(),
        };
        for strategy in &search.strategies {
            let session = Session {
                spec,
                opts,
                workload: w.as_ref(),
                strategy: strategy.name(),
                eval: Evaluator::new(w.as_ref(), &spec.machines),
                configs: HashMap::new(),
                texts: HashMap::new(),
                cells: Vec::new(),
            };
            cells.extend(run_strategy(
                &mut found,
                session,
                search.space.as_ref(),
                strategy.as_ref(),
            ));
        }
        searches.push(found);
    }
    (cells, searches)
}

/// Run one strategy over every machine on a **fresh** [`Session`], so
/// the configurations it asks for and its wall time are the honest cost
/// of running it alone. Appends to `found` the per-machine reports,
/// measured against the first strategy's optimum, and the strategy's
/// cost — the first strategy also records the default configuration's
/// cycles — and returns the session's cells.
fn run_strategy(
    found: &mut WorkloadSearch,
    mut session: Session<'_>,
    space: &dyn Space,
    strategy: &dyn Strategy,
) -> Vec<CellResult> {
    let oracles: Option<Vec<u64>> = (!found.costs.is_empty())
        .then(|| found.reports.iter().map(|r| r[0].chosen_cycles).collect());
    let machines = session.eval.machines();
    let t0 = Instant::now();
    for (mi, reports) in found.reports.iter_mut().enumerate() {
        let oracle = oracles.as_ref().map(|o| o[mi]);
        reports.push(tune_cell(
            strategy,
            space,
            machines,
            mi,
            &mut session,
            oracle,
        ));
        let default_cycles = session.cycles(&PassConfig::default(), mi);
        if oracles.is_none() {
            found.default_cycles.push(default_cycles);
        }
    }
    found
        .costs
        .push((session.configs.len(), t0.elapsed().as_secs_f64()));
    session.cells
}

/// One strategy's [`Pricer`] on one workload. Each configuration asked
/// for is compiled once, with the [`Evaluator`]'s shared analyses, and
/// becomes a variant labelled `{strategy}_{cache key}` with one cell per
/// machine of the spec. Each distinct printed text is simulated once,
/// on every machine at once, by [`run_row`]; a configuration that prints
/// like an earlier one gets copies of that one's cells under its own
/// label (so its first machine's cell is not `replayed` either).
struct Session<'a> {
    spec: &'a ExperimentSpec,
    opts: &'a RunOptions,
    workload: &'a dyn Workload,
    strategy: &'static str,
    eval: Evaluator<'a>,
    /// Configurations asked for: the index of their first cell.
    configs: HashMap<PassConfig, usize>,
    /// Texts simulated: the index of the first cell that simulated it.
    texts: HashMap<String, usize>,
    /// One cell per machine per configuration, in request order.
    cells: Vec<CellResult>,
}

impl Pricer for Session<'_> {
    fn cycles(&mut self, config: &PassConfig, machine: usize) -> u64 {
        let at = match self.configs.get(config) {
            Some(&at) => at,
            None => self.price(config),
        };
        // Slice first: a machine out of range must not read the next
        // configuration's cells.
        self.cells[at..at + self.spec.machines.len()][machine]
            .stats()
            .cycles
    }
}

impl Session<'_> {
    /// Compile `config`, add its cells, and return the first one's index.
    fn price(&mut self, config: &PassConfig) -> usize {
        let label = format!("{}_{}", self.strategy, config.cache_key());
        let variant = Variant::pass(&label, config.clone());
        let (module, _) = self.eval.compile_candidate(config);
        let text = swpf_ir::printer::print_module(&module);
        let at = self.cells.len();
        let machines = self.spec.machines.len();
        let cells = if let Some(&seen) = self.texts.get(&text) {
            self.cells[seen..seen + machines]
                .iter()
                .map(|cell| CellResult {
                    variant: label.clone(),
                    params: variant.pass_params(),
                    wall_ms: 0.0,
                    ..cell.clone()
                })
                .collect()
        } else {
            let prepared = PreparedModule::new(&module, &text);
            self.texts.insert(text, at);
            let w = self.workload;
            let mut setup = |_: usize, interp: &mut Interp| w.setup(interp);
            let row: Vec<(usize, &Variant)> = (0..machines).map(|mi| (mi, &variant)).collect();
            let source = Source::image(&prepared.image, prepared.func, &mut setup);
            interpret_row(self.spec, self.opts, w, 1, &row, source)
        };
        self.cells.extend(cells);
        self.configs.insert(config.clone(), at);
        at
    }
}

/// Everything the trace fingerprint must cover: the kernel's textual
/// IR, the workload (whose `setup` fixes the input data), the scale,
/// and the core count. A cached trace with any of these changed is
/// re-recorded, never silently replayed. Shared with the
/// `trace_analytics` experiment, which reads the same cache files.
#[must_use]
pub(crate) fn kernel_fingerprint(
    workload: &str,
    scale: Scale,
    cores: usize,
    text_hash: u64,
) -> u64 {
    fnv64(format!("{workload}|{}|{cores}|{text_hash:016x}", scale.label()).as_bytes())
}

/// The cache file a kernel's trace persists to under a
/// [`TracePolicy::Dir`] directory, named by its [`kernel_fingerprint`]:
/// one kernel finds one file, whichever experiment or cell label asks —
/// one naming scheme shared by the harness and the analytics experiment.
#[must_use]
pub(crate) fn trace_cache_path(dir: &Path, scale: Scale, workload: &str, fp: u64) -> PathBuf {
    dir.join(format!("{}_{workload}_{fp:016x}.trace", scale.label()))
}

/// Run one trace group: all jobs that run `prepared` on one core count.
/// Returns `(job index, cell)` pairs.
fn run_group(
    spec: &ExperimentSpec,
    workloads: &[Box<dyn Workload>],
    prepared: &PreparedModule,
    jobs: &[SimJob],
    group: &[usize],
    opts: &RunOptions,
) -> Vec<(usize, CellResult)> {
    let first = jobs[group[0]];
    let w = workloads[first.workload].as_ref();
    let cores = spec.variants[first.variant].cores;
    let cells_of = |row: &[usize]| -> Vec<(usize, &Variant)> {
        row.iter()
            .map(|&ji| (jobs[ji].machine, &spec.variants[jobs[ji].variant]))
            .collect()
    };
    let mut setup = |_: usize, interp: &mut Interp| w.setup(interp);

    let fingerprint = kernel_fingerprint(w.name(), spec.scale, cores, prepared.text_hash);
    let cache_path = match &opts.trace {
        TracePolicy::Dir(dir) => Some(trace_cache_path(dir, spec.scale, w.name(), fingerprint)),
        _ => None,
    };

    // Warm: stream the cached file block-at-a-time. A miss — no file,
    // stale fingerprint, another format version, damage — falls through
    // to re-record. A file can pass the envelope checks and still be
    // damaged inside a block, which the reader meets only when the
    // replay gets there: that, too, is a miss — drop the partial row
    // and re-record.
    if let Some(path) = &cache_path {
        let row = cells_of(group);
        let warm = open_streaming(path, fingerprint)
            .map(|replay| run_row(spec, opts, w.name(), cores, &row, Source::Stream(&replay)));
        match warm {
            Some(Ok(cells)) => {
                swpf_obs::count("trace.disk_hit", 1);
                return group.iter().copied().zip(cells).collect();
            }
            Some(Err(e)) => eprintln!("warning: ignoring trace {}: {e}", path.display()),
            None => {}
        }
        swpf_obs::count("trace.disk_miss", 1);
    }

    // Cold. One event stream serves a whole single-core group at once:
    // the interpreter runs a single time with its events fanned out to
    // every machine's timing model, so the stream crosses the host
    // caches once per group, not once per cell. Multicore cells
    // interleave their per-core streams on a schedule that depends on
    // the machine's timing, so they cannot share one fused pass: each
    // interprets on its own. So does every cell under
    // `TracePolicy::Off`. Only a trace directory records, on the
    // group's first row.
    let fused = cores == 1 && opts.trace != TracePolicy::Off;
    let mut recorder = cache_path
        .as_ref()
        .map(|_| TraceRecorder::new(cores, fingerprint));
    let mut out = Vec::with_capacity(group.len());
    for row in group.chunks(if fused { group.len() } else { 1 }) {
        let source = Source::Image {
            image: Arc::clone(&prepared.image),
            func: prepared.func,
            setup: &mut setup,
            record: recorder.as_mut().map(TraceRecorder::streams),
        };
        let cells = interpret_row(spec, opts, w, cores, &cells_of(row), source);
        out.extend(row.iter().copied().zip(cells));
        if let (Some(recorder), Some(path)) = (recorder.take(), &cache_path) {
            store_trace(path, &recorder.finish());
        }
    }
    out
}

/// [`run_row`] on interpreted events, whose one failure is a trap in
/// `w`'s kernel: a configuration error, fatal to the run.
fn interpret_row(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    w: &dyn Workload,
    cores: usize,
    row: &[(usize, &Variant)],
    source: Source<'_>,
) -> Vec<CellResult> {
    run_row(spec, opts, w.name(), cores, row, source)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

/// Run one row of cells that differ only in their machine — each a
/// machine index into `spec.machines` and the variant it runs — through
/// one simulation request of its distinct machines (alike kernels put
/// one machine in a row twice), and label the results in row order.
/// Grids and searches alike run every simulation through here. The span
/// is named after where the events come from, and a cell counts as
/// `replayed` unless it is the one that paid for an interpretation.
/// `wall_ms` covers the simulation only (persisting a recording is cache
/// upkeep, not cell cost), shared evenly by the row.
fn run_row(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    workload: &'static str,
    cores: usize,
    row: &[(usize, &Variant)],
    source: Source<'_>,
) -> Result<Vec<CellResult>, SimError> {
    let (span, from_trace) = match source {
        Source::Image { .. } => ("interpret", false),
        Source::Trace(_) => ("replay", true),
        Source::Stream(_) => ("stream_replay", true),
    };
    let mut distinct: Vec<usize> = row.iter().map(|&(mi, _)| mi).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let machines: Vec<&MachineConfig> = distinct.iter().map(|&mi| &spec.machines[mi]).collect();
    swpf_obs::count("harness.machine_runs", machines.len() as u64);
    let sim = Sim {
        machines: &machines,
        cores,
        tier: opts.tier,
        perf: spec.perf || opts.perf,
    };
    let t0 = Instant::now();
    let runs = {
        let _span = swpf_obs::span(span);
        sim.run(source)?
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3 / row.len() as f64;
    let runs_of: HashMap<usize, &[_]> = distinct.into_iter().zip(runs.chunks(cores)).collect();
    Ok(row
        .iter()
        .enumerate()
        .map(|(k, &(machine, variant))| {
            // Profiles are present for all cores or none (profiling is
            // per request, not per core).
            let (cores, perf): (Vec<SimStats>, Vec<Option<PcProfile>>) = runs_of[&machine]
                .iter()
                .map(|r| (r.stats, r.perf.clone()))
                .unzip();
            CellResult {
                machine: spec.machines[machine].name,
                workload,
                variant: variant.label.clone(),
                cores,
                wall_ms,
                replayed: from_trace || k > 0,
                params: variant.pass_params(),
                tier: opts.tier.label(),
                perf: perf.into_iter().flatten().collect(),
            }
        })
        .collect())
}

/// Open a cached trace for bounded-memory streaming replay — the one
/// way any consumer reads the cache — rejecting stale fingerprints. A
/// file of another format version is treated exactly like a stale
/// fingerprint: a silent miss, re-recorded and overwritten by the
/// store; any other undecodable file is a miss with one warning on
/// stderr. Shared with the `trace_analytics` experiment, so both keep
/// one cache discipline.
#[must_use]
pub(crate) fn open_streaming(path: &Path, fingerprint: u64) -> Option<StreamingReplay> {
    match StreamingReplay::open(path) {
        Ok(replay) if replay.fingerprint() == fingerprint => Some(replay),
        Ok(_) => None,
        Err(swpf_trace::TraceError::UnsupportedVersion(_))
        | Err(swpf_trace::TraceError::Io(std::io::ErrorKind::NotFound)) => None,
        Err(e) => {
            eprintln!("warning: ignoring trace {}: {e}", path.display());
            None
        }
    }
}

/// Persist a recorded trace; cache-write failures degrade to a warning
/// (the run itself does not depend on the cache). The bytes go to a
/// sibling temp file first and are renamed into place, so a reader —
/// another worker, another process on the same directory, the next run
/// after this one was killed — sees the old file or the new one, never
/// a torn one.
pub(crate) fn store_trace(path: &Path, trace: &Trace) {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    // Unique per writer, and not a `.trace`: cache lookups never see it.
    let tmp = path.with_extension(format!(
        "tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&tmp, trace.to_bytes())?;
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        std::fs::remove_file(&tmp).ok();
        eprintln!("warning: cannot cache trace {}: {e}", path.display());
        return;
    }
    swpf_obs::count("trace.stored", 1);
}

/// Structural shape checks every experiment gets for free: the grid is
/// complete, every simulated cell retired work, and no derived value is
/// non-finite or negative.
#[must_use]
pub fn structural_checks(result: &ExperimentResult, derived: &[TableSection]) -> Vec<Check> {
    let mut checks = Vec::new();
    let dead = result
        .cells
        .iter()
        .filter(|c| c.cores.iter().any(|s| s.cycles == 0 || s.insts.total == 0))
        .map(|c| format!("{}/{}/{}", c.workload, c.variant, c.machine));
    if !result.cells.is_empty() {
        checks.push(Check::holds(
            "all_cells_simulated",
            dead.clone().next().is_none(),
            first_three(dead, "every cell retired work", "retired no work"),
        ));
    }
    let bad = derived.iter().flat_map(|section| {
        section.rows.iter().flat_map(move |row| {
            row.values
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_finite() || **v < 0.0)
                .map(move |(i, _)| {
                    let column = section.columns.get(i).map_or("?", String::as_str);
                    format!("{} / {} / {column}", section.title, row.name)
                })
        })
    });
    checks.push(Check::holds(
        "derived_values_finite",
        bad.clone().next().is_none(),
        first_three(
            bad,
            "every derived value finite and non-negative",
            "non-finite or negative",
        ),
    ));
    checks
}

/// A check's detail that names what failed, not how much there was: so
/// that a grid growing by cells leaves a passing detail as it was.
/// `ok` when `names` is empty, else up to three of them and `what`.
fn first_three(mut names: impl Iterator<Item = String>, ok: &str, what: &str) -> String {
    let Some(first) = names.next() else {
        return ok.to_string();
    };
    let mut detail = first;
    for name in names.by_ref().take(2) {
        detail.push_str(", ");
        detail.push_str(&name);
    }
    if names.next().is_some() {
        detail.push_str(" and more");
    }
    format!("{detail}: {what}")
}

/// Geomean of one column across all named rows of a section.
#[must_use]
pub fn column_geomean(section: &TableSection, column: &str) -> f64 {
    let Some(ci) = section.columns.iter().position(|c| c == column) else {
        return f64::NAN;
    };
    let vals: Vec<f64> = section
        .rows
        .iter()
        .filter_map(|r| r.values.get(ci).copied())
        .collect();
    geomean(&vals)
}

/// Render sections as the paper lays its tables out: the name column
/// grows to the longest row name, and
/// whole-number values (Table 1's capacities and widths) print without
/// a fractional part.
pub fn print_sections(sections: &[TableSection]) {
    for section in sections {
        println!("\n=== {} ===", section.title);
        let name_width = section
            .rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(0)
            .max(10);
        print!("{:<name_width$}", "");
        for c in &section.columns {
            print!(" {c:>10}");
        }
        println!();
        for row in &section.rows {
            print!("{:<name_width$}", row.name);
            for &v in &row.values {
                if v.fract() == 0.0 && v.abs() < 1e12 {
                    print!(" {:>10}", v as i64);
                } else {
                    print!(" {v:>10.3}");
                }
            }
            println!();
        }
        for note in &section.notes {
            println!("{note}");
        }
    }
}

/// Serialise one run to `dir/<name>.json` (creating `dir`), returning
/// the path written, optionally carrying the run's additive `profile`
/// section (see [`profile_window_json`]).
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_artifact(
    dir: &Path,
    result: &ExperimentResult,
    derived: &[TableSection],
    checks: &[Check],
    profile: Option<Json>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", result.name));
    let mut doc = artifact_json(result, derived, checks);
    if let (Json::Obj(members), Some(p)) = (&mut doc, profile) {
        members.push(("profile".to_string(), p));
    }
    std::fs::write(&path, doc.to_pretty_string())?;
    Ok(path)
}

/// The additive `profile` artifact section: the *window* of profiling
/// activity between two [`swpf_obs::Summary`] captures (`swpf-obs` data
/// is cumulative per process; subtracting the pre-run capture keeps one
/// experiment's section free of its predecessors' spans when a driver
/// such as `--bin all` runs several in sequence).
#[must_use]
pub fn profile_window_json(pre: &swpf_obs::Summary, post: &swpf_obs::Summary) -> Json {
    let pre_rows: HashMap<&str, swpf_obs::SummaryRow> =
        pre.rows.iter().map(|(n, r)| (n.as_str(), *r)).collect();
    let mut phases = Vec::new();
    for (name, row) in &post.rows {
        let base = pre_rows.get(name.as_str()).copied().unwrap_or_default();
        let count = row.count.saturating_sub(base.count);
        let total_ns = row.total_ns.saturating_sub(base.total_ns);
        if count == 0 && total_ns == 0 {
            continue;
        }
        phases.push((
            name.clone(),
            Json::obj(vec![
                ("count", Json::U64(count)),
                ("total_ms", Json::F64(total_ns as f64 / 1e6)),
                (
                    "self_ms",
                    Json::F64(row.self_ns.saturating_sub(base.self_ns) as f64 / 1e6),
                ),
            ]),
        ));
    }
    let counters = post
        .counters
        .iter()
        .filter_map(|(name, &v)| {
            let delta = v.saturating_sub(pre.counters.get(name).copied().unwrap_or(0));
            (delta > 0).then(|| (name.clone(), Json::U64(delta)))
        })
        .collect();
    Json::Obj(vec![
        ("phases".to_string(), Json::Obj(phases)),
        ("counters".to_string(), Json::Obj(counters)),
    ])
}

/// Serialise a cell's effective pass parameters ([`ParamValue`]s) as a
/// JSON object.
#[must_use]
pub fn params_json(params: &[(&'static str, ParamValue)]) -> Json {
    Json::obj(
        params
            .iter()
            .map(|&(k, v)| {
                (
                    k,
                    match v {
                        // Non-negative ints as U64, the type the parser
                        // reads them back as (keeps round-trips exact).
                        ParamValue::Int(i) => match u64::try_from(i) {
                            Ok(u) => Json::U64(u),
                            Err(_) => Json::I64(i),
                        },
                        ParamValue::Bool(b) => Json::Bool(b),
                    },
                )
            })
            .collect(),
    )
}

/// The outcome-partition members of one [`swpf_sim::SiteProfile`],
/// shared by the per-site and totals objects of [`perf_json`].
fn site_members(s: &swpf_sim::SiteProfile) -> Vec<(&'static str, Json)> {
    vec![
        ("issued", Json::U64(s.issued)),
        ("timely", Json::U64(s.timely)),
        ("late", Json::U64(s.late)),
        ("early_evicted", Json::U64(s.early_evicted)),
        ("redundant_resident", Json::U64(s.redundant_resident)),
        ("redundant_inflight", Json::U64(s.redundant_inflight)),
        ("dropped", Json::U64(s.dropped)),
        ("unused_at_end", Json::U64(s.unused_at_end)),
        (
            "lead_cycles",
            Json::obj(vec![
                ("count", Json::U64(s.lead_cycles.count)),
                ("mean", Json::F64(s.lead_cycles.mean())),
                (
                    "min",
                    Json::U64(if s.lead_cycles.count == 0 {
                        0
                    } else {
                        s.lead_cycles.min
                    }),
                ),
                ("max", Json::U64(s.lead_cycles.max)),
            ]),
        ),
    ]
}

/// Serialise one core's [`PcProfile`] as the additive `perf` cell
/// member: the outcome partition per prefetch site and in total, plus
/// the hottest stall-attributed PCs (top 32 by attributed cycles — the
/// full map lives in memory for `perf_annotate`, the artifact carries
/// the headline).
#[must_use]
pub fn perf_json(p: &PcProfile) -> Json {
    let sites = p
        .sites
        .iter()
        .map(|(pc, s)| {
            let mut members = vec![("pc", Json::U64(*pc))];
            members.extend(site_members(s));
            Json::obj(members)
        })
        .collect();
    let mut stalls: Vec<(u64, swpf_sim::StallStat)> = p.stalls.clone();
    stalls.sort_by(|a, b| b.1.stall_ticks.cmp(&a.1.stall_ticks).then(a.0.cmp(&b.0)));
    stalls.truncate(32);
    let stalls = stalls
        .into_iter()
        .map(|(pc, st)| {
            Json::obj(vec![
                ("pc", Json::U64(pc)),
                ("stall_cycles", Json::U64(st.stall_cycles())),
                ("count", Json::U64(st.count)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("totals", Json::obj(site_members(&p.totals()))),
        ("conserved", Json::Bool(p.conserved())),
        ("stall_cycles", Json::U64(p.total_stall_cycles())),
        ("sites", Json::Arr(sites)),
        ("stalls", Json::Arr(stalls)),
    ])
}

/// One check of an artifact: name, verdict and detail; a comparison
/// claim adds its value, bound and margin (`null` when the bound is 0),
/// a paper-only claim its scale.
fn check_json(c: &Check) -> Json {
    let number = |v: f64| {
        Some(v)
            .filter(|v| v.is_finite())
            .map_or(Json::Null, Json::F64)
    };
    let mut members = vec![
        ("name", Json::Str(c.name.clone())),
        ("passed", Json::Bool(c.passed)),
        ("detail", Json::Str(c.detail.clone())),
    ];
    if let Some(cmp) = &c.comparison {
        members.push(("value", number(cmp.value)));
        members.push(("bound", number(cmp.bound.value)));
        members.push(("margin", cmp.margin().map_or(Json::Null, Json::F64)));
    }
    if c.paper_only {
        members.push(("scale", Json::Str(Scale::Paper.label().to_string())));
    }
    Json::obj(members)
}

/// The artifact document (schema v1; see DESIGN.md §5).
#[must_use]
pub fn artifact_json(
    result: &ExperimentResult,
    derived: &[TableSection],
    checks: &[Check],
) -> Json {
    let machines = result
        .machines
        .iter()
        .map(|m| {
            let mut members = vec![
                ("name", Json::Str(m.name.to_string())),
                ("core", Json::Str(m.core_kind_name().to_string())),
            ];
            members.extend(m.parameters().into_iter().map(|(k, v)| (k, Json::U64(v))));
            Json::obj(members)
        })
        .collect();
    let cells = result
        .cells
        .iter()
        .map(|c| {
            let cores = c
                .cores
                .iter()
                .map(|s| {
                    let mut members: Vec<(&str, Json)> = s
                        .counters()
                        .into_iter()
                        .map(|(k, v)| (k, Json::U64(v)))
                        .collect();
                    members.push(("ipc", Json::F64(s.ipc())));
                    Json::obj(members)
                })
                .collect();
            let mut members = vec![
                ("machine", Json::Str(c.machine.to_string())),
                ("workload", Json::Str(c.workload.to_string())),
                ("variant", Json::Str(c.variant.clone())),
                ("wall_ms", Json::F64(c.wall_ms)),
                ("replayed", Json::Bool(c.replayed)),
                ("tier", Json::Str(c.tier.to_string())),
            ];
            if !c.params.is_empty() {
                members.push(("params", params_json(&c.params)));
            }
            members.push(("cores", Json::Arr(cores)));
            if !c.perf.is_empty() {
                members.push(("perf", Json::Arr(c.perf.iter().map(perf_json).collect())));
            }
            Json::obj(members)
        })
        .collect();
    let derived = derived
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("title", Json::Str(s.title.clone())),
                (
                    "columns",
                    Json::Arr(s.columns.iter().map(|c| Json::Str(c.clone())).collect()),
                ),
                (
                    "notes",
                    Json::Arr(s.notes.iter().map(|n| Json::Str(n.clone())).collect()),
                ),
                (
                    "rows",
                    Json::Arr(
                        s.rows
                            .iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("name", Json::Str(r.name.clone())),
                                    (
                                        "values",
                                        Json::Arr(r.values.iter().map(|v| Json::F64(*v)).collect()),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let checks = checks.iter().map(check_json).collect();
    Json::obj(vec![
        ("schema_version", Json::U64(1)),
        ("experiment", Json::Str(result.name.to_string())),
        ("title", Json::Str(result.title.to_string())),
        ("scale", Json::Str(result.scale.label().to_string())),
        ("threads", Json::U64(result.threads as u64)),
        ("jobs", Json::U64(result.cells.len() as u64)),
        ("wall_seconds", Json::F64(result.wall_s)),
        (
            "trace",
            Json::obj(vec![
                ("policy", Json::Str(result.trace_label())),
                ("hits", Json::U64(result.trace_hits() as u64)),
                ("misses", Json::U64(result.trace_misses() as u64)),
            ]),
        ),
        ("machines", Json::Arr(machines)),
        ("cells", Json::Arr(cells)),
        ("derived", Json::Arr(derived)),
        ("checks", Json::Arr(checks)),
    ])
}

/// Run one experiment end to end — simulate, print the tables, write
/// the artifact, print every check verdict — and return the result and
/// verdicts (the `--bin all` driver aggregates them into its suite
/// summary).
///
/// # Panics
/// If the artifact cannot be written.
pub fn run_and_report(
    exp: &Experiment,
    opts: &RunOptions,
    out_dir: &Path,
) -> (ExperimentResult, Vec<Check>) {
    let pre = swpf_obs::enabled().then(|| swpf_obs::snapshot().summary());
    let result = {
        let _span =
            swpf_obs::enabled().then(|| swpf_obs::span(format!("experiment:{}", exp.spec.name)));
        run_experiment(exp, opts)
    };
    if swpf_obs::enabled() {
        swpf_obs::count("trace.cache_hit", result.trace_hits() as u64);
        swpf_obs::count("trace.cache_miss", result.trace_misses() as u64);
        // Cell-size distribution: one sample per simulated cell, so
        // every profiled experiment exercises the chrome-trace
        // histogram series (`hist:harness.cell_cycles:*`).
        for c in &result.cells {
            swpf_obs::record("harness.cell_cycles", c.max_cycles());
        }
    }
    let profile = pre.map(|p| profile_window_json(&p, &swpf_obs::snapshot().summary()));
    let derived = (exp.derive)(&result);
    let checks = exp.verdicts(&result, &derived);

    println!(
        "\n#### {} — {} [scale={}, {} jobs, {} threads, {:.2}s, trace {}: {} replayed / {} interpreted]",
        result.name,
        result.title,
        result.scale.label(),
        result.cells.len(),
        result.threads,
        result.wall_s,
        result.trace_label(),
        result.trace_hits(),
        result.trace_misses(),
    );
    print_sections(&derived);
    let path = write_artifact(out_dir, &result, &derived, &checks, profile)
        .unwrap_or_else(|e| panic!("cannot write artifact for {}: {e}", result.name));
    println!("\nartifact: {}", path.display());
    for check in &checks {
        let verdict = if check.passed { "ok  " } else { "FAIL" };
        println!("check {verdict} {} — {}", check.name, check.detail);
    }
    (result, checks)
}

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Worker threads (`--threads N`, `SWPF_THREADS`; 0 = all cores)
    /// and trace policy (`--trace-dir DIR`, `SWPF_TRACE_DIR`,
    /// `--no-trace`; default: in-memory record/replay).
    pub run: RunOptions,
    /// Workload scale (`SWPF_SCALE`; see [`crate::scale_from_env`]).
    pub scale: Scale,
    /// Artifact directory (`--out DIR`, default `RESULTS`).
    pub out_dir: PathBuf,
    /// Chrome-trace profile output (`--profile PATH`, `SWPF_PROFILE`);
    /// `None` leaves `swpf-obs` disabled.
    pub profile: Option<PathBuf>,
}

/// One-line usage of the options every experiment binary shares.
pub const CLI_USAGE: &str = "[--threads N] [--out DIR] [--trace-dir DIR | --no-trace] \
     [--stream-replay (no effect: warm hits always stream)] [--profile PATH] [--perf] [--help]";

/// Parse process arguments and environment; see [`cli_options_or_exit`].
#[must_use]
pub fn cli_options() -> CliOptions {
    cli_options_or_exit(std::env::args().skip(1), CLI_USAGE)
}

/// [`cli_options_from`] for a binary's `main`: `--help` prints
/// `usage` and exits 0; a malformed argument or environment value
/// prints one `error:` line and the usage to stderr and exits 2.
#[must_use]
pub fn cli_options_or_exit(args: impl Iterator<Item = String>, usage: &str) -> CliOptions {
    let args: Vec<String> = args.collect();
    if args.iter().any(|a| a == "--help") {
        println!("{}", usage_line(usage));
        std::process::exit(0);
    }
    cli_options_from(args.into_iter()).unwrap_or_else(|e| exit_with_usage_error(&e, usage))
}

/// Report a command-line error on stderr — one `error:` line, then the
/// one-line usage — and exit with status 2.
pub fn exit_with_usage_error(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\n{}", usage_line(usage));
    std::process::exit(2);
}

fn usage_line(usage: &str) -> String {
    let exe = std::env::args().next().unwrap_or_default();
    let name = Path::new(&exe)
        .file_name()
        .map_or_else(|| exe.clone(), |n| n.to_string_lossy().into_owned());
    format!("usage: {name} {usage}")
}

/// The shared options from an explicit argument stream and the
/// `SWPF_*` environment — for drivers (the `all` binary) that strip
/// their own arguments (`--only`, `--skip`, `--list`) before delegating
/// the shared ones here.
///
/// # Errors
/// On an unknown flag, a flag without its value, or a value (argument
/// or environment, `SWPF_SCALE` and `SWPF_TIER` included) that does not
/// parse.
pub fn cli_options_from(args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn integer(v: &str, what: &str) -> Result<usize, String> {
        v.parse()
            .map_err(|_| format!("{what} must be an integer, got `{v}`"))
    }

    let scale = crate::scale_from_env()?;
    let tier = Tier::try_from_env()?;
    let mut threads = match std::env::var("SWPF_THREADS") {
        Ok(v) => integer(&v, "SWPF_THREADS")?,
        Err(_) => 0,
    };
    let mut trace = match std::env::var_os("SWPF_TRACE_DIR") {
        Some(dir) => TracePolicy::Dir(PathBuf::from(dir)),
        None => TracePolicy::default(),
    };
    let mut out_dir = PathBuf::from("RESULTS");
    let mut profile = std::env::var_os("SWPF_PROFILE").map(PathBuf::from);
    // `SWPF_PERF=0` explicitly off, any other value on. This is the one
    // reader of the variable: the simulator takes profiling per request.
    let mut perf = std::env::var("SWPF_PERF").is_ok_and(|v| v != "0");
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => threads = integer(&value(&mut args, "--threads")?, "--threads")?,
            "--out" => out_dir = PathBuf::from(value(&mut args, "--out")?),
            "--trace-dir" => {
                trace = TracePolicy::Dir(PathBuf::from(value(&mut args, "--trace-dir")?));
            }
            "--no-trace" => trace = TracePolicy::Off,
            // Kept for existing command lines; every warm hit streams.
            "--stream-replay" => {}
            "--profile" => profile = Some(PathBuf::from(value(&mut args, "--profile")?)),
            "--perf" => perf = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(CliOptions {
        run: RunOptions {
            threads,
            trace,
            perf,
            tier,
        },
        scale,
        out_dir,
        profile,
    })
}

/// Enable `swpf-obs` profiling when the run asked for it (`--profile`
/// / `SWPF_PROFILE`), returning the chrome-trace output path to hand
/// to [`finish_profiling`] once the run completes.
#[must_use]
pub fn init_profiling(opts: &CliOptions) -> Option<PathBuf> {
    let path = opts.profile.clone()?;
    swpf_obs::enable();
    swpf_obs::name_thread("main");
    Some(path)
}

/// Capture everything recorded since [`init_profiling`] and write the
/// Chrome trace-event JSON to `path` (load in `chrome://tracing` /
/// Perfetto, or render as a table with `--bin prof_report`). Write
/// failures warn rather than fail the run — profiling is advisory.
pub fn finish_profiling(path: &Path) {
    let profile = swpf_obs::snapshot();
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, profile.to_chrome_json()) {
        Ok(()) => println!(
            "profile: {} ({} threads, {} counters; render with --bin prof_report)",
            path.display(),
            profile.threads.len(),
            profile.counters.len(),
        ),
        Err(e) => eprintln!("warning: cannot write profile {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "tiny",
            title: "expansion unit-test grid",
            scale: Scale::Test,
            machines: vec![MachineConfig::haswell(), MachineConfig::a53()],
            workloads: vec![WorkloadId::Is, WorkloadId::Hj8],
            variants: vec![
                Variant::baseline(),
                Variant::built(KernelVariant::Manual { look_ahead: 64 }),
            ],
            filter: None,
            perf: false,
        }
    }

    #[test]
    fn expansion_covers_the_full_grid() {
        let jobs = expand(&tiny_spec());
        assert_eq!(jobs.len(), 2 * 2 * 2);
    }

    #[test]
    fn expansion_dedups_repeated_baselines() {
        let mut spec = tiny_spec();
        spec.variants.push(Variant::baseline());
        assert_eq!(expand(&spec).len(), 8, "duplicate baseline collapses");
    }

    #[test]
    fn expansion_drops_unsupported_kernel_variants() {
        let mut spec = tiny_spec();
        spec.variants.push(Variant::built(KernelVariant::Fig2(
            swpf_workloads::is::Fig2Scheme::Optimal,
        )));
        // Fig. 2 schemes exist only for IS: +2 jobs, not +4.
        assert_eq!(expand(&spec).len(), 10);
    }

    #[test]
    fn expansion_applies_cell_filters() {
        let mut spec = tiny_spec();
        fn only_haswell(m: &MachineConfig, _w: WorkloadId, v: &Variant) -> bool {
            !matches!(v.kernel, Kernel::Built(KernelVariant::Manual { .. })) || m.name == "haswell"
        }
        spec.filter = Some(only_haswell);
        assert_eq!(expand(&spec).len(), 4 + 2);
    }

    /// `spec`'s module count and trace groups, as `run_experiment`
    /// prepares and groups them.
    fn grouped(spec: &ExperimentSpec) -> (usize, Vec<(usize, Vec<usize>)>) {
        let workloads: Vec<Box<dyn Workload>> = spec
            .workloads
            .iter()
            .map(|id| id.instantiate(spec.scale))
            .collect();
        let (modules, groups) = group_jobs(spec, &workloads, &expand(spec));
        (modules.len(), groups)
    }

    fn fig9() -> ExperimentSpec {
        crate::experiments::by_name("fig9", Scale::Test)
            .expect("fig9 exists")
            .spec
    }

    #[test]
    fn multicore_variants_share_kernel_modules() {
        let spec = fig9();
        // Six cells with six labels run from two kernels' images.
        let labels: std::collections::HashSet<&str> =
            spec.variants.iter().map(|v| v.label.as_str()).collect();
        assert_eq!(labels.len(), 6);
        assert_eq!(
            grouped(&spec).0,
            2,
            "every core count runs one of two images"
        );
    }

    #[test]
    fn run_options_clamp_to_job_count() {
        let opts = RunOptions {
            threads: 64,
            ..RunOptions::default()
        };
        assert_eq!(opts.effective_threads(3), 3);
        assert_eq!(opts.effective_threads(0), 1);
        assert!(RunOptions::default().effective_threads(1000) >= 1);
    }

    #[test]
    fn trace_keys_separate_core_counts_but_share_modules() {
        let spec = fig9();
        let (modules, groups) = grouped(&spec);
        // One group per (module, core count): 2 kernels × 3 core counts.
        assert_eq!(groups.len(), 6);
        for mi in 0..modules {
            let cores: Vec<usize> = groups
                .iter()
                .filter(|(m, _)| *m == mi)
                .map(|(_, jobs)| {
                    assert_eq!(jobs.len(), 1, "one machine, one cell per group");
                    spec.variants[expand(&spec)[jobs[0]].variant].cores
                })
                .collect();
            assert_eq!(cores, [1, 2, 4], "module {mi}");
        }
    }

    #[test]
    fn kernels_that_print_alike_share_one_module() {
        // The ICC-like pass finds no stride-indirect pattern in RA (the
        // paper's Fig. 4d), so its kernel prints like the baseline; in
        // IS it prefetches what the auto pass does.
        let spec = ExperimentSpec {
            workloads: vec![WorkloadId::Ra, WorkloadId::Is],
            variants: vec![Variant::baseline(), Variant::icc(), Variant::auto_default()],
            machines: vec![MachineConfig::a53()],
            ..tiny_spec()
        };
        let (modules, groups) = grouped(&spec);
        assert_eq!(modules, 4, "two texts per workload, none shared across");
        let jobs: Vec<Vec<usize>> = groups.into_iter().map(|(_, jobs)| jobs).collect();
        assert_eq!(jobs, [vec![0, 1], vec![2], vec![3], vec![4, 5]]);
    }
}
