//! The benchmark session: build the product, set each workload up, run
//! timed rounds round-robin, check the outputs, and report.
//!
//! Closed loop, one client: one child at a time, every child with
//! `--threads 1`. Every modelled cache starts empty in every cell, as the
//! product always runs them.

use crate::artifacts::{identity_diff, identity_digest, read_run, RunArtifacts};
use crate::gen::{replicate, Rng, KERNELS};
use crate::json::Json;
use crate::spawn::{product_command, run_child, ChildRun};
use crate::stats::summarize;
use crate::{spec, Fnv64};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The four workloads. See `benchmark/README.md` for why each is here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    GridDefault,
    TraceRecord,
    TraceStream,
    CompileBatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GridDefault,
        Workload::TraceRecord,
        Workload::TraceStream,
        Workload::CompileBatch,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridDefault => "grid_default",
            Workload::TraceRecord => "trace_record",
            Workload::TraceStream => "trace_stream",
            Workload::CompileBatch => "compile_batch",
        }
    }

    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiments one round of a simulation workload runs.
    fn experiments(self) -> &'static [&'static str] {
        match self {
            Workload::GridDefault => &["fig7", "fig9", "fig10"],
            Workload::TraceRecord | Workload::TraceStream => &["fig7"],
            Workload::CompileBatch => &[],
        }
    }
}

/// Cells every simulation workload runs, so their counters can be
/// compared between the three execution paths.
const SHARED_CELLS: &str = "fig7/";

/// The pipelines of `compile_batch`, in the order the layer metrics
/// difference them: parse + verify + print, then the paper's pass, then
/// the cleanup passes.
const PIPELINES: [&str; 3] = ["verify", "swpf", "swpf,gvn,sccp,licm,cse,dce"];

/// The input size of every workload. The gated timings are taken at
/// `Test`: only a round of a few tens of milliseconds can slip between
/// the bursts of this host's noise, so that the fastest of some hundred
/// rounds repeats (see the README). `Paper` runs the sizes the paper is
/// reproduced at, one round of which takes 10 to 40 seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Test,
    Paper,
}

impl Scale {
    /// The product's `SWPF_SCALE` value.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Paper => "paper",
        }
    }

    /// Copies of each kernel in `big.swir` (×5 kernels = 500 or 9000
    /// functions).
    fn copies(self) -> usize {
        match self {
            Scale::Test => 100,
            Scale::Paper => 1800,
        }
    }

    /// How often set-up is repeated for the minima that `setup_s` sums:
    /// a test-scale set-up takes a quarter of a second and varies by
    /// half of that; a paper-scale one takes up to 20 s.
    fn setup_repeats(self) -> usize {
        match self {
            Scale::Test => 9,
            Scale::Paper => 1,
        }
    }
}

/// How many timed rounds each workload gets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rounds {
    Count(usize),
    /// Start rounds until this many seconds have been measured; one
    /// round is the least that can be measured.
    Seconds(f64),
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub rounds: Rounds,
    pub scale: Scale,
    /// A quick check of the benchmark itself; its result is labelled
    /// not-for-comparison.
    pub smoke: bool,
    /// Also build and run the layer probe, for about this many seconds.
    pub layers: Option<f64>,
}

/// Operations attempted and the ones that failed. An operation is a
/// job (cell), a shape check, a `swpf-opt` invocation, or one
/// comparison of an output with its reference.
#[derive(Debug, Clone, Default)]
struct Ops {
    attempted: u64,
    failures: Vec<String>,
}

impl Ops {
    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    /// One operation per key the two identity maps are compared on.
    fn compare(
        &mut self,
        what: &str,
        a: &BTreeMap<String, String>,
        b: &BTreeMap<String, String>,
        only: &str,
    ) {
        let (compared, failures) = identity_diff(what, a, b, only);
        self.attempted += compared;
        self.failures.extend(failures);
    }

    fn absorb(&mut self, other: &Ops, prefix: &str) {
        self.attempted += other.attempted;
        self.failures
            .extend(other.failures.iter().map(|f| format!("{prefix}{f}")));
    }
}

/// One timed round of one workload.
#[derive(Debug, Clone, Default)]
struct Round {
    /// The child's wall, spawn to exit: what is reported.
    wall_s: f64,
    /// The whole round as the runner spent it, with reading the outputs
    /// back: what `--seconds` is counted in.
    spent_s: f64,
    peak_rss_mb: f64,
    /// Simulated events retired, or functions compiled.
    work: f64,
    ops: Ops,
    /// Output identity: cell or pipeline → everything that must repeat.
    identity: BTreeMap<String, String>,
    speedup: Option<f64>,
    layer: BTreeMap<&'static str, f64>,
}

#[derive(Debug, Clone, Default)]
struct Setup {
    /// The walls of the steps of the set-up — each a child process, or
    /// generating `big.swir` — for every repetition, in step order.
    repetitions: Vec<Vec<f64>>,
    ops: Ops,
    /// The identity every timed round must reproduce, where set-up has
    /// one: the priming run of `trace_stream` (a record-path run, so
    /// this is a cross-path check), the warm-up round of
    /// `compile_batch`.
    reference: BTreeMap<String, String>,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The per-round values behind `value`, when there are several.
    pub samples: Vec<f64>,
}

#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: Workload,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Digest of the counters of the cells shared between paths.
    pub shared_digest: Option<String>,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub env: Vec<(&'static str, Json)>,
    pub smoke: bool,
    pub workloads: Vec<WorkloadReport>,
    /// `None` when not asked for; `Err` when the probe is unavailable.
    pub layers: Option<Result<Vec<Metric>, String>>,
}

/// How `all` executes its cells.
#[derive(Clone, Copy)]
enum ExecPath<'a> {
    /// The default fused in-memory policy.
    Default,
    /// The same under the independent `classic` interpreter.
    ClassicTier,
    /// Recording traces to this directory (replaying what is there).
    Record(&'a Path),
    /// Streaming replay from this directory.
    Stream(&'a Path),
}

struct Ctx {
    root: PathBuf,
    work: PathBuf,
    all: PathBuf,
    opt: PathBuf,
    scale: Scale,
    seed: u64,
    /// Hashes of `swpf-opt` outputs that already re-verified.
    verified: BTreeSet<u64>,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("cannot {what} {}: {e}", path.display())
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| io_err("remove", path, e))?;
    }
    std::fs::create_dir_all(path).map_err(|e| io_err("create", path, e))
}

/// The last lines of a child's log, for a failure message.
fn log_tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

/// `cargo build` the named binaries and return where cargo put them,
/// with the seconds it took. A no-op when fresh, so a stale binary can
/// never be measured.
fn cargo_build(root: &Path, args: &[&str], bins: &[&str]) -> Result<(Vec<PathBuf>, f64), String> {
    let start = Instant::now();
    let output = Command::new("cargo")
        .current_dir(root)
        .args(["build", "--release", "--offline", "--message-format=json"])
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("`cargo build {}` failed", args.join(" ")));
    }
    // Target name → executable, from cargo's `compiler-artifact` messages.
    let executables: BTreeMap<String, PathBuf> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| {
            let msg = Json::parse(line).ok()?;
            let name = msg.get("target")?.get("name")?.as_str()?.to_string();
            Some((name, PathBuf::from(msg.get("executable")?.as_str()?)))
        })
        .collect();
    let paths = bins
        .iter()
        .map(|bin| {
            executables
                .get(*bin)
                .cloned()
                .ok_or_else(|| format!("cargo did not report an executable for `{bin}`"))
        })
        .collect::<Result<_, _>>()?;
    Ok((paths, start.elapsed().as_secs_f64()))
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Ctx {
    /// Run `all` over `experiments` on one execution path; artifacts go
    /// to a fresh `<dir>/results`, the child's output to `<dir>/all.*`.
    fn run_all(
        &self,
        dir: &Path,
        scale: Scale,
        experiments: &[&str],
        path: ExecPath<'_>,
    ) -> Result<(ChildRun, RunArtifacts), String> {
        let results = dir.join("results");
        fresh_dir(&results)?;
        let mut cmd = product_command(&self.all);
        cmd.env("SWPF_SCALE", scale.label())
            .args(["--only", &experiments.join(","), "--threads", "1", "--out"])
            .arg(&results);
        match path {
            ExecPath::Default => {}
            ExecPath::ClassicTier => {
                cmd.env("SWPF_TIER", "classic");
            }
            ExecPath::Record(traces) => {
                cmd.arg("--trace-dir").arg(traces);
            }
            ExecPath::Stream(traces) => {
                cmd.arg("--trace-dir").arg(traces).arg("--stream-replay");
            }
        }
        let err = dir.join("all.err");
        let child = run_child(&mut cmd, &dir.join("all.out"), &err)
            .map_err(|e| io_err("run", &self.all, e))?;
        let artifacts =
            read_run(&results, experiments).map_err(|e| format!("{e} ({})", log_tail(&err)))?;
        Ok((child, artifacts))
    }

    /// Before any timing, at test scale: the simulation experiments must
    /// give identical counters on the default path, on the independent
    /// `classic` interpreter, when recording traces, and when streaming
    /// them back. Three execution paths and two interpreters are each
    /// other's reference; nothing is pinned to golden numbers.
    fn reference_check(
        &self,
        dir: &Path,
        ops: &mut Ops,
        steps: &mut Vec<f64>,
    ) -> Result<(), String> {
        let experiments = Workload::GridDefault.experiments();
        let traces = dir.join("ref-traces");
        fresh_dir(&traces)?;
        let paths = [
            ("default", ExecPath::Default),
            ("classic tier", ExecPath::ClassicTier),
            ("record", ExecPath::Record(&traces)),
            ("stream", ExecPath::Stream(&traces)),
        ];
        let mut default = None;
        for (label, path) in paths {
            let (child, run) = self.run_all(dir, Scale::Test, experiments, path)?;
            steps.push(child.wall_s);
            ops.check(child.success, || {
                format!("test-scale reference run `{label}` exited non-zero")
            });
            if let ExecPath::Stream(_) = path {
                ops.check(run.trace_misses == 0, || {
                    "the test-scale stream run interpreted instead of replaying".to_string()
                });
            }
            let identity = run.identity();
            match &default {
                None => default = Some(identity),
                Some(default) => {
                    let what = format!("test scale, default path vs {label}");
                    ops.compare(&what, default, &identity, "");
                }
            }
        }
        std::fs::remove_dir_all(&traces).map_err(|e| io_err("remove", &traces, e))
    }

    /// The untimed preparation of a workload, itself timed step by step
    /// for `setup_s`. Every repetition starts from nothing and does the
    /// same work; the rounds run on what the last one left.
    fn setup(&mut self, w: Workload, setup: &mut Setup) -> Result<(), String> {
        let mut steps = Vec::new();
        let dir = self.work.join(w.name());
        fresh_dir(&dir)?;
        if w == Workload::CompileBatch {
            self.verified.clear();
            let start = Instant::now();
            let mut kernels = Vec::new();
            for stem in KERNELS {
                let path = self.root.join(format!("benchmark/inputs/{stem}.swir"));
                let text = std::fs::read_to_string(&path).map_err(|e| io_err("read", &path, e))?;
                kernels.push((stem.to_string(), text));
            }
            let path = dir.join("big.swir");
            std::fs::write(&path, replicate(&kernels, self.scale.copies(), self.seed)?)
                .map_err(|e| io_err("write", &path, e))?;
            steps.push(start.elapsed().as_secs_f64());
            // An untimed round: it warms the file cache, and it is where
            // every output is read back through the verifier, so the
            // timed rounds only have to see the same bytes again.
            let warm_up = self.compile_round(&dir)?;
            steps.push(warm_up.wall_s);
            setup.ops.absorb(&warm_up.ops, "warm-up: ");
            setup.reference = warm_up.identity;
        } else {
            self.reference_check(&dir, &mut setup.ops, &mut steps)?;
        }
        if w == Workload::TraceStream {
            // Prime the trace directory the timed rounds stream from.
            // This is a record-path run, so its counters are the
            // cross-path reference for every streamed round.
            let traces = dir.join("traces");
            fresh_dir(&traces)?;
            let path = ExecPath::Record(&traces);
            let (child, run) = self.run_all(&dir, self.scale, w.experiments(), path)?;
            steps.push(child.wall_s);
            setup
                .ops
                .check(child.success, || "the priming run exited non-zero".into());
            setup.reference = run.identity();
        }
        setup.repetitions.push(steps);
        Ok(())
    }

    fn round(&mut self, w: Workload, setup: &Setup) -> Result<Round, String> {
        let dir = self.work.join(w.name());
        let mut round = match w {
            Workload::CompileBatch => self.compile_round(&dir)?,
            Workload::GridDefault => self.sim_round(w, &dir, ExecPath::Default)?,
            Workload::TraceRecord => {
                let traces = dir.join("fresh-traces");
                fresh_dir(&traces)?;
                let round = self.sim_round(w, &dir, ExecPath::Record(&traces))?;
                std::fs::remove_dir_all(&traces).map_err(|e| io_err("remove", &traces, e))?;
                round
            }
            Workload::TraceStream => {
                self.sim_round(w, &dir, ExecPath::Stream(&dir.join("traces")))?
            }
        };
        if !setup.reference.is_empty() {
            let what = "set-up's reference run vs timed round";
            round
                .ops
                .compare(what, &setup.reference, &round.identity, "");
        }
        Ok(round)
    }

    fn sim_round(&self, w: Workload, dir: &Path, path: ExecPath<'_>) -> Result<Round, String> {
        let (child, run) = self.run_all(dir, self.scale, w.experiments(), path)?;

        let mut ops = Ops {
            attempted: run.cells.len() as u64 + run.checks_passed + run.checks_failed.len() as u64,
            failures: run.checks_failed.clone(),
        };
        // `all` exits non-zero on a failed shape check, counted above.
        ops.check(child.success || !run.checks_failed.is_empty(), || {
            format!("`all` exited non-zero ({})", log_tail(&dir.join("all.err")))
        });
        let identity = run.identity();
        if let ExecPath::Stream(_) = path {
            ops.check(run.trace_misses == 0 && run.trace_hits > 0, || {
                format!(
                    "{} kernel(s) were interpreted instead of replayed",
                    run.trace_misses
                )
            });
        }
        let mut dir_bytes = 0u64;
        if let ExecPath::Record(traces) | ExecPath::Stream(traces) = path {
            for entry in std::fs::read_dir(traces).map_err(|e| io_err("list", traces, e))? {
                let meta = entry
                    .and_then(|e| e.metadata())
                    .map_err(|e| io_err("list", traces, e))?;
                dir_bytes += meta.len();
            }
            ops.check(dir_bytes > 0, || "the trace directory is empty".into());
        }

        let events = run.total("insts_total");
        let issued = run.total("sw_prefetches");
        let wasted = run.total("sw_prefetches_dropped") + run.total("sw_prefetches_redundant");
        let cell_wall_s = run.cells.iter().map(|c| c.wall_ms).sum::<f64>() / 1e3;
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let mut layer = BTreeMap::from([
            ("sim.events", events),
            ("sim.cycles_per_event", ratio(run.total("cycles"), events)),
            (
                "sim.sw_prefetch_useful_share",
                ratio(issued - wasted, issued),
            ),
            ("trace.cache_hits", run.trace_hits as f64),
            ("trace.cache_misses", run.trace_misses as f64),
            ("trace.dir_bytes", dir_bytes as f64),
            ("trace.bytes_per_event", ratio(dir_bytes as f64, events)),
            ("bench.jobs", run.cells.len() as f64),
            ("bench.checks_passed", run.checks_passed as f64),
            ("bench.checks_failed", run.checks_failed.len() as f64),
            ("bench.cell_wall_sum_s", cell_wall_s),
            ("bench.harness_overhead_s", child.wall_s - cell_wall_s),
            ("bench.child_user_s", child.user_s),
            ("bench.child_sys_s", child.sys_s),
        ]);
        // `sim.<counter>`: the artifact's counter of that name, summed
        // over every core of every cell.
        for (name, _) in spec::RUNNER_LAYER {
            if let Some(counter) = name.strip_prefix("sim.") {
                layer.entry(name).or_insert_with(|| run.total(counter));
            }
        }
        Ok(Round {
            wall_s: child.wall_s,
            spent_s: 0.0,
            peak_rss_mb: child.peak_rss_mb,
            work: events,
            ops,
            identity,
            speedup: run.speedup_geomean(),
            layer,
        })
    }

    /// One `swpf-opt` invocation per pipeline over `big.swir`. Only the
    /// invocations are timed; checking their outputs is not.
    fn compile_round(&mut self, dir: &Path) -> Result<Round, String> {
        let input = dir.join("big.swir");
        let functions = (self.scale.copies() * KERNELS.len()) as f64;
        let mut round = Round::default();
        let (mut user_s, mut sys_s) = (0.0, 0.0);
        let (mut inserted, mut skipped, mut out_bytes) = (0u64, 0u64, 0u64);
        let mut walls = Vec::new();
        for (i, pipeline) in PIPELINES.iter().enumerate() {
            let out = dir.join(format!("out{i}.swir"));
            let err = dir.join(format!("out{i}.err"));
            let mut cmd = product_command(&self.opt);
            cmd.args(["--passes", pipeline]).arg(&input);
            let child = run_child(&mut cmd, &out, &err).map_err(|e| io_err("run", &self.opt, e))?;
            round.wall_s += child.wall_s;
            round.peak_rss_mb = round.peak_rss_mb.max(child.peak_rss_mb);
            round.work += functions;
            user_s += child.user_s;
            sys_s += child.sys_s;
            walls.push(child.wall_s);

            let output = std::fs::read(&out).map_err(|e| io_err("read", &out, e))?;
            let mut hash = Fnv64::default();
            hash.update(&output);
            let hash = hash.finish();
            // The report ends "N prefetch instruction(s) inserted, M
            // load(s) skipped".
            let report = std::fs::read_to_string(&err).map_err(|e| io_err("read", &err, e))?;
            let mut numbers = report
                .lines()
                .last()
                .unwrap_or("")
                .split_whitespace()
                .filter_map(|word| word.parse::<u64>().ok());
            let counts = (numbers.next(), numbers.next());
            // An invocation succeeds if it exits zero, reports its
            // counts, and its output verifies when read back.
            let mut failure = None;
            if !child.success {
                failure = Some(format!("exited non-zero ({})", log_tail(&err)));
            } else if let (Some(n), Some(m)) = counts {
                inserted += n;
                skipped += m;
                if !self.verified.contains(&hash) {
                    let log = dir.join("reverify.err");
                    let mut cmd = product_command(&self.opt);
                    cmd.args(["--passes", "verify", "--report-only"]).arg(&out);
                    let again = run_child(&mut cmd, &dir.join("reverify.out"), &log)
                        .map_err(|e| io_err("run", &self.opt, e))?;
                    if again.success {
                        self.verified.insert(hash);
                    } else {
                        failure = Some(format!("output does not re-verify ({})", log_tail(&log)));
                    }
                }
            } else {
                failure = Some("printed no pass report".to_string());
            }
            round.ops.check(failure.is_none(), || {
                format!(
                    "`swpf-opt --passes {pipeline}`: {}",
                    failure.unwrap_or_default()
                )
            });
            out_bytes += output.len() as u64;
            round.identity.insert(
                (*pipeline).to_string(),
                format!("bytes={};hash={hash:016x};report={counts:?}", output.len()),
            );
        }
        round.layer = BTreeMap::from([
            ("bench.jobs", PIPELINES.len() as f64),
            ("bench.child_user_s", user_s),
            ("bench.child_sys_s", sys_s),
            ("core.prefetches_inserted", inserted as f64),
            ("core.loads_skipped", skipped as f64),
            ("ir.output_bytes", out_bytes as f64),
            ("ir.parse_verify_print_s", walls[0]),
            ("core.swpf_s", walls[1] - walls[0]),
            ("pass.cleanup_s", walls[2] - walls[1]),
        ]);
        Ok(round)
    }
}

/// How far a workload is through its rounds: 1.0 and beyond is done.
fn progress(rounds: &[Round], limit: Rounds) -> f64 {
    match limit {
        Rounds::Count(n) => rounds.len() as f64 / n as f64,
        Rounds::Seconds(_) if rounds.is_empty() => 0.0,
        Rounds::Seconds(s) => rounds.iter().map(|r| r.spent_s).sum::<f64>() / s,
    }
}

fn workload_report(
    w: Workload,
    setup: &Setup,
    rounds: &[Round],
    mut ops: Ops,
    build_s: f64,
) -> WorkloadReport {
    let first = &rounds[0];
    ops.absorb(&setup.ops, "set-up: ");
    for (i, round) in rounds.iter().enumerate() {
        ops.absorb(&round.ops, &format!("round {i}: "));
    }

    // The gated timings are the fastest round and, step by step, the
    // fastest set-up: this host's noise is bursty and one-sided, and only
    // something as short as one child can slip between the bursts, so
    // the minimum repeats where the median drifts. The quartiles are
    // kept beside them.
    let steps = setup.repetitions[0].len();
    let fastest_setup: f64 = (0..steps)
        .map(|i| {
            let step = setup.repetitions.iter().map(|r| r[i]);
            step.fold(f64::INFINITY, f64::min)
        })
        .sum();
    let setups: Vec<f64> = setup.repetitions.iter().map(|r| r.iter().sum()).collect();
    let best = rounds
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one round");
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = rounds.iter().map(|r| r.work / 1e3 / r.wall_s).collect();
    let rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    // The median: the largest of some hundred rounds is an outlier.
    let peak_rss_mb = summarize(&rss).expect("at least one round").median;
    let values = [
        (best.wall_s, walls),
        (best.work / 1e3 / best.wall_s, rates),
        (fastest_setup, setups),
        (peak_rss_mb, rss),
        (
            1.0 - ops.failures.len() as f64 / ops.attempted as f64,
            vec![],
        ),
        // No simulated cells: the constant 1.0.
        (first.speedup.unwrap_or(1.0), vec![]),
    ];
    let end_to_end = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), (value, samples))| Metric {
            name: (*name).to_string(),
            unit,
            value,
            samples,
        })
        .collect();
    let per_layer = spec::RUNNER_LAYER
        .iter()
        .map(|(name, unit)| Metric {
            name: (*name).to_string(),
            unit,
            value: match *name {
                "build.cargo_s" => build_s,
                name => best.layer.get(name).copied().unwrap_or(0.0),
            },
            samples: vec![],
        })
        .collect();
    WorkloadReport {
        workload: w,
        attempted: ops.attempted,
        failures: ops.failures,
        end_to_end,
        per_layer,
        shared_digest: (w != Workload::CompileBatch)
            .then(|| identity_digest(&first.identity, SHARED_CELLS)),
    }
}

/// Build and run the layer probe; its last stdout line is a JSON object
/// of `name → {value, unit}`.
fn run_layers(ctx: &Ctx, seconds: f64) -> Result<Vec<Metric>, String> {
    let (paths, _) = cargo_build(
        &ctx.root,
        &["--manifest-path", "benchmark/Cargo.toml", "--bin", "layers"],
        &["layers"],
    )?;
    let dir = ctx.work.join("layers");
    fresh_dir(&dir)?;
    let (out, log) = (dir.join("layers.json"), dir.join("layers.log"));
    let mut cmd = product_command(&paths[0]);
    cmd.args([
        "probe",
        "--scale",
        ctx.scale.label(),
        "--seconds",
        &seconds.to_string(),
    ])
    .arg("--scratch")
    .arg(&dir)
    .arg("--spans")
    .arg(ctx.root.join("benchmark/out/layers_trace.json"));
    let child = run_child(&mut cmd, &out, &log).map_err(|e| io_err("run", &paths[0], e))?;
    // The probe's warnings (a reconciliation gap beyond 20%) go to its
    // stderr; pass them on.
    eprint!("{}", std::fs::read_to_string(&log).unwrap_or_default());
    if !child.success {
        return Err(format!("the layer probe failed ({})", log_tail(&log)));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| io_err("read", &out, e))?;
    let doc = Json::parse(text.lines().last().unwrap_or(""))?;
    spec::probe_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = doc
                .get(&name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("the layer probe did not print `{name}`"))?;
            Ok(Metric {
                name,
                unit,
                value,
                samples: vec![],
            })
        })
        .collect()
}

/// Run a whole session from the repository root.
///
/// # Errors
/// When the benchmark itself cannot run: the product does not build, a
/// child cannot be spawned, or an artifact cannot be read. Failed
/// operations of the product are not errors; they are counted in the
/// report.
pub fn run(opts: &Options) -> Result<Report, String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !root.join("BENCHMARK.json").is_file() || !root.join("benchmark/inputs").is_dir() {
        return Err(
            "run from the repository root (BENCHMARK.json and benchmark/ are not here)".into(),
        );
    }
    let (bins, build_s) = cargo_build(
        &root,
        &[
            "-p",
            "swpf-bench",
            "--bin",
            "all",
            "-p",
            "swpf",
            "--bin",
            "swpf-opt",
        ],
        &["all", "swpf-opt"],
    )?;
    let mut ctx = Ctx {
        work: root.join("benchmark/out/work"),
        all: bins[0].clone(),
        opt: bins[1].clone(),
        scale: opts.scale,
        seed: opts.seed,
        verified: BTreeSet::new(),
        root,
    };
    fresh_dir(&ctx.work)?;

    let mut setups: BTreeMap<Workload, Setup> = BTreeMap::new();
    let mut rounds: BTreeMap<Workload, Vec<Round>> = BTreeMap::new();
    // Round-robin, in an order drawn from the seed for every round, so
    // each workload's samples are spread over the whole session. The
    // repetitions of a workload's set-up are spread over its rounds for
    // the same reason: the first before round 0, the rest as due.
    let mut rng = Rng::new(opts.seed);
    let repeats = ctx.scale.setup_repeats();
    loop {
        let mut active: Vec<Workload> = opts
            .workloads
            .iter()
            .copied()
            .filter(|w| progress(rounds.entry(*w).or_default(), opts.rounds) < 1.0)
            .collect();
        if active.is_empty() {
            break;
        }
        rng.shuffle(&mut active);
        for w in active {
            let setup = setups.entry(w).or_default();
            let set_up = setup.repetitions.len();
            if set_up < repeats
                && progress(&rounds[&w], opts.rounds) * repeats as f64 >= set_up as f64
            {
                ctx.setup(w, setup)?;
            }
            let start = Instant::now();
            let mut round = ctx.round(w, setup)?;
            let so_far = rounds.get_mut(&w).expect("inserted above");
            if let Some(first) = so_far.first() {
                // Outputs, work and simulated results must repeat
                // exactly. Only round 0 keeps its identity: a child's
                // `ru_maxrss` starts from what the runner held when it
                // forked, so the runner must stay smaller than the
                // children it measures.
                let identity = std::mem::take(&mut round.identity);
                let what = "round 0 vs this round";
                round.ops.compare(what, &first.identity, &identity, "");
                round.ops.check(round.work == first.work, || {
                    format!("{what}: the amount of work differs")
                });
            }
            round.spent_s = start.elapsed().as_secs_f64();
            so_far.push(round);
        }
    }

    // Every cell the simulation workloads share must have identical
    // counters on the default, record and stream paths.
    let mut reports = Vec::new();
    for &w in &opts.workloads {
        let mut cross_path = Ops::default();
        let reference = rounds.get(&Workload::GridDefault);
        if let (Workload::TraceRecord | Workload::TraceStream, Some(reference)) = (w, reference) {
            let what = format!("grid_default vs {}", w.name());
            let (a, b) = (&reference[0].identity, &rounds[&w][0].identity);
            cross_path.compare(&what, a, b, SHARED_CELLS);
        }
        reports.push(workload_report(
            w,
            &setups[&w],
            &rounds[&w],
            cross_path,
            build_s,
        ));
    }

    let layers = opts.layers.map(|seconds| run_layers(&ctx, seconds));
    std::fs::remove_dir_all(&ctx.work).map_err(|e| io_err("remove", &ctx.work, e))?;

    let rounds_run = rounds.values().map(Vec::len).max().unwrap_or(0);
    Ok(Report {
        env: vec![
            (
                "git_head",
                Json::Str(command_line("git", &["rev-parse", "HEAD"])),
            ),
            ("rustc", Json::Str(command_line("rustc", &["-V"]))),
            ("nproc", Json::Str(command_line("nproc", &[]))),
            ("scale", Json::Str(ctx.scale.label().to_string())),
            ("seed", Json::Num(opts.seed as f64)),
            ("rounds", Json::Num(rounds_run as f64)),
            ("build_cargo_s", Json::Num(build_s)),
        ],
        smoke: opts.smoke,
        workloads: reports,
        layers,
    })
}

fn value_and_unit(m: &Metric) -> Vec<(&'static str, Json)> {
    vec![
        ("value", Json::Num(m.value)),
        ("unit", Json::Str(m.unit.into())),
    ]
}

fn metric_json(m: &Metric) -> Json {
    let mut members = value_and_unit(m);
    if let Some(s) = summarize(&m.samples) {
        members.push(("n", Json::Num(s.n as f64)));
        for (key, v) in [
            ("min", s.min),
            ("q1", s.q1),
            ("median", s.median),
            ("q3", s.q3),
        ] {
            members.push((key, Json::Num(v)));
        }
    }
    Json::obj(members)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.clone(), metric_json(m)))
            .collect(),
    )
}

impl Report {
    /// Did every operation of every workload succeed, and is the layer
    /// probe there if it was asked for?
    #[must_use]
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(|w| w.failures.is_empty()) && !matches!(self.layers, Some(Err(_)))
    }

    /// The result file `compare` reads.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                Json::obj(vec![
                    ("name", Json::Str(w.workload.name().into())),
                    ("attempted", Json::Num(w.attempted as f64)),
                    ("failed", Json::Num(w.failures.len() as f64)),
                    (
                        "failures",
                        Json::Arr(w.failures.iter().map(|f| Json::Str(f.clone())).collect()),
                    ),
                    (
                        "shared_cells_digest",
                        w.shared_digest.clone().map_or(Json::Null, Json::Str),
                    ),
                    ("end_to_end", metrics_json(&w.end_to_end)),
                    ("per_layer", metrics_json(&w.per_layer)),
                ])
            })
            .collect();
        let layers = match &self.layers {
            None => Json::Null,
            Some(Ok(metrics)) => metrics_json(metrics),
            Some(Err(why)) => Json::Str(format!("unavailable: {why}")),
        };
        Json::obj(vec![
            ("schema", Json::Str("swpf-benchmark/1".into())),
            ("not_for_comparison", Json::Bool(self.smoke)),
            ("env", Json::obj(self.env.clone())),
            ("workloads", Json::Arr(workloads)),
            ("layers", layers),
        ])
    }

    /// The table a person reads: every metric by name with its unit and,
    /// where there are several rounds, min / quartiles and the count.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.smoke {
            out.push_str("SMOKE RUN: these numbers are not for comparison\n");
        }
        for (key, value) in &self.env {
            out.push_str(&format!("{key}: {}\n", value.to_line()));
        }
        let row = |out: &mut String, m: &Metric| {
            out.push_str(&format!("  {:<36} {:>16.6} {:<8}", m.name, m.value, m.unit));
            if let Some(s) = summarize(&m.samples) {
                out.push_str(&format!(
                    " min {:.4}  q1 {:.4}  median {:.4}  q3 {:.4}  n={}",
                    s.min, s.q1, s.median, s.q3, s.n
                ));
            }
            out.push('\n');
        };
        for w in &self.workloads {
            out.push_str(&format!(
                "\n{}: {} operation(s), {} failed (failed_ops_share {:.6})\n",
                w.workload.name(),
                w.attempted,
                w.failures.len(),
                w.failures.len() as f64 / w.attempted.max(1) as f64,
            ));
            if let Some(digest) = &w.shared_digest {
                out.push_str(&format!(
                    "  counters of the shared `{SHARED_CELLS}` cells: {digest}\n"
                ));
            }
            for failure in &w.failures {
                out.push_str(&format!("  FAILED: {failure}\n"));
            }
            w.end_to_end.iter().for_each(|m| row(&mut out, m));
            out.push_str("  -- per layer --\n");
            w.per_layer.iter().for_each(|m| row(&mut out, m));
        }
        match &self.layers {
            None => {}
            Some(Ok(metrics)) => {
                out.push_str("\nlayers (traced run):\n");
                metrics.iter().for_each(|m| row(&mut out, m));
            }
            Some(Err(why)) => out.push_str(&format!("\nlayers: unavailable ({why})\n")),
        }
        out
    }

    /// The one-line result of a single-workload run: the end-to-end
    /// metrics, or with `traced` every per-layer metric.
    #[must_use]
    pub fn contract_line(&self, traced: bool) -> String {
        let w = &self.workloads[0];
        let mut metrics: Vec<&Metric> = Vec::new();
        if traced {
            metrics.extend(&w.per_layer);
            if let Some(Ok(layers)) = &self.layers {
                metrics.extend(layers);
            }
        } else {
            metrics.extend(&w.end_to_end);
        }
        let metrics = metrics
            .into_iter()
            .map(|m| (m.name.clone(), Json::obj(value_and_unit(m))))
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(w.attempted as f64)),
            ("failed", Json::Num(w.failures.len() as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    }
}
