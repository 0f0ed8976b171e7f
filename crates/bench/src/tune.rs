//! The `tune` experiment: search-based auto-tuning of prefetch
//! parameters over the workload × machine grid.
//!
//! Unlike the nine figure reproductions, this experiment is *searched*,
//! not swept: the grid it evaluates is chosen at runtime by the
//! `swpf-tune` strategies. It therefore runs through [`run_tune`]
//! rather than the declarative grid harness, but feeds the same
//! downstream machinery — [`CellResult`]s (one per evaluated point ×
//! machine, each carrying its effective `params`), derived
//! [`TableSection`]s, [`Check`] verdicts, and a `RESULTS/tune.json`
//! artifact through [`write_artifact`](crate::harness::write_artifact).
//!
//! Per workload, each strategy gets a **fresh** evaluator, so its
//! reported interpretation count and wall time are the honest cost of
//! running that strategy alone (the point cache still shares work
//! *across the machines* of one strategy's searches — one
//! interpretation per candidate, fanned out to every machine).
//!
//! The derived table quantifies the paper's §Scheduling claim per
//! workload × machine: `heur_%opt` is how close the static `c = 64`
//! heuristic sits to the exhaustive oracle (100 = optimal), and the
//! shape checks pin the subsystem's contracts — tuned never worse than
//! the heuristic, and golden-section ≡ the oracle wherever the measured
//! distance curve is strictly unimodal, at ≤ half the oracle's
//! evaluations.

use crate::harness::{
    print_sections, profile_window_json, structural_checks, write_artifact_with_profile,
    CellResult, Check, ExperimentResult, Row, TableSection,
};
use std::path::Path;
use std::time::Instant;
use swpf_sim::MachineConfig;
use swpf_tune::{
    distance_curve, strictly_unimodal, tune_cell, Evaluator, Exhaustive, GoldenSection, HillClimb,
    SearchSpace, Strategy, TuneReport,
};
use swpf_workloads::{Scale, WorkloadId};

/// A searched experiment: the grid axes plus the search configuration.
pub struct TuneExperiment {
    /// Artifact name ("tune"); also the `RESULTS/<name>.json` stem.
    pub name: &'static str,
    /// Human title for tables and logs.
    pub title: &'static str,
    /// Workload scale to tune at.
    pub scale: Scale,
    /// Machines tuned for (each gets its own best config).
    pub machines: Vec<MachineConfig>,
    /// Workloads tuned.
    pub workloads: Vec<WorkloadId>,
    /// The searchable parameter space.
    pub space: SearchSpace,
    /// Evaluation budget of the hill-climbing strategy.
    pub hill_budget: usize,
}

/// The tuned reports of one workload: per machine, one report per
/// strategy, plus per-strategy evaluator costs.
struct WorkloadTuning {
    /// `[machine][strategy]` in [`STRATEGY_NAMES`] order.
    reports: Vec<Vec<TuneReport>>,
    /// Per-strategy (interpretations, wall seconds).
    costs: Vec<(usize, f64)>,
}

/// Strategy order of [`WorkloadTuning::reports`] and the cost table.
const STRATEGY_NAMES: [&str; 3] = ["exhaustive", "golden", "hill"];

/// Run one strategy over every machine of the grid on a fresh
/// evaluator; returns the per-machine reports, the evaluated points as
/// cells, and the strategy's cost.
fn run_strategy(
    exp: &TuneExperiment,
    workload: WorkloadId,
    strategy: &dyn Strategy,
    oracles: Option<&[TuneReport]>,
) -> (Vec<TuneReport>, Vec<CellResult>, (usize, f64)) {
    let w = workload.instantiate(exp.scale);
    let mut eval = Evaluator::new(w.as_ref(), &exp.machines);
    let t0 = Instant::now();
    let reports: Vec<TuneReport> = (0..exp.machines.len())
        .map(|mi| {
            let oracle = oracles.map(|o| o[mi].chosen_cycles);
            tune_cell(strategy, &exp.space, mi, &mut eval, oracle)
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();

    // Every distinct point this strategy evaluated becomes one cell per
    // machine (the fan-out gave every machine its stats for free).
    let mut cells = Vec::new();
    let wall_each = wall * 1e3 / (eval.points().len() * exp.machines.len()).max(1) as f64;
    for point in eval.points() {
        for (mi, m) in exp.machines.iter().enumerate() {
            cells.push(CellResult {
                machine: m.name,
                workload: w.name(),
                variant: format!("{}_{}", strategy.name(), point.config.cache_key()),
                cores: vec![point.stats[mi]],
                wall_ms: wall_each,
                replayed: mi > 0,
                params: point.config.parameters(),
                tier: swpf_ir::interp::Tier::from_env().label(),
                perf: Vec::new(),
            });
        }
    }
    (reports, cells, (eval.interpretations(), wall))
}

/// Tune every cell of the experiment's grid with every strategy.
///
/// # Panics
/// On a malformed search space or simulation traps — tuning
/// configuration errors.
#[must_use]
pub fn run_tune(exp: &TuneExperiment) -> (ExperimentResult, Vec<TableSection>, Vec<Check>) {
    exp.space.assert_well_formed();
    let t0 = Instant::now();
    let mut cells = Vec::new();
    let mut tunings = Vec::new();

    for &workload in &exp.workloads {
        let (oracles, oracle_cells, oracle_cost) = run_strategy(exp, workload, &Exhaustive, None);
        let (goldens, golden_cells, golden_cost) =
            run_strategy(exp, workload, &GoldenSection, Some(&oracles));
        let hill = HillClimb {
            budget: exp.hill_budget,
        };
        let (hills, hill_cells, hill_cost) = run_strategy(exp, workload, &hill, Some(&oracles));

        cells.extend(oracle_cells);
        cells.extend(golden_cells);
        cells.extend(hill_cells);
        tunings.push(WorkloadTuning {
            reports: (0..exp.machines.len())
                .map(|mi| vec![oracles[mi].clone(), goldens[mi].clone(), hills[mi].clone()])
                .collect(),
            costs: vec![oracle_cost, golden_cost, hill_cost],
        });
    }

    let result = ExperimentResult {
        name: exp.name,
        title: exp.title,
        scale: exp.scale,
        machines: exp.machines.clone(),
        cells,
        threads: 1,
        wall_s: t0.elapsed().as_secs_f64(),
        trace_policy: "fanout".to_string(),
    };
    let derived = derive(exp, &tunings);
    let mut checks = structural_checks(&result, &derived);
    checks.extend(tuning_checks(exp, &tunings));
    (result, derived, checks)
}

/// Per-machine comparison tables plus the aggregate search-cost table.
fn derive(exp: &TuneExperiment, tunings: &[WorkloadTuning]) -> Vec<TableSection> {
    let columns = [
        "heuristic",
        "golden",
        "hill",
        "oracle",
        "heur_%opt",
        "gold_%opt",
        "best_c",
        "pts_gold",
        "pts_orac",
    ];
    let mut sections: Vec<TableSection> = exp
        .machines
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let rows = exp
                .workloads
                .iter()
                .zip(tunings)
                .map(|(w, t)| {
                    let [oracle, golden, hill] = &t.reports[mi][..] else {
                        unreachable!("three strategies per cell")
                    };
                    Row {
                        name: w.name().to_string(),
                        values: vec![
                            golden.heuristic_cycles as f64,
                            golden.chosen_cycles as f64,
                            hill.chosen_cycles as f64,
                            oracle.chosen_cycles as f64,
                            golden.heuristic_pct_of_oracle(),
                            golden.pct_of_oracle(),
                            golden.chosen.look_ahead as f64,
                            golden.points.len() as f64,
                            oracle.points.len() as f64,
                        ],
                    }
                })
                .collect();
            TableSection::new(
                format!("Tuning ({}) — cycles: heuristic c=64 vs. searched", m.name),
                columns.iter().map(ToString::to_string).collect(),
                rows,
            )
        })
        .collect();

    // Aggregate search cost: the fan-out means interpretations count
    // candidates, not candidates × machines.
    let cost_rows = STRATEGY_NAMES
        .iter()
        .enumerate()
        .map(|(si, s)| {
            let points: usize = tunings
                .iter()
                .flat_map(|t| &t.reports)
                .map(|r| r[si].points.len())
                .sum();
            let interps: usize = tunings.iter().map(|t| t.costs[si].0).sum();
            let wall: f64 = tunings.iter().map(|t| t.costs[si].1).sum();
            Row {
                name: (*s).to_string(),
                values: vec![points as f64, interps as f64, wall],
            }
        })
        .collect();
    let mut cost = TableSection::new(
        "Search cost (all workloads)",
        vec![
            "points".to_string(),
            "interpretations".to_string(),
            "wall_s".to_string(),
        ],
        cost_rows,
    );
    cost.notes.push(format!(
        "points: per-machine search requests ({} machines share each \
         candidate's single interpretation via fan-out)",
        exp.machines.len()
    ));
    sections.push(cost);
    sections
}

/// The tuning subsystem's contracts as shape checks.
fn tuning_checks(exp: &TuneExperiment, tunings: &[WorkloadTuning]) -> Vec<Check> {
    let mut checks = Vec::new();
    for (w, t) in exp.workloads.iter().zip(tunings) {
        for (m, reports) in exp.machines.iter().zip(&t.reports) {
            let [oracle, golden, hill] = &reports[..] else {
                unreachable!("three strategies per cell")
            };
            let cell = format!("{}_{}", m.name, w.name());

            // Tuned configs are never worse than the paper heuristic
            // (by construction: the heuristic is always a candidate).
            for r in [golden, hill] {
                checks.push(Check::new(
                    format!("tuned_beats_heuristic_{}_{cell}", r.strategy),
                    r.chosen_cycles <= r.heuristic_cycles,
                    format!(
                        "{} {} vs heuristic {} cycles",
                        r.strategy, r.chosen_cycles, r.heuristic_cycles
                    ),
                ));
            }

            // Bracketing must pay: at most half the oracle's points.
            checks.push(Check::new(
                format!("golden_frugal_{cell}"),
                golden.points.len() * 2 <= oracle.points.len(),
                format!(
                    "golden evaluated {} vs exhaustive {} points",
                    golden.points.len(),
                    oracle.points.len()
                ),
            ));

            // Where Fig. 6's unimodality actually holds in the measured
            // curve, golden-section provably finds the oracle's optimum.
            let curve = distance_curve(&exp.space, &oracle.points);
            if strictly_unimodal(&curve) {
                checks.push(Check::new(
                    format!("golden_matches_oracle_{cell}"),
                    golden.chosen_cycles == oracle.chosen_cycles,
                    format!(
                        "unimodal cell: golden {} vs oracle {} cycles",
                        golden.chosen_cycles, oracle.chosen_cycles
                    ),
                ));
            } else {
                checks.push(Check::new(
                    format!("golden_matches_oracle_{cell}"),
                    true,
                    "distance curve not strictly unimodal: equivalence not claimed".to_string(),
                ));
            }
        }
    }
    checks
}

/// Run the tune experiment end to end — search, print the tables,
/// write `RESULTS/tune.json`, print every check verdict — mirroring
/// [`crate::harness::run_and_report`] for searched experiments.
///
/// # Panics
/// If the artifact cannot be written.
pub fn run_and_report(exp: &TuneExperiment, out_dir: &Path) -> (ExperimentResult, Vec<Check>) {
    let pre = swpf_obs::enabled().then(|| swpf_obs::snapshot().summary());
    let (result, derived, checks) = {
        let _span = swpf_obs::enabled().then(|| swpf_obs::span(format!("experiment:{}", exp.name)));
        run_tune(exp)
    };
    let profile = pre.map(|p| profile_window_json(&p, &swpf_obs::snapshot().summary()));
    println!(
        "\n#### {} — {} [scale={}, {} evaluated cells, {:.2}s]",
        result.name,
        result.title,
        result.scale.label(),
        result.cells.len(),
        result.wall_s,
    );
    print_sections(&derived);
    let path = write_artifact_with_profile(out_dir, &result, &derived, &checks, profile)
        .unwrap_or_else(|e| panic!("cannot write artifact for {}: {e}", result.name));
    println!("\nartifact: {}", path.display());
    for check in &checks {
        let verdict = if check.passed { "ok  " } else { "FAIL" };
        println!("check {verdict} {} — {}", check.name, check.detail);
    }
    (result, checks)
}
