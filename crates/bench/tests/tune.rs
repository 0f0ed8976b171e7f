//! End-to-end acceptance tests of the tuning subsystem at
//! `Scale::Test`: the golden-section/oracle equivalence on unimodal
//! cells, the ≤-half search-cost bound, the never-worse-than-heuristic
//! guarantee, determinism, and the artifact shape (including the
//! self-describing `params` member).

use swpf_bench::experiments;
use swpf_bench::harness::{
    artifact_json, run_experiment, structural_checks, Check, Experiment, ExperimentResult,
    RunOptions, TableSection,
};
use swpf_bench::json::Json;
use swpf_core::PassConfig;
use swpf_sim::CoreKind;
use swpf_tune::{
    distance_curve, strictly_unimodal, tune_cell, Evaluator, Exhaustive, GoldenSection, SearchSpace,
};
use swpf_workloads::Scale;

fn tune() -> Experiment {
    experiments::by_name("tune", Scale::Test).expect("tune is in the catalogue")
}

/// Run an experiment as the driver does: cells, derived tables, checks.
fn run(exp: &Experiment) -> (ExperimentResult, Vec<TableSection>, Vec<Check>) {
    let result = run_experiment(exp, &RunOptions::default());
    let derived = (exp.derive)(&result);
    let mut checks = structural_checks(&result, &derived);
    checks.extend((exp.checks)(&result, &derived));
    (result, derived, checks)
}

/// The acceptance grid: the default tune experiment already spans
/// ≥ 2 in-order machines × ≥ 3 workloads.
#[test]
fn default_grid_is_in_order_machines_by_fig6_workloads() {
    let exp = tune();
    assert!(exp.spec.machines.len() >= 2);
    assert!(exp
        .spec
        .machines
        .iter()
        .all(|m| m.core == CoreKind::InOrder));
    assert!(exp.spec.workloads.len() >= 3);
    let space = &exp.search.expect("tune is a search").space;
    assert!(
        (0..space.len()).any(|i| space.at(i) == *space.heuristic()),
        "heuristic is a candidate"
    );
    assert_eq!(*space.heuristic(), PassConfig::default());
}

/// The headline acceptance criteria, per cell of the default grid:
/// golden-section finds the exhaustive optimum on every strictly
/// unimodal cell while evaluating at most half as many points, and no
/// tuned config is ever worse than the paper heuristic.
#[test]
fn golden_matches_oracle_at_half_cost_and_tuned_never_loses() {
    let exp = tune().spec;
    let space = SearchSpace::paper_default();
    for &wid in &exp.workloads {
        let w = wid.instantiate(exp.scale);
        let mut eval = Evaluator::new(w.as_ref(), &exp.machines);
        for mi in 0..exp.machines.len() {
            let oracle = tune_cell(&Exhaustive, &space, mi, &mut eval, None);
            let golden = tune_cell(
                &GoldenSection,
                &space,
                mi,
                &mut eval,
                Some(oracle.chosen_cycles),
            );
            let cell = format!("{}/{}", exp.machines[mi].name, w.name());

            assert!(
                golden.points.len() * 2 <= oracle.points.len(),
                "{cell}: golden evaluated {} of exhaustive's {} points",
                golden.points.len(),
                oracle.points.len()
            );
            assert!(
                golden.chosen_cycles <= golden.heuristic_cycles,
                "{cell}: tuned worse than heuristic"
            );
            assert!(
                oracle.chosen_cycles <= oracle.heuristic_cycles,
                "{cell}: oracle worse than heuristic"
            );

            let curve = distance_curve(&space, &oracle.points);
            assert_eq!(curve.len(), space.len(), "oracle sweeps the axis");
            if strictly_unimodal(&curve) {
                assert_eq!(
                    golden.chosen_cycles, oracle.chosen_cycles,
                    "{cell}: golden must find the oracle optimum on a unimodal curve"
                );
            }
        }
    }
}

/// The full experiment runner: every shape check passes at test scale
/// (the CI `experiments` job runs exactly this via
/// `--bin all -- --only tune`), and the run is deterministic.
#[test]
fn tune_experiment_checks_pass_and_runs_are_deterministic() {
    let exp = tune();
    let (result, derived, checks) = run(&exp);
    for c in &checks {
        assert!(c.passed, "check {} failed: {}", c.name, c.detail);
    }
    assert!(!derived.is_empty());

    let (again, _, _) = run(&exp);
    assert_eq!(result.cells.len(), again.cells.len());
    for (a, b) in result.cells.iter().zip(&again.cells) {
        assert_eq!(
            (a.machine, a.workload, &a.variant),
            (b.machine, b.workload, &b.variant)
        );
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles, "{}", a.variant);
    }
}

/// The artifact: schema v1 with self-describing per-cell `params`
/// (look-ahead and transform toggles) on every evaluated point.
#[test]
fn tune_artifact_cells_carry_their_pass_parameters() {
    let mut exp = tune();
    exp.spec.workloads.truncate(1); // one workload is enough for shape
    let (result, derived, checks) = run(&exp);
    let doc = artifact_json(&result, &derived, &checks);
    let parsed = Json::parse(&doc.to_pretty_string()).expect("artifact parses");

    assert_eq!(
        parsed.get("experiment").and_then(Json::as_str),
        Some("tune")
    );
    let cells = parsed
        .get("cells")
        .and_then(Json::as_array)
        .expect("cells array");
    assert!(!cells.is_empty());
    for cell in cells {
        let params = cell.get("params").expect("every tuned cell has params");
        let la = params
            .get("look_ahead")
            .and_then(Json::as_f64)
            .expect("look_ahead recorded");
        assert!(
            SearchSpace::paper_default()
                .look_aheads
                .contains(&(la as i64)),
            "look-ahead {la} comes from the search space"
        );
        assert!(
            params.get("stride_companion").is_some(),
            "enabled transforms recorded"
        );
    }
}

/// A synthetic sanity anchor for the equivalence machinery itself: a
/// hand-made strictly unimodal curve classifies as such and the golden
/// search over it returns the global optimum (guards against the
/// classifier and the bracket drifting apart).
#[test]
fn unimodality_classifier_and_curve_extraction_agree() {
    let space = SearchSpace::paper_default();
    // distance_curve() orders points by the axis, whatever order the
    // oracle visited them in.
    let points: Vec<swpf_tune::EvalPoint> = space
        .look_aheads
        .iter()
        .rev()
        .map(|&c| swpf_tune::EvalPoint {
            config: PassConfig::with_look_ahead(c),
            cycles: ((c - 40).unsigned_abs() + 100),
        })
        .collect();
    let curve = distance_curve(&space, &points);
    assert_eq!(curve.len(), space.len());
    assert!(strictly_unimodal(&curve));
    assert_eq!(curve.iter().min(), Some(&100));
}
