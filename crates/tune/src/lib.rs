//! # swpf-tune — search-based auto-tuning of prefetch parameters
//!
//! The paper's headline knob is the look-ahead distance `c`: Fig. 2
//! shows the too-small/too-big cliff, Fig. 6 sweeps it, and §Scheduling
//! argues the static heuristic `c = 64` lands near the optimum on every
//! evaluated system. This crate turns that claim into a measurement:
//! given a workload × machine grid, it *searches* for the best
//! [`PassConfig`] and reports how close the heuristic actually sits to
//! the oracle, per workload × machine.
//!
//! The subsystem is three layers:
//!
//! * [`SearchSpace`] ([`space`]) — the searchable slice of the pass's
//!   parameter space: a look-ahead distance axis (primary) plus pass
//!   toggles such as the stride companion (secondary). Behind the same
//!   [`Space`] abstraction, [`PipelineSpace`] exposes cleanup-pipeline
//!   *orderings* as the axis, so the identical strategies also search
//!   which pass pipeline minimises cycles per workload × machine.
//! * [`Pricer`] ([`search`]) — the cost model, one method: the
//!   simulated cycles of a configuration on one machine. This crate
//!   owns no simulator. The experiment harness prices each candidate
//!   through the same simulation rows as its grids, compiling it with
//!   the [`Evaluator`] ([`eval`]), whose forked analysis cache makes a
//!   candidate compile cheap; tests price with synthetic curves.
//! * [`Strategy`] ([`search`]) — [`Exhaustive`] grid (the oracle),
//!   [`GoldenSection`] bracketing over the unimodal distance curve, and
//!   budgeted [`HillClimb`] over the full space.
//!
//! **Determinism contract:** a tuning run is a pure function of
//! (pricer, search space, strategy): probe orders are fixed and ties
//! break to the earliest visit. Every strategy evaluates the paper
//! heuristic first, so a tuned config is **never worse than the
//! heuristic** by construction.
//!
//! ```
//! use swpf_core::PassConfig;
//! use swpf_sim::MachineConfig;
//! use swpf_tune::{tune_cell, GoldenSection, SearchSpace};
//!
//! // A synthetic curve with its valley at c = 32.
//! let mut pricer = |config: &PassConfig, _machine: usize| {
//!     1000 + (config.look_ahead - 32).unsigned_abs()
//! };
//! let machines = [MachineConfig::a53()];
//! let space = SearchSpace::paper_default();
//! let report = tune_cell(&GoldenSection, &space, &machines, 0, &mut pricer, None);
//! assert_eq!(report.chosen.look_ahead, 32);
//! assert!(report.chosen_cycles <= report.heuristic_cycles);
//! ```

pub mod eval;
pub mod report;
pub mod search;
pub mod space;

pub use eval::Evaluator;
pub use report::{EvalPoint, Outcome, TuneReport};
pub use search::{strictly_unimodal, Exhaustive, GoldenSection, HillClimb, Pricer, Strategy};
pub use space::{PipelineSpace, SearchSpace, Space, DEFAULT_FULL_PIPELINE, PAPER_DISTANCES};

use swpf_core::PassConfig;
use swpf_sim::MachineConfig;

/// Tune one (workload, machine) cell with one strategy and fold the
/// outcome into a [`TuneReport`]: `pricer` prices configurations on
/// machine index `machine` of `machines`. `oracle_cycles` is the
/// exhaustive sweep's optimum when one was run (enables
/// `pct_of_oracle`).
///
/// # Panics
/// If `machine` is out of range of `machines`.
pub fn tune_cell(
    strategy: &dyn Strategy,
    space: &dyn Space,
    machines: &[MachineConfig],
    machine: usize,
    pricer: &mut dyn Pricer,
    oracle_cycles: Option<u64>,
) -> TuneReport {
    let outcome = strategy.tune(space, machine, pricer);
    // The strategy already priced the heuristic (its seed point).
    let heuristic_cycles = pricer.cycles(space.heuristic(), machine);
    TuneReport {
        machine: machines[machine].name,
        strategy: outcome.strategy,
        chosen: outcome.best_config().clone(),
        chosen_cycles: outcome.best_cycles(),
        heuristic_cycles,
        oracle_cycles,
        points: outcome.visited,
    }
}

/// The distance-axis cycle curve of a tuned cell, in axis order, from
/// an exhaustive outcome's visited points — the series whose
/// (strict) unimodality decides whether the golden-section ≡ oracle
/// equivalence applies (see [`strictly_unimodal`]).
#[must_use]
pub fn distance_curve(space: &SearchSpace, points: &[EvalPoint]) -> Vec<u64> {
    space
        .look_aheads
        .iter()
        .filter_map(|&c| {
            points
                .iter()
                .find(|p| {
                    p.config
                        == PassConfig {
                            look_ahead: c,
                            ..space.heuristic.clone()
                        }
                })
                .map(|p| p.cycles)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_cell_fills_the_report() {
        let machines = [MachineConfig::xeon_phi(), MachineConfig::a53()];
        let space = SearchSpace::paper_default();
        // Valleys at c = 16 on the Phi and c = 48 on the A53.
        let mut pricer =
            |config: &PassConfig, m: usize| 500 + (config.look_ahead - [16, 48][m]).unsigned_abs();

        let oracle = tune_cell(&Exhaustive, &space, &machines, 0, &mut pricer, None);
        assert_eq!(oracle.chosen.look_ahead, 16);
        assert!(oracle.pct_of_oracle().is_nan());
        let golden = tune_cell(
            &GoldenSection,
            &space,
            &machines,
            0,
            &mut pricer,
            Some(oracle.chosen_cycles),
        );
        assert_eq!(golden.machine, "xeon_phi");
        assert_eq!(golden.strategy, "golden");
        assert_eq!(golden.heuristic_cycles, 500 + 64 - 16);
        assert!((golden.pct_of_oracle() - 100.0).abs() < 1e-9);

        let other = tune_cell(&Exhaustive, &space, &machines, 1, &mut pricer, None);
        assert_eq!(other.machine, "a53");
        assert_eq!(other.chosen.look_ahead, 48);
    }

    #[test]
    fn distance_curve_is_in_axis_order() {
        let space = SearchSpace::distance_only(vec![4, 8, 16]);
        let points = vec![
            EvalPoint {
                config: PassConfig::with_look_ahead(16),
                cycles: 30,
            },
            EvalPoint {
                config: PassConfig::with_look_ahead(4),
                cycles: 10,
            },
            EvalPoint {
                config: PassConfig::with_look_ahead(8),
                cycles: 20,
            },
        ];
        assert_eq!(distance_curve(&space, &points), vec![10, 20, 30]);
    }
}
