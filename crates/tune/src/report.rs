//! Tuning outcomes: what a search visited, what it chose, and how
//! close that choice sits to the exhaustive oracle.

use swpf_core::PassConfig;

/// One point a search requested: the configuration and its simulated
/// cycles on the search's target machine.
#[derive(Debug, Clone)]
pub struct EvalPoint {
    /// The configuration evaluated.
    pub config: PassConfig,
    /// Simulated cycles on the target machine.
    pub cycles: u64,
}

/// What one strategy's search over one (workload, machine) cell did.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The strategy that produced this outcome.
    pub strategy: &'static str,
    /// Every **distinct** point the search requested, in request order.
    /// Re-requests of an already-visited point (bracket reuse, repeated
    /// neighbours) are free and not recounted — this is the honest
    /// search cost in candidate compilations.
    pub visited: Vec<EvalPoint>,
    /// Index into `visited` of the chosen point (minimum cycles;
    /// earliest visit wins ties, so outcomes are deterministic).
    pub best: usize,
}

impl Outcome {
    /// The chosen configuration.
    #[must_use]
    pub fn best_config(&self) -> &PassConfig {
        &self.visited[self.best].config
    }

    /// Cycles of the chosen configuration on the target machine.
    #[must_use]
    pub fn best_cycles(&self) -> u64 {
        self.visited[self.best].cycles
    }

    /// Number of distinct candidate points the search evaluated.
    #[must_use]
    pub fn points_evaluated(&self) -> usize {
        self.visited.len()
    }
}

/// The complete record of tuning one (workload, machine) cell with one
/// strategy: every evaluated point, the chosen config, and — when an
/// exhaustive sweep of the same cell is available — %-of-oracle.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Machine display name.
    pub machine: &'static str,
    /// Strategy name.
    pub strategy: &'static str,
    /// Every distinct point the search evaluated, in request order.
    pub points: Vec<EvalPoint>,
    /// The chosen configuration.
    pub chosen: PassConfig,
    /// Cycles of the chosen configuration.
    pub chosen_cycles: u64,
    /// Cycles of the paper-heuristic configuration (always evaluated).
    pub heuristic_cycles: u64,
    /// Cycles of the exhaustive sweep's optimum, when one was run.
    pub oracle_cycles: Option<u64>,
}

impl TuneReport {
    /// How close the chosen config sits to the exhaustive oracle, as a
    /// percentage: `100 × oracle / chosen`. `100` means the search
    /// found the oracle's optimum; above `100` means it beat the
    /// (distance-axis) oracle by exploring a secondary axis. `NaN`
    /// without an oracle.
    #[must_use]
    pub fn pct_of_oracle(&self) -> f64 {
        match self.oracle_cycles {
            Some(o) => 100.0 * o as f64 / self.chosen_cycles as f64,
            None => f64::NAN,
        }
    }

    /// How close the *heuristic* sits to the oracle, as a percentage —
    /// the paper's near-optimality claim, quantified per cell. `NaN`
    /// without an oracle.
    #[must_use]
    pub fn heuristic_pct_of_oracle(&self) -> f64 {
        match self.oracle_cycles {
            Some(o) => 100.0 * o as f64 / self.heuristic_cycles as f64,
            None => f64::NAN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(chosen: u64, heuristic: u64, oracle: Option<u64>) -> TuneReport {
        TuneReport {
            machine: "a53",
            strategy: "golden",
            points: vec![],
            chosen: PassConfig::default(),
            chosen_cycles: chosen,
            heuristic_cycles: heuristic,
            oracle_cycles: oracle,
        }
    }

    #[test]
    fn pct_of_oracle_is_100_at_the_optimum() {
        let r = report(800, 1000, Some(800));
        assert!((r.pct_of_oracle() - 100.0).abs() < 1e-12);
        assert!((r.heuristic_pct_of_oracle() - 80.0).abs() < 1e-12);
        assert!(report(800, 1000, None).pct_of_oracle().is_nan());
    }
}
