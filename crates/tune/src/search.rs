//! Search strategies over the prefetch parameter space.
//!
//! Three strategies behind one [`Strategy`] trait:
//!
//! * [`Exhaustive`] — evaluate every distance-axis point: the oracle
//!   the other strategies are measured against (%-of-oracle).
//! * [`GoldenSection`] — a discrete golden-section (Fibonacci-bracket)
//!   search exploiting the shape Fig. 6 establishes: the speedup curve
//!   over look-ahead distance rises to an interior optimum and falls
//!   off on both sides (too small fetches too late, too big pollutes
//!   the cache), i.e. cycles are unimodal in the distance. `O(log n)`
//!   evaluations; on a strictly unimodal curve it returns the
//!   exhaustive optimum.
//! * [`HillClimb`] — budgeted local search over the full space
//!   (distance steps plus pass toggles such as the stride companion),
//!   for the secondary axes bracketing cannot cover.
//!
//! Strategies own no simulator: they ask a [`Pricer`] for the cycles of
//! each configuration they visit. Every strategy evaluates the
//! paper-heuristic configuration first and returns the best point it
//! *visited*, so a tuned configuration is never worse than the
//! heuristic by construction. Searches are fully deterministic: fixed
//! probe orders, first-visit tie-breaking, no randomness.

use crate::report::{EvalPoint, Outcome};
use crate::space::Space;
use std::collections::HashMap;
use swpf_core::PassConfig;

/// The cost a search minimises: simulated cycles of the kernel `config`
/// compiles to, on machine index `machine` of the caller's machine set.
/// The experiment harness prices through its simulation rows; a test
/// can price with a synthetic curve (any `FnMut(&PassConfig, usize) ->
/// u64` is a pricer).
pub trait Pricer {
    /// Simulated cycles of `config` on machine `machine`.
    fn cycles(&mut self, config: &PassConfig, machine: usize) -> u64;
}

impl<F: FnMut(&PassConfig, usize) -> u64> Pricer for F {
    fn cycles(&mut self, config: &PassConfig, machine: usize) -> u64 {
        self(config, machine)
    }
}

/// A search procedure for the best [`PassConfig`] of one
/// (workload, machine) cell. Strategies search any [`Space`] — the
/// paper's knob space ([`crate::SearchSpace`]) or the cleanup-pipeline
/// orderings ([`crate::PipelineSpace`]).
pub trait Strategy {
    /// Stable strategy name for reports and artifact labels.
    fn name(&self) -> &'static str;

    /// Search `space` for the configuration minimising the cycles
    /// `pricer` reports on machine index `machine`.
    fn tune(&self, space: &dyn Space, machine: usize, pricer: &mut dyn Pricer) -> Outcome;
}

/// Per-search probe bookkeeping on top of the pricer: counts each
/// *distinct* configuration the search requests exactly once (the
/// honest per-search cost, whatever the pricer memoises) and remembers
/// the visit order for the [`Outcome`]. The memo is keyed on the
/// [`PassConfig`] value itself.
struct Probe<'p> {
    pricer: &'p mut dyn Pricer,
    machine: usize,
    seen: HashMap<PassConfig, u64>,
    visited: Vec<EvalPoint>,
}

impl<'p> Probe<'p> {
    fn new(pricer: &'p mut dyn Pricer, machine: usize) -> Self {
        Probe {
            pricer,
            machine,
            seen: HashMap::new(),
            visited: Vec::new(),
        }
    }

    /// Cycles of `config` on the target machine; re-requests are free.
    fn cycles(&mut self, config: &PassConfig) -> u64 {
        if let Some(&c) = self.seen.get(config) {
            return c;
        }
        let cycles = self.pricer.cycles(config, self.machine);
        self.seen.insert(config.clone(), cycles);
        self.visited.push(EvalPoint {
            config: config.clone(),
            cycles,
        });
        cycles
    }

    fn points_evaluated(&self) -> usize {
        self.visited.len()
    }

    /// Close the search: best = minimum cycles, earliest visit on ties.
    /// When profiling is on, the convergence trajectory is published:
    /// evaluations paid, strict improvements along the visit order, and
    /// how many evaluations it took to first reach the winner.
    fn outcome(self, strategy: &'static str) -> Outcome {
        let best = self
            .visited
            .iter()
            .enumerate()
            .min_by_key(|(i, p)| (p.cycles, *i))
            .map(|(i, _)| i)
            .expect("every strategy visits at least the heuristic");
        if swpf_obs::enabled() {
            let improvements = self
                .visited
                .iter()
                .scan(u64::MAX, |min, p| {
                    let improved = p.cycles < *min;
                    *min = (*min).min(p.cycles);
                    Some(u64::from(improved))
                })
                .sum::<u64>()
                .saturating_sub(1); // the first visit seeds, not improves
            swpf_obs::count(format!("tune.evals.{strategy}"), self.visited.len() as u64);
            swpf_obs::count(format!("tune.improvements.{strategy}"), improvements);
            swpf_obs::record("tune.best_found_at_eval", best as u64 + 1);
        }
        Outcome {
            strategy,
            visited: self.visited,
            best,
        }
    }
}

/// Evaluate every point of the distance axis — the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl Strategy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn tune(&self, space: &dyn Space, machine: usize, pricer: &mut dyn Pricer) -> Outcome {
        space.assert_well_formed();
        let mut probe = Probe::new(pricer, machine);
        probe.cycles(&space.heuristic().clone());
        for i in 0..space.len() {
            probe.cycles(&space.at(i));
        }
        probe.outcome(self.name())
    }
}

/// Discrete golden-section search over the distance axis (Fibonacci
/// bracket: one new evaluation per contraction).
#[derive(Debug, Clone, Copy, Default)]
pub struct GoldenSection;

impl Strategy for GoldenSection {
    fn name(&self) -> &'static str {
        "golden"
    }

    fn tune(&self, space: &dyn Space, machine: usize, pricer: &mut dyn Pricer) -> Outcome {
        space.assert_well_formed();
        let mut probe = Probe::new(pricer, machine);
        probe.cycles(&space.heuristic().clone());
        let mut f = |i: usize| probe.cycles(&space.at(i));
        let _ = bracket_argmin(space.len(), &mut f);
        probe.outcome(self.name())
    }
}

/// Budgeted hill-climbing over the full space: distance steps of ±1
/// axis index plus the toggles the space exposes. Moves to the best
/// strictly-improving neighbour until a local optimum or the budget
/// (maximum distinct evaluations) is reached.
#[derive(Debug, Clone, Copy)]
pub struct HillClimb {
    /// Maximum distinct configuration points to evaluate. The
    /// mandatory heuristic seed counts towards it (and is evaluated
    /// even when the budget is zero — every strategy returns at least
    /// the heuristic).
    pub budget: usize,
}

impl Default for HillClimb {
    /// 16 points: enough to walk half the default distance axis or
    /// flip every toggle several times, a fraction of the exhaustive
    /// sweep's cost.
    fn default() -> Self {
        HillClimb { budget: 16 }
    }
}

/// Hill-climber state: a cell of the full (distance × toggles) space.
#[derive(Clone, Copy)]
struct Cell {
    idx: usize,
    stride: bool,
    hoist: bool,
}

impl Cell {
    fn config(self, space: &dyn Space) -> PassConfig {
        PassConfig {
            stride_companion: self.stride,
            enable_hoisting: self.hoist,
            ..space.at(self.idx)
        }
    }

    /// Deterministic neighbour order: the primary axis first (distance
    /// steps, or adjacent pipeline candidates), then the enabled
    /// toggles.
    fn neighbours(self, space: &dyn Space) -> Vec<Cell> {
        let mut out = Vec::with_capacity(4);
        if self.idx > 0 {
            out.push(Cell {
                idx: self.idx - 1,
                ..self
            });
        }
        if self.idx + 1 < space.len() {
            out.push(Cell {
                idx: self.idx + 1,
                ..self
            });
        }
        if space.toggle_stride_companion() {
            out.push(Cell {
                stride: !self.stride,
                ..self
            });
        }
        if space.toggle_hoisting() {
            out.push(Cell {
                hoist: !self.hoist,
                ..self
            });
        }
        out
    }
}

impl Strategy for HillClimb {
    fn name(&self) -> &'static str {
        "hill"
    }

    fn tune(&self, space: &dyn Space, machine: usize, pricer: &mut dyn Pricer) -> Outcome {
        space.assert_well_formed();
        let mut probe = Probe::new(pricer, machine);
        probe.cycles(&space.heuristic().clone());
        let mut here = Cell {
            idx: space.heuristic_index(),
            stride: space.heuristic().stride_companion,
            hoist: space.heuristic().enable_hoisting,
        };
        // The start cell differs from the heuristic only when its
        // look-ahead is off-axis; respect the budget either way.
        if probe.points_evaluated() >= self.budget {
            return probe.outcome(self.name());
        }
        let mut here_cycles = probe.cycles(&here.config(space));
        'climb: loop {
            let mut best: Option<(u64, Cell)> = None;
            for n in here.neighbours(space) {
                if probe.points_evaluated() >= self.budget {
                    break 'climb;
                }
                let c = probe.cycles(&n.config(space));
                if c < here_cycles && best.is_none_or(|(b, _)| c < b) {
                    best = Some((c, n));
                }
            }
            match best {
                Some((c, n)) => {
                    here = n;
                    here_cycles = c;
                }
                None => break, // local optimum
            }
        }
        probe.outcome(self.name())
    }
}

/// Minimise `f` over indices `0..n` with a Fibonacci bracket,
/// assuming `f` is unimodal (strictly decreasing, then strictly
/// increasing — on such input the returned index is the exact argmin).
/// Indices past `n-1` are treated as `+∞` (never probed), which
/// preserves unimodality, so any Fibonacci number ≥ `n-1` can bound the
/// bracket. One new evaluation per contraction: `O(log n)` probes.
///
/// The caller's `f` is expected to memoise (the bracket re-requests one
/// held interior point per step).
fn bracket_argmin(n: usize, f: &mut impl FnMut(usize) -> u64) -> usize {
    assert!(n > 0, "empty search domain");
    if n <= 4 {
        return scan_argmin(0, n - 1, n, f);
    }
    let mut fibs: Vec<usize> = vec![1, 1, 2, 3];
    while *fibs.last().expect("non-empty") < n - 1 {
        let l = fibs.len();
        fibs.push(fibs[l - 1] + fibs[l - 2]);
    }
    let mut g = |i: usize| if i < n { f(i) } else { u64::MAX };

    // Invariant: the minimum lies in [lo, lo + fibs[k]], with probes
    // held at lo + fibs[k-2] and lo + fibs[k-1]; each contraction
    // reuses one probe and evaluates one new point.
    let mut k = fibs.len() - 1;
    let mut lo = 0usize;
    let mut x1 = lo + fibs[k - 2];
    let mut x2 = lo + fibs[k - 1];
    let (mut f1, mut f2) = (g(x1), g(x2));
    while k > 3 {
        if f1 <= f2 {
            // Minimum in [lo, x2]; the old x1 becomes the new x2.
            k -= 1;
            x2 = x1;
            f2 = f1;
            x1 = lo + fibs[k - 2];
            f1 = g(x1);
        } else {
            // Minimum in [x1, lo + fibs[k]]; the old x2 becomes the
            // new x1.
            lo = x1;
            k -= 1;
            x1 = x2;
            f1 = f2;
            x2 = lo + fibs[k - 1];
            f2 = g(x2);
        }
    }
    // k == 3: a four-point bracket; its interior probes are memoised,
    // so the final scan adds at most the two edges.
    scan_argmin(lo, lo + fibs[k], n, f)
}

/// Argmin of `f` over `lo..=hi` clamped to `0..n` (first wins ties).
fn scan_argmin(lo: usize, hi: usize, n: usize, f: &mut impl FnMut(usize) -> u64) -> usize {
    (lo..=hi.min(n - 1))
        .map(|i| (i, f(i)))
        .min_by_key(|&(i, c)| (c, i))
        .expect("non-empty scan range")
        .0
}

/// Is `v` strictly unimodal (strictly decreasing to a unique minimum,
/// then strictly increasing)? This is the precondition under which
/// [`GoldenSection`] provably returns the exhaustive optimum; the shape
/// checks use it to decide which cells the golden-vs-oracle equivalence
/// claim applies to. Plateaus (equal neighbours) are conservatively
/// rejected.
#[must_use]
pub fn strictly_unimodal(v: &[u64]) -> bool {
    if v.len() < 2 {
        return true;
    }
    let m = v
        .iter()
        .enumerate()
        .min_by_key(|&(i, c)| (c, i))
        .expect("non-empty")
        .0;
    v[..=m].windows(2).all(|w| w[0] > w[1]) && v[m..].windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    /// Count distinct probes of a synthetic function.
    fn counted<'c>(
        f: impl Fn(usize) -> u64 + 'c,
        seen: &'c mut std::collections::HashSet<usize>,
    ) -> impl FnMut(usize) -> u64 + 'c {
        move |i| {
            seen.insert(i);
            f(i)
        }
    }

    #[test]
    fn bracket_finds_the_exact_argmin_of_every_strictly_unimodal_valley() {
        for n in 1..40usize {
            for t in 0..n {
                let mut seen = std::collections::HashSet::new();
                let mut f = counted(
                    move |i| {
                        let d = i as i64 - t as i64;
                        (d * d) as u64
                    },
                    &mut seen,
                );
                let got = bracket_argmin(n, &mut f);
                assert_eq!(got, t, "valley at {t} of {n}");
            }
        }
    }

    #[test]
    fn bracket_probes_at_most_half_the_axis_beyond_trivial_sizes() {
        // Worst-case probes ≈ k+1 where fibs[k] is the smallest
        // Fibonacci number ≥ n-1; that is ≤ n/2 from n = 16 on (the
        // default axis has 25 points).
        for n in 16..40usize {
            for t in 0..n {
                let mut seen = std::collections::HashSet::new();
                {
                    let mut f = counted(
                        move |i| {
                            let d = i as i64 - t as i64;
                            (d * d) as u64
                        },
                        &mut seen,
                    );
                    let _ = bracket_argmin(n, &mut f);
                }
                assert!(
                    seen.len() * 2 <= n,
                    "{} probes on an axis of {n} (valley at {t})",
                    seen.len()
                );
            }
        }
    }

    #[test]
    fn bracket_handles_monotone_edges() {
        // Strictly increasing (min at 0) and strictly decreasing
        // (min at n-1) are the degenerate unimodal shapes.
        for n in 1..30usize {
            let mut inc = |i: usize| i as u64 * 10;
            assert_eq!(bracket_argmin(n, &mut inc), 0);
            let mut dec = move |i: usize| (n - i) as u64 * 10;
            assert_eq!(bracket_argmin(n, &mut dec), n - 1);
        }
    }

    #[test]
    fn strictly_unimodal_classification() {
        assert!(strictly_unimodal(&[5, 3, 1, 2, 4]));
        assert!(strictly_unimodal(&[1, 2, 3])); // monotone counts
        assert!(strictly_unimodal(&[3, 2, 1]));
        assert!(strictly_unimodal(&[7]));
        assert!(!strictly_unimodal(&[5, 3, 3, 4]), "plateau rejected");
        assert!(!strictly_unimodal(&[1, 5, 2, 6, 3]), "two valleys");
    }

    /// A synthetic cycle curve over the paper's space: a valley at
    /// `c = 24` on machine 0 and at `c = 96` on machine 1, where the
    /// stride companion costs a little.
    fn valley(config: &PassConfig, machine: usize) -> u64 {
        let optimum = [24, 96][machine];
        1000 + (config.look_ahead - optimum).unsigned_abs() * 10
            + u64::from(config.stride_companion)
    }

    /// Every strategy beats or matches the heuristic by construction,
    /// and reports the cycles its pricer gave for the point it chose.
    #[test]
    fn strategies_never_lose_to_the_heuristic() {
        let space = SearchSpace::paper_default();
        for machine in 0..2 {
            let heuristic_cycles = valley(&space.heuristic, machine);
            for strategy in [
                &Exhaustive as &dyn Strategy,
                &GoldenSection,
                &HillClimb::default(),
            ] {
                let out = strategy.tune(&space, machine, &mut valley);
                assert!(
                    out.best_cycles() <= heuristic_cycles,
                    "{} must never lose to the heuristic",
                    strategy.name()
                );
                assert_eq!(out.best_cycles(), valley(out.best_config(), machine));
                assert_eq!(out.strategy, strategy.name());
            }
        }
    }

    #[test]
    fn golden_visits_at_most_half_of_exhaustive_on_the_default_axis() {
        let space = SearchSpace::paper_default();
        let full = Exhaustive.tune(&space, 0, &mut valley);
        let golden = GoldenSection.tune(&space, 0, &mut valley);
        assert!(
            golden.points_evaluated() * 2 <= full.points_evaluated(),
            "golden {} vs exhaustive {}",
            golden.points_evaluated(),
            full.points_evaluated()
        );
        assert_eq!(golden.best_cycles(), full.best_cycles(), "a strict valley");
    }

    /// The same strategies search pipeline orderings: both the oracle
    /// and the budgeted hill-climb seed with the default full pipeline,
    /// so the searched pipeline is never worse than the default.
    #[test]
    fn strategies_search_pipeline_orderings_too() {
        let space = crate::PipelineSpace::paper_default();
        let mut asked = std::collections::HashSet::new();
        let mut pricer = |config: &PassConfig, _: usize| {
            asked.insert(config.clone());
            let spec = config.pipeline.to_string();
            100 + (spec.len() as u64 * 7) % 13
        };
        let default_cycles = pricer.cycles(&space.heuristic, 0);

        let oracle = Exhaustive.tune(&space, 0, &mut pricer);
        assert!(oracle.best_cycles() <= default_cycles);
        assert_eq!(
            oracle.points_evaluated(),
            space.pipelines.len(),
            "the oracle visits every candidate pipeline exactly once"
        );

        let hill = HillClimb::default().tune(&space, 0, &mut pricer);
        assert!(hill.best_cycles() <= default_cycles);
        assert_eq!(
            asked.len(),
            space.pipelines.len(),
            "hill-climbing re-walks points the oracle already evaluated"
        );
    }

    #[test]
    fn hill_climb_respects_its_budget() {
        let space = SearchSpace::paper_default();
        let out = HillClimb { budget: 5 }.tune(&space, 0, &mut valley);
        assert!(out.points_evaluated() <= 5);

        // Tightest budgets: the seed points count too, even when the
        // heuristic's look-ahead is off the axis (start cell differs).
        let mut off_axis = SearchSpace::distance_only(vec![4, 8]);
        off_axis.heuristic = swpf_core::PassConfig::with_look_ahead(64);
        for budget in [0usize, 1, 2] {
            let out = HillClimb { budget }.tune(&off_axis, 0, &mut valley);
            assert!(
                out.points_evaluated() <= budget.max(1),
                "budget {budget}: evaluated {}",
                out.points_evaluated()
            );
        }
    }
}
