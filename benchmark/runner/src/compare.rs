//! `compare`: apply the bounds of `BENCHMARK.json` to two sets of result
//! files of `run`, one row per (metric, workload) pair.
//!
//! A set is one file or several files of the same commit. With several,
//! the values compared are the set's medians, and a pair is unresolved
//! when either set's own quartile spread exceeds the bound: the gated
//! values are each run's fastest round, so the spread that matters is the
//! one between runs, which a single file cannot show.

use crate::json::Json;
use crate::stats::summarize;

/// The outcome of a comparison: the printed table, how many pairs got
/// worse by more than their bound, and how many could not be told apart.
pub struct Comparison {
    pub table: String,
    pub violations: usize,
    pub unresolved: usize,
}

/// The values of `metric` on `workload`, one per file that has it.
fn values(set: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter_map(|doc| {
            doc.get("workloads")?
                .items()
                .iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Compare the set `b` with its base `a` under the end-to-end bounds of
/// `benchmark` (the parsed `BENCHMARK.json`).
///
/// # Errors
/// If a file is not a result file of `run`, or is a smoke run.
pub fn compare(benchmark: &Json, a: &[Json], b: &[Json]) -> Result<Comparison, String> {
    for (label, set) in [("A", a), ("B", b)] {
        for doc in set {
            if doc.get("schema").and_then(Json::as_str) != Some("swpf-benchmark/1") {
                return Err(format!(
                    "a file of {label} is not a result file of `runner run`"
                ));
            }
            if doc.get("not_for_comparison").and_then(Json::as_bool) != Some(false) {
                return Err(format!(
                    "a file of {label} is a smoke run: not for comparison"
                ));
            }
        }
    }
    let mut out = Comparison {
        table: format!(
            "{:<20} {:<14} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict\n",
            "metric",
            "workload",
            format!("A (base, n={})", a.len()),
            format!("B (n={})", b.len()),
            "B/A",
            "worse",
            "bound"
        ),
        violations: 0,
        unresolved: 0,
    };
    for spec in benchmark.get("end_to_end").map_or(&[][..], Json::items) {
        let field = |key: &str| spec.get(key).and_then(Json::as_str).unwrap_or("");
        let (name, unit) = (field("name"), field("unit"));
        let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        for w in benchmark.get("workloads").map_or(&[][..], Json::items) {
            let w = w.get("name").and_then(Json::as_str).unwrap_or("");
            let (values_a, values_b) = (values(a, w, name), values(b, w, name));
            let (Some(sa), Some(sb)) = (summarize(&values_a), summarize(&values_b)) else {
                out.violations += 1;
                out.table.push_str(&format!(
                    "{name:<20} {w:<14} missing from a set  VIOLATION\n"
                ));
                continue;
            };
            let (va, vb) = (sa.median, sb.median);
            let worse = match field("better") {
                "higher" => (va - vb) / va.abs(),
                _ => (vb - va) / va.abs(),
            };
            // A pair whose own run-to-run spread is wider than the bound
            // cannot be told apart: unresolved, not unchanged.
            let spread = sa.spread().max(sb.spread());
            let verdict = if spread > bound {
                out.unresolved += 1;
                format!("unresolved (spread {:.1}%)", spread * 100.0)
            } else if worse > bound {
                out.violations += 1;
                "VIOLATION".to_string()
            } else {
                "ok".to_string()
            };
            out.table.push_str(&format!(
                "{name:<20} {w:<14} {va:>14.6} {vb:>14.6} {:>8.4}x {:>+7.2}% {:>5.1}%  {verdict} [{unit}]\n",
                vb / va,
                worse * 100.0,
                bound * 100.0,
            ));
        }
    }
    out.table.push_str(&format!(
        "{} violation(s), {} unresolved; values are medians over each set's files, \
         ratios are B over A, A is the base\n",
        out.violations, out.unresolved
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"workloads": [{"name": "w"}], "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn result(wall: f64, rate: f64) -> Json {
        Json::parse(&format!(
            r#"{{"schema": "swpf-benchmark/1", "not_for_comparison": false, "workloads": [
                {{"name": "w", "end_to_end": {{
                    "wall_s": {{"value": {wall}, "unit": "s"}},
                    "rate": {{"value": {rate}, "unit": "1/s"}}}}}}]}}"#
        ))
        .expect("test JSON")
    }

    #[test]
    fn flags_a_regression_in_either_direction_and_passes_noise() {
        let bench = Json::parse(BENCH).expect("test JSON");
        let base = [result(10.0, 5.0)];
        let same = compare(&bench, &base, &[result(10.5, 4.8)]).expect("compares");
        assert_eq!((same.violations, same.unresolved), (0, 0), "{}", same.table);
        let slow = compare(&bench, &base, &[result(11.5, 5.0)]).expect("compares");
        assert_eq!(slow.violations, 1, "{}", slow.table);
        let less = compare(&bench, &base, &[result(10.0, 4.0)]).expect("compares");
        assert_eq!(less.violations, 1, "{}", less.table);
        // Faster and more is never a violation.
        let better = compare(&bench, &base, &[result(5.0, 50.0)]).expect("compares");
        assert_eq!(better.violations, 0, "{}", better.table);
    }

    #[test]
    fn sets_compare_by_median_and_a_wide_set_is_unresolved() {
        let bench = Json::parse(BENCH).expect("test JSON");
        let set = |walls: &[f64]| walls.iter().map(|w| result(*w, 5.0)).collect::<Vec<_>>();
        let base = set(&[10.0, 10.1, 10.2, 10.3]);
        // One slow run in four widens the quartiles; one in eight does
        // not, and never moves the median.
        let c = compare(&bench, &base, &set(&[10.1, 10.2, 10.3, 19.0])).expect("compares");
        assert_eq!((c.violations, c.unresolved), (0, 1), "{}", c.table);
        let eight = set(&[10.1, 10.2, 10.3, 10.4, 10.1, 10.2, 10.3, 19.0]);
        let c = compare(&bench, &base, &eight).expect("compares");
        assert_eq!((c.violations, c.unresolved), (0, 0), "{}", c.table);
        let c = compare(&bench, &base, &set(&[12.0, 12.1, 12.2, 12.3])).expect("compares");
        assert_eq!((c.violations, c.unresolved), (1, 0), "{}", c.table);
        let c = compare(&bench, &base, &set(&[12.0, 14.0, 16.0, 18.0])).expect("compares");
        assert_eq!((c.violations, c.unresolved), (0, 1), "{}", c.table);
    }

    #[test]
    fn missing_metrics_and_smoke_files_are_refused() {
        let bench = Json::parse(BENCH).expect("test JSON");
        let base = [result(10.0, 5.0)];
        let empty = Json::parse(
            r#"{"schema": "swpf-benchmark/1", "not_for_comparison": false, "workloads": []}"#,
        )
        .expect("test JSON");
        let c = compare(&bench, &base, &[empty]).expect("compares");
        assert_eq!(c.violations, 2);
        let smoke = Json::parse(r#"{"schema": "swpf-benchmark/1", "not_for_comparison": true}"#)
            .expect("test JSON");
        assert!(compare(&bench, &base, &[smoke]).is_err());
        assert!(compare(&bench, &[Json::Null], &base).is_err());
    }
}
