//! Reading the product's `RESULTS/<experiment>.json` artifacts (schema
//! v1): the simulated counters of every cell, the shape checks, and the
//! trace-cache statistics.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// One simulated cell: a workload variant on a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub experiment: String,
    pub workload: String,
    pub machine: String,
    pub variant: String,
    pub wall_ms: f64,
    /// Every numeric member of every core, in file order.
    pub cores: Vec<Vec<(String, f64)>>,
}

impl Cell {
    /// `experiment/workload/machine/variant` — unique within a run.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.experiment, self.workload, self.machine, self.variant
        )
    }

    /// The full counter set as one canonical line; two cells simulated
    /// identically give the same string.
    #[must_use]
    pub fn counters(&self) -> String {
        let mut out = String::new();
        for (i, core) in self.cores.iter().enumerate() {
            for (name, value) in core {
                out.push_str(&format!("c{i}.{name}={value};"));
            }
        }
        out
    }

    /// Sum of counter `name` over the cell's cores.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.cores
            .iter()
            .flatten()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Simulated time of the cell: its slowest core's cycle count.
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.cores
            .iter()
            .flatten()
            .filter(|(n, _)| n == "cycles")
            .map(|(_, v)| *v)
            .fold(0.0, f64::max)
    }
}

/// Everything one run of `all` left in its output directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunArtifacts {
    pub cells: Vec<Cell>,
    pub checks_passed: u64,
    /// `experiment: check name (detail)` of every failed shape check.
    pub checks_failed: Vec<String>,
    pub trace_hits: u64,
    pub trace_misses: u64,
}

/// Parse one experiment artifact into `into`.
///
/// # Errors
/// If the text is not a schema-v1 artifact.
pub fn read_artifact(text: &str, into: &mut RunArtifacts) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let version = doc.get("schema_version").and_then(Json::as_u64);
    if version != Some(1) {
        return Err(format!(
            "artifact schema_version is {version:?}, expected 1"
        ));
    }
    let text_of = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("artifact member `{key}` missing"))
    };
    let experiment = text_of(&doc, "experiment")?;
    for cell in doc.get("cells").ok_or("artifact has no `cells`")?.items() {
        let cores: Vec<Vec<(String, f64)>> = cell
            .get("cores")
            .ok_or("cell has no `cores`")?
            .items()
            .iter()
            .map(|core| {
                core.members()
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .collect();
        if cores.is_empty() {
            return Err(format!("{experiment}: a cell has no cores"));
        }
        into.cells.push(Cell {
            experiment: experiment.clone(),
            workload: text_of(cell, "workload")?,
            machine: text_of(cell, "machine")?,
            variant: text_of(cell, "variant")?,
            wall_ms: cell.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
            cores,
        });
    }
    for check in doc.get("checks").map_or(&[][..], Json::items) {
        if check.get("passed").and_then(Json::as_bool) == Some(true) {
            into.checks_passed += 1;
        } else {
            into.checks_failed.push(format!(
                "{experiment}: check {} failed ({})",
                check.get("name").and_then(Json::as_str).unwrap_or("?"),
                check.get("detail").and_then(Json::as_str).unwrap_or(""),
            ));
        }
    }
    if let Some(trace) = doc.get("trace") {
        into.trace_hits += trace.get("hits").and_then(Json::as_u64).unwrap_or(0);
        into.trace_misses += trace.get("misses").and_then(Json::as_u64).unwrap_or(0);
    }
    Ok(())
}

/// Read the artifacts of `experiments` from the directory `all` wrote.
///
/// # Errors
/// If a file is missing, unreadable, or not a schema-v1 artifact.
pub fn read_run(dir: &Path, experiments: &[&str]) -> Result<RunArtifacts, String> {
    let mut run = RunArtifacts::default();
    for name in experiments {
        let path = dir.join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        read_artifact(&text, &mut run).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(run)
}

impl RunArtifacts {
    /// Cell key → canonical counter line, for identity checks between
    /// rounds and between execution paths.
    #[must_use]
    pub fn identity(&self) -> BTreeMap<String, String> {
        self.cells.iter().map(|c| (c.key(), c.counters())).collect()
    }

    /// Sum of counter `name` over every core of every cell.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.cells.iter().map(|c| c.total(name)).sum()
    }

    /// Geometric mean, over the prefetching cells, of baseline cycles ÷
    /// the cell's cycles, the baseline being the no-prefetch cell of the
    /// same experiment, workload, machine and core count. `None` if no
    /// cell has a baseline to compare with.
    #[must_use]
    pub fn speedup_geomean(&self) -> Option<f64> {
        let is_baseline = |c: &Cell| c.variant == "baseline" || c.variant.ends_with("_baseline");
        let group = |c: &Cell| {
            (
                c.experiment.clone(),
                c.workload.clone(),
                c.machine.clone(),
                c.cores.len(),
            )
        };
        let baselines: BTreeMap<_, f64> = self
            .cells
            .iter()
            .filter(|c| is_baseline(c))
            .map(|c| (group(c), c.cycles()))
            .collect();
        let logs: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| !is_baseline(c) && c.cycles() > 0.0)
            .filter_map(|c| Some((baselines.get(&group(c))? / c.cycles()).ln()))
            .collect();
        if logs.is_empty() {
            None
        } else {
            Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
        }
    }
}

/// Compare two identity maps on the keys that start with `only`: the
/// number of keys compared, and a failure message for every key present
/// on one side only or with differing values.
#[must_use]
pub fn identity_diff(
    what: &str,
    a: &BTreeMap<String, String>,
    b: &BTreeMap<String, String>,
    only: &str,
) -> (u64, Vec<String>) {
    let mut out = Vec::new();
    let keys: std::collections::BTreeSet<&String> = a
        .keys()
        .chain(b.keys())
        .filter(|k| k.starts_with(only))
        .collect();
    for key in &keys {
        match (a.get(*key), b.get(*key)) {
            (Some(x), Some(y)) if x == y => {}
            (Some(_), Some(_)) => out.push(format!("{what}: `{key}` differs")),
            _ => out.push(format!("{what}: `{key}` is on one side only")),
        }
    }
    (keys.len() as u64, out)
}

/// A short digest of an identity map, for printing beside a workload so
/// that equal paths can be seen to be equal.
#[must_use]
pub fn identity_digest(identity: &BTreeMap<String, String>, only: &str) -> String {
    let mut hash = crate::Fnv64::default();
    for (key, value) in identity.iter().filter(|(k, _)| k.starts_with(only)) {
        hash.update(key.as_bytes());
        hash.update(value.as_bytes());
    }
    format!("{:016x}", hash.finish())
}
