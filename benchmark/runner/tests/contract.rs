//! The benchmark's own contract: what `BENCHMARK.json` lists is what the
//! runner emits, the probe is built like the product, the artifact
//! reader reads a real artifact, and the whole thing runs end to end.

use std::path::{Path, PathBuf};
use std::process::Command;
use swpf_benchmark::artifacts::{identity_diff, read_artifact, RunArtifacts};
use swpf_benchmark::json::Json;
use swpf_benchmark::session::Workload;
use swpf_benchmark::spec;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &str) -> String {
    let path = repo_root().join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

const FIXTURE: &str = include_str!("fixtures/fig7_two_cells.json");

fn fixture(text: &str) -> RunArtifacts {
    let mut run = RunArtifacts::default();
    read_artifact(text, &mut run).expect("the fixture is a schema-v1 artifact");
    run
}

#[test]
fn reads_a_schema_v1_artifact() {
    let run = fixture(FIXTURE);
    assert_eq!(run.cells.len(), 2);
    assert_eq!(run.cells[0].key(), "fig7/HJ-8/haswell/baseline");
    assert_eq!(run.cells[0].cycles(), 24479.0);
    assert_eq!(
        run.total("insts_total"),
        25485.0 + run.cells[1].total("insts_total")
    );
    assert_eq!((run.checks_passed, run.checks_failed.len()), (2, 0));
    assert_eq!((run.trace_hits, run.trace_misses), (15, 5));
    let speedup = run.speedup_geomean().expect("one prefetching cell");
    assert!((speedup - 24479.0 / 22727.0).abs() < 1e-12);
    assert!(run.cells[0].counters().contains("c0.l1_misses=192;"));

    let failed = FIXTURE.replacen("\"passed\": true", "\"passed\": false", 1);
    assert_eq!(fixture(&failed).checks_failed.len(), 1);
    let v2 = FIXTURE.replacen("\"schema_version\": 1", "\"schema_version\": 2", 1);
    assert!(read_artifact(&v2, &mut RunArtifacts::default()).is_err());
}

#[test]
fn a_corrupted_counter_fails_the_cross_path_check() {
    let reference = fixture(FIXTURE).identity();
    let (compared, failures) = identity_diff("a vs a", &reference, &reference, "fig7/");
    assert_eq!((compared, failures.len()), (2, 0));

    let corrupted = FIXTURE.replacen("\"l1_misses\": 192", "\"l1_misses\": 193", 1);
    assert_ne!(corrupted, FIXTURE);
    let other = fixture(&corrupted).identity();
    let (compared, failures) = identity_diff("default vs stream", &reference, &other, "fig7/");
    assert_eq!(compared, 2);
    assert_eq!(
        failures,
        ["default vs stream: `fig7/HJ-8/haswell/baseline` differs"]
    );
    // Cells outside the shared prefix are not compared.
    assert_eq!(identity_diff("x", &reference, &other, "fig9/").0, 0);
}

#[test]
fn benchmark_json_lists_exactly_what_the_runner_emits() {
    let doc = Json::parse(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .unwrap_or_else(|| panic!("`{key}` missing"))
            .items()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), owned(&spec::END_TO_END));
    let per_layer: Vec<(String, String)> = spec::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), per_layer);
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }

    // The limits of the benchmark contract.
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let name_ok = |s: &str| {
        (1..=64).contains(&s.len())
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in names("end_to_end").into_iter().chain(names("per_layer")) {
        assert!(name_ok(&name), "{name}");
        assert!(unit_ok(&unit), "{name}: {unit}");
        assert!(seen.insert(name.clone()), "{name} is listed twice");
    }
    for w in doc.get("workloads").expect("listed").items() {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    for m in doc.get("end_to_end").expect("listed").items() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        assert!(matches!(
            m.get("better").and_then(Json::as_str),
            Some("lower" | "higher")
        ));
    }
    let setup = doc
        .get("end_to_end")
        .expect("listed")
        .items()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    assert_eq!(
        doc.get("paths").expect("paths").items(),
        [Json::Str("benchmark".into())]
    );
}

/// The lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").replace(' ', ""))
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn the_probe_is_built_with_the_products_release_profile() {
    let product = release_profile(&read("Cargo.toml"));
    assert!(
        !product.is_empty(),
        "the root manifest has a release profile"
    );
    assert_eq!(product, release_profile(&read("benchmark/Cargo.toml")));
}

/// Every workload once at test scale through the real binaries. Builds
/// the product if it is not built yet.
#[test]
fn smoke_run_goes_end_to_end() {
    let out =
        std::env::temp_dir().join(format!("swpf-benchmark-smoke-{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_runner"))
        .current_dir(repo_root())
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("the runner starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("not for comparison"));
    let doc = Json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("parses");
    std::fs::remove_file(&out).expect("cleanup");
    assert_eq!(doc.get("not_for_comparison"), Some(&Json::Bool(true)));
    let workloads = doc.get("workloads").expect("workloads").items();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for w in workloads {
        assert_eq!(w.get("failed").and_then(Json::as_u64), Some(0), "{w:?}");
        for (name, _) in spec::END_TO_END {
            let value = w
                .get("end_to_end")
                .and_then(|m| m.get(name)?.get("value")?.as_f64());
            assert!(value.is_some_and(|v| v > 0.0), "{name}: {value:?}");
        }
    }
    // The three execution paths agree on the cells they share.
    let digests: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("shared_cells_digest")?.as_str())
        .collect();
    assert_eq!(digests.len(), 3);
    assert!(digests.iter().all(|d| *d == digests[0]), "{digests:?}");
}
