//! End-to-end tests of the experiment harness: spec expansion over the
//! real experiment list, deterministic threaded execution, and a
//! JSON-artifact snapshot at `Scale::Test`.

use swpf_bench::experiments::{self, CATALOGUE};
use swpf_bench::harness::{
    artifact_json, expand, run_experiment, structural_checks, write_artifact, RunOptions,
    TableSection, TracePolicy,
};
use swpf_bench::json::Json;
use swpf_ir::interp::Tier;
use swpf_workloads::Scale;

fn opts(threads: usize) -> RunOptions {
    RunOptions {
        threads,
        ..RunOptions::default()
    }
}

/// Grid sizes of every real experiment, pinned. A change here means the
/// evaluated grid changed — update deliberately, alongside DESIGN.md §5.
#[test]
fn experiment_grid_sizes_are_pinned() {
    let expected = [
        ("table1", 0),
        ("fig2", 4 * 5),         // 4 machines × (baseline + 4 schemes)
        ("fig4", 4 * 7 * 3 + 7), // + Phi-only ICC column
        ("fig5", 7 * 3),         // Haswell only
        ("fig6", 4 * 4 * 8),     // baseline + 7 distances
        ("fig7", 4 * 5),         // HJ-8 only, baseline + 4 depths
        ("fig8", 7 * 3),
        ("fig9", 6),                      // {1,2,4} cores × {baseline, auto}
        ("fig10", 2 * 3 * 2),             // two page policies
        ("ablation", 4 * 7 * 10),         // baseline + nine pass pipelines
        ("trace_analytics", 0),           // all work happens in derive, off traces
        ("prefetch_profile", 4 * 4 * 10), // baseline + 8 distances + auto
        ("tune", 0),                      // searched: no grid
        ("pipeline_search", 0),
    ];
    assert_eq!(expected.map(|(n, _)| n), CATALOGUE.map(|e| e.0));
    for (name, jobs) in expected {
        let exp = experiments::by_name(name, Scale::Test).unwrap();
        assert_eq!(expand(&exp.spec).len(), jobs, "{name} grid size");
    }
}

/// The simulation grid is deterministic and independent of the worker
/// count: a 1-thread and a 4-thread run must produce cell-identical
/// statistics (wall-clock metadata aside).
#[test]
fn results_are_thread_count_invariant() {
    let exp = experiments::by_name("fig2", Scale::Test).unwrap();
    let serial = run_experiment(&exp, &opts(1));
    let threaded = run_experiment(&exp, &opts(4));
    assert_eq!(serial.cells.len(), threaded.cells.len());
    for (a, b) in serial.cells.iter().zip(&threaded.cells) {
        assert_eq!(
            (a.machine, a.workload, &a.variant),
            (b.machine, b.workload, &b.variant)
        );
        assert_eq!(a.cores.len(), b.cores.len());
        for (sa, sb) in a.cores.iter().zip(&b.cores) {
            assert_eq!(
                sa.cycles, sb.cycles,
                "{}/{}/{}",
                a.machine, a.workload, a.variant
            );
            assert_eq!(sa.insts.total, sb.insts.total);
            assert_eq!(sa.l1_misses, sb.l1_misses);
        }
    }
    // And so must the derived tables.
    assert_eq!((exp.derive)(&serial), (exp.derive)(&threaded));
}

/// Snapshot of the artifact schema at `Scale::Test`: write a real
/// artifact, parse it back, and pin the structure PR-diff tooling
/// depends on.
#[test]
fn artifact_snapshot_at_test_scale() {
    let exp = experiments::by_name("fig9", Scale::Test).unwrap();
    let result = run_experiment(&exp, &opts(2));
    let derived = (exp.derive)(&result);
    let checks = exp.verdicts(&result, &derived);

    let dir = std::env::temp_dir().join(format!("swpf_artifact_{}", std::process::id()));
    let path = write_artifact(&dir, &result, &derived, &checks, None).expect("artifact written");
    let text = std::fs::read_to_string(&path).expect("artifact readable");
    std::fs::remove_dir_all(&dir).ok();
    let doc = Json::parse(&text).expect("artifact is valid JSON");

    // Top-level schema.
    assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("experiment").unwrap().as_str(), Some("fig9"));
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("test"));
    assert_eq!(doc.get("jobs").unwrap().as_u64(), Some(6));
    assert!(doc.get("wall_seconds").unwrap().as_f64().unwrap() >= 0.0);

    // Machine metadata carries the full model parameters.
    let machines = doc.get("machines").unwrap().as_array().unwrap();
    assert_eq!(machines.len(), 1);
    assert_eq!(machines[0].get("name").unwrap().as_str(), Some("haswell"));
    assert_eq!(
        machines[0].get("core").unwrap().as_str(),
        Some("out-of-order")
    );
    for key in ["width", "l1_bytes", "l2_bytes", "dram_latency", "page_bits"] {
        assert!(machines[0].get(key).unwrap().as_u64().is_some(), "{key}");
    }

    // Cells: one per job, each with per-core counter objects.
    let cells = doc.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), 6);
    let quad = cells
        .iter()
        .find(|c| c.get("variant").unwrap().as_str() == Some("mc4_auto"))
        .expect("4-core auto cell present");
    let cores = quad.get("cores").unwrap().as_array().unwrap();
    assert_eq!(cores.len(), 4);
    for core in cores {
        assert!(core.get("cycles").unwrap().as_u64().unwrap() > 0);
        assert!(core.get("insts_total").unwrap().as_u64().unwrap() > 0);
        assert!(core.get("sw_prefetches").unwrap().as_u64().unwrap() > 0);
        assert!(core.get("ipc").unwrap().as_f64().unwrap() > 0.0);
    }

    // Pass-compiled cells are self-describing: the additive `params`
    // member records the effective PassConfig (look-ahead and enabled
    // transforms); baseline cells, which run no prefetch code, omit it.
    let params = quad.get("params").expect("auto cell records its params");
    assert_eq!(params.get("look_ahead").unwrap().as_u64(), Some(64));
    assert_eq!(
        params
            .get("stride_companion")
            .map(|j| j == &Json::Bool(true)),
        Some(true)
    );
    assert_eq!(
        params
            .get("enable_hoisting")
            .map(|j| j == &Json::Bool(true)),
        Some(true)
    );
    let base = cells
        .iter()
        .find(|c| c.get("variant").unwrap().as_str() == Some("mc4_baseline"))
        .expect("4-core baseline cell present");
    assert!(base.get("params").is_none(), "baselines have no params");

    // Derived tables mirror the printed figure.
    let derived_json = doc.get("derived").unwrap().as_array().unwrap();
    assert_eq!(derived_json.len(), 1);
    let rows = derived_json[0].get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 3, "one row per core count");

    // Check verdicts are recorded in the artifact.
    let checks_json = doc.get("checks").unwrap().as_array().unwrap();
    assert!(!checks_json.is_empty());
    for c in checks_json {
        assert!(c.get("passed").is_some());
        assert!(c.get("name").unwrap().as_str().is_some());
    }
}

/// Structural checks flag a grid whose cells did no work.
#[test]
fn structural_checks_catch_dead_cells() {
    let exp = experiments::by_name("fig2", Scale::Test).unwrap();
    let mut result = run_experiment(&exp, &opts(1));
    let derived = (exp.derive)(&result);
    assert!(structural_checks(&result, &derived)
        .iter()
        .all(|c| c.passed));

    let passing: Vec<String> = structural_checks(&result, &derived)
        .into_iter()
        .map(|c| c.detail)
        .collect();
    assert_eq!(
        passing,
        [
            "every cell retired work",
            "every derived value finite and non-negative"
        ],
        "passing details name no count, so a larger grid keeps them"
    );

    result.cells[0].cores[0].cycles = 0;
    let broken = structural_checks(&result, &derived);
    let dead = broken
        .iter()
        .find(|c| c.name == "all_cells_simulated" && !c.passed)
        .expect("zeroed cell must fail the structural check");
    let cell = &result.cells[0];
    assert_eq!(
        dead.detail,
        format!(
            "{}/{}/{}: retired no work",
            cell.workload, cell.variant, cell.machine
        )
    );

    let mut derived = derived;
    derived[0].rows[0].values[0] = f64::NAN;
    let section = &derived[0];
    let bad = structural_checks(&result, &derived)
        .into_iter()
        .find(|c| c.name == "derived_values_finite")
        .expect("always checked");
    assert!(!bad.passed);
    assert_eq!(
        bad.detail,
        format!(
            "{} / {} / {}: non-finite or negative",
            section.title, section.rows[0].name, section.columns[0]
        )
    );
}

/// The checks golden file: one `experiment name verdict detail` line
/// per check of the whole catalogue at test scale.
fn checks_golden_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/checks_test_scale.txt")
}

/// Run the whole catalogue at test scale as the driver does and return
/// one line per check: `experiment name verdict detail`. Along the way,
/// assert what every run must satisfy: every check passes, each
/// prefetching cell carries its pass parameters, and the artifact JSON
/// round-trips.
fn catalogue_check_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, build, _) in CATALOGUE {
        let exp = build(Scale::Test);
        let result = run_experiment(&exp, &opts(2));
        let derived = (exp.derive)(&result);
        let checks = exp.verdicts(&result, &derived);
        for check in &checks {
            assert!(check.passed, "{name}: {} — {}", check.name, check.detail);
            lines.push(format!("{name} {} ok {}", check.name, check.detail));
        }
        // Every prefetching cell carries its effective pass parameters;
        // cells without prefetch code carry none. Every searched point
        // is a pass-compiled kernel.
        for cell in &result.cells {
            let prefetching = exp.search.is_some()
                || cell.variant.starts_with("auto")
                || cell.variant.starts_with("manual_")
                || cell.variant.ends_with("_auto")
                || cell.variant.starts_with("swpf")
                || cell.variant == "icc";
            assert_eq!(
                !cell.params.is_empty(),
                prefetching,
                "{name}: {} params",
                cell.variant
            );
        }
        // Serialisation round-trips.
        let doc = artifact_json(&result, &derived, &checks);
        assert_eq!(Json::parse(&doc.to_pretty_string()).unwrap(), doc);
    }
    lines
}

/// The artifact JSON for the whole catalogue at test scale stays
/// parseable and every experiment's checks pass — the exact gate CI
/// applies — with the names, verdicts and details of
/// `tests/golden/checks_test_scale.txt`. After a deliberate change to a
/// check, regenerate the file with
/// `cargo test -p swpf-bench --test harness -- --ignored bless_checks_golden`.
#[test]
fn all_experiments_pass_their_checks_at_test_scale() {
    let actual = catalogue_check_lines();
    let path = checks_golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    for (i, (want, got)) in golden.iter().zip(&actual).enumerate() {
        assert_eq!(want, got, "line {} of {}", i + 1, path.display());
    }
    assert_eq!(golden.len(), actual.len(), "line count");
}

#[test]
#[ignore = "rewrites the golden file; run only for a deliberate change to a check"]
fn bless_checks_golden() {
    let path = checks_golden_path();
    std::fs::write(&path, catalogue_check_lines().join("\n") + "\n").unwrap();
}

/// Compare two runs of the same experiment cell-by-cell: every counter
/// of every core must match bit-for-bit.
fn assert_cells_identical(
    name: &str,
    a: &swpf_bench::harness::ExperimentResult,
    b: &swpf_bench::harness::ExperimentResult,
) {
    assert_eq!(a.cells.len(), b.cells.len(), "{name}: cell count");
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(
            (ca.machine, ca.workload, &ca.variant),
            (cb.machine, cb.workload, &cb.variant),
            "{name}: cell order"
        );
        assert_eq!(ca.cores.len(), cb.cores.len());
        for (sa, sb) in ca.cores.iter().zip(&cb.cores) {
            assert_eq!(
                sa.counters(),
                sb.counters(),
                "{name}: {}/{}/{} diverged",
                ca.machine,
                ca.workload,
                ca.variant
            );
        }
    }
}

/// The replay equivalence contract at harness level: the default
/// record/replay policy produces cell-identical statistics to direct
/// simulation, including the multicore (fig9) and TLB-sweep (fig10)
/// grids and ablation's fused rows, which hold one machine several
/// times (pipelines that end in the same code), and actually replays
/// the machine-axis cells.
#[test]
fn traced_runs_match_direct_runs() {
    for name in ["fig2", "fig9", "fig10", "ablation"] {
        let exp = experiments::by_name(name, Scale::Test).unwrap();
        let direct = run_experiment(
            &exp,
            &RunOptions {
                threads: 2,
                trace: TracePolicy::Off,
                ..RunOptions::default()
            },
        );
        let traced = run_experiment(&exp, &opts(2));
        assert_eq!(direct.trace_hits(), 0);
        assert_cells_identical(name, &direct, &traced);
        assert_eq!((exp.derive)(&direct), (exp.derive)(&traced));
    }
    // fig2 runs 4 machines × 5 variants off 5 traces: 15 replays.
    let exp = experiments::by_name("fig2", Scale::Test).unwrap();
    let traced = run_experiment(&exp, &opts(2));
    assert_eq!(traced.trace_misses(), 5, "one interpretation per kernel");
    assert_eq!(traced.trace_hits(), 15, "every other machine cell replays");
}

/// Kernels that print alike share one event stream: fig4's 28 kernels
/// (7 workloads × baseline, auto, manual, icc) are 21 texts, because
/// the ICC-like pass's output prints like the auto pass's on IS and CG
/// and like the baseline on the other five. Sharing changes no counter.
#[test]
fn fig4_interprets_each_distinct_kernel_text_once() {
    let exp = experiments::by_name("fig4", Scale::Test).unwrap();
    let direct = run_experiment(
        &exp,
        &RunOptions {
            threads: 2,
            trace: TracePolicy::Off,
            ..RunOptions::default()
        },
    );
    let traced = run_experiment(&exp, &opts(2));
    assert_eq!(traced.trace_misses(), 21, "one interpretation per text");
    assert_eq!(traced.trace_hits(), 4 * 7 * 3 + 7 - 21);
    assert_cells_identical("fig4", &direct, &traced);
    assert!(
        traced
            .cells
            .iter()
            .filter(|c| c.variant == "icc")
            .all(|c| c.replayed),
        "every icc cell rides another kernel's stream"
    );
}

/// The persistent trace cache: a second run replays every cell from
/// disk, and the artifact records hits/misses.
#[test]
fn trace_dir_caches_across_runs() {
    let dir = std::env::temp_dir().join(format!("swpf_traces_{}", std::process::id()));
    let exp = experiments::by_name("fig10", Scale::Test).unwrap();
    let run = || {
        run_experiment(
            &exp,
            &RunOptions {
                threads: 1,
                trace: TracePolicy::Dir(dir.clone()),
                ..RunOptions::default()
            },
        )
    };
    let cold = run();
    let warm = run();
    std::fs::remove_dir_all(&dir).ok();
    // fig10: 2 page-size machines × 3 workloads × 2 variants, 6 traces.
    assert_eq!(cold.trace_misses(), 6, "cold run records each kernel once");
    assert_eq!(warm.trace_misses(), 0, "warm run replays everything");
    assert_eq!(warm.trace_hits(), 12);
    assert_cells_identical("fig10", &cold, &warm);

    let doc = artifact_json(&warm, &[], &[]);
    let trace = doc.get("trace").expect("trace summary in artifact");
    assert_eq!(trace.get("hits").unwrap().as_u64(), Some(12));
    assert_eq!(trace.get("misses").unwrap().as_u64(), Some(0));
    let cells = doc.get("cells").unwrap().as_array().unwrap();
    assert!(cells
        .iter()
        .all(|c| c.get("replayed").unwrap() == &Json::Bool(true)));
}

/// Multicore traces round-trip through the disk cache too: a warm fig9
/// run replays every per-core stream with the interleaver's schedule
/// preserved, bit-identically.
#[test]
fn trace_dir_replays_multicore_cells() {
    let dir = std::env::temp_dir().join(format!("swpf_mc_traces_{}", std::process::id()));
    let exp = experiments::by_name("fig9", Scale::Test).unwrap();
    let run = || {
        run_experiment(
            &exp,
            &RunOptions {
                threads: 1,
                trace: TracePolicy::Dir(dir.clone()),
                ..RunOptions::default()
            },
        )
    };
    let cold = run();
    let warm = run();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(cold.trace_misses(), 6, "six multicore cells, six traces");
    assert_eq!(warm.trace_hits(), 6, "warm run replays all of them");
    assert_cells_identical("fig9", &cold, &warm);
}

/// Multicore groups of two machines: under the default policy each
/// multicore cell interprets on its own, nothing is recorded or
/// replayed, and every cell equals its direct simulation.
#[test]
fn fig9_on_two_machines_matches_direct_runs() {
    let mut exp = experiments::by_name("fig9", Scale::Test).unwrap();
    exp.spec.machines.push(swpf_sim::MachineConfig::a53());
    let run = |trace: TracePolicy| {
        run_experiment(
            &exp,
            &RunOptions {
                threads: 1,
                trace,
                ..RunOptions::default()
            },
        )
    };
    let direct = run(TracePolicy::Off);
    let memory = run(TracePolicy::Memory);
    assert_eq!(memory.cells.len(), 12, "two machines × six cells");
    let multicore: Vec<_> = memory.cells.iter().filter(|c| c.cores.len() > 1).collect();
    assert_eq!(multicore.len(), 8, "two machines × four multicore cells");
    assert!(
        multicore.iter().all(|c| !c.replayed),
        "every multicore cell interprets"
    );
    assert_cells_identical("fig9", &direct, &memory);
}

/// A warm run, which streams every group from the disk cache block by
/// block, is bit-identical to direct simulation, for single-core
/// (fig10) and multicore (fig9) grids alike.
#[test]
fn streaming_warm_runs_match_direct() {
    for name in ["fig10", "fig9"] {
        let dir = std::env::temp_dir().join(format!("swpf_stream_{name}_{}", std::process::id()));
        let exp = experiments::by_name(name, Scale::Test).unwrap();
        let run = |trace: TracePolicy| {
            run_experiment(
                &exp,
                &RunOptions {
                    threads: 1,
                    trace,
                    ..RunOptions::default()
                },
            )
        };
        let direct = run(TracePolicy::Off);
        let cold = run(TracePolicy::Dir(dir.clone()));
        let warm = run(TracePolicy::Dir(dir.clone()));
        std::fs::remove_dir_all(&dir).ok();
        assert!(cold.trace_misses() > 0, "{name}: cold run records");
        assert_eq!(warm.trace_misses(), 0, "{name}: warm run streams from disk");
        assert_eq!(
            warm.trace_hits(),
            warm.cells.len(),
            "{name}: every streamed cell counts as a hit"
        );
        assert_cells_identical(name, &direct, &warm);
    }
}

/// A derived section without its timed `wall_s` column (the `Search
/// cost` tables'), so runs can be compared.
fn untimed(sections: Vec<TableSection>) -> Vec<TableSection> {
    sections
        .into_iter()
        .map(|mut s| {
            if let Some(ci) = s.columns.iter().position(|c| c == "wall_s") {
                s.columns.remove(ci);
                for r in &mut s.rows {
                    r.values.remove(ci);
                }
            }
            s
        })
        .collect()
}

/// The searched experiments, and ablation with its searched column
/// read off its grid, run on the tier the run options name, and the
/// two tiers agree: same cells, same cycles, same derived tables, each
/// cell labelled with its tier.
#[test]
fn searched_experiments_run_on_the_options_tier() {
    for name in ["tune", "pipeline_search", "ablation"] {
        let exp = experiments::by_name(name, Scale::Test).unwrap();
        let run = |tier: Tier| {
            let result = run_experiment(
                &exp,
                &RunOptions {
                    tier,
                    ..RunOptions::default()
                },
            );
            assert!(
                result.cells.iter().all(|c| c.tier == tier.label()),
                "{name}"
            );
            result
        };
        let classic = run(Tier::Classic);
        let bytecode = run(Tier::Bytecode);
        assert!(!classic.cells.is_empty(), "{name}");
        assert_cells_identical(name, &classic, &bytecode);
        assert_eq!(
            untimed((exp.derive)(&classic)),
            untimed((exp.derive)(&bytecode)),
            "{name}"
        );
    }
}
