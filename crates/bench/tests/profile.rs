//! Observability integration tests: the chrome-trace exporter against
//! the workspace JSON parser (the `swpf-obs` crate is dependency-free,
//! so well-formedness is property-tested from here), the profiled
//! worker pool, and the fig4 phase-coverage acceptance check.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use swpf_bench::experiments;
use swpf_bench::harness::{
    run_and_report, run_experiment, Experiment, ExperimentSpec, RunOptions, TracePolicy, Variant,
};
use swpf_bench::json::Json;
use swpf_obs::{Profile, ThreadTrack, TrackEvent};
use swpf_sim::MachineConfig;
use swpf_workloads::{Scale, WorkloadId};

/// The `swpf-obs` recorder is process-global; tests that touch it
/// serialise here and reset around themselves.
static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// One track of `names.len()` fully nested spans (all begins, then all
/// ends) — the worst case for both escaping and nesting.
fn nested_track(tid: u64, thread_name: &str, names: &[String]) -> ThreadTrack {
    let mut events = Vec::new();
    for (i, name) in names.iter().enumerate() {
        events.push(TrackEvent::Begin {
            name: name.clone(),
            ns: i as u64 * 10,
        });
    }
    for i in 0..names.len() {
        events.push(TrackEvent::End {
            ns: names.len() as u64 * 10 + i as u64,
        });
    }
    ThreadTrack {
        tid,
        name: thread_name.to_string(),
        events,
        dropped: 0,
    }
}

/// Per-tid begin/end tallies of a parsed chrome trace, asserting depth
/// never goes negative in stream order.
fn balance(doc: &Json) -> BTreeMap<u64, (usize, usize)> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("export has a traceEvents array");
    let mut per_tid: BTreeMap<u64, (usize, usize, i64)> = BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
        let e = per_tid.entry(tid).or_insert((0, 0, 0));
        match ph {
            "B" => {
                assert!(ev.get("name").and_then(Json::as_str).is_some());
                e.0 += 1;
                e.2 += 1;
            }
            "E" => {
                e.1 += 1;
                e.2 -= 1;
                assert!(e.2 >= 0, "tid {tid}: an end precedes its begin");
            }
            "M" | "C" => {}
            other => panic!("unexpected event phase `{other}`"),
        }
    }
    per_tid
        .into_iter()
        .map(|(tid, (b, e, _))| (tid, (b, e)))
        .collect()
}

proptest! {
    // Arbitrary span/counter/thread names — including quotes,
    // backslashes, and raw control characters — export to JSON the
    // workspace parser accepts, with balanced per-track B/E events and
    // counter values preserved.
    #[test]
    fn chrome_export_is_valid_json_for_hostile_names(
        names_a in prop::collection::vec("[\"\\\\\n\t\u{1}a-z/ ]{0,12}", 0..8),
        names_b in prop::collection::vec("\\PC{0,10}", 0..5),
        counter_names in prop::collection::vec("[\"\\\\b-f.\u{7}]{1,8}", 0..6),
        counter_vals in prop::collection::vec(0u64..4_000_000_000, 0..6),
    ) {
        let counters: BTreeMap<String, u64> =
            counter_names.into_iter().zip(counter_vals).collect();
        let profile = Profile {
            captured_ns: 1_000_000,
            threads: vec![
                nested_track(1, "main\"\\\u{2}", &names_a),
                nested_track(2, "worker-0", &names_b),
            ],
            counters: counters.clone(),
            histograms: BTreeMap::new(),
        };
        let text = profile.to_chrome_json();
        let doc = Json::parse(&text).expect("chrome export parses");
        let per_tid = balance(&doc);
        prop_assert_eq!(
            per_tid.get(&1).copied().unwrap_or((0, 0)),
            (names_a.len(), names_a.len())
        );
        prop_assert_eq!(
            per_tid.get(&2).copied().unwrap_or((0, 0)),
            (names_b.len(), names_b.len())
        );

        // Every counter comes back with its exact value.
        let mut parsed: BTreeMap<String, u64> = BTreeMap::new();
        for ev in doc.get("traceEvents").and_then(Json::as_array).unwrap() {
            if ev.get("ph").and_then(Json::as_str) == Some("C") {
                let name = ev.get("name").and_then(Json::as_str).unwrap().to_string();
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_u64)
                    .unwrap();
                *parsed.entry(name).or_insert(0) += value;
            }
        }
        prop_assert_eq!(parsed, counters);

        // The summary renders the same capture without panicking.
        let _ = profile.summary().render();
    }
}

/// A profiled threaded run: every worker that did work — the calling
/// thread is worker 0, the helpers are `worker-1..` — has a named,
/// balanced track containing execution-phase spans.
#[test]
fn worker_pool_tracks_are_named_and_balanced() {
    let _g = lock();
    swpf_obs::reset();
    swpf_obs::enable();
    swpf_obs::name_thread("worker-0");
    let exp = experiments::by_name("fig2", Scale::Test).unwrap();
    let result = run_experiment(
        &exp,
        &RunOptions {
            threads: 3,
            ..RunOptions::default()
        },
    );
    swpf_obs::disable();
    let profile = swpf_obs::snapshot();
    assert_eq!(result.threads, 3);

    let workers: Vec<&ThreadTrack> = profile
        .threads
        .iter()
        .filter(|t| t.name.starts_with("worker-") && !t.events.is_empty())
        .collect();
    assert!(!workers.is_empty(), "profiled workers have tracks");
    let mut span_names = BTreeSet::new();
    for track in &workers {
        assert_eq!(track.dropped, 0);
        let mut depth = 0i64;
        for ev in &track.events {
            match ev {
                TrackEvent::Begin { name, .. } => {
                    depth += 1;
                    span_names.insert(name.clone());
                }
                TrackEvent::End { .. } => {
                    depth -= 1;
                    assert!(depth >= 0, "{}: end precedes begin", track.name);
                }
            }
        }
        assert_eq!(depth, 0, "{}: track is balanced", track.name);
    }
    // Single-core groups are served by one fused fan-out interpretation
    // (no record/replay under the in-memory policy), so the execution
    // span to expect here is `interpret`; replay coverage lives in the
    // fig4 disk-cache test below.
    assert!(
        span_names.contains("interpret"),
        "some worker interpreted (spans seen: {span_names:?})"
    );
}

/// The acceptance check: a profiled test-scale fig4 (cold, then warm
/// through an on-disk trace cache) exports valid chrome-trace JSON with
/// compile/interpret/replay phase coverage and nonzero trace-cache
/// counters, and the artifact carries a `profile` section.
#[test]
fn fig4_profile_has_phase_coverage_and_cache_counters() {
    let _g = lock();
    let trace_dir = std::env::temp_dir().join(format!("swpf_prof_traces_{}", std::process::id()));
    let out_dir = std::env::temp_dir().join(format!("swpf_prof_out_{}", std::process::id()));
    swpf_obs::reset();
    swpf_obs::enable();
    swpf_obs::name_thread("main");
    let exp = experiments::by_name("fig4", Scale::Test).unwrap();
    let run = RunOptions {
        threads: 2,
        trace: TracePolicy::Dir(trace_dir.clone()),
        ..RunOptions::default()
    };
    let (_, cold_checks) = run_and_report(&exp, &run, &out_dir);
    let (_, warm_checks) = run_and_report(&exp, &run, &out_dir);
    swpf_obs::disable();
    let profile = swpf_obs::snapshot();
    let artifact = std::fs::read_to_string(out_dir.join("fig4.json")).expect("artifact written");
    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&out_dir).ok();
    assert!(cold_checks.iter().all(|c| c.passed), "cold checks pass");
    assert!(warm_checks.iter().all(|c| c.passed), "warm checks pass");

    // The export is valid chrome-trace JSON with balanced tracks.
    let doc = Json::parse(&profile.to_chrome_json()).expect("chrome export parses");
    for (tid, (b, e)) in balance(&doc) {
        assert_eq!(b, e, "tid {tid}: balanced");
    }

    // Phase coverage: the compile pipeline, cold interpretation, and
    // warm replay all left spans.
    let mut spans = BTreeSet::new();
    for track in &profile.threads {
        for ev in &track.events {
            if let TrackEvent::Begin { name, .. } = ev {
                spans.insert(name.clone());
            }
        }
    }
    for phase in [
        "experiment:fig4",
        "build",
        "compile",
        "verify",
        "decode",
        "interpret",
        "stream_replay",
    ] {
        assert!(
            spans.contains(phase),
            "span `{phase}` recorded (saw {spans:?})"
        );
    }

    // Trace-cache counters: the warm run hit both the in-memory group
    // cache and the on-disk store.
    let counter = |name: &str| profile.counters.get(name).copied().unwrap_or(0);
    assert!(counter("trace.cache_hit") > 0, "warm cells replayed");
    assert!(
        counter("trace.disk_hit") > 0,
        "warm groups loaded from disk"
    );
    assert!(counter("trace.stored") > 0, "cold run persisted traces");
    assert!(counter("harness.jobs") > 0);

    // The artifact gained an additive, windowed `profile` section.
    let doc = Json::parse(&artifact).expect("artifact parses");
    let prof = doc.get("profile").expect("artifact has a profile section");
    let phases = prof.get("phases").expect("profile.phases present");
    assert!(phases.get("compile").is_some(), "windowed compile phase");
    assert!(
        phases.get("experiment:fig4").is_some(),
        "windowed experiment phase"
    );
    let counters = prof.get("counters").expect("profile.counters present");
    assert!(
        counters
            .get("trace.cache_hit")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "warm artifact window sees cache hits"
    );
}

/// A row that holds one machine twice runs that machine's timing model
/// once. The ICC-like pass finds nothing to do in RA, so its kernel
/// prints like the baseline and both ride one a53 row; in IS it prints
/// like the auto pass. Six cells, four distinct (text, machine) pairs:
/// four timing-model runs, and every cell equal to its direct run.
#[test]
fn a_machine_repeated_in_a_row_is_simulated_once() {
    let _g = lock();
    let exp = Experiment {
        spec: ExperimentSpec {
            name: "alike",
            title: "kernels that print alike on one machine",
            scale: Scale::Test,
            machines: vec![MachineConfig::a53()],
            workloads: vec![WorkloadId::Ra, WorkloadId::Is],
            variants: vec![Variant::baseline(), Variant::icc(), Variant::auto_default()],
            filter: None,
            perf: false,
        },
        search: None,
        derive: |_| Vec::new(),
        checks: |_, _| Vec::new(),
    };
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
    swpf_obs::reset();
    swpf_obs::enable();
    let fused = run(TracePolicy::Memory);
    swpf_obs::disable();
    let runs = swpf_obs::snapshot()
        .counters
        .get("harness.machine_runs")
        .copied();
    assert_eq!(fused.cells.len(), 6);
    assert_eq!(runs, Some(4), "one timing model per distinct text");
    for (d, f) in direct.cells.iter().zip(&fused.cells) {
        assert_eq!((d.workload, &d.variant), (f.workload, &f.variant));
        assert_eq!(d.stats().counters(), f.stats().counters(), "{}", d.variant);
    }
    let ra = |v: &str| {
        fused
            .cell("a53", WorkloadId::Ra.name(), v)
            .expect("RA cell")
            .stats()
            .counters()
    };
    assert_eq!(ra("baseline"), ra("icc"), "icc shares the baseline's run");
}
