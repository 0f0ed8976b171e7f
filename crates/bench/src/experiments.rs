//! The paper's nine figure/table experiments — and the studies built
//! on the same harness — as declarative specs.
//!
//! Each experiment is an [`Experiment`]: the machine × workload ×
//! variant grid the harness executes, a derivation turning raw cells
//! into the figure's table(s), and shape checks asserting the paper's
//! qualitative claims. There is one driver: `--bin all` runs the
//! default list, `--bin all -- --only fig4` (or `fig4,fig9`) runs the
//! named ones through [`by_name`], and `--list` prints the catalogue.
//! What each figure shows, with the paper's own numbers, is documented
//! on its spec function below.
//!
//! Shape checks are claims as data ([`Check`]): most are one comparison
//! of a derived value against a bound, which yields the verdict, the
//! detail line and a margin. Claims that hold even on the tiny
//! `Scale::Test` inputs run at every scale (CI runs them on every PR);
//! claims about paper-scale magnitudes (e.g. manual bounding auto on
//! in-order machines) are marked [`Check::paper_only`].

use crate::claim::{Bound, Check};
use crate::geomean;
use crate::harness::{
    CellResult, Experiment, ExperimentResult, ExperimentSpec, Kernel, Row, Search, TableSection,
    TracePolicy, Variant,
};
use swpf_core::PassConfig;
use swpf_sim::{CoreKind, MachineConfig, PcProfile, SiteProfile};
use swpf_tune::{
    distance_curve, strictly_unimodal, Exhaustive, GoldenSection, HillClimb, PipelineSpace,
    SearchSpace, Space,
};
use swpf_workloads::is::Fig2Scheme;
use swpf_workloads::{KernelVariant, Scale, WorkloadId};

/// One entry of the experiment [`CATALOGUE`]: the name (the `--only`
/// value and the artifact stem), the experiment at a given scale, and
/// whether `--bin all` runs it without `--only`.
pub type Entry = (&'static str, fn(Scale) -> Experiment, bool);

/// Every experiment, in `--list` order: the paper's figures/tables in
/// figure order, the pass-pipeline `ablation` study, the
/// `trace_analytics` corpus profiler, the `prefetch_profile` sweep, and
/// the two searched experiments, which run only when named.
pub const CATALOGUE: [Entry; 14] = [
    ("table1", table1, true),
    ("fig2", fig2, true),
    ("fig4", fig4, true),
    ("fig5", fig5, true),
    ("fig6", fig6, true),
    ("fig7", fig7, true),
    ("fig8", fig8, true),
    ("fig9", fig9, true),
    ("fig10", fig10, true),
    ("ablation", ablation, true),
    ("trace_analytics", trace_analytics, true),
    ("prefetch_profile", prefetch_profile, true),
    ("tune", tune, false),
    ("pipeline_search", pipeline_search, false),
];

/// The default manual-variant label (`c = 64`, the paper's choice).
const MANUAL: &str = "manual_c64";

/// Look-ahead distances swept by Fig. 6.
const FIG6_DISTANCES: [i64; 7] = [4, 8, 16, 32, 64, 128, 256];

/// Core counts swept by Fig. 9.
const FIG9_CORES: [usize; 3] = [1, 2, 4];

/// Look-ahead distances swept by the `prefetch_profile` experiment: the
/// Fig. 6 sweep extended one octave lower, so the too-late extreme is
/// unambiguous in the outcome partition.
const PROFILE_DISTANCES: [i64; 8] = [2, 4, 8, 16, 32, 64, 128, 256];

/// Look up an experiment by name at the given scale.
#[must_use]
pub fn by_name(name: &str, scale: Scale) -> Option<Experiment> {
    CATALOGUE.iter().find(|e| e.0 == name).map(|e| (e.1)(scale))
}

// ---- shared derivation helpers ------------------------------------------

fn manual_variant() -> Variant {
    Variant::built(KernelVariant::Manual {
        look_ahead: PassConfig::default().look_ahead,
    })
}

/// Value at (`row_name`, `column`) of a section, `NaN` when absent.
fn row_value(section: &TableSection, row_name: &str, column: &str) -> f64 {
    let Some(ci) = section.columns.iter().position(|c| c == column) else {
        return f64::NAN;
    };
    section
        .rows
        .iter()
        .find(|r| r.name == row_name)
        .and_then(|r| r.values.get(ci).copied())
        .unwrap_or(f64::NAN)
}

/// Column names from one space-separated list.
fn column_names(names: &str) -> Vec<String> {
    names.split(' ').map(String::from).collect()
}

fn find_section<'a>(sections: &'a [TableSection], needle: &str) -> Option<&'a TableSection> {
    sections.iter().find(|s| s.title.contains(needle))
}

/// How many rows of `section` satisfy `keep`, which reads the row's
/// values by column — a claim's count.
fn rows_where(section: &TableSection, keep: impl Fn(&dyn Fn(&str) -> f64) -> bool) -> f64 {
    let rows = section.rows.iter();
    rows.filter(|r| keep(&|column| row_value(section, &r.name, column)))
        .count() as f64
}

/// Speedup-vs-baseline rows over `workloads` for the given variant
/// columns, plus a trailing `Geomean` row.
fn speedup_rows(
    res: &ExperimentResult,
    machine: &str,
    workloads: &[WorkloadId],
    variants: &[&str],
) -> Vec<Row> {
    let mut per_column: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut rows = Vec::new();
    for w in workloads {
        let values: Vec<f64> = variants
            .iter()
            .map(|v| res.speedup(machine, w.name(), v))
            .collect();
        for (col, v) in per_column.iter_mut().zip(&values) {
            col.push(*v);
        }
        rows.push(Row {
            name: w.name().to_string(),
            values,
        });
    }
    rows.push(Row {
        name: "Geomean".to_string(),
        values: per_column.iter().map(|c| geomean(c)).collect(),
    });
    rows
}

/// One row per machine: its speedup on `workload` under each variant
/// label.
fn machine_rows(res: &ExperimentResult, workload: &str, labels: &[String]) -> Vec<Row> {
    let row = |m: &MachineConfig| Row {
        name: m.name.to_string(),
        values: (labels.iter())
            .map(|l| res.speedup(m.name, workload, l))
            .collect(),
    };
    res.machines.iter().map(row).collect()
}

fn in_order_names(res: &ExperimentResult) -> Vec<&'static str> {
    res.machines
        .iter()
        .filter(|m| m.core == CoreKind::InOrder)
        .map(|m| m.name)
        .collect()
}

// ---- Table 1 ------------------------------------------------------------

/// Table 1 — the four evaluated system configurations (scaled models).
fn table1(scale: Scale) -> Experiment {
    Experiment {
        spec: ExperimentSpec {
            name: "table1",
            title: "Table 1 — simulated system models (capacities scaled 1/4)",
            scale,
            machines: MachineConfig::all_systems(),
            workloads: vec![],
            variants: vec![],
            filter: None,
            perf: false,
        },
        search: None,
        derive: |res| {
            let columns = column_names(
                "width rob mshrs l1_KiB l2_KiB l3_KiB tlb page_bits walkers dram_lat dram_B/c",
            );
            let rows = res
                .machines
                .iter()
                .map(|m| Row {
                    name: format!("{} ({})", m.name, m.core_kind_name()),
                    values: vec![
                        f64::from(m.width),
                        m.rob as f64,
                        m.mshrs as f64,
                        (m.l1.capacity >> 10) as f64,
                        (m.l2.capacity >> 10) as f64,
                        (m.l3.map_or(0, |c| c.capacity) >> 10) as f64,
                        f64::from(m.tlb.entries),
                        f64::from(m.tlb.page_bits),
                        f64::from(m.tlb.walkers),
                        m.dram.latency as f64,
                        m.dram.bytes_per_cycle as f64,
                    ],
                })
                .collect();
            vec![TableSection {
                title: "Table 1 — simulated system models".to_string(),
                columns,
                rows,
                notes: vec![
                    "Paper reference (Table 1):".to_string(),
                    "  Haswell  — i5-4570, 3.2GHz, 32K L1 / 256K L2 / 8M L3, DDR3".to_string(),
                    "  Xeon Phi — 3120P, 1.1GHz, 32K L1 / 512K L2, GDDR5".to_string(),
                    "  A57      — TX1, 1.9GHz, 32K L1 / 2M L2, LPDDR4".to_string(),
                    "  A53      — Odroid C2, 2.0GHz, 32K L1 / 1M L2, DDR3".to_string(),
                ],
            }]
        },
        checks: |res, _derived| {
            vec![Check::holds(
                "four_systems_modelled",
                res.machines.len() == 4,
                format!("{} machine models", res.machines.len()),
            )]
        },
    }
}

// ---- Fig. 2 -------------------------------------------------------------

/// Fig. 2 — software-prefetch scheme quality on Integer Sort.
///
/// Reproduces the paper's motivating measurement: the *intuitive* single
/// indirect prefetch leaves performance on the table, offsets that are
/// too small fetch too late, offsets that are too large pollute the
/// cache, and only the staggered pair at a good distance reaches full
/// speedup (paper, Haswell: 1.08× intuitive vs. 1.30× optimal).
///
/// The paper shows Haswell only; we print every machine because on our
/// scaled model the cost of the unprefetched look-ahead load (the thing
/// the intuitive scheme forgets) shows most clearly on the in-order
/// cores, which stall on its L2 hits.
fn fig2(scale: Scale) -> Experiment {
    Experiment {
        spec: ExperimentSpec {
            name: "fig2",
            title: "Fig. 2 — IS: prefetching-scheme speedups",
            scale,
            machines: MachineConfig::all_systems(),
            workloads: vec![WorkloadId::Is],
            variants: vec![
                Variant::baseline(),
                Variant::built(KernelVariant::Fig2(Fig2Scheme::Intuitive)),
                Variant::built(KernelVariant::Fig2(Fig2Scheme::OffsetTooSmall)),
                Variant::built(KernelVariant::Fig2(Fig2Scheme::OffsetTooBig)),
                Variant::built(KernelVariant::Fig2(Fig2Scheme::Optimal)),
            ],
            filter: None,
            perf: false,
        },
        search: None,
        derive: |res| {
            let labels = [
                "fig2_intuitive",
                "fig2_too_small",
                "fig2_too_big",
                "fig2_optimal",
            ];
            vec![TableSection::new(
                "Fig. 2 — IS: prefetching-scheme speedups",
                ["intuitive", "too-small", "too-big", "optimal"]
                    .map(String::from)
                    .to_vec(),
                machine_rows(res, "IS", &labels.map(String::from)),
            )]
        },
        checks: |res, derived| {
            let at = |m: &str, column| row_value(&derived[0], m, column);
            let in_order = in_order_names(res);
            // The motivating claim: the staggered pair at a good
            // distance keeps up with (and at small scales clearly
            // beats) the intuitive single prefetch. 10% slack — on our
            // scaled models the two sit within a few percent on some
            // machines, exactly as in the paper's Haswell bar chart.
            let mut checks: Vec<Check> = (in_order.iter())
                .map(|m| {
                    let intuitive = Bound::times(0.9, "intuitive", at(m, "intuitive"));
                    let name = format!("optimal_keeps_up_with_intuitive_{m}");
                    Check::at_least(name, "optimal", at(m, "optimal"), intuitive)
                })
                .collect();
            // Mis-scheduling hurts: a huge offset pollutes the cache and
            // lines are evicted before use (the Phi's big in-order-core
            // prefetch budget shows it most clearly at every scale).
            let phi = |column| at("xeon_phi", column);
            let (name, optimal) = (
                "too_big_offset_pollutes_on_phi",
                ("optimal", phi("optimal")),
            );
            checks.push(Check::below(name, "too-big", phi("too-big"), optimal));
            checks.extend(in_order.iter().map(|m| {
                let name = format!("optimal_speeds_up_{m}");
                Check::above(name, "optimal", at(m, "optimal"), 1.0).paper_only()
            }));
            checks
        },
    }
}

// ---- Fig. 4 -------------------------------------------------------------

fn fig4_filter(m: &MachineConfig, _w: WorkloadId, v: &Variant) -> bool {
    // The ICC-like baseline pass is evaluated on the Xeon Phi only
    // (paper Fig. 4d).
    v.kernel != Kernel::Icc || m.name == "xeon_phi"
}

/// Fig. 4 — speedup of autogenerated and best-manual software prefetches
/// over the no-prefetch baseline, on all four systems; the Xeon Phi
/// additionally shows the ICC-like stride-indirect baseline pass.
fn fig4(scale: Scale) -> Experiment {
    Experiment {
        spec: ExperimentSpec {
            name: "fig4",
            title: "Fig. 4 — auto vs. manual speedup over no-prefetch, all systems",
            scale,
            machines: MachineConfig::all_systems(),
            workloads: WorkloadId::ALL.to_vec(),
            variants: vec![
                Variant::baseline(),
                Variant::auto_default(),
                manual_variant(),
                Variant::icc(),
            ],
            filter: Some(fig4_filter),
            perf: false,
        },
        search: None,
        derive: |res| {
            let sections = res.machines.iter().map(|m| {
                // The ICC column is the Phi's alone (Fig. 4d).
                let skip = usize::from(m.name != "xeon_phi");
                let (columns, labels) = (
                    &["icc", "auto", "manual"][skip..],
                    &["icc", "auto", MANUAL][skip..],
                );
                TableSection::new(
                    format!("Fig. 4 ({}) — speedup vs. no prefetching", m.name),
                    columns.iter().map(ToString::to_string).collect(),
                    speedup_rows(res, m.name, &WorkloadId::ALL, labels),
                )
            });
            sections.collect()
        },
        checks: |res, derived| {
            let geomean = |m: &str, column| {
                let section = find_section(derived, &format!("({m})"));
                row_value(section.expect("section per machine"), "Geomean", column)
            };
            let in_order = in_order_names(res);
            // In-order cores cannot hide indirect misses themselves, so
            // the pass must win on them — the paper's headline claim.
            // Holds even at test scale.
            let mut checks: Vec<Check> = (in_order.iter())
                .map(|m| {
                    let name = format!("auto_geomean_speeds_up_{m}");
                    Check::above(name, "auto geomean", geomean(m, "auto"), 1.0)
                })
                .collect();
            // Manual prefetches encode knowledge the compiler cannot
            // have, so the best-manual geomean bounds auto from above
            // on in-order machines (paper §6.1).
            checks.extend(in_order.iter().map(|m| {
                let auto = Bound::times(0.95, "auto", geomean(m, "auto"));
                let name = format!("manual_bounds_auto_{m}");
                Check::at_least(name, "manual geomean", geomean(m, "manual"), auto).paper_only()
            }));
            // The ICC-like stride-indirect baseline trails the full
            // pass on the Phi (Fig. 4d).
            let (icc, auto) = (geomean("xeon_phi", "icc"), geomean("xeon_phi", "auto"));
            let name = "icc_trails_auto_on_phi";
            checks.push(Check::at_most(name, "icc geomean", icc, ("auto", auto)).paper_only());
            checks
        },
    }
}

// ---- Fig. 5 -------------------------------------------------------------

/// Fig. 5 — the value of the staggered stride companion prefetch.
///
/// Even with a hardware stride prefetcher, prefetching only the indirect
/// access leaves a real look-ahead load (`b[i+off]`) on the critical
/// path; adding the staggered stride prefetch for the look-ahead array
/// itself wins across the board (paper §6.1, Haswell).
fn fig5(scale: Scale) -> Experiment {
    Experiment {
        spec: ExperimentSpec {
            name: "fig5",
            title: "Fig. 5 — Haswell: indirect-only vs. indirect+stride",
            scale,
            machines: vec![MachineConfig::haswell()],
            workloads: WorkloadId::ALL.to_vec(),
            variants: vec![
                Variant::baseline(),
                Variant::pass(
                    "auto_ind",
                    PassConfig {
                        stride_companion: false,
                        ..PassConfig::default()
                    },
                ),
                Variant::auto_default(),
            ],
            filter: None,
            perf: false,
        },
        search: None,
        derive: |res| {
            vec![TableSection::new(
                "Fig. 5 — Haswell: indirect-only vs. indirect+stride",
                vec!["ind".to_string(), "ind+str".to_string()],
                speedup_rows(res, "haswell", &WorkloadId::ALL, &["auto_ind", "auto"]),
            )]
        },
        checks: |_res, derived| {
            // Adding the staggered stride companion wins overall
            // (paper §6.1) — a geomean claim, so paper scale only.
            let geomean = |column| row_value(&derived[0], "Geomean", column);
            let (ind, both) = (("ind", geomean("ind")), geomean("ind+str"));
            let name = "stride_companion_helps";
            vec![Check::at_least(name, "ind+str geomean", both, ind).paper_only()]
        },
    }
}

// ---- Fig. 6 -------------------------------------------------------------

/// Fig. 6 — speedup vs. look-ahead distance `c` for IS, CG, RA and HJ-2
/// on all four systems (manual insertion, as in the paper §6.2).
///
/// The paper's finding: the best look-ahead is surprisingly consistent —
/// `c = 64` is near-optimal everywhere, being too late costs more than
/// being too early, so `c` can be set generously.
fn fig6(scale: Scale) -> Experiment {
    let mut variants = vec![Variant::baseline()];
    variants.extend(
        FIG6_DISTANCES
            .iter()
            .map(|&c| Variant::built(KernelVariant::Manual { look_ahead: c })),
    );
    Experiment {
        spec: ExperimentSpec {
            name: "fig6",
            title: "Fig. 6 — speedup vs. look-ahead distance (manual)",
            scale,
            machines: MachineConfig::all_systems(),
            workloads: WorkloadId::FIG6.to_vec(),
            variants,
            filter: None,
            perf: false,
        },
        search: None,
        derive: |res| {
            let labels = FIG6_DISTANCES.map(|c| format!("manual_c{c}"));
            let sections = WorkloadId::FIG6.iter().map(|w| {
                TableSection::new(
                    format!("Fig. 6 — {}: speedup vs. look-ahead distance", w.name()),
                    FIG6_DISTANCES.iter().map(|c| format!("c={c}")).collect(),
                    machine_rows(res, w.name(), &labels),
                )
            });
            sections.collect()
        },
        checks: |res, derived| {
            // The paper's shape (§6.2): both mis-scheduling extremes
            // lose — too small a distance fetches too late, too large a
            // distance pollutes the (here 1/4-scaled) caches — so the
            // best distance is interior to the sweep. On the 1/4-scaled
            // model the argmax sits lower than the paper's 64 on some
            // machines, so the check pins the curve's shape, not the
            // argmax, and does it where the signal is unambiguous at
            // every scale: the in-order machines, which cannot hide
            // either failure mode behind out-of-order overlap.
            let in_order = in_order_names(res);
            let mut checks = Vec::new();
            for section in derived {
                let bench = section.title.split([':', '—']).nth(1).unwrap_or("?").trim();
                for row in (section.rows.iter()).filter(|r| in_order.contains(&r.name.as_str())) {
                    let last = *row.values.last().expect("non-empty sweep");
                    let ends = Bound::max(("c=4", row.values[0]), ("c=256", last));
                    let best = row.values.iter().copied().fold(f64::MIN, f64::max);
                    let name = format!("best_distance_interior_{bench}_{}", row.name);
                    checks.push(Check::above(name, "best", best, ends));
                }
            }
            checks
        },
    }
}

// ---- Fig. 7 -------------------------------------------------------------

/// Fig. 7 — HJ-8 prefetch stagger depth: how many of the four dependent
/// irregular accesses (bucket + three chain nodes) to prefetch.
///
/// Prefetching deeper costs O(n²) address-generation code: each deeper
/// prefetch must re-walk the chain with real loads. The paper finds
/// depth 3 optimal on every system — the last node's prefetch costs more
/// than it saves.
fn fig7(scale: Scale) -> Experiment {
    let mut variants = vec![Variant::baseline()];
    variants.extend((1..=4).map(|depth| {
        Variant::built(KernelVariant::ManualDepth {
            look_ahead: 64,
            depth,
        })
    }));
    Experiment {
        spec: ExperimentSpec {
            name: "fig7",
            title: "Fig. 7 — HJ-8: speedup vs. prefetch stagger depth",
            scale,
            machines: MachineConfig::all_systems(),
            workloads: vec![WorkloadId::Hj8],
            variants,
            filter: None,
            perf: false,
        },
        search: None,
        derive: |res| {
            vec![TableSection::new(
                "Fig. 7 — HJ-8: speedup vs. prefetch stagger depth",
                (1..=4).map(|d| format!("depth={d}")).collect(),
                machine_rows(
                    res,
                    "HJ-8",
                    &[1, 2, 3, 4].map(|d| format!("manual_c64_d{d}")),
                ),
            )]
        },
        checks: |_res, derived| {
            // Staggered chain prefetching pays: covering three of the
            // four dependent accesses beats covering only the bucket,
            // on every system. (The paper further finds depth 4 a net
            // loss everywhere; on our scaled model that last-node cost
            // shows clearly only on the A57, whose single page-table
            // walker serialises the extra address-generation loads —
            // so the suite pins the depth3-over-depth1 claim instead.)
            // Paper scale only: at test scale HJ-8's table is
            // cache-resident and stagger depth is pure overhead.
            let section = &derived[0];
            let rows = section.rows.iter();
            rows.map(|row| {
                let at = |column| row_value(section, &row.name, column);
                let name = format!("deeper_stagger_pays_{}", row.name);
                Check::above(name, "depth3", at("depth=3"), ("depth1", at("depth=1"))).paper_only()
            })
            .collect()
        },
    }
}

// ---- Fig. 8 -------------------------------------------------------------

/// Fig. 8 — percentage increase in dynamic instruction count from adding
/// software prefetches (Haswell, best scheme per benchmark).
///
/// The paper reports 40–80% more instructions for most benchmarks —
/// the cost side of the trade the rest of the evaluation quantifies.
fn fig8(scale: Scale) -> Experiment {
    Experiment {
        spec: ExperimentSpec {
            name: "fig8",
            title: "Fig. 8 — Haswell: % extra dynamic instructions",
            scale,
            machines: vec![MachineConfig::haswell()],
            workloads: WorkloadId::ALL.to_vec(),
            variants: vec![
                Variant::baseline(),
                Variant::auto_default(),
                manual_variant(),
            ],
            filter: None,
            perf: false,
        },
        search: None,
        derive: |res| {
            let overhead = |variant: &str, w: WorkloadId| -> f64 {
                let (Some(v), Some(b)) = (
                    res.cell("haswell", w.name(), variant),
                    res.cell("haswell", w.name(), "baseline"),
                ) else {
                    return f64::NAN;
                };
                100.0 * v.stats().extra_instructions_vs(b.stats())
            };
            vec![TableSection::new(
                "Fig. 8 — Haswell: % extra dynamic instructions",
                vec!["auto_%".to_string(), "manual_%".to_string()],
                WorkloadId::ALL
                    .iter()
                    .map(|w| Row {
                        name: w.name().to_string(),
                        values: vec![overhead("auto", *w), overhead(MANUAL, *w)],
                    })
                    .collect(),
            )]
        },
        checks: |_res, derived| {
            // Prefetch code is never free: the pass must add dynamic
            // instructions on every benchmark, at every scale.
            let section = &derived[0];
            let rows = section.rows.iter();
            rows.map(|row| {
                let auto = row_value(section, &row.name, "auto_%");
                let name = format!("auto_adds_instructions_{}", row.name);
                Check::above(name, "auto extra instructions (%)", auto, 0.0)
            })
            .collect()
        },
    }
}

// ---- Fig. 9 -------------------------------------------------------------

/// Fig. 9 — IS throughput on Haswell with 1, 2 and 4 cores, with and
/// without prefetching, each core running its own copy of the benchmark.
///
/// Normalised throughput is (copies completed per unit time) relative to
/// one copy on one core without prefetching. The paper's point: the
/// shared memory system saturates — yet software prefetching still wins.
fn fig9(scale: Scale) -> Experiment {
    let mut variants = Vec::new();
    for &cores in &FIG9_CORES {
        for v in [Variant::baseline(), Variant::auto_default()] {
            variants.push(Variant {
                label: format!("mc{cores}_{}", v.label),
                cores,
                ..v
            });
        }
    }
    Experiment {
        spec: ExperimentSpec {
            name: "fig9",
            title: "Fig. 9 — IS on Haswell: normalised multicore throughput",
            scale,
            machines: vec![MachineConfig::haswell()],
            workloads: vec![WorkloadId::Is],
            variants,
            filter: None,
            perf: false,
        },
        search: None,
        derive: |res| {
            let makespan = |variant: &str| -> f64 {
                res.cell("haswell", "IS", variant)
                    .map_or(f64::NAN, |c| c.max_cycles() as f64)
            };
            let t1 = makespan("mc1_baseline");
            vec![TableSection::new(
                "Fig. 9 — IS on Haswell: normalised multicore throughput",
                vec!["no-prefetch".to_string(), "prefetch".to_string()],
                FIG9_CORES
                    .iter()
                    .map(|&n| Row {
                        name: format!("{n} cores"),
                        values: vec![
                            n as f64 * t1 / makespan(&format!("mc{n}_baseline")),
                            n as f64 * t1 / makespan(&format!("mc{n}_auto")),
                        ],
                    })
                    .collect(),
            )]
        },
        checks: |_res, derived| {
            let at = |row: &str, column| row_value(&derived[0], row, column);
            // Normalisation sanity: one no-prefetch copy on one core is
            // the unit by construction.
            let unit = at("1 cores", "no-prefetch");
            let what = "1-core no-prefetch throughput";
            let mut checks = vec![Check::within("single_core_is_unit", what, unit, 1.0, 1e-9)];
            // The paper's Fig. 9 claims, as they reproduce on the
            // scaled model (paper scale only): the shared memory system
            // saturates hard (four no-prefetch copies achieve well
            // under 2× aggregate — the paper measures under 1×), a
            // single prefetching copy clearly wins, and at full DRAM
            // saturation prefetching stays within noise of the
            // no-prefetch aggregate (its extra instructions cost a
            // percent or two once bandwidth, not latency, binds).
            let what = "4-core no-prefetch aggregate";
            let nopf4 = at("4 cores", "no-prefetch");
            checks.push(Check::below("memory_system_saturates", what, nopf4, 2.0).paper_only());
            let (what, pf1) = ("1-core prefetch throughput", at("1 cores", "prefetch"));
            checks.push(Check::above("prefetch_wins_single_core", what, pf1, 1.0).paper_only());
            checks.extend([2usize, 4].map(|n| {
                let row = format!("{n} cores");
                let nopf = Bound::times(0.95, "no-prefetch", at(&row, "no-prefetch"));
                let name = format!("prefetch_not_harmful_at_{n}_cores");
                Check::at_least(name, "prefetch", at(&row, "prefetch"), nopf).paper_only()
            }));
            checks
        },
    }
}

// ---- Fig. 10 ------------------------------------------------------------

/// Fig. 10 — prefetch speedup with 4 KiB vs. 2 MiB (transparent huge)
/// pages on Haswell, for the TLB-sensitive benchmarks IS, RA and HJ-2.
///
/// Each bar is normalised to *no prefetching under the same page
/// policy*. With small pages, software prefetching also warms the TLB
/// (a side benefit); with huge pages that benefit disappears for IS/RA
/// but page-table-bound HJ-2 keeps more headroom for the prefetch
/// itself (paper §6.2).
fn fig10(scale: Scale) -> Experiment {
    Experiment {
        spec: ExperimentSpec {
            name: "fig10",
            title: "Fig. 10 — Haswell: prefetch speedup by page size",
            scale,
            machines: vec![
                MachineConfig::haswell()
                    .with_small_pages()
                    .with_name("haswell_small"),
                MachineConfig::haswell()
                    .with_huge_pages()
                    .with_name("haswell_huge"),
            ],
            workloads: vec![WorkloadId::Is, WorkloadId::Ra, WorkloadId::Hj2],
            variants: vec![Variant::baseline(), Variant::auto_default()],
            filter: None,
            perf: false,
        },
        search: None,
        derive: |res| {
            vec![TableSection::new(
                "Fig. 10 — Haswell: prefetch speedup by page size",
                vec!["small-pages".to_string(), "huge-pages".to_string()],
                [WorkloadId::Is, WorkloadId::Ra, WorkloadId::Hj2]
                    .iter()
                    .map(|w| Row {
                        name: w.name().to_string(),
                        values: vec![
                            res.speedup("haswell_small", w.name(), "auto"),
                            res.speedup("haswell_huge", w.name(), "auto"),
                        ],
                    })
                    .collect(),
            )]
        },
        checks: |_res, derived| {
            // With 4 KiB pages, prefetching also warms the TLB, so the
            // speedup under small pages bounds the huge-page one for
            // the TLB-bound IS and RA (paper §6.2; paper scale only).
            let at = |w, column| row_value(&derived[0], w, column);
            ["IS", "RA"]
                .map(|w| {
                    let huge = Bound::times(0.95, "huge", at(w, "huge-pages"));
                    let name = format!("tlb_side_benefit_{w}");
                    Check::at_least(name, "small", at(w, "small-pages"), huge).paper_only()
                })
                .to_vec()
        },
    }
}

// ---- ablation ------------------------------------------------------------

/// The pass pipelines the ablation compares: the bare prefetch pass,
/// the local cleanup ladder (DCE alone, CSE + DCE), one global pass in
/// isolation (GVN + DCE), and the full global pipeline — the paper's
/// "later passes clean up the generated address code" step (§4/§5),
/// made measurable. Each entry is `(variant label, pipeline spec)`;
/// this const heads the experiment's variant axis and is the single
/// source of its static-cost columns and speedup tables. The first entry
/// must be the bare pass (the reference the others are checked
/// against), entries must only add cleanup (the monotonicity check
/// assumes it), and `swpf_cse_dce`/`swpf_full` must both be present
/// (the retained-code check compares them).
pub const ABLATION_PIPELINES: [(&str, &str); 5] = [
    ("swpf", "swpf"),
    ("swpf_dce", "swpf,dce"),
    ("swpf_cse_dce", "swpf,cse,dce"),
    ("swpf_gvn_dce", "swpf,gvn,dce"),
    ("swpf_full", "swpf,gvn,sccp,licm,cse,dce"),
];

/// Static cost of one workload's kernel per ablation pipeline
/// (deterministic pure functions of workload × scale × pipeline):
/// placed instructions in the baseline, placed (and loop-resident
/// placed) instructions after each [`ABLATION_PIPELINES`] entry, and
/// each entry's emitted prefetches.
struct StaticCost {
    base: usize,
    base_retained: usize,
    placed: Vec<usize>,
    retained: Vec<usize>,
    prefetches: Vec<usize>,
}

/// Placed instructions living in blocks inside some natural loop — the
/// per-iteration cost a pipeline actually retains. Total counts cannot
/// see LICM (it moves code, never removes it); this metric charges only
/// what still executes every iteration, so a hoist shows up as a win.
fn loop_resident_insts(m: &swpf_ir::Module) -> usize {
    use swpf_analysis::{DomTree, LoopForest};
    m.func_ids()
        .map(|fid| {
            let f = m.function(fid);
            let dom = DomTree::compute(f);
            let loops = LoopForest::compute(f, &dom);
            f.block_ids()
                .filter(|&b| loops.ids().any(|l| loops.get(l).contains(b)))
                .map(|b| f.block(b).insts.len())
                .sum::<usize>()
        })
        .sum()
}

/// Compile every workload through every ablation pipeline and count.
fn ablation_static_costs(scale: Scale) -> Vec<(WorkloadId, StaticCost)> {
    let placed = |m: &swpf_ir::Module| -> usize {
        m.func_ids().map(|f| m.function(f).num_placed_insts()).sum()
    };
    WorkloadId::ALL
        .iter()
        .map(|&id| {
            let w = id.instantiate(scale);
            let baseline = w.build_baseline();
            let mut cost = StaticCost {
                base: placed(&baseline),
                base_retained: loop_resident_insts(&baseline),
                placed: Vec::new(),
                retained: Vec::new(),
                prefetches: Vec::new(),
            };
            for (_, spec) in ABLATION_PIPELINES {
                let mut m = w.build_baseline();
                let report = swpf_core::run_on_module(&mut m, &PassConfig::with_pipeline(spec));
                cost.placed.push(placed(&m));
                cost.retained.push(loop_resident_insts(&m));
                cost.prefetches.push(report.total_prefetches());
            }
            (id, cost)
        })
        .collect()
}

/// The ablation's pass variants: [`ABLATION_PIPELINES`], then every
/// pipeline of [`PipelineSpace::paper_default`] not already listed,
/// labelled by its spec with `,` → `_`. The searched column is read off
/// these cells, so the grid prices every candidate of the space.
fn ablation_pipelines() -> Vec<(String, PassConfig)> {
    let mut out: Vec<(String, PassConfig)> = ABLATION_PIPELINES
        .iter()
        .map(|&(label, spec)| (label.to_string(), PassConfig::with_pipeline(spec)))
        .collect();
    let space = PipelineSpace::paper_default();
    for config in (0..space.len()).map(|i| space.at(i)) {
        if !out.iter().any(|(_, c)| *c == config) {
            out.push((config.pipeline.to_string().replace(',', "_"), config));
        }
    }
    out
}

fn ablation(scale: Scale) -> Experiment {
    let mut variants = vec![Variant::baseline()];
    variants.extend(
        ablation_pipelines()
            .into_iter()
            .map(|(label, config)| Variant::pass(&label, config)),
    );
    Experiment {
        spec: ExperimentSpec {
            name: "ablation",
            title: "Ablation — pass pipelines: static cleanup × speedup",
            scale,
            machines: MachineConfig::all_systems(),
            workloads: WorkloadId::ALL.to_vec(),
            variants,
            filter: None,
            perf: false,
        },
        search: None,
        derive: |res| {
            // Static pipeline costs: what the pass cloned, what the
            // cleanup passes took back (recomputed here — they are
            // deterministic functions of workload × scale × pipeline,
            // and compiling is milliseconds next to simulation).
            // `cloned` is relative to the bare first pipeline,
            // `eliminated` what the last (full-cleanup) one removed of
            // it; `pf_drift` must be 0 — cleanup never touches
            // prefetches (checked below from this table).
            let labels: Vec<&str> = ABLATION_PIPELINES.iter().map(|(l, _)| *l).collect();
            let costs = ablation_static_costs(res.scale);
            let mut columns = vec!["base".to_string()];
            columns.extend(labels.iter().map(ToString::to_string));
            columns.extend(["cloned", "eliminated", "prefetches", "pf_drift"].map(String::from));
            let static_rows = costs
                .iter()
                .map(|(w, c)| {
                    let bare = c.placed[0];
                    let full = *c.placed.last().expect("non-empty pipeline list");
                    let drift = c
                        .prefetches
                        .iter()
                        .map(|&p| p.abs_diff(c.prefetches[0]))
                        .max()
                        .unwrap_or(0);
                    let mut values = vec![c.base as f64];
                    values.extend(c.placed.iter().map(|&p| p as f64));
                    values.extend([
                        (bare - c.base) as f64,
                        (bare - full) as f64,
                        c.prefetches[0] as f64,
                        drift as f64,
                    ]);
                    Row {
                        name: w.name().to_string(),
                        values,
                    }
                })
                .collect();
            let mut sections = vec![TableSection::new(
                "Ablation (static) — placed instructions per pipeline",
                columns,
                static_rows,
            )];
            // Loop-resident placed instructions: the per-iteration cost
            // each pipeline retains. Total counts are blind to LICM
            // (a hoist moves code out of the loop without deleting it),
            // so the global-pass payoff is asserted on this table.
            let mut lr_columns = vec!["base".to_string()];
            lr_columns.extend(labels.iter().map(ToString::to_string));
            let lr_rows = costs
                .iter()
                .map(|(w, c)| {
                    let mut values = vec![c.base_retained as f64];
                    values.extend(c.retained.iter().map(|&p| p as f64));
                    Row {
                        name: w.name().to_string(),
                        values,
                    }
                })
                .collect();
            let mut lr = TableSection::new(
                "Ablation (static, loop-resident) — in-loop placed instructions per pipeline",
                lr_columns,
                lr_rows,
            );
            lr.notes.push(
                "instructions in blocks inside a natural loop: the per-iteration \
                 cost a pipeline retains (hoisted code leaves this count)"
                    .to_string(),
            );
            sections.push(lr);
            // The searched-pipeline column: the exhaustive oracle over
            // the cleanup-pipeline space, read off the grid's cells.
            // Candidates go in `Exhaustive`'s visit order — the full
            // heuristic pipeline, then the space — and ties go to the
            // first, so both references are candidates.
            let (space, pipelines) = (PipelineSpace::paper_default(), ablation_pipelines());
            let variant = |c: PassConfig| pipelines.iter().find(|(_, p)| *p == c);
            let visit: Vec<&(String, PassConfig)> = std::iter::once(space.heuristic().clone())
                .chain((0..space.len()).map(|i| space.at(i)))
                .filter_map(variant)
                .collect();
            let cycles = |m: &str, w: &str, label: &str| {
                res.cell(m, w, label).expect("grid complete").stats().cycles
            };
            let (bare, full) = (ABLATION_PIPELINES[0].0, visit[0].0.as_str());
            let searched = |m: &str, w: &str| {
                let heuristic = (cycles(m, w, full), &visit[0].1);
                visit.iter().fold(heuristic, |best, (l, c)| {
                    std::cmp::min_by_key(best, (cycles(m, w, l), c), |p| p.0)
                })
            };
            let mut rows = Vec::new();
            let mut chosen = Vec::new();
            for w in WorkloadId::ALL.map(WorkloadId::name) {
                for m in res.machines.iter().map(|m| m.name) {
                    let (best, config) = searched(m, w);
                    let name = format!("{m}/{w}");
                    let pipeline = config.pipeline.to_string();
                    if pipeline != swpf_tune::DEFAULT_FULL_PIPELINE {
                        chosen.push(format!("{name}: searched pipeline `{pipeline}`"));
                    }
                    let values = [cycles(m, w, bare), cycles(m, w, full), best];
                    rows.push(Row {
                        name,
                        values: values.map(|c| c as f64).to_vec(),
                    });
                }
            }
            let mut srch = TableSection::new(
                "Ablation (searched) — simulated cycles: default vs. full vs. searched pipeline",
                ["default", "full", "searched"].map(String::from).to_vec(),
                rows,
            );
            srch.notes.push(
                "default = the compiler's default pipeline (bare `swpf`); full = \
                 the heuristic `swpf,gvn,sccp,licm,cse,dce`; searched = exhaustive \
                 best over the pipeline space (both references are candidates, so \
                 searched ≤ min(default, full) by construction)"
                    .to_string(),
            );
            srch.notes.extend(chosen);
            sections.push(srch);
            // Speedup over no-prefetch per machine, per pipeline, plus
            // the searched column: the full pipeline's measured speedup
            // scaled by the searched pipeline's exact cycle margin.
            sections.extend(res.machines.iter().map(|m| {
                let mut rows = speedup_rows(res, m.name, &WorkloadId::ALL, &labels);
                let mut searched_col = Vec::new();
                for r in &mut rows {
                    if r.name == "Geomean" {
                        continue;
                    }
                    let full_cycles = cycles(m.name, &r.name, full);
                    let full_speedup = r.values[labels.len() - 1];
                    let v = full_speedup * full_cycles as f64 / searched(m.name, &r.name).0 as f64;
                    r.values.push(v);
                    searched_col.push(v);
                }
                if let Some(g) = rows.iter_mut().find(|r| r.name == "Geomean") {
                    g.values.push(crate::geomean(&searched_col));
                }
                let mut columns: Vec<String> = labels.iter().map(ToString::to_string).collect();
                columns.push("searched".to_string());
                TableSection::new(
                    format!("Ablation ({}) — speedup vs. no prefetching", m.name),
                    columns,
                    rows,
                )
            }));
            sections
        },
        checks: |res, derived| {
            let [(bare, _), .., (full, _)] = ABLATION_PIPELINES;
            let mut checks = Vec::new();
            let stat = find_section(derived, "(static)").expect("static section");
            // The cleanup passes must strictly win somewhere: on at
            // least one workload, cse+dce removes part of what the
            // prefetch pass cloned. Static, so asserted at every scale.
            let reduced = rows_where(stat, |at| at("eliminated") > 0.0);
            let name = "cleanup_strictly_reduces_cloned_code";
            checks.push(Check::at_least(
                name,
                "workloads cse+dce shrank",
                reduced,
                1.0,
            ));
            // Cleanup only removes: each added cleanup pass may only
            // shrink the kernel, and it never touches the emitted
            // prefetches (pf_drift is the max deviation from the bare
            // pipeline's count).
            let monotone = stat.rows.iter().all(|r| {
                ABLATION_PIPELINES
                    .windows(2)
                    .all(|w| row_value(stat, &r.name, w[1].0) <= row_value(stat, &r.name, w[0].0))
            });
            checks.push(Check::holds(
                "cleanup_is_monotone",
                monotone,
                "each added cleanup pass only shrinks the kernel".to_string(),
            ));
            let drift = (stat.rows.iter())
                .map(|r| row_value(stat, &r.name, "pf_drift"))
                .fold(0.0, f64::max);
            let what = format!("largest prefetch-count drift from {bare} to {full}");
            checks.push(Check::at_most(
                "cleanup_preserves_prefetches",
                &what,
                drift,
                0.0,
            ));
            // The global passes must pay beyond local cleanup: on most
            // workloads (five in seven) the full pipeline retains
            // strictly fewer loop-resident instructions than cse+dce
            // (GVN merges cross-block duplicates, LICM hoists invariant
            // clamp code out of the loop). Static, so asserted at every
            // scale.
            let lr = find_section(derived, "loop-resident").expect("loop-resident section");
            let fewer = rows_where(lr, |at| at("swpf_full") < at("swpf_cse_dce"));
            let share = fewer / lr.rows.len() as f64;
            let what = "share of workloads where full retains fewer loop-resident instructions \
                        than cse+dce";
            let name = "global_passes_strictly_reduce_retained_code";
            checks.push(Check::at_least(name, what, share, 5.0 / 7.0));
            // The searched pipeline never loses to either reference
            // (both are candidates of the space) and must strictly beat
            // the compiler's default pipeline somewhere — the payoff of
            // searching pipelines at all.
            let srch = find_section(derived, "(searched)").expect("searched section");
            let worse = rows_where(srch, |at| {
                at("searched") > at("full") || at("searched") > at("default")
            });
            let what = "cells where searched cycles exceed default or full";
            checks.push(Check::at_most(
                "searched_pipeline_never_worse",
                what,
                worse,
                0.0,
            ));
            let wins = rows_where(srch, |at| at("searched") < at("default"));
            let what = "cells where the searched pipeline strictly beats the default";
            let name = "searched_pipeline_strictly_beats_default";
            checks.push(Check::at_least(name, what, wins, 1.0));
            // Cleanup shrinks the address code but must not change what
            // is prefetched: per machine, the geomean speedup of the
            // full pipeline stays within 10% of the bare pass.
            checks.extend(res.machines.iter().map(|m| {
                let section = find_section(derived, &format!("({})", m.name));
                let geomean =
                    |column| row_value(section.expect("machine section"), "Geomean", column);
                let name = format!("cleanup_speedup_within_tolerance_{}", m.name);
                let what = "full-pipeline geomean";
                Check::within(name, what, geomean(full), ("bare", geomean(bare)), 0.1)
            }));
            checks
        },
    }
}

// ---- trace analytics -----------------------------------------------------

/// The two kernel builds profiled per workload: the plain baseline and
/// the pass-prefetched `auto` build. Their cache files are named by the
/// kernel's fingerprint, as the harness names them, so the profiles
/// stream from (and warm) the same disk cache the figure grids use.
fn analytics_variants() -> [Variant; 2] {
    [Variant::baseline(), Variant::auto_default()]
}

/// Stream one kernel's cached trace — or record it functionally (one
/// interpretation, no timing model in the loop) on a miss — and profile
/// it. With a cache directory the fresh recording is persisted for the
/// next consumer.
fn workload_analytics(
    id: WorkloadId,
    kernel: &Kernel,
    scale: Scale,
    dir: Option<&std::path::Path>,
) -> swpf_trace::TraceAnalytics {
    use crate::harness::{kernel_fingerprint, open_streaming, store_trace, trace_cache_path};

    let w = id.instantiate(scale);
    let module = kernel
        .build(w.as_ref())
        .expect("every workload builds the analytics kernels");
    let func = module
        .find_function("kernel")
        .expect("workload kernels are named `kernel`");
    let text_hash = swpf_trace::fnv64(swpf_ir::printer::print_module(&module).as_bytes());
    let fingerprint = kernel_fingerprint(w.name(), scale, 1, text_hash);
    let path = dir.map(|d| trace_cache_path(d, scale, w.name(), fingerprint));

    if let Some(p) = &path {
        if let Some(replay) = open_streaming(p, fingerprint) {
            match swpf_trace::analyze(replay.num_cores(), |c| replay.cursor(c)) {
                Ok(a) => return a,
                Err(e) => eprintln!("warning: re-recording {}: {e}", p.display()),
            }
        }
    }

    let image = std::sync::Arc::new(swpf_ir::exec::ExecImage::build(&module));
    let mut interp = swpf_ir::interp::Interp::new();
    let args = w.setup(&mut interp);
    let mut recorder = swpf_trace::TraceRecorder::new(1, fingerprint);
    interp
        .run_with_image(image, func, &args, recorder.stream(0))
        .unwrap_or_else(|t| panic!("{}/{kernel:?} trapped: {t}", w.name()));
    let trace = recorder.finish();
    if let Some(p) = &path {
        store_trace(p, &trace);
    }
    swpf_trace::analyze(trace.num_cores(), |c| trace.cursor(c))
        .expect("freshly recorded trace is well-formed")
}

/// Reuse-distance percentile over the *warm* touches, reported as the
/// upper bound of the quantile's bucket in 64 B lines (bucket 0 —
/// distance 0, a same-line re-touch — reports 1). `0.0` when every
/// touch was cold, so derived values stay finite.
fn reuse_percentile(a: &swpf_trace::TraceAnalytics, q: f64) -> f64 {
    let warm: u64 = a.reuse.buckets().iter().sum();
    if warm == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let target = ((q * warm as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &n) in a.reuse.buckets().iter().enumerate() {
        seen += n;
        if seen >= target {
            return if i == 0 { 1.0 } else { (1u64 << i) as f64 };
        }
    }
    (1u64 << (swpf_trace::REUSE_BUCKETS - 1)) as f64
}

/// Trace-derived analytics over the whole single-core kernel corpus:
/// reuse-distance histograms, indirection-depth profiles, and
/// MLP-over-time — computed from recorded event streams, never by
/// re-simulating a timing model. Under `--trace-dir` the traces stream
/// block-at-a-time from the shared cache in bounded memory.
fn trace_analytics(scale: Scale) -> Experiment {
    Experiment {
        spec: ExperimentSpec {
            name: "trace_analytics",
            title: "Trace analytics — reuse distance, indirection depth, MLP",
            scale,
            machines: vec![],
            workloads: vec![],
            variants: vec![],
            filter: None,
            perf: false,
        },
        search: None,
        derive: |res| {
            let dir = match &res.trace {
                TracePolicy::Dir(dir) => Some(dir.as_path()),
                TracePolicy::Off | TracePolicy::Memory => None,
            };
            let mut corpus = Vec::new();
            let mut depth = Vec::new();
            let mut mlp = Vec::new();
            #[allow(clippy::cast_precision_loss)]
            for id in WorkloadId::ALL {
                for variant in analytics_variants() {
                    let a = workload_analytics(id, &variant.kernel, res.scale, dir);
                    let name = format!("{}/{}", id.name(), variant.label);
                    corpus.push(Row {
                        name: name.clone(),
                        values: vec![
                            a.events as f64,
                            a.reuse.touches() as f64,
                            a.reuse.cold() as f64,
                            reuse_percentile(&a, 0.50),
                            reuse_percentile(&a, 0.90),
                        ],
                    });
                    let h = a.indirection.histogram();
                    depth.push(Row {
                        name: name.clone(),
                        values: vec![
                            a.indirection.loads() as f64,
                            h[0] as f64,
                            h[1] as f64,
                            h[2] as f64,
                            h[3..].iter().sum::<u64>() as f64,
                            100.0 * a.indirection.indirect_fraction(),
                        ],
                    });
                    mlp.push(Row {
                        name,
                        values: vec![
                            a.mlp.windows() as f64,
                            a.mlp.mean_independent(),
                            100.0 * a.mlp.dependent_fraction(),
                        ],
                    });
                }
            }
            vec![
                TableSection::new(
                    "Trace corpus — reuse distance (64 B lines)",
                    column_names("events touches cold p50_lines p90_lines"),
                    corpus,
                ),
                TableSection::new(
                    "Indirection depth (dependent loads per address)",
                    column_names("loads d0 d1 d2 d3plus indirect_pct"),
                    depth,
                ),
                TableSection::new(
                    "Memory-level parallelism over time",
                    column_names("windows mean_indep dep_pct"),
                    mlp,
                ),
            ]
        },
        checks: |_res, derived| {
            let corpus = find_section(derived, "reuse distance");
            let depth = find_section(derived, "Indirection depth");
            let mlp = find_section(derived, "parallelism");
            let expected = 2 * WorkloadId::ALL.len();
            let complete = [&corpus, &depth, &mlp]
                .iter()
                .all(|s| s.is_some_and(|s| s.rows.len() == expected));
            let detail = format!("{expected} kernel profiles in each section");
            // The smallest first column (events, MLP windows) of a
            // section's kernels; NaN when the section is missing.
            let fewest = |s: Option<&TableSection>| {
                let firsts = s.map(|s| s.rows.iter().map(|r| r.values.first().map_or(0.0, |v| *v)));
                firsts.map_or(f64::NAN, |v| v.fold(f64::INFINITY, f64::min))
            };
            // IS is the paper's motivating a[b[i]] kernel: its baseline
            // must profile as indirect even on tiny inputs.
            let is_pct = depth.map_or(f64::NAN, |s| row_value(s, "IS/baseline", "indirect_pct"));
            let (events, windows) = (fewest(corpus), fewest(mlp));
            let (indirect, what) = ("indirect_loads_detected", "IS baseline indirect %");
            vec![
                Check::holds("profiles_complete", complete, detail),
                Check::above("corpus_nonempty", "fewest events per trace", events, 0.0),
                Check::above(indirect, what, is_pct, 0.0),
                Check::at_least("mlp_sampled", "fewest MLP windows per trace", windows, 1.0),
            ]
        },
    }
}

// ---- prefetch_profile ----------------------------------------------------

/// Aggregate the per-core profiles of the given cells into one outcome
/// partition (summed across sites, cores, and cells).
fn aggregate_profiles<'a>(cells: impl Iterator<Item = &'a CellResult>) -> SiteProfile {
    PcProfile::aggregate(cells.flat_map(|c| c.perf.iter())).totals()
}

/// Percentage share of `part` in `total` (0 when nothing was issued).
#[allow(clippy::cast_precision_loss)]
fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// A cell's attributed demand-load stall cycles, in millions.
#[allow(clippy::cast_precision_loss)]
fn stall_millions(c: &CellResult) -> f64 {
    PcProfile::aggregate(c.perf.iter()).total_stall_cycles() as f64 / 1e6
}

/// Variant label of column `ci` of the profile sweep (the manual
/// distances, then `auto`).
fn profile_label(ci: usize) -> String {
    PROFILE_DISTANCES
        .get(ci)
        .map_or_else(|| "auto".to_string(), |c| format!("manual_c{c}"))
}

/// The `prefetch_profile` experiment: run the Fig. 6 look-ahead sweep
/// (extended to `c = 2`, plus the auto pass) with per-PC prefetch
/// profiling enabled, and chart how each issued prefetch's *outcome* —
/// timely, late, early-evicted, redundant, dropped, unused — migrates
/// with the distance. This is the instrumented explanation for Fig. 6's
/// inverted-U: too short a distance classifies late, too long a
/// distance classifies early-evicted, and the tuned distance maximises
/// the timely share.
fn prefetch_profile(scale: Scale) -> Experiment {
    let mut variants = vec![Variant::baseline()];
    variants.extend(
        PROFILE_DISTANCES
            .iter()
            .map(|&c| Variant::built(KernelVariant::Manual { look_ahead: c })),
    );
    variants.push(Variant::auto_default());
    Experiment {
        spec: ExperimentSpec {
            name: "prefetch_profile",
            title: "Prefetch efficacy — per-site outcome profile vs. look-ahead",
            scale,
            machines: MachineConfig::all_systems(),
            workloads: WorkloadId::FIG6.to_vec(),
            variants,
            filter: None,
            perf: true,
        },
        search: None,
        derive: |res| {
            let ncols = PROFILE_DISTANCES.len() + 1;
            let columns: Vec<String> = PROFILE_DISTANCES
                .iter()
                .map(|c| format!("c={c}"))
                .chain(std::iter::once("auto".to_string()))
                .collect();
            let mut sections = Vec::new();
            // Per machine: the timely share along the sweep — the
            // instrumented counterpart of that machine's Fig. 6 curve.
            for m in &res.machines {
                sections.push(TableSection::new(
                    format!("Prefetch profile — {}: timely share (%)", m.name),
                    columns.clone(),
                    WorkloadId::FIG6
                        .iter()
                        .map(|w| Row {
                            name: w.name().to_string(),
                            values: (0..ncols)
                                .map(|ci| {
                                    let t = aggregate_profiles(
                                        res.cell(m.name, w.name(), &profile_label(ci)).into_iter(),
                                    );
                                    share(t.timely, t.issued)
                                })
                                .collect(),
                        })
                        .collect(),
                ));
            }
            // Summary: the outcome migration along the sweep, aggregated
            // over the whole grid — late fades, dropped grows, and the
            // mean lead time stretches with the distance.
            sections.push(TableSection::new(
                "Prefetch outcome shares (%) by look-ahead — whole grid",
                column_names("timely late early_evict redundant dropped unused lead_mean"),
                (0..ncols)
                    .map(|ci| {
                        let label = profile_label(ci);
                        let t = aggregate_profiles(res.cells.iter().filter(|c| c.variant == label));
                        Row {
                            name: label,
                            values: vec![
                                share(t.timely, t.issued),
                                share(t.late, t.issued),
                                share(t.early_evicted, t.issued),
                                share(t.redundant(), t.issued),
                                share(t.dropped, t.issued),
                                share(t.unused_at_end, t.issued),
                                t.lead_cycles.mean(),
                            ],
                        }
                    })
                    .collect(),
            ));
            // Stall attribution: where the simulated demand-load stall
            // cycles land, before and after prefetching.
            sections.push(TableSection::new(
                "Attributed demand-load stall cycles (millions)",
                ["baseline", MANUAL, "auto"]
                    .iter()
                    .map(ToString::to_string)
                    .collect(),
                res.machines
                    .iter()
                    .flat_map(|m| {
                        WorkloadId::FIG6.iter().map(move |w| Row {
                            name: format!("{}/{}", m.name, w.name()),
                            values: ["baseline", MANUAL, "auto"]
                                .iter()
                                .map(|v| {
                                    res.cell(m.name, w.name(), v)
                                        .map_or(f64::NAN, stall_millions)
                                })
                                .collect(),
                        })
                    })
                    .collect(),
            ));
            sections
        },
        checks: |res, _derived| {
            // Every cell must carry one profile per simulated core.
            let missing = (res.cells.iter())
                .filter(|c| c.perf.len() != c.cores.len())
                .count();
            let (name, what) = ("perf_profiles_present", "cells lacking per-core profiles");
            let mut checks = vec![Check::at_most(name, what, missing as f64, 0.0)];
            // The outcome partition must conserve issued prefetches and
            // agree with the memory system's unconditional counters, on
            // every core of every cell.
            let (mut bad, mut total) = (0usize, 0usize);
            for c in &res.cells {
                for (s, p) in c.cores.iter().zip(&c.perf) {
                    total += 1;
                    let t = p.totals();
                    let ok = p.conserved()
                        && t.issued == s.mem.sw_prefetches
                        && t.dropped == s.mem.sw_prefetches_dropped
                        && t.redundant_resident == s.mem.sw_prefetches_redundant_resident
                        && t.redundant_inflight == s.mem.sw_prefetches_redundant_inflight;
                    bad += usize::from(!ok);
                }
            }
            checks.push(Check::holds(
                "perf_partition_conserved",
                bad == 0 && total > 0,
                format!("{bad} of {total} core profiles violate the outcome partition"),
            ));
            // Outcome migration along the sweep, read where the signal
            // is clean at every scale: the in-order machines (cf. the
            // fig6 checks — out-of-order overlap can mask either
            // failure mode). Test-scale inputs may tie at the two
            // extremes, so the migrations are strict at paper scale only.
            let in_order = in_order_names(res);
            let agg = |variant: &str| {
                let keep = |c: &&CellResult| c.variant == variant && in_order.contains(&c.machine);
                aggregate_profiles(res.cells.iter().filter(keep))
            };
            let (lo, hi) = (agg("manual_c2"), agg("manual_c256"));
            let (late_lo, late_hi) = (share(lo.late, lo.issued), share(hi.late, hi.issued));
            let early_lo = share(lo.early_evicted, lo.issued);
            let (drop_lo, drop_hi) = (share(lo.dropped, lo.issued), share(hi.dropped, hi.issued));
            let (lead_lo, lead_hi) = (lo.lead_cycles.mean(), hi.lead_cycles.mean());
            let what = "in-order late share (%) at c=2";
            let name = "late_fades_with_distance";
            checks.push(Check::at_least(name, what, late_lo, ("c=256", late_hi)).strict_at_paper());
            // The long-distance failure mode in this memory system is
            // queue pressure, not capacity: a 256-iteration lead window
            // is far smaller than any cache level, so prefetched lines
            // are never evicted before use (early_evicted stays 0) —
            // instead the deeper in-flight window overruns the prefetch
            // queue and issues get dropped.
            let what = "in-order dropped share (%) at c=256";
            let name = "drops_grow_with_distance";
            checks.push(Check::at_least(name, what, drop_hi, ("c=2", drop_lo)).strict_at_paper());
            let what = "in-order mean lead (cycles) at c=256";
            let name = "lead_time_grows_with_distance";
            checks.push(Check::at_least(name, what, lead_hi, ("c=2", lead_lo)).strict_at_paper());
            // Paper scale only from here. The failure mode flips along
            // the sweep: too short fails on latency (late dominates
            // every other failure class at c=2), too long fails on
            // queue pressure (at c=256 dropped issues outweigh the
            // now-negligible late ones).
            let failures = Bound::max(("early", early_lo), ("dropped", drop_lo));
            let what = "in-order late share (%) at c=2";
            let name = "short_distance_fails_late";
            checks.push(Check::above(name, what, late_lo, failures).paper_only());
            let what = "in-order dropped share (%) at c=256";
            let name = "long_distance_wastes_bandwidth";
            checks.push(Check::above(name, what, drop_hi, ("late", late_hi)).paper_only());
            // Grid aggregate: the timely share peaks at an interior
            // look-ahead, not at either extreme — the profile's
            // explanation for why the Fig. 6 sweep has an argmax.
            let grid = |variant: String| {
                let t = aggregate_profiles(res.cells.iter().filter(|c| c.variant == variant));
                share(t.timely, t.issued)
            };
            let (t2, t256) = (grid("manual_c2".into()), grid("manual_c256".into()));
            let ends = Bound::max(("c=2", t2), ("c=256", t256));
            let (peak_c, peak) = PROFILE_DISTANCES[1..PROFILE_DISTANCES.len() - 1]
                .iter()
                .map(|c| (*c, grid(format!("manual_c{c}"))))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("sweep has interior points");
            let what = format!("grid timely share (%) at its interior peak c={peak_c}");
            let name = "timely_peaks_at_interior_distance";
            checks.push(Check::above(name, &what, peak, ends).paper_only());
            // Per cell: the cycle-tuned distance strictly improves
            // the timely share over the too-short extreme, on the
            // machines where the distance decides the outcome. (It
            // does not always beat c=256 — timely share alone keeps
            // growing past the cycle optimum while drops and
            // redundancy erode the benefit, which is exactly why
            // tuning minimises cycles rather than maximising any
            // single outcome share.)
            for m in in_order {
                for w in WorkloadId::FIG6 {
                    let cycles = |label: &str| {
                        res.cell(m, w.name(), label)
                            .map_or(u64::MAX, CellResult::max_cycles)
                    };
                    let tuned = PROFILE_DISTANCES
                        .iter()
                        .copied()
                        .min_by_key(|c| cycles(&format!("manual_c{c}")))
                        .expect("sweep is non-empty");
                    let timely = |label: &str| {
                        let t = aggregate_profiles(res.cell(m, w.name(), label).into_iter());
                        share(t.timely, t.issued)
                    };
                    let best = timely(&format!("manual_c{tuned}"));
                    let what = format!("timely share (%) at tuned c={tuned}");
                    let name = format!("tuned_timely_beats_short_{m}_{}", w.name());
                    let short = ("c=2", timely("manual_c2"));
                    checks.push(Check::above(name, &what, best, short).paper_only());
                }
            }
            checks
        },
    }
}

// ---- searched experiments -------------------------------------------------

/// The aggregate search-cost table of a searched experiment: per
/// strategy, the per-machine search requests, the distinct
/// configurations it priced (summed over workloads; each is priced on
/// every machine at once), and the wall seconds.
fn search_cost(res: &ExperimentResult) -> TableSection {
    let strategies = res.searches.first().map_or(0, |s| s.costs.len());
    let rows = (0..strategies)
        .map(|si| {
            let points: usize = res
                .searches
                .iter()
                .flat_map(|s| &s.reports)
                .map(|r| r[si].points.len())
                .sum();
            let configs: usize = res.searches.iter().map(|s| s.costs[si].0).sum();
            let wall: f64 = res.searches.iter().map(|s| s.costs[si].1).sum();
            Row {
                name: res.searches[0].reports[0][si].strategy.to_string(),
                values: vec![points as f64, configs as f64, wall],
            }
        })
        .collect();
    let mut cost = TableSection::new(
        "Search cost (all workloads)",
        ["points", "configurations", "wall_s"]
            .map(String::from)
            .to_vec(),
        rows,
    );
    cost.notes.push(format!(
        "points: per-machine search requests; configurations: distinct \
         configurations priced, each on all {} machines at once \
         (configurations that print alike share one simulation)",
        res.machines.len()
    ));
    cost
}

/// The searched `tune` experiment: find the best look-ahead (and
/// stride-companion toggle, for hill-climbing) per workload × machine,
/// and quantify how close the paper's static `c = 64` heuristic sits to
/// the exhaustive oracle (`heur_%opt`, 100 = optimal). Tuning targets
/// the in-order systems — the machines that cannot hide indirect misses
/// themselves, where the distance actually decides the outcome — over
/// the Fig. 6 sweep workloads. Three strategies run per cell: the
/// exhaustive oracle, golden-section bracketing over the unimodal
/// distance curve, and budgeted hill-climbing. Each candidate is
/// compiled once, and each distinct printed text interpreted once, its
/// event stream fanned out to every machine, so search cost scales with
/// candidates, not candidates × machines.
fn tune(scale: Scale) -> Experiment {
    Experiment {
        spec: ExperimentSpec {
            name: "tune",
            title: "Tuning — searched look-ahead vs. the paper's c=64 heuristic",
            scale,
            machines: vec![MachineConfig::xeon_phi(), MachineConfig::a53()],
            workloads: WorkloadId::FIG6.to_vec(),
            variants: vec![],
            filter: None,
            perf: false,
        },
        search: Some(Search {
            space: Box::new(SearchSpace::paper_default()),
            strategies: vec![
                Box::new(Exhaustive),
                Box::new(GoldenSection),
                Box::new(HillClimb { budget: 16 }),
            ],
        }),
        derive: |res| {
            let columns = column_names(
                "heuristic golden hill oracle heur_%opt gold_%opt best_c pts_gold pts_orac",
            );
            let mut sections: Vec<TableSection> = res
                .machines
                .iter()
                .enumerate()
                .map(|(mi, m)| {
                    let rows = res
                        .searches
                        .iter()
                        .map(|s| {
                            let [oracle, golden, hill] = &s.reports[mi][..] else {
                                unreachable!("three strategies per cell")
                            };
                            Row {
                                name: s.workload.to_string(),
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
                        columns.clone(),
                        rows,
                    )
                })
                .collect();
            sections.push(search_cost(res));
            sections
        },
        checks: |res, _derived| {
            let space = SearchSpace::paper_default();
            let mut checks = Vec::new();
            for s in &res.searches {
                for (m, reports) in res.machines.iter().zip(&s.reports) {
                    let [oracle, golden, hill] = &reports[..] else {
                        unreachable!("three strategies per cell")
                    };
                    let cell = format!("{}_{}", m.name, s.workload);
                    // Tuned configs are never worse than the paper
                    // heuristic (by construction: the heuristic is
                    // always a candidate).
                    for r in [golden, hill] {
                        let (what, chosen) = (format!("{} cycles", r.strategy), r.chosen_cycles);
                        let heuristic = ("heuristic", r.heuristic_cycles as f64);
                        let name = format!("tuned_beats_heuristic_{}_{cell}", r.strategy);
                        checks.push(Check::at_most(name, &what, chosen as f64, heuristic));
                    }
                    // Bracketing must pay: at most half the oracle's points.
                    let golden_points = golden.points.len() as f64;
                    let half = Bound::times(0.5, "exhaustive", oracle.points.len() as f64);
                    let name = format!("golden_frugal_{cell}");
                    checks.push(Check::at_most(name, "golden points", golden_points, half));
                    // Where Fig. 6's unimodality actually holds in the
                    // measured curve, golden-section provably finds the
                    // oracle's optimum.
                    let unimodal = strictly_unimodal(&distance_curve(&space, &oracle.points));
                    checks.push(Check::holds(
                        format!("golden_matches_oracle_{cell}"),
                        !unimodal || golden.chosen_cycles == oracle.chosen_cycles,
                        if unimodal {
                            format!(
                                "unimodal cell: golden {} vs oracle {} cycles",
                                golden.chosen_cycles, oracle.chosen_cycles
                            )
                        } else {
                            "distance curve not strictly unimodal: equivalence not claimed"
                                .to_string()
                        },
                    ));
                }
            }
            checks
        },
    }
}

/// Evaluation budget of `pipeline_search`'s hill-climb.
const PIPELINE_HILL_BUDGET: usize = 5;

/// The searched `pipeline_search` experiment: per workload × machine,
/// search the cleanup-pipeline space for the ordering that minimises
/// simulated cycles, against two references — the compiler's default
/// pipeline (bare `swpf`, what `PassConfig::default()` compiles) and
/// the full heuristic pipeline (`swpf,gvn,sccp,licm,cse,dce`, the
/// space's seed). Both references are candidates, so the searched
/// pipeline is never worse than either by construction; the experiment
/// reports the exact per-cell margin. All machine models participate:
/// the pipeline decides static code quality, which every core model
/// pays for differently. Two strategies run per cell: the exhaustive
/// oracle over the curated candidate set and a budgeted hill-climb
/// along the probe order.
fn pipeline_search(scale: Scale) -> Experiment {
    Experiment {
        spec: ExperimentSpec {
            name: "pipeline_search",
            title: "Pipeline search — searched pass ordering vs. the default pipelines",
            scale,
            machines: MachineConfig::all_systems(),
            workloads: WorkloadId::ALL.to_vec(),
            variants: vec![],
            filter: None,
            perf: false,
        },
        search: Some(Search {
            space: Box::new(PipelineSpace::paper_default()),
            strategies: vec![
                Box::new(Exhaustive),
                Box::new(HillClimb {
                    budget: PIPELINE_HILL_BUDGET,
                }),
            ],
        }),
        derive: |res| {
            let columns =
                column_names("default full searched hill dflt_%srch full_%srch pts_orac pts_hill");
            let mut sections: Vec<TableSection> = res
                .machines
                .iter()
                .enumerate()
                .map(|(mi, m)| {
                    let mut notes = Vec::new();
                    let rows = res
                        .searches
                        .iter()
                        .map(|s| {
                            let [oracle, hill] = &s.reports[mi][..] else {
                                unreachable!("two strategies per cell")
                            };
                            let dflt = s.default_cycles[mi] as f64;
                            notes.push(format!(
                                "{}: searched pipeline `{}`",
                                s.workload, oracle.chosen.pipeline
                            ));
                            Row {
                                name: s.workload.to_string(),
                                values: vec![
                                    dflt,
                                    oracle.heuristic_cycles as f64,
                                    oracle.chosen_cycles as f64,
                                    hill.chosen_cycles as f64,
                                    100.0 * oracle.chosen_cycles as f64 / dflt,
                                    100.0 * oracle.chosen_cycles as f64
                                        / oracle.heuristic_cycles as f64,
                                    oracle.points.len() as f64,
                                    hill.points.len() as f64,
                                ],
                            }
                        })
                        .collect();
                    let mut section = TableSection::new(
                        format!(
                            "Pipeline search ({}) — cycles: default/full pipelines vs. searched",
                            m.name
                        ),
                        columns.clone(),
                        rows,
                    );
                    section.notes.push(
                        "default = bare `swpf`; full = the heuristic cleanup pipeline; \
                         `%srch` columns are searched cycles as a percentage of each \
                         reference (100 = tie, lower = the search won)"
                            .to_string(),
                    );
                    section.notes.extend(notes);
                    section
                })
                .collect();
            sections.push(search_cost(res));
            sections
        },
        checks: |res, _derived| {
            let mut checks = Vec::new();
            let mut strict_wins = 0usize;
            for s in &res.searches {
                for (mi, m) in res.machines.iter().enumerate() {
                    let [oracle, hill] = &s.reports[mi][..] else {
                        unreachable!("two strategies per cell")
                    };
                    let dflt = s.default_cycles[mi];
                    let cell = format!("{}_{}", m.name, s.workload);
                    strict_wins += usize::from(oracle.chosen_cycles < dflt);
                    // The searched pipeline is never worse than either
                    // reference — both are candidates of the space.
                    let full = ("full", oracle.heuristic_cycles as f64);
                    let refs = Bound::min(full, ("default", dflt as f64));
                    let name = format!("searched_never_worse_{cell}");
                    let searched = oracle.chosen_cycles as f64;
                    checks.push(Check::at_most(name, "searched cycles", searched, refs));
                    // The hill-climb seeds at the full pipeline, so it is
                    // never worse than that reference either, on a
                    // fraction of the oracle's budget.
                    checks.push(Check::holds(
                        format!("hill_beats_heuristic_{cell}"),
                        hill.chosen_cycles <= hill.heuristic_cycles
                            && hill.points.len() <= PIPELINE_HILL_BUDGET,
                        format!(
                            "hill {} vs full {} cycles in {} ≤ {PIPELINE_HILL_BUDGET} points",
                            hill.chosen_cycles,
                            hill.heuristic_cycles,
                            hill.points.len(),
                        ),
                    ));
                }
            }
            // The payoff claim: searching pipelines must strictly beat
            // the compiler's default pipeline somewhere, or the whole
            // axis is pointless.
            let cells = res.searches.len() * res.machines.len();
            let what = format!("cells of {cells} where searched strictly beats bare `swpf`");
            let name = "searched_pipeline_strictly_beats_default";
            checks.push(Check::at_least(name, &what, strict_wins as f64, 1.0));
            checks
        },
    }
}

/// Print the experiment catalogue, machine models, and workloads —
/// the `--list` mode of the `all` driver. Runs nothing.
pub fn print_catalog() {
    println!("experiments:");
    for (name, build, default) in CATALOGUE {
        let only = if default { "" } else { " (--only)" };
        println!("  {name:<8} {}{only}", build(Scale::Test).spec.title);
    }
    println!(
        "\nfilters (--bin all):\n  \
         --only <name>   run only the named experiment(s); repeatable, or\n                  \
         comma-separated (e.g. `--only ablation` or `--only fig4,fig9,tune`)\n  \
         --skip <name>   run the default set without the named experiment(s)\n  \
         (default set: every experiment above not marked `(--only)`)"
    );
    println!(
        "\nprofiling:\n  \
         --profile <path> (or SWPF_PROFILE=<path>) records the selected run\n  \
         through swpf-obs into chrome-trace JSON (chrome://tracing, Perfetto,\n  \
         or `--bin prof_report <path>`); composes with --only/--skip, and each\n  \
         artifact gains a windowed `profile` section\n  \
         --perf (or SWPF_PERF=1) enables per-PC prefetch-efficacy profiling for\n  \
         every cell (the `prefetch_profile` experiment enables it itself); cells\n  \
         gain an additive `perf` member, rendered per line by `--bin perf_annotate`"
    );
    println!("\nmachines:");
    for m in MachineConfig::all_systems() {
        println!("  {:<10} ({})", m.name, m.core_kind_name());
    }
    println!("\nworkloads:");
    for w in WorkloadId::ALL {
        println!("  {}", w.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::expand;

    #[test]
    fn every_name_resolves() {
        for (name, _, _) in CATALOGUE {
            assert_eq!(by_name(name, Scale::Test).map(|e| e.spec.name), Some(name));
        }
        assert!(by_name("fig3", Scale::Test).is_none());
    }

    #[test]
    fn catalogue_is_the_grid_experiments_plus_the_searched_ones() {
        for (name, build, default) in CATALOGUE {
            let exp = build(Scale::Test);
            let searched = matches!(name, "tune" | "pipeline_search");
            assert_eq!(exp.search.is_some(), searched, "{name}");
            assert_eq!(default, !searched, "{name}");
            if searched {
                assert!(expand(&exp.spec).is_empty(), "{name} has no grid");
            }
        }
        let tune = tune(Scale::Test);
        assert!(tune.spec.machines.len() >= 2);
        assert!(tune.spec.workloads.len() >= 3);
        let ps = pipeline_search(Scale::Test);
        assert!(ps.spec.machines.len() >= 3);
        assert_eq!(ps.spec.workloads.len(), WorkloadId::ALL.len());
        const { assert!(PIPELINE_HILL_BUDGET >= 2, "hill must get past its seed") };
    }

    #[test]
    fn fig4_grid_shape() {
        let exp = fig4(Scale::Test);
        // 4 machines × 7 workloads × {baseline, auto, manual} + 7 ICC
        // cells on the Phi only.
        assert_eq!(expand(&exp.spec).len(), 4 * 7 * 3 + 7);
    }

    #[test]
    fn fig9_runs_six_multicore_cells_from_two_modules() {
        let exp = fig9(Scale::Test);
        let jobs = expand(&exp.spec);
        assert_eq!(jobs.len(), 6);
        let (mut kernels, mut cores) = (Vec::new(), Vec::new());
        for v in &exp.spec.variants {
            if !kernels.contains(&&v.kernel) {
                kernels.push(&v.kernel);
            }
            if !cores.contains(&v.cores) {
                cores.push(v.cores);
            }
        }
        assert_eq!(kernels.len(), 2, "all core counts share two kernels");
        assert_eq!(cores, FIG9_CORES);
    }

    #[test]
    fn table1_expands_to_no_jobs() {
        assert!(expand(&table1(Scale::Test).spec).is_empty());
    }
}
