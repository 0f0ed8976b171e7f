//! `perf annotate` for the simulator: run one workload × variant ×
//! machine cell with per-PC prefetch-efficacy profiling enabled and
//! print the kernel IR with a per-line gutter — attributed demand-load
//! stall cycles against load lines (`>` marks lines carrying ≥ 10 % of
//! the total), outcome breakdowns under prefetch lines.
//!
//! The join key is the event PC (`pc = fid << 32 | value_id`), which
//! [`swpf_ir::printer::print_function_lines`] reports per printed line —
//! so the annotation is exact, not heuristic.
//!
//! Usage: `perf_annotate [WORKLOAD [VARIANT [MACHINE]]]`
//! * `WORKLOAD`: a suite workload name (`IS`, `CG`, `RA`, ...; default `IS`)
//! * `VARIANT`: `baseline` | `auto` | `manual` | `manual_c<N>` (default `auto`)
//! * `MACHINE`: `haswell` | `xeon_phi` | `a57` | `a53` (default `haswell`)
//!
//! The workload scale comes from `SWPF_SCALE` and the tier from
//! `SWPF_TIER`, as everywhere else. An unknown name or a malformed
//! variable is one `error:` line and exit status 2.

#![allow(clippy::cast_precision_loss)]

use std::collections::HashMap;
use swpf_bench::harness::exit_with_usage_error;
use swpf_bench::{auto_module, scale_from_env};
use swpf_core::PassConfig;
use swpf_ir::interp::Tier;
use swpf_ir::printer::print_function_lines;
use swpf_sim::{MachineConfig, Sim, SiteProfile, Source, StallStat};

/// Percentage of `part` in `total` (0 when `total` is 0).
fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// One prefetch site's outcome breakdown, rendered for the gutter.
fn site_annotation(s: &SiteProfile) -> String {
    format!(
        "issued {}: {:.1}% timely, {:.1}% late, {:.1}% early-evicted, \
         {:.1}% redundant, {:.1}% dropped, {:.1}% unused; mean lead {:.0} cyc",
        s.issued,
        pct(s.timely, s.issued),
        pct(s.late, s.issued),
        pct(s.early_evicted, s.issued),
        pct(s.redundant(), s.issued),
        pct(s.dropped, s.issued),
        pct(s.unused_at_end, s.issued),
        s.lead_cycles.mean(),
    )
}

const USAGE: &str = "[WORKLOAD [VARIANT [MACHINE]]]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wname = args.first().map_or("IS", String::as_str);
    let vname = args.get(1).map_or("auto", String::as_str);
    let mname = args.get(2).map_or("haswell", String::as_str);
    let fail = |e: String| -> ! { exit_with_usage_error(&e, USAGE) };

    let scale = scale_from_env().unwrap_or_else(|e| fail(e));
    let tier = Tier::try_from_env().unwrap_or_else(|e| fail(e));
    let suite = swpf_workloads::suite(scale);
    let Some(w) = suite.iter().find(|w| w.name() == wname) else {
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        fail(format!(
            "unknown workload `{wname}` (expected one of {})",
            names.join(", ")
        ))
    };
    let w = w.as_ref();
    let Some(machine) = MachineConfig::all_systems()
        .into_iter()
        .find(|m| m.name == mname)
    else {
        fail(format!(
            "unknown machine `{mname}` (expected haswell | xeon_phi | a57 | a53)"
        ))
    };
    let config = PassConfig::default();
    let module = match vname {
        "baseline" => w.build_baseline(),
        "auto" => auto_module(w, &config),
        "manual" => w.build_manual(config.look_ahead),
        v => match v
            .strip_prefix("manual_c")
            .and_then(|n| n.parse::<i64>().ok())
        {
            Some(c) => w.build_manual(c),
            None => fail(format!(
                "unknown variant `{v}` (expected baseline | auto | manual | manual_c<N>)"
            )),
        },
    };

    let sim = Sim {
        machines: &[&machine],
        cores: 1,
        tier,
        perf: true,
    };
    let run = Source::module(&module, "kernel", &mut |_, i| w.setup(i))
        .and_then(|source| sim.run(source))
        .unwrap_or_else(|e| panic!("{wname}/{vname} on {mname}: {e}"))
        .remove(0);
    let profile = run.perf.as_ref().expect("the request asked for a profile");
    let stats = &run.stats;

    let sites: HashMap<u64, &SiteProfile> = profile.sites.iter().map(|(pc, s)| (*pc, s)).collect();
    let stalls: HashMap<u64, &StallStat> = profile.stalls.iter().map(|(pc, s)| (*pc, s)).collect();
    let total_stall = profile.total_stall_cycles();
    let totals = profile.totals();

    println!(
        "perf annotate — {wname}/{vname} on {mname} [scale={}]",
        scale.label()
    );
    println!(
        "cycles {}  insts {}  ipc {:.2}",
        stats.cycles,
        stats.insts.total,
        stats.ipc()
    );
    // On out-of-order cores the attribution is overlap-inclusive (each
    // long miss charges its own exposed latency), so the ratio can
    // exceed 1 — it ranks lines, it does not partition the cycle count.
    println!(
        "attributed demand-load stall cycles: {total_stall} ({:.2}x cycles, overlap-inclusive) across {} load PCs",
        total_stall as f64 / stats.cycles.max(1) as f64,
        profile.stalls.len(),
    );
    println!(
        "prefetch outcomes across {} sites — {}",
        profile.sites.len(),
        site_annotation(&totals)
    );

    for fid in module.func_ids() {
        let (text, lines) = print_function_lines(&module, module.function(fid));
        println!();
        for (line, v) in text.lines().zip(&lines) {
            let pc = v.map(|v| (u64::from(fid.0) << 32) | u64::from(v.0));
            let gutter = match pc.and_then(|pc| stalls.get(&pc)) {
                Some(st) => {
                    let share = pct(st.stall_cycles(), total_stall);
                    let mark = if share >= 10.0 { '>' } else { ' ' };
                    format!("{mark}{share:>5.1}%")
                }
                None => " ".repeat(7),
            };
            println!("{gutter} | {line}");
            if let Some(site) = pc.and_then(|pc| sites.get(&pc)) {
                println!("{:7} |     ^ {}", "", site_annotation(site));
            }
        }
    }
}
