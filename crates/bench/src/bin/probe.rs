//! Developer tool: full stats for one workload / machine / look-ahead.
//! Usage: `probe <bench> <machine> <c>`

use swpf_bench::{scale_from_env_or_exit, simulate};
use swpf_sim::MachineConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench = args.get(1).map_or("IS", |s| s.as_str());
    let machine_name = args.get(2).map_or("a53", |s| s.as_str());
    let c: i64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(64);
    let machine = MachineConfig::all_systems()
        .into_iter()
        .find(|m| m.name == machine_name)
        .expect("unknown machine");
    let suite = swpf_workloads::suite(scale_from_env_or_exit());
    let w = suite
        .iter()
        .find(|w| w.name() == bench)
        .expect("unknown bench");
    let base = simulate(&machine, w.as_ref(), &w.build_baseline());
    let man = simulate(&machine, w.as_ref(), &w.build_manual(c));
    println!("{bench} on {machine_name}, c={c}:");
    println!("  base: {base:?}");
    println!("  man : {man:?}");
    println!("  speedup {:.2}", man.speedup_vs(&base));
}
