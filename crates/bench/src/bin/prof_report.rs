//! Render a `swpf-obs` chrome-trace profile artifact (written by
//! `--profile <path>`) as the human-readable summary table: per-phase
//! count / total / self wall time, plus the counter and histogram
//! catalogues.
//!
//! The artifact stays a plain Chrome trace-event file — loadable in
//! `chrome://tracing` or Perfetto — and this binary reconstructs a
//! [`swpf_obs::Profile`] from it via [`swpf_bench::prof`] (including
//! histograms, reassembled from their `hist:` counter series), so the
//! table here and the timeline there always describe the same capture.
//!
//! ```sh
//! cargo run --release -p swpf-bench --bin all -- --only fig4 --profile prof.json
//! cargo run --release -p swpf-bench --bin prof_report -- prof.json
//! ```

use swpf_bench::json::Json;
use swpf_bench::prof::profile_from_chrome;

fn main() -> std::process::ExitCode {
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: prof_report <profile.json>...");
        return std::process::ExitCode::FAILURE;
    }
    let many = paths.len() > 1;
    paths.sort();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        let profile = match Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| profile_from_chrome(&doc))
        {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        if many {
            println!("==> {path} <==");
        }
        print!("{}", profile.summary().render());
        if many {
            println!();
        }
    }
    std::process::ExitCode::SUCCESS
}
