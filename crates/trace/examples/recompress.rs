//! Dev tool: report each trace file's raw payload and re-encoded size
//! and the block codec's throughput on it — `to_bytes`
//! (checksum + match search + entropy coding) and `from_bytes`
//! (entropy decode + match copy + checksum), min of `--reps N` runs
//! (default 25), in MB/s of *uncompressed* payload.
//!
//! ```sh
//! cargo run --release -p swpf-trace --example recompress -- [--reps N] file.trace...
//! ```

use std::time::{Duration, Instant};
use swpf_trace::Trace;

fn min_time<R>(reps: u32, mut f: impl FnMut() -> R) -> Duration {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .min()
        .unwrap_or_default()
}

#[allow(clippy::cast_precision_loss)]
fn mb_per_s(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / 1e6 / d.as_secs_f64().max(1e-9)
}

#[allow(clippy::cast_precision_loss)]
fn main() {
    let mut reps = 25u32;
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--reps" {
            reps = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .expect("--reps takes a positive integer");
        } else {
            paths.push(a);
        }
    }
    println!(
        "{:<44} {:>10} {:>10} {:>7} {:>11} {:>11}",
        "file", "raw B", "file B", "ratio", "enc MB/s", "dec MB/s"
    );
    let (mut raw_sum, mut file_sum) = (0usize, 0usize);
    let (mut enc_sum, mut dec_sum) = (Duration::ZERO, Duration::ZERO);
    for path in &paths {
        let bytes = std::fs::read(path).expect("read trace");
        let trace = Trace::from_bytes(&bytes).expect("decode");
        let raw = trace.payload_bytes();
        let file = trace.to_bytes();
        let enc = min_time(reps, || trace.to_bytes());
        let dec = min_time(reps, || Trace::from_bytes(&file).expect("decode"));
        let name = std::path::Path::new(path)
            .file_name()
            .map_or(path.as_str().into(), |n| n.to_string_lossy());
        println!(
            "{name:<44} {raw:>10} {:>10} {:>6.3}x {:>11.1} {:>11.1}",
            file.len(),
            raw as f64 / file.len() as f64,
            mb_per_s(raw, enc),
            mb_per_s(raw, dec),
        );
        raw_sum += raw;
        file_sum += file.len();
        enc_sum += enc;
        dec_sum += dec;
    }
    if paths.len() > 1 {
        println!(
            "{:<44} {raw_sum:>10} {file_sum:>10} {:>6.3}x {:>11.1} {:>11.1}   (encode {:.2} ms, decode {:.2} ms)",
            "total",
            raw_sum as f64 / file_sum.max(1) as f64,
            mb_per_s(raw_sum, enc_sum),
            mb_per_s(raw_sum, dec_sum),
            enc_sum.as_secs_f64() * 1e3,
            dec_sum.as_secs_f64() * 1e3,
        );
    }
}
