//! Dev tool: where an in-process run of named experiments spends its
//! CPU time, per function — a sampling profiler for hosts without
//! `perf`. It repeats the experiments (one worker thread, the default
//! in-memory trace policy) until `--seconds` of wall time have passed,
//! sampling the interrupted program counter on every `SIGPROF` of a
//! `setitimer(ITIMER_PROF)` clock, then symbolises the samples with
//! `nm` and prints each function's share. Samples that land outside
//! the executable (the C library's `memset` / `memcpy`, the vDSO) are
//! reported under their mapping's file name. Inlined code is charged to
//! the function it was inlined into.
//!
//! It also prints the minimum, first quartile and median of the rounds'
//! wall times and of each experiment's own part of every round (a change
//! that moves one experiment shows up in its own line), and an FNV-1a
//! digest of every cell's `SimStats` per experiment (every round must
//! give the same digests). One run on each side of a timing-model change
//! then checks both its speed and its exactness.
//!
//! ```sh
//! SWPF_SCALE=test cargo run --release -p swpf-bench --example sample_profile -- \
//!     [--seconds S] [--top N] fig7,fig9,fig10
//! ```
//!
//! Linux on x86_64 only: the program counter is read from the signal's
//! `ucontext_t` at that ABI's offset.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    sampler::main();
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("sample_profile: SIGPROF sampling is implemented for linux/x86_64 only");
    std::process::exit(2);
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::collections::HashMap;
    use std::ffi::c_void;
    use std::process::Command;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};
    use swpf_bench::experiments;
    use swpf_bench::harness::{run_experiment, ExperimentResult, RunOptions};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offset of `uc_mcontext.gregs[REG_RIP]` in x86_64 glibc's
    /// `ucontext_t`: `uc_flags`, `uc_link` and the 24-byte `stack_t`
    /// come first, and `REG_RIP` is general register 16.
    const RIP_OFFSET: usize = 8 + 8 + 24 + 16 * 8;
    /// Sampling period.
    const PERIOD_US: i64 = 1000;
    const MAX_SAMPLES: usize = 1 << 18;

    static SAMPLES: [AtomicUsize; MAX_SAMPLES] = [const { AtomicUsize::new(0) }; MAX_SAMPLES];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    /// x86_64 glibc's `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    /// Async-signal-safe: one atomic increment and one atomic store.
    extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
        // SAFETY: the kernel passes a valid `ucontext_t` to an
        // `SA_SIGINFO` handler; RIP_OFFSET is inside its `gregs`.
        let pc = unsafe { ctx.cast::<u8>().add(RIP_OFFSET).cast::<usize>().read() };
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if i < MAX_SAMPLES {
            SAMPLES[i].store(pc, Ordering::Relaxed);
        }
    }

    fn set_timer(period_us: i64) {
        let tv = || TimeVal {
            sec: 0,
            usec: period_us,
        };
        let timer = ITimerVal {
            interval: tv(),
            value: tv(),
        };
        // SAFETY: a valid `itimerval`; the old value is not wanted.
        let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer failed");
    }

    fn install_handler() {
        let handler: extern "C" fn(i32, *mut c_void, *mut c_void) = on_sigprof;
        let act = SigAction {
            handler: handler as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: a fully initialised `struct sigaction` whose handler
        // only touches atomics.
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction failed");
    }

    /// One mapping of this process: `[start, end)`, the file offset it
    /// maps, whether it holds code, and the file.
    struct Mapping {
        start: usize,
        end: usize,
        offset: usize,
        executable: bool,
        path: String,
    }

    fn mappings() -> Vec<Mapping> {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        maps.lines()
            .filter_map(|line| {
                let mut f = line.split_whitespace();
                let (range, perms, offset) = (f.next()?, f.next()?, f.next()?);
                let path = f.nth(2).unwrap_or("[anonymous]").to_string();
                let (start, end) = range.split_once('-')?;
                Some(Mapping {
                    start: usize::from_str_radix(start, 16).ok()?,
                    end: usize::from_str_radix(end, 16).ok()?,
                    offset: usize::from_str_radix(offset, 16).ok()?,
                    executable: perms.contains('x'),
                    path,
                })
            })
            .collect()
    }

    /// `(address, name)` of every text symbol of `exe`, by address.
    fn text_symbols(exe: &str) -> Vec<(usize, String)> {
        let out = Command::new("nm")
            .args(["-C", "-n", "--defined-only", exe])
            .output()
            .expect("run nm");
        let mut symbols: Vec<(usize, String)> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|line| {
                let (addr, rest) = line.split_once(' ')?;
                let (kind, name) = rest.split_once(' ')?;
                if !matches!(kind, "t" | "T" | "w" | "W") {
                    return None;
                }
                Some((usize::from_str_radix(addr, 16).ok()?, strip_hash(name)))
            })
            .collect();
        symbols.sort_by_key(|s| s.0);
        symbols
    }

    /// `a::b::h0123456789abcdef` → `a::b`.
    fn strip_hash(name: &str) -> String {
        match name.rsplit_once("::h") {
            Some((head, hash))
                if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
            {
                head.to_string()
            }
            _ => name.to_string(),
        }
    }

    fn file_name(path: &str) -> &str {
        path.rsplit('/').next().unwrap_or(path)
    }

    /// FNV-1a over every cell's key and every counter of each of its
    /// cores' `SimStats`, in job order.
    fn stats_digest(result: &ExperimentResult) -> u64 {
        let mut text = String::new();
        for cell in &result.cells {
            text += &format!("{}|{}|{}", cell.machine, cell.workload, cell.variant);
            for core in &cell.cores {
                for (name, value) in core.counters() {
                    text += &format!("|{name}={value}");
                }
            }
            text.push('\n');
        }
        swpf_trace::fnv64(text.as_bytes())
    }

    pub fn main() {
        let mut seconds = 20.0f64;
        let mut top = 25usize;
        let mut names: Vec<String> = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seconds" => {
                    seconds = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seconds S")
                }
                "--top" => top = args.next().and_then(|v| v.parse().ok()).expect("--top N"),
                list => names.extend(list.split(',').map(str::to_string)),
            }
        }
        if names.is_empty() {
            names = ["fig7", "fig9", "fig10"].map(String::from).to_vec();
        }
        let scale = swpf_bench::scale_from_env_or_exit();
        let exps: Vec<_> = names
            .iter()
            .map(|n| {
                experiments::by_name(n, scale)
                    .unwrap_or_else(|| panic!("`{n}` is not a grid experiment (see `all --list`)"))
            })
            .collect();
        let opts = RunOptions {
            threads: 1,
            ..RunOptions::default()
        };

        install_handler();
        set_timer(PERIOD_US);
        let t0 = Instant::now();
        let mut round_walls = Vec::new();
        // Each experiment's own wall in every round, by experiment.
        let mut exp_walls: Vec<Vec<f64>> = vec![Vec::new(); exps.len()];
        let mut digests: Vec<u64> = Vec::new();
        while round_walls.is_empty() || t0.elapsed() < Duration::from_secs_f64(seconds) {
            let round = Instant::now();
            let results: Vec<_> = exps
                .iter()
                .zip(&mut exp_walls)
                .map(|(e, walls)| {
                    let start = Instant::now();
                    let result = run_experiment(e, &opts);
                    walls.push(start.elapsed().as_secs_f64());
                    result
                })
                .collect();
            round_walls.push(round.elapsed().as_secs_f64());
            let round_digests: Vec<u64> = results.iter().map(stats_digest).collect();
            if digests.is_empty() {
                digests = round_digests;
            } else {
                assert_eq!(digests, round_digests, "a round's SimStats differ");
            }
        }
        set_timer(0);
        let wall = t0.elapsed().as_secs_f64();
        let rounds = round_walls.len();

        let taken = TAKEN.load(Ordering::Relaxed).min(MAX_SAMPLES);
        let exe = std::env::current_exe().expect("current_exe");
        let exe = exe.to_string_lossy().into_owned();
        let maps = mappings();
        // The load bias: where the first segment (file offset and
        // virtual address 0 in a position-independent executable) sits;
        // `nm` prints virtual addresses.
        let base = maps
            .iter()
            .find(|m| m.path == exe && m.offset == 0)
            .map(|m| m.start)
            .expect("the executable is mapped");
        let symbols = text_symbols(&exe);

        let mut shares: HashMap<String, u64> = HashMap::new();
        for sample in &SAMPLES[..taken] {
            let pc = sample.load(Ordering::Relaxed);
            let mapping = maps
                .iter()
                .find(|m| m.executable && (m.start..m.end).contains(&pc));
            let name = match mapping {
                Some(m) if m.path == exe => {
                    let vaddr = pc - base;
                    let i = symbols.partition_point(|s| s.0 <= vaddr);
                    i.checked_sub(1).map_or_else(
                        || "[executable, no symbol]".to_string(),
                        |i| symbols[i].1.clone(),
                    )
                }
                Some(m) => format!("[{}]", file_name(&m.path)),
                None => "[unmapped]".to_string(),
            };
            *shares.entry(name).or_default() += 1;
        }
        let mut rows: Vec<(String, u64)> = shares.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let outside: u64 = rows
            .iter()
            .filter(|r| r.0.starts_with('['))
            .map(|r| r.1)
            .sum();

        println!(
            "{taken} sample(s) over {rounds} round(s) of {} in {wall:.1} s ({})",
            names.join(","),
            scale.label()
        );
        let pct = |n: u64| 100.0 * n as f64 / taken.max(1) as f64;
        println!("{:>7}  {:>7}  function", "share", "samples");
        for (name, n) in rows.iter().take(top) {
            println!("{:>6.1}%  {n:>7}  {name}", pct(*n));
        }
        println!(
            "{:>6.1}%  {outside:>7}  (outside the executable, all mappings)",
            pct(outside)
        );
        // Nearest rank, rounding down.
        let quartiles = |walls: &mut [f64]| {
            walls.sort_by(f64::total_cmp);
            let rank = |q: usize| walls[(rounds - 1) * q / 4] * 1e3;
            format!(
                "min {:.2} ms, q1 {:.2} ms, median {:.2} ms",
                rank(0),
                rank(1),
                rank(2)
            )
        };
        println!(
            "round wall: {} over {rounds} round(s)",
            quartiles(&mut round_walls)
        );
        for (name, walls) in names.iter().zip(&mut exp_walls) {
            println!("  {name} wall: {}", quartiles(walls));
        }
        for (name, digest) in names.iter().zip(&digests) {
            println!("SimStats digest {name}: {digest:016x}");
        }
    }
}
