//! Multi-core simulation: private L1/L2/TLB per core, shared LLC + DRAM.
//!
//! Reproduces the paper's Fig. 9 experiment: several cores each run their
//! own copy of a benchmark (no sharing, as in the paper, which runs
//! independent program copies) while contending for last-level-cache
//! capacity and DRAM bandwidth. Cores are interleaved by always stepping
//! the one with the smallest local clock, so shared-resource requests
//! arrive in approximately global time order.
//!
//! The module is decoded into an [`ExecImage`] once and shared by every
//! core's engine, so per-core cost is only the (small) frame state.
//!
//! Like the single-core [`crate::Machine`], the interleaver can record
//! each core's retire-event stream while it measures
//! ([`run_multicore_image_traced`]) and re-drive the timing models from
//! a recorded trace with no interpreters at all ([`replay_multicore`]).
//! Replay preserves the direct runner's scheduling exactly: traces
//! carry interpreter-step boundaries, and both paths interleave cores
//! by smallest local clock in 64-step batches, so shared-resource
//! contention — the whole point of Fig. 9 — is reproduced
//! bit-identically.

use crate::cpu::Core;
use crate::machine::{MachineStatsParts, TimingObserver};
use crate::memsys::{MemSys, SharedMem};
use crate::presets::MachineConfig;
use crate::stats::{SimRun, SimStats};
use std::sync::Arc;
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{ExecObserver, Interp, RtVal, Step, Tier};
use swpf_ir::{FuncId, Module};
use swpf_trace::{EventSource, StreamingReplay, Tee, Trace, TraceError, TraceRecorder};

struct CoreSlot {
    interp: Interp,
    core: Core,
    mem: MemSys,
    args: Vec<RtVal>,
    done: bool,
}

/// Interpreter steps per scheduling decision. The scheduler reads the
/// cores' clocks only between batches; replay uses the same constant
/// against the step marks the trace carries.
const BATCH_STEPS: u64 = 64;

/// Steps one interleaved core batch: [`BATCH_STEPS`] interpreter steps
/// (or until the program finishes) in one [`Interp::run_steps`] call,
/// reporting events through the shared [`TimingObserver`] path,
/// optionally tee'd into a per-core trace stream (which takes the step
/// marks through `ExecObserver::end_step`).
fn step_batch(
    i: usize,
    slot: &mut CoreSlot,
    shared: &mut SharedMem,
    recorder: &mut Option<&mut TraceRecorder>,
) {
    let mut obs = TimingObserver {
        core: &mut slot.core,
        mem: &mut slot.mem,
        shared,
    };
    let step = match recorder {
        Some(rec) => slot
            .interp
            .run_steps(BATCH_STEPS, &mut Tee(rec.stream(i), &mut obs)),
        None => slot.interp.run_steps(BATCH_STEPS, &mut obs),
    };
    match step {
        Ok(Step::Continue) => {}
        Ok(Step::Done(_)) => slot.done = true,
        Err(t) => panic!("core {i} trapped: {t}"),
    }
}

/// Run `n_cores` independent copies of `func` against a shared LLC and
/// DRAM channel; returns per-core statistics.
///
/// `setup` is invoked once per core with the core index, so each copy
/// can build its own private data (as the paper does when it runs "four
/// copies of the benchmark simultaneously on four different cores").
///
/// # Panics
/// If any core's program traps.
pub fn run_multicore(
    config: &MachineConfig,
    n_cores: usize,
    module: &Module,
    func: FuncId,
    setup: impl FnMut(usize, &mut Interp) -> Vec<RtVal>,
) -> Vec<SimStats> {
    // Decode the module once; every core's engine shares the image.
    run_multicore_image(
        config,
        n_cores,
        &Arc::new(ExecImage::build(module)),
        func,
        setup,
    )
}

/// Like [`run_multicore`], from an already-decoded image, so callers
/// that already amortised the decode (the experiment harness) skip it
/// here too. `func` must belong to the module `image` was built from.
///
/// # Panics
/// If any core's program traps.
pub fn run_multicore_image(
    config: &MachineConfig,
    n_cores: usize,
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: impl FnMut(usize, &mut Interp) -> Vec<RtVal>,
) -> Vec<SimStats> {
    run_multicore_image_tier(config, n_cores, image, func, Tier::from_env(), setup)
}

/// Like [`run_multicore_image_tier`], returning each core's per-PC
/// profile alongside its stats (see [`crate::perf`]; profiles are `None`
/// unless profiling is enabled).
///
/// # Panics
/// If any core's program traps.
pub fn run_multicore_image_perf(
    config: &MachineConfig,
    n_cores: usize,
    image: &Arc<ExecImage>,
    func: FuncId,
    tier: Tier,
    setup: impl FnMut(usize, &mut Interp) -> Vec<RtVal>,
) -> Vec<SimRun> {
    run_multicore_inner(config, n_cores, image, func, setup, tier, None)
}

/// Like [`run_multicore_image`], but on an explicit execution [`Tier`]
/// instead of the `SWPF_TIER` environment default — the shape the
/// differential suites use to prove tier-identical contention schedules
/// without racing on process-global environment state.
///
/// # Panics
/// If any core's program traps.
pub fn run_multicore_image_tier(
    config: &MachineConfig,
    n_cores: usize,
    image: &Arc<ExecImage>,
    func: FuncId,
    tier: Tier,
    setup: impl FnMut(usize, &mut Interp) -> Vec<RtVal>,
) -> Vec<SimStats> {
    run_multicore_inner(config, n_cores, image, func, setup, tier, None)
        .into_iter()
        .map(|r| r.stats)
        .collect()
}

/// Like [`run_multicore_image`], additionally recording each core's
/// retire-event stream (with step boundaries) into `recorder` while the
/// timing models measure. The recorder must have been built with
/// `n_cores` streams.
///
/// # Panics
/// If any core's program traps, or the recorder has too few streams.
pub fn run_multicore_image_traced(
    config: &MachineConfig,
    n_cores: usize,
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: impl FnMut(usize, &mut Interp) -> Vec<RtVal>,
    recorder: &mut TraceRecorder,
) -> Vec<SimStats> {
    run_multicore_image_traced_perf(
        config,
        n_cores,
        image,
        func,
        Tier::from_env(),
        setup,
        recorder,
    )
    .into_iter()
    .map(|r| r.stats)
    .collect()
}

/// Like [`run_multicore_image_traced`], on an explicit execution
/// [`Tier`], returning each core's per-PC profile alongside its stats.
///
/// # Panics
/// If any core's program traps, or the recorder has too few streams.
pub fn run_multicore_image_traced_perf(
    config: &MachineConfig,
    n_cores: usize,
    image: &Arc<ExecImage>,
    func: FuncId,
    tier: Tier,
    setup: impl FnMut(usize, &mut Interp) -> Vec<RtVal>,
    recorder: &mut TraceRecorder,
) -> Vec<SimRun> {
    run_multicore_inner(config, n_cores, image, func, setup, tier, Some(recorder))
}

fn run_multicore_inner(
    config: &MachineConfig,
    n_cores: usize,
    image: &Arc<ExecImage>,
    func: FuncId,
    mut setup: impl FnMut(usize, &mut Interp) -> Vec<RtVal>,
    tier: Tier,
    mut recorder: Option<&mut TraceRecorder>,
) -> Vec<SimRun> {
    let mut shared = SharedMem::new(config);
    let mut slots: Vec<CoreSlot> = (0..n_cores)
        .map(|i| {
            let mut interp = Interp::with_tier(tier);
            let args = setup(i, &mut interp);
            let mut mem = MemSys::new(config);
            mem.set_address_space(i as u64);
            CoreSlot {
                interp,
                core: Core::new(config),
                mem,
                args,
                done: false,
            }
        })
        .collect();
    for slot in &mut slots {
        slot.interp
            .start_with_image(Arc::clone(image), func, &slot.args);
    }

    // Interleave: step the core with the smallest local clock, in small
    // batches to amortise scheduling overhead; local clocks advance
    // slowly per instruction so interleaving stays fine-grained enough
    // for bandwidth contention.
    loop {
        let next = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .min_by_key(|(_, s)| s.core.clock_ticks())
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        step_batch(i, &mut slots[i], &mut shared, &mut recorder);
    }

    slots
        .iter_mut()
        .map(|s| {
            let stats = MachineStatsParts {
                core: &s.core,
                mem: &s.mem,
                shared: &shared,
            }
            .collect();
            SimRun {
                stats,
                perf: s.mem.take_perf(),
            }
        })
        .collect()
}

/// Re-drive `trace.num_cores()` timing models from a recorded multicore
/// trace — no interpreters, no simulated memory. Scheduling matches
/// [`run_multicore_image`] exactly (smallest-clock-first, 64-step
/// batches, using the step boundaries the trace carries), so the
/// per-core statistics are bit-identical to the direct run the trace
/// was recorded from.
///
/// # Errors
/// Any [`TraceError`] in the encoded streams.
pub fn replay_multicore(
    config: &MachineConfig,
    trace: &Trace,
) -> Result<Vec<SimStats>, TraceError> {
    Ok(replay_multicore_perf(config, trace)?
        .into_iter()
        .map(|r| r.stats)
        .collect())
}

/// Like [`replay_multicore`], returning each core's per-PC profile
/// alongside its stats.
///
/// # Errors
/// Any [`TraceError`] in the encoded streams.
pub fn replay_multicore_perf(
    config: &MachineConfig,
    trace: &Trace,
) -> Result<Vec<SimRun>, TraceError> {
    let cursors = (0..trace.num_cores())
        .map(|i| trace.cursor(i))
        .collect::<Result<Vec<_>, _>>()?;
    replay_multicore_from(config, cursors)
}

/// Like [`replay_multicore`], but streaming each core's events
/// block-at-a-time straight from the v2 trace file — every core gets
/// its own [`swpf_trace::StreamingCursor`] (own file handle), so peak
/// memory is one block window per core regardless of trace length.
/// Scheduling, and therefore every counter, matches [`replay_multicore`]
/// on the decoded trace bit-for-bit.
///
/// # Errors
/// Any [`TraceError`] in the file.
pub fn streaming_replay_multicore(
    config: &MachineConfig,
    replay: &StreamingReplay,
) -> Result<Vec<SimStats>, TraceError> {
    Ok(streaming_replay_multicore_perf(config, replay)?
        .into_iter()
        .map(|r| r.stats)
        .collect())
}

/// Like [`streaming_replay_multicore`], returning each core's per-PC
/// profile alongside its stats.
///
/// # Errors
/// Any [`TraceError`] in the file.
pub fn streaming_replay_multicore_perf(
    config: &MachineConfig,
    replay: &StreamingReplay,
) -> Result<Vec<SimRun>, TraceError> {
    let cursors = (0..replay.num_cores())
        .map(|i| replay.cursor(i))
        .collect::<Result<Vec<_>, _>>()?;
    replay_multicore_from(config, cursors)
}

/// The [`EventSource`]-generic interleaver behind both replay flavours:
/// smallest-local-clock-first, 64-step batches, step boundaries from
/// the trace — exactly the direct runner's schedule.
fn replay_multicore_from<S: EventSource>(
    config: &MachineConfig,
    cursors: Vec<S>,
) -> Result<Vec<SimRun>, TraceError> {
    struct ReplaySlot<S> {
        cursor: S,
        core: Core,
        mem: MemSys,
        done: bool,
    }
    let mut shared = SharedMem::new(config);
    let mut slots: Vec<ReplaySlot<S>> = cursors
        .into_iter()
        .enumerate()
        .map(|(i, cursor)| {
            let mut mem = MemSys::new(config);
            mem.set_address_space(i as u64);
            ReplaySlot {
                cursor,
                core: Core::new(config),
                mem,
                done: false,
            }
        })
        .collect();

    loop {
        let next = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .min_by_key(|(_, s)| s.core.clock_ticks())
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        let slot = &mut slots[i];
        'batch: for _ in 0..BATCH_STEPS {
            // One interpreter step = events up to an end-of-step mark.
            loop {
                let Some((ev, end_of_step)) = slot.cursor.next_event()? else {
                    slot.done = true;
                    break 'batch;
                };
                let mut obs = TimingObserver {
                    core: &mut slot.core,
                    mem: &mut slot.mem,
                    shared: &mut shared,
                };
                obs.on_event(&ev);
                if end_of_step {
                    break;
                }
            }
        }
    }

    Ok(slots
        .iter_mut()
        .map(|s| {
            let stats = MachineStatsParts {
                core: &s.core,
                mem: &s.mem,
                shared: &shared,
            }
            .collect();
            SimRun {
                stats,
                perf: s.mem.take_perf(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swpf_ir::prelude::*;

    /// A bandwidth-hungry random-walk kernel: every load misses.
    fn pointer_chase_module() -> Module {
        let mut m = Module::new("t");
        let fid = m.declare_function("chase", &[Type::Ptr, Type::I64], Type::I64);
        let mut b = FunctionBuilder::new(m.function_mut(fid));
        let (a, n) = (b.arg(0), b.arg(1));
        let entry = b.entry_block();
        let header = b.create_block("h");
        let body = b.create_block("b");
        let exit = b.create_block("x");
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64, &[(entry, zero)]);
        let cur = b.phi(Type::I64, &[(entry, zero)]);
        let c = b.icmp(Pred::Slt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let g = b.gep(a, cur, 8);
        let nxt = b.load(Type::I64, g);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(cur, body, nxt);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(cur));
        let _ = b;
        m
    }

    fn setup_ring(interp: &mut Interp, elems: u64) -> u64 {
        let a = interp.alloc_array(elems, 8).unwrap();
        // A random-ish permutation ring so every access is a fresh line.
        let mut idx: Vec<u64> = (1..elems).collect();
        let mut x = 88172645463325252u64;
        for i in (1..idx.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % (i as u64 + 1)) as usize;
            idx.swap(i, j);
        }
        let mut cur = 0u64;
        for &next in &idx {
            interp.mem().write(a + cur * 8, 8, next).unwrap();
            cur = next;
        }
        interp.mem().write(a + cur * 8, 8, 0).unwrap();
        a
    }

    #[test]
    fn contention_slows_each_core() {
        let m = pointer_chase_module();
        let f = m.find_function("chase").unwrap();
        let cfg = MachineConfig::haswell();
        let elems = 1u64 << 15; // 256 KiB per core: misses LLC when shared
        let iters = 2000i64;

        let solo = run_multicore(&cfg, 1, &m, f, |_, interp| {
            let a = setup_ring(interp, elems);
            vec![RtVal::Int(a as i64), RtVal::Int(iters)]
        });
        let quad = run_multicore(&cfg, 4, &m, f, |_, interp| {
            let a = setup_ring(interp, elems);
            vec![RtVal::Int(a as i64), RtVal::Int(iters)]
        });
        assert_eq!(quad.len(), 4);
        let solo_c = solo[0].cycles;
        let worst = quad.iter().map(|s| s.cycles).max().unwrap();
        assert!(
            worst > solo_c,
            "sharing the LLC and DRAM must cost something: {solo_c} vs {worst}"
        );
    }

    /// Replay equivalence under contention: recording a multicore run
    /// does not perturb it, and replaying the (envelope round-tripped)
    /// trace — in memory and streamed from its file — reproduces every
    /// core's counters bit-for-bit, on 1/2/4 cores of both core kinds.
    /// The replays schedule by the step marks the recording took through
    /// `ExecObserver::end_step`, so a lost or misplaced mark shows up as
    /// a diverging counter as soon as two cores contend.
    #[test]
    fn multicore_replay_is_bit_identical() {
        let m = pointer_chase_module();
        let f = m.find_function("chase").unwrap();
        let image = Arc::new(ExecImage::build(&m));
        let setup = |_: usize, interp: &mut Interp| {
            let a = setup_ring(interp, 1 << 12);
            vec![RtVal::Int(a as i64), RtVal::Int(500)]
        };
        for cfg in [MachineConfig::haswell(), MachineConfig::a53()] {
            for n in [1usize, 2, 4] {
                let direct = run_multicore_image(&cfg, n, &image, f, setup);
                let mut rec = TraceRecorder::new(n, 0);
                let traced = run_multicore_image_traced(&cfg, n, &image, f, setup, &mut rec);
                let bytes = rec.finish().to_bytes();
                let trace = Trace::from_bytes(&bytes).unwrap();

                // One mark per interpreter step: phi copies retire with
                // their branch, so there are fewer steps than events.
                let mut cursor = trace.cursor(0).unwrap();
                let mut marks = 0u64;
                while let Some((_, end_of_step)) = cursor.next_event().unwrap() {
                    marks += u64::from(end_of_step);
                }
                assert!(marks > 0 && marks < trace.events(0), "{marks} step marks");

                let replayed = replay_multicore(&cfg, &trace).unwrap();
                let path = std::env::temp_dir().join(format!(
                    "swpf_mc_{}_{}_{n}.trace",
                    std::process::id(),
                    cfg.name
                ));
                std::fs::write(&path, &bytes).expect("trace written");
                let streamed = {
                    let replay = StreamingReplay::open(&path).expect("streaming open");
                    streaming_replay_multicore(&cfg, &replay).expect("streaming replay")
                };
                std::fs::remove_file(&path).ok();
                assert_eq!(replayed.len(), n);
                assert_eq!(streamed.len(), n);
                for (i, (((d, t), r), s)) in direct
                    .iter()
                    .zip(&traced)
                    .zip(&replayed)
                    .zip(&streamed)
                    .enumerate()
                {
                    let at = format!("core {i} of {n} on {}", cfg.name);
                    assert_eq!(d.counters(), t.counters(), "recording perturbed {at}");
                    assert_eq!(d.counters(), r.counters(), "replay diverged on {at}");
                    assert_eq!(
                        d.counters(),
                        s.counters(),
                        "streaming replay diverged on {at}"
                    );
                }
            }
        }
    }
}
