//! Multi-core simulation: private L1/L2/TLB per core, shared LLC + DRAM.
//!
//! Reproduces the paper's Fig. 9 experiment: several cores each run their
//! own copy of a benchmark (no sharing, as in the paper, which runs
//! independent program copies) while contending for last-level-cache
//! capacity and DRAM bandwidth. Cores are interleaved by always stepping
//! the one with the smallest local clock, so shared-resource requests
//! arrive in approximately global time order.
//!
//! These are the two multicore implementations behind [`crate::Sim`]
//! (`cores > 1`): `interpret` drives one interpreter per core over a
//! shared image, optionally recording each core's retire-event
//! stream with its step boundaries; `replay` re-drives the timing
//! models from such a recording with no interpreters at all. Both are
//! one `interleave` skeleton with a different batch body, so replay
//! preserves the direct run's schedule exactly — smallest local clock
//! first, 64 interpreter steps (`BATCH_STEPS`) per decision — and
//! shared-resource contention, the whole point of Fig. 9, is reproduced
//! bit-identically. The skeleton is generic over the core model, chosen
//! once per run, so each batch hands its driver a typed [`Lane`].

use crate::cpu::{by_model, CoreModel};
use crate::machine::{sim_run, Lane};
use crate::memsys::{MemSys, SharedMem};
use crate::presets::MachineConfig;
use crate::request::{Setup, Sim, SimError};
use crate::stats::SimRun;
use std::sync::Arc;
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{ExecObserver, Interp, Step};
use swpf_ir::FuncId;
use swpf_trace::{EventSource, StreamEncoder, Tee, TraceError};

/// Interpreter steps per scheduling decision. The scheduler reads the
/// cores' clocks only between batches; replay uses the same constant
/// against the step marks the trace carries.
const BATCH_STEPS: u64 = 64;

/// One interleaved core: what feeds it events (an interpreter, or a
/// trace cursor) and its private timing model.
struct Slot<D, C> {
    driver: D,
    core: C,
    mem: MemSys,
    done: bool,
}

/// The interleaver: one private core model + memory system per driver
/// (profiled when `perf`) against one shared LLC and DRAM channel.
/// Repeatedly hands the unfinished core with the smallest local clock
/// to `batch`, which feeds it one batch of events and reports whether
/// its driver is done — small batches amortise the scheduling
/// decision, and local clocks advance slowly per instruction, so the
/// interleaving stays fine-grained enough for bandwidth contention.
/// `drivers` is pulled lazily, so each core's driver and timing model
/// are built together.
fn interleave<C: CoreModel, D>(
    config: &MachineConfig,
    perf: bool,
    drivers: impl Iterator<Item = Result<D, SimError>>,
    mut batch: impl FnMut(usize, &mut D, &mut Lane<'_, C>) -> Result<bool, SimError>,
) -> Result<Vec<SimRun>, SimError> {
    let mut shared = SharedMem::new(config);
    let mut slots = drivers
        .enumerate()
        .map(|(i, driver)| {
            let mut mem = MemSys::with_perf(config, perf);
            mem.set_address_space(i as u64);
            Ok(Slot {
                driver: driver?,
                core: C::new(config),
                mem,
                done: false,
            })
        })
        .collect::<Result<Vec<_>, SimError>>()?;
    loop {
        let next = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .min_by_key(|(_, s)| s.core.clock_ticks())
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        let slot = &mut slots[i];
        let mut lane = Lane {
            core: &mut slot.core,
            mem: &mut slot.mem,
            shared: &mut shared,
        };
        slot.done = batch(i, &mut slot.driver, &mut lane)?;
    }
    Ok(slots
        .iter_mut()
        .map(|s| sim_run(s.core.clock_ticks(), s.core.counts(), &mut s.mem, &shared))
        .collect())
}

/// Run `sim.cores` independent copies of `func` on `config`, one
/// interpreter each over the shared decoded `image`; `setup` is invoked
/// once per core with the core index, so each copy builds its own
/// private data (as the paper does when it runs "four copies of the
/// benchmark simultaneously on four different cores"). With `record`,
/// each core's stream is tee'd into its encoder, which takes the step
/// marks through `ExecObserver::end_step`.
pub(crate) fn interpret(
    config: &MachineConfig,
    sim: &Sim<'_>,
    image: &Arc<ExecImage>,
    func: FuncId,
    setup: &mut Setup<'_>,
    mut record: Option<&mut [StreamEncoder]>,
) -> Result<Vec<SimRun>, SimError> {
    let interps = (0..sim.cores).map(|i| {
        let mut interp = Interp::with_tier(sim.tier);
        let args = setup(i, &mut interp);
        interp.start_with_image(Arc::clone(image), func, &args);
        Ok(interp)
    });
    by_model!(
        config.core,
        C,
        interleave::<C, _>(config, sim.perf, interps, |i, interp: &mut Interp, lane| {
            let step = match &mut record {
                Some(rec) => interp.run_steps(BATCH_STEPS, &mut Tee(&mut rec[i], lane)),
                None => interp.run_steps(BATCH_STEPS, lane),
            }?;
            Ok(matches!(step, Step::Done(_)))
        })
    )
}

/// Re-drive `sim.cores` timing models on `config` from a recorded
/// multicore trace — `cursor(core)` opens it in memory or
/// block-at-a-time from the file, whatever `S` is. One interpreter step
/// is the events up to an end-of-step mark.
pub(crate) fn replay<S: EventSource>(
    config: &MachineConfig,
    sim: &Sim<'_>,
    cursor: impl Fn(usize) -> Result<S, TraceError>,
) -> Result<Vec<SimRun>, SimError> {
    let cursors = (0..sim.cores).map(|i| Ok(cursor(i)?));
    by_model!(
        config.core,
        C,
        interleave::<C, _>(config, sim.perf, cursors, |_, cursor: &mut S, lane| {
            for _ in 0..BATCH_STEPS {
                loop {
                    let Some((ev, end_of_step)) = cursor.next_event()? else {
                        return Ok(true);
                    };
                    lane.on_event(&ev);
                    if end_of_step {
                        break;
                    }
                }
            }
            Ok(false)
        })
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_multicore;
    use swpf_ir::interp::RtVal;
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
}
