//! The timing model against its reference (`reference.rs`), event by
//! event.
//!
//! Each simulated core runs twice. The reference core drives a tee of
//! the reference hierarchy and a production [`MemSys`]: every access and
//! prefetch it makes reaches both at the same tick and address, and the
//! two must return the same latency and hold the same counters after
//! the call. The production [`Core`] drives a second production
//! `MemSys`, and after every event its clock, its instruction counts and
//! that hierarchy's counters must equal the reference's. At the end of a
//! stream the two production hierarchies must be identical in full
//! state (`Debug`), so the production core made the same calls as the
//! reference core — tick, address and order.
//!
//! The counter tuple is L1, L2, L3 and TLB hits and misses, DRAM lines
//! read and written, and the six prefetch-outcome counters.
//!
//! Streams: the test-scale workloads on every machine below, and synthetic
//! streams aimed at the edges of the fast paths — same-set thrash at
//! `ways` and `ways + 1`, strides across pages, pages congruent modulo
//! the TLB's hint table, address 0 and the top line, recycled tag
//! stores, prefetches to unmapped addresses, MSHR-full and
//! prefetch-queue-full bursts, nested frames, and two cores on one L3.
//! The ignored `paper_scale_*` test takes the first 2 M events of the
//! paper-scale IS and HJ-8 kernels, where misses, evictions and
//! write-backs are common; run it in release:
//!
//! ```sh
//! cargo test --release -p swpf-sim --test oracle -- --ignored
//! ```

mod reference;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::{Hier, RefCore, RefMem, RefShared};
use std::sync::Arc;
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{Event, EventKind, ExecObserver, Interp, Tier, Trap};
use swpf_ir::ValueId;
use swpf_sim::cpu::Core;
use swpf_sim::presets::{CacheConfig, CoreKind, MachineConfig, TlbConfig};
use swpf_sim::{AccessKind, MemSys, SharedMem, LINE_BYTES};
use swpf_workloads::{Scale, WorkloadId};

/// L1, L2, L3, TLB hits and misses; DRAM lines read and written; sw
/// prefetches, dropped, redundant resident, redundant in flight, late
/// fill hits, hardware stride fills.
type Counters = [u64; 16];

fn production_counters(mem: &MemSys, sh: &SharedMem) -> Counters {
    let (l1h, l1m, l2h, l2m) = mem.cache_counters();
    let (l3h, l3m) = sh.l3.as_ref().map_or((0, 0), |c| (c.hits(), c.misses()));
    let (th, tm) = mem.tlb_counters();
    let s = mem.stats();
    let dram = [sh.dram.lines_read(), sh.dram.lines_written()];
    [
        l1h,
        l1m,
        l2h,
        l2m,
        l3h,
        l3m,
        th,
        tm,
        dram[0],
        dram[1],
        s.sw_prefetches,
        s.sw_prefetches_dropped,
        s.sw_prefetches_redundant_resident,
        s.sw_prefetches_redundant_inflight,
        s.late_fill_hits,
        s.hw_prefetch_fills,
    ]
}

fn reference_counters(mem: &RefMem, sh: &RefShared) -> Counters {
    let (l3h, l3m) = sh.l3.as_ref().map_or((0, 0), |c| (c.hits, c.misses));
    let mut out = [0; 16];
    out[..10].copy_from_slice(&[
        mem.l1.hits,
        mem.l1.misses,
        mem.l2.hits,
        mem.l2.misses,
        l3h,
        l3m,
        mem.tlb.hits,
        mem.tlb.misses,
        sh.dram.read,
        sh.dram.written,
    ]);
    out[10..].copy_from_slice(&mem.stats);
    out
}

/// The reference hierarchy and a production one behind one interface:
/// each call goes to both, and they must agree on the latency and on
/// every counter afterwards.
struct Tee<'a> {
    r: &'a mut RefMem,
    rs: &'a mut RefShared,
    p: &'a mut MemSys,
    ps: &'a mut SharedMem,
    /// The stream and event, for messages.
    at: (&'a str, u64),
}

impl Tee<'_> {
    fn agree(&self, call: std::fmt::Arguments<'_>) {
        assert_eq!(
            reference_counters(self.r, self.rs),
            production_counters(self.p, self.ps),
            "{}, event {}: counters after {call}",
            self.at.0,
            self.at.1
        );
    }
}

impl Hier for Tee<'_> {
    fn access(&mut self, addr: u64, now: u64, is_write: bool, pc: u64) -> u64 {
        let want = self.r.access(self.rs, addr, now, is_write, pc);
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let got = self.p.access(self.ps, addr, now, kind, pc);
        let (name, event) = self.at;
        assert_eq!(
            want, got,
            "{name}, event {event}: latency of {kind:?} of {addr:#x} at tick {now}"
        );
        self.agree(format_args!("{kind:?} of {addr:#x} at tick {now}"));
        want
    }

    fn prefetch(&mut self, addr: u64, now: u64, pc: u64) {
        self.r.prefetch(self.rs, addr, now);
        self.p.prefetch(self.ps, addr, now, pc);
        self.agree(format_args!("prefetch of {addr:#x} at tick {now}"));
    }
}

/// One simulated core, three ways.
struct Lane {
    reference: RefCore,
    r: RefMem,
    /// The production hierarchy the reference core drives.
    tee: MemSys,
    core: Core,
    mem: MemSys,
}

/// One stream through the reference and the production model.
struct Diff {
    name: String,
    events: u64,
    lanes: Vec<Lane>,
    rs: RefShared,
    tee: SharedMem,
    shared: SharedMem,
}

impl Diff {
    fn new(name: impl Into<String>, cfg: &MachineConfig, cores: usize) -> Self {
        let lanes = (0..cores)
            .map(|i| {
                let production = || {
                    let mut m = MemSys::new(cfg);
                    m.set_address_space(i as u64);
                    m
                };
                Lane {
                    reference: RefCore::new(cfg),
                    r: RefMem::new(cfg, i as u64),
                    tee: production(),
                    core: Core::new(cfg),
                    mem: production(),
                }
            })
            .collect();
        Diff {
            name: format!("{} on {}", name.into(), cfg.name),
            events: 0,
            lanes,
            rs: RefShared::new(cfg),
            tee: SharedMem::new(cfg),
            shared: SharedMem::new(cfg),
        }
    }

    /// Retire `ev` on core `i` of both models and compare them.
    fn step(&mut self, i: usize, ev: &Event<'_>) {
        let lane = &mut self.lanes[i];
        let mut tee = Tee {
            r: &mut lane.r,
            rs: &mut self.rs,
            p: &mut lane.tee,
            ps: &mut self.tee,
            at: (&self.name, self.events),
        };
        lane.reference.retire(&mut tee, ev);
        lane.core.retire(&mut lane.mem, &mut self.shared, ev);
        let at = format_args!("{}, core {i}, event {} {ev:?}", self.name, self.events);
        assert_eq!(
            lane.reference.clock(),
            lane.core.clock_ticks(),
            "{at}: clock"
        );
        let c = lane.core.counts();
        let counts = [c.total, c.loads, c.stores, c.prefetches, c.branches];
        assert_eq!(lane.reference.counts, counts, "{at}: instruction counts");
        assert_eq!(
            reference_counters(&lane.r, &self.rs),
            production_counters(&lane.mem, &self.shared),
            "{at}: counters"
        );
        self.events += 1;
    }

    /// The hierarchy the production core drove equals the one the
    /// reference core drove, field for field.
    fn finish(self) -> Counters {
        for (i, lane) in self.lanes.iter().enumerate() {
            assert!(
                format!("{:?}", lane.tee) == format!("{:?}", lane.mem),
                "{}: core {i}'s production calls differ from the reference's",
                self.name
            );
        }
        assert!(
            format!("{:?}", self.tee) == format!("{:?}", self.shared),
            "{}: shared state differs",
            self.name
        );
        assert!(self.events > 0, "{}: an empty stream", self.name);
        production_counters(&self.lanes[0].mem, &self.shared)
    }
}

impl ExecObserver for Diff {
    fn on_event(&mut self, ev: &Event<'_>) {
        self.step(0, ev);
    }
}

/// Interpret `id`'s kernel (manual prefetches at look-ahead 64 when
/// `manual`, else the baseline) through a [`Diff`], stopping after
/// `fuel` instructions; returns the production counters.
fn run_workload(
    id: WorkloadId,
    scale: Scale,
    manual: bool,
    cfg: &MachineConfig,
    fuel: u64,
) -> Counters {
    let w = id.instantiate(scale);
    let module = if manual {
        w.build_manual(64)
    } else {
        w.build_baseline()
    };
    let func = module.find_function("kernel").expect("kernel exists");
    let mut interp = Interp::with_tier(Tier::Bytecode);
    let args = w.setup(&mut interp);
    interp.set_fuel(fuel);
    let variant = if manual { "manual" } else { "baseline" };
    let mut diff = Diff::new(format!("{} {variant}", w.name()), cfg, 1);
    let image = Arc::new(ExecImage::build(&module));
    match interp.run_with_image(image, func, &args, &mut diff) {
        Ok(_) | Err(Trap::OutOfFuel) => {}
        Err(t) => panic!("{}: {t}", diff.name),
    }
    diff.finish()
}

/// Index of DRAM lines written in [`Counters`].
const DRAM_WRITTEN: usize = 9;

/// The presets, Haswell on 4 KiB pages (Fig. 10), and two tiny machines
/// whose set counts are not powers of two, whose TLB has four entries
/// and two walkers, and whose queues are short — so that evictions,
/// write-backs, walks and full queues happen within a few hundred events.
fn machines() -> Vec<MachineConfig> {
    let cache = |sets: u64, ways: u32, latency| CacheConfig {
        capacity: sets * u64::from(ways) * LINE_BYTES,
        ways,
        latency,
    };
    let tiny_ooo = MachineConfig {
        name: "tiny_ooo",
        core: CoreKind::OutOfOrder,
        width: 3,
        rob: 8,
        mshrs: 2,
        prefetch_queue: 3,
        l1: cache(6, 2, 2),
        l2: cache(12, 3, 9),
        l3: Some(cache(24, 4, 20)),
        tlb: TlbConfig {
            entries: 4,
            page_bits: 12,
            walkers: 2,
            walk_latency: 25,
        },
        ..MachineConfig::haswell()
    };
    let tiny_in_order = MachineConfig {
        name: "tiny_in_order",
        core: CoreKind::InOrder,
        width: 1,
        l3: None,
        ..tiny_ooo.clone()
    };
    let mut all = MachineConfig::all_systems();
    all.push(
        MachineConfig::haswell()
            .with_small_pages()
            .with_name("haswell_small"),
    );
    all.extend([tiny_ooo, tiny_in_order]);
    all
}

#[test]
fn test_scale_workloads_match_the_reference() {
    let mut written = 0;
    for cfg in &machines() {
        for id in WorkloadId::ALL {
            for manual in [false, true] {
                written += run_workload(id, Scale::Test, manual, cfg, u64::MAX)[DRAM_WRITTEN];
            }
        }
    }
    // The tiny machines evict and write back even at test scale.
    assert!(written > 0, "no stream wrote a line back");
}

#[test]
#[ignore = "paper-scale inputs; run in release"]
fn paper_scale_is_and_hj8_match_the_reference() {
    for cfg in [MachineConfig::haswell(), MachineConfig::a53()] {
        let mut written = 0;
        for id in [WorkloadId::Is, WorkloadId::Hj8] {
            written += run_workload(id, Scale::Paper, true, &cfg, 2_000_000)[DRAM_WRITTEN];
        }
        assert!(written > 0, "{}: no line written back", cfg.name);
    }
}

/// A synthetic stream: events to feed as they are, with owned operands.
#[derive(Default)]
struct Stream {
    /// `(core, pc, frame, result, kind, operands)`.
    events: Vec<(usize, u64, u64, u32, EventKind, Vec<ValueId>)>,
    frame: u64,
    next: u32,
}

impl Stream {
    /// Append one event on core 0 of the current frame; results cycle
    /// through 48 value slots.
    fn push(&mut self, pc: u64, kind: EventKind, operands: &[u32]) -> u32 {
        self.push_on(0, pc, kind, operands)
    }

    fn push_on(&mut self, core: usize, pc: u64, kind: EventKind, operands: &[u32]) -> u32 {
        let result = self.next;
        self.next = (self.next + 1) % 48;
        let ops = operands.iter().map(|&v| ValueId(v)).collect();
        self.events.push((core, pc, self.frame, result, kind, ops));
        result
    }

    fn load(&mut self, pc: u64, addr: u64) -> u32 {
        self.push(pc, EventKind::Load { addr, size: 8 }, &[])
    }

    fn store(&mut self, pc: u64, addr: u64) -> u32 {
        self.push(pc, EventKind::Store { addr, size: 8 }, &[])
    }

    fn prefetch(&mut self, pc: u64, addr: u64) -> u32 {
        self.push(pc, EventKind::Prefetch { addr, valid: true }, &[])
    }

    fn run(&self, name: &str, cfg: &MachineConfig) {
        let cores = self.events.iter().map(|e| e.0 + 1).max().unwrap_or(1);
        let mut diff = Diff::new(name, cfg, cores);
        for (core, pc, frame, result, kind, operands) in &self.events {
            let ev = Event {
                pc: *pc,
                frame: *frame,
                result: ValueId(*result),
                kind: *kind,
                operands,
            };
            diff.step(*core, &ev);
        }
        diff.finish();
    }
}

fn set_count(c: &CacheConfig) -> u64 {
    (c.capacity / LINE_BYTES / u64::from(c.ways)).max(1)
}

/// Lines `stride` bytes apart from `base`, `n` of them, touched eight
/// times round, every third access a store.
fn thrash(s: &mut Stream, pc: u64, base: u64, stride: u64, n: u64) {
    for round in 0..8 {
        for k in 0..n {
            let addr = base + k * stride;
            if (round * n + k).is_multiple_of(3) {
                s.store(pc, addr);
            } else {
                s.load(pc, addr);
            }
        }
    }
}

/// The synthetic streams for one machine, by name.
fn synthetic(cfg: &MachineConfig) -> Vec<(&'static str, Stream)> {
    let page = 1u64 << cfg.tlb.page_bits;
    let mut out = Vec::new();

    // Same-set thrash at every level, at `ways` and `ways + 1`.
    let mut s = Stream::default();
    let levels = [Some(cfg.l1), Some(cfg.l2), cfg.l3];
    for (level, c) in levels.iter().flatten().enumerate() {
        let stride = set_count(c) * LINE_BYTES;
        for n in [u64::from(c.ways), u64::from(c.ways) + 1] {
            thrash(&mut s, 10 + level as u64, 1 << 30, stride, n);
        }
    }
    out.push(("same-set thrash", s));

    // Constant strides across page boundaries, both directions, one pc
    // each so the stride prefetcher trains and fills ahead.
    let mut s = Stream::default();
    let base = (1u64 << 33) - 40 * 4096;
    for (i, stride) in [2048i64, 1984, -2048, -1024, 4160, 8184, 6144]
        .into_iter()
        .enumerate()
    {
        for k in 0..80 {
            let addr = base.wrapping_add((k * stride) as u64);
            s.load(20 + i as u64, addr);
        }
    }
    out.push(("page-crossing strides", s));

    // Pages congruent modulo the 256-entry hint table: a random walk
    // over eight of them and their neighbours, loads and prefetches.
    let mut s = Stream::default();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..600 {
        let p = rng.random_range(0..8u64) * 256 + rng.random_range(0..2u64);
        let addr = (p + 64) * page + rng.random_range(0..page / 8) * 8;
        if rng.random_range(0..4u32) == 0 {
            s.prefetch(30, addr);
        } else {
            s.load(31, addr);
        }
    }
    out.push(("hint-table aliases", s));

    // Address 0 and the top line, and a descending stream that wraps
    // through 0 so the stride prefetcher fills beyond the top.
    let mut s = Stream::default();
    let top = u64::MAX - 7;
    for addr in [0, 8, 56, 64, top, top - 56, top - 64, 1 << 63, 0, top] {
        s.load(40, addr);
        s.store(41, addr);
        s.prefetch(42, addr);
    }
    for k in 0..40u64 {
        s.load(43, (160u64).wrapping_sub(k * 8));
    }
    // Two strides of exactly 2^63 in a row at one pc, line 0 evicted
    // from L1 in between so that both accesses miss and train.
    let l1_set_stride = set_count(&cfg.l1) * LINE_BYTES;
    for addr in [0, 1 << 63, 0] {
        thrash(
            &mut s,
            45,
            1 << 40,
            l1_set_stride,
            u64::from(cfg.l1.ways) + 1,
        );
        s.load(44, addr);
    }
    out.push(("address 0 and the top line", s));

    // Prefetches to unmapped addresses are retired but never issued;
    // mapped ones to lines never demanded stay unused.
    let mut s = Stream::default();
    for k in 0..200u64 {
        let addr = (1 << 36) + k * 4 * LINE_BYTES;
        let kind = EventKind::Prefetch {
            addr: addr ^ 0xdead_0000,
            valid: k % 3 != 0,
        };
        s.push(50, kind, &[]);
        s.load(51, addr);
    }
    out.push(("unmapped prefetches", s));

    // Bursts of independent misses beyond the MSHRs, of prefetches beyond
    // the queue, then demands on the prefetched lines while in flight,
    // and dependent chains through the scoreboard. Each burst has a
    // frame of its own that returns while its chain is in flight, and
    // the chain's value is read on the returned frame: ready at 0.
    let mut s = Stream::default();
    for burst in 0..6u64 {
        s.frame = burst + 1;
        let base = (burst + 1) << 32;
        for k in 0..(4 * cfg.mshrs as u64 + 8) {
            s.load(60, base + k * (page + 3 * LINE_BYTES));
        }
        for k in 0..(3 * cfg.prefetch_queue as u64) {
            s.prefetch(61, base + (1 << 28) + k * 5 * LINE_BYTES);
        }
        for k in 0..(3 * cfg.prefetch_queue as u64) {
            s.load(62, base + (1 << 28) + k * 5 * LINE_BYTES);
        }
        let mut prev = s.load(63, base + (1 << 29));
        for k in 1..20 {
            let kind = EventKind::Load {
                addr: base + (1 << 29) + k * 9 * LINE_BYTES,
                size: 8,
            };
            prev = s.push(64, kind, &[prev]);
        }
        s.push(66, EventKind::Ret, &[]);
        for _ in 0..50 {
            s.push(65, EventKind::Alu, &[prev]);
        }
    }
    out.push(("MSHR and prefetch-queue bursts", s));

    out.push(("random nested frames", random_stream(cfg, 11, 1)));
    out.push(("two cores on one L3", random_stream(cfg, 12, 2)));
    out
}

/// Random loads, stores, prefetches, branches and ALU work over a pool
/// of lines that collide in few L1 sets, with operand dependences,
/// calls and returns, and events on suspended or returned frames,
/// spread over `cores` cores.
fn random_stream(cfg: &MachineConfig, seed: u64, cores: usize) -> Stream {
    let l1_sets = set_count(&cfg.l1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Stream::default();
    let mut frames = vec![0u64];
    let mut next_frame = 1;
    for _ in 0..6000 {
        let core = rng.random_range(0..cores);
        let line = rng.random_range(0..64u64) * l1_sets / 4 + rng.random_range(0..3u64) * (1 << 24);
        let addr = (1 << 32) + line * LINE_BYTES + rng.random_range(0..8u64) * 8;
        let ops: Vec<u32> = (0..rng.random_range(0..3usize))
            .map(|_| rng.random_range(0..48u32))
            .collect();
        s.frame = *frames.last().unwrap_or(&0);
        let kind = match rng.random_range(0..20u32) {
            0..=6 => EventKind::Load { addr, size: 8 },
            7..=9 => EventKind::Store { addr, size: 8 },
            10..=11 => EventKind::Prefetch { addr, valid: true },
            12 => EventKind::Branch { taken: true },
            13 => {
                frames.push(next_frame);
                next_frame += 1;
                EventKind::Call
            }
            14 if frames.len() > 1 => {
                frames.pop();
                EventKind::Ret
            }
            15 => {
                s.frame = rng.random_range(0..next_frame);
                EventKind::Alu
            }
            _ => EventKind::Alu,
        };
        s.push_on(core, 70 + rng.random_range(0..4u64), kind, &ops);
    }
    s
}

#[test]
fn synthetic_streams_match_the_reference() {
    // Every stream on a machine builds it afresh on this thread, so from
    // the second stream on its caches reuse the tag stores the previous
    // stream dirtied.
    for cfg in machines() {
        for (name, stream) in synthetic(&cfg) {
            stream.run(name, &cfg);
        }
    }
}
