//! Criterion bench: microbenchmarks of the memory-system components —
//! cache lookups, TLB translations with page walks, DRAM queueing, and
//! the full demand-access path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use swpf_sim::cache::Cache;
use swpf_sim::dram::Dram;
use swpf_sim::memsys::{AccessKind, MemSys, SharedMem};
use swpf_sim::tlb::Tlb;
use swpf_sim::MachineConfig;

const N: u64 = 4096;

fn cache_access(c: &mut Criterion) {
    let cfg = MachineConfig::haswell();
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(N));
    group.bench_function("l1_hits", |b| {
        let mut cache = Cache::new(&cfg.l1);
        for line in 0..512u64 {
            cache.insert(line, 0, 0, false);
        }
        b.iter(|| {
            for i in 0..N {
                black_box(cache.access(i % 512, i, false));
            }
        });
    });
    group.bench_function("l2_insert_evict", |b| {
        let mut cache = Cache::new(&cfg.l2);
        let mut line = 0u64;
        b.iter(|| {
            for i in 0..N {
                line = line.wrapping_add(0x401);
                black_box(cache.insert(line, i, i, i % 3 == 0));
            }
        });
    });
    group.finish();
}

fn tlb_translate(c: &mut Criterion) {
    let cfg = MachineConfig::a53();
    let mut group = c.benchmark_group("tlb");
    group.throughput(Throughput::Elements(N));
    group.bench_function("miss_heavy", |b| {
        b.iter(|| {
            let mut tlb = Tlb::new(&cfg.tlb);
            let mut t = 0;
            for i in 0..N {
                t = tlb.translate(i.wrapping_mul(0x9E37_79B9) << 12, t);
            }
            black_box(t);
        });
    });
    group.finish();
}

fn dram_queue(c: &mut Criterion) {
    let cfg = MachineConfig::xeon_phi();
    let mut group = c.benchmark_group("dram");
    group.throughput(Throughput::Elements(N));
    group.bench_function("saturated_fills", |b| {
        b.iter(|| {
            let mut dram = Dram::new(&cfg.dram);
            let mut done = 0;
            for i in 0..N {
                done = dram.fill(i * 2);
            }
            black_box(done);
        });
    });
    group.finish();
}

fn full_access_path(c: &mut Criterion) {
    let cfg = MachineConfig::haswell();
    let mut group = c.benchmark_group("memsys");
    group.throughput(Throughput::Elements(N));
    group.bench_function("random_demand", |b| {
        b.iter(|| {
            let mut mem = MemSys::new(&cfg);
            let mut shared = SharedMem::new(&cfg);
            let mut t = 0;
            for i in 0..N {
                let addr = (i.wrapping_mul(2654435761) % (1 << 22)) & !7;
                t += mem.access(&mut shared, addr, t, AccessKind::Read, i);
            }
            black_box(t);
        });
    });
    group.bench_function("prefetch_then_demand", |b| {
        b.iter(|| {
            let mut mem = MemSys::new(&cfg);
            let mut shared = SharedMem::new(&cfg);
            let mut t = 0;
            for i in 0..N {
                let ahead = ((i + 32).wrapping_mul(2654435761) % (1 << 22)) & !7;
                mem.prefetch(&mut shared, ahead, t, i);
                let addr = (i.wrapping_mul(2654435761) % (1 << 22)) & !7;
                t += mem.access(&mut shared, addr, t, AccessKind::Read, i) / 8;
            }
            black_box(t);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    cache_access,
    tlb_translate,
    dram_queue,
    full_access_path
);
criterion_main!(benches);
