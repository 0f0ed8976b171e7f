//! # swpf-sim — an execution-driven timing simulator for `swpf-ir`
//!
//! The CGO'17 paper evaluates its prefetching pass on four real machines
//! (Intel Haswell, Intel Xeon Phi 3120P, ARM Cortex-A57, ARM Cortex-A53).
//! This crate is the substitute substrate: it watches every instruction
//! the [`swpf_ir::interp`] interpreter retires and charges time to a
//! configurable microarchitecture model. It captures the first-order
//! effects the paper's cross-architecture analysis rests on:
//!
//! * **in-order vs. out-of-order** ([`cpu`]): the in-order model stalls
//!   on every load miss (the paper's description of the A53/Xeon Phi);
//!   the out-of-order model issues by dataflow, bounded by a reorder
//!   buffer and a limited number of outstanding demand misses (MSHRs) —
//!   so it extracts memory-level parallelism on its own, which is why
//!   Haswell/A57 gain far less from software prefetching (Fig. 4);
//! * **multi-level caches** ([`cache`], [`memsys`]) with timed fills, so
//!   a *late* prefetch (offset too small) gives only partial benefit and
//!   an *early* prefetch (offset too big) can be evicted before use —
//!   the two failure modes of Fig. 2 and the look-ahead sweep of Fig. 6;
//! * **TLBs with limited page-table walkers** ([`tlb`]): the A57 supports
//!   a single walk at a time, capping its gains; transparent huge pages
//!   (Fig. 10) shrink the page-walk load;
//! * **DRAM latency and bandwidth** ([`dram`]): a line-occupancy queue
//!   whose saturation reproduces the multi-core throughput collapse of
//!   Fig. 9 (including dirty-line writebacks, which matter for IS);
//! * **a hardware stride prefetcher** ([`stride`]), so sequential
//!   accesses are already fast without software help and only *indirect*
//!   accesses benefit from the pass, as in the paper's machines.
//!
//! Because the timing models consume nothing but the retire-event
//! stream, there is one way to run a simulation — a [`Sim`] request
//! (machine row, core count, execution tier, profiling) over a
//! [`Source`] of events: an interpretation of a lowered image,
//! optionally recorded into a `swpf-trace` encoder as it runs, or a
//! recorded trace replayed from memory or streamed from its file with
//! no interpreter at all.
//! Every source yields bit-identical [`SimRun`]s, single- and
//! multi-core, and failures are a typed [`SimError`] ([`request`]).
//!
//! Absolute cycle counts are not the point — the paper's authors had
//! silicon; we have a model. The claims this simulator supports are the
//! *relative* ones: who wins, by roughly what factor, and where the
//! crossovers sit.

pub mod cache;
pub mod cpu;
pub mod dram;
pub mod machine;
pub mod memsys;
pub mod multicore;
pub mod perf;
pub mod presets;
pub mod request;
mod scoreboard;
pub mod stats;
pub mod stride;
pub mod tlb;

pub use machine::Machine;
pub use memsys::{AccessKind, MemSys, SharedMem};
pub use perf::{PcProfile, SiteProfile, StallStat};
pub use presets::{CoreKind, MachineConfig};
pub use request::{
    replay_on_machine, run_multicore, run_on_machine, run_on_machine_image, run_on_machine_traced,
    streaming_replay_on_machine, Setup, Sim, SimError, Source,
};
pub use stats::{check_cell_laws, LawViolation, SimRun, SimStats};
pub use swpf_ir::interp::Tier;

/// Sub-cycle resolution: all internal times are in ticks.
///
/// Issue width `w` means one instruction every `TICKS_PER_CYCLE / w`
/// ticks; latencies are multiplied by this constant once, in
/// [`presets::MachineConfig`] conversion helpers. 24 divides evenly by
/// every modelled issue width (1–4, 6, 8), so no width is silently
/// rounded up.
pub const TICKS_PER_CYCLE: u64 = 24;

/// Cache line size in bytes, common to every modelled machine.
pub const LINE_BYTES: u64 = 64;
