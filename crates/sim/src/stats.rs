//! Aggregated simulation results, and the conservation laws their
//! counters obey.

use crate::cpu::InstCounts;
use crate::memsys::MemSysStats;
use crate::perf::PcProfile;
use crate::presets::MachineConfig;
use crate::TICKS_PER_CYCLE;
use std::fmt;

/// A conservation law the counters of a run broke: the law's statement
/// and the counters it relates, by their artifact names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LawViolation {
    /// The law, as an equation or inequality over counter names.
    pub law: &'static str,
    /// The counters involved, with their values.
    pub counters: Vec<(&'static str, u64)>,
}

impl fmt::Display for LawViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "law `{}` violated:", self.law)?;
        for (name, value) in &self.counters {
            write!(f, " {name}={value}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LawViolation {}

/// `Ok` when `holds`, else the violation of `law` over `counters`.
fn law(
    holds: bool,
    law: &'static str,
    counters: &[(&'static str, u64)],
) -> Result<(), LawViolation> {
    if holds {
        Ok(())
    } else {
        Err(LawViolation {
            law,
            counters: counters.to_vec(),
        })
    }
}

/// Everything a harness needs to report one simulated run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Simulated execution time in cycles.
    pub cycles: u64,
    /// Instruction-class counters.
    pub insts: InstCounts,
    /// L1 data-cache hits.
    pub l1_hits: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses (page walks).
    pub tlb_misses: u64,
    /// Lines read from DRAM.
    pub dram_lines_read: u64,
    /// Lines written back to DRAM.
    pub dram_lines_written: u64,
    /// Software-prefetch behaviour.
    pub mem: MemSysStats,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts.total as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run relative to a baseline run of the same work.
    #[must_use]
    pub fn speedup_vs(&self, baseline: &SimStats) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// Fractional increase in dynamic instruction count relative to a
    /// baseline (Fig. 8's metric: `0.7` means +70%).
    #[must_use]
    pub fn extra_instructions_vs(&self, baseline: &SimStats) -> f64 {
        if baseline.insts.total == 0 {
            0.0
        } else {
            self.insts.total as f64 / baseline.insts.total as f64 - 1.0
        }
    }

    /// Every integer counter as `(name, value)` pairs — the flat,
    /// order-stable view machine-readable artifact writers serialise.
    /// Names are the JSON keys of the experiment-result schema
    /// (DESIGN.md §5); extend this list when adding counters so every
    /// artifact picks them up automatically.
    #[must_use]
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cycles", self.cycles),
            ("insts_total", self.insts.total),
            ("insts_loads", self.insts.loads),
            ("insts_stores", self.insts.stores),
            ("insts_prefetches", self.insts.prefetches),
            ("insts_branches", self.insts.branches),
            ("l1_hits", self.l1_hits),
            ("l1_misses", self.l1_misses),
            ("l2_hits", self.l2_hits),
            ("l2_misses", self.l2_misses),
            ("tlb_hits", self.tlb_hits),
            ("tlb_misses", self.tlb_misses),
            ("dram_lines_read", self.dram_lines_read),
            ("dram_lines_written", self.dram_lines_written),
            ("sw_prefetches", self.mem.sw_prefetches),
            ("sw_prefetches_dropped", self.mem.sw_prefetches_dropped),
            (
                "sw_prefetches_redundant",
                self.mem.sw_prefetches_redundant(),
            ),
            (
                "sw_prefetches_redundant_resident",
                self.mem.sw_prefetches_redundant_resident,
            ),
            (
                "sw_prefetches_redundant_inflight",
                self.mem.sw_prefetches_redundant_inflight,
            ),
            ("late_fill_hits", self.mem.late_fill_hits),
            ("hw_prefetch_fills", self.mem.hw_prefetch_fills),
        ]
    }

    /// Check the laws that hold exactly for any program on `machine`:
    ///
    /// * every load and store looks up the L1 once:
    ///   `l1_hits + l1_misses = loads + stores`;
    /// * every demand access and every software prefetch the queue
    ///   accepts translates once:
    ///   `tlb_hits + tlb_misses = loads + stores + sw_prefetches − dropped`;
    /// * L2 sees every L1 miss plus the accepted prefetches that missed
    ///   L1 — and a redundant prefetch found its line in L1 or L2:
    ///   `l1_misses + sw_prefetches − dropped − redundant ≤ l2 lookups ≤
    ///   l1_misses + sw_prefetches − dropped`;
    /// * prefetch outcomes do not overlap, and only valid prefetch
    ///   instructions reach memory:
    ///   `dropped + redundant ≤ sw_prefetches ≤ insts_prefetches`;
    /// * the core issues at most `width` instructions per cycle:
    ///   `cycles × width ≥ insts_total`, up to the cycle count's
    ///   rounding down from ticks.
    ///
    /// # Errors
    /// The first law the counters break.
    pub fn check_laws(&self, machine: &MachineConfig) -> Result<(), LawViolation> {
        let (loads, stores) = (self.insts.loads, self.insts.stores);
        let m = &self.mem;
        let accepted = m.sw_prefetches.saturating_sub(m.sw_prefetches_dropped);
        law(
            self.l1_hits + self.l1_misses == loads + stores,
            "l1_hits + l1_misses = insts_loads + insts_stores",
            &[
                ("l1_hits", self.l1_hits),
                ("l1_misses", self.l1_misses),
                ("insts_loads", loads),
                ("insts_stores", stores),
            ],
        )?;
        law(
            self.tlb_hits + self.tlb_misses == loads + stores + accepted,
            "tlb_hits + tlb_misses = insts_loads + insts_stores + sw_prefetches - sw_prefetches_dropped",
            &[
                ("tlb_hits", self.tlb_hits),
                ("tlb_misses", self.tlb_misses),
                ("insts_loads", loads),
                ("insts_stores", stores),
                ("sw_prefetches", m.sw_prefetches),
                ("sw_prefetches_dropped", m.sw_prefetches_dropped),
            ],
        )?;
        let l2_lookups = self.l2_hits + self.l2_misses;
        law(
            l2_lookups + m.sw_prefetches_redundant() >= self.l1_misses + accepted
                && l2_lookups <= self.l1_misses + accepted,
            "l1_misses + sw_prefetches - sw_prefetches_dropped - sw_prefetches_redundant \
             <= l2_hits + l2_misses <= l1_misses + sw_prefetches - sw_prefetches_dropped",
            &[
                ("l2_hits", self.l2_hits),
                ("l2_misses", self.l2_misses),
                ("l1_misses", self.l1_misses),
                ("sw_prefetches", m.sw_prefetches),
                ("sw_prefetches_dropped", m.sw_prefetches_dropped),
                ("sw_prefetches_redundant", m.sw_prefetches_redundant()),
            ],
        )?;
        law(
            m.sw_prefetches_dropped + m.sw_prefetches_redundant() <= m.sw_prefetches
                && m.sw_prefetches <= self.insts.prefetches,
            "sw_prefetches_dropped + sw_prefetches_redundant <= sw_prefetches <= insts_prefetches",
            &[
                ("sw_prefetches_dropped", m.sw_prefetches_dropped),
                ("sw_prefetches_redundant", m.sw_prefetches_redundant()),
                ("sw_prefetches", m.sw_prefetches),
                ("insts_prefetches", self.insts.prefetches),
            ],
        )?;
        // Consecutive instructions issue at least one issue interval
        // apart, so the clock is at least `total × interval` ticks and
        // `cycles` is that clock rounded down to whole cycles.
        law(
            self.insts.total * machine.issue_interval_ticks() < (self.cycles + 1) * TICKS_PER_CYCLE,
            "cycles * width >= insts_total",
            &[
                ("cycles", self.cycles),
                ("width", u64::from(machine.width)),
                ("insts_total", self.insts.total),
            ],
        )
    }
}

/// Check one cell of `machine` — the [`SimStats`] of each of its cores —
/// against [`SimStats::check_laws`], and check that every core reports
/// the same totals of the DRAM channel they share.
///
/// # Errors
/// The first law a core's counters break.
pub fn check_cell_laws(machine: &MachineConfig, cores: &[SimStats]) -> Result<(), LawViolation> {
    for core in cores {
        core.check_laws(machine)?;
    }
    let Some((first, rest)) = cores.split_first() else {
        return Ok(());
    };
    for other in rest {
        law(
            (other.dram_lines_read, other.dram_lines_written)
                == (first.dram_lines_read, first.dram_lines_written),
            "every core reports the shared dram_lines_read and dram_lines_written",
            &[
                ("dram_lines_read", first.dram_lines_read),
                ("dram_lines_read", other.dram_lines_read),
                ("dram_lines_written", first.dram_lines_written),
                ("dram_lines_written", other.dram_lines_written),
            ],
        )?;
    }
    Ok(())
}

/// One simulated core's complete result: the aggregate counters plus,
/// when the run was profiled ([`crate::perf`]), the attribution
/// profile. A [`crate::Sim`] request returns this; the convenience
/// wrappers keep only the bare [`SimStats`].
#[derive(Debug, Clone, Default)]
pub struct SimRun {
    /// Aggregate counters — bit-identical whether or not profiling ran.
    pub stats: SimStats,
    /// Per-PC attribution; `None` unless the machine was built
    /// profiled (`Sim::perf`).
    pub perf: Option<PcProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let base = SimStats {
            cycles: 1000,
            insts: InstCounts {
                total: 500,
                ..InstCounts::default()
            },
            ..SimStats::default()
        };
        let fast = SimStats {
            cycles: 400,
            insts: InstCounts {
                total: 800,
                ..InstCounts::default()
            },
            ..SimStats::default()
        };
        assert!((fast.speedup_vs(&base) - 2.5).abs() < 1e-9);
        assert!((fast.extra_instructions_vs(&base) - 0.6).abs() < 1e-9);
        assert!((base.ipc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let z = SimStats::default();
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.speedup_vs(&z), 0.0);
    }
}
