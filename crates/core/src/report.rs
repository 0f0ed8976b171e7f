//! Pass reports: what was prefetched, what was skipped, and why.

use crate::candidates::{ClampSource, SkipReason};
use std::fmt;
use swpf_ir::ValueId;

/// One generated prefetch sequence (one target load).
#[derive(Debug, Clone)]
pub struct PrefetchRecord {
    /// The original target load.
    pub target: ValueId,
    /// Number of loads in the dependence chain (the paper's `t`).
    pub chain_len: usize,
    /// Look-ahead offsets actually emitted, outermost (stride) first.
    pub offsets: Vec<i64>,
    /// How the induction variable was clamped for fault avoidance.
    pub clamp: ClampSource,
    /// Whether the code was hoisted to an inner-loop preheader (§4.6).
    pub hoisted: bool,
    /// Number of instructions inserted (including the prefetches).
    pub inserted_insts: usize,
}

/// A load that was considered but not prefetched.
#[derive(Debug, Clone)]
pub struct SkipRecord {
    /// The load that was rejected.
    pub load: ValueId,
    /// Why it was rejected.
    pub reason: SkipReason,
}

/// Per-function outcome of the pass.
#[derive(Debug, Clone, Default)]
pub struct FunctionReport {
    /// Function name.
    pub name: String,
    /// Prefetch sequences generated.
    pub prefetches: Vec<PrefetchRecord>,
    /// Loads considered and skipped.
    pub skipped: Vec<SkipRecord>,
}

impl FunctionReport {
    /// Total prefetch instructions emitted (a chain of `t` loads with the
    /// stride companion emits up to `t` prefetches).
    #[must_use]
    pub fn num_prefetch_insts(&self) -> usize {
        self.prefetches.iter().map(|p| p.offsets.len()).sum()
    }
}

/// Whole-module outcome of the pass pipeline.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// One report per function, in module order (one batch per `swpf`
    /// pipeline stage; the default pipeline has exactly one).
    pub functions: Vec<FunctionReport>,
    /// Instructions removed by the cleanup passes of the pipeline
    /// (`cse` + `dce`); zero for the default bare-pass pipeline.
    pub eliminated_insts: usize,
}

impl PassReport {
    /// Total prefetch instructions emitted across all functions.
    #[must_use]
    pub fn total_prefetches(&self) -> usize {
        self.functions
            .iter()
            .map(FunctionReport::num_prefetch_insts)
            .sum()
    }

    /// Total loads skipped across all functions.
    #[must_use]
    pub fn total_skipped(&self) -> usize {
        self.functions.iter().map(|f| f.skipped.len()).sum()
    }
}

impl fmt::Display for FunctionReport {
    /// The function's prefetches and skipped loads; nothing when it has
    /// neither.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.prefetches.is_empty() && self.skipped.is_empty() {
            return Ok(());
        }
        writeln!(f, "@{}:", self.name)?;
        for p in &self.prefetches {
            writeln!(
                f,
                "  prefetch for load {}: chain {}, offsets {:?}, clamp {:?}{}",
                p.target,
                p.chain_len,
                p.offsets,
                p.clamp,
                if p.hoisted { ", hoisted" } else { "" }
            )?;
        }
        for s in &self.skipped {
            writeln!(f, "  skipped load {}: {:?}", s.load, s.reason)?;
        }
        Ok(())
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.functions
            .iter()
            .try_for_each(|func| write!(f, "{func}"))
    }
}
