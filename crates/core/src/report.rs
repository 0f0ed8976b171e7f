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

impl FunctionReport {
    /// Append the function's prefetches and skipped loads to `out`, one
    /// line each under an `@name:` line; nothing when it has neither.
    /// This is the text `Display` prints, written straight into `out`:
    /// each clamp and skip reason as its `Debug` form, values as `%id`.
    pub fn render_into(&self, out: &mut String) {
        if self.prefetches.is_empty() && self.skipped.is_empty() {
            return;
        }
        out.push('@');
        out.push_str(&self.name);
        out.push_str(":\n");
        for p in &self.prefetches {
            out.push_str("  prefetch for load ");
            push_value(out, p.target);
            out.push_str(": chain ");
            push_u64(out, p.chain_len as u64);
            out.push_str(", offsets [");
            for (i, &o) in p.offsets.iter().enumerate() {
                out.push_str(if i > 0 { ", " } else { "" });
                out.push_str(if o < 0 { "-" } else { "" });
                push_u64(out, o.unsigned_abs());
            }
            out.push_str("], clamp ");
            match p.clamp {
                ClampSource::AllocCount { count } => {
                    out.push_str("AllocCount { count: ValueId(");
                    push_u64(out, u64::from(count.0));
                    out.push_str(") }");
                }
                ClampSource::LoopBound {
                    bound,
                    strict,
                    unsigned,
                } => {
                    out.push_str("LoopBound { bound: ValueId(");
                    push_u64(out, u64::from(bound.0));
                    out.push_str("), strict: ");
                    out.push_str(if strict { "true" } else { "false" });
                    out.push_str(", unsigned: ");
                    out.push_str(if unsigned { "true" } else { "false" });
                    out.push_str(" }");
                }
            }
            out.push_str(if p.hoisted { ", hoisted\n" } else { "\n" });
        }
        for s in &self.skipped {
            out.push_str("  skipped load ");
            push_value(out, s.load);
            out.push_str(": ");
            out.push_str(s.reason.as_str());
            out.push('\n');
        }
    }
}

/// `v` as `%id`.
fn push_value(out: &mut String, v: ValueId) {
    out.push('%');
    push_u64(out, u64::from(v.0));
}

/// `v` in decimal.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

impl fmt::Display for FunctionReport {
    /// The function's prefetches and skipped loads; nothing when it has
    /// neither (see [`FunctionReport::render_into`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.render_into(&mut text);
        f.write_str(&text)
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.functions
            .iter()
            .try_for_each(|func| write!(f, "{func}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// `render_into` writes what the `fmt` form it replaced wrote.
    #[test]
    fn render_matches_the_debug_format() {
        let reasons = [
            SkipReason::NoInductionVariable,
            SkipReason::ContainsCall,
            SkipReason::ContainsNonIvPhi,
            SkipReason::LookaheadNotDirect,
            SkipReason::NotCanonicalIv,
            SkipReason::NoSizeInfo,
            SkipReason::MayAliasStore,
            SkipReason::Conditional,
            SkipReason::StrideOnly,
            SkipReason::Subsumed,
            SkipReason::SameLineCovered,
        ];
        let record = |target: u32, offsets: Vec<i64>, clamp, hoisted| PrefetchRecord {
            target: ValueId(target),
            chain_len: offsets.len(),
            offsets,
            clamp,
            hoisted,
            inserted_insts: 0,
        };
        let report = FunctionReport {
            name: "kernel_3_17".to_string(),
            prefetches: vec![
                record(
                    12,
                    vec![64, 32],
                    ClampSource::LoopBound {
                        bound: ValueId(2),
                        strict: true,
                        unsigned: false,
                    },
                    false,
                ),
                record(
                    0,
                    vec![],
                    ClampSource::AllocCount { count: ValueId(0) },
                    true,
                ),
                record(
                    u32::MAX,
                    vec![-7, 0, i64::MIN, i64::MAX, 10],
                    ClampSource::LoopBound {
                        bound: ValueId(4_000_000_000),
                        strict: false,
                        unsigned: true,
                    },
                    true,
                ),
            ],
            skipped: reasons
                .iter()
                .enumerate()
                .map(|(i, &reason)| SkipRecord {
                    load: ValueId(i as u32 * 1009),
                    reason,
                })
                .collect(),
        };
        let mut want = format!("@{}:\n", report.name);
        for p in &report.prefetches {
            let _ = writeln!(
                want,
                "  prefetch for load {}: chain {}, offsets {:?}, clamp {:?}{}",
                p.target,
                p.chain_len,
                p.offsets,
                p.clamp,
                if p.hoisted { ", hoisted" } else { "" }
            );
        }
        for s in &report.skipped {
            let _ = writeln!(want, "  skipped load {}: {:?}", s.load, s.reason);
        }
        let mut got = String::new();
        report.render_into(&mut got);
        assert_eq!(got, want);
        assert_eq!(report.to_string(), want);
        assert_eq!(FunctionReport::default().to_string(), "");
    }
}
