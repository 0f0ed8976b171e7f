//! # swpf-workloads — the paper's benchmark suite as IR programs
//!
//! Seven benchmark configurations from the CGO'17 evaluation (§5.1),
//! rebuilt as `swpf-ir` kernels with deterministic `rand`-generated
//! inputs:
//!
//! | name      | pattern | paper source |
//! |-----------|---------|--------------|
//! | IS        | `key_buff1[key_buff2[i]]++` bucket ranking | NAS Integer Sort |
//! | CG        | CSR SpMV `x[col[j]]` | NAS Conjugate Gradient |
//! | RA        | hash-scrambled table updates in 128-element chunks | HPCC RandomAccess |
//! | HJ-2      | hash + two-entry bucket probe | hash join, 2 elems/bucket |
//! | HJ-8      | hash + bucket + 3-node chain walk | hash join, 8 elems/bucket |
//! | G500-s16  | BFS over a small Kronecker graph | Graph500 seq-csr |
//! | G500-s21  | BFS over a large Kronecker graph | Graph500 seq-csr |
//!
//! Each workload provides a **baseline** module (no prefetches — the
//! input to the automatic pass) and a **manual** module with the best
//! hand-placed prefetches the paper describes, including the knowledge a
//! compiler cannot have: HJ-8's fixed chain length, RA's outer-loop
//! look-ahead across its 128-iteration inner chunks, and G500's edge-list
//! prefetching from the BFS work list.
//!
//! Sizes are scaled (together with `swpf-sim`'s cache capacities, see
//! DESIGN.md §4) so that every paper-relevant ratio holds: the indirect
//! target structures exceed the simulated LLC, CG's dense vector sits in
//! L2, and G500-s16 is partially cache-resident while s21 is not.

pub mod cg;
pub mod g500;
pub mod hj;
pub mod is;
pub mod ra;
pub mod util;

use swpf_ir::interp::{Interp, RtVal};
use swpf_ir::Module;

/// Workload size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Evaluation sizes (minutes of simulation across the full suite).
    Paper,
    /// Tiny sizes for unit tests (milliseconds).
    Test,
}

impl Scale {
    /// Lower-case label matching the `SWPF_SCALE` values.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Test => "test",
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parse a `SWPF_SCALE` value. Only `test` and `paper` are valid;
    /// anything else is an error so a typo cannot silently run the
    /// (much slower) paper-scale configuration.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "test" => Ok(Scale::Test),
            "paper" => Ok(Scale::Paper),
            other => Err(format!(
                "unknown SWPF_SCALE value `{other}` (expected `test` or `paper`)"
            )),
        }
    }
}

/// Stable identifier for one of the suite's benchmark configurations —
/// the declarative half of a [`Workload`], used by experiment specs to
/// name grid axes without holding built instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// NAS Integer Sort.
    Is,
    /// NAS Conjugate Gradient.
    Cg,
    /// HPCC RandomAccess.
    Ra,
    /// Hash join, two elements per bucket.
    Hj2,
    /// Hash join, eight elements per bucket (bucket + chain walk).
    Hj8,
    /// Graph500 BFS, small Kronecker graph.
    G500Small,
    /// Graph500 BFS, large Kronecker graph.
    G500Large,
}

impl WorkloadId {
    /// The paper's seven benchmark configurations, in figure order.
    pub const ALL: [WorkloadId; 7] = [
        WorkloadId::Is,
        WorkloadId::Cg,
        WorkloadId::Ra,
        WorkloadId::Hj2,
        WorkloadId::Hj8,
        WorkloadId::G500Small,
        WorkloadId::G500Large,
    ];

    /// The four benchmarks of the Fig. 6 look-ahead sweep.
    pub const FIG6: [WorkloadId; 4] = [
        WorkloadId::Is,
        WorkloadId::Cg,
        WorkloadId::Ra,
        WorkloadId::Hj2,
    ];

    /// Display name matching [`Workload::name`] and the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Is => "IS",
            WorkloadId::Cg => "CG",
            WorkloadId::Ra => "RA",
            WorkloadId::Hj2 => "HJ-2",
            WorkloadId::Hj8 => "HJ-8",
            WorkloadId::G500Small => "G500-s16",
            WorkloadId::G500Large => "G500-s21",
        }
    }

    /// Build the workload at the given scale.
    #[must_use]
    pub fn instantiate(self, scale: Scale) -> Box<dyn Workload> {
        match self {
            WorkloadId::Is => Box::new(is::IntegerSort::new(scale)),
            WorkloadId::Cg => Box::new(cg::ConjugateGradient::new(scale)),
            WorkloadId::Ra => Box::new(ra::RandomAccess::new(scale)),
            WorkloadId::Hj2 => Box::new(hj::HashJoin::new(scale, hj::ElemsPerBucket::Two)),
            WorkloadId::Hj8 => Box::new(hj::HashJoin::new(scale, hj::ElemsPerBucket::Eight)),
            WorkloadId::G500Small => Box::new(g500::Graph500::new(scale, g500::GraphSize::Small)),
            WorkloadId::G500Large => Box::new(g500::Graph500::new(scale, g500::GraphSize::Large)),
        }
    }
}

/// A kernel variant a workload can build itself (no compiler pass
/// involved): the enumeration experiment grids sweep over. Pass-generated
/// variants (auto, ICC-like) are layered on top by `swpf-bench`, which
/// owns the pass configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelVariant {
    /// No software prefetches — the pass input and speedup denominator.
    Baseline,
    /// The paper's best manual prefetches at look-ahead `c`.
    Manual {
        /// Look-ahead constant in loop iterations.
        look_ahead: i64,
    },
    /// Manual prefetches covering only the first `depth` irregular
    /// accesses of a chain (Fig. 7; HJ-8 only).
    ManualDepth {
        /// Look-ahead constant in loop iterations.
        look_ahead: i64,
        /// How many of the chain's accesses to prefetch (1–4).
        depth: usize,
    },
    /// One of the Fig. 2 hand-written schemes (IS only).
    Fig2(is::Fig2Scheme),
}

impl KernelVariant {
    /// Stable label used in artifact cell keys and printed tables.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            KernelVariant::Baseline => "baseline".to_string(),
            KernelVariant::Manual { look_ahead } => format!("manual_c{look_ahead}"),
            KernelVariant::ManualDepth { look_ahead, depth } => {
                format!("manual_c{look_ahead}_d{depth}")
            }
            KernelVariant::Fig2(s) => match s {
                is::Fig2Scheme::Intuitive => "fig2_intuitive".to_string(),
                is::Fig2Scheme::OffsetTooSmall => "fig2_too_small".to_string(),
                is::Fig2Scheme::OffsetTooBig => "fig2_too_big".to_string(),
                is::Fig2Scheme::Optimal => "fig2_optimal".to_string(),
            },
        }
    }
}

/// A benchmark: kernel builders plus data setup and a result checksum.
///
/// `Send + Sync` is required so experiment harnesses can share one
/// instance across worker threads; implementations are plain
/// configuration data.
pub trait Workload: Send + Sync {
    /// Display name matching the paper's figures ("IS", "HJ-2", ...).
    fn name(&self) -> &'static str;

    /// The kernel without any software prefetches (pass input).
    fn build_baseline(&self) -> Module;

    /// The kernel with the paper's best manual prefetches, scheduled with
    /// look-ahead constant `c`.
    fn build_manual(&self, c: i64) -> Module;

    /// Allocate and initialise the input data; returns kernel arguments.
    /// Deterministic for a fixed workload configuration.
    fn setup(&self, interp: &mut Interp) -> Vec<RtVal>;

    /// Digest of the kernel's observable result (return value and/or
    /// memory), for checking that transformed kernels compute the same
    /// thing. `args` are the values returned by [`Workload::setup`].
    fn checksum(&self, interp: &Interp, args: &[RtVal], ret: Option<RtVal>) -> u64;

    /// Build `variant`, or `None` if this workload does not support it
    /// (e.g. the Fig. 2 schemes exist only for IS). Baseline and plain
    /// manual variants are supported everywhere by default.
    fn build_variant(&self, variant: KernelVariant) -> Option<Module> {
        match variant {
            KernelVariant::Baseline => Some(self.build_baseline()),
            KernelVariant::Manual { look_ahead } => Some(self.build_manual(look_ahead)),
            KernelVariant::ManualDepth { .. } | KernelVariant::Fig2(_) => None,
        }
    }
}

/// The paper's seven benchmark configurations, in figure order.
#[must_use]
pub fn suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    WorkloadId::ALL
        .iter()
        .map(|id| id.instantiate(scale))
        .collect()
}

/// One module, as text, holding `copies` renamed copies of every
/// textually distinct baseline kernel of [`suite`] (HJ-2/HJ-8 and the
/// two Graph500 sizes print identical IR): a compiler-sized input for
/// benches and budgets of the text → IR → text path, the shape of the
/// repo benchmark's `big.swir`.
///
/// # Panics
/// If a baseline module is not exactly one `@kernel` function.
#[must_use]
pub fn replicated_suite(scale: Scale, copies: usize) -> String {
    let mut kernels: Vec<String> = Vec::new();
    for w in suite(scale) {
        let text = swpf_ir::printer::print_module(&w.build_baseline());
        if !kernels.contains(&text) {
            kernels.push(text);
        }
    }
    let mut out = String::from("module big\n");
    for (k, text) in kernels.iter().enumerate() {
        let body = text
            .split_once("func @kernel(")
            .map(|(_, body)| body)
            .filter(|body| !body.contains("func @"))
            .expect("a baseline module is one @kernel function");
        for copy in 0..copies {
            out.push_str(&format!("\nfunc @kernel_{k}_{copy}({body}"));
        }
    }
    out
}

/// The four benchmarks used in the look-ahead sweep of Fig. 6
/// (IS, CG, RA, HJ-2 — the paper shows "only the simpler benchmarks").
#[must_use]
pub fn fig6_suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    WorkloadId::FIG6
        .iter()
        .map(|id| id.instantiate(scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_suite_is_valid_canonical_text() {
        let text = replicated_suite(Scale::Test, 3);
        let m = swpf_ir::parser::parse_module(&text).expect("parses");
        swpf_ir::verifier::verify_module(&m).expect("verifies");
        assert_eq!(m.num_functions(), 3 * 5, "five distinct kernels");
        assert_eq!(swpf_ir::printer::print_module(&m), text);
    }

    #[test]
    fn workload_ids_match_instance_names() {
        for id in WorkloadId::ALL {
            assert_eq!(id.name(), id.instantiate(Scale::Test).name());
        }
    }

    #[test]
    fn scale_parses_and_rejects() {
        assert_eq!("test".parse::<Scale>(), Ok(Scale::Test));
        assert_eq!("paper".parse::<Scale>(), Ok(Scale::Paper));
        let err = "TEST".parse::<Scale>().unwrap_err();
        assert!(err.contains("TEST"), "error names the bad value: {err}");
        assert!("".parse::<Scale>().is_err());
    }

    #[test]
    fn variant_labels_are_distinct() {
        let all = [
            KernelVariant::Baseline,
            KernelVariant::Manual { look_ahead: 64 },
            KernelVariant::Manual { look_ahead: 4 },
            KernelVariant::ManualDepth {
                look_ahead: 64,
                depth: 3,
            },
            KernelVariant::Fig2(is::Fig2Scheme::Intuitive),
            KernelVariant::Fig2(is::Fig2Scheme::Optimal),
        ];
        let labels: std::collections::HashSet<String> = all.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn default_variants_supported_everywhere() {
        for id in WorkloadId::ALL {
            let w = id.instantiate(Scale::Test);
            assert!(w.build_variant(KernelVariant::Baseline).is_some());
            assert!(w
                .build_variant(KernelVariant::Manual { look_ahead: 16 })
                .is_some());
        }
    }

    #[test]
    fn specialised_variants_gated_to_their_workloads() {
        let fig2 = KernelVariant::Fig2(is::Fig2Scheme::Optimal);
        let depth = KernelVariant::ManualDepth {
            look_ahead: 64,
            depth: 2,
        };
        for id in WorkloadId::ALL {
            let w = id.instantiate(Scale::Test);
            assert_eq!(w.build_variant(fig2).is_some(), id == WorkloadId::Is);
            assert_eq!(w.build_variant(depth).is_some(), id == WorkloadId::Hj8);
        }
    }
}
