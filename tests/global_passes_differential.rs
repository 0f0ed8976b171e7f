//! Differential suite for the global optimizer passes (GVN, SCCP,
//! LICM).
//!
//! Each new pass rewrites real code — merging dominated duplicates,
//! folding proven constants and branches, hoisting invariant address
//! computation — but must never change what a kernel *computes*: the
//! architectural result, the final memory image, the workload checksum,
//! and trap behaviour are all invariant, on every execution tier. This
//! suite runs every pass (alone and in the full pipeline) over all 7
//! workloads × 3 kernel variants and compares the outcome against the
//! unoptimized module on both tiers (bytecode, classic tree-walker),
//! plus a synthetic trapping kernel proving a runtime trap survives
//! every pass. Property tests pin the per-pass
//! contracts: GVN never increases the (static or dynamic) instruction
//! count, LICM hoists only speculation-safe loop-invariant code, and
//! SCCP's folded constants agree with the interpreter.

use proptest::prelude::*;
use swpf::pass::{run_on_module, PassConfig};
use swpf::workloads::{suite, KernelVariant, Scale, Workload};
use swpf_ir::interp::{Interp, NullObserver, RtVal, Tier, Trap, HEAP_BASE};
use swpf_ir::printer::print_module;
use swpf_ir::Module;

/// The pipelines under test: each global pass alone (the sharpest
/// attribution) and the full default pipeline.
const PIPELINES: [&str; 4] = ["gvn", "sccp", "licm", "gvn,sccp,licm,cse,dce"];

const TIERS: [Tier; 2] = [Tier::Bytecode, Tier::Classic];

/// FNV-1a over all allocated simulated memory.
fn mem_digest(mem: &swpf_ir::interp::Memory) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let len = mem.allocated();
    let mut off = 0u64;
    while off + 8 <= len {
        let v = mem.read(HEAP_BASE + off, 8).expect("in bounds");
        h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        off += 8;
    }
    while off < len {
        let v = mem.read(HEAP_BASE + off, 1).expect("in bounds");
        h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        off += 1;
    }
    h
}

struct Outcome {
    result: Result<Option<RtVal>, Trap>,
    retired: u64,
    mem_digest: u64,
    checksum: Option<u64>,
}

fn run_tier(tier: Tier, m: &Module, w: &dyn Workload) -> Outcome {
    let mut interp = Interp::with_tier(tier);
    let args = w.setup(&mut interp);
    let f = m.find_function("kernel").expect("kernel exists");
    let result = interp.run(m, f, &args, &mut NullObserver);
    let checksum = match &result {
        Ok(ret) => Some(w.checksum(&interp, &args, *ret)),
        Err(_) => None,
    };
    Outcome {
        retired: interp.retired(),
        mem_digest: mem_digest(interp.mem_ref()),
        checksum,
        result,
    }
}

/// Optimize `m` with the given cleanup-only pipeline, with explicit
/// `verify` stages interleaved so a breakage is attributed to the pass
/// that caused it, not discovered downstream.
fn optimize(m: &mut Module, spec: &str) {
    let mut checked = String::from("verify");
    for p in spec.split(',') {
        checked.push(',');
        checked.push_str(p);
        checked.push_str(",verify");
    }
    run_on_module(m, &PassConfig::with_pipeline(&checked));
    swpf_ir::verifier::verify_module(m).expect("optimized module verifies");
}

/// The headline contract: every pass preserves architectural results,
/// memory, and checksums on every workload × variant × tier, and never
/// increases the dynamic instruction count.
#[test]
fn global_passes_preserve_semantics_on_all_workloads_variants_and_tiers() {
    for w in suite(Scale::Test) {
        let auto = {
            let mut m = w.build_baseline();
            run_on_module(&mut m, &PassConfig::default());
            m
        };
        for (variant, m0) in [
            ("baseline", w.build_baseline()),
            (
                "manual",
                w.build_variant(KernelVariant::Manual { look_ahead: 64 })
                    .expect("manual supported everywhere"),
            ),
            ("auto", auto),
        ] {
            for spec in PIPELINES {
                let mut m1 = m0.clone();
                optimize(&mut m1, spec);
                for tier in TIERS {
                    let name = format!("{}/{variant}/{spec}/{tier:?}", w.name());
                    let before = run_tier(tier, &m0, w.as_ref());
                    let after = run_tier(tier, &m1, w.as_ref());
                    assert_eq!(before.result, after.result, "{name}: result");
                    assert_eq!(before.mem_digest, after.mem_digest, "{name}: memory");
                    assert_eq!(before.checksum, after.checksum, "{name}: checksum");
                    assert!(
                        after.retired <= before.retired,
                        "{name}: optimization must not grow execution ({} vs {})",
                        after.retired,
                        before.retired
                    );
                }
            }
        }
    }
}

/// A kernel whose loop traps (division by a runtime zero) midway
/// through, after observable stores. Foldable constant arithmetic and a
/// hoistable invariant multiply surround the trap so every pass has
/// something to chew on without being allowed to change when (or
/// whether) the trap fires.
const TRAPPING_KERNEL: &str = "module traps

func @kernel(%0: ptr, %1: i64) -> i64 {
  %2 = const 0: i64
  %3 = const 1: i64
  %4 = const 3: i64
  %5 = const 21: i64
bb0:
  %6: i64 = mul %4, %5
  br bb1
bb1:
  %7: i64 = phi [bb0: %2], [bb2: %14]
  %8: i1 = icmp slt %7, %1
  br %8, bb2, bb3
bb2:
  %9: i64 = mul %1, %1
  %10: ptr = gep %0, %7 x 8
  store %9, %10
  %11: i64 = sub %1, %7
  %12: i64 = sub %11, %3
  %13: i64 = sdiv %6, %12
  %14: i64 = add %7, %3
  br bb1
bb3:
  ret %6
}
";

/// Trap preservation: the division by zero on the loop's last iteration
/// must fire at the same point — same trap, same retired count, same
/// memory — after every pass, on every tier.
#[test]
fn global_passes_preserve_trap_behavior() {
    let parse = || swpf_ir::parser::parse_module(TRAPPING_KERNEL).expect("trapping kernel parses");
    let m0 = parse();
    swpf_ir::verifier::verify_module(&m0).expect("trapping kernel verifies");
    let n = 5i64;

    let run = |m: &Module, tier: Tier| {
        let mut interp = Interp::with_tier(tier);
        let buf = interp.alloc_array(8, 8).expect("allocates");
        let args = vec![RtVal::Int(buf as i64), RtVal::Int(n)];
        let result = interp.run(
            m,
            m.find_function("kernel").unwrap(),
            &args,
            &mut NullObserver,
        );
        (result, interp.retired(), mem_digest(interp.mem_ref()))
    };

    for spec in PIPELINES {
        let mut m1 = m0.clone();
        optimize(&mut m1, spec);
        for tier in TIERS {
            let name = format!("traps/{spec}/{tier:?}");
            let (r0, _retired0, mem0) = run(&m0, tier);
            let (r1, _retired1, mem1) = run(&m1, tier);
            assert_eq!(r0, r1, "{name}: trap outcome");
            assert!(
                matches!(r1, Err(Trap::DivByZero)),
                "{name}: kernel must still trap, got {r1:?}"
            );
            assert_eq!(mem0, mem1, "{name}: stores before the trap survive");
        }
    }
}

/// Static instruction count of a module (placed instructions only).
fn inst_count(m: &Module) -> usize {
    m.func_ids()
        .map(|f| m.function(f).all_insts().count())
        .sum()
}

proptest! {
    // GVN never increases the static instruction count, on any
    // workload at any configuration point, and composes with the
    // prefetch pass (which is where cross-block duplicates come from).
    #[test]
    fn gvn_never_increases_instruction_count(
        wi in 0usize..7,
        look_ahead in 2i64..256,
        stride in 0u8..2,
    ) {
        let ws = suite(Scale::Test);
        let w = ws[wi].as_ref();
        let mut m = w.build_baseline();
        run_on_module(&mut m, &PassConfig {
            look_ahead,
            stride_companion: stride == 1,
            ..PassConfig::default()
        });
        let before = inst_count(&m);
        optimize(&mut m, "gvn");
        let after = inst_count(&m);
        prop_assert!(after <= before, "{}: {before} -> {after}", w.name());
    }

    // LICM hoists only speculation-safe, loop-invariant instructions:
    // the hoisted module verifies (SSA dominance would flag a variant
    // operand), executes identically, and retires no more instructions
    // than before on the workload's real input.
    #[test]
    fn licm_is_speculation_safe_and_invariant(
        wi in 0usize..7,
        look_ahead in 2i64..256,
    ) {
        let ws = suite(Scale::Test);
        let w = ws[wi].as_ref();
        let mut m = w.build_baseline();
        run_on_module(&mut m, &PassConfig {
            look_ahead,
            ..PassConfig::default()
        });
        let m0 = m.clone();
        optimize(&mut m, "licm");
        prop_assert_eq!(inst_count(&m), inst_count(&m0), "LICM moves, never adds/removes");
        let before = run_tier(Tier::Classic, &m0, w);
        let after = run_tier(Tier::Classic, &m, w);
        prop_assert_eq!(before.result, after.result);
        prop_assert_eq!(before.mem_digest, after.mem_digest);
    }

    // SCCP agrees with the interpreter on folded constants: folding
    // straight-line constant arithmetic produces exactly the value the
    // unfolded kernel computes, for arbitrary seeds (exercising
    // wrapping arithmetic, shifts, comparisons, and casts).
    #[test]
    fn sccp_folds_agree_with_the_interpreter(a in any::<i32>(), b in any::<i32>(), s in 0u8..64) {
        let text = format!(
            "module fold\n\nfunc @kernel(%0: i64) -> i64 {{\n  \
             %1 = const {a}: i64\n  \
             %2 = const {b}: i64\n  \
             %3 = const {s}: i64\nbb0:\n  \
             %4: i64 = add %1, %2\n  \
             %5: i64 = mul %4, %1\n  \
             %6: i64 = xor %5, %2\n  \
             %7: i64 = shl %6, %3\n  \
             %8: i64 = ashr %7, %3\n  \
             %9: i8 = trunc %8 to i8\n  \
             %10: i64 = sext %9 to i64\n  \
             %11: i1 = icmp slt %10, %1\n  \
             %12: i64 = select %11, %4, %5\n  \
             %13: i64 = add %12, %0\n  \
             ret %13\n}}\n"
        );
        let m0 = swpf_ir::parser::parse_module(&text).expect("parses");
        let mut m1 = m0.clone();
        optimize(&mut m1, "sccp");

        // Everything but the final argument-dependent add must fold.
        let fid = m1.find_function("kernel").unwrap();
        let entry = m1.function(fid).entry();
        prop_assert_eq!(
            m1.function(fid).block(entry).insts.len(),
            2,
            "folded kernel is `add` + `ret`: {}",
            print_module(&m1)
        );

        for tier in TIERS {
            let mut i0 = Interp::with_tier(tier);
            let r0 = m0.find_function("kernel").map(|f| i0.run(&m0, f, &[RtVal::Int(7)], &mut NullObserver));
            let mut i1 = Interp::with_tier(tier);
            let r1 = m1.find_function("kernel").map(|f| i1.run(&m1, f, &[RtVal::Int(7)], &mut NullObserver));
            prop_assert_eq!(r0, r1, "{:?}", tier);
        }
    }
}
