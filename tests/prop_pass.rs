//! Property tests for the prefetch pass: for randomly sized and shaped
//! indirect-chain kernels and random configurations, the transformed
//! program must verify, never fault, and compute the same result.
//!
//! This is the paper's §4.2 guarantee under test: "the checks described
//! in this section ensure that address generation code doesn't create
//! faults if the original code was correct".
//!
//! The same kernels, and every kernel the seven workloads build, also
//! check the pass's candidate walk against the path-enumerating oracle
//! in `dfs_oracle`.

mod dfs_oracle;

use proptest::prelude::*;
use swpf::pass::{run_on_module, PassConfig};
use swpf::workloads::{is::Fig2Scheme, suite, KernelVariant, Scale};
use swpf_ir::interp::{Interp, NullObserver, RtVal};
use swpf_ir::prelude::*;
use swpf_ir::verifier::verify_module;

/// What a generated kernel's address chain goes through besides its
/// loads.
#[derive(Debug, Clone, Copy, Default)]
struct Shape {
    /// Self-doubling adds (`x = x + x`, then `x % n`) after each load.
    doublings: usize,
    /// The level whose loaded index passes an if/else diamond and the
    /// non-IV phi that merges it.
    diamond: Option<usize>,
    /// Mix a non-IV accumulator phi into the first loaded index; the
    /// final index feeds it back, so it sits on a dependence cycle.
    accumulate: bool,
}

/// Build `for (i=0; i<n; i++) sum += aK[...a2[a1[i]]...]` with `depth`
/// indirections, arrays passed as arguments, each loaded index passed
/// through `shape`. Every index stays below `n`.
fn chain_kernel(depth: usize, shape: Shape) -> Module {
    let mut m = Module::new("p");
    let mut params = vec![Type::Ptr; depth];
    params.push(Type::I64);
    let fid = m.declare_function("kernel", &params, Type::I64);
    let mut b = FunctionBuilder::new(m.function_mut(fid));
    let n = b.arg(depth);
    let entry = b.entry_block();
    let header = b.create_block("h");
    let body = b.create_block("b");
    let exit = b.create_block("x");
    let zero = b.const_i64(0);
    let one = b.const_i64(1);
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::I64, &[(entry, zero)]);
    let sum = b.phi(Type::I64, &[(entry, zero)]);
    let acc = shape.accumulate.then(|| b.phi(Type::I64, &[(entry, zero)]));
    let c = b.icmp(Pred::Slt, i, n);
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let mut idx = i;
    for level in 0..depth {
        let g = b.gep(b.arg(level), idx, 8);
        idx = b.load(Type::I64, g);
        for _ in 0..shape.doublings {
            idx = b.add(idx, idx);
        }
        if shape.doublings > 0 {
            idx = b.binary(BinOp::Urem, idx, n);
        }
        if let (0, Some(acc)) = (level, acc) {
            let mixed = b.add(idx, acc);
            idx = b.binary(BinOp::Urem, mixed, n);
        }
        if shape.diamond == Some(level) {
            let odd = b.and(idx, one);
            let is_even = b.icmp(Pred::Eq, odd, zero);
            let (even_b, odd_b, join) = (
                b.create_block("even"),
                b.create_block("odd"),
                b.create_block("join"),
            );
            b.cond_br(is_even, even_b, odd_b);
            b.switch_to(even_b);
            b.br(join);
            b.switch_to(odd_b);
            let next = b.add(idx, one);
            let wrapped = b.binary(BinOp::Urem, next, n);
            b.br(join);
            b.switch_to(join);
            idx = b.phi(Type::I64, &[(even_b, idx), (odd_b, wrapped)]);
        }
    }
    let latch = b.current_block();
    let sum2 = b.add(sum, idx);
    let i2 = b.add(i, one);
    b.add_phi_incoming(i, latch, i2);
    b.add_phi_incoming(sum, latch, sum2);
    if let Some(acc) = acc {
        b.add_phi_incoming(acc, latch, idx);
    }
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(sum));
    let _ = b;
    m
}

/// The shape drawn from plain integers (the proptest shim has no
/// `Option` strategy): a diamond level at or past `depth` means none.
fn shape(doublings: usize, diamond: usize, depth: usize, accumulate: bool) -> Shape {
    Shape {
        doublings,
        diamond: (diamond < depth).then_some(diamond),
        accumulate,
    }
}

/// Run the chain kernel over `n` elements with permutation-ish data.
fn run_chain(m: &Module, depth: usize, n: u64, seed: u64) -> i64 {
    let mut interp = Interp::new();
    let mut args = Vec::new();
    let mut x = seed | 1;
    for _ in 0..depth {
        let a = interp.alloc_array(n, 8).unwrap();
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            interp.mem().write(a + i * 8, 8, x % n).unwrap();
        }
        args.push(RtVal::Int(a as i64));
    }
    args.push(RtVal::Int(n as i64));
    let f = m.find_function("kernel").unwrap();
    interp
        .run(m, f, &args, &mut NullObserver)
        .expect("no faults")
        .expect("returns sum")
        .as_int()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transformed_chains_never_fault_and_match(
        depth in 1usize..5,
        n in 1u64..200,
        c in 1i64..300,
        seed: u64,
        stride in any::<bool>(),
        max_depth in 1usize..6,
        doublings in 0usize..3,
        diamond in 0usize..8,
        accumulate in any::<bool>(),
    ) {
        let baseline = chain_kernel(depth, shape(doublings, diamond, depth, accumulate));
        let want = run_chain(&baseline, depth, n, seed);

        let mut m = baseline.clone();
        let config = PassConfig {
            look_ahead: c,
            stride_companion: stride,
            max_indirect_depth: max_depth,
            ..PassConfig::default()
        };
        run_on_module(&mut m, &config);
        verify_module(&m).expect("pass output verifies");
        let got = run_chain(&m, depth, n, seed);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn offsets_decrease_along_any_chain(t in 1usize..10, c in 1i64..1000) {
        let mut prev = i64::MAX;
        for l in 0..t {
            let o = swpf::pass::schedule::offset(c, t, l);
            prop_assert!(o >= 1);
            prop_assert!(o <= prev);
            prev = o;
        }
        // The first prefetch in a sequence always gets the full distance.
        prop_assert_eq!(swpf::pass::schedule::offset(c.max(1), t, 0), c.max(1));
    }

    #[test]
    fn tiny_loops_with_huge_lookahead_stay_safe(
        n in 1u64..8,
        c in 1000i64..100_000,
    ) {
        // The clamp must keep every generated intermediate load inside
        // the array even when the look-ahead dwarfs the trip count.
        let baseline = chain_kernel(2, Shape::default());
        let want = run_chain(&baseline, 2, n, 42);
        let mut m = baseline.clone();
        run_on_module(&mut m, &PassConfig::with_look_ahead(c));
        let got = run_chain(&m, 2, n, 42);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn candidate_walk_matches_the_path_oracle(
        depth in 1usize..5,
        doublings in 0usize..4,
        diamond in 0usize..8,
        accumulate in any::<bool>(),
    ) {
        let mut m = chain_kernel(depth, shape(doublings, diamond, depth, accumulate));
        prop_assert_eq!(dfs_oracle::assert_walk_matches(&m), depth);
        // The pass's output has more loads in loops: its own clones.
        run_on_module(&mut m, &PassConfig::default());
        dfs_oracle::assert_walk_matches(&m);
    }
}

/// Every kernel the seven workloads build, and the pass's output for
/// each: the walk agrees with the oracle on every in-loop load.
#[test]
fn candidate_walk_matches_the_path_oracle_on_workloads() {
    let variants = [
        KernelVariant::Baseline,
        KernelVariant::Manual { look_ahead: 64 },
        KernelVariant::ManualDepth {
            look_ahead: 64,
            depth: 2,
        },
        KernelVariant::ManualDepth {
            look_ahead: 64,
            depth: 4,
        },
        KernelVariant::Fig2(Fig2Scheme::Intuitive),
        KernelVariant::Fig2(Fig2Scheme::Optimal),
    ];
    let mut compared = 0;
    for w in suite(Scale::Test) {
        for m in variants.iter().filter_map(|&v| w.build_variant(v)) {
            compared += dfs_oracle::assert_walk_matches(&m);
            let mut transformed = m.clone();
            run_on_module(&mut transformed, &PassConfig::default());
            compared += dfs_oracle::assert_walk_matches(&transformed);
        }
    }
    assert!(compared > 100, "only {compared} loads compared");
}
