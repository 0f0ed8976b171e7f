//! Hand-written `.swir` programs shared by the integration tests:
//! `textual_programs.rs` compiles and executes them, `fuzz_swir.rs`
//! mutates them. They use symbolic value names (`%s`, `%a`, `%h`) and
//! forward phi references the printer never emits.

/// `for (i = 0; i < n; i++)` over `a[b[i]]`, signed bound.
pub const UPCOUNTING_SIGNED: &str = r"module t

func @kernel(%0: ptr, %1: ptr, %2: i64) -> i64 {
  %3 = const 0: i64
  %4 = const 1: i64
bb0:
  br bb1
bb1:
  %5: i64 = phi [bb0: %3], [bb2: %12]
  %6: i64 = phi [bb0: %3], [bb2: %11]
  %7: i1 = icmp slt %5, %2
  br %7, bb2, bb3
bb2:
  %8: ptr = gep %1, %5 x 8
  %9: i64 = load i64, %8
  %10: ptr = gep %0, %9 x 8
  %s: i64 = load i64, %10
  %11: i64 = add %6, %s
  %12: i64 = add %5, %4
  br bb1
bb3:
  ret %6
}
";

/// The same loop with an unsigned (`ult`) bound.
pub const UNSIGNED_BOUND: &str = r"module t

func @kernel(%0: ptr, %1: ptr, %2: i64) -> i64 {
  %3 = const 0: i64
  %4 = const 1: i64
bb0:
  br bb1
bb1:
  %5: i64 = phi [bb0: %3], [bb2: %12]
  %6: i64 = phi [bb0: %3], [bb2: %11]
  %7: i1 = icmp ult %5, %2
  br %7, bb2, bb3
bb2:
  %8: ptr = gep %1, %5 x 8
  %9: i64 = load i64, %8
  %10: ptr = gep %0, %9 x 8
  %s: i64 = load i64, %10
  %11: i64 = add %6, %s
  %12: i64 = add %5, %4
  br bb1
bb3:
  ret %6
}
";

/// `for (i = n-1; i >= 0; i--)` over argument arrays.
pub const DOWNCOUNTING: &str = r"module t

func @kernel(%0: ptr, %1: ptr, %2: i64) -> i64 {
  %3 = const 0: i64
  %4 = const 1: i64
bb0:
  %5: i64 = sub %2, %4
  br bb1
bb1:
  %6: i64 = phi [bb0: %5], [bb2: %13]
  %7: i64 = phi [bb0: %3], [bb2: %12]
  %8: i1 = icmp sge %6, %3
  br %8, bb2, bb3
bb2:
  %9: ptr = gep %1, %6 x 8
  %10: i64 = load i64, %9
  %11: ptr = gep %0, %10 x 8
  %s: i64 = load i64, %11
  %12: i64 = add %7, %s
  %13: i64 = sub %6, %4
  br bb1
bb3:
  ret %7
}
";

/// The down-counting loop with a local allocation (`%a`) as the look-ahead array.
pub const DOWNCOUNTING_LOCAL_ALLOC: &str = r"module t

func @kernel(%0: ptr, %1: ptr, %2: i64) -> i64 {
  %3 = const 0: i64
  %4 = const 1: i64
bb0:
  %a: ptr = alloc %2 x 8
  %5: i64 = sub %2, %4
  br bb1
bb1:
  %6: i64 = phi [bb0: %5], [bb2: %13]
  %7: i64 = phi [bb0: %3], [bb2: %12]
  %8: i1 = icmp sge %6, %3
  br %8, bb2, bb3
bb2:
  %9: ptr = gep %a, %6 x 8
  %10: i64 = load i64, %9
  %11: ptr = gep %0, %10 x 8
  %s: i64 = load i64, %11
  %12: i64 = add %7, %s
  %13: i64 = sub %6, %4
  br bb1
bb3:
  ret %7
}
";

/// A pure callee (`@mix`) inside the address computation.
pub const PURE_CALL: &str = r"module t

func @mix(%0: i64) -> i64 pure {
bb0:
  %1: i64 = mul %0, %0
  %2 = const 127: i64
  %3: i64 = and %1, %2
  ret %3
}

func @kernel(%0: ptr, %1: ptr, %2: i64) -> i64 {
  %3 = const 0: i64
  %4 = const 1: i64
bb0:
  br bb1
bb1:
  %5: i64 = phi [bb0: %3], [bb2: %12]
  %6: i64 = phi [bb0: %3], [bb2: %11]
  %7: i1 = icmp slt %5, %2
  br %7, bb2, bb3
bb2:
  %8: ptr = gep %1, %5 x 8
  %9: i64 = load i64, %8
  %h: i64 = call @mix(%9)
  %10: ptr = gep %0, %h x 8
  %s: i64 = load i64, %10
  %11: i64 = add %6, %s
  %12: i64 = add %5, %4
  br bb1
bb3:
  ret %6
}
";

/// Every program above.
#[allow(dead_code)]
pub const ALL: [&str; 5] = [
    UPCOUNTING_SIGNED,
    UNSIGNED_BOUND,
    DOWNCOUNTING,
    DOWNCOUNTING_LOCAL_ALLOC,
    PURE_CALL,
];
