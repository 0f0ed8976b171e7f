//! The trace envelope's compression ratio on the IS test-scale trace:
//! raw event payload over file bytes, held to the reference recorded in
//! `BENCH.json` (`trace.compression.v1_bytes` and `v2_bytes`, whose
//! ratio was 5.04x) divided by a 1.3x allowance. Byte counts, not wall
//! time, so the floor holds on any host.

use std::sync::Arc;
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::Interp;
use swpf_trace::TraceRecorder;
use swpf_workloads::{is::IntegerSort, Scale, Workload};

/// The reference's raw side: the retired raw-payload envelope, which is
/// the payload plus a fixed 56 bytes for one core.
const REFERENCE_RAW_BYTES: f64 = 43_034.0 - 56.0;
/// The reference's file side.
const REFERENCE_FILE_BYTES: f64 = 8_535.0;
const ALLOWANCE: f64 = 1.3;

#[test]
fn the_is_trace_compresses_within_the_allowance_of_its_reference() {
    let is = IntegerSort::new(Scale::Test);
    let module = is.build_baseline();
    let func = module.find_function("kernel").expect("kernel exists");
    let mut interp = Interp::new();
    let args = is.setup(&mut interp);
    let mut rec = TraceRecorder::new(1, 0);
    let image = Arc::new(ExecImage::build(&module));
    interp
        .run_with_image(image, func, &args, rec.stream(0))
        .expect("IS kernel runs");
    let trace = rec.finish();

    let raw = trace.payload_bytes() as f64;
    let file = trace.to_bytes().len() as f64;
    let floor = REFERENCE_RAW_BYTES / REFERENCE_FILE_BYTES / ALLOWANCE;
    assert!(
        raw / file >= floor,
        "compression ratio {:.3}x ({raw} / {file} B) fell below the floor {floor:.3}x",
        raw / file
    );
}
