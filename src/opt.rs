//! The `swpf-opt` driver as a library: module text in, the two output
//! streams out.
//!
//! [`compile`] works one function at a time, as the paper's pass does.
//! The parser's header pre-scan first declares every function, so that
//! a call resolves, and verifies, against any other function's
//! signature. Then, for each function in turn, it parses the body,
//! verifies it, runs every pass on it, verifies it again, prints it, and
//! drops its IR and analyses before it reads the next body. What it
//! holds at once is the input, the output and one function.
//!
//! The output is the text a whole-module run prints, and errors keep a
//! whole-module run's precedence: a parse error anywhere in the input
//! first, then the first function that does not verify as read, then an
//! internal error (a pass whose output does not verify). After the
//! first error no pass runs, but the remaining bodies are still read —
//! and, past an internal error, verified — to find an error that
//! outranks it.

use crate::ir::parser::{ModuleReader, ParseError};
use crate::ir::printer::ModulePrinter;
use crate::pass::{icc_like, FunctionPipeline, FunctionReport, PassConfig};
use crate::pass_manager::AnalysisManager;

/// What [`compile`] runs.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// The pass configuration, the pipeline included.
    pub config: PassConfig,
    /// Run the restricted stride-indirect baseline instead of the
    /// pipeline.
    pub icc_like: bool,
    /// Print only the report: [`Output::module`] stays empty.
    pub report_only: bool,
}

/// What [`compile`] writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// The printed module (stdout).
    pub module: String,
    /// The pass report and its summary line (stderr).
    pub report: String,
}

/// The first error after parsing, by rank: a function that does not
/// verify as read outranks a pass that broke one.
enum Failure {
    Input(String),
    Internal(String),
}

/// Compile `text` one function at a time.
///
/// # Errors
/// The message of the error that ranks first (see the module docs).
pub fn compile(text: &str, options: &Options) -> Result<Output, String> {
    let parse_error = |e: ParseError| format!("parse error: {e}");
    let mut reader = ModuleReader::new(text).map_err(parse_error)?;
    let mut pipeline = FunctionPipeline::new(&options.config);
    // One report text per `swpf` stage (the baseline has one), so that
    // each stage's functions stay together, in stage order.
    let stages = if options.icc_like {
        1
    } else {
        pipeline.reporting_stages().max(1)
    };
    let mut reports = vec![String::new(); stages];
    let (mut prefetches, mut skipped) = (0, 0);
    let mut render = |stage: usize, fr: FunctionReport| {
        fr.render_into(&mut reports[stage]);
        prefetches += fr.num_prefetch_insts();
        skipped += fr.skipped.len();
    };
    let name = &reader.module().name;
    let mut printer =
        (!options.report_only).then(|| ModulePrinter::with_capacity(name, text.len()));
    let mut am = AnalysisManager::new();
    let mut failure = None;
    while let Some(fid) = reader.next_body().map_err(parse_error)? {
        let m = reader.module_mut();
        if !matches!(failure, Some(Failure::Input(_))) {
            if let Err(errs) = am.verify(m, fid) {
                failure = Some(Failure::Input(format!(
                    "input does not verify: {}",
                    errs[0]
                )));
            }
        }
        if failure.is_none() {
            let transformed = if options.icc_like {
                render(0, icc_like::run_on_function(m, fid, &options.config));
                am.invalidate(fid);
                Ok(())
            } else {
                let run = pipeline.run(m, fid, &mut am);
                pipeline.drain(&mut render);
                run.map_err(|e| format!("prefetch pipeline failed: {e}"))
            };
            let checked = transformed.and_then(|()| {
                am.verify(m, fid)
                    .map_err(|errs| format!("output does not verify: {}", errs[0]))
            });
            match (checked, &mut printer) {
                (Ok(()), Some(printer)) => printer.function(m, m.function(fid)),
                (Ok(()), None) => {}
                (Err(e), _) => failure = Some(Failure::Internal(format!("internal error: {e}"))),
            }
        }
        m.function_mut(fid).clear_body();
        am.invalidate(fid);
    }
    if let Some(Failure::Input(message) | Failure::Internal(message)) = failure {
        return Err(message);
    }
    let summary =
        format!("{prefetches} prefetch instruction(s) inserted, {skipped} load(s) skipped\n");
    let mut report = std::mem::take(&mut reports[0]);
    report.reserve_exact(reports[1..].iter().map(String::len).sum::<usize>() + summary.len());
    for stage in &reports[1..] {
        report.push_str(stage);
    }
    report.push_str(&summary);
    let module = printer.map(ModulePrinter::finish).unwrap_or_default();
    Ok(Output { module, report })
}
