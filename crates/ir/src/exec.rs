//! The image layer: a module lowered once, shared by every interpreter
//! that runs it.
//!
//! The timing simulator in `swpf-sim` is execution-driven — every cycle
//! it charges is attached to an instruction the interpreter retires — so
//! interpreter throughput bounds every experiment in the reproduction.
//! [`ExecImage::build`] pays the per-module work once: it lowers every
//! function to the bytecode tier's fixed-width words
//! ([`crate::bytecode`]) and keeps a copy of the module, so the classic
//! tier can start from an image too — it runs image starts under
//! `SWPF_TIER=classic` and modules that exceed the bytecode encoding.
//!
//! Callers normally use the [`crate::interp::Interp`] facade, which owns
//! the simulated [`Memory`](crate::interp::Memory) and builds images on
//! demand. Multi-core simulations build once and share the image across
//! interpreters via [`std::sync::Arc`] (see `swpf_sim::multicore`).

use crate::bytecode::{BcImage, LowerError};
use crate::module::Module;
use std::sync::{Arc, Once};

/// A module lowered for execution: its bytecode (or why it has none),
/// plus the module itself.
///
/// Build once with [`ExecImage::build`], then run any number of
/// [`crate::interp::Interp`] facades against it — typically wrapped in
/// an [`Arc`] so multi-core simulations share one lowering.
#[derive(Debug)]
pub struct ExecImage {
    /// The lowered module, which the classic tier walks.
    pub(crate) module: Arc<Module>,
    bytecode: Result<Arc<BcImage>, LowerError>,
    /// Guards the fallback warning, so it is printed once per image.
    warned: Once,
}

impl ExecImage {
    /// Lower every function of `module` to bytecode, keeping a copy of
    /// the module for the classic tier.
    ///
    /// The module should satisfy the [`crate::verifier`] invariants the
    /// classic engine also relies on (phis leading their blocks, one
    /// incoming per predecessor). Structural violations the classic
    /// engine would only hit at run time — a phi after a non-phi, a
    /// missing incoming — panic here, at build time.
    ///
    /// # Panics
    /// On structurally invalid modules, as described above.
    #[must_use]
    pub fn build(module: &Module) -> ExecImage {
        ExecImage {
            bytecode: BcImage::lower_module(module).map(Arc::new),
            module: Arc::new(module.clone()),
            warned: Once::new(),
        }
    }

    /// The bytecode-tier lowering of this image (see [`crate::bytecode`]),
    /// shared by every interpreter running the image (e.g. the cores of a
    /// multicore simulation).
    ///
    /// Returns `None`, with a one-time warning, when the module exceeds
    /// the bytecode encoding's 14-bit field capacities ([`LowerError`]);
    /// callers are expected to fall back to the classic tier.
    #[must_use]
    pub fn bytecode(&self) -> Option<Arc<BcImage>> {
        match &self.bytecode {
            Ok(bc) => Some(Arc::clone(bc)),
            Err(e) => {
                self.warned.call_once(|| {
                    eprintln!(
                        "swpf-ir: bytecode lowering unavailable ({e}); \
                         falling back to the classic tier"
                    );
                });
                None
            }
        }
    }
}
