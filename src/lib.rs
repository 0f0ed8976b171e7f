//! Facade crate: re-exports the full swpf API surface.
pub use swpf_analysis as analysis;
pub use swpf_core as pass;
pub use swpf_ir as ir;
pub use swpf_pass as pass_manager;
pub use swpf_sim as sim;
pub use swpf_trace as trace;
pub use swpf_tune as tune;
pub use swpf_workloads as workloads;

pub mod opt;
