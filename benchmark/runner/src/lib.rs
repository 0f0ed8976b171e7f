//! The repo benchmark's end-to-end runner. It links no `swpf-*` crate:
//! it builds and spawns the product's own release binaries (`all`,
//! `swpf-opt`), times them from outside, and reads the artifacts they
//! write, so no refactor of the product's libraries can break the
//! instrument it is judged by. See `benchmark/README.md`.

pub mod artifacts;
pub mod compare;
pub mod gen;
pub mod json;
pub mod session;
pub mod spawn;
pub mod spec;
pub mod stats;

/// FNV-1a, 64 bits: digests of outputs that must repeat exactly.
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}
