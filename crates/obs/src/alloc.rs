//! A counting global allocator — the deterministic twin of a wall-clock
//! claim: a test binary installs [`CountingAlloc`] and asserts a budget
//! in calls or bytes, which fails on any host by the same amount.
//!
//! ```
//! use swpf_obs::alloc::CountingAlloc;
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let before = ALLOC.calls();
//! let v = vec![0u8; 100];
//! assert_eq!(ALLOC.calls() - before, 1);
//! drop(v);
//! ```
//!
//! The hook is process-wide, so a test that uses it lives in an
//! integration-test binary of its own, with one `#[test]`, and nothing
//! else allocates on its behalf.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting as it goes: allocation calls
/// (`alloc` and `realloc` — every trip into the allocator that can
/// return new memory), live bytes, and their high-water mark.
#[derive(Debug)]
pub struct CountingAlloc {
    calls: AtomicUsize,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A fresh allocator with zeroed counters.
    #[must_use]
    pub const fn new() -> Self {
        CountingAlloc {
            calls: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// `alloc` + `realloc` calls so far.
    #[must_use]
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`CountingAlloc::live_bytes`] since the last
    /// [`CountingAlloc::reset_peak`].
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restart the high-water mark from the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::Relaxed);
    }

    fn grew(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters are plain
// statistics (relaxed atomics) and never influence a pointer or a size.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.live.fetch_sub(layout.size(), Ordering::Relaxed);
            self.grew(new_size);
        }
        q
    }
}
