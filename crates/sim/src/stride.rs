//! Per-PC hardware stride prefetcher.
//!
//! All four evaluated machines detect constant-stride streams in
//! hardware, which is why the paper leaves plain stride loads alone
//! (§4.3) — and why the *indirect* loads, whose addresses are
//! data-dependent, still need software help. The table is indexed by the
//! static instruction (PC); after two consecutive accesses with the same
//! stride it issues fills a configurable distance ahead.

/// One entry of the reference-prediction table.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// Detected-stream prefetch request: lines the prefetcher wants filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideFill {
    /// Address to fill.
    pub addr: u64,
}

/// A reference-prediction-table stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<Entry>,
    /// How many strides ahead to fetch once confident.
    pub distance: i64,
    /// How many consecutive matching strides before prefetching.
    pub threshold: u8,
    issued: u64,
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        Self::new(64, 16, 2)
    }
}

impl StridePrefetcher {
    /// Create with `slots` table entries, prefetching `distance` strides
    /// ahead after `threshold` confirmations.
    #[must_use]
    pub fn new(slots: usize, distance: i64, threshold: u8) -> Self {
        StridePrefetcher {
            table: vec![Entry::default(); slots.max(1)],
            distance,
            threshold,
            issued: 0,
        }
    }

    /// Observe a demand access; returns a fill request when a stream is
    /// confident. Strides of zero or beyond 2 KiB are ignored (not
    /// streams a real prefetcher tracks).
    pub fn observe(&mut self, pc: u64, addr: u64) -> Option<StrideFill> {
        let idx = (pc as usize) % self.table.len();
        let e = &mut self.table[idx];
        if !e.valid || e.pc != pc {
            *e = Entry {
                pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return None;
        }
        let stride = addr.wrapping_sub(e.last_addr) as i64;
        if stride == e.stride && stride != 0 && stride.unsigned_abs() <= 2048 {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;
        if e.confidence >= self.threshold {
            let target = addr.wrapping_add((e.stride * self.distance) as u64);
            self.issued += 1;
            return Some(StrideFill { addr: target });
        }
        None
    }

    /// Number of fills issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_unit_stride_stream() {
        let mut p = StridePrefetcher::new(16, 16, 2);
        assert_eq!(p.observe(7, 0x1000), None);
        assert_eq!(p.observe(7, 0x1004), None); // stride learned
        assert_eq!(p.observe(7, 0x1008), None); // confidence 1
        let f = p.observe(7, 0x100C).expect("confident now");
        assert_eq!(f.addr, 0x100C + 4 * 16);
        assert_eq!(p.issued(), 1);
    }

    #[test]
    fn random_addresses_never_trigger() {
        let mut p = StridePrefetcher::new(16, 16, 2);
        let mut x = 12345u64;
        for _ in 0..100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            assert_eq!(p.observe(3, x & 0xFFFF_FFC0), None);
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn negative_strides_are_tracked() {
        let mut p = StridePrefetcher::new(16, 4, 2);
        for i in 0..3 {
            p.observe(9, 0x10000 - i * 8);
        }
        let f = p.observe(9, 0x10000 - 3 * 8).expect("down stream");
        assert_eq!(f.addr, 0x10000 - 3 * 8 - 8 * 4);
    }

    #[test]
    fn interleaved_pcs_use_separate_entries() {
        let mut p = StridePrefetcher::new(16, 16, 2);
        for i in 0..8u64 {
            p.observe(1, 0x1000 + i * 4);
            p.observe(2, 0x8000 + i * 8);
        }
        assert!(p.issued() >= 8, "both streams detected");
    }

    #[test]
    fn a_stride_of_two_to_the_63_is_not_a_stream() {
        // i64::MIN, whose magnitude has no i64: compared unsigned.
        let mut p = StridePrefetcher::new(16, 16, 2);
        for addr in [0, 1 << 63, 0, 1 << 63, 0] {
            assert_eq!(p.observe(5, addr), None);
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn huge_strides_ignored() {
        let mut p = StridePrefetcher::new(16, 16, 2);
        for i in 0..10u64 {
            assert_eq!(p.observe(4, i * 1_000_000), None);
        }
    }
}
