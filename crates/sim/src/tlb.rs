//! TLB with a limited number of concurrent page-table walkers.
//!
//! The paper attributes the Cortex-A57's capped prefetch gains to its
//! single page-table walker (§6.1): every new page touched — by a demand
//! load *or* a software prefetch — needs a walk, and walks serialise on
//! the walker. Software prefetches that miss the TLB still install the
//! translation, which is why prefetching doubles as TLB warming on 4 KiB
//! pages (Fig. 10).

use crate::presets::TlbConfig;
use crate::TICKS_PER_CYCLE;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hash for page numbers: the index below is probed once
/// per memory access, where SipHash would cost more than the lookup.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("page numbers hash through write_u64");
    }

    fn write_u64(&mut self, page: u64) {
        // Fibonacci hashing; the table reads the top bits for its
        // control bytes and the low bits for the bucket, so fold.
        let h = page.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Entries of [`Tlb`]'s direct-mapped hint table.
const HINTS: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    /// Tick at which the translation's walk completes.
    ready: u64,
    last_use: u64,
}

/// A fully-associative TLB with LRU replacement and `walkers` page-table
/// walk ports.
#[derive(Debug, Clone)]
pub struct Tlb {
    page_bits: u32,
    entries: usize,
    walk_latency_ticks: u64,
    /// Resident translations. A slot keeps its position for life (a
    /// victim is overwritten in place), because LRU ties — several
    /// translations at the same tick — go to the first slot.
    slots: Vec<Slot>,
    /// Slot of every resident page.
    index: HashMap<u64, usize, BuildHasherDefault<PageHasher>>,
    /// Slot of the most recent translation, checked first.
    mru: usize,
    /// Direct-mapped page → slot guesses, checked after the MRU slot and
    /// before the index: `hints[page % HINTS]` is the slot that last
    /// held a page of that residue. A guess is trusted only when the
    /// slot it names holds the page, so a stale one merely falls
    /// through to the index.
    hints: [u32; HINTS],
    /// Tick at which each walker becomes free.
    walker_free: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Build from a configuration.
    #[must_use]
    pub fn new(cfg: &TlbConfig) -> Self {
        Tlb {
            page_bits: cfg.page_bits,
            entries: cfg.entries.max(1) as usize,
            walk_latency_ticks: cfg.walk_latency * TICKS_PER_CYCLE,
            slots: Vec::new(),
            index: HashMap::default(),
            mru: 0,
            hints: [0; HINTS],
            walker_free: vec![0; cfg.walkers.max(1) as usize],
            hits: 0,
            misses: 0,
        }
    }

    fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_bits
    }

    /// Translate `addr` at tick `now`; returns the tick at which the
    /// translation is available (equal to `now` on a hit, later when a
    /// walk — possibly queued behind other walks — is needed).
    ///
    /// Only the MRU check is inline. It leaves the hint table alone: the
    /// MRU slot's hint was written when that slot became MRU, and only a
    /// lookup of another page, which moves the MRU, rewrites a hint.
    #[inline(always)]
    pub fn translate(&mut self, addr: u64, now: u64) -> u64 {
        let page = self.page_of(addr);
        if let Some(slot) = self.slots.get_mut(self.mru) {
            if slot.page == page {
                slot.last_use = now;
                self.hits += 1;
                return slot.ready.max(now);
            }
        }
        self.translate_past_mru(page, now)
    }

    /// The MRU slot holds another page: try the hint, then the index, and
    /// walk when the page is not resident.
    #[inline(never)]
    fn translate_past_mru(&mut self, page: u64, now: u64) -> u64 {
        let hint = page as usize % HINTS;
        let hinted = self.hints[hint] as usize;
        let resident = if self.slots.get(hinted).is_some_and(|s| s.page == page) {
            Some(hinted)
        } else {
            self.index.get(&page).copied()
        };
        if let Some(i) = resident {
            self.mru = i;
            self.hints[hint] = i as u32;
            let slot = &mut self.slots[i];
            slot.last_use = now;
            self.hits += 1;
            return slot.ready.max(now);
        }
        self.walk(page, now)
    }

    /// TLB miss: walk the page table and install the translation.
    fn walk(&mut self, page: u64, now: u64) -> u64 {
        self.misses += 1;
        // Grab the first earliest-free walker; there is at least one.
        let w = (0..self.walker_free.len())
            .min_by_key(|&i| self.walker_free[i])
            .unwrap_or(0);
        let start = self.walker_free[w].max(now);
        let done = start + self.walk_latency_ticks;
        self.walker_free[w] = done;
        // Install with LRU replacement: the first of the least recently
        // used slots is the victim.
        let installed = Slot {
            page,
            ready: done,
            last_use: now,
        };
        if self.slots.len() < self.entries {
            self.mru = self.slots.len();
            self.slots.push(installed);
        } else {
            // The TLB is full, so slot 0 exists; `min_by_key` keeps the
            // first of equal keys.
            let victim = (0..self.slots.len())
                .min_by_key(|&i| self.slots[i].last_use)
                .unwrap_or(0);
            self.index.remove(&self.slots[victim].page);
            self.slots[victim] = installed;
            self.mru = victim;
        }
        self.index.insert(page, self.mru);
        self.hints[page as usize % HINTS] = self.mru as u32;
        done
    }

    /// Lifetime hit count.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tlb(walkers: u32) -> Tlb {
        Tlb::new(&TlbConfig {
            entries: 4,
            page_bits: 12,
            walkers,
            walk_latency: 100,
        })
    }

    #[test]
    fn hit_after_walk() {
        let mut t = tlb(1);
        let walk = 100 * TICKS_PER_CYCLE;
        assert_eq!(t.translate(0x1000, 0), walk);
        assert_eq!(t.translate(0x1FFF, walk), walk, "same page: hit");
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn single_walker_serialises_walks() {
        let mut t = tlb(1);
        let walk = 100 * TICKS_PER_CYCLE;
        let a = t.translate(0x1000, 0);
        let b = t.translate(0x2000, 0);
        assert_eq!(a, walk);
        assert_eq!(b, 2 * walk, "second walk queues behind the first");
    }

    #[test]
    fn two_walkers_overlap_walks() {
        let mut t = tlb(2);
        let walk = 100 * TICKS_PER_CYCLE;
        let a = t.translate(0x1000, 0);
        let b = t.translate(0x2000, 0);
        let c = t.translate(0x3000, 0);
        assert_eq!(a, walk);
        assert_eq!(b, walk, "parallel walk");
        assert_eq!(c, 2 * walk, "third queues");
    }

    #[test]
    fn lru_replacement_on_capacity() {
        let mut t = tlb(4);
        for p in 0..4u64 {
            t.translate(p << 12, p);
        }
        // Touch page 0 late so page 1 is the LRU victim.
        let now = 10_000_000;
        t.translate(0, now);
        t.translate(5 << 12, now + 1); // evicts page 1
        let before = t.misses();
        t.translate(1 << 12, now + 2_000_000);
        assert_eq!(t.misses(), before + 1, "page 1 was evicted");
    }

    #[test]
    fn huge_pages_cover_more_addresses() {
        let mut t = Tlb::new(&TlbConfig {
            entries: 4,
            page_bits: 21,
            walkers: 1,
            walk_latency: 100,
        });
        t.translate(0, 0);
        let later = 100 * TICKS_PER_CYCLE;
        assert_eq!(t.translate(1 << 20, later), later, "same 2 MiB page");
        assert_eq!(t.misses(), 1);
    }

    /// The linear-scan TLB this module used before the MRU check and the
    /// page index: `(page, ready, last_use)` tuples, found by `find`.
    struct ScanTlb {
        page_bits: u32,
        entries: usize,
        walk_latency_ticks: u64,
        slots: Vec<(u64, u64, u64)>,
        walker_free: Vec<u64>,
        hits: u64,
        misses: u64,
    }

    impl ScanTlb {
        fn new(cfg: &TlbConfig) -> Self {
            ScanTlb {
                page_bits: cfg.page_bits,
                entries: cfg.entries.max(1) as usize,
                walk_latency_ticks: cfg.walk_latency * TICKS_PER_CYCLE,
                slots: Vec::new(),
                walker_free: vec![0; cfg.walkers.max(1) as usize],
                hits: 0,
                misses: 0,
            }
        }

        fn translate(&mut self, addr: u64, now: u64) -> u64 {
            let page = addr >> self.page_bits;
            if let Some(slot) = self.slots.iter_mut().find(|s| s.0 == page) {
                slot.2 = now;
                self.hits += 1;
                return slot.1.max(now);
            }
            self.misses += 1;
            let w = self.walker_free.iter_mut().min_by_key(|t| **t).unwrap();
            let done = (*w).max(now) + self.walk_latency_ticks;
            *w = done;
            if self.slots.len() < self.entries {
                self.slots.push((page, done, now));
            } else if let Some(victim) = self.slots.iter_mut().min_by_key(|s| s.2) {
                *victim = (page, done, now);
            }
            done
        }
    }

    #[test]
    fn matches_linear_scan_model_on_pages_sharing_a_hint() {
        let cfg = TlbConfig {
            entries: 4,
            page_bits: 12,
            walkers: 1,
            walk_latency: 30,
        };
        let (mut tlb, mut model) = (Tlb::new(&cfg), ScanTlb::new(&cfg));
        let mut check = |page: u64, now: u64| {
            let addr = page << 12;
            assert_eq!(
                tlb.translate(addr, now),
                model.translate(addr, now),
                "page {page} at {now}"
            );
            (tlb.hits(), tlb.misses()) == (model.hits, model.misses)
        };
        let h = HINTS as u64;
        // Fill the TLB with pages 1, 1 + h, 1 + 2h, 1 + 3h (one hint
        // bucket), returning to page 1 after each walk: the walk took
        // both the MRU slot and the bucket's hint, so page 1 hits
        // through the index.
        for (i, page) in [1, 1 + h, 1, 1 + 2 * h, 1, 1 + 3 * h]
            .into_iter()
            .enumerate()
        {
            assert!(check(page, i as u64));
        }
        // Page 1 + h is now least recently used: evict it for 2 (a
        // different bucket), so its bucket-mate's hint names a slot that
        // now holds another page.
        assert!(check(2, 100));
        assert!(check(1 + 3 * h, 101));
        assert!(check(1 + h, 102), "the evicted page misses");
        assert!(check(1 + 2 * h, 103));
        assert!(check(2, 104));
        // A long stream over a few buckets, many pages per bucket.
        let mut rng = StdRng::seed_from_u64(3);
        for now in 200..20_000u64 {
            let page = rng.random_range(0..3u64) + h * rng.random_range(0..5u64);
            assert!(check(page, now / 3));
        }
        assert!(model.misses > 1000 && model.hits > 1000);
    }

    #[test]
    fn matches_linear_scan_model_on_random_page_streams() {
        for walkers in [1, 2] {
            for seed in 0..16 {
                let cfg = TlbConfig {
                    entries: 16,
                    page_bits: 12,
                    walkers,
                    walk_latency: 30,
                };
                let mut tlb = Tlb::new(&cfg);
                let mut model = ScanTlb::new(&cfg);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut now = 0u64;
                for _ in 0..5000 {
                    // Three times as many pages as entries, so the TLB
                    // overflows; a skew keeps some pages hot.
                    let page = if rng.random::<bool>() {
                        rng.random_range(0..8u64)
                    } else {
                        rng.random_range(0..48u64)
                    };
                    let addr = (page << 12) | rng.random_range(0..4096u64);
                    // Often several translations at the same tick, so
                    // LRU victims are picked among equal `last_use`s.
                    if rng.random_range(0..4u32) == 0 {
                        now += rng.random_range(1..2000u64);
                    }
                    // The out-of-order core's issue ticks are not
                    // monotonic: sometimes step back.
                    let at = if rng.random_range(0..8u32) == 0 {
                        now.saturating_sub(rng.random_range(0..300u64))
                    } else {
                        now
                    };
                    assert_eq!(
                        tlb.translate(addr, at),
                        model.translate(addr, at),
                        "walkers {walkers} seed {seed} page {page} at {at}"
                    );
                }
                assert_eq!((tlb.hits(), tlb.misses()), (model.hits, model.misses));
                assert!(model.misses > 200, "the stream overflowed the TLB");
            }
        }
    }
}
