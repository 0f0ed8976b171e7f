//! Set-associative caches with timed fills and LRU replacement.
//!
//! Each line records the tick at which its fill completes (`ready`), so a
//! demand access arriving before an in-flight prefetch completes pays the
//! *remaining* fill time — late prefetches give partial benefit, exactly
//! the Fig. 2 "offset too small" behaviour. Lines also track a dirty bit;
//! dirty evictions are reported so the DRAM model can charge write-back
//! bandwidth.

use crate::presets::CacheConfig;
use crate::LINE_BYTES;
use std::cell::RefCell;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Present. `ready_at` is when the data is usable (may be in the
    /// future for an in-flight fill).
    Hit {
        /// Tick at which the line's data is available.
        ready_at: u64,
    },
    /// Absent.
    Miss,
}

/// How a line number picks its set: a mask when the set count is a
/// power of two (true of every preset), a remainder otherwise.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    Mask(u64),
    Modulo(u64),
}

/// A cache's tag store: one array per field, indexed `set * ways + way`.
/// All-zero means empty: a way holds `line + 1` in `tags`, so `0` is
/// "invalid".
#[derive(Debug, Clone, Default)]
struct TagStore {
    /// `line + 1` of the resident line; `0` for an invalid way.
    tags: Box<[u64]>,
    /// Tick when the way's fill completes.
    ready: Box<[u64]>,
    /// Tick of the way's last access, for LRU.
    last_use: Box<[u64]>,
    dirty: Box<[bool]>,
}

thread_local! {
    /// Zeroed tag stores of dropped caches, for the next cache of the
    /// same size built on this thread.
    static FREE_STORES: RefCell<Vec<TagStore>> = const { RefCell::new(Vec::new()) };
}

impl TagStore {
    /// An empty store of `len` ways: a recycled one when this thread has
    /// one of that size, else fresh zeroed memory.
    fn take(len: usize) -> TagStore {
        let recycled = FREE_STORES.try_with(|free| {
            let mut free = free.borrow_mut();
            let i = free.iter().position(|s| s.tags.len() == len)?;
            Some(free.swap_remove(i))
        });
        recycled.ok().flatten().unwrap_or_else(|| TagStore {
            tags: vec![0; len].into(),
            ready: vec![0; len].into(),
            last_use: vec![0; len].into(),
            dirty: vec![false; len].into(),
        })
    }

    /// Empty the store and hand it to this thread's free list, touching
    /// only the sets that ever held a line. Ways fill in order and are
    /// never invalidated, so a set is untouched exactly when its first
    /// way is invalid. Once the thread's free list is gone (the thread
    /// is exiting), the store is simply freed.
    fn recycle(mut self, ways: usize) {
        for set in (0..self.tags.len()).step_by(ways) {
            if self.tags[set] != 0 {
                let ways = set..set + ways;
                self.tags[ways.clone()].fill(0);
                self.ready[ways.clone()].fill(0);
                self.last_use[ways.clone()].fill(0);
                self.dirty[ways].fill(false);
            }
        }
        let _ = FREE_STORES.try_with(|free| free.borrow_mut().push(self));
    }
}

/// A single cache level.
///
/// Every method takes a *line number* (`addr / LINE_BYTES`), which the
/// memory system computes once per access and hands to each level.
///
/// Building a cache costs the sets a run touches, not the cache's size:
/// the tag store comes zeroed from the allocator the first time a thread
/// builds a cache of that size — sets a run never touches are never
/// faulted in — and a dropped cache zeroes only its touched sets and
/// leaves the store to the thread's next cache of the same size.
#[derive(Debug, Clone)]
pub struct Cache {
    index: SetIndex,
    ways: usize,
    /// Hit latency in ticks.
    pub latency_ticks: u64,
    store: TagStore,
    hits: u64,
    misses: u64,
}

impl Drop for Cache {
    fn drop(&mut self) {
        std::mem::take(&mut self.store).recycle(self.ways);
    }
}

impl Cache {
    /// Build a cache from its configuration (latency converted to ticks).
    #[must_use]
    pub fn new(cfg: &CacheConfig) -> Self {
        let lines_total = (cfg.capacity / LINE_BYTES).max(1) as usize;
        let ways = cfg.ways.max(1) as usize;
        let sets = (lines_total / ways).max(1);
        let index = if sets.is_power_of_two() {
            SetIndex::Mask(sets as u64 - 1)
        } else {
            SetIndex::Modulo(sets as u64)
        };
        Cache {
            index,
            ways,
            latency_ticks: cfg.latency * crate::TICKS_PER_CYCLE,
            store: TagStore::take(sets * ways),
            hits: 0,
            misses: 0,
        }
    }

    /// Index range of the ways of `line`'s set.
    #[inline(always)]
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        let set = match self.index {
            SetIndex::Mask(mask) => line & mask,
            SetIndex::Modulo(sets) => line % sets,
        } as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Index of the way holding `line`, if resident.
    #[inline(always)]
    fn find(&self, line: u64) -> Option<usize> {
        let set = self.set_of(line);
        let base = set.start;
        self.store.tags[set]
            .iter()
            .position(|&tag| tag == line + 1)
            .map(|way| base + way)
    }

    /// Look up `line` at time `now`, updating LRU and the dirty bit on a
    /// hit. Does not allocate on miss — call [`Cache::insert`] once the
    /// fill time is known.
    #[inline(always)]
    pub fn access(&mut self, line: u64, now: u64, is_write: bool) -> Lookup {
        let Some(i) = self.find(line) else {
            self.misses += 1;
            return Lookup::Miss;
        };
        self.store.last_use[i] = now;
        self.store.dirty[i] |= is_write;
        self.hits += 1;
        Lookup::Hit {
            ready_at: self.store.ready[i],
        }
    }

    /// Non-updating presence probe (used by prefetch paths so probes do
    /// not perturb LRU or hit statistics).
    #[must_use]
    pub fn probe(&self, line: u64) -> Lookup {
        match self.find(line) {
            Some(i) => Lookup::Hit {
                ready_at: self.store.ready[i],
            },
            None => Lookup::Miss,
        }
    }

    /// Install `line`, becoming usable at `ready`. Returns the evicted
    /// line when the victim was dirty (the caller must write it back to
    /// the next level down).
    pub fn insert(&mut self, line: u64, now: u64, ready: u64, is_write: bool) -> Option<u64> {
        // Reuse the first invalid way, else evict the LRU one (the first
        // of equally old ways).
        let set = self.set_of(line);
        let mut victim = set.start;
        let mut oldest = u64::MAX;
        for i in set {
            if self.store.tags[i] == 0 {
                victim = i;
                break;
            }
            if self.store.last_use[i] < oldest {
                oldest = self.store.last_use[i];
                victim = i;
            }
        }
        let writeback = (self.store.tags[victim] != 0 && self.store.dirty[victim])
            .then(|| self.store.tags[victim] - 1);
        self.store.tags[victim] = line + 1;
        self.store.dirty[victim] = is_write;
        self.store.ready[victim] = ready;
        self.store.last_use[victim] = now;
        writeback
    }

    /// Mark `line` dirty if present (a write-back from the level above
    /// landing in this cache). Returns `false` when the line is absent
    /// and the write-back must continue downwards.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let Some(i) = self.find(line) else {
            return false;
        };
        self.store.dirty[i] = true;
        true
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

    /// The line number the memory system would pass for `addr`.
    fn line(addr: u64) -> u64 {
        addr / LINE_BYTES
    }

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(&CacheConfig {
            capacity: 512,
            ways: 2,
            latency: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.access(line(0x1000), 10, false), Lookup::Miss);
        c.insert(line(0x1000), 10, 50, false);
        assert_eq!(
            c.access(line(0x1000), 60, false),
            Lookup::Hit { ready_at: 50 }
        );
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = small();
        c.insert(line(0x1000), 0, 0, false);
        assert!(matches!(
            c.access(line(0x103F), 1, false),
            Lookup::Hit { .. }
        ));
        assert!(matches!(c.access(line(0x1040), 1, false), Lookup::Miss));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three lines mapping to the same set (set count 4 → stride 256B).
        let (a, b, d) = (0x0, 0x100, 0x200);
        c.insert(line(a), 1, 1, false);
        c.insert(line(b), 2, 2, false);
        c.access(line(a), 3, false); // refresh a
        c.insert(line(d), 4, 4, false); // must evict b
        assert!(matches!(c.access(line(a), 5, false), Lookup::Hit { .. }));
        assert!(matches!(c.access(line(b), 5, false), Lookup::Miss));
        assert!(matches!(c.access(line(d), 5, false), Lookup::Hit { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        let (a, b, d) = (0x0, 0x100, 0x200);
        c.insert(line(a), 1, 1, true); // dirty
        c.insert(line(b), 2, 2, false);
        let wb = c.insert(line(d), 3, 3, false); // evicts dirty a
        assert_eq!(wb, Some(line(a)), "evicting the dirty line reports it");
        let wb2 = c.insert(line(a), 4, 4, false); // evicts clean b
        assert_eq!(wb2, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.insert(line(0x0), 1, 1, false);
        c.access(line(0x0), 2, true); // write hit: dirtied
        c.insert(line(0x100), 3, 3, false);
        let wb = c.insert(line(0x200), 4, 4, false); // evicts 0x0
        assert_eq!(wb, Some(line(0x0)));
    }

    #[test]
    fn probe_does_not_touch_lru_or_stats() {
        let mut c = small();
        c.insert(line(0x0), 1, 1, false);
        let h0 = c.hits();
        assert!(matches!(c.probe(line(0x0)), Lookup::Hit { .. }));
        assert!(matches!(c.probe(line(0x40)), Lookup::Miss));
        assert_eq!(c.hits(), h0);
    }

    #[derive(Clone, Copy, Default)]
    struct ModelLine {
        line: u64,
        valid: bool,
        dirty: bool,
        ready: u64,
        last_use: u64,
    }

    /// The cache this module used before the zero-is-invalid tag store:
    /// one struct per way with an explicit valid bit, set = `line % sets`.
    struct ModelCache {
        sets: usize,
        ways: usize,
        lines: Vec<ModelLine>,
        hits: u64,
        misses: u64,
    }

    impl ModelCache {
        fn new(sets: usize, ways: usize) -> Self {
            ModelCache {
                sets,
                ways,
                lines: vec![ModelLine::default(); sets * ways],
                hits: 0,
                misses: 0,
            }
        }

        fn set(&mut self, line: u64) -> &mut [ModelLine] {
            let base = (line as usize % self.sets) * self.ways;
            &mut self.lines[base..base + self.ways]
        }

        fn find(&mut self, line: u64) -> Option<&mut ModelLine> {
            self.set(line)
                .iter_mut()
                .find(|l| l.valid && l.line == line)
        }

        fn probe(&mut self, line: u64) -> Lookup {
            match self.find(line) {
                Some(l) => Lookup::Hit { ready_at: l.ready },
                None => Lookup::Miss,
            }
        }

        fn access(&mut self, line: u64, now: u64, is_write: bool) -> Lookup {
            let found = self.find(line).map(|l| {
                l.last_use = now;
                l.dirty |= is_write;
                l.ready
            });
            match found {
                Some(ready_at) => {
                    self.hits += 1;
                    Lookup::Hit { ready_at }
                }
                None => {
                    self.misses += 1;
                    Lookup::Miss
                }
            }
        }

        fn insert(&mut self, line: u64, now: u64, ready: u64, is_write: bool) -> Option<u64> {
            let set = self.set(line);
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for (way, l) in set.iter().enumerate() {
                if !l.valid {
                    victim = way;
                    break;
                }
                if l.last_use < oldest {
                    oldest = l.last_use;
                    victim = way;
                }
            }
            let l = &mut set[victim];
            let writeback = (l.valid && l.dirty).then_some(l.line);
            *l = ModelLine {
                line,
                valid: true,
                dirty: is_write,
                ready,
                last_use: now,
            };
            writeback
        }

        fn mark_dirty(&mut self, line: u64) -> bool {
            self.find(line).map(|l| l.dirty = true).is_some()
        }
    }

    fn cache_and_model(sets: usize, ways: usize) -> (Cache, ModelCache) {
        let cache = Cache::new(&CacheConfig {
            capacity: (sets * ways) as u64 * LINE_BYTES,
            ways: ways as u32,
            latency: 4,
        });
        (cache, ModelCache::new(sets, ways))
    }

    /// Drive the cache and the model with the same random stream of
    /// lookups, probes, dirty marks and fills, checking every answer.
    fn drive_against_model(c: &mut Cache, m: &mut ModelCache, seed: u64) {
        let sets = m.sets as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        for now in 0..20_000u64 {
            // Lines that collide in few sets, some with high
            // (address-space) bits set; line 0 included.
            let line = rng.random_range(0..40u64) * sets / 2 + (rng.random_range(0..3u64) << 38);
            match rng.random_range(0..8u32) {
                0 => assert_eq!(c.mark_dirty(line), m.mark_dirty(line)),
                1 => assert_eq!(c.probe(line), m.probe(line)),
                op => {
                    let is_write = op == 2;
                    let found = c.access(line, now, is_write);
                    assert_eq!(found, m.access(line, now, is_write), "line {line}");
                    if found == Lookup::Miss {
                        assert_eq!(
                            c.insert(line, now, now + 100, is_write),
                            m.insert(line, now, now + 100, is_write),
                            "victim of line {line} in {sets} sets"
                        );
                    }
                }
            }
        }
        assert_eq!((c.hits(), c.misses()), (m.hits, m.misses));
    }

    #[test]
    fn set_mapping_is_line_modulo_sets_for_any_set_count() {
        // 24 sets is not a power of two (remainder); 4 and 1 are (mask).
        for (sets, ways) in [(24, 4), (4, 2), (1, 3)] {
            let (mut c, mut m) = cache_and_model(sets, ways);
            drive_against_model(&mut c, &mut m, sets as u64);
        }
    }

    #[test]
    fn recycled_tag_store_matches_a_fresh_model() {
        // Each test runs on a thread of its own, so the thread's free
        // list starts empty and the rebuilt cache gets the dropped store.
        for (sets, ways) in [(24, 4), (64, 8), (1, 3)] {
            let (mut used, _) = cache_and_model(sets, ways);
            // Fill and dirty every way of every set, ready and LRU ticks
            // far in the future, with lines that carry high bits.
            let lines = (sets * ways) as u64;
            for line in 0..lines {
                let line = line + (1 << 40);
                used.insert(line, u64::MAX - line, u64::MAX - 1, true);
            }
            assert!(
                used.store.tags.iter().all(|&t| t != 0),
                "every way holds a line"
            );
            let store = used.store.tags.as_ptr();
            drop(used);
            let (mut c, mut m) = cache_and_model(sets, ways);
            assert_eq!(
                c.store.tags.as_ptr(),
                store,
                "the rebuilt cache reuses the store"
            );
            drive_against_model(&mut c, &mut m, 7 + sets as u64);
            drop(c);
            // A store of another size is not handed out for this one.
            let (other, _) = cache_and_model(sets + 1, ways);
            assert_ne!(other.store.tags.as_ptr(), store);
        }
    }

    #[test]
    fn zeroed_tag_store_matches_model_on_write_stream_larger_than_cache() {
        let (mut c, mut m) = cache_and_model(24, 4);
        let mut dirty_victims = 0;
        // Three passes over four times the capacity, all writes, starting
        // at line 0 (whose stored tag must not read as "invalid").
        for now in 0..3 * 4 * 96u64 {
            let line = now % (4 * 96);
            let found = c.access(line, now, true);
            assert_eq!(found, m.access(line, now, true));
            assert_eq!(found, Lookup::Miss, "a stream this long never re-hits");
            let victim = c.insert(line, now, now, true);
            assert_eq!(victim, m.insert(line, now, now, true));
            dirty_victims += u64::from(victim.is_some());
        }
        assert_eq!((c.hits(), c.misses()), (m.hits, m.misses));
        // Every insert after the cache first filled evicted a dirty line.
        assert_eq!(dirty_victims, 3 * 4 * 96 - 96);
    }
}
