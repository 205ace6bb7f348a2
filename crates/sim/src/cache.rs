//! Set-associative cache model.
//!
//! Tag-only simulation: the cache tracks which lines are present and dirty,
//! not their data. Storage is one flat array of 8-byte slots. Each set
//! occupies `stride` slots, its way count rounded up to a power of two,
//! starting at a multiple of `stride` slots from an origin aligned to
//! `stride * 8` bytes; way `w` of set `s` is slot `s * stride + w`. So a
//! set never straddles more cache lines than it must (a 15-way set is two
//! 64-byte lines, not three), and a probe is a short linear scan of one
//! contiguous set. The padding slots past `ways` stay empty: they are
//! never matched, never filled and never counted. Even a 160 MB LLC model
//! takes ~21 MB of simulator memory.
//!
//! Set index: line number modulo the set count, taken with a mask when
//! the set count is a power of two (every L1 and L2, and SPR2S's LLC
//! split among a power-of-two number of sharers) and with `%` otherwise
//! (SKX2S's 11-way LLC, EMR2S's 160 MB LLC of 5 · 2^15 sets).
//!
//! Replacement: a line fills the first empty way of its set; a full set
//! replaces its **last way**. Hits do not reorder the set. This is not LRU
//! (a set holding A then B, with B just probed, evicts B for a new line),
//! and every simulated number in the reproduction rests on exactly this
//! rule.

use crate::config::{CacheGeometry, LINE_BYTES};

/// Slot bit: the slot holds a line.
const VALID: u64 = 0b01;
/// Slot bit: the held line is dirty.
const DIRTY: u64 = 0b10;
/// Slot bits that hold the line address. Line addresses are
/// `LINE_BYTES`-aligned, so the low bits are free for the flags.
const LINE_MASK: u64 = !(LINE_BYTES - 1);
/// Slots per 4 KiB page: the granule [`Cache::reusing`] zeroes in.
const PAGE_SLOTS: usize = 4096 / std::mem::size_of::<u64>();

/// Result of inserting a line: the evicted victim, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line address (byte address of the line start) of the victim.
    pub line_addr: u64,
    /// Whether the victim was dirty and needs writing back.
    pub dirty: bool,
}

/// A set-associative, write-back, write-allocate cache. A full set
/// replaces its last way (see the [module docs](self)).
///
/// Addresses given to the cache are *line* addresses (byte address with the
/// low `log2(LINE_BYTES)` bits ignored).
///
/// # Example
///
/// ```
/// use camp_sim::cache::Cache;
/// use camp_sim::config::CacheGeometry;
///
/// let mut l1 = Cache::new(CacheGeometry {
///     capacity_bytes: 4096,
///     ways: 4,
///     hit_latency: 4,
/// });
/// assert!(!l1.probe(0));
/// l1.insert(0, false);
/// assert!(l1.probe(0));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    sets: u64,
    /// `sets - 1` when `sets` is a power of two (index with a mask), else
    /// `None` (index with `%`).
    set_mask: Option<u64>,
    ways: usize,
    /// Slots per set: `ways` rounded up to a power of two.
    stride: usize,
    /// Slot index of set 0, chosen so that it is `stride * 8`-byte aligned.
    origin: usize,
    /// One slot per way: the line address OR [`VALID`] OR [`DIRTY`];
    /// 0 is an empty slot. Only `sets * stride` slots from `origin` are
    /// this cache's; a reused buffer may be longer.
    slots: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero ways or fewer lines than ways.
    pub fn new(geometry: CacheGeometry) -> Self {
        Self::reusing(geometry, Vec::new())
    }

    /// Builds an empty cache in `slots`, a buffer from
    /// [`into_slots`](Self::into_slots) of an earlier cache of any
    /// geometry. Its contents are discarded; its memory is kept when large
    /// enough, and only pages an earlier cache wrote are zeroed, so sets a
    /// run never touches cost no resident memory.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn reusing(geometry: CacheGeometry, mut slots: Vec<u64>) -> Self {
        assert!(geometry.ways > 0, "cache must have at least one way");
        assert!(geometry.lines() >= geometry.ways as u64, "cache smaller than one set");
        assert!(geometry.ways <= 64, "associativity above 64 unsupported");
        let sets = geometry.sets();
        let ways = geometry.ways as usize;
        let stride = ways.next_power_of_two();
        // Room for the sets wherever the aligned origin falls.
        let len = sets as usize * stride + stride - 1;
        if slots.len() < len {
            // Fresh zeroed pages from the allocator, mapped on first write.
            slots = vec![0; len];
        } else {
            // Slots past `len` stay as they are: a later, larger cache
            // clears them here before use.
            for page in slots[..len].chunks_mut(PAGE_SLOTS) {
                if page.iter().any(|&slot| slot != 0) {
                    page.fill(0);
                }
            }
        }
        let align = stride * std::mem::size_of::<u64>();
        let misalign = slots.as_ptr() as usize % align;
        let origin = (align - misalign) % align / std::mem::size_of::<u64>();
        Cache {
            geometry,
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            ways,
            stride,
            origin,
            slots,
            hits: 0,
            misses: 0,
        }
    }

    /// Gives up the slot storage for reuse by [`reusing`](Self::reusing).
    pub fn into_slots(self) -> Vec<u64> {
        self.slots
    }

    /// The configured geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Hit latency in cycles.
    pub fn hit_latency(&self) -> u32 {
        self.geometry.hit_latency
    }

    /// The set holding `line_addr`, and the slot value a valid copy of it
    /// has once the dirty bit is masked off.
    #[inline]
    fn locate(&self, line_addr: u64) -> (usize, u64) {
        let line = line_addr / LINE_BYTES;
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        };
        (self.origin + set as usize * self.stride, (line_addr & LINE_MASK) | VALID)
    }

    /// Way of `key` within the set starting at `base`.
    #[inline]
    fn find(&self, base: usize, key: u64) -> Option<usize> {
        self.slots[base..base + self.ways].iter().position(|&slot| slot & !DIRTY == key)
    }

    /// Probes for a line; updates hit/miss statistics.
    pub fn probe(&mut self, line_addr: u64) -> bool {
        let (base, key) = self.locate(line_addr);
        let hit = self.find(base, key).is_some();
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Probes without touching statistics (used for ownership checks that
    /// are not architectural accesses).
    pub fn peek(&self, line_addr: u64) -> bool {
        let (base, key) = self.locate(line_addr);
        self.find(base, key).is_some()
    }

    /// Marks an already-present line dirty; returns whether it was present.
    pub fn mark_dirty(&mut self, line_addr: u64) -> bool {
        let (base, key) = self.locate(line_addr);
        match self.find(base, key) {
            Some(way) => {
                self.slots[base + way] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Inserts a line (write-allocate if `dirty`) into the first empty way
    /// of its set, or else in place of the set's last way, which it
    /// returns as the victim. Inserting an already-present line ORs in
    /// dirtiness.
    pub fn insert(&mut self, line_addr: u64, dirty: bool) -> Option<Eviction> {
        let (base, key) = self.locate(line_addr);
        let dirty_bit = if dirty { DIRTY } else { 0 };
        if let Some(way) = self.find(base, key) {
            self.slots[base + way] |= dirty_bit;
            return None;
        }
        let set = &mut self.slots[base..base + self.ways];
        if let Some(slot) = set.iter_mut().find(|slot| **slot == 0) {
            *slot = key | dirty_bit;
            return None;
        }
        let victim = set.last_mut().expect("ways > 0");
        let eviction = Eviction {
            line_addr: *victim & LINE_MASK,
            dirty: *victim & DIRTY != 0,
        };
        *victim = key | dirty_bit;
        Some(eviction)
    }

    /// Invalidates a line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let (base, key) = self.locate(line_addr);
        let way = self.find(base, key)?;
        let dirty = self.slots[base + way] & DIRTY != 0;
        self.slots[base + way] = 0;
        Some(dirty)
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> u64 {
        // Padding slots are always empty, so they add nothing.
        let len = self.sets as usize * self.stride;
        self.slots[self.origin..self.origin + len]
            .iter()
            .filter(|&&slot| slot != 0)
            .count() as u64
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: u32, lines: u64) -> Cache {
        Cache::new(CacheGeometry {
            capacity_bytes: lines * LINE_BYTES,
            ways,
            hit_latency: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(2, 8);
        assert!(!c.probe(0));
        c.insert(0, false);
        assert!(c.probe(0));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way, 1 set of interest: lines mapping to set 0 of a 4-set cache
        // are 0, 4*64, 8*64, ...
        let mut c = tiny(2, 8); // 4 sets x 2 ways
        let line = |i: u64| i * 4 * LINE_BYTES; // all in set 0
        c.insert(line(0), false);
        c.insert(line(1), false);
        c.probe(line(0)); // 0 is now MRU, 1 is LRU
        let ev = c.insert(line(2), false).expect("must evict");
        assert_eq!(ev.line_addr, line(1));
        assert!(!ev.dirty);
        assert!(c.peek(line(0)));
        assert!(!c.peek(line(1)));
    }

    #[test]
    fn full_set_replaces_its_last_way() {
        // 2-way set: A, then B; probe B; C evicts B, not the
        // least-recently-used A.
        let mut c = tiny(2, 8); // 4 sets x 2 ways
        let line = |i: u64| i * 4 * LINE_BYTES; // all in set 0
        c.insert(line(0), false);
        c.insert(line(1), false);
        assert!(c.probe(line(1)));
        let ev = c.insert(line(2), false).expect("must evict");
        assert_eq!(ev.line_addr, line(1));
        assert!(c.peek(line(0)));

        // 4-way set holding A..D, then B, C, D probed: the next line
        // evicts D.
        let mut c = tiny(4, 16); // 4 sets x 4 ways
        for i in 0..4 {
            c.insert(line(i), false);
        }
        for i in 1..4 {
            assert!(c.probe(line(i)));
        }
        let ev = c.insert(line(4), false).expect("must evict");
        assert_eq!(ev.line_addr, line(3));
        for i in [0, 1, 2, 4] {
            assert!(c.peek(line(i)), "line {i} should remain");
        }
    }

    #[test]
    fn reused_slots_start_empty_at_the_new_geometry() {
        let geometry = |lines: u64, ways: u32| CacheGeometry {
            capacity_bytes: lines * LINE_BYTES,
            ways,
            hit_latency: 4,
        };
        // 1024 sets x 2 ways = 4 pages of slots; write only the back half.
        let mut big = Cache::new(geometry(2048, 2));
        for set in 600..1024 {
            big.insert(set * LINE_BYTES, true);
        }
        let mut small = Cache::reusing(geometry(8, 2), big.into_slots());
        assert_eq!(small.occupancy(), 0);
        small.insert(0, true);
        // Regrowing within the kept buffer clears the stale pages too.
        let mut again = Cache::reusing(geometry(2048, 2), small.into_slots());
        assert_eq!(again.occupancy(), 0);
        assert_eq!(again.stats(), (0, 0));
        for line in 0..2048 {
            assert!(again.insert(line * LINE_BYTES, false).is_none(), "line {line} fits");
        }
        // Growing past the buffer allocates afresh.
        let grown = Cache::reusing(geometry(4096, 4), again.into_slots());
        assert_eq!(grown.occupancy(), 0);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny(1, 4); // direct-mapped, 4 sets
        c.insert(0, true);
        let ev = c.insert(4 * LINE_BYTES, false).expect("conflict evicts");
        assert_eq!(ev.line_addr, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn reinsert_refreshes_and_accumulates_dirtiness() {
        let mut c = tiny(2, 8);
        c.insert(0, false);
        assert!(c.insert(0, true).is_none());
        let dirty = c.invalidate(0).expect("present");
        assert!(dirty);
        assert!(!c.peek(0));
    }

    #[test]
    fn mark_dirty_only_when_present() {
        let mut c = tiny(2, 8);
        assert!(!c.mark_dirty(0));
        c.insert(0, false);
        assert!(c.mark_dirty(0));
        assert_eq!(c.invalidate(0), Some(true));
    }

    #[test]
    fn peek_does_not_change_stats_or_lru() {
        let mut c = tiny(2, 8);
        c.insert(0, false);
        let before = c.stats();
        assert!(c.peek(0));
        assert!(!c.peek(LINE_BYTES));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny(4, 16);
        for i in 0..100 {
            c.insert(i * LINE_BYTES, i % 3 == 0);
            assert!(c.occupancy() <= 16);
        }
        assert_eq!(c.occupancy(), 16);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny(1, 4);
        for i in 0..4 {
            c.insert(i * LINE_BYTES, false);
        }
        for i in 0..4 {
            assert!(c.peek(i * LINE_BYTES), "line {i} evicted unexpectedly");
        }
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = Cache::new(CacheGeometry { capacity_bytes: 1024, ways: 0, hit_latency: 1 });
    }
}
