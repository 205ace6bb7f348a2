//! In-flight miss-tracking buffers: the Line Fill Buffer (LFB) and the
//! SuperQueue (SQ).
//!
//! These small structures are two of CAMP's three "pressure points"
//! (§2.3 of the paper): every outstanding cache miss occupies an entry from
//! allocation until the line arrives, repeated accesses to the same line
//! coalesce into one entry, and a full buffer blocks further misses. Longer
//! memory latency extends entry lifetimes, which is precisely how CXL
//! latency converts into cache-level stalls.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Total-ordered wrapper for non-NaN `f64` timestamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Time(pub f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("timestamps are never NaN")
    }
}

/// What a demand load coalescing on an in-flight entry is waiting for; used
/// by the engine to attribute the exposed stall to the correct `STALLS_*`
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// Data already in the L1 (no wait class).
    None,
    /// Demand request being served by the L2.
    DemandL2,
    /// Demand request being served by the L3.
    DemandL3,
    /// Demand request being served by a memory device (a true demand L3
    /// miss).
    DemandMem,
    /// Line being fetched by a hardware prefetcher — the "late prefetch"
    /// wait that constitutes cache-induced slowdown.
    Prefetch,
}

/// An in-flight entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflightEntry {
    /// Time at which the line arrives and the entry frees.
    pub fill_time: f64,
    /// What a coalescing demand load would wait on.
    pub wait_class: WaitClass,
}

/// Hasher for line-address keys: one multiply and a rotate. SipHash's
/// flood resistance buys nothing here: a buffer holds at most its
/// capacity of lines (at most 112 in every preset), so even colliding
/// keys cost a scan of that many entries. [`InflightBuffer`] only
/// iterates its map to count, so the order a hasher induces never
/// reaches any output.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// The product's high bits depend on every key bit; rotate them down
    /// into the bucket index so aligned and strided lines spread.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A fixed-capacity miss-tracking buffer with per-line coalescing.
///
/// Entries are keyed by line address; at most one entry per line exists at
/// a time. Time moves forward monotonically from the caller's perspective;
/// the buffer lazily releases entries whose fill time has passed.
///
/// # Example
///
/// ```
/// use camp_sim::inflight::{InflightBuffer, WaitClass};
///
/// let mut lfb = InflightBuffer::new(2);
/// lfb.allocate(0, 100.0, WaitClass::DemandMem);
/// lfb.allocate(64, 120.0, WaitClass::Prefetch);
/// // Buffer is full: the next slot frees when the earliest fill lands.
/// assert_eq!(lfb.acquire_slot_at(50.0), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct InflightBuffer {
    capacity: usize,
    by_line: HashMap<u64, InflightEntry, BuildHasherDefault<LineHasher>>,
    completions: BinaryHeap<Reverse<(Time, u64)>>,
    allocations: u64,
    peak_occupancy: usize,
}

impl InflightBuffer {
    /// Creates a buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer must have at least one entry");
        InflightBuffer {
            capacity,
            by_line: HashMap::with_capacity_and_hasher(capacity * 2, Default::default()),
            completions: BinaryHeap::with_capacity(capacity + 1),
            allocations: 0,
            peak_occupancy: 0,
        }
    }

    /// Configured number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Releases all entries whose fill time is `<= now`.
    pub fn release_until(&mut self, now: f64) {
        while let Some(&Reverse((Time(t), line))) = self.completions.peek() {
            if t > now {
                break;
            }
            self.completions.pop();
            self.by_line.remove(&line);
        }
    }

    /// Looks up an in-flight entry for `line` (after releasing entries that
    /// completed by `now`).
    pub fn lookup(&mut self, line: u64, now: f64) -> Option<InflightEntry> {
        self.release_until(now);
        self.by_line.get(&line).copied()
    }

    /// Current number of occupied entries (after releasing up to `now`).
    pub fn occupancy(&mut self, now: f64) -> usize {
        self.release_until(now);
        self.by_line.len()
    }

    /// Number of entries that would be occupied at `now`, without
    /// releasing anything. Observers (the epoch tape) must use this:
    /// the engine queries these buffers at issue-time cursors that can
    /// lag retirement, so an eager `release_until` at a retirement-time
    /// boundary would destroy entries a later lagging `lookup` still
    /// coalesces on, perturbing the simulation being observed.
    pub fn occupancy_at(&self, now: f64) -> usize {
        self.by_line.values().filter(|entry| entry.fill_time > now).count()
    }

    /// True if at least `reserve + 1` entries are free at `now`. Used by
    /// prefetchers, which drop rather than wait, and keep a reserve so they
    /// cannot starve demand misses.
    pub fn has_free(&mut self, now: f64, reserve: usize) -> bool {
        self.occupancy(now) + reserve < self.capacity
    }

    /// Returns the earliest time `>= now` at which a free entry is
    /// guaranteed, releasing any entry that must complete to make room.
    /// Demand misses call this and absorb the wait as stall time.
    pub fn acquire_slot_at(&mut self, now: f64) -> f64 {
        self.release_until(now);
        if self.by_line.len() < self.capacity {
            return now;
        }
        let Reverse((Time(t), line)) = self.completions.pop().expect("full buffer has entries");
        self.by_line.remove(&line);
        t.max(now)
    }

    /// Allocates an entry for `line` completing at `fill_time`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the line is already in flight (callers
    /// must coalesce via [`lookup`](Self::lookup) first) or the buffer is
    /// over capacity (callers must acquire a slot first).
    pub fn allocate(&mut self, line: u64, fill_time: f64, wait_class: WaitClass) {
        debug_assert!(!self.by_line.contains_key(&line), "line {line:#x} already in flight");
        debug_assert!(self.by_line.len() < self.capacity, "allocation beyond capacity");
        self.by_line.insert(line, InflightEntry { fill_time, wait_class });
        self.completions.push(Reverse((Time(fill_time), line)));
        self.allocations += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.by_line.len());
    }

    /// Total allocations since construction.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_inflight_entries_until_fill() {
        let mut buf = InflightBuffer::new(4);
        buf.allocate(64, 100.0, WaitClass::DemandMem);
        let hit = buf.lookup(64, 50.0).expect("in flight at t=50");
        assert_eq!(hit.fill_time, 100.0);
        assert_eq!(hit.wait_class, WaitClass::DemandMem);
        assert!(buf.lookup(64, 100.0).is_none(), "released at fill time");
    }

    #[test]
    fn acquire_waits_for_earliest_completion_when_full() {
        let mut buf = InflightBuffer::new(2);
        buf.allocate(0, 30.0, WaitClass::DemandMem);
        buf.allocate(64, 20.0, WaitClass::DemandMem);
        // Full at t=10: must wait until the t=20 fill frees a slot.
        assert_eq!(buf.acquire_slot_at(10.0), 20.0);
        // That released line 64; line 0 remains.
        assert!(buf.lookup(0, 10.0).is_some());
        assert!(buf.lookup(64, 10.0).is_none());
    }

    #[test]
    fn acquire_is_immediate_with_free_slots() {
        let mut buf = InflightBuffer::new(2);
        buf.allocate(0, 30.0, WaitClass::Prefetch);
        assert_eq!(buf.acquire_slot_at(5.0), 5.0);
    }

    #[test]
    fn acquire_after_all_completions_is_now() {
        let mut buf = InflightBuffer::new(1);
        buf.allocate(0, 10.0, WaitClass::DemandL2);
        assert_eq!(buf.acquire_slot_at(50.0), 50.0);
    }

    #[test]
    fn prefetch_reserve_blocks_before_capacity() {
        let mut buf = InflightBuffer::new(4);
        buf.allocate(0, 100.0, WaitClass::DemandMem);
        buf.allocate(64, 100.0, WaitClass::DemandMem);
        assert!(buf.has_free(0.0, 0));
        assert!(buf.has_free(0.0, 1));
        assert!(!buf.has_free(0.0, 2), "reserve of 2 leaves no room");
    }

    #[test]
    fn occupancy_and_peak_track_lifecycle() {
        let mut buf = InflightBuffer::new(8);
        buf.allocate(0, 10.0, WaitClass::DemandMem);
        buf.allocate(64, 20.0, WaitClass::DemandMem);
        assert_eq!(buf.occupancy(0.0), 2);
        assert_eq!(buf.occupancy(15.0), 1);
        assert_eq!(buf.occupancy(25.0), 0);
        assert_eq!(buf.peak_occupancy(), 2);
        assert_eq!(buf.allocations(), 2);
    }

    #[test]
    fn line_can_be_reallocated_after_release() {
        let mut buf = InflightBuffer::new(2);
        buf.allocate(0, 10.0, WaitClass::DemandMem);
        buf.release_until(10.0);
        buf.allocate(0, 30.0, WaitClass::Prefetch);
        assert_eq!(buf.lookup(0, 15.0).unwrap().wait_class, WaitClass::Prefetch);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = InflightBuffer::new(0);
    }

    #[test]
    fn time_ordering_is_total_for_finite_values() {
        assert!(Time(1.0) < Time(2.0));
        assert_eq!(Time(3.0), Time(3.0));
        assert!(Time(-1.0) < Time(0.0));
    }
}
