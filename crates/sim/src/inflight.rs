//! In-flight miss-tracking buffers: the Line Fill Buffer (LFB) and the
//! SuperQueue (SQ).
//!
//! These small structures are two of CAMP's three "pressure points"
//! (§2.3 of the paper): every outstanding cache miss occupies an entry from
//! allocation until the line arrives, repeated accesses to the same line
//! coalesce into one entry, and a full buffer blocks further misses. Longer
//! memory latency extends entry lifetimes, which is precisely how CXL
//! latency converts into cache-level stalls.
//!
//! A buffer holds at most its capacity of entries (16 to 112 in every
//! preset), so it is two flat arrays, line addresses and entries, scanned
//! linearly, plus the least fill time among them. Releasing is one
//! comparison with that minimum until an entry is due; only then does a
//! pass drop every due entry and find the new minimum.

/// Total-ordered wrapper for the engine's timestamps, which are finite
/// and non-negative: there `f64::total_cmp` orders exactly as `<` does,
/// except that it puts −0.0 before +0.0, which [`Time::new`] rules out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Time(pub f64);

impl Time {
    /// Wraps a timestamp.
    ///
    /// # Panics
    ///
    /// In debug builds, panics unless `t` is finite with its sign bit
    /// clear.
    #[inline]
    pub(crate) fn new(t: f64) -> Time {
        debug_assert!(
            t.is_finite() && t.is_sign_positive(),
            "timestamp {t} is not a finite value >= +0.0"
        );
        Time(t)
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
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
    /// Line address of each occupied entry; `entries[i]` is `lines[i]`'s.
    lines: Vec<u64>,
    entries: Vec<InflightEntry>,
    /// Least fill time in `entries` (`INFINITY` when empty): nothing is
    /// due before it.
    next_fill: f64,
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
            lines: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            next_fill: f64::INFINITY,
            allocations: 0,
            peak_occupancy: 0,
        }
    }

    /// Configured number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Releases all entries whose fill time is `<= now`.
    #[inline]
    pub fn release_until(&mut self, now: f64) {
        if now < self.next_fill {
            return;
        }
        let mut kept = 0;
        let mut next_fill = f64::INFINITY;
        for i in 0..self.entries.len() {
            let entry = self.entries[i];
            if entry.fill_time > now {
                self.lines[kept] = self.lines[i];
                self.entries[kept] = entry;
                kept += 1;
                next_fill = next_fill.min(entry.fill_time);
            }
        }
        self.lines.truncate(kept);
        self.entries.truncate(kept);
        self.next_fill = next_fill;
    }

    /// Looks up an in-flight entry for `line` (after releasing entries that
    /// completed by `now`).
    #[inline]
    pub fn lookup(&mut self, line: u64, now: f64) -> Option<InflightEntry> {
        self.release_until(now);
        let i = self.lines.iter().position(|&held| held == line)?;
        Some(self.entries[i])
    }

    /// Current number of occupied entries (after releasing up to `now`).
    pub fn occupancy(&mut self, now: f64) -> usize {
        self.release_until(now);
        self.entries.len()
    }

    /// Number of entries that would be occupied at `now`, without
    /// releasing anything. Observers (epoch sampling) must use this:
    /// the engine queries these buffers at issue-time cursors that can
    /// lag retirement, so an eager `release_until` at a retirement-time
    /// boundary would destroy entries a later lagging `lookup` still
    /// coalesces on, perturbing the simulation being observed.
    pub fn occupancy_at(&self, now: f64) -> usize {
        self.entries.iter().filter(|entry| entry.fill_time > now).count()
    }

    /// True if at least `reserve + 1` entries are free at `now`. Used by
    /// prefetchers, which drop rather than wait, and keep a reserve so they
    /// cannot starve demand misses.
    pub fn has_free(&mut self, now: f64, reserve: usize) -> bool {
        self.occupancy(now) + reserve < self.capacity
    }

    /// Returns the earliest time `>= now` at which a free entry is
    /// guaranteed, releasing any entry that must complete to make room:
    /// on a full buffer, the entry with the least `(fill_time, line)`.
    /// Demand misses call this and absorb the wait as stall time.
    pub fn acquire_slot_at(&mut self, now: f64) -> f64 {
        self.release_until(now);
        if self.entries.len() < self.capacity {
            return now;
        }
        let key = |i: usize| (self.entries[i].fill_time, self.lines[i]);
        let victim = (1..self.entries.len()).fold(0, |v, i| if key(i) < key(v) { i } else { v });
        let t = self.entries[victim].fill_time;
        self.lines.swap_remove(victim);
        self.entries.swap_remove(victim);
        self.next_fill = self.entries.iter().fold(f64::INFINITY, |m, e| m.min(e.fill_time));
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
        debug_assert!(!self.lines.contains(&line), "line {line:#x} already in flight");
        debug_assert!(self.entries.len() < self.capacity, "allocation beyond capacity");
        self.lines.push(line);
        self.entries.push(InflightEntry { fill_time, wait_class });
        self.next_fill = self.next_fill.min(fill_time);
        self.allocations += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
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

    #[test]
    fn time_order_matches_partial_cmp_on_non_negative_finite_values() {
        let mut values = vec![
            0.0,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            f64::MAX,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            values.push((state >> 11) as f64 / 1024.0);
            values.push(f64::from_bits(state >> 1).min(f64::MAX));
        }
        // Every value meets itself too: ties must compare equal.
        for &x in &values {
            for &y in &values {
                assert_eq!(
                    Time::new(x).cmp(&Time::new(y)),
                    x.partial_cmp(&y).unwrap(),
                    "{x:e} vs {y:e}"
                );
            }
        }
    }
}
