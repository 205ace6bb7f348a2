//! The Store Buffer (SB) and its RFO drain — the third CAMP pressure point.
//!
//! Stores retire into the SB and complete asynchronously: each entry issues
//! a Read-For-Ownership (RFO) request and frees only when the RFO completes.
//! Drain is head-first (in order) with a bounded number of RFOs in flight.
//! When every entry is occupied, the next store cannot retire and the whole
//! pipeline backs up — the `BOUND_ON_STORES` stalls of §4.3. Because RFO
//! latency inherits the memory tier's read latency, moving data to CXL
//! directly multiplies the sustainable store drain time per line.

use crate::inflight::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Store Buffer model.
///
/// The engine drives it in three steps per store:
///
/// 1. [`admit`](StoreBuffer::admit) — obtain an SB entry, waiting (and thus
///    stalling retirement) if the buffer is full;
/// 2. [`rfo_issue_at`](StoreBuffer::rfo_issue_at) — find when the entry's
///    RFO may issue, respecting in-order drain and the RFO parallelism cap;
/// 3. [`complete`](StoreBuffer::complete) — record the RFO completion time,
///    which frees the entry and the RFO slot.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    capacity: usize,
    drain_parallelism: usize,
    /// Completion times of occupied SB entries.
    entries: BinaryHeap<Reverse<Time>>,
    /// Completion times of in-flight RFOs (bounded by `drain_parallelism`).
    rfo_slots: BinaryHeap<Reverse<Time>>,
    /// Issue time of the most recently issued RFO (in-order drain).
    last_rfo_issue: f64,
    full_waits: u64,
}

impl StoreBuffer {
    /// Creates a store buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `drain_parallelism` is zero.
    pub fn new(capacity: usize, drain_parallelism: usize) -> Self {
        assert!(capacity > 0, "store buffer must have entries");
        assert!(drain_parallelism > 0, "drain parallelism must be positive");
        StoreBuffer {
            capacity,
            drain_parallelism,
            entries: BinaryHeap::with_capacity(capacity + 1),
            rfo_slots: BinaryHeap::with_capacity(drain_parallelism + 1),
            last_rfo_issue: 0.0,
            full_waits: 0,
        }
    }

    /// Configured entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits a store at time `now`, returning the time the SB entry is
    /// actually obtained (`>= now`; later only when the buffer was full).
    /// The difference is the store-bound stall exposed to the pipeline.
    pub fn admit(&mut self, now: f64) -> f64 {
        // Free entries whose stores completed.
        while let Some(&Reverse(Time(t))) = self.entries.peek() {
            if t > now {
                break;
            }
            self.entries.pop();
        }
        if self.entries.len() < self.capacity {
            now
        } else {
            self.full_waits += 1;
            let Reverse(Time(t)) = self.entries.pop().expect("full buffer has entries");
            t.max(now)
        }
    }

    /// Earliest time `>= entry_time` at which the entry's RFO may issue:
    /// after the previous RFO issued (in-order drain) and once an RFO slot
    /// is free.
    pub fn rfo_issue_at(&mut self, entry_time: f64) -> f64 {
        let mut t = entry_time.max(self.last_rfo_issue);
        // Free RFO slots that completed by t.
        while let Some(&Reverse(Time(done))) = self.rfo_slots.peek() {
            if done > t {
                break;
            }
            self.rfo_slots.pop();
        }
        if self.rfo_slots.len() >= self.drain_parallelism {
            let Reverse(Time(done)) = self.rfo_slots.pop().expect("slots occupied");
            t = t.max(done);
        }
        self.last_rfo_issue = t;
        t
    }

    /// Records that a store whose drain issued a device RFO completes at
    /// `completion`: its SB entry and its RFO slot free together.
    pub fn complete(&mut self, completion: f64) {
        self.entries.push(Reverse(Time::new(completion)));
        self.rfo_slots.push(Reverse(Time::new(completion)));
    }

    /// Records that a store completes at `completion` without holding an
    /// RFO slot (cache-hit ownership, or coalesced onto another store's
    /// in-flight RFO). Only the SB entry is occupied until then.
    pub fn complete_fast(&mut self, completion: f64) {
        self.entries.push(Reverse(Time::new(completion)));
    }

    /// Number of admissions that found the buffer full.
    pub fn full_waits(&self) -> u64 {
        self.full_waits
    }

    /// Entries currently occupied as of time `now`.
    pub fn occupancy(&mut self, now: f64) -> usize {
        while let Some(&Reverse(Time(t))) = self.entries.peek() {
            if t > now {
                break;
            }
            self.entries.pop();
        }
        self.entries.len()
    }

    /// Entries that would be occupied at `now`, without freeing anything.
    /// Observers (epoch sampling) must use this so sampling cannot alter
    /// which entry a later [`admit`](Self::admit) pops when full.
    pub fn occupancy_at(&self, now: f64) -> usize {
        self.entries.iter().filter(|Reverse(Time(t))| *t > now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a steady store stream: each store admitted, RFO issued, and
    /// completed `rfo_latency` after issue. Returns `(total admission wait,
    /// last completion time)`.
    fn drive(sb: &mut StoreBuffer, stores: usize, spacing: f64, rfo_latency: f64) -> (f64, f64) {
        let mut wait = 0.0;
        let mut last = 0.0f64;
        for i in 0..stores {
            let t = i as f64 * spacing;
            let at = sb.admit(t);
            wait += at - t;
            let issue = sb.rfo_issue_at(at);
            let done = issue + rfo_latency;
            sb.complete(done);
            last = last.max(done);
        }
        (wait, last)
    }

    #[test]
    fn no_backpressure_when_drain_keeps_up() {
        // 4 entries, 2 parallel RFOs of 10 cycles => sustainable rate is one
        // store per 5 cycles; offering one per 10 cycles never fills.
        let mut sb = StoreBuffer::new(4, 2);
        let (wait, _) = drive(&mut sb, 100, 10.0, 10.0);
        assert_eq!(wait, 0.0);
        assert_eq!(sb.full_waits(), 0);
    }

    #[test]
    fn backpressure_emerges_when_rfo_rate_is_exceeded() {
        // Sustainable: 2 RFOs / 10 cycles = one store per 5 cycles. Offer
        // one per cycle *after the previous admission* (closed loop, like
        // the in-order pipeline behind a full SB).
        let mut sb = StoreBuffer::new(4, 2);
        let mut t = 0.0;
        let mut wait = 0.0;
        for _ in 0..200 {
            let at = sb.admit(t);
            wait += at - t;
            let issue = sb.rfo_issue_at(at);
            sb.complete(issue + 10.0);
            t = at + 1.0;
        }
        assert!(wait > 0.0, "expected store-buffer stalls");
        // Steady state admits stores in pairs per drain round: roughly
        // every other admission finds the buffer full.
        assert!(sb.full_waits() > 80, "full waits {}", sb.full_waits());
        // Steady state: each store is delayed to the 5-cycle drain pace,
        // i.e. ~4 cycles of backpressure on top of its 1-cycle spacing.
        let per_store = wait / 200.0;
        assert!(per_store > 2.0 && per_store < 6.0, "per-store wait {per_store}");
    }

    #[test]
    fn doubling_rfo_latency_roughly_doubles_drain_time() {
        // The §4.3 linearity: once the SB is the bottleneck, runtime scales
        // with RFO latency.
        let runtime = |rfo: f64| {
            let mut sb = StoreBuffer::new(8, 2);
            let (_, last) = drive(&mut sb, 500, 0.5, rfo);
            last
        };
        let fast = runtime(10.0);
        let slow = runtime(20.0);
        let ratio = slow / fast;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn rfo_issue_is_in_order() {
        let mut sb = StoreBuffer::new(8, 4);
        let a = sb.rfo_issue_at(10.0);
        let b = sb.rfo_issue_at(5.0); // later store cannot issue before an earlier one
        assert!(b >= a);
    }

    #[test]
    fn rfo_parallelism_caps_inflight() {
        let mut sb = StoreBuffer::new(16, 2);
        let i1 = sb.rfo_issue_at(0.0);
        sb.complete(i1 + 100.0);
        let i2 = sb.rfo_issue_at(0.0);
        sb.complete(i2 + 100.0);
        // Third RFO must wait for the first completion at t=100.
        let i3 = sb.rfo_issue_at(0.0);
        assert_eq!(i3, 100.0);
    }

    #[test]
    fn occupancy_reflects_completions() {
        let mut sb = StoreBuffer::new(4, 4);
        let at = sb.admit(0.0);
        let issue = sb.rfo_issue_at(at);
        sb.complete(issue + 50.0);
        assert_eq!(sb.occupancy(10.0), 1);
        assert_eq!(sb.occupancy(60.0), 0);
    }

    #[test]
    #[should_panic(expected = "must have entries")]
    fn zero_capacity_rejected() {
        let _ = StoreBuffer::new(0, 1);
    }
}
