//! Sweep-line accumulator for the offcore-occupancy counters.
//!
//! Intel's `OFFCORE_REQUESTS_OUTSTANDING` events integrate, per cycle, the
//! number of in-flight offcore demand reads (`P11`) and the number of
//! cycles with at least one in flight (`P13`). Together with the request
//! count (`P12`) they yield the paper's latency (`P11/P12`, Little's law)
//! and MLP (`P11/P13`) measurements.
//!
//! The engine inserts one interval `[send, fill)` per offcore demand read.
//! Send times are *mostly* non-decreasing (ops are processed in program
//! order), but an out-of-order core issues independent loads while an
//! older long-latency load is still outstanding, so bounded stragglers —
//! sends earlier than the sweep cursor — are legitimate. The accumulator
//! advances lazily with a min-heap of fill times and integrates a
//! straggler's already-swept prefix retroactively, which keeps the
//! occupancy integral (`P11`) exact: it always equals the sum of all
//! inserted interval lengths (Little's law). Only `P13` can undercount,
//! and only when a straggler's prefix covered a gap with nothing else in
//! flight.

use crate::inflight::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Integrates demand-read occupancy over time.
#[derive(Debug, Clone, Default)]
pub struct MlpSweep {
    /// Fill times of currently active intervals.
    active: BinaryHeap<Reverse<Time>>,
    /// Last time up to which the integral has been computed.
    cursor: f64,
    /// `P11`: ∫ (number outstanding) dt.
    occupancy_integral: f64,
    /// `P13`: ∫ [number outstanding ≥ 1] dt.
    active_cycles: f64,
    /// `P12`: number of intervals inserted.
    requests: u64,
}

impl MlpSweep {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the empty state while keeping the heap allocation, so an
    /// engine can reuse one accumulator across runs (clear-don't-drop).
    pub fn reset(&mut self) {
        self.active.clear();
        self.cursor = 0.0;
        self.occupancy_integral = 0.0;
        self.active_cycles = 0.0;
        self.requests = 0;
    }

    /// Advances the integral to time `to`, retiring completed intervals.
    fn advance(&mut self, to: f64) {
        while let Some(&Reverse(Time(fill))) = self.active.peek() {
            if fill > to {
                break;
            }
            let dt = (fill - self.cursor).max(0.0);
            let n = self.active.len() as f64;
            self.occupancy_integral += dt * n;
            self.active_cycles += dt;
            self.cursor = self.cursor.max(fill);
            self.active.pop();
        }
        if to > self.cursor {
            let n = self.active.len() as f64;
            if n > 0.0 {
                let dt = to - self.cursor;
                self.occupancy_integral += dt * n;
                self.active_cycles += dt;
            }
            self.cursor = to;
        }
    }

    /// Records an offcore demand read in flight over `[send, fill)`.
    ///
    /// Inserts may arrive out of order: an out-of-order core issues
    /// independent loads while an older long-latency load is outstanding.
    /// A straggler's already-swept prefix is integrated retroactively so
    /// the occupancy integral stays exact.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `fill < send`.
    pub fn insert(&mut self, send: f64, fill: f64) {
        debug_assert!(fill >= send, "interval ends before it starts");
        self.requests += 1;
        if send < self.cursor {
            // The interval started before the integrated frontier. Its
            // prefix `[send, min(fill, cursor))` raises the occupancy of
            // segments that were already swept — add it directly, which
            // keeps `P11 == Σ interval lengths`. `P13` keeps its swept
            // value: the prefix only matters to it if nothing else was in
            // flight then, and that history is gone (a bounded, rare
            // undercount). The suffix, if any, joins the heap normally.
            self.occupancy_integral += fill.min(self.cursor) - send;
            if fill > self.cursor {
                self.active.push(Reverse(Time::new(fill)));
            }
            return;
        }
        self.advance(send);
        self.active.push(Reverse(Time::new(fill)));
    }

    /// Finishes the sweep, integrating through the last fill, and returns
    /// `(P11, P12, P13)`: occupancy integral, request count, active cycles.
    pub fn finish(mut self) -> (f64, u64, f64) {
        self.advance(f64::INFINITY);
        (self.occupancy_integral, self.requests, self.active_cycles)
    }

    /// `(P11, P12, P13)` as of time `now`; intervals still in flight
    /// contribute up to `now`. Advances a copy, never the sweep itself: a
    /// cursor moved ahead to the retire clock would turn later loads into
    /// stragglers and undercount `P13`, so reading the counters at an
    /// epoch boundary would change the run being read.
    pub fn snapshot(&self, now: f64) -> (f64, u64, f64) {
        let mut ahead = self.clone();
        ahead.advance(now);
        (ahead.occupancy_integral, ahead.requests, ahead.active_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn single_interval() {
        let mut sweep = MlpSweep::new();
        sweep.insert(10.0, 110.0);
        let (p11, p12, p13) = sweep.finish();
        close(p11, 100.0);
        assert_eq!(p12, 1);
        close(p13, 100.0);
        // Latency = P11/P12 = 100; MLP = P11/P13 = 1.
    }

    #[test]
    fn overlapping_intervals_raise_mlp_not_active_time() {
        let mut sweep = MlpSweep::new();
        // Four fully overlapping 100-cycle reads.
        for _ in 0..4 {
            sweep.insert(0.0, 100.0);
        }
        let (p11, p12, p13) = sweep.finish();
        close(p11, 400.0);
        assert_eq!(p12, 4);
        close(p13, 100.0);
        // MLP = 4, latency = 100.
    }

    #[test]
    fn disjoint_intervals_sum_active_time() {
        let mut sweep = MlpSweep::new();
        sweep.insert(0.0, 50.0);
        sweep.insert(100.0, 150.0);
        let (p11, p12, p13) = sweep.finish();
        close(p11, 100.0);
        assert_eq!(p12, 2);
        close(p13, 100.0);
    }

    #[test]
    fn partial_overlap() {
        let mut sweep = MlpSweep::new();
        sweep.insert(0.0, 100.0);
        sweep.insert(50.0, 150.0);
        let (p11, _, p13) = sweep.finish();
        // Occupancy: 50 cycles at 1, 50 at 2, 50 at 1 = 200.
        close(p11, 200.0);
        close(p13, 150.0);
    }

    #[test]
    fn snapshot_counts_partial_inflight_time() {
        let mut sweep = MlpSweep::new();
        sweep.insert(0.0, 100.0);
        let (p11, p12, p13) = sweep.snapshot(40.0);
        close(p11, 40.0);
        assert_eq!(p12, 1);
        close(p13, 40.0);
        // Finishing still accounts the remainder exactly once.
        let (p11, _, p13) = sweep.finish();
        close(p11, 100.0);
        close(p13, 100.0);
    }

    #[test]
    fn snapshot_leaves_later_inserts_unchanged() {
        // A load sent at 50, after a snapshot at 120, must still count its
        // solo span [100, 150) towards P13, as it does without the snapshot.
        let run = |snapshot: bool| {
            let mut sweep = MlpSweep::new();
            sweep.insert(0.0, 100.0);
            if snapshot {
                let _ = sweep.snapshot(120.0);
            }
            sweep.insert(50.0, 150.0);
            sweep.finish()
        };
        assert_eq!(run(true), run(false));
        close(run(true).2, 150.0);
    }

    #[test]
    fn zero_length_interval_is_harmless() {
        let mut sweep = MlpSweep::new();
        sweep.insert(5.0, 5.0);
        let (p11, p12, p13) = sweep.finish();
        close(p11, 0.0);
        assert_eq!(p12, 1);
        close(p13, 0.0);
    }

    #[test]
    fn reset_matches_fresh_accumulator() {
        let mut sweep = MlpSweep::new();
        sweep.insert(0.0, 100.0);
        sweep.insert(50.0, 150.0);
        let _ = sweep.snapshot(120.0);
        sweep.reset();
        // After reset, the accumulator behaves exactly like a new one —
        // including accepting send times earlier than anything seen before.
        sweep.insert(10.0, 110.0);
        let (p11, p12, p13) = sweep.finish();
        close(p11, 100.0);
        assert_eq!(p12, 1);
        close(p13, 100.0);
    }

    #[test]
    fn out_of_order_straggler_entirely_in_the_past() {
        let mut sweep = MlpSweep::new();
        sweep.insert(0.0, 100.0);
        sweep.insert(200.0, 300.0); // sweeps the cursor to 200
        sweep.insert(50.0, 150.0); // straggler fully behind the cursor
        let (p11, p12, p13) = sweep.finish();
        // P11 stays exact: 100 + 100 + 100 (Little's law).
        close(p11, 300.0);
        assert_eq!(p12, 3);
        // P13 undercounts the straggler's solo span [100, 150): the gap
        // was already swept with nothing in flight.
        close(p13, 200.0);
    }

    #[test]
    fn out_of_order_straggler_straddling_the_cursor() {
        let mut sweep = MlpSweep::new();
        sweep.insert(0.0, 100.0);
        sweep.insert(90.0, 200.0); // cursor now at 90
        sweep.insert(50.0, 150.0); // prefix [50, 90) retroactive, suffix live
        let (p11, p12, p13) = sweep.finish();
        close(p11, 100.0 + 110.0 + 100.0);
        assert_eq!(p12, 3);
        // True active span is [0, 200) and the straggler overlaps live
        // intervals everywhere, so P13 is exact here.
        close(p13, 200.0);
    }

    #[test]
    fn little_law_holds_for_out_of_order_batches() {
        // P11 == Σ interval lengths must survive arbitrary insert order.
        let mut sweep = MlpSweep::new();
        let mut total = 0.0;
        for i in 0..1000u64 {
            let send = (i.wrapping_mul(2654435761) % 997) as f64;
            let len = 10.0 + (i % 17) as f64 * 3.0;
            sweep.insert(send, send + len);
            total += len;
        }
        let (p11, p12, _) = sweep.finish();
        // Looser epsilon: the integral accumulates in sweep-segment order,
        // not insertion order, so rounding differs from the plain sum.
        assert!((p11 - total).abs() < 1e-6, "{p11} != {total}");
        assert_eq!(p12, 1000);
    }

    #[test]
    fn empty_sweep() {
        let (p11, p12, p13) = MlpSweep::new().finish();
        close(p11, 0.0);
        assert_eq!(p12, 0);
        close(p13, 0.0);
    }

    #[test]
    fn little_law_holds_for_random_batches() {
        // Little's law: P11 == Σ interval lengths, by construction of the
        // integral — verify the sweep implements it.
        let mut sweep = MlpSweep::new();
        let mut total = 0.0;
        let mut t = 0.0;
        for i in 0..1000 {
            let len = 10.0 + (i % 17) as f64 * 3.0;
            sweep.insert(t, t + len);
            total += len;
            t += (i % 5) as f64;
        }
        let (p11, p12, _) = sweep.finish();
        close(p11, total);
        assert_eq!(p12, 1000);
    }
}
