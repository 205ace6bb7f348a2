//! Results of one simulation run.

use crate::config::{DeviceKind, Platform};
use crate::mem::DeviceStats;
use camp_pmu::{derived, CounterSet, Event};

/// Per-tier summary of one run.
#[derive(Debug, Clone)]
pub struct TierReport {
    /// Which device backed the tier.
    pub device: DeviceKind,
    /// Raw device statistics.
    pub stats: DeviceStats,
    /// The device's unloaded latency in core cycles (for classification and
    /// the interleaving model's `L_idle`).
    pub idle_latency_cycles: f64,
}

impl TierReport {
    /// Machine-wide read bandwidth achieved on this tier in bytes/s (the
    /// simulated core's traffic times the thread count).
    pub fn read_bandwidth(&self, seconds: f64, threads: u32) -> f64 {
        if seconds > 0.0 {
            self.stats.read_bytes() as f64 * threads as f64 / seconds
        } else {
            0.0
        }
    }

    /// Average loaded read latency on this tier in cycles (`None` if the
    /// tier served no reads).
    pub fn avg_read_latency(&self) -> Option<f64> {
        self.stats.avg_read_latency()
    }
}

/// Everything measured during one run of one workload on one machine
/// configuration.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Platform the run executed on.
    pub platform: Platform,
    /// Thread count the run modelled.
    pub threads: u32,
    /// Final PMU counter values.
    pub counters: CounterSet,
    /// Total execution cycles (the `c` of the model formulas).
    pub cycles: f64,
    /// Retired instructions.
    pub instructions: u64,
    /// Wall-clock seconds (cycles / frequency).
    pub seconds: f64,
    /// Fast-tier (local DRAM) summary.
    pub fast_tier: TierReport,
    /// Slow-tier summary, when a slow device was configured.
    pub slow_tier: Option<TierReport>,
    /// Per-epoch records, when sampling was enabled with
    /// [`Machine::with_epochs`](crate::Machine::with_epochs).
    pub epochs: Vec<Epoch>,
}

/// One sampling epoch of a run, `[start_cycle, end_cycle)` in retirement
/// cycles: the counter and device deltas accumulated over it, and the
/// miss-buffer occupancy at its sampling instant (the period boundary
/// whose crossing closed it; the run's end for the last epoch).
///
/// Epochs tile the run: the first starts at cycle 0, each ends where the
/// next starts, and the last ends at the run's final cycle (truncated).
/// The deltas sum to the run's totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Epoch {
    /// First cycle covered by this epoch.
    pub start_cycle: u64,
    /// One past the last cycle covered by this epoch.
    pub end_cycle: u64,
    /// Counter deltas accumulated during the epoch.
    pub counters: CounterSet,
    /// Line-fill-buffer entries in flight at the sampling instant.
    pub lfb: usize,
    /// Super-queue entries in flight at the sampling instant.
    pub sq: usize,
    /// Store-buffer entries occupied at the sampling instant.
    pub sb: usize,
    /// Uncore prefetch-queue entries in flight at the sampling instant.
    pub uncore_pf: usize,
    /// Demand loads that caught up with a still-inflight prefetch (late
    /// prefetches: issued, but not in time).
    pub pf_late: u64,
    /// Fast-tier device deltas ([`DeviceStats::delta_since`]).
    pub fast: DeviceStats,
    /// Slow-tier device deltas (all zero without a slow device).
    pub slow: DeviceStats,
}

impl Epoch {
    /// Length of the epoch in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// Retirement IPC over this epoch (0 for a zero-length epoch).
    pub fn ipc(&self) -> f64 {
        match self.cycles() {
            0 => 0.0,
            cycles => self.counters.get_f64(Event::Instructions) / cycles as f64,
        }
    }

    /// The epoch between two cumulative records of the same run: deltas
    /// from `earlier` to `self`, occupancy as of `self`.
    pub(crate) fn since(&self, earlier: &Epoch) -> Epoch {
        Epoch {
            start_cycle: earlier.end_cycle,
            end_cycle: self.end_cycle,
            counters: self.counters.delta_since(&earlier.counters),
            pf_late: self.pf_late - earlier.pf_late,
            fast: self.fast.delta_since(&earlier.fast),
            slow: self.slow.delta_since(&earlier.slow),
            ..*self
        }
    }
}

impl RunReport {
    /// Fractional slowdown of this run relative to `baseline`
    /// (`cycles/baseline.cycles - 1`; 0.35 means 35% slower).
    ///
    /// # Panics
    ///
    /// Panics if the baseline has zero cycles.
    pub fn slowdown_vs(&self, baseline: &RunReport) -> f64 {
        assert!(baseline.cycles > 0.0, "baseline run has no cycles");
        self.cycles / baseline.cycles - 1.0
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        derived::ipc(&self.counters).unwrap_or(0.0)
    }

    /// Average offcore demand-read latency in cycles (Little's law over the
    /// occupancy counters), `None` if the run had no offcore reads.
    pub fn demand_read_latency(&self) -> Option<f64> {
        derived::demand_read_latency(&self.counters)
    }

    /// Measured memory-level parallelism.
    pub fn mlp(&self) -> Option<f64> {
        derived::mlp(&self.counters)
    }

    /// Machine-wide read bandwidth over both tiers in bytes/s.
    pub fn total_read_bandwidth(&self) -> f64 {
        let mut bytes = self.fast_tier.stats.read_bytes();
        if let Some(slow) = &self.slow_tier {
            bytes += slow.stats.read_bytes();
        }
        if self.seconds > 0.0 {
            bytes as f64 * self.threads as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Fraction of memory-read traffic (in lines) served by the fast tier.
    pub fn fast_read_share(&self) -> f64 {
        let fast = self.fast_tier.stats.reads as f64;
        let slow = self.slow_tier.as_ref().map_or(0.0, |t| t.stats.reads as f64);
        if fast + slow > 0.0 {
            fast / (fast + slow)
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: f64, fast_reads: u64, slow_reads: u64) -> RunReport {
        let mut counters = CounterSet::new();
        counters.set(Event::Cycles, cycles as u64);
        counters.set(Event::Instructions, 1000);
        RunReport {
            workload: "test".into(),
            platform: Platform::Spr2s,
            threads: 2,
            counters,
            cycles,
            instructions: 1000,
            seconds: cycles / 2.1e9,
            fast_tier: TierReport {
                device: DeviceKind::LocalDram,
                stats: DeviceStats { reads: fast_reads, ..Default::default() },
                idle_latency_cycles: 239.4,
            },
            slow_tier: Some(TierReport {
                device: DeviceKind::CxlA,
                stats: DeviceStats { reads: slow_reads, ..Default::default() },
                idle_latency_cycles: 449.4,
            }),
            epochs: Vec::new(),
        }
    }

    #[test]
    fn slowdown_is_fractional() {
        let base = report(1000.0, 0, 0);
        let slow = report(1500.0, 0, 0);
        assert!((slow.slowdown_vs(&base) - 0.5).abs() < 1e-12);
        assert_eq!(base.slowdown_vs(&base), 0.0);
    }

    #[test]
    fn fast_read_share() {
        assert_eq!(report(1.0, 30, 70).fast_read_share(), 0.3);
        assert_eq!(report(1.0, 0, 0).fast_read_share(), 1.0);
    }

    #[test]
    fn bandwidth_scales_with_threads() {
        let r = report(2.1e9, 1_000_000, 0); // one second of cycles
        let bw = r.total_read_bandwidth();
        // 1M lines * 64 B * 2 threads / 1 s.
        assert!((bw - 2.0 * 64.0e6).abs() / bw < 1e-9);
    }

    #[test]
    fn tier_report_bandwidth() {
        let r = report(2.1e9, 500, 0);
        let bw = r.fast_tier.read_bandwidth(1.0, 2);
        assert!((bw - 2.0 * 500.0 * crate::config::LINE_BYTES as f64).abs() < 1e-6);
        assert_eq!(r.fast_tier.read_bandwidth(0.0, 2), 0.0);
    }
}
