//! The baseline performance metrics of Table 1 / Figure 1.
//!
//! Prior systems guide placement with scalar signals — access frequency
//! (Memstrata's MPKI), bandwidth (BATMAN), latency (Caption/Colloid),
//! stall cycles (X-Mem), IPC (Colloid), or latency amortised by MLP
//! (SoarAlto's AOL). The paper's Table 1 shows these correlate weakly
//! (0.37–0.88 Pearson) with actual CXL slowdown, while CAMP reaches 0.97.
//! This module extracts each metric from a DRAM run so the comparison can
//! be regenerated.

use camp_pmu::{derived, Event};
use camp_sim::RunReport;

/// A scalar baseline signal from prior work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineMetric {
    /// Misses per kilo-instruction (Memstrata).
    Mpki,
    /// Memory read bandwidth (BATMAN).
    Bandwidth,
    /// Average demand-read latency (Caption, Colloid, TierTune).
    Latency,
    /// Memory stall-cycle fraction (X-Mem, Top-Down).
    StallCycles,
    /// Instructions per cycle (Colloid's progress signal; correlates
    /// negatively with slowdown).
    Ipc,
    /// Amortised offcore latency `L / MLP` (SoarAlto).
    Aol,
}

impl BaselineMetric {
    /// All metrics, in Table 1 order.
    pub const ALL: [BaselineMetric; 6] = [
        BaselineMetric::Mpki,
        BaselineMetric::Bandwidth,
        BaselineMetric::Latency,
        BaselineMetric::StallCycles,
        BaselineMetric::Ipc,
        BaselineMetric::Aol,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BaselineMetric::Mpki => "MPKI",
            BaselineMetric::Bandwidth => "Bandwidth",
            BaselineMetric::Latency => "Latency",
            BaselineMetric::StallCycles => "Stall cycles",
            BaselineMetric::Ipc => "IPC",
            BaselineMetric::Aol => "AOL",
        }
    }

    /// Representative prior system using this signal (Table 1).
    pub fn system(self) -> &'static str {
        match self {
            BaselineMetric::Mpki => "Memstrata",
            BaselineMetric::Bandwidth => "BATMAN",
            BaselineMetric::Latency => "Caption",
            BaselineMetric::StallCycles => "X-Mem",
            BaselineMetric::Ipc => "Colloid",
            BaselineMetric::Aol => "SoarAlto",
        }
    }

    /// Extracts the metric from a DRAM profiling run.
    pub fn value(self, report: &RunReport) -> f64 {
        match self {
            BaselineMetric::Mpki => derived::mpki(&report.counters).unwrap_or(0.0),
            BaselineMetric::Bandwidth => report.total_read_bandwidth(),
            BaselineMetric::Latency => report.demand_read_latency().unwrap_or(0.0),
            BaselineMetric::StallCycles => {
                let c = report.cycles.max(1.0);
                (report.counters.get_f64(Event::StallsL1dMiss)
                    + report.counters.get_f64(Event::BoundOnStores))
                    / c
            }
            BaselineMetric::Ipc => report.ipc(),
            BaselineMetric::Aol => derived::aol(&report.counters).unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_sim::{Machine, Platform};

    #[test]
    fn metrics_are_finite_and_distinct_on_a_real_run() {
        let workload = camp_workloads::find("spec.505.mcf-1t").expect("in suite");
        let report = Machine::dram_only(Platform::Spr2s).run(&workload);
        let values: Vec<f64> = BaselineMetric::ALL.iter().map(|m| m.value(&report)).collect();
        assert!(values.iter().all(|v| v.is_finite()));
        // mcf is memory-bound: stalls high, IPC low, AOL meaningful.
        assert!(values[3] > 0.5, "stall fraction {}", values[3]);
        assert!(values[4] < 0.5, "ipc {}", values[4]);
        assert!(values[5] > 50.0, "aol {}", values[5]);
    }

    #[test]
    fn names_and_systems_are_stable() {
        assert_eq!(BaselineMetric::Aol.name(), "AOL");
        assert_eq!(BaselineMetric::Aol.system(), "SoarAlto");
        assert_eq!(BaselineMetric::Mpki.system(), "Memstrata");
        let names: std::collections::HashSet<&str> =
            BaselineMetric::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn empty_run_yields_zero_not_nan() {
        use camp_pmu::CounterSet;
        use camp_sim::report::TierReport;
        let report = RunReport {
            workload: "empty".into(),
            platform: Platform::Spr2s,
            threads: 1,
            counters: CounterSet::new(),
            cycles: 0.0,
            instructions: 0,
            seconds: 0.0,
            fast_tier: TierReport {
                device: camp_sim::DeviceKind::LocalDram,
                stats: Default::default(),
                idle_latency_cycles: 239.4,
            },
            slow_tier: None,
            epochs: Vec::new(),
        };
        for metric in BaselineMetric::ALL {
            assert!(metric.value(&report).is_finite(), "{}", metric.name());
        }
    }
}
