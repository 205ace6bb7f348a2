//! Figures 9–11: measured interleaving characterisation.
//!
//! - Figure 9: per-component slowdown across the ratio sweep for two
//!   bandwidth-bound streams, a bandwidth-bound translation model, and a
//!   latency-bound range query — the "bathtub vs linear" regimes of §5.1.
//! - Figure 10: MLP invariance across ratios and the ΔC-based `S_DRd`
//!   estimate (603.bwaves).
//! - Figure 11: per-tier loaded latencies and the slowdown curve at 2 and
//!   8 threads (603.bwaves).

use crate::harness::{fmt, Context, Table};
use camp_core::{MeasuredComponents, Signature};
use camp_pmu::Event;
use camp_sim::{DeviceKind, Machine, Platform, RunReport, Workload};

/// Interleaving experiments run on the SKX testbed against CXL-A (whose
/// 52:24 GB/s bandwidth split makes 8-thread streams saturate, matching
/// the paper's bandwidth-bound setting).
pub const PLATFORM: Platform = Platform::Skx2s;
/// The slow tier for the interleaving experiments.
pub const DEVICE: DeviceKind = DeviceKind::CxlA;
/// Ratio-sweep step count (the paper sweeps 101 ratios; 20 steps keep the
/// regeneration fast while preserving the curve shape).
pub const SWEEP_STEPS: usize = 20;

/// Runs the ratio sweep for one workload, returning
/// `(x, interleaved report)` pairs plus the DRAM baseline. Pass a workload
/// wrapped by [`camp_sim::TraceCache::wrap`] so the baseline and every
/// ratio share one generated trace.
pub fn sweep(workload: &dyn Workload, steps: usize) -> (RunReport, Vec<(f64, RunReport)>) {
    let baseline = Machine::dram_only(PLATFORM).run(workload);
    let sweep = (0..=steps)
        .map(|i| {
            let x = i as f64 / steps as f64;
            let report = Machine::interleaved(PLATFORM, DEVICE, x).run(workload);
            (x, report)
        })
        .collect();
    (baseline, sweep)
}

/// Runs Figure 9.
pub fn run(ctx: &Context) -> Vec<Table> {
    let names = [
        "spec.649.fotonik3d-8t",
        "spec.654.roms-8t",
        "ai.wmt20-8t",
        "pbbs.rangeQuery2d-1t",
    ];
    let mut tables = Vec::new();
    for name in names {
        let workload = camp_workloads::find(name).expect("figure 9 workload in suite");
        let (baseline, points) = sweep(&ctx.traces().wrap(workload.as_ref()), SWEEP_STEPS);
        let mut table = Table::new(
            format!("Figure 9: per-component slowdown vs ratio ({name})"),
            &["dram_fraction", "S_DRd", "S_Cache", "S_Store", "S_total"],
        );
        for (x, report) in points {
            let m = MeasuredComponents::attribute(&baseline, &report);
            table.row(&[
                fmt(x, 2),
                fmt(m.drd, 3),
                fmt(m.cache, 3),
                fmt(m.store, 3),
                fmt(m.total, 3),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Runs Figure 10: MLP and ΔC-based `S_DRd` across ratios for bwaves.
pub fn run_fig10(ctx: &Context) -> Vec<Table> {
    let mut tables = Vec::new();
    for name in ["spec.603.bwaves-2t", "spec.603.bwaves-8t"] {
        let workload = camp_workloads::find(name).expect("bwaves in suite");
        let (baseline, points) = sweep(&ctx.traces().wrap(workload.as_ref()), SWEEP_STEPS);
        let base_sig = Signature::from_report(&baseline);
        let mut table = Table::new(
            format!("Figure 10: MLP invariance and ΔC estimate ({name})"),
            &["dram_fraction", "mlp", "S_DRd_stalls", "S_DRd_deltaC"],
        );
        for (x, report) in points {
            let sig = Signature::from_report(&report);
            let m = MeasuredComponents::attribute(&baseline, &report);
            let delta_c = (report.counters.get_f64(Event::OroCycWDemandRd)
                - base_sig.memory_active)
                / baseline.cycles;
            table.row(&[fmt(x, 2), fmt(sig.mlp, 3), fmt(m.drd, 3), fmt(delta_c, 3)]);
        }
        tables.push(table);
    }
    tables
}

/// Runs Figure 11: per-tier loaded latencies and total slowdown.
pub fn run_fig11(ctx: &Context) -> Vec<Table> {
    let mut tables = Vec::new();
    for name in ["spec.603.bwaves-2t", "spec.603.bwaves-8t"] {
        let workload = camp_workloads::find(name).expect("bwaves in suite");
        let (baseline, points) = sweep(&ctx.traces().wrap(workload.as_ref()), SWEEP_STEPS);
        let mut table = Table::new(
            format!("Figure 11: tier latencies and slowdown ({name})"),
            &["dram_fraction", "L_dram", "L_cxl", "slowdown"],
        );
        for (x, report) in points {
            let l_fast = report.fast_tier.avg_read_latency().unwrap_or(0.0);
            let l_slow =
                report.slow_tier.as_ref().and_then(|t| t.avg_read_latency()).unwrap_or(0.0);
            table.row(&[
                fmt(x, 2),
                fmt(l_fast, 0),
                fmt(l_slow, 0),
                fmt(report.slowdown_vs(&baseline), 3),
            ]);
        }
        tables.push(table);
    }
    tables
}
