//! Figure 5: LFB pressure explains cache-induced slowdown.
//!
//! (a) growth of L1-prefetch L3 misses against growth of LFB hits between
//! DRAM and CXL runs; (b) LFB-hit ratio against the L1D hit-rate drop; (c)
//! measured cache slowdown against the DRAM-run LFB-hit ratio.

use crate::harness::{fmt, Context, Table};
use camp_core::MeasuredComponents;
use camp_pmu::{derived, Event};
use camp_sim::{DeviceKind, Platform};

const PLATFORM: Platform = Platform::Spr2s;
const DEVICE: DeviceKind = DeviceKind::CxlA;

/// Runs Figure 5.
pub fn run(ctx: &Context) -> Vec<Table> {
    let mut table = Table::new(
        "Figure 5: LFB pressure vs cache slowdown",
        &[
            "workload",
            "d_lfb_hits",
            "d_l1pf_l3miss",
            "lfb_hit_ratio",
            "d_l1d_hit_rate",
            "s_cache_slowdown",
        ],
    );
    let suite = camp_workloads::suite();
    for (workload, (dram, slow)) in suite.iter().zip(ctx.endpoint_runs(PLATFORM, DEVICE, &suite)) {
        let loads = dram.counters.get_f64(Event::DemandLoads);
        if loads <= 0.0 {
            continue;
        }
        let d_lfb = slow.counters.get_f64(Event::LfbHit) - dram.counters.get_f64(Event::LfbHit);
        let l1pf_l3miss = |r: &camp_sim::RunReport| {
            r.counters.get_f64(Event::PfL1dAnyResponse) - r.counters.get_f64(Event::PfL1dL3Hit)
        };
        let d_pf_miss = l1pf_l3miss(&slow) - l1pf_l3miss(&dram);
        let lfb_ratio = derived::lfb_hit_ratio(&dram.counters).unwrap_or(0.0);
        let d_hit_rate = derived::l1d_hit_rate(&slow.counters).unwrap_or(0.0)
            - derived::l1d_hit_rate(&dram.counters).unwrap_or(0.0);
        let cache = MeasuredComponents::attribute(&dram, &slow).cache;
        table.row(&[
            workload.name().to_string(),
            fmt(d_lfb / loads, 4),
            fmt(d_pf_miss / loads, 4),
            fmt(lfb_ratio, 3),
            fmt(d_hit_rate, 4),
            fmt(cache, 3),
        ]);
    }
    // Correlation summary backing the figure's claims.
    let rows: Vec<Vec<f64>> = table
        .to_tsv()
        .lines()
        .skip(1)
        .map(|l| l.split('\t').skip(1).map(|v| v.parse().expect("numeric cell")).collect())
        .collect();
    let col = |i: usize| -> Vec<f64> { rows.iter().map(|r| r[i]).collect() };
    let mut corr = Table::new("Figure 5: correlations", &["pair", "pearson"]);
    for (name, a, b) in [
        ("Δ LFB hits vs Δ L1PF L3 misses (a)", col(0), col(1)),
        ("LFB hit ratio vs Δ L1D hit rate (b)", col(2), col(3)),
        ("LFB hit ratio vs cache slowdown (c)", col(2), col(4)),
    ] {
        let r = camp_core::stats::pearson(&a, &b).unwrap_or(0.0);
        corr.row(&[name.to_string(), fmt(r, 3)]);
    }
    vec![corr, table]
}
