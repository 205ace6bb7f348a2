//! Table 1: Pearson correlation of each baseline metric — and CAMP's
//! prediction — with actual NUMA slowdown across the 265-workload suite.

use crate::harness::{fmt, Context, Table};
use camp_core::{stats, BaselineMetric};
use camp_sim::{DeviceKind, Platform};

/// The evaluation tier for Table 1 / Figure 1: the paper correlates on
/// NUMA, measured on the SKX testbed.
pub const PLATFORM: Platform = Platform::Skx2s;
/// Table 1's slow tier.
pub const DEVICE: DeviceKind = DeviceKind::Numa;

/// Collects, for every suite workload: its baseline-metric values, CAMP's
/// prediction, and the measured slowdown. Shared with Figure 1.
pub fn collect(ctx: &Context) -> Vec<(String, Vec<f64>, f64, f64)> {
    let predictor = ctx.predictor(PLATFORM, DEVICE);
    let suite = camp_workloads::suite();
    let runs = ctx.endpoint_runs(PLATFORM, DEVICE, &suite);
    suite
        .iter()
        .zip(runs)
        .map(|(workload, (dram, slow))| {
            let metrics: Vec<f64> = BaselineMetric::ALL.iter().map(|m| m.value(&dram)).collect();
            let camp = predictor.predict_total_saturated(&dram);
            let actual = slow.slowdown_vs(&dram);
            (workload.name().to_string(), metrics, camp, actual)
        })
        .collect()
}

/// Runs Table 1.
pub fn run(ctx: &Context) -> Vec<Table> {
    let rows = collect(ctx);
    let actual: Vec<f64> = rows.iter().map(|r| r.3).collect();
    let mut table = Table::new(
        format!("Table 1: metric correlation with {DEVICE} slowdown ({} workloads)", rows.len()),
        &["system", "metric", "pearson |r|"],
    );
    for (i, metric) in BaselineMetric::ALL.iter().enumerate() {
        let values: Vec<f64> = rows.iter().map(|r| r.1[i]).collect();
        let r = stats::pearson(&values, &actual).unwrap_or(0.0).abs();
        table.row(&[
            metric.system().to_string(),
            metric.name().to_string(),
            fmt(r, 2),
        ]);
    }
    let camp: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let r = stats::pearson(&camp, &actual).unwrap_or(0.0);
    table.row(&[
        "CAMP (ours)".to_string(),
        "predicted slowdown".to_string(),
        fmt(r, 2),
    ]);
    vec![table]
}
