//! Table 6: overall prediction accuracy — Pearson correlation plus the
//! shares of workloads predicted within 5% and 10% absolute error — on
//! NUMA (SKX) and the three CXL expanders (SPR).

use crate::harness::{fmt, Context, Table};
use camp_core::stats;
use camp_sim::{DeviceKind, Platform};

/// The four evaluated (platform, device) configurations, in Table 6 order.
pub fn configurations() -> [(Platform, DeviceKind); 4] {
    [
        (Platform::Skx2s, DeviceKind::Numa),
        (Platform::Spr2s, DeviceKind::CxlA),
        (Platform::Spr2s, DeviceKind::CxlB),
        (Platform::Spr2s, DeviceKind::CxlC),
    ]
}

/// Per-configuration prediction/actual pairs over the full suite (shared
/// with Figures 6 and 7).
pub fn collect(
    ctx: &Context,
    platform: Platform,
    device: DeviceKind,
) -> Vec<(String, camp_core::SlowdownPrediction, f64, camp_core::MeasuredComponents)> {
    let predictor = ctx.predictor(platform, device);
    let suite = camp_workloads::suite();
    let runs = ctx.endpoint_runs(platform, device, &suite);
    suite
        .iter()
        .zip(runs)
        .map(|(workload, (dram, slow))| {
            let prediction = predictor.predict_report(&dram);
            let total_saturated = predictor.predict_total_saturated(&dram);
            let measured = camp_core::MeasuredComponents::attribute(&dram, &slow);
            (workload.name().to_string(), prediction, total_saturated, measured)
        })
        .collect()
}

/// Runs Table 6.
pub fn run(ctx: &Context) -> Vec<Table> {
    let mut table = Table::new(
        "Table 6: overall prediction accuracy (265 workloads)",
        &[
            "config",
            "pearson",
            "<=5% abs err",
            "<=10% abs err",
            "mean abs err",
        ],
    );
    for (platform, device) in configurations() {
        let rows = collect(ctx, platform, device);
        let predicted: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let actual: Vec<f64> = rows.iter().map(|r| r.3.total).collect();
        let pearson = stats::pearson(&predicted, &actual).unwrap_or(0.0);
        let errors = stats::error_summary(&predicted, &actual).unwrap_or_else(|e| panic!("{e}"));
        table.row(&[
            format!("{} {}", platform.name(), device.name()),
            fmt(pearson, 3),
            format!("{:.1}%", errors.within_5pct * 100.0),
            format!("{:.1}%", errors.within_10pct * 100.0),
            fmt(errors.mean_abs, 3),
        ]);
    }
    vec![table]
}
