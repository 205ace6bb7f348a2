//! Figures 6 and 7: per-component prediction-error CDFs and the
//! predicted-vs-actual scatter per device.

use crate::harness::{fmt, Context, Table};
use camp_core::stats;

use super::table6;

/// Runs Figure 6: error-CDF summary statistics per component per device.
pub fn run(ctx: &Context) -> Vec<Table> {
    let mut summary = Table::new(
        "Figure 6: per-component absolute prediction error",
        &["config", "component", "<=5%", "<=10%", "median", "p95"],
    );
    for (platform, device) in table6::configurations() {
        let rows = table6::collect(ctx, platform, device);
        let components: [(&str, Vec<f64>, Vec<f64>); 3] = [
            (
                "S_DRd",
                rows.iter().map(|r| r.1.drd).collect(),
                rows.iter().map(|r| r.3.drd).collect(),
            ),
            (
                "S_Cache",
                rows.iter().map(|r| r.1.cache).collect(),
                rows.iter().map(|r| r.3.cache).collect(),
            ),
            (
                "S_Store",
                rows.iter().map(|r| r.1.store).collect(),
                rows.iter().map(|r| r.3.store).collect(),
            ),
        ];
        for (name, predicted, actual) in components {
            let errors =
                stats::error_summary(&predicted, &actual).unwrap_or_else(|e| panic!("{e}"));
            summary.row(&[
                format!("{} {}", platform.name(), device.name()),
                name.to_string(),
                format!("{:.1}%", errors.within_5pct * 100.0),
                format!("{:.1}%", errors.within_10pct * 100.0),
                fmt(errors.median_abs, 4),
                fmt(errors.p95_abs, 3),
            ]);
        }
    }
    vec![summary]
}

/// Runs Figure 7: per-workload predicted vs actual total slowdown for
/// every device (the scatter panels (a)–(d)).
pub fn run_fig7(ctx: &Context) -> Vec<Table> {
    let mut tables = Vec::new();
    for (platform, device) in table6::configurations() {
        let rows = table6::collect(ctx, platform, device);
        let mut table = Table::new(
            format!(
                "Figure 7: predicted vs actual slowdown ({} {})",
                platform.name(),
                device.name()
            ),
            &["workload", "predicted", "actual"],
        );
        for (name, _, predicted_total, measured) in rows {
            table.row(&[name, fmt(predicted_total, 4), fmt(measured.total, 4)]);
        }
        tables.push(table);
    }
    tables
}
