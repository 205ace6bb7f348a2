//! Figure 13: interleaving prediction accuracy on 10-thread 603.bwaves —
//! predicted vs measured per-component and total slowdown across the
//! ratio sweep.

use crate::harness::{fmt, Context, Table};
use camp_core::{stats, MeasuredComponents};

use super::fig9::{profile, sweep, DEVICE, PLATFORM, SWEEP_STEPS};

/// Runs Figure 13.
pub fn run(ctx: &Context) -> Vec<Table> {
    let predictor = ctx.predictor(PLATFORM, DEVICE);
    let workload = camp_workloads::find("spec.603.bwaves-10t").expect("bwaves-10t in suite");
    let traced = ctx.traces().wrap(workload.as_ref());
    let (baseline, points) = sweep(ctx, &traced, SWEEP_STEPS);
    let model = profile(ctx, &traced, &predictor);
    let mut table = Table::new(
        "Figure 13: predicted vs actual slowdown under interleaving (spec.603.bwaves-10t)",
        &[
            "dram_fraction",
            "pred_DRd",
            "act_DRd",
            "pred_Cache",
            "act_Cache",
            "pred_Store",
            "act_Store",
            "pred_total",
            "act_total",
        ],
    );
    let (mut predicted, mut actual) = (Vec::new(), Vec::new());
    for (x, report) in points {
        let p = model.predict_components(x);
        let m = MeasuredComponents::attribute(&baseline, &report);
        predicted.push(p.total());
        actual.push(m.total);
        table.row(&[
            fmt(x, 2),
            fmt(p.drd, 3),
            fmt(m.drd, 3),
            fmt(p.cache, 3),
            fmt(m.cache, 3),
            fmt(p.store, 3),
            fmt(m.store, 3),
            fmt(p.total(), 3),
            fmt(m.total, 3),
        ]);
    }
    let mut summary = Table::new(
        "Figure 13: curve accuracy",
        &["profiling_runs", "pearson", "mean abs err", "max abs err"],
    );
    let errors = stats::error_summary(&predicted, &actual).unwrap_or_else(|e| panic!("{e}"));
    let max_err = predicted.iter().zip(&actual).map(|(p, a)| (p - a).abs()).fold(0.0f64, f64::max);
    summary.row(&[
        model.profiling_runs.to_string(),
        fmt(stats::pearson(&predicted, &actual).unwrap_or(0.0), 3),
        fmt(errors.mean_abs, 3),
        fmt(max_err, 3),
    ]);
    vec![summary, table]
}
