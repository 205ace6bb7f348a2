//! Figure 14: interleaving-model accuracy over twenty bandwidth-leaning
//! workloads — (a) the misprediction CDF, (b) predicted vs actual optimal
//! ratios, (c) Best-shot performance vs the oracle optimum.

use crate::harness::{fmt, Context, Table};
use camp_core::interleave::best_shot;
use camp_core::stats;

use super::fig9::{profile, sweep, DEVICE, PLATFORM, SWEEP_STEPS};

/// Runs Figure 14.
pub fn run(ctx: &Context) -> Vec<Table> {
    let predictor = ctx.predictor(PLATFORM, DEVICE);
    let mut per_workload = Table::new(
        "Figure 14b/c: predicted vs oracle optimal ratios",
        &[
            "workload",
            "runs",
            "pred_ratio",
            "oracle_ratio",
            "perf_at_pred",
            "perf_at_oracle",
            "gap",
        ],
    );
    let mut all_errors: Vec<f64> = Vec::new();
    for workload in camp_workloads::interleaving_workloads() {
        // One shared trace feeds the profiling runs, the sweep and the
        // run at the predicted ratio, which the sweep already holds when
        // it lands on the sweep's grid.
        let traced = ctx.traces().wrap(workload.as_ref());
        let (baseline, points) = sweep(ctx, &traced, SWEEP_STEPS);
        let model = profile(ctx, &traced, &predictor);
        // (a) misprediction across the sweep.
        for (x, report) in &points {
            let predicted = model.predict_total(*x);
            let actual = report.slowdown_vs(&baseline);
            all_errors.push((predicted - actual).abs());
        }
        // (b)/(c) optima.
        let choice = best_shot(&model);
        let oracle = points
            .iter()
            .min_by(|a, b| a.1.cycles.partial_cmp(&b.1.cycles).expect("finite"))
            .expect("sweep non-empty");
        let at_pred = ctx.run_interleaved(PLATFORM, DEVICE, choice.ratio, &traced);
        let perf_pred = baseline.cycles / at_pred.cycles;
        let perf_oracle = baseline.cycles / oracle.1.cycles;
        per_workload.row(&[
            workload.name().to_string(),
            model.profiling_runs.to_string(),
            fmt(choice.ratio, 2),
            fmt(oracle.0, 2),
            fmt(perf_pred, 3),
            fmt(perf_oracle, 3),
            format!("{:.1}%", (perf_oracle / perf_pred - 1.0) * 100.0),
        ]);
    }
    all_errors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let within =
        |t: f64| all_errors.iter().filter(|&&e| e <= t).count() as f64 / all_errors.len() as f64;
    let mut cdf = Table::new(
        "Figure 14a: interleaving misprediction CDF",
        &["samples", "<=2%", "<=5%", "<=10%", "median", "p95"],
    );
    cdf.row(&[
        all_errors.len().to_string(),
        format!("{:.0}%", within(0.02) * 100.0),
        format!("{:.0}%", within(0.05) * 100.0),
        format!("{:.0}%", within(0.10) * 100.0),
        fmt(stats::quantile_sorted(&all_errors, 0.5), 3),
        fmt(stats::quantile_sorted(&all_errors, 0.95), 3),
    ]);
    vec![cdf, per_workload]
}
