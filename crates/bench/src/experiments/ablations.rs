//! Ablation benches for the design choices called out in `DESIGN.md`.

use crate::harness::{fmt, Context, Table};
use camp_core::interleave::{InterleaveModel, LatencyCurve, DEFAULT_TAU};
use camp_core::model::DrdTransfer;
use camp_core::stats::{self, Hyperbola};
use camp_core::{Calibration, MeasuredComponents};
use camp_sim::{DeviceKind, Platform};

use super::fig9::{sweep, SWEEP_STEPS};

const PLATFORM: Platform = Platform::Spr2s;
const DEVICE: DeviceKind = DeviceKind::CxlA;

/// Evaluates the total-slowdown prediction under a modified calibration
/// and transfer mode.
fn evaluate_with(
    ctx: &Context,
    label: &str,
    table: &mut Table,
    mutate: impl Fn(&mut Calibration),
    transfer: DrdTransfer,
    saturation: bool,
) {
    let mut calibration = ctx.calibration(PLATFORM, DEVICE);
    mutate(&mut calibration);
    let predictor = camp_core::CampPredictor::new(calibration).with_transfer(transfer);
    let (mut predicted, mut actual) = (Vec::new(), Vec::new());
    let suite = camp_workloads::suite();
    ctx.prefetch_suite(PLATFORM, DEVICE, &suite);
    for workload in suite {
        let dram = ctx.run(PLATFORM, None, &workload);
        let slow = ctx.run(PLATFORM, Some(DEVICE), &workload);
        let total = if saturation {
            predictor.predict_total_saturated(&dram)
        } else {
            predictor.predict_report(&dram).total()
        };
        predicted.push(total);
        actual.push(MeasuredComponents::attribute(&dram, &slow).total);
    }
    let errors = stats::error_summary(&predicted, &actual);
    table.row(&[
        label.to_string(),
        fmt(stats::pearson(&predicted, &actual).unwrap_or(0.0), 3),
        format!("{:.1}%", errors.within_10pct * 100.0),
        fmt(errors.mean_abs, 3),
    ]);
}

/// Ablation: the `S_DRd` latency-tolerance transfer — the derived-latency
/// form used by this reproduction, the paper's hyperbolic function of
/// `L/MLP` (AOL), and a constant transfer (no tolerance modelling).
pub fn hyperbolic(ctx: &Context) -> Vec<Table> {
    let mut table = Table::new(
        "Ablation: latency-tolerance transfer (S_DRd)",
        &["variant", "pearson", "<=10%", "mean abs err"],
    );
    evaluate_with(
        ctx,
        "derived phi(L)*dL/L [this repo]",
        &mut table,
        |_| {},
        DrdTransfer::DerivedLatency,
        true,
    );
    evaluate_with(
        ctx,
        "hyperbolic f(L/MLP) [paper Eq. 5]",
        &mut table,
        |_| {},
        DrdTransfer::HyperbolicAol,
        true,
    );
    // Constant transfer: ignore per-workload latency tolerance entirely.
    evaluate_with(
        ctx,
        "constant transfer",
        &mut table,
        move |c| c.hyperbola = Hyperbola { p: 1.4, q: 0.0 },
        DrdTransfer::HyperbolicAol,
        true,
    );
    vec![table]
}

/// Ablation: contribution of each slowdown component.
pub fn components(ctx: &Context) -> Vec<Table> {
    let mut table = Table::new(
        "Ablation: slowdown components",
        &["variant", "pearson", "<=10%", "mean abs err"],
    );
    let t = DrdTransfer::DerivedLatency;
    evaluate_with(ctx, "all components [CAMP]", &mut table, |_| {}, t, true);
    evaluate_with(ctx, "without S_DRd", &mut table, |c| c.k_drd = 0.0, t, true);
    evaluate_with(ctx, "without S_Cache", &mut table, |c| c.k_cache = 0.0, t, true);
    evaluate_with(ctx, "without S_Store", &mut table, |c| c.k_store = 0.0, t, true);
    vec![table]
}

/// Ablation: the bandwidth-saturation extension (§4.4.6 future work,
/// implemented here).
pub fn saturation(ctx: &Context) -> Vec<Table> {
    let mut table = Table::new(
        "Ablation: bandwidth-saturation floor",
        &["variant", "pearson", "<=10%", "mean abs err"],
    );
    let t = DrdTransfer::DerivedLatency;
    evaluate_with(ctx, "with saturation floor [CAMP+ext]", &mut table, |_| {}, t, true);
    evaluate_with(ctx, "paper model only", &mut table, |_| {}, t, false);
    vec![table]
}

/// Ablation: the latency-vs-load exponent of Eq. 8, scored on
/// interleaving-curve accuracy over the Figure 14 workload set.
pub fn quadratic(ctx: &Context) -> Vec<Table> {
    let predictor = ctx.predictor(super::fig9::PLATFORM, super::fig9::DEVICE);
    let mut table = Table::new(
        "Ablation: Eq. 8 latency-curve exponent (interleaving accuracy)",
        &["curve", "mean abs err", "p95 abs err", "<=5%"],
    );
    let curves = [
        ("adaptive [this repo]", LatencyCurve::Adaptive),
        ("quadratic [paper]", LatencyCurve::Quadratic),
        ("linear", LatencyCurve::Linear),
        ("cubic", LatencyCurve::Cubic),
    ];
    // Pre-compute sweeps once (shared across curve variants).
    let workloads = camp_workloads::interleaving_workloads();
    let mut data = Vec::new();
    for workload in &workloads {
        let model = InterleaveModel::profile(
            super::fig9::PLATFORM,
            super::fig9::DEVICE,
            workload,
            &predictor,
            DEFAULT_TAU,
        );
        let (baseline, points) = sweep(workload, SWEEP_STEPS);
        let actuals: Vec<(f64, f64)> =
            points.iter().map(|(x, report)| (*x, report.slowdown_vs(&baseline))).collect();
        data.push((model, actuals));
    }
    for (label, curve) in curves {
        let mut errors: Vec<f64> = Vec::new();
        for (model, actuals) in &data {
            let variant = model.clone().with_latency_curve(curve);
            for (x, actual) in actuals {
                errors.push((variant.predict_total(*x) - actual).abs());
            }
        }
        errors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let within = errors.iter().filter(|&&e| e <= 0.05).count() as f64 / errors.len() as f64;
        table.row(&[
            label.to_string(),
            fmt(errors.iter().sum::<f64>() / errors.len() as f64, 3),
            fmt(stats::quantile_sorted(&errors, 0.95), 3),
            format!("{:.0}%", within * 100.0),
        ]);
    }
    vec![table]
}
