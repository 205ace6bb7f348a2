//! Prediction accuracy gates: calibrate once, predict a sample of the
//! suite from DRAM-only runs, and hold the accuracy to thresholds
//! mirroring Table 6 (relaxed, since the sample is a fraction of the
//! suite and the substrate is a simulator).

use crate::ctx;
use camp_core::{stats, BaselineMetric, Calibration, CampPredictor, MeasuredComponents};
use camp_sim::{DeviceKind, Platform, RunReport, Workload};
use std::sync::Arc;

/// Every 8th suite workload: 34 of 265, spanning all families.
fn sample() -> Vec<Box<dyn Workload>> {
    camp_workloads::suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 8 == 0)
        .map(|(_, w)| w)
        .collect()
}

/// What the sample scores today, per gated config: `(Pearson, share of
/// workloads predicted within 10 points)`. The floors below only catch a
/// collapse; these pins make any model or engine edit that moves the
/// sample's accuracy show up as a reviewed change to this table. With 34
/// workloads, one workload crossing the 10-point bar moves the share by
/// 0.029, so the share is pinned exactly.
const SCORES_CXL_A: (f64, f64) = (0.9696, 0.5000);
const SCORES_NUMA: (f64, f64) = (0.7525, 0.5588);
/// Allowed drift from a pinned score.
const SCORE_TOLERANCE: f64 = 0.01;

fn assert_pinned(config: &str, what: &str, actual: f64, pinned: f64) {
    assert!(
        (actual - pinned).abs() <= SCORE_TOLERANCE,
        "{config} {what} {actual:.4} moved from its pinned {pinned:.4}; if deliberate, re-pin it"
    );
}

struct Evaluation {
    predicted: Vec<f64>,
    actual: Vec<f64>,
}

fn evaluate(runs: &[(Arc<RunReport>, Arc<RunReport>)], predictor: &CampPredictor) -> Evaluation {
    let (mut predicted, mut actual) = (Vec::new(), Vec::new());
    for (dram, slow) in runs {
        predicted.push(predictor.predict_total_saturated(dram));
        actual.push(MeasuredComponents::attribute(dram, slow).total);
    }
    Evaluation { predicted, actual }
}

#[test]
fn cxl_a_prediction_correlates_strongly() {
    let (platform, device) = (Platform::Spr2s, DeviceKind::CxlA);
    let eval = evaluate(
        &ctx().endpoint_runs(platform, device, &sample()),
        &ctx().predictor(platform, device),
    );
    let pearson = stats::pearson(&eval.predicted, &eval.actual).expect("variance present");
    assert!(pearson > 0.9, "CXL-A pearson {pearson}");
    let errors =
        stats::error_summary(&eval.predicted, &eval.actual).unwrap_or_else(|e| panic!("{e}"));
    // The sample's slowdowns reach 4-7x, so a 10-percentage-point bar is
    // strict; half the sample within it is the regression gate.
    assert!(errors.within_10pct >= 0.45, "CXL-A within-10pct share {}", errors.within_10pct);
    assert_pinned("CXL-A", "pearson", pearson, SCORES_CXL_A.0);
    assert_pinned("CXL-A", "within-10pct share", errors.within_10pct, SCORES_CXL_A.1);
}

#[test]
fn numa_prediction_correlates_strongly() {
    let (platform, device) = (Platform::Skx2s, DeviceKind::Numa);
    let eval = evaluate(
        &ctx().endpoint_runs(platform, device, &sample()),
        &ctx().predictor(platform, device),
    );
    let pearson = stats::pearson(&eval.predicted, &eval.actual).expect("variance present");
    // The gate is looser than CXL-A's: NUMA's smaller latency gap leaves
    // prefetch-coverage cliffs (streams with no DRAM-visible cache stalls
    // that expose stalls on the slower tier) as a larger relative share of
    // total slowdown — see EXPERIMENTS.md's misprediction analysis.
    assert!(pearson > 0.72, "NUMA pearson {pearson}");
    let errors =
        stats::error_summary(&eval.predicted, &eval.actual).unwrap_or_else(|e| panic!("{e}"));
    assert!(errors.within_10pct > 0.55, "NUMA within-10pct share {}", errors.within_10pct);
    assert_pinned("NUMA", "pearson", pearson, SCORES_NUMA.0);
    assert_pinned("NUMA", "within-10pct share", errors.within_10pct, SCORES_NUMA.1);
}

#[test]
fn camp_outperforms_every_baseline_metric() {
    let (platform, device) = (Platform::Skx2s, DeviceKind::Numa);
    let predictor = ctx().predictor(platform, device);
    let mut metric_values: Vec<Vec<f64>> = vec![Vec::new(); BaselineMetric::ALL.len()];
    let (mut camp_values, mut actual) = (Vec::new(), Vec::new());
    for (dram, slow) in ctx().endpoint_runs(platform, device, &sample()) {
        for (i, metric) in BaselineMetric::ALL.iter().enumerate() {
            metric_values[i].push(metric.value(&dram));
        }
        camp_values.push(predictor.predict_total_saturated(&dram));
        actual.push(slow.slowdown_vs(&dram));
    }
    let camp_r = stats::pearson(&camp_values, &actual).expect("variance").abs();
    for (i, metric) in BaselineMetric::ALL.iter().enumerate() {
        let r = stats::pearson(&metric_values[i], &actual).unwrap_or(0.0).abs();
        assert!(camp_r > r, "{} correlation {r:.3} >= CAMP {camp_r:.3}", metric.name());
    }
}

#[test]
fn suite_spans_the_slowdown_spectrum() {
    // Every 16th suite workload (every other one of the sample) must show
    // both tolerant and sensitive workloads on CXL-A — the diversity
    // Table 1's correlations rely on.
    let runs = ctx().endpoint_runs(Platform::Spr2s, DeviceKind::CxlA, &sample());
    let slowdowns: Vec<f64> = runs.iter().step_by(2).map(|(d, s)| s.slowdown_vs(d)).collect();
    let min = slowdowns.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = slowdowns.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(min < 0.25, "no tolerant workloads in sample (min {min})");
    assert!(max > 0.60, "no sensitive workloads in sample (max {max})");
}

#[test]
fn predictions_are_finite_for_every_suite_workload() {
    // Cheap whole-suite smoke: the predictor must never return NaN or
    // infinity, whatever the counter mix. Fits from a two-probe set
    // instead of the full calibration suite to keep the fit cheap, and
    // predicts the shared SPR DRAM endpoint runs.
    let calibration = Calibration::fit_with(
        Platform::Spr2s,
        DeviceKind::CxlA,
        &[
            Box::new(camp_workloads::kernels::PointerChase::new(
                "calib.smoke-c1",
                1,
                1 << 19,
                1,
                20_000,
            )),
            Box::new(camp_workloads::kernels::PointerChase::new(
                "calib.smoke-c8",
                1,
                1 << 19,
                8,
                20_000,
            )),
        ],
    );
    let predictor = CampPredictor::new(calibration);
    for (report, _) in ctx().endpoint_runs(Platform::Spr2s, DeviceKind::CxlA, &sample()) {
        let prediction = predictor.predict_report(&report);
        assert!(
            prediction.total().is_finite() && prediction.total() >= 0.0,
            "{}: prediction {:?}",
            report.workload,
            prediction
        );
        assert!(predictor.predict_total_saturated(&report).is_finite());
    }
}
