//! End-to-end prediction accuracy gates: calibrate once, predict a sample
//! of the suite from DRAM-only runs, and hold the accuracy to thresholds
//! mirroring Table 6 (relaxed, since the sample is a fraction of the
//! suite and the substrate is a simulator).
//!
//! The expensive inputs — the sample's (DRAM, slow) endpoint runs and the
//! fitted calibrations — are computed once per test binary and shared
//! through `OnceLock`s: the tests here overlap heavily in what they
//! simulate (two tests consume the SKX/NUMA pairs, two the SPR DRAM
//! runs), and without sharing each test re-simulated its full input set.

use camp::model::{stats, Calibration, CampPredictor, MeasuredComponents};
use camp::sim::{DeviceKind, Machine, Platform, RunReport, Workload};
use std::sync::OnceLock;

/// Every 8th suite workload: 34 of 265, spanning all families.
fn sample() -> Vec<Box<dyn Workload>> {
    camp::workloads::suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 8 == 0)
        .map(|(_, w)| w)
        .collect()
}

/// (DRAM, slow) endpoint runs of the whole sample. First caller simulates,
/// concurrent tests block on the cell and share the result.
fn endpoint_runs(
    cell: &'static OnceLock<Vec<(RunReport, RunReport)>>,
    platform: Platform,
    device: DeviceKind,
) -> &'static [(RunReport, RunReport)] {
    cell.get_or_init(|| {
        let dram_machine = Machine::dram_only(platform);
        let slow_machine = Machine::slow_only(platform, device);
        sample()
            .iter()
            .map(|w| (dram_machine.run(w.as_ref()), slow_machine.run(w.as_ref())))
            .collect()
    })
}

fn skx_numa_runs() -> &'static [(RunReport, RunReport)] {
    static CELL: OnceLock<Vec<(RunReport, RunReport)>> = OnceLock::new();
    endpoint_runs(&CELL, Platform::Skx2s, DeviceKind::Numa)
}

fn spr_cxl_runs() -> &'static [(RunReport, RunReport)] {
    static CELL: OnceLock<Vec<(RunReport, RunReport)>> = OnceLock::new();
    endpoint_runs(&CELL, Platform::Spr2s, DeviceKind::CxlA)
}

fn skx_numa_predictor() -> &'static CampPredictor {
    static CELL: OnceLock<CampPredictor> = OnceLock::new();
    CELL.get_or_init(|| CampPredictor::new(Calibration::fit(Platform::Skx2s, DeviceKind::Numa)))
}

fn spr_cxl_predictor() -> &'static CampPredictor {
    static CELL: OnceLock<CampPredictor> = OnceLock::new();
    CELL.get_or_init(|| CampPredictor::new(Calibration::fit(Platform::Spr2s, DeviceKind::CxlA)))
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

fn evaluate(runs: &[(RunReport, RunReport)], predictor: &CampPredictor) -> Evaluation {
    let (mut predicted, mut actual) = (Vec::new(), Vec::new());
    for (dram, slow) in runs {
        predicted.push(predictor.predict_total_saturated(dram));
        actual.push(MeasuredComponents::attribute(dram, slow).total);
    }
    Evaluation { predicted, actual }
}

#[test]
fn cxl_a_prediction_correlates_strongly() {
    let eval = evaluate(spr_cxl_runs(), spr_cxl_predictor());
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
    let eval = evaluate(skx_numa_runs(), skx_numa_predictor());
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
    use camp::model::BaselineMetric;
    let predictor = skx_numa_predictor();
    let mut metric_values: Vec<Vec<f64>> = vec![Vec::new(); BaselineMetric::ALL.len()];
    let (mut camp_values, mut actual) = (Vec::new(), Vec::new());
    for (dram, slow) in skx_numa_runs() {
        for (i, metric) in BaselineMetric::ALL.iter().enumerate() {
            metric_values[i].push(metric.value(dram));
        }
        camp_values.push(predictor.predict_total_saturated(dram));
        actual.push(slow.slowdown_vs(dram));
    }
    let camp_r = stats::pearson(&camp_values, &actual).expect("variance").abs();
    for (i, metric) in BaselineMetric::ALL.iter().enumerate() {
        let r = stats::pearson(&metric_values[i], &actual).unwrap_or(0.0).abs();
        assert!(camp_r > r, "{} correlation {r:.3} >= CAMP {camp_r:.3}", metric.name());
    }
}

#[test]
fn predictions_are_finite_for_every_suite_workload() {
    // Cheap whole-suite smoke: the predictor must never return NaN or
    // infinity, whatever the counter mix. Uses a synthetic calibration to
    // avoid the fitting cost, and the shared SPR DRAM endpoint runs.
    let calibration = Calibration::fit_with(
        Platform::Spr2s,
        DeviceKind::CxlA,
        &[
            Box::new(camp::workloads::kernels::PointerChase::new(
                "calib.smoke-c1",
                1,
                1 << 19,
                1,
                20_000,
            )),
            Box::new(camp::workloads::kernels::PointerChase::new(
                "calib.smoke-c8",
                1,
                1 << 19,
                8,
                20_000,
            )),
        ],
    );
    let predictor = CampPredictor::new(calibration);
    for (report, _) in spr_cxl_runs() {
        let prediction = predictor.predict_report(report);
        assert!(
            prediction.total().is_finite() && prediction.total() >= 0.0,
            "{}: prediction {:?}",
            report.workload,
            prediction
        );
        assert!(predictor.predict_total_saturated(report).is_finite());
    }
}
