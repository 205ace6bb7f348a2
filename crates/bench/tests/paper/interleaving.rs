//! Interleaving gates: the synthesis model must reproduce the measured
//! curve shapes (bathtub for bandwidth-bound, monotone for latency-bound)
//! and Best-shot must land near the oracle optimum.

use crate::{ctx, traced};
use camp_core::interleave::{best_shot, classify, Boundness, InterleaveModel, DEFAULT_TAU};
use camp_core::MeasuredComponents;
use camp_sim::{DeviceKind, Platform};

const PLATFORM: Platform = Platform::Skx2s;
const DEVICE: DeviceKind = DeviceKind::CxlA;

#[test]
fn bandwidth_bound_stream_classifies_and_bathtubs() {
    let predictor = ctx().predictor(PLATFORM, DEVICE);
    let workload = traced("spec.603.bwaves-8t");
    let dram = ctx().run(PLATFORM, None, &workload);
    assert_eq!(classify(&dram, DEFAULT_TAU), Boundness::BandwidthBound);

    let slow = || ctx().run(PLATFORM, Some(DEVICE), &workload);
    let model = InterleaveModel::profile(&dram, slow, &predictor, DEFAULT_TAU).expect("profiled");
    assert_eq!(model.profiling_runs, 2);
    let choice = best_shot(&model);
    assert!(
        choice.ratio > 0.4 && choice.ratio < 1.0,
        "interior optimum expected, got {}",
        choice.ratio
    );
    assert!(choice.predicted_slowdown < 0.0, "predicted speedup expected");

    // The chosen ratio must actually beat DRAM-only.
    let chosen = ctx().run_interleaved(PLATFORM, DEVICE, choice.ratio, &workload);
    assert!(
        chosen.slowdown_vs(&dram) < 0.0,
        "measured {:+.3} at ratio {:.2}",
        chosen.slowdown_vs(&dram),
        choice.ratio
    );
}

#[test]
fn latency_bound_chase_classifies_and_stays_on_dram() {
    let predictor = ctx().predictor(PLATFORM, DEVICE);
    let workload = traced("mlc.chase-128m-c1");
    let dram = ctx().run(PLATFORM, None, &workload);
    assert_eq!(classify(&dram, DEFAULT_TAU), Boundness::LatencyBound);

    let slow = || ctx().run(PLATFORM, Some(DEVICE), &workload);
    let model = InterleaveModel::profile(&dram, slow, &predictor, DEFAULT_TAU).expect("profiled");
    assert_eq!(model.profiling_runs, 1, "latency-bound path needs one run");
    let choice = best_shot(&model);
    assert_eq!(choice.ratio, 1.0, "nothing to gain from the slow tier");
    // And the curve is monotone: more DRAM never hurts.
    let curve = model.curve(10);
    for pair in curve.windows(2) {
        assert!(pair[0].1 >= pair[1].1 - 1e-9, "curve not monotone: {curve:?}");
    }
}

#[test]
fn synthesized_curve_tracks_measurement() {
    let predictor = ctx().predictor(PLATFORM, DEVICE);
    let workload = traced("spec.654.roms-8t");
    let baseline = ctx().run(PLATFORM, None, &workload);
    let slow = || ctx().run(PLATFORM, Some(DEVICE), &workload);
    let model =
        InterleaveModel::profile(&baseline, slow, &predictor, DEFAULT_TAU).expect("profiled");
    let mut max_err = 0.0f64;
    for i in 0..=5 {
        let x = i as f64 / 5.0;
        let actual = ctx().run_interleaved(PLATFORM, DEVICE, x, &workload).slowdown_vs(&baseline);
        max_err = max_err.max((model.predict_total(x) - actual).abs());
    }
    assert!(max_err < 0.20, "max curve error {max_err}");
}

#[test]
fn endpoint_predictions_are_exact_for_two_run_models() {
    let workload = traced("ai.wmt20-8t");
    let dram = ctx().run(PLATFORM, None, &workload);
    let slow = ctx().run(PLATFORM, Some(DEVICE), &workload);
    let model = InterleaveModel::from_endpoint_runs(&dram, &slow);
    // x = 1 recovers zero slowdown by construction.
    assert!(model.predict_total(1.0).abs() < 1e-9);
    // x = 0 recovers the measured endpoint component stalls.
    let measured = MeasuredComponents::attribute(&dram, &slow);
    let predicted = model.predict_total(0.0);
    assert!(
        (predicted - measured.component_sum()).abs() < 1e-6,
        "endpoint mismatch: {predicted} vs {}",
        measured.component_sum()
    );
}

#[test]
fn mlp_is_invariant_across_ratios() {
    // The §5.2.1 invariant the whole synthesis model rests on.
    let workload = traced("spec.603.bwaves-8t");
    let mut mlps = Vec::new();
    for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let report = ctx().run_interleaved(PLATFORM, DEVICE, x, &workload);
        if let Some(mlp) = report.mlp() {
            mlps.push(mlp);
        }
    }
    let min = mlps.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = mlps.iter().cloned().fold(0.0, f64::max);
    assert!(max / min < 1.30, "MLP varies too much across ratios: {mlps:?}");
}
