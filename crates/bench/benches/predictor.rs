//! Benches for the CAMP models themselves: the runtime cost a deployment
//! pays per prediction (the paper stresses that reading the counters and
//! evaluating the closed forms is negligible next to any execution).
//!
//! Run with `cargo bench --bench predictor`; append `-- --json PATH` for a
//! machine-readable snapshot.

#[path = "tb.rs"]
mod tb;

use camp_core::interleave::{best_shot, InterleaveModel};
use camp_core::{stats, Calibration, CampPredictor, Signature};
use camp_serve::{DevicePrediction, Request, Response};
use camp_sim::{DeviceKind, Machine, Platform, Workload};
use camp_workloads::kernels::PointerChase;

fn cheap_calibration() -> Calibration {
    let probes: Vec<Box<dyn Workload>> = vec![
        Box::new(PointerChase::new("bench-calib-c1", 1, 1 << 18, 1, 20_000)),
        Box::new(PointerChase::new("bench-calib-c8", 1, 1 << 18, 8, 20_000)),
    ];
    Calibration::fit_with(Platform::Spr2s, DeviceKind::CxlA, &probes)
}

fn prediction_path(harness: &mut tb::Harness) {
    let predictor = CampPredictor::new(cheap_calibration());
    let workload = camp_workloads::find("spec.505.mcf-1t").expect("in suite");
    let report = Machine::dram_only(Platform::Spr2s).run(&workload);

    harness.bench("signature-extraction", 10, 1_000, || Signature::from_report(&report));
    harness.bench("slowdown-prediction", 10, 1_000, || predictor.predict(&report.counters));
    harness.bench("saturated-prediction", 10, 1_000, || predictor.predict_total_saturated(&report));
    // The daemon's path: a latency-bound model from a bare signature,
    // both tiers at their unloaded latency.
    let signature = Signature::from_report(&report);
    let model = InterleaveModel::try_from_signature(&signature, &predictor, "bench")
        .expect("finite signature");
    harness.bench("best-shot-latency-bound", 10, 100, || best_shot(&model));
}

fn interleave_path(harness: &mut tb::Harness) {
    let workload = camp_workloads::find("spec.603.bwaves-8t").expect("in suite");
    let dram = Machine::dram_only(Platform::Skx2s).run(&workload);
    let slow = Machine::slow_only(Platform::Skx2s, DeviceKind::CxlA).run(&workload);
    let model = InterleaveModel::from_endpoint_runs(&dram, &slow);

    harness.bench("interleave-curve-101", 10, 100, || model.curve(100));
    harness.bench("best-shot-selection", 10, 100, || best_shot(&model));
}

fn fitting_path(harness: &mut tb::Harness) {
    harness.bench("calibration-fit-2-probes", 10, 1, cheap_calibration);
    // Suite-scale Pearson, the Table 1/6 aggregation primitive.
    let xs: Vec<f64> = (0..265).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
    let ys: Vec<f64> = xs.iter().map(|v| v * 1.3 + 0.1).collect();
    harness.bench("pearson-265", 10, 10_000, || stats::pearson(&xs, &ys));
}

/// The daemon's frame codec on `camp_bench::corpus` batches: the request
/// a client renders and the server decodes, and the answer (four slow
/// tiers per signature, like `camp-serve`'s default SPR2S pairs) the
/// server renders and the client decodes.
fn wire_path(harness: &mut tb::Harness) {
    let predictor = CampPredictor::new(cheap_calibration());
    for batch in [4, 64] {
        let request = camp_bench::corpus::requests(1, 1, batch, Platform::Spr2s).remove(0);
        let results = request
            .signatures
            .iter()
            .map(|signature| {
                let model = InterleaveModel::try_from_signature(signature, &predictor, "bench")
                    .expect("finite corpus signature");
                let shot = best_shot(&model);
                DeviceKind::SLOW_TIERS
                    .iter()
                    .map(|&device| DevicePrediction {
                        device,
                        prediction: predictor.predict_signature(signature),
                        best_ratio: shot.ratio,
                        best_slowdown: shot.predicted_slowdown,
                    })
                    .collect()
            })
            .collect();
        let answer = Response::Predictions { id: request.id, results };
        let request_body = request.to_json().render();
        let answer_body = answer.render();
        let elements = batch as u64;
        harness.bench_throughput(
            &format!("wire-request-render-{batch}"),
            elements,
            10,
            200,
            || request.to_json().render(),
        );
        harness.bench_throughput(
            &format!("wire-request-decode-{batch}"),
            elements,
            10,
            200,
            || Request::from_text(&request_body).expect("valid request"),
        );
        harness.bench_throughput(&format!("wire-answer-render-{batch}"), elements, 10, 200, || {
            answer.render()
        });
        harness.bench_throughput(&format!("wire-answer-decode-{batch}"), elements, 10, 200, || {
            Response::from_text(&answer_body).expect("valid answer")
        });
    }
}

fn main() {
    let mut harness = tb::Harness::new();
    wire_path(&mut harness);
    prediction_path(&mut harness);
    interleave_path(&mut harness);
    fitting_path(&mut harness);
    harness.maybe_write_json().expect("snapshot written");
}
