//! Benches for the CAMP models themselves: the runtime cost a deployment
//! pays per prediction (the paper stresses that reading the counters and
//! evaluating the closed forms is negligible next to any execution).
//!
//! Run with `cargo bench --bench predictor`; append `-- --json PATH` for a
//! machine-readable snapshot, or `-- --smoke` for a seconds-long CI-sized
//! pass over the same code paths (two one-iteration samples per row — the
//! numbers are not comparable to a full run).

#[path = "tb.rs"]
mod tb;

use camp_core::interleave::{best_shot, InterleaveModel};
use camp_core::{stats, Calibration, CampPredictor, Signature};
use camp_obs::json;
use camp_serve::{DevicePrediction, Request, Response};
use camp_sim::{DeviceKind, Machine, Platform, Workload};
use camp_workloads::kernels::PointerChase;

/// Bench sizing: full by default, tiny under `--smoke`.
#[derive(Clone, Copy)]
struct Sizing {
    smoke: bool,
}

impl Sizing {
    fn from_args() -> Self {
        Sizing { smoke: std::env::args().any(|a| a == "--smoke") }
    }

    fn samples(self) -> u32 {
        if self.smoke {
            2
        } else {
            10
        }
    }

    /// Iterations per sample: `full` in a full run, 1 under `--smoke`.
    fn iters(self, full: u32) -> u32 {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

fn cheap_calibration() -> Calibration {
    let probes: Vec<Box<dyn Workload>> = vec![
        Box::new(PointerChase::new("bench-calib-c1", 1, 1 << 18, 1, 20_000)),
        Box::new(PointerChase::new("bench-calib-c8", 1, 1 << 18, 8, 20_000)),
    ];
    Calibration::fit_with(Platform::Spr2s, DeviceKind::CxlA, &probes)
}

fn prediction_path(harness: &mut tb::Harness, size: Sizing) {
    let predictor = CampPredictor::new(cheap_calibration());
    let workload = camp_workloads::find("spec.505.mcf-1t").expect("in suite");
    let report = Machine::dram_only(Platform::Spr2s).run(&workload);

    harness.bench("signature-extraction", size.samples(), size.iters(1_000), || {
        Signature::from_report(&report)
    });
    harness.bench("slowdown-prediction", size.samples(), size.iters(1_000), || {
        predictor.predict(&report.counters)
    });
    harness.bench("saturated-prediction", size.samples(), size.iters(1_000), || {
        predictor.predict_total_saturated(&report)
    });
    // The daemon's path: a latency-bound model from a bare signature,
    // both tiers at their unloaded latency.
    let signature = Signature::from_report(&report);
    let model = InterleaveModel::try_from_signature(&signature, &predictor, "bench")
        .expect("finite signature");
    harness.bench("best-shot-latency-bound", size.samples(), size.iters(100), || best_shot(&model));
}

fn interleave_path(harness: &mut tb::Harness, size: Sizing) {
    let workload = camp_workloads::find("spec.603.bwaves-8t").expect("in suite");
    let dram = Machine::dram_only(Platform::Skx2s).run(&workload);
    let slow = Machine::slow_only(Platform::Skx2s, DeviceKind::CxlA).run(&workload);
    let model = InterleaveModel::from_endpoint_runs(&dram, &slow);

    harness.bench("interleave-curve-101", size.samples(), size.iters(100), || model.curve(100));
    harness.bench("best-shot-selection", size.samples(), size.iters(100), || best_shot(&model));
}

fn fitting_path(harness: &mut tb::Harness, size: Sizing) {
    harness.bench("calibration-fit-2-probes", size.samples(), size.iters(1), cheap_calibration);
    // Suite-scale Pearson, the Table 1/6 aggregation primitive.
    let xs: Vec<f64> = (0..265).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
    let ys: Vec<f64> = xs.iter().map(|v| v * 1.3 + 0.1).collect();
    harness.bench("pearson-265", size.samples(), size.iters(10_000), || stats::pearson(&xs, &ys));
}

/// The daemon's frame codec on `camp_bench::corpus` batches: the request
/// a client renders and the server decodes, and the answer (four slow
/// tiers per signature, like `camp-serve`'s default SPR2S pairs) the
/// server renders and the client decodes. `wire-number-render` times
/// `json::write_number` alone, over every number of the 64-signature
/// request and answer.
fn wire_path(harness: &mut tb::Harness, size: Sizing) {
    let predictor = CampPredictor::new(cheap_calibration());
    let (samples, iters) = (size.samples(), size.iters(200));
    let mut numbers = Vec::new();
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
            samples,
            iters,
            || request.to_json().render(),
        );
        harness.bench_throughput(
            &format!("wire-request-decode-{batch}"),
            elements,
            samples,
            iters,
            || Request::from_text(&request_body).expect("valid request"),
        );
        harness.bench_throughput(
            &format!("wire-answer-render-{batch}"),
            elements,
            samples,
            iters,
            || answer.render(),
        );
        harness.bench_throughput(
            &format!("wire-answer-decode-{batch}"),
            elements,
            samples,
            iters,
            || Response::from_text(&answer_body).expect("valid answer"),
        );
        numbers.clear();
        for body in [&request_body, &answer_body] {
            collect_numbers(&json::parse(body).expect("valid frame"), &mut numbers);
        }
    }
    let mut out = String::new();
    harness.bench_throughput("wire-number-render", numbers.len() as u64, samples, iters, || {
        out.clear();
        for &n in &numbers {
            json::write_number(n, &mut out);
        }
        out.len()
    });
}

/// Every number in `value`, in document order.
fn collect_numbers(value: &json::Json, out: &mut Vec<f64>) {
    match value {
        json::Json::Num(n) => out.push(*n),
        json::Json::Arr(items) => items.iter().for_each(|item| collect_numbers(item, out)),
        json::Json::Obj(members) => members.iter().for_each(|(_, v)| collect_numbers(v, out)),
        _ => {}
    }
}

fn main() {
    let size = Sizing::from_args();
    let mut harness = tb::Harness::new();
    wire_path(&mut harness, size);
    prediction_path(&mut harness, size);
    interleave_path(&mut harness, size);
    fitting_path(&mut harness, size);
    harness.maybe_write_json().expect("snapshot written");
}
