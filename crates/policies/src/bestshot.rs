//! Best-shot as a [`TieringPolicy`]: CAMP's analytic interleaving choice
//! (§6.1), wrapped in the same interface as the baselines so the Figure 15
//! comparison is apples-to-apples.

use crate::policy::{PolicyContext, TieringPolicy};
use camp_core::interleave::{best_shot, InterleaveModel, DEFAULT_TAU};
use camp_sim::{Machine, Placement, Workload};
use std::cell::Cell;

/// The Best-shot policy: synthesize the interleaving curve from 1–2
/// profiling runs, jump straight to the predicted optimum.
#[derive(Debug, Clone, Default)]
pub struct BestShotPolicy {
    runs_used: Cell<u8>,
    last_ratio: Cell<f64>,
    last_prediction: Cell<f64>,
}

impl BestShotPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ratio chosen by the most recent [`place`](TieringPolicy::place)
    /// call.
    pub fn chosen_ratio(&self) -> f64 {
        self.last_ratio.get()
    }

    /// The predicted slowdown at the chosen ratio (negative = predicted
    /// speedup over DRAM-only).
    pub fn predicted_slowdown(&self) -> f64 {
        self.last_prediction.get()
    }
}

impl TieringPolicy for BestShotPolicy {
    fn name(&self) -> &'static str {
        "Best-shot"
    }

    /// # Panics
    ///
    /// Panics if the context has no calibrated predictor, or with the
    /// [`camp_core::ModelError`] diagnostic if the profiling runs cannot
    /// be modelled.
    fn place(&self, ctx: &PolicyContext<'_>, workload: &dyn Workload) -> Placement {
        let predictor =
            ctx.predictor.expect("Best-shot requires a calibrated predictor in the context");
        let dram = Machine::dram_only(ctx.platform).run(workload);
        let slow = || Machine::slow_only(ctx.platform, ctx.device).run(workload);
        let model = InterleaveModel::profile(&dram, slow, predictor, DEFAULT_TAU)
            .unwrap_or_else(|error| panic!("{error}"));
        self.runs_used.set(model.profiling_runs);
        let choice = best_shot(&model);
        self.last_ratio.set(choice.ratio);
        self.last_prediction.set(choice.predicted_slowdown);
        Placement::interleave_ratio(choice.ratio)
    }

    fn profiling_runs(&self) -> u8 {
        self.runs_used.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::{Calibration, CampPredictor};
    use camp_sim::{DeviceKind, Platform};
    use camp_workloads::kernels::PointerChase;

    fn predictor() -> CampPredictor {
        let probes: Vec<Box<dyn Workload>> = vec![
            Box::new(PointerChase::new("calib.bs-c1", 1, 1 << 21, 1, 30_000)),
            Box::new(PointerChase::new("calib.bs-c8", 1, 1 << 21, 8, 30_000)),
        ];
        CampPredictor::new(Calibration::fit_with(Platform::Skx2s, DeviceKind::CxlA, &probes))
    }

    #[test]
    fn latency_bound_workload_stays_on_dram_with_one_run() {
        let p = predictor();
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA).with_predictor(&p);
        let chase = PointerChase::new("bs-chase", 1, 1 << 21, 1, 30_000);
        let policy = BestShotPolicy::new();
        let placement = policy.place(&ctx, &chase);
        assert_eq!(placement.fast_fraction(), Some(1.0));
        assert_eq!(policy.profiling_runs(), 1, "latency-bound needs one run");
    }

    #[test]
    fn bandwidth_bound_workload_interleaves_with_two_runs() {
        let p = predictor();
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA).with_predictor(&p);
        let stream = camp_workloads::find("mlc.stream-8t-c0").expect("in suite");
        let policy = BestShotPolicy::new();
        let placement = policy.place(&ctx, &stream);
        let frac = placement.fast_fraction().expect("static ratio");
        assert!(frac < 1.0, "saturating stream should interleave, got {frac}");
        assert_eq!(policy.profiling_runs(), 2, "bandwidth-bound needs two runs");
        assert!(policy.predicted_slowdown() < 0.0, "predicted a speedup");
    }

    #[test]
    #[should_panic(expected = "calibrated predictor")]
    fn missing_predictor_is_a_usage_error() {
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let chase = PointerChase::new("bs-nopred", 1, 1 << 16, 1, 1_000);
        let _ = BestShotPolicy::new().place(&ctx, &chase);
    }
}
