//! Best-shot as a [`TieringPolicy`]: CAMP's analytic interleaving choice
//! (§6.1), wrapped in the same interface as the baselines so the Figure 15
//! comparison is apples-to-apples.

use crate::policy::{PolicyContext, TieringPolicy};
use camp_core::interleave::{best_shot, InterleaveModel, DEFAULT_TAU};
use camp_sim::{Machine, Placement, RunReport, Workload};

/// The Best-shot policy: synthesize the interleaving curve from the
/// caller's DRAM run (plus one slow-tier run when the workload is
/// bandwidth-bound), jump straight to the predicted optimum.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestShotPolicy;

impl TieringPolicy for BestShotPolicy {
    fn name(&self) -> &'static str {
        "Best-shot"
    }

    /// # Panics
    ///
    /// Panics if the context has no calibrated predictor, or with the
    /// [`camp_core::ModelError`] diagnostic if the profiling runs cannot
    /// be modelled.
    fn place(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &dyn Workload,
        dram: &RunReport,
    ) -> Placement {
        let predictor =
            ctx.predictor.expect("Best-shot requires a calibrated predictor in the context");
        let slow = || Machine::slow_only(ctx.platform, ctx.device).run(workload);
        let model = InterleaveModel::profile(dram, slow, predictor, DEFAULT_TAU)
            .unwrap_or_else(|error| panic!("{error}"));
        Placement::interleave_ratio(best_shot(&model).ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::Counted;
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
        let chase = Counted::new(PointerChase::new("bs-chase", 1, 1 << 21, 1, 30_000));
        let dram = Machine::dram_only(ctx.platform).run(&chase.inner);
        let placement = BestShotPolicy.place(&ctx, &chase, &dram);
        assert_eq!(placement.fast_fraction(), Some(1.0));
        assert_eq!(chase.traces(), 0, "latency-bound decides from the caller's DRAM run alone");
    }

    #[test]
    fn bandwidth_bound_workload_interleaves_with_two_runs() {
        let p = predictor();
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA).with_predictor(&p);
        let stream = Counted::new(camp_workloads::find("mlc.stream-8t-c0").expect("in suite"));
        let dram = Machine::dram_only(ctx.platform).run(&stream.inner);
        let placement = BestShotPolicy.place(&ctx, &stream, &dram);
        let frac = placement.fast_fraction().expect("static ratio");
        // Below 1.0 only if some ratio was predicted faster than DRAM-only.
        assert!(frac < 1.0, "saturating stream should interleave, got {frac}");
        assert_eq!(stream.traces(), 1, "bandwidth-bound adds one slow-tier run");
    }

    #[test]
    #[should_panic(expected = "calibrated predictor")]
    fn missing_predictor_is_a_usage_error() {
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let chase = PointerChase::new("bs-nopred", 1, 1 << 16, 1, 1_000);
        let dram = Machine::dram_only(ctx.platform).run(&chase);
        let _ = BestShotPolicy.place(&ctx, &chase, &dram);
    }
}
