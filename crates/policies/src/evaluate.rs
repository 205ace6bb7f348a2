//! Policy evaluation harness: decide a placement, run it, normalise to
//! DRAM-only (the methodology of Figure 15).

use crate::policy::{PolicyContext, TieringPolicy};
use camp_sim::{Machine, RunReport, Workload};

/// Outcome of evaluating one policy on one workload.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// Performance normalised to DRAM-only execution (1.0 = DRAM-only
    /// speed; higher is better).
    pub normalized_performance: f64,
    /// DRAM footprint fraction the placement used, when statically known.
    pub fast_fraction: Option<f64>,
}

/// Evaluates `policy` on `workload`: asks for a placement, executes it and
/// normalises runtime against `baseline`, the caller's DRAM-only run of
/// `workload` on `ctx.platform` (one run serves every policy compared on
/// that workload, and is the run each policy decides from).
pub fn evaluate_policy(
    ctx: &PolicyContext<'_>,
    policy: &dyn TieringPolicy,
    workload: &dyn Workload,
    baseline: &RunReport,
) -> PolicyResult {
    let placement = policy.place(ctx, workload, baseline);
    let fast_fraction = placement.fast_fraction();
    let report = Machine::dram_only(ctx.platform)
        .with_slow_device(ctx.device)
        .with_placement(placement)
        .run(workload);
    PolicyResult {
        normalized_performance: baseline.cycles / report.cycles,
        fast_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staticpol::{FirstTouch, Interleave1to1};
    use camp_sim::{DeviceKind, Platform};
    use camp_workloads::kernels::PointerChase;

    #[test]
    fn dram_resident_first_touch_is_near_baseline() {
        // Capacity 0.8: first-touch puts the first 80% of pages on DRAM;
        // a chase over them slows only by the spilled fraction.
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let chase = PointerChase::new("eval-chase", 1, 1 << 19, 1, 40_000);
        let baseline = Machine::dram_only(ctx.platform).run(&chase);
        let result = evaluate_policy(&ctx, &FirstTouch, &chase, &baseline);
        assert!(result.normalized_performance > 0.7, "{result:?}");
        assert!(result.normalized_performance <= 1.01, "{result:?}");
    }

    #[test]
    fn half_interleave_costs_a_latency_bound_chase() {
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let chase = PointerChase::new("eval-chase2", 1, 1 << 19, 1, 40_000);
        let baseline = Machine::dram_only(ctx.platform).run(&chase);
        let result = evaluate_policy(&ctx, &Interleave1to1, &chase, &baseline);
        // Half the accesses pay CXL latency: performance well below 1.
        assert!(result.normalized_performance < 0.85, "{result:?}");
        assert_eq!(result.fast_fraction, Some(0.5));
    }
}
