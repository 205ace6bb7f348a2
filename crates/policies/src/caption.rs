//! Caption: coarse-grained interleaving-ratio search.
//!
//! Caption probes a small set of candidate ratios with trial executions
//! and keeps the fastest. The paper's criticism (§6.2.3): the coarse grid
//! misses the true optimum and every probe costs a full trial run, whereas
//! Best-shot lands on a percent-granular ratio analytically.

use crate::policy::{PolicyContext, TieringPolicy};
use camp_sim::{Machine, Placement, RunReport, Workload};

/// The coarse candidate grid's interleaving levels. Its fourth candidate,
/// DRAM-only, is tried by the caller's DRAM run: interleaving at `x = 1`
/// places every page on DRAM and runs the DRAM-only machine bit for bit.
const CANDIDATES: [f64; 3] = [0.85, 0.7, 0.5];

/// Caption's coarse search policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Caption;

impl TieringPolicy for Caption {
    fn name(&self) -> &'static str {
        "Caption"
    }

    fn place(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &dyn Workload,
        dram: &RunReport,
    ) -> Placement {
        let mut best = (1.0, dram.cycles);
        for x in CANDIDATES {
            let report = Machine::interleaved(ctx.platform, ctx.device, x).run(workload);
            if report.cycles < best.1 {
                best = (x, report.cycles);
            }
        }
        Placement::interleave_ratio(best.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::Counted;
    use camp_sim::{DeviceKind, Platform};
    use camp_workloads::kernels::PointerChase;

    #[test]
    fn latency_bound_workload_keeps_dram_only() {
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let chase = Counted::new(PointerChase::new("caption-chase", 1, 1 << 19, 1, 30_000));
        let dram = Machine::dram_only(ctx.platform).run(&chase.inner);
        let placement = Caption.place(&ctx, &chase, &dram);
        assert_eq!(placement.fast_fraction(), Some(1.0));
        assert_eq!(chase.traces(), 3, "every interleaved candidate costs a probe");
    }

    #[test]
    fn bandwidth_bound_workload_interleaves() {
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let stream = camp_workloads::find("mlc.stream-8t-c0").expect("in suite");
        let dram = Machine::dram_only(ctx.platform).run(&stream);
        let placement = Caption.place(&ctx, &stream, &dram);
        let frac = placement.fast_fraction().expect("static ratio");
        assert!(frac < 1.0, "saturating stream should interleave, got {frac}");
    }
}
