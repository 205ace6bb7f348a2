//! Colloid and Alto: latency-equalising migration.
//!
//! Colloid's principle is *balance access latencies across tiers*: it
//! migrates pages toward whichever tier currently shows lower loaded
//! latency until the two equalise. The paper's §6.2.3 analysis shows why
//! this mis-optimises bandwidth-bound workloads: at the true optimum the
//! DRAM latency is *lower* than CXL latency, and equalising drags pages
//! back onto DRAM, re-creating the contention interleaving was relieving.
//!
//! Alto (built on Colloid) limits migration during high-MLP intervals;
//! we model that as damped adjustment steps whenever the probe run shows
//! high MLP, which leaves Alto between Colloid and first-touch — matching
//! the paper's "Alto is slightly better than Colloid".

use crate::policy::{PolicyContext, TieringPolicy};
use camp_sim::{Machine, Placement, RunReport, Workload};

/// Probe runs (migration rounds) the equalisation loop may take.
const ITERATIONS: u8 = 6;

/// MLP above which Alto damps migration.
const ALTO_MLP_THRESHOLD: f64 = 4.0;

/// Shared latency-equalisation loop: one probe run per round, at most
/// [`ITERATIONS`] rounds. Returns the DRAM fraction it settles on.
///
/// A round that leaves `x` unchanged (the clamp held it) ends the loop:
/// every later round would probe the same machine, see the same latencies
/// and be clamped back to the same `x`.
fn equalise(ctx: &PolicyContext<'_>, workload: &dyn Workload, damping: impl Fn(f64) -> f64) -> f64 {
    // Start from the provisioned first-touch-like split.
    let mut x = ctx.fast_capacity_fraction;
    let mut step = 0.25;
    for _ in 0..ITERATIONS {
        let report = Machine::interleaved(ctx.platform, ctx.device, x).run(workload);
        let fast_latency = report
            .fast_tier
            .avg_read_latency()
            .unwrap_or(report.fast_tier.idle_latency_cycles);
        let slow = match &report.slow_tier {
            Some(t) => t,
            None => break, // x reached 1.0 and nothing lives on the slow tier
        };
        let slow_latency = slow.avg_read_latency().unwrap_or(slow.idle_latency_cycles);
        // MLP-aware damping hook (Alto).
        let mlp = report.mlp().unwrap_or(1.0);
        let effective_step = step * damping(mlp);
        // Equalise: if DRAM is slower (congested), move pages off DRAM;
        // if CXL is slower, move pages onto DRAM (bounded by capacity).
        let next = if fast_latency > slow_latency {
            x - effective_step
        } else {
            x + effective_step
        }
        .clamp(0.1, ctx.fast_capacity_fraction);
        if next.to_bits() == x.to_bits() {
            break;
        }
        x = next;
        step *= 0.6;
    }
    x
}

/// Colloid: migrate until per-tier loaded latencies equalise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Colloid;

impl TieringPolicy for Colloid {
    fn name(&self) -> &'static str {
        "Colloid"
    }

    fn place(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &dyn Workload,
        _dram: &RunReport,
    ) -> Placement {
        Placement::interleave_ratio(equalise(ctx, workload, |_| 1.0))
    }
}

/// Alto: Colloid with migration damped while MLP is high.
#[derive(Debug, Clone, Copy, Default)]
pub struct Alto;

impl TieringPolicy for Alto {
    fn name(&self) -> &'static str {
        "Alto"
    }

    fn place(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &dyn Workload,
        _dram: &RunReport,
    ) -> Placement {
        let damping = |mlp: f64| if mlp > ALTO_MLP_THRESHOLD { 0.3 } else { 1.0 };
        Placement::interleave_ratio(equalise(ctx, workload, damping))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::Counted;
    use camp_sim::{DeviceKind, Platform};
    use camp_workloads::kernels::PointerChase;

    /// Places `workload` with `policy`, given the caller's DRAM run.
    fn place(ctx: &PolicyContext<'_>, policy: &dyn TieringPolicy, workload: &dyn Workload) -> f64 {
        let dram = Machine::dram_only(ctx.platform).run(workload);
        policy.place(ctx, workload, &dram).fast_fraction().expect("static ratio")
    }

    #[test]
    fn latency_bound_workload_fills_dram_capacity() {
        // Uncontended DRAM is always faster than CXL, so equalisation
        // pushes everything DRAM-ward until capacity stops it.
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let chase = Counted::new(PointerChase::new("colloid-chase", 1, 1 << 19, 2, 30_000));
        let dram = Machine::dram_only(ctx.platform).run(&chase.inner);
        let frac = Colloid.place(&ctx, &chase, &dram).fast_fraction().expect("static ratio");
        assert!((frac - 0.8).abs() < 0.05, "capacity-bound: {frac}");
        // The first round's move is clamped back to the 0.8 start, and a
        // round that leaves x unchanged is the loop's fixed point.
        assert_eq!(chase.traces(), 1, "one probe run, then the fixed point");
    }

    #[test]
    fn high_latency_cxl_keeps_colloid_pinned_at_capacity() {
        // §6.2.3: even under DRAM congestion, CXL-A's loaded latency stays
        // above DRAM's, so latency equalisation migrates pages *into* DRAM
        // until capacity stops it — re-creating the contention Best-shot
        // avoids.
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let stream = camp_workloads::find("mlc.stream-8t-c0").expect("in suite");
        let frac = place(&ctx, &Colloid, &stream);
        assert!((frac - 0.8).abs() < 0.05, "expected capacity-pinned, got {frac}");
    }

    #[test]
    fn moderate_latency_numa_lets_colloid_shed_pages() {
        // With the lower-latency NUMA tier, congested DRAM does show
        // higher loaded latency than the remote socket, and equalisation
        // sheds pages off DRAM.
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::Numa);
        let stream = camp_workloads::find("mlc.stream-8t-c0").expect("in suite");
        let frac = place(&ctx, &Colloid, &stream);
        assert!(frac < 0.8, "congested DRAM should shed pages, got {frac}");
    }

    #[test]
    fn alto_moves_less_than_colloid_under_high_mlp() {
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let stream = camp_workloads::find("mlc.stream-8t-c0").expect("in suite");
        let dram = Machine::dram_only(ctx.platform).run(&stream);
        let frac = |policy: &dyn TieringPolicy| {
            policy.place(&ctx, &stream, &dram).fast_fraction().expect("static ratio")
        };
        let (colloid_frac, alto_frac) = (frac(&Colloid), frac(&Alto));
        // Damped steps keep Alto closer to the 0.8 starting point.
        assert!(
            (alto_frac - 0.8).abs() <= (colloid_frac - 0.8).abs() + 1e-9,
            "alto {alto_frac} vs colloid {colloid_frac}"
        );
    }
}
