//! Figures 9–11: measured interleaving characterisation.
//!
//! - Figure 9: per-component slowdown across the ratio sweep for two
//!   bandwidth-bound streams, a bandwidth-bound translation model, and a
//!   latency-bound range query — the "bathtub vs linear" regimes of §5.1.
//! - Figure 10: MLP invariance across ratios and the ΔC-based `S_DRd`
//!   estimate (603.bwaves).
//! - Figure 11: per-tier loaded latencies and the slowdown curve at 2 and
//!   8 threads (603.bwaves).

use crate::harness::{fmt, Context, Table};
use camp_core::interleave::{InterleaveModel, DEFAULT_TAU};
use camp_core::{CampPredictor, MeasuredComponents, Signature};
use camp_pmu::Event;
use camp_sim::{par, DeviceKind, Platform, RunReport, Workload};
use std::sync::Arc;

/// Interleaving experiments run on the SKX testbed against CXL-A (whose
/// 52:24 GB/s bandwidth split makes 8-thread streams saturate, matching
/// the paper's bandwidth-bound setting).
pub const PLATFORM: Platform = Platform::Skx2s;
/// The slow tier for the interleaving experiments.
pub const DEVICE: DeviceKind = DeviceKind::CxlA;
/// Ratio-sweep step count: 21 ratios on a 5 % grid (the paper sweeps 101
/// ratios; 20 steps keep the regeneration fast while preserving the curve
/// shape).
pub const SWEEP_STEPS: usize = 20;

/// Runs the ratio sweep for one workload, returning `(x, interleaved
/// report)` pairs plus the DRAM baseline. Every run comes from the
/// [`Context`] memo ([`Context::run`], [`Context::run_interleaved`]), so
/// figures sweeping the same workload share one simulation per ratio, and
/// the ratios fan out over [`Context::jobs`]. Pass a workload wrapped by
/// [`camp_sim::TraceCache::wrap`] so the baseline and every ratio share
/// one generated trace.
pub fn sweep(
    ctx: &Context,
    workload: &dyn Workload,
    steps: usize,
) -> (Arc<RunReport>, Vec<(f64, Arc<RunReport>)>) {
    let baseline = ctx.run(PLATFORM, None, workload);
    let ratios: Vec<f64> = (0..=steps).map(|i| i as f64 / steps as f64).collect();
    let reports =
        par::par_map(ctx.jobs(), &ratios, |&x| ctx.run_interleaved(PLATFORM, DEVICE, x, workload));
    (baseline, ratios.into_iter().zip(reports).collect())
}

/// Builds the interleaving model (the Figure 12 workflow) from the
/// workload's memoized endpoint runs: the DRAM run from [`Context::run`],
/// plus the slow-tier run for a bandwidth-bound workload only.
///
/// # Panics
///
/// Panics with the [`camp_core::ModelError`] diagnostic if the runs
/// cannot be modelled.
pub fn profile(
    ctx: &Context,
    workload: &dyn Workload,
    predictor: &CampPredictor,
) -> InterleaveModel {
    let dram = ctx.run(PLATFORM, None, workload);
    let slow = || ctx.run(PLATFORM, Some(DEVICE), workload);
    InterleaveModel::profile(&dram, slow, predictor, DEFAULT_TAU)
        .unwrap_or_else(|error| panic!("{error}"))
}

/// Runs Figure 9.
pub fn run(ctx: &Context) -> Vec<Table> {
    let names = [
        "spec.649.fotonik3d-8t",
        "spec.654.roms-8t",
        "ai.wmt20-8t",
        "pbbs.rangeQuery2d-1t",
    ];
    let mut tables = Vec::new();
    for name in names {
        let workload = camp_workloads::find(name).expect("figure 9 workload in suite");
        let (baseline, points) = sweep(ctx, &ctx.traces().wrap(workload.as_ref()), SWEEP_STEPS);
        let mut table = Table::new(
            format!("Figure 9: per-component slowdown vs ratio ({name})"),
            &["dram_fraction", "S_DRd", "S_Cache", "S_Store", "S_total"],
        );
        for (x, report) in points {
            let m = MeasuredComponents::attribute(&baseline, &report);
            table.row(&[
                fmt(x, 2),
                fmt(m.drd, 3),
                fmt(m.cache, 3),
                fmt(m.store, 3),
                fmt(m.total, 3),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// Runs Figure 10: MLP and ΔC-based `S_DRd` across ratios for bwaves.
pub fn run_fig10(ctx: &Context) -> Vec<Table> {
    let mut tables = Vec::new();
    for name in ["spec.603.bwaves-2t", "spec.603.bwaves-8t"] {
        let workload = camp_workloads::find(name).expect("bwaves in suite");
        let (baseline, points) = sweep(ctx, &ctx.traces().wrap(workload.as_ref()), SWEEP_STEPS);
        let base_sig = Signature::from_report(&baseline);
        let mut table = Table::new(
            format!("Figure 10: MLP invariance and ΔC estimate ({name})"),
            &["dram_fraction", "mlp", "S_DRd_stalls", "S_DRd_deltaC"],
        );
        for (x, report) in points {
            let sig = Signature::from_report(&report);
            let m = MeasuredComponents::attribute(&baseline, &report);
            let delta_c = (report.counters.get_f64(Event::OroCycWDemandRd)
                - base_sig.memory_active)
                / baseline.cycles;
            table.row(&[fmt(x, 2), fmt(sig.mlp, 3), fmt(m.drd, 3), fmt(delta_c, 3)]);
        }
        tables.push(table);
    }
    tables
}

/// Runs Figure 11: per-tier loaded latencies and total slowdown.
pub fn run_fig11(ctx: &Context) -> Vec<Table> {
    let mut tables = Vec::new();
    for name in ["spec.603.bwaves-2t", "spec.603.bwaves-8t"] {
        let workload = camp_workloads::find(name).expect("bwaves in suite");
        let (baseline, points) = sweep(ctx, &ctx.traces().wrap(workload.as_ref()), SWEEP_STEPS);
        let mut table = Table::new(
            format!("Figure 11: tier latencies and slowdown ({name})"),
            &["dram_fraction", "L_dram", "L_cxl", "slowdown"],
        );
        for (x, report) in points {
            let l_fast = report.fast_tier.avg_read_latency().unwrap_or(0.0);
            let l_slow =
                report.slow_tier.as_ref().and_then(|t| t.avg_read_latency()).unwrap_or(0.0);
            table.row(&[
                fmt(x, 2),
                fmt(l_fast, 0),
                fmt(l_slow, 0),
                fmt(report.slowdown_vs(&baseline), 3),
            ]);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::interleave::Boundness;
    use camp_core::Calibration;
    use camp_sim::{Op, OpTrace};
    use camp_workloads::kernels::{PointerChase, StreamKernel};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts the simulations that bypass the [`Context`] memo: a direct
    /// `Machine` run resolves the workload's own trace, while
    /// [`Context::run`] finds it in the shared trace cache.
    struct Counted<W> {
        inner: W,
        direct_runs: AtomicUsize,
    }

    impl<W: Workload> Workload for Counted<W> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn threads(&self) -> u32 {
            self.inner.threads()
        }
        fn footprint_bytes(&self) -> u64 {
            self.inner.footprint_bytes()
        }
        fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
            self.inner.ops()
        }
        fn trace(&self) -> Arc<OpTrace> {
            self.direct_runs.fetch_add(1, Ordering::Relaxed);
            self.inner.trace()
        }
    }

    #[test]
    fn profile_and_sweep_share_the_memoized_endpoint_runs() {
        let probes: Vec<Box<dyn Workload>> = vec![
            Box::new(PointerChase::new("calib.fig9-c1", 1, 1 << 16, 1, 5_000)),
            Box::new(PointerChase::new("calib.fig9-c8", 1, 1 << 16, 8, 5_000)),
        ];
        let predictor = CampPredictor::new(Calibration::fit_with(PLATFORM, DEVICE, &probes));
        let ctx = Context::new().with_jobs(2);
        let stream = StreamKernel::new("fig9-test-stream", 8, 2, 1 << 16, 0, 0, 60_000);
        let chase = PointerChase::new("fig9-test-chase", 1, 1 << 14, 1, 5_000);
        for (workload, boundness, runs) in [
            (&stream as &dyn Workload, Boundness::BandwidthBound, 2),
            (&chase, Boundness::LatencyBound, 1),
        ] {
            let name = workload.name();
            let before = ctx.runs_executed();
            let traced = Counted {
                inner: ctx.traces().wrap(workload),
                direct_runs: AtomicUsize::new(0),
            };
            let (baseline, points) = sweep(&ctx, &traced, 2);
            assert_eq!(ctx.runs_executed() - before, 4, "{name}: the baseline and three ratios");
            let model = profile(&ctx, &traced, &predictor);
            assert_eq!(model.boundness, boundness, "{name}");
            assert_eq!(model.profiling_runs, runs);
            assert_eq!(ctx.runs_executed() - before, 4, "{name}: profiling recalls the sweep");
            let (_, again) = sweep(&ctx, &traced, 2);
            assert_eq!(ctx.runs_executed() - before, 4, "{name}: a second sweep executes nothing");
            assert_eq!(traced.direct_runs.into_inner(), 0, "{name}: no run bypasses the memo");
            assert!(Arc::ptr_eq(&baseline, &ctx.run(PLATFORM, None, workload)));
            // x = 0 is the slow-tier endpoint run.
            assert!(Arc::ptr_eq(&points[0].1, &ctx.run(PLATFORM, Some(DEVICE), workload)));
            for ((x, first), (_, second)) in points.iter().zip(&again) {
                assert!(Arc::ptr_eq(first, second), "{name}: x = {x} simulated twice");
            }
        }
    }
}
