//! Hybrid tiering + interleaving: the §6.4 extension.
//!
//! The paper envisions "hybrid memory policies that integrate interleaving
//! and tiering". This policy combines both CAMP capabilities: the hottest
//! pages (by profiled traffic) are pinned to DRAM — protecting
//! latency-sensitive reuse the way tiering policies do — while the
//! remaining cold pages are weighted-interleaved at the Best-shot ratio
//! chosen for the residual capacity, recovering the aggregate-bandwidth
//! win on skewed workloads where pure interleaving wastes fast memory on
//! cold pages and pure tiering forfeits CXL bandwidth.

use crate::hotness::{profile_pages, rank_pages};
use crate::policy::{PolicyContext, TieringPolicy};
use camp_core::interleave::{best_shot, InterleaveModel, DEFAULT_TAU};
use camp_sim::{Machine, Placement, RunReport, Workload};
use std::collections::HashSet;

/// Fraction of profiled traffic the pinned hot set should cover (bounded
/// by half the fast capacity).
const HOT_TRAFFIC_TARGET: f64 = 0.5;

/// The CAMP hybrid policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridCamp;

impl TieringPolicy for HybridCamp {
    fn name(&self) -> &'static str {
        "Hybrid (CAMP)"
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
        let predictor = ctx
            .predictor
            .expect("HybridCamp requires a calibrated predictor in the context");
        let pages = profile_pages(workload);
        let total_accesses: u64 = pages.values().map(|s| s.accesses).sum();
        // Hot set: hottest pages covering the traffic target, within half
        // the provisioned fast capacity.
        let capacity = ctx.fast_capacity_pages(workload);
        let mut hot_pages = HashSet::new();
        let mut hot_accesses = 0u64;
        for (page, stats) in rank_pages(&pages, |s| s.accesses) {
            if hot_accesses as f64 >= HOT_TRAFFIC_TARGET * total_accesses as f64
                || hot_pages.len() as u64 >= capacity / 2
            {
                break;
            }
            hot_pages.insert(page);
            hot_accesses += stats.accesses;
        }
        // Best-shot ratio for the cold remainder.
        let slow = || Machine::slow_only(ctx.platform, ctx.device).run(workload);
        let model = InterleaveModel::profile(dram, slow, predictor, DEFAULT_TAU)
            .unwrap_or_else(|error| panic!("{error}"));
        let ratio = best_shot(&model).ratio;
        let total_pages = pages.len() as u64;
        let cold_pages = total_pages.saturating_sub(hot_pages.len() as u64).max(1);
        // Cap the cold ratio by the remaining fast capacity.
        let capacity_cap =
            (capacity.saturating_sub(hot_pages.len() as u64)) as f64 / cold_pages as f64;
        let cold_ratio = ratio.min(capacity_cap).clamp(0.0, 1.0);
        let fast_weight = ((cold_ratio * 100.0).round() as u32).clamp(0, 100);
        let hot_share = hot_accesses as f64 / total_accesses.max(1) as f64;
        let fast_traffic_share = hot_share + (1.0 - hot_share) * cold_ratio;
        Placement::Hybrid {
            hot_pages,
            fast_weight,
            slow_weight: 100 - fast_weight,
            fast_traffic_share,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::Counted;
    use camp_core::interleave::{classify, Boundness};
    use camp_core::{Calibration, CampPredictor};
    use camp_sim::{DeviceKind, Platform};
    use camp_workloads::kernels::{Gather, PointerChase};

    fn predictor() -> CampPredictor {
        let probes: Vec<Box<dyn Workload>> = vec![
            Box::new(PointerChase::new("calib.hy-c1", 1, 1 << 20, 1, 25_000)),
            Box::new(PointerChase::new("calib.hy-c8", 1, 1 << 20, 8, 25_000)),
        ];
        CampPredictor::new(Calibration::fit_with(Platform::Skx2s, DeviceKind::CxlA, &probes))
    }

    // Built through `Default` on purpose: a derived `Default` once left
    // the hot-set target at 0.0, which pins no pages.
    #[allow(clippy::default_constructed_unit_structs)]
    #[test]
    fn hybrid_pins_a_bounded_hot_set() {
        let p = predictor();
        let ctx = crate::PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA).with_predictor(&p);
        // Zipf-skewed gather: a small hot set carries most traffic.
        let workload = Gather::new("hybrid-zipf", 2, 1 << 16, 0, 10, 1, true, 60_000);
        let dram = Machine::dram_only(ctx.platform).run(&workload);
        match HybridCamp::default().place(&ctx, &workload, &dram) {
            Placement::Hybrid { hot_pages, fast_traffic_share, .. } => {
                assert!(!hot_pages.is_empty(), "hot set must exist for zipf traffic");
                let capacity = ctx.fast_capacity_pages(&workload);
                assert!(hot_pages.len() as u64 <= capacity / 2 + 1);
                assert!((0.0..=1.0).contains(&fast_traffic_share));
            }
            other => panic!("expected hybrid placement, got {other:?}"),
        }
    }

    #[test]
    fn hybrid_runs_profile_plus_model() {
        let p = predictor();
        let ctx = crate::PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA).with_predictor(&p);
        let workload = Counted::new(Gather::new("hybrid-runs", 1, 1 << 14, 0, 0, 1, true, 20_000));
        let dram = Machine::dram_only(ctx.platform).run(&workload.inner);
        let _ = HybridCamp.place(&ctx, &workload, &dram);
        // One profiling pass, plus the slow-tier run a bandwidth-bound
        // workload's model needs; the DRAM run is the caller's.
        let slow_runs = usize::from(classify(&dram, DEFAULT_TAU) == Boundness::BandwidthBound);
        assert_eq!(workload.traces(), 1 + slow_runs);
    }
}
