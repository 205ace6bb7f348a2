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

use crate::policy::{PolicyContext, TieringPolicy};
use camp_core::interleave::{best_shot, InterleaveModel, DEFAULT_TAU};
use camp_sim::{Machine, Op, Placement, Workload, PAGE_BYTES};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

/// The CAMP hybrid policy.
#[derive(Debug, Clone, Default)]
pub struct HybridCamp {
    runs_used: Cell<u8>,
    /// Fraction of profiled traffic the pinned hot set should cover.
    hot_traffic_target: f64,
}

impl HybridCamp {
    /// Creates the policy with the default hot-set target (pages covering
    /// half the profiled traffic, bounded by half the fast capacity).
    pub fn new() -> Self {
        HybridCamp { runs_used: Cell::new(0), hot_traffic_target: 0.5 }
    }
}

impl TieringPolicy for HybridCamp {
    fn name(&self) -> &'static str {
        "Hybrid (CAMP)"
    }

    /// # Panics
    ///
    /// Panics if the context has no calibrated predictor, or with the
    /// [`camp_core::ModelError`] diagnostic if the profiling runs cannot
    /// be modelled.
    fn place(&self, ctx: &PolicyContext<'_>, workload: &dyn Workload) -> Placement {
        let predictor = ctx
            .predictor
            .expect("HybridCamp requires a calibrated predictor in the context");
        // Profiling pass over the shared trace: per-page traffic (cached
        // workloads pay no regeneration).
        let mut pages: HashMap<u64, u64> = HashMap::new();
        let mut total_accesses = 0u64;
        let trace = workload.trace();
        for op in trace.iter() {
            let addr = match op {
                Op::Load { addr, .. } | Op::Store { addr } => addr,
                Op::Compute { .. } => continue,
            };
            *pages.entry(addr / PAGE_BYTES).or_default() += 1;
            total_accesses += 1;
        }
        // Hot set: hottest pages covering the traffic target, within half
        // the provisioned fast capacity.
        let capacity = ctx.fast_capacity_pages(workload);
        let mut ranked: Vec<(u64, u64)> = pages.iter().map(|(&p, &a)| (p, a)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut hot_pages = HashSet::new();
        let mut hot_accesses = 0u64;
        for (page, accesses) in &ranked {
            if hot_accesses as f64 >= self.hot_traffic_target * total_accesses as f64
                || hot_pages.len() as u64 >= capacity / 2
            {
                break;
            }
            hot_pages.insert(*page);
            hot_accesses += accesses;
        }
        // Best-shot ratio for the cold remainder.
        let dram = Machine::dram_only(ctx.platform).run_trace(workload, &trace);
        let slow = || Machine::slow_only(ctx.platform, ctx.device).run_trace(workload, &trace);
        let model = InterleaveModel::profile(&dram, slow, predictor, DEFAULT_TAU)
            .unwrap_or_else(|error| panic!("{error}"));
        self.runs_used.set(model.profiling_runs + 1);
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

    fn profiling_runs(&self) -> u8 {
        self.runs_used.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn hybrid_pins_a_bounded_hot_set() {
        let p = predictor();
        let ctx = crate::PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA).with_predictor(&p);
        // Zipf-skewed gather: a small hot set carries most traffic.
        let workload = Gather::new("hybrid-zipf", 2, 1 << 16, 0, 10, 1, true, 60_000);
        let placement = HybridCamp::new().place(&ctx, &workload);
        match placement {
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
        let workload = Gather::new("hybrid-runs", 1, 1 << 14, 0, 0, 1, true, 20_000);
        let policy = HybridCamp::new();
        let _ = policy.place(&ctx, &workload);
        assert!(policy.profiling_runs() >= 2, "profile pass + model run(s)");
    }
}
