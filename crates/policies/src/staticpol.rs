//! Static placement baselines: Linux 1:1 interleaving and first-touch.

use crate::policy::{PolicyContext, TieringPolicy};
use camp_sim::{Op, Placement, RunReport, Workload, PAGE_BYTES};
use std::collections::HashSet;

/// Linux's default `MPOL_INTERLEAVED`: pages alternate 50:50 between the
/// tiers regardless of workload behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interleave1to1;

impl TieringPolicy for Interleave1to1 {
    fn name(&self) -> &'static str {
        "Interleave 1:1"
    }

    fn place(
        &self,
        _ctx: &PolicyContext<'_>,
        _workload: &dyn Workload,
        _dram: &RunReport,
    ) -> Placement {
        Placement::WeightedInterleave { fast_weight: 1, slow_weight: 1 }
    }
}

/// First-touch without proactive migration: pages are allocated on DRAM in
/// first-access order until the provisioned capacity fills, then spill to
/// the slow tier.
///
/// The placement is resolved from the access trace (the same pages the
/// engine's `Placement::FirstTouch` would admit) so the evaluation also
/// knows the *traffic share* those pages carry — for skewed workloads the
/// first-touched pages are disproportionately hot, and the cross-thread
/// contention split must reflect that.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstTouch;

impl TieringPolicy for FirstTouch {
    fn name(&self) -> &'static str {
        "First-touch"
    }

    fn place(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &dyn Workload,
        _dram: &RunReport,
    ) -> Placement {
        let capacity = ctx.fast_capacity_pages(workload);
        let mut fast: HashSet<u64> = HashSet::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let (mut fast_accesses, mut total_accesses) = (0u64, 0u64);
        // Profile over the shared trace: when the workload's trace is
        // cached (experiment harness), this pass costs no regeneration.
        let trace = workload.trace();
        for op in trace.iter() {
            let addr = match op {
                Op::Load { addr, .. } | Op::Store { addr } => addr,
                Op::Compute { .. } => continue,
            };
            let page = addr / PAGE_BYTES;
            total_accesses += 1;
            if seen.insert(page) && (fast.len() as u64) < capacity {
                fast.insert(page);
            }
            if fast.contains(&page) {
                fast_accesses += 1;
            }
        }
        let traffic_share = if total_accesses > 0 {
            fast_accesses as f64 / total_accesses as f64
        } else {
            1.0
        };
        Placement::FastPageSet { pages: fast, traffic_share }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::Counted;
    use camp_sim::{DeviceKind, Machine, Platform, PAGE_BYTES};

    struct Tiny;
    impl Workload for Tiny {
        fn name(&self) -> &str {
            "tiny"
        }
        fn footprint_bytes(&self) -> u64 {
            100 * PAGE_BYTES
        }
        fn ops(&self) -> Box<dyn Iterator<Item = camp_sim::Op> + '_> {
            Box::new(std::iter::empty())
        }
    }

    #[test]
    fn interleave_is_always_fifty_fifty() {
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let tiny = Counted::new(Tiny);
        let dram = Machine::dram_only(ctx.platform).run(&Tiny);
        let placement = Interleave1to1.place(&ctx, &tiny, &dram);
        assert_eq!(placement.fast_fraction(), Some(0.5));
        assert_eq!(tiny.traces(), 0, "a fixed split needs no pass over the workload");
    }

    struct SequentialTouch;
    impl Workload for SequentialTouch {
        fn name(&self) -> &str {
            "seq-touch"
        }
        fn footprint_bytes(&self) -> u64 {
            100 * PAGE_BYTES
        }
        fn ops(&self) -> Box<dyn Iterator<Item = camp_sim::Op> + '_> {
            Box::new((0..100u64).map(|p| camp_sim::Op::load(p * PAGE_BYTES)))
        }
    }

    #[test]
    fn first_touch_admits_pages_in_touch_order_up_to_capacity() {
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        let dram = Machine::dram_only(ctx.platform).run(&SequentialTouch);
        match FirstTouch.place(&ctx, &SequentialTouch, &dram) {
            Placement::FastPageSet { pages, traffic_share } => {
                assert_eq!(pages.len(), 80, "capacity is 80% of 100 pages");
                assert!((0..80).all(|p| pages.contains(&p)), "first-touched pages admitted");
                assert!((traffic_share - 0.8).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
