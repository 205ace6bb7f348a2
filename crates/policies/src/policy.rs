//! The tiering-policy abstraction and evaluation context.

use camp_core::CampPredictor;
use camp_sim::{DeviceKind, Placement, Platform, RunReport, Workload, PAGE_BYTES};

/// Shared context for placement decisions: the machine, the provisioned
/// fast-tier capacity, and (for CAMP-based policies) a calibrated
/// predictor.
pub struct PolicyContext<'a> {
    /// Platform to place on.
    pub platform: Platform,
    /// Slow-tier device.
    pub device: DeviceKind,
    /// Fraction of the workload footprint that fits in the fast tier
    /// (§6.2.1 provisions baselines at 0.8, i.e. a 4:1 split).
    pub fast_capacity_fraction: f64,
    /// Calibrated predictor, for policies that use CAMP's models.
    pub predictor: Option<&'a CampPredictor>,
}

impl<'a> PolicyContext<'a> {
    /// Standard §6.2.1 context: 4:1 fast:slow provisioning.
    pub fn new(platform: Platform, device: DeviceKind) -> Self {
        PolicyContext {
            platform,
            device,
            fast_capacity_fraction: 0.8,
            predictor: None,
        }
    }

    /// Attaches a calibrated predictor (required by Best-shot).
    pub fn with_predictor(mut self, predictor: &'a CampPredictor) -> Self {
        self.predictor = Some(predictor);
        self
    }

    /// Fast-tier capacity in pages for a given workload.
    pub fn fast_capacity_pages(&self, workload: &dyn Workload) -> u64 {
        let total = workload.footprint_bytes().div_ceil(PAGE_BYTES);
        ((total as f64 * self.fast_capacity_fraction).round() as u64).max(1)
    }
}

/// A tiered-memory placement policy.
///
/// Policies are stateless. Each decides from the caller's DRAM-only run
/// of the workload, plus whatever probe runs or trace passes its
/// decision rule needs, and produces a static [`Placement`] that the
/// evaluation harness then runs.
pub trait TieringPolicy {
    /// Display name (matching the paper's Figure 15 labels).
    fn name(&self) -> &'static str;

    /// Decides a placement for `workload`. `dram` is the caller's
    /// DRAM-only run of `workload` on `ctx.platform`.
    fn place(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &dyn Workload,
        dram: &RunReport,
    ) -> Placement;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Tiny;
    impl Workload for Tiny {
        fn name(&self) -> &str {
            "tiny"
        }
        fn footprint_bytes(&self) -> u64 {
            10 * PAGE_BYTES + 1
        }
        fn ops(&self) -> Box<dyn Iterator<Item = camp_sim::Op> + '_> {
            Box::new(std::iter::empty())
        }
    }

    #[test]
    fn capacity_pages_round_from_fraction() {
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        // 11 pages total, 80% => 9 pages.
        assert_eq!(ctx.fast_capacity_pages(&Tiny), 9);
    }

    #[test]
    fn default_context_matches_paper_provisioning() {
        let ctx = PolicyContext::new(Platform::Skx2s, DeviceKind::CxlA);
        assert_eq!(ctx.fast_capacity_fraction, 0.8);
        assert!(ctx.predictor.is_none());
    }
}
