//! The CAMP slowdown predictor (§4 of the paper).
//!
//! Predicts the slowdown a workload will suffer on the calibrated slow
//! tier from a **single DRAM-only run**, decomposed into the three causal
//! components:
//!
//! - demand reads (Eq. 5): `S_DRd = k_drd · f(L/MLP) · s_LLC/c` with the
//!   calibrated hyperbolic transfer `f`;
//! - cache/prefetching (Eq. 6):
//!   `S_Cache = k_cache · R_LFB-hit · R_Mem · s_Cache/c`;
//! - stores (Eq. 7): `S_Store = k_store · s_SB/c`.
//!
//! The paper scopes this model to regimes where device bandwidth is not
//! saturated (§4.4.6) and leaves saturation modelling as future work;
//! [`CampPredictor::predict_total_saturated`] implements that extension —
//! a bandwidth floor derived from the DRAM run's offcore traffic volume —
//! and the ablation harness quantifies its contribution.

use crate::calibration::Calibration;
use crate::signature::Signature;
use camp_pmu::CounterSet;
use camp_sim::RunReport;

/// The default demand-read latency transfer, derived from the paper's
/// Figure 4d relationship: the slow tier adds `ΔL_idle` only to the
/// memory-served fraction of accesses, and `R_MLP ≈ 1` (structurally
/// bounded MLP; §5.2.1), so
/// `R_Lat/R_MLP − 1 ≈ φ(L) · ΔL_idle / L` with
/// `φ(L) = clamp((L − L_l3)/(L_idle − L_l3), 0, 1)` estimating the share
/// of demand reads served from memory rather than the LLC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedLatencyTransfer {
    /// DRAM unloaded latency in cycles.
    pub dram_idle: f64,
    /// Slow-tier unloaded latency in cycles.
    pub slow_idle: f64,
    /// L3 hit latency in cycles.
    pub l3_hit: f64,
}

impl DerivedLatencyTransfer {
    /// Evaluates the transfer at measured DRAM demand-read latency `l`.
    pub fn eval(&self, l: f64) -> f64 {
        if l <= 0.0 {
            return 0.0;
        }
        let span = (self.dram_idle - self.l3_hit).max(1.0);
        let phi = ((l - self.l3_hit) / span).clamp(0.0, 1.0);
        phi * (self.slow_idle - self.dram_idle).max(0.0) / l
    }
}

/// Which latency-tolerance transfer drives the `S_DRd` component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrdTransfer {
    /// Derived from baseline latency (default on this substrate; see
    /// [`DerivedLatencyTransfer`]).
    DerivedLatency,
    /// The paper's hyperbolic function of `L/MLP` (AOL), kept for the
    /// `ablate-hyperbolic` comparison.
    HyperbolicAol,
}

/// A per-component slowdown prediction (fractional; 0.3 = 30% slower).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlowdownPrediction {
    /// Demand-read component `S_DRd`.
    pub drd: f64,
    /// Cache/prefetch component `S_Cache`.
    pub cache: f64,
    /// Store component `S_Store`.
    pub store: f64,
}

impl SlowdownPrediction {
    /// Total predicted slowdown `S = S_DRd + S_Cache + S_Store` (Eq. 1).
    pub fn total(&self) -> f64 {
        self.drd + self.cache + self.store
    }
}

/// The calibrated CAMP predictor.
///
/// # Example
///
/// ```no_run
/// use camp_core::{Calibration, CampPredictor};
/// use camp_sim::{DeviceKind, Machine, Platform};
///
/// let predictor = CampPredictor::new(Calibration::fit(Platform::Spr2s, DeviceKind::CxlA));
/// let workload = camp_workloads::find("spec.505.mcf-1t").expect("in suite");
/// let dram = Machine::dram_only(Platform::Spr2s).run(&workload);
/// let prediction = predictor.predict(&dram.counters);
/// println!("predicted CXL-A slowdown: {:.1}%", prediction.total() * 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct CampPredictor {
    calibration: Calibration,
    transfer: DrdTransfer,
}

impl CampPredictor {
    /// Wraps a fitted calibration (default derived-latency transfer).
    pub fn new(calibration: Calibration) -> Self {
        CampPredictor { calibration, transfer: DrdTransfer::DerivedLatency }
    }

    /// Selects the `S_DRd` transfer (for ablations).
    pub fn with_transfer(mut self, transfer: DrdTransfer) -> Self {
        self.transfer = transfer;
        self
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Predicts per-component slowdown from raw DRAM-run counters.
    pub fn predict(&self, counters: &CounterSet) -> SlowdownPrediction {
        let flavor = self.calibration.platform.config().counter_flavor;
        self.predict_signature(&Signature::from_counters(counters, flavor))
    }

    /// Predicts per-component slowdown from an extracted signature.
    pub fn predict_signature(&self, sig: &Signature) -> SlowdownPrediction {
        let calib = &self.calibration;
        let drd = match self.transfer {
            DrdTransfer::DerivedLatency => {
                let transfer = DerivedLatencyTransfer {
                    dram_idle: calib.dram_idle_latency,
                    slow_idle: calib.slow_idle_latency,
                    l3_hit: calib.l3_hit_latency,
                };
                calib.k_drd * transfer.eval(sig.latency) * sig.memory_active_fraction()
            }
            DrdTransfer::HyperbolicAol => {
                calib.k_drd_aol
                    * calib.hyperbola.eval(sig.latency_tolerance())
                    * sig.memory_active_fraction()
            }
        };
        SlowdownPrediction {
            drd,
            cache: calib.k_cache * sig.r_lfb_hit * sig.r_mem * sig.cache_stall_fraction(),
            store: calib.k_store * sig.store_stall_fraction(),
        }
    }

    /// Predicts per-component slowdown from a DRAM [`RunReport`].
    pub fn predict_report(&self, report: &RunReport) -> SlowdownPrediction {
        self.predict_signature(&Signature::from_report(report))
    }

    /// Bandwidth-saturation floor (the §4.4.6 extension): if serving the
    /// DRAM run's memory traffic through the slow device would take longer
    /// than the whole DRAM run, runtime inflates at least by that ratio.
    /// Traffic volumes come from the memory-controller view of the run
    /// (the IMC CAS-count equivalent in [`RunReport::fast_tier`]), so L3
    /// hits do not inflate the estimate. Returns 0 for workloads within
    /// the device's capacity.
    pub fn bandwidth_saturation_floor(&self, report: &RunReport) -> f64 {
        if report.seconds <= 0.0 {
            return 0.0;
        }
        let device = self.calibration.device.config_for(self.calibration.platform);
        let threads = report.threads as f64;
        let stats = &report.fast_tier.stats;
        let read_seconds = stats.read_bytes() as f64 * threads / device.read_bw;
        let write_seconds =
            (stats.write_bytes() + stats.rfo_bytes()) as f64 * threads / device.write_bw;
        (read_seconds.max(write_seconds) / report.seconds - 1.0).max(0.0)
    }

    /// Total slowdown prediction with the bandwidth-saturation extension:
    /// the component sum, floored by the capacity ratio when the workload's
    /// DRAM-run traffic exceeds the slow device's bandwidth.
    pub fn predict_total_saturated(&self, report: &RunReport) -> f64 {
        let components = self.predict_report(report).total();
        components.max(self.bandwidth_saturation_floor(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Hyperbola;
    use camp_sim::{DeviceKind, Machine, Platform};

    fn synthetic_calibration() -> Calibration {
        Calibration {
            platform: Platform::Spr2s,
            device: DeviceKind::CxlA,
            hyperbola: Hyperbola { p: 1.2, q: 40.0 },
            k_drd: 1.5,
            k_drd_aol: 1.5,
            l3_hit_latency: 52.0,
            k_cache: 2.0,
            k_store: 0.8,
            dram_idle_latency: 239.4,
            slow_idle_latency: 449.4,
            samples: 0,
        }
    }

    fn signature(
        s_llc: f64,
        s_cache: f64,
        s_sb: f64,
        latency: f64,
        mlp: f64,
        r_lfb: f64,
        r_mem: f64,
    ) -> Signature {
        Signature {
            cycles: 1000.0,
            memory_active: s_llc, // exposed == active for these synthetic cases
            s_llc,
            s_cache,
            s_sb,
            latency,
            mlp,
            r_lfb_hit: r_lfb,
            r_mem,
        }
    }

    #[test]
    fn components_follow_their_equations() {
        let predictor =
            CampPredictor::new(synthetic_calibration()).with_transfer(DrdTransfer::HyperbolicAol);
        let sig = signature(500.0, 100.0, 50.0, 280.0, 2.0, 0.4, 0.5);
        let pred = predictor.predict_signature(&sig);
        let f = 1.0 / (1.2 + 40.0 / 140.0); // hyperbola at L/MLP = 140
        assert!((pred.drd - 1.5 * f * 0.5).abs() < 1e-12);
        assert!((pred.cache - 2.0 * 0.4 * 0.5 * 0.1).abs() < 1e-12);
        assert!((pred.store - 0.8 * 0.05).abs() < 1e-12);
        assert!((pred.total() - (pred.drd + pred.cache + pred.store)).abs() < 1e-15);
    }

    #[test]
    fn derived_transfer_discounts_llc_resident_latencies() {
        let transfer = DerivedLatencyTransfer { dram_idle: 239.4, slow_idle: 449.4, l3_hit: 52.0 };
        // At the L3 hit latency, the slow tier adds nothing.
        assert_eq!(transfer.eval(52.0), 0.0);
        // At the DRAM idle latency, the full idle-latency gap applies.
        let at_idle = transfer.eval(239.4);
        assert!((at_idle - (449.4 - 239.4) / 239.4).abs() < 1e-12);
        // Loaded latencies keep phi = 1 and dilute by 1/L.
        assert!(transfer.eval(500.0) < at_idle);
        assert_eq!(transfer.eval(0.0), 0.0);
    }

    #[test]
    fn no_memory_activity_predicts_no_slowdown() {
        let predictor = CampPredictor::new(synthetic_calibration());
        let sig = signature(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let pred = predictor.predict_signature(&sig);
        assert_eq!(pred.total(), 0.0);
    }

    #[test]
    fn store_only_workload_predicts_store_component_only() {
        let predictor = CampPredictor::new(synthetic_calibration());
        let sig = signature(0.0, 0.0, 900.0, 0.0, 0.0, 0.0, 0.0);
        let pred = predictor.predict_signature(&sig);
        assert_eq!(pred.drd, 0.0);
        assert_eq!(pred.cache, 0.0);
        assert!((pred.store - 0.8 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn saturation_floor_zero_for_light_workloads() {
        let predictor = CampPredictor::new(synthetic_calibration());
        let workload = camp_workloads::find("spec.505.mcf-1t").expect("in suite");
        let report = Machine::dram_only(Platform::Spr2s).run(&workload);
        assert_eq!(predictor.bandwidth_saturation_floor(&report), 0.0);
    }

    #[test]
    fn saturation_floor_engages_for_bandwidth_hogs() {
        let predictor = CampPredictor::new(synthetic_calibration());
        let workload = camp_workloads::find("mlc.stream-8t-c0").expect("in suite");
        let report = Machine::dram_only(Platform::Spr2s).run(&workload);
        let floor = predictor.bandwidth_saturation_floor(&report);
        // ~136 GB/s of DRAM traffic against a 24 GB/s device.
        assert!(floor > 3.0, "floor = {floor}");
        assert!(predictor.predict_total_saturated(&report) >= floor);
    }
}
