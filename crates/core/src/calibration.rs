//! One-time platform calibration (§4.4.1 of the paper).
//!
//! CAMP's constants are fitted once per (platform, slow-device) pair from
//! a lightweight microbenchmark suite run on DRAM and on the slow tier:
//!
//! - `(p, q)` — the hyperbolic latency-tolerance transfer function of
//!   §4.1.2, fitted from the `(L/MLP, R_Lat/R_MLP − 1)` scatter of the
//!   pointer-chase/gather probes;
//! - `k_drd`, `k_cache`, `k_store` — per-component scaling constants,
//!   fitted through-origin against the Melody-style measured components of
//!   the same probes.
//!
//! Calibration requires slow-tier execution of *microbenchmarks only*;
//! production workloads are then predicted from a single DRAM run.

use crate::error::ModelError;
use crate::signature::{MeasuredComponents, Signature};
use crate::stats::{proportional_fit, Hyperbola};
use camp_sim::{DeviceKind, Machine, Platform, RunReport, Workload};
use std::borrow::Borrow;

/// Fitted platform constants for one (platform, slow device) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Platform the constants were fitted on.
    pub platform: Platform,
    /// Slow tier the constants predict.
    pub device: DeviceKind,
    /// Latency-tolerance transfer function `f(L/MLP) ≈ R_Lat/R_MLP − 1`
    /// (the paper's Eq. 5 form; used by the AOL-transfer ablation mode and
    /// reported in Figure 4f).
    pub hyperbola: Hyperbola,
    /// Demand-read scaling constant (Eq. 5) for the default
    /// derived-latency transfer.
    pub k_drd: f64,
    /// Demand-read scaling constant for the hyperbolic-AOL transfer
    /// (ablation mode).
    pub k_drd_aol: f64,
    /// L3 hit latency in cycles (platform constant used by the
    /// derived-latency transfer to estimate the memory-served fraction).
    pub l3_hit_latency: f64,
    /// Cache/prefetch scaling constant (Eq. 6).
    pub k_cache: f64,
    /// Store scaling constant (Eq. 7).
    pub k_store: f64,
    /// Unloaded DRAM latency in cycles (the MLC-style probe of Table 7).
    pub dram_idle_latency: f64,
    /// Unloaded slow-tier latency in cycles.
    pub slow_idle_latency: f64,
    /// Number of microbenchmarks the fit used.
    pub samples: usize,
}

impl Calibration {
    /// Fits constants using the standard calibration microbenchmark suite.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use camp_core::Calibration;
    /// use camp_sim::{DeviceKind, Platform};
    ///
    /// let calib = Calibration::fit(Platform::Spr2s, DeviceKind::CxlA);
    /// assert!(calib.k_store > 0.0);
    /// ```
    pub fn fit(platform: Platform, device: DeviceKind) -> Self {
        Self::fit_with(platform, device, &camp_workloads::calibration_suite())
    }

    /// Fits constants from a caller-supplied probe set (useful for tests
    /// and for studying calibration sensitivity): runs each probe on DRAM
    /// and on the slow tier, one after another, then fits the reports with
    /// [`Calibration::from_probe_runs`]. The runs stay serial on purpose:
    /// concurrent probe runs multiply the engine's resident working set,
    /// which raised the `camp-serve` daemon's peak RSS from 13.5 MB to
    /// ~24.9 MB when its startup fits ran them in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `probes` is empty or the simulator rejects a probe run
    /// (invalid platform/device parameters, empty probe footprint).
    pub fn fit_with(platform: Platform, device: DeviceKind, probes: &[Box<dyn Workload>]) -> Self {
        let dram_machine = Machine::dram_only(platform);
        let slow_machine = Machine::slow_only(platform, device);
        let runs: Vec<_> = probes
            .iter()
            .map(|probe| (dram_machine.run(probe.as_ref()), slow_machine.run(probe.as_ref())))
            .collect();
        Self::from_probe_runs(platform, device, &runs)
            .unwrap_or_else(|error| panic!("calibration needs probes and valid runs: {error}"))
    }

    /// Fits constants from probe runs: one (DRAM-only, slow-only) report
    /// pair per calibration microbenchmark, in probe order. The fit is pure
    /// — it simulates nothing — so the caller decides how the runs are
    /// produced ([`Calibration::fit_with`] runs them serially; the
    /// experiment harness recalls them from its memoized run cache).
    ///
    /// Rejects an empty run set with [`ModelError::NoProbes`] and a "slow"
    /// report without a slow tier with [`ModelError::MissingSlowTier`].
    pub fn from_probe_runs<R: Borrow<RunReport>>(
        platform: Platform,
        device: DeviceKind,
        runs: &[(R, R)],
    ) -> Result<Self, ModelError> {
        if runs.is_empty() {
            return Err(ModelError::NoProbes);
        }
        let mut tolerance_x = Vec::new();
        let mut tolerance_y = Vec::new();
        let mut dram_sigs = Vec::new();
        let mut measured = Vec::new();
        let mut dram_idle = 0.0;
        let mut slow_idle = 0.0;
        for (d, s) in runs {
            let (d, s) = (d.borrow(), s.borrow());
            let slow_tier = s
                .slow_tier
                .as_ref()
                .ok_or_else(|| ModelError::MissingSlowTier { workload: s.workload.clone() })?;
            dram_idle = d.fast_tier.idle_latency_cycles;
            slow_idle = slow_tier.idle_latency_cycles;
            let sig_d = Signature::from_report(d);
            let sig_s = Signature::from_report(s);
            // Latency-tolerance scatter: needs real offcore demand traffic
            // on both tiers to measure the scaling ratios.
            if sig_d.mlp > 0.0
                && sig_s.mlp > 0.0
                && sig_d.latency > 0.0
                && sig_d.memory_active_fraction() > 0.2
            {
                let r_lat = sig_s.latency / sig_d.latency;
                let r_mlp = sig_s.mlp / sig_d.mlp;
                let y = (r_lat / r_mlp - 1.0).max(0.0);
                tolerance_x.push(sig_d.latency_tolerance());
                tolerance_y.push(y);
            }
            measured.push(MeasuredComponents::attribute(d, s));
            dram_sigs.push(sig_d);
        }

        let hyperbola = Hyperbola::fit_direct(&tolerance_x, &tolerance_y)
            .unwrap_or(Hyperbola { p: 1.3, q: 60.0 });

        let l3_hit_latency = platform.config().l3.hit_latency as f64;
        let derived =
            crate::model::DerivedLatencyTransfer { dram_idle, slow_idle, l3_hit: l3_hit_latency };
        let drd_terms: Vec<f64> = dram_sigs
            .iter()
            .map(|s| derived.eval(s.latency) * s.memory_active_fraction())
            .collect();
        let drd_terms_aol: Vec<f64> = dram_sigs
            .iter()
            .map(|s| hyperbola.eval(s.latency_tolerance()) * s.memory_active_fraction())
            .collect();
        let cache_terms: Vec<f64> = dram_sigs
            .iter()
            .map(|s| s.r_lfb_hit * s.r_mem * s.cache_stall_fraction())
            .collect();
        let store_terms: Vec<f64> = dram_sigs.iter().map(|s| s.store_stall_fraction()).collect();
        let truth_drd: Vec<f64> = measured.iter().map(|m| m.drd).collect();
        let truth_cache: Vec<f64> = measured.iter().map(|m| m.cache).collect();
        let truth_store: Vec<f64> = measured.iter().map(|m| m.store).collect();

        Ok(Calibration {
            platform,
            device,
            hyperbola,
            k_drd: proportional_fit(&drd_terms, &truth_drd).unwrap_or(1.0),
            k_drd_aol: proportional_fit(&drd_terms_aol, &truth_drd).unwrap_or(1.0),
            l3_hit_latency,
            k_cache: proportional_fit(&cache_terms, &truth_cache).unwrap_or(1.0),
            k_store: proportional_fit(&store_terms, &truth_store).unwrap_or(1.0),
            dram_idle_latency: dram_idle,
            slow_idle_latency: slow_idle,
            samples: runs.len(),
        })
    }

    /// Idle-latency ratio of the calibrated slow tier over DRAM (the
    /// "unloaded latency ratio" of §4.1.2 — 156% in the paper's testbed).
    pub fn idle_latency_ratio(&self) -> f64 {
        if self.dram_idle_latency > 0.0 {
            self.slow_idle_latency / self.dram_idle_latency
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiny_probes;
    use camp_workloads::kernels::PointerChase;

    #[test]
    fn fit_produces_positive_constants() {
        let calib = Calibration::fit_with(Platform::Spr2s, DeviceKind::CxlA, &tiny_probes());
        assert!(calib.k_drd > 0.0, "k_drd = {}", calib.k_drd);
        assert!(calib.k_store > 0.0, "k_store = {}", calib.k_store);
        assert!(calib.samples == 5);
        // SPR DRAM idle is 114ns = 239.4 cycles; CXL-A is 214ns = 449.4.
        assert!((calib.dram_idle_latency - 239.4).abs() < 0.5);
        assert!((calib.slow_idle_latency - 449.4).abs() < 0.5);
        assert!(calib.idle_latency_ratio() > 1.5);
    }

    #[test]
    fn tolerance_transfer_is_positive_where_fitted() {
        let calib = Calibration::fit_with(Platform::Spr2s, DeviceKind::CxlA, &tiny_probes());
        // Around the fitted region the transfer function must be positive
        // (slow tiers do slow things down).
        let f = calib.hyperbola.eval(250.0);
        assert!(f > 0.0, "f(250) = {f}");
    }

    #[test]
    fn different_devices_give_different_constants() {
        let a = Calibration::fit_with(Platform::Spr2s, DeviceKind::CxlA, &tiny_probes());
        let b = Calibration::fit_with(Platform::Spr2s, DeviceKind::Numa, &tiny_probes());
        // NUMA on SPR is much closer to DRAM than CXL-A is.
        assert!(b.slow_idle_latency < a.slow_idle_latency);
    }

    #[test]
    #[should_panic(expected = "needs probes")]
    fn empty_probe_set_rejected() {
        let _ = Calibration::fit_with(Platform::Spr2s, DeviceKind::CxlA, &[]);
    }

    #[test]
    fn from_probe_runs_reports_typed_errors() {
        assert_eq!(
            Calibration::from_probe_runs::<RunReport>(Platform::Spr2s, DeviceKind::CxlA, &[])
                .unwrap_err(),
            ModelError::NoProbes
        );
        // A "slow" run that executed entirely on DRAM has no slow tier to
        // read an idle latency from.
        let probe = PointerChase::new("calib.t-dram-twice", 1, 1 << 14, 1, 5_000);
        let dram = Machine::dram_only(Platform::Spr2s).run(&probe);
        let error =
            Calibration::from_probe_runs(Platform::Spr2s, DeviceKind::CxlA, &[(&dram, &dram)])
                .unwrap_err();
        assert_eq!(error, ModelError::MissingSlowTier { workload: "calib.t-dram-twice".into() });
    }
}
