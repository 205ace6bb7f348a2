//! The interleaving synthesis model (§5 of the paper).
//!
//! Predicts workload slowdown at *any* DRAM:CXL weighted-interleaving
//! ratio `x` from at most two profiling runs, exploiting the §5.2.1
//! invariant that MLP barely varies with the ratio:
//!
//! - per-tier latency under load share `x'` follows the quadratic transfer
//!   `L(x') = L_idle + (L_full − L_idle)·x'²` (Eq. 8);
//! - a tier handling share `x'` contributes load-scaled memory-active
//!   cycles `M(x') = x'·L(x')/L_full` relative to its endpoint run
//!   (Eq. 9);
//! - slowdown at ratio `x` scales each component's endpoint stalls:
//!   `S(x) = (M(x)·s_DRAM + M(1−x)·s_CXL − s_DRAM)/c` (Eq. 10).
//!
//! Latency-bound workloads (measured DRAM latency within `τ` of unloaded)
//! need only the DRAM run — their CXL endpoint stalls come from the §4
//! predictor; bandwidth-bound workloads use a second run on the slow tier.

use crate::error::ModelError;
use crate::model::{CampPredictor, SlowdownPrediction};
use crate::signature::Signature;
use camp_sim::{DeviceKind, Machine, Platform, RunReport, Workload};

/// Default classification tolerance `τ` (§5.3): a workload is
/// bandwidth-bound when its loaded DRAM latency exceeds the unloaded
/// latency by more than this fraction.
pub const DEFAULT_TAU: f64 = 0.10;

/// Whether a workload saturates its tier (which decides the profiling
/// workflow of Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundness {
    /// Per-tier latency stays near unloaded values; one DRAM run suffices.
    LatencyBound,
    /// Contention inflates latency; a second (slow-tier) run is needed.
    BandwidthBound,
}

/// Classifies a DRAM run by comparing the memory-controller-level loaded
/// read latency against the device's unloaded latency (the `τ` test of
/// §5.3), rejecting runs too degenerate to classify: a run whose DRAM
/// controller served **no demand reads** has no loaded latency, so the τ
/// test is meaningless (and silently calling such a run latency-bound
/// would hide cache-resident or store-only workloads from the two-run
/// workflow).
pub fn try_classify(dram: &RunReport, tau: f64) -> Result<Boundness, ModelError> {
    let idle = dram.fast_tier.idle_latency_cycles;
    let Some(loaded) = dram.fast_tier.avg_read_latency() else {
        return Err(ModelError::DegenerateRun {
            workload: dram.workload.clone(),
            reason: "DRAM run served no demand reads, so no loaded latency exists to classify",
        });
    };
    if !loaded.is_finite() || !idle.is_finite() {
        return Err(ModelError::NonFiniteSignature {
            workload: dram.workload.clone(),
            field: "loaded_latency",
            value: if loaded.is_finite() { idle } else { loaded },
        });
    }
    if loaded > idle * (1.0 + tau) {
        Ok(Boundness::BandwidthBound)
    } else {
        Ok(Boundness::LatencyBound)
    }
}

/// Infallible wrapper around [`try_classify`] with a documented policy for
/// degenerate runs: a run that served no demand reads cannot saturate a
/// memory tier, so it is classified [`Boundness::LatencyBound`] (the
/// one-run workflow — which is also the cheap path, appropriate for a
/// workload that barely touches memory).
pub fn classify(dram: &RunReport, tau: f64) -> Boundness {
    try_classify(dram, tau).unwrap_or(Boundness::LatencyBound)
}

/// Per-component endpoint stall cycles (`s_LLC`, `s_Cache`, `s_SB` of one
/// endpoint run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComponentStalls {
    /// Demand-read stall cycles.
    pub llc: f64,
    /// Cache/prefetch stall cycles.
    pub cache: f64,
    /// Store-buffer stall cycles.
    pub sb: f64,
}

impl ComponentStalls {
    fn from_signature(sig: &Signature) -> Self {
        ComponentStalls { llc: sig.s_llc, cache: sig.s_cache, sb: sig.s_sb }
    }
}

/// Exponent policy for the latency-vs-load transfer of Eq. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyCurve {
    /// The paper's quadratic form: `L(x') = L_idle + ΔL·x'²`.
    Quadratic,
    /// Saturation-adaptive exponent `α = 1 + L_idle/L_full ∈ (1, 2]`:
    /// equals ~2 under mild contention (recovering the paper's form) and
    /// approaches 1 on deeply saturated tiers, where queueing grows nearly
    /// linearly in load share. The paper notes the quadratic is only "a
    /// compact and sufficiently accurate approximation over the operating
    /// range" (§5.2.2); this substrate's saturated range needs the
    /// adaptive form (see the `ablate-quadratic` experiment).
    Adaptive,
    /// Linear (`α = 1`), for ablation.
    Linear,
    /// Cubic (`α = 3`), for ablation.
    Cubic,
}

/// One tier's endpoint measurements: unloaded latency, full-load latency
/// and the component stalls when the tier serves the whole footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierEndpoint {
    /// `L_idle` in cycles (Intel-MLC-style probe).
    pub idle_latency: f64,
    /// `L_full` in cycles (measured with the workload's full footprint on
    /// this tier).
    pub full_latency: f64,
    /// Endpoint component stalls.
    pub stalls: ComponentStalls,
    /// Latency-curve exponent policy.
    pub curve: LatencyCurve,
}

impl TierEndpoint {
    /// Builds an endpoint with the default adaptive latency curve.
    pub fn new(idle_latency: f64, full_latency: f64, stalls: ComponentStalls) -> Self {
        TierEndpoint {
            idle_latency,
            full_latency,
            stalls,
            curve: LatencyCurve::Adaptive,
        }
    }

    /// Validating constructor: rejects non-finite latencies, negative
    /// idle latency, and inverted endpoints (full-load latency below the
    /// unloaded latency — [`TierEndpoint::latency`] would silently clamp
    /// the contention term to zero, hiding a measurement or configuration
    /// bug).
    pub fn try_new(
        idle_latency: f64,
        full_latency: f64,
        stalls: ComponentStalls,
    ) -> Result<Self, ModelError> {
        if !idle_latency.is_finite()
            || !full_latency.is_finite()
            || idle_latency < 0.0
            || full_latency < idle_latency
        {
            return Err(ModelError::InvalidEndpoint { idle: idle_latency, full: full_latency });
        }
        Ok(TierEndpoint::new(idle_latency, full_latency, stalls))
    }

    fn exponent(&self) -> f64 {
        match self.curve {
            LatencyCurve::Quadratic => 2.0,
            LatencyCurve::Linear => 1.0,
            LatencyCurve::Cubic => 3.0,
            LatencyCurve::Adaptive => {
                if self.full_latency > 0.0 {
                    1.0 + (self.idle_latency / self.full_latency).clamp(0.0, 1.0)
                } else {
                    2.0
                }
            }
        }
    }

    /// Eq. 8: per-tier latency when the tier serves load share
    /// `x' ∈ [0, 1]`.
    pub fn latency(&self, x_prime: f64) -> f64 {
        let contention = (self.full_latency - self.idle_latency).max(0.0);
        self.idle_latency + contention * x_prime.max(0.0).powf(self.exponent())
    }

    /// Eq. 9: the load scaling factor `M(x') = x'·L(x') / L_full`.
    pub fn load_scale(&self, x_prime: f64) -> f64 {
        if self.full_latency <= 0.0 {
            return x_prime;
        }
        x_prime * self.latency(x_prime) / self.full_latency.max(self.idle_latency)
    }
}

/// The synthesized interleaving performance model for one workload on one
/// (platform, slow device) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleaveModel {
    /// DRAM endpoint.
    pub dram: TierEndpoint,
    /// Slow-tier endpoint (measured, or synthesized from the §4 predictor
    /// for latency-bound workloads).
    pub slow: TierEndpoint,
    /// Baseline DRAM-run cycles (the normalisation `c` of Eq. 10).
    pub baseline_cycles: f64,
    /// Classification that decided the workflow.
    pub boundness: Boundness,
    /// Number of profiling runs consumed (1 or 2).
    pub profiling_runs: u8,
}

impl InterleaveModel {
    /// Returns a copy of the model with both tiers using the given latency
    /// curve (for the Eq. 8 ablation).
    pub fn with_latency_curve(mut self, curve: LatencyCurve) -> Self {
        self.dram.curve = curve;
        self.slow.curve = curve;
        self
    }

    /// Builds the model from two endpoint runs (the bandwidth-bound
    /// workflow of Figure 12), rejecting degenerate inputs with a typed
    /// error: a `slow` run with no slow tier ([`ModelError::MissingSlowTier`])
    /// or signatures carrying NaN/∞ ([`ModelError::NonFiniteSignature`]).
    /// Measured loaded latencies marginally below idle (per-request jitter)
    /// are clamped to the idle latency.
    pub fn try_from_endpoint_runs(dram: &RunReport, slow: &RunReport) -> Result<Self, ModelError> {
        let Some(slow_tier) = slow.slow_tier.as_ref() else {
            return Err(ModelError::MissingSlowTier { workload: slow.workload.clone() });
        };
        let sig_d = Signature::from_report(dram);
        let sig_s = Signature::from_report(slow);
        sig_d.check(&dram.workload)?;
        sig_s.check(&slow.workload)?;
        let endpoint = |idle: f64, loaded: Option<f64>, stalls: ComponentStalls| {
            TierEndpoint::try_new(idle, loaded.unwrap_or(idle).max(idle), stalls)
        };
        Ok(InterleaveModel {
            dram: endpoint(
                dram.fast_tier.idle_latency_cycles,
                dram.fast_tier.avg_read_latency(),
                ComponentStalls::from_signature(&sig_d),
            )?,
            slow: endpoint(
                slow_tier.idle_latency_cycles,
                slow_tier.avg_read_latency(),
                ComponentStalls::from_signature(&sig_s),
            )?,
            baseline_cycles: dram.cycles,
            boundness: Boundness::BandwidthBound,
            profiling_runs: 2,
        })
    }

    /// Panicking wrapper around [`InterleaveModel::try_from_endpoint_runs`].
    ///
    /// # Panics
    ///
    /// Panics with the [`ModelError`] diagnostic if `slow` has no slow
    /// tier or a signature is non-finite.
    pub fn from_endpoint_runs(dram: &RunReport, slow: &RunReport) -> Self {
        Self::try_from_endpoint_runs(dram, slow).unwrap_or_else(|error| panic!("{error}"))
    }

    /// Builds the latency-bound model from a bare signature — no
    /// [`RunReport`] at all. This is the serving-layer path: a remote
    /// client ships the DRAM-run signature over the wire, and both tiers'
    /// latencies come from the predictor's calibration (unloaded, as in
    /// [`InterleaveModel::from_dram_run`] — without a run there is no
    /// loaded-latency measurement, so the one-run workflow is the only one
    /// available). Rejects non-finite signatures with a typed error naming
    /// `label`.
    pub fn try_from_signature(
        sig: &Signature,
        predictor: &CampPredictor,
        label: &str,
    ) -> Result<Self, ModelError> {
        sig.check(label)?;
        let calib = predictor.calibration();
        let prediction = predictor.predict_signature(sig);
        let c = sig.cycles;
        Ok(InterleaveModel {
            dram: TierEndpoint::new(
                calib.dram_idle_latency,
                calib.dram_idle_latency,
                ComponentStalls::from_signature(sig),
            ),
            slow: TierEndpoint::new(
                calib.slow_idle_latency,
                calib.slow_idle_latency,
                ComponentStalls {
                    llc: sig.s_llc + prediction.drd * c,
                    cache: sig.s_cache + prediction.cache * c,
                    sb: sig.s_sb + prediction.store * c,
                },
            ),
            baseline_cycles: c,
            boundness: Boundness::LatencyBound,
            profiling_runs: 1,
        })
    }

    /// Builds the model from a single DRAM run (the latency-bound workflow
    /// of Figure 12): the slow endpoint's stalls are synthesized from the
    /// §4 predictor, and per-tier latency is taken as unloaded.
    pub fn from_dram_run(dram: &RunReport, predictor: &CampPredictor) -> Self {
        let sig_d = Signature::from_report(dram);
        let prediction = predictor.predict_report(dram);
        let c = dram.cycles;
        let slow_idle = predictor.calibration().slow_idle_latency;
        InterleaveModel {
            dram: TierEndpoint::new(
                dram.fast_tier.idle_latency_cycles,
                dram.fast_tier.idle_latency_cycles,
                ComponentStalls::from_signature(&sig_d),
            ),
            slow: TierEndpoint::new(
                slow_idle,
                slow_idle,
                ComponentStalls {
                    llc: sig_d.s_llc + prediction.drd * c,
                    cache: sig_d.s_cache + prediction.cache * c,
                    sb: sig_d.s_sb + prediction.store * c,
                },
            ),
            baseline_cycles: c,
            boundness: Boundness::LatencyBound,
            profiling_runs: 1,
        }
    }

    /// Runs the Figure 12 profiling workflow for `workload` — classify the
    /// DRAM run with tolerance `tau`, then take the one- or two-run path —
    /// returning every failure (invalid machine configuration, degenerate
    /// or non-finite runs) as a typed error instead of panicking. No
    /// `expect`/`assert!` is reachable from here on invalid input: the
    /// simulations go through [`Machine::try_run`], the two-run model
    /// through [`InterleaveModel::try_from_endpoint_runs`], and the one-run
    /// model is built only from a DRAM signature that passed
    /// [`Signature::check`].
    pub fn try_profile(
        platform: Platform,
        device: DeviceKind,
        workload: &dyn Workload,
        predictor: &CampPredictor,
        tau: f64,
    ) -> Result<Self, ModelError> {
        let dram = Machine::dram_only(platform).try_run(workload)?;
        match try_classify(&dram, tau)? {
            Boundness::LatencyBound => {
                Signature::from_report(&dram).check(&dram.workload)?;
                Ok(Self::from_dram_run(&dram, predictor))
            }
            Boundness::BandwidthBound => {
                let slow = Machine::slow_only(platform, device).try_run(workload)?;
                Self::try_from_endpoint_runs(&dram, &slow)
            }
        }
    }

    /// Panicking wrapper around [`InterleaveModel::try_profile`]. The
    /// degenerate-run classification failure is mapped to the documented
    /// [`classify`] policy (latency-bound, one-run path) rather than a
    /// panic, matching the historical behaviour of this entry point.
    ///
    /// # Panics
    ///
    /// Panics with the [`ModelError`] diagnostic on invalid machine
    /// configurations or non-finite signatures.
    pub fn profile(
        platform: Platform,
        device: DeviceKind,
        workload: &dyn Workload,
        predictor: &CampPredictor,
        tau: f64,
    ) -> Self {
        match Self::try_profile(platform, device, workload, predictor, tau) {
            Ok(model) => model,
            Err(ModelError::DegenerateRun { .. }) => {
                let dram = Machine::dram_only(platform).run(workload);
                Self::from_dram_run(&dram, predictor)
            }
            Err(error) => panic!("{error}"),
        }
    }

    /// Eq. 10 applied per component: predicted slowdown at DRAM fraction
    /// `x ∈ [0, 1]`, relative to the DRAM-only baseline.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, 1]`.
    pub fn predict_components(&self, x: f64) -> SlowdownPrediction {
        assert!((0.0..=1.0).contains(&x), "ratio must be in [0,1]");
        let c = self.baseline_cycles.max(1.0);
        let m_fast = self.dram.load_scale(x);
        let m_slow = self.slow.load_scale(1.0 - x);
        let combine = |s_dram: f64, s_slow: f64| (m_fast * s_dram + m_slow * s_slow - s_dram) / c;
        SlowdownPrediction {
            drd: combine(self.dram.stalls.llc, self.slow.stalls.llc),
            cache: combine(self.dram.stalls.cache, self.slow.stalls.cache),
            store: combine(self.dram.stalls.sb, self.slow.stalls.sb),
        }
    }

    /// Total predicted slowdown at ratio `x`.
    pub fn predict_total(&self, x: f64) -> f64 {
        self.predict_components(x).total()
    }

    /// Synthesizes the full performance curve at `steps + 1` evenly spaced
    /// ratios from 0 to 1 (the paper sweeps 101).
    pub fn curve(&self, steps: usize) -> Vec<(f64, f64)> {
        (0..=steps)
            .map(|i| {
                let x = i as f64 / steps as f64;
                (x, self.predict_total(x))
            })
            .collect()
    }
}

/// The Best-shot interleaving decision (§6.1): the ratio minimising
/// predicted slowdown, with its prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestShot {
    /// Chosen DRAM fraction.
    pub ratio: f64,
    /// Predicted slowdown at that ratio (negative = faster than
    /// DRAM-only).
    pub predicted_slowdown: f64,
}

/// Analytically selects the best interleaving ratio on a percent grid
/// (Best-shot never needs iterative *execution* — the search is over the
/// closed-form curve).
pub fn best_shot(model: &InterleaveModel) -> BestShot {
    let mut best = BestShot {
        ratio: 1.0,
        predicted_slowdown: model.predict_total(1.0),
    };
    for i in 0..=100 {
        let x = i as f64 / 100.0;
        let s = model.predict_total(x);
        if s < best.predicted_slowdown {
            best = BestShot { ratio: x, predicted_slowdown: s };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint(idle: f64, full: f64, llc: f64) -> TierEndpoint {
        TierEndpoint::new(idle, full, ComponentStalls { llc, cache: 0.0, sb: 0.0 })
    }

    #[test]
    fn latency_curve_is_quadratic_between_idle_and_full() {
        let mut tier = endpoint(200.0, 600.0, 0.0);
        tier.curve = LatencyCurve::Quadratic;
        assert_eq!(tier.latency(0.0), 200.0);
        assert_eq!(tier.latency(1.0), 600.0);
        assert_eq!(tier.latency(0.5), 300.0); // 200 + 400*0.25
    }

    #[test]
    fn adaptive_exponent_tracks_saturation_depth() {
        // Mild contention: exponent near 2 (the paper's quadratic).
        let mild = endpoint(200.0, 210.0, 0.0);
        assert!((mild.exponent() - 1.95).abs() < 0.01);
        // Deep saturation: exponent approaches linear.
        let saturated = endpoint(200.0, 1800.0, 0.0);
        assert!(saturated.exponent() < 1.15, "alpha {}", saturated.exponent());
        // Both interpolate the endpoints exactly.
        assert_eq!(saturated.latency(0.0), 200.0);
        assert_eq!(saturated.latency(1.0), 1800.0);
    }

    #[test]
    fn uncontended_tier_scales_linearly() {
        // No contention (L_full == L_idle): M(x') == x'.
        let tier = endpoint(200.0, 200.0, 0.0);
        for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!((tier.load_scale(x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn contended_tier_scales_supra_linearly() {
        let tier = endpoint(200.0, 800.0, 0.0);
        // M grows like x·(L_idle + ΔL·x²)/L_full: below x near 1 it is
        // below linear-in-endpoint terms, and M(1) == 1.
        assert!((tier.load_scale(1.0) - 1.0).abs() < 1e-12);
        assert!(tier.load_scale(0.5) < 0.5, "shifting load off a contended tier helps");
    }

    #[test]
    fn endpoints_recover_endpoint_slowdowns() {
        let model = InterleaveModel {
            dram: endpoint(200.0, 200.0, 100.0),
            slow: endpoint(400.0, 400.0, 500.0),
            baseline_cycles: 1000.0,
            boundness: Boundness::LatencyBound,
            profiling_runs: 1,
        };
        // x = 1: all DRAM, no slowdown.
        assert!(model.predict_total(1.0).abs() < 1e-12);
        // x = 0: all slow: S = (s_slow - s_dram)/c = 0.4.
        assert!((model.predict_total(0.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn latency_bound_curve_is_monotone() {
        let model = InterleaveModel {
            dram: endpoint(200.0, 200.0, 100.0),
            slow: endpoint(400.0, 400.0, 500.0),
            baseline_cycles: 1000.0,
            boundness: Boundness::LatencyBound,
            profiling_runs: 1,
        };
        let curve = model.curve(20);
        for pair in curve.windows(2) {
            assert!(pair[0].1 >= pair[1].1 - 1e-12, "more DRAM never hurts when latency-bound");
        }
        assert_eq!(best_shot(&model).ratio, 1.0);
    }

    #[test]
    fn contended_dram_produces_a_bathtub() {
        // Heavy DRAM contention at the endpoint: shifting some load to an
        // uncontended slow tier wins.
        let model = InterleaveModel {
            dram: endpoint(200.0, 900.0, 2000.0),
            slow: endpoint(420.0, 700.0, 3500.0),
            baseline_cycles: 2500.0,
            boundness: Boundness::BandwidthBound,
            profiling_runs: 2,
        };
        let best = best_shot(&model);
        assert!(best.ratio > 0.3 && best.ratio < 1.0, "ratio {}", best.ratio);
        assert!(
            best.predicted_slowdown < 0.0,
            "interleaving should beat DRAM-only, got {}",
            best.predicted_slowdown
        );
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn out_of_range_ratio_rejected() {
        let model = InterleaveModel {
            dram: endpoint(1.0, 1.0, 0.0),
            slow: endpoint(2.0, 2.0, 0.0),
            baseline_cycles: 1.0,
            boundness: Boundness::LatencyBound,
            profiling_runs: 1,
        };
        let _ = model.predict_total(1.5);
    }

    #[test]
    fn components_sum_to_the_total() {
        let model = InterleaveModel {
            dram: TierEndpoint::new(
                200.0,
                450.0,
                ComponentStalls { llc: 500.0, cache: 300.0, sb: 100.0 },
            ),
            slow: TierEndpoint::new(
                420.0,
                900.0,
                ComponentStalls { llc: 1500.0, cache: 700.0, sb: 250.0 },
            ),
            baseline_cycles: 4000.0,
            boundness: Boundness::BandwidthBound,
            profiling_runs: 2,
        };
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            let components = model.predict_components(x);
            assert!((components.total() - model.predict_total(x)).abs() < 1e-12, "x = {x}");
        }
    }

    fn synthetic_report(reads: u64, total_read_latency: f64) -> RunReport {
        use camp_sim::mem::DeviceStats;
        use camp_sim::report::TierReport;
        RunReport {
            workload: "synthetic".into(),
            platform: Platform::Spr2s,
            threads: 1,
            counters: camp_pmu::CounterSet::new(),
            cycles: 1000.0,
            instructions: 1000,
            seconds: 1e-6,
            fast_tier: TierReport {
                device: DeviceKind::LocalDram,
                stats: DeviceStats { reads, total_read_latency, ..Default::default() },
                idle_latency_cycles: 239.4,
            },
            slow_tier: None,
            epochs: Vec::new(),
        }
    }

    #[test]
    fn degenerate_run_without_demand_reads_is_a_typed_error() {
        // Zero demand reads: no loaded latency exists, so the τ test is
        // meaningless. try_classify surfaces it; classify falls back to
        // the documented latency-bound policy.
        let report = synthetic_report(0, 0.0);
        let error = try_classify(&report, DEFAULT_TAU).unwrap_err();
        assert_eq!(
            error,
            ModelError::DegenerateRun {
                workload: "synthetic".into(),
                reason: "DRAM run served no demand reads, so no loaded latency exists to classify",
            }
        );
        assert!(error.to_string().contains("'synthetic'"));
        assert_eq!(classify(&report, DEFAULT_TAU), Boundness::LatencyBound);
        // A run with demand reads still classifies normally.
        let loaded = synthetic_report(10, 10.0 * 600.0);
        assert_eq!(try_classify(&loaded, DEFAULT_TAU), Ok(Boundness::BandwidthBound));
    }

    #[test]
    fn endpoint_runs_without_slow_tier_are_a_typed_error() {
        let dram = synthetic_report(10, 10.0 * 250.0);
        let error = InterleaveModel::try_from_endpoint_runs(&dram, &dram).unwrap_err();
        assert_eq!(error, ModelError::MissingSlowTier { workload: "synthetic".into() });
    }

    #[test]
    fn inverted_or_non_finite_endpoints_are_rejected() {
        let stalls = ComponentStalls::default();
        assert!(matches!(
            TierEndpoint::try_new(400.0, 200.0, stalls),
            Err(ModelError::InvalidEndpoint { idle: 400.0, full: 200.0 })
        ));
        assert!(TierEndpoint::try_new(f64::NAN, 200.0, stalls).is_err());
        assert!(TierEndpoint::try_new(200.0, f64::INFINITY, stalls).is_err());
        assert!(TierEndpoint::try_new(-1.0, 200.0, stalls).is_err());
        assert!(TierEndpoint::try_new(200.0, 200.0, stalls).is_ok());
    }

    #[test]
    fn signature_only_model_matches_the_dram_run_path() {
        use crate::calibration::Calibration;
        // The serving-layer constructor must agree with the historical
        // from_dram_run path when fed the same signature, up to the two
        // sources it cannot share with a report in hand: the DRAM idle
        // latency (calibration vs run report) and the cycle base
        // (counter-view `sig.cycles` vs report wall cycles, which differ
        // at ~1e-9 relative on this substrate).
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b.abs().max(1.0);
        let calib = Calibration::fit(Platform::Spr2s, DeviceKind::CxlA);
        let predictor = CampPredictor::new(calib);
        let workload = camp_workloads::find("spec.505.mcf-1t").expect("in suite");
        let dram = Machine::dram_only(Platform::Spr2s).run(workload.as_ref());
        let sig = Signature::from_report(&dram);
        let from_run = InterleaveModel::from_dram_run(&dram, &predictor);
        let from_sig =
            InterleaveModel::try_from_signature(&sig, &predictor, "wire").expect("finite");
        assert_eq!(from_sig.slow.idle_latency, from_run.slow.idle_latency);
        assert!(close(from_sig.slow.stalls.llc, from_run.slow.stalls.llc));
        assert!(close(from_sig.slow.stalls.cache, from_run.slow.stalls.cache));
        assert!(close(from_sig.slow.stalls.sb, from_run.slow.stalls.sb));
        assert!(close(from_sig.baseline_cycles, from_run.baseline_cycles));
        assert_eq!(from_sig.profiling_runs, 1);
        assert!(close(from_sig.predict_total(0.5), from_run.predict_total(0.5)));
        // Non-finite signatures are rejected with the label.
        let mut broken = sig;
        broken.r_mem = f64::INFINITY;
        let error = InterleaveModel::try_from_signature(&broken, &predictor, "wire").unwrap_err();
        assert!(error.to_string().contains("'wire'"), "{error}");
    }

    #[test]
    fn curve_has_requested_resolution() {
        let model = InterleaveModel {
            dram: endpoint(1.0, 1.0, 10.0),
            slow: endpoint(2.0, 2.0, 20.0),
            baseline_cycles: 100.0,
            boundness: Boundness::LatencyBound,
            profiling_runs: 1,
        };
        let curve = model.curve(100);
        assert_eq!(curve.len(), 101);
        assert_eq!(curve[0].0, 0.0);
        assert_eq!(curve[100].0, 1.0);
    }
}
