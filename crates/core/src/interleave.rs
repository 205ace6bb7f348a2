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
use camp_sim::RunReport;
use std::borrow::Borrow;

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
/// §5.3). A run is [`Boundness::BandwidthBound`] only when its loaded
/// latency exists, both latencies are finite, and loaded exceeds idle by
/// more than `tau`. Every other run takes the one-run workflow: a run
/// whose DRAM controller served no demand reads cannot saturate a memory
/// tier, and the cheap path suits a workload that barely touches memory.
pub fn classify(dram: &RunReport, tau: f64) -> Boundness {
    let idle = dram.fast_tier.idle_latency_cycles;
    match dram.fast_tier.avg_read_latency() {
        Some(loaded) if loaded.is_finite() && idle.is_finite() && loaded > idle * (1.0 + tau) => {
            Boundness::BandwidthBound
        }
        _ => Boundness::LatencyBound,
    }
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
        TierCurve::new(self).latency(x_prime)
    }

    /// Eq. 9: the load scaling factor `M(x') = x'·L(x') / L_full`.
    pub fn load_scale(&self, x_prime: f64) -> f64 {
        TierCurve::new(self).load_scale(x_prime)
    }
}

/// One tier's Eq. 8–9 constants, derived from a [`TierEndpoint`] once per
/// evaluation so a sweep over ratios does not re-derive them per point.
/// Every public evaluation goes through here.
struct TierCurve {
    idle: f64,
    /// `(L_full − L_idle).max(0)`: never NaN.
    contention: f64,
    /// The curve's exponent: NaN or in `[1, 3]`.
    exponent: f64,
    /// Eq. 9's denominator, `L_full.max(L_idle)`.
    full: f64,
    /// `L_full ≤ 0`: Eq. 9 has no meaningful normalisation, so `M(x') = x'`.
    identity: bool,
    /// No contention and a non-NaN exponent: `L(x') = L_idle + contention`
    /// for every load share in `[+0, 1]`.
    flat: bool,
}

impl TierCurve {
    fn new(tier: &TierEndpoint) -> Self {
        let contention = (tier.full_latency - tier.idle_latency).max(0.0);
        let exponent = tier.exponent();
        TierCurve {
            idle: tier.idle_latency,
            contention,
            exponent,
            full: tier.full_latency.max(tier.idle_latency),
            identity: tier.full_latency <= 0.0,
            flat: contention == 0.0 && !exponent.is_nan(),
        }
    }

    fn latency(&self, x_prime: f64) -> f64 {
        let load = x_prime.max(0.0);
        // For a sign-positive load ≤ 1 and an exponent in [1, 3], `powf`
        // is a finite non-negative number, so a zero contention times it
        // is that same zero: skipping the call keeps every bit. (`f64::max`
        // may return either zero, hence the sign test; a load of +∞ or a
        // NaN exponent would make the product NaN.)
        if self.flat && load.is_sign_positive() && load <= 1.0 {
            return self.idle + self.contention;
        }
        self.idle + self.contention * load.powf(self.exponent)
    }

    fn load_scale(&self, x_prime: f64) -> f64 {
        if self.identity {
            return x_prime;
        }
        x_prime * self.latency(x_prime) / self.full
    }

    /// [`TierCurve::load_scale`] at `share(i)` into every `out[i]`, one
    /// loop per kind of tier. Every share must lie in `[+0, 1]`, where a
    /// flat tier's latency is `L_idle + contention` at every point: its
    /// loop and the identity's hold no branch and no `powf`, so they
    /// vectorize; a contended tier keeps `powf` per point.
    fn load_scales(&self, share: impl Fn(usize) -> f64, out: &mut [f64]) {
        if self.identity {
            for (i, m) in out.iter_mut().enumerate() {
                *m = share(i);
            }
        } else if self.flat {
            let latency = self.idle + self.contention;
            for (i, m) in out.iter_mut().enumerate() {
                *m = share(i) * latency / self.full;
            }
        } else {
            for (i, m) in out.iter_mut().enumerate() {
                *m = self.load_scale(share(i));
            }
        }
    }
}

/// A model's Eq. 10 evaluator: both tiers' constants plus the endpoint
/// stalls and the normalisation, built once per public call.
struct ModelCurve {
    dram: TierCurve,
    slow: TierCurve,
    dram_stalls: ComponentStalls,
    slow_stalls: ComponentStalls,
    c: f64,
}

impl ModelCurve {
    fn new(model: &InterleaveModel) -> Self {
        ModelCurve {
            dram: TierCurve::new(&model.dram),
            slow: TierCurve::new(&model.slow),
            dram_stalls: model.dram.stalls,
            slow_stalls: model.slow.stalls,
            c: model.baseline_cycles.max(1.0),
        }
    }

    fn components(&self, x: f64) -> SlowdownPrediction {
        assert!((0.0..=1.0).contains(&x), "ratio must be in [0,1]");
        let m_fast = self.dram.load_scale(x);
        let m_slow = self.slow.load_scale(1.0 - x);
        let combine =
            |s_dram: f64, s_slow: f64| (m_fast * s_dram + m_slow * s_slow - s_dram) / self.c;
        SlowdownPrediction {
            drd: combine(self.dram_stalls.llc, self.slow_stalls.llc),
            cache: combine(self.dram_stalls.cache, self.slow_stalls.cache),
            store: combine(self.dram_stalls.sb, self.slow_stalls.sb),
        }
    }

    fn total(&self, x: f64) -> f64 {
        self.components(x).total()
    }

    /// [`ModelCurve::total`] at every ratio `x_i = ratio(i)` of a grid,
    /// evaluated as arrays: each tier's load scales over the whole grid,
    /// then Eq. 10 per point. `totals` and `m_slow` hold one entry per
    /// point; `m_slow` is scratch. Every `ratio(i)` must lie in `[+0, 1]`;
    /// every point is then the bits of `total(x_i)`.
    fn grid_totals(&self, ratio: impl Fn(usize) -> f64, totals: &mut [f64], m_slow: &mut [f64]) {
        // 1 − x_i lies in [+0, 1] too (1 − 1 is +0).
        self.dram.load_scales(&ratio, totals);
        self.slow.load_scales(|i| 1.0 - ratio(i), m_slow);
        let (dram, slow, c) = (&self.dram_stalls, &self.slow_stalls, self.c);
        for (total, &m_slow) in totals.iter_mut().zip(m_slow.iter()) {
            let m_fast = *total;
            let combine =
                |s_dram: f64, s_slow: f64| (m_fast * s_dram + m_slow * s_slow - s_dram) / c;
            *total = SlowdownPrediction {
                drd: combine(dram.llc, slow.llc),
                cache: combine(dram.cache, slow.cache),
                store: combine(dram.sb, slow.sb),
            }
            .total();
        }
    }
}

/// Best-shot's grid, `BEST_SHOT_RATIOS[i] = i / 100`: constant evaluation
/// rounds as IEEE 754 does, so each entry is the bits of the division at
/// run time, without a divide per point per call.
const BEST_SHOT_RATIOS: [f64; 101] = {
    let mut ratios = [0.0; 101];
    let mut i = 0;
    while i < ratios.len() {
        ratios[i] = i as f64 / 100.0;
        i += 1;
    }
    ratios
};

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
    /// or signatures carrying NaN/∞ ([`ModelError::NonFiniteSignature`]),
    /// and a tier whose idle latency is negative or non-finite, or whose
    /// loaded latency is non-finite ([`ModelError::InvalidEndpoint`]).
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
            let full = loaded.unwrap_or(idle).max(idle);
            if !idle.is_finite() || idle < 0.0 || !full.is_finite() {
                return Err(ModelError::InvalidEndpoint { idle, full });
            }
            Ok(TierEndpoint::new(idle, full, stalls))
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
        let dram_idle = predictor.calibration().dram_idle_latency;
        Ok(Self::one_run(sig, dram_idle, sig.cycles, predictor))
    }

    /// Builds the model from a single DRAM run (the latency-bound workflow
    /// of Figure 12): the slow endpoint's stalls are synthesized from the
    /// §4 predictor, and per-tier latency is taken as unloaded.
    pub fn from_dram_run(dram: &RunReport, predictor: &CampPredictor) -> Self {
        let sig = Signature::from_report(dram);
        Self::one_run(&sig, dram.fast_tier.idle_latency_cycles, dram.cycles, predictor)
    }

    /// The one-run model behind [`InterleaveModel::from_dram_run`] and
    /// [`InterleaveModel::try_from_signature`]: the DRAM tier unloaded at
    /// `dram_idle` with the signature's stalls, the slow tier unloaded at
    /// the calibration's idle latency with stalls synthesized from the §4
    /// predictor, and `c` the normalisation of Eq. 10.
    fn one_run(sig: &Signature, dram_idle: f64, c: f64, predictor: &CampPredictor) -> Self {
        let prediction = predictor.predict_signature(sig);
        let slow_idle = predictor.calibration().slow_idle_latency;
        InterleaveModel {
            dram: TierEndpoint::new(dram_idle, dram_idle, ComponentStalls::from_signature(sig)),
            slow: TierEndpoint::new(
                slow_idle,
                slow_idle,
                ComponentStalls {
                    llc: sig.s_llc + prediction.drd * c,
                    cache: sig.s_cache + prediction.cache * c,
                    sb: sig.s_sb + prediction.store * c,
                },
            ),
            baseline_cycles: c,
            boundness: Boundness::LatencyBound,
            profiling_runs: 1,
        }
    }

    /// Runs the Figure 12 profiling workflow over endpoint runs the caller
    /// already holds: classify the DRAM run with tolerance `tau`, then
    /// take the one-run path (the DRAM signature, checked, through
    /// [`InterleaveModel::from_dram_run`]) or the two-run path
    /// ([`InterleaveModel::try_from_endpoint_runs`]). `slow` yields the
    /// run on the slow tier; it is called only for a bandwidth-bound
    /// workload, and at most once. Nothing here simulates.
    pub fn profile<R: Borrow<RunReport>>(
        dram: &RunReport,
        slow: impl FnOnce() -> R,
        predictor: &CampPredictor,
        tau: f64,
    ) -> Result<Self, ModelError> {
        match classify(dram, tau) {
            Boundness::LatencyBound => {
                Signature::from_report(dram).check(&dram.workload)?;
                Ok(Self::from_dram_run(dram, predictor))
            }
            Boundness::BandwidthBound => Self::try_from_endpoint_runs(dram, slow().borrow()),
        }
    }

    /// Eq. 10 applied per component: predicted slowdown at DRAM fraction
    /// `x ∈ [0, 1]`, relative to the DRAM-only baseline.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, 1]`.
    pub fn predict_components(&self, x: f64) -> SlowdownPrediction {
        ModelCurve::new(self).components(x)
    }

    /// Total predicted slowdown at ratio `x`.
    pub fn predict_total(&self, x: f64) -> f64 {
        ModelCurve::new(self).total(x)
    }

    /// Synthesizes the full performance curve at `steps + 1` evenly spaced
    /// ratios from 0 to 1 (the paper sweeps 101).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is 0.
    pub fn curve(&self, steps: usize) -> Vec<(f64, f64)> {
        // 0 steps would make the one ratio 0/0.
        assert!(steps > 0, "ratio must be in [0,1]");
        let ratio = |i: usize| i as f64 / steps as f64;
        let mut totals = vec![0.0; steps + 1];
        ModelCurve::new(self).grid_totals(ratio, &mut totals, &mut vec![0.0; steps + 1]);
        totals.into_iter().enumerate().map(|(i, total)| (ratio(i), total)).collect()
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
///
/// The search starts from DRAM-only (ratio 1.0) and visits the ratios
/// `0.00, 0.01, …, 0.99` in ascending order, moving only to a point whose
/// predicted slowdown is strictly lower than the best so far: of equal
/// minima the lowest ratio wins, a curve that never dips below its
/// DRAM-only value keeps ratio 1.0, and so does a NaN at ratio 1.0.
///
/// The model's constants are derived once per call, and the 101-point
/// grid is evaluated as arrays on the stack (no state outlives the call):
/// each tier's Eq. 9 load scale over every grid share in one loop, then
/// Eq. 10 per point, then the search over the totals; the ratios `i / 100`
/// themselves are constants. On a tier without contention (`L_full ≤
/// L_idle`, as on every model from [`InterleaveModel::try_from_signature`])
/// Eq. 8's `powf` is skipped: there `contention · x'^α` is a zero of
/// `contention`'s own sign for every share `x' ∈ [+0, 1]`, so such a
/// tier's loop is a branch-free divide that the compiler vectorizes. Every
/// point keeps the operations and their order of the one-point
/// [`InterleaveModel::predict_total`], so the result is bit-identical to
/// evaluating the full formula point by point.
pub fn best_shot(model: &InterleaveModel) -> BestShot {
    let mut totals = [0.0; 101];
    ModelCurve::new(model).grid_totals(|i| BEST_SHOT_RATIOS[i], &mut totals, &mut [0.0; 101]);
    let mut best = 100;
    for (i, &s) in totals[..100].iter().enumerate() {
        if s < totals[best] {
            best = i;
        }
    }
    BestShot {
        ratio: BEST_SHOT_RATIOS[best],
        predicted_slowdown: totals[best],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_sim::{DeviceKind, Machine, Platform};

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

    fn synthetic_predictor() -> CampPredictor {
        CampPredictor::new(crate::calibration::Calibration {
            platform: Platform::Spr2s,
            device: DeviceKind::CxlA,
            hyperbola: crate::stats::Hyperbola { p: 1.2, q: 40.0 },
            k_drd: 1.5,
            k_drd_aol: 1.5,
            l3_hit_latency: 52.0,
            k_cache: 2.0,
            k_store: 0.8,
            dram_idle_latency: 239.4,
            slow_idle_latency: 449.4,
            samples: 0,
        })
    }

    fn no_slow_run() -> RunReport {
        panic!("a latency-bound profile must not request the slow-tier run")
    }

    #[test]
    fn runs_without_a_finite_loaded_latency_take_the_one_run_path() {
        // Zero demand reads: no loaded latency exists, so the τ test is
        // meaningless and the run cannot have saturated DRAM. A NaN or
        // infinite latency is not bandwidth-bound either.
        let predictor = synthetic_predictor();
        for report in [
            synthetic_report(0, 0.0),
            synthetic_report(10, f64::NAN),
            synthetic_report(10, f64::INFINITY),
        ] {
            assert_eq!(classify(&report, DEFAULT_TAU), Boundness::LatencyBound);
            let model = InterleaveModel::profile(&report, no_slow_run, &predictor, DEFAULT_TAU)
                .expect("one-run model");
            assert_eq!(model, InterleaveModel::from_dram_run(&report, &predictor));
            assert_eq!(model.profiling_runs, 1);
        }
        let mut idle_nan = synthetic_report(10, 10.0 * 600.0);
        idle_nan.fast_tier.idle_latency_cycles = f64::NAN;
        assert_eq!(classify(&idle_nan, DEFAULT_TAU), Boundness::LatencyBound);
        // A run with demand reads still classifies on its loaded latency.
        let loaded = synthetic_report(10, 10.0 * 600.0);
        assert_eq!(classify(&loaded, DEFAULT_TAU), Boundness::BandwidthBound);
        let unloaded = synthetic_report(10, 10.0 * 250.0);
        assert_eq!(classify(&unloaded, DEFAULT_TAU), Boundness::LatencyBound);
    }

    #[test]
    fn endpoint_runs_without_slow_tier_are_a_typed_error() {
        let dram = synthetic_report(10, 10.0 * 250.0);
        let error = InterleaveModel::try_from_endpoint_runs(&dram, &dram).unwrap_err();
        assert_eq!(error, ModelError::MissingSlowTier { workload: "synthetic".into() });
        // A bandwidth-bound profile asks for the slow run exactly once and
        // rejects one that never ran on a slow tier.
        let loaded = synthetic_report(10, 10.0 * 600.0);
        let mut calls = 0;
        let slow = || {
            calls += 1;
            dram.clone()
        };
        let error = InterleaveModel::profile(&loaded, slow, &synthetic_predictor(), DEFAULT_TAU)
            .unwrap_err();
        assert_eq!(error, ModelError::MissingSlowTier { workload: "synthetic".into() });
        assert_eq!(calls, 1);
    }

    #[test]
    fn inverted_or_non_finite_endpoints_are_rejected() {
        // A loaded latency below idle (jitter) clamps to idle.
        let dram = synthetic_report(10, 10.0 * 250.0);
        let mut slow = synthetic_report(10, 10.0 * 400.0);
        slow.slow_tier = Some(camp_sim::report::TierReport {
            device: DeviceKind::CxlA,
            stats: slow.fast_tier.stats,
            idle_latency_cycles: 449.4,
        });
        let model = InterleaveModel::try_from_endpoint_runs(&dram, &slow).expect("valid runs");
        assert_eq!(model.slow.idle_latency, 449.4);
        assert_eq!(model.slow.full_latency, 449.4, "loaded below idle clamps to idle");
        assert_eq!(model.dram.full_latency, 250.0);
        // NaN or negative idle latency, or an infinite loaded latency, is
        // an invalid endpoint on either tier.
        let mut nan_idle = dram.clone();
        nan_idle.fast_tier.idle_latency_cycles = f64::NAN;
        let mut negative_idle = slow.clone();
        negative_idle.slow_tier.as_mut().unwrap().idle_latency_cycles = -1.0;
        let mut infinite_loaded = slow.clone();
        infinite_loaded.slow_tier.as_mut().unwrap().stats.total_read_latency = f64::INFINITY;
        for (dram, slow, what) in [
            (&nan_idle, &slow, "NaN idle"),
            (&dram, &negative_idle, "negative idle"),
            (&dram, &infinite_loaded, "infinite loaded"),
        ] {
            let error = InterleaveModel::try_from_endpoint_runs(dram, slow).unwrap_err();
            assert!(matches!(error, ModelError::InvalidEndpoint { .. }), "{what}: {error}");
        }
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
        let calib = Calibration::fit_with(Platform::Spr2s, DeviceKind::CxlA, &crate::tiny_probes());
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

    /// Best-shot as it read before the grid was evaluated as arrays: one
    /// [`ModelCurve::total`] per ratio. Kept verbatim as the reference.
    fn point_by_point_best_shot(model: &InterleaveModel) -> BestShot {
        let curve = ModelCurve::new(model);
        let mut best = BestShot { ratio: 1.0, predicted_slowdown: curve.total(1.0) };
        for i in 0..100 {
            let x = i as f64 / 100.0;
            let s = curve.total(x);
            if s < best.predicted_slowdown {
                best = BestShot { ratio: x, predicted_slowdown: s };
            }
        }
        best
    }

    #[test]
    fn grid_best_shot_matches_the_point_by_point_search_bit_for_bit() {
        use camp_workloads::rng::SplitMix;
        // Any NaN matches any NaN: Rust leaves a NaN result's sign and
        // payload unspecified.
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut rng = SplitMix::new(0x6e1d);
        let curves = [
            LatencyCurve::Adaptive,
            LatencyCurve::Quadratic,
            LatencyCurve::Linear,
            LatencyCurve::Cubic,
        ];
        let tier = |rng: &mut SplitMix| {
            let idle = 50.0 + rng.unit() * 1_000.0;
            let (idle, full) = match rng.below(5) {
                // Flat: the serving path's unloaded tiers.
                0 => (idle, idle),
                // Contended.
                1 => (idle, idle + rng.unit() * 3_000.0),
                // Identity: `L_full ≤ 0`.
                2 => (idle, -rng.unit() * 100.0),
                // NaN exponent: an adaptive curve over a NaN idle latency.
                3 => (f64::NAN, idle),
                // Loaded below idle: flat after the clamp.
                _ => (idle, idle - rng.unit() * 50.0),
            };
            // Stalls of either sign, negative ones included.
            let mut stall = || (rng.unit() - 0.25) * 1e7;
            let stalls = ComponentStalls { llc: stall(), cache: stall(), sb: stall() };
            let curve = curves[rng.below(4) as usize];
            TierEndpoint {
                idle_latency: idle,
                full_latency: full,
                stalls,
                curve,
            }
        };
        for case in 0..20_000 {
            let mut model = InterleaveModel {
                dram: tier(&mut rng),
                slow: tier(&mut rng),
                baseline_cycles: if rng.below(8) == 0 { 0.5 } else { 1e3 + rng.unit() * 1e9 },
                boundness: Boundness::BandwidthBound,
                profiling_runs: 2,
            };
            if rng.below(8) == 0 {
                // No stalls: a flat curve of equal minima, where the search
                // must keep ratio 1.0.
                let none = ComponentStalls { llc: 0.0, cache: 0.0, sb: 0.0 };
                (model.dram.stalls, model.slow.stalls) = (none, none);
            }
            let (got, want) = (best_shot(&model), point_by_point_best_shot(&model));
            assert!(
                same(got.ratio, want.ratio)
                    && same(got.predicted_slowdown, want.predicted_slowdown),
                "case {case}: {got:?} vs {want:?} for {model:?}"
            );
            let curve = ModelCurve::new(&model);
            for (x, total) in model.curve(100) {
                assert!(same(total, curve.total(x)), "case {case}: curve at {x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn a_curve_of_no_steps_is_rejected() {
        let _ = InterleaveModel {
            dram: endpoint(1.0, 1.0, 0.0),
            slow: endpoint(2.0, 2.0, 0.0),
            baseline_cycles: 1.0,
            boundness: Boundness::LatencyBound,
            profiling_runs: 1,
        }
        .curve(0);
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
