//! Randomised property tests for the CAMP model math, driven by the
//! deterministic SplitMix64 from `camp-workloads` (no external test
//! dependencies).

use camp_core::interleave::{
    best_shot, ComponentStalls, InterleaveModel, LatencyCurve, TierEndpoint,
};
use camp_core::stats::{self, Hyperbola};
use camp_core::{Calibration, CampPredictor, Signature, SlowdownPrediction};
use camp_pmu::{CounterSet, Event};
use camp_sim::{CounterFlavor, DeviceKind, Platform};
use camp_workloads::rng::SplitMix;

fn arb_counters(rng: &mut SplitMix) -> CounterSet {
    let mut set = CounterSet::new();
    for event in camp_pmu::event::ALL_EVENTS.iter() {
        set.set(*event, rng.below(1_000_000_000));
    }
    // Keep cycles positive so fractions are well-defined.
    if set.get(Event::Cycles) == 0 {
        set.set(Event::Cycles, 1);
    }
    set
}

fn synthetic_calibration() -> Calibration {
    Calibration {
        platform: Platform::Spr2s,
        device: DeviceKind::CxlA,
        hyperbola: Hyperbola { p: 1.0, q: 100.0 },
        k_drd: 1.2,
        k_drd_aol: 1.2,
        l3_hit_latency: 52.0,
        k_cache: 1.0,
        k_store: 0.7,
        dram_idle_latency: 239.4,
        slow_idle_latency: 449.4,
        samples: 0,
    }
}

/// Pearson is always within [-1, 1] when defined.
#[test]
fn pearson_is_bounded() {
    let mut rng = SplitMix::new(0xbea2);
    for case in 0..64 {
        let len = 2 + rng.below(198) as usize;
        let x: Vec<f64> = (0..len).map(|_| (rng.unit() - 0.5) * 2e6).collect();
        let y: Vec<f64> = (0..len).map(|_| (rng.unit() - 0.5) * 2e6).collect();
        if let Some(r) = stats::pearson(&x, &y) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "case {case}: r = {r}");
        }
    }
}

/// The hyperbolic fit recovers exact parameters from noiseless data.
#[test]
fn hyperbola_fit_recovers_truth() {
    let mut rng = SplitMix::new(0x44fe);
    for case in 0..64 {
        let p = 0.2 + rng.unit() * 4.8;
        let q = 1.0 + rng.unit() * 499.0;
        let truth = Hyperbola { p, q };
        let xs: Vec<f64> = (1..30).map(|i| i as f64 * 12.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = Hyperbola::fit(&xs, &ys).expect("fit succeeds");
        assert!((fit.p - p).abs() < 1e-6 * p.max(1.0), "case {case}: p {} vs {}", fit.p, p);
        assert!((fit.q - q).abs() < 1e-4 * q.max(1.0), "case {case}: q {} vs {}", fit.q, q);
    }
}

/// The predictor never produces NaN/negative components, whatever the
/// counter values.
#[test]
fn predictions_are_finite_and_nonnegative() {
    let mut rng = SplitMix::new(0x9afe);
    let predictor = CampPredictor::new(synthetic_calibration());
    for case in 0..64 {
        let counters = arb_counters(&mut rng);
        let prediction: SlowdownPrediction = predictor.predict(&counters);
        assert!(prediction.drd.is_finite() && prediction.drd >= 0.0, "case {case}");
        assert!(prediction.cache.is_finite() && prediction.cache >= 0.0, "case {case}");
        assert!(prediction.store.is_finite() && prediction.store >= 0.0, "case {case}");
        // Signatures stay finite too.
        let sig = Signature::from_counters(&counters, CounterFlavor::SprEmr);
        assert!(sig.latency.is_finite(), "case {case}");
        assert!(sig.mlp.is_finite(), "case {case}");
        assert!(sig.r_lfb_hit.is_finite() && (0.0..=1.0).contains(&sig.r_lfb_hit), "case {case}");
    }
}

/// Load scaling M(x') interpolates its endpoints: M(0) = 0, M(1) = 1, and
/// stays within [0, 1] in between for any endpoint latencies.
#[test]
fn load_scale_is_well_behaved() {
    let mut rng = SplitMix::new(0x10ad);
    for case in 0..64 {
        let idle = 10.0 + rng.unit() * 990.0;
        let extra = rng.unit() * 5_000.0;
        let tier = TierEndpoint::new(idle, idle + extra, ComponentStalls::default());
        assert!(tier.load_scale(0.0).abs() < 1e-12, "case {case}");
        assert!((tier.load_scale(1.0) - 1.0).abs() < 1e-9, "case {case}");
        for i in 1..10 {
            let x = i as f64 / 10.0;
            let m = tier.load_scale(x);
            assert!((0.0..=1.0 + 1e-9).contains(&m), "case {case}: M({x}) = {m}");
        }
    }
}

/// The interleaving predictor recovers its endpoints exactly for any
/// endpoint stalls.
#[test]
fn interleave_endpoints_are_exact() {
    let mut rng = SplitMix::new(0x1e4f);
    for case in 0..64 {
        let idle_d = 50.0 + rng.unit() * 450.0;
        let idle_s = 200.0 + rng.unit() * 1_800.0;
        let s_d = rng.unit() * 1e6;
        let s_s = rng.unit() * 1e6;
        let c = 1e5 + rng.unit() * (1e7 - 1e5);
        let model = InterleaveModel {
            dram: TierEndpoint::new(
                idle_d,
                idle_d,
                ComponentStalls { llc: s_d, cache: 0.0, sb: 0.0 },
            ),
            slow: TierEndpoint::new(
                idle_s,
                idle_s,
                ComponentStalls { llc: s_s, cache: 0.0, sb: 0.0 },
            ),
            baseline_cycles: c,
            boundness: camp_core::Boundness::LatencyBound,
            profiling_runs: 1,
        };
        assert!(model.predict_total(1.0).abs() < 1e-9, "case {case}");
        let endpoint = model.predict_total(0.0);
        assert!((endpoint - (s_s - s_d) / c).abs() < 1e-9, "case {case}");
    }
}

/// The Eq. 8–10 formulas and the Best-shot search exactly as they read
/// before the per-call curve evaluator: the reference every evaluation
/// must match bit for bit.
mod reference {
    use camp_core::interleave::{BestShot, InterleaveModel, LatencyCurve, TierEndpoint};
    use camp_core::SlowdownPrediction;

    fn exponent(tier: &TierEndpoint) -> f64 {
        match tier.curve {
            LatencyCurve::Quadratic => 2.0,
            LatencyCurve::Linear => 1.0,
            LatencyCurve::Cubic => 3.0,
            LatencyCurve::Adaptive => {
                if tier.full_latency > 0.0 {
                    1.0 + (tier.idle_latency / tier.full_latency).clamp(0.0, 1.0)
                } else {
                    2.0
                }
            }
        }
    }

    pub fn latency(tier: &TierEndpoint, x_prime: f64) -> f64 {
        let contention = (tier.full_latency - tier.idle_latency).max(0.0);
        tier.idle_latency + contention * x_prime.max(0.0).powf(exponent(tier))
    }

    pub fn load_scale(tier: &TierEndpoint, x_prime: f64) -> f64 {
        if tier.full_latency <= 0.0 {
            return x_prime;
        }
        x_prime * latency(tier, x_prime) / tier.full_latency.max(tier.idle_latency)
    }

    pub fn predict_components(model: &InterleaveModel, x: f64) -> SlowdownPrediction {
        assert!((0.0..=1.0).contains(&x), "ratio must be in [0,1]");
        let c = model.baseline_cycles.max(1.0);
        let m_fast = load_scale(&model.dram, x);
        let m_slow = load_scale(&model.slow, 1.0 - x);
        let combine = |s_dram: f64, s_slow: f64| (m_fast * s_dram + m_slow * s_slow - s_dram) / c;
        SlowdownPrediction {
            drd: combine(model.dram.stalls.llc, model.slow.stalls.llc),
            cache: combine(model.dram.stalls.cache, model.slow.stalls.cache),
            store: combine(model.dram.stalls.sb, model.slow.stalls.sb),
        }
    }

    pub fn predict_total(model: &InterleaveModel, x: f64) -> f64 {
        predict_components(model, x).total()
    }

    pub fn best_shot(model: &InterleaveModel) -> BestShot {
        let mut best = BestShot {
            ratio: 1.0,
            predicted_slowdown: predict_total(model, 1.0),
        };
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            let s = predict_total(model, x);
            if s < best.predicted_slowdown {
                best = BestShot { ratio: x, predicted_slowdown: s };
            }
        }
        best
    }
}

/// Values that sit on the edges of the Eq. 8–9 formulas.
const EDGES: [f64; 9] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    -250.0,
    1e-300,
    1.0,
    4e300,
];

/// A latency: usually a plausible cycle count, sometimes an edge value.
fn arb_latency(rng: &mut SplitMix) -> f64 {
    if rng.below(4) == 0 {
        EDGES[rng.below(EDGES.len() as u64) as usize]
    } else {
        10.0 + rng.unit() * 2_000.0
    }
}

/// A tier that is uncontended (`L_full == L_idle`, the serving path),
/// contended, inverted, or built from two independent latencies.
fn arb_tier(rng: &mut SplitMix) -> TierEndpoint {
    let idle = arb_latency(rng);
    let full = match rng.below(4) {
        0 => idle,
        1 => idle + rng.unit() * 3_000.0,
        2 => idle - rng.unit() * 100.0,
        _ => arb_latency(rng),
    };
    let mut stall = || if rng.below(16) == 0 { arb_latency(rng) } else { rng.unit() * 1e7 };
    let stalls = ComponentStalls { llc: stall(), cache: stall(), sb: stall() };
    let curve = [
        LatencyCurve::Quadratic,
        LatencyCurve::Adaptive,
        LatencyCurve::Linear,
        LatencyCurve::Cubic,
    ][rng.below(4) as usize];
    TierEndpoint {
        idle_latency: idle,
        full_latency: full,
        stalls,
        curve,
    }
}

fn arb_model(rng: &mut SplitMix) -> InterleaveModel {
    let baseline_cycles = match rng.below(8) {
        0 => arb_latency(rng),
        _ => 1e3 + rng.unit() * 1e9,
    };
    InterleaveModel {
        dram: arb_tier(rng),
        slow: arb_tier(rng),
        baseline_cycles,
        boundness: camp_core::Boundness::BandwidthBound,
        profiling_runs: 2,
    }
}

/// The per-call curve evaluator, and its shortcut on uncontended tiers,
/// give every public evaluation the bits of the reference formulas: over
/// all four latency curves, contended and uncontended tiers, and edge
/// endpoints and load shares (NaN, ±∞, −0.0, zero or negative latencies,
/// shares outside [0, 1]).
#[test]
fn curve_evaluation_matches_the_reference_formulas_bit_for_bit() {
    // Bits must match, zero signs included. Any NaN matches any NaN: where
    // several NaN operands meet, Rust leaves the result's sign and payload
    // unspecified, and even one formula compiled at two call sites differs.
    let same = |a: f64, b: f64, what: &str, at: f64, model: &InterleaveModel| {
        if !(a.is_nan() && b.is_nan()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} at {at:?}: {a:?} vs {b:?} for {model:?}");
        }
    };
    let shares = [
        f64::NAN,
        f64::NEG_INFINITY,
        -1.0,
        -0.0,
        0.0,
        1e-300,
        0.25,
        0.5,
        1.0 - f64::EPSILON / 2.0,
        1.0,
        1.0 + f64::EPSILON,
        2.0,
        f64::INFINITY,
    ];
    let mut rng = SplitMix::new(0xb17_1de7);
    for _ in 0..24_000 {
        let model = arb_model(&mut rng);
        for tier in [&model.dram, &model.slow] {
            for x in shares.into_iter().chain([rng.unit()]) {
                same(tier.latency(x), reference::latency(tier, x), "latency", x, &model);
                same(tier.load_scale(x), reference::load_scale(tier, x), "load_scale", x, &model);
            }
        }
        for x in [-0.0, 0.0, 1.0, rng.unit(), rng.below(101) as f64 / 100.0] {
            let got = model.predict_components(x);
            let want = reference::predict_components(&model, x);
            same(got.drd, want.drd, "drd", x, &model);
            same(got.cache, want.cache, "cache", x, &model);
            same(got.store, want.store, "store", x, &model);
            same(model.predict_total(x), reference::predict_total(&model, x), "total", x, &model);
        }
        let steps = 1 + rng.below(100) as usize;
        for (&(x, total), i) in model.curve(steps).iter().zip(0..) {
            let want = i as f64 / steps as f64;
            same(x, want, "curve ratio", x, &model);
            same(total, reference::predict_total(&model, want), "curve", x, &model);
        }
        let got = best_shot(&model);
        let want = reference::best_shot(&model);
        same(got.ratio, want.ratio, "best ratio", want.ratio, &model);
        same(
            got.predicted_slowdown,
            want.predicted_slowdown,
            "best slowdown",
            want.ratio,
            &model,
        );
    }
}
